"""Non-crossing partitions, Kreweras complements, and partition-indexed products.

A partition of {1..n} is non-crossing when no two blocks interleave, i.e.
there are no indices a < b < c < d with a, c in one block and b, d in
another.  The lattice NC(n) has Catalan(n) elements and carries the
Kreweras complement, the involution-like map that pairs each partition
with the coarsest partition of an interleaved copy of {1..n} compatible
with it.  Read as a permutation pi of increasing cycles, a partition is
non-crossing iff #blocks(pi) + #cycles(pi^-1 gamma) = n + 1, gamma =
(1 2 .. n), and those cycles are its complement (Biane, Discrete Math. 175,
1997).  These are the index sets that define boxed convolution; the
:mod:`freedeconv.series` module computes it by a subordination recursion
instead, and the enumeration here serves the ``nc`` command and tests.
"""

from __future__ import annotations

import functools
import math
import os
from typing import Iterable, Iterator, Sequence

from ._record import Record
from .errors import (
    DomainError,
    InsufficientOrderError,
    MalformedPartitionError,
    OrderTooLargeError,
    require_int,
)

DEFAULT_MAX_ORDER = 14
_MAX_ORDER_ENV = "FREEDECONV_MAX_NC_ORDER"


def catalan(n: int) -> int:
    """n-th Catalan number (2n choose n)/(n+1)."""
    return math.comb(2 * n, n) // (n + 1)


def _canonical_blocks(blocks: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    inner = [tuple(sorted(b)) for b in blocks]
    if any(not b for b in inner):
        raise MalformedPartitionError("empty block")
    return tuple(sorted(inner, key=lambda b: b[0]))


def _validate_partition(n: int, blocks: tuple[tuple[int, ...], ...]) -> None:
    seen: set[int] = set()
    for b in blocks:
        for x in b:
            if not isinstance(x, int) or isinstance(x, bool):
                raise MalformedPartitionError(f"non-integer element {x!r}")
            if x in seen:
                raise MalformedPartitionError(f"element {x} appears in two blocks")
            seen.add(x)
    if seen != set(range(1, n + 1)):
        raise MalformedPartitionError(f"blocks do not cover {{1..{n}}}")


def _kreweras_cycles(n: int, blocks: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Cycles of pi^-1 gamma for the set partition ``blocks`` of {1..n}.

    Each cycle is walked from its least element, so they come out ordered by
    minimum; when ``blocks`` is non-crossing every cycle is also increasing,
    i.e. this is the canonical form of the Kreweras complement.
    """
    inv = [0] * (n + 1)
    for b in blocks:
        for i, x in enumerate(b):
            inv[b[(i + 1) % len(b)]] = x
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = inv[x % n + 1]
        if cyc:
            cycles.append(tuple(cyc))
    return tuple(cycles)


class NcPartition(Record):
    """A non-crossing partition of {1..n} in canonical block form.

    Blocks are stored sorted by minimum element, ascending within each
    block.  Construction validates both the set-partition property and
    non-crossingness.
    """

    __slots__ = ("n", "blocks")

    def __init__(self, n: int, blocks: tuple[tuple[int, ...], ...]):
        if n < 1:
            raise MalformedPartitionError("ground set must be nonempty")
        canon = _canonical_blocks(blocks)
        _validate_partition(n, canon)
        if len(canon) + len(_kreweras_cycles(n, canon)) != n + 1:
            raise MalformedPartitionError(f"partition {canon} has a crossing")
        self._init(n, canon)

    @classmethod
    def _trusted(cls, n: int, blocks: tuple[tuple[int, ...], ...]) -> "NcPartition":
        # Internal fast path for blocks already canonical and non-crossing.
        obj = object.__new__(cls)
        obj._init(n, blocks)
        return obj

    def __len__(self) -> int:
        return len(self.blocks)

    def __str__(self) -> str:
        return "{" + ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks) + "}"


def is_noncrossing(blocks: Iterable[Iterable[int]], n: int | None = None) -> bool:
    """True iff ``blocks`` is a non-crossing set partition of {1..n}.

    ``n`` defaults to the total number of elements.  Raises
    MalformedPartitionError when the blocks do not form a partition at all.
    """
    canon = _canonical_blocks(blocks)
    if n is None:
        n = sum(len(b) for b in canon)
    if n < 1:
        raise MalformedPartitionError("empty partition")
    _validate_partition(n, canon)
    return len(canon) + len(_kreweras_cycles(n, canon)) == n + 1


def _max_order() -> int:
    raw = os.environ.get(_MAX_ORDER_ENV)
    if raw is not None:
        try:
            return int(raw)
        except ValueError:
            raise DomainError(
                f"{_MAX_ORDER_ENV} must be an integer, got {raw!r}", module="ncpart"
            ) from None
    return DEFAULT_MAX_ORDER


def _nc_blocks(lo: int, hi: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Each non-crossing partition of range(lo, hi) once, in canonical form.

    Either ``lo`` is a singleton, or its block continues at some j and the
    elements strictly between lo and j form an enclosed partition of their own.
    """
    if lo == hi:
        yield ()
        return
    for rest in _nc_blocks(lo + 1, hi):
        yield ((lo,),) + rest
    for j in range(lo + 1, hi):
        for gap in _nc_blocks(lo + 1, j):
            for rest in _nc_blocks(j, hi):
                yield ((lo,) + rest[0],) + gap + rest[1:]


def enumerate_nc(n: int) -> tuple[NcPartition, ...]:
    """All non-crossing partitions of {1..n}, lexicographic in canonical form.

    The list has Catalan(n) entries and is cached process-wide.  ``n`` above
    the configured maximum (default 14, overridable via the
    FREEDECONV_MAX_NC_ORDER environment variable) raises OrderTooLargeError
    to guard the Catalan blow-up.
    """
    limit = _max_order()
    require_int(n, "order", "ncpart")
    if n < 1:
        raise MalformedPartitionError("order must be >= 1")
    if n > limit:
        raise OrderTooLargeError(f"NC({n}) exceeds the configured maximum order {limit}")
    return _partitions(n)


@functools.cache
def _partitions(n: int) -> tuple[NcPartition, ...]:
    return tuple(NcPartition._trusted(n, b) for b in sorted(_nc_blocks(1, n + 1)))


def kreweras(part: NcPartition) -> NcPartition:
    """Kreweras complement of a non-crossing partition.

    The complement is the coarsest partition of the interleaved barred copy
    {1', .., n'} whose union with ``part`` stays non-crossing under the order
    1 <= 1' <= 2 <= 2' <= ... <= n <= n'.  It satisfies
    ``len(part) + len(kreweras(part)) == n + 1``.
    """
    return NcPartition._trusted(part.n, _kreweras_cycles(part.n, part.blocks))


def coef_product(coeffs: Sequence, part: NcPartition):
    """Product of ``coeffs[len(block) - 1]`` over the blocks of ``part``.

    ``coeffs`` is indexed from order 1, i.e. ``coeffs[0]`` is the first
    coefficient.  Raises InsufficientOrderError when a block is larger than
    the available coefficients.
    """
    result = 1
    for b in part.blocks:
        size = len(b)
        if size > len(coeffs):
            raise InsufficientOrderError(
                f"block of size {size} but only {len(coeffs)} coefficients"
            )
        result = result * coeffs[size - 1]
    return result
