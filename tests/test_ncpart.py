import itertools

import pytest

from freedeconv.errors import (
    InsufficientOrderError,
    MalformedPartitionError,
    OrderTooLargeError,
)
from freedeconv.ncpart import (
    NcPartition,
    catalan,
    coef_product,
    enumerate_nc,
    is_noncrossing,
    kreweras,
)


def interleaves_noncrossing(pi, rho):
    # pi sits on odd positions 2k-1, rho on the barred even positions 2k.
    blocks = [tuple(2 * x - 1 for x in b) for b in pi.blocks]
    blocks += [tuple(2 * x for x in b) for b in rho.blocks]
    return is_noncrossing(blocks, 2 * pi.n)


def refines(rho, tau):
    return all(
        any(set(b) <= set(t) for t in tau.blocks) for b in rho.blocks
    )


def rotate_down(part):
    # x -> x-1 cyclically; 1 wraps to n.
    n = part.n
    blocks = [tuple(x - 1 if x > 1 else n for x in b) for b in part.blocks]
    return NcPartition(n, tuple(blocks))


# ---------------------------------------------------------------- enumeration

@pytest.mark.parametrize("n", range(1, 11))
def test_enumeration_count_is_catalan(n):
    assert len(enumerate_nc(n)) == catalan(n)


def test_enumeration_no_duplicates_all_noncrossing():
    for n in range(1, 8):
        parts = enumerate_nc(n)
        assert len(set(parts)) == len(parts)
        for part in parts:
            assert is_noncrossing(part.blocks, n)


def test_enumeration_order_is_lexicographic():
    got = [p.blocks for p in enumerate_nc(3)]
    assert got == [
        ((1,), (2,), (3,)),
        ((1,), (2, 3)),
        ((1, 2), (3,)),
        ((1, 2, 3),),
        ((1, 3), (2,)),
    ]


def test_enumeration_contains_known_partition():
    parts = enumerate_nc(4)
    assert len(parts) == 14
    assert NcPartition(4, ((1, 3), (2,), (4,))) in parts


def test_enumeration_order_guard():
    with pytest.raises(OrderTooLargeError):
        enumerate_nc(15)


def test_enumeration_guard_env_override(monkeypatch):
    monkeypatch.setenv("FREEDECONV_MAX_NC_ORDER", "3")
    with pytest.raises(OrderTooLargeError):
        enumerate_nc(4)
    monkeypatch.delenv("FREEDECONV_MAX_NC_ORDER")
    assert len(enumerate_nc(4)) == 14


# ----------------------------------------------------------------- validation

def test_is_noncrossing_examples():
    assert not is_noncrossing([[1, 3], [2, 4]])
    assert is_noncrossing([[1, 4], [2, 3]])
    assert is_noncrossing([[1, 2, 3, 4]])


def test_is_noncrossing_rejects_malformed():
    with pytest.raises(MalformedPartitionError):
        is_noncrossing([[1, 2], [2, 3]])
    with pytest.raises(MalformedPartitionError):
        is_noncrossing([[1, 2], [4]])
    with pytest.raises(MalformedPartitionError):
        is_noncrossing([[1], []], n=1)


def set_partitions(n):
    # restricted growth strings: a[0] = 0, a[i] <= 1 + max(a[:i])
    def grow(prefix, top):
        if len(prefix) == n:
            yield prefix
            return
        for v in range(top + 2):
            yield from grow(prefix + [v], max(top, v))

    for labels in grow([0], 0):
        blocks = {}
        for x, label in enumerate(labels, start=1):
            blocks.setdefault(label, []).append(x)
        yield list(blocks.values())


def crosses_by_definition(blocks):
    where = {x: i for i, b in enumerate(blocks) for x in b}
    n = len(where)
    return any(
        where[a] == where[c] != where[b] == where[d]
        for a, b, c, d in itertools.combinations(range(1, n + 1), 4)
    )


@pytest.mark.parametrize("n", range(1, 8))
def test_crossing_rule_matches_definition(n):
    noncrossing = 0
    for blocks in set_partitions(n):
        crossing = crosses_by_definition(blocks)
        assert is_noncrossing(blocks, n) == (not crossing)
        if crossing:
            with pytest.raises(MalformedPartitionError):
                NcPartition(n, tuple(map(tuple, blocks)))
        else:
            NcPartition(n, tuple(map(tuple, blocks)))
            noncrossing += 1
    assert noncrossing == catalan(n)


def test_partition_constructor_validates():
    with pytest.raises(MalformedPartitionError):
        NcPartition(4, ((1, 3), (2, 4)))
    with pytest.raises(MalformedPartitionError):
        NcPartition(3, ((1, 2),))
    part = NcPartition(4, ((4,), (2,), (3, 1)))
    assert part.blocks == ((1, 3), (2,), (4,))


# ------------------------------------------------------------------- kreweras

def test_kreweras_full_block_gives_singletons():
    for n in (1, 3, 5):
        part = NcPartition(n, (tuple(range(1, n + 1)),))
        assert kreweras(part).blocks == tuple((k,) for k in range(1, n + 1))


def test_kreweras_singletons_give_full_block():
    part = NcPartition(4, ((1,), (2,), (3,), (4,)))
    assert kreweras(part).blocks == ((1, 2, 3, 4),)


def test_kreweras_hand_example():
    # Brute-force maximality over interleavings confirms this complement.
    part = NcPartition(4, ((1, 3), (2,), (4,)))
    assert kreweras(part).blocks == ((1, 2), (3, 4))


@pytest.mark.parametrize("n", range(1, 9))
def test_kreweras_rank_identity(n):
    for part in enumerate_nc(n):
        assert len(part) + len(kreweras(part)) == n + 1


@pytest.mark.parametrize("n", range(1, 7))
def test_kreweras_interleaving_stays_noncrossing(n):
    for part in enumerate_nc(n):
        comp = kreweras(part)
        assert is_noncrossing(comp.blocks, n)
        assert interleaves_noncrossing(part, comp)


@pytest.mark.parametrize("n", range(1, 7))
def test_kreweras_matches_definitional_maximum(n):
    # The complement is the refinement-greatest partition of the barred copy
    # whose interleaving with the input stays non-crossing.
    for part in enumerate_nc(n):
        comp = kreweras(part)
        compatible = [
            rho for rho in enumerate_nc(n) if interleaves_noncrossing(part, rho)
        ]
        assert comp in compatible
        for rho in compatible:
            assert refines(rho, comp)


@pytest.mark.parametrize("n", range(1, 7))
def test_kreweras_squared_is_rotation(n):
    for part in enumerate_nc(n):
        assert kreweras(kreweras(part)) == rotate_down(part)


# --------------------------------------------------------------- coef_product

def test_coef_product_delta_kills_big_blocks():
    delta = (1, 0, 0, 0)
    assert coef_product(delta, NcPartition(4, ((1, 2), (3,), (4,)))) == 0
    assert coef_product(delta, NcPartition(4, ((1,), (2,), (3,), (4,)))) == 1


def test_coef_product_all_ones():
    ones = (1, 1, 1, 1, 1)
    for part in enumerate_nc(5):
        assert coef_product(ones, part) == 1


def test_coef_product_hand_value():
    assert coef_product((2, 3), NcPartition(3, ((1, 3), (2,)))) == 6


def test_coef_product_insufficient_order():
    with pytest.raises(InsufficientOrderError):
        coef_product((2, 3), NcPartition(3, ((1, 2, 3),)))
