"""Spans around calls into freedeconv's layers, recorded from outside the package.

``install`` wraps every public function of the layer modules and puts each
wrapper into every freedeconv namespace that holds the original, so a call
is traced wherever its caller looks the name up (``models`` imports
``boxed_conv`` by name, ``series`` calls its own ``boxed_conv`` through its
globals).  A span's self time is its duration minus the time of the spans it
encloses.  Spans are aggregated in memory per function, because one
``spn_recover`` call opens about 20,000 of them.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("ncpart", "series", "models", "subordination", "randmat", "cli")

# In the CLI only the dispatcher is a span: its self time is the CLI's own
# work (file I/O, JSON) between the library calls it makes.
_CLI_SPANS = ("run",)


class Tracer:
    """Aggregated spans plus the counters the per-layer metrics need."""

    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total s, self s
        self.samples = defaultdict(list)
        self.counts = defaultdict(float)
        self.seen_orders: set = set()
        self._stack: list = []

    def reset(self) -> None:
        """Forget what was recorded, but not which profile orders were built."""
        self.spans.clear()
        self.samples.clear()
        self.counts.clear()

    def to_dict(self) -> dict:
        return {"spans": dict(self.spans), "samples": dict(self.samples),
                "counts": dict(self.counts)}

    def merge(self, data: dict) -> None:
        for key, (calls, total, self_s) in data["spans"].items():
            span = self.spans[key]
            span[0] += calls
            span[1] += total
            span[2] += self_s
        for key, values in data["samples"].items():
            self.samples[key].extend(values)
        for key, value in data["counts"].items():
            self.counts[key] += value

    def wrap(self, key: str, fn, after=None, suffix=None):
        """Return ``fn`` recording a span under ``key``.

        ``suffix(args)`` appends a label to the key per call; ``after(args,
        result, seconds)`` records counters once the call has returned.
        """
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                span = spans[key + suffix(args) if suffix else key]
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - inner
            if after is not None:
                after(args, result, elapsed)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters recorded after particular calls ---------------------------

    def _profiles(self, args, result, elapsed):
        order = args[0]
        if order in self.seen_orders:
            self.counts["profile_hits"] += 1
        else:
            self.seen_orders.add(order)
            self.counts["profile_builds"] += 1
            self.counts["profile_build_s"] += elapsed

    def _recover(self, args, result, elapsed):
        self.samples["recover_evals"].append(len(getattr(result, "search_trace", ())))

    def _density(self, args, result, elapsed):
        self.samples["max_iterations"].append(int(getattr(result, "max_iterations", 0)))
        self.counts["density_points"] += len(result.grid)

    def _realize(self, args, result, elapsed):
        model, spec = args[0], args[1]
        # Y*Y for a p-by-d Y: d*d*p multiply-adds, four real ones each if complex
        flops = 2.0 * model.p * model.d * model.d
        self.counts["realize_flop"] += flops * (4 if spec.field == "complex" else 1)


def _scalar_kind(args) -> str:
    return "." + str(getattr(args[0], "scalar_kind", "unknown"))


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer module in every namespace."""
    namespaces = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == "freedeconv" or name.startswith("freedeconv."))]
    hooks = {
        "ncpart.convolution_profiles": (tracer._profiles, None),
        "series.boxed_conv": (None, _scalar_kind),
        "models.spn_recover": (tracer._recover, None),
        "subordination.spn_density": (tracer._density, None),
        "randmat.realize_spn": (tracer._realize, None),
        "randmat.realize_cw": (tracer._realize, None),
    }
    for layer in LAYERS:
        module = sys.modules.get("freedeconv." + layer)
        if module is None:
            continue
        for name, fn in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != module.__name__:
                continue
            if layer == "cli" and name not in _CLI_SPANS:
                continue
            key = f"{layer}.{name}"
            after, suffix = hooks.get(key, (None, None))
            traced = tracer.wrap(key, fn, after=after, suffix=suffix)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, attr, traced)


def _self(tracer: Tracer, prefix: str) -> float:
    return sum(s[2] for k, s in tracer.spans.items() if k.startswith(prefix))


def _total(tracer: Tracer, prefix: str) -> float:
    return sum(s[1] for k, s in tracer.spans.items() if k.startswith(prefix))


def _calls(tracer: Tracer, prefix: str) -> int:
    return sum(s[0] for k, s in tracer.spans.items() if k.startswith(prefix))


def layer_shares(tracer: Tracer) -> dict:
    """Each layer's share of all traced self time."""
    per_layer = {layer: _self(tracer, layer + ".") for layer in LAYERS}
    total = sum(per_layer.values()) or 1.0
    return {layer: round(v / total, 4) for layer, v in per_layer.items()}


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer metrics; times and counts are per operation of the workload."""
    per_op = 1.0 / max(ops, 1)
    c = tracer.counts
    profile_calls = c["profile_hits"] + c["profile_builds"]
    evals = tracer.samples.get("recover_evals", [])
    its = tracer.samples.get("max_iterations", [])
    density_s = _total(tracer, "subordination.spn_density")
    realize_self = _self(tracer, "randmat.realize_")
    starts = tracer.samples.get("cli_start_s", [])
    values = {
        "ncpart.profile_build_s": (c["profile_build_s"] * per_op, "s"),
        "ncpart.profile_builds": (c["profile_builds"] * per_op, "count"),
        "ncpart.profile_hit_ratio": (
            c["profile_hits"] / profile_calls if profile_calls else 0.0, "ratio"),
        "series.boxed_conv.calls": (_calls(tracer, "series.boxed_conv.") * per_op, "count"),
        "series.boxed_conv.rational_self_s": (
            _self(tracer, "series.boxed_conv.rational") * per_op, "s"),
        "series.boxed_conv.float_self_s": (
            _self(tracer, "series.boxed_conv.float") * per_op, "s"),
        "series.boxed_inverse.self_s": (_self(tracer, "series.boxed_inverse") * per_op, "s"),
        "series.self_s": (_self(tracer, "series.") * per_op, "s"),
        "models.spn_recover.self_s": (_self(tracer, "models.spn_recover") * per_op, "s"),
        "models.recover_evals_per_call": (statistics.fmean(evals) if evals else 0.0, "count"),
        "models.spn_moments.self_s": (_self(tracer, "models.spn_moments") * per_op, "s"),
        "models.cw_moments.self_s": (_self(tracer, "models.cw_moments") * per_op, "s"),
        "subordination.spn_density.self_s": (
            _self(tracer, "subordination.spn_density") * per_op, "s"),
        "subordination.max_iterations_p50": (statistics.median(its) if its else 0, "count"),
        "subordination.max_iterations_max": (max(its) if its else 0, "count"),
        "subordination.points_per_s": (
            c["density_points"] / density_s if density_s else 0.0, "points/s"),
        "randmat.sample_ginibre.s": (_total(tracer, "randmat.sample_ginibre") * per_op, "s"),
        "randmat.realize.self_s": (realize_self * per_op, "s"),
        "randmat.eigenvalues_selfadjoint.s": (
            _total(tracer, "randmat.eigenvalues_selfadjoint") * per_op, "s"),
        "randmat.realize_gflop_per_s": (
            c["realize_flop"] / realize_self / 1e9 if realize_self else 0.0, "GFLOP/s"),
        "cli.start_s": (statistics.fmean(starts) if starts else 0.0, "s"),
        "cli.self_s": (_self(tracer, "cli.") * per_op, "s"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
