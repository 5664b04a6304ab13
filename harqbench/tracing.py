"""Spans around harqfbl's public functions, for the traced run.

Each traced function is replaced, in every harqfbl module that binds it and
in the workloads' own namespace, by a wrapper that records a span (name,
start, end, parent) and counts work from the call's inputs and result.
Spans stay in memory until the run writes them out.  A function that a
later change removes or renames is reported as missing, together with the
metrics that need it; the run goes on without them.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


def _cli_out_dir(args) -> Path | None:
    argv = list(args[0]) if args else []
    return Path(argv[argv.index("--out") + 1]) if "--out" in argv else None


def _nonzero_paths(q, transitions, m: int) -> int:
    """State paths with nonzero probability, summed over depths 1..m."""
    L = len(q)
    live = [1 if x > 0.0 else 0 for x in q]
    total = sum(live)
    for _ in range(m - 1):
        live = [sum(live[i] for i in range(L) if transitions[i][j] > 0.0) for j in range(L)]
        total += sum(live)
    return total


def _count_cli(tracer, args, result, before):
    out = _cli_out_dir(args)
    if out is not None and out.is_dir():
        tracer.counts["cli.artifact_bytes"] += _dir_bytes(out) - before


def _count_trace(tracer, args, result, before):
    tracer.counts["montecarlo.trace_samples"] += len(result) * result.n_oscillators


def _count_sim(tracer, args, result, before):
    tracer.counts["montecarlo.packets"] += result.packets


def _count_build(tracer, args):
    # a probe, so that builds which raise (from_target_c skips those) count too
    tracer.counts["fsmc.builds"] += 1


def _count_fading(tracer, args, result, before):
    model, m = args[0].model, args[0].cfg.m
    # with_avg_snr shares the transitions tuple, so its identity keys every
    # SNR of one model; the entry holds the tuple so that the id stays unique
    entry = tracer.path_counts.get((id(model.transitions), m))
    if entry is None or entry[0] is not model.transitions:
        entry = (model.transitions, _nonzero_paths(model.q, model.transitions, m))
        tracer.path_counts[(id(model.transitions), m)] = entry
    paths = entry[1]
    tracer.counts["fading.paths"] += paths
    tracer.counts["fbl.evals"] += paths


def _count_awgn(tracer, args, result, before):
    tracer.counts["fbl.evals"] += args[0].m


def _count_points(tracer, args, result, before):
    tracer.counts["optimize.points"] += len(result.frontier)


def _count_atoms(tracer, args, result, before):
    tracer.counts["delay.atoms"] += len(result.support)


def _before_cli(tracer, args):
    out = _cli_out_dir(args)
    return _dir_bytes(out) if out is not None and out.is_dir() else 0


# (module, function, counter of the result, probe before the call); the layer
# is the module name.  A counter runs only when the call returns.
TRACED = (
    ("cli", "main", _count_cli, _before_cli),
    ("montecarlo", "generate_trace", _count_trace, None),
    ("montecarlo", "simulate_harq", _count_sim, None),
    ("fsmc", "from_target_c", None, None),
    ("fsmc", "build_equal_duration", None, _count_build),
    ("fsmc", "build_fixed_sojourn", None, _count_build),
    ("fading", "outcomes_fading", _count_fading, None),
    ("outcomes", "outcomes_awgn", _count_awgn, None),
    ("optimize", "sweep", None, None),
    ("optimize", "optimize_tau1", _count_points, None),
    ("optimize", "optimize_tau12", _count_points, None),
    ("delay", "stream_delay", _count_atoms, None),
    ("delay", "overhead_ccdf", None, None),
)

_FSMC = ("fsmc.from_target_c", "fsmc.build_equal_duration", "fsmc.build_fixed_sojourn")
_OPT_SEARCH = ("optimize.optimize_tau1", "optimize.optimize_tau12")
_KERNEL_CALLERS = ("outcomes.outcomes_awgn", "fading.outcomes_fading")

# name -> (unit, kind, spans the metric reads, counter); kind "self" sums the
# spans' self time, "count" reads the counter, "rate" divides the counter by
# the spans' self time and "rate_incl" by their inclusive time.
LAYER_METRICS = {
    "cli.self_s": ("s", "self", ("cli.main",), None),
    "cli.artifact_bytes": ("bytes", "count", ("cli.main",), "cli.artifact_bytes"),
    "montecarlo.trace_s": ("s", "self", ("montecarlo.generate_trace",), None),
    "montecarlo.trace_samples_per_s": ("osc-samples/s", "rate", ("montecarlo.generate_trace",),
                                       "montecarlo.trace_samples"),
    "montecarlo.sim_s": ("s", "self", ("montecarlo.simulate_harq",), None),
    "montecarlo.packets_per_s": ("packets/s", "rate", ("montecarlo.simulate_harq",), "montecarlo.packets"),
    "fsmc.build_s": ("s", "self", _FSMC, None),
    "fsmc.builds": ("count", "count", _FSMC[1:], "fsmc.builds"),
    "fsmc.builds_per_s": ("builds/s", "rate", _FSMC, "fsmc.builds"),
    "fading.exact_s": ("s", "self", ("fading.outcomes_fading",), None),
    "fading.paths": ("count", "count", ("fading.outcomes_fading",), "fading.paths"),
    "fading.paths_per_s": ("paths/s", "rate", ("fading.outcomes_fading",), "fading.paths"),
    "outcomes.awgn_s": ("s", "self", ("outcomes.outcomes_awgn",), None),
    "fbl.evals": ("count", "count", _KERNEL_CALLERS, "fbl.evals"),
    "fbl.evals_per_s": ("evals/s", "rate", _KERNEL_CALLERS, "fbl.evals"),
    "optimize.self_s": ("s", "self", ("optimize.sweep",) + _OPT_SEARCH, None),
    "optimize.points": ("count", "count", _OPT_SEARCH, "optimize.points"),
    "optimize.points_per_s": ("points/s", "rate_incl", _OPT_SEARCH, "optimize.points"),
    "delay.stream_s": ("s", "self", ("delay.stream_delay",), None),
    "delay.atoms": ("count", "count", ("delay.stream_delay",), "delay.atoms"),
    "delay.atoms_per_s": ("atoms/s", "rate", ("delay.stream_delay",), "delay.atoms"),
    "delay.ccdf_s": ("s", "self", ("delay.overhead_ccdf",), None),
}


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.path_counts: dict[tuple, tuple] = {}

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, name, fn, count, before):
        def traced(*args, **kwargs):
            probe = before(self, args) if before else None
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count:
                count(self, args, result, probe)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, *sites):
        """Wrap every traced function in harqfbl's modules and in sites."""
        targets = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "harqfbl" or name.startswith("harqfbl."))]
        targets += list(sites)
        undo = []
        try:
            for module, fname, count, before in TRACED:
                mod = sys.modules.get(f"harqfbl.{module}")
                original = getattr(mod, fname, None) if mod is not None else None
                if not callable(original):
                    self.missing.append(f"{module}.{fname}")
                    continue
                wrapper = self.wrap(f"{module}.{fname}", original, count, before)
                for site in targets:
                    for attr, value in list(vars(site).items()):
                        if value is original:
                            setattr(site, attr, wrapper)
                            undo.append((site, attr, original))
            yield self
        finally:
            for site, attr, original in reversed(undo):
                setattr(site, attr, original)

    def self_times(self, first: int, last: int) -> tuple[Counter, Counter]:
        """Self and inclusive time per span name over spans[first:last]."""
        own: Counter = Counter()
        incl: Counter = Counter()
        child: dict[int, float] = {}
        for i in range(first, last):
            name, start, end, parent = self.spans[i]
            if parent >= first:
                child[parent] = child.get(parent, 0.0) + (end - start)
        for i in range(first, last):
            name, start, end, _ = self.spans[i]
            incl[name] += end - start
            own[name] += end - start - child.get(i, 0.0)
        return own, incl


def pass_metrics(tracer: Tracer, first: int, last: int, counts: Counter) -> dict[str, float]:
    """Per-layer values of one pass; metrics needing a missing function are left out."""
    own, incl = tracer.self_times(first, last)
    values = {}
    for name, (_, kind, spans, counter) in LAYER_METRICS.items():
        if any(s in tracer.missing for s in spans):
            continue
        busy = float(sum(own[s] for s in spans))
        if kind == "self":
            values[name] = busy
        elif kind == "count":
            values[name] = float(counts[counter])
        else:
            seconds = sum(incl[s] for s in spans) if kind == "rate_incl" else busy
            values[name] = counts[counter] / seconds if seconds > 0.0 else 0.0
    return values


def missing_metrics(tracer: Tracer) -> list[str]:
    return [name for name, (_, _, spans, _) in LAYER_METRICS.items()
            if any(s in tracer.missing for s in spans)]


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, dict]:
    names = per_pass[0].keys() if per_pass else ()
    return {n: {"value": statistics.median(p[n] for p in per_pass), "unit": LAYER_METRICS[n][0]}
            for n in names}


def layer_shares(tracer: Tracer, first: int, last: int) -> dict[str, float]:
    """Self time per layer (module name, or the benchmark itself) over the spans."""
    own, _ = tracer.self_times(first, last)
    shares: Counter = Counter()
    for name, t in own.items():
        shares[name.split(".")[0]] += t
    return dict(shares)

