"""The benchmark's own tests: each check passes the program's answer and
rejects a perturbed one, and the traced run survives a missing function.

    python3 -m pytest harqbench/test_checks.py -q

Workloads run at smoke size, so the whole file takes a few seconds.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracing import LAYER_METRICS, Tracer, missing_metrics, pass_metrics  # noqa: E402
from workloads import WORKLOADS, Ops  # noqa: E402

API = run.import_program()


def smoke_pass(name: str, tmp: Path):
    workload = WORKLOADS[name](API, 3, smoke=True)
    ops = Ops()
    digest = workload.digest(workload.run_pass(tmp, ops))
    assert ops.failed == 0, ops.errors
    return workload, digest


@pytest.fixture(scope="module")
def paper(tmp_path_factory):
    return smoke_pass("paper_artifacts", tmp_path_factory.mktemp("paper"))


@pytest.fixture(scope="module")
def doppler(tmp_path_factory):
    return smoke_pass("doppler_design", tmp_path_factory.mktemp("doppler"))


@pytest.fixture(scope="module")
def latency(tmp_path_factory):
    return smoke_pass("latency_tail", tmp_path_factory.mktemp("latency"))


def test_program_answers_pass(paper, doppler, latency):
    for workload, digest in (paper, doppler, latency):
        assert workload.check(digest) == []


# ------------------------------------------------------------ paper_artifacts

def edit_csv(path: Path, row: int, col: int, factor: float) -> None:
    lines = path.read_text().splitlines()
    body = [i for i, line in enumerate(lines) if line and not line.startswith("#")][1:]
    cells = lines[body[row]].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[body[row]] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def edit_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def shift_winner(payload):
    report = next(r for r in payload["reports"] if r["feasible"])
    others = [p for p in report["frontier"] if p["feasible"] and p["taus"] != report["tau_hat"]]
    report["tau_hat"] = min(others, key=lambda p: p["throughput"])["taus"]


def scale_share(payload, i, factor):
    shares = payload["empirical"]["p"] + [payload["empirical"]["p_e"]]
    shares[i] *= factor
    payload["empirical"]["p"], payload["empirical"]["p_e"] = shares[:-1], shares[-1]


PAPER_EDITS = {
    "fig2a_per_curve.csv": lambda p: edit_csv(p, 40, 3, 1.0 + 1e-6),
    "fig4b_per_curve.csv": lambda p: edit_csv(p, 5, 5, 1.0 + 1e-6),
    "fig5_per_surface.csv": lambda p: edit_csv(p, 17, 4, 1.0 - 1e-6),
    "fig3_delay.csv": lambda p: edit_csv(p, 30, 4, 1.0 + 1e-5),
    "fsmc_l13_fsmc.json": lambda p: edit_json(p, lambda d: d["model"]["thresholds"].__setitem__(
        4, d["model"]["thresholds"][4] * (1.0 + 1e-7))),
    "fsmc_l4_fsmc.json": lambda p: edit_json(p, lambda d: d["model"]["P"][1].__setitem__(
        1, d["model"]["P"][1][1] + 1e-9)),
    "table1b_fast_optimize.json": lambda p: edit_json(p, shift_winner),
    "sim_cc_awgn_simulate.json": lambda p: edit_json(p, lambda d: scale_share(d, 1, 1.1)),
    # the stationary Rayleigh average puts p0 about 0.015 lower
    "sim_fig4a_simulate.json": lambda p: edit_json(p, lambda d: scale_share(d, 0, 0.985)),
}


@pytest.mark.parametrize("artifact", sorted(PAPER_EDITS))
def test_paper_check_rejects(paper, artifact, tmp_path):
    workload, out = paper
    copy_dir = tmp_path / "out"
    shutil.copytree(out, copy_dir)
    PAPER_EDITS[artifact](copy_dir / artifact)
    failures = workload.check(copy_dir)
    assert failures and all(f.startswith(artifact) for f in failures), failures


def test_paper_check_rejects_missing_artifact(paper, tmp_path):
    workload, out = paper
    shutil.copytree(out, tmp_path / "out")
    (tmp_path / "out" / "fig2b_per_curve.csv").unlink()
    assert workload.check(tmp_path / "out") == ["fig2b_per_curve.csv: missing"]


# ------------------------------------------------------------ doppler_design

def perturbed(digest, edit):
    d = copy.deepcopy(digest)
    edit(d)
    return d


def swap_winner(reports):
    """Crown the worst feasible point of the report whose throughputs spread most."""
    def feasible(rep):
        return [p for p in rep["frontier"] if p["per"] <= rep["zeta"]]

    rep = max((r for r in reports if r["feasible"]),
              key=lambda r: np.ptp([p["throughput"] for p in feasible(r)]))
    rep["tau_hat"] = min(feasible(rep), key=lambda p: p["throughput"])["taus"]


def mark_infeasible(reports):
    rep = next(r for r in reports if r["feasible"])
    rep["feasible"] = False


DOPPLER_EDITS = {
    "stochastic": (lambda d: d["models"][0]["P"][0].__setitem__(0, d["models"][0]["P"][0][0] - 1e-9),
                   "not stochastic"),
    "threshold": (lambda d: d["models"][0]["thresholds"].__setitem__(2, d["models"][0]["thresholds"][2] * 1.001),
                  "sojourns differ"),
    "fitted_c": (lambda d: d["models"][0].__setitem__("c", d["models"][0]["c"] * 1.01), "c "),
    "sweep_winner": (lambda d: swap_winner([r for _, _, reps in d["sweeps"] for r in reps]), "beats winner"),
    "tau12_frontier": (lambda d: d["tau12"][0][1][0]["frontier"][7].__setitem__("per", 0.5),
                       "frontier differs"),
    "awgn_feasible": (lambda d: mark_infeasible(d["awgn"][0][1]), "reported infeasible"),
}


@pytest.mark.parametrize("case", sorted(DOPPLER_EDITS))
def test_doppler_check_rejects(doppler, case):
    workload, digest = doppler
    edit, message = DOPPLER_EDITS[case]
    failures = workload.check(perturbed(digest, edit))
    assert any(message in f for f in failures), failures


# ------------------------------------------------------------ latency_tail

def edit_stream(i, edit):
    def apply(d):
        outcome, pmf, (support, mass, pruned), curve = d[i]
        support, mass, pruned = edit(support.copy(), mass.copy(), pruned)
        d[i] = (outcome, pmf, (support, mass, pruned), curve)
    return apply


def move_mass(support, mass, pruned):
    j = int(np.argmax(mass))
    mass[j - 3] += 1e-6
    mass[j] -= 1e-6
    return support, mass, pruned


def bump_atom(support, mass, pruned):
    mass[int(np.argmax(mass))] *= 1.0 + 1e-6
    return support, mass, pruned


def scale_curve(d):
    outcome, pmf, stream, curve = d[1]
    curve = curve.copy()
    curve[len(curve) // 2, 1] *= 1.0 + 1e-6
    d[1] = (outcome, pmf, stream, curve)


def shift_outcome(d):
    (p, p_e), pmf, stream, curve = d[4]
    d[4] = (([p[0] - 1e-6, p[1] + 1e-6] + p[2:], p_e), pmf, stream, curve)


LATENCY_EDITS = {
    "m2_atom": (edit_stream(0, bump_atom), "fixed IR m=2"),
    "m2_fading_atom": (edit_stream(2, bump_atom), "fading IR m=2"),
    "m3_cumulants": (edit_stream(3, move_mass), "cumulants"),
    "pruned": (edit_stream(4, lambda s, m, p: (s, m, p + 1e-6)), "pruned"),
    "ccdf": (scale_curve, "overhead CCDF"),
    "outcome": (shift_outcome, "outcome"),
}


@pytest.mark.parametrize("case", sorted(LATENCY_EDITS))
def test_latency_check_rejects(latency, case):
    workload, digest = latency
    edit, message = LATENCY_EDITS[case]
    failures = workload.check(perturbed(digest, edit))
    assert any(message in f for f in failures), failures


# ------------------------------------------------------------ tracing

def traced_pass(name: str, tmp: Path) -> tuple[Tracer, dict]:
    workload = WORKLOADS[name](API, 3, smoke=True)
    tracer = Tracer()
    with tracer.installed(API):
        with tracer.span("bench.pass"):
            workload.run_pass(tmp, Ops())
    return tracer, pass_metrics(tracer, 0, len(tracer.spans), tracer.counts)


def test_traced_run_reports_every_layer(tmp_path):
    seen = {}
    for name in WORKLOADS:
        (tmp_path / name).mkdir()
        tracer, values = traced_pass(name, tmp_path / name)
        assert set(values) == set(LAYER_METRICS) and not tracer.missing
        own, _ = tracer.self_times(0, len(tracer.spans))
        pass_time = tracer.spans[0][2] - tracer.spans[0][1]
        assert sum(own.values()) == pytest.approx(pass_time, rel=1e-9)
        seen.update({k: v for k, v in values.items() if v > 0})
    assert set(seen) == set(LAYER_METRICS)
    # the wrappers are gone once the traced run ends
    import harqfbl.optimize
    assert not hasattr(harqfbl.optimize.outcomes_fading, "__wrapped__")


def test_traced_run_survives_a_removed_function(tmp_path, monkeypatch):
    import harqfbl.fsmc

    monkeypatch.delattr(harqfbl.fsmc, "build_fixed_sojourn")
    monkeypatch.delattr(harqfbl.montecarlo, "generate_trace")
    tracer, values = traced_pass("paper_artifacts", tmp_path)
    assert tracer.missing == ["montecarlo.generate_trace", "fsmc.build_fixed_sojourn"]
    gone = missing_metrics(tracer)
    assert "montecarlo.trace_s" in gone and "fsmc.build_s" in gone
    assert not set(gone) & set(values) and "cli.self_s" in values


def test_traced_scan_counts_failed_builds():
    import reference as R
    from workloads import C_TARGET, T_TB

    fdt, max_states = 0.25, 6
    failing = [L for L in range(2, max_states + 1) if R.equal_duration_thresholds(L)[1] < fdt]
    assert failing  # the scan meets state counts that violate the time-block bound
    tracer = Tracer()
    with tracer.installed(API):
        API.from_target_c(C_TARGET, fdt / T_TB, T_TB, API.db_to_linear(12.0), max_states)
    values = pass_metrics(tracer, 0, len(tracer.spans), tracer.counts)
    assert values["fsmc.builds"] == max_states - 1
    assert [s[0] for s in tracer.spans].count("fsmc.build_equal_duration") == max_states - 1
