"""The benchmark's workloads: inputs from the seed, one pass, and its checks.

A workload drives harqfbl only through the public names in `API_NAMES`,
which it reads from the namespace `load_api` returns; the traced run wraps
the functions in that namespace.  One public call is one operation.  Every
check compares a pass's outputs with `reference`, which shares no code with
harqfbl, and returns a list of failure messages.
"""

from __future__ import annotations

import io
import json
import math
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np

API_NAMES = (
    "CodeParams", "FadingOutcomeQuery", "HarqConfig",
    "OptimizationProblem", "Scheme", "build_fixed_sojourn", "db_to_linear", "from_target_c",
    "optimize_tau12", "outcomes_awgn", "outcomes_fading", "overhead_ccdf",
    "single_packet_delay", "stream_delay", "sweep",
)


def load_api():
    import harqfbl
    import harqfbl.cli

    return SimpleNamespace(main=harqfbl.cli.main, **{n: getattr(harqfbl, n) for n in API_NAMES})


class Ops:
    """Counts public calls; one that raises or exits non-zero has failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # a failed operation is counted and the pass goes on
            self.failed += 1
            self.errors.append(traceback.format_exc())
            return None

    def cli(self, main, argv: list[str]) -> None:
        code = self.call(main, argv)
        if code not in (0, None):
            self.failed += 1
            self.errors.append(f"harqfbl {' '.join(argv)} exited with {code}")


def _close(actual, expected, rtol: float, atol: float = 1e-300) -> bool:
    a = np.asarray(actual, dtype=float)
    b = np.asarray(expected, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= atol + rtol * np.abs(b)))


def _worst(actual, expected) -> str:
    a = np.ravel(np.asarray(actual, dtype=float))
    b = np.ravel(np.asarray(expected, dtype=float))
    if a.shape != b.shape:
        return f"shape {a.shape} vs {b.shape}"
    i = int(np.argmax(np.abs(a - b)))
    return f"{a[i]!r} vs reference {b[i]!r}"


T_TB = 1.4e-4
C_TARGET = 3.0446
ZETA = 0.01
FINE = tuple(round(0.01 * i, 2) for i in range(1, 101))
COARSE = tuple(round(0.1 * i, 2) for i in range(1, 11))


# ------------------------------------------------------------ shared checks

def model_failures(label: str, thresholds, q, P, f_d: float, t_tb: float, c: float,
                   equal: bool) -> list[str]:
    """Row-stochastic tridiagonal chain with qP = q, equal sojourns and slack >= 0.

    equal=True asks all L sojourns to match (equal-duration); otherwise the
    first L-1 must equal c*t_tb (fixed-sojourn, the tail state is free).
    """
    from reference import sojourn_times

    P = np.asarray(P, dtype=float)
    q = np.asarray(q, dtype=float)
    L = len(q)
    out = []
    if P.shape != (L, L) or len(thresholds) != L + 1:
        return [f"{label}: {L} states with a {P.shape} matrix and {len(thresholds)} thresholds"]
    if not np.allclose(P.sum(axis=1), 1.0, rtol=0, atol=1e-12) or P.min() < -1e-15:
        out.append(f"{label}: transition rows are not stochastic")
    if np.any((np.abs(np.subtract.outer(np.arange(L), np.arange(L))) > 1) & (P != 0.0)):
        out.append(f"{label}: transition matrix is not tridiagonal")
    if not _close(q @ P, q, rtol=0, atol=1e-12) or abs(q.sum() - 1.0) > 1e-12:
        out.append(f"{label}: q is not stationary under P ({_worst(q @ P, q)})")
    soj = sojourn_times(thresholds, f_d)
    same = soj if equal else soj[:-1]
    ref = same[0] if equal else c * t_tb
    if not _close(same, np.full(len(same), ref), rtol=1e-9):
        out.append(f"{label}: sojourns differ ({_worst(same, np.full(len(same), ref))})")
    if soj.min() < t_tb * (1.0 - 1e-12):
        out.append(f"{label}: negative time-block slack {soj.min() - t_tb:.3g} s")
    return out


def frontier_failures(label: str, reports, scheme: str, n: int, k: int, grid,
                      chain_at) -> list[str]:
    """Each winner is feasible and no feasible reference grid point beats it.

    reports are `report_dict` records; grid lists the tau tuples every
    frontier must cover; chain_at(snr_db) gives the reference channel.  The
    frontier values must also match the reference point by point.
    """
    import reference as R

    out = []
    for rep in reports:
        snr = rep["snr_db"]
        taus = np.array([pt["taus"] for pt in rep["frontier"]], dtype=float)
        _, per, tp = R.evaluate(scheme, n, k, taus, chain_at(snr))
        got_per = [pt["per"] for pt in rep["frontier"]]
        got_tp = [pt["throughput"] for pt in rep["frontier"]]
        where = f"{label} @ {snr:.4g} dB"
        if sorted(map(tuple, taus.tolist())) != sorted(grid):
            out.append(f"{where}: frontier covers {len(taus)} points, not the {len(grid)}-point grid")
            continue
        if not _close(got_per, per, rtol=1e-7, atol=1e-15) or not _close(got_tp, tp, rtol=1e-9):
            out.append(f"{where}: frontier differs from the reference "
                       f"(per {_worst(got_per, per)}, throughput {_worst(got_tp, tp)})")
        hit = [i for i, t in enumerate(taus) if tuple(t) == tuple(rep["tau_hat"])]
        if len(hit) != 1:
            out.append(f"{where}: winner {rep['tau_hat']} is not a grid point")
            continue
        w = hit[0]
        zeta = rep["zeta"]
        inside = per <= zeta * (1.0 - 1e-7)
        if rep["feasible"]:
            if per[w] > zeta * (1.0 + 1e-7):
                out.append(f"{where}: winner {rep['tau_hat']} has PER {per[w]:.6g} > {zeta}")
            if inside.any() and tp[inside].max() > tp[w] * (1.0 + 1e-9):
                best = int(np.flatnonzero(inside)[np.argmax(tp[inside])])
                out.append(f"{where}: feasible {taus[best].tolist()} beats winner "
                           f"{rep['tau_hat']} ({tp[best]:.9g} > {tp[w]:.9g})")
        else:
            if inside.any():
                out.append(f"{where}: reported infeasible but {int(inside.sum())} points meet {zeta}")
            if per[w] > per.min() * (1.0 + 1e-7) + 1e-300:
                out.append(f"{where}: infeasible winner is not the minimum-PER point")
    return out


def report_dict(report, zeta: float, snr_db: float | None = None) -> dict:
    """An OptimizationReport as the records the artifacts' JSON holds."""
    return {
        "snr_db": report.snr_db if snr_db is None else snr_db,
        "tau_hat": list(report.tau_hat),
        "per": report.achieved_per,
        "throughput": report.achieved_throughput,
        "feasible": report.feasible,
        "zeta": zeta,
        "frontier": [{"taus": list(p.taus), "per": p.per, "throughput": p.throughput}
                     for p in report.frontier],
    }


def _grid_m2(grid) -> list[tuple]:
    return [(1.0, t) for t in grid]


def _grid_m3(grid) -> list[tuple]:
    return [(1.0, a, b) for a in grid for b in grid if b <= a]


# ------------------------------------------------------------ paper_artifacts

# The (command, preset) pairs of scripts/make_all_artifacts.py, fixed here so
# that the workload does not change when that script does.
PAPER_RUNS = (
    ("per-curve", "fig2a"), ("per-curve", "fig2a_cc"), ("per-curve", "fig2b"),
    ("per-curve", "fig4a"), ("per-curve", "fig4b"), ("per-surface", "fig5"),
    ("delay", "fig3"), ("delay", "fig3_tau09"), ("fsmc", "fsmc_l13"), ("fsmc", "fsmc_l4"),
    ("optimize", "table1a_slow"), ("optimize", "table1a_fast"),
    ("optimize", "table1b_slow"), ("optimize", "table1b_fast"),
    ("simulate", "sim_cc_awgn"), ("simulate", "sim_fig4a"),
)
SMOKE_PACKETS = 20_000
RESIM_SEEDS = 16


def read_artifact(path: Path) -> tuple[dict, list | dict]:
    """Config and rows of a CSV artifact, or config and payload of a JSON one."""
    text = path.read_text()
    if path.suffix == ".json":
        payload = json.loads(text)
        return payload["config"], payload
    cfg, rows = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            cfg[key] = value
        elif line:
            rows.append(line.split(","))
    return cfg, rows[1:]


def _floats(value) -> list[float]:
    return [float(x) for x in value.split(",")] if isinstance(value, str) else [float(x) for x in value]


def _chain_at(cfg: dict):
    """Reference channel of an artifact's config as a function of SNR (dB)."""
    import reference as R

    if cfg["channel"] != "fading":
        return lambda snr: R.Chain.fixed(R.db_to_linear(snr))
    L, f_d, t_tb = int(cfg["L"]), float(cfg["f_d_hz"]), float(cfg["t_tb_s"])
    if cfg.get("partitioning") == "fixed-sojourn":
        etas = R.fixed_sojourn_thresholds(L, float(cfg["c"]), f_d * t_tb)
    else:
        etas, _ = R.equal_duration_thresholds(L)
    return lambda snr: R.chain_from_thresholds(etas, f_d, t_tb, R.db_to_linear(snr))


def _grid_of(cfg: dict) -> tuple:
    return FINE if cfg.get("tau_grid") == "fine" else COARSE


def check_per_curve(path: Path) -> list[str]:
    import reference as R

    cfg, rows = read_artifact(path)
    n, m = int(cfg["n"]), int(cfg["m"])
    scheme = cfg.get("scheme", "IR")
    chain_at = _chain_at(cfg)
    ks = [int(k) for k in cfg["k_list"].split(",")] if "k_list" in cfg else [int(cfg["k"])]
    grid = [1.0] if scheme == "CC" else _grid_of(cfg)
    expect = [(s, k, t) for s in _floats(cfg["snr_db"]) for k in ks for t in grid]
    got = [(float(r[0]), int(r[1]), float(r[2])) for r in rows]
    if got != expect:
        return [f"{path.name}: {len(got)} rows, expected {len(expect)} (snr, k, tau1) points"]
    out = []
    for s in _floats(cfg["snr_db"]):
        for k in ks:
            sel = [r for r in rows if float(r[0]) == s and int(r[1]) == k]
            taus = [(1.0,) + (float(r[2]),) * (m - 1) for r in sel]
            _, per, tp = R.evaluate(scheme, n, k, taus, chain_at(s))
            got_per = [float(r[3]) for r in sel]
            got_tp = [float(r[5]) for r in sel]
            if not _close(got_per, per, rtol=1e-8) or not _close(got_tp, tp, rtol=1e-9):
                out.append(f"{path.name} @ {s} dB, k={k}: per {_worst(got_per, per)}, "
                           f"throughput {_worst(got_tp, tp)}")
    return out


def check_per_surface(path: Path) -> list[str]:
    import reference as R

    cfg, rows = read_artifact(path)
    n, k = int(cfg["n"]), int(cfg["k"])
    chain_at = _chain_at(cfg)
    expect = [(s, a, b) for s in _floats(cfg["snr_db"]) for (_, a, b) in _grid_m3(_grid_of(cfg))]
    got = [(float(r[0]), float(r[2]), float(r[3])) for r in rows]
    if got != expect:
        return [f"{path.name}: {len(got)} rows, expected {len(expect)} (snr, tau1, tau2) points"]
    out = []
    for s in _floats(cfg["snr_db"]):
        sel = [r for r in rows if float(r[0]) == s]
        taus = [(1.0, float(r[2]), float(r[3])) for r in sel]
        _, per, tp = R.evaluate("IR", n, k, taus, chain_at(s))
        got_per = [float(r[4]) for r in sel]
        got_tp = [float(r[6]) for r in sel]
        if not _close(got_per, per, rtol=1e-8) or not _close(got_tp, tp, rtol=1e-9):
            out.append(f"{path.name} @ {s} dB: per {_worst(got_per, per)}, throughput {_worst(got_tp, tp)}")
    return out


def binomial_failures(label: str, N: int, tau1: float, p_fail: float, overhead, tail,
                      delay=None, mass=None) -> list[str]:
    """An m = 2 stream against the binomial closed form, atom by atom.

    overhead/tail is the program's CCDF curve; delay/mass, when given, its
    stream PMF.  Every atom of the closed form above 1e-13 must be present.
    """
    import reference as R

    _, _, pmf, cdf = R.binomial_stream(N, tau1, p_fail)
    t = float(tau1)
    x = np.asarray(overhead, dtype=float)
    i = np.rint(N - x * N / t).astype(np.int64)
    if np.any(np.abs(N - x * N / t - i) > 1e-6) or i.min() < 0 or i.max() > N:
        return [f"{label}: overheads off the binomial lattice of step {t}/{N}"]
    out = []
    if not _close(tail, cdf[i], rtol=1e-8, atol=1e-13):
        out.append(f"{label}: CCDF {_worst(tail, cdf[i])}")
    if mass is not None:
        j = np.rint(((1.0 + t) * N - np.asarray(delay, dtype=float)) / t).astype(np.int64)
        if not _close(mass, pmf[j], rtol=1e-8, atol=1e-14):
            out.append(f"{label}: atom masses {_worst(mass, pmf[j])}")
        need = set(np.flatnonzero(pmf > 1e-13).tolist())
        if not need <= set(j.tolist()):
            out.append(f"{label}: {len(need - set(j.tolist()))} atoms of the closed form missing")
    return out


def check_delay(path: Path) -> list[str]:
    import reference as R

    cfg, rows = read_artifact(path)
    n, N = int(cfg["n"]), int(cfg.get("n_packets", 1000))
    snr = _floats(cfg["snr_db"])[0]
    chain = _chain_at(cfg)(snr)
    out = []
    for scheme in cfg["schemes"].split(","):
        for k in [int(x) for x in cfg["k_list"].split(",")]:
            sel = [r for r in rows if r[0] == scheme and int(r[1]) == k]
            taus = (1.0, 1.0) if scheme == "CC" else tuple(_floats(cfg["taus"]))
            if not sel or float(sel[0][2]) != taus[-1]:
                out.append(f"{path.name}: no rows for {scheme}, k={k}, tau1={taus[-1]}")
                continue
            p_fail = R.prefix_errors(scheme, n, k, R.round_lengths(n, [taus]), chain)[0, 0]
            out += binomial_failures(f"{path.name} {scheme} k={k}", N, taus[-1], p_fail,
                                     [float(r[3]) for r in sel], [float(r[4]) for r in sel])
    return out


def check_fsmc(path: Path) -> list[str]:
    import reference as R

    cfg, payload = read_artifact(path)
    mod = payload["model"]
    L, f_d, t_tb = mod["L"], mod["f_d_hz"], mod["t_tb_s"]
    etas = list(mod["thresholds"]) + [math.inf]
    out = model_failures(path.name, etas, mod["q"], mod["P"], f_d, t_tb, mod["c"], equal=True)
    ref, T = R.equal_duration_thresholds(L)
    if not _close(etas[1:-1], ref[1:-1], rtol=1e-9) or not _close(mod["c"], T / (f_d * t_tb), rtol=1e-9):
        out.append(f"{path.name}: thresholds {_worst(etas[1:-1], ref[1:-1])}, "
                   f"c {mod['c']} vs {T / (f_d * t_tb)}")
    chain = R.chain_from_thresholds(ref, f_d, t_tb, R.db_to_linear(mod["avg_snr_db"]))
    snr_db = 10.0 * np.log10(chain.snrs)
    if not _close(mod["state_snrs_db"], snr_db, rtol=0, atol=1e-9) or not _close(mod["P"], chain.P, rtol=0, atol=1e-12):
        out.append(f"{path.name}: state SNRs {_worst(mod['state_snrs_db'], snr_db)} or P differ")
    soj = R.sojourn_times(etas, f_d)
    if not _close(payload["sojourn_times_s"], soj, rtol=1e-9) or \
            not _close(payload["tb_slacks_s"], soj - t_tb, rtol=1e-9, atol=1e-15):
        out.append(f"{path.name}: reported sojourns or slacks differ from the thresholds'")
    return out


def check_optimize(path: Path) -> list[str]:
    cfg, payload = read_artifact(path)
    zeta = float(cfg["zeta0"])
    reports = [dict(r, zeta=zeta) for r in payload["reports"]]
    if [r["snr_db"] for r in reports] != _floats(cfg["snr_db"]):
        return [f"{path.name}: reports for SNRs {[r['snr_db'] for r in reports]}"]
    return frontier_failures(path.name, reports, "IR", int(cfg["n"]), int(cfg["k"]),
                             _grid_m2(_grid_of(cfg)), _chain_at(cfg))


def check_sim_cc(path: Path, seed: int) -> list[str]:
    """Empirical outcome shares within 5 binomial standard errors of the reference."""
    import reference as R

    cfg, payload = read_artifact(path)
    n, k, N = cfg["n"], cfg["k"], cfg["packets"]
    chain = _chain_at(cfg)(cfg["snr_db"][0])
    p, p_e = R.outcomes(R.prefix_errors(cfg["scheme"], n, k, R.round_lengths(n, [cfg["taus"]]), chain))
    ref = np.append(p[0], p_e[0])
    got = np.array(payload["empirical"]["p"] + [payload["empirical"]["p_e"]])
    se = np.sqrt(ref * (1.0 - ref) / N)
    out = [] if cfg["seed"] == seed else [f"{path.name}: ran with seed {cfg['seed']}, not {seed}"]
    if np.any(np.abs(got - ref) > 5.0 * se + 1.0 / N):
        out.append(f"{path.name}: shares {got.tolist()} vs reference {ref.tolist()} "
                   f"(5 se = {(5 * se).tolist()})")
    return out


def check_sim_fading(path: Path, seed: int) -> list[str]:
    """Empirical shares against a continuous-mode re-simulation on the same trace.

    The reference walks the benchmark's own Clarke trace for the run's seed
    RESIM_SEEDS times with independent decode draws; the tolerance is 8
    standard deviations of those walks, widened for the program's own draw.
    Neither the stationary Rayleigh average nor the FSMC column is a valid
    reference: start offsets are stopping times, and the FSMC quantises.
    """
    import reference as R

    cfg, payload = read_artifact(path)
    out = [] if cfg["seed"] == seed else [f"{path.name}: ran with seed {cfg['seed']}, not {seed}"]
    n, k, m, N = cfg["n"], cfg["k"], cfg["m"], cfg["packets"]
    if m != 2 or cfg.get("packet_start", "continuous") != "continuous" or cfg["scheme"] != "IR":
        return out + [f"{path.name}: the re-simulation covers continuous IR with m = 2 only"]
    h = R.clarke_trace(cfg["f_d_hz"], cfg["t_tb_s"], N * m + m, cfg["seed"], cfg.get("oscillators", 64))
    g = R.db_to_linear(cfg["snr_db"][0]) * np.abs(h) ** 2
    cap, disp = np.log2(1.0 + g), 1.0 - (1.0 + g) ** -2
    n0, n1 = R.round_lengths(n, cfg["taus"])
    eps1 = R.eps_ir(k, n0 * cap[:-1], n0 * disp[:-1], n0)
    eps2 = R.eps_ir(k, n0 * cap[:-1] + n1 * cap[1:], n0 * disp[:-1] + n1 * disp[1:], n0 + n1)
    walks = np.array([R.continuous_walk_m2(eps1, eps2, N, np.random.default_rng([seed, s]).random(len(eps1)))
                      for s in range(RESIM_SEEDS)]) / N
    ref, sd = walks.mean(axis=0), walks.std(axis=0, ddof=1)
    tol = 8.0 * sd * math.sqrt(1.0 + 1.0 / RESIM_SEEDS) + 2.0 / N
    got = np.array(payload["empirical"]["p"] + [payload["empirical"]["p_e"]])
    if np.any(np.abs(got - ref) > tol):
        out.append(f"{path.name}: shares {got.tolist()} vs re-simulation {ref.tolist()} (tol {tol.tolist()})")
    return out


class PaperArtifacts:
    """The 16 bundled scenarios through harqfbl.cli.main, as a reader runs them."""

    name = "paper_artifacts"

    def __init__(self, api, seed: int, smoke: bool) -> None:
        self.api, self.seed, self.smoke = api, seed, smoke
        self.argvs = [[cmd, "--preset", preset, "--seed", str(seed)] for cmd, preset in PAPER_RUNS]

    def run_pass(self, out: Path, ops: Ops) -> Path:
        extra = []
        if self.smoke:
            (out / "smoke.cfg").write_text(f"packets = {SMOKE_PACKETS}\n")
            extra = ["--config", str(out / "smoke.cfg")]
        with redirect_stdout(io.StringIO()):
            for argv in self.argvs:
                ops.cli(self.api.main, argv + (extra if argv[0] == "simulate" else []) + ["--out", str(out)])
        return out

    def digest(self, out: Path) -> Path:
        return out

    def check(self, out: Path) -> list[str]:
        failures = []
        for cmd, preset in PAPER_RUNS:
            ext = "json" if cmd in ("fsmc", "simulate", "optimize") else "csv"
            path = out / f"{preset}_{cmd.replace('-', '_')}.{ext}"
            if not path.is_file():
                failures.append(f"{path.name}: missing")
                continue
            if cmd == "per-curve":
                failures += check_per_curve(path)
            elif cmd == "per-surface":
                failures += check_per_surface(path)
            elif cmd == "delay":
                failures += check_delay(path)
            elif cmd == "fsmc":
                failures += check_fsmc(path)
            elif cmd == "optimize":
                failures += check_optimize(path)
            elif preset == "sim_cc_awgn":
                failures += check_sim_cc(path, self.seed)
            else:
                failures += check_sim_fading(path, self.seed)
        return failures


# ------------------------------------------------------------ doppler_design

DOPPLERS = (0.0338, 0.04, 0.0855)   # f_d * t_tb at t_tb = 0.14 ms
MAX_STATES = 10


class DopplerDesign:
    """The paper's tau optimisation across Doppler regimes, on fitted models."""

    name = "doppler_design"

    def __init__(self, api, seed: int, smoke: bool) -> None:
        rng = np.random.default_rng(seed)
        self.api, self.smoke = api, smoke
        self.dopplers = DOPPLERS[-1:] if smoke else DOPPLERS
        self.max_states = 6 if smoke else MAX_STATES
        self.grid = COARSE if smoke else FINE
        self.sweep_snrs = sorted(round(float(x), 3) for x in rng.uniform(11.0, 14.0, 4))
        self.tau12_snr = round(float(rng.uniform(11.0, 14.0)), 3)
        self.awgn_snrs = sorted(round(float(x), 3) for x in rng.uniform(-5.0, 0.0, 6))
        ir = api.Scheme.IR
        self.cfg2 = {k: api.HarqConfig(api.CodeParams(100, k), ir, 2, (1.0, 1.0)) for k in (70, 100)}
        self.cfg3 = api.HarqConfig(api.CodeParams(100, 70), ir, 3, (1.0, 1.0, 1.0))

    def run_pass(self, out: Path, ops: Ops) -> dict:
        api = self.api
        res = {"models": [], "sweeps": [], "tau12": [], "awgn": []}
        for fdt in self.dopplers:
            model = ops.call(api.from_target_c, C_TARGET, fdt / T_TB, T_TB,
                             api.db_to_linear(self.tau12_snr), self.max_states)
            res["models"].append(model)
            for k, cfg in self.cfg2.items():
                problem = api.OptimizationProblem(cfg, model, ZETA, self.grid)
                res["sweeps"].append((fdt, k, ops.call(api.sweep, problem, self.sweep_snrs)))
            problem = api.OptimizationProblem(self.cfg3, model, ZETA, self.grid)
            res["tau12"].append((fdt, ops.call(api.optimize_tau12, problem)))
        for cfg in (self.cfg2[70], self.cfg3):
            problem = api.OptimizationProblem(cfg, 1.0, ZETA, self.grid)
            res["awgn"].append((cfg.m, ops.call(api.sweep, problem, self.awgn_snrs)))
        return res

    def digest(self, res: dict) -> dict:
        def model_record(m):
            return None if m is None else {
                "thresholds": list(m.thresholds), "q": list(m.q), "P": [list(r) for r in m.transitions],
                "f_d": m.f_d, "t_tb": m.t_tb, "c": m.c, "L": m.n_states}

        def reports(rs, snr=None):
            return None if rs is None else [report_dict(r, ZETA, snr) for r in rs]

        return {
            "models": [model_record(m) for m in res["models"]],
            "sweeps": [(fdt, k, reports(r)) for fdt, k, r in res["sweeps"]],
            "tau12": [(fdt, reports(None if r is None else [r], self.tau12_snr)) for fdt, r in res["tau12"]],
            "awgn": [(m, reports(r)) for m, r in res["awgn"]],
        }

    def check(self, d: dict) -> list[str]:
        import reference as R

        def fading_chain(etas, fdt):
            return lambda snr: R.chain_from_thresholds(etas, fdt / T_TB, T_TB, R.db_to_linear(snr))

        out = []
        chains = {}
        for fdt, mod in zip(self.dopplers, d["models"]):
            label = f"from_target_c(fdt={fdt})"
            if mod is None:
                out.append(f"{label}: no model")
                continue
            L = mod["L"]
            out += model_failures(label, mod["thresholds"], mod["q"], mod["P"], mod["f_d"],
                                  mod["t_tb"], mod["c"], equal=True)
            fits = {}
            for cand in (L - 1, L, L + 1):
                if 2 <= cand <= self.max_states:
                    etas, T = R.equal_duration_thresholds(cand)
                    if T / fdt >= 1.0:  # the time block fits inside every state
                        fits[cand] = (etas, T / fdt)
            if L not in fits:
                out.append(f"{label}: L={L} violates the time-block bound")
                continue
            etas, c_ref = fits[L]
            if not _close(mod["thresholds"][1:-1], etas[1:-1], rtol=1e-9) or not _close(mod["c"], c_ref, rtol=1e-9):
                out.append(f"{label}: thresholds {_worst(mod['thresholds'][1:-1], etas[1:-1])}, c {mod['c']} vs {c_ref}")
            for cand, (_, c_other) in fits.items():
                if abs(c_other - C_TARGET) < abs(c_ref - C_TARGET) * (1.0 - 1e-9):
                    out.append(f"{label}: L={cand} gives c={c_other:.6g}, nearer {C_TARGET} than L={L}")
            chains[fdt] = fading_chain(etas, fdt)
        for fdt, k, reps in d["sweeps"]:
            if reps is None or fdt not in chains:
                out.append(f"sweep(fdt={fdt}, k={k}): no result")
                continue
            if [r["snr_db"] for r in reps] != self.sweep_snrs:
                out.append(f"sweep(fdt={fdt}, k={k}): reports for the wrong SNRs")
            out += frontier_failures(f"sweep(fdt={fdt}, k={k})", reps, "IR", 100, k,
                                     _grid_m2(self.grid), chains[fdt])
        for fdt, reps in d["tau12"]:
            if reps is None or fdt not in chains:
                out.append(f"optimize_tau12(fdt={fdt}): no result")
                continue
            out += frontier_failures(f"optimize_tau12(fdt={fdt})", reps, "IR", 100, 70,
                                     _grid_m3(self.grid), chains[fdt])
        fixed = lambda snr: R.Chain.fixed(R.db_to_linear(snr))  # noqa: E731
        for m, reps in d["awgn"]:
            if reps is None or [r["snr_db"] for r in reps] != self.awgn_snrs:
                out.append(f"fixed-SNR sweep m={m}: missing or wrong SNRs")
                continue
            grid = _grid_m2(self.grid) if m == 2 else _grid_m3(self.grid)
            out += frontier_failures(f"fixed-SNR sweep m={m}", reps, "IR", 100, 70, grid, fixed)
        return out


# ------------------------------------------------------------ latency_tail

FADING_FDT = 0.0338
FADING_L = 13
M2_TAUS = (1.0, 0.4)
# cumulative slots 1, 1.37, 1.57: a 0.01-slot step, 58 lattice atoms per packet
M3_TAUS = (1.0, 0.37, 0.2)


class LatencyTail:
    """Delay-overhead CCDFs of long streams: narrow m = 2 and wide m = 3 lattices.

    The seed moves each SNR by at most 0.02 dB.  Coefficients stay fixed,
    because the convolution's cost depends on where the mass sits on the
    lattice, not only on its width.
    """

    name = "latency_tail"

    def __init__(self, api, seed: int, smoke: bool) -> None:
        rng = np.random.default_rng(seed)
        self.api = api
        n2, n3 = (2_000, 200) if smoke else (100_000, 2_000)
        jitter = lambda: round(float(rng.uniform(-0.02, 0.02)), 4)  # noqa: E731
        ir, cc = api.Scheme.IR, api.Scheme.CC
        self.fading_snr = 11.5 + jitter()
        self.model = api.build_fixed_sojourn(FADING_L, C_TARGET, FADING_FDT / T_TB, T_TB,
                                             api.db_to_linear(self.fading_snr))
        code70 = api.CodeParams(100, 70)
        # (label, config, SNR in dB or None for the fading model, packets)
        self.designs = [
            ("fixed IR m=2", api.HarqConfig(code70, ir, 2, M2_TAUS), -2.0 + jitter(), n2),
            ("fixed CC m=2", api.HarqConfig(api.CodeParams(100, 100), cc, 2, (1.0, 1.0)), -1.0 + jitter(), n2),
            ("fading IR m=2", api.HarqConfig(code70, ir, 2, M2_TAUS), None, n2),
            ("fixed IR m=3", api.HarqConfig(code70, ir, 3, M3_TAUS), -2.0 + jitter(), n3),
            ("fading IR m=3", api.HarqConfig(code70, ir, 3, M3_TAUS), None, n3),
        ]

    def run_pass(self, out: Path, ops: Ops) -> list:
        api = self.api
        res = []
        for _, cfg, snr, N in self.designs:
            if snr is None:
                outcome = ops.call(api.outcomes_fading, api.FadingOutcomeQuery(cfg, self.model))
            else:
                outcome = ops.call(api.outcomes_awgn, cfg, api.db_to_linear(snr))
            pmf = ops.call(api.single_packet_delay, cfg, outcome)
            stream = ops.call(api.stream_delay, pmf, N)
            res.append((outcome, pmf, stream, ops.call(api.overhead_ccdf, stream, N)))
        return res

    def digest(self, res: list) -> list:
        def arrays(pmf):
            return None if pmf is None else (
                np.array([float(x) for x in pmf.support]), np.array(pmf.mass), pmf.pruned_mass)

        return [(None if o is None else (list(o.p), o.p_e), arrays(p), arrays(s),
                 None if c is None else np.array(c, dtype=float).reshape(-1, 2))
                for o, p, s, c in res]

    def check(self, d: list) -> list[str]:
        import reference as R

        m = self.model
        etas = R.fixed_sojourn_thresholds(FADING_L, C_TARGET, FADING_FDT)
        out = model_failures("fixed-sojourn model", list(m.thresholds), m.q, m.transitions,
                             m.f_d, m.t_tb, C_TARGET, equal=False)
        if not _close(m.thresholds[1:-1], etas[1:-1], rtol=1e-9):
            out.append(f"fixed-sojourn model: thresholds {_worst(m.thresholds[1:-1], etas[1:-1])}")
        fading = R.chain_from_thresholds(etas, m.f_d, m.t_tb, R.db_to_linear(self.fading_snr))
        for (label, cfg, snr, N), (outcome, pmf, stream, curve) in zip(self.designs, d):
            if outcome is None or pmf is None or stream is None or curve is None:
                out.append(f"{label}: no result")
                continue
            taus = np.array(cfg.taus)
            chain = fading if snr is None else R.Chain.fixed(R.db_to_linear(snr))
            n, k = cfg.code.n, cfg.code.k
            p, p_e = R.outcomes(R.prefix_errors(cfg.scheme.value, n, k, R.round_lengths(n, [taus]), chain))
            p, p_e = p[0], p_e[0]
            if not _close(list(outcome[0]) + [outcome[1]], list(p) + [p_e], rtol=1e-8, atol=1e-15):
                out.append(f"{label}: outcome {_worst(list(outcome[0]) + [outcome[1]], list(p) + [p_e])}")
            slots = R.cumulative_slots(taus)
            atoms = np.append(p[:-1], p[-1] + p_e)
            if not _close(pmf[0], slots, rtol=1e-12) or not _close(pmf[1], atoms, rtol=1e-8, atol=1e-15):
                out.append(f"{label}: single-packet delay {_worst(pmf[1], atoms)}")
            support, mass, pruned = stream
            if abs(mass.sum() + pruned - 1.0) > 1e-9:
                out.append(f"{label}: stream mass {mass.sum()} + pruned {pruned} != 1")
            tails = np.append(np.cumsum(mass[::-1])[::-1][1:], 0.0)
            if not _close(curve[:, 0], (support - N) / N, rtol=1e-12, atol=1e-12) or \
                    not _close(curve[:, 1], np.minimum(tails, 1.0), rtol=1e-9, atol=1e-15):
                out.append(f"{label}: overhead CCDF does not follow the stream PMF")
            if cfg.m == 2:
                out += binomial_failures(label, N, taus[1], 1.0 - p[0], curve[:, 0], curve[:, 1],
                                         support, mass)
            else:
                one = R.cumulants(slots, atoms)
                got = R.cumulants(support, mass)
                scale = np.array([N * one[0], N * one[1], (N * one[1]) ** 1.5])
                if np.any(np.abs(got - N * one) > 1e-9 * scale):
                    out.append(f"{label}: cumulants {got.tolist()} vs N x single packet {(N * one).tolist()}")
        return out


WORKLOADS = {w.name: w for w in (PaperArtifacts, DopplerDesign, LatencyTail)}
