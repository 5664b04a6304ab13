"""Acceptance suite: one test per criterion, each registering a summary line.

Criteria printed as FAIL carry the measured values so a red entry is
directly diagnosable; PER-magnitude failures on fading criteria include the
partition's packets-per-state figures.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats
from scipy.special import j0

from harqfbl import (
    CodeParams,
    FadingOutcomeQuery,
    HarqConfig,
    OptimizationProblem,
    Scheme,
    TransmissionRecord,
    binomial_stream_delay,
    build_equal_duration,
    build_fixed_sojourn,
    db_to_linear,
    generate_trace,
    optimize_tau1,
    outcomes_awgn,
    outcomes_fading,
    per_ir,
    simulate_harq,
    single_packet_delay,
    stream_delay,
    sweep,
    throughput,
)
from conftest import record_acceptance

FD_SLOW = 0.0338 / 0.00014
FD_FAST = 0.04 / 0.00014
T_TB = 0.00014


def finish(number: int, description: str, failures: list[str], started: float) -> None:
    status = "PASS" if not failures else "FAIL"
    line = f"criterion {number:>2} [{status}] ({time.time() - started:5.1f}s) {description}"
    if failures:
        line += " :: " + "; ".join(failures)
    record_acceptance(line)
    print(line)
    assert not failures, line


def slow_model(snr_db: float):
    return build_fixed_sojourn(13, 3.0446, FD_SLOW, T_TB, db_to_linear(snr_db))


def fast_model(snr_db: float):
    return build_fixed_sojourn(10, 3.0446, FD_FAST, T_TB, db_to_linear(snr_db))


def test_criterion_01_awgn_ir_threshold():
    t0 = time.time()
    failures = []
    code = CodeParams(100, 100)
    g = db_to_linear(-1.0)
    smallest = None
    for i in range(1, 101):
        tau = i / 100.0
        per = per_ir(code, TransmissionRecord((g, g), (100, max(1, round(tau * 100)))))
        if per <= 1e-4:
            smallest = tau
            break
    if smallest is None or abs(smallest - 0.58) > 0.02:
        failures.append(f"minimal tau1 = {smallest}, expected 0.58 +- 0.02")
    finish(1, "AWGN IR threshold: minimal tau1 for PER <= 1e-4 at -1 dB", failures, t0)


def test_criterion_02_cc_throughput():
    t0 = time.time()
    failures = []
    cfg = HarqConfig(CodeParams(100, 100), Scheme.CC, 2, (1.0, 1.0))
    tp = throughput(cfg, outcomes_awgn(cfg, db_to_linear(-1.0)))
    if abs(tp - 0.537) > 0.01:
        failures.append(f"throughput = {tp:.4f}, expected 0.537 +- 0.01")
    finish(2, "CC-HARQ throughput at -1 dB, n = k = 100, m = 2", failures, t0)


def test_criterion_03_table_spot_rows():
    t0 = time.time()
    failures = []
    cfg = HarqConfig(CodeParams(100, 70), Scheme.IR, 2, (1.0, 1.0))

    model = slow_model(14.0)
    rep = optimize_tau1(OptimizationProblem(cfg, model, per_ceiling=1e-4))
    if rep.tau_hat[1] != pytest.approx(0.1):
        failures.append(f"slow row: tau_hat = {rep.tau_hat[1]}, expected 0.1")
    if not (1.9e-5 / 3.0 <= rep.achieved_per <= 1.9e-5 * 3.0):
        failures.append(
            f"slow row: per = {rep.achieved_per:.3g} outside [{1.9e-5/3:.2g}, {1.9e-5*3:.2g}]"
            f" (interior c = {model.c:.4f}, tail dwell = "
            f"{model.sojourn_times()[-1] / model.t_tb:.3f} blocks)"
        )
    if abs(rep.achieved_throughput - 0.6944) > 0.002:
        failures.append(
            f"slow row: throughput = {rep.achieved_throughput:.4f}, expected 0.6944 +- 0.002"
        )

    model_fast = fast_model(12.5)
    rep2 = optimize_tau1(OptimizationProblem(cfg, model_fast, per_ceiling=1e-4))
    if rep2.tau_hat[1] != pytest.approx(0.1):
        failures.append(f"fast row: tau_hat = {rep2.tau_hat[1]}, expected 0.1")
    if not (6.5e-5 / 3.0 <= rep2.achieved_per <= 6.5e-5 * 3.0):
        failures.append(
            f"fast row: per = {rep2.achieved_per:.3g} outside [{6.5e-5/3:.2g}, {6.5e-5*3:.2g}]"
            f" (interior c = {model_fast.c:.4f})"
        )
    finish(3, "optimal-tau table spot rows (k = 70, both mobility settings)", failures, t0)


def test_criterion_04_table_trend():
    t0 = time.time()
    failures = []
    cfg = HarqConfig(CodeParams(100, 100), Scheme.IR, 2, (1.0, 1.0))
    snrs = [11.0, 11.5, 12.0, 12.5, 13.0, 13.5, 14.0]
    reference = [0.7, 0.5, 0.4, 0.3, 0.2, 0.2, 0.1]
    problem = OptimizationProblem(cfg, fast_model(11.0), per_ceiling=0.01)
    taus = [r.tau_hat[1] for r in sweep(problem, snrs)]
    if not all(b <= a + 1e-12 for a, b in zip(taus, taus[1:])):
        failures.append(f"tau sequence not nonincreasing: {taus}")
    exact = sum(1 for a, b in zip(taus, reference) if abs(a - b) < 1e-9)
    worst = max(abs(a - b) for a, b in zip(taus, reference))
    if exact < 6:
        failures.append(f"only {exact}/7 rows match {reference}, got {taus}")
    elif worst > 0.1 + 1e-9:
        failures.append(f"off-row deviation {worst:.2f} > 0.1, got {taus}")
    finish(4, "optimal-tau trend across 11..14 dB at high mobility (k = 100)", failures, t0)


def test_criterion_05_binomial_closed_form():
    t0 = time.time()
    failures = []
    cfg = HarqConfig(CodeParams(100, 100), Scheme.CC, 2, (1.0, 1.0))
    out = outcomes_awgn(cfg, db_to_linear(-1.0))
    p_fail = out.p[1] + out.p_e
    single = single_packet_delay(cfg, out)
    for n_packets in (1, 5, 50):
        stream = stream_delay(single, n_packets)
        closed = binomial_stream_delay(n_packets, 1.0, p_fail)
        if stream.support != closed.support:
            failures.append(f"N = {n_packets}: support mismatch")
            continue
        worst = max(abs(a - b) for a, b in zip(stream.mass, closed.mass))
        if worst > 1e-12:
            failures.append(f"N = {n_packets}: atom mismatch {worst:.2e} > 1e-12")
    finish(5, "two-round stream delay equals the binomial closed form", failures, t0)


def test_criterion_06_probability_axioms():
    t0 = time.time()
    failures = []
    rng = np.random.default_rng(20240521)
    checked = 0
    for _ in range(1100):
        n = int(rng.integers(10, 400))
        k = max(1, int(rng.uniform(0.1, 2.0) * n))
        gamma = float(10.0 ** rng.uniform(-2.0, 2.0))
        m = int(rng.integers(1, 5))
        taus = (1.0,) + tuple(float(rng.uniform(0.05, 1.0)) for _ in range(m - 1))
        scheme = Scheme.CC if rng.random() < 0.3 else Scheme.IR
        if scheme is Scheme.CC:
            taus = (1.0,) * m
        cfg = HarqConfig(CodeParams(n, k), scheme, m, taus)
        out = outcomes_awgn(cfg, gamma)
        if abs(out.total - 1.0) > 1e-9:
            failures.append(f"sum = {out.total} at n={n}, k={k}, m={m}")
            break
        if not all(0.0 <= x <= 1.0 for x in (*out.p, out.p_e)):
            failures.append(f"probability outside [0,1] at n={n}, k={k}, m={m}")
            break
        checked += 1
    if checked < 1000:
        failures.append(f"only {checked} tuples checked")
    finish(6, "outcome distributions normalised over 1000+ random configs", failures, t0)


def test_criterion_07_fsmc_soundness():
    t0 = time.time()
    failures = []
    for label, model in (
        ("L=13", build_equal_duration(13, 210.0, 0.00014, db_to_linear(10.0))),
        ("L=4", build_equal_duration(4, 285.0, 0.0003, db_to_linear(10.0))),
    ):
        for i, row in enumerate(model.transitions):
            if abs(sum(row) - 1.0) > 1e-12:
                failures.append(f"{label}: row {i} sums to {sum(row)}")
        if min(model.tb_bound_slacks()) < 0.0:
            failures.append(f"{label}: negative time-block slack")
        mean_snr = sum(q * g for q, g in zip(model.q, model.state_snrs))
        if abs(mean_snr - model.avg_snr) > 1e-9 * model.avg_snr:
            failures.append(f"{label}: state-average SNR off by {mean_snr - model.avg_snr:.2e}")
        dwell = model.sojourn_times()
        if max(dwell) / min(dwell) - 1.0 > 1e-5:
            failures.append(f"{label}: sojourn spread {max(dwell)/min(dwell)-1.0:.2e}")
    finish(7, "equal-duration model soundness for both parameter sets", failures, t0)


def test_criterion_08_monte_carlo_cross_validation():
    t0 = time.time()
    failures = []
    cfg = HarqConfig(CodeParams(100, 70), Scheme.IR, 2, (1.0, 0.6))
    query = FadingOutcomeQuery(cfg, slow_model(11.5))
    analytic = outcomes_fading(query)
    mc = simulate_harq(query.cfg, query.model, 1_000_000, 20240521, query.kernel)
    names = [f"p_{i}" for i in range(cfg.m)] + ["p_e"]
    emp = list(mc.outcome.p) + [mc.outcome.p_e]
    ref = list(analytic.p) + [analytic.p_e]
    ses = list(mc.outcome_se) + [mc.p_e_se]
    for name, e, r, se in zip(names, emp, ref, ses):
        if abs(e - r) > 3.0 * max(se, 1e-12):
            failures.append(f"{name}: |{e:.4g} - {r:.4g}| > 3se ({se:.2g})")

    # throughput: delta method over the multinomial resolution frequencies
    slots = np.cumsum(cfg.taus)
    s = np.concatenate([slots, [slots[-1]]])
    p = np.asarray(emp)
    rate = cfg.code.rate
    den = float(np.dot(p, s))
    tp_emp = rate * (1.0 - p[-1]) / den
    grad = -rate * (1.0 - p[-1]) * s / den**2
    grad[-1] -= rate / den
    var = (np.dot(p, grad**2) - np.dot(p, grad) ** 2) / mc.packets
    tp_se = math.sqrt(max(var, 0.0))
    tp_ref = throughput(cfg, analytic)
    if abs(tp_emp - tp_ref) > 2.576 * max(tp_se, 1e-12):
        failures.append(
            f"throughput {tp_ref:.5f} outside 99% CI {tp_emp:.5f} +- {2.576 * tp_se:.5f}"
        )
    finish(8, "1e6-trial Monte Carlo agrees with the fading analysis", failures, t0)


def test_criterion_09_trace_fidelity():
    t0 = time.time()
    failures = []
    fdtb = 0.0338
    trace = generate_trace(fdtb / T_TB, T_TB, 1_000_000, 77)
    h = trace.samples
    r1 = float(np.mean(h[1:] * np.conj(h[:-1])).real / np.mean(np.abs(h) ** 2))
    target = float(j0(2.0 * math.pi * fdtb))
    u = 2.0 * math.pi * fdtb
    sigma_draw = math.sqrt(
        ((1.0 + float(j0(2.0 * u))) / 2.0 - target**2) / trace.n_oscillators
    )
    if abs(r1 - target) > 3.0 * sigma_draw + 1e-3:
        failures.append(f"lag-1 autocorr {r1:.5f} vs J0 {target:.5f} (3sigma {3*sigma_draw:.2g})")

    mean_power = float(np.mean(np.abs(h) ** 2))
    if not 0.99 <= mean_power <= 1.01:
        failures.append(f"mean |h|^2 = {mean_power:.4f} outside [0.99, 1.01]")

    # marginal distribution judged on decorrelated samples
    wide = generate_trace(100.0, 0.05, 1_000_000, 78, n_oscillators=256)
    _, p_value = stats.kstest(np.abs(wide.samples), "rayleigh", args=(0, math.sqrt(0.5)))
    if p_value < 0.01:
        failures.append(f"Rayleigh KS test p = {p_value:.4f} < 0.01")
    finish(9, "fading-trace autocorrelation and envelope distribution", failures, t0)


def test_criterion_10_fading_curve_spots():
    t0 = time.time()
    failures = []
    model = slow_model(11.5)
    diag = (
        f"interior c = {model.c:.4f}, tail dwell = "
        f"{model.sojourn_times()[-1] / model.t_tb:.3f} blocks"
    )

    cfg4 = HarqConfig(CodeParams(100, 70), Scheme.IR, 2, (1.0, 0.4))
    out4 = outcomes_fading(FadingOutcomeQuery(cfg4, model))
    tp4 = throughput(cfg4, out4)
    if not 1e-3 <= out4.p_e <= 1e-2:
        failures.append(f"tau1=0.4: per = {out4.p_e:.3g} outside [1e-3, 1e-2] ({diag})")
    if abs(tp4 - 0.675) > 0.02:
        failures.append(f"tau1=0.4: throughput = {tp4:.4f}, expected 0.675 +- 0.02")

    cfg6 = HarqConfig(CodeParams(100, 70), Scheme.IR, 2, (1.0, 0.6))
    out6 = outcomes_fading(FadingOutcomeQuery(cfg6, model))
    tp6 = throughput(cfg6, out6)
    if out6.p_e > 2e-4:
        failures.append(f"tau1=0.6: per = {out6.p_e:.3g} > 2e-4 ({diag})")
    if abs(tp6 - 0.625) > 0.02:
        failures.append(f"tau1=0.6: throughput = {tp6:.4f}, expected 0.625 +- 0.02")
    finish(10, "fading curve spot values at 11.5 dB, k = 70", failures, t0)
