import math

import numpy as np
import pytest
from scipy.special import j0

from harqfbl import (
    CodeParams,
    DomainError,
    HarqConfig,
    ResourceLimitError,
    Scheme,
    TraceChannel,
    build_equal_duration,
    build_fixed_sojourn,
    db_to_linear,
    generate_trace,
    outcomes_awgn,
    outcomes_fading,
    simulate_harq,
    throughput,
    validate_fsmc,
)
from harqfbl.fading import FadingOutcomeQuery


class TestGenerateTrace:
    def test_deterministic_under_seed(self):
        a = generate_trace(100.0, 1e-4, 1000, 42)
        b = generate_trace(100.0, 1e-4, 1000, 42)
        c = generate_trace(100.0, 1e-4, 1000, 43)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_static_limit(self):
        trace = generate_trace(1e-6, 1e-4, 1000, 3)
        env = np.abs(trace.samples)
        assert env.var() < 1e-4

    def test_power_normalisation(self):
        trace = generate_trace(100.0, 5e-2, 200_000, 11)
        mean_power = float(np.mean(np.abs(trace.samples) ** 2))
        assert 0.99 <= mean_power <= 1.01

    def test_lag_one_autocorrelation_matches_bessel(self):
        fdtb = 0.0338
        trace = generate_trace(fdtb / 1e-4, 1e-4, 200_000, 7)
        h = trace.samples
        r1 = float(np.mean(h[1:] * np.conj(h[:-1])).real / np.mean(np.abs(h) ** 2))
        target = j0(2.0 * math.pi * fdtb)
        # oscillator-draw variance of the realised correlation
        u = 2.0 * math.pi * fdtb
        sigma_draw = math.sqrt(((1.0 + j0(2.0 * u)) / 2.0 - j0(u) ** 2) / trace.n_oscillators)
        assert abs(r1 - target) <= 3.0 * sigma_draw + 1e-3

    def test_envelope_is_rayleigh(self):
        from scipy import stats

        # decorrelated sampling isolates the marginal distribution
        trace = generate_trace(100.0, 5e-2, 200_000, 5, n_oscillators=256)
        _, p = stats.kstest(np.abs(trace.samples), "rayleigh", args=(0, math.sqrt(0.5)))
        assert p >= 0.01

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            generate_trace(100.0, 1e-4, 0, 1)
        with pytest.raises(DomainError):
            generate_trace(100.0, 1e-4, 10, 1, n_oscillators=0)

    def test_csv_and_binary_export(self, tmp_path):
        from harqfbl.montecarlo import save_trace, trace_csv_lines

        trace = generate_trace(100.0, 1e-4, 50, 4)
        lines = list(trace_csv_lines(trace))
        assert lines[0] == "re,im"
        assert len(lines) == 51
        re0, im0 = map(float, lines[1].split(","))
        assert complex(re0, im0) == pytest.approx(trace.samples[0], rel=1e-9)
        path = tmp_path / "trace.npy"
        save_trace(trace, path)
        assert np.array_equal(np.load(path), trace.samples)


class TestSimulateAwgn:
    def test_error_free_channel_hits_code_rate(self):
        cfg = HarqConfig(CodeParams(100, 70), Scheme.IR, 2, (1.0, 0.5))
        res = simulate_harq(cfg, 1e12, 10_000, 1)
        assert res.outcome.p[0] == 1.0
        assert res.throughput == 0.7

    def test_cc_throughput_within_three_sigma(self):
        cfg = HarqConfig(CodeParams(100, 100), Scheme.CC, 2, (1.0, 1.0))
        res = simulate_harq(cfg, db_to_linear(-1.0), 1_000_000, 9)
        analytic = throughput(cfg, outcomes_awgn(cfg, db_to_linear(-1.0)))
        assert abs(res.throughput - analytic) <= 3.0 * res.throughput_se
        assert res.throughput == pytest.approx(0.537, abs=0.01)

    def test_outcomes_within_three_sigma(self):
        cfg = HarqConfig(CodeParams(100, 100), Scheme.IR, 2, (1.0, 0.58))
        analytic = outcomes_awgn(cfg, db_to_linear(-1.0))
        res = simulate_harq(cfg, db_to_linear(-1.0), 300_000, 17)
        for i in range(cfg.m):
            assert abs(res.outcome.p[i] - analytic.p[i]) <= 3.0 * max(res.outcome_se[i], 1e-9)
        assert abs(res.outcome.p_e - analytic.p_e) <= 3.0 * max(res.p_e_se, 3e-6)

    def test_deterministic_under_seed(self):
        cfg = HarqConfig(CodeParams(100, 70), Scheme.IR, 2, (1.0, 0.5))
        a = simulate_harq(cfg, db_to_linear(-3.0), 50_000, 4)
        b = simulate_harq(cfg, db_to_linear(-3.0), 50_000, 4)
        assert a.outcome.p == b.outcome.p
        assert a.throughput == b.throughput

    def test_packet_floor(self):
        cfg = HarqConfig(CodeParams(100, 70), Scheme.IR, 2, (1.0, 0.5))
        with pytest.raises(DomainError):
            simulate_harq(cfg, 1.0, 10, 0)

    @pytest.mark.parametrize("scheme, taus", [(Scheme.IR, (1.0, 0.5)), (Scheme.CC, (1.0, 1.0))])
    def test_boundary_snrs(self, scheme, taus):
        cfg = HarqConfig(CodeParams(100, 70), scheme, 2, taus)
        assert simulate_harq(cfg, math.inf, 1_000, 0).outcome.p == (1.0, 0.0)
        with pytest.raises(DomainError, match="nan"):
            simulate_harq(cfg, math.nan, 1_000, 0)
        with pytest.raises(DomainError, match="nan"):
            simulate_harq(cfg, TraceChannel(generate_trace(100.0, 1e-4, 10, 0), math.nan), 1_000, 0)


@pytest.fixture(scope="module")
def fading_setup():
    cfg = HarqConfig(CodeParams(100, 70), Scheme.IR, 2, (1.0, 0.6))
    model = build_fixed_sojourn(13, 3.0446, 0.0338 / 0.00014, 0.00014, db_to_linear(11.5))
    analytic = outcomes_fading(FadingOutcomeQuery(cfg, model))
    return cfg, model, analytic


@pytest.fixture(scope="module")
def l13_model():
    return build_equal_duration(13, 210.0, 0.00014, db_to_linear(10.0))


class TestSimulateFading:
    def test_quantisation_gap_is_bounded_and_reported(self, fading_setup):
        # the continuous channel is strongly correlated across a packet's
        # rounds while the state model averages within states, so the trace
        # simulation sees a noticeably larger residual error; the first-round
        # split still has to land close
        cfg, model, analytic = fading_setup
        trace = generate_trace(model.f_d, model.t_tb, 200_000 * 2 + 2, 17)
        res = simulate_harq(cfg, TraceChannel(trace, model.avg_snr), 200_000, 5)
        assert abs(res.outcome.p[0] - analytic.p[0]) <= 0.05
        assert analytic.p_e <= res.outcome.p_e <= 50.0 * analytic.p_e
        assert abs(res.throughput - throughput(cfg, analytic)) <= 0.02

    def test_iid_packet_start_mode(self, fading_setup):
        cfg, model, _ = fading_setup
        trace = generate_trace(model.f_d, model.t_tb, 100_000, 23)
        res = simulate_harq(cfg, TraceChannel(trace, model.avg_snr), 50_000, 3, packet_start="iid")
        assert abs(res.outcome.total - 1.0) <= 1e-12

    def test_trace_exhaustion_raises(self, fading_setup):
        cfg, model, _ = fading_setup
        trace = generate_trace(model.f_d, model.t_tb, 1500, 23)
        with pytest.raises(ResourceLimitError, match="longer trace"):
            simulate_harq(cfg, TraceChannel(trace, model.avg_snr), 2000, 3)


class TestValidateFsmc:
    def test_two_state_occupancy_within_three_sigma(self):
        model = build_equal_duration(2, 210.0, 0.00014, 10.0)
        trace = generate_trace(210.0, 0.00014, 1_000_000, 13)
        report = validate_fsmc(model, trace)
        assert not any(report.q_flags)
        for emp, ref, se in zip(report.q_emp, model.q, report.q_se):
            assert abs(emp - ref) <= 3.0 * se

    def test_occupancy_and_transitions_close(self, l13_model):
        model = l13_model
        trace = generate_trace(210.0, 0.00014, 1_000_000, 11)
        report = validate_fsmc(model, trace)
        # occupancy: exact marginal, deviations are sampling noise only
        assert sum(report.q_flags) <= 3
        for emp, ref in zip(report.q_emp, model.q):
            assert abs(emp - ref) <= 0.12 * ref + 1e-4
        # transitions carry the crossing-rate approximation; the busy
        # (low-amplitude) states must agree to a few percent
        rel_errors = []
        for i in range(8):
            for j in (i - 1, i + 1):
                if 0 <= j < model.n_states and model.transitions[i][j] > 0:
                    rel_errors.append(
                        abs(report.p_emp[i][j] - model.transitions[i][j]) / model.transitions[i][j]
                    )
        assert max(rel_errors) <= 0.25
        assert sorted(rel_errors)[len(rel_errors) // 2] <= 0.08
        # adjacent-state-only approximation: skipping is rare but nonzero
        assert 0.0 < report.skip_mass <= 2e-3

    def test_static_trace_has_identity_transitions(self, l13_model):
        model = l13_model
        trace = generate_trace(1e-6, 0.00014, 2000, 3)
        report = validate_fsmc(model, trace, n_blocks=10)
        occupied = [i for i in range(model.n_states) if report.q_emp[i] > 0]
        for i in occupied:
            assert report.p_emp[i][i] >= 0.999
