import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import j0

from harqfbl import (
    CodeParams,
    DomainError,
    FsmcModel,
    HarqConfig,
    KernelOptions,
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
from harqfbl import fbl, montecarlo
from harqfbl.fading import FadingOutcomeQuery
from harqfbl.fbl import _SCREEN_U, _screen_snr, round_stepper
from harqfbl.montecarlo import (
    _BLOCK,
    _OSCILLATORS_MAX,
    _PACKETS_MAX,
    _TRACE_BLOCK,
    _TRACE_CHUNK,
    _TRACE_MAX,
    FadingTrace,
    _result_from_resolution,
    _walk_starts,
)

B = _TRACE_BLOCK
EDGE_LENGTHS = (1, B - 1, B, B + 1, 3 * B + 5)


def exact_oscillator_sum(f_d, t_tb, seed, n_oscillators, index):
    """Sample `index` of the trace summed oscillator by oscillator in 120-bit
    arithmetic, from the same draws: alpha, then phi, from default_rng(seed).
    Returns the sample and the largest phase |omega_k*t + phi_k| at it."""
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.0, 2.0 * math.pi, n_oscillators)
    phi = rng.uniform(0.0, 2.0 * math.pi, n_oscillators)
    omega = 2.0 * math.pi * f_d * np.cos(alpha)
    with mp.workprec(120):
        t = index * mp.mpf(t_tb)
        phases = [mp.mpf(float(w)) * t + mp.mpf(float(p)) for w, p in zip(omega, phi)]
        total = mp.fsum(mp.expj(x) for x in phases) / mp.sqrt(n_oscillators)
        return complex(total), float(max(abs(x) for x in phases))


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

    @pytest.mark.parametrize(
        "length, seed, n_oscillators",
        [(100.5, 0, 64), (True, 0, 64), (100, -1, 64), (100, 0.5, 64), (100, True, 64), (100, 0, 2.0)],
    )
    def test_counts_and_seed_must_be_integers(self, length, seed, n_oscillators):
        with pytest.raises(DomainError):
            generate_trace(100.0, 1e-4, length, seed, n_oscillators)

    def test_seed_zero_accepted(self):
        assert len(generate_trace(100.0, 1e-4, 10, 0)) == 10

    @pytest.mark.parametrize(
        "f_d, t_tb",
        [(math.nan, 1e-4), (math.inf, 1e-4), (-1.0, 1e-4),
         (100.0, math.nan), (100.0, math.inf), (100.0, -1e-4), (100.0, 0.0)],
    )
    def test_doppler_and_block_duration_must_be_finite(self, f_d, t_tb):
        # a NaN trace used to reach simulate_harq, which answered p_e = 1
        with pytest.raises(DomainError):
            generate_trace(f_d, t_tb, 5000, 0)

    def test_zero_doppler_is_a_static_channel(self):
        # across block starts, a one-block last chunk and the matrix
        # product's tiles, which must not change the rounding of a sum of
        # identical phasors
        for length in (100, *EDGE_LENGTHS, _TRACE_CHUNK * B + 1, 300_000):
            for n_oscillators in (1, 3, 64, 257):
                s = generate_trace(0.0, 1e-4, length, 3, n_oscillators).samples
                assert len(s) == length
                assert np.all(s == s[0]), (length, n_oscillators)

    @pytest.mark.parametrize(
        "length, n_oscillators", [(n, 64) for n in (*EDGE_LENGTHS, 1_000_000)] + [(3 * B + 5, 5)]
    )
    def test_matches_exact_oscillator_sum(self, length, n_oscillators):
        # f_d*t_tb = 0.0338, the paper's slow regime; the phase reaches 2e5 rad at 1e6
        f_d, t_tb, seed = 241.4, 1.4e-4, 19
        s = generate_trace(f_d, t_tb, length, seed, n_oscillators).samples
        assert s.flags.c_contiguous
        for i in sorted({i for i in (0, B - 1, B, B + 1, length - 1) if i < length}):
            exact, max_phase = exact_oscillator_sum(f_d, t_tb, seed, n_oscillators, i)
            assert abs(s[i] - exact) <= 4.0 * 2.0**-52 * max_phase, i

    @pytest.mark.parametrize("n_oscillators", [3, 7, 50, 257])
    def test_scaled_as_by_a_complex_division(self, monkeypatch, n_oscillators):
        # the real view is scaled by 1 / sqrt(K); with sqrt patched to 1 the raw sum comes back
        # unscaled, and dividing it by sqrt(K) must give the same bits
        f_d, t_tb, length = 241.4, 1.4e-4, 3 * B + 5
        scaled = generate_trace(f_d, t_tb, length, 19, n_oscillators).samples
        monkeypatch.setattr(montecarlo, "math", SimpleNamespace(**{**vars(math), "sqrt": lambda x: 1.0}))
        raw = generate_trace(f_d, t_tb, length, 19, n_oscillators).samples
        assert np.array_equal(scaled, raw / math.sqrt(n_oscillators))
        assert not np.array_equal(scaled, raw)

    def test_length_over_the_limit_raises_before_allocating(self):
        with pytest.raises(ResourceLimitError):
            generate_trace(100.0, 1e-4, _TRACE_MAX + 1, 0)
        with pytest.raises(ResourceLimitError):
            generate_trace(100.0, 1e-4, 10**13, 0)

    @pytest.mark.parametrize("n_oscillators", [_OSCILLATORS_MAX + 1, 10**20])
    def test_oscillator_count_over_the_limit_raises_before_allocating(self, n_oscillators):
        # 10^20 used to end in numpy's "Maximum allowed dimension exceeded" from the phase draw
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="oscillator count"):
                generate_trace(100.0, 1e-4, 10, 0, n_oscillators)
            assert tracemalloc.get_traced_memory()[1] < 1 << 16
        finally:
            tracemalloc.stop()

    def test_overflowing_phase_raises(self):
        # 2*pi*f_d*t_tb*9 is inf; the samples used to come back NaN
        with pytest.raises(DomainError):
            generate_trace(1e300, 1e10, 10, 0)
        with pytest.raises(DomainError):
            generate_trace(1.7e308, 1e-4, 2, 0)


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

    def test_uniforms_are_drawn_block_by_block(self):
        # a fixed SNR used to hold all 2^20 uniforms at once, 8 MiB; now a uniform block plus the
        # 1 MiB of outcomes and one count mask
        cfg = HarqConfig(CodeParams(100, 100), Scheme.CC, 2, (1.0, 1.0))
        tracemalloc.start()
        try:
            simulate_harq(cfg, db_to_linear(-1.0), 1 << 20, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 << 20

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


class TestSimulateInputs:
    @pytest.fixture(params=["fixed", "model", "trace"])
    def channel(self, request, fading_setup):
        _, model, _ = fading_setup
        if request.param == "fixed":
            return 1.0
        if request.param == "model":
            return model
        return TraceChannel(generate_trace(model.f_d, model.t_tb, 10_000, 1), model.avg_snr)

    @pytest.mark.parametrize("packets, seed", [(1e4, 0), (True, 0), (2_000, -1), (2_000, 0.5), (2_000, True)])
    def test_packets_and_seed_checked_on_every_channel(self, fading_setup, channel, packets, seed):
        cfg = fading_setup[0]
        with pytest.raises(DomainError):
            simulate_harq(cfg, channel, packets, seed)

    def test_seed_zero_accepted(self, fading_setup, channel):
        assert simulate_harq(fading_setup[0], channel, 1_000, 0).packets == 1_000

    def test_model_state_snrs_checked(self, fading_setup):
        cfg, model, _ = fading_setup
        broken = replace(model, state_snrs=(math.nan,) + model.state_snrs[1:])
        with pytest.raises(DomainError, match="nan"):
            simulate_harq(cfg, broken, 1_000, 0)

    def test_kernel_must_be_kernel_options(self, fading_setup, channel):
        # used to raise AttributeError from the stepper
        with pytest.raises(DomainError, match="KernelOptions"):
            simulate_harq(fading_setup[0], channel, 1_000, 1, kernel="x")

    @pytest.mark.parametrize("avg_snr", ["a", None, True, 1j])
    def test_trace_mean_snr_must_be_real(self, fading_setup, avg_snr):
        # 'a' used to raise TypeError from the comparison with 0
        cfg, model, _ = fading_setup
        trace = generate_trace(model.f_d, model.t_tb, 5_000, 1)
        with pytest.raises(DomainError, match="real number"):
            simulate_harq(cfg, TraceChannel(trace, avg_snr), 1_000, 1)

    @pytest.mark.parametrize("packet_start", ["continuous", "iid"])
    def test_trace_samples_are_a_checked_complex_array(self, fading_setup, packet_start):
        # NaN samples used to answer p_e = 1, and a list failed at the first round-2 gather
        cfg, model, _ = fading_setup
        full = generate_trace(model.f_d, model.t_tb, 5_000, 2)
        as_list = FadingTrace(full.samples.tolist(), full.f_d, full.t_tb, full.seed, full.n_oscillators)
        assert as_list.samples.dtype == np.complex128 and np.array_equal(as_list.samples, full.samples)
        assert as_list.synthesised == len(as_list) == 5_000
        for trace in (full, as_list):
            assert simulate_harq(cfg, TraceChannel(trace, 1.0), 2_000, 3, packet_start=packet_start) == \
                simulate_harq(cfg, TraceChannel(full, 1.0), 2_000, 3, packet_start=packet_start)
        broken = full.samples.copy()
        broken[4_321] = complex(0.5, math.nan)
        for samples in (np.full(5_000, complex(math.nan, 0.0)), broken, full.samples.reshape(50, 100), "abc", 1.0):
            with pytest.raises(DomainError, match="trace samples"):
                FadingTrace(samples, 10.0, 1e-4, 0, 64)
        # a trace from generate_trace is not checked, so nothing of it is synthesised early
        assert generate_trace(model.f_d, model.t_tb, 5_000, 2).synthesised == 0


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

    def test_continuous_mode_holds_one_chain_of_starts(self, fading_setup):
        # about 4 % of packets retransmit, so the first 2^18 offsets hold too few starts and the
        # chain is built twice; the first chain's int64 starts used to live on while the second
        # was built, a peak of 2.7 x 8 bytes per packet instead of 1.7
        cfg, model, _ = fading_setup
        packets = 1 << 18
        trace = TraceChannel(generate_trace(model.f_d, model.t_tb, 2 * packets + 2, 17), model.avg_snr)
        tracemalloc.start()
        try:
            simulate_harq(cfg, trace, packets, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * packets

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

    @pytest.mark.parametrize("packet_start", ["continuous", "iid"])
    def test_trace_of_one_packet_raises(self, fading_setup, packet_start):
        cfg, model, _ = fading_setup
        trace = generate_trace(model.f_d, model.t_tb, cfg.m, 23)
        with pytest.raises(ResourceLimitError, match="longer trace"):
            simulate_harq(cfg, TraceChannel(trace, model.avg_snr), 1000, 3, packet_start=packet_start)


def class_counts(cfg, resolved):
    """The m + 1 class counts that _result_from_resolution takes."""
    return np.bincount(resolved, minlength=cfg.m + 1)


def dense_resolution(cfg, snrs, u, kernel=KernelOptions()):
    """Every round of every packet through the kernel, then the first round j with u >= eps_j, else m."""
    step, carry = round_stepper(cfg.code, cfg.round_lengths(), cfg.scheme, kernel)
    eps = []
    for j in range(cfg.m):
        carry, e = step(carry, j, snrs[j])
        eps.append(e)
    ok = u >= np.array(eps)
    return np.where(ok.any(axis=0), ok.argmax(axis=0), cfg.m)


def dense_chain(cfg, channel, packets, seed):
    """Continuous mode by the dense rule: every offset of the trace resolved,
    then the packets walked one by one.  Returns (resolution, starts)."""
    m = cfg.m
    gains = channel.avg_snr * np.abs(channel.trace.samples) ** 2
    n = len(gains) - m + 1
    every = dense_resolution(cfg, [gains[j:j + n] for j in range(m)], np.random.default_rng(seed).random(n))
    starts = [0]
    while len(starts) < packets and starts[-1] + min(every[starts[-1]] + 1, m) < n:
        starts.append(starts[-1] + min(every[starts[-1]] + 1, m))
    return every, starts


def dense_simulate(cfg, channel, packets, seed, packet_start="continuous"):
    """simulate_harq by the dense rule, from the same draws in the same order;
    an exhausted trace returns the message simulate_harq raises."""
    m, rng = cfg.m, np.random.default_rng(seed)
    if isinstance(channel, TraceChannel) and packet_start == "continuous":
        every, starts = dense_chain(cfg, channel, packets, seed)
        if len(starts) < packets:
            return f"trace of {len(channel.trace)} samples exhausted after {len(starts)} packets; generate a longer trace"
        return _result_from_resolution(cfg, class_counts(cfg, every[starts]))
    if isinstance(channel, TraceChannel):
        gains = channel.avg_snr * np.abs(channel.trace.samples) ** 2
        u, starts = rng.random(packets), rng.integers(0, len(gains) - m + 1, size=packets)
        return _result_from_resolution(cfg, class_counts(cfg, dense_resolution(cfg, [gains[starts + j] for j in range(m)], u)))
    if isinstance(channel, FsmcModel):
        L, q = channel.n_states, np.asarray(channel.q)
        states = [rng.choice(L, size=packets, p=q / q.sum())]
        cum_rows = np.cumsum(np.asarray(channel.transitions), axis=1)
        for _ in range(m - 1):
            states.append(np.minimum((rng.random(packets)[:, None] > cum_rows[states[-1]]).sum(axis=1), L - 1))
        snrs = np.asarray(channel.state_snrs)[np.array(states)]
    else:
        snrs = np.full((m, packets), float(channel))
    return _result_from_resolution(cfg, class_counts(cfg, dense_resolution(cfg, snrs, rng.random(packets))))


def simulated(cfg, channel, packets, seed, packet_start="continuous"):
    """simulate_harq's result, or the message of the ResourceLimitError it raises."""
    try:
        return simulate_harq(cfg, channel, packets, seed, packet_start=packet_start)
    except ResourceLimitError as exc:
        return str(exc)


SURVIVOR_CFGS = [
    HarqConfig(CodeParams(100, 70), Scheme.IR, 1, (1.0,)),
    HarqConfig(CodeParams(100, 70), Scheme.IR, 2, (1.0, 0.6)),
    HarqConfig(CodeParams(100, 80), Scheme.IR, 3, (1.0, 0.5, 0.3)),
    HarqConfig(CodeParams(100, 70), Scheme.CC, 1, (1.0,)),
    HarqConfig(CodeParams(100, 70), Scheme.CC, 2, (1.0, 1.0)),
    HarqConfig(CodeParams(100, 90), Scheme.CC, 3, (1.0, 1.0, 1.0)),
]
SURVIVOR_IDS = [f"{c.scheme.value}-m{c.m}" for c in SURVIVOR_CFGS]
KERNELS = [KernelOptions(), KernelOptions("bits2"), KernelOptions(cc_denominator="n_sqrt_v")]
KERNEL_IDS = ["nats2", "bits2", "n_sqrt_v"]
# uniforms below, at and above _SCREEN_U, and up to 5e-8, past eps at 0.97 g_hi
SCREEN_EDGE_U = [0.0, 1e-9, 5e-9, math.nextafter(1e-8, 0.0), 1e-8, 1.1e-8, 1.25e-8, 1.5e-8, 2e-8, 5e-8, 1e-7, 0.5]


def counting_kernel(monkeypatch):
    """Patch the kernel's Q-function map to record how many values it evaluates."""
    evals = []
    eps = fbl._eps

    def counted(*args):
        out = eps(*args)
        evals.append(out.size)
        return out

    monkeypatch.setattr(fbl, "_eps", counted)
    return evals


class TestSurvivorRule:
    """simulate_harq steps round j only on the packets that failed round j - 1,
    and in continuous mode resolves only the trace offsets the packets reach;
    it must decide every packet as the dense rule does, bit for bit."""

    @pytest.mark.parametrize("cfg", SURVIVOR_CFGS, ids=SURVIVOR_IDS)
    @pytest.mark.parametrize("kind", ["fixed", "model", "iid", "continuous"])
    def test_matches_the_dense_rule(self, fading_setup, cfg, kind):
        # one block, then more than one _BLOCK of packets
        model = fading_setup[1]
        for seed, packets in ((2, 3_000), (5, _BLOCK + 1_500)):
            if kind in ("iid", "continuous"):
                trace = generate_trace(model.f_d, model.t_tb, packets * cfg.m + cfg.m, seed)
                channel, mode = TraceChannel(trace, db_to_linear(6.0)), kind
            else:
                channel, mode = (db_to_linear(-1.0) if kind == "fixed" else model), "continuous"
            expected = dense_simulate(cfg, channel, packets, seed, mode)
            assert simulate_harq(cfg, channel, packets, seed, packet_start=mode) == expected

    @pytest.mark.parametrize("cfg", SURVIVOR_CFGS[1:3] + SURVIVOR_CFGS[4:], ids=SURVIVOR_IDS[1:3] + SURVIVOR_IDS[4:])
    @pytest.mark.parametrize("snr_db, screened", [(-3.0, False), (14.0, True)], ids=["low", "high"])
    def test_matches_the_dense_rule_on_both_sides_of_the_tail_screen(self, monkeypatch, cfg, snr_db, screened):
        # at -3 dB almost every round takes the exact Gaussian tail; at 14 dB the screen
        # decides most first rounds without it, on every channel and with m = 2 and 3
        values = []
        erfc = fbl._erfc
        monkeypatch.setattr(fbl, "_erfc", lambda x: values.append(np.size(x)) or erfc(x))
        model = build_fixed_sojourn(13, 3.0446, 0.0338 / 0.00014, 0.00014, db_to_linear(snr_db))
        trace = generate_trace(model.f_d, model.t_tb, 4_000 * cfg.m + cfg.m, 12)
        for channel, mode in ((db_to_linear(snr_db), "continuous"), (model, "continuous"),
                              (TraceChannel(trace, model.avg_snr), "iid"),
                              (TraceChannel(trace, model.avg_snr), "continuous")):
            values.clear()
            got = simulate_harq(cfg, channel, 4_000, 12, packet_start=mode)
            through_erfc = sum(values)
            assert got == dense_simulate(cfg, channel, 4_000, 12, mode)
            if not isinstance(channel, float):  # a fixed SNR compares its m thresholds only
                assert (through_erfc < 2_000) == screened, through_erfc

    @pytest.mark.parametrize("cfg", SURVIVOR_CFGS, ids=SURVIVOR_IDS)
    def test_many_small_blocks(self, fading_setup, monkeypatch, cfg):
        # 37-packet blocks: some resolve entirely in round 1, some do not
        monkeypatch.setattr(montecarlo, "_BLOCK", 37)
        model = fading_setup[1]
        trace = TraceChannel(generate_trace(model.f_d, model.t_tb, 2_000 * cfg.m + cfg.m, 4), model.avg_snr)
        for channel, mode in ((model, "continuous"), (trace, "iid"), (trace, "continuous")):
            assert simulate_harq(cfg, channel, 2_000, 4, packet_start=mode) == dense_simulate(cfg, channel, 2_000, 4, mode)

    @pytest.mark.parametrize("cfg", SURVIVOR_CFGS, ids=SURVIVOR_IDS)
    @pytest.mark.parametrize("span", [29, 37, 100, 2_000])
    def test_many_small_blocks_and_spans(self, fading_setup, monkeypatch, cfg, span):
        # every channel resolves _SPAN packets or offsets at a time: spans shorter than, equal to
        # and longer than a 37-packet block, and one span for all
        monkeypatch.setattr(montecarlo, "_BLOCK", 37)
        monkeypatch.setattr(montecarlo, "_SPAN", span)
        model = fading_setup[1]
        trace = TraceChannel(generate_trace(model.f_d, model.t_tb, 2_000 * cfg.m + cfg.m, 4), model.avg_snr)
        for channel, mode in ((model, "continuous"), (trace, "iid"), (trace, "continuous")):
            assert simulate_harq(cfg, channel, 2_000, 4, packet_start=mode) == dense_simulate(cfg, channel, 2_000, 4, mode)

    @pytest.mark.parametrize("cfg", SURVIVOR_CFGS, ids=SURVIVOR_IDS)
    @pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
    @pytest.mark.parametrize("block", [37, _BLOCK])
    def test_matches_the_dense_rule_either_side_of_the_screen_snr(self, monkeypatch, cfg, kernel, block):
        # round-1 SNRs within 3 % of g_hi, on both sides, and uniforms on both sides of _SCREEN_U
        # and of the exact eps there (about 1.2e-8 at 0.99 g_hi): every packet as the dense rule
        monkeypatch.setattr(montecarlo, "_BLOCK", block)
        g_hi = _screen_snr(cfg.code, cfg.scheme, kernel)
        near = g_hi * (1.0 + np.linspace(-0.03, 0.03, 61))
        g0 = np.concatenate([near, [math.nextafter(g_hi, 0.0), g_hi, math.nextafter(g_hi, math.inf),
                                    0.0, math.inf, math.nan]])
        g0, u = (a.ravel() for a in np.meshgrid(g0, SCREEN_EDGE_U))
        rng = np.random.default_rng(1)
        snrs = [g0] + [rng.exponential(g_hi, len(g0)) for _ in range(cfg.m - 1)]
        stepper = round_stepper(cfg.code, cfg.round_lengths(), cfg.scheme, kernel)
        got = montecarlo._first_success(stepper, g_hi, u, lambda j, i: snrs[j][i], cfg.m)
        assert np.array_equal(got, dense_resolution(cfg, snrs, u, kernel))
        assert set(got[(g0 >= g_hi) & (u >= _SCREEN_U)]) == {0}

    @pytest.mark.parametrize("cfg", SURVIVOR_CFGS, ids=SURVIVOR_IDS)
    @pytest.mark.parametrize("snr", [0.0, math.inf])
    def test_zero_and_infinite_snr(self, fading_setup, cfg, snr):
        model = fading_setup[1]
        trace = TraceChannel(generate_trace(model.f_d, model.t_tb, 2_000 * cfg.m + cfg.m, 6), snr)
        for channel, mode in ((snr, "continuous"), (trace, "iid"), (trace, "continuous")):
            res = simulate_harq(cfg, channel, 2_000, 6, packet_start=mode)
            assert res == dense_simulate(cfg, channel, 2_000, 6, mode)
            assert res.outcome.p_e == (1.0 if snr == 0.0 else 0.0)

    @pytest.mark.parametrize("mode", ["iid", "continuous"])
    def test_blocks_decoded_in_round_one_stop_there(self, fading_setup, monkeypatch, mode):
        # at an infinite SNR every packet of every block decodes in round 1, decided
        # from its SNR alone: no kernel value, and no trace offset past the packets
        cfg, model = SURVIVOR_CFGS[2], fading_setup[1]
        trace = TraceChannel(generate_trace(model.f_d, model.t_tb, 4 * _BLOCK, 8), math.inf)
        evals = counting_kernel(monkeypatch)
        assert simulate_harq(cfg, trace, 2 * _BLOCK + 3, 8, packet_start=mode).outcome.p[0] == 1.0
        assert sum(evals) == 0

    @pytest.mark.parametrize("cfg", SURVIVOR_CFGS, ids=SURVIVOR_IDS)
    def test_trace_prefix_extension_and_exhaustion(self, fading_setup, cfg):
        # at 0 dB many packets take more than one offset, so the first
        # `packets` offsets hold too few starts and one extension must
        # suffice, down to the shortest trace that holds every packet; one
        # sample less exhausts the trace with the dense rule's count
        packets, model = 2_000, fading_setup[1]
        full = generate_trace(model.f_d, model.t_tb, packets * cfg.m + cfg.m, 9)
        last = dense_chain(cfg, TraceChannel(full, 1.0), packets, 9)[1][-1]
        assert last >= packets or cfg.m == 1
        for length in (len(full), last + cfg.m, last + cfg.m - 1, packets, cfg.m + 1):
            channel = TraceChannel(replace(full, samples=full.samples[:length]), 1.0)
            expected = dense_simulate(cfg, channel, packets, 9)
            assert simulated(cfg, channel, packets, 9) == expected
            assert isinstance(expected, str) == (length < last + cfg.m)

    @pytest.mark.parametrize("packet_start", ["continuous", "iid"])
    def test_packet_count_is_bounded_before_drawing(self, fading_setup, packet_start):
        # limit + 1 packets are refused before any per-packet array exists
        cfg, model, _ = fading_setup
        trace = TraceChannel(generate_trace(model.f_d, model.t_tb, 10, 0), model.avg_snr)
        for channel in (model, 1.0, trace):
            tracemalloc.start()
            try:
                with pytest.raises(ResourceLimitError, match="exceeds the limit"):
                    simulate_harq(cfg, channel, _PACKETS_MAX + 1, 0, packet_start=packet_start)
                assert tracemalloc.get_traced_memory()[1] < 1 << 20
            finally:
                tracemalloc.stop()


CHUNK = _TRACE_CHUNK * B  # samples per synthesised chunk


class TestLazyTrace:
    """generate_trace synthesises a chunk only when the trace is first read there."""

    @pytest.mark.parametrize("f_d", [241.4, 0.0])
    @pytest.mark.parametrize("length", [*EDGE_LENGTHS, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    def test_completed_after_a_run_equals_one_synthesis(self, fading_setup, f_d, length):
        cfg, model, _ = fading_setup
        lazy = generate_trace(f_d, 1.4e-4, length, 19)
        simulated(cfg, TraceChannel(lazy, model.avg_snr), 1_000, 3)  # too short a trace raises
        assert lazy.synthesised == min(length, CHUNK if length > cfg.m else 0)
        assert np.array_equal(lazy.samples, generate_trace(f_d, 1.4e-4, length, 19).samples)
        assert lazy.synthesised == length

    @pytest.mark.parametrize("cfg", SURVIVOR_CFGS[1:3] + SURVIVOR_CFGS[4:], ids=SURVIVOR_IDS[1:3] + SURVIVOR_IDS[4:])
    @pytest.mark.parametrize("mode", ["continuous", "iid"])
    def test_simulates_as_its_complete_copy(self, fading_setup, cfg, mode):
        # at 0 dB, on a full trace and on both sides of the shortest that holds every packet
        model, packets = fading_setup[1], 2_000
        full = generate_trace(model.f_d, model.t_tb, packets * cfg.m + cfg.m, 9)
        last = dense_chain(cfg, TraceChannel(full, 1.0), packets, 9)[1][-1]
        for length in (len(full), last + cfg.m, last + cfg.m - 1):
            lazy = generate_trace(model.f_d, model.t_tb, length, 9)
            copy = FadingTrace(generate_trace(model.f_d, model.t_tb, length, 9).samples.copy(), model.f_d, model.t_tb, 9, 64)
            got = simulated(cfg, TraceChannel(lazy, 1.0), packets, 9, mode)
            assert got == simulated(cfg, TraceChannel(copy, 1.0), packets, 9, mode)
            assert isinstance(got, str) == (mode == "continuous" and length < last + cfg.m)

    def test_continuous_run_synthesises_only_the_chunks_it_reads(self, fading_setup):
        # about 4 % of 2^18 packets retransmit: the last start lies past the second chunk,
        # far from the end of the 2^19 + 2-sample trace
        cfg, model, _ = fading_setup
        packets, length = 1 << 18, 2 * (1 << 18) + 2
        lazy = generate_trace(model.f_d, model.t_tb, length, 17)
        simulate_harq(cfg, TraceChannel(lazy, model.avg_snr), packets, 5)
        complete = TraceChannel(generate_trace(model.f_d, model.t_tb, length, 17), model.avg_snr)
        last = dense_chain(cfg, complete, packets, 5)[1][-1]
        assert last + cfg.m > 2 * CHUNK
        assert lazy.synthesised == -(-(last + cfg.m) // CHUNK) * CHUNK < length

    def test_length_synthesises_nothing(self):
        trace = generate_trace(241.4, 1.4e-4, 3 * CHUNK + 5, 1)
        assert len(trace) == 3 * CHUNK + 5 and trace.synthesised == 0
        assert len(trace.prefix(CHUNK + 1)) == CHUNK + 1 and trace.synthesised == 2 * CHUNK
        assert np.array_equal(trace.prefix(10**9), trace.samples) and trace.synthesised == len(trace)


def walked_starts(advance, packets):
    """The starts of back-to-back packets, one packet at a time."""
    starts, s = [], 0
    while s < len(advance) and len(starts) < packets:
        starts.append(s)
        s += int(advance[s])
    return starts


def random_advance(m, n, rate, seed):
    rng = np.random.default_rng(seed)
    return np.where(rng.random(n) < rate, rng.integers(2, m + 1, n) if m > 1 else 1, 1).astype(np.uint8)


def walked_in_ranges(advance, bounds):
    """The starts _walk_starts visits over advance cut at bounds, range by range from the
    start each range carries over, and the start the last range carries out."""
    starts, start = [], 0
    for lo, hi in zip(bounds, bounds[1:]):
        mask, nxt = _walk_starts(advance[lo:hi], start - lo)
        starts += (np.flatnonzero(mask) + lo).tolist()
        start = lo + nxt
    return starts, start


class TestChainStarts:
    @given(st.integers(1, 3), st.integers(1, 300), st.floats(0.0, 1.0), st.integers(1, 700), st.integers(0, 2**32 - 1))
    @example(m=2, n=50, rate=0.0, packets=60, seed=0)  # no jump: every offset is a start
    @example(m=2, n=50, rate=1.0, packets=60, seed=0)  # every offset jumps
    @example(m=3, n=1, rate=1.0, packets=5, seed=0)
    @settings(max_examples=300, deadline=None)
    def test_matches_a_plain_walk(self, m, n, rate, packets, seed):
        # jump rates 0-100 %, and packet counts past the trace's end
        advance = random_advance(m, n, rate, seed)
        starts = np.flatnonzero(_walk_starts(advance, 0)[0])[:packets]
        expected = walked_starts(advance, packets)
        assert starts.tolist() == expected and len(starts) == len(expected)

    @given(st.integers(1, 3), st.integers(1, 300), st.floats(0.0, 1.0), st.integers(1, 700), st.integers(0, 2**32 - 1),
           st.lists(st.integers(0, 300), max_size=3))
    @example(m=2, n=50, rate=0.0, packets=60, seed=0, cuts=[20])
    @example(m=2, n=50, rate=1.0, packets=60, seed=0, cuts=[1, 2, 25])
    @example(m=3, n=1, rate=1.0, packets=5, seed=0, cuts=[])
    @example(m=3, n=9, rate=1.0, packets=5, seed=0, cuts=[4, 4, 5])  # an empty range
    @settings(max_examples=300, deadline=None)
    def test_resumes_range_by_range(self, m, n, rate, packets, seed, cuts):
        # 1-4 ranges; a jump may land past the next range's first offsets or past the end
        advance = random_advance(m, n, rate, seed)
        starts, end = walked_in_ranges(advance, [0, *sorted(min(c, n) for c in cuts), n])
        expected = walked_starts(advance, packets)
        assert starts[:packets] == expected and len(starts[:packets]) == len(expected)
        every = walked_starts(advance, n + 1)
        assert starts == every and end == every[-1] + int(advance[every[-1]])


def moments_from_arrays(cfg, resolved, packets):
    """The throughput and its standard error from the per-packet arrays,
    the formula _result_from_resolution evaluates from class counts."""
    m, slots = cfg.m, np.cumsum(cfg.taus)
    cost = np.where(resolved == m, slots[-1], slots[np.minimum(resolved, m - 1)])
    success = (resolved < m).astype(np.float64)
    tp = cfg.code.rate * success.mean() / cost.mean()
    sx, sy = success.std(ddof=1), cost.std(ddof=1)
    cxy = np.cov(success, cost, ddof=1)[0, 1]
    xbar, ybar = success.mean(), cost.mean()
    var = (tp / max(xbar, 1e-300)) ** 2 * sx ** 2 / packets
    var += (tp / ybar) ** 2 * sy ** 2 / packets
    var -= 2.0 * tp ** 2 / (max(xbar, 1e-300) * ybar) * cxy / packets
    return tp, math.sqrt(max(var, 0.0))


class TestCountStatistics:
    @pytest.mark.parametrize("cfg", SURVIVOR_CFGS, ids=SURVIVOR_IDS)
    @pytest.mark.parametrize("shares", [(0.9, 0.05, 0.03, 0.02), (0.2, 0.3, 0.1, 0.4), (1.0, 0.0, 0.0, 0.0),
                                        (0.0, 0.0, 0.0, 1.0), (0.999, 0.0, 0.0, 0.001)])
    def test_match_the_array_formula(self, cfg, shares):
        rng = np.random.default_rng(3)
        p = np.array([*shares[:cfg.m], sum(shares[cfg.m:])])
        resolved = rng.choice(cfg.m + 1, size=200_003, p=p / p.sum()).astype(np.uint8)
        res = _result_from_resolution(cfg, class_counts(cfg, resolved))
        tp, tp_se = moments_from_arrays(cfg, resolved, len(resolved))
        assert res.throughput == pytest.approx(tp, rel=1e-12, abs=0.0)
        assert res.throughput_se == pytest.approx(tp_se, rel=1e-12, abs=1e-300)


class TestChainReplicaAndIidStarts:
    def test_chain_draw_is_linear_in_packets(self):
        # the draw used to compare a (packets x L) matrix: 74.8 MiB here
        model = build_equal_duration(64, 10.0, 1e-4, db_to_linear(10.0))
        cfg = HarqConfig(CodeParams(100, 70), Scheme.IR, 3, (1.0, 0.5, 0.5))
        tracemalloc.start()
        try:
            res = simulate_harq(cfg, model, 1 << 17, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        assert res.outcome.total == pytest.approx(1.0, abs=1e-12)

    def test_undecided_packets_are_held_one_span_at_a_time(self):
        # at -5 dB the SNR screen decides almost no packet; after a warm-up run the peak grows
        # 12.0 B per packet (the paths, the uniforms and the classes), and would grow 20.7 B per
        # packet if a whole run's undecided indices were held at once
        model = build_equal_duration(64, 10.0, 1e-4, db_to_linear(-5.0))
        cfg = HarqConfig(CodeParams(100, 70), Scheme.IR, 3, (1.0, 0.5, 0.5))
        simulate_harq(cfg, model, 1_000, 1)  # one-off costs, such as the cached screen SNR
        peaks = []
        for packets in (1 << 17, 1 << 18):
            tracemalloc.start()
            try:
                simulate_harq(cfg, model, packets, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / (1 << 17) <= 16.0, peaks

    def test_iid_starts_reach_the_last_offset(self):
        # 22 samples hold m = 2 packets at offsets 0..20; only offset 20 sees
        # a nonzero gain (sample 21, its second round), so only its packets decode
        samples = np.zeros(22, dtype=complex)
        samples[21] = 1.0
        trace = FadingTrace(samples, 100.0, 1e-4, 0, 1)
        cfg = HarqConfig(CodeParams(100, 70), Scheme.IR, 2, (1.0, 1.0))
        res = simulate_harq(cfg, TraceChannel(trace, 1e6), 21_000, 5, packet_start="iid")
        assert res.outcome.p[0] == 0.0
        assert abs(res.outcome.p[1] - 1 / 21) <= 5.0 * math.sqrt(20 / 21**2 / 21_000)


class TestValidateFsmc:
    @pytest.mark.parametrize("n_blocks", [0, 2.0, True])
    def test_block_count_must_be_a_positive_integer(self, l13_model, n_blocks):
        trace = generate_trace(210.0, 0.00014, 1_000, 1)
        with pytest.raises(DomainError, match="n_blocks"):
            validate_fsmc(l13_model, trace, n_blocks)

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
