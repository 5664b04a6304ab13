import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from harqfbl import (
    CodeParams,
    DomainError,
    HarqConfig,
    KernelOptions,
    LOG2E_SQ,
    Scheme,
    TransmissionRecord,
    channel_dispersion,
    db_to_linear,
    linear_to_db,
    per_cc,
    per_ir,
    q_function,
)
from harqfbl import fbl
from harqfbl.fbl import round_stepper
from harqfbl.outcomes import prefix_error_grid

mp.mp.dps = 40


def q_oracle_quad(x: float) -> float:
    """Independent oracle: integrate the standard normal density over [x, inf)."""
    val, _ = quad(lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi), x, math.inf)
    return val


def q_oracle_mp(x: float) -> float:
    return float(mp.erfc(mp.mpf(x) / mp.sqrt(2)) / 2)


class TestQFunction:
    def test_symmetry_point(self):
        assert q_function(0.0) == 0.5

    def test_deep_tail(self):
        v = q_function(40.0)
        assert 0.0 <= v < 1e-300

    def test_decile_inverse(self):
        # 1.2815515655 is the standard normal 90% point
        assert q_function(1.2815515655) == pytest.approx(0.1, abs=1e-6)
        assert q_oracle_quad(1.2815515655) == pytest.approx(0.1, abs=1e-6)

    @pytest.mark.parametrize("x", [-8.0, -2.5, -1.0, 0.0, 0.3, 1.0, 2.0, 5.0, 8.0])
    def test_against_high_precision_erfc(self, x):
        assert abs(q_function(x) - q_oracle_mp(x)) <= 1e-14

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, x):
        with pytest.raises(DomainError):
            q_function(x)

    @given(st.floats(-30, 30), st.floats(1e-6, 10))
    def test_decreasing_and_bounded(self, x, dx):
        a, b = q_function(x), q_function(x + dx)
        assert 0.0 <= b <= a <= 1.0
        # strict away from the regions where the double saturates
        if 1e-300 < b and a < 0.99:
            assert b < a


class TestVectorisedErfc:
    """fbl._erfc, the kernel's Q-function, against mpmath and math.erfc on [-27.3, 27.3]."""

    ULPS = 7  # bound for every normal result, so for all >= 1e-300

    @staticmethod
    def arguments():
        rng = np.random.default_rng(20)
        return np.concatenate([
            np.linspace(-27.3, 27.3, 3001),
            rng.uniform(-27.3, 27.3, 2000),
            rng.uniform(-0.05, 0.05, 500),  # erfc near 1, where the fit's error peaks
            rng.uniform(26.2, 27.3, 1000),  # the clamp, the math.erfc band and the zero edge
            [26.5, 27.2263641357421875, math.nextafter(27.2263641357421875, 0.0), 1e-300, -1e-300, 5e-324],
        ])

    def test_within_the_ulp_bound_of_mpmath(self):
        x = self.arguments()
        worst = 0.0
        for xi, vi in zip(x.tolist(), fbl._erfc(x).tolist()):
            exact = mp.erfc(mp.mpf(xi))
            if exact >= 2.2250738585072014e-308:
                worst = max(worst, float(abs(vi - exact)) / math.ulp(float(exact)))
                assert vi == pytest.approx(math.erfc(xi), rel=2e-15)
        assert worst <= self.ULPS

    def test_subnormal_and_zero_results_equal_math_erfc(self):
        x = self.arguments()
        x = x[np.abs(x) > 26.5]
        v = fbl._erfc(x)
        tiny = [math.erfc(xi) for xi in x.tolist()]
        assert sum(0.0 < t < 2.2250738585072014e-308 for t in tiny) > 50
        assert sum(t == 0.0 for t in tiny) > 50
        assert v.tolist() == tiny

    def test_signed_zeros_infinities_and_nan(self):
        v = fbl._erfc(np.array([0.0, -0.0, math.inf, -math.inf, math.nan]))
        assert v[:4].tolist() == [1.0, 1.0, 0.0, 2.0]
        assert math.isnan(v[4])

    def test_exact_tails_equal_math_erfc(self):
        # 0 from _ERFC_ZERO up and 2 from -6 down are filled directly; just inside each cut the form runs
        zero, two = fbl._ERFC_ZERO, -6.0
        up = [zero, math.nextafter(zero, 30.0), 27.5, 40.0, 1e300, math.inf]
        down = [two, math.nextafter(two, -7.0), -6.5, -27.3, -1e300, -math.inf]
        assert fbl._erfc(np.array(up)).tolist() == [math.erfc(x) for x in up] == [0.0] * len(up)
        assert not np.signbit(fbl._erfc(np.array(up))).any()
        assert fbl._erfc(np.array(down)).tolist() == [math.erfc(x) for x in down] == [2.0] * len(down)
        inside = [math.nextafter(zero, 0.0), math.nextafter(two, 0.0)]
        assert fbl._erfc(np.array(inside)).tolist() == [math.erfc(x) for x in inside]
        assert 0.0 < fbl._erfc(np.array(inside[0]))

    def test_nan_propagates_among_exact_tails(self):
        v = fbl._erfc(np.array([[math.nan, 40.0], [-8.0, math.nan]]))
        assert v.shape == (2, 2) and np.isnan(v[[0, 1], [0, 1]]).all()
        assert (v[0, 1], v[1, 0]) == (0.0, 2.0)
        assert fbl._erfc(np.array([])).shape == (0,) and fbl._erfc(np.float64(-9.0)).shape == ()

    def test_negative_arguments_reflect_with_one_rounding(self):
        # a second rounding, as in v + (x < 0) * (2 - 2v), moves some of these
        x = np.abs(self.arguments())
        assert np.array_equal(fbl._erfc(-x), 2.0 - fbl._erfc(x))

    def test_each_value_independent_of_its_array(self):
        # one form for every size and position: a value is the same alone,
        # in a block, at an unaligned offset or in a 0-d array
        x = self.arguments()
        whole = fbl._erfc(x)
        for i in range(0, len(x), 97):
            assert fbl._erfc(x[i:i + 1])[0] == whole[i]
            assert fbl._erfc(x[i]) == whole[i] and fbl._erfc(x[i]).shape == ()
        assert np.array_equal(fbl._erfc(x[3:]), whole[3:])
        assert fbl._erfc(x[:12].reshape(3, 4)).tolist() == whole[:12].reshape(3, 4).tolist()


    def test_arguments_taken_whole_equal_the_gathered_ones(self):
        # with no exact argument _erfc skips its gather and scatter; the same values among
        # exact ones take the gathered path, bit for bit alike, at every shape
        x = self.arguments()
        inexact = x[(x > -6.0) & (x < fbl._ERFC_ZERO)]
        whole = fbl._erfc(inexact)
        tails = np.array([40.0, -8.0, math.inf, -math.inf, fbl._ERFC_ZERO, -6.0])
        mixed = np.empty(2 * len(inexact))
        mixed[0::2], mixed[1::2] = inexact, np.resize(tails, len(inexact))
        assert np.array_equal(fbl._erfc(mixed)[0::2], whole)
        assert fbl._erfc(tails).tolist() == [math.erfc(t) for t in tails.tolist()]
        assert fbl._erfc(inexact[:12].reshape(3, 4)).tolist() == whole[:12].reshape(3, 4).tolist()
        for i in range(0, len(inexact), 101):
            single = fbl._erfc(inexact[i])
            assert single.shape == () and single == whole[i] == fbl._erfc(np.array([inexact[i], 40.0]))[0]
        assert fbl._erfc(np.array([])).shape == (0,) and fbl._erfc(np.zeros((0, 3))).shape == (0, 3)
        assert np.isnan(fbl._erfc(np.array([math.nan, 1.0])))[0]


class TestEps:
    def test_zero_dispersion_decides_on_capacity(self, monkeypatch):
        # with _SQRT2 = 1 the Q argument x is the numerator itself; where the dispersion d is 0,
        # eps is 0 for cap > k = 70 and 1 otherwise, whatever x is, NaN too; elsewhere a NaN x
        # gives a NaN eps
        monkeypatch.setattr(fbl, "_SQRT2", 1.0)
        x = np.array([-4.0, math.nan, 0.0, 4.0, math.nan, 40.0, math.inf, -math.inf])
        d = np.arange(len(x)) % 2.0
        for cap, decided in ((80.0, 0.0), (70.0, 1.0), (60.0, 1.0)):
            eps = fbl._eps(cap, 70, x, d, 1.0)
            assert np.all(eps[d == 0.0] == decided)
            assert np.array_equal(eps[d > 0.0], 0.5 * fbl._erfc(x[d > 0.0]), equal_nan=True)
            assert math.isnan(eps[1])


SCREEN_CODES = [CodeParams(100, 70), CodeParams(100, 90), CodeParams(32, 5), CodeParams(2048, 1500),
                CodeParams(1024, 10)]
SCREEN_KERNELS = [KernelOptions(), KernelOptions("bits2"), KernelOptions(cc_denominator="n_sqrt_v"),
                  KernelOptions("bits2", "n_sqrt_v")]


class TestScreenSnr:
    """_screen_snr's g_hi: from it on, round 1's computed Q argument clears the tail screen."""

    @pytest.mark.parametrize("code", SCREEN_CODES, ids=[f"n{c.n}-k{c.k}" for c in SCREEN_CODES])
    @pytest.mark.parametrize("kernel", SCREEN_KERNELS, ids=["nats2", "bits2", "n_sqrt_v", "bits2-n_sqrt_v"])
    @pytest.mark.parametrize("scheme", [Scheme.IR, Scheme.CC])
    def test_round_one_clears_the_screen_from_g_hi_on(self, monkeypatch, code, kernel, scheme):
        # the arguments _erfc receives from the unscreened step, on a dense log grid from g_hi
        # to 1e12 and at inf; just below g_hi the argument is within 1e-6 of the screen
        args = []
        erfc = fbl._erfc
        monkeypatch.setattr(fbl, "_erfc", lambda x: args.append(np.array(x)) or erfc(x))
        g_hi = fbl._screen_snr(code, scheme, kernel)
        assert 0.0 < g_hi < math.inf
        grid = np.concatenate([[g_hi, math.nextafter(g_hi, math.inf), math.inf],
                               np.geomspace(g_hi, 1e12, 20_001), g_hi * (1.0 + np.linspace(0.0, 1e-3, 2_001))])
        step, start = round_stepper(code, (code.n, code.n // 2), scheme, kernel)
        step(start, 0, grid)
        assert args[-1].shape == grid.shape and args[-1].min() >= fbl._SCREEN_X
        step(start, 0, np.array([math.nextafter(g_hi, 0.0), g_hi]))
        assert args[-1][0] < fbl._SCREEN_X + 1e-6 and args[-1][1] - fbl._SCREEN_X < 1e-6

    def test_no_screen_when_k_is_below_log2_n(self):
        # B = k - log2 n < 0: round 1's argument need not increase in the SNR
        for scheme in (Scheme.IR, Scheme.CC):
            assert fbl._screen_snr(CodeParams(1024, 9), scheme) == math.inf
            assert fbl._screen_snr(CodeParams(3, 1), scheme) == math.inf
            assert fbl._screen_snr(CodeParams(1024, 10), scheme) < math.inf

    def test_no_finite_snr_clears_an_unreachable_rate(self):
        # k > 1024 n: log2(1 + g) never exceeds k / n below the largest float
        assert fbl._screen_snr(CodeParams(2, 4_000), Scheme.IR) == math.inf

    def test_computed_on_first_use_and_cached(self):
        code = CodeParams(77, 61)
        fbl._SCREEN_SNRS.pop((77, 61, Scheme.IR, KernelOptions()), None)
        g_hi = fbl._screen_snr(code, Scheme.IR)
        assert fbl._SCREEN_SNRS[(77, 61, Scheme.IR, KernelOptions())] == g_hi == fbl._screen_snr(code, Scheme.IR)
        env = {**os.environ, "PYTHONPATH": str(Path(fbl.__file__).parents[1])}
        code = "import harqfbl.cli, harqfbl.fbl as f; print(len(f._SCREEN_SNRS))"
        loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        assert loaded.stdout.strip() == "0"


class TestKernelPathTypes:
    def test_round_stepper_rejects_a_kernel_that_is_not_kernel_options(self):
        for kernel in ("x", None, {"dispersion_units": "nats2"}):
            with pytest.raises(DomainError, match="KernelOptions"):
                round_stepper(CodeParams(100, 70), (100,), Scheme.IR, kernel)

    @pytest.mark.parametrize("gamma", ["a", None, 1j, True, [1.0]])
    def test_snr_must_be_real(self, gamma):
        with pytest.raises(DomainError, match="real number"):
            fbl.check_snr(gamma)


class TestChannelDispersion:
    def test_zero_snr(self):
        assert channel_dispersion(0.0) == 0.0

    def test_asymptote(self):
        assert channel_dispersion(1e12) == pytest.approx(LOG2E_SQ, abs=1e-3)

    def test_unit_snr_value(self):
        # 0.75 * log2(e)^2, cross-checked in extended precision
        oracle = float(mp.mpf(3) / 4 * (1 / mp.log(2)) ** 2)
        assert channel_dispersion(1.0) == pytest.approx(oracle, rel=1e-14)
        assert channel_dispersion(1.0) == pytest.approx(1.561026735754206, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            channel_dispersion(-0.1)

    def test_nan_rejected(self):
        with pytest.raises(DomainError, match="nan"):
            channel_dispersion(math.nan)

    @given(st.floats(0, 1e6), st.floats(1e-9, 1e6))
    def test_monotone_and_bounded(self, g, dg):
        a, b = channel_dispersion(g), channel_dispersion(g + dg)
        assert 0.0 <= a <= b <= LOG2E_SQ


class TestSnrConversion:
    @given(st.floats(-300, 300))
    def test_round_trip(self, snr_db):
        assert linear_to_db(db_to_linear(snr_db)) == pytest.approx(snr_db, abs=1e-12)

    @given(st.floats(1e-12, 1e12))
    def test_round_trip_linear(self, g):
        assert db_to_linear(linear_to_db(g)) == pytest.approx(g, rel=1e-12)

    @pytest.mark.parametrize("snr_db", [4000.0, 1e6])
    def test_overflowing_db_rejected(self, snr_db):
        with pytest.raises(DomainError, match=f"{snr_db}"):
            db_to_linear(snr_db)

    def test_infinite_db_is_infinite(self):
        assert db_to_linear(math.inf) == math.inf

    @pytest.mark.parametrize("g", [0.0, -1.0, math.nan])
    def test_nonpositive_and_nan_rejected(self, g):
        with pytest.raises(DomainError, match="positive"):
            linear_to_db(g)


class TestCodeParams:
    @pytest.mark.parametrize("n", [100, np.int64(100), np.int32(100)])
    def test_integer_types_accepted(self, n):
        assert CodeParams(n, 70).rate == 0.7

    @pytest.mark.parametrize(
        "n, k", [(100.0, 70), (100, 70.0), (True, 1), (100, False), ("100", 70), (0, 1), (10, -1)]
    )
    def test_non_integer_types_and_nonpositive_rejected(self, n, k):
        with pytest.raises(DomainError):
            CodeParams(n, k)

    def test_blocklength_bounded_so_that_prefix_keys_fit_int64(self):
        # n = 1e20 used to overflow the walk's prefix keys, parent id x (n + 1) + length
        with pytest.raises(DomainError, match="at most"):
            CodeParams(fbl.N_MAX + 1, 70)
        cfg = HarqConfig(CodeParams(fbl.N_MAX, 70), Scheme.IR, 3, (1.0, 0.5, 0.5))
        taus = [(1.0, t1, t2) for t1 in (0.5, 1.0) for t2 in (0.25, 0.5)]
        A = prefix_error_grid(cfg, taus, 1.0)
        assert A.shape == (3, 4) and np.all((A >= 0.0) & (A <= 1.0))


class TestBoundarySnr:
    def test_infinite_snr_decodes(self):
        code = CodeParams(100, 70)
        assert per_cc(code, [math.inf]) == 0.0
        assert per_cc(code, [0.0, math.inf]) == 0.0
        assert per_ir(code, TransmissionRecord((math.inf,), (100,))) == 0.0
        assert per_ir(code, TransmissionRecord((0.0, math.inf), (100, 40))) == 0.0

    def test_nan_snr_rejected(self):
        code = CodeParams(100, 70)
        with pytest.raises(DomainError, match="nan"):
            per_cc(code, [1.0, math.nan])
        with pytest.raises(DomainError, match="nan"):
            TransmissionRecord((1.0, math.nan), (100, 40))


def _cc_oracle_mp(n, k, gamma_sum, kernel=KernelOptions()):
    g = mp.mpf(gamma_sum)
    v = (1 - (1 + g) ** -2)
    if kernel.dispersion_units == "bits2":
        v *= (1 / mp.log(2)) ** 2
    num = n * mp.log(1 + g, 2) - k + mp.log(n, 2)
    den = mp.sqrt(n * v) if kernel.cc_denominator == "sqrt_nv" else n * mp.sqrt(v)
    return float(mp.erfc(num / den / mp.sqrt(2)) / 2)


class TestPerCc:
    def test_zero_snr_always_fails(self):
        for n, k in [(100, 100), (100, 1), (10, 5), (2, 1)]:
            assert per_cc(CodeParams(n, k), [0.0]) == 1.0
            assert per_cc(CodeParams(n, k), [0.0, 0.0, 0.0]) == 1.0

    def test_minus_one_db_single_round(self):
        # frozen against the extended-precision oracle: the first
        # transmission of a rate-1 code at -1 dB fails almost always
        g = db_to_linear(-1.0)
        got = per_cc(CodeParams(100, 100), [g])
        assert got == pytest.approx(_cc_oracle_mp(100, 100, g), abs=1e-13)
        assert got == pytest.approx(0.8611183531846849, rel=1e-12)
        assert got > 0.8

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            per_cc(CodeParams(100, 50), [])

    @given(
        st.integers(2, 6),
        st.floats(1e-4, 100),
        st.integers(10, 300),
        st.integers(1, 300),
    )
    # a running sum of six copies of g is one ulp off 6*g
    @example(m=6, g=53.909533495717966, n=10, k=1)
    def test_equal_snr_rounds_collapse(self, m, g, n, k):
        code = CodeParams(n, k)
        assert per_cc(code, [g] * m) == per_cc(code, [g * m])

    @given(st.floats(0, 50), st.floats(1e-6, 10))
    def test_monotone_in_snr(self, g, dg):
        code = CodeParams(100, 60)
        assert per_cc(code, [g + dg]) <= per_cc(code, [g]) + 1e-15

    def test_monotone_in_round_count(self):
        code = CodeParams(100, 80)
        g = db_to_linear(-2.0)
        pers = [per_cc(code, [g] * m) for m in range(1, 5)]
        assert all(b <= a for a, b in zip(pers, pers[1:]))

    def test_literal_denominator_variant(self):
        g = db_to_linear(-1.0)
        kernel = KernelOptions(cc_denominator="n_sqrt_v")
        got = per_cc(CodeParams(100, 100), [g], kernel)
        assert got == pytest.approx(_cc_oracle_mp(100, 100, g, kernel), abs=1e-13)
        assert got != per_cc(CodeParams(100, 100), [g])

    def test_bits2_dispersion_variant(self):
        g = db_to_linear(-1.0)
        kernel = KernelOptions(dispersion_units="bits2")
        got = per_cc(CodeParams(100, 100), [g], kernel)
        assert got == pytest.approx(_cc_oracle_mp(100, 100, g, kernel), abs=1e-13)


def _ir_oracle_mp(k, snrs, lengths, dispersion_units="nats2"):
    cap = mp.mpf(0)
    disp = mp.mpf(0)
    ntot = 0
    for g, n_i in zip(snrs, lengths):
        g = mp.mpf(g)
        cap += n_i * mp.log(1 + g, 2)
        disp += n_i * (1 - (1 + g) ** -2)
        ntot += n_i
    if dispersion_units == "bits2":
        disp *= (1 / mp.log(2)) ** 2
    num = cap - k + mp.log(ntot, 2)
    return float(mp.erfc(num / mp.sqrt(disp) / mp.sqrt(2)) / 2)


class TestPerIr:
    def test_single_round_matches_cc(self):
        code = CodeParams(100, 70)
        for snr_db in (-4.0, -1.0, 2.0):
            g = db_to_linear(snr_db)
            rec = TransmissionRecord((g,), (100,))
            assert per_ir(code, rec) == pytest.approx(per_cc(code, [g]), rel=1e-14)

    @given(st.integers(1, 4), st.floats(0.01, 50))
    def test_equal_snr_collapse(self, m, g):
        code = CodeParams(100, 70)
        lengths = tuple([100] + [60] * (m - 1))
        rec = TransmissionRecord((g,) * m, lengths)
        n_tot = sum(lengths)
        v = 1.0 - (1.0 + g) ** -2
        direct = q_function((n_tot * math.log2(1.0 + g) - 70 + math.log2(n_tot)) / math.sqrt(n_tot * v))
        assert per_ir(code, rec) == pytest.approx(min(1.0, max(0.0, direct)), rel=1e-12)

    def test_two_round_minus_one_db(self):
        # operating point quoted as requiring tau1 = 0.58 for a 1e-4 target
        g = db_to_linear(-1.0)
        got = per_ir(CodeParams(100, 100), TransmissionRecord((g, g), (100, 58)))
        assert got == pytest.approx(_ir_oracle_mp(100, (g, g), (100, 58)), abs=1e-15)
        assert 1e-5 < got < 2e-4

    def test_zero_snr_round_changes_only_length_terms(self):
        code = CodeParams(100, 70)
        g = db_to_linear(0.0)
        base = per_ir(code, TransmissionRecord((g,), (100,)))
        extended = per_ir(code, TransmissionRecord((g, 0.0), (100, 40)))
        # dispersion is unchanged (v(0) = 0); only log2 of the total length moves
        v = 1.0 - (1.0 + g) ** -2
        expect = q_function((100 * math.log2(1.0 + g) - 70 + math.log2(140)) / math.sqrt(100 * v))
        assert extended == pytest.approx(expect, rel=1e-12)
        assert extended <= base

    @given(st.floats(0.05, 30), st.floats(0.05, 30), st.floats(1e-4, 5), st.booleans())
    def test_monotone_in_each_round_snr(self, g1, g2, dg, bump_first):
        code = CodeParams(100, 70)
        base = per_ir(code, TransmissionRecord((g1, g2), (100, 60)))
        bumped = (g1 + dg, g2) if bump_first else (g1, g2 + dg)
        assert per_ir(code, TransmissionRecord(bumped, (100, 60))) <= base + 1e-15

    @given(st.floats(0.05, 30), st.floats(0.05, 30), st.integers(10, 150))
    def test_monotone_in_round_length(self, g1, g2, n2):
        code = CodeParams(100, 70)
        a = per_ir(code, TransmissionRecord((g1, g2), (100, n2)))
        b = per_ir(code, TransmissionRecord((g1, g2), (100, n2 + 10)))
        num = 100 * math.log2(1 + g1) + n2 * math.log2(1 + g2) - 70 + math.log2(100 + n2)
        if num > 0:
            assert b <= a + 1e-15

    def test_bad_lengths_rejected(self):
        with pytest.raises(DomainError):
            TransmissionRecord((1.0, 1.0), (100, 0))
        with pytest.raises(DomainError):
            TransmissionRecord((), ())
        with pytest.raises(DomainError):
            TransmissionRecord((1.0,), (100, 50))

    @pytest.mark.parametrize("length", [100.0, True, "100"])
    def test_non_integer_lengths_rejected(self, length):
        with pytest.raises(DomainError, match="round length"):
            TransmissionRecord((1.0,), (length,))

    @given(
        st.lists(st.floats(0, 100), min_size=1, max_size=5),
        st.integers(1, 200),
    )
    @settings(max_examples=200)
    def test_always_a_probability(self, snrs, k):
        lengths = tuple(range(100, 100 + 7 * len(snrs), 7))
        rec = TransmissionRecord(tuple(snrs), lengths)
        assert 0.0 <= per_ir(CodeParams(100, k), rec) <= 1.0
