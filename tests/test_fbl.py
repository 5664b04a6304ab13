import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from harqfbl import (
    CodeParams,
    DomainError,
    KernelOptions,
    LOG2E_SQ,
    TransmissionRecord,
    channel_dispersion,
    db_to_linear,
    linear_to_db,
    per_cc,
    per_ir,
    q_function,
)

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

    @given(
        st.lists(st.floats(0, 100), min_size=1, max_size=5),
        st.integers(1, 200),
    )
    @settings(max_examples=200)
    def test_always_a_probability(self, snrs, k):
        lengths = tuple(range(100, 100 + 7 * len(snrs), 7))
        rec = TransmissionRecord(tuple(snrs), lengths)
        assert 0.0 <= per_ir(CodeParams(100, k), rec) <= 1.0
