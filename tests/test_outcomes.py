import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harqfbl import (
    CodeParams,
    DomainError,
    HarqConfig,
    OutcomeDistribution,
    Scheme,
    build_equal_duration,
    db_to_linear,
    outcome_on,
    outcomes_awgn,
    per_ir,
    throughput,
)
from harqfbl.fbl import TransmissionRecord
from harqfbl.outcomes import prefix_error_grid, tau_matrix, telescope


def make_ir(n, k, taus):
    return HarqConfig(CodeParams(n, k), Scheme.IR, len(taus), tuple(taus))


def make_cc(n, k, m):
    return HarqConfig(CodeParams(n, k), Scheme.CC, m, (1.0,) * m)


class TestHarqConfig:
    def test_tau0_must_be_one(self):
        with pytest.raises(DomainError):
            make_ir(100, 50, [0.5, 0.5])

    def test_cc_requires_full_repeats(self):
        with pytest.raises(DomainError):
            HarqConfig(CodeParams(100, 50), Scheme.CC, 2, (1.0, 0.5))

    def test_tau_count_must_match_m(self):
        with pytest.raises(DomainError):
            HarqConfig(CodeParams(100, 50), Scheme.IR, 3, (1.0, 0.5))

    @pytest.mark.parametrize("m, taus", [(2.0, (1.0, 0.5)), (True, (1.0,)), (0, ())])
    def test_m_must_be_a_positive_integer(self, m, taus):
        with pytest.raises(DomainError, match="transmission budget m"):
            HarqConfig(CodeParams(100, 50), Scheme.IR, m, taus)

    @pytest.mark.parametrize("taus", [(1.0, "0.5"), (Fraction(1), "0.5"), (1.0, None), (1.0, 1j)])
    def test_taus_must_be_real_numbers(self, taus):
        with pytest.raises(DomainError):
            make_ir(100, 70, taus)

    @pytest.mark.parametrize("taus", [(True, 0.5), (1.0, True), (np.True_, 0.5), (1.0, 0.5, True)])
    def test_bool_taus_rejected(self, taus):
        # numpy reads (True, 0.5) as the floats (1.0, 0.5), so each entry's type is checked
        with pytest.raises(DomainError, match="a coefficient must be a real number"):
            make_ir(100, 70, taus)

    def test_tau_matrix_rejects_a_bool_array(self):
        with pytest.raises(DomainError, match="bool"):
            tau_matrix(Scheme.IR, 2, np.ones((3, 2), dtype=bool))

    def test_fraction_taus_evaluate_like_floats(self):
        exact = make_ir(100, 70, [Fraction(1), Fraction(1, 2)])
        assert outcomes_awgn(exact, 1.0) == outcomes_awgn(make_ir(100, 70, [1.0, 0.5]), 1.0)

    def test_round_lengths_round_to_nearest(self):
        cfg = make_ir(100, 50, [1.0, 0.58, 0.004])
        assert cfg.round_lengths() == (100, 58, 1)


class TestOutcomesAwgn:
    def test_single_transmission_sums_exactly(self):
        cfg = make_ir(100, 70, [1.0])
        out = outcomes_awgn(cfg, db_to_linear(-1.0))
        assert out.total == 1.0
        assert out.p[0] == 1.0 - out.p_e

    def test_error_free_channel(self):
        cfg = make_ir(100, 70, [1.0, 0.5])
        out = outcomes_awgn(cfg, 1e12)
        assert out.p[0] == pytest.approx(1.0, abs=1e-12)
        assert out.p[1] == pytest.approx(0.0, abs=1e-12)
        assert out.p_e == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("cfg", [make_ir(100, 70, [1.0, 0.5]), make_cc(100, 70, 2)], ids=["IR", "CC"])
    def test_infinite_snr_decodes(self, cfg):
        out = outcomes_awgn(cfg, math.inf)
        assert out.p == (1.0, 0.0)
        assert out.p_e == 0.0

    @pytest.mark.parametrize("cfg", [make_ir(100, 70, [1.0, 0.5]), make_cc(100, 70, 2)], ids=["IR", "CC"])
    def test_nan_snr_rejected(self, cfg):
        with pytest.raises(DomainError, match="nan"):
            outcomes_awgn(cfg, math.nan)

    def test_residual_error_is_final_prefix_per(self):
        g = db_to_linear(-1.0)
        cfg = make_ir(100, 100, [1.0, 0.58])
        out = outcomes_awgn(cfg, g)
        expect = per_ir(cfg.code, TransmissionRecord((g, g), (100, 58)))
        assert out.p_e == expect
        assert 1e-5 < out.p_e < 2e-4

    @given(
        st.integers(20, 300),
        st.floats(0.2, 2.0),
        st.floats(-6, 12),
        st.integers(1, 4),
        st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
        st.booleans(),
    )
    @settings(max_examples=300)
    def test_sums_to_one(self, n, rate, snr_db, m, taus, use_cc):
        k = max(1, int(rate * n))
        if use_cc:
            cfg = make_cc(n, k, m)
        else:
            cfg = make_ir(n, k, [1.0] + taus[: m - 1])
        out = outcomes_awgn(cfg, db_to_linear(snr_db))
        assert abs(out.total - 1.0) <= 1e-9
        for x in (*out.p, out.p_e):
            assert 0.0 <= x <= 1.0

    @given(st.floats(-6, 8), st.integers(1, 4))
    def test_residual_error_nonincreasing_in_m(self, snr_db, m):
        g = db_to_linear(snr_db)
        taus = [1.0, 0.7, 0.6, 0.5, 0.4]
        a = outcomes_awgn(make_ir(100, 70, taus[: m]), g).p_e
        b = outcomes_awgn(make_ir(100, 70, taus[: m + 1]), g).p_e
        assert b <= a + 1e-15


class TestThroughput:
    def test_single_round_error_free(self):
        cfg = make_ir(100, 70, [1.0])
        out = OutcomeDistribution((1.0,), 0.0)
        assert throughput(cfg, out) == 0.7

    def test_hand_evaluated_half_retransmission(self):
        cfg = make_ir(100, 70, [1.0, 0.5])
        out = OutcomeDistribution((0.5, 0.5), 0.0)
        assert throughput(cfg, out) == pytest.approx(0.7 / 1.25, rel=1e-14)

    def test_cc_throughput_minus_one_db(self):
        cfg = make_cc(100, 100, 2)
        out = outcomes_awgn(cfg, db_to_linear(-1.0))
        assert throughput(cfg, out) == pytest.approx(0.537, abs=0.01)

    def test_cc_reduces_to_slot_count_form(self):
        # with all-ones taus the slot cost of resolution i is i+1
        for m in (1, 2, 3, 4):
            cfg = make_cc(100, 80, m)
            out = outcomes_awgn(cfg, db_to_linear(-2.0))
            expect = (
                0.8
                * (1.0 - out.p_e)
                / (sum((i + 1) * p for i, p in enumerate(out.p)) + m * out.p_e)
            )
            assert throughput(cfg, out) == pytest.approx(expect, rel=1e-14)

    @given(st.floats(-8, 20), st.floats(0.05, 1.0))
    def test_bounded_by_code_rate(self, snr_db, tau1):
        cfg = make_ir(100, 70, [1.0, tau1])
        out = outcomes_awgn(cfg, db_to_linear(snr_db))
        assert throughput(cfg, out) <= 0.7 + 1e-12

    @pytest.mark.parametrize("p, p_e", [(("a",), 0.5), ((0.5,), None), ((0.5,), math.nan)], ids=["str", "none", "nan"])
    def test_outcome_probabilities_are_checked(self, p, p_e):
        with pytest.raises(DomainError):
            OutcomeDistribution(p, p_e)

    def test_outcome_must_have_m_success_probabilities(self):
        with pytest.raises(DomainError, match="2 success probabilities"):
            throughput(make_ir(100, 70, [1.0, 0.5]), OutcomeDistribution((0.5,), 0.5))

    def test_approaches_code_rate_at_high_snr(self):
        cfg = make_ir(100, 70, [1.0, 0.5])
        out = outcomes_awgn(cfg, db_to_linear(40.0))
        assert throughput(cfg, out) == pytest.approx(0.7, abs=1e-9)


class TestPrefixErrors:
    def test_prefixes_are_nonincreasing(self):
        cfg = make_ir(100, 70, [1.0, 0.6, 0.5])
        eps = prefix_error_grid(cfg, [cfg.taus], db_to_linear(-2.0))[:, 0]
        assert len(eps) == 3
        assert all(b <= a for a, b in zip(eps, eps[1:]))


    @pytest.mark.parametrize("cfg", [make_ir(100, 70, [1.0, 1.0]), make_cc(100, 70, 2), make_ir(100, 70, [1.0, 0.6])],
                             ids=["IR", "CC", "IR-0.6"])
    def test_a_chain_where_every_decode_fails_keeps_per_at_one(self, cfg):
        # the path probabilities of this chain sum to 1 + 2^-52, which gave p_e above 1 and a negative throughput
        model = build_equal_duration(7, 241.4, 1.4e-4, 1e-40)
        A = prefix_error_grid(cfg, [cfg.taus], model)[:, 0]
        assert A.tolist() == [1.0, 1.0]
        out = outcome_on(cfg, model)
        assert (out.p, out.p_e, throughput(cfg, out)) == ((0.0, 0.0), 1.0, 0.0)


class TestChannelContract:
    @pytest.mark.parametrize(
        "channel", ["abc", 1j, [1.0, 2.0], True, np.bool_(True), None],
        ids=["str", "complex", "list", "bool", "numpy-bool", "none"],
    )
    def test_channel_is_a_model_or_a_real_snr(self, channel):
        with pytest.raises(DomainError, match="channel"):
            outcomes_awgn(make_ir(100, 70, [1.0, 0.5]), channel)

    def test_integer_and_numpy_snrs_are_real(self):
        cfg = make_ir(100, 70, [1.0, 0.5])
        assert outcomes_awgn(cfg, 2) == outcomes_awgn(cfg, np.float64(2.0)) == outcomes_awgn(cfg, 2.0)


def scalar_telescope(A):
    """The telescoping rule written out for one candidate."""
    p = [1.0 - A[0]]
    defect = 0.0
    for i in range(1, len(A)):
        d = A[i - 1] - A[i]
        if d < 0.0:
            defect += -d
            d = 0.0
        p.append(d)
    p[0] = max(0.0, p[0] - defect)
    return p, A[-1]


class TestTelescope:
    def test_negative_steps_match_the_scalar_rule(self):
        up = lambda x, n=1: x if n == 0 else up(np.nextafter(x, 2.0), n - 1)  # noqa: E731
        columns = [
            (0.3, 0.1, 0.05),  # nonincreasing: nothing to floor
            (0.9, up(0.9), 0.1),  # one step up by an ulp
            (0.1, up(0.1), up(0.1, 3)),  # two steps up, so the defect sums
            (1.0, up(1.0), 1.0),  # p_0 = 0 minus the defect: floored at zero
            (0.5, 0.5, 0.5),  # zero steps
        ]
        p, p_e = telescope(np.array(columns).T)
        for j, A in enumerate(columns):
            want_p, want_e = scalar_telescope(A)
            assert p[:, j].tolist() == want_p and p_e[j] == want_e, A
        assert p[0, 1] < 1.0 - 0.9 and p[1, 1] == 0.0  # the defect moved into p_0
        assert p[0, 3] == 0.0

    def test_one_round(self):
        p, p_e = telescope(np.array([[0.25, 1.0]]))
        assert p.tolist() == [[0.75, 0.0]] and p_e.tolist() == [0.25, 1.0]

    @pytest.mark.parametrize("A", [[[0.1], [-0.5]], [[1.5], [0.2]], [[math.nan], [0.1]]], ids=["p_e", "p_1", "nan"])
    def test_probabilities_out_of_range_rejected(self, A):
        with pytest.raises(DomainError, match="out of range"):
            telescope(np.array(A))
