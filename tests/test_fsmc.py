import json
import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from harqfbl import (
    ConstructionError,
    DomainError,
    FsmcModel,
    build_equal_duration,
    build_fixed_sojourn,
    db_to_linear,
    from_target_c,
    level_crossing_rate,
    marginal_probability,
    state_snr,
)
from harqfbl.fsmc import _equal_duration_partition

mp.mp.dps = 40


class TestLevelCrossingRate:
    def test_zero_threshold(self):
        assert level_crossing_rate(0.0, 123.0) == 0.0

    def test_unit_threshold_value(self):
        oracle = float(mp.sqrt(2 * mp.pi) * 100 * mp.e ** -1)
        assert level_crossing_rate(1.0, 100.0) == pytest.approx(oracle, rel=1e-14)
        assert level_crossing_rate(1.0, 100.0) == pytest.approx(92.21370088957891, rel=1e-12)

    @given(st.floats(0.01, 5), st.floats(0.1, 1000))
    def test_linear_in_doppler(self, eta, f_d):
        assert level_crossing_rate(eta, 2 * f_d) == pytest.approx(
            2 * level_crossing_rate(eta, f_d), rel=1e-14
        )

    def test_maximised_at_inverse_sqrt2(self):
        peak = 1.0 / math.sqrt(2.0)
        for eta in (peak - 0.05, peak + 0.05):
            assert level_crossing_rate(eta, 1.0) < level_crossing_rate(peak, 1.0)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            level_crossing_rate(-0.1, 100.0)


@pytest.mark.parametrize(
    "call, args",
    [
        (level_crossing_rate, (1.0, math.nan)),
        (level_crossing_rate, (math.nan, 1.0)),
        (state_snr, (0.0, 1.0, math.nan)),
    ],
    ids=["lcr-f_d", "lcr-eta", "state_snr-avg_snr"],
)
def test_public_helpers_reject_nan(call, args):
    with pytest.raises(DomainError):
        call(*args)


class TestMarginalProbability:
    def test_full_support(self):
        assert marginal_probability(0.0, math.inf) == 1.0

    def test_median_split(self):
        eta = math.sqrt(math.log(2.0))
        assert marginal_probability(0.0, eta) == pytest.approx(0.5, rel=1e-14)
        oracle, _ = quad(lambda x: 2 * x * math.exp(-x * x), 0.0, eta)
        assert marginal_probability(0.0, eta) == pytest.approx(oracle, rel=1e-10)

    @given(st.floats(0, 3), st.floats(0.01, 3), st.floats(0.01, 3))
    def test_additive(self, a, d1, d2):
        b, c = a + d1, a + d1 + d2
        assert marginal_probability(a, b) + marginal_probability(b, c) == pytest.approx(
            marginal_probability(a, c), rel=1e-12
        )

    def test_reversed_bounds_rejected(self):
        with pytest.raises(DomainError):
            marginal_probability(2.0, 1.0)


class TestStateSnr:
    def test_single_state_recovers_average(self):
        assert state_snr(0.0, math.inf, 7.25) == 7.25

    def test_median_split_values(self):
        # conditional means of x^2 below/above the Rayleigh median,
        # cross-checked by quadrature of x^2 * 2x exp(-x^2)
        eta = math.sqrt(math.log(2.0))
        s = 3.0
        lo = state_snr(0.0, eta, s)
        hi = state_snr(eta, math.inf, s)
        num_lo, _ = quad(lambda x: x * x * 2 * x * math.exp(-x * x), 0.0, eta)
        num_hi, _ = quad(lambda x: x * x * 2 * x * math.exp(-x * x), eta, 50.0)
        assert lo == pytest.approx(s * num_lo / 0.5, rel=1e-9)
        assert hi == pytest.approx(s * num_hi / 0.5, rel=1e-9)
        assert lo == pytest.approx(s * 0.30685281944005469, rel=1e-12)
        assert hi == pytest.approx(s * 1.6931471805599453, rel=1e-12)

    def test_bounded_by_interval_snrs(self):
        s = 5.0
        lo, hi = 0.5, 1.25
        g = state_snr(lo, hi, s)
        assert s * lo * lo < g < s * hi * hi

    @given(st.lists(st.floats(0.05, 0.8), min_size=1, max_size=6))
    def test_law_of_total_expectation(self, widths):
        edges = [0.0]
        for w in widths:
            edges.append(edges[-1] + w)
        edges.append(math.inf)
        s = 4.2
        total = sum(
            marginal_probability(a, b) * state_snr(a, b, s) for a, b in zip(edges, edges[1:])
        )
        assert total == pytest.approx(s, rel=1e-9)


def _tv_distance(a, b):
    return 0.5 * sum(abs(x - y) for x, y in zip(a, b))


@pytest.fixture(scope="module")
def l13():
    return build_equal_duration(13, 210.0, 0.00014, db_to_linear(10.0))


@pytest.fixture(scope="module")
def l4():
    return build_equal_duration(4, 285.0, 0.0003, db_to_linear(10.0))


@pytest.fixture(scope="module")
def slow():
    return build_fixed_sojourn(13, 3.0446, 0.0338 / 0.00014, 0.00014, db_to_linear(11.5))


class TestEqualDuration:
    def test_builds_are_valid(self, l13, l4):
        for model in (l13, l4):
            model.validate()
            assert min(model.tb_bound_slacks()) >= 0.0

    def test_sojourns_equal(self, l13, l4):
        for model in (l13, l4):
            t = model.sojourn_times()
            assert max(t) / min(t) - 1.0 <= 1e-5

    def test_c_consistent_with_sojourns(self, l13):
        t = l13.sojourn_times()
        assert l13.c == pytest.approx(t[0] / l13.t_tb, rel=1e-9)

    def test_row_stochastic_tridiagonal(self, l13):
        L = l13.n_states
        for i, row in enumerate(l13.transitions):
            assert sum(row) == pytest.approx(1.0, abs=1e-12)
            for j in range(L):
                if abs(i - j) > 1:
                    assert row[j] == 0.0

    def test_marginal_is_stationary(self, l13):
        q = np.asarray(l13.q)
        P = np.asarray(l13.transitions)
        out = q @ P
        for _ in range(50):
            out = out @ P
        assert _tv_distance(out, q) <= 1e-6

    def test_average_snr_recovered(self, l13, l4):
        for model in (l13, l4):
            total = sum(qi * gi for qi, gi in zip(model.q, model.state_snrs))
            assert total == pytest.approx(model.avg_snr, rel=1e-9)

    def test_offdiagonals_scale_with_t_tb_and_doppler(self, l13):
        halved = build_equal_duration(13, 210.0, 0.00007, db_to_linear(10.0))
        doubled_fd = build_equal_duration(13, 420.0, 0.00007, db_to_linear(10.0))
        for i in range(12):
            assert halved.transitions[i][i + 1] == pytest.approx(
                0.5 * l13.transitions[i][i + 1], rel=1e-9
            )
            assert doubled_fd.transitions[i][i + 1] == pytest.approx(
                l13.transitions[i][i + 1], rel=1e-9
            )

    def test_thresholds_depend_only_on_state_count(self, l13):
        other = build_equal_duration(13, 999.0, 1e-5, db_to_linear(3.0))
        for a, b in zip(l13.thresholds[:-1], other.thresholds[:-1]):
            assert a == pytest.approx(b, abs=1e-12)

    def test_time_block_beyond_bound_rejected(self, l13):
        with pytest.raises(ConstructionError):
            build_equal_duration(13, 210.0, 0.00014 * (l13.c + 0.5), db_to_linear(10.0))

    def test_single_state_rejected(self):
        with pytest.raises(ConstructionError):
            build_equal_duration(1, 210.0, 0.00014, 10.0)

    def test_state_count_without_partition_rejected(self):
        # beyond about L = 600 no equal-duration partition exists in floats
        with pytest.raises(ConstructionError):
            build_equal_duration(800, 210.0, 1e-8, 10.0)

    def test_slack_report(self, l4):
        slacks = l4.tb_bound_slacks()
        assert len(slacks) == 4
        assert all(s >= 0.0 for s in slacks)
        expect = tuple(t - l4.t_tb for t in l4.sojourn_times())
        assert slacks == pytest.approx(expect)


# Thresholds (without 0 and inf) and c of the fixtures above, as the
# fixed-step bisection that preceded the bracketed solver computed them.
PINNED = {
    "l4": (
        (0.5187556176487527, 1.0622800527124747, 1.6799315563045463),
        2.777489098369322,
    ),
    "l13": (
        (0.2659430083967732, 0.5327497808498627, 0.8013258755090307, 1.0726667348626795,
         1.3479203926286765, 1.6284783423504625, 1.916120021991539, 2.21326475571078,
         2.5234604754054937, 2.8524757039982713, 3.2113250678272394, 3.628799917473823),
        3.739380960199911,
    ),
    "slow": (
        (0.24997535554721054, 0.5005858728059303, 0.7524906802241902, 1.0063996344581922,
         1.2631063588081783, 1.5235327162970091, 1.7887933520644088, 2.0602962017266204,
         2.339911003031374, 2.630277411243669, 2.935435567929151, 3.2623433731434925),
        3.0446,
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_thresholds_pinned(name, request):
    model = request.getfixturevalue(name)
    thresholds, c = PINNED[name]
    assert model.thresholds[0] == 0.0 and math.isinf(model.thresholds[-1])
    assert model.thresholds[1:-1] == pytest.approx(thresholds, rel=1e-12, abs=0.0)
    assert model.c == pytest.approx(c, rel=1e-12, abs=0.0)


class TestFixedSojourn:
    def test_interior_sojourns_hit_target(self, slow):
        t = slow.sojourn_times()
        for dwell in t[:-1]:
            assert dwell == pytest.approx(3.0446 * slow.t_tb, rel=1e-9)
        # the tail state absorbs the remainder and dwells longer here
        assert t[-1] > 3.0446 * slow.t_tb

    def test_first_threshold_and_mass(self, slow):
        assert slow.thresholds[1] == pytest.approx(0.25, abs=5e-4)
        assert slow.q[0] == pytest.approx(0.0606, abs=5e-4)

    def test_valid_and_bounded(self, slow):
        slow.validate()
        assert min(slow.tb_bound_slacks()) >= 0.0

    def test_infeasible_state_count_names_limit(self):
        with pytest.raises(ConstructionError, match="at most L="):
            build_fixed_sojourn(13, 3.0446, 0.04 / 0.00014, 0.00014, 10.0)

    def test_c_below_one_rejected(self):
        with pytest.raises(ConstructionError):
            build_fixed_sojourn(4, 0.5, 100.0, 0.001, 10.0)

    def test_snr_rescaling_preserves_partition(self, slow):
        louder = slow.with_avg_snr(slow.avg_snr * 4.0)
        assert louder.thresholds == slow.thresholds
        assert louder.q == slow.q
        for a, b in zip(louder.state_snrs, slow.state_snrs):
            assert a == pytest.approx(4.0 * b, rel=1e-14)


class TestTargetC:
    def test_picks_nearest_state_count(self):
        target = 3.0
        model = from_target_c(target, 210.0, 0.00014, 10.0)
        best = abs(model.c - target)
        for L in (model.n_states - 1, model.n_states + 1):
            try:
                other = build_equal_duration(L, 210.0, 0.00014, 10.0)
            except ConstructionError:
                continue
            assert best <= abs(other.c - target) + 1e-12

    @pytest.mark.parametrize("c_target", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_rejected(self, c_target):
        with pytest.raises(DomainError, match="c_target"):
            from_target_c(c_target, 200.0, 1.4e-4, 10.0, 8)

    @pytest.mark.parametrize("max_states", [8.0, True, 0])
    def test_max_states_must_be_a_positive_integer(self, max_states):
        with pytest.raises(DomainError, match="max_states"):
            from_target_c(3.0, 200.0, 1.4e-4, 10.0, max_states)

    def test_no_valid_state_count_raises(self):
        # a time block longer than any achievable sojourn leaves nothing to scan
        with pytest.raises(ConstructionError, match="no state count"):
            from_target_c(3.0, 210.0, 0.05, 10.0, max_states=8)


class TestEqualDurationMemo:
    def test_memoised_models_equal_fresh_solves(self):
        models = [from_target_c(3.0446, fdt / 1.4e-4, 1.4e-4, db_to_linear(12.0), 10) for fdt in (0.0338, 0.0855)]
        _equal_duration_partition.cache_clear()
        for model in models:
            fresh = build_equal_duration(model.n_states, model.f_d, model.t_tb, model.avg_snr)
            assert fresh.thresholds == model.thresholds
            assert fresh == model

    def test_memo_is_bounded(self):
        from_target_c(3.0, 210.0, 0.00014, 10.0, 16)
        info = _equal_duration_partition.cache_info()
        assert info.maxsize == 64 and 0 < info.currsize <= info.maxsize

    def test_normalised_sojourn_strictly_decreases_in_the_state_count(self):
        # T(L) = f_d * sojourn of every state; an early stop of from_target_c's scan would rest on this
        sojourns = [_equal_duration_partition(L)[0] for L in range(2, 65)]
        assert all(a > b for a, b in zip(sojourns, sojourns[1:]))


class TestSerialization:
    def test_json_round_trip(self):
        model = build_equal_duration(6, 210.0, 0.00014, db_to_linear(10.0))
        clone = FsmcModel.from_json(model.to_json())
        assert clone.thresholds[:-1] == pytest.approx(model.thresholds[:-1], rel=1e-12)
        assert math.isinf(clone.thresholds[-1])
        assert clone.q == pytest.approx(model.q, rel=1e-12)
        assert clone.state_snrs == pytest.approx(model.state_snrs, rel=1e-12)
        for ra, rb in zip(clone.transitions, model.transitions):
            assert ra == pytest.approx(rb, rel=1e-12, abs=1e-15)
        assert clone.c == model.c

    def test_documented_fields_present(self):
        model = build_equal_duration(4, 285.0, 0.0003, db_to_linear(10.0))
        obj = json.loads(model.to_json())
        assert set(obj) == {
            "L", "f_d_hz", "t_tb_s", "avg_snr_db", "thresholds", "q", "P", "state_snrs_db", "c",
        }
        assert obj["L"] == 4
        assert len(obj["thresholds"]) == 4
        assert len(obj["P"]) == 4


class TestBuilderArguments:
    # (f_d, t_tb, avg_snr) of a valid L = 4 model
    GOOD = (100.0, 0.001, 10.0)
    BAD = [0.0, -1.0, math.nan, math.inf]

    @pytest.mark.parametrize("build", ["equal", "fixed"])
    @pytest.mark.parametrize("position", [0, 1, 2], ids=["f_d", "t_tb", "avg_snr"])
    @pytest.mark.parametrize("value", BAD, ids=["zero", "negative", "nan", "inf"])
    def test_builders_reject(self, build, position, value):
        args = list(self.GOOD)
        args[position] = value
        with pytest.raises(DomainError, match="must be positive and finite"):
            if build == "equal":
                build_equal_duration(4, *args)
            else:
                build_fixed_sojourn(4, 1.5, *args)

    @pytest.mark.parametrize("c", [math.nan, 0.5, -math.inf])
    def test_fixed_sojourn_rejects_bad_c(self, c):
        with pytest.raises(ConstructionError, match="c must be >= 1"):
            build_fixed_sojourn(4, c, *self.GOOD)

    @pytest.mark.parametrize(
        "args, match",
        [
            # a sojourn of 1e299 puts the first threshold near 26.3; the bracket
            # search must stop before exp(-eta^2) underflows to 0
            ((4, 1e300, *GOOD), "at most L=2 states"),
            # a sojourn of 1e-9 fits in a state too narrow for a float probability
            ((3, 1.0, 1e-9, 1.0, 10.0), "rounds to 0"),
        ],
        ids=["huge", "tiny"],
    )
    def test_fixed_sojourn_rejects_extreme_targets(self, args, match):
        with pytest.raises(ConstructionError, match=match):
            build_fixed_sojourn(*args)

    @pytest.mark.parametrize("value", BAD, ids=["zero", "negative", "nan", "inf"])
    def test_with_avg_snr_rejects(self, value):
        model = build_fixed_sojourn(4, 1.5, *self.GOOD)
        with pytest.raises(DomainError, match="avg_snr"):
            model.with_avg_snr(value)


class TestModelShapes:
    """FsmcModel checks its shapes and q when built; validate() keeps the tolerance checks."""

    @pytest.mark.parametrize("change", [
        lambda m: {"q": (0.0,) * m.n_states},
        lambda m: {"q": (-0.1,) + m.q[1:]},
        lambda m: {"q": (math.nan,) + m.q[1:]},
        lambda m: {"q": (math.inf,) + m.q[1:]},
        lambda m: {"transitions": m.transitions[:3]},
        lambda m: {"transitions": m.transitions[:-1] + (m.transitions[-1][:-1],)},
        lambda m: {"thresholds": m.thresholds[1:]},
        lambda m: {"state_snrs": m.state_snrs[:-1]},
        lambda m: {"q": (), "transitions": (), "state_snrs": (), "thresholds": (math.inf,)},
        lambda m: {"q": ("a",) + m.q[1:]},
        lambda m: {"state_snrs": m.state_snrs[:-1] + ("x",)},
    ], ids=["q-zero", "q-negative", "q-nan", "q-inf", "three-rows", "short-row", "thresholds-short",
            "state-snrs-short", "no-states", "q-string", "state-snr-string"])
    def test_rejected_when_built(self, change):
        # q all zero used to end in numpy's ValueError inside simulate_harq, three rows in an
        # IndexError from simulate_harq and outcome_on
        model = build_fixed_sojourn(13, 3.0446, 0.0338 / 0.00014, 0.00014, 10.0)
        with pytest.raises(DomainError):
            replace(model, **change(model))

    @pytest.mark.parametrize("q, snrs", [(("a",), (1.0,)), ((1.0,), ("x",)), ((True,), (1.0,))],
                             ids=["q-string", "state-snr-string", "q-bool"])
    def test_one_state_entries_must_be_real(self, q, snrs):
        # a string q raised TypeError, and a one-state model with SNR 'x' passed validate()
        with pytest.raises(DomainError, match="must be a real number"):
            FsmcModel((0.0, math.inf), q, ((1.0,),), snrs, 1.0, 10.0, 1e-4, 5.0)

    def test_from_json_keeps_its_message(self):
        obj = json.loads(build_equal_duration(4, 100.0, 0.001, 10.0).to_json())
        obj["P"] = obj["P"][:3]
        with pytest.raises(DomainError, match="malformed FSMC model JSON.*4 x 4"):
            FsmcModel.from_json(json.dumps(obj))

    def test_from_json_wraps_a_non_numeric_q(self):
        obj = json.loads(build_equal_duration(4, 100.0, 0.001, 10.0).to_json())
        obj["q"][0] = "a"
        with pytest.raises(DomainError, match="malformed FSMC model JSON.*real number"):
            FsmcModel.from_json(json.dumps(obj))

    def test_an_unnormalised_q_is_left_to_validate(self):
        model = build_fixed_sojourn(4, 3.0446, 0.0855 / 0.00014, 0.00014, 10.0)
        scaled = replace(model, q=tuple(2.0 * p for p in model.q))
        with pytest.raises(DomainError, match="sum to"):
            scaled.validate()


class TestFromJsonMissingKey:
    @pytest.mark.parametrize("key", ["thresholds", "c", "P", "state_snrs_db"])
    def test_names_the_key(self, key):
        obj = json.loads(build_equal_duration(4, 100.0, 0.001, 10.0).to_json())
        del obj[key]
        with pytest.raises(DomainError, match=f"'{key}'"):
            FsmcModel.from_json(json.dumps(obj))


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        "{",
        "null",
        # parses, but 10**(1e4/10) overflows
        '{"thresholds": [0.0], "q": [1.0], "P": [[1.0]], "state_snrs_db": [1e4],'
        ' "avg_snr_db": 0.0, "f_d_hz": 1.0, "t_tb_s": 1.0, "c": 1.0}',
    ],
    ids=["list", "truncated", "null", "overflow"],
)
def test_from_json_rejects_malformed_text(text):
    with pytest.raises(DomainError, match="malformed FSMC model JSON"):
        FsmcModel.from_json(text)
