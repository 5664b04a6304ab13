import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harqfbl import (
    COARSE_TAU_GRID,
    CodeParams,
    DomainError,
    HarqConfig,
    OptimizationProblem,
    Scheme,
    build_fixed_sojourn,
    db_to_linear,
    from_target_c,
    optimize_tau1,
    optimize_tau12,
    outcome_on,
    sweep,
    throughput,
)
from harqfbl.optimize import FINE_TAU_GRID, FrontierPoint, at_snr, outcome_grid, reports_payload
from harqfbl.outcomes import _BLOCK_ELEMENTS


def base_cfg(k, m=2, n=100):
    return HarqConfig(CodeParams(n, k), Scheme.IR, m, (1.0,) * m)


def slow_fading(snr_db):
    return build_fixed_sojourn(13, 3.0446, 0.0338 / 0.00014, 0.00014, db_to_linear(snr_db))


def fast_fading(snr_db):
    return build_fixed_sojourn(10, 3.0446, 0.04 / 0.00014, 0.00014, db_to_linear(snr_db))


class TestOptimizeTau1:
    def test_vacuous_constraint_returns_unconstrained_argmax(self):
        problem = OptimizationProblem(base_cfg(70), db_to_linear(20.0), per_ceiling=1.0)
        report = optimize_tau1(problem)
        assert report.feasible
        best = max(report.frontier, key=lambda p: p.throughput)
        assert report.achieved_throughput == best.throughput
        # at high SNR nothing needs retransmitting, so the shortest wins
        assert report.tau_hat == (1.0, COARSE_TAU_GRID[0])

    def test_empty_candidate_list_rejected(self):
        with pytest.raises(DomainError, match="nonempty"):
            outcome_grid(base_cfg(70), 1.0, [])

    def test_requires_two_transmissions(self):
        with pytest.raises(DomainError):
            optimize_tau1(OptimizationProblem(base_cfg(70, m=3), 1.0, per_ceiling=0.1))

    def test_feasibility_soundness(self):
        problem = OptimizationProblem(base_cfg(70), slow_fading(12.0), per_ceiling=0.01)
        report = optimize_tau1(problem)
        assert report.feasible
        cfg = problem.cfg_base.with_taus(report.tau_hat)
        out = outcome_on(cfg, problem.channel)
        per, tp = out.p_e, throughput(cfg, out)
        assert per <= 0.01 + 1e-12
        assert abs(per - report.achieved_per) <= 1e-12
        assert abs(tp - report.achieved_throughput) <= 1e-12

    def test_frontier_complete_and_ordered(self):
        problem = OptimizationProblem(base_cfg(70), slow_fading(12.0), per_ceiling=0.01)
        report = optimize_tau1(problem)
        assert len(report.frontier) == len(COARSE_TAU_GRID)
        assert [p.taus[1] for p in report.frontier] == list(COARSE_TAU_GRID)

    def test_exhaustive_rescan_oracle(self):
        problem = OptimizationProblem(base_cfg(100), slow_fading(12.5), per_ceiling=0.01)
        report = optimize_tau1(problem)
        feasible = [p for p in report.frontier if p.per <= 0.01]
        best = max(feasible, key=lambda p: (p.throughput, -p.taus[1]))
        assert report.tau_hat == best.taus
        assert report.achieved_throughput == best.throughput

    def test_low_mobility_reference_point(self):
        # k = 100, 12.5 dB, slow fading, 1% ceiling: the winner retransmits
        # sixty percent of the codeword at roughly the reference (per,
        # throughput) operating point
        problem = OptimizationProblem(base_cfg(100), slow_fading(12.5), per_ceiling=0.01)
        report = optimize_tau1(problem)
        assert report.feasible
        assert report.tau_hat == (1.0, 0.6)
        assert 0.0068 / 2 <= report.achieved_per <= 0.0068 * 2
        assert report.achieved_throughput == pytest.approx(0.9506, abs=0.01)

    def test_infeasible_reports_minimum_per_point(self):
        problem = OptimizationProblem(base_cfg(100), slow_fading(11.0), per_ceiling=0.01)
        report = optimize_tau1(problem)
        assert not report.feasible
        assert report.achieved_per == min(p.per for p in report.frontier)
        assert report.achieved_per > 0.01

    def test_floor_constraint_direction(self):
        problem = OptimizationProblem(
            base_cfg(100), db_to_linear(-1.0), per_ceiling=0.5, constraint="floor"
        )
        report = optimize_tau1(problem)
        assert report.feasible
        assert report.achieved_per >= 0.5

    def test_fine_grid_available(self):
        problem = OptimizationProblem(
            base_cfg(70), db_to_linear(-1.0), per_ceiling=1e-4, tau_grid=FINE_TAU_GRID
        )
        report = optimize_tau1(problem)
        assert len(report.frontier) == 100
        assert report.feasible


class TestOptimizeTau12:
    def test_triangle_grid_only(self):
        problem = OptimizationProblem(base_cfg(70, m=3), db_to_linear(-4.0), per_ceiling=1.0)
        report = optimize_tau12(problem)
        assert all(p.taus[2] <= p.taus[1] for p in report.frontier)
        assert len(report.frontier) == sum(range(1, len(COARSE_TAU_GRID) + 1))

    def test_redundancy_split_beats_full_repeats(self):
        # a (0.7, 0.6) split keeps the error rate at the target while
        # spending fewer slots than retransmitting everything twice
        problem = OptimizationProblem(base_cfg(70, m=3), db_to_linear(-4.0), per_ceiling=1e-4)
        report = optimize_tau12(problem)
        assert report.feasible
        by_taus = {p.taus: p for p in report.frontier}
        split = by_taus[(1.0, 0.7, 0.6)]
        full = by_taus[(1.0, 1.0, 1.0)]
        assert split.per <= 1e-4
        assert split.throughput > full.throughput
        assert report.achieved_throughput >= split.throughput

    def test_infeasible_reports_minimum_per_point(self):
        # the m = 3 tie key is a tuple; ranking the infeasible points must not negate it
        problem = OptimizationProblem(base_cfg(100, m=3), slow_fading(8.0), per_ceiling=1e-9)
        report = optimize_tau12(problem)
        assert not report.feasible
        assert report.achieved_per == min(p.per for p in report.frontier)

    def test_vacuous_constraint(self):
        problem = OptimizationProblem(base_cfg(70, m=3), db_to_linear(-4.0), per_ceiling=1.0)
        report = optimize_tau12(problem)
        assert report.feasible
        assert report.achieved_throughput == max(p.throughput for p in report.frontier)

    def test_requires_three_transmissions(self):
        with pytest.raises(DomainError):
            optimize_tau12(OptimizationProblem(base_cfg(70), 1.0, per_ceiling=0.1))


class TestSweep:
    def test_deterministic(self):
        problem = OptimizationProblem(base_cfg(70), slow_fading(11.0), per_ceiling=0.01)
        snrs = [11.0, 12.0, 13.0]
        a = sweep(problem, snrs)
        b = sweep(problem, snrs)
        assert [r.tau_hat for r in a] == [r.tau_hat for r in b]
        assert [r.achieved_per for r in a] == [r.achieved_per for r in b]

    def test_repeated_snrs_identical(self):
        problem = OptimizationProblem(base_cfg(70), slow_fading(11.0), per_ceiling=0.01)
        a, b = sweep(problem, [12.5, 12.5])
        assert a.tau_hat == b.tau_hat
        assert a.achieved_per == b.achieved_per

    def test_empty_snr_list_rejected(self):
        problem = OptimizationProblem(base_cfg(70), slow_fading(11.0), per_ceiling=0.01)
        with pytest.raises(DomainError):
            sweep(problem, [])

    @pytest.mark.parametrize("channel", [1.0, slow_fading(11.0)], ids=["fixed", "fading"])
    def test_overflowing_snr_rejected(self, channel):
        problem = OptimizationProblem(base_cfg(70), channel, per_ceiling=0.01)
        with pytest.raises(DomainError, match="overflows"):
            sweep(problem, [1e6])

    def test_optimal_tau_nonincreasing_in_snr(self):
        snrs = [11.0, 11.5, 12.0, 12.5, 13.0, 13.5, 14.0]
        problem = OptimizationProblem(base_cfg(70), fast_fading(11.0), per_ceiling=0.01)
        taus = [r.tau_hat[1] for r in sweep(problem, snrs)]
        assert all(b <= a for a, b in zip(taus, taus[1:]))

    def test_optimal_tau_nonincreasing_in_mobility(self):
        # stronger Doppler decorrelates the retransmission, so less
        # redundancy is needed at the same SNR
        snrs = [11.5, 12.0, 12.5, 13.0, 13.5, 14.0]
        slow = sweep(
            OptimizationProblem(base_cfg(100), slow_fading(11.0), per_ceiling=0.01), snrs
        )
        fast = sweep(
            OptimizationProblem(base_cfg(100), fast_fading(11.0), per_ceiling=0.01), snrs
        )
        for s, f in zip(slow, fast):
            if s.feasible and f.feasible:
                assert f.tau_hat[1] <= s.tau_hat[1]

    def test_low_mobility_reference_columns(self):
        # frozen winners of the 1% ceiling sweep at f_d*t_tb = 0.0338 for
        # both code rates; the 11 dB row at k = 100 is infeasible (its
        # minimum PER sits at the bottom-state mass)
        snrs = [11.0, 11.5, 12.0, 12.5, 13.0, 13.5, 14.0]
        k100 = sweep(
            OptimizationProblem(base_cfg(100), slow_fading(11.0), per_ceiling=0.01), snrs
        )
        assert not k100[0].feasible
        assert [r.tau_hat[1] for r in k100[1:]] == [0.9, 0.8, 0.6, 0.5, 0.4, 0.3]
        k70 = sweep(
            OptimizationProblem(base_cfg(70), slow_fading(11.0), per_ceiling=0.01), snrs
        )
        assert all(r.feasible for r in k70)
        assert [r.tau_hat[1] for r in k70] == [0.5, 0.4, 0.3, 0.2, 0.2, 0.1, 0.1]


class TestSweepEqualsOneSnrOptimisation:
    """sweep walks all its SNRs at once; each of its reports equals the one-SNR optimiser's, floats by ==."""

    @pytest.mark.parametrize("block", [7, 64, _BLOCK_ELEMENTS])
    @pytest.mark.parametrize("snrs", [[12.0], [11.0, 13.5], [10.0, 11.0, 12.5, 13.0, 14.0]], ids=["1", "2", "5"])
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("fading", [False, True], ids=["fixed", "fsmc"])
    def test_each_report_is_the_one_snr_report(self, fading, m, snrs, block):
        # blocks of 7 and 64 elements split a depth's prefixes into several blocks, each holding every SNR
        channel, shift = (slow_fading(11.0), 0.0) if fading else (1.0, -13.0)
        problem = OptimizationProblem(base_cfg(70, m=m), channel, 0.01)
        optimize = optimize_tau1 if m == 2 else optimize_tau12
        snrs = [s + shift for s in snrs]
        with mock.patch("harqfbl.outcomes._BLOCK_ELEMENTS", block):
            reports = sweep(problem, snrs)
            singles = [optimize(dataclasses.replace(problem, channel=at_snr(channel, s))) for s in snrs]
        assert len(reports) == len(snrs)
        for report, single, snr_db in zip(reports, singles, snrs):
            assert report.snr_db == snr_db
            assert (report.tau_hat, report.achieved_per, report.achieved_throughput, report.feasible) == (
                single.tau_hat, single.achieved_per, single.achieved_throughput, single.feasible)
            assert report.frontier == single.frontier

    def test_every_decode_failing_keeps_per_at_one(self):
        # at -400 dB every round fails, and the path sum used to round to PER 1 + 2^-52
        model = from_target_c(3.0446, 0.0338 / 1.4e-4, 1.4e-4, 10.0, 10)
        report, = sweep(OptimizationProblem(base_cfg(70), model, 0.01, FINE_TAU_GRID), [-400.0])
        assert not report.feasible and report.achieved_per == 1.0
        assert all(p.per <= 1.0 and p.throughput >= 0.0 for p in report.frontier)


class TestFrontierPoint:
    def test_fields_attributes_and_immutability(self):
        point = FrontierPoint((1.0, 0.5), 1e-3, 0.6, True)
        assert FrontierPoint._fields == ("taus", "per", "throughput", "feasible")
        assert (point.taus, point.per, point.throughput, point.feasible) == ((1.0, 0.5), 1e-3, 0.6, True)
        assert point == ((1.0, 0.5), 1e-3, 0.6, True)  # a tuple of its fields
        with pytest.raises(AttributeError):
            point.per = 0.0

    def test_optimiser_points_are_frontier_points(self):
        report = optimize_tau12(OptimizationProblem(base_cfg(70, m=3), db_to_linear(-2.0), 0.01))
        assert all(type(p) is FrontierPoint for p in report.frontier)
        assert (report.tau_hat, report.achieved_per, report.achieved_throughput, report.feasible) in report.frontier

    def test_reports_payload_keeps_its_keys_and_order(self):
        report = optimize_tau1(OptimizationProblem(base_cfg(70), db_to_linear(-2.0), 0.01))
        record, = reports_payload([report])
        assert list(record) == ["snr_db", "tau_hat", "per", "throughput", "feasible", "frontier"]
        point = report.frontier[3]
        assert json.dumps(record["frontier"][3]) == json.dumps(
            {"taus": list(point.taus), "per": point.per, "throughput": point.throughput, "feasible": point.feasible})


class TestInputContract:
    @pytest.mark.parametrize(
        "field",
        [{"per_ceiling": "0.1"}, {"per_ceiling": True}, {"tau_grid": ("a",)}, {"tau_grid": (True,)},
         {"tau_grid": (0.5, None)}],
        ids=["per-str", "per-bool", "grid-str", "grid-bool", "grid-none"],
    )
    def test_problem_takes_only_real_numbers(self, field):
        with pytest.raises(DomainError):
            OptimizationProblem(**{"cfg_base": base_cfg(70), "channel": 1.0, "per_ceiling": 0.1, **field})

    @pytest.mark.parametrize("channel", ["abc", None, True, 1.0 + 0.0j], ids=["str", "none", "bool", "complex"])
    @pytest.mark.parametrize("entry", [lambda p: sweep(p, [-2.0]), optimize_tau1], ids=["sweep", "optimize_tau1"])
    def test_problem_channel_is_a_model_or_a_real_number(self, channel, entry):
        # sweep replaces a fixed-SNR channel by its SNR list, so it used to return a report for 'abc'
        with pytest.raises(DomainError, match="channel"):
            entry(OptimizationProblem(base_cfg(70), channel, per_ceiling=0.01))

    @pytest.mark.parametrize("snrs", [["a"], [True], [12.0, None]], ids=["str", "bool", "none"])
    def test_sweep_takes_only_real_snrs(self, snrs):
        with pytest.raises(DomainError, match="SNR"):
            sweep(OptimizationProblem(base_cfg(70), 1.0, per_ceiling=0.1), snrs)

    @pytest.mark.parametrize(
        "scheme, candidates",
        [
            (Scheme.IR, [(1.0, 0.5, 0.5)]),
            (Scheme.IR, [(1.0, 0.5), (1.0,)]),
            (Scheme.IR, [(1.0, 0.5), (0.9, 0.5)]),
            (Scheme.IR, [(1.0, 0.0)]),
            (Scheme.IR, [(1.0, 1.5)]),
            (Scheme.IR, [(1.0, math.nan)]),
            (Scheme.IR, [("1.0", "0.5")]),
            (Scheme.CC, [(1.0, 1.0), (1.0, 0.5)]),
        ],
        ids=["length", "ragged", "tau0", "zero", "above-one", "nan", "str", "cc"],
    )
    def test_candidates_are_checked_like_harq_config(self, scheme, candidates):
        cfg = HarqConfig(CodeParams(100, 70), scheme, 2, (1.0, 1.0))
        with pytest.raises(DomainError):
            outcome_grid(cfg, 1.0, candidates)
        with pytest.raises(DomainError):
            for taus in candidates:
                HarqConfig(CodeParams(100, 70), scheme, 2, taus)


class TestFrontierEqualsSingleConfigs:
    @pytest.mark.parametrize("channel", [db_to_linear(-2.0), slow_fading(11.5)], ids=["fixed", "fading-L13"])
    def test_every_point_is_outcome_on_and_throughput(self, channel):
        # the batched array rules give every candidate the bits the
        # one-configuration path gives it
        problem = OptimizationProblem(base_cfg(70, m=3), channel, per_ceiling=1e-3, tau_grid=FINE_TAU_GRID)
        report = optimize_tau12(problem)
        assert len(report.frontier) == 5050
        for point in report.frontier:
            cfg = problem.cfg_base.with_taus(point.taus)
            out = outcome_on(cfg, channel)
            assert (point.per, point.throughput, point.feasible) == (out.p_e, throughput(cfg, out), out.p_e <= 1e-3)


def former_pick(frontier, m):
    """The winner rule the optimiser used before the array pick: Python max over the pool."""
    tie_key = (lambda taus: -taus[1]) if m == 2 else (lambda taus: (-(taus[1] + taus[2]), -taus[1]))
    pool = [p for p in frontier if p.feasible] or frontier
    return max(pool, key=lambda p: (p.throughput if p.feasible else -p.per, tie_key(p.taus)))


class TestWinnerRule:
    # two throughputs and four PERs, so that exact ties are common
    @settings(max_examples=300, deadline=None)
    @given(m=st.sampled_from([2, 3]), constraint=st.sampled_from(["ceiling", "floor"]),
           per_ceiling=st.sampled_from([1e-4, 0.01, 0.3, 1.0]),
           grid=st.lists(st.sampled_from(COARSE_TAU_GRID), min_size=1, max_size=7, unique=True).map(sorted),
           data=st.data())
    def test_array_pick_is_the_former_max_rule(self, m, constraint, per_ceiling, grid, data):
        problem = OptimizationProblem(base_cfg(70, m=m), 1.0, per_ceiling, tuple(grid), constraint)
        count = len(grid) if m == 2 else len(grid) * (len(grid) + 1) // 2

        def values(pool):
            return np.array(data.draw(st.lists(st.sampled_from(pool), min_size=count, max_size=count)))

        per, tp = values([0.0, 1e-4, 0.01, 0.2]), values([0.5, 0.01])
        with mock.patch("harqfbl.optimize.outcome_grid", return_value=(per, tp)):
            report = (optimize_tau1 if m == 2 else optimize_tau12)(problem)
        best = former_pick(report.frontier, m)
        assert (report.tau_hat, report.achieved_per, report.achieved_throughput, report.feasible) == (
            best.taus, best.per, best.throughput, best.feasible)

    def test_a_tie_goes_to_the_smaller_sum_before_the_smaller_tau1(self):
        problem = OptimizationProblem(base_cfg(70, m=3), 1.0, 0.3, (0.1, 0.3, 0.4))
        # candidates (1, 0.1, 0.1), (1, 0.3, 0.1), (1, 0.3, 0.3), (1, 0.4, 0.1), (1, 0.4, 0.3), (1, 0.4, 0.4)
        per, tp = np.zeros(6), np.array([0.01, 0.01, 0.5, 0.5, 0.01, 0.01])
        with mock.patch("harqfbl.optimize.outcome_grid", return_value=(per, tp)):
            assert optimize_tau12(problem).tau_hat == (1.0, 0.4, 0.1)

    def test_all_infeasible_pool_takes_the_lowest_per(self):
        problem = OptimizationProblem(base_cfg(70, m=3), 1.0, 1e-4, (0.2, 0.5))
        per, tp = np.array([0.3, 0.1, 0.1]), np.array([0.5, 0.2, 0.6])
        with mock.patch("harqfbl.optimize.outcome_grid", return_value=(per, tp)):
            report = optimize_tau12(problem)
        # (1, 0.5, 0.2) and (1, 0.5, 0.5) tie on PER; the smaller tau1 + tau2 wins
        assert (report.tau_hat, report.feasible) == ((1.0, 0.5, 0.2), False)
