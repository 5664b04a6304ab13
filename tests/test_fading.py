import math

import numpy as np
import pytest

from harqfbl import (
    CodeParams,
    DomainError,
    FadingOutcomeQuery,
    FsmcModel,
    HarqConfig,
    KernelOptions,
    ResourceLimitError,
    Scheme,
    build_fixed_sojourn,
    db_to_linear,
    outcomes_awgn,
    outcomes_fading,
    per_cc,
    per_ir,
    simulate_harq,
)
from harqfbl.outcomes import _BLOCK_ELEMENTS, prefix_error_grid
from harqfbl.fbl import TransmissionRecord
from harqfbl.optimize import FINE_TAU_GRID


def fig4a_model(snr_db=11.5):
    return build_fixed_sojourn(13, 3.0446, 0.0338 / 0.00014, 0.00014, db_to_linear(snr_db))


def single_state_model(gamma):
    return FsmcModel(
        thresholds=(0.0, math.inf),
        q=(1.0,),
        transitions=((1.0,),),
        state_snrs=(gamma,),
        avg_snr=gamma,
        f_d=100.0,
        t_tb=1e-4,
        c=5.0,
    )


def ir_cfg(k, taus):
    return HarqConfig(CodeParams(100, k), Scheme.IR, len(taus), tuple(taus))


KERNELS = [KernelOptions(), KernelOptions(dispersion_units="bits2"), KernelOptions(cc_denominator="n_sqrt_v")]


class TestOutcomesFading:
    @pytest.mark.parametrize("kernel", KERNELS, ids=["default", "bits2", "n_sqrt_v"])
    @pytest.mark.parametrize(
        "cfg",
        [ir_cfg(100, (1.0, 0.58)), HarqConfig(CodeParams(100, 100), Scheme.CC, 2, (1.0, 1.0))],
        ids=["IR", "CC"],
    )
    def test_single_state_chain_reduces_to_fixed_snr(self, cfg, kernel):
        gamma = db_to_linear(-1.0)
        fading = outcomes_fading(FadingOutcomeQuery(cfg, single_state_model(gamma), kernel))
        awgn = outcomes_awgn(cfg, gamma, kernel)
        assert fading == awgn

    def test_single_transmission_closed_form(self):
        model = fig4a_model()
        cfg = ir_cfg(70, (1.0,))
        out = outcomes_fading(FadingOutcomeQuery(cfg, model))
        p0 = sum(
            q * (1.0 - per_ir(cfg.code, TransmissionRecord((g,), (100,))))
            for q, g in zip(model.q, model.state_snrs)
        )
        assert out.p[0] == pytest.approx(p0, rel=1e-12)
        assert out.p_e == pytest.approx(1.0 - p0, rel=1e-9)

    def test_two_round_matches_direct_double_sum(self):
        # independent re-implementation of the m = 2 state-pair sums
        model = fig4a_model()
        cfg = ir_cfg(70, (1.0, 0.6))
        out = outcomes_fading(FadingOutcomeQuery(cfg, model))
        L = model.n_states
        lengths = cfg.round_lengths()
        p0 = p1 = pe = 0.0
        for l in range(L):
            e1 = per_ir(cfg.code, TransmissionRecord((model.state_snrs[l],), lengths[:1]))
            p0 += model.q[l] * (1.0 - e1)
            for j in range(L):
                w = model.q[l] * model.transitions[l][j]
                if w == 0.0:
                    continue
                e2 = per_ir(
                    cfg.code,
                    TransmissionRecord((model.state_snrs[l], model.state_snrs[j]), lengths),
                )
                p1 += w * (e1 - e2)
                pe += w * e2
        assert out.p[0] == pytest.approx(p0, abs=1e-12)
        assert out.p[1] == pytest.approx(p1, abs=1e-12)
        assert out.p_e == pytest.approx(pe, abs=1e-12)

    def test_three_round_matches_triple_enumeration(self):
        model = build_fixed_sojourn(5, 3.0446, 0.04 / 0.00014, 0.00014, db_to_linear(8.0))
        cfg = ir_cfg(70, (1.0, 0.7, 0.6))
        out = outcomes_fading(FadingOutcomeQuery(cfg, model))
        L = model.n_states
        lengths = cfg.round_lengths()
        snrs = model.state_snrs
        A = [0.0, 0.0, 0.0]
        for a in range(L):
            e1 = per_ir(cfg.code, TransmissionRecord((snrs[a],), lengths[:1]))
            A[0] += model.q[a] * e1
            for b in range(L):
                w2 = model.q[a] * model.transitions[a][b]
                if w2 == 0.0:
                    continue
                e2 = per_ir(cfg.code, TransmissionRecord((snrs[a], snrs[b]), lengths[:2]))
                A[1] += w2 * e2
                for c in range(L):
                    w3 = w2 * model.transitions[b][c]
                    if w3 == 0.0:
                        continue
                    e3 = per_ir(
                        cfg.code, TransmissionRecord((snrs[a], snrs[b], snrs[c]), lengths)
                    )
                    A[2] += w3 * e3
        assert out.p[0] == pytest.approx(1.0 - A[0], abs=1e-12)
        assert out.p[1] == pytest.approx(A[0] - A[1], abs=1e-12)
        assert out.p[2] == pytest.approx(A[1] - A[2], abs=1e-12)
        assert out.p_e == pytest.approx(A[2], abs=1e-12)

    def test_chase_combining_adds_state_snrs(self):
        model = fig4a_model()
        cfg = HarqConfig(CodeParams(100, 70), Scheme.CC, 2, (1.0, 1.0))
        out = outcomes_fading(FadingOutcomeQuery(cfg, model))
        pe = 0.0
        for l in range(model.n_states):
            for j in range(model.n_states):
                w = model.q[l] * model.transitions[l][j]
                if w:
                    pe += w * per_cc(cfg.code, (model.state_snrs[l], model.state_snrs[j]))
        assert out.p_e == pytest.approx(pe, abs=1e-12)

    def test_sums_to_one(self):
        for taus in ((1.0,), (1.0, 0.6), (1.0, 0.7, 0.5)):
            out = outcomes_fading(FadingOutcomeQuery(ir_cfg(70, taus), fig4a_model()))
            assert abs(out.total - 1.0) <= 1e-9

    def test_residual_error_monotone_in_avg_snr(self):
        cfg = ir_cfg(70, (1.0, 0.6))
        pes = [
            outcomes_fading(FadingOutcomeQuery(cfg, fig4a_model(snr))).p_e
            for snr in (10.0, 11.5, 13.0, 14.5)
        ]
        assert all(b <= a for a, b in zip(pes, pes[1:]))

    def test_frozen_chain_bounds_mobile_chain(self):
        # a chain stuck in its initial state sees no time diversity
        model = fig4a_model()
        frozen = FsmcModel(
            thresholds=model.thresholds,
            q=model.q,
            transitions=tuple(
                tuple(1.0 if i == j else 0.0 for j in range(model.n_states))
                for i in range(model.n_states)
            ),
            state_snrs=model.state_snrs,
            avg_snr=model.avg_snr,
            f_d=model.f_d,
            t_tb=model.t_tb,
            c=model.c,
        )
        cfg = ir_cfg(70, (1.0, 0.6))
        pe_frozen = outcomes_fading(FadingOutcomeQuery(cfg, frozen)).p_e
        pe_mobile = outcomes_fading(FadingOutcomeQuery(cfg, model)).p_e
        assert pe_frozen >= pe_mobile

    @pytest.mark.parametrize(
        "cfg",
        [ir_cfg(70, (1.0, 0.6)), HarqConfig(CodeParams(100, 70), Scheme.CC, 2, (1.0, 1.0))],
        ids=["IR", "CC"],
    )
    def test_nan_state_snr_rejected(self, cfg):
        with pytest.raises(DomainError, match="nan"):
            FadingOutcomeQuery(cfg, fig4a_model().with_avg_snr(math.nan))

    def test_budget_exceeded_raises(self):
        query = FadingOutcomeQuery(ir_cfg(70, (1.0, 0.6)), fig4a_model(), path_budget=10)
        with pytest.raises(ResourceLimitError, match="Monte Carlo"):
            outcomes_fading(query)


class TestPrefixErrorGrid:
    @pytest.mark.parametrize(
        "kernel",
        [KernelOptions(units, den) for units in ("nats2", "bits2") for den in ("sqrt_nv", "n_sqrt_v")],
        ids=lambda k: f"{k.dispersion_units}-{k.cc_denominator}",
    )
    @pytest.mark.parametrize("scheme", [Scheme.IR, Scheme.CC], ids=["IR", "CC"])
    def test_batch_equals_single_candidates(self, scheme, kernel):
        # the fine m = 3 triangle spans several blocks of the candidate axis;
        # no broadcast or block boundary may change a single bit
        model = fig4a_model(12.0)
        base = HarqConfig(CodeParams(100, 70), scheme, 3, (1.0, 1.0, 1.0))
        if scheme is Scheme.IR:
            taus = [(1.0, a, b) for a in FINE_TAU_GRID for b in FINE_TAU_GRID if b <= a]
        else:
            taus = [base.taus] * 5050  # chase combining has one candidate; repeat it
        adjacent = (np.asarray(model.transitions) > 0.0).astype(int)
        deepest = int((np.asarray(model.q) > 0.0) @ adjacent @ adjacent @ np.ones(13))
        assert len(taus) * deepest > 2 * _BLOCK_ELEMENTS  # more than two blocks
        batch = prefix_error_grid(base, taus, model, kernel)
        singles = {}
        for i, row in enumerate(taus):
            if row not in singles:
                singles[row] = prefix_error_grid(base, [row], model, kernel)[:, 0]
            assert np.array_equal(batch[:, i], singles[row]), row


class TestMcCheck:
    def test_error_free_single_state(self):
        cfg = ir_cfg(70, (1.0, 0.6))
        model = single_state_model(1e12)
        for seed in (0, 1234):
            mc = simulate_harq(cfg, model, 10_000, seed)
            assert mc.outcome.p[0] == 1.0

    def test_agreement_with_analytic(self):
        cfg = ir_cfg(70, (1.0, 0.6))
        query = FadingOutcomeQuery(cfg, fig4a_model())
        analytic = outcomes_fading(query)
        mc = simulate_harq(query.cfg, query.model, 200_000, 7, query.kernel)
        for i in range(cfg.m):
            assert abs(mc.outcome.p[i] - analytic.p[i]) <= 3.0 * max(mc.outcome_se[i], 1e-9)
        assert abs(mc.outcome.p_e - analytic.p_e) <= 3.0 * max(mc.p_e_se, 1e-9)

    def test_agreement_three_rounds(self):
        cfg = ir_cfg(70, (1.0, 0.5, 0.4))
        query = FadingOutcomeQuery(cfg, fig4a_model(10.0))
        analytic = outcomes_fading(query)
        mc = simulate_harq(query.cfg, query.model, 100_000, 21, query.kernel)
        for i in range(cfg.m):
            assert abs(mc.outcome.p[i] - analytic.p[i]) <= 3.0 * max(mc.outcome_se[i], 1e-9)

    def test_too_few_trials_rejected(self):
        with pytest.raises(DomainError):
            simulate_harq(ir_cfg(70, (1.0,)), fig4a_model(), 100, 0)

    def test_deterministic_under_seed(self):
        query = FadingOutcomeQuery(ir_cfg(70, (1.0, 0.6)), fig4a_model())
        a = simulate_harq(query.cfg, query.model, 20_000, 99, query.kernel)
        b = simulate_harq(query.cfg, query.model, 20_000, 99, query.kernel)
        assert a.outcome.p == b.outcome.p
        assert a.outcome.p_e == b.outcome.p_e

    def test_seeded_outcome_pinned(self):
        # 18876 / 1114 / 10 of 20000 packets; pins the RNG draw order
        query = FadingOutcomeQuery(ir_cfg(70, (1.0, 0.6)), fig4a_model())
        mc = simulate_harq(query.cfg, query.model, 20_000, 99, query.kernel)
        assert mc.outcome.p == (0.9438, 0.0557)
        assert mc.outcome.p_e == 0.0005
        assert mc.outcome_se == (0.0016285201871637947, 0.001621689088574009)
        assert mc.p_e_se == 0.0001580743495953724
        assert mc.packets == 20_000
