"""Grid search of retransmission coefficients under a PER constraint.

A channel is either a linear SNR or an FsmcModel; outcome_on evaluates a
configuration on either, outcome_grid a whole grid of candidate taus in
one batch, and at_snr moves either to another mean SNR.  The feasible
candidate with the highest throughput wins.  Ties break toward the
shorter retransmission, which also means less queueing delay.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from .errors import DomainError
from .fbl import DEFAULT_KERNEL, KernelOptions, db_to_linear
from .fading import FadingOutcomeQuery, outcomes_fading
from .fsmc import FsmcModel
from .outcomes import (DEFAULT_PATH_BUDGET, HarqConfig, OutcomeDistribution, distribution_from_prefix_errors,
                       outcomes_awgn, prefix_error_grid, throughput)

COARSE_TAU_GRID = tuple(round(0.1 * i, 2) for i in range(1, 11))
FINE_TAU_GRID = tuple(round(0.01 * i, 2) for i in range(1, 101))


def outcome_grid(cfg_base: HarqConfig, channel: float | FsmcModel,
                 candidates: Sequence[tuple[float, ...]],
                 kernel: KernelOptions = DEFAULT_KERNEL,
                 path_budget: int = DEFAULT_PATH_BUDGET) -> Iterable[tuple[HarqConfig, OutcomeDistribution]]:
    """(config, outcome distribution) of cfg_base with each candidate taus, computed in one batch."""
    if not candidates:
        raise DomainError("candidate list must be nonempty")
    cfgs = [cfg_base.with_taus(tuple(taus)) for taus in candidates]
    A = prefix_error_grid(cfgs, channel, kernel, path_budget)
    return ((cfg, distribution_from_prefix_errors(tuple(A[:, i].tolist()))) for i, cfg in enumerate(cfgs))


def outcome_on(cfg: HarqConfig, channel: float | FsmcModel,
               kernel: KernelOptions = DEFAULT_KERNEL,
               path_budget: int = DEFAULT_PATH_BUDGET) -> OutcomeDistribution:
    """Outcome distribution on a linear SNR or on the FSMC fading model."""
    if isinstance(channel, FsmcModel):
        return outcomes_fading(FadingOutcomeQuery(cfg, channel, kernel, path_budget))
    return outcomes_awgn(cfg, channel, kernel)


def at_snr(channel: float | FsmcModel, snr_db: float) -> float | FsmcModel:
    """The same channel at mean SNR snr_db; a model keeps its partition."""
    if isinstance(channel, FsmcModel):
        return channel.with_avg_snr(db_to_linear(snr_db))
    return db_to_linear(snr_db)


def check_tau_grid(grid: Sequence[float]) -> None:
    """A tau grid is nonempty and strictly increasing within (0, 1]."""
    if not grid:
        raise DomainError("tau grid must be nonempty")
    last = 0.0
    for t in grid:
        if not 0.0 < t <= 1.0 or t <= last:
            raise DomainError("tau grid must be strictly increasing within (0, 1]")
        last = t


@dataclass(frozen=True)
class FrontierPoint:
    taus: tuple[float, ...]
    per: float
    throughput: float
    feasible: bool


@dataclass(frozen=True)
class OptimizationProblem:
    """Throughput maximisation over tau subject to a residual-PER ceiling.

    channel is either a linear SNR (fixed-SNR evaluation) or an FsmcModel.
    constraint "ceiling" keeps points with PER <= per_ceiling; "floor"
    inverts the inequality, matching the alternative reading of the
    constraint direction.
    """

    cfg_base: HarqConfig
    channel: float | FsmcModel
    per_ceiling: float
    tau_grid: tuple[float, ...] = COARSE_TAU_GRID
    constraint: str = "ceiling"
    kernel: KernelOptions = DEFAULT_KERNEL
    path_budget: int = DEFAULT_PATH_BUDGET

    def __post_init__(self) -> None:
        if not 0.0 < self.per_ceiling <= 1.0:
            raise DomainError(f"PER threshold must lie in (0, 1], got {self.per_ceiling}")
        check_tau_grid(self.tau_grid)
        if self.constraint not in ("ceiling", "floor"):
            raise DomainError(f"unknown constraint direction {self.constraint!r}")

    def is_feasible(self, per: float) -> bool:
        if self.constraint == "ceiling":
            return per <= self.per_ceiling
        return per >= self.per_ceiling


@dataclass(frozen=True)
class OptimizationReport:
    """Winner plus the full (tau, PER, throughput) frontier.

    When no grid point satisfies the constraint, feasible is False and the
    reported point is the best-effort minimum-PER one.
    """

    tau_hat: tuple[float, ...]
    achieved_per: float
    achieved_throughput: float
    feasible: bool
    frontier: tuple[FrontierPoint, ...]
    snr_db: float | None = field(default=None, compare=False)


def _report(problem: OptimizationProblem, candidates: Sequence[tuple[float, ...]],
            tie_key) -> OptimizationReport:
    frontier = [FrontierPoint(cfg.taus, out.p_e, throughput(cfg, out), problem.is_feasible(out.p_e))
                for cfg, out in outcome_grid(problem.cfg_base, problem.channel, candidates,
                                             problem.kernel, problem.path_budget)]
    feasible_pts = [p for p in frontier if p.feasible]
    if feasible_pts:
        best = max(feasible_pts, key=lambda p: (p.throughput, tie_key(p.taus)))
        return OptimizationReport(best.taus, best.per, best.throughput, True, tuple(frontier))
    best = max(frontier, key=lambda p: (-p.per, tie_key(p.taus)))
    return OptimizationReport(best.taus, best.per, best.throughput, False, tuple(frontier))


def optimize_tau1(problem: OptimizationProblem) -> OptimizationReport:
    """Best single retransmission coefficient for an m = 2 configuration."""
    if problem.cfg_base.m != 2:
        raise DomainError(f"optimize_tau1 needs m = 2, got m = {problem.cfg_base.m}")
    candidates = [(1.0, t) for t in problem.tau_grid]
    return _report(problem, candidates, lambda taus: -taus[1])


def optimize_tau12(problem: OptimizationProblem) -> OptimizationReport:
    """Best (tau1, tau2) with tau2 <= tau1 for an m = 3 configuration.

    Ties break lexicographically toward the smaller tau1 + tau2, then the
    smaller tau1.
    """
    if problem.cfg_base.m != 3:
        raise DomainError(f"optimize_tau12 needs m = 3, got m = {problem.cfg_base.m}")
    candidates = [
        (1.0, t1, t2)
        for t1 in problem.tau_grid
        for t2 in problem.tau_grid
        if t2 <= t1
    ]
    return _report(problem, candidates, lambda taus: (-(taus[1] + taus[2]), -taus[1]))


def sweep(problem: OptimizationProblem, snrs_db: Sequence[float]) -> list[OptimizationReport]:
    """One optimisation per SNR; the fading partition is reused across SNRs."""
    if len(snrs_db) == 0:
        raise DomainError("SNR list must be nonempty")
    optimise = optimize_tau1 if problem.cfg_base.m == 2 else optimize_tau12
    return [
        replace(optimise(replace(problem, channel=at_snr(problem.channel, snr_db))), snr_db=snr_db)
        for snr_db in snrs_db
    ]


def reports_csv_lines(reports: Sequence[OptimizationReport]) -> Iterable[str]:
    yield "snr_db,tau1,per,throughput,feasible"
    for r in reports:
        snr = "" if r.snr_db is None else f"{r.snr_db:.12g}"
        yield (
            f"{snr},{r.tau_hat[1]:.12g},{r.achieved_per:.12g},"
            f"{r.achieved_throughput:.12g},{str(r.feasible).lower()}"
        )


def reports_to_json(reports: Sequence[OptimizationReport]) -> str:
    payload = []
    for r in reports:
        payload.append(
            {
                "snr_db": r.snr_db,
                "tau_hat": list(r.tau_hat),
                "per": r.achieved_per,
                "throughput": r.achieved_throughput,
                "feasible": r.feasible,
                "frontier": [
                    {
                        "taus": list(p.taus),
                        "per": p.per,
                        "throughput": p.throughput,
                        "feasible": p.feasible,
                    }
                    for p in r.frontier
                ],
            }
        )
    return json.dumps(payload, indent=2)
