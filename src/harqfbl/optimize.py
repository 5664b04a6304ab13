"""Grid search of retransmission coefficients under a PER constraint.

A channel is either a linear SNR or an FsmcModel.  outcome_grid evaluates
a whole grid of candidate taus in one batch and returns PER and throughput
as arrays, one entry per candidate; at_snr moves a channel to another mean
SNR.  The feasible candidate with the highest throughput wins.  Ties break
toward the shorter retransmission, which also means less queueing delay.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError
from .fading import outcomes_fading  # noqa: F401  harqbench's traced-run test reads it from this module
from .fbl import DEFAULT_KERNEL, KernelOptions, check_real, db_to_linear
from .fsmc import FsmcModel
from .outcomes import DEFAULT_PATH_BUDGET, HarqConfig, prefix_error_grid, telescope, throughput_grid

COARSE_TAU_GRID = tuple(round(0.1 * i, 2) for i in range(1, 11))
FINE_TAU_GRID = tuple(round(0.01 * i, 2) for i in range(1, 101))


def outcome_grid(cfg_base: HarqConfig, channel: float | FsmcModel,
                 candidates: Sequence[tuple[float, ...]],
                 kernel: KernelOptions = DEFAULT_KERNEL,
                 path_budget: int = DEFAULT_PATH_BUDGET) -> tuple[np.ndarray, np.ndarray]:
    """(PER, throughput) arrays of cfg_base with each candidate taus (checked as rows), in one batch."""
    p, p_e = telescope(prefix_error_grid(cfg_base, candidates, channel, kernel, path_budget))
    return p_e, throughput_grid(cfg_base, np.asarray(candidates, dtype=float), p, p_e)


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
        check_real("tau grid entry", t)
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
        check_real("PER threshold", self.per_ceiling)
        if not 0.0 < self.per_ceiling <= 1.0:
            raise DomainError(f"PER threshold must lie in (0, 1], got {self.per_ceiling}")
        check_tau_grid(self.tau_grid)
        if self.constraint not in ("ceiling", "floor"):
            raise DomainError(f"unknown constraint direction {self.constraint!r}")

    def is_feasible(self, per):  # a number or an array
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
    per, tp = outcome_grid(problem.cfg_base, problem.channel, candidates, problem.kernel, problem.path_budget)
    frontier = tuple(map(FrontierPoint, candidates, per.tolist(), tp.tolist(), problem.is_feasible(per).tolist()))
    # the best feasible point, or failing that the best-effort minimum-PER one
    pool = [p for p in frontier if p.feasible] or frontier
    best = max(pool, key=lambda p: (p.throughput if p.feasible else -p.per, tie_key(p.taus)))
    return OptimizationReport(best.taus, best.per, best.throughput, best.feasible, frontier)


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
    candidates = [(1.0, t1, t2) for t1 in problem.tau_grid for t2 in problem.tau_grid if t2 <= t1]
    return _report(problem, candidates, lambda taus: (-(taus[1] + taus[2]), -taus[1]))


def sweep(problem: OptimizationProblem, snrs_db: Sequence[float]) -> list[OptimizationReport]:
    """One optimisation per SNR; the fading partition is reused across SNRs."""
    if len(snrs_db) == 0:
        raise DomainError("SNR list must be nonempty")
    for snr_db in snrs_db:
        check_real("SNR in dB", snr_db)
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


def reports_payload(reports: Sequence[OptimizationReport]) -> list[dict]:
    """The reports as JSON-ready records, frontier included."""
    return [
        {"snr_db": r.snr_db, "tau_hat": list(r.tau_hat), "per": r.achieved_per, "throughput": r.achieved_throughput,
         "feasible": r.feasible, "frontier": [asdict(p) for p in r.frontier]}
        for r in reports
    ]
