"""Grid search of retransmission coefficients under a PER ceiling.

A channel is either a linear SNR or an FsmcModel.  outcome_grid evaluates
a whole grid of candidate taus in one batch and returns PER and throughput
as arrays, one entry per candidate; at_snr moves a channel to another mean
SNR.  The feasible candidate with the highest throughput wins.  Ties break
toward the shorter retransmission, which also means less queueing delay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DB, NONNEGATIVE_FINITE, PROBABILITY, REAL, SEQUENCE, Domain, DomainError, check_arg, check_fields
from .fading import outcomes_fading  # noqa: F401  harqbench's traced-run test reads it from this module
from .fbl import DEFAULT_KERNEL, KernelOptions, db_to_linear
from .fsmc import FsmcModel
from .outcomes import DEFAULT_PATH_BUDGET, HarqConfig, _chain, _walk, tau_matrix, telescope, throughput_grid

_UNIT = Domain("a real number in (0, 1]", lambda x: 0.0 < x <= 1.0)
COARSE_TAU_GRID = tuple(round(0.1 * i, 2) for i in range(1, 11))
FINE_TAU_GRID = tuple(round(0.01 * i, 2) for i in range(1, 101))


def outcome_grid(cfg_base: HarqConfig, channel: float | FsmcModel,
                 candidates: Sequence[tuple[float, ...]] | np.ndarray,
                 kernel: KernelOptions = DEFAULT_KERNEL,
                 path_budget: int = DEFAULT_PATH_BUDGET) -> tuple[np.ndarray, np.ndarray]:
    """(PER, throughput) arrays of cfg_base with each candidate taus (rows, checked), in one batch."""
    taus = tau_matrix(check_arg("cfg_base", cfg_base, HarqConfig).scheme, cfg_base.m, candidates)
    p, p_e = telescope(_walk(cfg_base, taus, *_chain(channel), kernel, path_budget))
    return p_e, throughput_grid(cfg_base, taus, p, p_e)


def at_snr(channel: float | FsmcModel, snr_db: float) -> float | FsmcModel:
    """The same channel at mean SNR snr_db; a model keeps its partition."""
    if isinstance(channel, FsmcModel):
        return channel.with_avg_snr(db_to_linear(snr_db))
    return db_to_linear(snr_db)


def check_tau_grid(grid: Sequence[float]) -> None:
    """A tau grid is nonempty and strictly increasing within (0, 1]."""
    last = 0.0
    for t in check_arg("tau grid", grid, SEQUENCE):
        if check_arg("tau grid entry", t, _UNIT) <= last:
            raise DomainError("tau grid must be strictly increasing within (0, 1]")
        last = t


class FrontierPoint(NamedTuple):
    taus: tuple[float, ...]
    per: float
    throughput: float
    feasible: bool


@dataclass(frozen=True)
class OptimizationProblem:
    """Throughput maximisation over tau subject to a residual-PER ceiling.

    channel is either a linear SNR (fixed-SNR evaluation) or an FsmcModel.
    A point is feasible when its PER <= per_ceiling.
    """

    cfg_base: HarqConfig
    channel: float | FsmcModel
    per_ceiling: float
    tau_grid: tuple[float, ...] = COARSE_TAU_GRID
    kernel: KernelOptions = DEFAULT_KERNEL
    path_budget: int = DEFAULT_PATH_BUDGET

    def __post_init__(self) -> None:
        if not isinstance(self.channel, FsmcModel):  # _chain's rule, checked before any entry point
            check_arg("a channel that is not an FsmcModel", self.channel, REAL)
        check_fields(self, cfg_base=HarqConfig, per_ceiling=_UNIT)
        check_tau_grid(self.tau_grid)


@dataclass(frozen=True)
class OptimizationReport:
    """Winner plus the full (tau, PER, throughput) frontier.

    When no grid point meets the PER ceiling, feasible is False and the
    reported point is the best-effort minimum-PER one.
    """

    tau_hat: tuple[float, ...]
    achieved_per: float
    achieved_throughput: float
    feasible: bool
    frontier: tuple[FrontierPoint, ...]
    snr_db: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        check_fields(self, tau_hat=SEQUENCE, achieved_per=PROBABILITY, achieved_throughput=NONNEGATIVE_FINITE,
                     feasible=bool, frontier=SEQUENCE, **{"snr_db": DB} if self.snr_db is not None else {})


def _report(problem: OptimizationProblem, candidates: list[tuple[float, ...]], ties: tuple[np.ndarray, ...],
            per: np.ndarray, tp: np.ndarray, snr_db: float | None = None) -> OptimizationReport:
    feasible = per <= problem.per_ceiling
    rows = zip(candidates, per.tolist(), tp.tolist(), feasible.tolist())
    frontier = tuple(map(tuple.__new__, repeat(FrontierPoint), rows))  # FrontierPoint(*row) without its __new__
    # the feasible point of highest throughput, or failing that the one of lowest PER, then the tie keys
    best = frontier[np.lexsort((*ties, np.where(feasible, -tp, per), ~feasible))[0]]
    return OptimizationReport(*best, frontier, snr_db)


def triangle_candidates(grid: Sequence[float]) -> list[tuple[float, float, float]]:
    """The m = 3 candidates (1, t1, t2) with t2 <= t1 over the grid, t1 in the outer loop."""
    return [(1.0, t1, t2) for t1 in grid for t2 in grid if t2 <= t1]


def _candidates(problem: OptimizationProblem, name: str, *ms: int):
    """The candidates of an m = 2 or m = 3 problem, their checked matrix and its tie keys,
    most significant last: the smaller tau1 wins for m = 2, the smaller tau1 + tau2
    and then the smaller tau1 for m = 3."""
    if (m := check_arg("problem", problem, OptimizationProblem).cfg_base.m) not in ms:
        raise DomainError(f"{name} needs m = {' or '.join(map(str, ms))}, got m = {m}")
    candidates = [(1.0, t) for t in problem.tau_grid] if m == 2 else triangle_candidates(problem.tau_grid)
    taus = tau_matrix(problem.cfg_base.scheme, m, candidates)
    return candidates, taus, (taus[:, 1],) if m == 2 else (taus[:, 1], taus[:, 1] + taus[:, 2])


def _optimize(problem: OptimizationProblem, name: str, m: int) -> OptimizationReport:
    candidates, taus, ties = _candidates(problem, name, m)
    per_tp = outcome_grid(problem.cfg_base, problem.channel, taus, problem.kernel, problem.path_budget)
    return _report(problem, candidates, ties, *per_tp)


def optimize_tau1(problem: OptimizationProblem) -> OptimizationReport:
    """Best single retransmission coefficient for an m = 2 configuration."""
    return _optimize(problem, "optimize_tau1", 2)


def optimize_tau12(problem: OptimizationProblem) -> OptimizationReport:
    """Best (tau1, tau2) with tau2 <= tau1 for an m = 3 configuration.

    Ties break lexicographically toward the smaller tau1 + tau2, then the
    smaller tau1.
    """
    return _optimize(problem, "optimize_tau12", 3)


def sweep(problem: OptimizationProblem, snrs_db: Sequence[float]) -> list[OptimizationReport]:
    """One optimisation per SNR, of tau1 (m = 2) or (tau1, tau2) (m = 3); the
    candidates, the fading partition and one path walk serve every SNR."""
    check_arg("SNR list snrs_db", snrs_db, SEQUENCE)
    candidates, taus, ties = _candidates(problem, "sweep", 2, 3)
    chains = [_chain(at_snr(problem.channel, snr_db)) for snr_db in snrs_db]
    q, P, _ = chains[0]  # at_snr keeps a model's q and P
    A = _walk(problem.cfg_base, taus, q, P, np.array([c[2] for c in chains]), problem.kernel, problem.path_budget)
    # one SNR at a time, so that telescope's temporaries stay one frontier long
    rates = ((per, throughput_grid(problem.cfg_base, taus, p, per)) for p, per in map(telescope, A.swapaxes(0, 1)))
    return [_report(problem, candidates, ties, *r, snr_db) for r, snr_db in zip(rates, snrs_db)]


def reports_payload(reports: Sequence[OptimizationReport]) -> list[dict]:
    """The reports as JSON-ready records, frontier included."""
    return [
        {"snr_db": r.snr_db, "tau_hat": list(r.tau_hat), "per": r.achieved_per, "throughput": r.achieved_throughput,
         "feasible": r.feasible, "frontier": [p._asdict() for p in r.frontier]}
        for r in reports
    ]
