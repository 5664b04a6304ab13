"""HARQ outcome probabilities over the finite-state Markov channel.

The first transmission's state is drawn from the marginal q; each
retransmission advances the chain one step.  Writing A_j for the expected
error probability after j combined rounds,

    A_j = sum over state paths (l_0 .. l_{j-1}) of
          q_{l_0} * prod P_{l_{i-1}, l_i} * eps_j(path SNRs),

the outcome distribution telescopes exactly as in the fixed-SNR case:
p_0 = 1 - A_1, p_i = A_i - A_{i+1}, p_e = A_m.

expected_prefix_errors is the one state-path enumeration: a depth-first
walk that skips zero transitions and carries the kernel's running sums, so
each tree node costs one step of fbl.round_stepper.  The worst-case node
count sum_j L^j is checked against an enumeration budget first.  Its
sampled counterpart, montecarlo.outcomes_fading_mc_check, needs no budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ResourceLimitError
from .fbl import DEFAULT_KERNEL, KernelOptions, check_snr
from .fsmc import FsmcModel
from .outcomes import HarqConfig, OutcomeDistribution, distribution_from_prefix_errors

DEFAULT_PATH_BUDGET = 10_000_000


def _check_budget(n_states: int, m: int, budget: int) -> None:
    nodes = 0
    power = 1
    for _ in range(m):
        power *= n_states
        nodes += power
        if nodes > budget:
            raise ResourceLimitError(
                f"state-path enumeration needs {nodes}+ nodes for L={n_states}, m={m}, "
                f"exceeding the budget of {budget}; use the Monte Carlo estimator instead"
            )


@dataclass(frozen=True)
class FadingOutcomeQuery:
    """An HARQ configuration and the channel model to evaluate it on (SNRs checked)."""

    cfg: HarqConfig
    model: FsmcModel
    kernel: KernelOptions = DEFAULT_KERNEL
    path_budget: int = DEFAULT_PATH_BUDGET

    def __post_init__(self) -> None:
        for g in self.model.state_snrs:
            check_snr(g)


def expected_prefix_errors(query: FadingOutcomeQuery) -> tuple[float, ...]:
    """A_1 .. A_m: path-averaged PER after each number of combined rounds."""
    cfg, model = query.cfg, query.model
    L, m = model.n_states, cfg.m
    _check_budget(L, m, query.path_budget)
    step, start = cfg.stepper(query.kernel)
    P, snrs = model.transitions, model.state_snrs
    A = [0.0] * m

    def walk(state: int, depth: int, prob: float, carry) -> None:
        carry, eps = step(carry, depth, snrs[state])
        A[depth] += prob * eps
        depth += 1
        if depth < m:
            row = P[state]
            for nxt in range(L):
                p = row[nxt]
                if p > 0.0:
                    walk(nxt, depth, prob * p, carry)

    for l0 in range(L):
        if model.q[l0] > 0.0:
            walk(l0, 0, model.q[l0], start)
    return tuple(A)


def outcomes_fading(query: FadingOutcomeQuery) -> OutcomeDistribution:
    """Exact resolution-event distribution over the Markov fading channel.

    With a single-state model this reduces to the fixed-SNR distribution at
    that state's SNR.
    """
    return distribution_from_prefix_errors(expected_prefix_errors(query))
