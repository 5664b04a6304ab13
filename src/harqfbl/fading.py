"""HARQ outcome probabilities over the finite-state Markov channel.

The first transmission's state is drawn from the marginal q; each
retransmission advances the chain one step.  Writing A_j for the expected
error probability after j combined rounds,

    A_j = sum over state paths (l_0 .. l_{j-1}) of
          q_{l_0} * prod P_{l_{i-1}, l_i} * eps_j(path SNRs),

the outcome distribution telescopes exactly as in the fixed-SNR case:
p_0 = 1 - A_1, p_i = A_i - A_{i+1}, p_e = A_m.

prefix_error_grid is the one state-path enumeration, breadth-first over
the nonzero transitions: one fbl.round_stepper step advances all live
paths of a depth, for a batch of tau candidates.  The worst-case node
count sum_j L^j is checked against an enumeration budget first.  Its
sampled counterpart, montecarlo.outcomes_fading_mc_check, needs no budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ResourceLimitError
from .fbl import DEFAULT_KERNEL, KernelOptions, check_snr, round_stepper
from .fsmc import FsmcModel
from .outcomes import HarqConfig, OutcomeDistribution, distribution_from_prefix_errors, round_lengths

DEFAULT_PATH_BUDGET = 10_000_000
_BLOCK_ELEMENTS = 1 << 12  # live paths x configurations per kernel step


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


def prefix_error_grid(cfgs: Sequence[HarqConfig], channel: float | FsmcModel,
                      kernel: KernelOptions = DEFAULT_KERNEL,
                      path_budget: int = DEFAULT_PATH_BUDGET) -> np.ndarray:
    """A_1..A_m (rows) of configurations that differ only in taus (columns).

    A linear SNR is the one-state chain.  Each kernel step takes one depth's
    live paths for a block of at most _BLOCK_ELEMENTS paths x configurations.
    """
    cfg = cfgs[0]
    chain = ((1.0,), ((1.0,),), (channel,))  # a linear SNR
    if isinstance(channel, FsmcModel):
        chain = (channel.q, channel.transitions, channel.state_snrs)
    q, P, snrs = (np.asarray(x, dtype=float) for x in chain)
    check_snr(snrs.min())  # NaN propagates, so it fails too
    _check_budget(len(q), cfg.m, path_budget)
    # live paths of each depth: last state, probability, index of the parent path
    state = np.flatnonzero(q > 0.0)
    levels = [(state, q[state], None)]
    for _ in range(1, cfg.m):
        state, prob, _ = levels[-1]
        parent, nxt = np.nonzero(P[state] > 0.0)
        levels.append((nxt, prob[parent] * P[state[parent], nxt], parent))
    lengths = round_lengths([c.taus for c in cfgs], cfg.code.n).T[:, :, None]
    width = max(1, _BLOCK_ELEMENTS // max(len(level[0]) for level in levels))
    A = np.empty((cfg.m, len(cfgs)))
    for lo in range(0, len(cfgs), width):
        step, carry = round_stepper(cfg.code, lengths[:, lo:lo + width], cfg.scheme, kernel)
        for depth, (state, prob, parent) in enumerate(levels):
            if parent is not None:
                carry = tuple(c[..., parent] for c in carry)
            carry, eps = step(carry, depth, snrs[state])
            A[depth, lo:lo + width] = (prob * eps).sum(axis=-1)
    return A


def expected_prefix_errors(query: FadingOutcomeQuery) -> tuple[float, ...]:
    """A_1 .. A_m: path-averaged PER after each number of combined rounds."""
    A = prefix_error_grid([query.cfg], query.model, query.kernel, query.path_budget)
    return tuple(A[:, 0].tolist())


def outcomes_fading(query: FadingOutcomeQuery) -> OutcomeDistribution:
    """Exact resolution-event distribution over the Markov fading channel.

    With a single-state model this reduces to the fixed-SNR distribution at
    that state's SNR.
    """
    return distribution_from_prefix_errors(expected_prefix_errors(query))
