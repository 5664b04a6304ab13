"""HARQ outcome probabilities over the finite-state Markov channel.

outcomes_fading telescopes the path-averaged errors A_1..A_m that
outcomes.prefix_error_grid computes on an FsmcModel, exactly as in the
fixed-SNR case: p_0 = 1 - A_1, p_i = A_i - A_{i+1}, p_e = A_m.  Its
sampled counterpart is montecarlo.simulate_harq on the same model.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fbl import DEFAULT_KERNEL, KernelOptions, check_snr
from .fsmc import FsmcModel
from .outcomes import (DEFAULT_PATH_BUDGET, HarqConfig, OutcomeDistribution, distribution_from_prefix_errors,
                       prefix_error_grid)


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


def outcomes_fading(query: FadingOutcomeQuery) -> OutcomeDistribution:
    """Exact resolution-event distribution over the Markov fading channel.

    With a single-state model this reduces to the fixed-SNR distribution at
    that state's SNR.
    """
    A = prefix_error_grid([query.cfg], query.model, query.kernel, query.path_budget)
    return distribution_from_prefix_errors(tuple(A[:, 0].tolist()))
