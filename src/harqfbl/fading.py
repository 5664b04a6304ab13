"""HARQ outcome probabilities over the finite-state Markov channel.

outcomes_fading is outcomes.outcome_on on an FsmcModel: the path-averaged
errors A_1..A_m telescope exactly as in the fixed-SNR case, p_0 = 1 - A_1,
p_i = A_i - A_{i+1}, p_e = A_m.  It stays a function of its own, taking a
FadingOutcomeQuery, because the benchmark harness (harqbench) names and
traces it.  Its sampled counterpart is montecarlo.simulate_harq on the
same model.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import check_arg, check_fields
from .fbl import DEFAULT_KERNEL, KernelOptions
from .fsmc import FsmcModel
from .outcomes import DEFAULT_PATH_BUDGET, HarqConfig, OutcomeDistribution, outcome_on


@dataclass(frozen=True)
class FadingOutcomeQuery:
    """An HARQ configuration and the channel model to evaluate it on; outcomes_fading checks the rest."""

    cfg: HarqConfig
    model: FsmcModel
    kernel: KernelOptions = DEFAULT_KERNEL
    path_budget: int = DEFAULT_PATH_BUDGET

    def __post_init__(self) -> None:
        check_fields(self, cfg=HarqConfig, model=FsmcModel)


def outcomes_fading(query: FadingOutcomeQuery) -> OutcomeDistribution:
    """Exact resolution-event distribution over the Markov fading channel.

    With a single-state model this reduces to the fixed-SNR distribution at
    that state's SNR.
    """
    check_arg("query", query, FadingOutcomeQuery)
    return outcome_on(query.cfg, query.model, query.kernel, query.path_budget)
