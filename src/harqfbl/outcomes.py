"""HARQ resolution-event probabilities and throughput.

A packet is resolved either by a success after exactly i retransmissions
(probability p_i, i = 0 .. m-1) or by exhausting all m transmissions
(residual error p_e).  With A_j the expected combined-decoder error
probability after j rounds, the chain of nested failure events gives

    p_0 = 1 - A_1,    p_i = A_i - A_{i+1},    p_e = A_m.

On the finite-state Markov channel the first transmission's state is drawn
from the marginal q and each retransmission advances the chain one step:

    A_j = sum over state paths (l_0 .. l_{j-1}) of
          q_{l_0} * prod P_{l_{i-1}, l_i} * eps_j(path SNRs).

A fixed SNR is the one-state chain.  prefix_error_grid is the one place
that computes A_1..A_m: it walks the state paths breadth-first over the
nonzero transitions, and one fbl.round_stepper step advances all live
paths of a depth for a batch of tau candidates.  The worst-case node
count sum_j L^j is checked against an enumeration budget first; the
sampled counterpart, montecarlo.simulate_harq on a model, needs none.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import DomainError, HarqFblError, ResourceLimitError
from .fbl import DEFAULT_KERNEL, CodeParams, KernelOptions, Scheme, check_length, check_snr, round_stepper
from .fsmc import FsmcModel

DEFAULT_PATH_BUDGET = 10_000_000
_BLOCK_ELEMENTS = 1 << 12  # live paths x configurations per kernel step


def round_lengths(taus, n: int) -> np.ndarray:
    """Symbols per round, tau*n rounded to nearest with a floor of 1, per element."""
    return np.maximum(1, np.floor(np.asarray(taus, dtype=float) * n + 0.5)).astype(np.int64)


@dataclass(frozen=True)
class HarqConfig:
    """Code, combining scheme, transmission budget m and coefficients tau.

    taus[0] is the first transmission and must be 1; retransmission i sends
    round_lengths()[i] = round(taus[i] * n) symbols.  Chase combining always
    repeats the whole codeword, so it requires all-ones taus.
    """

    code: CodeParams
    scheme: Scheme
    m: int
    taus: tuple[float, ...]

    def __post_init__(self) -> None:
        check_length("transmission budget m", self.m)
        if len(self.taus) != self.m:
            raise DomainError(f"expected {self.m} coefficients, got {len(self.taus)}")
        if self.taus[0] != 1.0:
            raise DomainError(f"tau_0 must be 1, got {self.taus[0]}")
        for t in self.taus:
            if not 0.0 < t <= 1.0:
                raise DomainError(f"coefficients must lie in (0, 1], got {t}")
        if self.scheme is Scheme.CC and any(t != 1.0 for t in self.taus):
            raise DomainError("chase combining repeats the full codeword; all taus must be 1")

    def round_lengths(self) -> tuple[int, ...]:
        """Symbol count per round; see round_lengths."""
        return tuple(round_lengths(self.taus, self.code.n).tolist())

    def with_taus(self, taus: tuple[float, ...]) -> "HarqConfig":
        return replace(self, taus=taus)

    def cumulative_slots(self) -> tuple[float, ...]:
        """Slot cost of resolving at round i: sum of taus[0..i]."""
        out = []
        acc = 0.0
        for t in self.taus:
            acc += t
            out.append(acc)
        return tuple(out)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities of the m success events plus the residual error."""

    p: tuple[float, ...]
    p_e: float

    def __post_init__(self) -> None:
        for x in (*self.p, self.p_e):
            if not -1e-12 <= x <= 1.0 + 1e-12:
                raise DomainError(f"outcome probability out of range: {x}")

    @property
    def total(self) -> float:
        return sum(self.p) + self.p_e


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


def distribution_from_prefix_errors(eps: tuple[float, ...]) -> OutcomeDistribution:
    """Telescope A_1..A_m into an OutcomeDistribution.

    Floating-point can make eps_i - eps_{i+1} negative by a few ulps; such
    terms are floored at zero and the defect is folded into p_0 so the
    distribution still sums to one.
    """
    m = len(eps)
    p = [1.0 - eps[0]]
    defect = 0.0
    for i in range(1, m):
        d = eps[i - 1] - eps[i]
        if d < 0.0:
            defect += -d
            d = 0.0
        p.append(d)
    p_e = eps[m - 1]
    p[0] = max(0.0, p[0] - defect)
    return OutcomeDistribution(tuple(p), p_e)


def outcomes_awgn(cfg: HarqConfig, gamma: float, kernel: KernelOptions = DEFAULT_KERNEL) -> OutcomeDistribution:
    """Resolution-event distribution when every round sees the same SNR."""
    return distribution_from_prefix_errors(tuple(prefix_error_grid([cfg], gamma, kernel)[:, 0].tolist()))


def throughput(cfg: HarqConfig, outcome: OutcomeDistribution) -> float:
    """Delivered information bits per symbol-slot.

    (k/n) * (1 - p_e) / expected slot cost, where a success at round i costs
    taus[0] + ... + taus[i] slots and an exhausted packet costs the full
    sum of coefficients.  Upper-bounded by k/n.
    """
    slots = cfg.cumulative_slots()
    den = outcome.p[0] * slots[0]
    for i in range(1, cfg.m):
        den += outcome.p[i] * slots[i]
    den += outcome.p_e * slots[-1]
    if den <= 0.0:
        raise HarqFblError(f"nonpositive expected slot cost {den} for a valid outcome")
    return cfg.code.rate * (1.0 - outcome.p_e) / den
