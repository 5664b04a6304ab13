"""HARQ resolution-event probabilities and throughput on a fixed-SNR channel.

A packet is resolved either by a success after exactly i retransmissions
(probability p_i, i = 0 .. m-1) or by exhausting all m transmissions
(residual error p_e).  With eps_j the combined-decoder error probability
after j rounds, the chain of nested failure events gives

    p_0 = 1 - eps_1,    p_i = eps_i - eps_{i+1},    p_e = eps_m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from .errors import DomainError, HarqFblError
from .fbl import DEFAULT_KERNEL, CodeParams, KernelOptions, Scheme, check_snr, round_stepper


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
    require_nonincreasing: bool = False

    def __post_init__(self) -> None:
        if self.m < 1:
            raise DomainError(f"m must be >= 1, got {self.m}")
        if len(self.taus) != self.m:
            raise DomainError(f"expected {self.m} coefficients, got {len(self.taus)}")
        if self.taus[0] != 1.0:
            raise DomainError(f"tau_0 must be 1, got {self.taus[0]}")
        for t in self.taus:
            if not 0.0 < t <= 1.0:
                raise DomainError(f"coefficients must lie in (0, 1], got {t}")
        if self.scheme is Scheme.CC and any(t != 1.0 for t in self.taus):
            raise DomainError("chase combining repeats the full codeword; all taus must be 1")
        if self.require_nonincreasing:
            for a, b in zip(self.taus[1:], self.taus[2:]):
                if b > a:
                    raise DomainError(f"retransmission coefficients must be nonincreasing, got {self.taus}")

    def round_lengths(self) -> tuple[int, ...]:
        """Symbol count per round; tau*n rounded to nearest, floor 1."""
        return tuple(max(1, int(math.floor(t * self.code.n + 0.5))) for t in self.taus)

    def stepper(self, kernel: KernelOptions = DEFAULT_KERNEL) -> tuple[Callable, object]:
        """The kernel's round stepper for this code, scheme and round lengths."""
        return round_stepper(self.code, self.round_lengths(), self.scheme, kernel)

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

    def check_normalised(self, tol: float = 1e-9) -> None:
        if abs(self.total - 1.0) > tol:
            raise DomainError(f"outcome probabilities sum to {self.total}, not 1")


def prefix_error_probs(cfg: HarqConfig, gamma: float, kernel: KernelOptions = DEFAULT_KERNEL) -> tuple[float, ...]:
    """eps_j for j = 1..m rounds, all rounds at the same SNR."""
    check_snr(gamma)
    step, carry = cfg.stepper(kernel)
    eps = []
    for depth in range(cfg.m):
        carry, e = step(carry, depth, gamma)
        eps.append(e)
    return tuple(eps)


def distribution_from_prefix_errors(eps: tuple[float, ...]) -> OutcomeDistribution:
    """Telescope eps_1..eps_m into an OutcomeDistribution.

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
    return distribution_from_prefix_errors(prefix_error_probs(cfg, gamma, kernel))


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
