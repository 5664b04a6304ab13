"""Delay distributions on an exact rational slot lattice.

A resolved packet occupies 1, 1 + tau_1, ..., or sum(tau) slots; support
points are represented as fractions so N-fold convolutions never suffer
floating-point key collisions and the two-round binomial closed form can be
matched atom for atom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError, ResourceLimitError
from .fbl import check_length
from .outcomes import HarqConfig, OutcomeDistribution

_TAU_DENOMINATOR_LIMIT = 1_000_000
DEFAULT_ATOM_BUDGET = 1_000_000
PRUNE_MASS = 1e-15


def _as_fraction(x: float | Fraction) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x).limit_denominator(_TAU_DENOMINATOR_LIMIT)


@dataclass(frozen=True)
class DelayPmf:
    """Probability masses on a strictly increasing rational support."""

    support: tuple[Fraction, ...]
    mass: tuple[float, ...]
    pruned_mass: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if len(self.support) != len(self.mass) or not self.support:
            raise DomainError("support and mass must be equal-length and nonempty")
        for a, b in zip(self.support, self.support[1:]):
            if not a < b:
                raise DomainError("support must be strictly increasing")
        if any(m < 0.0 for m in self.mass):
            raise DomainError("masses must be nonnegative")

    @property
    def total(self) -> float:
        return sum(self.mass) + self.pruned_mass

    def mean(self) -> float:
        return sum(float(d) * m for d, m in zip(self.support, self.mass))

    @classmethod
    def from_atoms(cls, atoms: dict[Fraction, float], pruned: float = 0.0) -> "DelayPmf":
        keys = sorted(atoms)
        return cls(tuple(keys), tuple(atoms[k] for k in keys), pruned)


def single_packet_delay(cfg: HarqConfig, outcome: OutcomeDistribution) -> DelayPmf:
    """Atoms at the cumulative slot costs of each resolution event.

    A success at the last round and an exhausted packet take the same time,
    so their masses merge on one support point.
    """
    taus = [_as_fraction(t) for t in cfg.taus]
    atoms: dict[Fraction, float] = {}
    acc = Fraction(0)
    cum = []
    for t in taus:
        acc += t
        cum.append(acc)
    for i in range(cfg.m):
        atoms[cum[i]] = atoms.get(cum[i], 0.0) + outcome.p[i]
    atoms[cum[-1]] = atoms.get(cum[-1], 0.0) + outcome.p_e
    return DelayPmf.from_atoms(atoms)


class _Lattice:
    """A PMF on the integer lattice offset + step * index (units of 1/denom)."""

    __slots__ = ("offset", "step", "mass")

    def __init__(self, offset: int, step: int, mass: np.ndarray):
        self.offset = offset
        self.step = step
        self.mass = mass

    def convolve(self, other: "_Lattice") -> "_Lattice":
        assert self.step == other.step
        return _Lattice(
            self.offset + other.offset, self.step, np.convolve(self.mass, other.mass)
        )

    def shrink(self, budget: int) -> float:
        """Zero sub-threshold masses and trim the tails when over budget."""
        if len(self.mass) <= budget:
            return 0.0
        tiny = self.mass < PRUNE_MASS
        dropped = float(self.mass[tiny].sum())
        self.mass = np.where(tiny, 0.0, self.mass)
        nonzero = np.nonzero(self.mass)[0]
        if len(nonzero) == 0:
            raise ResourceLimitError("all probability mass pruned; lattice budget too small")
        lo, hi = int(nonzero[0]), int(nonzero[-1])
        self.offset += lo * self.step
        self.mass = self.mass[lo : hi + 1]
        if len(self.mass) > budget:
            raise ResourceLimitError(
                f"convolution lattice spans {len(self.mass)} points, over the budget of "
                f"{budget}; quantise the coefficients to a coarser slot grid"
            )
        return dropped


def _to_lattice(pmf: DelayPmf) -> tuple[_Lattice, int]:
    denom = math.lcm(*(d.denominator for d in pmf.support))
    ints = [int(d * denom) for d in pmf.support]
    step = math.gcd(*(i - ints[0] for i in ints)) if len(ints) > 1 else 1
    size = (ints[-1] - ints[0]) // step + 1
    mass = np.zeros(size)
    for i, m in zip(ints, pmf.mass):
        mass[(i - ints[0]) // step] = m
    return _Lattice(ints[0], step, mass), denom


def stream_delay(pmf: DelayPmf, n_packets: int, atom_budget: int = DEFAULT_ATOM_BUDGET) -> DelayPmf:
    """Total-delay PMF of n_packets back-to-back packets.

    Exact n-fold self-convolution by binary exponentiation on the integer
    lattice spanned by the support.  When the lattice outgrows the budget,
    masses below 1e-15 are zeroed and the lattice tails trimmed; the
    dropped mass is reported on the result, and a lattice that stays too
    large raises.
    """
    check_length("packet count n_packets", n_packets)
    base, denom = _to_lattice(pmf)
    result: _Lattice | None = None
    pruned = 0.0
    n = n_packets
    while n > 0:
        if n & 1:
            result = result.convolve(base) if result is not None else _Lattice(
                base.offset, base.step, base.mass.copy()
            )
            pruned += result.shrink(atom_budget)
        n >>= 1
        if n:
            base = base.convolve(base)
            pruned += base.shrink(atom_budget)
    assert result is not None
    atoms = {
        Fraction(result.offset + i * result.step, denom): float(m)
        for i, m in enumerate(result.mass)
        if m > 0.0
    }
    return DelayPmf.from_atoms(atoms, pruned + pmf.pruned_mass * n_packets)


def binomial_stream_delay(n_packets: int, tau1: float | Fraction, p_fail: float) -> DelayPmf:
    """Closed-form N-packet delay for a two-round scheme.

    With per-packet failure probability p_fail, i first-try successes leave
    N - i packets costing an extra tau1 slots each, so the total delay is
    (1 + tau1) * N - i * tau1 with binomial mass C(N, i) (1-p)^i p^(N-i).
    Serves as the independent oracle for the convolution engine; with
    tau1 = 1 (chase combining) the support is {N .. 2N}.  Masses are taken
    in log space from the exact C(N, i), so those below the float range are 0.
    """
    check_length("packet count n_packets", n_packets)
    if not 0.0 <= p_fail <= 1.0:
        raise DomainError(f"failure probability out of range: {p_fail}")
    if not math.isfinite(tau1):
        raise DomainError(f"tau1 must be finite, got {tau1}")
    t = _as_fraction(tau1)
    atoms: dict[Fraction, float] = {}
    for i in range(n_packets + 1):
        d = (1 + t) * n_packets - i * t
        log_mass = math.log(math.comb(n_packets, i))
        for x, e in ((1.0 - p_fail, i), (p_fail, n_packets - i)):  # log(x ** e), 0 ** 0 = 1
            log_mass += 0.0 if e == 0 else (e * math.log(x) if x > 0.0 else -math.inf)
        atoms[d] = atoms.get(d, 0.0) + math.exp(log_mass)
    return DelayPmf.from_atoms(atoms)


def _suffix_tails(mass: tuple[float, ...]) -> list[float]:
    """P(X > support[j]) by right-to-left accumulation; last entry exactly 0."""
    tails = [0.0] * len(mass)
    acc = 0.0
    for j in range(len(mass) - 1, 0, -1):
        acc += mass[j]
        tails[j - 1] = min(1.0, acc)
    return tails


def overhead_ccdf(stream: DelayPmf, n_packets: int) -> list[tuple[float, float]]:
    """Tail distribution of the per-packet delay overhead (d - N) / N.

    Zero overhead means every packet went through on its first try; the
    curve starts at 1 below the smallest support point and ends at 0.
    """
    check_length("packet count n_packets", n_packets)
    tails = _suffix_tails(stream.mass)
    return [
        (float((d - n_packets) / n_packets), t) for d, t in zip(stream.support, tails)
    ]
