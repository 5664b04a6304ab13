"""Finite-blocklength packet error rate kernels.

The achievable packet error rate of an (n, k) code is approximated by a
Q-function of (capacity term - rate term) / dispersion term.  Two HARQ
combining disciplines are covered:

  - chase combining: every round repeats the full codeword and the receiver
    adds SNRs (maximum ratio combining), so only the SNR total matters;
  - incremental redundancy: round i contributes n_i fresh codeword symbols
    at its own SNR, lengthening the effective code.

round_stepper is the one place the Q-function argument is evaluated, on
numpy arrays over tau candidates x state paths or over packets.  per_cc,
per_ir, the path walk outcomes.prefix_error_grid and the Monte Carlo
simulator all call it.  Probabilities are clamped to [0, 1].
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError

_SQRT2 = math.sqrt(2.0)

#: log2(e)^2, converts a dispersion from nats^2 to bits^2.
LOG2E_SQ = (1.0 / math.log(2.0)) ** 2


def db_to_linear(snr_db: float) -> float:
    """Convert an SNR in dB to a linear power ratio; inf dB stays inf."""
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError:
        raise DomainError(f"SNR of {snr_db} dB overflows a linear power ratio") from None


def linear_to_db(snr_linear: float) -> float:
    """Convert a linear SNR to dB; requires a positive argument."""
    if not snr_linear > 0.0:
        raise DomainError(f"linear SNR must be positive, got {snr_linear}")
    return 10.0 * math.log10(snr_linear)


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = 0.5 * erfc(x / sqrt(2)).

    Accurate to well below 1e-14 absolute error; raises on non-finite input.
    """
    if not math.isfinite(x):
        raise DomainError(f"q_function argument must be finite, got {x}")
    return 0.5 * math.erfc(x / _SQRT2)


def check_snr(gamma: float) -> None:
    # written so that NaN fails too; +inf is a valid, error-free SNR
    if not gamma >= 0.0:
        raise DomainError(f"SNR must be a nonnegative number, got {gamma}")


def check_length(name: str, value: int) -> None:
    # bool is an Integral subclass but never a length
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise DomainError(f"{name} must be a positive integer, got {value!r}")


def check_real(name: str, value: float) -> None:
    # bool is a Real subclass but never a quantity
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")


def channel_dispersion(gamma: float) -> float:
    """Channel dispersion V(gamma) = (1 - (1+gamma)^-2) * log2(e)^2 in bits^2.

    Nonnegative, nondecreasing in gamma, bounded above by log2(e)^2.
    """
    check_snr(gamma)
    return (1.0 - (1.0 + gamma) ** -2) * LOG2E_SQ


@dataclass(frozen=True)
class CodeParams:
    """Mother code dimensions: n symbols carrying k information bits."""

    n: int
    k: int

    def __post_init__(self) -> None:
        check_length("blocklength n", self.n)
        check_length("information length k", self.k)

    @property
    def rate(self) -> float:
        return self.k / self.n


@dataclass(frozen=True)
class TransmissionRecord:
    """Per-round SNRs and symbol counts of an incremental-redundancy session."""

    snrs: tuple[float, ...]
    lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.snrs) == 0:
            raise DomainError("transmission record must contain at least one round")
        if len(self.snrs) != len(self.lengths):
            raise DomainError(
                f"snrs and lengths must have equal length, got {len(self.snrs)} and {len(self.lengths)}"
            )
        for g in self.snrs:
            check_snr(g)
        for n_i in self.lengths:
            check_length("round length", n_i)


@dataclass(frozen=True)
class KernelOptions:
    """Conventions used inside the Q-function argument.

    dispersion_units
        "nats2" (default) uses v(gamma) = 1 - (1+gamma)^-2 directly in the
        denominator while the capacity and rate terms stay in bits; this is
        the calibration behind the bundled presets and the test suite's
        reference operating points.  "bits2" scales the dispersion by
        log2(e)^2, which is the fully bits-consistent normal approximation.
    cc_denominator
        "sqrt_nv" (default) divides by sqrt(n * V(sum of SNRs)).
        "n_sqrt_v" divides by n * sqrt(V), an alternative chase-combining
        normalisation kept for comparison; with it the one-round chase and
        incremental kernels no longer coincide.
    """

    dispersion_units: str = "nats2"
    cc_denominator: str = "sqrt_nv"

    def __post_init__(self) -> None:
        if self.dispersion_units not in ("nats2", "bits2"):
            raise DomainError(f"unknown dispersion_units {self.dispersion_units!r}")
        if self.cc_denominator not in ("sqrt_nv", "n_sqrt_v"):
            raise DomainError(f"unknown cc_denominator {self.cc_denominator!r}")

    @property
    def dispersion_scale(self) -> float:
        return 1.0 if self.dispersion_units == "nats2" else LOG2E_SQ


DEFAULT_KERNEL = KernelOptions()


class Scheme(str, Enum):
    CC = "CC"
    IR = "IR"


def _eps(cap, k: int, numerator, d, denom) -> np.ndarray:
    # Q(numerator / denom) by math.erfc per element (no scipy); zero dispersion d decides on cap > k
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.asarray(numerator / denom) / _SQRT2
    q = np.fromiter(map(math.erfc, x.ravel()), float, x.size).reshape(x.shape)
    return np.where(d == 0.0, (cap <= k).astype(float), np.minimum(np.maximum(0.5 * q, 0.0), 1.0))


def round_stepper(
    code: CodeParams, lengths, scheme: Scheme, kernel: KernelOptions = DEFAULT_KERNEL
) -> tuple[Callable, object]:
    """The finite-blocklength kernel as step(carry, depth, gamma) -> (carry, eps).

    step adds round `depth` (0-based), received at SNR gamma, to the carry of
    the rounds before it and returns the new carry with the decoder error
    eps after depth + 1 rounds.  Returns (step, carry before any round).
    lengths ((m,) or (m, candidates, 1)), gamma and the carry (a tuple of
    arrays) broadcast, so eps holds one error per candidate x path, or per
    packet.

    Chase combining carries the SNR total and repeats the n-symbol codeword;
    incremental redundancy carries the accumulated capacity and dispersion
    (nats^2, scaled at evaluation) of lengths[0..depth].  Zero dispersion
    decides on capacity against k, and an infinite SNR gives eps = 0.
    Callers validate the SNRs.
    """
    n, k = code.n, code.k
    scale = kernel.dispersion_scale
    # np.power, not **, so that scalars and arrays round alike
    if scheme is Scheme.CC:
        log2_n = math.log2(n)
        root_nv = kernel.cc_denominator == "sqrt_nv"

        def step_cc(carry, depth, gamma):
            gsum = carry[0] + gamma
            cap = n * np.log2(1.0 + gsum)
            v = (1.0 - np.power(1.0 + gsum, -2.0)) * scale
            return (gsum,), _eps(cap, k, cap - k + log2_n, v, np.sqrt(n * v) if root_nv else n * np.sqrt(v))

        return step_cc, (0.0,)

    lengths = np.asarray(lengths)
    log2_total = np.log2(np.cumsum(lengths, axis=0))

    def step_ir(carry, depth, gamma):
        cap = carry[0] + lengths[depth] * np.log2(1.0 + gamma)
        disp = carry[1] + lengths[depth] * (1.0 - np.power(1.0 + gamma, -2.0))
        d = disp * scale
        return (cap, disp), _eps(cap, k, cap - k + log2_total[depth], d, np.sqrt(d))

    return step_ir, (0.0, 0.0)


def per_cc(code: CodeParams, snrs: Sequence[float], kernel: KernelOptions = DEFAULT_KERNEL) -> float:
    """PER after chase-combining the given rounds; SNRs add coherently.

    The total is summed exactly rounded (math.fsum), so m rounds at g equal
    one round at g*m.  An all-zero SNR total carries no information, so the
    error probability is 1 for any k >= 1.
    """
    if len(snrs) == 0:
        raise DomainError("per_cc needs at least one transmission")
    for g in snrs:
        check_snr(g)
    step, carry = round_stepper(code, (code.n,), Scheme.CC, kernel)
    return float(step(carry, 0, math.fsum(snrs))[1])


def per_ir(code: CodeParams, record: TransmissionRecord, kernel: KernelOptions = DEFAULT_KERNEL) -> float:
    """PER after combining incremental-redundancy rounds.

    Each round i contributes n_i * log2(1 + gamma_i) to the accumulated
    capacity and n_i * v(gamma_i) to the accumulated dispersion; the rate
    penalty uses the total symbol count.
    """
    step, carry = round_stepper(code, record.lengths, Scheme.IR, kernel)
    for depth, g in enumerate(record.snrs):
        carry, eps = step(carry, depth, g)
    return float(eps)
