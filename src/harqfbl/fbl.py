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
simulator all call it; _erfc, one numpy form for every array size, gives the
Gaussian tail without scipy, so every probability lies in [0, 1].  _screen_snr
gives the round-1 SNR from which every packet whose uniform is u >= 1e-8 decodes
in round 1, so that the simulator decides it without the kernel.
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
    check_real("SNR", gamma)
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


#: Largest blocklength n: a prefix of round lengths is keyed by parent id x (n + 1) + length
#: (outcomes._prefix_tree), which fits in int64 for fewer than 2^32 tau candidates.
N_MAX = 2**31 - 1


@dataclass(frozen=True)
class CodeParams:
    """Mother code dimensions: n symbols carrying k information bits, 1 <= n <= N_MAX."""

    n: int
    k: int

    def __post_init__(self) -> None:
        check_length("blocklength n", self.n)
        check_length("information length k", self.k)
        if self.n > N_MAX:
            raise DomainError(f"blocklength n must be at most {N_MAX}, got {self.n}")

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


# P(2t - 1) of _erfc, highest degree first (scripts/fit_erfc.py prints it), as numpy scalars for the Horner steps
_ERFC_P = tuple(map(np.float64, (
    -1.130955661615443e-09, 2.5782666473381826e-09, 8.062536517166145e-09, -3.1825841165506706e-08,
    6.545471077115539e-09, 1.3722213304960354e-07, -2.5342053371160755e-07, -1.4787196110283243e-07,
    1.2504517342643738e-06, -1.2893512603286491e-06, -2.9462952197215312e-06, 8.572132920083228e-06,
    1.361271566416206e-07, -3.0191529502113006e-05, 3.1745929994610674e-05, 7.140197046450379e-05,
    -0.00017430315911979086, -9.373519926194742e-05, 0.0006736788326067894, -0.00014624684442738153,
    -0.002345812504354162, 0.0017589335565291499, 0.00882493855728234, -0.009872689366345834,
    -0.046895610231181085, 0.047343306841903826, 0.6726432239776567, -0.6717940840566923,
)))
_ERFC_CLAMP = 26.5  # erfc(26.5) = 2.2e-307 is still normal, so no exp below sees a subnormal
_ERFC_ZERO = 27.2263641357421875  # math.erfc is exactly 0 from here on
_HORNER_BLOCK = 8192


def _erfc(x) -> np.ndarray:
    """erfc of a float array, elementwise, by one branch-free form for every size:
    erfc(|x|) = t * exp(-x^2 + P(2t - 1)), t = 2 / (2 + |x|), P of degree 27
    (scripts/fit_erfc.py), x^2 split into an exact square and a small remainder.
    Within 7 ulp for every normal result (all >= 1e-300), math.erfc itself from
    |x| = 26.5 on; negative x reflect to 2 - erfc(|x|), rounded once.  The form runs
    only where erfc is inexact: it is 0 from _ERFC_ZERO on, 2 from -6 down (erfc(6) < 2^-53)."""
    shape, x = np.shape(x), np.asarray(x, dtype=float).ravel()
    exact = (x <= -6.0) | (x >= _ERFC_ZERO)  # written so that NaN stays live
    gather = exact.any()  # else the form takes x whole, with no copy in or out
    if gather:
        live = (~exact).nonzero()[0]
        out, x = (x < 0.0) * 2.0, x[live]  # out holds the exact tails
    a = np.abs(x)
    z = np.minimum(a, _ERFC_CLAMP)
    t = 2.0 / (z + 2.0)
    y, p = 2.0 * t - 1.0, np.empty(len(x))
    for lo in range(0, len(x), _HORNER_BLOCK):
        yb, pb = y[lo:lo + _HORNER_BLOCK], p[lo:lo + _HORNER_BLOCK]
        pb[:] = _ERFC_P[0]
        for c in _ERFC_P[1:]:
            pb *= yb
            pb += c
    hi = (z.view(np.int64) & -(1 << 27)).view(np.float64)  # 26 mantissa bits: hi * hi is exact
    p -= (z - hi) * (z + hi)  # z^2 = hi^2 + (z - hi)(z + hi)
    v = t * np.exp(-(hi * hi)) * np.exp(p)
    band = np.flatnonzero(a > _ERFC_CLAMP)
    if len(band):
        v[band] = np.fromiter(map(math.erfc, a[band].tolist()), float, len(band))
    s = np.copysign(1.0, x + 0.0)  # -1 where x < 0, else +1 (x + 0.0 turns -0.0 into +0.0)
    v *= s
    v -= s - 1.0  # 2 - v where x < 0, rounded once
    if not gather:
        return v.reshape(shape)
    out[live] = v
    return out.reshape(shape)


# The SNR screen: 0.5 * erfc(4) = 7.7e-9, _erfc is within 7 ulp of erfc and erfc decreases,
# so a Q argument x >= _SCREEN_X has a computed eps below _SCREEN_U
_SCREEN_X = 4.0
_SCREEN_U = 1e-8


def _eps(cap, k: int, numerator, d, denom) -> np.ndarray:
    # Q(numerator / denom) = erfc(x) / 2 (no scipy); zero dispersion d decides on cap > k
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.asarray(numerator / denom) / _SQRT2
    del numerator, denom  # the caller's temporaries: not held while _erfc runs
    q = _erfc(x)
    q *= 0.5  # in place: a 0-d array stays an array
    np.copyto(q, cap <= k, where=d == 0.0)
    return q


def _screen_margin(cap, k: int, numerator, d, denom) -> np.ndarray:
    # >= 0 where x clears _SCREEN_X by 1e-9 (1 + (cap + k) / denom), a million times x's rounding
    # error (a few ulp of cap, k and log2 n over denom); zero dispersion gives NaN, never >= 0
    with np.errstate(divide="ignore", invalid="ignore"):
        return (numerator / denom / _SQRT2 - _SCREEN_X) / (1e-9 * (1.0 + (cap + k) / denom)) - 1.0


_SCREEN_SNRS: dict = {}  # (n, k, scheme, kernel) -> _screen_snr's answer


def _screen_snr(code: CodeParams, scheme: Scheme, kernel: KernelOptions = DEFAULT_KERNEL) -> float:
    """g_hi: from it on, round 1's computed Q argument x is >= _SCREEN_X, so its computed eps is
    below _SCREEN_U, and a packet with SNR >= g_hi and uniform u >= _SCREEN_U decodes in round 1
    (u >= eps) without the kernel.  Round 1 sends n symbols, and x(g) = (A ln(1 + g) - B) /
    sqrt(C (1 - (1 + g)^-2)), A, C > 0, B = k - log2 n, has x' of the sign of
    A ((1 + g)^2 - 1 - ln(1 + g)) + B: x increases when k >= log2 n.  g_hi is the float that
    bisection on bit patterns finds where round 1's own step clears _screen_margin; with
    k < log2 n, or no finite g clearing it, g_hi is inf.  Cached; computed on first use."""
    key = (code.n, code.k, scheme, kernel)
    if key not in _SCREEN_SNRS:
        step, start = round_stepper(code, (code.n,), scheme, kernel, tail=_screen_margin)

        def clears(bits: int) -> bool:
            return bool(step(start, 0, float(np.int64(bits).view(np.float64)))[1] >= 0.0)

        lo, hi = 0, 0x7FEF_FFFF_FFFF_FFFF  # the bits of 0 and of the largest float; clears(hi) throughout
        if code.k < math.log2(code.n) or not clears(hi):
            lo = hi = 0x7FF0_0000_0000_0000  # inf
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if clears(mid) else (mid, hi)
        _SCREEN_SNRS[key] = float(np.int64(hi).view(np.float64))
    return _SCREEN_SNRS[key]


def round_stepper(
    code: CodeParams, lengths, scheme: Scheme, kernel: KernelOptions = DEFAULT_KERNEL, tail=None
) -> tuple[Callable, object]:
    """The finite-blocklength kernel as step(carry, depth, gamma) -> (carry, eps).

    step adds round `depth` (0-based), received at SNR gamma, to the carry of
    the rounds before it and returns the new carry with the decoder error
    eps after depth + 1 rounds.  Returns (step, carry before any round).
    lengths ((m,) or (m, candidates, 1)), gamma and the carry (a tuple of
    arrays) broadcast, so eps holds one error per candidate x path, or per
    packet.  depth indexes the first axis of lengths, so (depth, block)
    also picks a block of candidates.

    Chase combining carries the SNR total and repeats the n-symbol codeword;
    incremental redundancy carries the accumulated capacity and dispersion
    (nats^2, scaled at evaluation) of lengths[0..depth].  Zero dispersion
    decides on capacity against k, and an infinite SNR gives eps = 0.
    Callers validate the SNRs.  tail (_eps by default) maps the terms
    (cap, k, numerator, d, denom) to step's eps; _screen_snr passes _screen_margin.
    """
    if not isinstance(kernel, KernelOptions):
        raise DomainError(f"kernel must be a KernelOptions, got {kernel!r}")
    n, k, tail = code.n, code.k, tail or _eps
    scale = kernel.dispersion_scale
    # np.power, not **, so that scalars and arrays round alike
    if scheme is Scheme.CC:
        log2_n = math.log2(n)
        root_nv = kernel.cc_denominator == "sqrt_nv"

        def step_cc(carry, depth, gamma):
            gsum = carry[0] + gamma
            cap = n * np.log2(1.0 + gsum)
            v = (1.0 - np.power(1.0 + gsum, -2.0)) * scale
            return (gsum,), tail(cap, k, cap - k + log2_n, v, np.sqrt(n * v) if root_nv else n * np.sqrt(v))

        return step_cc, (0.0,)

    lengths = np.asarray(lengths)
    log2_total = np.log2(np.cumsum(lengths, axis=0))

    def step_ir(carry, depth, gamma):
        cap = carry[0] + lengths[depth] * np.log2(1.0 + gamma)
        disp = carry[1] + lengths[depth] * (1.0 - np.power(1.0 + gamma, -2.0))
        d = disp * scale
        return (cap, disp), tail(cap, k, cap - k + log2_total[depth], d, np.sqrt(d))

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
