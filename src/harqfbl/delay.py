"""Delay distributions on one integer slot lattice.

A resolved packet occupies 1, 1 + tau_1, ..., or sum(tau) slots.  A PMF
keeps its support as strictly increasing integer ticks over one common
denominator, so stream delays never suffer floating-point key collisions,
the two-round binomial closed form can be matched atom for atom, and every
overhead is a correctly rounded ratio of exact integers.  A stream of N
packets whose single-packet PMF has at most three atoms (every scheme with
m <= 3) is the multinomial law of the atom counts, evaluated in closed
form and scattered onto the lattice in blocks of count tuples; longer PMFs
take the exact N-fold lattice convolution.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .errors import DomainError, ResourceLimitError
from .fbl import check_length, check_real
from .outcomes import HarqConfig, OutcomeDistribution

_TAU_DENOMINATOR_LIMIT = 1_000_000
DEFAULT_ATOM_BUDGET = 1_000_000
PRUNE_MASS = 1e-15
_EXACT_TICKS = 2**53  # ticks, counts and overhead operands stay exact as floats below this


def _as_fraction(x) -> Fraction:
    """x exactly; a float as the nearest fraction with denominator at most 1e6."""
    if isinstance(x, numbers.Rational):
        return Fraction(x)
    if isinstance(x, numbers.Real) and math.isfinite(x):
        return Fraction(x).limit_denominator(_TAU_DENOMINATOR_LIMIT)
    raise DomainError(f"delays must be finite real numbers, got {x!r}")


class DelayPmf:
    """Probability masses at the delays ticks / denom slots.

    Built from a strictly increasing support of nonnegative fractions, ints
    or finite floats, e.g. DelayPmf((1, Fraction(7, 5)), (0.8, 0.2)); ticks
    (int64) and mass (float64) are read-only arrays, support the exact
    fractions they stand for.
    """

    __slots__ = ("ticks", "denom", "mass", "pruned_mass")

    def __init__(self, support, mass, pruned_mass: float = 0.0) -> None:
        points = [_as_fraction(d) for d in support]
        denom = math.lcm(*(p.denominator for p in points))
        ticks = [p.numerator * (denom // p.denominator) for p in points]
        if ticks and min(ticks) < 0:
            raise DomainError("delays must be nonnegative")
        if ticks and max(ticks) >= _EXACT_TICKS:
            raise ResourceLimitError(f"delays reach 2**53 ticks of 1/{denom} slot; quantise them")
        self._fill(np.array(ticks, dtype=np.int64), denom, mass, pruned_mass)

    @classmethod
    def _on_lattice(cls, ticks: np.ndarray, denom: int, mass, pruned_mass: float) -> "DelayPmf":
        pmf = cls.__new__(cls)
        pmf._fill(ticks, denom, mass, pruned_mass)
        return pmf

    def _fill(self, ticks: np.ndarray, denom: int, mass, pruned_mass: float) -> None:
        mass = np.array(mass, dtype=float)
        if ticks.shape != mass.shape or not ticks.size:
            raise DomainError("support and mass must be equal-length and nonempty")
        if np.any(np.diff(ticks) <= 0):
            raise DomainError("support must be strictly increasing")
        if not np.all((mass >= 0.0) & (mass < math.inf)):  # NaN fails too
            raise DomainError("masses must be nonnegative and finite")
        check_real("pruned mass", pruned_mass)
        if not 0.0 <= pruned_mass < math.inf:
            raise DomainError(f"pruned mass must be nonnegative and finite, got {pruned_mass}")
        ticks.flags.writeable = mass.flags.writeable = False
        self.ticks, self.denom, self.mass, self.pruned_mass = ticks, denom, mass, pruned_mass

    @property
    def support(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(t, self.denom) for t in self.ticks.tolist())

    @property
    def total(self) -> float:
        return float(self.mass.sum()) + self.pruned_mass


def single_packet_delay(cfg: HarqConfig, outcome: OutcomeDistribution) -> DelayPmf:
    """Atoms at the cumulative slot costs of each resolution event.

    A success at the last round and an exhausted packet take the same time,
    so their masses merge on one support point.
    """
    if len(outcome.p) != cfg.m:
        raise DomainError(f"expected {cfg.m} success probabilities, got {len(outcome.p)}")
    mass = [*outcome.p[: cfg.m - 1], outcome.p[cfg.m - 1] + outcome.p_e]
    return DelayPmf(accumulate(_as_fraction(t) for t in cfg.taus), mass)


class _Lattice:
    """A dense PMF whose mass[i] sits at lattice point offset + i."""

    __slots__ = ("offset", "mass")

    def __init__(self, offset: int, mass: np.ndarray):
        self.offset, self.mass = offset, mass

    def convolve(self, other: "_Lattice") -> "_Lattice":
        return _Lattice(self.offset + other.offset, np.convolve(self.mass, other.mass))

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
        self.offset += lo
        self.mass = self.mass[lo : hi + 1]
        if len(self.mass) > budget:
            raise ResourceLimitError(
                f"convolution lattice spans {len(self.mass)} points, over the budget of "
                f"{budget}; quantise the coefficients to a coarser slot grid"
            )
        return dropped


def _convolution_power(base: _Lattice, n: int, budget: int) -> tuple[_Lattice, float]:
    """n-fold self-convolution by binary exponentiation, shrinking as it goes."""
    result: _Lattice | None = None
    pruned = 0.0
    while n > 0:
        if n & 1:
            result = result.convolve(base) if result is not None else _Lattice(base.offset, base.mass.copy())
            pruned += result.shrink(budget)
        n >>= 1
        if n:
            base = base.convolve(base)
            pruned += base.shrink(budget)
    assert result is not None
    return result, pruned


# Loader's saddle-point form of the multinomial (C. Loader, "Fast and Accurate
# Computation of Binomial Probabilities", 2000).  With S(c) = log c! - c log c + c
# and bd0(c, mu) = c log(c / mu) - c + mu, an exact identity gives
#   log[N! prod_j w_j^c_j / c_j!] = S(N) - N (1 - sum w) - sum_j [S(c_j) + bd0(c_j, N w_j)],
# in which every term is small: no large logarithms cancel.
_LOG_UNDERFLOW = -746.0  # exp() of anything lower is 0.0 in double precision
_TUPLES_PER_ATOM = 64  # count tuples the closed form may evaluate per budgeted atom
_TUPLE_BLOCK = 2**14  # count tuples scattered at once
_PROBES = 512  # counts a window search tests per step, shared among its rows
_S_TABLE = np.array([math.lgamma(c + 1) - c * math.log(c) + c if c else 0.0 for c in range(16)])


def _term(c: np.ndarray, mu: float) -> np.ndarray:
    """S(c) + bd0(c, mu): one atom's share of the negative log mass, for counts c."""
    c = np.asarray(c, dtype=float)
    big = np.maximum(c, 16.0)
    r = 1.0 / (big * big)
    series = 0.5 * np.log(2.0 * math.pi * big) + (
        1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - r / 1188) * r) * r) * r
    ) / big
    stirling = np.where(c < 16, _S_TABLE[np.minimum(c, 15).astype(np.intp)], series)
    with np.errstate(divide="ignore", invalid="ignore"):
        bd0 = np.where(c > 0, c * np.log1p((c - mu) / mu), 0.0) - (c - mu)
    return stirling + bd0


def _window(k: np.ndarray, n: np.ndarray, mu_u: float, mu_v: float, thr: float):
    """Per row, the counts c of [lo, hi] where k - term(n - c, mu_u) - term(c, mu_v) >= thr.

    The log mass is concave in c, so that set is one interval around the
    binomial mode.  Both ends are searched from the mode: a step tests
    max(1, 512 // rows) evenly spaced counts between the last count known
    above thr and the first known below (one row takes about three steps,
    not seventeen; over 256 rows bisect).  The test is monotone on each side of
    the mode, so the search ends where bisection ends.  Empty rows get lo > hi.
    """
    mode = np.clip(np.floor((n + 1) * (mu_v / (mu_u + mu_v))).astype(np.int64), 0, n)
    # both ends at once: the first copy of the rows searches down to 0, the second up to n
    inside, outside = np.tile(mode, 2), np.concatenate((np.zeros_like(n), n))
    kk, nn = np.tile(k, 2)[:, None], np.tile(n, 2)[:, None]
    j = np.arange(1, max(1, _PROBES // max(1, len(k))) + 1)  # no rows when every mass underflows
    rows = np.arange(len(inside))

    def above(c):
        return kk - _term(nn - c, mu_u) - _term(c, mu_v) >= thr

    first = above(np.column_stack((inside, outside)))
    while np.any(np.abs(outside - inside) > 1):
        gap = outside - inside
        probe = inside[:, None] + np.sign(gap)[:, None] * (np.abs(gap)[:, None] * j // (len(j) + 1))
        ok = np.count_nonzero(above(probe), axis=1)  # the probes above thr come first
        inside = np.where(ok > 0, probe[rows, ok - 1], inside)
        outside = np.where(ok < len(j), probe[rows, np.minimum(ok, len(j) - 1)], outside)
    # the last count from the mode towards each end that stays above thr
    lo, hi = np.split(np.where(first[:, 1], outside, inside), 2)
    return lo, np.where(first[: len(k), 0], hi, lo - 1)


def _multinomial_power(base: _Lattice, n: int, budget: int) -> tuple[_Lattice, float]:
    """n-fold self-convolution of a PMF with at most three atoms, in closed form.

    The counts (c_0, .., c_{a-1}) of the atoms over n packets carry the
    multinomial mass and sit at lattice index sum_j c_j idx_j.  The last two
    counts vary along a row (c and n_row - c: an arithmetic run on the
    lattice); with three atoms each c_0 is a row.  Only the counts whose mass
    is representable are evaluated.  When the full lattice (n * span + 1
    points) exceeds the budget, no O(n) array is made: counts of mass below
    PRUNE_MASS are dropped and their mass (down to PRUNE_MASS**2) reported,
    and a window that stays over budget raises.

    The kept count tuples go onto the lattice _TUPLE_BLOCK at a time, row by
    row, through np.add.at, which adds in input order; no row hits a point
    twice, so each point sums its rows in row order however the blocks fall,
    bit for bit as a loop over the rows would (np.bincount per block would
    regroup).  Memory is O(block + lattice width + one row, whose pruned
    tails are each summed whole).
    """
    idx = np.flatnonzero(base.mass)
    w = base.mass[idx]
    if len(idx) == 1:
        return _Lattice((base.offset + int(idx[0])) * n, w**n), 0.0
    width = n * (len(base.mass) - 1) + 1
    bounded = width > budget
    keep = math.log(PRUNE_MASS) if bounded else _LOG_UNDERFLOW
    floor = 2.0 * keep if bounded else keep
    mu = n * w
    u, v = len(idx) - 2, len(idx) - 1
    d = int(idx[v] - idx[u])
    # S(n) (bd0(n, n) = 0) minus n (1 - sum w), with sum w - 1 rounded once
    k = float(_term(n, float(n))) + n * math.fsum([*w.tolist(), -1.0])
    if len(idx) == 2:
        k_rows, n_rows = np.array([k]), np.array([n], dtype=np.int64)
        starts = n_rows * int(idx[u])
    else:
        (r_lo,), (r_hi,) = _window(np.array([k]), np.array([n]), mu[1] + mu[2], mu[0], floor)
        if r_hi - r_lo >= budget:
            raise ResourceLimitError(
                f"the closed-form stream needs {r_hi - r_lo + 1} rows of counts, over the "
                f"budget of {budget}"
            )
        rows = np.arange(r_lo, r_hi + 1, dtype=np.int64)
        k_rows, n_rows = k - _term(rows, mu[0]), n - rows
        starts = rows * int(idx[0]) + n_rows * int(idx[u])
    origin = 0
    if bounded:
        klo, khi = _window(k_rows, n_rows, mu[u], mu[v], keep)
        kept = klo <= khi
        if not kept.any():
            raise ResourceLimitError("all probability mass pruned; lattice budget too small")
        origin = int((starts + klo * d)[kept].min())
        width = int((starts + khi * d)[kept].max()) - origin + 1
        if width > budget:
            raise ResourceLimitError(
                f"stream lattice spans {width} points after pruning masses below "
                f"{PRUNE_MASS}, over the budget of {budget}"
            )
    lo, hi = _window(k_rows, n_rows, mu[u], mu[v], floor)
    if not bounded:
        klo, khi = lo, hi
    live = lo <= hi
    if not live.any():
        raise DomainError("every mass of the stream underflows to 0")
    tuples = int((hi - lo + 1)[live].sum())
    if tuples > _TUPLES_PER_ATOM * budget:
        raise ResourceLimitError(
            f"the closed-form stream needs {tuples} count tuples, over {_TUPLES_PER_ATOM} "
            f"per atom of the budget of {budget}"
        )
    # one table per varying atom over the counts the rows use
    v0, u0 = int(lo[live].min()), int((n_rows - hi)[live].min())
    t_v = _term(np.arange(v0, int(hi[live].max()) + 1), mu[v])
    t_u = _term(np.arange(u0, int((n_rows - lo)[live].max()) + 1), mu[u])
    # number the kept counts a..b of the rows one after another: row sel[i] holds first[i] .. end[i] - 1
    a, b = np.maximum(klo, lo), np.minimum(khi, hi)
    sel = np.flatnonzero(live & (a <= b))
    end = np.cumsum(b[sel] - a[sel] + 1)
    first, total = end - (b[sel] - a[sel] + 1), int(end[-1]) if len(end) else 0
    acc = np.zeros(width)
    for t0 in range(0, total, _TUPLE_BLOCK):
        t1 = min(t0 + _TUPLE_BLOCK, total)
        i, j = np.searchsorted(end, (t0, t1 - 1), side="right") + (0, 1)
        r, reps = sel[i:j], np.minimum(end[i:j], t1) - np.maximum(first[i:j], t0)
        c = np.arange(t0, t1) - np.repeat(first[i:j] - a[r], reps)
        kr, nr = np.repeat(k_rows[r], reps), np.repeat(n_rows[r], reps)
        np.add.at(acc, np.repeat(starts[r] - origin, reps) + c * d, np.exp(kr - t_v[c - v0] - t_u[nr - c - u0]))
    pruned = 0.0
    if bounded:  # each row's pruned tails, each summed whole
        for kr, nr, l, h, kl, kh in zip(k_rows[live], n_rows[live], lo[live], hi[live], a[live], b[live]):
            m = np.exp(kr - t_v[l - v0 : h - v0 + 1] - t_u[nr - h - u0 : nr - l - u0 + 1][::-1])
            pruned += float(m[: kl - l].sum() + m[kh - l + 1 :].sum() if kl <= kh else m.sum())
    return _Lattice(base.offset * n + origin, acc), pruned


def stream_delay(pmf: DelayPmf, n_packets: int, atom_budget: int = DEFAULT_ATOM_BUDGET) -> DelayPmf:
    """Total-delay PMF of n_packets back-to-back packets.

    A PMF with at most three atoms (every m <= 3 scheme: p_e merges with
    the last round) takes the multinomial closed form; more atoms take the
    exact n-fold self-convolution by binary exponentiation.  Both work on
    the integer lattice spanned by the support.  When the lattice outgrows
    the budget, masses below 1e-15 are dropped and the lattice tails
    trimmed; the dropped mass is reported on the result.  A single-packet
    lattice over the budget, a stream reaching 2**53 ticks, a lattice that
    stays too large, or a closed form that would evaluate more than 64
    count tuples per budgeted atom raises ResourceLimitError.

    The total is the exact (sum of the masses)**n_packets, not renormalised:
    float masses whose exact sum misses 1 by d drift by about n_packets * d.
    The floats 0.8 and 0.2 sum to 1 + 5.55e-17, so stream_delay(DelayPmf((1,
    Fraction(7, 5)), (0.8, 0.2)), 10**8).total - 1 is 5.55e-9.
    """
    check_length("packet count n_packets", n_packets)
    check_length("atom budget atom_budget", atom_budget)
    ticks = pmf.ticks
    if int(n_packets) * int(ticks[-1]) >= _EXACT_TICKS:
        raise ResourceLimitError(f"{n_packets} packets reach 2**53 ticks of 1/{pmf.denom} slot")
    step = math.gcd(*(ticks - ticks[0]).tolist()) or 1
    index = (ticks - ticks[0]) // step
    if index[-1] >= atom_budget:
        raise ResourceLimitError(f"one packet spans {index[-1] + 1} lattice points, over the "
                                 f"budget of {atom_budget}; quantise the coefficients")
    mass = np.zeros(index[-1] + 1)
    mass[index] = pmf.mass
    power = _multinomial_power if 0 < np.count_nonzero(pmf.mass) <= 3 else _convolution_power
    result, pruned = power(_Lattice(0, mass), n_packets, atom_budget)
    nonzero = np.flatnonzero(result.mass)
    ticks = int(n_packets) * int(ticks[0]) + (result.offset + nonzero) * step
    return DelayPmf._on_lattice(ticks, pmf.denom, result.mass[nonzero], pruned + pmf.pruned_mass * n_packets)


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
    support = sorted(atoms)
    return DelayPmf(support, [atoms[d] for d in support])


def overhead_ccdf(stream: DelayPmf, n_packets: int) -> np.ndarray:
    """Tail distribution of the per-packet delay overhead (d - N) / N.

    One row (overhead, P(overhead > it)) per support point, as a float
    (atoms x 2) array.  Zero overhead means every packet went through on its
    first try; the curve starts at 1 below the smallest support point and
    ends at 0.
    """
    check_length("packet count n_packets", n_packets)
    scale = int(n_packets) * stream.denom
    if scale >= _EXACT_TICKS:
        raise ResourceLimitError(f"{n_packets} packets of 1/{stream.denom} slot ticks reach 2**53")
    # P(X > x_j), accumulated right to left; the last entry is exactly 0
    tails = np.minimum(np.append(np.cumsum(stream.mass[:0:-1])[::-1], 0.0), 1.0)
    # both operands are exact below 2**53, so each quotient is correctly
    # rounded: float((d - N) / N) for the fraction d = ticks / denom
    return np.column_stack(((stream.ticks - scale) / scale, tails))
