"""Time-block finite-state Markov model of a Rayleigh fading envelope.

The unit-power Rayleigh envelope (density 2x exp(-x^2)) is partitioned into
L amplitude states [eta_l, eta_{l+1}) with eta_1 = 0 and eta_{L+1} = inf.
Sampling the channel every t_tb seconds under Doppler f_d yields a
birth-death Markov chain whose off-diagonal transition probabilities follow
from the level crossing rate:

    P(l -> l+1) = N(eta_{l+1}) * t_tb / q_l
    P(l -> l-1) = N(eta_l)     * t_tb / q_l

with N(eta) = sqrt(2*pi) * eta * f_d * exp(-eta^2) and q_l the state's
marginal probability.  The expected sojourn time of a state is
q_l / (N(eta_l) + N(eta_{l+1})); for the chain to be well defined, t_tb
must not exceed any sojourn time.

Two threshold constructions are provided:

  - build_equal_duration: solves the thresholds so every state (including
    the last) has exactly the same expected sojourn time; the packets-per-
    state ratio c = sojourn / t_tb is an output.  The normalised sojourn
    T(L) = f_d * sojourn and the thresholds depend on L alone, not on f_d,
    t_tb or the SNR, so each L is solved once and memoised.
  - build_fixed_sojourn: takes c as an input, places thresholds left to
    right so each interior state's sojourn equals c * t_tb, and leaves the
    final state as the tail remainder (its sojourn is whatever is left).
    This is the construction behind the bundled fading presets.

Every threshold, and the common sojourn of build_equal_duration, is the root
of a monotone function, found by one bracketed solver (regula falsi with the
Illinois step) to 1e-16 absolute, below which a state's sojourn is rounding
noise, or to adjacent floats.  ConstructionError reports a target that no
threshold up to 26.6 reaches, a bracket without a sign change, a solve open
after 150 steps, and a state whose probability rounds to 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain
from typing import Callable, Sequence

from .errors import (COUNT, FINITE, NONNEGATIVE_FINITE, POSITIVE_FINITE, REAL, SEQUENCE, SNR, ConstructionError, Domain,
                     DomainError, check_arg, check_fields)
from .fbl import db_to_linear, linear_to_db

_SQRT_2PI = math.sqrt(2.0 * math.pi)


# unchecked forms of the three public functions below, for the root solves and _assemble
def _crossing(eta: float, f_d: float) -> float:
    return 0.0 if math.isinf(eta) else _SQRT_2PI * eta * f_d * math.exp(-eta * eta)


def _mass(eta_lo: float, eta_hi: float) -> float:
    return math.exp(-eta_lo * eta_lo) - (0.0 if math.isinf(eta_hi) else math.exp(-eta_hi * eta_hi))


def level_crossing_rate(eta: float, f_d: float) -> float:
    """Rate (per second) at which the envelope crosses level eta downward."""
    return _crossing(check_arg("threshold eta", eta, SNR), check_arg("Doppler frequency f_d", f_d, POSITIVE_FINITE))


def marginal_probability(eta_lo: float, eta_hi: float) -> float:
    """P(eta_lo <= |h| < eta_hi) for the unit-power Rayleigh envelope."""
    check_arg("eta_lo", eta_lo, NONNEGATIVE_FINITE)
    check_arg("eta_hi", eta_hi, Domain(f"a number above eta_lo = {eta_lo!r}", lambda x: x > eta_lo and SNR.test(x)))
    return _mass(eta_lo, eta_hi)


def state_snr(eta_lo: float, eta_hi: float, avg_snr: float) -> float:
    """Mean linear SNR conditioned on the envelope lying in [eta_lo, eta_hi).

    avg_snr is the unconditional mean SNR (P_t / (B*N_0)); the conditional
    mean follows from integrating x^2 against the Rayleigh density over
    the interval.
    """
    marginal_probability(eta_lo, eta_hi)  # checks the interval
    return _state_snr(eta_lo, eta_hi, check_arg("average SNR avg_snr", avg_snr, POSITIVE_FINITE))


def _state_snr(eta_lo: float, eta_hi: float, avg_snr: float) -> float:
    def antiderivative(x: float) -> float:
        return 0.0 if math.isinf(x) else math.exp(-x * x) * (x * x + 1.0)

    return avg_snr * (antiderivative(eta_lo) - antiderivative(eta_hi)) / _mass(eta_lo, eta_hi)


def _sojourn_norm(eta_lo: float, eta_hi: float) -> float:
    """Expected sojourn time of a state, normalised to f_d = 1 Hz."""
    return _mass(eta_lo, eta_hi) / (_crossing(eta_lo, 1.0) + _crossing(eta_hi, 1.0))


_ATOL = 1e-16  # width at which a root solve stops (see the module docstring)
_MAX_STEPS = 150  # the builds here take at most about 60 steps
_ETA_MAX = 26.6  # exp(-eta^2) leaves the normal floats at about 26.615


def _root(f: Callable[[float], float], lo: float, f_lo: float, hi: float, f_hi: float) -> float:
    """Root of an increasing f on [lo, hi], given f_lo = f(lo) and f_hi = f(hi),
    by regula falsi with the Illinois step (an end kept twice in a row has its
    value halved); a secant point outside the open bracket becomes the midpoint."""
    if not f_lo < 0.0 <= f_hi:
        raise ConstructionError(f"[{lo:.6g}, {hi:.6g}] does not bracket a root")
    kept = 0
    for _ in range(_MAX_STEPS):
        if hi - lo <= max(_ATOL, math.ulp(hi)):
            return 0.5 * (lo + hi)
        x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = f(x)
        if fx < 0.0:
            lo, f_lo = x, fx
            if kept < 0:
                f_hi *= 0.5
            kept = -1
        else:
            hi, f_hi = x, fx
            if kept > 0:
                f_lo *= 0.5
            kept = 1
    raise ConstructionError(f"root solve did not converge in {_MAX_STEPS} steps on [{lo!r}, {hi!r}]")


def _solve_upper_threshold(eta_lo: float, target: float) -> float | None:
    """Upper threshold making the state's normalised sojourn equal target.

    The sojourn is strictly increasing in the upper threshold and, for
    eta_lo > 0, bounded by the tail sojourn 1/(sqrt(2*pi)*eta_lo); None
    means that no threshold up to _ETA_MAX reaches the target.
    """
    if eta_lo > 0.0 and target >= 1.0 / (_SQRT_2PI * eta_lo) * (1.0 - 1e-14):
        return None
    hi = min(max(2.0 * eta_lo, eta_lo + 1.0), _ETA_MAX)
    while (f_hi := _sojourn_norm(eta_lo, hi) - target) < 0.0:
        if hi >= _ETA_MAX:
            return None
        hi = min(eta_lo + 2.0 * (hi - eta_lo), _ETA_MAX)
    return _root(lambda eta: _sojourn_norm(eta_lo, eta) - target, eta_lo, -target, hi, f_hi)


def _interior_thresholds(n_states: int, target: float) -> list[float]:
    """Left-to-right thresholds of up to n_states states of sojourn target,
    stopping at the first state that cannot reach it."""
    etas = [0.0]
    while len(etas) <= n_states:
        nxt = _solve_upper_threshold(etas[-1], target)
        if nxt is None:
            break
        etas.append(nxt)
    return etas


@dataclass(frozen=True)
class FsmcModel:
    """Immutable fading-state model.

    thresholds has L+1 entries, the last being +inf; transitions is an
    L x L row-stochastic tridiagonal matrix; state_snrs are the per-state
    conditional mean SNRs (linear); c is the per-state sojourn time in
    units of t_tb (for fixed-sojourn builds this is the interior-state
    value, the tail state may differ).
    """

    thresholds: tuple[float, ...]
    q: tuple[float, ...]
    transitions: tuple[tuple[float, ...], ...]
    state_snrs: tuple[float, ...]
    avg_snr: float
    f_d: float
    t_tb: float
    c: float

    def __post_init__(self) -> None:
        # the shapes every consumer indexes by, real entries, finite transitions, a q that normalises
        # and positive scalars that later divide; validate() keeps the tolerances
        check_fields(self, thresholds=SEQUENCE, q=SEQUENCE, transitions=SEQUENCE, state_snrs=SEQUENCE)
        L = len(self.q)
        if (len(self.thresholds), len(self.state_snrs), len(self.transitions)) != (L + 1, L, L) or \
                any(len(check_arg("a transition row", row, SEQUENCE)) != L for row in self.transitions):
            raise DomainError(f"{L} states need {L + 1} thresholds, {L} state SNRs and a {L} x {L} transition matrix")
        entries = (*self.thresholds, *self.q, *self.state_snrs, *chain.from_iterable(self.transitions))
        for x in dict(zip(map(type, entries), entries)).values():  # one of each type: the rule reads the type
            check_arg("every threshold, q, transition and state SNR entry", x, REAL)
        if not (all(0.0 <= p < math.inf for p in self.q) and sum(self.q) > 0.0):
            raise DomainError(f"state probabilities q must be finite and nonnegative with a positive sum, got {self.q}")
        if not all(map(math.isfinite, chain.from_iterable(self.transitions))):
            raise DomainError("transition probabilities must be finite")
        check_fields(self, f_d=POSITIVE_FINITE, t_tb=POSITIVE_FINITE, avg_snr=POSITIVE_FINITE, c=POSITIVE_FINITE)

    @property
    def n_states(self) -> int:
        return len(self.q)

    def sojourn_times(self) -> tuple[float, ...]:
        """Expected time (seconds) the envelope dwells in each state."""
        edges = self.thresholds
        return tuple(_sojourn_norm(a, b) / self.f_d for a, b in zip(edges, edges[1:]))

    def tb_bound_slacks(self) -> tuple[float, ...]:
        """Per-state slack sojourn_time - t_tb; all must be nonnegative."""
        return tuple(t - self.t_tb for t in self.sojourn_times())

    def with_avg_snr(self, avg_snr: float) -> "FsmcModel":
        """Same partition and dynamics at a different mean SNR."""
        scale = check_arg("avg_snr", avg_snr, POSITIVE_FINITE) / self.avg_snr
        return replace(self, avg_snr=avg_snr, state_snrs=tuple(g * scale for g in self.state_snrs))

    def validate(self, tol_row: float = 1e-12, tol_q: float = 1e-12) -> None:
        L = self.n_states
        if len(self.thresholds) != L + 1 or not math.isinf(self.thresholds[-1]):
            raise DomainError("thresholds must have L+1 entries ending at +inf")
        for a, b in zip(self.thresholds, self.thresholds[1:]):
            if not a < b:
                raise DomainError("thresholds must be strictly increasing")
        if abs(sum(self.q) - 1.0) > tol_q:
            raise DomainError(f"state probabilities sum to {sum(self.q)}, not 1")
        for i, row in enumerate(self.transitions):
            if abs(sum(row) - 1.0) > tol_row:
                raise DomainError(f"transition row {i} sums to {sum(row)}")
            for j, p in enumerate(row):
                if abs(i - j) > 1 and p != 0.0:
                    raise DomainError(f"non-tridiagonal entry P[{i}][{j}] = {p}")
                if not -tol_row <= p <= 1.0 + tol_row:
                    raise DomainError(f"P[{i}][{j}] = {p} outside [0, 1]")
        for a, b in zip(self.state_snrs, self.state_snrs[1:]):
            if not a < b:
                raise DomainError("state SNRs must be strictly increasing")

    def to_json(self) -> str:
        """Serialise to the documented JSON object.

        thresholds lists the L finite lower edges; the last state's upper
        edge is +inf by construction.  SNRs are stored in dB.
        """
        obj = {
            "L": self.n_states,
            "f_d_hz": self.f_d,
            "t_tb_s": self.t_tb,
            "avg_snr_db": linear_to_db(self.avg_snr),
            "thresholds": list(self.thresholds[:-1]),
            "q": list(self.q),
            "P": [list(row) for row in self.transitions],
            "state_snrs_db": [linear_to_db(g) for g in self.state_snrs],
            "c": self.c,
        }
        return json.dumps(obj, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FsmcModel":
        try:
            obj = json.loads(text)
            model = cls(
                thresholds=tuple(obj["thresholds"]) + (math.inf,),
                q=tuple(obj["q"]),
                transitions=tuple(tuple(row) for row in obj["P"]),
                state_snrs=tuple(db_to_linear(x) for x in obj["state_snrs_db"]),
                avg_snr=db_to_linear(obj["avg_snr_db"]),
                f_d=obj["f_d_hz"],
                t_tb=obj["t_tb_s"],
                c=obj["c"],
            )
        except (KeyError, TypeError, DomainError, json.JSONDecodeError) as exc:
            raise DomainError(f"malformed FSMC model JSON ({type(exc).__name__}: {exc})") from None
        model.validate(tol_row=1e-9, tol_q=1e-9)
        return model


def _assemble(
    etas: Sequence[float], f_d: float, t_tb: float, avg_snr: float, c: float
) -> FsmcModel:
    L = len(etas) - 1
    q = tuple(_mass(etas[i], etas[i + 1]) for i in range(L))
    if min(q) == 0.0:
        raise ConstructionError("a state's probability rounds to 0: the sojourn target is too small")
    rows = []
    for i in range(L):
        up = _crossing(etas[i + 1], f_d) * t_tb / q[i] if i < L - 1 else 0.0
        down = _crossing(etas[i], f_d) * t_tb / q[i] if i > 0 else 0.0
        row = [0.0] * L
        row[i] = 1.0 - up - down
        if i < L - 1:
            row[i + 1] = up
        if i > 0:
            row[i - 1] = down
        rows.append(tuple(row))
    snrs = tuple(_state_snr(etas[i], etas[i + 1], avg_snr) for i in range(L))
    model = FsmcModel(tuple(etas), q, tuple(rows), snrs, avg_snr, f_d, t_tb, c)
    slacks = model.tb_bound_slacks()
    worst = min(range(L), key=lambda i: slacks[i])
    if slacks[worst] < 0.0:
        raise ConstructionError(
            f"time block t_tb={t_tb} exceeds the expected sojourn "
            f"{model.sojourn_times()[worst]:.6g} s of state {worst + 1}; "
            f"shorten t_tb or widen the states"
        )
    model.validate()
    return model


@lru_cache(maxsize=64)
def _equal_duration_partition(L: int) -> tuple[float, tuple[float, ...]]:
    """T(L), the normalised sojourn of each of L equal-duration states, and their thresholds,
    memoised for the 64 state counts used last.  For a candidate T the first L-1 thresholds
    follow left to right, and T is adjusted until the tail state's sojourn equals T within 1e-9."""
    def excess(target: float) -> float:  # increasing; unplaceable states count as excess
        etas = _interior_thresholds(L - 1, target)
        return target - _sojourn_norm(etas[-1], math.inf) if len(etas) == L else 1.0

    lo, hi = 1e-3 / L, 1.0  # the root times L is about 0.9 at least
    target = _root(excess, lo, excess(lo), hi, excess(hi))
    etas = _interior_thresholds(L - 1, target)
    if len(etas) < L or abs(_sojourn_norm(etas[-1], math.inf) / target - 1.0) > 1e-9:
        raise ConstructionError(f"no partition of the envelope into L={L} equal-duration states")
    return target, (*etas, math.inf)


def _checked_fdt(f_d: float, t_tb: float, avg_snr: float) -> float:
    """f_d * t_tb, once f_d, t_tb, avg_snr and then the product are checked positive and finite."""
    for name, x in (("f_d", f_d), ("t_tb", t_tb), ("avg_snr", avg_snr)):
        check_arg(name, x, POSITIVE_FINITE)
    return check_arg("f_d * t_tb", f_d * t_tb, POSITIVE_FINITE)


def build_equal_duration(L: int, f_d: float, t_tb: float, avg_snr: float) -> FsmcModel:
    """Build the model whose L states all share one expected sojourn time, T(L) / f_d
    (see _equal_duration_partition), so that c = T(L) / (f_d * t_tb)."""
    if check_arg("state count L", L, COUNT) < 2:
        raise ConstructionError(f"equal-duration partitioning needs L >= 2, got {L}")
    fdt = _checked_fdt(f_d, t_tb, avg_snr)
    target, etas = _equal_duration_partition(L)
    return _assemble(etas, f_d, t_tb, avg_snr, target / fdt)


def build_fixed_sojourn(L: int, c: float, f_d: float, t_tb: float, avg_snr: float) -> FsmcModel:
    """Build a model whose first L-1 states dwell exactly c time blocks.

    Thresholds are solved left to right for a per-state sojourn of
    c * t_tb; the last state absorbs the tail of the envelope, so its
    sojourn generally differs from c * t_tb.  Raises when the target
    sojourn is unreachable for some state, naming the largest feasible L.
    """
    if check_arg("state count L", L, COUNT) < 2:
        raise ConstructionError(f"fixed-sojourn partitioning needs L >= 2, got {L}")
    if not check_arg("c", c, REAL) >= 1.0:  # NaN too: a construction error, as c < 1 is
        raise ConstructionError(f"c must be >= 1 so that t_tb fits inside a state, got {c}")
    target = c * _checked_fdt(f_d, t_tb, avg_snr)
    etas = _interior_thresholds(L - 1, target)
    if len(etas) < L:
        raise ConstructionError(
            f"sojourn target c*f_d*t_tb={target:.6g} is unreachable beyond state "
            f"{len(etas)}; at most L={len(etas)} states fit (requested {L})"
        )
    etas.append(math.inf)
    return _assemble(etas, f_d, t_tb, avg_snr, c)


def from_target_c(
    c_target: float, f_d: float, t_tb: float, avg_snr: float, max_states: int = 64
) -> FsmcModel:
    """Equal-duration model whose derived c lands closest to c_target.

    Scans L = 2 .. max_states, skipping state counts whose models violate
    the time-block bound.
    """
    check_arg("c_target", c_target, FINITE)
    check_arg("max_states", max_states, COUNT)
    fdt = _checked_fdt(f_d, t_tb, avg_snr)
    best: FsmcModel | None = None
    for L in range(2, max_states + 1):
        try:
            model = build_equal_duration(L, f_d, t_tb, avg_snr)
        except ConstructionError:
            continue
        if best is None or abs(model.c - c_target) < abs(best.c - c_target):
            best = model
    if best is None:
        raise ConstructionError(
            f"no state count up to {max_states} yields a valid model at f_d*t_tb={fdt:.6g}"
        )
    return best
