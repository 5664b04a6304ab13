"""HARQ resolution-event probabilities and throughput, as array rules.

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
paths of a depth for a block of the distinct prefixes of the rows of a
(candidates x m) matrix of taus.  The worst-case node count sum_j L^j is
checked against an enumeration budget first; the sampled counterpart,
montecarlo.simulate_harq on a model, needs none.
telescope and throughput_grid turn A into (p, p_e) and throughput for all
candidates at once; outcome_on and throughput are their one-candidate cases.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, HarqFblError, ResourceLimitError
from .fbl import (DEFAULT_KERNEL, CodeParams, KernelOptions, Scheme, check_length, check_real, check_snr,
                  round_stepper)
from .fsmc import FsmcModel

DEFAULT_PATH_BUDGET = 10_000_000
_BLOCK_ELEMENTS = 1 << 12  # live paths x configurations per kernel step


def round_lengths(taus, n: int) -> np.ndarray:
    """Symbols per round, tau*n rounded to nearest with a floor of 1, per element."""
    return np.maximum(1, np.floor(np.asarray(taus, dtype=float) * n + 0.5)).astype(np.int64)


def tau_matrix(scheme: Scheme, m: int, taus) -> np.ndarray:
    """taus as a nonempty (candidates x m) float array, each row checked.

    tau_0 (the first transmission) is 1, every coefficient lies in (0, 1],
    and chase combining, which repeats the whole codeword, has all-ones rows.
    """
    try:
        T = np.asarray(taus)
    except ValueError:  # ragged rows
        raise DomainError(f"tau candidates must be rows of {m} coefficients") from None
    if T.dtype == object:  # Fractions, say; each must be a real number
        for t in T.flat:
            check_real("a coefficient", t)
        T = T.astype(float)
    if T.dtype.kind not in "biuf" or T.ndim != 2 or T.shape[1] != m or len(T) == 0:
        raise DomainError(f"expected a nonempty (candidates x {m}) array of coefficients, got {T.shape} {T.dtype}")
    T = T.astype(float, copy=False)
    if np.any(T[:, 0] != 1.0):
        raise DomainError(f"tau_0 must be 1, got {T[T[:, 0] != 1.0, 0][0]}")
    outside = ~((0.0 < T) & (T <= 1.0))
    if outside.any():
        raise DomainError(f"coefficients must lie in (0, 1], got {T[outside][0]}")
    if scheme is Scheme.CC and np.any(T != 1.0):
        raise DomainError("chase combining repeats the full codeword; all taus must be 1")
    return T


@dataclass(frozen=True)
class HarqConfig:
    """Code, combining scheme, transmission budget m and coefficients tau.

    Retransmission i sends round_lengths()[i] = round(taus[i] * n) symbols;
    tau_matrix states the rule the taus obey.
    """

    code: CodeParams
    scheme: Scheme
    m: int
    taus: tuple[float, ...]

    def __post_init__(self) -> None:
        check_length("transmission budget m", self.m)
        tau_matrix(self.scheme, self.m, [self.taus])

    def round_lengths(self) -> tuple[int, ...]:
        """Symbol count per round; see round_lengths."""
        return tuple(round_lengths(self.taus, self.code.n).tolist())

    def with_taus(self, taus: tuple[float, ...]) -> "HarqConfig":
        return replace(self, taus=taus)


def _check_probabilities(x) -> None:
    outside = ~((x >= -1e-12) & (x <= 1.0 + 1e-12))  # written so that NaN fails too
    if outside.any():
        raise DomainError(f"outcome probability out of range: {x[outside][0]}")


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities of the m success events plus the residual error."""

    p: tuple[float, ...]
    p_e: float

    def __post_init__(self) -> None:
        for x in (*self.p, self.p_e):
            check_real("an outcome probability", x)
        _check_probabilities(np.array([*self.p, self.p_e], dtype=float))

    @property
    def total(self) -> float:
        return sum(self.p) + self.p_e


def _check_budget(n_states: int, m: int, budget: int) -> None:
    check_length("path budget", budget)
    nodes = 0
    for depth in range(1, m + 1):
        nodes += n_states ** depth
        if nodes > budget:
            raise ResourceLimitError(
                f"state-path enumeration needs {nodes}+ nodes for L={n_states}, m={m}, "
                f"exceeding the budget of {budget}; use the Monte Carlo estimator instead"
            )


def _prefix_tree(lengths: np.ndarray, n: int) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Per depth, the parent of each distinct prefix of the rows of lengths (round lengths up to n) and
    each row's prefix; and, depth after depth, a row with each prefix.  A prefix's id is an integer
    key, its parent's id x (n + 1) + its last round length; one row needs no sort."""
    if len(lengths) == 1:
        return [(np.zeros(1, dtype=np.int64),) * 2] * lengths.shape[1], np.zeros(lengths.shape[1], dtype=np.int64)
    ids, tree, firsts = np.zeros(len(lengths), dtype=np.int64), [], []
    for column in lengths.T:
        keys, first, ids = np.unique(ids * (n + 1) + column, return_index=True, return_inverse=True)
        tree.append((keys // (n + 1), ids))
        firsts.append(first)
    return tree, np.concatenate(firsts)


def _chain(channel: float | FsmcModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, P, state SNRs) of an FsmcModel, or of a real linear SNR as the one-state chain."""
    if isinstance(channel, FsmcModel):
        chain = (channel.q, channel.transitions, channel.state_snrs)
    else:
        check_real("a channel that is not an FsmcModel", channel)
        chain = ((1.0,), ((1.0,),), (channel,))
    return tuple(np.asarray(x, dtype=float) for x in chain)


def _walk(cfg: HarqConfig, taus: np.ndarray, q, P, snrs, kernel: KernelOptions, path_budget: int) -> np.ndarray:
    """A_1..A_m (m x candidates, or m x SNRs x candidates) of checked taus on the chain (q, P) with state
    SNRs snrs (L, or SNRs x L); see prefix_error_grid.  One path list serves every SNR: a block's arrays
    lead with the SNR axis, if any, and each SNR's paths are summed as in a one-SNR walk."""
    check_snr(snrs.min())  # NaN propagates, so it fails too
    _check_budget(len(q), cfg.m, path_budget)
    # live paths of each depth: last state, probability, index of the parent path
    state = np.flatnonzero(q > 0.0)
    levels = [(state, q[state], None)]
    for _ in range(1, cfg.m):
        state, prob, _ = levels[-1]
        parent, nxt = np.nonzero(P[state] > 0.0)
        levels.append((nxt, prob[parent] * P[state[parent], nxt], parent))
    lengths = round_lengths(taus, cfg.code.n)
    tree, rows = _prefix_tree(lengths, cfg.code.n)
    # one stepper over the rows of every depth's prefixes; step's depth index (depth, block) picks a block
    step, start = round_stepper(cfg.code, lengths[rows].T[:, :, None], cfg.scheme, kernel)
    start = (np.zeros(snrs.shape[:-1] + (1, 1)),) * len(start)  # so that every carry has a prefix axis
    A, row = np.empty((cfg.m, *snrs.shape[:-1], len(taus))), 0
    for depth, ((state, prob, parent), (up, ids)) in enumerate(zip(levels, tree)):
        count, width = len(up), max(1, _BLOCK_ELEMENTS // (snrs[..., 0].size * len(state)))
        a, kept, gamma = np.empty((*snrs.shape[:-1], count)), [], snrs[..., None, state]
        for lo in range(0, count, width):
            hi = min(lo + width, count)
            carry = start if parent is None else tuple(c[..., up[lo:hi, None], parent] for c in carried)
            carry, eps = step(carry, (depth, slice(row + lo, row + hi)), gamma)
            a[..., lo:hi] = (prob * eps).sum(axis=-1)
            if depth < cfg.m - 1:  # only the next depth reads a carry
                kept.append(carry)
        carried = kept[0] if len(kept) == 1 else [np.concatenate(c, axis=-2) for c in zip(*kept)]  # prefixes x paths
        A[depth], row = a[..., ids], row + count
    return np.minimum(A, 1.0, out=A)  # a probability: a sum above 1 is rounding


def prefix_error_grid(cfg: HarqConfig, taus, channel: float | FsmcModel,
                      kernel: KernelOptions = DEFAULT_KERNEL,
                      path_budget: int = DEFAULT_PATH_BUDGET) -> np.ndarray:
    """A_1..A_m (rows) of cfg with each row of taus in place of cfg.taus (columns).

    taus is a (candidates x m) matrix (see tau_matrix); the channel is an
    FsmcModel or a real linear SNR, which is the one-state chain.  A_j
    depends only on the first j round lengths, so each depth steps each
    distinct prefix of them (_prefix_tree) once, from its parent's carry,
    for a block of at most _BLOCK_ELEMENTS live paths x prefixes at a time.
    A sum of path probabilities that rounds above 1 is clamped to 1.
    """
    return _walk(cfg, tau_matrix(cfg.scheme, cfg.m, taus), *_chain(channel), kernel, path_budget)


def telescope(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, p_e) of A_1..A_m (rows): p holds p_0..p_{m-1} (rows), one column per candidate.

    Floating-point can make A_i - A_{i+1} negative by a few ulps; such
    terms are floored at zero and the defect is folded into p_0 so the
    distribution still sums to one.
    """
    d = A[:-1] - A[1:]
    p0 = (1.0 - A[0]) - sum(np.where(d < 0.0, -d, 0.0))  # the defect, summed round by round
    p = np.concatenate((np.where(p0 > 0.0, p0, 0.0)[None], np.where(d < 0.0, 0.0, d)))
    _check_probabilities(np.concatenate((p, A[-1:])))
    return p, A[-1]


def throughput_grid(cfg: HarqConfig, taus, p: np.ndarray, p_e) -> np.ndarray:
    """Delivered information bits per symbol-slot of each candidate (column).

    (k/n) * (1 - p_e) / expected slot cost, where a success at round i costs
    taus[0] + ... + taus[i] slots and an exhausted packet costs the full
    sum of coefficients.  Upper-bounded by k/n.  taus is the checked
    (candidates x m) matrix, p and p_e come from telescope.
    """
    if len(p) != cfg.m:
        raise DomainError(f"expected {cfg.m} success probabilities, got {len(p)}")
    slots = np.cumsum(taus, axis=1).T
    den = sum(p * slots) + p_e * slots[-1]  # round by round, then the exhausted packets
    if np.any(den <= 0.0):
        raise HarqFblError(f"nonpositive expected slot cost {den.min()} for a valid outcome")
    return cfg.code.rate * (1.0 - p_e) / den


def outcome_on(cfg: HarqConfig, channel: float | FsmcModel,
               kernel: KernelOptions = DEFAULT_KERNEL,
               path_budget: int = DEFAULT_PATH_BUDGET) -> OutcomeDistribution:
    """Resolution-event distribution of cfg on a linear SNR or on an FsmcModel."""
    p, p_e = telescope(_walk(cfg, np.array([cfg.taus], dtype=float), *_chain(channel), kernel, path_budget))
    return OutcomeDistribution(tuple(p[:, 0].tolist()), float(p_e[0]))


def outcomes_awgn(cfg: HarqConfig, gamma: float, kernel: KernelOptions = DEFAULT_KERNEL) -> OutcomeDistribution:
    """Resolution-event distribution when every round sees the same SNR."""
    return outcome_on(cfg, gamma, kernel)


def throughput(cfg: HarqConfig, outcome: OutcomeDistribution) -> float:
    """Throughput of one configuration; see throughput_grid."""
    p = np.array(outcome.p, dtype=float)[:, None]
    return float(throughput_grid(cfg, np.array([cfg.taus], dtype=float), p, outcome.p_e)[0])
