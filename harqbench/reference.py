"""Reference computations for the benchmark's correctness checks.

Nothing here imports harqfbl.  Every quantity is derived again from the
conventions the toolkit documents (README "Conventions", module docstrings),
so a check compares the program with an independent computation and never
with a stored copy of an earlier output.

* Kernel: Q((C - k + log2 N) / sqrt(D)) with the dispersion in nats^2.  Chase
  combining uses the combined SNR over the full codeword; incremental
  redundancy accumulates n_i*log2(1+g_i) and n_i*v(g_i) over rounds.
* Outcomes: p_0 = 1 - A_1, p_i = A_i - A_{i+1}, p_e = A_m, where A_j is the
  decoder error after j rounds averaged over the channel.  A fixed SNR is a
  one-state chain, so one dense enumeration serves both channels.
* Fading: all L^j state paths, zero-probability ones included.
* FSMC: thresholds of the Rayleigh envelope solved with scipy's brentq.
* Delay: the binomial closed form for m = 2 and stream cumulants for m = 3.
* Monte Carlo: a Clarke sum-of-sinusoids trace built by blocked matrix
  products and a continuous-mode packet walk with one uniform per offset.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, special, stats

SQRT_2PI = math.sqrt(2.0 * math.pi)
IR_CHUNK = 64  # grid points per block of the IR path enumeration
TRACE_BLOCK = 1024  # samples per block of the Clarke trace


def db_to_linear(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)


def round_lengths(n: int, taus) -> np.ndarray:
    """Symbols per round: tau*n rounded to nearest, at least one."""
    t = np.asarray(taus, dtype=float)
    return np.maximum(1, np.floor(t * n + 0.5)).astype(np.int64)


def cumulative_slots(taus) -> np.ndarray:
    return np.cumsum(np.asarray(taus, dtype=float), axis=-1)


def _q(x):
    return 0.5 * special.erfc(x / math.sqrt(2.0))


def eps_cc(n: int, k: int, snr_sum):
    """Chase-combining error after combining rounds of total SNR snr_sum."""
    s = np.asarray(snr_sum, dtype=float)
    v = 1.0 - (1.0 + s) ** -2
    cap = n * np.log2(1.0 + s)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = (cap - k + math.log2(n)) / np.sqrt(n * v)
    return np.where(v == 0.0, (cap <= k).astype(float), np.clip(_q(x), 0.0, 1.0))


def eps_ir(k: int, cap, disp, n_total):
    """Incremental-redundancy error from accumulated capacity and dispersion."""
    cap = np.asarray(cap, dtype=float)
    disp = np.asarray(disp, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = (cap - k + np.log2(n_total)) / np.sqrt(disp)
    return np.where(disp == 0.0, (cap <= k).astype(float), np.clip(_q(x), 0.0, 1.0))


class Chain:
    """A Markov channel: first-round state law q, transitions P, state SNRs."""

    def __init__(self, q, P, snrs):
        self.q = np.asarray(q, dtype=float)
        self.P = np.asarray(P, dtype=float)
        self.snrs = np.asarray(snrs, dtype=float)

    @classmethod
    def fixed(cls, snr: float) -> "Chain":
        return cls([1.0], [[1.0]], [snr])


def prefix_errors(scheme: str, n: int, k: int, lengths, chain: Chain) -> np.ndarray:
    """A_j for every row of lengths (points x m), by dense path enumeration.

    Paths of depth j are all L^j state sequences; a zero transition only
    zeroes the path's weight.
    """
    lengths = np.atleast_2d(np.asarray(lengths, dtype=np.int64))
    points, m = lengths.shape
    L = len(chain.q)
    cap_state = np.log2(1.0 + chain.snrs)
    disp_state = 1.0 - (1.0 + chain.snrs) ** -2
    out = np.empty((points, m))
    states = [np.arange(L)]
    prob = chain.q.copy()
    for j in range(1, m + 1):
        if j > 1:
            states = [np.repeat(s, L) for s in states] + [np.tile(np.arange(L), L ** (j - 1))]
            prob = np.repeat(prob, L) * chain.P[states[-2], states[-1]]
        if scheme == "CC":
            snr_sum = sum(chain.snrs[s] for s in states)
            out[:, j - 1] = prob @ eps_cc(n, k, snr_sum)
            continue
        n_total = lengths[:, :j].sum(axis=1)
        for lo in range(0, points, IR_CHUNK):
            rows = slice(lo, lo + IR_CHUNK)
            cap = sum(lengths[rows, i, None] * cap_state[states[i]][None, :] for i in range(j))
            disp = sum(lengths[rows, i, None] * disp_state[states[i]][None, :] for i in range(j))
            out[rows, j - 1] = eps_ir(k, cap, disp, n_total[rows, None]) @ prob
    return out


def outcomes(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Telescope A (points x m) into success probabilities p (points x m) and p_e."""
    A = np.atleast_2d(A)
    p = np.empty_like(A)
    p[:, 0] = 1.0 - A[:, 0]
    p[:, 1:] = A[:, :-1] - A[:, 1:]
    return p, A[:, -1]


def throughput(k: int, n: int, taus, p, p_e):
    """(k/n)(1 - p_e) / expected slots; success at round i costs sum(taus[:i+1])."""
    slots = cumulative_slots(taus)
    cost = (p * slots).sum(axis=-1) + p_e * slots[..., -1]
    return (k / n) * (1.0 - p_e) / cost


def evaluate(scheme: str, n: int, k: int, taus, chain: Chain):
    """(p, p_e, throughput) for every row of taus (points x m); p_e is the PER."""
    taus = np.atleast_2d(np.asarray(taus, dtype=float))
    p, p_e = outcomes(prefix_errors(scheme, n, k, round_lengths(n, taus), chain))
    return p, p_e, throughput(k, n, taus, p, p_e)


# ---------------------------------------------------------------- FSMC

def _lcr(eta: float) -> float:
    """Level crossing rate at f_d = 1 Hz."""
    return 0.0 if math.isinf(eta) else SQRT_2PI * eta * math.exp(-eta * eta)


def _occupancy(a: float, b: float) -> float:
    if math.isinf(b):
        return math.exp(-a * a)
    return -math.exp(-a * a) * math.expm1(a * a - b * b)


def sojourn(a: float, b: float) -> float:
    """Expected sojourn in [a, b), normalised to f_d = 1 Hz."""
    return _occupancy(a, b) / (_lcr(a) + _lcr(b))


def next_threshold(a: float, target: float) -> float | None:
    """Upper edge b with sojourn(a, b) = target, or None if unreachable."""
    if a > 0.0 and target >= sojourn(a, math.inf):
        return None
    hi = a + 1.0
    while sojourn(a, hi) < target:
        hi = a + 2.0 * (hi - a)
        if hi > 1e3:
            return None
    lo = a + 1e-12 * max(a, 1.0)
    return optimize.brentq(lambda b: sojourn(a, b) - target, lo, hi, xtol=1e-15, rtol=1e-15, maxiter=500)


def _interior(n_states: int, target: float) -> list[float] | None:
    etas = [0.0]
    for _ in range(n_states):
        b = next_threshold(etas[-1], target)
        if b is None:
            return None
        etas.append(b)
    return etas


def fixed_sojourn_thresholds(L: int, c: float, fdt: float) -> list[float] | None:
    etas = _interior(L - 1, c * fdt)
    return None if etas is None else etas + [math.inf]


def equal_duration_thresholds(L: int) -> tuple[list[float], float]:
    """Thresholds giving L states one common normalised sojourn T, and T."""

    def gap(T: float) -> float:
        etas = _interior(L - 1, T)
        # the tail sojourn tends to 0 as the last interior edge runs off to
        # infinity, so -T continues the gap past the reachable range
        return -T if etas is None else sojourn(etas[-1], math.inf) - T

    T = optimize.brentq(gap, 1e-9, 10.0, xtol=1e-300, rtol=1e-15, maxiter=1000)
    return _interior(L - 1, T) + [math.inf], T


def chain_from_thresholds(etas, f_d: float, t_tb: float, avg_snr: float) -> Chain:
    L = len(etas) - 1
    q = np.array([_occupancy(etas[i], etas[i + 1]) for i in range(L)])
    P = np.zeros((L, L))
    for i in range(L):
        up = _lcr(etas[i + 1]) * f_d * t_tb / q[i] if i < L - 1 else 0.0
        down = _lcr(etas[i]) * f_d * t_tb / q[i] if i > 0 else 0.0
        P[i, i] = 1.0 - up - down
        if i < L - 1:
            P[i, i + 1] = up
        if i > 0:
            P[i, i - 1] = down

    def second_moment(x: float) -> float:
        return 0.0 if math.isinf(x) else math.exp(-x * x) * (x * x + 1.0)

    snrs = [avg_snr * (second_moment(etas[i]) - second_moment(etas[i + 1])) / q[i] for i in range(L)]
    return Chain(q, P, snrs)


def sojourn_times(etas, f_d: float) -> np.ndarray:
    return np.array([sojourn(a, b) for a, b in zip(etas[:-1], etas[1:])]) / f_d


# ---------------------------------------------------------------- delay

def binomial_stream(N: int, tau1: float, p_fail: float):
    """m = 2 stream: i first-try successes give delay (1+tau1)N - i*tau1.

    Returns (i, delay, mass, tail) with tail = P(delay > delay_i).
    """
    i = np.arange(N + 1)
    p_ok = 1.0 - p_fail
    return i, (1.0 + tau1) * N - i * tau1, stats.binom.pmf(i, N, p_ok), stats.binom.cdf(i - 1, N, p_ok)


def cumulants(support, mass) -> np.ndarray:
    """Mean, variance and third central moment of a discrete law."""
    x = np.asarray(support, dtype=float)
    w = np.asarray(mass, dtype=float)
    w = w / w.sum()
    mu = float(w @ x)
    d = x - mu
    return np.array([mu, float(w @ d**2), float(w @ d**3)])


# ---------------------------------------------------------------- Monte Carlo

def clarke_trace(f_d: float, t_tb: float, length: int, seed: int, n_osc: int = 64) -> np.ndarray:
    """Sum of n_osc unit phasors with uniform arrival angles and phases.

    Angles and then phases are drawn from default_rng(seed); the samples are
    products of block-start phasors and in-block rotations.
    """
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.0, 2.0 * math.pi, n_osc)
    phi = rng.uniform(0.0, 2.0 * math.pi, n_osc)
    omega = 2.0 * math.pi * f_d * np.cos(alpha)
    n_blocks = -(-length // TRACE_BLOCK)
    starts = np.exp(1j * (np.outer(np.arange(n_blocks) * (TRACE_BLOCK * t_tb), omega) + phi))
    rotate = np.exp(1j * np.outer(np.arange(TRACE_BLOCK) * t_tb, omega))
    return (starts @ rotate.T).ravel()[:length] / math.sqrt(n_osc)


def continuous_walk_m2(eps1: np.ndarray, eps2: np.ndarray, packets: int,
                       u: np.ndarray) -> np.ndarray:
    """Outcome counts (p0, p1, p_e) of packets sent back to back on a trace.

    eps1[t] and eps2[t] are the decoder errors of a packet whose first round
    sees offset t and whose second sees t + 1.

    A packet starting at offset t resolves against u[t]: success in round 1
    moves the next start one offset on, anything else two.  Start offsets
    are stopping times, so one uniform per offset has the law of one per
    packet.  A start is visited unless the previous offset was a visited
    two-slot packet; along a run of two-slot offsets visits alternate.
    """
    n = len(eps1)
    ok1 = u[:n] >= eps1[:n]
    two = ~ok1
    idx = np.arange(n)
    reset = np.empty(n, dtype=bool)
    reset[0] = True
    reset[1:] = ~two[:-1]
    last_reset = np.maximum.accumulate(np.where(reset, idx, 0))
    visited = (idx - last_reset) % 2 == 0
    starts = np.flatnonzero(visited)[:packets]
    if len(starts) < packets:
        raise ValueError("trace too short for the requested packets")
    first = ok1[starts]
    second = ~first & (u[starts] >= eps2[starts])
    return np.array([first.sum(), second.sum(), packets - first.sum() - second.sum()])
