"""Stochastic validation of the analytic pipeline.

Three independent checks live here:

  - generate_trace: a correlated Rayleigh fading process synthesised from
    equal-power sinusoids with uniformly random arrival angles and phases,
    whose ensemble autocorrelation is the zeroth-order Bessel function
    J0(2*pi*f_d*tau) and whose envelope tends to Rayleigh as the number of
    oscillators grows, synthesised chunk by chunk as far as it is read;
  - simulate_harq: the one simulator, packet-level HARQ on the analysis's
    kernel against a fixed SNR, against state paths sampled from an FSMC
    model itself (the Monte Carlo replica of fading.outcomes_fading), or
    against a fading trace;
  - validate_fsmc: quantises a trace with a model's thresholds and compares
    empirical state occupancies and transitions against the model.

Every channel returns a SimResult and shares one rule, _first_success: a
packet's rounds are resolved against one uniform draw thresholded by the
running combined-decoder error probability.  This realises exactly the
nested failure events of the analytic model (fail with j rounds implies
fail with fewer) while each round's error is still marginally
Bernoulli(eps_j); independent per-round draws would understate the residual
error by orders of magnitude.  Kernel and trace gains are evaluated only where
a decision needs them: round j after a failed round j - 1, at offsets packets reach.
From fbl._screen_snr's g_hi on, round 1's Q argument is at least 4, so its computed
eps is below 1e-8: a packet with round-1 SNR >= g_hi and u >= 1e-8 is decided in
round 1 from those two numbers alone.  Packets are resolved half a synthesis chunk
(_SPAN) at a time, and the kernel steps a span's other packets in groups of up to
_BLOCK.  Back-to-back packets take a trace's offsets span by span: one chain of
start offsets runs through each span from the start the last one carries over, and
each start is counted by its class, so no index of starts is built.  A fixed SNR
needs no kernel per packet: each packet resolves at the first of the m thresholds
eps_j with u >= eps_j.
"""

from __future__ import annotations

import math
import numbers
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ResourceLimitError
from .fbl import _SCREEN_U, DEFAULT_KERNEL, KernelOptions, _screen_snr, check_length, check_snr, round_stepper
from .fsmc import FsmcModel
from .outcomes import HarqConfig, OutcomeDistribution, prefix_error_grid

_BLOCK = 1 << 14  # packets or trace offsets per kernel step
_TRACE_BLOCK = 512  # trace samples per block; each block starts from exact phasors
_TRACE_CHUNK = 256  # phasor blocks per matmul
# packets, or trace offsets, resolved and walked at once: half a synthesis chunk, so that the
# span-long arrays stay small (a whole chunk peaks 0.8 MiB higher)
_SPAN = _TRACE_CHUNK * _TRACE_BLOCK // 2
_TRACE_MAX = 1 << 27  # trace samples: 2 GiB of complex128
_OSCILLATORS_MAX = 1 << 12  # oscillators: a 32 MiB rotation and 16 MiB of phasors per chunk
_PACKETS_MAX = 1 << 24  # packets per simulation; a fixed-SNR run of this many peaks near 33 MiB


def _check_seed(seed: int) -> None:
    # check_length's rule, except that a seed may be 0
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")


class _Synthesis(NamedTuple):  # a trace's samples, allocated up front, and the generator that fills their chunks
    samples: np.ndarray
    chunks: Iterator[int]


@dataclass(frozen=True)
class FadingTrace:
    """Complex channel gains sampled every t_tb seconds.  A trace from generate_trace is
    synthesised chunk by chunk on first read: prefix(n) synthesises the chunks that hold the
    first n samples, reading samples all of them and len() none; synthesised counts the samples
    that exist so far.  A trace built from an array is complete."""

    samples: np.ndarray
    f_d: float
    t_tb: float
    seed: int
    n_oscillators: int

    def __post_init__(self) -> None:
        # generate_trace passes a _Synthesis as samples: it is kept aside and samples left unset
        # until complete, so that reading samples reaches __getattr__; samples given as an array
        # are checked here, and a synthesis is not, so that nothing is synthesised early
        lazy = isinstance(self.samples, _Synthesis)
        if not lazy:
            try:
                object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.complex128))
                valid = self.samples.ndim == 1 and not np.isnan(self.samples).any()
            except (TypeError, ValueError):
                valid = False
            if not valid:
                raise DomainError("trace samples must be a 1-D array of complex gains, none of them NaN")
        synthesis = self.__dict__.pop("samples") if lazy else _Synthesis(self.samples, iter(()))
        object.__setattr__(self, "_synthesis", synthesis)
        object.__setattr__(self, "synthesised", 0 if lazy else len(self.samples))

    def __getattr__(self, name: str):
        if name != "samples" or "_synthesis" not in self.__dict__:
            raise AttributeError(name)
        object.__setattr__(self, "samples", self.prefix(len(self)))  # complete: read directly from now on
        return self.samples

    def __len__(self) -> int:
        return len(self._synthesis.samples)

    def prefix(self, n: int) -> np.ndarray:
        """Samples 0..n-1 (all of them past the end), synthesising only the chunks that hold them."""
        while self.synthesised < min(n, len(self)):
            object.__setattr__(self, "synthesised", next(self._synthesis.chunks))
        return self._synthesis.samples[:n]


def generate_trace(
    f_d: float, t_tb: float, length: int, seed: int, n_oscillators: int = 64
) -> FadingTrace:
    """Sum-of-sinusoids Rayleigh fading trace, deterministic under seed.

    h(t) = sum_k exp(j*(2*pi*f_d*cos(alpha_k)*t + phi_k)) / sqrt(K) with
    alpha_k, phi_k iid uniform on [0, 2*pi); E|h|^2 = 1 exactly.  f_d = 0
    is a static channel: every sample equals the first.

    Each oscillator's phasor is exact at every block start and one shared
    rotation carries it across the block, a matrix product per chunk of
    blocks: a sample is within 4 * 2**-52 * max_k |omega_k*t + phi_k| of the
    exact sum, the rounding of the phase itself.  Every argument is checked
    here, but a chunk is synthesised only when the trace is first read there.
    """
    # written so that NaN fails too
    if not 0.0 <= f_d < math.inf:
        raise DomainError(f"Doppler frequency f_d must be nonnegative and finite, got {f_d}")
    if not 0.0 < t_tb < math.inf:
        raise DomainError(f"block duration t_tb must be positive and finite, got {t_tb}")
    check_length("trace length", length)
    check_length("oscillator count", n_oscillators)
    _check_seed(seed)
    if not math.isfinite(2.0 * math.pi * f_d * t_tb * (length - 1)):
        raise DomainError(f"trace phase 2*pi*f_d*t_tb*(length - 1) overflows at length {length}")
    if length > _TRACE_MAX:
        raise ResourceLimitError(f"trace length {length} exceeds the limit of {_TRACE_MAX} samples")
    if n_oscillators > _OSCILLATORS_MAX:
        raise ResourceLimitError(f"oscillator count {n_oscillators} exceeds the limit of {_OSCILLATORS_MAX}")
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.0, 2.0 * math.pi, n_oscillators)
    phi = rng.uniform(0.0, 2.0 * math.pi, n_oscillators)
    omega = 2.0 * math.pi * f_d * np.cos(alpha)
    width, scale = min(_TRACE_BLOCK, length), 1.0 / math.sqrt(n_oscillators)
    # rotation minus one, exactly 0 at f_d = 0, so that no BLAS summation
    # order can make a static channel's samples differ
    rotate = np.expm1(1j * np.outer(omega, np.arange(width) * t_tb))
    h = np.empty((-(-length // width), width), dtype=np.complex128)  # no page is touched before its chunk

    def chunks():  # one chunk per next(), in order, the last one short; yields how many samples exist
        for lo in range(0, len(h), _TRACE_CHUNK):
            t0 = np.arange(lo, min(lo + _TRACE_CHUNK, len(h))) * width * t_tb  # exact index, rounded once
            starts = np.exp(1j * (np.outer(t0, omega) + phi))
            rows = np.matmul(starts, rotate, out=h[lo:lo + _TRACE_CHUNK])
            rows += starts.sum(axis=1)[:, None]
            # numpy divides a complex array by a real one as a product with the reciprocal, so
            # scaling the real view is bitwise the same at half the arithmetic
            rows.view(np.float64)[...] *= scale
            yield min((lo + len(rows)) * width, length)

    return FadingTrace(_Synthesis(h.reshape(-1)[:length], chunks()), f_d, t_tb, seed, n_oscillators)


@dataclass(frozen=True)
class TraceChannel:
    """A fading trace plus the mean SNR scaling |h|^2 into a linear SNR."""

    trace: FadingTrace
    avg_snr: float


@dataclass(frozen=True)
class SimResult:
    """Empirical outcome frequencies and throughput with standard errors."""

    outcome: OutcomeDistribution
    outcome_se: tuple[float, ...]
    p_e_se: float
    throughput: float
    throughput_se: float
    packets: int


def _class_counts(resolved: np.ndarray, m: int) -> np.ndarray:
    # one pass per class: a bincount would first widen resolved to int64
    return np.array([np.count_nonzero(resolved == j) for j in range(m + 1)])


def _result_from_resolution(cfg: HarqConfig, counts: np.ndarray) -> SimResult:
    """Every statistic from the m + 1 counts of packets resolved at rounds 0..m-1 and unresolved."""
    m, packets = cfg.m, int(counts.sum())
    freq = counts / packets
    se = np.sqrt(freq * (1.0 - freq) / packets)  # binomial
    outcome = OutcomeDistribution(tuple(float(f) for f in freq[:m]), float(freq[m]))

    # success x and slot cost y take one value per class of resolved, so the
    # delta method on the ratio of their means is a sum over the m + 1 classes
    slots, j = np.cumsum(cfg.taus), np.arange(m + 1)
    x, y = (j < m).astype(np.float64), slots[np.minimum(j, m - 1)]
    xbar, ybar = counts @ x / packets, counts @ y / packets
    tp = cfg.code.rate * xbar / ybar
    grad = tp / max(xbar, 1e-300) * (x - xbar) - tp / ybar * (y - ybar)
    tp_se = math.sqrt(counts @ (grad * grad) / (packets - 1) / packets)
    return SimResult(
        outcome=outcome,
        outcome_se=tuple(se[:m].tolist()),
        p_e_se=float(se[m]),
        throughput=float(tp),
        throughput_se=tp_se,
        packets=packets,
    )


def _first_success(stepper, g_hi: float, u: np.ndarray, snr_of, m: int) -> np.ndarray:
    """The resolution rule: packet i resolves at the first round j with u[i] >= eps_j, else at m.

    snr_of(j, i) gives round j's SNRs of the packets i, a slice or indices.  Packets come _SPAN at
    a time.  A span is screened _BLOCK packets at a time: those with round-1 SNR >= g_hi and
    u >= _SCREEN_U decode in round 1 there (see fbl._screen_snr).  The span's other packets (NaN
    SNRs too) are stepped (stepper is round_stepper's) in groups of up to _BLOCK: round j only
    for the packets that failed round j - 1, until none are left.
    """
    step, start = stepper
    resolved = np.zeros(len(u), dtype=np.min_scalar_type(m + 1))
    for lo in range(0, len(u), _SPAN):
        hi = min(lo + _SPAN, len(u))
        blocks = [slice(a, min(a + _BLOCK, hi)) for a in range(lo, hi, _BLOCK)]
        undecided = np.concatenate([np.flatnonzero(~((snr_of(0, b) >= g_hi) & (u[b] >= _SCREEN_U))) + b.start
                                    for b in blocks])
        for a in range(0, len(undecided), _BLOCK):
            i, carry = undecided[a:a + _BLOCK], start
            for j in range(m):
                carry, eps = step(carry, j, snr_of(j, i))
                fail = ~(u[i] >= eps)  # written so that a NaN eps fails
                resolved[i[~fail]] = j
                i, carry = i[fail], tuple(c[fail] for c in carry)
                if not len(i):
                    break
            resolved[i] = m
    return resolved


def _walk_starts(advance: np.ndarray, start: int) -> tuple[np.ndarray, int]:
    """The chain s_0 = start, s_(i+1) = s_i + advance[s_i] over the offsets of advance: a mask
    of the starts it visits there and its first start past them, from which the walk resumes
    over the next offsets.  An offset with advance 1 hands the start to the next, so only the
    jumping offsets J (advance >= 2) are chained, by pointer doubling over their orbit; the
    offsets their jumps skip are marked by a toggle where each run opens and where it closes."""
    n = len(advance)
    J = np.flatnonzero(advance >= 2)
    # the next jumping offset reached from each one; len(J) is the sentinel
    nxt = np.append(np.searchsorted(J, J + advance[J]), len(J))
    orbit = np.searchsorted(J, [start])  # the first jumping offset from start on
    while orbit[-1] != len(J):
        orbit, nxt = np.concatenate((orbit, nxt[orbit])), nxt[nxt]
    visited = J[orbit[orbit < len(J)]]
    landing = visited + advance[visited]
    # the skipped runs are disjoint and not empty, so each opens and closes at an offset of its own
    toggles = np.zeros(n + 1, dtype=bool)
    toggles[visited + 1] = toggles[np.minimum(landing, n)] = True
    mask = ~np.logical_xor.accumulate(toggles[:n])
    mask[:start] = False
    return mask, int(max(n, landing[-1] if len(visited) else start))


def simulate_harq(
    cfg: HarqConfig,
    channel: float | FsmcModel | TraceChannel,
    packets: int,
    seed: int,
    kernel: KernelOptions = DEFAULT_KERNEL,
    packet_start: str = "continuous",
) -> SimResult:
    """Packet-level HARQ simulation returning empirical outcome statistics.

    channel is a linear SNR for the fixed-SNR case; an FsmcModel, on which
    each packet's first state is drawn from q and each retransmission
    advances the chain one step, so that agreement with
    fading.outcomes_fading is limited only by sampling noise; or a
    TraceChannel whose consecutive samples supply the per-round SNRs.
    packet_start selects whether the trace advances continuously across
    packets (physical back-to-back behaviour) or jumps to an independent
    random position for every packet.  In continuous mode each trace offset
    draws one uniform; start offsets are stopping times, so that is one
    uniform per packet.
    """
    check_length("packets", packets)
    if packets < 1_000:
        raise DomainError(f"need at least 1e3 packets, got {packets}")
    if packets > _PACKETS_MAX:
        raise ResourceLimitError(f"packet count {packets} exceeds the limit of {_PACKETS_MAX} packets")
    _check_seed(seed)
    if packet_start not in ("continuous", "iid"):
        raise DomainError(f"unknown packet_start mode {packet_start!r}")
    m = cfg.m
    rng = np.random.default_rng(seed)
    stepper = round_stepper(cfg.code, cfg.round_lengths(), cfg.scheme, kernel)

    if not isinstance(channel, (FsmcModel, TraceChannel)):
        # the one-state chain's eps_j are m thresholds: the last j with u >= eps_j written wins, so
        # each packet ends at the first such j, as in _first_success; uniforms are drawn block by
        # block, the same stream as one draw of them all
        eps = prefix_error_grid(cfg, [cfg.taus], channel, kernel)[:, 0]
        resolved = np.full(packets, m, dtype=np.min_scalar_type(m + 1))
        for lo in range(0, packets, _BLOCK):
            u, block = rng.random(min(_BLOCK, packets - lo)), resolved[lo:lo + _BLOCK]
            for j in range(m - 1, -1, -1):
                block[u >= eps[j]] = j
        return _result_from_resolution(cfg, _class_counts(resolved, m))

    g_hi = _screen_snr(cfg.code, cfg.scheme, kernel)
    if isinstance(channel, FsmcModel):
        snrs = np.asarray(channel.state_snrs)
        check_snr(snrs.min())  # NaN propagates, so it fails too
        L, q = channel.n_states, np.asarray(channel.q)
        states = [rng.choice(L, size=packets, p=q / q.sum()).astype(np.min_scalar_type(L - 1))]
        cum_rows = np.cumsum(np.asarray(channel.transitions), axis=1)
        for _ in range(m - 1):
            # row by row, the first state whose cumulative mass reaches u; clip guards a row sum below 1.0
            prev, u, nxt = states[-1], rng.random(packets), np.empty_like(states[0])
            for row in range(L):
                sel = np.flatnonzero(prev == row)
                nxt[sel] = np.minimum(np.searchsorted(cum_rows[row], u[sel], side="left"), L - 1)
            states.append(nxt)
        u = rng.random(packets)  # drawn after the paths
        resolved = _first_success(stepper, g_hi, u, lambda j, i: snrs[states[j][i]], m)
        return _result_from_resolution(cfg, _class_counts(resolved, m))

    check_snr(channel.avg_snr)
    trace = channel.trace
    n = len(trace) - m + 1  # offsets at which a whole packet fits
    exhausted = f"trace of {len(trace)} samples exhausted after {{}} packets; generate a longer trace"
    if n <= 1:
        raise ResourceLimitError(exhausted.format(0))

    def gains(h):  # linear SNRs of the samples a decision reads, and of no other
        return channel.avg_snr * np.abs(h) ** 2

    if packet_start == "iid":
        u, starts = rng.random(packets), rng.integers(0, n, size=packets)  # in this order
        resolved = _first_success(stepper, g_hi, u, lambda j, i: gains(trace.samples[starts[i] + j]), m)
        return _result_from_resolution(cfg, _class_counts(resolved, m))
    # offsets are resolved _SPAN at a time; each packet takes at least one offset, so none from start +
    # (packets - done) on is needed yet; offset i gets uniform i of the stream, however spans fall
    counts, done, start, lo = np.zeros(m + 1, dtype=np.int64), 0, 0, 0
    while done < packets:
        hi = min(lo + _SPAN, n, start + packets - done)
        if hi <= lo:
            raise ResourceLimitError(exhausted.format(done))
        h = trace.prefix(hi + m - 1)
        resolved = _first_success(stepper, g_hi, rng.random(hi - lo), lambda j, i: gains(h[lo + j:][i]), m)
        visited, start = _walk_starts(np.minimum(resolved + 1, m), start - lo)
        resolved = resolved[visited][:packets - done]
        counts += _class_counts(resolved, m)
        done, start, lo = done + len(resolved), start + lo, hi
        del resolved, visited  # not held while the next span is resolved
    return _result_from_resolution(cfg, counts)


@dataclass(frozen=True)
class FsmcValidation:
    """Empirical occupancy/transition statistics of a quantised trace.

    Standard errors come from contiguous-block resampling so the strong
    sample-to-sample correlation of the trace is accounted for; flags mark
    entries deviating by more than 3 such standard errors.  skip_mass is
    the empirical probability of a jump beyond adjacent states, which the
    tridiagonal model assumes to be zero.
    """

    q_emp: tuple[float, ...]
    q_se: tuple[float, ...]
    q_flags: tuple[bool, ...]
    p_emp: tuple[tuple[float, ...], ...]
    p_se: tuple[tuple[float, ...], ...]
    p_flags: tuple[tuple[bool, ...], ...]
    skip_mass: float
    samples: int


def validate_fsmc(model: FsmcModel, trace: FadingTrace, n_blocks: int = 100) -> FsmcValidation:
    """Quantise a trace by the model thresholds and compare q and P."""
    check_length("block count n_blocks", n_blocks)
    env = np.abs(trace.samples)
    edges = np.asarray(model.thresholds[1:-1])
    states = np.searchsorted(edges, env, side="right")
    L = model.n_states
    n = len(states)
    if not n:
        raise DomainError("cannot validate a model against an empty trace")
    block = max(1, n // n_blocks)

    def block_counts(keys: np.ndarray, bins: int) -> np.ndarray:
        # (blocks, bins) counts of keys in each whole block, by one bincount of block_id * bins + key
        nb = len(keys) // block
        ids = keys[:nb * block].reshape(nb, block) + bins * np.arange(nb)[:, None]
        return np.bincount(ids.ravel(), minlength=nb * bins).reshape(nb, bins)

    q_blocks = block_counts(states, L) / block
    q_emp = np.bincount(states, minlength=L) / n
    q_se = q_blocks.std(axis=0, ddof=1) / math.sqrt(len(q_blocks))

    pairs = states[:-1] * L + states[1:]  # from * L + to
    counts = np.bincount(pairs, minlength=L * L).reshape(L, L)
    visits = counts.sum(axis=1)
    p_emp = np.divide(counts, visits[:, None], out=np.zeros((L, L)), where=visits[:, None] > 0)

    cb = block_counts(pairs, L * L).reshape(-1, L, L)
    vb = cb.sum(axis=2, keepdims=True)
    p_blocks = np.divide(cb, vb, out=np.full(cb.shape, np.nan), where=vb > 0)
    valid = np.sum(~np.isnan(p_blocks), axis=0)
    assessable = valid >= 2
    p_se = np.zeros((L, L))
    if p_blocks.size:
        with np.errstate(invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sd = np.nanstd(p_blocks, axis=0, ddof=1)
        p_se[assessable] = sd[assessable] / np.sqrt(valid[assessable])

    q_ref = np.asarray(model.q)
    p_ref = np.asarray(model.transitions)
    q_flags = np.abs(q_emp - q_ref) > 3.0 * np.maximum(q_se, 1e-300)
    p_flags = assessable & (np.abs(p_emp - p_ref) > 3.0 * np.maximum(p_se, 1e-300))

    skip = float(np.sum(counts[np.abs(np.subtract.outer(np.arange(L), np.arange(L))) > 1]) / max(1, n - 1))
    return FsmcValidation(
        q_emp=tuple(q_emp),
        q_se=tuple(q_se),
        q_flags=tuple(bool(x) for x in q_flags),
        p_emp=tuple(tuple(row) for row in p_emp),
        p_se=tuple(tuple(row) for row in p_se),
        p_flags=tuple(tuple(bool(x) for x in row) for row in p_flags),
        skip_mass=skip,
        samples=n,
    )
