"""Stochastic validation of the analytic pipeline.

Three independent checks live here:

  - generate_trace: a correlated Rayleigh fading process synthesised from
    equal-power sinusoids with uniformly random arrival angles and phases,
    whose ensemble autocorrelation is the zeroth-order Bessel function
    J0(2*pi*f_d*tau) and whose envelope tends to Rayleigh as the number of
    oscillators grows;
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
error by orders of magnitude.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceLimitError
from .fbl import DEFAULT_KERNEL, KernelOptions, check_length, check_snr, round_stepper
from .fsmc import FsmcModel
from .outcomes import HarqConfig, OutcomeDistribution, prefix_error_grid

_BLOCK = 1 << 14  # packets or trace offsets per kernel step


def _check_seed(seed: int) -> None:
    # check_length's rule, except that a seed may be 0
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")


@dataclass(frozen=True)
class FadingTrace:
    """Complex channel gains sampled every t_tb seconds."""

    samples: np.ndarray
    f_d: float
    t_tb: float
    seed: int
    n_oscillators: int

    def __len__(self) -> int:
        return len(self.samples)


def generate_trace(
    f_d: float, t_tb: float, length: int, seed: int, n_oscillators: int = 64
) -> FadingTrace:
    """Sum-of-sinusoids Rayleigh fading trace, deterministic under seed.

    h(t) = sum_k exp(j*(2*pi*f_d*cos(alpha_k)*t + phi_k)) / sqrt(K) with
    alpha_k, phi_k iid uniform on [0, 2*pi); E|h|^2 = 1 exactly.  f_d = 0
    is a static channel: every sample equals the first.
    """
    # written so that NaN fails too
    if not 0.0 <= f_d < math.inf:
        raise DomainError(f"Doppler frequency f_d must be nonnegative and finite, got {f_d}")
    if not 0.0 < t_tb < math.inf:
        raise DomainError(f"block duration t_tb must be positive and finite, got {t_tb}")
    check_length("trace length", length)
    check_length("oscillator count", n_oscillators)
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.0, 2.0 * math.pi, n_oscillators)
    phi = rng.uniform(0.0, 2.0 * math.pi, n_oscillators)
    omega = 2.0 * math.pi * f_d * np.cos(alpha)
    t = np.arange(length, dtype=np.float64) * t_tb
    h = np.zeros(length, dtype=np.complex128)
    for k in range(n_oscillators):
        h += np.exp(1j * (omega[k] * t + phi[k]))
    h /= math.sqrt(n_oscillators)
    return FadingTrace(h, f_d, t_tb, seed, n_oscillators)


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


def _binomial_se(freq: np.ndarray, n: int) -> tuple[float, ...]:
    return tuple(math.sqrt(f * (1.0 - f) / n) for f in freq)


def _result_from_resolution(cfg: HarqConfig, resolved: np.ndarray, packets: int) -> SimResult:
    m = cfg.m
    counts = np.bincount(resolved, minlength=m + 1)
    freq = counts / packets
    outcome = OutcomeDistribution(tuple(float(f) for f in freq[:m]), float(freq[m]))

    slots = np.cumsum(cfg.taus)
    cost = np.where(resolved == m, slots[-1], slots[np.minimum(resolved, m - 1)])
    success = (resolved < m).astype(np.float64)
    rate = cfg.code.rate
    tp = rate * success.mean() / cost.mean()
    # delta method on the ratio of means
    n = packets
    sx, sy = success.std(ddof=1), cost.std(ddof=1)
    cxy = np.cov(success, cost, ddof=1)[0, 1]
    xbar, ybar = success.mean(), cost.mean()
    var = (tp / max(xbar, 1e-300)) ** 2 * sx ** 2 / n
    var += (tp / ybar) ** 2 * sy ** 2 / n
    var -= 2.0 * tp ** 2 / (max(xbar, 1e-300) * ybar) * cxy / n
    tp_se = math.sqrt(max(var, 0.0))
    return SimResult(
        outcome=outcome,
        outcome_se=_binomial_se(freq[:m], packets),
        p_e_se=math.sqrt(freq[m] * (1.0 - freq[m]) / packets),
        throughput=float(tp),
        throughput_se=tp_se,
        packets=packets,
    )


def _first_success(eps: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The resolution rule: a packet (column) resolves at the first round j with u >= eps[j], else m."""
    ok = u >= eps
    return np.where(ok.any(axis=0), ok.argmax(axis=0), len(eps))


def _resolve(cfg: HarqConfig, kernel: KernelOptions, snrs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """_first_success of packets with round-j SNRs snrs[j], _BLOCK packets per kernel step."""
    step, start = round_stepper(cfg.code, cfg.round_lengths(), cfg.scheme, kernel)
    resolved = np.empty(len(u), dtype=np.min_scalar_type(cfg.m + 1))
    for lo in range(0, len(u), _BLOCK):
        carry, eps = start, []
        for j, row in enumerate(snrs[:, lo:lo + _BLOCK]):
            carry, e = step(carry, j, row)
            eps.append(e)
        resolved[lo:lo + _BLOCK] = _first_success(np.array(eps), u[lo:lo + _BLOCK])
    return resolved


def _chain_starts(advance: np.ndarray, packets: int, samples: int) -> np.ndarray:
    """Starts s_0 = 0, s_(i+1) = s_i + advance[s_i] of back-to-back packets, by
    pointer doubling: jump maps an offset to the start 2^i packets on, and
    offsets past the trace's last full packet map to the sentinel len(advance)."""
    n = len(advance)
    jump = np.minimum(np.arange(n + 1) + np.append(advance, 0), n)
    starts = np.zeros(1, dtype=jump.dtype)
    while len(starts) < packets:
        starts, jump = np.concatenate((starts, jump[starts])), jump[jump]
    done = int(np.count_nonzero(starts[:packets] < n))
    if done < packets:
        raise ResourceLimitError(
            f"trace of {samples} samples exhausted after {done} packets; generate a longer trace")
    return starts[:packets]


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
    _check_seed(seed)
    if packet_start not in ("continuous", "iid"):
        raise DomainError(f"unknown packet_start mode {packet_start!r}")
    m = cfg.m
    rng = np.random.default_rng(seed)

    if isinstance(channel, FsmcModel):
        snrs = np.asarray(channel.state_snrs)
        check_snr(snrs.min())  # NaN propagates, so it fails too
        L, q = channel.n_states, np.asarray(channel.q)
        states = [rng.choice(L, size=packets, p=q / q.sum())]
        cum_rows = np.cumsum(np.asarray(channel.transitions), axis=1)
        for _ in range(m - 1):
            # clip guards the one-ulp shortfall of a row sum below 1.0
            states.append(np.minimum((rng.random(packets)[:, None] > cum_rows[states[-1]]).sum(axis=1), L - 1))
        u = rng.random(packets)  # drawn after the paths
        return _result_from_resolution(cfg, _resolve(cfg, kernel, snrs[np.array(states)], u), packets)
    if not isinstance(channel, TraceChannel):
        eps = prefix_error_grid(cfg, [cfg.taus], channel, kernel)
        return _result_from_resolution(cfg, _first_success(eps, rng.random(packets)), packets)

    check_snr(channel.avg_snr)
    gains = channel.avg_snr * np.abs(channel.trace.samples) ** 2
    if len(gains) <= m:
        raise ResourceLimitError(
            f"trace of {len(gains)} samples exhausted after 0 packets; generate a longer trace")
    # windows[j, t] is round j's SNR of a packet that starts at offset t
    windows = np.lib.stride_tricks.sliding_window_view(gains, m).T
    if packet_start == "iid":
        u, starts = rng.random(packets), rng.integers(0, len(gains) - m, size=packets)  # in this order
        return _result_from_resolution(cfg, _resolve(cfg, kernel, windows[:, starts], u), packets)
    resolved = _resolve(cfg, kernel, windows, rng.random(windows.shape[1]))
    starts = _chain_starts(np.minimum(resolved + 1, m), packets, len(gains))
    return _result_from_resolution(cfg, resolved[starts], packets)


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

    block = max(1, n // n_blocks)
    q_blocks = []
    for b in range(0, n - block + 1, block):
        chunk = states[b : b + block]
        q_blocks.append(np.bincount(chunk, minlength=L) / len(chunk))
    q_blocks_arr = np.asarray(q_blocks)
    q_emp = np.bincount(states, minlength=L) / n
    q_se = q_blocks_arr.std(axis=0, ddof=1) / math.sqrt(len(q_blocks))

    frm, to = states[:-1], states[1:]
    counts = np.zeros((L, L))
    np.add.at(counts, (frm, to), 1.0)
    visits = counts.sum(axis=1)
    p_emp = np.divide(counts, visits[:, None], out=np.zeros((L, L)), where=visits[:, None] > 0)

    p_block_list = []
    for b in range(0, n - 1 - block + 1, block):
        f, t = frm[b : b + block], to[b : b + block]
        cb = np.zeros((L, L))
        np.add.at(cb, (f, t), 1.0)
        vb = cb.sum(axis=1)
        p_block_list.append(np.divide(cb, vb[:, None], out=np.full((L, L), np.nan), where=vb[:, None] > 0))
    p_blocks = np.asarray(p_block_list)
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
