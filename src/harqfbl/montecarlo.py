"""Stochastic validation of the analytic pipeline.

Three independent checks live here:

  - generate_trace: a correlated Rayleigh fading process synthesised from
    equal-power sinusoids with uniformly random arrival angles and phases,
    whose ensemble autocorrelation is the zeroth-order Bessel function
    J0(2*pi*f_d*tau) and whose envelope tends to Rayleigh as the number of
    oscillators grows;
  - simulate_harq: packet-level HARQ against a fixed SNR or against a
    fading trace; each round costs one step of the analysis's kernel,
    fbl.round_stepper, on the packet's running carry;
  - validate_fsmc: quantises a trace with a model's thresholds and compares
    empirical state occupancies and transitions against the model.

A packet's rounds are resolved against one shared uniform draw thresholded
by the running combined-decoder error probability.  This realises exactly
the nested failure events of the analytic model (fail with j rounds implies
fail with fewer) while each round's error is still marginally
Bernoulli(eps_j); independent per-round draws would understate the residual
error by orders of magnitude.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceLimitError
from .fbl import DEFAULT_KERNEL, KernelOptions, check_snr
from .fsmc import FsmcModel
from .outcomes import HarqConfig, OutcomeDistribution, prefix_error_probs
from .delay import DelayPmf, single_packet_delay


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
    alpha_k, phi_k iid uniform on [0, 2*pi); E|h|^2 = 1 exactly.
    """
    if length < 1:
        raise DomainError(f"trace length must be positive, got {length}")
    if n_oscillators < 1:
        raise DomainError(f"need at least one oscillator, got {n_oscillators}")
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


def trace_csv_lines(trace: FadingTrace):
    """CSV regression-fixture form of a trace: one (re, im) pair per line."""
    yield "re,im"
    for h in trace.samples:
        yield f"{h.real:.12g},{h.imag:.12g}"


def save_trace(trace: FadingTrace, path) -> None:
    """Binary (.npy) export of the complex samples."""
    np.save(path, trace.samples)


@dataclass(frozen=True)
class TraceChannel:
    """A fading trace plus the mean SNR scaling |h|^2 into a linear SNR."""

    trace: FadingTrace
    avg_snr: float


@dataclass(frozen=True)
class SimResult:
    outcome: OutcomeDistribution
    outcome_se: tuple[float, ...]
    p_e_se: float
    throughput: float
    throughput_se: float
    delay: DelayPmf
    packets: int

    def to_dict(self) -> dict:
        return {
            "p": list(self.outcome.p),
            "p_e": self.outcome.p_e,
            "p_se": list(self.outcome_se),
            "p_e_se": self.p_e_se,
            "throughput": self.throughput,
            "throughput_se": self.throughput_se,
            "delay_support": [float(d) for d in self.delay.support],
            "delay_mass": list(self.delay.mass),
            "packets": self.packets,
        }


def _binomial_se(freq: np.ndarray, n: int) -> tuple[float, ...]:
    return tuple(math.sqrt(f * (1.0 - f) / n) for f in freq)


def _result_from_resolution(cfg: HarqConfig, resolved: np.ndarray, packets: int) -> SimResult:
    m = cfg.m
    counts = np.bincount(resolved, minlength=m + 1)
    freq = counts / packets
    outcome = OutcomeDistribution(tuple(float(f) for f in freq[:m]), float(freq[m]))

    slots = np.asarray(cfg.cumulative_slots())
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

    emp_delay = single_packet_delay(cfg, outcome)
    return SimResult(
        outcome=outcome,
        outcome_se=_binomial_se(freq[:m], packets),
        p_e_se=math.sqrt(freq[m] * (1.0 - freq[m]) / packets),
        throughput=float(tp),
        throughput_se=tp_se,
        delay=emp_delay,
        packets=packets,
    )


def simulate_harq(
    cfg: HarqConfig,
    channel: float | TraceChannel,
    packets: int,
    seed: int,
    kernel: KernelOptions = DEFAULT_KERNEL,
    packet_start: str = "continuous",
) -> SimResult:
    """Packet-level HARQ simulation returning empirical outcome statistics.

    channel is a linear SNR for the fixed-SNR case, or a TraceChannel whose
    consecutive samples supply the per-round SNRs.  packet_start selects
    whether the trace advances continuously across packets (physical
    back-to-back behaviour) or jumps to an independent random position for
    every packet.
    """
    if packets < 1_000:
        raise DomainError(f"need at least 1e3 packets, got {packets}")
    if packet_start not in ("continuous", "iid"):
        raise DomainError(f"unknown packet_start mode {packet_start!r}")
    m = cfg.m
    rng = np.random.default_rng(seed)

    if isinstance(channel, TraceChannel):
        check_snr(channel.avg_snr)
        step, start = cfg.stepper(kernel)
        gains = channel.avg_snr * np.abs(channel.trace.samples) ** 2
        u = rng.random(packets)
        if packet_start == "iid":
            starts = rng.integers(0, len(gains) - m, size=packets)
        resolved = np.empty(packets, dtype=np.int64)
        ptr = 0
        for i in range(packets):
            if packet_start == "iid":
                ptr = int(starts[i])
            elif ptr + m > len(gains):
                raise ResourceLimitError(
                    f"trace of {len(gains)} samples exhausted after {i} packets; "
                    f"generate a longer trace"
                )
            carry = start
            res = m
            for j in range(m):
                carry, eps_j = step(carry, j, float(gains[ptr + j]))
                if u[i] >= eps_j:
                    res = j
                    break
            resolved[i] = res
            if packet_start == "continuous":
                ptr += (res + 1) if res < m else m
        return _result_from_resolution(cfg, resolved, packets)

    eps = prefix_error_probs(cfg, float(channel), kernel)
    u = rng.random(packets)
    resolved = np.full(packets, m, dtype=np.int64)
    for j in range(m):
        newly = (resolved == m) & (u >= eps[j])
        resolved[newly] = j
    return _result_from_resolution(cfg, resolved, packets)


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
