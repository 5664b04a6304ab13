import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harqfbl import (
    CodeParams,
    DelayPmf,
    DomainError,
    HarqConfig,
    OutcomeDistribution,
    ResourceLimitError,
    Scheme,
    binomial_stream_delay,
    db_to_linear,
    outcomes_awgn,
    overhead_ccdf,
    single_packet_delay,
    stream_delay,
)
from harqfbl import delay


def ccdf_at(curve: list[tuple[float, float]], x: float) -> float:
    """A right-continuous tail curve P(X > x) at an arbitrary x."""
    result = 1.0
    for point, tail in curve:
        if point > x:
            break
        result = tail
    return result


def mean(pmf):
    return sum(float(d) * m for d, m in zip(pmf.support, pmf.mass))


def ir_cfg(k, taus, n=100):
    return HarqConfig(CodeParams(n, k), Scheme.IR, len(taus), tuple(taus))


class TestSinglePacketDelay:
    def test_one_shot(self):
        pmf = single_packet_delay(ir_cfg(70, (1.0,)), OutcomeDistribution((0.93,), 0.07))
        assert pmf.support == (Fraction(1),)
        assert pmf.mass == (1.0,)

    def test_two_round_full_repeat(self):
        cfg = HarqConfig(CodeParams(100, 70), Scheme.CC, 2, (1.0, 1.0))
        pmf = single_packet_delay(cfg, OutcomeDistribution((0.9, 0.06), 0.04))
        assert pmf.support == (Fraction(1), Fraction(2))
        assert pmf.mass == pytest.approx((0.9, 0.1))

    def test_three_round_atoms_and_merging(self):
        # resolution events enumerate to delays 1, 1.7 and 2.3; the last
        # success and the exhaustion share the 2.3 atom
        out = OutcomeDistribution((0.6, 0.25, 0.1), 0.05)
        pmf = single_packet_delay(ir_cfg(70, (1.0, 0.7, 0.6)), out)
        assert pmf.support == (Fraction(1), Fraction(17, 10), Fraction(23, 10))
        assert pmf.mass == pytest.approx((0.6, 0.25, 0.15))

    def test_minimum_delay_is_one_slot(self):
        out = OutcomeDistribution((0.5, 0.5), 0.0)
        pmf = single_packet_delay(ir_cfg(70, (1.0, 0.3)), out)
        assert pmf.support[0] == 1

    @pytest.mark.parametrize("p", [(0.5, 0.5), (0.25, 0.25, 0.25, 0.25)])
    def test_needs_m_success_probabilities(self, p):
        # two at m = 3 raised IndexError, and a fourth was dropped
        with pytest.raises(DomainError, match="expected 3 success probabilities"):
            single_packet_delay(ir_cfg(70, (1.0, 0.5, 0.3)), OutcomeDistribution(p, 0.0))


class TestStreamDelay:
    def test_identity_fold(self):
        pmf = single_packet_delay(
            ir_cfg(70, (1.0, 0.5)), OutcomeDistribution((0.8, 0.15), 0.05)
        )
        again = stream_delay(pmf, 1)
        assert again.support == pmf.support
        assert again.mass == pytest.approx(pmf.mass)

    @pytest.mark.parametrize("n_packets", [1, 5, 50])
    def test_matches_binomial_closed_form_cc(self, n_packets):
        # chase combining, m = 2: the N-fold convolution must equal the
        # binomial closed form atom for atom
        cfg = HarqConfig(CodeParams(100, 100), Scheme.CC, 2, (1.0, 1.0))
        out = outcomes_awgn(cfg, db_to_linear(-1.0))
        eps1 = out.p[1] + out.p_e  # first-transmission failure probability
        stream = stream_delay(single_packet_delay(cfg, out), n_packets)
        closed = binomial_stream_delay(n_packets, 1.0, eps1)
        assert stream.support == closed.support
        for a, b in zip(stream.mass, closed.mass):
            assert abs(a - b) <= 1e-12

    def test_matches_binomial_closed_form_fractional_tau(self):
        cfg = ir_cfg(100, (1.0, 0.58))
        out = outcomes_awgn(cfg, db_to_linear(-1.0))
        stream = stream_delay(single_packet_delay(cfg, out), 7)
        closed = binomial_stream_delay(7, 0.58, out.p[1] + out.p_e)
        assert stream.support == closed.support
        for a, b in zip(stream.mass, closed.mass):
            assert abs(a - b) <= 1e-12

    def test_binomial_closed_form_beyond_float_range(self):
        # C(2000, i) exceeds the float range; masses below it underflow to 0
        closed = binomial_stream_delay(2000, 0.4, 0.2)
        assert abs(closed.total - 1.0) <= 1e-9
        stream = stream_delay(DelayPmf((Fraction(1), Fraction(7, 5)), (0.8, 0.2)), 2000)
        atoms = dict(zip(stream.support, stream.mass))
        assert set(atoms) <= set(closed.support)
        for d, m in zip(closed.support, closed.mass):
            assert abs(m - atoms.get(d, 0.0)) <= 1e-12

    @given(st.integers(2, 64))
    @settings(max_examples=20, deadline=None)
    def test_binary_exponentiation_matches_naive(self, n_packets):
        pmf = DelayPmf((Fraction(1), Fraction(8, 5)), (0.73, 0.27))
        fast = stream_delay(pmf, n_packets)
        atoms = {Fraction(0): 1.0}
        for _ in range(n_packets):
            nxt: dict[Fraction, float] = {}
            for d, m in atoms.items():
                for s, w in zip(pmf.support, pmf.mass):
                    nxt[d + s] = nxt.get(d + s, 0.0) + m * w
            atoms = nxt
        assert fast.support == tuple(sorted(atoms))
        for d, m in zip(fast.support, fast.mass):
            assert m == pytest.approx(atoms[d], abs=1e-12)

    def test_mass_conserved_over_ten_thousand_folds(self):
        cfg = ir_cfg(70, (1.0, 0.4))
        out = outcomes_awgn(cfg, db_to_linear(-4.0))
        stream = stream_delay(single_packet_delay(cfg, out), 10_000)
        assert abs(stream.total - 1.0) <= 1e-6

    def test_mean_is_linear_in_packet_count(self):
        cfg = ir_cfg(70, (1.0, 0.4))
        out = outcomes_awgn(cfg, db_to_linear(-4.0))
        pmf = single_packet_delay(cfg, out)
        stream = stream_delay(pmf, 500)
        assert mean(stream) == pytest.approx(500 * mean(pmf), rel=1e-9)

    def test_atom_budget_enforced(self):
        support = tuple(Fraction(100 + i, 100) for i in range(64))
        pmf = DelayPmf(support, (1.0 / 64,) * 64)
        with pytest.raises(ResourceLimitError, match="quantise"):
            stream_delay(pmf, 64, atom_budget=100)

    def test_pruning_trims_negligible_tails(self):
        # a rare-failure binomial has an astronomically light upper tail;
        # a tight budget forces it to be pruned and reported
        pmf = DelayPmf((Fraction(1), Fraction(2)), (1.0 - 1e-12, 1e-12))
        stream = stream_delay(pmf, 64, atom_budget=16)
        assert 0.0 < stream.pruned_mass < 1e-20
        assert len(stream.support) <= 16
        assert stream.total == pytest.approx(1.0, abs=1e-9)


def aligned(a, b):
    """Two lattice results on one index range, as arrays of equal length."""
    lo = min(a.offset, b.offset)
    hi = max(a.offset + len(a.mass), b.offset + len(b.mass))
    out = []
    for lat in (a, b):
        full = np.zeros(hi - lo)
        full[lat.offset - lo : lat.offset - lo + len(lat.mass)] = lat.mass
        out.append(full)
    return out


# a 58-point lattice per packet, as in the three-round IR designs
THREE_ATOMS = DelayPmf((Fraction(1), Fraction(137, 100), Fraction(157, 100)), (0.7, 0.2, 0.1))
TWO_ATOMS = DelayPmf((Fraction(1), Fraction(7, 5)), (0.8, 0.2))
# three atoms on a three-point lattice: many count tuples share an atom
NARROW = DelayPmf((Fraction(1), Fraction(2), Fraction(3)), (0.75, 0.125, 0.125))


class TestClosedForm:
    """The multinomial closed form against the lattice convolution and mpmath.

    Stated tolerance: 1e-11 relative on every atom above 1e-12.
    """

    @pytest.mark.parametrize("pmf", [TWO_ATOMS, THREE_ATOMS], ids=["m2", "m3"])
    @pytest.mark.parametrize("n_packets", [1, 2, 7, 200, 2000])
    def test_matches_binary_exponentiation(self, pmf, n_packets):
        step = math.gcd(*(pmf.ticks - pmf.ticks[0]).tolist())
        mass = np.zeros((pmf.ticks[-1] - pmf.ticks[0]) // step + 1)
        mass[(pmf.ticks - pmf.ticks[0]) // step] = pmf.mass
        base = delay._Lattice(0, mass)
        closed, pruned_c = delay._multinomial_power(base, n_packets, delay.DEFAULT_ATOM_BUDGET)
        lattice, pruned_l = delay._convolution_power(base, n_packets, delay.DEFAULT_ATOM_BUDGET)
        a, b = aligned(closed, lattice)
        big = (a > 1e-12) | (b > 1e-12)
        assert np.all(np.abs(a[big] - b[big]) <= 1e-11 * b[big])
        assert pruned_c == pruned_l == 0.0
        assert abs(a.sum() - 1.0) <= 1e-12

    def test_mpmath_spot_atoms(self):
        # the exact n-fold convolution of the PMF's own float weights
        n_packets = 100_000
        stream = stream_delay(TWO_ATOMS, n_packets)
        atoms = {int((d - n_packets) * 5 / 2): m for d, m in zip(stream.support, stream.mass)}
        w0, w1 = (mp.mpf(x) for x in TWO_ATOMS.mass)
        with mp.workdps(40):
            for c in (17_500, 19_000, 19_990, 20_000, 20_321, 21_500, 23_000, 24_000):
                exact = mp.binomial(n_packets, c) * w1**c * w0 ** (n_packets - c)
                assert exact > mp.mpf("1e-250")
                assert abs(atoms[c] - exact) <= 1e-11 * exact

    def test_four_atoms_take_the_lattice(self, monkeypatch):
        calls = []
        for name in ("_multinomial_power", "_convolution_power"):
            real = getattr(delay, name)
            monkeypatch.setattr(delay, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
        four = DelayPmf(tuple(Fraction(10 + i, 10) for i in range(4)), (0.4, 0.3, 0.2, 0.1))
        stream_delay(four, 50)
        stream_delay(THREE_ATOMS, 50)
        assert calls == ["_convolution_power", "_multinomial_power"]

    def test_zero_mass_atom_keeps_the_lattice(self):
        # an error-free channel leaves one positive atom on a two-point lattice
        pmf = DelayPmf((Fraction(1), Fraction(3, 2)), (1.0, 0.0))
        stream = stream_delay(pmf, 1000)
        assert stream.support == (Fraction(1000),) and stream.mass == (1.0,)

    @pytest.mark.parametrize(
        "pmf, n_packets",
        [
            (THREE_ATOMS, 2000),
            (TWO_ATOMS, 100_000),
            # a 6-digit tau denominator: ticks near 1.1e11 at this length
            (DelayPmf((1, Fraction(1_123_457, 1_000_000)), (0.8, 0.2)), 100_000),
        ],
        ids=["m3", "m2-long", "fine-tau"],
    )
    def test_ccdf_is_the_fraction_formula_bit_for_bit(self, pmf, n_packets):
        stream = stream_delay(pmf, n_packets)
        curve = overhead_ccdf(stream, n_packets)
        assert [x for x, _ in curve] == [float((d - n_packets) / n_packets) for d in stream.support]
        tails, acc = [0.0], 0.0
        for m in stream.mass[:0:-1].tolist():  # right to left, one addition at a time
            acc += m
            tails.append(min(1.0, acc))
        assert [t for _, t in curve] == tails[::-1]

    def test_pruned_window_keeps_every_atom_above_the_threshold(self):
        # over budget, the closed form keeps exactly the counts of mass at
        # least 1e-15 and reports the mass of the others
        full = stream_delay(TWO_ATOMS, 2000)
        cut = stream_delay(TWO_ATOMS, 2000, atom_budget=500)
        kept = {d: m for d, m in zip(full.support, full.mass) if m >= delay.PRUNE_MASS}
        assert dict(zip(cut.support, cut.mass)) == kept
        dropped = math.fsum(m for m in full.mass if m < delay.PRUNE_MASS)
        assert cut.pruned_mass == pytest.approx(dropped, rel=1e-9)

    @pytest.mark.parametrize(
        "pmf",
        [
            # weights that sum to 1 exactly in binary, so the exact total is 1
            DelayPmf((Fraction(1), Fraction(7, 5)), (0.75, 0.25)),
            DelayPmf((Fraction(1), Fraction(137, 100), Fraction(157, 100)), (0.75, 0.125, 0.125)),
        ],
        ids=["m2", "m3"],
    )
    def test_huge_stream_answers_or_raises(self, pmf):
        # the lattice would hold about 1e8 points: the work stays bounded
        try:
            stream = stream_delay(pmf, 10**8)
        except ResourceLimitError:
            return
        assert stream.pruned_mass >= 0.0
        assert abs(stream.total - 1.0) <= 1e-9

    def test_count_tuples_are_bounded_by_the_budget(self):
        # on a narrow lattice many count tuples share an atom: the window
        # fits 1000 atoms, but its 82,650 tuples exceed 64 per atom
        pmf = DelayPmf((Fraction(1), Fraction(2), Fraction(3)), (0.75, 0.125, 0.125))
        with pytest.raises(ResourceLimitError, match="count tuples"):
            stream_delay(pmf, 2000, atom_budget=1000)

    def test_past_exact_counts_raises(self):
        with pytest.raises(ResourceLimitError, match="2\\*\\*53"):
            stream_delay(TWO_ATOMS, 2**60)
        with pytest.raises(ResourceLimitError, match="2\\*\\*53"):
            overhead_ccdf(TWO_ATOMS, 2**60)
        with pytest.raises(ResourceLimitError, match="2\\*\\*53"):
            DelayPmf((1, Fraction(2**53, 3)), (0.5, 0.5))


def bisect_window(k, n, mu_u, mu_v, thr):
    """The oracle for delay._window: both ends of each row by plain bisection."""

    def above(c):
        return k - delay._term(n - c, mu_u) - delay._term(c, mu_v) >= thr

    def edge(inside, outside):
        done = above(outside)
        while np.any(np.abs(outside - inside) > 1):
            mid = (inside + outside) // 2
            ok = above(mid)
            inside, outside = np.where(ok, mid, inside), np.where(ok, outside, mid)
        return np.where(done, outside, inside)

    mode = np.clip(np.floor((n + 1) * (mu_v / (mu_u + mu_v))).astype(np.int64), 0, n)
    lo, hi = edge(mode, np.zeros_like(n)), edge(mode, n)
    return lo, np.where(above(mode), hi, lo - 1)


def loop_power(base, n, budget):
    """The oracle for delay._multinomial_power: bisection windows and one loop over the rows."""
    idx = np.flatnonzero(base.mass)
    w = base.mass[idx]
    if len(idx) == 1:
        return delay._Lattice((base.offset + int(idx[0])) * n, w**n), 0.0
    width = n * (len(base.mass) - 1) + 1
    bounded = width > budget
    keep = math.log(delay.PRUNE_MASS) if bounded else delay._LOG_UNDERFLOW
    floor = 2.0 * keep if bounded else keep
    mu = n * w
    u, v = len(idx) - 2, len(idx) - 1
    d = int(idx[v] - idx[u])
    k = float(delay._term(n, float(n))) + n * math.fsum([*w.tolist(), -1.0])
    if len(idx) == 2:
        k_rows, n_rows = np.array([k]), np.array([n], dtype=np.int64)
        starts = n_rows * int(idx[u])
    else:
        (r_lo,), (r_hi,) = bisect_window(np.array([k]), np.array([n]), mu[1] + mu[2], mu[0], floor)
        if r_hi - r_lo >= budget:
            raise ResourceLimitError("rows of counts")
        rows = np.arange(r_lo, r_hi + 1, dtype=np.int64)
        k_rows, n_rows = k - delay._term(rows, mu[0]), n - rows
        starts = rows * int(idx[0]) + n_rows * int(idx[u])
    origin = 0
    if bounded:
        klo, khi = bisect_window(k_rows, n_rows, mu[u], mu[v], keep)
        kept = klo <= khi
        if not kept.any():
            raise ResourceLimitError("all probability mass pruned")
        origin = int((starts + klo * d)[kept].min())
        width = int((starts + khi * d)[kept].max()) - origin + 1
        if width > budget:
            raise ResourceLimitError("stream lattice spans")
    lo, hi = bisect_window(k_rows, n_rows, mu[u], mu[v], floor)
    if not bounded:
        klo, khi = lo, hi
    live = lo <= hi
    if not live.any():
        raise DomainError("every mass of the stream underflows to 0")
    if int((hi - lo + 1)[live].sum()) > delay._TUPLES_PER_ATOM * budget:
        raise ResourceLimitError("count tuples")
    v0, u0 = int(lo[live].min()), int((n_rows - hi)[live].min())
    t_v = delay._term(np.arange(v0, int(hi[live].max()) + 1), mu[v])
    t_u = delay._term(np.arange(u0, int((n_rows - lo)[live].max()) + 1), mu[u])
    acc = np.zeros(width)
    pruned = 0.0
    for kr, nr, s, l, h, kl, kh in zip(k_rows[live], n_rows[live], starts[live], lo[live],
                                       hi[live], klo[live], khi[live]):
        mass = np.exp(kr - t_v[l - v0 : h - v0 + 1] - t_u[nr - h - u0 : nr - l - u0 + 1][::-1])
        kl, kh = max(kl, l), min(kh, h)
        if kl <= kh:
            first = s + kl * d - origin
            acc[first : first + (kh - kl) * d + 1 : d] += mass[kl - l : kh - l + 1]
            pruned += float(mass[: kl - l].sum() + mass[kh - l + 1 :].sum())
        else:
            pruned += float(mass.sum())
    return delay._Lattice(base.offset * n + origin, acc), pruned


def stream_or_error(pmf, n_packets, atom_budget):
    try:
        s = stream_delay(pmf, n_packets, atom_budget)
    except (DomainError, ResourceLimitError) as exc:
        return type(exc)
    return s.ticks.tolist(), s.mass.tobytes(), s.pruned_mass


@st.composite
def closed_form_streams(draw):
    """A two- or three-atom PMF, a packet count, a budget that may bound the window, a tuple block."""
    atoms = draw(st.sampled_from([2, 3]))
    ticks = sorted(draw(st.sets(st.integers(100, 160), min_size=atoms, max_size=atoms)))
    weights = [draw(st.floats(1e-4, 1.0)) for _ in range(atoms)]
    block = draw(st.sampled_from([1, 7, delay._TUPLE_BLOCK]))
    n_max = {1: 40, 7: 1500}.get(block, 100_000 if atoms == 2 else 5_000)
    n_packets = draw(st.integers(1, n_max))
    width = n_packets * (ticks[-1] - ticks[0]) // math.gcd(*(t - ticks[0] for t in ticks)) + 1
    budget = draw(st.sampled_from([delay.DEFAULT_ATOM_BUDGET, max(2, width - 1), max(2, width // 3)]))
    scale = draw(st.sampled_from([1.0, 1.0, 1e-100, 1e-300]))  # small totals underflow whole rows
    pmf = DelayPmf([Fraction(t, 100) for t in ticks], [scale * x / sum(weights) for x in weights])
    return pmf, n_packets, budget, block


class TestScatterOracle:
    """The blocked scatter and the probe window against the row loop and bisection, bit for bit."""

    @given(closed_form_streams())
    @settings(max_examples=80, deadline=None)
    def test_stream_matches_the_row_loop(self, case):
        pmf, n_packets, budget, block = case
        with pytest.MonkeyPatch.context() as mp_:
            mp_.setattr(delay, "_TUPLE_BLOCK", block)
            got = stream_or_error(pmf, n_packets, budget)
            mp_.setattr(delay, "_multinomial_power", loop_power)
            want = stream_or_error(pmf, n_packets, budget)
        assert got == want

    @pytest.mark.parametrize("pmf, n_packets, budget, block", [
        *(pytest.param(pmf, n, budget, block, id=f"{name}-block{block}")
          for name, pmf, n, budget in [("m2-bounded", TWO_ATOMS, 2000, 500),
                                       ("m3-bounded", THREE_ATOMS, 120, 4000),
                                       ("m3", THREE_ATOMS, 120, delay.DEFAULT_ATOM_BUDGET),
                                       ("m3-narrow-bounded", NARROW, 400, 300)]
          for block in (1, 7, delay._TUPLE_BLOCK)),
        # 80,291 tuples in five blocks, with lattice points that rows of every block add to
        pytest.param(NARROW, 400, delay.DEFAULT_ATOM_BUDGET, delay._TUPLE_BLOCK, id="m3-narrow-five-blocks"),
    ])
    def test_fixed_streams_match_the_row_loop(self, pmf, n_packets, budget, block, monkeypatch):
        monkeypatch.setattr(delay, "_TUPLE_BLOCK", block)
        got = stream_or_error(pmf, n_packets, budget)
        monkeypatch.setattr(delay, "_multinomial_power", loop_power)
        assert got == stream_or_error(pmf, n_packets, budget)
        assert isinstance(got, tuple) and (got[2] > 0.0) == (budget < delay.DEFAULT_ATOM_BUDGET)

    @given(st.integers(1, 10**7), st.lists(st.floats(1e-6, 1.0), min_size=3, max_size=3),
           st.integers(1, 2000), st.floats(0.0, 1.0), st.sampled_from([-746.0, math.log(1e-15), 2 * math.log(1e-15)]))
    @settings(max_examples=150, deadline=None)
    def test_window_matches_bisection(self, n, weights, n_rows, at, thr):
        w = np.array(weights) / sum(weights)
        mu = n * w
        k = float(delay._term(n, float(n))) + n * math.fsum([*w.tolist(), -1.0])
        first = int(at * max(0, n + 1 - n_rows))
        rows = np.arange(first, min(n, first + n_rows - 1) + 1, dtype=np.int64)
        args = (k - delay._term(rows, mu[0]), n - rows, mu[1], mu[2], thr)
        for got, want in zip(delay._window(*args), bisect_window(*args)):
            assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("mass", [(1e-300, 1e-300), (1e-300, 1e-300, 1e-300)], ids=["m2", "m3"])
    def test_a_stream_whose_every_mass_underflows_raises(self, mass):
        # with three atoms no row of counts is left, and the window search gets none
        with pytest.raises(DomainError, match="underflows"):
            stream_delay(DelayPmf((1, 2, 3)[: len(mass)], mass), 1000)

    def test_scatter_memory_is_block_and_lattice(self, monkeypatch):
        # 1,038,354 kept count tuples land on a lattice of 2,432 points: the flat
        # arrays of all of them at once would take some 50 MB
        block = 2**14
        monkeypatch.setattr(delay, "_TUPLE_BLOCK", block)
        tracemalloc.start()
        try:
            stream = stream_delay(NARROW, 64_000, atom_budget=64_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        width = int(stream.ticks[-1] - stream.ticks[0]) + 1
        assert 0.0 < stream.pruned_mass and width < 3_000
        assert peak < 16 * (block + width) * 8


class TestCountsAndParameters:
    @pytest.mark.parametrize("n_packets", [10.0, math.nan, True, 0])
    def test_packet_count_must_be_a_positive_integer(self, n_packets):
        pmf = DelayPmf((Fraction(1), Fraction(2)), (0.9, 0.1))
        for call in (lambda: stream_delay(pmf, n_packets),
                     lambda: binomial_stream_delay(n_packets, 0.5, 0.1),
                     lambda: overhead_ccdf(pmf, n_packets)):
            with pytest.raises(DomainError, match="n_packets"):
                call()

    @pytest.mark.parametrize("mass", [(math.nan, 0.5), (0.5, math.inf), (-0.1, 1.1)])
    def test_masses_must_be_finite_and_nonnegative(self, mass):
        with pytest.raises(DomainError, match="masses"):
            DelayPmf((Fraction(1), Fraction(2)), mass)

    @pytest.mark.parametrize("budget", [math.nan, "x"])
    def test_atom_budget_must_be_a_positive_integer(self, budget):
        # a NaN budget ran unbounded, and 'x' raised numpy's UFuncTypeError
        with pytest.raises(DomainError, match="atom_budget"):
            stream_delay(DelayPmf((1, 2), (0.9, 0.1)), 100, atom_budget=budget)

    @pytest.mark.parametrize("pruned", [math.nan, -1.0, math.inf, "x"])
    def test_pruned_mass_must_be_real_finite_and_nonnegative(self, pruned):
        # NaN gave a NaN total, and -1.0 a total of 0.0
        with pytest.raises(DomainError, match="pruned mass"):
            DelayPmf((1, 2), (0.9, 0.1), pruned_mass=pruned)

    def test_float_support_is_read_as_fractions(self):
        floats = stream_delay(DelayPmf((1, 7 / 5), (0.8, 0.2)), 10)
        exact = stream_delay(TWO_ATOMS, 10)
        assert floats.support == exact.support
        assert floats.mass.tolist() == exact.mass.tolist()

    @pytest.mark.parametrize(
        "support, mass",
        [
            ((1.0, math.nan), (0.5, 0.5)),
            ((1.0, math.inf), (0.5, 0.5)),
            ((1.0, "2"), (0.5, 0.5)),
            ((2, Fraction(3, 2)), (0.5, 0.5)),
            ((1, 1.0), (0.5, 0.5)),
            ((-1, 1), (0.5, 0.5)),
            ((1, 2), (1.0,)),
            ((), ()),
        ],
        ids=["nan", "inf", "string", "decreasing", "repeated", "negative", "unequal", "empty"],
    )
    def test_invalid_supports_raise_domain_error(self, support, mass):
        with pytest.raises(DomainError):
            DelayPmf(support, mass)

    @pytest.mark.parametrize("tau1", [math.nan, math.inf])
    def test_binomial_rejects_non_finite_tau(self, tau1):
        with pytest.raises(DomainError, match="tau1"):
            binomial_stream_delay(10, tau1, 0.1)


class TestOverheadCcdf:
    def test_error_free_channel_is_step_at_zero(self):
        cfg = ir_cfg(70, (1.0, 0.5))
        pmf = single_packet_delay(cfg, OutcomeDistribution((1.0, 0.0), 0.0))
        stream = stream_delay(pmf, 100)
        curve = [(x, t) for x, t in overhead_ccdf(stream, 100) if t > 0 or x == 0.0]
        assert curve[0] == (0.0, 0.0)
        assert ccdf_at(overhead_ccdf(stream, 100), -0.5) == 1.0

    def test_axioms(self):
        cfg = ir_cfg(70, (1.0, 0.4))
        out = outcomes_awgn(cfg, db_to_linear(-4.0))
        stream = stream_delay(single_packet_delay(cfg, out), 200)
        curve = overhead_ccdf(stream, 200)
        tails = [t for _, t in curve]
        assert all(b <= a for a, b in zip(tails, tails[1:]))
        assert tails[-1] == 0.0
        assert all(0.0 <= t <= 1.0 for t in tails)

    def test_shorter_retransmission_dominates_at_equal_outcomes(self):
        # identical resolution masses, only the retransmission length differs:
        # the shorter coefficient's overhead must be stochastically smaller
        out = OutcomeDistribution((0.8, 0.19), 0.01)
        short = stream_delay(single_packet_delay(ir_cfg(50, (1.0, 0.4)), out), 300)
        long = stream_delay(single_packet_delay(ir_cfg(50, (1.0, 0.9)), out), 300)
        curve_s = overhead_ccdf(short, 300)
        curve_l = overhead_ccdf(long, 300)
        grid = sorted({x for x, _ in curve_s} | {x for x, _ in curve_l})
        for x in grid:
            assert ccdf_at(curve_s, x) <= ccdf_at(curve_l, x) + 1e-12

    def test_higher_rate_has_heavier_overhead(self):
        # more information bits per block leave less margin, so more
        # packets need the retransmission
        curves = {}
        for k in (50, 90):
            cfg = ir_cfg(k, (1.0, 0.4))
            out = outcomes_awgn(cfg, db_to_linear(-4.0))
            stream = stream_delay(single_packet_delay(cfg, out), 1000)
            curves[k] = overhead_ccdf(stream, 1000)
        grid = sorted({x for c in curves.values() for x, _ in c})
        assert all(
            ccdf_at(curves[50], x) <= ccdf_at(curves[90], x) + 1e-12 for x in grid
        )
        assert ccdf_at(curves[90], 0.2) > ccdf_at(curves[50], 0.2)
