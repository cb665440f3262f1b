"""Interval-decided exact signs and weighted comparisons."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cesarospec import exact
from cesarospec.exact import (
    WeightedSups,
    _sign_minus_exp_interval,
    common_denominator,
    compare_seminorms,
    compare_sups,
    compare_weighted,
    sign_minus_exp,
    weighted_argmax,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40)


class TestSignMinusExp:
    def test_known_signs(self):
        assert sign_minus_exp(Fraction(3), Fraction(1)) == 1   # 3 > e
        assert sign_minus_exp(Fraction(2), Fraction(1)) == -1  # 2 < e
        assert sign_minus_exp(Fraction(1), Fraction(0)) == 0
        assert sign_minus_exp(Fraction(-1), Fraction(5)) == -1

    def test_tight_separation(self):
        # e = 2.718281828459045...; these rationals straddle it closely
        assert sign_minus_exp(Fraction(271_828_183, 100_000_000), 1) == 1
        assert sign_minus_exp(Fraction(271_828_182, 100_000_000), 1) == -1

    @given(p=st.fractions(min_value=Fraction(1, 100),
                          max_value=Fraction(100), max_denominator=1000),
           u=st.fractions(min_value=Fraction(-5), max_value=Fraction(5),
                          max_denominator=60))
    @settings(max_examples=100)
    def test_agrees_with_float_when_separated(self, p, u):
        diff = float(p) - math.exp(float(u))
        if abs(diff) > 1e-6:
            assert sign_minus_exp(p, u) == (1 if diff > 0 else -1)


def exp_rounded(u: Fraction, bits: int, ulps: int = 0) -> Fraction:
    """exp(u) rounded to `bits` significant bits, moved by `ulps` units."""
    with mpmath.workprec(bits):
        v = mpmath.exp(mpmath.mpf(u.numerator) / u.denominator)
    man, e = v.man_exp
    ulp = Fraction(2) ** (e + man.bit_length() - bits)
    return Fraction(man) * Fraction(2) ** e + ulps * ulp


nonzero_u = st.fractions(min_value=Fraction(-50), max_value=Fraction(50),
                         max_denominator=1000).filter(lambda u: u != 0)


@pytest.fixture
def interval_calls(monkeypatch):
    """The (p, u) of every call that reaches the interval route."""
    calls = []

    def spy(p, u, max_bits):
        calls.append((p, u))
        return _sign_minus_exp_interval(p, u, max_bits)

    monkeypatch.setattr(exact, "_sign_minus_exp_interval", spy)
    return calls


class TestFilteredSign:
    """The float filter against the pure interval route it short-cuts."""

    @given(p=st.fractions(min_value=Fraction(1, 10**6),
                          max_value=Fraction(10**6), max_denominator=10**6),
           u=nonzero_u)
    @settings(max_examples=150)
    def test_agrees_with_interval(self, p, u):
        assert sign_minus_exp(p, u) == _sign_minus_exp_interval(p, u, 1 << 20)

    @given(u=nonzero_u, bits=st.sampled_from([30, 53, 80, 120]),
           ulps=st.sampled_from([-1, 0, 1]))
    @settings(max_examples=150)
    def test_agrees_with_interval_at_near_ties(self, u, bits, ulps):
        p = exp_rounded(u, bits, ulps)
        assert sign_minus_exp(p, u) == _sign_minus_exp_interval(p, u, 1 << 20)

    def test_near_tie_escalates(self, interval_calls):
        u = Fraction(7, 3)
        assert sign_minus_exp(exp_rounded(u, 120, 1), u) == 1
        assert sign_minus_exp(exp_rounded(u, 120, -1), u) == -1
        assert len(interval_calls) == 2
        assert sign_minus_exp(Fraction(11), u) == 1   # e^{7/3} = 10.31...
        assert len(interval_calls) == 2

    def test_near_tie_loads_mpmath_on_demand(self):
        # mpmath is off the import path; the interval route imports it
        import cesarospec

        u = Fraction(7, 3)
        src = os.path.dirname(os.path.dirname(cesarospec.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        for ulps in (1, -1):
            p = exp_rounded(u, 120, ulps)
            code = (
                "import sys\n"
                "from fractions import Fraction\n"
                "from cesarospec.exact import sign_minus_exp\n"
                "loaded = 'mpmath' in sys.modules\n"
                f"sign = sign_minus_exp(Fraction('{p}'), Fraction('{u}'))\n"
                "print(loaded, sign, 'mpmath' in sys.modules)\n")
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, check=True)
            assert out.stdout.split() == \
                ["False", str(sign_minus_exp(p, u)), "True"]

    @pytest.mark.parametrize("p,u,want", [
        (Fraction(1), Fraction(10**309), -1),
        (Fraction(1), Fraction(-10**309), 1),
        (Fraction(10**400), Fraction(10**309, 3), -1),
    ])
    def test_overflowing_u_takes_interval_route(self, interval_calls, p, u,
                                                 want):
        assert sign_minus_exp(p, u) == want
        assert interval_calls == [(p, u)]


def sequential_argmax(alphas, xs, k):
    """The exact scan over every entry, earliest index on ties (reference)."""
    best = 0
    for i in range(1, len(xs)):
        if compare_weighted(alphas[i], xs[i], alphas[best], xs[best], k) > 0:
            best = i
    return best


@st.composite
def weighted_vectors(draw):
    """(alphas, xs, k) with exact ties and near-ties planted among the entries."""
    k = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=10))
    steps = draw(st.lists(st.fractions(min_value=0, max_value=3,
                                       max_denominator=7),
                          min_size=n, max_size=n))
    alphas, a = [], Fraction(1)
    for d in steps:
        a += d
        alphas.append(a)
    xs = draw(st.lists(rationals, min_size=n, max_size=n))
    for j in range(1, n):
        i = draw(st.integers(min_value=0, max_value=j - 1))
        plant = draw(st.sampled_from(["none", "tie", "near"]))
        if plant == "tie":
            alphas[j], xs[j] = alphas[i], -xs[i]
        elif plant == "near" and alphas[j] != alphas[i] and xs[i] != 0:
            bits = draw(st.sampled_from([30, 53, 80, 120]))
            ulps = draw(st.sampled_from([-1, 0, 1]))
            xs[j] = xs[i] * exp_rounded((alphas[j] - alphas[i]) / k, bits, ulps)
    return alphas, xs, k


class TestWeightedComparisons:
    def test_compare_weighted_oracle(self):
        # |1| e^{-1} vs |1| e^{-2}: the lighter exponent wins
        assert compare_weighted(1, 1, 2, 1, 1) == 1
        assert compare_weighted(2, 1, 1, 1, 1) == -1
        assert compare_weighted(1, 1, 1, 1, 1) == 0
        # weight gap can be overcome by magnitude: 3 e^{-2} vs 1 e^{-1}
        assert compare_weighted(2, 3, 1, 1, 1) == 1

    def test_zero_magnitudes(self):
        assert compare_weighted(1, 0, 2, 0, 1) == 0
        assert compare_weighted(1, 0, 2, 1, 1) == -1
        assert compare_weighted(1, 1, 2, 0, 1) == 1

    def test_weighted_argmax_basis(self):
        alphas = [Fraction(n) for n in range(1, 6)]
        xs = [Fraction(0), Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
        assert weighted_argmax(alphas, xs, 1) == 1

    def test_weighted_argmax_tie_prefers_earliest(self):
        alphas = [Fraction(1), Fraction(1)]
        xs = [Fraction(2), Fraction(2)]
        assert weighted_argmax(alphas, xs, 1) == 0

    @given(xs=st.lists(rationals, min_size=1, max_size=12),
           k=st.integers(min_value=1, max_value=5))
    @settings(max_examples=60)
    def test_argmax_matches_float_argmax(self, xs, k):
        alphas = [Fraction(n) for n in range(1, len(xs) + 1)]
        got = weighted_argmax(alphas, xs, k)
        weights = [abs(float(x)) * math.exp(-n / k)
                   for n, x in enumerate(xs, start=1)]
        best = max(weights)
        # float route may be off exactly at near-ties; only check clear wins
        contenders = [i for i, v in enumerate(weights) if v > best - 1e-12]
        assert got in contenders

    @given(case=weighted_vectors())
    @settings(max_examples=200)
    def test_argmax_matches_sequential_scan(self, case):
        alphas, xs, k = case
        assert weighted_argmax(alphas, xs, k) == sequential_argmax(alphas, xs, k)

    def test_argmax_with_unrepresentable_alpha(self):
        # alpha beyond the float range: the float pass is skipped
        alphas = [Fraction(1), Fraction(10**400), Fraction(2)]
        xs = [Fraction(1), Fraction(10**500), Fraction(3)]
        assert weighted_argmax(alphas, xs, 1) == 2

    def test_compare_seminorms_oracle(self):
        alphas = [Fraction(n) for n in range(1, 4)]
        e1 = [Fraction(1), Fraction(0), Fraction(0)]
        e2 = [Fraction(0), Fraction(1), Fraction(0)]
        assert compare_seminorms(alphas, 1, e1, e2) == 1
        assert compare_seminorms(alphas, 1, e2, e1) == -1
        assert compare_seminorms(alphas, 1, e1, e1) == 0


class TestCommonDenominator:
    def test_rational_entries(self):
        assert common_denominator([1, np.int64(-2), Fraction(1, 6)]) == \
            ([6, -12, 1], 6)

    @pytest.mark.parametrize("entry", [0.5, np.float32(0.5), 1j],
                             ids=["float", "float32", "complex"])
    def test_other_entries_are_rejected_by_type(self, entry):
        with pytest.raises(ValueError, match=type(entry).__name__):
            common_denominator([Fraction(1, 3), entry])


def level_bracket(alphas, re, den, k):
    """The bracket of one level from its own float pass (reference)."""
    try:
        alphas_f = np.array([float(a) for a in alphas])
    except OverflowError:
        return -math.inf, math.inf, list(range(len(re)))
    ld = math.log(den)
    logs = [math.log(abs(p)) if p else -math.inf for p in re]
    log_mags = np.array([ln - ld for ln in logs])
    scales = np.array([1.0 + abs(ln) + abs(ld) if p else 0.0
                       for p, ln in zip(re, logs)])
    e = alphas_f / k
    w = log_mags - e
    band = exact._FILTER_BAND * (scales + np.abs(e))
    high = w + band
    lo = float((w - band).max())
    return lo, float(high.max()), (high >= lo).nonzero()[0].tolist()


numerators = st.one_of(st.just(0), st.integers(-10**6, 10**6),
                       st.integers(-10**40, 10**40))


@st.composite
def shared_vectors(draw, n):
    """(re, den): n integer numerators, zeros and big ones among them."""
    return (draw(st.lists(numerators, min_size=n, max_size=n)),
            draw(st.integers(1, 10**9)))


class TestBatchedBrackets:
    """One float pass over all levels against one pass per level."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_level_matches_its_own_pass_bit_for_bit(self, data):
        n = data.draw(st.integers(1, 12))
        alphas = data.draw(st.lists(
            st.fractions(min_value=0, max_value=10**6, max_denominator=50),
            min_size=n, max_size=n))
        if data.draw(st.booleans()):
            alphas[data.draw(st.integers(0, n - 1))] = Fraction(10**400)
        levels = data.draw(st.lists(st.integers(1, 20), min_size=1,
                                    max_size=6, unique=True))
        x, y = data.draw(shared_vectors(n)), data.draw(shared_vectors(n))
        xw = WeightedSups(alphas, x, levels)
        for sups, (re, den) in ((xw, x), (xw.like(y), y)):
            for k in levels:
                lo, hi, cands = sups.bracket(k)
                want_lo, want_hi, want = level_bracket(alphas, re, den, k)
                assert (lo.hex(), hi.hex(), list(cands)) == \
                    (want_lo.hex(), want_hi.hex(), want)

    def test_alpha_beyond_float_range_brackets_every_level_whole(self):
        alphas = [Fraction(1), Fraction(10**400), Fraction(2)]
        xw = WeightedSups(alphas, ([1, 5, -3], 7), range(1, 6))
        for sups in (xw, xw.like(([0, 0, 2], 3))):
            for k in range(1, 6):
                lo, hi, cands = sups.bracket(k)
                assert (lo, hi, list(cands)) == (-math.inf, math.inf,
                                                 [0, 1, 2])


def fraction_compare_weighted(a1, x1, a2, x2, k):
    """compare_weighted as one Fraction quotient (reference)."""
    m1, m2 = abs(Fraction(x1)), abs(Fraction(x2))
    if m1 == 0 or m2 == 0:
        return (m1 > 0) - (m2 > 0)
    return sign_minus_exp(m1 / m2, (Fraction(a1) - Fraction(a2)) / k)


alpha_values = st.fractions(min_value=0, max_value=40, max_denominator=9)


class TestNumeratorComparisons:
    """Exact comparisons on integer numerators against Fraction entries."""

    @given(a1=alpha_values, a2=st.one_of(st.none(), alpha_values),
           x1=rationals, x2=rationals, k=st.integers(1, 5),
           scale=st.integers(1, 10**6))
    @settings(max_examples=150)
    def test_compare_weighted_on_numerators(self, a1, a2, x1, x2, k, scale):
        a2 = a1 if a2 is None else a2
        d = x1.denominator * x2.denominator * scale
        n1, n2 = int(x1 * d), int(x2 * d)
        want = fraction_compare_weighted(a1, x1, a2, x2, k)
        assert compare_weighted(a1, x1, a2, x2, k) == want
        assert compare_weighted(a1, n1, a2, n2, k) == want

    @given(case=weighted_vectors())
    @settings(max_examples=150)
    def test_argmax_on_numerators_matches_the_fraction_scan(self, case):
        alphas, xs, _ = case
        sups = WeightedSups(alphas, common_denominator(xs), range(1, 6))
        for k in range(1, 6):
            assert sups.argmax(k) == sequential_argmax(alphas, xs, k)

    @given(case=weighted_vectors(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_compare_sups_matches_fraction_entries(self, case, data):
        alphas, xs, k = case
        n = len(xs)
        i = sequential_argmax(alphas, xs, k)
        kind = data.draw(st.sampled_from(["tie", "scaled", "free", "zero"]))
        if kind == "tie":
            # p_k(y) = p_k(x) exactly, y over another denominator: the
            # other entries shrink by 1/101, so i stays the earliest argmax
            ys = [-v if q == i else -v / 101 for q, v in enumerate(xs)]
        elif kind == "scaled":
            factor = data.draw(st.sampled_from(
                [Fraction(999, 1000), Fraction(1001, 1000), Fraction(3, 7)]))
            ys = [v * factor for v in xs]
        elif kind == "free":
            ys = data.draw(st.lists(rationals, min_size=n, max_size=n))
        else:
            ys = [Fraction(0)] * n
        j = sequential_argmax(alphas, ys, k)
        want = compare_weighted(alphas[i], xs[i], alphas[j], ys[j], k)
        xw = WeightedSups(alphas, common_denominator(xs), (k,))
        yw = xw.like(common_denominator(ys))
        assert compare_sups(xw, yw, k) == want
        assert compare_sups(yw, xw, k) == -want
        if kind == "tie":
            assert want == 0
