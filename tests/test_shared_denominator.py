"""Exact iterates over one shared denominator, and the rational contraction
check that reads them, against the Fraction arithmetic they replace."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cesarospec import (
    CoordinateVector,
    FAILS,
    HOLDS,
    Verdict,
    basis_vector,
    cesaro_apply,
    cesaro_means,
    parse_alpha,
    power_bound_check,
    power_iterate,
    seminorm,
)
from cesarospec import exact
from cesarospec.dynamics import IterateTrace
from cesarospec.exact import compare_seminorms, compare_weighted

F = Fraction

_rationals = st.builds(F, st.integers(-99, 99), st.integers(1, 20))
_entries = st.one_of(st.just(F(0)), _rationals)
_specs = st.sampled_from(["linear", "power:beta=2"])


def _fraction_chain(values, steps):
    """Running means in Fraction arithmetic, one entry at a time."""
    out = [list(values)]
    for _ in range(steps):
        acc, nxt = F(0), []
        for n, v in enumerate(out[-1], start=1):
            acc = acc + v
            nxt.append(acc / n)
        out.append(nxt)
    return out


def _floats(values):
    return np.array([float(v) for v in values])


def _assert_same_vector(vec, want):
    got = list(vec.values)
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]
    expected = _floats(want)
    assert vec.as_float().dtype == expected.dtype
    assert vec.as_float().tobytes() == expected.tobytes()


def _exact_scan_compare(alphas, k, xs, ys):
    """Sign of p_k(x) - p_k(y), each sup found by an exact scan of every
    entry with compare_weighted (no float filter)."""
    def top(vs):
        best = 0
        for i in range(1, len(vs)):
            if compare_weighted(alphas[i], vs[i], alphas[best], vs[best],
                                k) > 0:
                best = i
        return best

    i, j = top(xs), top(ys)
    return compare_weighted(alphas[i], xs[i], alphas[j], ys[j], k)


def _reference_power_bound(seq, trace, K, M, compare):
    """The rational contraction loop on Fraction values: one seminorm
    comparison per (m, k)."""
    x = trace.x0
    params = {"alpha": seq.spec_string(), "K": K, "M": M, "mode": "rational"}
    alphas = seq.exact_values(len(x))
    xs = list(x.values)
    evidence = []
    for m, y in enumerate(trace.vectors[1:M + 1], start=1):
        ys = list(y.values)
        for k in range(1, K + 1):
            if compare(alphas, k, ys, xs) > 0:
                return Verdict(FAILS, "expansion", tuple(evidence),
                               witness={"k": k, "m": m}, params=params)
        evidence.append((m, 0.0))
    return Verdict(HOLDS, "contraction", tuple(evidence), params=params)


def _assert_matches_reference(seq, trace, K, M):
    got = power_bound_check(seq, trace, K=K, M=M, mode="rational")
    for compare in (compare_seminorms, _exact_scan_compare):
        assert got == _reference_power_bound(seq, trace, K, M, compare)
    return got


class TestSharedIterates:
    """power_iterate's exact iterates read exactly as the Fraction chain."""

    @pytest.mark.parametrize("x", [
        basis_vector(1, 64),
        CoordinateVector([F(1)] * 64),
    ], ids=["e1", "ones"])
    def test_matches_the_fraction_chain(self, x):
        chain = _fraction_chain(x.values, 40)
        trace = power_iterate(x, 40)
        for m in (1, 2, 5, 17, 40):
            _assert_same_vector(trace.vectors[m], chain[m])

    @given(xs=st.lists(_entries, min_size=1, max_size=64),
           steps=st.integers(1, 40))
    @settings(max_examples=15, deadline=None)
    def test_random_rationals_match_the_fraction_chain(self, xs, steps):
        chain = _fraction_chain(xs, steps)
        trace = power_iterate(CoordinateVector(xs), steps)
        for m in range(1, steps + 1):
            _assert_same_vector(trace.vectors[m], chain[m])

    def test_single_entries_and_prefixes_read_the_numerators(self):
        x = CoordinateVector([F(1, 3), F(0), F(-1, 5), F(2)])
        y = cesaro_apply(cesaro_apply(x))
        want = _fraction_chain(x.values, 2)[2]
        assert [y[i] for i in range(4)] == want
        assert y[-1] == want[-1]
        _assert_same_vector(y.prefix(2), want[:2])
        _assert_same_vector(y.prefix(3), want[:3])
        _assert_same_vector(y, want)

    def test_shared_form_of_a_fraction_vector(self):
        x = CoordinateVector([F(1, 6), F(-3, 4), F(0)])
        assert x.shared() == ([2, -9, 0], 12)


class TestSharedMeans:
    @pytest.mark.parametrize("x", [
        basis_vector(1, 24),
        CoordinateVector([F(3, 7), F(-1), F(2, 3), F(0), F(5, 2)]),
    ], ids=["e1", "mixed"])
    def test_means_and_distances_match_fractions(self, linear, x):
        # the means, and the float gap of the last one to x_1 as the report
        # reads it: the exact mean rounded once per entry
        nmax = 12
        chain = _fraction_chain(x.values, nmax)
        got = cesaro_means(x, nmax)
        acc = None
        for j in range(1, nmax + 1):
            acc = chain[j] if acc is None else [
                a + b for a, b in zip(acc, chain[j])]
            mean = [v / j for v in acc]
            step, values = got.means[j - 1]
            assert step == j and list(values) == mean
            assert [type(v) for v in values] == [type(v) for v in mean]
        final = got.final()
        assert list(final.values) == mean
        limit = float(got.limit_prediction)
        for k in (1, 2):
            assert seminorm(linear, k, final.as_float() - limit) \
                == seminorm(linear, k, _floats(mean) - limit)


class TestRationalRoute:
    """The rational contraction check against the per-(m, k) loop."""

    @given(xs=st.lists(_entries, min_size=1, max_size=24), spec=_specs,
           K=st.integers(1, 4), M=st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_reference_loop(self, xs, spec, K, M):
        seq = parse_alpha(spec)
        trace = power_iterate(CoordinateVector(xs), M)
        verdict = _assert_matches_reference(seq, trace, K, M)
        assert verdict.outcome == HOLDS

    @given(data=st.data(), spec=_specs, K=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_hand_built_iterates_match_the_reference_loop(self, data, spec,
                                                         K):
        # iterates that tie x, nudge one of its entries, or are arbitrary
        xs = data.draw(st.lists(_entries, min_size=1, max_size=24))
        n = len(xs)
        nudges = st.sampled_from([F(999, 1000), F(1), F(1001, 1000)])
        steps = []
        for _ in range(data.draw(st.integers(1, 5))):
            kind = data.draw(st.sampled_from(["tie", "nudge", "free"]))
            if kind == "free":
                ys = data.draw(st.lists(_entries, min_size=n, max_size=n))
            else:
                ys = list(xs)
                if kind == "nudge":
                    i = data.draw(st.integers(0, n - 1))
                    ys[i] = ys[i] * data.draw(nudges)
            steps.append(CoordinateVector(ys))
        trace = IterateTrace((CoordinateVector(xs), *steps))
        _assert_matches_reference(parse_alpha(spec), trace, K, len(steps))

    def test_expanding_iterate_gives_the_same_witness(self, linear):
        x = CoordinateVector([F(1), F(0), F(0)])
        # p_k(x) = e^(-1/k).  1/2 e^(-2/k) stays below it; 5 e^(-3/k) is
        # 0.25 < 0.37 at k = 1 but 1.12 > 0.61 at k = 2
        trace = IterateTrace((
            x,
            cesaro_apply(x),
            CoordinateVector([F(1), F(1, 2), F(0)]),
            CoordinateVector([F(1), F(0), F(5)]),
        ))
        got = _assert_matches_reference(linear, trace, 3, 3)
        assert got.outcome == FAILS
        assert got.witness == {"k": 2, "m": 3}
        assert got.evidence == ((1, 0.0), (2, 0.0))

    def test_alphas_beyond_float_range_take_the_exact_route(self):
        # tower's n^n passes the float range at n = 144
        x = CoordinateVector([F(1), F(-1, 2)] + [F(0)] * 148)
        trace = power_iterate(x, 2)
        assert _assert_matches_reference(parse_alpha("tower"), trace, 2,
                                         2).outcome == HOLDS

    @pytest.mark.parametrize("spec", ["linear", "power:beta=2"])
    @pytest.mark.parametrize("seed", [7, 4242])
    def test_seeded_vectors_match_the_reference_loop(self, spec, seed):
        # numerators in [-99, 99] over denominators in [1, 19]; one trace
        # as power_iterate gives it and one with an iterate tripled, so
        # that some checks fail and their witnesses are compared too
        rng = np.random.default_rng(seed)
        seq, outcomes = parse_alpha(spec), set()
        for n in (8, 12, 16):
            num, den = rng.integers(-99, 100, n), rng.integers(1, 20, n)
            x = CoordinateVector([F(int(a), int(b)) for a, b in zip(num, den)])
            vectors = power_iterate(x, 50).vectors
            m = int(rng.integers(1, 51))
            bumped = vectors[:m] + (CoordinateVector(
                [3 * v for v in vectors[m].values]),) + vectors[m + 1:]
            for trace in (IterateTrace(vectors), IterateTrace(bumped)):
                verdict = _assert_matches_reference(seq, trace, 5, 50)
                outcomes.add(verdict.outcome)
        assert outcomes == {HOLDS, FAILS}

    def test_coordinate_one_tie_reaches_sign_minus_exp(self, monkeypatch,
                                                        linear):
        # the averaging operator fixes x_1, so p_1(C e_1) = p_1(e_1) = 1/e
        # exactly: the brackets overlap and the tie is decided by
        # exact.sign_minus_exp(1, 0), with p and u plain numbers
        calls = []
        sign_minus_exp = exact.sign_minus_exp

        def spy(p, u):
            calls.append((p, u))
            return sign_minus_exp(p, u)

        monkeypatch.setattr(exact, "sign_minus_exp", spy)
        verdict = power_bound_check(linear, basis_vector(1, 8), K=1, M=1,
                                    mode="rational")
        assert verdict.outcome == HOLDS
        assert calls == [(1, 0)]
        assert all(type(v) in (int, F) for v in calls[0])
