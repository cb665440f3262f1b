"""Exponent generators, weights, and scalar growth diagnostics."""

import decimal
import math
import random
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cesarospec import (
    GALLERY_SPECS,
    AlphaSequence,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    SkEmptyError,
    WeightSystem,
    n_over_alpha_check,
    nuclearity_check,
    parse_alpha,
    s0_estimate,
    seminorm,
    shift_stability_check,
    sk_convergence,
    v_alpha,
)
from cesarospec.errors import RepresentationError
import cesarospec.sequences as sequences_module
from cesarospec.sequences import ALPHA_SATURATION, SeminormTable
from cesarospec.trend import ladder


class TestGeneratorValues:
    def test_linear_prefix(self):
        assert list(parse_alpha("linear").values(5)) == [1, 2, 3, 4, 5]

    def test_power_two_prefix(self):
        assert list(parse_alpha("power:beta=2").values(5)) == [1, 4, 9, 16, 25]

    def test_sqrt_prefix(self):
        vals = parse_alpha("sqrt").values(4)
        assert np.allclose(vals, [1.0, math.sqrt(2), math.sqrt(3), 2.0])

    def test_log_prefix(self):
        vals = parse_alpha("log:beta=2").values(3)
        expected = [2 * math.log(k + 1) for k in (1, 2, 3)]
        assert np.allclose(vals, expected)

    def test_partial_sum_prefix(self):
        vals = parse_alpha("psum:beta=1/2").values(3)
        expected = np.cumsum([1.0, 2 ** -0.5, 3 ** -0.5])
        assert np.allclose(vals, expected)

    def test_tower_prefix(self):
        assert list(parse_alpha("tower").values(5)) == [1, 4, 27, 256, 3125]

    def test_alternating_block_prefix(self):
        # odd slots sit half a step above the 3n/2 line, giving gaps 1,2,1,2,...
        assert list(parse_alpha("rsw_b").values(5)) == [2, 3, 5, 6, 8]

    def test_table_values_and_tail(self):
        seq = AlphaSequence.table([1, 3, 4], step=2)
        assert list(seq.values(6)) == [1, 3, 4, 6, 8, 10]

    def test_table_default_step_extends_last_gap(self):
        seq = AlphaSequence.table([2, 5])
        assert list(seq.values(4)) == [2, 5, 8, 11]

    def test_tower_overflow_is_loud(self):
        with pytest.raises(RepresentationError):
            parse_alpha("tower").values(200)

    def test_tower_saturated_is_finite_free(self):
        vals = parse_alpha("tower").values_saturated(200)
        assert len(vals) == 200
        assert np.all(np.diff(vals) >= 0)

    @pytest.mark.parametrize("N", [0, -3])
    def test_nonpositive_length_rejected(self, N):
        seq = parse_alpha("linear")
        for read in (seq.values, seq.values_saturated,
                     lambda n: WeightSystem(seq).log_w(1, n),
                     lambda n: WeightSystem(seq).w(1, n)):
            with pytest.raises(ValueError, match="N must be positive"):
                read(N)

    def test_sparse_block_generator_is_nondecreasing(self):
        vals = parse_alpha("s1_empty").values(5000)
        assert np.all(np.diff(vals) >= -1e-12)


class TestClosedForms:
    """alpha_at, the closed or asymptotic form behind every beyond-N probe."""

    @pytest.mark.parametrize("spec", [
        "linear", "sqrt", "log:beta=1/2", "rsw_b", "table:[1,3,4]:step=2",
        "table:[1,5/2,7/2]:step=1/3",
    ])
    @pytest.mark.parametrize("N", [1, 16, 1000])
    def test_dense_values_are_the_closed_form(self, spec, N):
        seq = parse_alpha(spec)
        dense = seq.values(N)
        closed = seq.alpha_at(np.arange(1, N + 1))
        assert dense.tobytes() == closed.tobytes()

    def test_tower_closed_form(self):
        tower = parse_alpha("tower")
        got = tower.alpha_at(np.arange(1, 140))
        rel = [abs(float(Fraction(g) / n ** n - 1)) for n, g in
               zip(range(1, 140), got)]
        assert max(rel) <= 1e-12
        assert np.all(tower.alpha_at(np.arange(140, 400)) == ALPHA_SATURATION)

    def test_partial_sum_against_hurwitz_zeta(self):
        # sum_{j<=n} j^-beta = zeta(beta) - zeta(beta, n + 1)
        seq = parse_alpha("psum:beta=1/2")
        ns = [*range(1, 60), 200, 500, 1000, 10 ** 4, 10 ** 6]
        with mpmath.workdps(30):
            ref = [mpmath.zeta(0.5) - mpmath.zeta(0.5, n + 1) for n in ns]
            err = [float(abs(mpmath.mpf(float(g)) - r))
                   for g, r in zip(seq.alpha_at(ns), ref)]
        assert max(err[:49]) <= 1e-13      # exact partial sums below n = 50
        assert max(err[49:59]) <= 3e-9     # asymptotic form from n = 50
        assert max(err[59:]) <= 2.4e-11    # and from n = 200
        assert np.max(np.abs(seq.values(1000) - seq.alpha_at(range(1, 1001)))) \
            <= 3e-9

    def test_zeta_constant_is_computed_once_per_beta(self):
        # cache misses count the evaluations of the zeta routine
        sequences_module._zeta.cache_clear()
        first = parse_alpha("psum:beta=1/2").alpha_at([100, 10 ** 6])
        with mpmath.workdps(30), decimal.localcontext(decimal.Context(prec=5)):
            again = parse_alpha("psum:beta=1/2").alpha_at([100, 10 ** 6])
        parse_alpha("psum:beta=1/2").tail_probes(200)
        assert sequences_module._zeta.cache_info().misses == 1
        assert first.tobytes() == again.tobytes()
        sequences_module._zeta.cache_clear()
        with mpmath.workdps(30), decimal.localcontext(decimal.Context(prec=5)):
            fresh = parse_alpha("psum:beta=1/2").alpha_at([100, 10 ** 6])
        assert fresh.tobytes() == first.tobytes()

    def test_sparse_blocks_have_no_pointwise_form(self):
        with pytest.raises(ValueError, match="tail_probes"):
            parse_alpha("s1_empty").alpha_at([5.0])


def _zeta_grid() -> list:
    rng = random.Random(20170)
    return ([i / 1000 for i in range(1, 1000)]
            + [rng.random() for _ in range(3000)]
            + [1e-6, 1e-300, 1 / 3, 2 / 3, 1 - 2 ** -40])


def _mpmath_zeta(beta: float) -> float:
    with mpmath.workprec(53):
        return float(mpmath.zeta(beta))


class TestZeta:
    """zeta(beta) on 0 < beta < 1 by Euler-Maclaurin in a local decimal
    context, for the partial-sum generator's constant."""

    def test_bernoulli_table(self):
        # B_n/n! = -sum_{k<n} (B_k/k!) / (n+1-k)!, from x/(e^x - 1)
        c = [Fraction(1)]
        for n in range(1, 49):
            c.append(-sum(c[k] / math.factorial(n + 1 - k) for k in range(n)))
        want = [c[n] * math.factorial(n) for n in range(2, 49, 2)]
        assert [Fraction(*b) for b in sequences_module._BERNOULLI] == want

    def test_matches_mpmath_bit_for_bit(self):
        zeta = sequences_module._zeta.__wrapped__
        grid = _zeta_grid()
        assert all(0 < b < 1 for b in grid)
        assert [b for b in grid if zeta(b) != _mpmath_zeta(b)] == []

    def test_independent_of_caller_contexts(self):
        zeta = sequences_module._zeta.__wrapped__
        grid = _zeta_grid()[::97]
        want = [zeta(b).hex() for b in grid]
        hostile = decimal.Context(prec=5, rounding=decimal.ROUND_FLOOR,
                                  traps=[decimal.Inexact])
        with decimal.localcontext(hostile), mpmath.workdps(5):
            got = [zeta(b).hex() for b in grid]
        with decimal.localcontext(hostile), mpmath.workprec(300):
            got_wide = [zeta(b).hex() for b in grid]
        assert got == want and got_wide == want


class TestParseAlpha:
    @pytest.mark.parametrize("spec", [
        "linear", "sqrt", "tower", "rsw_b", "s1_empty",
        "power:beta=2", "log:beta=1", "psum:beta=1/2",
    ])
    def test_round_trip(self, spec):
        seq = parse_alpha(spec)
        again = parse_alpha(seq.spec_string())
        assert again == seq

    @pytest.mark.parametrize("spec, text", [
        ("power:beta=1/3", "power:beta=0.3333333333333333"),
        ("log:beta=2/7", "log:beta=0.2857142857142857"),
        ("psum:beta=1/3", "psum:beta=0.3333333333333333"),
        ("power:beta=0.5", "power:beta=0.5"),
        ("power:beta=2", "power:beta=2"),
        ("log:beta=1/10", "log:beta=0.1"),
        ("log:beta=0.0000001", "log:beta=1e-07"),
        ("psum:beta=1/2", "psum:beta=0.5"),
    ])
    def test_float_parameters_print_losslessly(self, spec, text):
        # :g where it reparses to the same float, repr otherwise
        seq = parse_alpha(spec)
        assert seq.spec_string() == text
        again = parse_alpha(text)
        assert again == seq and hash(again) == hash(seq)

    def test_benchmarked_specs_print_as_before(self):
        from cesarospec.criteria import GALLERY_SPECS

        for spec in GALLERY_SPECS + ("log:beta=1/10", "log:beta=1e-7"):
            seq = parse_alpha(spec)
            if "beta" in seq.params:
                kind = spec.split(":")[0]
                assert seq.spec_string() == f"{kind}:beta={seq.params['beta']:g}"

    def test_table_grammar(self):
        seq = parse_alpha("table:[1,2,4]")
        assert list(seq.values(4)) == [1, 2, 4, 6]

    @pytest.mark.parametrize("bad", [
        "nosuch", "power", "power:beta=0", "psum:beta=1", "log:beta=-2",
        "table:[]", "table:[3,1]", "power:beta=2:beta=3",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises((ValueError, KeyError)):
            parse_alpha(bad)

    def test_nonincreasing_table_rejected(self):
        with pytest.raises(ValueError):
            AlphaSequence.table([5, 2])

    @pytest.mark.parametrize("spec", [
        "table:[1e308,1e309]", "table:[1e400]", "table:[1]:step=1e400",
        "table:[1e-400]", "table:[1e-400,1]",
    ])
    def test_table_beyond_float_range_rejected(self, spec):
        with pytest.raises(ValueError, match="float range"):
            parse_alpha(spec)

    @pytest.mark.parametrize("spec, named", [
        ("power:beta=1e400", "beta=1e400"),
        ("log:beta=1e400", "beta=1e400"),
        ("psum:beta=1e400", "beta=1e400"),
        ("power:beta=-1e400", "beta=-1e400"),
        ("power:beta=1/0", "'1/0'"),
        ("table:[1/0]", "'1/0'"),
        ("table:[1]:step=1/0", "'1/0'"),
        ("table:[1,,2]", "empty table item"),
        ("table:[1,2,]", "empty table item"),
    ])
    def test_bad_numbers_raise_value_error(self, spec, named):
        with pytest.raises(ValueError) as info:
            parse_alpha(spec)
        assert named in str(info.value)

    def test_power_overflow_is_quiet(self):
        # entries beyond float range saturate or are refused, without a
        # numpy RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seq = parse_alpha("power:beta=100")
            assert seq.values_saturated(2000)[-1] == ALPHA_SATURATION
            with pytest.raises(RepresentationError):
                seq.values(2000)


class TestWeights:
    def test_weight_values(self, linear):
        w = WeightSystem(linear)
        assert np.allclose(w.w(1, 3), np.exp([-1.0, -2.0, -3.0]))
        assert np.allclose(w.w(2, 3), np.exp([-0.5, -1.0, -1.5]))

    def test_rejects_bad_level(self, linear):
        with pytest.raises(ValueError):
            WeightSystem(linear).log_w(0, 5)

    def test_seminorm_basis_vectors(self, linear):
        # sup of e^{-n/k} |x_n| is attained at the single nonzero slot
        assert seminorm(linear, 1, [1.0, 0, 0]) == pytest.approx(math.exp(-1))
        assert seminorm(linear, 1, [0, 1.0, 0]) == pytest.approx(math.exp(-2))
        assert seminorm(linear, 2, [1.0, 0, 0]) == pytest.approx(math.exp(-0.5))

    def test_seminorm_picks_max_slot(self, linear):
        x = [1.0, math.e ** 1.5, 0.0]
        # slot 2 contributes e^{1.5-2} = e^{-0.5} > e^{-1}
        assert seminorm(linear, 1, x) == pytest.approx(math.exp(-0.5))

    @given(xs=st.lists(st.floats(min_value=-10, max_value=10), min_size=1,
                       max_size=30))
    @settings(max_examples=50)
    def test_seminorm_levels_are_ordered(self, linear, xs):
        # larger k means larger weights, so the seminorms increase with k
        assert seminorm(linear, 1, xs) <= seminorm(linear, 2, xs) * (1 + 1e-12)

    def test_seminorm_rejects_empty(self, linear):
        with pytest.raises(ValueError):
            seminorm(linear, 1, [])

    def test_seminorm_passes_nan_through(self, linear):
        # only a log-sup of -inf (a zero vector) reads as 0.0
        assert math.isnan(seminorm(linear, 1, [math.nan, 1.0]))
        assert seminorm(linear, 1, [0.0, 0.0]) == 0.0


def reference_seminorm(w, k, x):
    """The per-call seminorm as one weight build and one log pass."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        top = float(np.max(w.log_w(k, len(x)) + np.log(np.abs(x))))
    return 0.0 if top == -np.inf else math.exp(top)


def _same_bits(got, want):
    return type(got) is float and got.hex() == want.hex()


_TABLE_SPECS = ("linear", "sqrt", "log:beta=2", "power:beta=2", "tower",
                "psum:beta=1/2")


class TestSeminormTable:
    """One stacked log-weight table gives every level's seminorm of a
    vector, bit for bit as the per-call seminorm."""

    @given(spec=st.sampled_from(_TABLE_SPECS),
           K=st.integers(1, 5),
           data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_per_call_seminorm(self, spec, K, data):
        seq = parse_alpha(spec)
        n = data.draw(st.integers(1, 40))
        finite = st.floats(min_value=-1e300, max_value=1e300)
        re = data.draw(st.lists(finite | st.just(0.0), min_size=n, max_size=n))
        row = np.array(re)
        if data.draw(st.booleans()):
            im = data.draw(st.lists(finite | st.just(0.0), min_size=n,
                                    max_size=n))
            row = row + 1j * np.array(im)
        ks = tuple(range(1, K + 1))
        w = WeightSystem(seq)
        table = SeminormTable(seq, ks, n)
        got = table(row)
        assert len(got) == K
        for k, value in zip(ks, got):
            want = reference_seminorm(w, k, np.abs(row))
            assert _same_bits(value, want), (k, value, want)
            assert _same_bits(seminorm(w, k, np.abs(row)), want)

    @pytest.mark.parametrize("row", [
        np.zeros(7), np.zeros(1), np.array([0j, 0j]), np.array([2.5]),
        np.array([-3.0 + 4.0j]), np.array([0.0, 1e-320, -2.0]),
    ])
    def test_zero_complex_and_length_one_rows(self, log2, row):
        ks = (1, 2, 3, 4, 5)
        got = SeminormTable(log2, ks, len(row))(row)
        w = WeightSystem(log2)
        assert all(_same_bits(g, reference_seminorm(w, k, np.abs(row)))
                   for k, g in zip(ks, got))
        if not np.any(row):
            assert got == (0.0,) * 5

    @given(spec=st.sampled_from(_TABLE_SPECS), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_stack_gives_each_row_its_own_call(self, spec, data):
        n = data.draw(st.integers(1, 12))
        entries = st.floats(min_value=-1e300, max_value=1e300) | st.just(0.0)
        rows = np.array(data.draw(st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=1,
            max_size=5)))
        if data.draw(st.booleans()):
            rows = rows + 1j * rows[::-1]
        table = SeminormTable(parse_alpha(spec), (1, 2, 3), n)
        got = table(rows)
        assert len(got) == len(rows)
        for row, values in zip(rows, got):
            assert [v.hex() for v in values] == \
                [v.hex() for v in table(row)]

    def test_levels_keep_their_order(self, linear):
        row = np.array([1.0, 0.0, 3.0])
        w = WeightSystem(linear)
        got = SeminormTable(w, (3, 1, 2), 3)(row)
        assert got == tuple(reference_seminorm(w, k, row) for k in (3, 1, 2))

    def test_rejects_a_row_of_another_length(self, linear):
        table = SeminormTable(linear, (1, 2), 4)
        for shape in (1, (2, 3), (2, 2, 4)):
            with pytest.raises(ValueError):
                table(np.ones(shape))

    def test_rejects_bad_level(self, linear):
        with pytest.raises(ValueError):
            SeminormTable(linear, (0, 1), 4)


class TestNuclearity:
    # log n / alpha_n: n -> 0 for linear, -> 1/2 for 2 log(n+1) exactly
    def test_linear_holds(self, linear):
        assert nuclearity_check(linear).outcome == HOLDS

    def test_log_fails(self, log2):
        v = nuclearity_check(log2)
        assert v.outcome == FAILS
        assert v.witness is not None

    def test_tower_holds(self, tower):
        assert nuclearity_check(tower).outcome == HOLDS


class TestGapInfimum:
    def test_linear_gap_is_one(self, linear):
        observed, v = v_alpha(linear)
        assert observed == 1.0
        assert v.outcome == HOLDS

    def test_alternating_block_gap_is_one(self):
        observed, v = v_alpha(parse_alpha("rsw_b"))
        assert observed == 1.0
        assert v.outcome == HOLDS

    def test_tower_first_gap_dominates(self, tower):
        observed, v = v_alpha(tower)
        assert observed == 3.0  # 2^2 - 1^1
        assert v.outcome == HOLDS

    def test_sqrt_gaps_vanish(self):
        observed, v = v_alpha(parse_alpha("sqrt"))
        assert v.outcome == FAILS
        assert observed < 0.05


class TestShiftStability:
    def test_linear_holds(self, linear):
        assert shift_stability_check(linear).outcome == HOLDS

    def test_tower_fails(self, tower):
        v = shift_stability_check(tower)
        assert v.outcome == FAILS
        assert v.witness is not None

    def test_sparse_blocks_fail(self):
        # the dense ratios look bounded; the beyond-N probes decide
        v = shift_stability_check(parse_alpha("s1_empty"))
        assert v.outcome == FAILS
        assert v.witness == "block k=5"
        assert "probe_ratios_log" in v.params

    @pytest.mark.parametrize("N", [200, 2000, 10000])
    def test_sparse_block_probes_stop_at_the_log_limit(self, N):
        # block starts k = 4..18: log j(19) is past log n = 1e15
        labels, logs_n, _, _ = parse_alpha("s1_empty").tail_probes(N)
        assert list(labels) == [f"block k={k}" for k in range(4, 19)]
        assert all(math.log(N) < log_n <= sequences_module._LOG_PROBE_LIMIT
                   for log_n in logs_n)
        v = shift_stability_check(parse_alpha("s1_empty"), N)
        assert len(v.params["probe_ratios_log"]) == 15


class TestSeriesExponents:
    """s0(k) is bracketed from alpha alone, between 1 + limsup
    alpha_ceil(n/2) / (k log n) and 1 + limsup alpha_n / (k log n)."""

    def test_log_series_splits_at_three(self, log2):
        # sum exp(2 log(n+1)) / n^s = sum (n+1)^2 / n^s converges iff s > 3
        assert sk_convergence(log2, 1, 4.0).outcome == HOLDS
        assert sk_convergence(log2, 1, 2.0).outcome == FAILS

    def test_log_critical_exponent_bracket(self, log2):
        est = s0_estimate(log2, 1)
        assert est.lo <= 3.0 <= est.hi
        assert abs(est.estimate - 3.0) <= 0.05

    def test_log_level_two_bracket(self, log2):
        # at level k the terms are (n+1)^{2/k}, so s0(k) = 1 + 2/k
        est = s0_estimate(log2, 2)
        assert abs(est.estimate - 2.0) <= 0.05

    def test_linear_admits_no_exponent(self, linear):
        with pytest.raises(SkEmptyError):
            s0_estimate(linear, 1)

    def test_empty_error_reports_probes(self):
        # the dense ladder of s1_empty looks bounded; the lower end is
        # decisively unbounded at the block starts past N
        with pytest.raises(SkEmptyError) as info:
            s0_estimate(parse_alpha("s1_empty"), 1)
        v = info.value.verdict
        assert info.value.k == 1
        assert (v.outcome, v.trend) == (FAILS, "rising")
        assert v.witness == "block k=4"
        assert v.params["quantity"] == "alpha_ceil(n/2) / (k log n)"
        assert len(v.params["probe_logs"]) > 1
        assert not hasattr(info.value, "cap")

    def test_divergence_for_every_generator_but_log(self):
        for spec in ("linear", "sqrt", "power:beta=2", "psum:beta=1/2"):
            v = sk_convergence(parse_alpha(spec), 1, 10.0)
            assert v.outcome == FAILS, spec

    @pytest.mark.parametrize("beta", ["1/10", "1", "2", "10", "1000"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_log_bracket_holds_the_closed_form(self, beta, k):
        # log:beta=b has s0(k) = 1 + b/k
        truth = 1.0 + float(Fraction(beta)) / k
        est = s0_estimate(parse_alpha(f"log:beta={beta}"), k)
        assert est.lo <= truth <= est.hi
        assert abs(est.estimate - truth) <= 0.05
        assert est.lo_verdict.outcome == est.hi_verdict.outcome == HOLDS

    @settings(max_examples=40, deadline=None)
    @given(st.fractions(Fraction(1, 64), Fraction(100), max_denominator=64),
           st.integers(1, 64))
    def test_log_bracket_random_scales(self, beta, k):
        truth = 1.0 + float(beta) / k
        est = s0_estimate(parse_alpha(f"log:beta={beta}"), k)
        assert est.lo <= truth <= est.hi
        assert abs(est.estimate - truth) <= 0.05

    @pytest.mark.parametrize("spec", GALLERY_SPECS)
    def test_gallery_s1_outcomes(self, spec):
        seq = parse_alpha(spec)
        if spec == "log:beta=2":
            assert s0_estimate(seq, 1).hi_verdict.outcome == HOLDS
            return
        with pytest.raises(SkEmptyError) as info:
            s0_estimate(seq, 1)
        assert info.value.verdict.trend in ("unbounded", "rising")

    def test_sk_convergence_compares_s_with_the_bracket(self, log2):
        est = s0_estimate(log2, 3)
        above = sk_convergence(log2, 3, est.hi + 0.01)
        below = sk_convergence(log2, 3, est.lo - 0.01)
        inside = sk_convergence(log2, 3, 0.5 * (est.lo + est.hi))
        assert (above.outcome, below.outcome, inside.outcome) \
            == (HOLDS, FAILS, INCONCLUSIVE)
        assert above.params["s0_interval"] == (est.lo, est.hi)
        assert below.witness == {"s": est.lo - 0.01}

    @pytest.mark.parametrize("spec", ["log:beta=1e297", "log:beta=1e300"])
    def test_saturated_alpha_gives_no_finite_end(self, spec):
        # S_1 is nonempty with s0(1) = 1 + beta, but alpha saturates before
        # the probes end: the bracket stays open, and never reads empty
        est = s0_estimate(parse_alpha(spec), 1)
        assert est.hi == math.inf and est.lo == 1.0
        assert est.hi_verdict.outcome == INCONCLUSIVE

    def test_saturated_probe_witnesses_unbounded(self):
        # n^(1/1000) / log n falls over the dense range; past it, the probes
        # rise until alpha saturates, and the saturated one still counts
        with pytest.raises(SkEmptyError) as info:
            s0_estimate(parse_alpha("power:beta=1/1000"), 1)
        assert info.value.verdict.witness.startswith("log n=")

    @pytest.mark.parametrize("spec", ["log:beta=2", "power:beta=1/1000",
                                      "s1_empty"])
    def test_bracket_probes_are_computed_once(self, spec):
        seq = parse_alpha(spec)
        first = seq.bracket_probes
        assert seq.bracket_probes is first
        labels, logs_n, alphas = first
        want = sequences_module._bracket_probes(parse_alpha(spec))
        assert labels == want[0]
        assert logs_n.tobytes() == want[1].tobytes()
        assert alphas.tobytes() == want[2].tobytes()
        assert not logs_n.flags.writeable and not alphas.flags.writeable

    @pytest.mark.parametrize("spec, N, count", [
        ("log:beta=2", 1000, 24), ("s1_empty", 10000, 15),
        ("linear", 3 * 10 ** 12, 0)])
    def test_tail_probes_are_computed_once(self, spec, N, count):
        seq = parse_alpha(spec)
        first = seq.tail_probes(N)
        assert seq.tail_probes(N) is first
        labels, *arrays = first
        assert isinstance(labels, tuple) and len(labels) == count
        for arr in arrays:
            assert arr.dtype == float and arr.shape == (count,)
            assert not arr.flags.writeable


class TestAlphaAtLog:
    def test_log_closed_form(self):
        # log(e^L + 1) = L + log1p(e^-L), also past float range
        seq = parse_alpha("log:beta=1000")
        L = np.array([1.0, 5.0, 20.0, 300.0, 800.0, 1e6, 1e15])
        want = 1000.0 * (L + np.log1p(np.exp(-L)))
        np.testing.assert_allclose(seq.alpha_at_log(L), want, rtol=1e-15)

    @pytest.mark.parametrize("spec,L,want", [
        ("sqrt", 1000.0, math.exp(500.0)),
        ("power:beta=1/1000", 1e5, math.exp(100.0)),
        ("table:[1]:step=1e-300", 1000.0,
         1.0 + math.exp(1000.0 - 300 * math.log(10))),
        ("psum:beta=0.999", 1000.0, None),
    ])
    def test_leading_term_past_float_range(self, spec, L, want):
        if want is None:
            # sum_{j <= n} j^-beta = zeta(beta) - zeta(beta, n + 1)
            with mpmath.workdps(30):
                n = mpmath.e ** L
                want = float(mpmath.zeta(0.999) - mpmath.zeta(0.999, n + 1))
        got = float(parse_alpha(spec).alpha_at_log(L)[0])
        assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("spec", ["linear", "rsw_b", "tower",
                                      "power:beta=2", "table:[1]:step=1"])
    def test_fast_kinds_saturate(self, spec):
        got = parse_alpha(spec).alpha_at_log(np.array([710.0, 1e15]))
        assert np.all(got == ALPHA_SATURATION)


class TestScalarChecks:
    def test_n_over_alpha(self, linear):
        assert n_over_alpha_check(parse_alpha("power:beta=2")).outcome == HOLDS
        assert n_over_alpha_check(linear).outcome == FAILS

    @given(st.integers(min_value=2, max_value=500))
    @settings(max_examples=30)
    def test_exact_values_match_floats_linear(self, n):
        seq = parse_alpha("linear")
        exact = seq.exact_values(n)
        assert exact is not None
        assert [float(v) for v in exact] == list(seq.values(n))

    def test_exact_values_absent_for_irrational(self):
        assert parse_alpha("sqrt").exact_values(5) is None

    def test_table_exact_values(self):
        seq = AlphaSequence.table([1, 2], step=Fraction(1, 2))
        assert seq.exact_values(4) == [1, 2, Fraction(5, 2), 3]


class TestSaturatedTail:
    """tower's alpha_n = n^n is clipped to ALPHA_SATURATION from n = 140 on."""

    CHECKS = (nuclearity_check, n_over_alpha_check, shift_stability_check,
              lambda seq, N: v_alpha(seq, N)[1])

    @pytest.mark.parametrize("N", [140, 1024, 1990])
    def test_clipped_tail_is_left_out(self, tower, N):
        for check in self.CHECKS:
            v = check(tower, N)
            assert v.outcome == check(tower, 139).outcome
            assert v.params["saturated_from"] >= 140
            assert max(n for n, _ in v.evidence) < 140
        assert v_alpha(tower, N)[0] == v_alpha(tower, 139)[0] == 3.0

    @pytest.mark.parametrize("N", [30, 110, 139])
    def test_unsaturated_resolutions_untouched(self, tower, N):
        for check in self.CHECKS:
            assert "saturated_from" not in check(tower, N).params

    @pytest.mark.parametrize("spec", [
        "table:[1e308]:step=1e308", "table:[1e308,1.7e308]"])
    def test_table_tail_saturates_without_overflow(self, spec):
        seq = parse_alpha(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            far = seq.alpha_at([1.0, 2.0, 3.0, 1e6, 1e300])
            _, _, p_alpha, p_prev = seq.tail_probes(1000)
            dense = seq.values_saturated(50)
        assert np.all(far == ALPHA_SATURATION)
        assert all(a == ap == ALPHA_SATURATION
                   for a, ap in zip(p_alpha, p_prev))
        assert np.all(dense == ALPHA_SATURATION)
        # the unclipped values still refuse a tail beyond float range
        with pytest.raises(RepresentationError):
            seq.values(50)

    def test_gap_running_min_over_a_saturated_tail(self):
        # gaps that shrink and grow again before alpha saturates at n = 42:
        # the ladder reads the running min of the unsaturated gaps
        gaps = [3.0, 1.0, 2.0, 0.5, 4.0, 0.25, 0.75] * 5 + [0.125] * 5
        vals = np.cumsum([1.0] + gaps).tolist() + [1e301]
        seq = parse_alpha("table:[" + ",".join(map(repr, vals)) + "]")
        observed, v = v_alpha(seq, 400)
        a = seq.values_saturated(400)
        kept = np.diff(a)[a[1:] < ALPHA_SATURATION]
        lad = ladder(len(kept))
        want = np.log(np.minimum.accumulate(kept)[lad - 1])
        assert v.params["saturated_from"] == 42
        assert observed == 0.125
        assert v.evidence == tuple(zip(lad.tolist(), want.tolist()))

    def test_too_few_unsaturated_samples_is_inconclusive(self):
        # alpha_6 = 1.1e300 saturates, which leaves fewer ladder samples
        # than the classifiers' tail window
        seq = parse_alpha("table:[1e299]:step=2e299")
        for N in (1024, 10_000):
            for check in self.CHECKS:
                v = check(seq, N)
                assert v.outcome == INCONCLUSIVE
                assert v.reason == ("too few samples below the alpha "
                                    "saturation level")
                assert v.params["saturated_from"] == 6
