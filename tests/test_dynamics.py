"""Iterates, kernels, contraction bounds, and the mean-ergodic splitting."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cesarospec import (
    CoordinateVector,
    FAILS,
    HOLDS,
    PreconditionError,
    Verdict,
    WeightSystem,
    basis_vector,
    cesaro,
    cesaro_apply,
    cesaro_means,
    delta,
    ergodic_decomposition_check,
    gm_sup,
    iterate_limit_check,
    iterate_via_kernel,
    kernel_matrix,
    parse_alpha,
    power_bound_check,
    power_iterate,
    seminorm,
)
from cesarospec.cli import DYNAMICS_STEP_CAP, _build_parser, \
    assemble_config, emit, run
import cesarospec.cli as cli_module
import cesarospec.operators as operators_module
import cesarospec.dynamics as dynamics_module
from cesarospec import exact
from cesarospec.dynamics import IterateTrace
from cesarospec.exact import WeightedSups, compare_sups
from cesarospec.sequences import SeminormTable

F = Fraction


class TestPowerIterate:
    def test_single_pass_is_running_mean(self):
        tr = power_iterate(basis_vector(1, 4), 1)
        assert list(tr.final().values) == [1, F(1, 2), F(1, 3), F(1, 4)]

    def test_two_passes_hand_values(self):
        # second averaging of e_1: coordinate 2 is (1 + 1/2)/2 = 3/4,
        # coordinate 3 is (1 + 1/2 + 1/3)/3 = 11/18
        tr = power_iterate(basis_vector(1, 4), 2)
        assert list(tr.final().values) == [1, F(3, 4), F(11, 18), F(25, 48)]

    def test_records_every_step(self):
        tr = power_iterate(basis_vector(1, 3), 3)
        assert [step for step, _ in tr.iterates] == [0, 1, 2, 3]
        assert tr.iterates[0][1] == (1, 0, 0)

    def test_limit_prediction_is_first_coordinate(self):
        x = CoordinateVector([F(7), F(1), F(2)])
        assert power_iterate(x, 2).limit_prediction == 7

    @pytest.mark.parametrize("x", [
        CoordinateVector([F(1, k) for k in range(1, 513)]),
        CoordinateVector(np.linspace(-1.0, 1.0, 9)),
        CoordinateVector(np.linspace(-1.0, 1.0, 9) * (1 - 2j)),
    ])
    def test_limit_prediction_reads_one_entry(self, x):
        # an exact start vector builds no Fraction for the entries not read
        got = power_iterate(x, 2).limit_prediction
        if x.exact:
            assert x._values is None
        want = x.values[0]
        assert got == want
        assert type(got) is type(want)

    def test_averaging_fixes_the_top_seminorm_of_e1(self, linear):
        # the sup sits at coordinate 1, which every averaging pass fixes,
        # so p_k stays exactly constant along the trajectory
        tr = power_iterate(basis_vector(1, 6), 4)
        table = SeminormTable(linear, (1, 2, 3), 6)
        history = [table(v.as_float()) for v in tr.vectors]
        assert history[0][0] == pytest.approx(math.exp(-1))
        assert all(h == history[0] for h in history)

    def test_rejects_bad_m(self):
        with pytest.raises(PreconditionError):
            power_iterate(basis_vector(1, 3), 0)

    def test_complex_input(self):
        x = CoordinateVector([1 + 1j, 0.0, 0.0])
        tr = power_iterate(x, 1)
        assert tr.final().values[1] == pytest.approx((1 + 1j) / 2)


class TestHugeFloatIterates:
    def test_iterates_stay_at_the_float_limit(self):
        # every running mean of finite input lies within max|x|
        x = CoordinateVector(np.array([1e308] * 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = power_iterate(x, 5)
            limit = iterate_limit_check(x)
        for v in trace.vectors:
            assert list(v.values) == [1e308] * 3
        assert limit.outcome == HOLDS

    def test_limit_check_runs_without_overflow(self):
        x = CoordinateVector(np.array([1e308, 1.7e308, 1.5e308, 1.2e308]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = iterate_limit_check(x, tol=1e300)
        assert v.outcome == HOLDS

    def test_means_stay_at_the_float_limit(self):
        # the running sums pass float range; the means do not
        x = CoordinateVector(np.array([1e308] * 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            means = cesaro_means(x, 3).means
        assert [j for j, _ in means] == [1, 2, 3]
        for _, mean in means:
            assert list(mean) == [1e308] * 3

    def test_band_test_of_opposite_huge_entries(self):
        # x_2 - x_1 = -2.7e308 is past float range; the second entry still
        # reaches x_1 to rounding after 55 halvings of that gap
        x = CoordinateVector(np.array([1e308, -1.7e308]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = iterate_limit_check(x)
        assert v.outcome == HOLDS
        assert v.evidence == ((1, 0), (2, 55))
        assert v.params == {"tol": 1e-6, "m_cap": 256, "max_steps": 55}

    def test_ordinary_means_keep_the_plain_sums(self, rng):
        x = CoordinateVector(rng.uniform(-1, 1, size=40))
        trace = power_iterate(x, 12)
        acc = None
        for (j, mean), y in zip(cesaro_means(trace, 12).means,
                                trace.vectors[1:]):
            acc = y.values if acc is None else acc + y.values
            assert np.array_equal(np.array(mean), acc / j)

    def test_random_dynamics_report_bytes(self, monkeypatch):
        # the helper keeps the bytes of the plain prefix-sum formula on
        # ordinary input
        argv = ["--N", "512", "--experiments", "dynamics:random",
                "--seed", "7"]
        config, _ = assemble_config(_build_parser().parse_args(argv))
        got = emit(run(config))

        def plain(v):
            return np.cumsum(v) / np.arange(1, len(v) + 1)

        monkeypatch.setattr(operators_module, "_prefix_means", plain)
        monkeypatch.setattr(dynamics_module, "_prefix_means", plain)
        assert got == emit(run(config))


class TestCesaroMeans:
    def test_first_mean_is_first_iterate(self):
        tr = cesaro_means(basis_vector(1, 3), 1)
        assert list(tr.means[0][1]) == [1, F(1, 2), F(1, 3)]

    def test_second_mean_hand_value(self):
        # (Cx + C^2 x)/2 at coordinate 2: (1/2 + 3/4)/2 = 5/8
        tr = cesaro_means(basis_vector(1, 3), 2)
        assert tr.means[1][1][1] == F(5, 8)

    def test_distances_shrink_for_e1(self, linear):
        tr = cesaro_means(basis_vector(1, 8), 40)
        gaps = [seminorm(linear, 1, np.array(mean, dtype=float) - 1.0)
                for _, mean in tr.means]
        assert gaps[-1] < gaps[0]
        assert gaps[-1] < 0.05

    @pytest.mark.parametrize("x", [
        basis_vector(1, 8),
        CoordinateVector([F(3, 7), F(-1), F(2, 3), F(0), F(5, 2)]),
        CoordinateVector(np.linspace(-1.0, 1.0, 12)),
        CoordinateVector(np.linspace(-1.0, 1.0, 12) * (1 - 2j)),
        CoordinateVector(np.array([1e308] * 3)),
    ])
    @pytest.mark.parametrize("nmax", [1, 7])
    def test_final_is_the_last_mean(self, x, nmax):
        for start in (x, power_iterate(x, 9)):
            tr = cesaro_means(start, nmax)
            final = tr.final()
            assert final.exact == x.exact
            assert repr(list(final.values)) == repr(list(tr.means[-1][1]))

    def test_limit_prediction(self):
        x = CoordinateVector([F(3), F(0), F(0)])
        assert cesaro_means(x, 2).limit_prediction == 3


class TestKernel:
    def test_first_power_is_plain_averaging(self):
        k = kernel_matrix(1, 12)
        c = cesaro(12, mode="float").dense()
        assert np.max(np.abs(k - c)) <= 1e-15

    def test_rows_sum_to_one(self):
        # constant vectors are fixed by every averaging power
        for m in (2, 3, 5):
            k = kernel_matrix(m, 16)
            assert np.allclose(k.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_iterated_means(self):
        x = CoordinateVector(np.linspace(-1.0, 1.0, 20))
        for m in (2, 3):
            via_kernel = iterate_via_kernel(x, m).as_float()
            via_means = power_iterate(x, m).final().as_float()
            assert np.max(np.abs(via_kernel - via_means)) <= 1e-10

    def test_cache_returns_same_object(self):
        assert kernel_matrix(2, 10) is kernel_matrix(2, 10)

    @pytest.mark.parametrize("N", [1, 2, 17, 40])
    def test_cells_are_the_rounded_exact_kernel(self, N):
        # the m-th power is delta diag(1/k^m) delta exactly; each kernel cell
        # must be that rational rounded once
        d = delta(N).dense()
        for m in (1, 2, 3, 5):
            recip = np.array([F(1, k ** m) for k in range(1, N + 1)],
                             dtype=object)
            exact = (d * recip[None, :]).dot(d)
            got = kernel_matrix(m, N)
            for n in range(N):
                for j in range(N):
                    assert got[n, j] == float(exact[n, j]), (m, n + 1, j + 1)

    def test_cached_matrix_is_read_only(self):
        k = kernel_matrix(2, 5)
        with pytest.raises(ValueError):
            k[4, 0] = 99.0
        out = iterate_via_kernel(CoordinateVector(np.ones(5)), 2).as_float()
        assert np.max(np.abs(out - 1.0)) <= 1e-12

    def test_cli_import_leaves_quadrature_unloaded(self):
        # checked after the import and again after a run, so that no lazy
        # import moves the cost from start-up into the run
        import cesarospec

        src = os.path.dirname(os.path.dirname(cesarospec.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "import sys, cesarospec.cli as cli\n"
            "heavy = ('scipy', 'scipy.special', 'scipy.integrate')\n"
            "print([m for m in heavy if m in sys.modules])\n"
            "code = cli.main(['--N', '40', '--experiments', 'profile',\n"
            "                 'eigenpairs:1,2', 'dynamics'])\n"
            "print([m for m in heavy if m in sys.modules], code)\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        lines = out.stdout.strip().splitlines()
        assert lines[0] == "[]"
        assert lines[-1] == "[] 0"

    def test_cli_import_and_runs_leave_mpmath_and_metadata_unloaded(self):
        # zeta for psum is computed without mpmath, and the versions block
        # reads no installed metadata; checked after the import and after a
        # psum run and a suite run
        import cesarospec

        src = os.path.dirname(os.path.dirname(cesarospec.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "import contextlib, io, sys, cesarospec.cli as cli\n"
            "heavy = ('mpmath', 'importlib.metadata', 'email', 'scipy')\n"
            "print([m for m in heavy if m in sys.modules])\n"
            "for argv in (['--alpha', 'psum:beta=1/2', '--experiments',\n"
            "              'profile', 'spectrum'],\n"
            "             ['--experiments', 'suite']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = cli.main(argv)\n"
            "    print([m for m in heavy if m in sys.modules], code)\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip().splitlines() == ["[]", "[] 0", "[] 0"]

    def test_ones_preserved(self):
        ones = CoordinateVector([1.0] * 15)
        out = iterate_via_kernel(ones, 4).as_float()
        assert np.max(np.abs(out - 1.0)) <= 1e-12


class TestDensitySups:
    def test_first_values(self):
        assert gm_sup(1) == 1.0
        assert gm_sup(2) == pytest.approx(math.exp(-1), abs=1e-14)

    def test_closed_matches_numeric(self):
        # up to the CLI's dynamics step cap; the maximizer e^-(m-1) is below
        # 1e-12 from m = 29 on, and the density underflows to 0.0 away from
        # its peak from m = 30,616 on
        for m in [*range(1, DYNAMICS_STEP_CAP + 1), 30_616, 61_232, 10 ** 6]:
            closed = gm_sup(m, method="closed")
            numeric = gm_sup(m, method="numeric")
            assert abs(closed - numeric) <= 1e-10
            assert gm_sup(m) == closed

    def test_strictly_decreasing(self):
        vals = [gm_sup(m) for m in range(1, 25)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.1

    def test_rejects_bad_m(self):
        with pytest.raises(PreconditionError):
            gm_sup(0)

    def test_each_search_runs_once(self, monkeypatch):
        calls = []
        real = dynamics_module._golden_max
        monkeypatch.setattr(dynamics_module, "_golden_max",
                            lambda *a: calls.append(a) or real(*a))
        gm_sup.cache_clear()
        try:
            assert gm_sup(7) == gm_sup(7) == gm_sup(7, method="closed")
            assert len(calls) == 1
        finally:
            gm_sup.cache_clear()


class TestContraction:
    def test_exact_rational_mode(self, linear):
        x = CoordinateVector([F(5), F(-3), F(7, 2), F(0), F(2)])
        v = power_bound_check(linear, x, K=3, M=12, mode="rational")
        assert v.outcome == HOLDS

    def test_float_mode(self, linear, rng):
        x = CoordinateVector(rng.uniform(-1, 1, size=30))
        v = power_bound_check(linear, x, K=4, M=20)
        assert v.outcome == HOLDS

    def test_rational_mode_needs_exact_generator(self):
        x = CoordinateVector([F(1), F(2)])
        with pytest.raises(PreconditionError):
            power_bound_check(parse_alpha("sqrt"), x, mode="rational")

    @given(xs=st.lists(st.floats(min_value=-50, max_value=50),
                       min_size=2, max_size=25))
    @settings(max_examples=60)
    def test_single_pass_never_raises_seminorms(self, linear, xs):
        # independent of the verdict machinery: one averaging pass cannot
        # increase any weighted sup when the weights decrease in n
        y = cesaro_apply(CoordinateVector(xs)).as_float()
        for k in (1, 2):
            before = seminorm(linear, k, np.abs(xs))
            after = seminorm(linear, k, np.abs(y))
            assert after <= before * (1 + 1e-12) + 1e-300


def reference_float_bound(w, trace, K, M, tol=1e-12):
    """Float-mode contraction as one seminorm call per (iterate, level):
    the outcome, its first failing (m, k) and the witness values."""
    xf = np.abs(trace.x0.as_float())
    base = {k: seminorm(w, k, xf) for k in range(1, K + 1)}
    worst, evidence = 0.0, []
    for m, y in enumerate(trace.vectors[1:M + 1], start=1):
        yf = np.abs(y.as_float())
        for k in range(1, K + 1):
            pk = seminorm(w, k, yf)
            slack = pk - base[k] * (1.0 + tol)
            worst = max(worst, slack)
            if slack > 0.0:
                return FAILS, tuple(evidence), {
                    "k": k, "m": m, "p_k": pk, "bound": base[k]}
        evidence.append((m, worst))
    return HOLDS, tuple(evidence), None


class TestFloatContractionTable:
    """Hand-built traces, some of which expand, give the verdict and the
    witness of the per-call reference loop."""

    @given(n=st.integers(1, 12), K=st.integers(1, 5), M=st.integers(1, 6),
           data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_loop(self, linear, n, K, M, data):
        entries = st.floats(min_value=-1e3, max_value=1e3) | st.just(0.0)
        rows = [data.draw(st.lists(entries, min_size=n, max_size=n))
                for _ in range(M + 1)]
        if data.draw(st.booleans()):
            rows = [np.array(r) * 1j + np.array(r[::-1]) for r in rows]
        trace = IterateTrace(
            tuple(CoordinateVector(np.asarray(r)) for r in rows))
        got = power_bound_check(linear, trace, K=K, M=M, mode="float")
        outcome, evidence, witness = reference_float_bound(
            WeightSystem(linear), trace, K, M)
        assert got.outcome == outcome
        assert repr(got.evidence) == repr(evidence)
        assert repr(got.witness) == repr(witness)

    def test_first_failing_level_and_step(self, linear):
        # p_k(x0) = e^(-1/k).  Step 1 contracts; at step 2 slot 3 holds 3,
        # and 3 e^(-3/k) exceeds e^(-1/k) first at k = 2 (3 > e, 3 < e^2)
        rows = [[1.0, 0.0, 1.0], [1.0, 0.0, 0.5], [1.0, 0.0, 3.0]]
        trace = IterateTrace(
            tuple(CoordinateVector(np.array(r)) for r in rows))
        got = power_bound_check(linear, trace, K=3, M=2, mode="float")
        outcome, evidence, witness = reference_float_bound(
            WeightSystem(linear), trace, 3, 2)
        assert got.outcome == outcome == FAILS
        assert (witness["m"], witness["k"]) == (2, 2)
        assert got.witness == witness and got.evidence == evidence


def reference_bound(seq, trace, K, M, mode):
    """power_bound_check as one bracket pass (rational) or one seminorm
    table call (float) per vector, and one comparison per (m, level)."""
    x = trace.x0
    iterates = enumerate(trace.vectors[1:M + 1], start=1)
    params = {"alpha": seq.spec_string(), "K": K, "M": M, "mode": mode}
    evidence = []
    if mode == "rational":
        alphas = seq.exact_values(len(x))
        xw = WeightedSups(alphas, [x.shared()], range(1, K + 1))
        for m, y in iterates:
            yw = WeightedSups(alphas, [y.shared()], range(1, K + 1))
            for k in range(1, K + 1):
                if compare_sups(yw, xw, k) > 0:
                    return Verdict(FAILS, "expansion", tuple(evidence),
                                   witness={"k": k, "m": m}, params=params)
            evidence.append((m, 0.0))
        return Verdict(HOLDS, "contraction", tuple(evidence), params=params)
    params["tol"] = 1e-12
    table = SeminormTable(seq, range(1, K + 1), len(x))
    base = table(x.as_float())
    worst = 0.0
    for m, y in iterates:
        for k, pk, bound in zip(table.ks, table(y.as_float()), base):
            slack = pk - bound * (1.0 + 1e-12)
            worst = max(worst, slack)
            if slack > 0.0:
                return Verdict(
                    FAILS, "expansion", tuple(evidence),
                    witness={"k": k, "m": m, "p_k": pk, "bound": bound},
                    params=params)
        evidence.append((m, worst))
    return Verdict(HOLDS, "contraction", tuple(evidence), params=params)


def with_weighted_calls(check, *args, **kwargs):
    """check's result and the argument tuples of its compare_weighted calls,
    in order."""
    calls, real = [], exact.compare_weighted

    def spy(*a):
        calls.append(a)
        return real(*a)

    with mock.patch.object(exact, "compare_weighted", spy):
        return check(*args, **kwargs), calls


# exact generators: distinct alphas, equal alphas at distinct indices, and
# alphas that overflow floats, so that every index is a candidate
_EXACT_SPECS = ("linear", "power:beta=2", "table:[1,1,2,2,2]:step=1/2",
                "table:[1/2,1/2]:step=0", "table:[1e308]:step=1e308")
_entries = st.one_of(st.just(F(0)), st.fractions(
    min_value=-30, max_value=30, max_denominator=12))


@st.composite
def exact_traces(draw, n, M):
    """An exact trace of M passes: the running-mean orbit of a start vector,
    or hand-built iterates that may expand: free draws, x scaled, or x_1
    kept over a small remainder, so that the brackets tie at coordinate 1."""
    x = draw(st.lists(_entries, min_size=n, max_size=n))
    if draw(st.booleans()):
        x[0] = draw(st.sampled_from([F(0), F(40), F(-40)]))
    if draw(st.booleans()):
        return power_iterate(CoordinateVector(x), M)
    rows = [x]
    for _ in range(M):
        y = draw(st.lists(_entries, min_size=n, max_size=n))
        kind = draw(st.sampled_from(["free", "scaled", "tie"]))
        if kind == "scaled":
            factor = draw(st.sampled_from([F(999, 1000), F(1001, 1000)]))
            y = [-v * factor for v in x]
        elif kind == "tie":
            y = [x[0]] + [v / 97 for v in y[1:]]
        rows.append(y)
    return IterateTrace(tuple(CoordinateVector(r) for r in rows))


class TestStackedContraction:
    """The one-pass check over the whole trace gives the Verdict of the
    per-iterate loop in both modes, and makes the same exact comparisons in
    the same order."""

    @given(spec=st.sampled_from(_EXACT_SPECS), n=st.integers(1, 6),
           K=st.integers(1, 5), M=st.integers(1, 9), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_loop(self, spec, n, K, M, data):
        seq = parse_alpha(spec)
        trace = data.draw(exact_traces(n, M))
        for mode in ("rational", "float"):
            got, calls = with_weighted_calls(
                power_bound_check, seq, trace, K=K, M=M, mode=mode)
            want, want_calls = with_weighted_calls(
                reference_bound, seq, trace, K, M, mode)
            assert repr(got) == repr(want)
            assert calls == want_calls

    @pytest.mark.parametrize("spec", ["linear", "power:beta=2",
                                      "table:[1e308]:step=1e308"])
    def test_matches_reference_loop_over_a_long_trace(self, spec, rng):
        # K N = 120 and M = 40: one pass brackets 200 (iterate, level) pairs
        seq = parse_alpha(spec)
        x = CoordinateVector([F(int(a), int(b)) for a, b in zip(
            rng.integers(-99, 100, 24), rng.integers(1, 20, 24))])
        for start in (x, basis_vector(1, 24)):
            trace = power_iterate(start, 40)
            for mode in ("rational", "float"):
                got, calls = with_weighted_calls(
                    power_bound_check, seq, trace, K=5, M=40, mode=mode)
                want, want_calls = with_weighted_calls(
                    reference_bound, seq, trace, 5, 40, mode)
                assert repr(got) == repr(want)
                assert calls == want_calls

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_start_vector_is_refused(self, linear, bad):
        x = CoordinateVector(np.array([1.0, bad, 2.0]))
        with pytest.raises(PreconditionError, match="finite"):
            power_bound_check(linear, x, K=3, M=5, mode="float")

    def test_non_finite_iterate_is_refused_where_it_is_read(self, linear):
        # iterate 2 expands before iterate 3 overflows; where iterate 2 is
        # not finite it is refused, nan (whose seminorm reads 0) included
        rows = [[1.0, 0.0, 1.0], [1.0, 0.0, 0.5], [1.0, 0.0, 3.0],
                [1.0, math.inf, 1.0]]
        expands = IterateTrace(tuple(CoordinateVector(np.array(r))
                                     for r in rows))
        assert power_bound_check(linear, expands, K=3, M=3).witness["m"] == 2
        for bad in (math.inf, math.nan):
            y = CoordinateVector(np.array([1.0, 0.0, bad]))
            trace = IterateTrace(expands.vectors[:2] + (y,))
            with pytest.raises(PreconditionError, match="iterate 2"):
                power_bound_check(linear, trace, K=3, M=2)


class TestTraceInput:
    """The contraction check and the means read a given trace, and agree
    with the results they compute from the start vector."""

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_power_bound_check_from_trace(self, linear, mode):
        x = CoordinateVector([F(5), F(-3), F(7, 2), F(0), F(2)])
        trace = power_iterate(x, 12)
        from_vector = power_bound_check(linear, x, K=3, M=9, mode=mode)
        assert power_bound_check(linear, trace, K=3, M=9, mode=mode) \
            == from_vector
        assert len(from_vector.evidence) == 9

    def test_float_power_bound_check_from_float_trace(self, linear, rng):
        x = CoordinateVector(rng.uniform(-1, 1, size=30))
        trace = power_iterate(x, 20)
        assert power_bound_check(linear, trace, K=4, M=20) \
            == power_bound_check(linear, x, K=4, M=20)

    @pytest.mark.parametrize("x", [
        basis_vector(1, 8),
        CoordinateVector(np.linspace(-1.0, 1.0, 12)),
    ])
    def test_cesaro_means_from_trace(self, x):
        trace = power_iterate(x, 15)
        got = cesaro_means(trace, 10)
        want = cesaro_means(x, 10)
        assert got.means == want.means
        assert list(got.final().values) == list(want.final().values)
        assert got.limit_prediction == want.limit_prediction
        assert got.x0 is trace.x0

    def test_short_trace_rejected(self, linear):
        trace = power_iterate(basis_vector(1, 6), 3)
        for mode in ("rational", "float"):
            with pytest.raises(PreconditionError):
                power_bound_check(linear, trace, K=2, M=4, mode=mode)
        with pytest.raises(PreconditionError):
            cesaro_means(trace, 4)


def reference_mean(trace, nmax):
    """The last mean of iterates 1..nmax: float iterates added in order
    (over the power of two that _overflow_scale picks from their peaks),
    exact ones as Fractions."""
    rows = [y.values for y in trace.vectors[1:nmax + 1]]
    if trace.x0.exact:
        return [sum(col, F(0)) / nmax for col in zip(*rows)]
    scale = operators_module._overflow_scale(
        max(float(np.max(np.abs(row))) for row in rows), len(rows))
    total = rows[0] / scale
    for row in rows[1:]:
        total = total + row / scale
    return total / nmax * scale


def fraction_orbit(x, steps):
    """x and its first `steps` running means, one Fraction at a time."""
    rows = [list(x.values)]
    for _ in range(steps):
        acc, row = F(0), []
        for n, v in enumerate(rows[-1], start=1):
            acc += v
            row.append(acc / n)
        rows.append(row)
    return rows


def stack_shapes(run):
    """run()'s result and the shapes of its SeminormTable calls."""
    shapes, real = [], SeminormTable.__call__

    def spy(self, x):
        shapes.append(np.shape(x))
        return real(self, x)

    with mock.patch.object(SeminormTable, "__call__", spy):
        return run(), shapes


def float_start(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "huge":
        return CoordinateVector(np.array([1e308] * n))
    x = rng.uniform(-1, 1, size=n)
    if kind == "complex":
        x = x + 1j * rng.uniform(-1, 1, size=n)
    return CoordinateVector(x)


class TestStackedOrbit:
    """The contraction check's p_k, read in stacks of iterates, and the
    last mean are those of one table call per iterate and of one sum in
    order, bit for bit."""

    @given(kind=st.sampled_from(["real", "complex", "huge"]),
           n=st.integers(1, 600), m=st.integers(1, 40), K=st.integers(1, 6),
           entries=st.sampled_from([1, 7, 600, 1 << 12]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_loop(self, linear, kind, n, m, K, entries,
                                    seed):
        x = float_start(kind, n, seed)
        trace = power_iterate(x, m)
        with mock.patch.object(dynamics_module, "_STACK_ENTRIES", entries):
            bound = power_bound_check(linear, trace, K=K, M=m)
            final = cesaro_means(trace, m).final()
        assert repr(bound) == repr(reference_bound(linear, trace, K, m,
                                                   "float"))
        assert np.array_equal(final.values, reference_mean(trace, m))

    def test_exact_orbit_matches_reference_loop(self, linear):
        x = CoordinateVector([F(5), F(-3), F(7, 2), F(0), F(2)])
        trace = power_iterate(x, 9)
        assert [list(v.values) for v in trace.vectors] == fraction_orbit(x, 9)
        assert repr(power_bound_check(linear, trace, K=3, M=9)) == repr(
            reference_bound(linear, trace, 3, 9, "float"))
        final = cesaro_means(trace, 9).final()
        assert list(final.values) == reference_mean(trace, 9)

    @pytest.mark.parametrize("kind", ["real", "complex", "huge"])
    def test_matches_reference_loop_at_the_budget(self, linear, kind):
        # N = 512 and K = 5, as the CLI's top band runs: the contraction
        # check reads iterates 0..32 in stacks of four and one
        x = float_start(kind, 512, 5)
        trace = power_iterate(x, 32)
        bound, shapes = stack_shapes(
            lambda: power_bound_check(linear, trace, K=5, M=32))
        assert shapes == [(4, 512)] * 8 + [(1, 512)]
        assert repr(bound) == repr(reference_bound(linear, trace, 5, 32,
                                                   "float"))
        assert np.array_equal(cesaro_means(trace, 32).final().values,
                              reference_mean(trace, 32))

    @pytest.mark.parametrize("n", [40, 512, 2048])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_table_call_holds_few_copies_of_a_stack(self, linear, n, kind):
        # one SeminormTable call on a full stack at K = 5 holds at most four
        # stacks' worth at once: no (rows, K, N) broadcast
        rows = max(1, dynamics_module._STACK_ENTRIES // n)
        table = SeminormTable(linear, range(1, 6), n)
        x = float_start(kind, rows * n, n).as_float().reshape(rows, n)
        table(x)
        tracemalloc.start()
        try:
            table(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * rows * n * 8

    @pytest.mark.parametrize("n", [1, 7, 100, 512, 4096, 5000])
    def test_stacks_stay_within_the_entry_budget(self, linear, n,
                                                 monkeypatch):
        budget = dynamics_module._STACK_ENTRIES
        shapes, real = [], dynamics_module._stacks

        def spy(rows):
            for stack in real(rows):
                shapes.append(stack.shape)
                yield stack

        monkeypatch.setattr(dynamics_module, "_stacks", spy)
        x = float_start("real", n, n)
        trace = power_iterate(x, 32)
        # the contraction check reads x0 and 32 iterates once, the means
        # read 32 iterates twice: for their peak, then for the sums
        for count, reads, run in (
                (33, 1, lambda: power_bound_check(linear, trace, K=2, M=32)),
                (32, 2, lambda: cesaro_means(trace, 32).final())):
            shapes.clear()
            run()
            rows = [r for r, width in shapes]
            assert all(width == n for _, width in shapes)
            assert sum(rows) == reads * count
            assert max(rows) == max(1, min(count, budget // n))
            assert all(r * n <= max(n, budget) for r in rows)


class TestDynamicsReport:
    """The report's seminorms of the reported iterates and gaps of the
    last mean to x_1 are one table call per vector, on Fraction iterates
    and means for exact starts."""

    @pytest.mark.parametrize("spec", ["random", "ones", "e2", "huge"])
    @pytest.mark.parametrize("N", [3, 40, 512])
    def test_match_one_table_call_per_row(self, monkeypatch, spec, N):
        made, real = [], cli_module._make_vector

        def make(x_spec, n, ctx):
            made.append(CoordinateVector(np.full(n, 1e308)) if spec == "huge"
                        else real(x_spec, n, ctx))
            return made[-1]

        monkeypatch.setattr(cli_module, "_make_vector", make)
        ms, ks, nmax = (1, 2, 5, 12), (1, 2, 3, 4, 5), min(N, 32)
        x_spec = "random" if spec == "huge" else spec
        argv = ["--alpha", "log:beta=2", "--N", str(N), "--K", "5",
                "--experiments", f"dynamics:{x_spec},1,2,5,12"]
        config, _ = assemble_config(_build_parser().parse_args(argv))
        (_, payload), = run(config).results
        x = made[0]
        if x.exact:
            rows = fraction_orbit(x, max(ms + (nmax,)))
            mean = [sum(col, F(0)) / nmax for col in zip(*rows[1:nmax + 1])]
            x1 = float(x.values[0])
        else:
            trace = power_iterate(x, max(ms + (nmax,)))
            rows = [v.values for v in trace.vectors]
            mean, x1 = reference_mean(trace, nmax), x.values[0]
        table = SeminormTable(parse_alpha("log:beta=2"), ks, N)

        def floats(row):
            return np.array([float(v) for v in row])

        assert repr([e["seminorms"] for e in payload["iterates"]]) == repr(
            [tuple(zip(ks, table(floats(rows[m])))) for m in ms])
        assert repr(payload["means_final_distance"]) == repr(
            {"n": nmax, "gaps": tuple(zip(ks, table(floats(mean) - x1)))})


class TestIterateLimit:
    def test_basis_vector_settles(self):
        v = iterate_limit_check(basis_vector(1, 30), tol=1e-6)
        assert v.outcome == HOLDS
        assert v.params["max_steps"] <= 60

    def test_skewed_vector_settles(self, rng):
        x = CoordinateVector(rng.uniform(-1, 1, size=25))
        assert iterate_limit_check(x, tol=1e-6).outcome == HOLDS

    def test_rejects_empty_vector(self):
        with pytest.raises(PreconditionError, match="empty vector"):
            iterate_limit_check([])

    def test_cap_too_small_fails_honestly(self, monkeypatch):
        monkeypatch.setattr(dynamics_module, "_LIMIT_STEP_CAP", 2)
        v = iterate_limit_check(basis_vector(1, 30), tol=1e-12)
        assert v.outcome == FAILS
        assert v.witness["m_cap"] == 2

    @pytest.mark.parametrize("x", [
        CoordinateVector(np.linspace(-1.0, 1.0, 40)),
        CoordinateVector(np.linspace(-1.0, 1.0, 40) * (1 - 2j)),
        CoordinateVector(np.array([1e308, -1.7e308])),
        CoordinateVector(np.array([1e308, 1.7e308, 1.5e308, 1.2e308])),
        CoordinateVector(np.array([np.nan, 1.0])),
        CoordinateVector([F(3), F(-1), F(1, 2), F(0), F(7)]),
        basis_vector(2, 30),
    ])
    @pytest.mark.parametrize("steps", [1, 5, 32, 300])
    def test_trace_gives_the_verdict_of_its_start(self, x, steps):
        # short traces end before the band is entered, so the check runs on
        # past them; [1e308, -1.7e308] enters at step 55
        want = iterate_limit_check(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = iterate_limit_check(power_iterate(x, steps))
        assert repr(got) == repr(want)

    def test_only_float_trace_iterates_are_read(self, monkeypatch):
        # a float 32-pass trace leaves only the steps past it to compute; an
        # exact trace's big-integer iterates are not converted
        calls = []
        real = dynamics_module._prefix_means
        monkeypatch.setattr(dynamics_module, "_prefix_means",
                            lambda v: calls.append(1) or real(v))
        x = CoordinateVector(np.array([1e308, -1.7e308]))
        assert iterate_limit_check(power_iterate(x, 32)).params[
            "max_steps"] == 55
        assert len(calls) == 55 - 32
        calls.clear()
        v = iterate_limit_check(power_iterate(basis_vector(1, 30), 32))
        assert len(calls) == v.params["max_steps"] > 0

    def test_nan_start_fails_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            v = iterate_limit_check(CoordinateVector(np.array([np.nan, 1.0])))
        assert (v.outcome, v.trend) == (FAILS, "no_entry")
        assert v.evidence == ((1, -1), (2, -1))


class TestErgodicSplitting:
    @given(xs=st.lists(st.fractions(min_value=-20, max_value=20,
                                    max_denominator=12),
                       min_size=2, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_exact_identity(self, linear, xs):
        # mixed denominators; a nonzero residual raises rather than fails
        for x in (CoordinateVector([F(3), F(1), F(4), F(1), F(5)]),
                  CoordinateVector(xs)):
            v = ergodic_decomposition_check(linear, x)
            assert v.outcome == HOLDS
            assert v.params["mode"] == "rational"
            assert v.evidence == ((len(x), 0.0),)

    def test_float_identity(self, linear, rng):
        x = CoordinateVector(rng.uniform(-2, 2, size=40))
        v = ergodic_decomposition_check(linear, x)
        assert v.outcome == HOLDS

    def test_constant_vector_has_zero_remainder(self, linear):
        x = CoordinateVector([F(2)] * 6)
        v = ergodic_decomposition_check(linear, x)
        assert v.outcome == HOLDS

    def test_short_vector_rejected(self, linear):
        with pytest.raises(PreconditionError):
            ergodic_decomposition_check(linear, CoordinateVector([F(1)]))
