"""Iterates, kernels, contraction bounds, and the mean-ergodic splitting."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cesarospec import (
    CoordinateVector,
    FAILS,
    HOLDS,
    PreconditionError,
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
from cesarospec.cli import DYNAMICS_STEP_CAP
from cesarospec.dynamics import IterateTrace

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

    def test_seminorm_history_with_weights(self, linear):
        tr = power_iterate(basis_vector(1, 5), 3, w=WeightSystem(linear),
                           ks=(1, 2))
        assert len(tr.seminorms) == 4
        step0 = dict(tr.seminorms[0][1])
        assert step0[1] == pytest.approx(math.exp(-1))

    def test_averaging_fixes_the_top_seminorm_of_e1(self, linear):
        # the sup sits at coordinate 1, which every averaging pass fixes,
        # so p_k stays exactly constant along the trajectory
        tr = power_iterate(basis_vector(1, 6), 4, w=linear, ks=(1, 2, 3))
        for k in (1, 2, 3):
            history = [dict(vals)[k] for _, vals in tr.seminorms]
            assert all(h == history[0] for h in history)

    def test_rejects_bad_m(self):
        with pytest.raises(PreconditionError):
            power_iterate(basis_vector(1, 3), 0)

    def test_complex_input(self):
        x = CoordinateVector([1 + 1j, 0.0, 0.0])
        tr = power_iterate(x, 1)
        assert tr.final().values[1] == pytest.approx((1 + 1j) / 2)


class TestCesaroMeans:
    def test_first_mean_is_first_iterate(self):
        tr = cesaro_means(basis_vector(1, 3), 1)
        assert list(tr.means[0][1]) == [1, F(1, 2), F(1, 3)]

    def test_second_mean_hand_value(self):
        # (Cx + C^2 x)/2 at coordinate 2: (1/2 + 3/4)/2 = 5/8
        tr = cesaro_means(basis_vector(1, 3), 2)
        assert tr.means[1][1][1] == F(5, 8)

    def test_distances_shrink_for_e1(self, linear):
        tr = cesaro_means(basis_vector(1, 8), 40, w=linear, ks=(1,))
        gaps = [dict(v)[1] for _, v in tr.distances]
        assert gaps[-1] < gaps[0]
        assert gaps[-1] < 0.05

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
        # 1e-12 from m = 29 on
        for m in range(1, DYNAMICS_STEP_CAP + 1):
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
            vectors=tuple(CoordinateVector(np.asarray(r)) for r in rows),
            seminorms=())
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
            vectors=tuple(CoordinateVector(np.array(r)) for r in rows),
            seminorms=())
        got = power_bound_check(linear, trace, K=3, M=2, mode="float")
        outcome, evidence, witness = reference_float_bound(
            WeightSystem(linear), trace, 3, 2)
        assert got.outcome == outcome == FAILS
        assert (witness["m"], witness["k"]) == (2, 2)
        assert got.witness == witness and got.evidence == evidence


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
        trace = power_iterate(x, 20, w=linear, ks=(1, 2))
        assert power_bound_check(linear, trace, K=4, M=20) \
            == power_bound_check(linear, x, K=4, M=20)

    @pytest.mark.parametrize("x", [
        basis_vector(1, 8),
        CoordinateVector(np.linspace(-1.0, 1.0, 12)),
    ])
    def test_cesaro_means_from_trace(self, linear, x):
        trace = power_iterate(x, 15, w=linear, ks=(1, 2))
        got = cesaro_means(trace, 10, w=linear, ks=(1, 2))
        want = cesaro_means(x, 10, w=linear, ks=(1, 2))
        assert got.means == want.means
        assert got.distances == want.distances
        assert got.limit_prediction == want.limit_prediction
        assert got.x0 is trace.x0

    def test_short_trace_rejected(self, linear):
        trace = power_iterate(basis_vector(1, 6), 3)
        for mode in ("rational", "float"):
            with pytest.raises(PreconditionError):
                power_bound_check(linear, trace, K=2, M=4, mode=mode)
        with pytest.raises(PreconditionError):
            cesaro_means(trace, 4)


class TestIterateLimit:
    def test_basis_vector_settles(self):
        v = iterate_limit_check(basis_vector(1, 30), tol=1e-6)
        assert v.outcome == HOLDS
        assert v.params["max_steps"] <= 60

    def test_skewed_vector_settles(self, rng):
        x = CoordinateVector(rng.uniform(-1, 1, size=25))
        assert iterate_limit_check(x, tol=1e-6).outcome == HOLDS

    def test_cap_too_small_fails_honestly(self):
        v = iterate_limit_check(basis_vector(1, 30), tol=1e-12, m_cap=2)
        assert v.outcome == FAILS
        assert v.witness["m_cap"] == 2


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
