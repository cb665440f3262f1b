"""Truncated matrices: averaging, involution, resolvent, and friends."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cesarospec import (
    CoordinateVector,
    PreconditionError,
    RepresentationError,
    a_matrix,
    b_apply,
    b_matrix,
    basis_vector,
    cesaro,
    cesaro_apply,
    cesaro_inverse_apply,
    delta,
    delta_eigenvector,
    differentiation_apply,
    identity,
    resolvent,
    resolvent_tail_logs,
    scaled_e_matrix,
)
import cesarospec.operators as operators_module
from cesarospec.operators import (
    STRUCTURES,
    TruncOperator,
    logbinom,
    max_entry_diff,
    ops_equal_exact,
)
from cesarospec.sequences import WeightSystem, parse_alpha

F = Fraction

rational_vectors = st.lists(
    st.fractions(min_value=F(-20), max_value=F(20), max_denominator=12),
    min_size=2, max_size=25,
)


@st.composite
def exact_vectors(draw):
    """(vector, its Fraction entries): mixed denominators, and a trustworthy
    prefix that may be shorter than the vector."""
    xs = draw(rational_vectors)
    return CoordinateVector(xs, draw(st.integers(0, len(xs)))), xs


def _assert_exact(vec, want, valid_len):
    """vec holds exactly the values want, each read as a Fraction."""
    assert list(vec.values) == want
    assert all(type(v) is F for v in vec.values)
    assert [vec[i] for i in range(len(vec))] == want
    assert vec.valid_len == valid_len


class TestCoordinateVector:
    def test_exact_promotion(self):
        v = CoordinateVector([1, F(1, 2)])
        assert v.exact
        assert v.values[0] == F(1)

    def test_float_stays_float(self):
        v = CoordinateVector([1.0, 0.5])
        assert not v.exact

    def test_non_rational_entry_takes_the_float_route(self):
        v = CoordinateVector([1, np.float32(0.5)])
        assert not v.exact
        assert v.values.dtype == np.float64
        assert list(v.values) == [1.0, 0.5]

    def test_prefix_tracks_validity(self):
        v = CoordinateVector([1.0, 2.0, 3.0], valid_len=2)
        assert v.prefix(1).valid_len == 1
        assert len(v.prefix(2)) == 2

    def test_basis_vector(self):
        e2 = basis_vector(2, 4)
        assert list(e2.values) == [0, 1, 0, 0]
        assert e2.exact
        with pytest.raises(ValueError):
            basis_vector(5, 4)

    def test_storage_follows_the_input(self):
        ints = CoordinateVector([1, 2, 3])
        assert ints.exact
        assert all(type(v) is F for v in ints.values)
        assert list(ints.values) == [1, 2, 3]

        from_int64 = CoordinateVector(np.arange(3, dtype=np.int64))
        assert from_int64.values.dtype == np.float64
        assert list(from_int64.values) == [0.0, 1.0, 2.0]

        mixed = CoordinateVector([1, F(1, 2), 0.25])
        assert mixed.values.dtype == np.float64
        assert list(mixed.values) == [1.0, 0.5, 0.25]

        fractions = np.array([F(1, 3), F(2)], dtype=object)
        kept = CoordinateVector(fractions)
        assert kept.exact
        assert list(kept.values) == [F(1, 3), F(2)]

        for dtype in (np.float64, np.complex128):
            src = np.array([1.5, -2.0], dtype=dtype)
            v = CoordinateVector(src)
            assert v.values.dtype == dtype
            assert not np.shares_memory(v.values, src)
            src[0] = 7.0
            assert v.values[0] == 1.5


class TestLogBinom:
    def test_matches_exact_binomials(self):
        for n in range(301):
            got = logbinom(n, np.arange(n + 1))
            for k in range(n + 1):
                want = math.log(math.comb(n, k))
                tol = max(1e-12 * abs(want), 4 * math.ulp(want))
                assert abs(got[k] - want) <= tol, (n, k)

    def test_outside_the_triangle_is_minus_inf(self):
        n = np.arange(-2, 8)[:, None]
        k = np.arange(-3, 10)[None, :]
        got = logbinom(n, k)
        outside = (k < 0) | (k > n)
        assert np.all(got[outside] == -np.inf)
        assert np.all(np.isfinite(got[~outside]))

    def test_float_integers_match_integer_input(self):
        idx = np.arange(40)
        assert (logbinom(idx[:, None].astype(float), idx.astype(float)).tobytes()
                == logbinom(idx[:, None], idx).tobytes())

    @pytest.mark.parametrize("bad", [2.5, np.nan, np.inf, 1j, [3.0, 0.5]])
    def test_non_integral_input_rejected(self, bad):
        with pytest.raises(ValueError):
            logbinom(bad, 1)
        with pytest.raises(ValueError):
            logbinom(10, bad)

    def test_table_is_cached_read_only_and_reused(self, monkeypatch):
        cache = {}
        monkeypatch.setattr(operators_module, "_log_factorial_cache", cache)
        logbinom(500, 3)
        (table,) = cache.values()
        assert len(table) == 501
        with pytest.raises(ValueError):
            table[0] = 1.0
        logbinom(np.arange(100), 7)
        assert next(iter(cache.values())) is table
        logbinom(600, 3)
        (grown,) = cache.values()
        assert len(grown) == 601
        assert grown[:501].tobytes() == table.tobytes()


class TestAveraging:
    def test_matrix_entries(self):
        c = cesaro(3)
        assert c.entry(1, 1) == 1
        assert c.entry(2, 1) == c.entry(2, 2) == F(1, 2)
        assert c.entry(3, 2) == F(1, 3)
        assert c.entry(1, 2) == 0

    def test_apply_is_running_mean(self):
        y = cesaro_apply(CoordinateVector([F(1), F(3), F(5)]))
        assert list(y.values) == [1, 2, 3]

    @given(xs=st.lists(st.floats(min_value=-100, max_value=100),
                       min_size=1, max_size=40))
    @settings(max_examples=60)
    def test_apply_matches_cumsum(self, xs):
        got = cesaro_apply(CoordinateVector(xs)).as_float()
        want = np.cumsum(xs) / np.arange(1, len(xs) + 1)
        assert np.allclose(got, want, atol=1e-12)

    @given(case=exact_vectors())
    @settings(max_examples=60)
    def test_inverse_undoes_mean_exactly(self, case):
        x, xs = case
        back = cesaro_inverse_apply(cesaro_apply(x))
        assert all(back.values[i] == x.values[i]
                   for i in range(back.valid_len))
        _assert_exact(back, xs, x.valid_len)
        # (C^{-1} x)(n) = n x_n - (n-1) x_{n-1}, in Fraction arithmetic
        want = [n * v - (n - 1) * u
                for n, v, u in zip(range(1, len(xs) + 1), xs, [F(0)] + xs)]
        _assert_exact(cesaro_inverse_apply(x), want, x.valid_len)

    def test_inverse_formula_oracle(self):
        # (C^{-1} y)(n) = n y_n - (n-1) y_{n-1}
        y = CoordinateVector([F(2), F(5), F(7)])
        x = cesaro_inverse_apply(y)
        assert list(x.values) == [2, 8, 11]

    def test_float_and_rational_agree(self):
        cf = cesaro(12, mode="float")
        cr = cesaro(12)
        assert max_entry_diff(cf, cr) == 0.0


class TestInvolution:
    def test_entries(self):
        d = delta(4)
        # alternating binomials: row 4 is 1, -3, 3, -1
        assert [d.entry(4, m) for m in range(1, 5)] == [1, -3, 3, -1]

    def test_self_inverse(self):
        assert ops_equal_exact(delta(12) @ delta(12), identity(12))

    def test_conjugation_diagonalizes_the_mean(self):
        n = 12
        d = delta(n)
        rows = [[F(1, i) if i == j else F(0) for j in range(1, n + 1)]
                for i in range(1, n + 1)]
        diag = TruncOperator("recip_diag", n, rows, "rational", "diagonal")
        assert ops_equal_exact(d @ diag @ d, cesaro(n))
        assert ops_equal_exact(d @ cesaro(n) @ d, diag)

    def test_float_mode_cap(self):
        with pytest.raises(RepresentationError):
            delta(200, mode="float")

    def test_logmag_matches_rational(self):
        d_log = delta(30, mode="logmag")
        d_rat = delta(30)
        scale = float(max(abs(v) for row in d_rat.dense() for v in row))
        assert max_entry_diff(d_log, d_rat) / scale <= 1e-12

    def test_logmag_apply_goes_through_float_entries(self):
        # signs that cancel the alternation: row n sums C(n-1, m-1) to 2^(n-1)
        x = [(-1.0) ** m for m in range(30)]
        got = delta(30, mode="logmag").apply(x).as_float()
        assert got == pytest.approx(2.0 ** np.arange(30), rel=1e-12)
        with pytest.raises(RepresentationError):
            delta(1100, mode="logmag").apply(np.ones(1100))

    def test_logmag_compose_refuses(self):
        with pytest.raises(RepresentationError):
            delta(8, mode="logmag") @ delta(8, mode="logmag")

    def test_mode_mixing_refuses(self):
        with pytest.raises(ValueError):
            delta(8) @ delta(8, mode="float")


class TestEigenvectors:
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_exact_eigen_relation(self, m):
        n = 40
        vec = delta_eigenvector(m, n)
        image = cesaro(n).apply(vec)
        assert all(image.values[i] * m == vec.values[i] for i in range(n))

    def test_first_is_alternating_ones(self):
        # column 2 of the involution: 0, -1, -2, -3... signs from binomials
        v = delta_eigenvector(2, 4)
        assert list(v.values) == [0, -1, -2, -3]

    def test_float_residual_small(self):
        n = 60
        for m in (2, 4, 7):
            x = delta_eigenvector(m, n).as_float()
            means = np.cumsum(x) / np.arange(1, n + 1)
            rel = np.max(np.abs(means - x / m)) / np.max(np.abs(x / m))
            assert rel <= 1e-10

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            delta_eigenvector(5, 4)


class TestDifferentiation:
    @given(case=exact_vectors())
    @settings(max_examples=40)
    def test_formula(self, case):
        y = differentiation_apply(CoordinateVector([F(3), F(5), F(9)]))
        assert list(y.values) == [5, 18]
        assert y.valid_len == 2
        x, xs = case
        _assert_exact(differentiation_apply(x),
                      [n * v for n, v in enumerate(xs[1:], start=1)],
                      max(0, x.valid_len - 1))

    def test_consumes_one_slot(self):
        y = differentiation_apply(CoordinateVector([1.0, 2.0, 3.0, 4.0]))
        assert len(y) == 3
        assert y.valid_len == 3

    def test_needs_two(self):
        with pytest.raises(ValueError):
            differentiation_apply(CoordinateVector([1.0]))


class TestResolvent:
    def test_two_by_two_oracle(self):
        r = resolvent(F(2), 2, mode="rational")
        assert r.entry(1, 1) == -1
        assert r.entry(1, 2) == 0
        assert r.entry(2, 1) == F(-1, 3)
        assert r.entry(2, 2) == F(-2, 3)

    def test_exact_two_sided_identity(self):
        n = 30
        lam = F(2)
        r = resolvent(lam, n, mode="rational")
        c = cesaro(n)
        shifted_rows = [
            [c.entry(i, j) - (lam if i == j else 0) for j in range(1, n + 1)]
            for i in range(1, n + 1)]
        shifted = TruncOperator("c_minus_lam", n, shifted_rows, "rational",
                                "lower")
        assert ops_equal_exact(shifted @ r, identity(n))
        assert ops_equal_exact(r @ shifted, identity(n))

    def test_float_identity(self):
        n = 40
        lam = 0.4 + 0.3j
        r = resolvent(lam, n).dense()
        cf = cesaro(n, mode="float").dense() - lam * np.eye(n)
        assert np.max(np.abs(r @ cf - np.eye(n))) <= 1e-12
        assert np.max(np.abs(cf @ r - np.eye(n))) <= 1e-12

    def test_pole_rejection(self):
        with pytest.raises(PreconditionError):
            resolvent(F(1, 3), 10, mode="rational")
        with pytest.raises(PreconditionError):
            resolvent(0.0, 10)
        with pytest.raises(PreconditionError):
            resolvent(1 / 7 + 1e-12, 10)
        with pytest.raises(ValueError, match="unknown mode"):
            resolvent(0.4, 5, mode="logmag")
        with pytest.raises(ValueError, match="int or Fraction"):
            resolvent(F(2, 5) + 0.3j, 12, mode="rational")

    def test_structure_diagonal_plus_tail(self):
        # diagonal entries are 1/(1/n - lambda); the strict lower tail is
        # P_{m-1} / (n P_n) scaled by -1/lambda^2 folded into the closed form
        lam = F(2)
        n = 6
        r = resolvent(lam, n, mode="rational")
        for i in range(1, n + 1):
            assert r.entry(i, i) == 1 / (F(1, i) - lam)
        p = [F(1)]
        for j in range(1, n + 1):
            p.append(p[-1] * (1 - 1 / (lam * j)))
        for i in range(1, n + 1):
            for j in range(1, i):
                e_ij = p[j - 1] / (i * p[i])
                assert r.entry(i, j) == -e_ij / lam ** 2 * F(1) \
                    or r.entry(i, j) == e_ij * F(-1) / lam ** 2

    def test_resolvent_identity_pair(self):
        # R(a) - R(b) = (a - b) R(a) R(b) for commuting resolvents
        n = 25
        ra = resolvent(2.0, n).dense()
        rb = resolvent(3.0, n).dense()
        lhs = ra - rb
        rhs = (2.0 - 3.0) * ra @ rb
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestTailLogs:
    def test_matches_direct_product(self):
        lam = 2.0
        n = 50
        L, logn = resolvent_tail_logs(lam, n)
        assert L[0] == 0.0
        direct = np.cumsum(
            [math.log(abs(1 - 1 / (lam * j))) for j in range(1, n + 1)])
        assert np.allclose(L[1:], direct, atol=1e-12)
        assert np.allclose(logn, np.log(np.arange(1, n + 1)), atol=1e-15)

    def test_tail_entry_recovery(self):
        # |e_nm| from the log representation equals the rational value
        lam = F(2)
        n = 8
        L, logn = resolvent_tail_logs(2.0, n)
        p = [F(1)]
        for j in range(1, n + 1):
            p.append(p[-1] * (1 - 1 / (lam * j)))
        for i in (3, 5, 8):
            for j in (1, 2):
                want = abs(float(p[j - 1] / (i * p[i])))
                got = math.exp(L[j - 1] - logn[i - 1] - L[i])
                assert got == pytest.approx(want, rel=1e-12)

    def test_complex_lambda(self):
        lam = 0.4 + 0.3j
        n = 30
        L, _ = resolvent_tail_logs(lam, n)
        direct = np.cumsum(
            [math.log(abs(1 - 1 / (lam * j))) for j in range(1, n + 1)])
        assert np.allclose(L[1:], direct, atol=1e-12)


class TestScaledTail:
    def test_logmag_cell_oracle(self):
        seq = parse_alpha("linear")
        w = WeightSystem(seq)
        lam = 2.0
        n = 10
        op = scaled_e_matrix(lam, 1, w, n)
        L, logn = resolvent_tail_logs(lam, n)
        # cell (5, 2): -alpha_5/1 + alpha_2/2 + log|e_52|
        want = -5.0 + 1.0 + (L[1] - logn[4] - L[5])
        assert op.log_abs()[4, 1] == pytest.approx(want, rel=1e-12)
        assert abs(op.entry(5, 2)) == pytest.approx(math.exp(want), rel=1e-12)

    def test_upper_triangle_is_void(self):
        op = scaled_e_matrix(2.0, 1, parse_alpha("linear"), 6)
        assert op.entry(2, 5) == 0.0
        assert op.log_abs()[1, 4] == -np.inf

    def test_float_mode_matches_logmag(self):
        seq = parse_alpha("linear")
        opl = scaled_e_matrix(2.0, 1, seq, 12)
        opf = scaled_e_matrix(2.0, 1, seq, 12, mode="float")
        assert max_entry_diff(opl, opf) <= 1e-10

    def test_signs_alternate_below_pole_scale(self):
        # for lambda = 0.4 the factors 1 - 1/(lambda n) are negative at n = 1
        # and 2 only, so the running product is negative after the first
        # factor alone; that sign lands on column 2 and nowhere else
        seq = parse_alpha("linear")
        data = scaled_e_matrix(0.4, 1, seq, 8, mode="float").dense()
        lower = np.tri(8, k=-1, dtype=bool)
        want = np.where(lower, 1.0, 0.0)
        want[2:, 1] = -1.0
        assert np.isfinite(data[lower]).all()
        assert np.array_equal(np.sign(data), want)
        logmag = scaled_e_matrix(0.4, 1, seq, 8).dense()
        assert np.array_equal(np.sign(logmag), np.sign(data))


class TestShiftedDifferencePair:
    def test_entries(self):
        a = a_matrix(3)
        assert a.entry(1, 1) == F(1, 2)
        assert a.entry(3, 3) == F(3, 4)
        assert a.entry(3, 1) == F(-1, 4)
        b = b_matrix(3)
        assert b.entry(1, 1) == F(2)
        assert b.entry(3, 1) == F(1)
        assert b.entry(3, 2) == F(1, 2)

    def test_mutually_inverse(self):
        assert ops_equal_exact(a_matrix(16) @ b_matrix(16), identity(16))
        assert ops_equal_exact(b_matrix(16) @ a_matrix(16), identity(16))

    @given(xs=rational_vectors)
    @settings(max_examples=40)
    def test_apply_roundtrip(self, xs):
        x = CoordinateVector(xs)
        y = a_matrix(len(xs)).apply(b_matrix(len(xs)).apply(x))
        assert all(y.values[i] == x.values[i] for i in range(y.valid_len))

    @pytest.mark.parametrize("n", [1, 2, 17, 511])
    @given(case=exact_vectors())
    @settings(max_examples=10, deadline=None)
    def test_b_apply_matches_dense(self, n, case):
        # u_n = (n+1)/n z_n + sum_{m<n} z_m/m, in Fraction arithmetic
        z, zs = case
        want = [F(m + 1, m) * v + sum(u / j for j, u in enumerate(zs[:m - 1],
                                                                start=1))
                for m, v in enumerate(zs, start=1)]
        _assert_exact(b_apply(z), want, z.valid_len)
        _assert_exact(b_matrix(len(zs)).apply(z), want, z.valid_len)
        rng = np.random.default_rng(n)
        b = b_matrix(n)
        zs = [F(int(p), int(q)) for p, q in zip(rng.integers(-50, 50, n),
                                                 rng.integers(1, 30, n))]
        dense, free = b.apply(CoordinateVector(zs)), b_apply(zs)
        assert [(type(v), v) for v in free.values] \
            == [(type(v), v) for v in dense.values]
        assert free.valid_len == dense.valid_len == n
        zf = rng.uniform(-1.0, 1.0, n)
        ref = b.apply(CoordinateVector(zf)).as_float()
        got = b_apply(zf).as_float()
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


# -- integer numerators against plain Fraction arithmetic ---------------------
#
# The reference below works on rows of Fraction entries, one gcd-reduced
# operation at a time.  Row n of an apply reads columns up to n ("lower",
# "diagonal" only n); a compose reads row n of the left factor up to column n
# when that factor is not "full", column m of the right one from row m on when
# the product is not "full", and skips zero factors.

_small = st.builds(F, st.integers(-30, 30), st.integers(1, 12))
_entry = st.one_of(st.just(F(0)), _small)


def _ref_apply(rows, structure, xs):
    out = []
    for n, row in enumerate(rows):
        lo = n if structure == "diagonal" else 0
        hi = n + 1 if structure in ("lower", "diagonal") else len(rows)
        acc = None
        for m in range(lo, hi):
            term = row[m] * xs[m]
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def _ref_compose(a, a_structure, b, structure):
    N = len(a)
    rows = []
    for n in range(N):
        hi = n + 1 if a_structure in ("lower", "diagonal") else N
        row = []
        for m in range(N):
            acc = None
            for k in range(m if structure != "full" else 0, hi):
                if a[n][k] == 0 or b[k][m] == 0:
                    continue
                term = a[n][k] * b[k][m]
                acc = term if acc is None else acc + term
            row.append(F(0) if acc is None else acc)
        rows.append(row)
    return rows


def _ref_floats(values):
    return np.array([float(v) for v in values])


def _product_structure(sa, sb):
    if sa == sb == "diagonal":
        return "diagonal"
    if sa != "full" and sb != "full":
        return "lower"
    return "full"


@st.composite
def _matrices(draw, N=None, structure=None):
    """(N, structure, rows): entries outside the structure are zero when
    shaped, arbitrary otherwise (the products must not read them)."""
    N = N or draw(st.integers(1, 12))
    structure = structure or draw(st.sampled_from(STRUCTURES))
    shaped = draw(st.booleans())
    rows = draw(st.lists(st.lists(_entry, min_size=N, max_size=N),
                         min_size=N, max_size=N))
    if shaped:
        for n, row in enumerate(rows):
            for m in range(N):
                if structure == "diagonal" and m != n or m > n \
                        and structure != "full":
                    row[m] = F(0)
    return N, structure, rows


@st.composite
def _vectors(draw, N):
    """A vector of length N..N+2: a Fraction list, or in shared form."""
    size = N + draw(st.integers(0, 2))
    if draw(st.booleans()):
        vals = draw(st.lists(_entry, min_size=size, max_size=size))
        return CoordinateVector(vals), vals
    re = draw(st.lists(st.integers(-50, 50), min_size=size, max_size=size))
    vec = CoordinateVector.over_denominator(re, draw(st.integers(1, 60)))
    return vec, list(vec.values)


def _assert_same_entries(got, want):
    assert [(type(v), v) for v in got] == [(type(v), v) for v in want]


def _assert_same_operator(op, rows):
    N = len(rows)
    _assert_same_entries(op.dense().ravel(), [v for r in rows for v in r])
    _assert_same_entries([op.entry(n, m) for n in range(1, N + 1)
                          for m in range(1, N + 1)],
                         [v for r in rows for v in r])
    want = np.array([_ref_floats([v for r in rows for v in r])]).reshape(N, N)
    got = op.as_float_entries()
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    with np.errstate(divide="ignore"):
        want_log = np.log(np.abs(np.array(
            [[abs(float(v)) for v in r] for r in rows])))
    assert op.log_abs().tobytes() == want_log.tobytes()


class TestIntegerNumerators:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_apply_matches_fraction_arithmetic(self, data):
        N, structure, rows = data.draw(_matrices())
        op = TruncOperator("m", N, rows, "rational", structure)
        _assert_same_operator(op, rows)
        x, xs = data.draw(_vectors(N))
        got = op.apply(x)
        want = _ref_apply(rows, structure, xs)
        _assert_same_entries(got.values, want)
        assert got.valid_len == N
        expected = _ref_floats(want)
        assert got.as_float().dtype == expected.dtype
        assert got.as_float().tobytes() == expected.tobytes()

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_compose_matches_fraction_arithmetic(self, data):
        N, sa, a = data.draw(_matrices())
        _, sb, b = data.draw(_matrices(N=N))
        prod = TruncOperator("a", N, a, "rational", sa).compose(
            TruncOperator("b", N, b, "rational", sb))
        structure = _product_structure(sa, sb)
        assert prod.structure == structure
        want = _ref_compose(a, sa, b, structure)
        _assert_same_operator(prod, want)
        rebuilt = TruncOperator("w", N, want, "rational", structure)
        assert ops_equal_exact(prod, rebuilt)
        assert ops_equal_exact(rebuilt, prod)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_exact_equality_matches_fraction_comparison(self, data):
        N, structure, a = data.draw(_matrices())
        b = [list(r) for r in a]
        n, m = data.draw(st.integers(0, N - 1)), data.draw(st.integers(0, N - 1))
        b[n][m] = data.draw(st.one_of(_entry, st.just(b[n][m])))
        if data.draw(st.booleans()):
            # the same values over a different denominator
            b = [[v * 7 / 7 for v in r] for r in b]
        want = all(va == vb for ra, rb in zip(a, b) for va, vb in zip(ra, rb))
        opa = TruncOperator("a", N, a, "rational", structure)
        opb = TruncOperator("b", N, b, "rational", structure)
        assert ops_equal_exact(opa, opb) is want
        assert ops_equal_exact(opb, opa) is want

    def test_float_entries_are_rejected(self):
        # 0.1 is 3602879701896397 / 2**55 in binary, not 1/10
        with pytest.raises(ValueError, match="float"):
            TruncOperator("m", 1, [[0.1]], "rational")

    def test_closed_forms_match_their_entries(self):
        N = 9
        forms = {
            "cesaro": (cesaro(N), lambda n, m: F(1, n) if m <= n else F(0)),
            "identity": (identity(N), lambda n, m: F(int(n == m))),
            "delta": (delta(N), lambda n, m: F((-1) ** (m - 1)
                                               * math.comb(n - 1, m - 1))),
            "a_matrix": (a_matrix(N), lambda n, m: F(n, n + 1) if m == n
                         else F(-1, n + 1) if m < n else F(0)),
            "b_matrix": (b_matrix(N), lambda n, m: F(n + 1, n) if m == n
                         else F(1, m) if m < n else F(0)),
        }
        for name, (op, cell) in forms.items():
            rows = [[cell(n, m) for m in range(1, N + 1)]
                    for n in range(1, N + 1)]
            _assert_same_operator(op, rows)
            assert ops_equal_exact(
                op, TruncOperator(name, N, rows, "rational", op.structure))
