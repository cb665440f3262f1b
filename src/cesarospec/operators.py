"""Truncated operator matrices on the weighted sequence space.

The averaging operator sends x to its running means, (1/n)(x_1 + ... + x_n).
Everything else here is built around it: the alternating-binomial involution
that diagonalizes it, its inverse recurrence, the resolvent at points off the
reciprocal-integer set, the weight-scaled tail of the resolvent, and the
exact inverse pair used by the ergodic decomposition.

All matrices are N x N truncations.  Two arithmetic modes are supported:

* "rational": exact real entries held as integer numerators over one
  shared denominator, so products need no gcd; Fraction values are built
  only when an entry is read,
* "float": float64 / complex128.

Entries beyond float range (large binomials, scaled resolvent tails) are
read in log scale from plain arrays: logbinom, resolvent_tail_logs and
_scaled_tail_parts.

Every matrix here is lower triangular, so output n reads only inputs
1..n: an N x N truncation gives the first N outputs of the untruncated
operator exactly, and a truncated vector is exact on its whole length.  A
map that reads ahead consumes coordinates and returns a shorter vector:
differentiation_apply, output n = n x_{n+1}, returns one fewer.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError, RepresentationError
from .exact import common_denominator
from .sequences import AlphaSequence, WeightSystem

MODES = ("rational", "float")

# Points closer than this to a reciprocal integer (or to zero) are treated as
# sitting on the pole set when building resolvents in float mode.
TOL_SIGMA = 1e-9

# log(i!) for 0 <= i < len, grown to the largest n asked for so far.
_log_factorial_cache: dict[int, np.ndarray] = {}


def _log_factorials(n_max: int) -> np.ndarray:
    """Read-only table whose entry i is log(i!), for i up to at least n_max."""
    table = next(iter(_log_factorial_cache.values()), None)
    if table is None or len(table) <= n_max:
        table = np.array([math.lgamma(i + 1.0) for i in range(n_max + 1)])
        table.setflags(write=False)
        _log_factorial_cache.clear()
        _log_factorial_cache[n_max + 1] = table
    return table


def _as_integers(x) -> np.ndarray:
    a = np.asarray(x)
    if a.dtype.kind in "iu" or (a.dtype.kind == "f" and np.all(np.isfinite(a))
                                and np.all(a == np.floor(a))):
        return a.astype(np.int64)
    raise ValueError("logbinom needs integer arguments")


def logbinom(n, k) -> np.ndarray:
    """log binom(n, k) for integer n and k, vectorized; -inf outside 0 <= k <= n.

    n and k may be integer arrays or float arrays holding integers; any other
    value raises ValueError.  Each entry is log(n!) - log(k!) - log((n-k)!)
    read from one cached log-factorial table.
    """
    n = _as_integers(n)
    k = _as_integers(k)
    inside = (k >= 0) & (k <= n)
    n = np.where(inside, n, 0)
    k = np.where(inside, k, 0)
    lf = _log_factorials(int(n.max(initial=0)))
    return np.where(inside, lf[n] - lf[k] - lf[n - k], -np.inf)


class CoordinateVector:
    """A finite coordinate block, exact on its whole length.

    A float vector holds a float64 or complex128 array.  An exact vector
    holds integer numerators re over one positive integer den, entry n being
    re[n] / den: a list of int and Fraction entries is converted once, by
    common_denominator, and over_denominator builds the form directly.  The
    exact running means and rational matrix applies return it, so they need
    no gcd.  Its Fraction values are built only when .values is read; a
    single entry, as_float and prefix read the numerators directly.
    Indexing is 0-based.
    """

    def __init__(self, values):
        self._values = self._shared = None
        if isinstance(values, np.ndarray) and values.dtype.kind in "fc":
            self._values = np.array(values)
        else:
            vals = list(values)
            types = set(map(type, vals))
            if any(issubclass(t, (int, Fraction)) for t in types) and all(
                    issubclass(t, numbers.Rational) for t in types):
                self._shared = common_denominator(vals)
            else:
                arr = np.asarray(vals)
                self._values = arr if arr.dtype.kind in "fc" \
                    else arr.astype(float)

    @classmethod
    def over_denominator(cls, re: list, den: int) -> "CoordinateVector":
        """The exact vector re[n] / den, for integers re and den > 0."""
        vec = cls.__new__(cls)
        vec._values = None
        vec._shared = (re, den)
        return vec

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            re, den = self._shared
            arr = np.empty(len(re), dtype=object)
            arr[:] = [Fraction(p, den) for p in re]
            self._values = arr
        return self._values

    def shared(self) -> tuple:
        """(re, den) of an exact vector: integer numerators over one
        positive denominator."""
        return self._shared

    @property
    def exact(self) -> bool:
        return self._shared is not None

    def __len__(self) -> int:
        if self._shared is not None:
            return len(self._shared[0])
        return len(self._values)

    def __getitem__(self, i):
        if self._values is None and isinstance(i, (int, np.integer)):
            re, den = self._shared
            return Fraction(re[i], den)
        return self.values[i]

    def as_float(self) -> np.ndarray:
        if self._shared is None:
            return np.asarray(self._values)
        # int / int is correctly rounded, so each entry equals
        # float(Fraction(p, den)) bit for bit
        re, den = self._shared
        return np.array([p / den for p in re])

    def prefix(self, n: int) -> "CoordinateVector":
        if self._shared is None:
            return CoordinateVector(self._values[:n])
        re, den = self._shared
        return CoordinateVector.over_denominator(re[:n], den)

    def __repr__(self) -> str:
        return f"CoordinateVector(len={len(self)})"


def as_vector(x) -> CoordinateVector:
    return x if isinstance(x, CoordinateVector) else CoordinateVector(x)


def basis_vector(j: int, N: int) -> CoordinateVector:
    """The exact j-th unit coordinate vector (1-based) of length N."""
    if not 1 <= j <= N:
        raise ValueError("basis index out of range")
    vals = [Fraction(0)] * N
    vals[j - 1] = Fraction(1)
    return CoordinateVector(vals)


class _Numerators(NamedTuple):
    """An exact N x N matrix as integer numerators over one denominator.

    re is an N x N object array of Python ints and den > 0, so entry (n, m)
    is re[n, m] / den.
    """

    re: np.ndarray
    den: int


def _numerators_of(rows, N: int) -> _Numerators:
    """Rows of int or Fraction entries over their least common denominator."""
    rows = [list(r) for r in rows]
    if len(rows) != N or any(len(r) != N for r in rows):
        raise ValueError("entries must be N x N")
    re, den = common_denominator([v for r in rows for v in r])
    return _Numerators(np.array(re, dtype=object).reshape(N, N), den)


class TruncOperator:
    """An N x N matrix truncation in one of the MODES.

    Rational entries are held as integer numerators over one positive
    denominator (_Numerators): products are integer dot products with no
    gcd, and Fraction entries are built only when read.  entries may be
    rows of int and Fraction entries, converted once, or _Numerators.
    """

    def __init__(self, name: str, N: int, entries, mode: str):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.name = name
        self.N = int(N)
        self.mode = mode
        if mode == "float":
            self._data = np.asarray(entries)
            if self._data.shape != (N, N):
                raise ValueError("entries must be N x N")
        else:
            if not isinstance(entries, _Numerators):
                entries = _numerators_of(entries, self.N)
            if entries.re.shape != (N, N):
                raise ValueError("entries must be N x N")
            self._num = entries

    # -- access -----------------------------------------------------------

    def entry(self, n: int, m: int):
        """Entry at row n, column m, 1-based (matching coordinate numbering)."""
        if not (1 <= n <= self.N and 1 <= m <= self.N):
            raise IndexError("entry index out of range")
        if self.mode == "float":
            return self._data[n - 1, m - 1]
        re, den = self._num
        return Fraction(re[n - 1, m - 1], den)

    def dense(self) -> np.ndarray:
        """Materialize as a numpy array (object-dtype in rational mode)."""
        if self.mode == "float":
            return self._data.copy()
        re, den = self._num
        return np.array([Fraction(p, den) for p in re.ravel().tolist()],
                        dtype=object).reshape(self.N, self.N)

    def log_abs(self) -> np.ndarray:
        """log|entries| as a float array (exact entries via float conversion)."""
        with np.errstate(divide="ignore"):
            return np.log(np.abs(self.as_float_entries()))

    # -- algebra ----------------------------------------------------------

    def apply(self, x) -> CoordinateVector:
        """Matrix-vector product with the first N coordinates of x."""
        x = as_vector(x)
        if len(x) < self.N:
            raise ValueError(f"vector of length {len(x)} too short for N={self.N}")
        if self.mode == "rational" and x.exact:
            re, den = self._num
            xre, xden = x.prefix(self.N).shared()
            out = re @ np.array(xre, dtype=object)
            return CoordinateVector.over_denominator(out.tolist(), den * xden)
        xf = x.prefix(self.N).as_float()
        data = self._data if self.mode == "float" else self.as_float_entries()
        return CoordinateVector(data @ xf)

    def as_float_entries(self) -> np.ndarray:
        """Entries as floats; each rational entry p/den is correctly rounded,
        as float(Fraction) is."""
        if self.mode == "float":
            return self.dense()
        re, den = self._num
        return (re / den).astype(float)

    def compose(self, other: "TruncOperator") -> "TruncOperator":
        """Truncated product self @ other.  For lower-triangular factors it
        is the N x N truncation of the untruncated product."""
        if self.N != other.N:
            raise ValueError("size mismatch")
        if self.mode != other.mode:
            raise ValueError("mode mismatch; convert explicitly first")
        name = f"{self.name}*{other.name}"
        if self.mode == "float":
            return TruncOperator(name, self.N, self._data @ other._data,
                                 "float")
        a, b = self._num, other._num
        product = _Numerators(a.re @ b.re, a.den * b.den)
        return TruncOperator(name, self.N, product, "rational")

    def __matmul__(self, other):
        if isinstance(other, TruncOperator):
            return self.compose(other)
        return self.apply(other)

    def __repr__(self) -> str:
        return f"TruncOperator({self.name!r}, N={self.N}, mode={self.mode})"


def identity(N: int) -> TruncOperator:
    """The exact N x N identity."""
    return TruncOperator("identity", N, _Numerators(np.eye(N, dtype=object), 1),
                         "rational")


def cesaro(N: int, mode: str = "rational") -> TruncOperator:
    """The running-mean matrix: 1/n on row n up to the diagonal.

    Rational mode holds row n as lcm(1..N)/n over lcm(1..N).
    """
    if mode == "float":
        data = np.tril(np.ones((N, N)) / np.arange(1, N + 1)[:, None])
        return TruncOperator("cesaro", N, data, "float")
    if mode != "rational":
        raise ValueError(f"unknown mode {mode!r}")
    L, mult = _mean_multipliers(N)
    re = np.zeros((N, N), dtype=object)
    for n in range(N):
        re[n, :n + 1] = mult[n]
    return TruncOperator("cesaro", N, _Numerators(re, L), "rational")


@lru_cache(maxsize=8)
def _mean_multipliers(N: int) -> tuple:
    """(L, (L/1, ..., L/N)) with L = lcm(1..N)."""
    L = math.lcm(*range(1, N + 1))
    return L, tuple(L // n for n in range(1, N + 1))


def cesaro_apply(x) -> CoordinateVector:
    """Running means of x, without materializing the matrix.

    An exact x = p / D comes back in shared-denominator form: entry n is
    (p_1 + ... + p_n) (L/n) / (D L) with L = lcm(1..N), one integer prefix
    sum and one multiplication per entry, with no gcd.
    """
    x = as_vector(x)
    if x.exact:
        re, den = x.shared()
        L, mult = _mean_multipliers(len(x))
        return CoordinateVector.over_denominator(
            list(map(mul, accumulate(re), mult)), den * L)
    return CoordinateVector(_prefix_means(np.asarray(x.values)))


def _prefix_means(v: np.ndarray) -> np.ndarray:
    """(v_1 + ... + v_n) / n for every n, for real or complex floats.

    Each mean lies within max|v|, but a prefix sum need not: where
    max|v| * len(v) could pass 2**1000 the sums run on v scaled down by a
    power of two, which is exact save for entries it takes below 2**-1022.
    """
    ns = np.arange(1, len(v) + 1)
    scale = _overflow_scale(float(np.max(np.abs(v), initial=0.0)), len(v))
    if scale == 1.0:
        return np.cumsum(v) / ns
    return np.cumsum(v / scale) / ns * scale


def _overflow_scale(peak: float, count: int) -> float:
    """1.0 where count terms of modulus at most peak sum below 2**1000, else
    the power of two that takes every such sum below it.  A NaN peak
    gets 1.0: no scale makes its sums finite."""
    if not peak * count >= 2.0 ** 1000:
        return 1.0
    return 2.0 ** (math.frexp(peak)[1] + count.bit_length() - 1000)


def cesaro_inverse_apply(y) -> CoordinateVector:
    """Inverse of the running-mean map: x_n = n y_n - (n-1) y_{n-1}.

    An exact y = p / D gives x over the same D, with numerators
    n p_n - (n-1) p_{n-1}.
    """
    y = as_vector(y)
    if y.exact:
        re, den = y.shared()
        out = [n * p - (n - 1) * q
               for n, p, q in zip(range(1, len(re) + 1), re, [0] + re[:-1])]
        return CoordinateVector.over_denominator(out, den)
    vals = np.asarray(y.values)
    ns = np.arange(1, len(vals) + 1)
    shifted = np.concatenate([[0.0], vals[:-1]])
    return CoordinateVector(ns * vals - (ns - 1) * shifted)


def b_apply(z) -> CoordinateVector:
    """The map of b_matrix, without materializing it:
    u_n = (n+1)/n z_n + sum_{m<n} z_m/m, as a running sum.

    An exact z = p / D comes back over D L with L = lcm(1..N): numerator n
    is (n+1) (L/n) p_n plus the running sum of (L/m) p_m for m < n.
    """
    z = as_vector(z)
    if z.exact:
        re, den = z.shared()
        L, mult = _mean_multipliers(len(re))
        out, acc = [], 0
        for n, t in enumerate(map(mul, mult, re), start=1):
            out.append(acc + (n + 1) * t)
            acc += t
        return CoordinateVector.over_denominator(out, den * L)
    vals = np.asarray(z.values)
    ns = np.arange(1, len(vals) + 1)
    scaled = vals / ns
    prior = np.zeros_like(scaled)
    np.cumsum(scaled[:-1], out=prior[1:])
    return CoordinateVector((ns + 1) / ns * vals + prior)


def differentiation_apply(x) -> CoordinateVector:
    """The basis-shift derivative: output_n = n * x_{n+1}.

    Output n reads x_{n+1}, so the last coordinate is consumed and the
    result is one shorter than x.
    """
    x = as_vector(x)
    if len(x) < 2:
        raise ValueError("need at least two coordinates")
    if x.exact:
        re, den = x.shared()
        return CoordinateVector.over_denominator(
            [n * p for n, p in enumerate(re[1:], start=1)], den)
    vals = np.asarray(x.values)
    return CoordinateVector(np.arange(1, len(vals)) * vals[1:])


def delta(N: int) -> TruncOperator:
    """The exact alternating-binomial involution: entry (n, m) is
    (-1)^(m-1) C(n-1, m-1).

    Composing it with itself gives the identity at every truncation size, and
    conjugating the running-mean matrix by it produces the diagonal of
    reciprocals 1/n.  Its entries outgrow float range; read them in log
    scale from logbinom.
    """
    re = np.zeros((N, N), dtype=object)
    for n in range(N):
        re[n, :n + 1] = [(-1) ** m * math.comb(n, m) for m in range(n + 1)]
    return TruncOperator("delta", N, _Numerators(re, 1), "rational")


def delta_eigenvector(m: int, N: int) -> CoordinateVector:
    """The m-th column of the involution: an exact eigenvector candidate.

    The running-mean matrix sends it to 1/m times itself at every truncation
    size at least m.
    """
    if not 1 <= m <= N:
        raise ValueError("need 1 <= m <= N")
    sign = (-1) ** (m - 1)
    return CoordinateVector.over_denominator(
        [sign * math.comb(n - 1, m - 1) for n in range(1, N + 1)], 1)


def _reciprocal_distance(z: complex, N: float) -> float:
    """Distance from z to the nearest 1/m with 1 <= m <= N.

    |z - 1/m| grows with |Re z - 1/m|, and 1/m falls in m, so the nearest m
    is the floor or the ceiling of 1/Re z clamped to [1, N], and N itself
    when Re z <= 0.
    """
    t = min(1.0 / z.real, N) if z.real > 0 else N
    ms = np.array([max(1, math.floor(t)), math.ceil(t)], dtype=float)
    return float(np.abs(z - 1.0 / ms).min())


def _check_not_pole(lam, N: int) -> None:
    if isinstance(lam, Fraction):
        if lam == 0:
            raise PreconditionError("resolvent undefined at 0")
        if lam.numerator == 1 and lam.denominator <= N:
            raise PreconditionError(
                f"{lam} is a reciprocal integer within the truncation"
            )
        return
    lam_f = complex(lam)
    if not math.isfinite(math.hypot(lam_f.real, lam_f.imag)):
        raise PreconditionError(f"lambda={lam_f} has no finite modulus")
    if min(abs(lam_f), _reciprocal_distance(lam_f, N)) < TOL_SIGMA:
        raise PreconditionError(f"lambda={lam_f} is within {TOL_SIGMA} of "
                                "the reciprocal-integer set")


def _resolvent_scalars(lam, N: int):
    """Exact diagonal d_n and prefix products P_n = prod_{j<=n} (1 - 1/(lambda j)).

    The resolvent of the running-mean matrix at lambda is diagonal-plus-tail:
    entry (n, n) is 1/(1/n - lambda) and entry (n, m) for m < n is
    -(1/lambda^2) * P_{m-1} / (n P_n).
    """
    one = Fraction(1)
    d = []
    P = [one]
    for n in range(1, N + 1):
        d.append(1 / (one / n - lam))
        P.append(P[-1] * (one - one / (lam * n)))
    return d, P


def resolvent(lam, N: int, mode: str = "float") -> TruncOperator:
    """Inverse of (averaging matrix minus lambda), at a non-pole lambda.

    Rational mode takes int or Fraction lambda and produces exact entries;
    complex points are decided in float and log scale.  Float mode takes
    any complex lambda at distance TOL_SIGMA from the pole set {0} union
    {1/m : m <= N}.  Any other mode is rejected; the log-scale tail lives
    in resolvent_tail_logs.
    """
    if mode == "rational":
        if not isinstance(lam, (int, Fraction)):
            raise ValueError("rational mode needs an int or Fraction lambda")
        lam = Fraction(lam)
        _check_not_pole(lam, N)
        d, P = _resolvent_scalars(lam, N)
        rows = []
        for n in range(1, N + 1):
            # -P_{m-1} / (lambda^2 n P_n) below the diagonal, d_n on it
            scale = -1 / (lam * lam * n * P[n])
            rows.append([P[m] * scale for m in range(n - 1)]
                        + [d[n - 1]] + [0] * (N - n))
        return TruncOperator(f"resolvent(lambda={lam})", N, rows, "rational")

    lam_f = complex(lam)
    _check_not_pole(lam_f, N)
    if mode == "float":
        ns = np.arange(1, N + 1, dtype=float)
        # past |lambda| = 1e150 lambda^2 may overflow, and 1/n - lambda is
        # -lambda to rounding; the guarded forms round apart from the direct
        # ones, so they are formed only there
        huge = abs(lam_f) >= 1e150
        d = -1.0 / lam_f if huge else 1.0 / (1.0 / ns - lam_f)
        inv_l2 = (1.0 / lam_f)**2 if huge else 1.0 / lam_f**2
        data = -inv_l2 * _tail_entries(lam_f, N)
        data[~np.tri(N, k=-1, dtype=bool)] = 0.0
        np.fill_diagonal(data, d)
        if lam_f.imag == 0:
            data = data.real
        return TruncOperator(f"resolvent(lambda={lam_f})", N, data, "float")
    raise ValueError(f"unknown mode {mode!r}")


def _reciprocal_steps(lam_f: complex, ns: np.ndarray) -> np.ndarray:
    """1 / (lambda n) for ns = 1..N.  The product lambda n is formed first,
    as the reports read it (the other order rounds apart at most entries of
    a complex lambda), unless it could overflow to inf+inf*j, whose
    reciprocal is nan; past |lambda| N = 1e300 every quotient is below
    N * 1e-300 in modulus, so 1 minus it has modulus 1 to rounding."""
    if abs(lam_f) * len(ns) < 1e300:
        return 1.0 / (lam_f * ns)
    return (1.0 / lam_f) / ns


def _tail_entries(lam_f: complex, N: int) -> np.ndarray:
    """e_nm = P_{m-1} / (n P_n) at array index [n-1, m-1], in complex floats.

    Only the strict lower triangle is a resolvent entry; callers overwrite
    or mask the rest.
    """
    ns = np.arange(1, N + 1, dtype=float)
    factors = 1.0 - _reciprocal_steps(lam_f, ns)
    P = np.concatenate([[1.0 + 0j], np.cumprod(factors)])
    return P[None, :N] / (ns[:, None] * P[1:][:, None])


def resolvent_tail_logs(lam, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Streaming form of the resolvent tail: log|P| prefix sums.

    Returns (L, logn) with L[j] = sum_{i<=j} log|1 - 1/(lambda i)| for
    j = 0..N, so log|e_nm| = L[m-1] - log(n) - L[n].  This avoids an N x N
    array for the spectral checks, which only need row sums and sampled
    columns.
    """
    lam_f = complex(lam)
    _check_not_pole(lam_f, N)
    ns = np.arange(1, N + 1, dtype=float)
    with np.errstate(divide="ignore"):
        logs_f = np.log(np.abs(1.0 - _reciprocal_steps(lam_f, ns)))
    L = np.concatenate([[0.0], np.cumsum(logs_f)])
    return L, np.log(ns)


def _scaled_tail_parts(seq: AlphaSequence, k: int, tails: tuple):
    """Log-scale row/column factors of the scaled resolvent tail matrix.

    Entry (n, m), m < n, factors as row_part[n] + col_part[m] with
    row_part[n] = -alpha_n/k - log n - L_n and
    col_part[m] = alpha_m/(k+1) + L_{m-1}; (L, log n) = tails is
    resolvent_tail_logs(lam, N), the prefix log-product of the resolvent's
    diagonal corrections, which does not depend on k.
    """
    L, logn = tails
    alpha = seq.values_saturated(len(logn))
    row_part = -alpha / k - logn - L[1:]
    col_part = alpha / (k + 1) + L[:-1]
    return row_part, col_part


def scaled_e_matrix(lam, k: int, w, N: int) -> TruncOperator:
    """The weight-scaled resolvent tail: entry (n, m) is w_k(n)/w_{k+1}(m) e_nm.

    This is the part of the resolvent whose continuity on the space is at
    stake.  Its entries routinely overflow float range, and then this float
    operator is refused; _scaled_tail_parts holds the same matrix in log
    scale at any size.  w may be a WeightSystem or an AlphaSequence.
    """
    seq = w.alpha if isinstance(w, WeightSystem) else w
    if k < 1:
        raise ValueError("k must be >= 1")
    lam_f = complex(lam)
    row_part, col_part = _scaled_tail_parts(seq, k,
                                            resolvent_tail_logs(lam_f, N))
    mask = np.tri(N, k=-1, dtype=bool)
    if np.any((row_part[:, None] + col_part[None, :])[mask] > 700.0):
        raise RepresentationError(
            "scaled tail overflows float range; read it in log scale"
        )
    alpha = seq.values_saturated(N)
    data = (np.exp(-alpha / k)[:, None] * np.exp(alpha / (k + 1))[None, :]
            * _tail_entries(lam_f, N))
    data = np.where(mask, data, 0.0)
    if lam_f.imag == 0:
        data = data.real
    return TruncOperator(f"scaled_e(lambda={lam},k={k})", N, data, "float")


def a_matrix(N: int) -> TruncOperator:
    """Shifted form of (identity minus averaging): n/(n+1) on the diagonal,
    -1/(n+1) strictly below."""
    L, mult = _mean_multipliers(N + 1)
    re = np.zeros((N, N), dtype=object)
    for n in range(1, N + 1):
        re[n - 1, :n - 1] = -mult[n]
        re[n - 1, n - 1] = n * mult[n]
    return TruncOperator("a_matrix", N, _Numerators(re, L), "rational")


def b_matrix(N: int) -> TruncOperator:
    """Exact inverse of a_matrix at every truncation size: (n+1)/n on the
    diagonal, 1/m strictly below."""
    L, mult = _mean_multipliers(N)
    re = np.zeros((N, N), dtype=object)
    for n in range(1, N + 1):
        re[n - 1, :n - 1] = mult[:n - 1]
        re[n - 1, n - 1] = (n + 1) * mult[n - 1]
    return TruncOperator("b_matrix", N, _Numerators(re, L), "rational")


def ops_equal_exact(a: TruncOperator, b: TruncOperator) -> bool:
    """Exact entrywise equality for rational-mode operators, by
    cross-multiplying the numerators."""
    if a.mode != "rational" or b.mode != "rational" or a.N != b.N:
        raise ValueError("exact comparison needs two rational operators of equal size")
    na, nb = a._num, b._num
    return np.array_equal(na.re * nb.den, nb.re * na.den)
