"""Truncated operator matrices on the weighted sequence space.

The averaging operator sends x to its running means, (1/n)(x_1 + ... + x_n).
Everything else here is built around it: the alternating-binomial involution
that diagonalizes it, its inverse recurrence, the resolvent at points off the
reciprocal-integer set, the weight-scaled tail of the resolvent, and the
exact inverse pair used by the ergodic decomposition.

All matrices are N x N truncations.  Three arithmetic modes are supported:

* "rational": exact real entries held as integer numerators over one
  shared denominator, so products need no gcd; Fraction values are built
  only when an entry is read,
* "float": float64 / complex128,
* "logmag": sign plus log-magnitude arrays for real-valued matrices whose
  entries overflow float range (binomials, scaled resolvent tails).

Truncation honesty is tracked rather than hidden: a CoordinateVector carries
the length of its trustworthy prefix.  Matrix applications keep it, and
differentiation_apply, which consumes a trailing coordinate, shrinks it.
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

MODES = ("rational", "float", "logmag")
STRUCTURES = ("diagonal", "lower", "full")

# Points closer than this to a reciprocal integer (or to zero) are treated as
# sitting on the pole set when building resolvents in float mode.
TOL_SIGMA = 1e-9

# Alternating binomial entries stay exactly representable in float64 only for
# small sizes; beyond this the float mode refuses rather than silently round.
_DELTA_FLOAT_LIMIT = 60

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
    """A finite coordinate block with a trustworthy-prefix marker.

    A float vector holds a float64 or complex128 array.  An exact vector
    holds integer numerators re over one positive integer den, entry n being
    re[n] / den: a list of int and Fraction entries is converted once, by
    common_denominator, and over_denominator builds the form directly.  The
    exact running means and rational matrix applies return it, so they need
    no gcd.  Its Fraction values are built only when .values is read; a
    single entry, as_float and prefix read the numerators directly.
    valid_len says how many leading coordinates are meaningful (truncated
    operator applications can consume trailing ones).  Indexing is 0-based.
    """

    def __init__(self, values, valid_len: int | None = None):
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
        self._set_valid_len(valid_len)

    @classmethod
    def over_denominator(cls, re: list, den: int,
                         valid_len: int | None = None) -> "CoordinateVector":
        """The exact vector re[n] / den, for integers re and den > 0."""
        vec = cls.__new__(cls)
        vec._values = None
        vec._shared = (re, den)
        vec._set_valid_len(valid_len)
        return vec

    def _set_valid_len(self, valid_len) -> None:
        self.valid_len = len(self) if valid_len is None else int(valid_len)
        if not 0 <= self.valid_len <= len(self):
            raise ValueError("valid_len out of range")

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
        valid = min(self.valid_len, n)
        if self._shared is None:
            return CoordinateVector(self._values[:n], valid)
        re, den = self._shared
        return CoordinateVector.over_denominator(re[:n], den, valid)

    def __repr__(self) -> str:
        return f"CoordinateVector(len={len(self)}, valid={self.valid_len})"


def as_vector(x) -> CoordinateVector:
    return x if isinstance(x, CoordinateVector) else CoordinateVector(x)


def basis_vector(j: int, N: int, exact: bool = True) -> CoordinateVector:
    """The j-th unit coordinate vector (1-based) of length N."""
    if not 1 <= j <= N:
        raise ValueError("basis index out of range")
    if exact:
        vals = [Fraction(0)] * N
        vals[j - 1] = Fraction(1)
    else:
        vals = [0.0] * N
        vals[j - 1] = 1.0
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


def _within(a, keep):
    """a with the entries outside the boolean pattern keep set to 0."""
    return a if keep is None else np.where(keep, a, 0)


class TruncOperator:
    """An N x N matrix truncation with mode and structure.

    Rational entries are held as integer numerators over one positive
    denominator (_Numerators): products are integer dot products with no
    gcd, and Fraction entries are built only when read.  entries may be
    rows of int and Fraction entries, converted once, or _Numerators.
    """

    def __init__(self, name: str, N: int, entries, mode: str,
                 structure: str = "full"):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if structure not in STRUCTURES:
            raise ValueError(f"unknown structure {structure!r}")
        self.name = name
        self.N = int(N)
        self.mode = mode
        self.structure = structure
        if mode == "logmag":
            sign, logs = entries
            self._sign = np.asarray(sign, dtype=float)
            self._log = np.asarray(logs, dtype=float)
            if self._sign.shape != (N, N) or self._log.shape != (N, N):
                raise ValueError("logmag entries must be two N x N arrays")
        elif mode == "float":
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
        if self.mode == "logmag":
            s, L = self._sign[n - 1, m - 1], self._log[n - 1, m - 1]
            if L > 700.0:
                raise RepresentationError("logmag entry exceeds float range")
            return float(s * math.exp(L)) if s != 0 else 0.0
        if self.mode == "float":
            return self._data[n - 1, m - 1]
        re, den = self._num
        return Fraction(re[n - 1, m - 1], den)

    def dense(self) -> np.ndarray:
        """Materialize as a numpy array (object-dtype in rational mode)."""
        if self.mode == "float":
            return self._data.copy()
        if self.mode == "rational":
            re, den = self._num
            return np.array([Fraction(p, den) for p in re.ravel().tolist()],
                            dtype=object).reshape(self.N, self.N)
        if np.any(self._log > 700.0):
            raise RepresentationError(
                "logmag matrix has entries beyond float range; keep it in log scale"
            )
        with np.errstate(over="ignore"):
            return self._sign * np.exp(self._log)

    def log_abs(self) -> np.ndarray:
        """log|entries| as a float array (exact entries via float conversion)."""
        if self.mode == "logmag":
            return self._log.copy()
        with np.errstate(divide="ignore"):
            return np.log(np.abs(self.as_float_entries()))

    # -- algebra ----------------------------------------------------------

    def _read_pattern(self) -> np.ndarray | None:
        """The entries a row-times-vector product reads (None: all)."""
        if self.structure == "diagonal":
            return np.eye(self.N, dtype=bool)
        if self.structure == "lower":
            return np.tri(self.N, dtype=bool)
        return None

    def apply(self, x) -> CoordinateVector:
        """Matrix-vector product, tracking the trustworthy prefix."""
        x = as_vector(x)
        if len(x) < self.N:
            raise ValueError(f"vector of length {len(x)} too short for N={self.N}")
        out_valid = min(x.valid_len, self.N)
        if self.mode == "rational" and x.exact:
            re, den = self._num
            xre, xden = x.prefix(self.N).shared()
            out = _within(re, self._read_pattern()) @ np.array(xre, dtype=object)
            return CoordinateVector.over_denominator(out.tolist(), den * xden,
                                                     out_valid)
        xf = x.prefix(self.N).as_float()
        data = self._data if self.mode == "float" else self.as_float_entries()
        return CoordinateVector(data @ xf, out_valid)

    def as_float_entries(self) -> np.ndarray:
        """Entries as floats; each rational entry p/den is correctly rounded,
        as float(Fraction) is."""
        if self.mode != "rational":
            return self.dense()
        re, den = self._num
        return (re / den).astype(float)

    def compose(self, other: "TruncOperator") -> "TruncOperator":
        """Truncated product self @ other (valid where both truncations agree)."""
        if self.N != other.N:
            raise ValueError("size mismatch")
        if self.mode != other.mode:
            raise ValueError("mode mismatch; convert explicitly first")
        N = self.N
        if self.structure == "diagonal" and other.structure == "diagonal":
            structure = "diagonal"
        elif self.structure in ("lower", "diagonal") \
                and other.structure in ("lower", "diagonal"):
            structure = "lower"
        else:
            structure = "full"
        name = f"{self.name}*{other.name}"
        if self.mode == "float":
            return TruncOperator(name, N, self._data @ other._data, "float",
                                 structure)
        if self.mode == "logmag":
            raise RepresentationError(
                "logmag composition not supported; compose in float or rational"
            )
        a, b = self._num, other._num
        # row n of self is read up to column n, column m of other from row
        # m on, where their structures say the rest is zero
        lower = np.tri(N, dtype=bool)
        keep_a = lower if self.structure != "full" else None
        keep_b = lower if structure != "full" else None
        re = _within(a.re, keep_a) @ _within(b.re, keep_b)
        return TruncOperator(name, N, _Numerators(re, a.den * b.den),
                             "rational", structure)

    def __matmul__(self, other):
        if isinstance(other, TruncOperator):
            return self.compose(other)
        return self.apply(other)

    def __repr__(self) -> str:
        return (f"TruncOperator({self.name!r}, N={self.N}, mode={self.mode}, "
                f"structure={self.structure})")


def identity(N: int, mode: str = "rational") -> TruncOperator:
    if mode == "float":
        return TruncOperator("identity", N, np.eye(N), "float", "diagonal")
    return TruncOperator("identity", N, _Numerators(np.eye(N, dtype=object), 1),
                         "rational", "diagonal")


def cesaro(N: int, mode: str = "rational") -> TruncOperator:
    """The running-mean matrix: 1/n on row n up to the diagonal.

    Rational mode holds row n as lcm(1..N)/n over lcm(1..N).
    """
    if mode == "float":
        data = np.tril(np.ones((N, N)) / np.arange(1, N + 1)[:, None])
        return TruncOperator("cesaro", N, data, "float", "lower")
    L, mult = _mean_multipliers(N)
    re = np.zeros((N, N), dtype=object)
    for n in range(N):
        re[n, :n + 1] = mult[n]
    return TruncOperator("cesaro", N, _Numerators(re, L), "rational", "lower")


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
            list(map(mul, accumulate(re), mult)), den * L, x.valid_len)
    vals = np.asarray(x.values)
    means = np.cumsum(vals) / np.arange(1, len(vals) + 1)
    return CoordinateVector(means, x.valid_len)


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
        return CoordinateVector.over_denominator(out, den, y.valid_len)
    vals = np.asarray(y.values)
    ns = np.arange(1, len(vals) + 1)
    shifted = np.concatenate([[0.0], vals[:-1]])
    return CoordinateVector(ns * vals - (ns - 1) * shifted, y.valid_len)


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
        return CoordinateVector.over_denominator(out, den * L, z.valid_len)
    vals = np.asarray(z.values)
    ns = np.arange(1, len(vals) + 1)
    scaled = vals / ns
    prior = np.zeros_like(scaled)
    np.cumsum(scaled[:-1], out=prior[1:])
    return CoordinateVector((ns + 1) / ns * vals + prior, z.valid_len)


def differentiation_apply(x) -> CoordinateVector:
    """The basis-shift derivative: output_n = n * x_{n+1}.

    Consumes one trailing coordinate, so the result is one shorter and the
    trustworthy prefix shrinks by one.
    """
    x = as_vector(x)
    if len(x) < 2:
        raise ValueError("need at least two coordinates")
    valid = max(0, min(x.valid_len, len(x)) - 1)
    if x.exact:
        re, den = x.shared()
        return CoordinateVector.over_denominator(
            [n * p for n, p in enumerate(re[1:], start=1)], den, valid)
    vals = np.asarray(x.values)
    return CoordinateVector(np.arange(1, len(vals)) * vals[1:], valid)


def delta(N: int, mode: str = "rational") -> TruncOperator:
    """The alternating-binomial involution: entry (n, m) is (-1)^(m-1) C(n-1, m-1).

    Composing it with itself gives the identity at every truncation size, and
    conjugating the running-mean matrix by it produces the diagonal of
    reciprocals 1/n.  Float mode is limited to small N where the binomials
    are still exactly representable; logmag mode works at any size.
    """
    if mode == "float":
        if N > _DELTA_FLOAT_LIMIT:
            raise RepresentationError(
                f"float binomials are unreliable beyond N={_DELTA_FLOAT_LIMIT}; "
                f"use rational or logmag mode"
            )
        data = np.zeros((N, N))
        for n in range(1, N + 1):
            for m in range(1, n + 1):
                data[n - 1, m - 1] = (-1) ** (m - 1) * math.comb(n - 1, m - 1)
        return TruncOperator("delta", N, data, "float", "lower")
    if mode == "logmag":
        ns = np.arange(N)[:, None]
        ms = np.arange(N)[None, :]
        logs = logbinom(ns, ms)
        signs = np.where(ms <= ns, (-1.0) ** ms, 0.0)
        signs = np.where(np.isfinite(logs), signs, 0.0)
        return TruncOperator("delta", N, (signs, logs), "logmag", "lower")
    re = np.zeros((N, N), dtype=object)
    for n in range(N):
        re[n, :n + 1] = [(-1) ** m * math.comb(n, m) for m in range(n + 1)]
    return TruncOperator("delta", N, _Numerators(re, 1), "rational", "lower")


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


def _pole_distance(lam_f: complex, N: int) -> float:
    ms = np.arange(1, N + 1, dtype=float)
    return float(min(abs(lam_f), np.min(np.abs(lam_f - 1.0 / ms))))


def _check_not_pole(lam, N: int, tol: float) -> None:
    if isinstance(lam, Fraction):
        if lam == 0:
            raise PreconditionError("resolvent undefined at 0")
        if lam.numerator == 1 and lam.denominator <= N:
            raise PreconditionError(
                f"{lam} is a reciprocal integer within the truncation"
            )
        return
    lam_f = complex(lam)
    d = _pole_distance(lam_f, N)
    if d < tol:
        raise PreconditionError(
            f"lambda={lam_f} is within {tol} of the reciprocal-integer set"
        )


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


def resolvent(lam, N: int, mode: str = "float",
              tol: float = TOL_SIGMA) -> TruncOperator:
    """Inverse of (averaging matrix minus lambda), at a non-pole lambda.

    Rational mode takes int or Fraction lambda and produces exact entries;
    complex points are decided in float and log scale.  Float mode takes
    any complex lambda at distance tol from the pole set {0} union
    {1/m : m <= N}.  Any other mode is rejected; the log-scale tail lives
    in resolvent_tail_logs.
    """
    if mode == "rational":
        if not isinstance(lam, (int, Fraction)):
            raise ValueError("rational mode needs an int or Fraction lambda")
        lam = Fraction(lam)
        _check_not_pole(lam, N, tol)
        d, P = _resolvent_scalars(lam, N)
        inv_l2 = 1 / (lam * lam)
        rows = []
        for n in range(1, N + 1):
            row = []
            for m in range(1, N + 1):
                if m == n:
                    row.append(d[n - 1])
                elif m < n:
                    e_nm = P[m - 1] / (n * P[n])
                    row.append(-inv_l2 * e_nm)
                else:
                    row.append(Fraction(0))
            rows.append(row)
        return TruncOperator(f"resolvent(lambda={lam})", N, rows, "rational", "lower")

    lam_f = complex(lam)
    _check_not_pole(lam_f, N, tol)
    if mode == "float":
        ns = np.arange(1, N + 1, dtype=float)
        d = 1.0 / (1.0 / ns - lam_f)
        factors = 1.0 - 1.0 / (lam_f * ns)
        P = np.concatenate([[1.0 + 0j], np.cumprod(factors)])
        e = P[None, :N] / (ns[:, None] * P[1:][:, None])  # e[n-1, m-1]
        data = -(1.0 / lam_f**2) * e
        data[~np.tri(N, k=-1, dtype=bool)] = 0.0
        np.fill_diagonal(data, d)
        if lam_f.imag == 0:
            data = data.real
        return TruncOperator(f"resolvent(lambda={lam_f})", N, data, "float", "lower")
    raise ValueError(f"unknown mode {mode!r}")


def resolvent_tail_logs(lam, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Streaming form of the resolvent tail: log|P| prefix sums.

    Returns (L, logn) with L[j] = sum_{i<=j} log|1 - 1/(lambda i)| for
    j = 0..N, so log|e_nm| = L[m-1] - log(n) - L[n].  This avoids an N x N
    array for the spectral checks, which only need row sums and sampled
    columns.
    """
    lam_f = complex(lam)
    _check_not_pole(lam_f, N, TOL_SIGMA)
    ns = np.arange(1, N + 1, dtype=float)
    with np.errstate(divide="ignore"):
        logs_f = np.log(np.abs(1.0 - 1.0 / (lam_f * ns)))
    L = np.concatenate([[0.0], np.cumsum(logs_f)])
    return L, np.log(ns)


def _scaled_tail_parts(seq: AlphaSequence, lam, k: int, N: int):
    """Log-scale row/column factors of the scaled resolvent tail matrix.

    Entry (n, m), m < n, factors as row_part[n] + col_part[m] with
    row_part[n] = -alpha_n/k - log n - L_n and
    col_part[m] = alpha_m/(k+1) + L_{m-1}; L is the prefix log-product of the
    resolvent's diagonal corrections.
    """
    L, logn = resolvent_tail_logs(lam, N)
    alpha = seq.values_saturated(N)
    row_part = -alpha / k - logn - L[1:]
    col_part = alpha / (k + 1) + L[:-1]
    return row_part, col_part


def scaled_e_matrix(lam, k: int, w, N: int, mode: str = "logmag") -> TruncOperator:
    """The weight-scaled resolvent tail: entry (n, m) is w_k(n)/w_{k+1}(m) e_nm.

    This is the part of the resolvent whose continuity on the space is at
    stake; its entries routinely overflow float range, so logmag is the
    default mode.  w may be a WeightSystem or an AlphaSequence.
    """
    seq = w.alpha if isinstance(w, WeightSystem) else w
    if k < 1:
        raise ValueError("k must be >= 1")
    lam_f = complex(lam)
    row_part, col_part = _scaled_tail_parts(seq, lam_f, k, N)
    mask = np.tri(N, k=-1, dtype=bool)
    # log of scaled magnitude; sign bookkeeping only matters for real lambda
    logs = np.where(mask, row_part[:, None] + col_part[None, :], -np.inf)
    if mode == "logmag":
        if lam_f.imag == 0:
            ns = np.arange(1, N + 1, dtype=float)
            signs_f = np.sign(1.0 - 1.0 / (lam_f.real * ns))
            Ss = np.concatenate([[1.0], np.cumprod(signs_f)])
            signs = np.where(mask, Ss[None, :N] * Ss[1:][:, None], 0.0)
        else:
            signs = np.where(mask, 1.0, 0.0)
        return TruncOperator(
            f"scaled_e(lambda={lam},k={k})", N, (signs, logs), "logmag", "lower",
        )
    if mode == "float":
        if np.any(logs[mask] > 700.0):
            raise RepresentationError(
                "scaled tail overflows float range; use logmag mode"
            )
        # recompute with phases for complex lambda
        alpha = seq.values_saturated(N)
        ns = np.arange(1, N + 1, dtype=float)
        factors = 1.0 - 1.0 / (lam_f * ns)
        P = np.concatenate([[1.0 + 0j], np.cumprod(factors)])
        e = P[None, :N] / (ns[:, None] * P[1:][:, None])
        data = np.exp(-alpha / k)[:, None] * np.exp(alpha / (k + 1))[None, :] * e
        data = np.where(mask, data, 0.0)
        if lam_f.imag == 0:
            data = data.real
        return TruncOperator(
            f"scaled_e(lambda={lam},k={k})", N, data, "float", "lower",
        )
    raise ValueError("scaled tail supports float and logmag modes")


def a_matrix(N: int) -> TruncOperator:
    """Shifted form of (identity minus averaging): n/(n+1) on the diagonal,
    -1/(n+1) strictly below."""
    L, mult = _mean_multipliers(N + 1)
    re = np.zeros((N, N), dtype=object)
    for n in range(1, N + 1):
        re[n - 1, :n - 1] = -mult[n]
        re[n - 1, n - 1] = n * mult[n]
    return TruncOperator("a_matrix", N, _Numerators(re, L), "rational", "lower")


def b_matrix(N: int) -> TruncOperator:
    """Exact inverse of a_matrix at every truncation size: (n+1)/n on the
    diagonal, 1/m strictly below."""
    L, mult = _mean_multipliers(N)
    re = np.zeros((N, N), dtype=object)
    for n in range(1, N + 1):
        re[n - 1, :n - 1] = mult[:n - 1]
        re[n - 1, n - 1] = (n + 1) * mult[n - 1]
    return TruncOperator("b_matrix", N, _Numerators(re, L), "rational", "lower")


def max_entry_diff(a: TruncOperator, b: TruncOperator) -> float:
    """Max absolute entry difference, via float conversion."""
    if a.N != b.N:
        raise ValueError("size mismatch")
    da = a.as_float_entries() if a.mode == "rational" else a.dense()
    db = b.as_float_entries() if b.mode == "rational" else b.dense()
    return float(np.max(np.abs(da - db)))


def ops_equal_exact(a: TruncOperator, b: TruncOperator) -> bool:
    """Exact entrywise equality for rational-mode operators, by
    cross-multiplying the numerators."""
    if a.mode != "rational" or b.mode != "rational" or a.N != b.N:
        raise ValueError("exact comparison needs two rational operators of equal size")
    na, nb = a._num, b._num
    return np.array_equal(na.re * nb.den, nb.re * na.den)
