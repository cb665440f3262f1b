"""Iterates of the averaging operator: powers, kernel form, means, ergodics.

The m-th power of the running-mean map is the Hausdorff mean with density
f_m(t) = log^(m-1)(1/t)/(m-1)!, whose moments int_0^1 t^i f_m dt are
exactly (i+1)^(-m).  This module computes iterates both ways (m running-mean
passes, and the kernel in closed form from those moments), the envelope
constants a_m = sup t f_m(t) that control the convergence of iterates to
the mean-ergodic projection, the Cesaro means of the iterate sequence, and
the explicit splitting of a vector into its projection onto the constants
plus a piece reconstructed from the shifted inverse, which is the
finite-truncation shadow of the closed-range property.

Exact iterates are kept in shared-denominator form: iterate m of x = p/D
is q_m / (D L^m) with L = lcm(1..N) and integer numerators q_m, so one pass
is an integer prefix sum and one multiplication by L/n per entry, with no
gcd (operators.cesaro_apply).  The rational contraction check reads log|q|
- log(D L^m) once per iterate, the Cesaro means sum the numerators, and
Fractions are built only for the entries a caller reads.

Claims here are deliberately modest: iterates converge to x_1 on every
coordinate and the seminorms never expand, but no convergence *rate* is
asserted anywhere because the underlying statements are qualitative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import InternalConsistencyError, PreconditionError
from .exact import WeightedSups, compare_sups
from .operators import CoordinateVector, as_vector, b_apply, cesaro_apply
from .sequences import AlphaSequence, SeminormTable, WeightSystem
from .trend import FAILS, HOLDS, Verdict

__all__ = [
    "CesaroMeansTrace",
    "IterateTrace",
    "cesaro_means",
    "ergodic_decomposition_check",
    "gm_sup",
    "iterate_limit_check",
    "iterate_via_kernel",
    "kernel_matrix",
    "power_bound_check",
    "power_iterate",
]


@dataclass(frozen=True)
class IterateTrace:
    """Recorded trajectory of m running-mean passes.

    vectors holds x0 and every iterate in step order (exact iterates in
    shared-denominator form); the seminorm history holds
    (step, ((k, p_k value), ...)) when a weight system was supplied.
    Every iterate keeps the full trustworthy prefix of x0: the map is lower
    triangular and consumes nothing.
    """

    vectors: tuple
    seminorms: tuple

    @property
    def x0(self) -> CoordinateVector:
        return self.vectors[0]

    @property
    def steps(self) -> int:
        return len(self.vectors) - 1

    @property
    def limit_prediction(self) -> complex | float:
        return self.x0.values[0]

    @property
    def iterates(self) -> tuple:
        """(step, coordinate tuple) pairs including step 0."""
        return tuple((m, tuple(v.values)) for m, v in enumerate(self.vectors))

    def final(self) -> CoordinateVector:
        return self.vectors[-1]


def power_iterate(
    x,
    m: int,
    w: WeightSystem | AlphaSequence | None = None,
    ks: tuple = (1, 2, 3),
) -> IterateTrace:
    """Apply m running-mean passes, recording every intermediate step.

    O(m N) total.  Exact input stays exact; the seminorm history (float) is
    recorded only when a weight system is given.  This is the one producer
    of iterates: the contraction check and the Cesaro means read its trace.
    """
    if m < 1:
        raise PreconditionError(f"need m >= 1, got {m}")
    x = as_vector(x)
    if len(x) == 0:
        raise PreconditionError("empty vector")
    vectors = [x]
    for _ in range(m):
        vectors.append(cesaro_apply(vectors[-1]))
    sems = ()
    if w is not None:
        table = SeminormTable(w, ks, len(x))
        sems = tuple((step, tuple(zip(table.ks, table(v.as_float()))))
                     for step, v in enumerate(vectors))
    return IterateTrace(vectors=tuple(vectors), seminorms=sems)


def _trace_of(x, steps: int) -> IterateTrace:
    """x itself if it is a trace of at least `steps` passes, else its orbit."""
    if not isinstance(x, IterateTrace):
        return power_iterate(x, steps)
    if x.steps < steps:
        raise PreconditionError(
            f"trace of {x.steps} passes is shorter than the {steps} needed")
    return x


@lru_cache(maxsize=8)
def kernel_matrix(m: int, N: int) -> np.ndarray:
    """Dense lower-triangular kernel of the m-th power on the truncation.

    The m-th power is the Hausdorff mean whose density f_m(t) =
    log^(m-1)(1/t)/(m-1)! has moments int_0^1 t^i f_m dt = (i+1)^(-m), so
    cell (n, j) = binom(n-1, j-1) int_0^1 t^(j-1) (1-t)^(n-j) f_m dt expands
    to binom(n-1, j-1) sum_r (-1)^r binom(n-j, r) (j+r)^(-m): the binomial
    times (-1)^(n-j) times the (n-j)-th forward difference of k^(-m) at j.
    The differences are taken in integers over the common denominator
    lcm(1..N)^m, so each cell is the exact rational rounded once to float.
    Nothing here goes through the running-mean passes, which keeps this an
    independent check of them.  The matrix is cached and read-only.
    """
    if m < 1:
        raise PreconditionError(f"need m >= 1, got {m}")
    if N < 1:
        raise PreconditionError(f"need N >= 1, got {N}")
    lcm = math.lcm(*range(1, N + 1))
    denom = lcm ** m
    # diffs[j-1] = denom * sum_s (-1)^s binom(r, s) (j+s)^(-m) at pass r
    diffs = [(lcm // k) ** m for k in range(1, N + 1)]
    out = np.zeros((N, N))
    for r in range(N):
        for j in range(1, N - r + 1):
            num = math.comb(j + r - 1, j - 1) * diffs[j - 1]
            out[j + r - 1, j - 1] = num / denom
        diffs = [a - b for a, b in zip(diffs, diffs[1:])]
    out.setflags(write=False)
    return out


def iterate_via_kernel(x, m: int) -> CoordinateVector:
    """Evaluate the m-th iterate through the closed-form kernel (float only)."""
    if m < 1:
        raise PreconditionError(f"need m >= 1, got {m}")
    x = as_vector(x)
    K = kernel_matrix(m, len(x))
    return CoordinateVector(K @ x.as_float(), x.valid_len)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo: float, hi: float, iters: int = 200) -> float:
    """Golden-section maximum of a unimodal f on [lo, hi]."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        if b - a < 1e-14:
            break
    t = 0.5 * (a + b)
    return max(f(t), fc, fd)


def gm_sup(m: int, method: str = "both") -> float:
    """a_m = sup over (0, 1] of t log^(m-1)(1/t) / (m-1)!.

    Closed form ((m-1)/e)^(m-1)/(m-1)! with the maximum at t = e^-(m-1);
    method "both" (default) also maximizes numerically by golden section and
    insists the two agree to 1e-10.  These constants decrease to zero, which
    is what drives iterates to the projection uniformly on bounded sets.

    The numeric maximum is taken over s = log(1/t) on [0, 2m], a bracket
    that holds the maximizer s = m - 1 for every m; in t the maximizer
    e^-(m-1) falls below any fixed floor once m is large.
    """
    if m < 1:
        raise PreconditionError(f"need m >= 1, got {m}")
    if method not in ("both", "closed", "numeric"):
        raise ValueError(f"unknown method {method!r}")

    if m == 1:
        closed = 1.0
    else:
        closed = math.exp((m - 1) * (math.log(m - 1.0) - 1.0) - math.lgamma(m))
    if method == "closed":
        return closed

    lg = math.lgamma(m)

    def g(s: float) -> float:
        if m == 1:
            return math.exp(-s)
        if s <= 0.0:
            return 0.0
        return math.exp(-s + (m - 1) * math.log(s) - lg)

    numeric = _golden_max(g, 0.0, 2.0 * m)
    if method == "numeric":
        return numeric
    if abs(closed - numeric) > 1e-10:
        raise InternalConsistencyError(
            f"a_{m}: closed form {closed!r} vs numeric maximum {numeric!r}"
        )
    return closed


@dataclass(frozen=True)
class CesaroMeansTrace:
    """Running averages T_n = (1/n) sum_{j<=n} of the first n iterates.

    distances records the seminorm gap to the predicted ergodic limit, the
    constant vector at height x_1, per recorded n and weight index.
    iterates holds the averaged iterates; the means, as (n, coordinate
    tuple) pairs, are built from them on first read.
    """

    x0: CoordinateVector
    distances: tuple
    limit_prediction: complex | float
    iterates: tuple = field(default=(), repr=False)

    @cached_property
    def means(self) -> tuple:
        return tuple((j, tuple(t.values))
                     for j, t in _running_means(self.iterates))


def _running_means(iterates):
    """Yield (j, T_j) for the running averages T_j of the iterates.

    Exact iterates y_j = p_j / D_j are summed on their numerators: S_j =
    S_{j-1} (D/D_{j-1}) + p_j (D/D_j) over D = lcm(D_{j-1}, D_j), which is
    D_j itself along a running-mean chain.  T_j is then S_j / (j D) in
    shared-denominator form, with no gcd on the way.
    """
    if not iterates or not iterates[0].exact:
        acc = None
        for j, y in enumerate(iterates, start=1):
            acc = y.values if acc is None else acc + y.values
            yield j, CoordinateVector(acc / j, y.valid_len)
        return
    re_sum, den = [0] * len(iterates[0]), 1
    for j, y in enumerate(iterates, start=1):
        re, den_y = y.shared()
        lcm = math.lcm(den, den_y)
        a, b = lcm // den, lcm // den_y
        re_sum = [s * a + p * b for s, p in zip(re_sum, re)]
        den = lcm
        yield j, CoordinateVector.over_denominator(re_sum, j * den,
                                                   y.valid_len)


def cesaro_means(
    x,
    nmax: int,
    w: WeightSystem | AlphaSequence | None = None,
    ks: tuple = (1, 2, 3),
) -> CesaroMeansTrace:
    """Accumulate the first nmax averaged iterates of x, a start vector or
    an IterateTrace of at least nmax passes.  The exact means are built only
    when .means is read."""
    if nmax < 1:
        raise PreconditionError(f"need nmax >= 1, got {nmax}")
    trace = _trace_of(x, nmax)
    limit = trace.limit_prediction
    iterates = trace.vectors[1:nmax + 1]
    distances = []
    if w is not None:
        table = SeminormTable(w, ks, len(trace.x0))
        for j, tj in _running_means(iterates):
            gaps = table(tj.as_float().astype(complex) - complex(limit))
            distances.append((j, tuple(zip(table.ks, gaps))))
    return CesaroMeansTrace(
        x0=trace.x0, distances=tuple(distances), limit_prediction=limit,
        iterates=iterates,
    )


def power_bound_check(
    w: WeightSystem | AlphaSequence,
    x,
    K: int = 5,
    M: int = 50,
    mode: str = "float",
    tol_float: float = 1e-12,
) -> Verdict:
    """Seminorm contraction p_k(iterate) <= p_k(x) for k <= K, m <= M.

    x is a start vector or an IterateTrace of at least M passes.  Float mode
    allows a relative slack of tol_float; rational mode compares exactly
    and requires a generator with exact rational values.  There one float
    pass per vector (the start vector and each iterate) brackets its sups at
    every level k <= K.  Only the pairs whose brackets overlap (such as
    exact ties at coordinate 1, which every pass fixes) go to
    exact.compare_weighted, as integer numerators (exact.compare_sups).
    """
    if K < 1 or M < 1:
        raise PreconditionError("need K >= 1 and M >= 1")
    if mode not in ("float", "rational"):
        raise ValueError(f"unknown mode {mode!r}")
    seq = w.alpha if isinstance(w, WeightSystem) else w
    if not isinstance(seq, AlphaSequence):
        raise PreconditionError("need a weight system or generator")
    trace = _trace_of(x, M)
    x = trace.x0
    iterates = enumerate(trace.vectors[1:M + 1], start=1)
    params = {"alpha": seq.spec_string(), "K": K, "M": M, "mode": mode}

    evidence = []
    if mode == "rational":
        alphas = seq.exact_values(len(x))
        if alphas is None:
            raise PreconditionError(
                f"generator {seq.spec_string()} has no exact rational values"
            )
        if not x.exact:
            raise PreconditionError("rational mode needs an exact vector")
        xw = WeightedSups(alphas, x.shared(), range(1, K + 1))
        for m, y in iterates:
            yw = xw.like(y.shared())
            for k in range(1, K + 1):
                if compare_sups(yw, xw, k) > 0:
                    return Verdict(FAILS, "expansion", tuple(evidence),
                                   witness={"k": k, "m": m}, params=params)
            evidence.append((m, 0.0))
        return Verdict(HOLDS, "contraction", tuple(evidence), params=params)

    params["tol"] = tol_float
    table = SeminormTable(w, range(1, K + 1), len(x))
    base = table(x.as_float())
    worst = 0.0
    for m, y in iterates:
        for k, pk, bound in zip(table.ks, table(y.as_float()), base):
            slack = pk - bound * (1.0 + tol_float)
            worst = max(worst, slack)
            if slack > 0.0:
                return Verdict(
                    FAILS, "expansion", tuple(evidence),
                    witness={"k": k, "m": m, "p_k": pk, "bound": bound},
                    params=params,
                )
        evidence.append((m, worst))
    return Verdict(HOLDS, "contraction", tuple(evidence), params=params)


def iterate_limit_check(
    x,
    tol: float = 1e-6,
    m_cap: int = 256,
) -> Verdict:
    """Every coordinate of the iterates eventually sits within tol of x_1.

    Records the first step at which each coordinate enters the tol-band and
    stays there is not required (no rate or monotonicity is claimed); fails
    only if some coordinate has not entered the band by m_cap.
    """
    x = as_vector(x)
    xf = x.as_float().astype(complex)
    limit = xf[0]
    n = len(xf)
    first_entry = np.full(n, -1, dtype=np.int64)
    y = xf.copy()
    close0 = np.abs(y - limit) < tol
    first_entry[close0] = 0
    m = 0
    while m < m_cap and np.any(first_entry < 0):
        m += 1
        y = np.cumsum(y) / np.arange(1, n + 1)
        newly = (first_entry < 0) & (np.abs(y - limit) < tol)
        first_entry[newly] = m
    evidence = tuple((i + 1, int(first_entry[i])) for i in range(n))
    if np.any(first_entry < 0):
        bad = int(np.argmax(first_entry < 0)) + 1
        return Verdict(FAILS, "no_entry", evidence,
                       witness={"n": bad, "m_cap": m_cap, "tol": tol},
                       params={"tol": tol, "m_cap": m_cap})
    return Verdict(HOLDS, "entered_band", evidence,
                   params={"tol": tol, "m_cap": m_cap,
                           "max_steps": int(np.max(first_entry))})


def ergodic_decomposition_check(
    seq: AlphaSequence,
    x,
    N: int | None = None,
    tol_float: float = 1e-12,
) -> Verdict:
    """Split x into x_1 * ones + z and reconstruct z from the range of (I - C).

    z has first coordinate zero; shifting it and applying the exact inverse
    of the shifted difference matrix produces v with (I - C) v = z on every
    truncation coordinate.  Exact input is verified with zero tolerance,
    float input against tol_float; a mismatch in exact mode is an internal
    error because the construction is an identity, not an approximation.
    """
    x = as_vector(x)
    N = N or len(x)
    if N < 2:
        raise PreconditionError("need N >= 2")
    if len(x) < N:
        raise PreconditionError(f"vector of length {len(x)} too short for N={N}")
    x = x.prefix(N)

    if x.exact:
        # z = x - x_1 over x's denominator, then v = (0, B z_2..z_N) and the
        # residual v - C v - z, cross-multiplied onto integers
        re, den = x.shared()
        z = [p - re[0] for p in re]
        u, den_u = b_apply(
            CoordinateVector.over_denominator(z[1:], den)).shared()
        v = [0] + u
        cv, den_c = cesaro_apply(
            CoordinateVector.over_denominator(v, den_u)).shared()
        if any((a * den_c - c * den_u) * den != q * den_u * den_c
               for a, c, q in zip(v, cv, z)):
            raise InternalConsistencyError(
                "exact ergodic reconstruction left a nonzero residual"
            )
        return Verdict(
            HOLDS, "exact_identity", ((N, 0.0),),
            params={"alpha": seq.spec_string(), "N": N, "mode": "rational"},
        )

    xf = x.as_float()
    z = xf - xf[0]
    u = b_apply(z[1:])
    v = np.concatenate([[0.0], u.as_float()])
    resid = v - (np.cumsum(v) / np.arange(1, N + 1)) - z
    worst = float(np.max(np.abs(resid)))
    scale = max(1.0, float(np.max(np.abs(z))))
    if worst > tol_float * scale:
        bad = int(np.argmax(np.abs(resid))) + 1
        return Verdict(
            FAILS, "residual", ((N, worst),),
            witness={"n": bad, "residual": worst},
            params={"alpha": seq.spec_string(), "N": N, "mode": "float",
                    "tol": tol_float},
        )
    return Verdict(
        HOLDS, "residual_below_tol", ((N, worst),),
        params={"alpha": seq.spec_string(), "N": N, "mode": "float",
                "tol": tol_float},
    )
