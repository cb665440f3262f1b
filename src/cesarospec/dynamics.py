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
- log(D L^m) in one pass over the trace, the Cesaro means sum the
numerators, and Fractions are built only for the entries a caller reads.

Claims here are deliberately modest: iterates converge to x_1 on every
coordinate and the seminorms never expand, but no convergence *rate* is
asserted anywhere because the underlying statements are qualitative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import islice

import numpy as np

from .errors import InternalConsistencyError, PreconditionError
from . import exact
from .operators import CoordinateVector, _overflow_scale, _prefix_means, \
    as_vector, b_apply, cesaro_apply
from .sequences import AlphaSequence, SeminormTable, WeightSystem
from .trend import FAILS, HOLDS, Verdict

# Relative float slack of the contraction and ergodic-residual checks.
_FLOAT_TOL = 1e-12
# Steps iterate_limit_check takes before a coordinate outside the band fails.
_LIMIT_STEP_CAP = 256
# Floats per stack of iterates (at least one) in a SeminormTable call, which
# holds two stacks at once (34 KB traced), or a running-mean sum: 4 at N = 512.
_STACK_ENTRIES = 1 << 11


@dataclass(frozen=True)
class IterateTrace:
    """Recorded trajectory of m running-mean passes.

    vectors holds x0 and every iterate in step order (exact iterates in
    shared-denominator form).  Every iterate has the length of x0 and is
    exact on all of it: the map is lower triangular and consumes nothing.
    Readers take the seminorms of the vectors they read themselves.
    """

    vectors: tuple

    @property
    def x0(self) -> CoordinateVector:
        return self.vectors[0]

    @property
    def steps(self) -> int:
        return len(self.vectors) - 1

    @property
    def limit_prediction(self) -> complex | float:
        return self.x0[0]

    @property
    def iterates(self) -> tuple:
        """(step, coordinate tuple) pairs including step 0."""
        return tuple((m, tuple(v.values)) for m, v in enumerate(self.vectors))

    def final(self) -> CoordinateVector:
        return self.vectors[-1]


def power_iterate(x, m: int) -> IterateTrace:
    """Apply m running-mean passes, recording every intermediate step.

    O(m N) total, and exact input stays exact.  This is the one producer of
    iterates: the contraction, means and limit checks read its trace.
    """
    if m < 1:
        raise PreconditionError(f"need m >= 1, got {m}")
    x = as_vector(x)
    if len(x) == 0:
        raise PreconditionError("empty vector")
    vectors = [x]
    for _ in range(m):
        vectors.append(cesaro_apply(vectors[-1]))
    return IterateTrace(tuple(vectors))


def _stacks(rows):
    """The rows in order, in stacks of _STACK_ENTRIES floats or one row."""
    rows = iter(rows)
    for row in rows:
        more = max(1, _STACK_ENTRIES // max(len(row), 1)) - 1
        yield np.array([row, *islice(rows, more)])


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
    x = as_vector(x)
    K = kernel_matrix(m, len(x))
    return CoordinateVector(K @ x.as_float())


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo: float, hi: float) -> float:
    """Golden-section maximum of a unimodal f on [lo, hi], in 200 steps."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
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


@lru_cache
def gm_sup(m: int, method: str = "both") -> float:
    """a_m = sup over (0, 1] of t log^(m-1)(1/t) / (m-1)!.

    Closed form ((m-1)/e)^(m-1)/(m-1)! with the maximum at t = e^-(m-1);
    method "both" (default) also maximizes numerically by golden section and
    insists the two agree to 1e-10.  These constants decrease to zero, which
    is what drives iterates to the projection uniformly on bounded sets.

    The numeric maximum is taken over s = log(1/t) on [0, 2m], a bracket
    that holds the maximizer s = m - 1 for every m; in t the maximizer
    e^-(m-1) falls below any fixed floor once m is large.  It maximizes the
    log of the density, -s + (m-1) log s - log (m-1)!, and takes one exp at
    the end: the density itself underflows to 0.0 away from its peak once
    m passes about 30,000, and the search would follow the zeros.
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

    def log_g(s: float) -> float:
        if m == 1:
            return -s
        if s <= 0.0:
            return -math.inf
        return -s + (m - 1) * math.log(s) - lg

    numeric = math.exp(_golden_max(log_g, 0.0, 2.0 * m))
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

    iterates holds the averaged iterates; the means, as (n, coordinate
    tuple) pairs, are built from them on first read, and final() gives the
    last one alone.  The predicted ergodic limit is the constant vector at
    height limit_prediction = x_1.
    """

    x0: CoordinateVector
    limit_prediction: complex | float
    iterates: tuple = field(repr=False)

    @cached_property
    def means(self) -> tuple:
        return tuple((j, tuple(t.values))
                     for j, t in _running_means(self.iterates))

    def final(self) -> CoordinateVector:
        """The last mean, as a vector (exact for an exact trace)."""
        for _, last in _running_means(self.iterates):
            pass
        return last


def _running_means(iterates):
    """Yield (j, T_j) for the running averages T_j of the iterates.

    Exact iterates y_j = p_j / D_j are summed on their numerators: S_j =
    S_{j-1} (D/D_{j-1}) + p_j (D/D_j) over D = lcm(D_{j-1}, D_j), which is
    D_j itself along a running-mean chain.  T_j is then S_j / (j D) in
    shared-denominator form, with no gcd on the way; float means come from
    _float_means."""
    if not iterates or not iterates[0].exact:
        yield from enumerate((CoordinateVector(t) for stack in
                              _float_means(iterates) for t in stack), start=1)
        return
    re_sum, den = [0] * len(iterates[0]), 1
    for j, y in enumerate(iterates, start=1):
        re, den_y = y.shared()
        lcm = math.lcm(den, den_y)
        a, b = lcm // den, lcm // den_y
        re_sum = [s * a + p * b for s, p in zip(re_sum, re)]
        den = lcm
        yield j, CoordinateVector.over_denominator(re_sum, j * den)


def _float_means(iterates):
    """Stacks of the running means T_j of float iterates: a cumulative sum
    down each stack, carried to the next, adds y_1 + ... + y_j in order, bit
    for bit; scaled as in _prefix_means where sums could pass 2**1000."""
    peak = max((p for s in _stacks(y.values for y in iterates) for p in
                np.abs(s).max(axis=1, initial=0.0).tolist()), default=0.0)
    scale = _overflow_scale(peak, len(iterates))
    acc, done = None, 0
    for stack in _stacks(y.values for y in iterates):
        if scale != 1.0:
            stack /= scale
        if acc is not None:
            stack[0] = acc + stack[0]
        stack = stack.cumsum(axis=0)
        acc, done = stack[-1].copy(), done + len(stack)
        stack /= np.arange(done - len(stack) + 1, done + 1)[:, None]
        yield stack if scale == 1.0 else stack * scale


def cesaro_means(x, nmax: int) -> CesaroMeansTrace:
    """Accumulate the first nmax averaged iterates of x, a start vector or
    an IterateTrace of at least nmax passes.  The means are built only when
    .means or final() is read."""
    if nmax < 1:
        raise PreconditionError(f"need nmax >= 1, got {nmax}")
    trace = _trace_of(x, nmax)
    return CesaroMeansTrace(trace.x0, trace.limit_prediction,
                            trace.vectors[1:nmax + 1])


def power_bound_check(
    w: WeightSystem | AlphaSequence,
    x,
    K: int = 5,
    M: int = 50,
    mode: str = "float",
) -> Verdict:
    """Seminorm contraction p_k(iterate) <= p_k(x) for k <= K, m <= M.

    This holds for every generator: alpha is nondecreasing, so w_k(n) =
    exp(-alpha_n / k) is nonincreasing in n, so w_k(n) |(Cx)_n| <= (1/n)
    sum_{j<=n} w_k(j) |x_j| <= p_k(x).  A fails verdict is therefore a
    defect in the operator code, never a fact about alpha.

    x is a start vector or an IterateTrace of at least M passes.  Float mode
    allows a fixed relative slack of 1e-12, reported as "tol", needs finite
    vectors, and reads p_k of iterates 0..M from one SeminormTable, called
    on stacks of up to _STACK_ENTRIES floats.  Rational mode compares
    exactly, needs a generator with exact rational values, and brackets
    iterates 1..M in one exact.WeightedSups pass; only pairs whose brackets
    overlap the start vector's, such as exact ties at coordinate 1, go on
    to exact.compare_weighted.
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
    levels = range(1, K + 1)
    params = {"alpha": seq.spec_string(), "K": K, "M": M, "mode": mode}
    at = None
    if mode == "float":
        params["tol"] = _FLOAT_TOL
        table = SeminormTable(w, levels, len(x))
        pks = np.array([p for stack in _stacks(
            y.as_float() for y in trace.vectors[:M + 1]) for p in table(stack)])
        # log w_k is finite: a row of p_k is finite exactly where its vector is
        finite = np.isfinite(pks).all(axis=1)
        pairs = np.argwhere((pks > pks[0] * (1.0 + _FLOAT_TOL))
                            | ~finite[:, None]).tolist()
        at = (pairs[0][0], pairs[0][1] + 1) if pairs else None
        if at is not None and not finite[at[0]]:
            raise PreconditionError(
                f"iterate {at[0]} is not finite" if at[0] else
                "float mode needs a finite start vector")
    else:
        alphas = seq.exact_values(len(x))
        if alphas is None:
            raise PreconditionError(
                f"generator {seq.spec_string()} has no exact rational values"
            )
        if not x.exact:
            raise PreconditionError("rational mode needs an exact vector")
        base = exact.WeightedSups(alphas, [x.shared()], levels)
        sups = exact.WeightedSups(
            alphas, [y.shared() for y in trace.vectors[1:M + 1]], levels)
        # the first expanding pair of those not decisively below x
        pairs = np.argwhere(sups.hi >= base.lo).tolist()
        at = next(((i + 1, r + 1) for i, r in pairs
                   if exact.compare_sups(sups, base, r + 1, i) > 0), None)
    # the evidence is the running worst slack max(0, p_k - limit), which
    # stays 0.0 up to the first expansion
    evidence = tuple((m, 0.0) for m in range(1, at[0] if at else M + 1))
    if at is None:
        return Verdict(HOLDS, "contraction", evidence, params=params)
    m, k = at
    witness = {"k": k, "m": m}
    if mode == "float":
        witness.update(p_k=float(pks[m, k - 1]), bound=float(pks[0, k - 1]))
    return Verdict(FAILS, "expansion", evidence, witness=witness,
                   params=params)


def iterate_limit_check(x, tol: float = 1e-6) -> Verdict:
    """Every coordinate of the iterates eventually sits within tol of x_1.

    Records the first step at which each coordinate enters the tol-band and
    stays there is not required (no rate or monotonicity is claimed); fails
    only if some coordinate has not entered the band by _LIMIT_STEP_CAP
    steps, reported as "m_cap".

    x is a start vector or an IterateTrace, whose float iterates are the
    first steps: running means are computed only past the trace's end.  An
    exact trace's iterates are not read, since turning big integers into
    floats costs more than iterating float(x).  Real x stays real.
    """
    m_cap = _LIMIT_STEP_CAP
    head = ()
    if isinstance(x, IterateTrace):
        head, x = (() if x.x0.exact else x.vectors[1:]), x.x0
    x = as_vector(x)
    if len(x) == 0:
        raise PreconditionError("empty vector")
    xf = x.as_float()
    # |y - x_1| <= 2 max|x| for every iterate y, since averaging keeps each
    # entry within max|x|; where that could overflow, the run is on x scaled
    # by a power of two, whose iterates are the scaled iterates
    scale = _overflow_scale(float(np.max(np.abs(xf), initial=0.0)), 2)
    y = xf / scale
    limit, band = y[0], tol / scale
    first_entry = np.where(np.abs(y - limit) < band, 0, -1)
    m = 0
    while m < m_cap and np.any(first_entry < 0):
        m += 1
        y = head[m - 1].values / scale if m <= len(head) else _prefix_means(y)
        first_entry[(first_entry < 0) & (np.abs(y - limit) < band)] = m
    entries = first_entry.tolist()
    evidence = tuple(enumerate(entries, start=1))
    params = {"tol": tol, "m_cap": m_cap}
    if -1 in entries:
        return Verdict(FAILS, "no_entry", evidence, params=params, witness={
            "n": entries.index(-1) + 1, "m_cap": m_cap, "tol": tol})
    return Verdict(HOLDS, "entered_band", evidence,
                   params={**params, "max_steps": max(entries)})


def ergodic_decomposition_check(seq: AlphaSequence, x) -> Verdict:
    """Split x into x_1 * ones + z and reconstruct z from the range of (I - C).

    z has first coordinate zero; shifting it and applying the exact inverse
    of the shifted difference matrix produces v with (I - C) v = z on every
    truncation coordinate, N = len(x).  Exact input is verified with zero
    tolerance, float input against a relative 1e-12 (reported as "tol"); a
    mismatch in exact mode is an internal error because the construction is
    an identity, not an approximation.
    """
    x = as_vector(x)
    N = len(x)
    if N < 2:
        raise PreconditionError("need N >= 2")
    params = {"alpha": seq.spec_string(), "N": N,
              "mode": "rational" if x.exact else "float"}
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
        return Verdict(HOLDS, "exact_identity", ((N, 0.0),), params=params)

    params["tol"] = _FLOAT_TOL
    xf = x.as_float()
    z = xf - xf[0]
    u = b_apply(z[1:])
    v = np.concatenate([[0.0], u.as_float()])
    resid = v - _prefix_means(v) - z
    worst = float(np.max(np.abs(resid)))
    scale = max(1.0, float(np.max(np.abs(z))))
    if worst > _FLOAT_TOL * scale:
        bad = int(np.argmax(np.abs(resid))) + 1
        return Verdict(FAILS, "residual", ((N, worst),), params=params,
                       witness={"n": bad, "residual": worst})
    return Verdict(HOLDS, "residual_below_tol", ((N, worst),), params=params)
