"""Spectrum predictions from a space profile, and their finite-resolution checks.

The averaging operator's spectrum over the weighted space is determined by
theory in two regimes: nuclear spaces (point spectrum and spectrum both equal
the reciprocals of the positive integers) and spaces whose level-1 exponent
set is nonempty (the spectrum is sandwiched between an open disc with the
point 1 attached and the disc's closure).  Outside these regimes only the
universal bounds survive: the reciprocals always sit inside the spectrum and
the spectrum always sits inside the closed disc of diameter [0, 1].

Everything numeric here corroborates membership statements at a truncation;
nothing claims to decide a spectrum pointwise.  Per-point verification uses
the scaled tail matrix of the resolvent: column decay plus bounded row sums
are exactly the finitely checkable content of "the resolvent maps one weight
step into the next".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .operators import _reciprocal_distance, _scaled_tail_parts, logbinom, \
    resolvent_tail_logs
from .sequences import AlphaSequence, default_resolution, s0_estimate
from .criteria import SpaceProfile
from .trend import (
    BOUNDED,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    UNDECIDED,
    WINDOW,
    Verdict,
    first_deciding,
    ladder,
    limit_verdict_zero,
    sup_verdict_bounded,
)


IN = "in"
OUT = "out"
BOUNDARY = "boundary"
UNKNOWN = "undetermined"

# Membership kinds a prediction can take.
RECIPROCALS = "reciprocals"              # { 1/m : m = 1, 2, ... }
RECIPROCALS_WITH_ZERO = "reciprocals_with_zero"
POINT_ONE = "point_one"                  # { 1 }
CLOSED_DISC = "closed_disc"              # closure of D(r)
SANDWICH = "sandwich"                    # open disc + {1}  <=  set  <=  closed disc
SIGMA_GAP = "sigma_gap"                  # reciprocals  <=  set  <=  closed disc
UNDETERMINED = "undetermined"
# How near a boundary or a reciprocal SetDescriptor.contains counts as on it.
_BAND_TOL = 1e-6


def _near_reciprocal(z: complex, tol: float) -> bool:
    """Is z within tol of 1/m for some positive integer m?  Re z <= tol
    counts as near 0 instead."""
    return z.real > tol and _reciprocal_distance(z, math.inf) <= tol


@dataclass(frozen=True)
class SetDescriptor:
    """A predicted point set, queryable only up to a boundary band.

    contains() answers "in" / "out" / "boundary" / "undetermined".  The open
    disc vs closed disc distinction is below numeric resolution, so points
    within _BAND_TOL of a disc boundary come back "boundary"; points a
    sandwich or a one-sided bound cannot decide come back "undetermined".
    """

    kind: str
    center: float = 0.5
    radius: float = 0.5
    note: str = ""

    def contains(self, z: complex) -> str:
        z, tol = complex(z), _BAND_TOL
        d = abs(z - self.center)
        if self.kind == RECIPROCALS:
            if _near_reciprocal(z, tol):
                return IN
            return BOUNDARY if abs(z) <= tol else OUT
        if self.kind == RECIPROCALS_WITH_ZERO:
            return IN if (_near_reciprocal(z, tol) or abs(z) <= tol) else OUT
        if self.kind == POINT_ONE:
            return IN if abs(z - 1.0) <= tol else OUT
        if self.kind == CLOSED_DISC:
            if d <= self.radius - tol:
                return IN
            if d >= self.radius + tol:
                return OUT
            return BOUNDARY
        if self.kind == SANDWICH:
            if abs(z - 1.0) <= tol or d <= self.radius - tol:
                return IN
            if d >= self.radius + tol:
                return OUT
            return UNKNOWN
        if self.kind == SIGMA_GAP:
            if _near_reciprocal(z, tol):
                return IN
            if d >= self.radius + tol:
                return OUT
            return UNKNOWN
        if self.kind == UNDETERMINED:
            return UNKNOWN
        raise ValueError(f"unknown set kind {self.kind!r}")


@dataclass(frozen=True)
class SpectrumReport:
    """Predicted point spectrum, spectrum, and Waelbroeck spectrum.

    hypotheses carries the (name, Verdict) pairs the prediction consumed, so
    an inconclusive input is visible as exactly that rather than silently
    degrading the prediction.
    """

    alpha: str
    sigma_pt: SetDescriptor
    sigma: SetDescriptor
    sigma_star: SetDescriptor
    hypotheses: tuple
    disc_params: tuple = ()
    notes: tuple = ()


def predict_spectra(profile: SpaceProfile) -> SpectrumReport:
    """Map a SpaceProfile to the theory's spectrum statements.

    Nuclear: both spectra equal the reciprocal set; the extended spectrum
    closes it up with 0 when the gap infimum is positive.  Nonempty level-1
    exponent set: the spectrum is sandwiched around the unit-diameter disc
    and only 1 survives as an eigenvalue.  Neither: the universal bounds,
    reported as the gap they are.
    """
    hyp = (
        ("nuclear", profile.nuclear),
        ("v_alpha_positive", profile.v_alpha),
        ("s1_nonempty", profile.s1_nonempty),
    )
    notes: list[str] = []
    disc_params: tuple = ()

    if profile.nuclear.outcome == HOLDS:
        sigma_pt = SetDescriptor(RECIPROCALS)
        sigma = SetDescriptor(RECIPROCALS)
        if profile.v_alpha.outcome == HOLDS:
            sigma_star = SetDescriptor(RECIPROCALS_WITH_ZERO)
        else:
            sigma_star = SetDescriptor(
                UNDETERMINED,
                note="the closed-up reciprocal set is only asserted under a "
                     "positive gap infimum",
            )
            notes.append(
                "nuclear but without a confirmed positive gap infimum: the "
                "extended spectrum is left undetermined"
            )
    elif profile.s1_nonempty.outcome == HOLDS:
        sigma_pt = SetDescriptor(POINT_ONE)
        sigma = SetDescriptor(SANDWICH)
        sigma_star = SetDescriptor(CLOSED_DISC)
        interval = profile.s1_nonempty.params.get("s0_interval")
        if interval is not None:
            disc_params = ((1, float(interval[0]), float(interval[1])),)
    elif profile.nuclear.outcome == FAILS \
            and profile.s1_nonempty.outcome == FAILS:
        sigma_pt = SetDescriptor(
            POINT_ONE, note="only the leading eigenvalue is certified")
        sigma = SetDescriptor(SIGMA_GAP)
        sigma_star = SetDescriptor(UNDETERMINED)
        notes.append(
            "non-nuclear with every exponent level empty at resolution: the "
            "theory determines nothing between the reciprocal set and the "
            "closed disc"
        )
    else:
        unverified = [name for name, v in hyp if v.outcome == INCONCLUSIVE]
        sigma_pt = SetDescriptor(
            POINT_ONE, note="at least the leading eigenvalue; hypotheses "
                            "unverified")
        sigma = SetDescriptor(SIGMA_GAP)
        sigma_star = SetDescriptor(UNDETERMINED)
        notes.append("hypothesis unverified: " + ", ".join(unverified))

    return SpectrumReport(
        alpha=profile.alpha,
        sigma_pt=sigma_pt,
        sigma=sigma,
        sigma_star=sigma_star,
        hypotheses=hyp,
        disc_params=disc_params,
        notes=tuple(notes),
    )


def eigenvector_membership(
    seq: AlphaSequence,
    m: int,
    K: int,
    N: int | None = None,
) -> Verdict:
    """Does the m-th eigenvector (alternating binomial column) live in the space?

    The magnitudes are binom(n-1, m-1), so membership at level k is the trend
    of -alpha_n/k + log binom(n-1, m-1) along the ladder.  holds only when
    every level up to K vanishes; the witness of a failure is the first bad k.
    The column is zero above row m, so only ladder samples at n >= m say
    anything: with fewer than trend.WINDOW of them up to N the verdict is
    inconclusive, as one or two samples cannot show a trend.
    """
    if m < 1:
        raise PreconditionError(f"eigenvector index m must be >= 1, got {m}")
    if K < 1:
        raise PreconditionError(f"need K >= 1, got {K}")
    N = N or default_resolution(seq)
    lad = ladder(N, start=max(2, m))
    support = int(np.count_nonzero(lad >= m))
    if support < WINDOW:
        return Verdict(
            INCONCLUSIVE, UNDECIDED,
            reason=f"only {support} ladder samples lie at n >= m = {m} up to "
                   f"N = {N}; a trend needs {WINDOW}",
            params={"alpha": seq.spec_string(), "m": m, "K": K, "N": N})
    alpha = seq.values_saturated(N)[lad - 1]
    logx = logbinom(lad - 1, m - 1)
    i, v = first_deciding(
        limit_verdict_zero(
            lad, -alpha / k + logx, f"w_{k}(n) binom(n-1, {m - 1})",
            extra={"alpha": seq.spec_string(), "m": m, "k": k, "N": N})
        for k in range(1, K + 1))
    if v.outcome == FAILS:
        return Verdict(FAILS, v.trend, v.evidence,
                       witness={"k": i + 1}, params=v.params)
    if v.outcome == INCONCLUSIVE:
        return v
    return Verdict(HOLDS, v.trend, v.evidence, params={**v.params, "K": K})


def verify_resolvent_point(
    seq: AlphaSequence,
    lam,
    k: int = 1,
    N: int | None = None,
) -> Verdict:
    """Numeric evidence that lam is a resolvent point at weight step k.

    Two conditions on the scaled tail matrix, both at resolution N: sampled
    columns decay along n, and absolute row sums stay bounded.  Together they
    witness that the resolvent maps step k+1 into step k continuously; a
    growing row sum witnesses the opposite.  This never decides spectrum
    membership, it corroborates the theorem-driven prediction.  A lam within
    operators.TOL_SIGMA of 0 or of some 1/m with m <= N is a pole of the
    truncated resolvent and raises PreconditionError.
    """
    if k < 1:
        raise PreconditionError(f"weight step k must be >= 1, got {k}")
    N = _resolvent_resolution(seq, N)
    return _resolvent_step(seq, lam, k, N, resolvent_tail_logs(lam, N))


def _resolvent_resolution(seq: AlphaSequence, N: int | None) -> int:
    """N, or seq's default resolution; a resolvent check needs N >= 16."""
    N = N or default_resolution(seq)
    if N < 16:
        raise PreconditionError("resolvent verification needs N >= 16")
    return N


def _resolvent_step(seq: AlphaSequence, lam, k: int, N: int,
                    tails: tuple) -> Verdict:
    """verify_resolvent_point at step k, given resolvent_tail_logs(lam, N)."""
    row_part, col_part = _scaled_tail_parts(seq, k, tails)

    # (a) column decay for the sampled columns m = 1, 2, 4, ... <= N/4
    col_ms = [1 << j for j in range((N // 4).bit_length())]
    columns: list[Verdict] = []
    for cm in col_ms:
        lad = ladder(N, start=2 * cm)
        lad = lad[lad > cm]
        logs = row_part[lad - 1] + col_part[cm - 1]
        columns.append(limit_verdict_zero(
            lad, logs, f"scaled tail column m={cm}",
            extra={"alpha": seq.spec_string(), "lambda": complex(lam),
                   "k": k, "m": cm, "N": N},
        ))

    # (b) bounded absolute row sums via prefix log-sum-exp of the column part
    G = np.logaddexp.accumulate(col_part)
    ns = np.arange(2, N + 1, dtype=np.int64)
    q = row_part[1:] + G[:-1]   # rows n = 2..N
    rows = sup_verdict_bounded(
        ns, q, "absolute row sums of the scaled tail matrix",
        extra={"alpha": seq.spec_string(), "lambda": complex(lam),
               "k": k, "N": N},
    )

    trends = {cm: v.outcome for cm, v in zip(col_ms, columns)}
    params = {**rows.params, "column_trends": trends,
              "columns_sampled": tuple(col_ms)}
    i, v = first_deciding([rows, *columns])
    if v.outcome == FAILS:
        witness = ({"condition": "row_sums", "at": rows.witness} if i == 0
                   else {"condition": "column", "m": col_ms[i - 1]})
        return Verdict(FAILS, v.trend, v.evidence, witness=witness,
                       params=params)
    if v.outcome == INCONCLUSIVE:
        return Verdict(INCONCLUSIVE, rows.trend, rows.evidence,
                       reason=v.reason, params=params)
    return Verdict(HOLDS, rows.trend, rows.evidence, params=params)


def resolvent_point_profile(
    seq: AlphaSequence,
    lam,
    kmax: int = 3,
    N: int | None = None,
) -> Verdict:
    """Scan verify_resolvent_point over weight steps k = 1..kmax.

    Full-space resolvent membership needs every step to pass, and several
    generators pass the first step for shallow reasons, so the scan is what
    corroborates (or refutes) lam being a resolvent point of the whole space.
    """
    if kmax < 1:
        raise PreconditionError(f"need kmax >= 1, got {kmax}")
    N = _resolvent_resolution(seq, N)
    tails = resolvent_tail_logs(lam, N)   # the same for every step
    steps = [_resolvent_step(seq, lam, k, N, tails)
             for k in range(1, kmax + 1)]
    params = {"alpha": seq.spec_string(), "lambda": complex(lam),
              "kmax": kmax,
              "per_step": {k: v.outcome for k, v in enumerate(steps, 1)}}
    i, v = first_deciding(steps)
    if v.outcome == FAILS:
        return Verdict(FAILS, v.trend, v.evidence,
                       witness={"k": i + 1, **v.witness}, params=params)
    if v.outcome == INCONCLUSIVE:
        return Verdict(INCONCLUSIVE, v.trend, v.evidence,
                       reason=f"step k={i + 1}: {v.reason}", params=params)
    return Verdict(HOLDS, v.trend, v.evidence, params=params)


def boun_bounds_fit(lam, N: int = 1_000) -> tuple[float, float, Verdict]:
    """Fit two-sided constants for the tail-entry envelope n^(1-a) m^a |e_nm|.

    a is the real part of 1/lam.  The envelope separates into a row term and
    a column term in log scale, so the extremes over the whole triangle come
    from prefix extremes in O(N).  Rows below 10 are excluded as transients.
    Returns (c, C, verdict); the verdict holds when both running extremes
    stabilize along the ladder.
    """
    if N < 32:
        raise PreconditionError("envelope fit needs N >= 32")
    L, logn = resolvent_tail_logs(lam, N)   # refuses lam at a pole or 0
    a = (1.0 / complex(lam)).real
    row_term = -a * logn - L[1:]         # n index, 0-based
    col_term = a * logn + L[:-1]         # m index, 0-based
    pref_max = np.maximum.accumulate(col_term)
    pref_min = np.minimum.accumulate(col_term)
    ns = np.arange(10, N + 1, dtype=np.int64)
    v_hi = row_term[ns - 1] + pref_max[ns - 2]
    v_lo = row_term[ns - 1] + pref_min[ns - 2]
    upper = sup_verdict_bounded(
        ns, v_hi, "envelope upper extreme",
        extra={"lambda": complex(lam), "a": a, "N": N},
    )
    lower = sup_verdict_bounded(
        ns, -v_lo, "negated envelope lower extreme",
        extra={"lambda": complex(lam), "a": a, "N": N},
    )
    log_C = float(np.max(v_hi))
    log_c = float(np.min(v_lo))
    c, C = math.exp(log_c), math.exp(log_C)
    params = {"lambda": complex(lam), "a": a, "N": N,
              "log_c": log_c, "log_C": log_C,
              "upper_trend": upper.trend, "lower_trend": lower.trend}
    i, v = first_deciding((upper, lower))
    if v.outcome == HOLDS:
        verdict = Verdict(HOLDS, BOUNDED, upper.evidence, params=params)
    elif v.outcome == FAILS:
        verdict = Verdict(FAILS, v.trend, v.evidence,
                          witness={"side": ("upper", "lower")[i],
                                   "at": v.witness},
                          params=params)
    else:
        verdict = Verdict(
            INCONCLUSIVE, upper.trend, upper.evidence,
            reason="envelope extremes do not stabilize at this resolution",
            params=params,
        )
    return c, C, verdict


@dataclass(frozen=True)
class DiscEntry:
    """One estimated disc: level k, its critical exponent bracket, geometry."""

    k: int
    s0_lo: float
    s0_hi: float
    s0_estimate: float
    center: float
    radius: float


@dataclass(frozen=True)
class DiscReport:
    """Nested disc estimates D(s0(k)) and their monotonicity check."""

    alpha: str
    entries: tuple
    nonincreasing: bool
    union_center: float
    union_radius: float


def disc_report(seq: AlphaSequence, kmax: int = 4) -> DiscReport:
    """Estimate the disc ladder D(s0(k)) for k = 1..kmax.

    Each disc has center and radius 1/(2 s0(k)); the union grows toward the
    unit-diameter disc as the critical exponents fall toward 1.  Raises the
    level's empty-exponent error untouched when nothing converges, which is
    the correct report for generators outside this regime, and raises
    PreconditionError for a level whose bracket has no upper end, which
    bounds no disc.  The ladder is nonincreasing when no level's bracket
    lies above the one before it.
    """
    if kmax < 1:
        raise PreconditionError(f"need kmax >= 1, got {kmax}")
    entries: list[DiscEntry] = []
    for k in range(1, kmax + 1):
        est = s0_estimate(seq, k)
        if math.isinf(est.hi):
            raise PreconditionError(
                f"the s0({k}) bracket of alpha={seq.spec_string()} has no "
                "upper end, so it bounds no disc")
        r = 1.0 / (2.0 * est.estimate)
        entries.append(DiscEntry(
            k=k, s0_lo=est.lo, s0_hi=est.hi, s0_estimate=est.estimate,
            center=r, radius=r,
        ))
    ok = all(b.s0_lo <= a.s0_hi for a, b in zip(entries, entries[1:]))
    biggest = max(entries, key=lambda e: e.radius)
    return DiscReport(
        alpha=seq.spec_string(),
        entries=tuple(entries),
        nonincreasing=ok,
        union_center=biggest.center,
        union_radius=biggest.radius,
    )
