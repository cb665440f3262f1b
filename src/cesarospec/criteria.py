"""Continuity, compactness, and nuclearity criteria as three-state verdicts.

Every routine here evaluates a finite-resolution proxy for a genuine limit
statement about the weighted sup-norm space built on alpha.  Outcomes are
Verdicts: `holds` and `fails` are backed by a trend the classifier considers
decisive, everything else is `inconclusive` with a reason.  The quantities
themselves live in log scale throughout; prefix sums use log-sum-exp so the
only overflow that can occur is the criterion's own quantity genuinely
exceeding the float range, which is reported as a failure witness rather
than an arithmetic accident.

Witness searches over the secondary index l run over (k, 4k+8] by default.
Searches additionally probe a small window of base indices k' in
{k, ..., k+3}: several gallery generators satisfy a criterion at k=1 for
shallow reasons and only reveal the true failure at k=2 or 3, so quantifying
over a window keeps single-call verdicts aligned with the for-every-k
statements they stand in for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import PreconditionError, SkEmptyError
from .sequences import (
    AlphaSequence,
    default_resolution,
    n_over_alpha_check,
    nuclearity_check,
    parse_alpha,
    s0_estimate,
    shift_stability_check,
    v_alpha,
)
from .trend import (
    BOUNDED,
    DEFAULT_PARAMS,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    TrendParams,
    UNBOUNDED,
    Verdict,
    first_deciding,
    ladder,
    limit_verdict_zero,
    probe_escalation,
    sup_verdict_bounded,
)

__all__ = [
    "GALLERY_SPECS",
    "SpaceProfile",
    "WeightFamily",
    "banach_step_compactness",
    "classify_space",
    "d_continuity_check",
    "delta_continuity_check",
    "echelon_weights",
    "gallery",
    "geometric_weights",
    "inverse_continuity_check",
    "koethe_continuity_check",
    "noncompactness_witness",
    "power_weights",
]


# A weight family maps (level k, indices n) to log a_k(n).  Levels increase:
# a_k(n) <= a_{k+1}(n) for the families used here.
WeightFamily = Callable[[int, np.ndarray], np.ndarray]

K_WINDOW = 4


def power_weights(k: int, ns: np.ndarray) -> np.ndarray:
    """log of a_k(n) = n^k, the matrix of the space of rapidly decreasing sequences."""
    return k * np.log(np.asarray(ns, dtype=float))


def geometric_weights(k: int, ns: np.ndarray) -> np.ndarray:
    """log of a_k(n) = k^n."""
    return np.asarray(ns, dtype=float) * math.log(k)


def echelon_weights(seq: AlphaSequence) -> WeightFamily:
    """The defining weights w_k(n) = exp(-alpha_n / k) as a matrix family.

    These increase in k like any echelon matrix, and the averaging operator
    is continuous on the space exactly when the (k, l) sup condition below
    holds for them; for this family it always does.
    """

    def family(k: int, ns: np.ndarray) -> np.ndarray:
        ns = np.asarray(ns, dtype=np.int64)
        vals = seq.values_saturated(int(ns[-1]))
        return -vals[ns - 1] / k

    return family


def default_lmax(k: int) -> int:
    """Search ceiling for the secondary index: generous but finite."""
    return 4 * k + 8


def _check_levels(k: int, l: int) -> None:
    if k < 1:
        raise PreconditionError(f"level k must be >= 1, got {k}")
    if l <= k:
        raise PreconditionError(f"need l > k, got k={k}, l={l}")


def koethe_continuity_check(
    a: WeightFamily,
    k: int,
    l: int,
    N: int = 1_000,
    trend_params: TrendParams = DEFAULT_PARAMS,
) -> Verdict:
    """Boundedness of sup_n (a_k(n)/n) * sum_{m<=n} 1/a_l(m) at resolution N.

    This single pair (k, l) is one clause of the averaging operator's matrix
    continuity criterion; callers quantify over k and l themselves.  Prefix
    sums run in log scale, so an overflowing quantity is a legitimate
    unboundedness witness.
    """
    _check_levels(k, l)
    ns = np.arange(1, N + 1, dtype=np.int64)
    log_ak = np.asarray(a(k, ns), dtype=float)
    log_al = np.asarray(a(l, ns), dtype=float)
    lse = np.logaddexp.accumulate(-log_al)
    q = log_ak - np.log(ns.astype(float)) + lse
    return sup_verdict_bounded(
        ns, q, "(a_k(n)/n) * sum_{m<=n} 1/a_l(m)", trend_params,
        extra={"k": k, "l": l, "N": N},
    )


def _l_range(k: int, lmax: int | None, kp: int) -> tuple[int, int]:
    """First and last l a window scan from k probes at k': lmax at k' = k
    when given, default_lmax(k') otherwise."""
    lm = lmax if (lmax is not None and kp == k) else default_lmax(kp)
    if lm <= kp:
        raise PreconditionError(f"need lmax > k, got k={kp}, lmax={lm}")
    return kp + 1, lm


def _window_scan(
    k: int,
    lmax: int | None,
    per_pair: Callable[[int, int], Verdict],
    quantity: str,
) -> Verdict:
    """Aggregate per-(k', l) sup verdicts over the k-window into one Verdict.

    holds: every k' in the window found some l.  fails: some k' failed for
    every probed l, decisively; the scan stops there.  Anything else is
    inconclusive.
    """
    chosen: dict[int, int] = {}
    held: list[Verdict] = []

    def some_l(kp: int) -> Verdict:
        lo, hi = _l_range(k, lmax, kp)
        j, v = first_deciding(
            (per_pair(kp, l) for l in range(lo, hi + 1)), stop=HOLDS)
        if v.outcome == HOLDS:
            chosen[kp] = lo + j
            held.append(v)
        return v

    i, v = first_deciding(map(some_l, range(k, k + K_WINDOW)))
    kp = k + i
    if v.outcome == FAILS:
        # Every l decisively failed at this k': the for-every-k statement fails.
        return Verdict(
            FAILS, v.trend, v.evidence,
            witness={"k": kp, "l_range": _l_range(k, lmax, kp)},
            params={**v.params, "quantity": quantity,
                    "chosen_l_by_k": dict(chosen)},
        )
    if v.outcome == INCONCLUSIVE:
        return Verdict(
            INCONCLUSIVE, UNBOUNDED if not chosen else BOUNDED, (),
            reason=f"growth at k'={kp} is sub-resolution for at "
                   "least one probed l",
            params={"quantity": quantity, "k": k,
                    "chosen_l_by_k": dict(chosen)},
        )
    base = held[0]
    return Verdict(
        HOLDS, base.trend, base.evidence,
        params={**base.params, "quantity": quantity,
                "chosen_l": chosen[k], "chosen_l_by_k": dict(chosen)},
    )


def inverse_continuity_check(
    seq: AlphaSequence,
    k: int = 1,
    lmax: int | None = None,
    N: int | None = None,
    trend_params: TrendParams = DEFAULT_PARAMS,
) -> Verdict:
    """Continuity of the inverse map y -> (n y_n - (n-1) y_{n-1}).

    The criterion is: for every k there is l > k with
    sup_n (log n - (1/k - 1/l) alpha_n) finite.  Each probed pair gets a
    running-sup verdict plus beyond-N probe escalation (slow logarithmic
    growth is invisible on any affordable dense grid).
    """
    N = N or default_resolution(seq)
    alpha = seq.values_saturated(N)
    ns = np.arange(1, N + 1, dtype=np.int64)
    logn = np.log(ns.astype(float))
    probes = seq.tail_probes(N)
    labels = [p.label for p in probes]
    p_logn = np.array([p.log_n for p in probes])
    p_alpha = np.array([p.alpha for p in probes])

    def per_pair(kp: int, l: int) -> Verdict:
        c = 1.0 / kp - 1.0 / l
        q = logn - c * alpha
        v = sup_verdict_bounded(
            ns, q, f"log n - (1/{kp} - 1/{l}) alpha_n", trend_params,
            extra={"alpha": seq.spec_string(), "k": kp, "l": l, "N": N},
        )
        return probe_escalation(v, labels, p_logn - c * p_alpha,
                                "probe_values_log", trend_params)

    return _window_scan(k, lmax, per_pair, "log n - (1/k - 1/l) alpha_n")


def noncompactness_witness(
    seq: AlphaSequence,
    k: int = 1,
    N: int | None = None,
    trend_params: TrendParams = DEFAULT_PARAMS,
) -> Verdict:
    """Confirm unboundedness of A_k(n) = (w_{2k}(n)/n) sum_{m<=n} 1/w_k(m).

    `holds` means unboundedness is confirmed, which is what rules out
    compactness of the averaging operator on the full space.  The direct sum
    is cross-checked against the elementary lower bound
    exp(alpha_n/(2k) - log n) obtained by keeping only the m=n term; either
    route growing decides.  The contradiction argument this quantity comes
    from assumes a nuclear space, so non-nuclear input is a precondition
    error rather than a verdict.
    """
    if k < 1:
        raise PreconditionError(f"level k must be >= 1, got {k}")
    N = N or default_resolution(seq)
    nuc = nuclearity_check(seq, N, trend_params)
    if nuc.outcome != HOLDS:
        raise PreconditionError(
            "noncompactness witness requires a nuclear space; nuclearity "
            f"verdict was {nuc.outcome!r} for alpha={seq.spec_string()}"
        )
    alpha = seq.values_saturated(N)
    ns = np.arange(1, N + 1, dtype=np.int64)
    logn = np.log(ns.astype(float))
    lse = np.logaddexp.accumulate(alpha / k)
    direct = -alpha / (2 * k) - logn + lse
    lower = alpha / (2 * k) - logn
    v_direct = sup_verdict_bounded(
        ns, direct, "A_k(n) = (w_2k(n)/n) sum_{m<=n} 1/w_k(m)", trend_params,
        extra={"alpha": seq.spec_string(), "k": k, "N": N},
    )
    v_lower = sup_verdict_bounded(
        ns, lower, "lower bound exp(alpha_n/2k)/n", trend_params,
        extra={"alpha": seq.spec_string(), "k": k, "N": N},
    )
    params = {**v_direct.params,
              "lower_bound_trend": v_lower.trend,
              "lower_bound_evidence": v_lower.evidence}
    i, v = first_deciding((v_direct, v_lower))
    if v.outcome == FAILS:
        if i:
            params["decided_by"] = "lower_bound"
        return Verdict(HOLDS, v.trend, v_direct.evidence, params=params)
    return Verdict(
        INCONCLUSIVE, v_direct.trend, v_direct.evidence,
        reason="neither the direct sum nor its lower bound grows cleanly at "
               "this resolution; expected for very slow alpha at small N",
        params=params,
    )


def banach_step_compactness(
    seq: AlphaSequence,
    k: int = 1,
    N: int | None = None,
    trend_params: TrendParams = DEFAULT_PARAMS,
) -> Verdict:
    """Compactness of the averaging operator on the single step c0(w_k).

    Criterion: (w_k(n)/n) * sum_{m<=n} 1/w_k(m) -> 0.  Note the contrast with
    noncompactness_witness: there the weight indices are mismatched (2k vs k)
    because the full-space operator must move between steps; here one step is
    compared with itself.
    """
    if k < 1:
        raise PreconditionError(f"level k must be >= 1, got {k}")
    N = N or default_resolution(seq)
    alpha = seq.values_saturated(N)
    ns = np.arange(1, N + 1, dtype=np.int64)
    logn = np.log(ns.astype(float))
    lse = np.logaddexp.accumulate(alpha / k)
    q = -alpha / k - logn + lse
    lad = ladder(N)
    return limit_verdict_zero(
        lad, q[lad - 1], "(w_k(n)/n) sum_{m<=n} 1/w_k(m)", trend_params,
        extra={"alpha": seq.spec_string(), "k": k, "N": N},
    )


def d_continuity_check(
    seq: AlphaSequence,
    k: int = 1,
    lmax: int | None = None,
    N: int | None = None,
    trend_params: TrendParams = DEFAULT_PARAMS,
) -> Verdict:
    """Continuity of x -> (n x_{n+1}): for every k some l bounds n w_k(n)/w_l(n+1).

    Works on log n - alpha_n/k + alpha_{n+1}/l.  No beyond-N escalation here:
    the quantity mixes adjacent alpha values whose deep-probe differences are
    not reliable once the generator saturates.
    """
    N = N or default_resolution(seq)
    ext = seq.values_saturated(N + 1)
    alpha = ext[:N]
    alpha_next = ext[1:N + 1]
    ns = np.arange(1, N + 1, dtype=np.int64)
    logn = np.log(ns.astype(float))

    def per_pair(kp: int, l: int) -> Verdict:
        q = logn - alpha / kp + alpha_next / l
        return sup_verdict_bounded(
            ns, q, f"n w_{kp}(n) / w_{l}(n+1)", trend_params,
            extra={"alpha": seq.spec_string(), "k": kp, "l": l, "N": N},
        )

    return _window_scan(k, lmax, per_pair, "n w_k(n) / w_l(n+1)")


_ROWSUM_N_CAP = 1024
_ROWSUM_BLOCK = 64
# A column's mat-vec sums for a block are kept only if every one is at least
# this.  Terms lost to underflow are below 2**-1074 each, so at most
# N * 2**-1074 in all, which is under 2**-100 of any sum that passes.
_MATVEC_FLOOR = 2.0 ** -960
# Row s of a block has s + 1 < 2**10 terms, each at most exp(max a[:s+1] -
# max a[:e]); past this gap their sum is under 2**-960, so the column would
# fail the floor and its mat-vec is skipped.
_MATVEC_GAP = 970 * math.log(2)
# exp(x) rounds to 0.0 for every x below -745.14; see _band_start.
_BAND_MARGIN = 746.0
# The max-shift route takes its columns in groups of at most this many block
# entries (one column at a time past it), so that its scratch stays under
# one column's block at the cap.
_MAX_SHIFT_ENTRIES = 2 ** 14


class _PascalTables(NamedTuple):
    logc: np.ndarray    # log binom(n-1, m-1), -inf above the diagonal
    scaled: np.ndarray  # exp(logc - rowmax), 0 above the diagonal
    rowmax: np.ndarray  # the largest entry of each row of logc


# One entry, grown to the largest N asked for so far; smaller N get a view.
_logc_cache: dict[int, _PascalTables] = {}


def _pascal_tables(N: int) -> _PascalTables:
    """The cached tables, built for N rows unless a larger entry exists."""
    if N > _ROWSUM_N_CAP:
        raise ValueError(f"log-Pascal table size {N} above {_ROWSUM_N_CAP}")
    entry = next(iter(_logc_cache.values()), None)
    if entry is None or len(entry.logc) < N:
        from .operators import _log_factorials

        lf = _log_factorials(N)[:N]
        # toeplitz[n, m] = lf[n - m] below the diagonal, +inf above it.
        padded = np.concatenate((np.full(N - 1, np.inf), lf))
        toeplitz = sliding_window_view(padded, N)[:, ::-1]
        logc = lf[:, None] - lf[None, :]
        logc -= toeplitz
        rowmax = logc.max(axis=1)
        scaled = logc - rowmax[:, None]
        np.exp(scaled, out=scaled)
        entry = _PascalTables(logc, scaled, rowmax)
        for table in entry:
            table.setflags(write=False)
        _logc_cache.clear()
        _logc_cache[N] = entry
    return entry


def _log_pascal(N: int) -> np.ndarray:
    """Lower-triangular table of log binom(n-1, m-1), 1-based in both indices.

    Entry (n, m) is lf[n] - lf[m] - lf[n-m] over the log-factorial table, the
    operations and order of `operators.logbinom`, so the bytes match it.  The
    last term is a window view of lf padded with +inf, which makes the upper
    triangle -inf with no mask.
    """
    return _pascal_tables(N).logc[:N, :N]


def _cached_tables(logc: np.ndarray) -> _PascalTables | None:
    """The cache entry that logc is a view of, if any."""
    entry = next(iter(_logc_cache.values()), None)
    return entry if entry is not None and logc.base is entry.logc else None


def _log_rowsums(logc: np.ndarray, A: np.ndarray) -> np.ndarray:
    """log sum_{m<=n} exp(logc[n, m] + A[m, j]) for every row n and column j.

    A is N x L (in the row-sum scan, column j is alpha/l_j); a 1-D A is the
    one-column case and gives a 1-D result.  Rows go in 64-row blocks, and a
    block reads only the columns of logc up to its last row; the entries
    beyond add nothing.  Every column goes through a block before the next
    block starts, so each block comes from memory once per call and from
    cache for the other columns.  When logc is a view of the cached table, a
    block after the first takes one mat-vec per column over the cached
    scaled = exp(logc - rowmax): column j's sums are
    sum_m scaled[n, m] exp(A[m, j] - max A[:e, j]), one exp per column entry
    instead of one per table entry.  At N <= _ROWSUM_N_CAP every
    lower-triangle entry of scaled is a normal float
    (log binom(1023, 511) < 705 < 708), so only the A side can underflow.
    The route is chosen per column: a column whose first row is bound to have
    a sum under _MATVEC_FLOOR (_MATVEC_GAP) skips the mat-vec, and a mat-vec
    with a sum under _MATVEC_FLOOR is dropped.  Those columns, and every
    column of the first block, take the max-shift route: each row's largest
    term is subtracted before the exp, which is exact to rounding however
    fast A grows.  In the first block that makes row 1 exactly A[0, j].
    The diagonal log binom(n-1, n-1) = 0 keeps every row maximum finite.
    """
    A2 = A if A.ndim == 2 else A[:, None]
    N, L = A2.shape
    entry = _cached_tables(logc)
    out = np.empty((N, L))

    def max_shift(s: int, e: int, cols: np.ndarray) -> None:
        step = max(1, _MAX_SHIFT_ENTRIES // ((e - s) * e))
        for i in range(0, len(cols), step):
            group = cols[i:i + step]
            out[s:e, group] = _max_shift_rows(logc, A2[:e, group], s, e)

    e = min(_ROWSUM_BLOCK, N)
    max_shift(0, e, np.arange(L))
    shift = A2[:e].max(axis=0)
    for s in range(_ROWSUM_BLOCK, N, _ROWSUM_BLOCK):
        e = min(s + _ROWSUM_BLOCK, N)
        head = np.maximum(shift, A2[s])           # max A2[:s + 1]
        shift = np.maximum(shift, A2[s:e].max(axis=0))  # max A2[:e]
        slow = np.ones(L, dtype=bool)
        if entry is not None:
            cols = np.flatnonzero(shift - head < _MATVEC_GAP)
            x = np.ascontiguousarray(A2[:e, cols].T)
            x -= shift[cols, None]
            np.exp(x, out=x)
            block = entry.scaled[s:e, :e]
            # one mat-vec per column while the block stays in cache; a BLAS-3
            # product would save the rereads, but the first level-3 call of
            # OpenBLAS makes 256 KiB of its buffer resident
            sums = np.array([block @ v for v in x]).reshape(len(cols), e - s)
            ok = sums.min(axis=1) >= _MATVEC_FLOOR
            cols = cols[ok]
            out[s:e, cols] = (np.log(sums[ok]) + entry.rowmax[s:e]
                              + shift[cols, None]).T
            slow[cols] = False
        max_shift(s, e, np.flatnonzero(slow))
    return out.reshape(A.shape)


def _band_start(logc: np.ndarray, A: np.ndarray, s: int, e: int) -> int:
    """First column of logc that rows s..e-1 of the max-shift route must
    read for the columns of A.

    Row n's largest term top_n is at least its diagonal term a_n, since
    logc[n, n] = 0, and logc[n, m] <= rowmax_n.  So a column m with
    a_m < min_n (a_n - rowmax_n) - 746 gives each row the shifted exponent
    x = logc[n, m] + a_m - top_n < -746, and exp(x) rounds to 0.0 exactly:
    leaving the column out changes only the grouping of the sum.  (Once a
    passes 2**52 the rounding of the cut and of x can leave such a term
    nonzero, but still far below the last bit of its row sum, which is at
    least 1.)  The band starts at the first column not below the cut of
    some column of A, so every column before it is below every cut, whether
    or not A is monotone.
    """
    entry = _cached_tables(logc)
    rowmax = (entry.rowmax[s:e] if entry is not None
              else logc[s:e, :e].max(axis=1))
    cut = (A[s:e] - rowmax[:, None]).min(axis=0) - _BAND_MARGIN
    return int((A[:e] >= cut).argmax(axis=0).min())


def _max_shift_rows(logc: np.ndarray, A: np.ndarray, s: int, e: int
                    ) -> np.ndarray:
    """Rows s..e-1 of `_log_rowsums` for the columns of A (at least e rows),
    each row's largest term taken out before the exp; the columns of logc
    before `_band_start` add 0.0 and are not read."""
    # the first block is too narrow for the band to pay
    m = _band_start(logc, A, s, e) if s else 0
    # one C-ordered (column, row, m) block, so each sum runs as in 1-D
    block = logc[s:e, m:e] + np.ascontiguousarray(A[m:e].T)[:, None, :]
    top = block.max(axis=2)
    block -= top[:, :, None]
    # Each sum is at least 1, its top term, so terms under e**-700 (even
    # 1024 of them) lie far below its last bit; raising them to e**-700
    # keeps exp off its slow path for -inf and for underflow.
    np.maximum(block, -700.0, out=block)
    np.exp(block, out=block)
    return (np.log(block.sum(axis=2)) + top).T


def delta_continuity_check(
    seq: AlphaSequence,
    k: int = 1,
    lmax: int | None = None,
    N: int | None = None,
    trend_params: TrendParams = DEFAULT_PARAMS,
) -> Verdict:
    """Continuity of the involutive alternating-binomial transform.

    Two evidence tracks that the theory makes equivalent on nuclear spaces:

    (1) row sums: for every k some l bounds
        sup_n sum_{m<=n} (w_k(n)/w_l(m)) binom(n-1, m-1),
        evaluated by log-sum-exp on a truncation capped at 1024 rows (the
        row-sum table is quadratic in N and the binomial mass saturates the
        trend long before that).  Each l is summed once per call.  The first
        time the scan reaches an l it has not summed, every l of that k'
        range not summed yet goes through one `_log_rowsums` call, which
        reads the table once for all of them, 64 rows at a time: per block,
        one mat-vec of the cached exp(log binom - row max) table against
        exp(alpha/l - max) for each l, or the per-entry max-shift route for
        the first block and for any l with a sum under 2**-960, where
        underflow could cost more than 2**-100 of it;
    (2) the scalar limit n/alpha_n -> 0.

    Decisive tracks must agree; disagreement is reported as inconclusive
    with both traces attached, never silently resolved.  For non-nuclear
    generators the equivalence is outside the stated scope of the theory,
    which is annotated but still evaluated.
    """
    N_full = N or default_resolution(seq)
    N1 = min(N_full, _ROWSUM_N_CAP)
    alpha = seq.values_saturated(N1)
    ns = np.arange(1, N1 + 1, dtype=np.int64)
    logc = _log_pascal(N1)
    # The row sums depend on l alone, and several k' of the window can
    # probe the same l.
    rowsums: dict[int, np.ndarray] = {}

    def per_pair(kp: int, l: int) -> Verdict:
        if l not in rowsums:
            lo, hi = _l_range(k, lmax, kp)
            ls = [m for m in range(lo, hi + 1) if m not in rowsums]
            sums = _log_rowsums(logc, alpha[:, None] / np.array(ls))
            rowsums.update(zip(ls, sums.T))
        q = rowsums[l] - alpha / kp
        return sup_verdict_bounded(
            ns, q, f"sum_m (w_{kp}(n)/w_{l}(m)) binom(n-1,m-1)", trend_params,
            extra={"alpha": seq.spec_string(), "k": kp, "l": l, "N": N1},
        )

    track_rows = _window_scan(k, lmax, per_pair,
                              "sum_m (w_k(n)/w_l(m)) binom(n-1,m-1)")
    track_scalar = n_over_alpha_check(seq, N_full, trend_params)
    nuc = nuclearity_check(seq, N_full, trend_params)

    params = {
        "alpha": seq.spec_string(),
        "k": k,
        "N_rowsum": N1,
        "N": N_full,
        "rowsum_outcome": track_rows.outcome,
        "rowsum_params": {kk: vv for kk, vv in track_rows.params.items()
                          if kk in ("chosen_l", "chosen_l_by_k", "l_range")},
        "scalar_outcome": track_scalar.outcome,
    }
    if nuc.outcome != HOLDS:
        params["scope_note"] = (
            "the row-sum/scalar equivalence is stated only for nuclear "
            "spaces; both tracks are still evaluated"
        )

    decisive_r = track_rows.outcome != INCONCLUSIVE
    decisive_s = track_scalar.outcome != INCONCLUSIVE
    if decisive_r and decisive_s:
        if track_rows.outcome != track_scalar.outcome:
            return Verdict(
                INCONCLUSIVE, track_rows.trend, track_rows.evidence,
                reason=(
                    "evidence tracks disagree: row sums say "
                    f"{track_rows.outcome}, the scalar limit says "
                    f"{track_scalar.outcome}"
                ),
                params={**params,
                        "scalar_evidence": track_scalar.evidence},
            )
        return Verdict(track_rows.outcome, track_rows.trend,
                       track_rows.evidence, witness=track_rows.witness,
                       params=params)
    if decisive_r:
        return Verdict(track_rows.outcome, track_rows.trend,
                       track_rows.evidence, witness=track_rows.witness,
                       params={**params, "note": "scalar track inconclusive"})
    if decisive_s:
        return Verdict(track_scalar.outcome, track_scalar.trend,
                       track_scalar.evidence, witness=track_scalar.witness,
                       params={**params, "note": "row-sum track inconclusive"})
    return Verdict(
        INCONCLUSIVE, track_rows.trend, track_rows.evidence,
        reason="both evidence tracks are inconclusive at this resolution",
        params=params,
    )


# -- space-level classification ------------------------------------------------


@dataclass(frozen=True)
class SpaceProfile:
    """Everything the criteria can say about the space built on one generator.

    inverse_continuous is carried explicitly (not just nuclear, to which it
    is provably equivalent) so that the equivalence itself stays observable
    as data; classify_space cross-checks the pair and warns on mismatch.
    """

    alpha: str
    N: int
    nuclear: Verdict
    v_alpha_value: float
    v_alpha: Verdict
    shift_stable: Verdict
    s1_nonempty: Verdict
    inverse_continuous: Verdict
    d_continuous: Verdict
    delta_continuous: Verdict
    n_over_alpha_zero: Verdict
    warnings: tuple = ()
    notes: tuple = ()


# (N, tol) of the S_1 scan, which brackets s0(1); disc_report reuses it
S1_SCAN = (10_000, 0.05)


def _s1_verdict(seq: AlphaSequence) -> Verdict:
    """Wrap s0_estimate into a Verdict on "S_1 is nonempty".

    The series scan keeps its own resolution, S1_SCAN: profile N values
    tuned for dense matrix work (tiny for fast-overflow generators) are
    either too small for a series verdict or needlessly large.
    """
    try:
        est = s0_estimate(seq, 1, N=S1_SCAN[0], tol=S1_SCAN[1])
    except SkEmptyError as err:
        return Verdict(
            FAILS, UNBOUNDED, (),
            witness={"s_cap": err.cap, "probed": err.probed},
            params={"alpha": seq.spec_string(), "k": 1,
                    "quantity": "existence of a convergent exponent"},
        )
    params = {
        "alpha": seq.spec_string(), "k": 1,
        "quantity": "existence of a convergent exponent",
        "s0_interval": (est.lo, est.hi),
        "s0_estimate": est.estimate,
        "status": est.status,
    }
    return Verdict(HOLDS, BOUNDED, tuple(est.probed), params=params)


def classify_space(seq: AlphaSequence, N: int | None = None) -> SpaceProfile:
    """Run every scalar diagnostic and criterion and cross-check the results.

    Component verdicts may individually be inconclusive; warnings fire only
    when two decisive verdicts contradict an implication the theory proves.
    """
    N = N or default_resolution(seq)
    nuclear = nuclearity_check(seq, N)
    v_value, v_verdict = v_alpha(seq, N)
    shift = shift_stability_check(seq, N)
    noa = n_over_alpha_check(seq, N)
    s1 = _s1_verdict(seq)
    inverse = inverse_continuity_check(seq, 1, N=N)
    d_cont = d_continuity_check(seq, 1, N=N)
    delta_cont = delta_continuity_check(seq, 1, N=N)

    warnings: list[str] = []
    notes: list[str] = []

    if v_verdict.outcome == HOLDS and nuclear.outcome == FAILS:
        warnings.append(
            "v(alpha) > 0 forces log(n)/alpha_n -> 0, but the nuclearity "
            "verdict failed"
        )
    if nuclear.outcome == HOLDS and s1.outcome == HOLDS:
        warnings.append(
            "nuclearity and a nonempty S_1 are mutually exclusive, yet both "
            "verdicts hold"
        )
    if inverse.outcome == HOLDS and nuclear.outcome == FAILS:
        warnings.append(
            "inverse continuity holds but nuclearity fails; the two are "
            "provably equivalent"
        )
    if inverse.outcome == FAILS and nuclear.outcome == HOLDS:
        warnings.append(
            "inverse continuity fails but nuclearity holds; the two are "
            "provably equivalent"
        )
    both = (nuclear.outcome, shift.outcome)
    if INCONCLUSIVE not in both and d_cont.outcome != INCONCLUSIVE:
        rhs = HOLDS if both == (HOLDS, HOLDS) else FAILS
        if d_cont.outcome != rhs:
            warnings.append(
                "the basis-shift operator's continuity verdict "
                f"({d_cont.outcome}) disagrees with nuclear+shift-stable "
                f"({rhs})"
            )
    if delta_cont.outcome == INCONCLUSIVE and delta_cont.reason.startswith(
            "evidence tracks disagree"):
        warnings.append("alternating-transform evidence tracks disagree: "
                        + delta_cont.reason)
    if "scope_note" in delta_cont.params:
        notes.append(str(delta_cont.params["scope_note"]))
    if s1.outcome == HOLDS:
        notes.append(
            f"s0(1) bracketed in {s1.params['s0_interval']} "
            f"({s1.params['status']})"
        )

    return SpaceProfile(
        alpha=seq.spec_string(),
        N=N,
        nuclear=nuclear,
        v_alpha_value=v_value,
        v_alpha=v_verdict,
        shift_stable=shift,
        s1_nonempty=s1,
        inverse_continuous=inverse,
        d_continuous=d_cont,
        delta_continuous=delta_cont,
        n_over_alpha_zero=noa,
        warnings=tuple(warnings),
        notes=tuple(notes),
    )


GALLERY_SPECS = (
    "linear",
    "power:beta=2",
    "sqrt",
    "log:beta=2",
    "psum:beta=1/2",
    "tower",
    "rsw_b",
    "s1_empty",
)


def gallery() -> tuple[AlphaSequence, ...]:
    """The eight named generators with their canonical parameters."""
    return tuple(parse_alpha(s) for s in GALLERY_SPECS)
