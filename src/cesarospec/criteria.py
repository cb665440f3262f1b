"""Continuity, compactness, and nuclearity criteria as three-state verdicts.

Every routine here evaluates a finite-resolution proxy for a genuine limit
statement about the weighted sup-norm space built on alpha.  Outcomes are
Verdicts: `holds` and `fails` are backed by a trend the classifier considers
decisive, everything else is `inconclusive` with a reason.  The quantities
themselves live in log scale throughout; prefix sums use log-sum-exp so the
only overflow that can occur is the criterion's own quantity genuinely
exceeding the float range, which is reported as a failure witness rather
than an arithmetic accident.

The for-every-k criteria are read from level k = 1: each scan probes the
window of base indices k' in {1, ..., 4}.  Several gallery generators
satisfy a criterion at k=1 for shallow reasons and only reveal the true
failure at k=2 or 3, so quantifying over a window keeps single-call verdicts
aligned with the for-every-k statements they stand in for.  Each k' is
probed at one secondary index l: the inverse and shift scans at l = 4k'+8,
where their quantities are least over (k', 4k'+8] (see _window_scan), and
the alternating transform's row sums at l = 2k' (see
delta_continuity_check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import claims
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
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    UNBOUNDED,
    Verdict,
    first_deciding,
    ladder,
    limit_verdict_zero,
    probe_escalation,
    sup_verdict_bounded,
)


# A weight family maps (level k, indices n) to log a_k(n).  Levels increase:
# a_k(n) <= a_{k+1}(n) for the families used here.
WeightFamily = Callable[[int, np.ndarray], np.ndarray]

K_WINDOW = 4


def default_lmax(k: int) -> int:
    """The secondary index the inverse and shift scans probe at level k."""
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
        ns, q, "(a_k(n)/n) * sum_{m<=n} 1/a_l(m)",
        extra={"k": k, "l": l, "N": N},
    )


def _window_scan(per_pair: Callable[[int, int], Verdict],
                 quantity: str,
                 l_of: Callable[[int], int] = default_lmax) -> Verdict:
    """One Verdict from the sup verdicts at (k', l_of(k')), k' = 1..K_WINDOW.

    holds: every k' in the window holds at its l.  fails: some k' failed
    decisively; the scan stops there.  Anything else is inconclusive.

    One l per level suffices.  The inverse and shift quantities,
    log n - (1/k' - 1/l) alpha_n and log n - alpha_n/k' + alpha_{n+1}/l,
    fall pointwise as l grows, since alpha > 0.  So l = default_lmax(k')
    bounds them whenever any l in (k', default_lmax(k')] does, and fails
    only where every such l fails: a search over that window finds nothing
    its top misses.  The row sums of delta_continuity_check name their l.
    """
    read: list[Verdict] = []

    def level(kp: int) -> Verdict:
        read.append(per_pair(kp, l_of(kp)))
        return read[-1]

    i, v = first_deciding(map(level, range(1, K_WINDOW + 1)))
    kp, l = 1 + i, l_of(1 + i)
    chosen = {k: l_of(k) for k, u in enumerate(read, 1) if u.outcome == HOLDS}
    if v.outcome == FAILS:
        return Verdict(
            FAILS, v.trend, v.evidence,
            witness={"k": kp, "l_range": (l, l)},
            params={**v.params, "quantity": quantity,
                    "chosen_l_by_k": chosen},
        )
    if v.outcome == INCONCLUSIVE:
        return Verdict(
            INCONCLUSIVE, UNBOUNDED if not chosen else BOUNDED, (),
            reason=f"growth at k'={kp} is sub-resolution at l={l}",
            params={"quantity": quantity, "k": 1, "chosen_l_by_k": chosen},
        )
    base = read[0]
    return Verdict(
        HOLDS, base.trend, base.evidence,
        params={**base.params, "quantity": quantity,
                "chosen_l": chosen[1], "chosen_l_by_k": chosen},
    )


def inverse_continuity_check(seq: AlphaSequence,
                             N: int | None = None) -> Verdict:
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
    labels, p_logn, p_alpha, _ = seq.tail_probes(N)

    def per_pair(kp: int, l: int) -> Verdict:
        c = 1.0 / kp - 1.0 / l
        q = logn - c * alpha
        v = sup_verdict_bounded(
            ns, q, f"log n - (1/{kp} - 1/{l}) alpha_n",
            extra={"alpha": seq.spec_string(), "k": kp, "l": l, "N": N},
        )
        return probe_escalation(v, labels, p_logn - c * p_alpha,
                                "probe_values_log")

    return _window_scan(per_pair, "log n - (1/k - 1/l) alpha_n")


def noncompactness_witness(seq: AlphaSequence,
                           N: int | None = None) -> Verdict:
    """Confirm unboundedness of A_1(n) = (w_2(n)/n) sum_{m<=n} 1/w_1(m).

    `holds` means unboundedness is confirmed, which is what rules out
    compactness of the averaging operator on the full space.  The direct sum
    is cross-checked against the elementary lower bound
    exp(alpha_n/2 - log n) obtained by keeping only the m=n term; either
    route growing decides.  The contradiction argument this quantity comes
    from assumes a nuclear space, so non-nuclear input is a precondition
    error rather than a verdict.
    """
    N = N or default_resolution(seq)
    nuc = nuclearity_check(seq, N)
    if nuc.outcome != HOLDS:
        raise PreconditionError(
            "noncompactness witness requires a nuclear space; nuclearity "
            f"verdict was {nuc.outcome!r} for alpha={seq.spec_string()}"
        )
    alpha = seq.values_saturated(N)
    ns = np.arange(1, N + 1, dtype=np.int64)
    logn = np.log(ns.astype(float))
    lse = np.logaddexp.accumulate(alpha)
    direct = -alpha / 2 - logn + lse
    lower = alpha / 2 - logn
    v_direct = sup_verdict_bounded(
        ns, direct, "A_k(n) = (w_2k(n)/n) sum_{m<=n} 1/w_k(m)",
        extra={"alpha": seq.spec_string(), "k": 1, "N": N},
    )
    v_lower = sup_verdict_bounded(
        ns, lower, "lower bound exp(alpha_n/2k)/n",
        extra={"alpha": seq.spec_string(), "k": 1, "N": N},
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


def banach_step_compactness(seq: AlphaSequence,
                            N: int | None = None) -> Verdict:
    """Compactness of the averaging operator on the single step c0(w_1).

    Criterion: (w_1(n)/n) * sum_{m<=n} 1/w_1(m) -> 0.  Note the contrast with
    noncompactness_witness: there the weight indices are mismatched (2 vs 1)
    because the full-space operator must move between steps; here one step is
    compared with itself.
    """
    N = N or default_resolution(seq)
    alpha = seq.values_saturated(N)
    ns = np.arange(1, N + 1, dtype=np.int64)
    logn = np.log(ns.astype(float))
    lse = np.logaddexp.accumulate(alpha)
    q = -alpha - logn + lse
    lad = ladder(N)
    return limit_verdict_zero(
        lad, q[lad - 1], "(w_k(n)/n) sum_{m<=n} 1/w_k(m)",
        extra={"alpha": seq.spec_string(), "k": 1, "N": N},
    )


def d_continuity_check(seq: AlphaSequence, N: int | None = None) -> Verdict:
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
            ns, q, f"n w_{kp}(n) / w_{l}(n+1)",
            extra={"alpha": seq.spec_string(), "k": kp, "l": l, "N": N},
        )

    return _window_scan(per_pair, "n w_k(n) / w_l(n+1)")


_ROWSUM_N_CAP = 1024
_ROWSUM_BLOCK = 64
# A block's mat-vec sums are kept only if every one is at least this.  Terms
# lost to underflow are below 2**-1074 each, so at most N * 2**-1074 in all,
# which is under 2**-100 of any sum that passes.
_MATVEC_FLOOR = 2.0 ** -960
# Row s of a block has s + 1 < 2**10 terms, each at most exp(max a[:s+1] -
# max a[:e]); past this gap their sum is under 2**-960, so the block would
# fail the floor and its mat-vec is skipped.
_MATVEC_GAP = 970 * math.log(2)
# exp(x) rounds to 0.0 for every x below -745.14; see _band_start.
_BAND_MARGIN = 746.0


class _PascalTable(NamedTuple):
    lf: np.ndarray        # log i!, one entry per row
    toeplitz: np.ndarray  # [n, m] = lf[n - m], +inf above the diagonal
    rowmax: np.ndarray    # the largest log binom(n-1, m-1) of each row
    blocks: tuple         # exp(logc - rowmax) per 64-row block, see below

    def logc(self, s: int, e: int, m: int) -> np.ndarray:
        """Rows s..e-1, columns m..e-1 of log binom(n-1, m-1), 1-based.

        Entry (n, m) is lf[n] - lf[m] - lf[n-m], the operations and order of
        `operators.logbinom`, so the bytes match it; the toeplitz view of lf
        padded with +inf makes the upper triangle -inf with no mask."""
        band = self.lf[s:e, None] - self.lf[None, m:e]
        band -= self.toeplitz[s:e, m:e]
        return band


# One entry, grown a block at a time to the largest N asked for so far.
_logc_cache: dict[int, _PascalTable] = {}


def _log_pascal(N: int) -> _PascalTable:
    """The cached log-Pascal table, covering at least N rows.

    It stores no N x N array: `_PascalTable.logc` computes the bands the
    max-shift route reads, and the mat-vec route reads only the lower
    triangle, as one C-contiguous exp(logc - rowmax) per 64-row block over
    the columns up to its last row (4.25 MiB at the cap, against 16 MiB for
    the square).  A block depends only on its rows, so growing appends.
    """
    if N > _ROWSUM_N_CAP:
        raise ValueError(f"log-Pascal table size {N} above {_ROWSUM_N_CAP}")
    entry = next(iter(_logc_cache.values()), None)
    if entry is None or len(entry.lf) < N:
        from .operators import _log_factorials

        rows = -(-N // _ROWSUM_BLOCK) * _ROWSUM_BLOCK
        lf = _log_factorials(rows - 1)[:rows]
        padded = np.concatenate((np.full(rows - 1, np.inf), lf))
        toeplitz = sliding_window_view(padded, rows)[:, ::-1]
        blocks, rowmax = (entry.blocks, [entry.rowmax]) if entry else ((), [])
        table = _PascalTable(lf, toeplitz, None, ())
        for s in range(len(blocks) * _ROWSUM_BLOCK, rows, _ROWSUM_BLOCK):
            block = table.logc(s, s + _ROWSUM_BLOCK, 0)
            rowmax.append(block.max(axis=1))
            block -= rowmax[-1][:, None]
            np.exp(block, out=block)
            block.setflags(write=False)
            blocks += (block,)
        rowmax = np.concatenate(rowmax)
        rowmax.setflags(write=False)
        entry = table._replace(rowmax=rowmax, blocks=blocks)
        _logc_cache.clear()
        _logc_cache[rows] = entry
    return entry


def _log_rowsums(a: np.ndarray) -> np.ndarray:
    """log sum_{m<=n} binom(n-1, m-1) exp(a[m]) for every row n.

    Rows go in 64-row blocks, and a block reads only the columns up to its
    last row; the entries beyond add nothing.  A block after the first takes
    one mat-vec over its cached block of `_log_pascal`, scaled =
    exp(logc - rowmax): its sums are sum_m scaled[n, m] exp(a[m] - max a[:e]),
    one exp per entry of a instead of one per table entry.  At
    N <= _ROWSUM_N_CAP every lower-triangle entry of scaled is a normal float
    (log binom(1023, 511) < 705 < 708), so only the a side can underflow.  A
    block whose first row is bound to have a sum under _MATVEC_FLOOR
    (_MATVEC_GAP) skips the mat-vec, and one whose mat-vec gives a sum under
    it discards the mat-vec.  Those blocks, and the first block, take the
    max-shift route over a band of logc computed on demand: each row's
    largest term is subtracted before the exp, exact to rounding however
    fast a grows (in the first block row 1 is exactly a[0]).  Every row
    maximum is finite: the diagonal is log binom(n-1, n-1) = 0.
    """
    N = len(a)
    table = _log_pascal(N)
    out = np.empty(N)
    e = min(_ROWSUM_BLOCK, N)
    out[:e] = _max_shift_rows(table, a, 0, e)
    shift = a[:e].max()
    for s in range(_ROWSUM_BLOCK, N, _ROWSUM_BLOCK):
        e = min(s + _ROWSUM_BLOCK, N)
        head = max(shift, a[s])            # max a[:s + 1]
        shift = max(shift, a[s:e].max())   # max a[:e]
        if shift - head < _MATVEC_GAP:
            block = table.blocks[s // _ROWSUM_BLOCK][:e - s, :e]
            sums = block @ np.exp(a[:e] - shift)
            if sums.min() >= _MATVEC_FLOOR:
                out[s:e] = np.log(sums) + table.rowmax[s:e] + shift
                continue
        out[s:e] = _max_shift_rows(table, a, s, e)
    return out


def _band_start(table: _PascalTable, a: np.ndarray, s: int, e: int) -> int:
    """First column of logc the max-shift route needs for rows s..e-1 of a.

    Row n's largest term top_n is at least its diagonal term a_n, since
    logc[n, n] = 0, and logc[n, m] <= rowmax_n.  So a column m with
    a_m < min_n (a_n - rowmax_n) - 746 gives each row the shifted exponent
    x = logc[n, m] + a_m - top_n < -746, and exp(x) rounds to 0.0 exactly:
    leaving the column out changes only the grouping of the sum.  (Once a
    passes 2**52 the rounding of the cut and of x can leave such a term
    nonzero, but still far below the last bit of its row sum, which is at
    least 1.)  The band starts at the first column not below the cut, so
    every column before it is below it, whether or not a is monotone.
    """
    cut = (a[s:e] - table.rowmax[s:e]).min() - _BAND_MARGIN
    return int((a[:e] >= cut).argmax())


def _max_shift_rows(table: _PascalTable, a: np.ndarray, s: int, e: int
                    ) -> np.ndarray:
    """Rows s..e-1 of `_log_rowsums` for a (at least e entries), each row's
    largest term taken out before the exp; the columns of logc before
    `_band_start` add 0.0 and are not computed."""
    # the first block is too narrow for the band to pay
    m = _band_start(table, a, s, e) if s else 0
    block = table.logc(s, e, m) + a[m:e]
    top = block.max(axis=1)
    block -= top[:, None]
    # Each sum is at least 1, its top term, so terms under e**-700 (even
    # 1024 of them) lie far below its last bit; raising them to e**-700
    # keeps exp off its slow path for -inf and for underflow.
    np.maximum(block, -700.0, out=block)
    np.exp(block, out=block)
    return np.log(block.sum(axis=1)) + top


def delta_continuity_check(seq: AlphaSequence,
                           N: int | None = None) -> Verdict:
    """Continuity of the involutive alternating-binomial transform.

    Two evidence tracks, which the theory makes equivalent:

    (1) row sums: for every k some l > k bounds
        sup_n sum_{m<=n} (w_k(n)/w_l(m)) binom(n-1, m-1),
        evaluated by `_log_rowsums` on a truncation capped at 1024 rows (the
        row-sum table is quadratic in N and the binomial mass saturates the
        trend long before that);
    (2) the scalar limit n/alpha_n -> 0.

    For every positive nondecreasing alpha the row sums obey

        2**(n-1) <= sum_{m<=n} binom(n-1, m-1) exp(alpha_m/l)
                 <= exp(alpha_n/l) 2**(n-1).

    By the upper bound, l = 2k bounds the row sums at k once
    (n-1) log 2 - alpha_n/(2k) is bounded above, as n/alpha_n -> 0 gives at
    every k.  By the lower bound the quantity at k is at least the envelope
    E_k(n) = (n-1) log 2 - alpha_n/k for every l, so once E_k is unbounded
    (at every k > liminf (alpha_n/n) / log 2) every l fails.  So each level
    k' = 1..K_WINDOW is probed at the one l = 2k': it holds when that row
    sum is bounded, and fails only when E_k' is decisively unbounded on the
    same grid.  A row sum at 2k' that grows while E_k' does not is
    inconclusive.

    Decisive tracks must agree; disagreement is reported as inconclusive
    with both traces attached, never silently resolved.
    """
    N_full = N or default_resolution(seq)
    N1 = min(N_full, _ROWSUM_N_CAP)
    alpha = seq.values_saturated(N1)
    ns = np.arange(1, N1 + 1, dtype=np.int64)
    extra = {"alpha": seq.spec_string(), "N": N1}

    def per_level(kp: int, l: int) -> Verdict:
        v = sup_verdict_bounded(
            ns, _log_rowsums(alpha / l) - alpha / kp,
            f"sum_m (w_{kp}(n)/w_{l}(m)) binom(n-1,m-1)",
            extra={**extra, "k": kp, "l": l})
        envelope = f"(n-1) log 2 - alpha_n/{kp}"
        if v.outcome != FAILS or sup_verdict_bounded(
                ns, (ns - 1) * math.log(2) - alpha / kp, envelope,
                extra={**extra, "k": kp}).outcome == FAILS:
            return v
        return Verdict(INCONCLUSIVE, v.trend, v.evidence, params=v.params,
                       reason=f"the row sum at l={l} grows, but not its "
                              f"lower envelope {envelope}")

    track_rows = _window_scan(per_level,
                              "sum_m (w_k(n)/w_l(m)) binom(n-1,m-1)",
                              l_of=lambda kp: 2 * kp)
    track_scalar = n_over_alpha_check(seq, N_full)
    outcomes = (track_rows.outcome, track_scalar.outcome)
    params = {
        "alpha": seq.spec_string(), "k": 1, "N_rowsum": N1, "N": N_full,
        "rowsum_outcome": outcomes[0],
        "rowsum_params": {kk: vv for kk, vv in track_rows.params.items()
                          if kk in ("chosen_l", "chosen_l_by_k")},
        "scalar_outcome": outcomes[1],
    }
    if INCONCLUSIVE not in outcomes and outcomes[0] != outcomes[1]:
        return Verdict(
            INCONCLUSIVE, track_rows.trend, track_rows.evidence,
            reason=f"evidence tracks disagree: row sums say {outcomes[0]}, "
                   f"the scalar limit says {outcomes[1]}",
            params={**params, "scalar_evidence": track_scalar.evidence})
    if outcomes == (INCONCLUSIVE, INCONCLUSIVE):
        return Verdict(
            INCONCLUSIVE, track_rows.trend, track_rows.evidence,
            reason="both evidence tracks are inconclusive at this resolution",
            params=params)
    track = track_scalar if outcomes[0] == INCONCLUSIVE else track_rows
    if INCONCLUSIVE in outcomes:
        other = "scalar" if track is track_rows else "row-sum"
        params["note"] = f"{other} track inconclusive"
    return Verdict(track.outcome, track.trend, track.evidence,
                   witness=track.witness, params=params)


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


def _s1_verdict(seq: AlphaSequence) -> Verdict:
    """Verdict on "S_1 is nonempty", read off the s0(1) bracket.

    Fails with the lower end's verdict when that end is unbounded, holds
    with the upper end's evidence when that end is bounded.
    """
    try:
        est = s0_estimate(seq, 1)
    except SkEmptyError as err:
        return err.verdict
    upper = est.hi_verdict
    if upper.outcome == HOLDS:
        return Verdict(HOLDS, BOUNDED, upper.evidence, params={
            **upper.params, "s0_interval": (est.lo, est.hi),
            "s0_estimate": est.estimate})
    return Verdict(
        INCONCLUSIVE, upper.trend, upper.evidence, params=upper.params,
        reason=upper.reason or "the upper end of the s0(1) bracket is "
                               "unbounded, the lower end not decisively")


def classify_space(seq: AlphaSequence, N: int | None = None) -> SpaceProfile:
    """Run every scalar diagnostic and criterion and cross-check the results.

    Component verdicts may individually be inconclusive; the warnings are
    the rows of claims.SPACE that the decisive verdicts contradict.
    """
    N = N or default_resolution(seq)
    nuclear = nuclearity_check(seq, N)
    v_value, v_verdict = v_alpha(seq, N)
    shift = shift_stability_check(seq, N)
    noa = n_over_alpha_check(seq, N)
    s1 = _s1_verdict(seq)
    inverse = inverse_continuity_check(seq, N=N)
    d_cont = d_continuity_check(seq, N=N)
    delta_cont = delta_continuity_check(seq, N=N)

    # nuclear and shift-stable, decisive only when both verdicts are
    both = (nuclear.outcome, shift.outcome)
    warnings = claims.check(claims.SPACE, {
        "v_alpha": v_verdict.outcome, "nuclear": nuclear.outcome,
        "s1_nonempty": s1.outcome, "inverse_continuous": inverse.outcome,
        "d_continuous": d_cont.outcome,
        "nuclear_and_shift": INCONCLUSIVE if INCONCLUSIVE in both
        else HOLDS if both == (HOLDS, HOLDS) else FAILS,
        "delta_rowsum": delta_cont.params["rowsum_outcome"],
        "delta_scalar": delta_cont.params["scalar_outcome"]})
    notes: list[str] = []
    if s1.outcome == HOLDS:
        notes.append(f"s0(1) bracketed in {s1.params['s0_interval']}")

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
