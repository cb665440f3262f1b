"""Finite-resolution verdicts for limit and boundedness claims.

Every analytic criterion in this package reduces to a claim about a scalar
sequence: "this tends to zero", "this stays bounded", "this series converges".
None of those claims is decidable from finitely many terms, so instead of a
boolean each check returns a three-state :class:`Verdict` backed by samples
taken along a geometric index ladder.  The classification rules below are
deliberately conservative: a verdict of ``holds`` or ``fails`` means the
sampled evidence is unambiguous at the chosen resolution, and anything
borderline comes back ``inconclusive`` with a reason string.

The rules read five fixed thresholds, the same for every verdict: ``WINDOW``
(tail length), ``ZERO_REL_TOL`` (reached zero), ``FLAT_BAND`` (stabilized),
``DECAY_STEP`` (clean decay) and ``RISE_TOTAL`` (clean growth).

All classification happens on the natural log of the quantity under test, so
overflow/underflow of the raw values never corrupts a verdict (-inf is a
legitimate log value meaning "exactly zero" or "underflowed").

Full-length passes run in numpy; the rules on ladder-scale samples run on
Python floats from ``tolist()`` with numpy's comparison semantics, -inf
included: a step is ``b - a`` as ``np.diff`` forms it (NaN between two -inf),
and means stay ``np.mean``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Iterable

import numpy as np

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"

# Trend labels attached to verdicts as supporting detail.
TO_ZERO = "to_zero"
POSITIVE_LIMIT = "positive_limit"
RISING = "rising"
OSCILLATING = "oscillating"
BOUNDED = "bounded"
UNBOUNDED = "unbounded"
UNDECIDED = "undecided"

# Log-scale value beyond which exp() would overflow float64 with headroom.
LOG_OVERFLOW = 690.0


# Fixed thresholds of the ladder classifiers.
# Number of trailing ladder samples examined by tail rules; at least 2, since
# a one-sample tail has spread 0 and a[-0:] is all of a.
WINDOW = 5
# Relative drop (vs the sample peak) accepted as "reached zero".
ZERO_REL_TOL = 1e-3
# Max log-spread of a tail considered stabilized.
FLAT_BAND = 0.01
# Min mean per-sample log-drop for a clean decay verdict.
DECAY_STEP = 0.02
# Min total log-rise over the tail for a clean growth verdict.
RISE_TOTAL = 0.1


@dataclass(frozen=True)
class Verdict:
    """Outcome of a finite-resolution check.

    outcome is one of ``holds`` / ``fails`` / ``inconclusive``.  evidence is a
    tuple of (index, sampled value) pairs along the ladder; the meaning of the
    value (and its scale) is stated in params["quantity"].  A ``fails`` verdict
    always carries a witness identifying where the claim breaks; an
    ``inconclusive`` one always carries a reason.
    """

    outcome: str
    trend: str
    evidence: tuple = ()
    witness: Any = None
    reason: str = ""
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.outcome not in (HOLDS, FAILS, INCONCLUSIVE):
            raise ValueError(f"bad outcome {self.outcome!r}")
        if self.outcome == FAILS and self.witness is None:
            raise ValueError("failing verdict must name a witness")
        if self.outcome == INCONCLUSIVE and not self.reason:
            raise ValueError("inconclusive verdict must carry a reason")

    def __bool__(self) -> bool:
        # Deliberately undefined: a three-state verdict must not be used as a
        # boolean, that is exactly the bug this type exists to prevent.
        raise TypeError("Verdict is three-state; test .outcome explicitly")


def first_deciding(verdicts: Iterable[Verdict]) -> tuple[int, Verdict]:
    """Join verdicts under "every item holds"; return the deciding (index,
    verdict).

    The first failing verdict decides and nothing after it is read.
    Without one the first inconclusive verdict decides, and otherwise the
    last verdict stands for the whole run.
    """
    pending = last = None
    for i, v in enumerate(verdicts):
        if v.outcome == FAILS:
            return i, v
        if pending is None and v.outcome == INCONCLUSIVE:
            pending = (i, v)
        last = (i, v)
    if last is None:
        raise ValueError("no verdicts to combine")
    return pending or last


@lru_cache(maxsize=256)
def ladder(N: int, start: int = 2) -> np.ndarray:
    """Geometric sample indices start <= n <= N, roughly sqrt(2) apart.

    The last entry is always N itself so the final sample sits at full
    resolution.  The array is cached and shared, so it is read-only.
    """
    if N < 1:
        raise ValueError("N must be positive")
    out: list[int] = []
    j = 0
    while True:
        n = math.ceil(2 ** (j / 2))
        j += 1
        if n >= N:
            break
        if n >= start and (not out or n > out[-1]):
            out.append(n)
    if not out or out[-1] != N:
        if N >= start or not out:
            out.append(N)
    lad = np.array(out, dtype=np.int64)
    lad.setflags(write=False)
    return lad


def classify_limit(ns: np.ndarray, logs: np.ndarray) -> tuple[str, Any]:
    """Classify the limiting behaviour of a nonnegative quantity from log samples.

    Returns (trend, detail) where trend is one of TO_ZERO, POSITIVE_LIMIT,
    RISING, OSCILLATING, UNDECIDED.  detail is the estimated limit for
    POSITIVE_LIMIT and the witness index for RISING/OSCILLATING.  The limit
    estimate saturates at math.inf when the tail's mean log is past float
    range (above about 709.78).

    Rules are applied in order; -inf entries mean the quantity underflowed or
    is exactly zero there.
    """
    t = np.asarray(logs, dtype=float).tolist()
    if len(ns) != len(t) or not t:
        raise ValueError("need matching nonempty samples")
    if not all(x < math.inf for x in t):
        raise ValueError("limit samples must be finite or -inf")

    peak = max(t)
    if peak == -math.inf:
        return TO_ZERO, None

    tail = t[-WINDOW:]

    # Reached-zero rule: the whole tail is far below the peak and not climbing.
    if max(tail) <= peak + math.log(ZERO_REL_TOL) and tail[-1] <= tail[0]:
        return TO_ZERO, None

    if -math.inf in tail:
        # Underflow mixed with large values: no stable reading.
        return UNDECIDED, None

    # Stabilized at a level comparable to the peak.
    spread = max(tail) - min(tail)
    if spread <= FLAT_BAND:
        try:
            return POSITIVE_LIMIT, math.exp(np.mean(tail))
        except OverflowError:
            return POSITIVE_LIMIT, math.inf

    steps = [b - a for a, b in zip(tail, tail[1:])]
    if all(d < 0 for d in steps) and -float(np.mean(steps)) >= DECAY_STEP:
        return TO_ZERO, None
    if all(d >= 0 for d in steps) and tail[-1] - tail[0] >= RISE_TOTAL:
        return RISING, int(ns[-1])
    if spread >= RISE_TOTAL:
        return OSCILLATING, int(ns[tail.index(max(tail)) - len(tail)])
    return UNDECIDED, None


def _limit_verdict(claim, reason, ns, logs, quantity, extra) -> Verdict:
    """Verdict for the claim "the limit trend is ``claim``" (TO_ZERO or
    POSITIVE_LIMIT); an undecided tail is inconclusive with ``reason``."""
    trend, detail = classify_limit(ns, logs)
    idx = np.asarray(ns).astype(np.int64, copy=False).tolist()
    ev = tuple(zip(idx, np.asarray(logs, dtype=float).tolist()))
    info = {"quantity": quantity, "scale": "log"}
    if extra:
        info.update(extra)
    if trend == POSITIVE_LIMIT:
        info["limit_estimate"] = detail
    if trend == claim:
        return Verdict(HOLDS, trend, ev, params=info)
    if trend in (TO_ZERO, POSITIVE_LIMIT):
        return Verdict(FAILS, trend, ev, witness=idx[-1], params=info)
    if trend in (RISING, OSCILLATING):
        return Verdict(FAILS, trend, ev, witness=detail, params=info)
    return Verdict(INCONCLUSIVE, UNDECIDED, ev, reason=reason, params=info)


def limit_verdict_zero(
    ns: np.ndarray,
    logs: np.ndarray,
    quantity: str,
    extra: dict | None = None,
) -> Verdict:
    """Verdict for the claim "quantity tends to zero"."""
    return _limit_verdict(
        TO_ZERO,
        "tail neither vanishes, stabilizes, nor grows cleanly at this resolution",
        ns, logs, quantity, extra)


def limit_verdict_positive(
    ns: np.ndarray,
    logs: np.ndarray,
    quantity: str,
    extra: dict | None = None,
) -> Verdict:
    """Verdict for the claim "quantity tends to a finite positive limit"."""
    return _limit_verdict(
        POSITIVE_LIMIT, "tail does not stabilize at this resolution",
        ns, logs, quantity, extra)


_ZERO = np.zeros(1, dtype=np.intp)


def _running_extreme(ufunc, values: np.ndarray, pos: np.ndarray) -> tuple:
    """(ufunc.accumulate(values)[pos], ufunc.reduce(values)) for np.maximum
    or np.minimum, from one reduce per segment between the nondecreasing
    positions pos (repeats allowed) instead of a full-length accumulate.

    Segment i is values[pos[i-1]:pos[i]], from 0 for i = 0 and to the end
    after the last; reduceat reads a repeated position's empty segment as
    the entry there, which lies in the prefix anyway.  The extreme up to
    pos[i] is the prefix extreme of segments 0..i joined with
    values[pos[i]].  max and min only select and never round, so each entry
    equals the accumulate's, NaN and -inf included, save that of tied zeros
    reduce may pick the other sign.
    """
    seg = ufunc.accumulate(ufunc.reduceat(values, np.concatenate((_ZERO, pos))))
    return ufunc(seg[:-1], values[pos]), seg[-1]


def _sup_scan(ns, logs) -> tuple:
    """(trend, detail, ladder checkpoints, running sup there) for
    classify_sup and sup_verdict_bounded.  The running sup at checkpoint n
    is max(logs[:i + 1]) for the last i with ns[i] <= n, read by
    _running_extreme; the overall max is NaN if any sample is.  No
    checkpoint lies below ns[0]: ladder(N, start) starts at start or above.
    """
    ns = np.asarray(ns)
    logs = np.asarray(logs, dtype=float)
    if len(ns) != len(logs) or len(ns) == 0:
        raise ValueError("need matching nonempty samples")
    lad = ladder(int(ns[-1]), start=int(ns[0]))
    pos = np.searchsorted(ns, lad, side="right") - 1
    running, top = _running_extreme(np.maximum, logs, pos)
    top = float(top)
    if top != top:
        raise ValueError("sup samples must not be NaN")
    checkpoints = running.tolist()
    scan = (lad.tolist(), checkpoints)

    if top >= LOG_OVERFLOW:
        return (UNBOUNDED, int(ns[int(np.argmax(logs >= LOG_OVERFLOW))])) + scan

    tail = checkpoints[-WINDOW:]
    if len(tail) >= 2 and all(b - a > 0 for a, b in zip(tail, tail[1:])) \
            and tail[-1] - tail[0] >= RISE_TOTAL:
        return (UNBOUNDED, int(ns[int(np.argmax(logs))])) + scan

    # Bounded requires the running sup to be flat over a long trailing stretch,
    # not just the last few checkpoints.
    tail_b = checkpoints[-max(WINDOW, len(checkpoints) // 4):]
    if max(tail_b) - min(tail_b) <= FLAT_BAND:
        # Guard: a pointwise tail still climbing toward the sup means the
        # flatness may be an artifact of an early transient peak.
        pw_tail = logs[pos[-WINDOW:]].tolist()
        climbing = (
            len(pw_tail) >= 2
            and all(b - a >= 0 for a, b in zip(pw_tail, pw_tail[1:]))
            and pw_tail[-1] - pw_tail[0] >= RISE_TOTAL
        )
        if climbing:
            return (UNDECIDED, None) + scan
        return (BOUNDED, checkpoints[-1]) + scan
    return (UNDECIDED, None) + scan


def classify_sup(ns: np.ndarray, logs: np.ndarray) -> tuple[str, Any]:
    """Classify whether sup of a nonnegative quantity is finite.

    ns/logs are pointwise samples over a dense increasing index grid (log
    scale, -inf allowed).  Internally tracks the running sup at ladder
    checkpoints.  Returns (trend, detail): UNBOUNDED with a witness index,
    BOUNDED with the log of the observed sup, or UNDECIDED.
    """
    return _sup_scan(ns, logs)[:2]


def sup_verdict_bounded(
    ns: np.ndarray,
    logs: np.ndarray,
    quantity: str,
    extra: dict | None = None,
) -> Verdict:
    """Verdict for the claim "sup over all indices is finite".

    Evidence records the running sup at ladder checkpoints (log scale).
    """
    trend, detail, lad, sups = _sup_scan(ns, logs)
    ev = tuple(zip(lad, sups))
    info = {"quantity": quantity, "scale": "log", "evidence_kind": "running_sup"}
    if extra:
        info.update(extra)
    if trend == BOUNDED:
        info["sup_log"] = detail
        return Verdict(HOLDS, trend, ev, params=info)
    if trend == UNBOUNDED:
        return Verdict(FAILS, trend, ev, witness=detail, params=info)
    return Verdict(
        INCONCLUSIVE, UNDECIDED, ev,
        reason="running sup neither stabilizes nor grows cleanly at this resolution",
        params=info,
    )


def probe_escalation(
    verdict: Verdict,
    probe_labels: list[str],
    probe_logs: np.ndarray,
    field: str,
) -> Verdict:
    """Re-examine a non-failing sup verdict against beyond-N probe values.

    A dense truncation can look flat while the quantity creeps upward at a
    rate below the trend classifier's floor; probe values several orders of
    magnitude beyond N expose that.  The dense sup is the largest evidence
    value, the last running-sup point.  Escalation needs the probes above it
    to keep growing: a single early transient is not evidence of an unbounded
    sup.  Only the first few exceeding probes are trusted for the
    monotonicity test because very deep probes may sit in the saturated
    regime of the generator where differences flatten artificially.  The
    probe values are recorded in the verdict params under ``field``.
    """
    if verdict.outcome == FAILS or len(probe_logs) == 0:
        return verdict
    dense_sup = max((v for _, v in verdict.evidence), default=-math.inf)
    beyond = probe_logs > dense_sup + RISE_TOTAL
    if not np.any(beyond):
        return verdict
    idx = np.flatnonzero(beyond)
    lead = probe_logs[idx][:10]
    params = {**verdict.params, field: tuple(float(v) for v in probe_logs)}
    if len(lead) >= 2 and np.all(np.diff(lead) > -1e-12):
        return Verdict(FAILS, RISING, verdict.evidence,
                       witness=probe_labels[int(idx[0])], params=params)
    return Verdict(
        INCONCLUSIVE, verdict.trend, verdict.evidence,
        reason="beyond-N probes exceed the dense sup but do not trend",
        params=params,
    )
