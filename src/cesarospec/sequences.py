"""Exponent sequences, weight families, and scalar space diagnostics.

The sequence space studied by this package is a weighted intersection space:
fix an increasing positive exponent sequence alpha and let the space consist
of all scalar sequences x such that w_k(n) x_n -> 0 for every k >= 1, where

    w_k(n) = exp(-alpha_n / k).

Growth features of alpha alone decide the operator theory on the space: the
behaviour of log(n)/alpha_n (nuclearity of the space), the infimum of the
gaps alpha_{n+1} - alpha_n, the ratios alpha_{n+1}/alpha_n, and convergence of
the exponential series sum_n exp(alpha_n/k) / n^s.  This module provides a
gallery of alpha generators, the weight family, and finite-resolution
verdicts for those scalar diagnostics.

Every generator can report values beyond the working resolution through
closed or asymptotic forms (``alpha_at`` and ``tail_probes``); the series and
ratio diagnostics use those probes to catch divergence that only shows up far
past any affordable dense range.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import (
    ROUND_HALF_EVEN, Context, Decimal, DivisionByZero, InvalidOperation,
    Overflow, localcontext,
)
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import InternalConsistencyError, RepresentationError, SkEmptyError
from .trend import (
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    LOG_OVERFLOW,
    RISING,
    UNDECIDED,
    DEFAULT_PARAMS,
    TrendParams,
    Verdict,
    ladder,
    limit_verdict_positive,
    limit_verdict_zero,
    probe_escalation,
    sup_verdict_bounded,
)

# Values are saturated here instead of overflowing; everything this large is
# "effectively infinite" for every diagnostic in the package.
ALPHA_SATURATION = 1e300
# log j values in the sparse-block generator are saturated lower so that
# k * log(j) products stay representable.
_LOG_SATURATION = 1e200

_KNOWN_KINDS = (
    "linear", "power", "sqrt", "log", "psum", "tower", "rsw_b", "s1_empty",
    "table",
)

# Largest n with n^n representable in float64.
_TOWER_FLOAT_LIMIT = 143


@dataclass(frozen=True)
class TailProbe:
    """A beyond-resolution sample of alpha.

    log_n is the natural log of the index (the index itself may not be float
    representable); alpha and alpha_prev are the (saturated) values at that
    index and the one before it.
    """

    label: str
    log_n: float
    alpha: float
    alpha_prev: float


# Bernoulli numbers B_2, B_4, ..., B_48 as (numerator, denominator).
_BERNOULLI = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
    (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
    (-236364091, 2730), (8553103, 6), (-23749461029, 870),
    (8615841276005, 14322), (-7709321041217, 510), (2577687858367, 6),
    (-26315271553053477373, 1919190), (2929993913841559, 6),
    (-261082718496449122051, 13530), (1520097643918070802691, 1806),
    (-27833269579301024235023, 690), (596451111593912163277961, 282),
    (-5609403368997817686249127547, 46410),
)
# Every field pinned, so that no caller's decimal context leaks in.
_ZETA_CONTEXT = Context(
    prec=30, rounding=ROUND_HALF_EVEN, Emin=-999999, Emax=999999,
    capitals=1, clamp=0, flags=[],
    traps=[InvalidOperation, DivisionByZero, Overflow],
)


@lru_cache(maxsize=None)
def _zeta(beta: float) -> float:
    """Riemann zeta(beta) for 0 < beta < 1, rounded to the nearest float.

    Euler-Maclaurin summation (Edwards, Riemann's Zeta Function, 6.4) with
    N = 8: the terms j^-s for j < N, then N^(1-s)/(s-1) + N^-s/2, then
    B_2k/(2k)! s(s+1)...(s+2k-2) N^(-s-2k+1) for k = 1..24, all in a local
    30-digit decimal context.  The dropped remainder is about
    (48 / (2 pi e N))^48, near 1e-22 relative.  The local context keeps the
    float independent of the caller's decimal state, so the cached value does
    not depend on which call came first.
    """
    with localcontext(_ZETA_CONTEXT):
        s = Decimal(beta)
        # j^-s for j = 2..8 as exp(-s ln j): several times cheaper than **
        *direct, a = [(-s * Decimal(j).ln()).exp() for j in range(2, 9)]
        total = 1 + sum(direct) + 8 * a / (s - 1) + a / 2
        # t is the k-th term without its Bernoulli number
        t = a * s / 16
        for k, (num, den) in enumerate(_BERNOULLI, start=1):
            total += t * num / den
            t = t * (s + 2 * k - 1) * (s + 2 * k) \
                / ((2 * k + 1) * (2 * k + 2) * 64)
        return float(total)


def _psum_asymptotic(ns: np.ndarray, beta: float) -> np.ndarray:
    # Euler-Maclaurin for sum_{j<=n} j^-beta, 0 < beta < 1.  Against mpmath's
    # Hurwitz zeta at beta = 1/2 the absolute error is below 3e-9 for n >= 50
    # and below 2.4e-11 for n >= 200; the dropped term falls like n^(-beta-3).
    return (
        ns ** (1.0 - beta) / (1.0 - beta)
        + _zeta(beta)
        + 0.5 * ns ** (-beta)
        - beta / 12.0 * ns ** (-beta - 1.0)
    )


def _sparse_block_table(
    limit_log: float, max_blocks: int = 400
) -> tuple[list[int], list[float]]:
    """Block start indices j(k) and their logs for the sparse-block generator.

    j(1) = 1 and j(k+1) = 2 (k+1) j(k)^k.  Exact ints are kept while they fit
    comfortably; the log recursion continues (saturated) afterwards so block
    positions remain usable far beyond float range.
    """
    js: list[int] = [1]
    logs: list[float] = [0.0]
    while logs[-1] <= limit_log and len(js) < max_blocks:
        k = len(js)
        y = math.log(2 * (k + 1)) + k * logs[-1]
        y = min(y, _LOG_SATURATION)
        logs.append(y)
        if js[-1] is not None and y < 700:
            js.append(2 * (k + 1) * js[-1] ** k)
        else:
            js.append(None)  # type: ignore[arg-type]
    return js, logs


class AlphaSequence:
    """One member of the exponent-sequence gallery.

    Instances are immutable descriptors; dense values are computed on demand
    and cached.  ``values`` is exact-as-float and raises if an entry exceeds
    float range, ``values_saturated`` clips instead, and ``alpha_at`` extends
    the sequence past any dense range through closed or asymptotic forms.
    """

    def __init__(self, kind: str, **params):
        if kind not in _KNOWN_KINDS:
            raise ValueError(f"unknown alpha kind {kind!r}")
        self.kind = kind
        self.params = dict(params)
        self._cache: np.ndarray | None = None
        self._probes: dict[tuple[int, int], tuple[TailProbe, ...]] = {}
        self.notes: tuple[str, ...] = ()
        self._validate()

    # -- construction helpers -------------------------------------------------

    @classmethod
    def table(cls, values, step=None) -> "AlphaSequence":
        vals = tuple(Fraction(v) for v in values)
        if step is None:
            step = vals[-1] - vals[-2] if len(vals) >= 2 else Fraction(1)
        return cls("table", values=vals, step=Fraction(step))

    _PARAM_NAMES = {
        "power": {"beta"}, "log": {"beta"}, "psum": {"beta"},
        "table": {"values", "step"},
    }

    def _validate(self) -> None:
        notes: list[str] = []
        kind, p = self.kind, self.params
        allowed = self._PARAM_NAMES.get(kind, set())
        if set(p) != allowed:
            raise ValueError(
                f"{kind} takes parameters {sorted(allowed)}, got {sorted(p)}"
            )
        if kind == "power":
            if p["beta"] <= 0:
                raise ValueError("power exponent must be positive")
        elif kind == "log":
            if p["beta"] <= 0:
                raise ValueError("log scale must be positive")
        elif kind == "psum":
            if not 0 < p["beta"] < 1:
                raise ValueError("partial-sum exponent must lie in (0, 1)")
        elif kind == "table":
            vals = p["values"]
            if not vals:
                raise ValueError("table needs at least one value")
            if vals[0] <= 0:
                raise ValueError("table values must be positive")
            if any(b < a for a, b in zip(vals, vals[1:])):
                raise ValueError("table values must be nondecreasing")
            if p["step"] < 0:
                raise ValueError("table tail step must be nonnegative")
            try:
                floats = [float(v) for v in (*vals, p["step"])]
            except OverflowError:
                floats = None
            # the values are positive here, so a float of 0.0 has underflowed
            if floats is None or 0.0 in floats[:-1]:
                raise ValueError(
                    "table values and step must lie within float range")
            if p["step"] == 0:
                notes.append("constant tail: alpha is bounded, space degenerates")
        a1 = float(self.values(1)[0])
        if a1 <= 1.0:
            # Several bound constants below assume alpha_1 > 1; verdicts stay
            # valid but the note is surfaced in profiles.
            notes.append("alpha_1 <= 1")
        self.notes = tuple(notes)

    # -- identity --------------------------------------------------------------

    def spec_string(self) -> str:
        """Grammar form accepted by parse_alpha (stable across sessions)."""
        kind, p = self.kind, self.params
        if kind in ("linear", "sqrt", "tower", "rsw_b", "s1_empty"):
            return kind
        if kind in ("power", "log", "psum"):
            beta = p["beta"]
            text = f"{beta:g}"
            # :g keeps the short form where it is exact (0.5, 2, 1e-07);
            # repr is the shortest text that reparses to the same float
            return f"{kind}:beta={text if float(text) == beta else repr(beta)}"
        vals = ",".join(str(v) for v in p["values"])
        return f"table:[{vals}]:step={p['step']}"

    def __repr__(self) -> str:
        return f"AlphaSequence({self.spec_string()!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlphaSequence)
            and self.kind == other.kind
            and self.params == other.params
        )

    def __hash__(self) -> int:
        return hash(self.spec_string())

    # -- dense values ----------------------------------------------------------

    def _compute(self, N: int) -> np.ndarray:
        """Dense alpha_1 .. alpha_N.  Only the forms that must differ from
        alpha_at live here; every other kind reads its closed form."""
        ns = np.arange(1, N + 1, dtype=float)
        kind, p = self.kind, self.params
        if kind == "power":
            # unclipped, so that values() refuses entries beyond float range
            return ns ** p["beta"]
        if kind == "psum":
            return np.cumsum(ns ** (-p["beta"]))
        if kind == "tower":
            # n^n as a power: closer than the closed form exp(n log n)
            out = np.full(N, np.inf)
            m = min(N, _TOWER_FLOAT_LIMIT)
            out[:m] = ns[:m] ** ns[:m]
            return out
        if kind == "s1_empty":
            js, _ = _sparse_block_table(math.log(N) + 1)
            out = np.empty(N)
            for k in range(1, len(js)):
                if js[k - 1] is None or js[k - 1] > N:
                    break
                lo = js[k - 1]
                hi = min(N, (js[k] - 1) if js[k] is not None else N)
                if hi < lo:
                    continue
                beta = float(k * js[k - 1] ** k)
                idx = np.arange(lo, hi + 1, dtype=float)
                out[lo - 1:hi] = np.log(beta + 3.0 - 1.0 / idx)
            return out
        if kind == "table":
            # unclipped, so that values() refuses a tail beyond float range
            return self._table_at(ns)
        return self.alpha_at(ns)

    def _dense(self, N: int) -> np.ndarray:
        """Cached, read-only, unclipped alpha_1 .. alpha_N."""
        if N < 1:
            raise ValueError("N must be positive")
        if self._cache is None or len(self._cache) < N:
            arr = self._compute(max(N, 16))
            arr.flags.writeable = False
            self._cache = arr
        return self._cache[:N]

    def values(self, N: int) -> np.ndarray:
        """alpha_1 .. alpha_N as float64; raises if any entry exceeds float range."""
        out = self._dense(N)
        if not np.all(np.isfinite(out)):
            bad = int(np.argmin(np.isfinite(out))) + 1
            raise RepresentationError(
                f"alpha_{bad} of {self.spec_string()} exceeds float64 range; "
                f"use values_saturated or alpha_at"
            )
        return out

    def values_saturated(self, N: int) -> np.ndarray:
        """Like values() but entries beyond float range are clipped, not errors."""
        return np.minimum(self._dense(N), ALPHA_SATURATION)

    def exact_values(self, N: int) -> Optional[list[Fraction]]:
        """Exact rational alpha prefix, or None when entries are irrational."""
        kind, p = self.kind, self.params
        if kind == "linear":
            return [Fraction(n) for n in range(1, N + 1)]
        if kind == "power" and float(p["beta"]).is_integer():
            b = int(p["beta"])
            return [Fraction(n ** b) for n in range(1, N + 1)]
        if kind == "tower":
            return [Fraction(n ** n) for n in range(1, N + 1)]
        if kind == "rsw_b":
            out = [Fraction(2)]
            for n in range(2, N + 1):
                out.append(Fraction(3 * n, 2) if n % 2 == 0 else Fraction(3 * n + 1, 2))
            return out
        if kind == "table":
            vals, step = p["values"], p["step"]
            out = list(vals[:N])
            while len(out) < N:
                out.append(out[-1] + step)
            return out
        return None

    # -- beyond-resolution forms -------------------------------------------------

    def alpha_at(self, ns) -> np.ndarray:
        """alpha at arbitrary (float) indices via closed/asymptotic forms.

        Saturates at 1e300.  For the partial-sum generator the asymptotic
        form is used from n >= 50 (absolute error below 3e-9 at beta = 1/2);
        exact below.  The sparse-block generator has no pointwise form here:
        its probes come from the block table in tail_probes.
        """
        ns = np.atleast_1d(np.asarray(ns, dtype=float))
        kind, p = self.kind, self.params
        if kind == "s1_empty":
            raise ValueError("s1_empty has no closed form for alpha_at; "
                             "use tail_probes for its beyond-N samples")
        if kind == "linear":
            return ns.copy()
        if kind == "power":
            with np.errstate(over="ignore"):
                return np.minimum(ns ** p["beta"], ALPHA_SATURATION)
        if kind == "sqrt":
            return np.sqrt(ns)
        if kind == "log":
            return p["beta"] * np.log(ns + 1.0)
        if kind == "psum":
            out = _psum_asymptotic(np.maximum(ns, 50.0), p["beta"])
            small = ns < 50
            if np.any(small):
                exact = np.cumsum(np.arange(1, 50) ** (-p["beta"]))
                out[small] = exact[ns[small].astype(int) - 1]
            return out
        if kind == "tower":
            expo = ns * np.log(np.maximum(ns, 1.0))
            with np.errstate(over="ignore"):
                return np.where(expo > 690.0, ALPHA_SATURATION, np.exp(expo))
        if kind == "rsw_b":
            out = np.where(np.round(ns) % 2 == 0, 1.5 * ns, 1.5 * ns + 0.5)
            return np.where(ns <= 1.0, 2.0, out)
        if kind == "table":
            return np.minimum(self._table_at(ns), ALPHA_SATURATION)
        raise AssertionError(kind)

    def _table_at(self, ns: np.ndarray) -> np.ndarray:
        """The table and its linear tail at float indices, unclipped: a tail
        past float range is inf."""
        vals, step = self.params["values"], self.params["step"]
        m = len(vals)
        with np.errstate(over="ignore"):
            out = float(vals[-1]) + float(step) * (ns - m)
        small = ns <= m
        if np.any(small):
            dense = np.array([float(v) for v in vals])
            out[small] = dense[ns[small].astype(int) - 1]
        return out

    def tail_probes(self, N: int, count: int = 24) -> tuple[TailProbe, ...]:
        """Samples of alpha past index N for divergence-at-infinity checks.

        Default: doubling indices N*2^t.  The sparse-block generator instead
        probes the start of every block beyond N, because its interesting
        behaviour is concentrated there.  Computed once per (N, count).
        """
        key = (N, count)
        if key not in self._probes:
            self._probes[key] = tuple(self._tail_probes(N, count))
        return self._probes[key]

    def _tail_probes(self, N: int, count: int) -> list[TailProbe]:
        if self.kind == "s1_empty":
            _, ylogs = _sparse_block_table(math.inf)
            probes = []
            logN = math.log(N)
            for k in range(2, len(ylogs)):
                y = ylogs[k - 1]  # log j(k)
                if y <= logN:
                    continue
                alpha = min(math.log(k) + k * y, ALPHA_SATURATION)
                prev = min(math.log(k - 1) + (k - 1) * ylogs[k - 2], ALPHA_SATURATION)
                probes.append(TailProbe(f"block k={k}", y, alpha, prev))
            return probes
        probes = []
        for t in range(1, count + 1):
            n = float(N) * 2.0 ** t
            if n > 4e12:
                break
            a, ap = self.alpha_at(np.array([n, n - 1.0]))
            probes.append(TailProbe(f"n={n:.0f}", math.log(n), float(a), float(ap)))
        return probes


_ALPHA_RE = re.compile(r"^(\w+)(:.*)?$")


def parse_alpha(text: str) -> AlphaSequence:
    """Parse a generator description.

    Grammar: ``linear | power:beta=<r> | sqrt | log:beta=<r> | psum:beta=<r> |
    tower | rsw_b | s1_empty | table:[v1,v2,...]`` with an optional
    ``:step=<r>`` suffix for table.  Numbers may be integers, decimals, or
    fractions like 3/2.
    """
    text = text.strip()
    m = _ALPHA_RE.match(text)
    if text.startswith("table:"):
        rest = text[len("table:"):]
        lm = re.match(r"^\[([^\]]*)\](?::step=([^:]+))?$", rest)
        if not lm:
            raise ValueError(f"bad table syntax {text!r}")
        vals = [Fraction(v.strip()) for v in lm.group(1).split(",") if v.strip()]
        step = Fraction(lm.group(2)) if lm.group(2) else None
        return AlphaSequence.table(vals, step=step)
    if not m:
        raise ValueError(f"bad alpha description {text!r}")
    kind, rest = m.group(1), m.group(2)
    kwargs = {}
    if rest:
        for piece in rest[1:].split(":"):
            key, _, val = piece.partition("=")
            if not val:
                raise ValueError(f"bad parameter {piece!r} in {text!r}")
            if key in kwargs:
                raise ValueError(f"repeated parameter {key!r} in {text!r}")
            kwargs[key] = float(Fraction(val))
    return AlphaSequence(kind, **kwargs)


def default_resolution(seq: AlphaSequence) -> int:
    """Working resolution: towers overflow early, everything else gets 1e4."""
    return 30 if seq.kind == "tower" else 10_000


# -- weights ------------------------------------------------------------------


class WeightSystem:
    """The weight family w_k(n) = exp(-alpha_n / k), handled in log scale."""

    def __init__(self, alpha: AlphaSequence):
        self.alpha = alpha

    def log_w(self, k: int, N: int) -> np.ndarray:
        if k < 1:
            raise ValueError("weight index k must be >= 1")
        return -self.alpha.values_saturated(N) / k

    def w(self, k: int, N: int) -> np.ndarray:
        return np.exp(self.log_w(k, N))


def seminorm(w, k: int, x) -> float:
    """Truncated k-th seminorm sup_{n <= len(x)} w_k(n) |x_n|.

    w may be a WeightSystem or an AlphaSequence.  This is the seminorm of the
    truncation only; whether the tail contributes is a separate question the
    caller must settle (e.g. via membership checks).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("x must be a nonempty 1-d array")
    return SeminormTable(w, (k,), len(x))(x)[0]


class SeminormTable:
    """The truncated seminorms p_k, k in ks, of vectors of one length N.

    log w_k(n) is stacked for every k once, so a vector costs one log pass
    and one row maximum per level, not one weight build per (vector, level).
    seminorm is the one-level case, so the two agree bit for bit.
    """

    def __init__(self, w, ks, N: int):
        if isinstance(w, AlphaSequence):
            w = WeightSystem(w)
        self.ks = tuple(ks)
        self.N = N
        self._log_w = np.array([w.log_w(k, N) for k in self.ks]).reshape(
            len(self.ks), N)

    def __call__(self, x) -> tuple:
        """(p_k(x) for k in ks) for a real or complex vector x of length N."""
        mags = np.abs(x)
        if mags.shape != (self.N,):
            raise ValueError(f"need a 1-d array of length {self.N}, "
                             f"got shape {mags.shape}")
        with np.errstate(divide="ignore"):
            tops = np.max(self._log_w + np.log(mags), axis=1)
        return tuple(math.exp(t) if t > -math.inf else 0.0
                     for t in tops.tolist())


# -- scalar diagnostics ---------------------------------------------------------


def _unsaturated(ns: np.ndarray, alphas: np.ndarray, extra: dict) -> np.ndarray:
    """Mask of the samples whose alpha lies below ALPHA_SATURATION.

    A clipped alpha is constant, so quantities built on it flatten or rise
    with n and read as evidence about the true sequence.  The first saturated
    sample index is recorded in ``extra`` (verdict params) when there is one.
    """
    keep = alphas < ALPHA_SATURATION
    if not np.all(keep):
        extra["saturated_from"] = int(ns[~keep][0])
    return keep


def _saturation_starved(ns, logs, quantity: str, trend_params: TrendParams,
                        extra: dict) -> Optional[Verdict]:
    """Inconclusive verdict when dropping saturated samples left too few."""
    if "saturated_from" not in extra or len(ns) >= trend_params.window:
        return None
    return Verdict(
        INCONCLUSIVE, UNDECIDED,
        tuple((int(n), float(v)) for n, v in zip(ns, logs)),
        reason="too few samples below the alpha saturation level",
        params={"quantity": quantity, "scale": "log", **extra},
    )


def _ratio_to_zero_verdict(seq: AlphaSequence, N: int, quantity: str,
                           log_numerator, trend_params: TrendParams) -> Verdict:
    """Verdict on f(n)/alpha_n -> 0 along the unsaturated part of the ladder."""
    lad = ladder(N)
    alphas = seq.values_saturated(N)[lad - 1]
    extra = {"alpha": seq.spec_string(), "N": N}
    keep = _unsaturated(lad, alphas, extra)
    lad, alphas = lad[keep], alphas[keep]
    with np.errstate(divide="ignore"):
        logs = log_numerator(lad) - np.log(alphas)
    starved = _saturation_starved(lad, logs, quantity, trend_params, extra)
    if starved is not None:
        return starved
    return limit_verdict_zero(lad, logs, quantity, trend_params, extra=extra)


def nuclearity_check(
    seq: AlphaSequence,
    N: int | None = None,
    trend_params: TrendParams = DEFAULT_PARAMS,
) -> Verdict:
    """Verdict on log(n)/alpha_n -> 0, the growth condition for nuclearity.

    The space built on alpha is nuclear exactly when this limit is zero, so
    downstream criteria treat this verdict as the nuclearity hypothesis.
    """
    N = N or default_resolution(seq)
    return _ratio_to_zero_verdict(seq, N, "log(n)/alpha_n",
                                  lambda n: np.log(np.log(n)), trend_params)


def v_alpha(
    seq: AlphaSequence,
    N: int | None = None,
    trend_params: TrendParams = DEFAULT_PARAMS,
) -> tuple[float, Verdict]:
    """Observed inf of the gaps alpha_{n+1} - alpha_n, with a positivity verdict.

    A positive gap infimum forces log(n)/alpha_n -> 0 (gaps bounded below make
    alpha grow at least linearly), so `holds` here should always co-occur with
    a nuclearity `holds`; classify_space cross-checks that.
    """
    N = N or default_resolution(seq)
    if N < 2:
        raise ValueError("need at least two terms")
    a = seq.values_saturated(N)
    gaps = np.diff(a)
    if np.any(gaps < 0):
        raise ValueError("alpha must be nondecreasing")
    extra = {"alpha": seq.spec_string(), "N": N}
    gaps = gaps[_unsaturated(np.arange(2, N + 1), a[1:], extra)]
    running_min = np.minimum.accumulate(gaps)
    lad = ladder(len(gaps)) if len(gaps) else np.array([], dtype=np.int64)
    sampled = running_min[lad - 1]
    with np.errstate(divide="ignore"):
        logs = np.log(np.maximum(sampled, 0.0))
    quantity = "running min of alpha gaps"
    starved = _saturation_starved(lad, logs, quantity, trend_params, extra)
    observed = float(running_min[-1]) if len(gaps) else math.nan
    if starved is not None:
        return observed, starved
    extra["observed_inf"] = observed
    v = limit_verdict_positive(lad, logs, quantity, trend_params, extra=extra)
    return observed, v


def shift_stability_check(
    seq: AlphaSequence,
    N: int | None = None,
    trend_params: TrendParams = DEFAULT_PARAMS,
) -> Verdict:
    """Verdict on limsup alpha_{n+1}/alpha_n < infinity.

    Dense ratios up to N are combined with beyond-N probes: generators whose
    ratio spikes only at sparse block boundaries would otherwise look stable
    at any affordable dense resolution.
    """
    N = N or default_resolution(seq)
    a = seq.values_saturated(N)
    ratios = a[1:] / a[:-1]
    ns = np.arange(2, N + 1)
    extra = {"alpha": seq.spec_string(), "N": N}
    keep = _unsaturated(ns, a[1:], extra)
    ns, ratios = ns[keep], ratios[keep]
    logs = np.log(ratios)
    starved = _saturation_starved(ns, logs, "alpha_{n+1}/alpha_n",
                                  trend_params, extra)
    if starved is not None:
        return starved
    extra["sup_ratio_observed"] = float(np.max(ratios))
    verdict = sup_verdict_bounded(
        ns, logs, "alpha_{n+1}/alpha_n", trend_params, extra=extra)
    probes = seq.tail_probes(N)
    plogs = np.array([
        math.log(p.alpha / p.alpha_prev) if p.alpha_prev > 0 else np.inf
        for p in probes
    ])
    return probe_escalation(verdict, [p.label for p in probes], plogs,
                            "probe_ratios_log", trend_params)


def n_over_alpha_check(
    seq: AlphaSequence,
    N: int | None = None,
    trend_params: TrendParams = DEFAULT_PARAMS,
) -> Verdict:
    """Verdict on n/alpha_n -> 0 (the growth side of basis-shift continuity)."""
    N = N or default_resolution(seq)
    return _ratio_to_zero_verdict(seq, N, "n/alpha_n", np.log, trend_params)


def sk_convergence(
    seq: AlphaSequence,
    k: int,
    s: float,
    N: int = 10_000,
    trend_params: TrendParams = DEFAULT_PARAMS,
    slope_margin: float = 0.02,
) -> Verdict:
    """Verdict on convergence of sum_n exp(alpha_n/k) / n^s.

    Works on the log-terms t(n) = alpha_n/k - s log n.  Divergence is called
    on rising or overflowing terms, on a late surge of window mass along the
    sample ladder, on beyond-N probe terms that dwarf everything seen so far,
    or on a decay exponent that stabilizes clearly below 1.  Convergence is
    called only on a decay exponent clearly above 1.  Near the harmonic edge
    the check separates n*t(n) -> c > 0 (divergent) from slower corrections
    (inconclusive).
    """
    return _series_verdicts(seq, k, N, trend_params, slope_margin)(s)


def _series_verdicts(seq: AlphaSequence, k: int, N: int,
                     trend_params: TrendParams = DEFAULT_PARAMS,
                     slope_margin: float = 0.02):
    """sk_convergence at level k as a function of s alone; what does not
    depend on s is computed once, for a whole bisection."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if N < 100:
        raise ValueError("series verdicts need N >= 100")
    alpha_k = seq.values_saturated(N) / k
    log_n = np.log(np.arange(1, N + 1, dtype=float))
    lad = ladder(N)
    lad_list = lad.tolist()
    starts = np.concatenate([[0], lad[:-1]])
    dlog = np.diff(np.log(lad))
    w = trend_params.window
    probes = seq.tail_probes(N)
    probe_alpha = np.array([min(p.alpha / k, ALPHA_SATURATION) for p in probes])
    probe_log_n = np.array([p.log_n for p in probes])
    base = {
        "quantity": "log term of sum exp(alpha_n/k)/n^s",
        "scale": "log", "alpha": seq.spec_string(), "k": k,
    }

    def verdict(s: float) -> Verdict:
        lt = alpha_k - s * log_n
        lt_l = lt[lad - 1]
        ev = tuple(zip(lad_list, lt_l.tolist()))
        info = {**base, "s": s, "N": N}

        if np.max(lt) > LOG_OVERFLOW:
            witness = int(np.argmax(lt > LOG_OVERFLOW)) + 1
            return Verdict(FAILS, RISING, ev, witness=witness,
                           params={**info, "mode": "term_overflow"})

        tail = lt_l[-w:].tolist()
        if all(b - a > 0 for a, b in zip(tail, tail[1:])) \
                and tail[-1] - tail[0] >= trend_params.rise_total:
            return Verdict(FAILS, RISING, ev, witness=lad_list[-1],
                           params={**info, "mode": "rising_terms"})

        # Window mass along the ladder; a late window dominating everything
        # before it means the tail carries unbounded mass even though each
        # term is small.
        mass = np.add.reduceat(np.exp(lt), starts)
        prior = np.maximum.accumulate(mass).tolist()
        mass = mass.tolist()
        for j in range(max(1, len(mass) // 3), len(mass)):
            if mass[j] > 5.0 * prior[j - 1] and mass[j] > 1e-12 * max(mass):
                return Verdict(
                    FAILS, "late_mass", ev, witness=int(starts[j] + 1),
                    params={**info, "mode": "late_window_mass",
                            "window_mass": tuple(mass)},
                )

        if probes:
            pe = probe_alpha - s * probe_log_n
            threshold = max(0.0, float(np.max(lt))) + 10.0
            if np.max(pe) > threshold:
                j = int(np.argmax(pe > threshold))
                return Verdict(
                    FAILS, RISING, ev, witness=probes[j].label,
                    params={**info, "mode": "probe_terms",
                            "probe_log_terms": tuple(pe.tolist())},
                )

        # N >= 100 puts 13 or more samples on the ladder, so ttail is not empty
        ttail = (-np.diff(lt_l[-w:]) / dlog[-(w - 1):]).tolist()
        spread = max(ttail) - min(ttail)
        theta_star = float(np.mean(ttail))
        info["decay_exponent"] = theta_star
        if spread <= slope_margin:
            if theta_star >= 1.0 + slope_margin:
                return Verdict(HOLDS, "power_decay", ev, params=info)
            if theta_star <= 1.0 - slope_margin:
                return Verdict(FAILS, "slow_decay", ev, witness=lad_list[-1],
                               params={**info, "mode": "decay_exponent_below_1"})
            # n * term stabilizing at a positive level pins divergence; a
            # tail that is flat in spread but steadily drifting could still
            # be a slowly-varying correction on either side of the edge.
            u = (lt_l[-w:] + np.log(lad[-w:])).tolist()
            drift = abs(u[-1] - u[0])
            if max(u) - min(u) <= trend_params.flat_band \
                    and drift <= 0.3 * trend_params.flat_band:
                info["harmonic_level"] = float(math.exp(np.mean(u)))
                return Verdict(FAILS, "harmonic", ev, witness=lad_list[-1],
                               params={**info, "mode": "n_times_term_stabilizes"})
            return Verdict(
                INCONCLUSIVE, "undecided", ev,
                reason="decay exponent within margin of the harmonic edge",
                params=info,
            )
        if min(ttail) >= 1.0 + slope_margin:
            return Verdict(HOLDS, "power_decay", ev, params=info)
        if max(ttail) <= 1.0 - slope_margin:
            return Verdict(FAILS, "slow_decay", ev, witness=lad_list[-1],
                           params={**info, "mode": "decay_exponent_below_1"})
        return Verdict(INCONCLUSIVE, "undecided", ev,
                       reason="decay exponent has not stabilized", params=info)

    return verdict


@dataclass(frozen=True)
class SZeroEstimate:
    """Bracketed infimum of the convergent exponents at level k.

    status is "bracketed_to_tol" when bisection reached the requested width
    and "stopped_on_inconclusive" when a borderline exponent halted it early
    (the bracket is still valid, just wider).
    """

    k: int
    lo: float
    hi: float
    estimate: float
    lo_verdict: Verdict
    hi_verdict: Verdict
    probed: tuple = ()
    status: str = "bracketed_to_tol"


_S_GRID = (1.0, 1.25, 1.5, 2.0, 3.0, 4.5, 7.0, 10.0, 15.0, 22.0, 32.0, 50.0)


def s0_estimate(
    seq: AlphaSequence,
    k: int,
    N: int = 10_000,
    tol: float = 0.05,
    s_cap: float = 50.0,
) -> SZeroEstimate:
    """Bracket the critical exponent s0(k) = inf { s : the k-series converges }.

    Scans a coarse grid for the first convergent exponent, then bisects the
    bracket down to width tol.  Raises SkEmptyError when nothing up to s_cap
    converges (for most gallery members that is the true state of affairs:
    only logarithmic alpha admits any convergent exponent).  Inconclusive
    verdicts during bisection stop the refinement at the last decisive
    bracket rather than guessing.

    s = 1 always diverges, by comparison: every generator has alpha_n >= 0
    (nondecreasing from a positive alpha_1), so every term exp(alpha_n/k)/n
    is at least 1/n, and the harmonic series diverges.  When the grid finds
    no divergent exponent below the first convergent one (near the harmonic
    edge sk_convergence may read s = 1 as inconclusive), the bracket's lower
    end is therefore s = 1 with a "comparison" verdict.  Only a grid that
    reads s = 1 itself as convergent contradicts this, and raises.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    verdict_at = _series_verdicts(seq, k, N)
    probed: list[tuple[float, str]] = []
    lo, lo_v = None, None
    hi, hi_v = None, None
    for s in _S_GRID:
        if s > s_cap:
            break
        v = verdict_at(s)
        probed.append((s, v.outcome))
        if v.outcome == HOLDS:
            hi, hi_v = s, v
            break
        if v.outcome == FAILS:
            lo, lo_v = s, v
    if hi is None:
        raise SkEmptyError(k, s_cap, tuple(probed))
    if lo is None and hi <= 1.0:
        raise InternalConsistencyError(
            f"series at k={k} converges at s={hi}; s=1 must always diverge"
        )
    if lo is None:
        lo, lo_v = 1.0, Verdict(
            FAILS, "comparison", (), witness={"s": 1.0},
            params={"quantity": "terms against the harmonic series 1/n",
                    "alpha": seq.spec_string(), "k": k, "s": 1.0},
        )
    status = "bracketed_to_tol"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        v = verdict_at(mid)
        probed.append((mid, v.outcome))
        if v.outcome == HOLDS:
            hi, hi_v = mid, v
        elif v.outcome == FAILS:
            lo, lo_v = mid, v
        else:
            status = "stopped_on_inconclusive"
            break
    return SZeroEstimate(
        k=k, lo=lo, hi=hi, estimate=0.5 * (lo + hi),
        lo_verdict=lo_v, hi_verdict=hi_v, probed=tuple(probed), status=status,
    )
