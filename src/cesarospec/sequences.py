"""Exponent sequences, weight families, and scalar space diagnostics.

The sequence space studied by this package is a weighted intersection space:
fix an increasing positive exponent sequence alpha and let the space consist
of all scalar sequences x such that w_k(n) x_n -> 0 for every k >= 1, where

    w_k(n) = exp(-alpha_n / k).

Growth features of alpha alone decide the operator theory on the space: the
behaviour of log(n)/alpha_n (nuclearity of the space), the infimum of the
gaps alpha_{n+1} - alpha_n, the ratios alpha_{n+1}/alpha_n, and the abscissa
s0(k) of the exponential series sum_n exp(alpha_n/k) / n^s.  This module
provides a gallery of alpha generators, the weight family, and
finite-resolution verdicts for those scalar diagnostics.

s0(k) is bracketed from alpha alone, with no series and no s, between
1 + limsup alpha_ceil(n/2) / (k log n) and 1 + limsup alpha_n / (k log n);
s0_estimate derives the bracket.

Every generator can report values beyond the working resolution through
closed or asymptotic forms (``alpha_at``, ``alpha_at_log`` and
``tail_probes``); the ratio diagnostics and the s0 bracket use those probes
to catch divergence that only shows up far past any affordable dense range.
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
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .errors import RepresentationError, SkEmptyError
from .trend import (
    BOUNDED,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    UNBOUNDED,
    UNDECIDED,
    WINDOW,
    Verdict,
    _running_extreme,
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
# Doubling probes N * 2^t past the resolution, t = 1 .. this.
_PROBE_COUNT = 24
# The last log-index of a probe past N: of the s0(k) bracket's probes and of
# the sparse-block generator's block starts.
_LOG_PROBE_LIMIT = 1e15


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


def _sparse_block_table(limit_log: float) -> tuple[list[int], list[float]]:
    """Block start indices j(k) and their logs for the sparse-block generator.

    j(1) = 1 and j(k+1) = 2 (k+1) j(k)^k.  Exact ints are kept while they fit
    comfortably; the log recursion continues (saturated) afterwards so block
    positions remain usable far beyond float range.  The table ends at the
    first log j(k) above limit_log, which must lie below _LOG_SATURATION.
    """
    js: list[int] = [1]
    logs: list[float] = [0.0]
    while logs[-1] <= limit_log:
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
        self._probes: dict[int, tuple] = {}
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
            with np.errstate(over="ignore"):
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

    def alpha_at_log(self, Ls) -> np.ndarray:
        """alpha at the indices n = e^L, saturated at 1e300, for any L >= 0.

        While e^L is a float this is alpha_at; for log that is the closed
        form beta log(e^L + 1) = beta (L + log1p(e^-L)).  Past float range
        _alpha_far reads the leading term.
        """
        L = np.atleast_1d(np.asarray(Ls, dtype=float))
        with np.errstate(over="ignore"):
            out = self.alpha_at(np.exp(np.minimum(L, 700.0)))
            far = L > 700.0
            if far.any():
                out[far] = self._alpha_far(L[far])
        return np.minimum(out, ALPHA_SATURATION)

    def _alpha_far(self, L: np.ndarray) -> np.ndarray:
        """alpha at n = e^L for L > 700, unclipped.  log reads beta L, since
        log1p(e^-L) is below float resolution there; every other kind grows
        at least like a power of n, and its leading term, capped at e^700,
        saturates."""
        kind, p = self.kind, self.params
        if kind == "log":
            return p["beta"] * L
        if kind == "psum":
            b = p["beta"]
            return np.expm1(np.minimum((1.0 - b) * L, 700.0)) / (1.0 - b) \
                + (_zeta(b) + 1.0 / (1.0 - b))
        if kind == "table":
            last, step = float(p["values"][-1]), float(p["step"])
            if step == 0:
                return np.full_like(L, last)
            return last + np.exp(np.minimum(L + math.log(step), 700.0))
        c = {"power": p.get("beta"), "sqrt": 0.5}.get(kind, 1.0)
        return np.exp(np.minimum(c * L, 700.0))

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

    def tail_probes(self, N: int) -> tuple:
        """(labels, log n, alpha, alpha_prev) at samples past index N for
        divergence-at-infinity checks: the log of each index (which may not
        be float representable) and the (saturated) alpha at it and at the
        index before.

        Default: doubling indices N*2^t.  The sparse-block generator instead
        probes the start of every block beyond N up to log n =
        _LOG_PROBE_LIMIT, because its interesting behaviour is concentrated
        there.  Computed once per N; the arrays are read-only.
        """
        if N not in self._probes:
            labels, *cols = list(zip(*self._tail_probes(N))) or [()] * 4
            arrays = tuple(np.array(c, dtype=float) for c in cols)
            for arr in arrays:
                arr.flags.writeable = False
            self._probes[N] = (labels, *arrays)
        return self._probes[N]

    @cached_property
    def bracket_probes(self) -> tuple:
        """_bracket_probes(self), computed once per sequence."""
        return _bracket_probes(self)

    def _tail_probes(self, N: int):
        """Yield (label, log n, alpha, alpha_prev) per probe past N."""
        if self.kind == "s1_empty":
            _, ylogs = _sparse_block_table(_LOG_PROBE_LIMIT)
            logN = math.log(N)
            for k in range(2, len(ylogs)):
                y = ylogs[k - 1]  # log j(k)
                if y <= logN:
                    continue
                alpha = min(math.log(k) + k * y, ALPHA_SATURATION)
                prev = min(math.log(k - 1) + (k - 1) * ylogs[k - 2], ALPHA_SATURATION)
                yield f"block k={k}", y, alpha, prev
            return
        for t in range(1, _PROBE_COUNT + 1):
            n = float(N) * 2.0 ** t
            if n > 4e12:
                break
            a, ap = self.alpha_at(np.array([n, n - 1.0]))
            yield f"n={n:.0f}", math.log(n), float(a), float(ap)


_ALPHA_RE = re.compile(r"^(\w+)(:.*)?$")


def _fraction(item: str, text: str) -> Fraction:
    """One number of the generator description text, read exactly."""
    if not item.strip():
        raise ValueError(f"empty table item in {text!r}")
    try:
        return Fraction(item)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {item!r} of {text!r}") from None


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
        items = lm.group(1).split(",") if lm.group(1).strip() else []
        vals = [_fraction(v, text) for v in items]
        step = _fraction(lm.group(2), text) if lm.group(2) else None
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
            try:
                kwargs[key] = float(_fraction(val, text))
            except OverflowError:
                raise ValueError(
                    f"{key}={val} in {text!r} exceeds float range") from None
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

    log w_k(n) is computed for every k once; a call on a vector or a stack
    costs one log pass, then per level one add and row maximum in a reused
    buffer.  seminorm is the one-level case, so the two agree bit for bit.
    """

    def __init__(self, w, ks, N: int):
        if isinstance(w, AlphaSequence):
            w = WeightSystem(w)
        self.ks = tuple(ks)
        self.N = N
        self._log_w = [w.log_w(k, N) for k in self.ks]

    def __call__(self, x):
        """(p_k(x) for k in ks) for a real or complex vector x of length N;
        for a (rows, N) stack of them, the list of those tuples."""
        if np.ndim(x) not in (1, 2) or np.shape(x)[-1:] != (self.N,):
            raise ValueError(f"need vectors of length {self.N}, "
                             f"got shape {np.shape(x)}")
        with np.errstate(divide="ignore"):
            logs = np.log(np.abs(np.atleast_2d(x)))
        buf, tops = np.empty(logs.shape), np.empty((len(logs), len(self.ks)))
        for i, log_w in enumerate(self._log_w):
            buf[:] = log_w  # a broadcast add into buf would buffer a copy
            np.add(buf, logs, out=buf).max(axis=-1, out=tops[:, i])
        rows = [tuple(0.0 if t == -math.inf else math.exp(t) for t in row)
                for row in tops.tolist()]
        return rows if np.ndim(x) == 2 else rows[0]


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


def _saturation_starved(ns, logs, quantity: str,
                        extra: dict) -> Optional[Verdict]:
    """Inconclusive verdict when dropping saturated samples left too few."""
    if "saturated_from" not in extra or len(ns) >= WINDOW:
        return None
    return Verdict(
        INCONCLUSIVE, UNDECIDED,
        tuple((int(n), float(v)) for n, v in zip(ns, logs)),
        reason="too few samples below the alpha saturation level",
        params={"quantity": quantity, "scale": "log", **extra},
    )


def _ratio_to_zero_verdict(seq: AlphaSequence, N: int, quantity: str,
                           log_numerator) -> Verdict:
    """Verdict on f(n)/alpha_n -> 0 along the unsaturated part of the ladder."""
    lad = ladder(N)
    alphas = seq.values_saturated(N)[lad - 1]
    extra = {"alpha": seq.spec_string(), "N": N}
    keep = _unsaturated(lad, alphas, extra)
    lad, alphas = lad[keep], alphas[keep]
    with np.errstate(divide="ignore"):
        logs = log_numerator(lad) - np.log(alphas)
    starved = _saturation_starved(lad, logs, quantity, extra)
    if starved is not None:
        return starved
    return limit_verdict_zero(lad, logs, quantity, extra=extra)


def nuclearity_check(seq: AlphaSequence, N: int | None = None) -> Verdict:
    """Verdict on log(n)/alpha_n -> 0, the growth condition for nuclearity.

    The space built on alpha is nuclear exactly when this limit is zero, so
    downstream criteria treat this verdict as the nuclearity hypothesis.
    """
    N = N or default_resolution(seq)
    return _ratio_to_zero_verdict(seq, N, "log(n)/alpha_n",
                                  lambda n: np.log(np.log(n)))


def v_alpha(seq: AlphaSequence, N: int | None = None) -> tuple[float, Verdict]:
    """Observed inf of the gaps alpha_{n+1} - alpha_n, with a positivity verdict.

    A positive gap infimum forces log(n)/alpha_n -> 0 (gaps bounded below make
    alpha grow at least linearly), so `holds` here should always co-occur with
    a nuclearity `holds`; classify_space cross-checks that.  The running min
    at ladder index n is min(gaps[:n]), read from segment minima between the
    checkpoints; min only selects, so it equals the full accumulate there.
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
    if len(gaps):
        lad = ladder(len(gaps))
        sampled, observed = _running_extreme(np.minimum, gaps, lad - 1)
        observed = float(observed)
    else:
        lad, sampled, observed = np.array([], dtype=np.int64), gaps, math.nan
    with np.errstate(divide="ignore"):
        logs = np.log(np.maximum(sampled, 0.0))
    quantity = "running min of alpha gaps"
    starved = _saturation_starved(lad, logs, quantity, extra)
    if starved is not None:
        return observed, starved
    extra["observed_inf"] = observed
    v = limit_verdict_positive(lad, logs, quantity, extra=extra)
    return observed, v


def shift_stability_check(seq: AlphaSequence, N: int | None = None) -> Verdict:
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
    starved = _saturation_starved(ns, logs, "alpha_{n+1}/alpha_n", extra)
    if starved is not None:
        return starved
    extra["sup_ratio_observed"] = float(np.max(ratios))
    verdict = sup_verdict_bounded(
        ns, logs, "alpha_{n+1}/alpha_n", extra=extra)
    labels, _, p_alpha, p_prev = seq.tail_probes(N)
    plogs = np.array([math.log(a / ap) if ap > 0 else np.inf
                      for a, ap in zip(p_alpha.tolist(), p_prev.tolist())])
    return probe_escalation(verdict, labels, plogs, "probe_ratios_log")


def n_over_alpha_check(seq: AlphaSequence, N: int | None = None) -> Verdict:
    """Verdict on n/alpha_n -> 0 (the growth side of basis-shift continuity)."""
    N = N or default_resolution(seq)
    return _ratio_to_zero_verdict(seq, N, "n/alpha_n", np.log)


# Resolution of the dense ladder that reads the s0(k) bracket.
_BRACKET_N = 10_000


def _bracket_probes(seq: AlphaSequence) -> tuple:
    """(labels, log-indices, alpha) past _BRACKET_N, up to and including
    the first saturated alpha: a saturated value bounds alpha only from
    below, and the samples after it would flatten or fall.

    s1_empty reads the starts of its blocks, every other kind the
    log-indices log(N) 2^t, both up to log n = _LOG_PROBE_LIMIT.  The
    arrays are read-only: AlphaSequence.bracket_probes keeps them.
    """
    if seq.kind == "s1_empty":
        labels, logs_n, alphas, _ = seq.tail_probes(_BRACKET_N)
    else:
        logs_n = np.array([L for L in (math.log(_BRACKET_N) * 2.0 ** t
                                       for t in range(1, 64))
                           if L <= _LOG_PROBE_LIMIT])
        alphas = seq.alpha_at_log(logs_n)
        labels = [f"log n={L:.6g}" for L in logs_n.tolist()]
    saturated = np.flatnonzero(alphas >= ALPHA_SATURATION)
    end = int(saturated[0]) + 1 if len(saturated) else len(alphas)
    logs_n, alphas = logs_n[:end], alphas[:end]
    logs_n.flags.writeable = alphas.flags.writeable = False
    return tuple(labels[:end]), logs_n, alphas


def _bracket_end(seq: AlphaSequence, k: int, half: bool) -> tuple:
    """(verdict, value) for one end of the s0(k) bracket: the lower end
    reads limsup alpha_ceil(n/2) / (k log n) when half, the upper end
    limsup alpha_n / (k log n).

    The verdict is the sup verdict of the quantity along the ladder up to
    _BRACKET_N; unless that fails, the beyond-N probes escalate it.  It
    never holds when a sample saturated.  When it holds, the upper end is
    1 + the sup of the quantity past N, which bounds the limsup from above,
    and the lower end is 1 + the least of the last WINDOW samples.
    Otherwise the ends fall back to inf and to 1: every term is at least
    1/n^s, so s0(k) >= 1.
    """
    quantity = "alpha_ceil(n/2) / (k log n)" if half else "alpha_n / (k log n)"
    lad = ladder(_BRACKET_N)
    idx = [(n + 1) // 2 - 1 for n in lad.tolist()] if half else lad - 1
    alphas = seq.values_saturated(_BRACKET_N)[idx]
    extra = {"alpha": seq.spec_string(), "k": k, "N": _BRACKET_N}
    keep = _unsaturated(lad, alphas, extra)
    ns = lad[keep]
    logs = np.log(alphas[keep]) - np.log(k * np.log(ns))
    verdict = _saturation_starved(ns, logs, quantity, extra)
    if verdict is None:
        verdict = sup_verdict_bounded(ns, logs, quantity, extra=extra)
    if verdict.outcome == FAILS:  # no probe can overturn it
        return verdict, 1.0 if half else math.inf
    # at a probe the index is n = e^L, or n = 2 e^L for alpha at ceil(n/2)
    labels, logs_n, probe_alphas = seq.bracket_probes
    plogs = np.log(probe_alphas) - np.log(
        k * (logs_n + (math.log(2.0) if half else 0.0)))
    verdict = probe_escalation(verdict, labels, plogs, "probe_logs")
    if verdict.outcome == HOLDS and ("saturated_from" in extra or (
            len(probe_alphas) and probe_alphas[-1] >= ALPHA_SATURATION)):
        verdict = Verdict(
            INCONCLUSIVE, verdict.trend, verdict.evidence,
            reason="alpha saturates, so its samples bound it only from below",
            params=verdict.params)
    if verdict.outcome != HOLDS:
        return verdict, 1.0 if half else math.inf
    if half:
        top = np.min(np.concatenate([logs, plogs])[-WINDOW:])
    else:
        top = np.max(plogs if len(plogs) else logs)
    return verdict, 1.0 + math.exp(float(top))


@dataclass(frozen=True)
class SZeroEstimate:
    """The bracket lo <= s0(k) <= hi and its two end verdicts.

    hi is inf when the upper end is not bounded at this resolution;
    estimate is the midpoint of the bracket.
    """

    k: int
    lo: float
    hi: float
    estimate: float
    lo_verdict: Verdict
    hi_verdict: Verdict


def s0_estimate(seq: AlphaSequence, k: int) -> SZeroEstimate:
    """Bracket the abscissa s0(k) of sum_n exp(alpha_n/k) / n^s from alpha.

    With a_n = exp(alpha_n/k) >= 1 the series diverges at s = 0, so its
    abscissa of convergence is limsup log A_n / log n, where A_n = a_1 + ...
    + a_n (Hardy and Riesz, The General Theory of Dirichlet's Series, 1915,
    ch. II).  alpha is nondecreasing, so the n - ceil(n/2) + 1 >= n/2 terms
    from ceil(n/2) on are each at least a_ceil(n/2), and no term exceeds
    a_n:

        (n/2) exp(alpha_ceil(n/2) / k) <= A_n <= n exp(alpha_n / k).

    Dividing the logs by log n, the log 2 / log n term vanishes, so

        1 + limsup alpha_ceil(n/2) / (k log n) <= s0(k)
          <= 1 + limsup alpha_n / (k log n).

    Both ends read alpha alone (_bracket_end).  A decisively unbounded
    lower end means no exponent converges, and raises SkEmptyError with
    that end's verdict.  An upper end that is not bounded at this
    resolution leaves hi = inf.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    lower, lo = _bracket_end(seq, k, half=True)
    if lower.outcome == FAILS:
        raise SkEmptyError(k, lower)
    upper, hi = _bracket_end(seq, k, half=False)
    return SZeroEstimate(k=k, lo=lo, hi=hi, estimate=0.5 * (lo + hi),
                         lo_verdict=lower, hi_verdict=upper)


def sk_convergence(seq: AlphaSequence, k: int, s: float) -> Verdict:
    """Verdict on convergence of sum_n exp(alpha_n/k) / n^s.

    Compares s with the s0(k) bracket: holds above it, fails below it (and
    for every s when S_k is empty), inconclusive inside it.
    """
    params = {"quantity": "s against the bracket of s0(k)",
              "alpha": seq.spec_string(), "k": k, "s": s}
    try:
        est = s0_estimate(seq, k)
    except SkEmptyError as err:
        return Verdict(FAILS, UNBOUNDED, err.verdict.evidence,
                       witness=err.verdict.witness, params=params)
    params["s0_interval"] = (est.lo, est.hi)
    if s > est.hi:
        return Verdict(HOLDS, BOUNDED, params=params)
    if s < est.lo:
        return Verdict(FAILS, UNBOUNDED, witness={"s": s}, params=params)
    return Verdict(INCONCLUSIVE, UNDECIDED, params=params,
                   reason="s lies inside the bracket of s0(k)")
