"""Exact scalar arithmetic: shared denominators and weighted comparisons.

Every exact vector and operator is held as real integer numerators over one
positive denominator; common_denominator converts rational entries to that
form once and rejects any other.  The paper's exact claims are all real
identities, and its complex statements are decided in float and log scale.

The rational operator mode keeps every matrix entry exact, which is only
useful if order comparisons against the (transcendental) weights can also be
made exactly.  Comparing |x| e^{-a/k} against |y| e^{-b/k} for rational data
reduces to the sign of p - exp(u) with p, u rational.  That sign is first
read off a float comparison of log p with u under a rigorous rounding-error
band (a filtered predicate); only inside the band is it decided by interval
arithmetic at escalating precision, which is guaranteed to terminate because
exp(u) is irrational for rational u != 0, so the two sides are never equal
unless the comparison is trivial.

Weighted sups p_k(x) = max_n |x_n| e^{-alpha_n/k} are compared the same way,
one level up.  Each entry's log-weight w_n = log|x_n| - alpha_n/k is computed
in floats from its integer numerator and denominator (log_magnitudes), with
an error below 2**-49 times its scale; its band b_n is _FILTER_BAND times
that scale, so the true log-weight lies in [w_n - b_n, w_n + b_n].  The
log-sup then lies between the largest w_n - b_n and the largest w_n + b_n;
one float pass per vector gives these brackets at every level asked for.
When two brackets are disjoint the float order is the exact order.  Only a
comparison inside the bands, such as an exact tie, goes to compare_weighted,
as integer numerators, and from there to sign_minus_exp.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

import numpy as np

from .errors import InternalConsistencyError


# Half-width, per unit of scale, of the band in which the float filters below
# do not trust their own sign.  Every float quantity they compare carries an
# absolute rounding error below 2**-49 (1.8e-15) times its scale (derived in
# log_magnitudes and sign_minus_exp), so the band is over 5 * 10**5 times the
# error.
_FILTER_BAND = 1e-9
_INTERVAL_BITS = 1 << 20   # the interval route's precision cap


def _exact(v) -> Fraction:
    if not isinstance(v, numbers.Rational):
        raise ValueError(f"not a rational entry: {type(v).__name__}")
    return Fraction(v)


def common_denominator(entries) -> tuple:
    """Exact real entries (int, numpy integer or Fraction) as integer
    numerators over their least common denominator: (re, den) with den > 0.
    Any other entry is a ValueError: a float is not the decimal it prints."""
    fracs = [v if type(v) in (int, Fraction) else _exact(v) for v in entries]
    den = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def log_magnitudes(re, den: int) -> list:
    """(log |v|, scale) in floats for each v = p / den, p in re.

    re holds integers over one den > 0, whose log is taken once; a zero
    entry gives (-inf, 0.0).  log |v| is taken as log|p| minus log(den) on the
    integers, so it is finite however large they are.  math.log of a
    positive integer is within 2 ulp of the true value (for big integers it
    is log of the frexp mantissa plus exponent*log 2, each rounded once), an
    absolute error of at most 2**-51 (1 + |log n|) for each of the two, and
    the subtraction adds 2**-53 of the result.  So the error is below
    2**-49 * scale with scale = 1 + |log|p|| + |log den|.
    """
    out, ld = [], math.log(den)
    for p in re:
        if not p:
            out.append((-math.inf, 0.0))
            continue
        ln = math.log(abs(p))
        out.append((ln - ld, 1.0 + abs(ln) + abs(ld)))
    return out


def sign_minus_exp(p: Fraction, u: Fraction) -> int:
    """Exact sign of p - exp(u) for rational p and u.

    Float filter first: sign(p - exp(u)) = sign(log p - u), and log p - u is
    computed in floats with an absolute error below 2**-49 * scale, where
    scale = 1 + |log num| + |log den| + |u| (the log error of
    log_magnitudes, plus 2**-53 |u| for the correctly rounded float(u) and
    2**-53 of the result for the final subtraction).  Outside a band of
    _FILTER_BAND * scale the float sign is the exact sign.  Inside it, or
    when u does not fit a float, the sign is decided by interval arithmetic.
    """
    p, u = [v if type(v) in (int, Fraction) else Fraction(v) for v in (p, u)]
    if p <= 0:
        return -1
    if u == 0:
        return (p > 1) - (p < 1)
    num, den = p.numerator, p.denominator
    try:
        uf = float(u)
    except OverflowError:
        return _sign_minus_exp_interval(p, u)
    ((lp, scale),) = log_magnitudes([num], den)
    d = lp - uf
    band = _FILTER_BAND * (scale + abs(uf))
    if d > band:
        return 1
    if d < -band:
        return -1
    return _sign_minus_exp_interval(p, u)


def _sign_minus_exp_interval(p: Fraction, u: Fraction) -> int:
    """sign_minus_exp for p > 0 and u != 0 by interval arithmetic.

    Doubling precision; terminates because exp of a nonzero rational is
    irrational, so the difference is never exactly zero.  mpmath is imported
    here: only near-ties that the float filter cannot separate get this far.
    """
    import mpmath

    prec = 64
    while prec <= _INTERVAL_BITS:
        old = mpmath.iv.prec
        mpmath.iv.prec = prec
        try:
            pv = mpmath.iv.mpf(p.numerator) / mpmath.iv.mpf(p.denominator)
            uv = mpmath.iv.mpf(u.numerator) / mpmath.iv.mpf(u.denominator)
            d = pv - mpmath.iv.exp(uv)
            if d.a > 0:
                return 1
            if d.b < 0:
                return -1
        finally:
            mpmath.iv.prec = old
        prec *= 2
    raise InternalConsistencyError(
        f"could not separate {p} from exp({u}) below {_INTERVAL_BITS} bits"
    )


def compare_weighted(a1, x1, a2, x2, k: int) -> int:
    """Exact sign of |x1| e^{-a1/k} - |x2| e^{-a2/k} for int or Fraction
    inputs; x1 and x2 may be integer numerators over one denominator."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n1, n2 = abs(x1.numerator), abs(x2.numerator)
    if not n1 or not n2:
        return (n1 > 0) - (n2 > 0)
    p = Fraction(n1 * x2.denominator, n2 * x1.denominator)
    u = 0 if a1 == a2 else (Fraction(a1) - Fraction(a2)) / k
    return sign_minus_exp(p, u)


class WeightedSups:
    """The weighted sups p_k(x) = max_n |x_n| e^{-alpha_n/k} of one exact
    vector at the levels k a caller will ask about.

    shared gives x as (re, den), integer numerators over one denominator,
    kept on the instance.  One float pass over all levels brackets each
    log p_k(x) and keeps the indices that can attain it, so bracket(k) is a
    lookup.  Only where a bracket cannot decide are exact comparisons made,
    on integer numerators; maximizers are kept per level.
    """

    def __init__(self, alphas, shared, levels):
        if any(k < 1 for k in levels):
            raise ValueError("k must be >= 1")
        try:
            e = np.array([float(a) for a in alphas]) / np.array(
                levels, dtype=float)[:, None]
        except OverflowError:
            e = None
        self._setup(alphas, e, shared, levels)

    def like(self, shared) -> "WeightedSups":
        """The sups of another vector over the same alphas and levels."""
        other = WeightedSups.__new__(WeightedSups)
        other._setup(self.alphas, self._e, shared, self.levels)
        return other

    def _setup(self, alphas, e, shared, levels) -> None:
        """Bracket log p_k(x) for every k in levels in one float pass.

        The band of w_n = log|x_n| - alpha_n/k is b_n = _FILTER_BAND
        (scale_n + |alpha_n/k|) (float(alpha_n) / k is two correctly rounded
        steps); lo is the largest w_n - b_n and hi the largest w_n + b_n.
        The candidates, the n with w_n + b_n >= lo in index order, hold every
        exact maximizer.  e is the levels x n table of float(alpha_n) / k;
        it is None when some alpha_n does not fit a float, and then each
        bracket is (-inf, inf) with every index a candidate.
        """
        self.re, self.den = shared
        if len(alphas) != len(self.re) or not len(self.re):
            raise ValueError("need matching nonempty alpha and x")
        self.alphas, self._e, self.levels = alphas, e, levels
        self._argmax: dict = {}
        if e is None:
            self._brackets = dict.fromkeys(
                levels, (-math.inf, math.inf, range(len(self.re))))
            return
        log_mags, scales = np.array(log_magnitudes(self.re, self.den)).T
        w = log_mags - e
        band = _FILTER_BAND * (scales + np.abs(e))
        high = w + band
        lo = (w - band).max(axis=1)
        self._brackets = {}
        for k, l, h, row in zip(levels, lo.tolist(), high.max(axis=1).tolist(),
                                high):
            self._brackets[k] = (l, h, (row >= l).nonzero()[0].tolist())

    def bracket(self, k: int) -> tuple:
        """(lo, hi, candidates) with lo <= log p_k(x) <= hi (see _setup)."""
        return self._brackets[k]

    def argmax(self, k: int) -> int:
        """Earliest index attaining p_k(x), decided exactly.

        Ties (only possible between exactly equal weighted magnitudes)
        resolve to the earliest index: every exact maximizer is a candidate
        of the bracket, and an exact scan over them in index order picks the
        earliest.
        """
        best = self._argmax.get(k)
        if best is None:
            candidates = self.bracket(k)[2]
            best = candidates[0]
            for i in candidates[1:]:
                if compare_weighted(self.alphas[i], self.re[i],
                                    self.alphas[best], self.re[best], k) > 0:
                    best = i
            self._argmax[k] = best
        return best


def compare_sups(a: WeightedSups, b: WeightedSups, k: int) -> int:
    """Exact sign of p_k(a) - p_k(b).

    Disjoint brackets decide it in floats: the gap between the two log-sups
    then exceeds the sum of their error bands.  Otherwise compare_weighted
    compares the two exact maximizers as numerators over den_a den_b.
    """
    alo, ahi, _ = a.bracket(k)
    blo, bhi, _ = b.bracket(k)
    if alo > bhi:
        return 1
    if ahi < blo:
        return -1
    i, j = a.argmax(k), b.argmax(k)
    return compare_weighted(a.alphas[i], a.re[i] * b.den,
                            b.alphas[j], b.re[j] * a.den, k)


def weighted_argmax(alphas, xs, k: int) -> int:
    """Index attaining max_n |x_n| e^{-alpha_n/k}, decided exactly.

    Ties resolve to the earliest index (WeightedSups.argmax).
    """
    return WeightedSups(alphas, common_denominator(xs), (k,)).argmax(k)


def compare_seminorms(alphas, k: int, xs, ys) -> int:
    """Exact sign of p_k(x) - p_k(y) over the common truncation."""
    xw = WeightedSups(alphas[:len(xs)], common_denominator(xs), (k,))
    yw = xw.like(common_denominator(ys)) if len(ys) == len(xs) \
        else WeightedSups(alphas[:len(ys)], common_denominator(ys), (k,))
    return compare_sups(xw, yw, k)
