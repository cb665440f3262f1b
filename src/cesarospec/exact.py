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
log-sup then lies between the largest w_n - b_n and the largest w_n + b_n.
One float pass over a stack of vectors (WeightedSups) gives these brackets
for every vector at every level asked for.  When two brackets are disjoint
the float order is the exact order.  Only a comparison inside the bands,
such as an exact tie, goes to compare_weighted, as integer numerators, and
from there to sign_minus_exp.
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


def log_magnitudes(stack) -> tuple:
    """(log |v|, scale) in floats for every entry v = p / den of a stack of
    exact vectors (re, den) of one length, as two (len(stack), n) arrays.

    Each den > 0 has its log taken once; a zero entry gives (-inf, 0.0).
    log |v| is taken as log|p| minus log(den) on the integers, so it is
    finite however large they are.  math.log of a positive integer is within
    2 ulp of the true value (for big integers it is log of the frexp
    mantissa plus exponent*log 2, each rounded once), an absolute error of
    at most 2**-51 (1 + |log n|) for each of the two, and the subtraction
    adds 2**-53 of the result.  So the error is below 2**-49 * scale with
    scale = 1 + |log|p|| + |log den|.
    """
    lds = np.array([[math.log(den)] for _, den in stack])
    lns = np.array([[math.log(abs(p)) if p else -math.inf for p in re]
                    for re, _ in stack])
    scales = np.where(lns > -math.inf, 1.0 + np.abs(lns) + np.abs(lds), 0.0)
    return lns - lds, scales


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
    num, den = p.numerator, p.denominator
    if num <= 0:
        return -1
    if u == 0:
        return (num > den) - (num < den)
    try:
        uf = float(u)
    except OverflowError:
        return _sign_minus_exp_interval(p, u)
    ln, ld = math.log(num), math.log(den)
    d = ln - ld - uf
    band = _FILTER_BAND * (1.0 + abs(ln) + abs(ld) + abs(uf))
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
    u = 0 if a1 is a2 or a1 == a2 else (Fraction(a1) - Fraction(a2)) / k
    return sign_minus_exp(p, u)


class WeightedSups:
    """The weighted sups p_k(x) = max_n |x_n| e^{-alpha_n/k} of a stack of
    exact vectors (re, den) over one alpha table, at the levels a caller
    will ask about.

    One float pass over the stack brackets every log p_k(x) in the arrays
    lo and hi, of shape (len(stack), len(levels)).  The band of w_n =
    log|x_n| - alpha_n/k is b_n = _FILTER_BAND (scale_n + |alpha_n/k|)
    (float(alpha_n) / k is two correctly rounded steps); lo is the largest
    w_n - b_n and hi the largest w_n + b_n, or (-inf, inf) when some alpha_n
    does not fit a float.  Maximizers are decided exactly, on integer
    numerators, only where asked for, and kept per (vector, level).
    """

    def __init__(self, alphas, stack, levels):
        self.levels = tuple(levels)
        if any(k < 1 for k in self.levels):
            raise ValueError("k must be >= 1")
        self.alphas, self.stack = alphas, list(stack)
        if not len(alphas) or not self.stack or any(
                len(re) != len(alphas) for re, _ in self.stack):
            raise ValueError("need matching nonempty alpha and x")
        self._argmax: dict = {}
        try:
            e = np.array([float(a) for a in alphas]) / np.array(
                self.levels, dtype=float)[:, None]
        except OverflowError:
            self.hi = np.full((len(self.stack), len(self.levels)), math.inf)
            self.lo, self._candidates = -self.hi, None
            return
        log_mags, scales = log_magnitudes(self.stack)
        w = log_mags[:, None, :] - e
        band = _FILTER_BAND * (scales[:, None, :] + np.abs(e))
        high = w + band
        w -= band  # w - band in place: three (stack, levels, n) arrays live
        self.lo = w.max(axis=2)
        self.hi = high.max(axis=2)
        self._candidates = high >= self.lo[:, :, None]

    def bracket(self, k: int, i: int = 0) -> tuple:
        """(lo, hi) with lo <= log p_k(x) <= hi for vector i of the stack."""
        r = self.levels.index(k)
        return self.lo.item(i, r), self.hi.item(i, r)

    def candidates(self, k: int, i: int = 0) -> list:
        """The n with w_n + b_n >= lo in index order, for vector i at level
        k: they hold every exact maximizer."""
        if self._candidates is None:
            return list(range(len(self.alphas)))
        return self._candidates[i, self.levels.index(k)].nonzero()[0].tolist()

    def argmax(self, k: int, i: int = 0) -> int:
        """Earliest index attaining p_k of vector i, decided exactly.

        Ties (only possible between exactly equal weighted magnitudes)
        resolve to the earliest index: every exact maximizer is a candidate,
        and an exact scan over them in index order picks the earliest.
        """
        best = self._argmax.get((i, k))
        if best is None:
            re = self.stack[i][0]
            candidates = self.candidates(k, i)
            best = candidates[0]
            for n in candidates[1:]:
                if compare_weighted(self.alphas[n], re[n],
                                    self.alphas[best], re[best], k) > 0:
                    best = n
            self._argmax[i, k] = best
        return best


def compare_sups(a: WeightedSups, b: WeightedSups, k: int,
                 i: int = 0, j: int = 0) -> int:
    """Exact sign of p_k(a_i) - p_k(b_j), for vector i of a and j of b.

    Disjoint brackets decide it in floats: the gap between the two log-sups
    then exceeds the sum of their error bands.  Otherwise compare_weighted
    compares the two exact maximizers as numerators over den_a den_b.
    """
    alo, ahi = a.bracket(k, i)
    blo, bhi = b.bracket(k, j)
    if alo > bhi:
        return 1
    if ahi < blo:
        return -1
    n, m = a.argmax(k, i), b.argmax(k, j)
    (re_a, den_a), (re_b, den_b) = a.stack[i], b.stack[j]
    return compare_weighted(a.alphas[n], re_a[n] * den_b,
                            b.alphas[m], re_b[m] * den_a, k)


def weighted_argmax(alphas, xs, k: int) -> int:
    """Index attaining max_n |x_n| e^{-alpha_n/k}, decided exactly.

    Ties resolve to the earliest index (WeightedSups.argmax).
    """
    return WeightedSups(alphas, [common_denominator(xs)], (k,)).argmax(k)


def compare_seminorms(alphas, k: int, xs, ys) -> int:
    """Exact sign of p_k(x) - p_k(y) for two vectors of one length, read
    from one WeightedSups pass; vectors of unequal length are a
    ValueError."""
    both = WeightedSups(alphas[:len(xs)], [common_denominator(xs),
                                           common_denominator(ys)], (k,))
    return compare_sups(both, both, k, 0, 1)
