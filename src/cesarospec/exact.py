"""Exact scalar arithmetic: rational complex numbers and weighted comparisons.

The rational operator mode keeps every matrix entry exact, which is only
useful if order comparisons against the (transcendental) weights can also be
made exactly.  Comparing |x| e^{-a/k} against |y| e^{-b/k} for rational data
reduces to the sign of p - exp(u) with p, u rational.  That sign is first
read off a float comparison of log p with u under a rigorous rounding-error
band (a filtered predicate); only inside the band is it decided by interval
arithmetic at escalating precision, which is guaranteed to terminate because
exp(u) is irrational for rational u != 0, so the two sides are never equal
unless the comparison is trivial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import InternalConsistencyError


@dataclass(frozen=True)
class ComplexRational:
    """A complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(v) -> "ComplexRational | None":
        if isinstance(v, ComplexRational):
            return v
        if isinstance(v, (int, Fraction)):
            return ComplexRational(Fraction(v))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.abs2()
        if d == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        return ComplexRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    # -- queries ----------------------------------------------------------

    def conjugate(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|z|^2, exactly rational."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __abs__(self) -> float:
        return math.hypot(float(self.re), float(self.im))

    def __str__(self) -> str:
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def parse_complex_rational(text: str) -> ComplexRational:
    """Parse ``a+bi`` with rational or decimal parts (no exponent notation).

    Accepts plain reals ("2", "-1/3", "0.4"), pure imaginaries ("2i", "-i"),
    and combinations ("0.4+0.3i", "1/2-3/4i").
    """
    t = text.strip().replace(" ", "")
    if not t:
        raise ValueError("empty complex literal")
    if not t.endswith("i"):
        return ComplexRational(Fraction(t))
    body = t[:-1]
    re_part, im_part = "0", body
    for pos in range(len(body) - 1, 0, -1):
        if body[pos] in "+-" and body[pos - 1] not in "+-/.":
            re_part, im_part = body[:pos], body[pos:]
            break
    if im_part in ("", "+", "-"):
        im_part += "1"
    return ComplexRational(Fraction(re_part), Fraction(im_part))


# Half-width, per unit of scale, of the band in which the float filters below
# do not trust their own sign.  Every float quantity they compare carries an
# absolute rounding error below 2**-49 (1.8e-15) times its scale (derived in
# _log_abs and sign_minus_exp), so the band is over 5 * 10**5 times the error.
_FILTER_BAND = 1e-9


def _log_abs(f: Fraction) -> tuple[float, float]:
    """(log |f|, scale) in floats for a nonzero rational f.

    log |f| is taken as log|num| - log(den) on the integer parts, so it is
    finite however large num and den are.  math.log of a positive integer is
    within 2 ulp of the true value (for big integers it is log of the
    frexp mantissa plus exponent*log 2, each rounded once), an absolute error
    of at most 2**-51 (1 + |log n|); the subtraction adds 2**-53 of the
    result.  So the error is below 2**-50 * scale with
    scale = 1 + |log num| + |log den|.
    """
    ln = math.log(abs(f.numerator))
    ld = math.log(f.denominator)
    return ln - ld, 1.0 + abs(ln) + abs(ld)


def sign_minus_exp(p: Fraction, u: Fraction, max_bits: int = 1 << 20) -> int:
    """Exact sign of p - exp(u) for rational p and u.

    Float filter first: sign(p - exp(u)) = sign(log p - u), and log p - u is
    computed in floats with an absolute error below 2**-49 * scale, where
    scale = 1 + |log num| + |log den| + |u| (the log error of _log_abs, plus
    2**-53 |u| for the correctly rounded float(u) and 2**-53 of the result
    for the final subtraction).  Outside a band of _FILTER_BAND * scale the
    float sign is the exact sign.  Inside it, or when u does not fit a float,
    the sign is decided by interval arithmetic.
    """
    p, u = Fraction(p), Fraction(u)
    if p <= 0:
        return -1
    if u == 0:
        return (p > 1) - (p < 1)
    try:
        uf = float(u)
    except OverflowError:
        return _sign_minus_exp_interval(p, u, max_bits)
    lp, scale = _log_abs(p)
    d = lp - uf
    band = _FILTER_BAND * (scale + abs(uf))
    if d > band:
        return 1
    if d < -band:
        return -1
    return _sign_minus_exp_interval(p, u, max_bits)


def _sign_minus_exp_interval(p: Fraction, u: Fraction, max_bits: int) -> int:
    """sign_minus_exp for p > 0 and u != 0 by interval arithmetic.

    Doubling precision; terminates because exp of a nonzero rational is
    irrational, so the difference is never exactly zero.
    """
    prec = 64
    while prec <= max_bits:
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
        f"could not separate {p} from exp({u}) below {max_bits} bits"
    )


def _mag2(x) -> Fraction:
    if isinstance(x, ComplexRational):
        return x.abs2()
    f = Fraction(x)
    return f * f


def compare_weighted(a1, x1, a2, x2, k: int) -> int:
    """Exact sign of |x1| e^{-a1/k} - |x2| e^{-a2/k} for rational inputs.

    x may be Fraction-like or ComplexRational (magnitudes squared stay
    rational either way).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m1, m2 = _mag2(x1), _mag2(x2)
    if m1 == 0 and m2 == 0:
        return 0
    if m1 == 0:
        return -1
    if m2 == 0:
        return 1
    u = (Fraction(a1) - Fraction(a2)) * Fraction(2, k)
    return sign_minus_exp(m1 / m2, u)


def _log_weights(alphas, xs, k: int) -> list:
    """Float (log |x_n| - alpha_n/k, error band) per entry; zeros get -inf.

    The band is _FILTER_BAND times the scale of _log_abs plus |alpha_n/k|,
    which bounds the float error of each log-weight (float(alpha_n) / k is
    two correctly rounded steps) with the same margin as sign_minus_exp.
    Raises OverflowError when some alpha_n does not fit a float.
    """
    out = []
    for a, x in zip(alphas, xs):
        if isinstance(x, ComplexRational):
            m, half = x.abs2(), 0.5
        else:
            m, half = (x if isinstance(x, Fraction) else Fraction(x)), 1.0
        if m == 0:
            out.append((-math.inf, 0.0))
            continue
        lm, scale = _log_abs(m)
        e = float(a) / k
        out.append((half * lm - e, _FILTER_BAND * (scale + abs(e))))
    return out


def weighted_argmax(alphas, xs, k: int) -> int:
    """Index attaining max_n |x_n| e^{-alpha_n/k}, decided exactly.

    Ties (only possible between exactly equal weighted magnitudes) resolve to
    the earliest index.  A float pass keeps only the entries whose log-weight
    lies within the error bands of the float maximum; every exact maximizer is
    among them, and an exact scan over them in index order picks the earliest.
    """
    if len(alphas) != len(xs) or not xs:
        raise ValueError("need matching nonempty alpha and x")
    if k < 1:
        raise ValueError("k must be >= 1")
    try:
        weights = _log_weights(alphas, xs, k)
    except OverflowError:
        candidates = range(len(xs))
    else:
        top, top_band = max(weights)
        floor = top - top_band
        candidates = [i for i, (w, band) in enumerate(weights)
                      if w + band >= floor]
    best = candidates[0]
    for i in candidates[1:]:
        if compare_weighted(alphas[i], xs[i], alphas[best], xs[best], k) > 0:
            best = i
    return best


def compare_seminorms(alphas, k: int, xs, ys) -> int:
    """Exact sign of p_k(x) - p_k(y) over the common truncation."""
    i = weighted_argmax(alphas[:len(xs)], xs, k)
    j = weighted_argmax(alphas[:len(ys)], ys, k)
    return compare_weighted(alphas[i], xs[i], alphas[j], ys[j], k)
