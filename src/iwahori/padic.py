"""Exact fixed-precision arithmetic in Z_p.

A scalar is an int representative modulo p**prec.  Precision is absolute
(p-adic digits) and tracked per value, so precision loss is explicit and
never silent.  The valuation of a nonzero element is an integer, val(p) = 1.

A value known to be exactly zero carries a flag, because "0 modulo p**N"
and "exactly 0" must report different valuations (the cap marker versus
infinity).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

INF = math.inf


class PadicError(ValueError):
    pass


class InternalError(RuntimeError):
    """A self-check of the library failed: a bug, never bad input.

    Deliberately not a ValueError, so that callers and the command line
    tell it apart from usage errors."""


class DomainError(PadicError):
    """Argument outside the convergence domain of exp or log."""


class UnitError(PadicError):
    """Inversion of a non-unit in ring mode."""


class PrecisionError(PadicError):
    """Requested digits are not available at the tracked precision."""


def vp_int(n: int, p: int):
    """p-adic valuation of an integer, INF for 0.  A unit costs one modulus;
    otherwise n is tested against p, p^2, p^4, ... and its valuation read off
    walking back down, in about 2 log2(v) steps."""
    if n % p:
        return 0
    if n == 0:
        return INF
    powers = [p]
    while n % (q := powers[-1] * powers[-1]) == 0:
        powers.append(q)
    v = 0
    for k in range(len(powers) - 1, -1, -1):
        if n % powers[k] == 0:
            n //= powers[k]
            v += 1 << k
    return v


def vp_fraction(q, p: int):
    """Exact p-adic valuation of a Fraction or int, INF for 0."""
    q = Fraction(q)
    if q == 0:
        return INF
    return vp_int(q.numerator, p) - vp_int(q.denominator, p)


class ScalarRing:
    """The truncated ring Z_p modulo p**prec.

    A value is known modulo p**prec and its valuation is reported exactly
    below prec, as ">= prec" otherwise.
    """

    __slots__ = ("p", "prec", "_pp")

    m = 1  # the ramification index, read by perfbench/spans.py

    def __init__(self, p: int, prec: int = 24):
        if p <= 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            raise PadicError(f"p must be an odd prime, got {p}")
        if prec < 1:
            raise PadicError(f"precision must be >= 1, got {prec}")
        self.p = p
        self.prec = prec
        self._pp = {0: 1, 1: p}

    def ppow(self, k: int) -> int:
        """p**k, read as 1 for k <= 0: the modulus of a value with k digits."""
        pp = self._pp
        if k not in pp:
            pp[k] = self.p ** k if k > 0 else 1
        return pp[k]

    # -- constructors -------------------------------------------------

    def canonical(self, c: int, prec: int, exact: bool = False) -> "PadicScalar":
        """c modulo p**prec; exact only if c is its own representative."""
        red = c % self.ppow(prec)
        return PadicScalar(self, red, prec, exact and red == c)

    def zero(self, prec: int | None = None, exact: bool = True) -> "PadicScalar":
        prec = self.prec if prec is None else prec
        return PadicScalar(self, 0, prec, exact)

    def one(self, prec: int | None = None) -> "PadicScalar":
        return self.from_int(1, prec)

    def from_int(self, n: int, prec: int | None = None) -> "PadicScalar":
        prec = self.prec if prec is None else prec
        return self.canonical(n, prec, exact=True)

    def from_fraction(self, q, prec: int | None = None) -> "PadicScalar":
        q = Fraction(q)
        prec = self.prec if prec is None else prec
        den = q.denominator
        if den % self.p == 0:
            raise UnitError(f"denominator {den} is divisible by p={self.p}")
        mod = self.ppow(prec)
        c = q.numerator * pow(den, -1, mod) % mod
        return PadicScalar(self, c, prec, exact=(den == 1 and 0 <= q < mod))

    def coerce(self, x, prec: int | None = None) -> "PadicScalar":
        if isinstance(x, PadicScalar):
            if x.ring.p != self.p:
                raise PadicError("scalar from a different field")
            return x
        if isinstance(x, int):
            return self.from_int(x, prec)
        if isinstance(x, Fraction):
            return self.from_fraction(x, prec)
        raise PadicError(f"cannot coerce {type(x).__name__} into the scalar ring")

    def __eq__(self, other):
        return isinstance(other, ScalarRing) and (self.p, self.prec) == (other.p, other.prec)

    def __hash__(self):
        return hash((self.p, self.prec))

    def __repr__(self):
        return f"ScalarRing(Z_{self.p}, prec={self.prec})"


class PadicScalar:
    """The representative co in 0..p**prec - 1 of a value modulo p**prec,
    immutable.

    The exact flag records that co is the value itself, not merely a
    truncation; it is what lets exact zeros report valuation infinity
    instead of the precision cap.
    """

    __slots__ = ("ring", "co", "prec", "exact")

    def __init__(self, ring: ScalarRing, co: int, prec: int, exact: bool = False):
        self.ring = ring
        self.co = co
        self.prec = prec
        self.exact = exact

    @property
    def is_exact_zero(self) -> bool:
        return self.exact and not self.co

    # -- helpers ------------------------------------------------------

    def _other(self, x) -> "PadicScalar":
        return self.ring.coerce(x, self.prec)

    def truncate(self, prec: int) -> "PadicScalar":
        if prec > self.prec and not self.exact:
            raise PrecisionError(f"cannot extend precision {self.prec} to {prec}")
        return self.ring.canonical(self.co, prec, self.exact)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if type(other) is not PadicScalar:
            other = self._other(other)
        prec = self.prec if self.prec < other.prec else other.prec
        return self.ring.canonical(self.co + other.co, prec, self.exact and other.exact)

    __radd__ = __add__

    def __neg__(self):
        return self.ring.canonical(-self.co, self.prec, self.exact)

    def __sub__(self, other):
        if type(other) is not PadicScalar:
            other = self._other(other)
        prec = self.prec if self.prec < other.prec else other.prec
        return self.ring.canonical(self.co - other.co, prec, self.exact and other.exact)

    def __rsub__(self, other):
        return self._other(other) - self

    def __mul__(self, other):
        if type(other) is not PadicScalar:
            other = self._other(other)
        prec = self.prec if self.prec < other.prec else other.prec
        # the product with an exact zero is an exact zero
        exact = (self.exact and other.exact or self.exact and not self.co
                 or other.exact and not other.co)
        return self.ring.canonical(self.co * other.co, prec, exact)

    __rmul__ = __mul__

    def inv(self) -> "PadicScalar":
        """Inverse of a unit; exact at the tracked precision."""
        if not self.is_unit():
            raise UnitError("inversion of a non-unit in ring mode; "
                            "use shift() for explicit uniformizer division")
        r = pow(self.co, -1, self.ring.ppow(self.prec))
        # the representative is the exact inverse only for the unit 1
        return PadicScalar(self.ring, r, self.prec, self.exact and r * self.co == 1)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        # one(prec) * x has the state of x, so the ladder starts from the base
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return self.ring.one(self.prec) if result is None else result

    def shift(self, k: int) -> "PadicScalar":
        """Multiply by p**k: digit j moves to j + k.  Negative k divides and
        must be exact; each division step costs one digit of precision."""
        ring = self.ring
        if self.is_exact_zero:
            return ring.zero(max(1, self.prec + k), exact=True)
        if k < 0:
            w = self.pival()
            if w is None and self.prec < -k:
                raise PrecisionError("no digits left to divide by the uniformizer")
            if w is not None and w < -k:
                raise PrecisionError("not divisible by the uniformizer")
            c = self.co // ring.ppow(-k)
        else:
            c = self.co * ring.ppow(k)
        return ring.canonical(c, self.prec + k, self.exact)

    # -- queries ------------------------------------------------------

    def pival(self):
        """p-adic valuation: integer, INF for exact zero, None for >= prec."""
        if not self.co:
            return INF if self.exact else None
        return vp_int(self.co, self.ring.p)

    def val(self):
        """Valuation as a Fraction, INF for exact zero, None for the marker
        '>= prec'."""
        w = self.pival()
        if w is INF or w is None:
            return w
        return Fraction(w)

    def val_cap(self) -> Fraction:
        return Fraction(self.prec)

    def is_unit(self) -> bool:
        return self.co % self.ring.p != 0

    def zero_mod(self, k: int) -> bool:
        """x = 0 mod p**k, or not ruled out: every tracked digit is zero."""
        w = self.pival()
        return w is None or w >= k

    def digits(self):
        """p-adic digit list d_0..d_{prec-1}, each in 0..p-1."""
        p, ppow = self.ring.p, self.ring.ppow
        return [(self.co // ppow(i)) % p for i in range(self.prec)]

    def digit_string(self) -> str:
        """Canonical text encoding 'a0 + a1*p + ...' used in reports."""
        if self.is_exact_zero:
            return "0"
        terms = []
        for i, d in enumerate(self.digits()):
            if not d:
                continue
            if i == 0:
                terms.append(str(d))
            elif i == 1:
                terms.append(f"{d}*p" if d > 1 else "p")
            else:
                terms.append(f"{d}*p^{i}" if d > 1 else f"p^{i}")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(p^{self.prec})"

    def __eq__(self, other):
        try:
            other = self._other(other)
        except PadicError:
            return NotImplemented
        prec = min(self.prec, other.prec)
        return self.truncate(prec).co == other.truncate(prec).co

    def __hash__(self):
        raise TypeError("PadicScalar is not hashable; compare at precision instead")

    def __repr__(self):
        return f"PadicScalar({self.digit_string()})"


# -- exp and log -------------------------------------------------------


def _series_length(w: int, prec: int, p: int) -> int:
    # Smallest n beyond which every term of the exp/log series has
    # valuation >= prec, using vp(n!) <= (n-1)/(p-1) (valid for vp(n) too).
    return max(1, -(-(prec * (p - 1) - 1) // (w * (p - 1) - 1)))


def _vp_factorial(n: int, p: int) -> int:
    v, q = 0, p
    while q <= n:
        v += n // q
        q *= p
    return v


def padic_exp(x: PadicScalar) -> "PadicScalar":
    """exp(x) = sum x^n/n!, defined for val(x) > 1/(p-1), that is val(x) >= 1.

    The series runs on one int modulo p^buf, with guard digits covering the
    worst n! denominator, so the result is exact at the precision of x.
    """
    ring, p = x.ring, x.ring.p
    if x.is_exact_zero:
        return ring.one(x.prec)
    w = x.pival()
    if w is None:
        return ring.canonical(1, x.prec)  # x = 0 + O(p^prec) gives exp(x) = 1 + O(p^prec)
    if w * (p - 1) <= 1:
        raise DomainError(f"exp requires val > 1/(p-1), got {w}")
    nmax = _series_length(w, x.prec, p)
    acc = _exp_loop(x.co, ring, nmax, x.prec + _vp_factorial(nmax, p))
    return PadicScalar(ring, acc % ring.ppow(x.prec), x.prec, False)


def exp_int(xi: int, ring: ScalarRing) -> int:
    """An int congruent to exp(xi) modulo p^N (N the ring precision), for a
    nonzero int xi divisible by p: the loop of ``padic_exp``."""
    nmax = _series_length(vp_int(xi, ring.p), ring.prec, ring.p)
    return _exp_loop(xi, ring, nmax, ring.prec + _vp_factorial(nmax, ring.p))


@lru_cache(maxsize=64)
def _series_terms(p: int, nmax: int, buf: int) -> tuple:
    """(inverse of the unit part of n modulo p^buf, vp(n)) for n = 1..nmax,
    read by the exp and log loops."""
    out = []
    for n in range(1, nmax + 1):
        v = vp_int(n, p)
        out.append((pow(n // p ** v, -1, p ** max(buf, 0)), v))
    return tuple(out)


def _exp_loop(xi, ring, nmax, buf):
    """sum_{n <= nmax} xi^n/n! modulo p^buf."""
    p, mod = ring.p, ring.ppow(buf)
    acc = term = 1
    for unit_inv, v in _series_terms(p, nmax, buf):
        term = term * xi % mod
        if unit_inv != 1:
            term = term * unit_inv % mod
        if v:
            term = _divide_p_power_int(term, v, buf, p)
        acc = (acc + term) % mod
    return acc


def _divide_p_power_int(c, v, prec, p):
    """c / p^v for an int known modulo p^prec, with the errors of
    ``PadicScalar.shift(-v)``."""
    for step in range(v):
        if prec - step < 1:
            raise PrecisionError("no digits left to divide by the uniformizer")
        if c % p:
            raise PrecisionError("not divisible by the uniformizer")
        c //= p
    return c


def padic_log(u: PadicScalar) -> "PadicScalar":
    """log(u) = sum (-1)^(n-1) (u-1)^n / n, defined for val(u-1) > 1/(p-1),
    on one int as in ``padic_exp``."""
    ring, p = u.ring, u.ring.p
    y = u - ring.one(u.prec)
    if y.is_exact_zero:
        return ring.zero(u.prec, exact=True)
    w = y.pival()
    if w is None:
        return ring.zero(u.prec, exact=False)
    if w * (p - 1) <= 1:
        raise DomainError(f"log requires val(u-1) > 1/(p-1), got {w}")
    nmax = _series_length(w, u.prec, p)
    vmax, q = 0, p
    while q <= nmax:
        vmax += 1
        q *= p
    acc = _log_loop(y.co, ring, nmax, u.prec + vmax)
    return PadicScalar(ring, acc % ring.ppow(y.prec), y.prec, False)


def _log_loop(yi, ring, nmax, buf):
    """sum_{n <= nmax} (-1)^(n-1) yi^n/n modulo p^buf."""
    p, mod = ring.p, ring.ppow(buf)
    acc, power = 0, 1
    for n, (unit_inv, v) in enumerate(_series_terms(p, nmax, buf), 1):
        power = power * yi % mod
        term = power
        if unit_inv != 1:
            term = term * unit_inv % mod
        if v:
            term = _divide_p_power_int(term, v, buf, p)
        acc = (acc - term if n % 2 == 0 else acc + term) % mod
    return acc
