"""Exact fixed-precision arithmetic in Z_p and pure ramified extensions.

Scalars are elements of the valuation ring of E = Q_p(pi) with pi**m = p,
stored as canonical digit tuples modulo pi**prec.  Precision is absolute
(pi-adic digits) and tracked per value, so precision loss is explicit and
never silent.  Valuations are normalised so that val(p) = 1; the valuation
of a nonzero element is then an integer multiple of 1/m.

A value known to be exactly zero carries a flag, because "0 modulo pi**N"
and "exactly 0" must report different valuations (the cap marker versus
infinity).
"""

from __future__ import annotations

import math
from fractions import Fraction

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
    """The truncated valuation ring O_E modulo pi**prec, E = Q_p(p^(1/m)).

    prec counts pi-adic digits: a value is known modulo pi**prec and its
    valuation is reported exactly below prec/m, as ">= prec/m" otherwise.
    The base field is Q_p throughout, so the absolute ramification index
    of E equals m.
    """

    __slots__ = ("p", "m", "prec", "_pp")

    def __init__(self, p: int, m: int = 1, prec: int = 24):
        if p <= 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            raise PadicError(f"p must be an odd prime, got {p}")
        if m < 1:
            raise PadicError(f"ramification m must be >= 1, got {m}")
        if prec < 1:
            raise PadicError(f"precision must be >= 1, got {prec}")
        self.p = p
        self.m = m
        self.prec = prec
        self._pp = {0: 1, 1: p}

    def ppow(self, k: int) -> int:
        """p**k, read as 1 for k <= 0: the modulus of a value with k digits."""
        pp = self._pp
        if k not in pp:
            pp[k] = self.p ** k if k > 0 else 1
        return pp[k]

    def coeff_mod(self, j: int, prec: int) -> int:
        """Modulus for the degree-j polynomial coefficient at pi-precision prec."""
        k = prec - j
        if k <= 0:
            return 1
        return self.ppow(-(-k // self.m))

    def at_prec(self, prec: int) -> "ScalarRing":
        if prec == self.prec:
            return self
        return ScalarRing(self.p, self.m, prec)

    def same_field(self, other: "ScalarRing") -> bool:
        return self.p == other.p and self.m == other.m

    # -- constructors -------------------------------------------------

    def canonical(self, coeffs, prec: int, exact: bool = False) -> "PadicScalar":
        raw = tuple(coeffs)
        if self.m == 1:
            co = (raw[0] % self.ppow(prec),)
        else:
            co = tuple(c % self.coeff_mod(j, prec) for j, c in enumerate(raw))
        return PadicScalar(self, co, prec, exact and co == raw)

    def zero(self, prec: int | None = None, exact: bool = True) -> "PadicScalar":
        prec = self.prec if prec is None else prec
        return PadicScalar(self, (0,) * self.m, prec, exact)

    def one(self, prec: int | None = None) -> "PadicScalar":
        return self.from_int(1, prec)

    def from_int(self, n: int, prec: int | None = None) -> "PadicScalar":
        prec = self.prec if prec is None else prec
        co = (n,) + (0,) * (self.m - 1)
        return self.canonical(co, prec, exact=True)

    def from_fraction(self, q, prec: int | None = None) -> "PadicScalar":
        q = Fraction(q)
        prec = self.prec if prec is None else prec
        den = q.denominator
        if den % self.p == 0:
            raise UnitError(f"denominator {den} is divisible by p={self.p}")
        mod = self.coeff_mod(0, prec)
        c0 = (q.numerator * pow(den, -1, mod)) % mod if mod > 1 else 0
        co = (c0,) + (0,) * (self.m - 1)
        return PadicScalar(self, co, prec, exact=(q.denominator == 1 and 0 <= q < mod))

    def uniformizer(self, prec: int | None = None) -> "PadicScalar":
        prec = self.prec if prec is None else prec
        if self.m == 1:
            return self.from_int(self.p, prec)
        co = (0, 1) + (0,) * (self.m - 2)
        return self.canonical(co, prec, exact=True)

    def coerce(self, x, prec: int | None = None) -> "PadicScalar":
        if isinstance(x, PadicScalar):
            if not self.same_field(x.ring):
                raise PadicError("scalar from a different field")
            return x
        if isinstance(x, int):
            return self.from_int(x, prec)
        if isinstance(x, Fraction):
            return self.from_fraction(x, prec)
        raise PadicError(f"cannot coerce {type(x).__name__} into the scalar ring")

    def __eq__(self, other):
        return (isinstance(other, ScalarRing)
                and (self.p, self.m, self.prec) == (other.p, other.m, other.prec))

    def __hash__(self):
        return hash((self.p, self.m, self.prec))

    def __repr__(self):
        if self.m == 1:
            return f"ScalarRing(Z_{self.p}, prec={self.prec})"
        return f"ScalarRing(Z_{self.p}[p^(1/{self.m})], prec={self.prec})"


class PadicScalar:
    """A canonical representative modulo pi**prec, immutable.

    The exact flag records that the stored representative is the value
    itself, not merely a truncation; it is what lets exact zeros report
    valuation infinity instead of the precision cap.
    """

    __slots__ = ("ring", "co", "prec", "exact")

    def __init__(self, ring: ScalarRing, co: tuple, prec: int, exact: bool = False):
        self.ring = ring
        self.co = co
        self.prec = prec
        self.exact = exact

    @property
    def is_exact_zero(self) -> bool:
        return self.exact and not any(self.co)

    # -- helpers ------------------------------------------------------

    def _other(self, x) -> "PadicScalar":
        return self.ring.coerce(x, self.prec)

    def truncate(self, prec: int) -> "PadicScalar":
        if prec > self.prec and not self.exact:
            raise PrecisionError(f"cannot extend precision {self.prec} to {prec}")
        return self.ring.canonical(self.co, prec, self.exact)

    def _lift(self, prec: int) -> "PadicScalar":
        # Internal: reinterpret the same digits at a higher claimed precision.
        # Only valid when the final result is truncated back, as in exp/log.
        return PadicScalar(self.ring, self.co, prec, False)

    # -- arithmetic ---------------------------------------------------

    # The m = 1 branches of __add__, __mul__ and inv give the same
    # (co, prec, exact) as the generic route; they only skip its tuple
    # bookkeeping.  Both benchmark workloads multiply on ints: traced per
    # verify-sp4 / exact-sp4 item (seed 1), 0 / 0 adds, 3 / 13.6 muls (1 / 7.8
    # of them on the m = 1 branch) and 3 / 0 inversions reach these methods.
    # __sub__ (45 / 11.8 per item), __neg__ (2 / 0) and __eq__ (3 / 12) take
    # the generic route, whose ScalarRing.canonical keeps its own m = 1
    # branch.  Only __mul__ sends an exact zero operand (exact and
    # co[0] == 0) to the generic route, whose product of an exact zero is an
    # exact zero.

    def __add__(self, other):
        if type(other) is not PadicScalar:
            other = self._other(other)
        ring = self.ring
        prec = self.prec if self.prec < other.prec else other.prec
        if ring.m == 1:
            raw = self.co[0] + other.co[0]
            red = raw % ring.ppow(prec)
            return PadicScalar(ring, (red,), prec, self.exact and other.exact and red == raw)
        co = tuple(a + b for a, b in zip(self.co, other.co))
        return ring.canonical(co, prec, self.exact and other.exact)

    __radd__ = __add__

    def __neg__(self):
        return self.ring.canonical(tuple(-c for c in self.co), self.prec, self.exact)

    def __sub__(self, other):
        if type(other) is not PadicScalar:
            other = self._other(other)
        co = tuple(a - b for a, b in zip(self.co, other.co))
        return self.ring.canonical(co, min(self.prec, other.prec), self.exact and other.exact)

    def __rsub__(self, other):
        return self._other(other) - self

    def __mul__(self, other):
        if type(other) is not PadicScalar:
            other = self._other(other)
        ring = self.ring
        if ring.m == 1 and (self.co[0] or not self.exact) and (other.co[0] or not other.exact):
            prec = self.prec if self.prec < other.prec else other.prec
            raw = self.co[0] * other.co[0]
            red = raw % ring.ppow(prec)
            return PadicScalar(ring, (red,), prec, self.exact and other.exact and red == raw)
        if self.is_exact_zero or other.is_exact_zero:
            return ring.zero(min(self.prec, other.prec), exact=True)
        prec = min(self.prec, other.prec)
        exact = self.exact and other.exact
        m = ring.m
        conv = [0] * (2 * m - 1)
        for j, a in enumerate(self.co):
            if a:
                for k, b in enumerate(other.co):
                    if b:
                        conv[j + k] += a * b
        p = ring.p
        co = tuple(conv[i] + p * conv[i + m] if i + m < 2 * m - 1 else conv[i]
                   for i in range(m))
        return ring.canonical(co, prec, exact)

    __rmul__ = __mul__

    def inv(self) -> "PadicScalar":
        """Inverse of a unit; exact at the tracked precision."""
        if not self.is_unit():
            raise UnitError("inversion of a non-unit in ring mode; "
                            "use shift() for explicit uniformizer division")
        p, m, prec = self.ring.p, self.ring.m, self.prec
        if m == 1:
            mod = self.ring.coeff_mod(0, prec)
            r = pow(self.co[0], -1, mod)
            # the representative is the exact inverse only for the unit 1
            return PadicScalar(self.ring, (r,), prec, self.exact and r * self.co[0] == 1)
        y = self.ring.from_int(pow(self.co[0] % p, -1, p), prec)
        # Newton iteration doubles the pi-adic accuracy each step.
        steps = max(1, math.ceil(math.log2(prec))) + 1
        two = self.ring.from_int(2, prec)
        for _ in range(steps):
            y = y * (two - self * y)
        return y

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
        """Multiply by pi**k: digit j moves to j + k.  Negative k divides and
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
        m = ring.m
        co = [0] * m
        for j, c in enumerate(self.co):
            q, i = divmod(j + k, m)
            co[i] = c * ring.ppow(q) if q >= 0 else c // ring.ppow(-q)
        return ring.canonical(co, self.prec + k, self.exact)

    # -- queries ------------------------------------------------------

    def pival(self):
        """pi-adic valuation: integer, INF for exact zero, None for >= prec."""
        if self.is_exact_zero:
            return INF
        best = None
        p, m = self.ring.p, self.ring.m
        for j, c in enumerate(self.co):
            if c:
                w = m * vp_int(c, p) + j
                if best is None or w < best:
                    best = w
        if best is None or best >= self.prec:
            return None
        return best

    def val(self):
        """Valuation with val(p) = 1: Fraction, INF for exact zero,
        None for the marker '>= prec/m'."""
        w = self.pival()
        if w is INF or w is None:
            return w
        return Fraction(w, self.ring.m)

    def val_cap(self) -> Fraction:
        return Fraction(self.prec, self.ring.m)

    def is_unit(self) -> bool:
        return self.co[0] % self.ring.p != 0

    def zero_mod(self, k: int) -> bool:
        """x = 0 mod pi**k, or not ruled out: every tracked digit is zero."""
        w = self.pival()
        return w is None or w >= k

    def digits(self):
        """pi-adic digit list d_0..d_{prec-1}, each in 0..p-1."""
        p, m = self.ring.p, self.ring.m
        out = []
        for i in range(self.prec):
            out.append((self.co[i % m] // self.ring.ppow(i // m)) % p)
        return out

    def digit_string(self) -> str:
        """Canonical text encoding 'a0 + a1*pi + ...' used in reports."""
        sym = "p" if self.ring.m == 1 else "pi"
        if self.is_exact_zero:
            return "0"
        terms = []
        for i, d in enumerate(self.digits()):
            if not d:
                continue
            if i == 0:
                terms.append(str(d))
            elif i == 1:
                terms.append(f"{d}*{sym}" if d > 1 else sym)
            else:
                terms.append(f"{d}*{sym}^{i}" if d > 1 else f"{sym}^{i}")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O({sym}^{self.prec})"

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


def _series_length(w: int, prec: int, ring: ScalarRing) -> int:
    # Smallest n beyond which every term of the exp/log series has
    # pi-valuation >= prec, using vp(n!) <= (n-1)/(p-1) (valid for vp(n) too).
    p, m = ring.p, ring.m
    num = prec * (p - 1) - m
    den = w * (p - 1) - m
    return max(1, -(-num // den))


def _vp_factorial(n: int, p: int) -> int:
    v, q = 0, p
    while q <= n:
        v += n // q
        q *= p
    return v


def padic_exp(x: PadicScalar) -> "PadicScalar":
    """exp(x) = sum x^n/n!, defined for val(x) > 1/(p-1).

    The series is evaluated with guard digits covering the worst n!
    denominator, so the result is exact at the precision of x.  Over Z_p
    (m = 1) the loop runs on one int modulo p^buf and gives the same
    result and errors as the scalar loop.
    """
    ring, p, m = x.ring, x.ring.p, x.ring.m
    if x.is_exact_zero:
        return ring.one(x.prec)
    w = x.pival()
    if w is None:
        return ring.one(x.prec)  # x = 0 + O(pi^prec) gives exp(x) = 1 + O(pi^prec)
    if Fraction(w, m) <= Fraction(1, p - 1):
        raise DomainError(f"exp requires val > 1/(p-1), got {Fraction(w, m)}")
    nmax = _series_length(w, x.prec, ring)
    buf = x.prec + m * _vp_factorial(nmax, p)
    return (_exp_series_int if m == 1 else _exp_series)(x, nmax, buf)


def _exp_series(x, nmax, buf):
    """sum_{n <= nmax} x^n/n! on scalars at the guard precision buf,
    truncated to the precision of x."""
    ring, p, m = x.ring, x.ring.p, x.ring.m
    rbuf = ring.at_prec(buf)
    xb = rbuf.canonical(x.co, buf)
    acc = rbuf.one(buf)
    term = rbuf.one(buf)
    for n in range(1, nmax + 1):
        term = term * xb
        v = vp_int(n, p)
        unit = n // ring.ppow(v)
        if unit != 1:
            term = term * rbuf.from_int(unit, buf).inv()
        if v:
            term = term.shift(-m * v)._lift(buf)
        acc = acc + term
    return ring.canonical(acc.co, x.prec)


def _exp_series_int(x, nmax, buf):
    """``_exp_series`` for m = 1 on one int modulo p^buf."""
    acc = _exp_loop_int(x.co[0], x.ring, nmax, buf)
    return PadicScalar(x.ring, (acc % x.ring.ppow(x.prec),), x.prec, False)


def exp_int(xi: int, ring: ScalarRing) -> int:
    """An int congruent to exp(xi) modulo p^N over Z_p (m = 1, N the ring
    precision), for a nonzero int xi divisible by p: the loop of ``padic_exp``."""
    nmax = _series_length(vp_int(xi, ring.p), ring.prec, ring)
    return _exp_loop_int(xi, ring, nmax, ring.prec + _vp_factorial(nmax, ring.p))


def _exp_loop_int(xi, ring, nmax, buf):
    """sum_{n <= nmax} xi^n/n! modulo p^buf, for m = 1."""
    p, mod = ring.p, ring.ppow(buf)
    acc = term = 1
    for n in range(1, nmax + 1):
        term = term * xi % mod
        v = vp_int(n, p)
        unit = n // ring.ppow(v)
        if unit != 1:
            term = term * pow(unit, -1, mod) % mod
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
    """log(u) = sum (-1)^(n-1) (u-1)^n / n, defined for val(u-1) > 1/(p-1).

    Over Z_p (m = 1) the loop runs on one int, as in ``padic_exp``."""
    ring, p, m = u.ring, u.ring.p, u.ring.m
    y = u - ring.one(u.prec)
    if y.is_exact_zero:
        return ring.zero(u.prec, exact=True)
    w = y.pival()
    if w is None:
        return ring.zero(u.prec, exact=False)
    if Fraction(w, m) <= Fraction(1, p - 1):
        raise DomainError(f"log requires val(u-1) > 1/(p-1), got {Fraction(w, m)}")
    nmax = _series_length(w, u.prec, ring)
    vmax, q = 0, p
    while q <= nmax:
        vmax += 1
        q *= p
    buf = u.prec + m * vmax
    return (_log_series_int if m == 1 else _log_series)(y, nmax, buf)


def _log_series(y, nmax, buf):
    """sum_{n <= nmax} (-1)^(n-1) y^n/n on scalars at the guard precision
    buf, truncated to the precision of y."""
    ring, p, m = y.ring, y.ring.p, y.ring.m
    rbuf = ring.at_prec(buf)
    yb = rbuf.canonical(y.co, buf)
    acc = rbuf.zero(buf, exact=True)
    power = rbuf.one(buf)
    for n in range(1, nmax + 1):
        power = power * yb
        v = vp_int(n, p)
        unit = n // ring.ppow(v)
        term = power
        if unit != 1:
            term = term * rbuf.from_int(unit, buf).inv()
        if v:
            term = term.shift(-m * v)._lift(buf)
        if n % 2 == 0:
            term = -term
        acc = acc + term
    return ring.canonical(acc.co, y.prec)


def _log_series_int(y, nmax, buf):
    """``_log_series`` for m = 1 on one int modulo p^buf."""
    ring, p = y.ring, y.ring.p
    mod, yi = ring.ppow(buf), y.co[0]
    acc, power = 0, 1
    for n in range(1, nmax + 1):
        power = power * yi % mod
        v = vp_int(n, p)
        unit = n // ring.ppow(v)
        term = power
        if unit != 1:
            term = term * pow(unit, -1, mod) % mod
        if v:
            term = _divide_p_power_int(term, v, buf, p)
        acc = (acc - term if n % 2 == 0 else acc + term) % mod
    return PadicScalar(ring, (acc % ring.ppow(y.prec),), y.prec, False)
