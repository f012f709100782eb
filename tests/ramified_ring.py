"""A minimal valuation ring of E = Q_p(pi), pi**m = p, for the tests.

The library computes over Z_p only.  This ring is the reference that the
conjugation oracle is checked against: entries embedded in E and shifted by
powers of pi, as in the definition of the oracle.  A scalar is a tuple of m
coefficients c_j of pi**j, each reduced modulo p**ceil((prec - j)/m), so it
is known modulo pi**prec; prec counts pi-adic digits.  Only the operations
the reference needs are here: subtraction, the shift by pi**k, and the
pi-adic valuation.
"""

from fractions import Fraction

from iwahori.groups import PValue
from iwahori.padic import INF, PrecisionError, vp_int


class RamifiedRing:
    def __init__(self, p: int, m: int, prec: int):
        self.p, self.m, self.prec = p, m, prec

    def coeff_mod(self, j: int, prec: int) -> int:
        """Modulus of the coefficient of pi**j at pi-precision prec."""
        k = prec - j
        return self.p ** -(-k // self.m) if k > 0 else 1

    def canonical(self, coeffs, prec: int, exact: bool = False) -> "RamifiedScalar":
        raw = tuple(coeffs)
        co = tuple(c % self.coeff_mod(j, prec) for j, c in enumerate(raw))
        return RamifiedScalar(self, co, prec, exact and co == raw)

    def zero(self, prec: int, exact: bool = True) -> "RamifiedScalar":
        return RamifiedScalar(self, (0,) * self.m, prec, exact)

    def from_int(self, n: int, prec: int) -> "RamifiedScalar":
        return self.canonical((n,) + (0,) * (self.m - 1), prec, exact=True)

    def embed(self, x) -> "RamifiedScalar":
        """A Z_p scalar known modulo p**prec, as an element of E known
        modulo pi**(m prec)."""
        return self.canonical((x.co,) + (0,) * (self.m - 1), self.m * x.prec, x.exact)


class RamifiedScalar:
    def __init__(self, ring: RamifiedRing, co: tuple, prec: int, exact: bool):
        self.ring, self.co, self.prec, self.exact = ring, co, prec, exact

    @property
    def is_exact_zero(self) -> bool:
        return self.exact and not any(self.co)

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other, self.prec)
        co = tuple(a - b for a, b in zip(self.co, other.co))
        return self.ring.canonical(co, min(self.prec, other.prec), self.exact and other.exact)

    def shift(self, k: int) -> "RamifiedScalar":
        """Multiply by pi**k.  Negative k divides and must be exact; each
        division step costs one digit of precision."""
        ring = self.ring
        if self.is_exact_zero:
            return ring.zero(max(1, self.prec + k), exact=True)
        if k < 0:
            w = self.pival()
            if w is None and self.prec < -k:
                raise PrecisionError("no digits left to divide by the uniformizer")
            if w is not None and w < -k:
                raise PrecisionError("not divisible by the uniformizer")
        co = [0] * ring.m
        for j, c in enumerate(self.co):
            q, i = divmod(j + k, ring.m)
            co[i] = c * ring.p ** q if q >= 0 else c // ring.p ** -q
        return ring.canonical(co, self.prec + k, self.exact)

    def pival(self):
        """pi-adic valuation: integer, INF for exact zero, None for >= prec."""
        if self.is_exact_zero:
            return INF
        ws = [self.ring.m * vp_int(c, self.ring.p) + j for j, c in enumerate(self.co) if c]
        return min(ws) if ws and min(ws) < self.prec else None

    def zero_mod(self, k: int) -> bool:
        w = self.pival()
        return w is None or w >= k

    def pvalue(self) -> PValue:
        """The valuation with val(p) = 1: infinity for an exact zero,
        '>= prec/m' when every tracked digit is zero."""
        w = self.pival()
        if w is INF:
            return PValue.infinite()
        if w is None:
            return PValue.at_least(Fraction(self.prec, self.ring.m))
        return PValue.finite(Fraction(w, self.ring.m))
