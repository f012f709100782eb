"""Weight multiplicities of Verma-type modules, the simplicity criterion
on exact character data, Weyl twisting, and the symplectic rank-two golden
case.

Characters and weights are carried by exact rational coordinate vectors
on the chart basis of the torus (for the symplectic group: dchi = (c1, c2)
with chi(t_{a,b}) = chi_1(a) chi_2(b)).  All decisions are exact rational
comparisons; p-adic values of limited precision are rejected for the
integrality test rather than guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .padic import InternalError
from .roots import RootDatum, WeylElement, get_root_datum


@dataclass(frozen=True)
class DerivedCharacter:
    """Derivative data of a torus character in chart coordinates."""

    group: str
    coeffs: tuple

    @classmethod
    def of(cls, group: str, *cs) -> "DerivedCharacter":
        datum = get_root_datum(group)
        cs = tuple(Fraction(c) for c in cs)
        if len(cs) != datum.dim:
            raise ValueError(f"{group} characters need {datum.dim} coordinates")
        return cls(datum.name, cs)

    @property
    def datum(self) -> RootDatum:
        return get_root_datum(self.group)

    def pairing(self, cochar) -> Fraction:
        return sum((c * e for c, e in zip(self.coeffs, cochar)), Fraction(0))

    def twisted(self, w: WeylElement) -> "DerivedCharacter":
        return DerivedCharacter(self.group, tuple(w.act(self.coeffs)))


def weyl_twist(dchi: DerivedCharacter, w: WeylElement) -> DerivedCharacter:
    return dchi.twisted(w)


@dataclass(frozen=True)
class WeightLabel:
    """A torus weight, same coordinates as DerivedCharacter."""

    group: str
    coeffs: tuple

    @classmethod
    def of(cls, group: str, *cs) -> "WeightLabel":
        return cls(get_root_datum(group).name, tuple(Fraction(c) for c in cs))


def weight_multiplicity(dchi: DerivedCharacter, lam, w: WeylElement | None = None) -> int:
    """Dimension of the lam weight space: the number of ways to write
    dchi - lam as a non-negative integer combination of the w-twisted
    positive roots.  As w is linear, this counts w^-1(dchi - lam) in
    simple-root coordinates (0 off the lattice, off the span or outside the
    cone): a walk over the non-simple roots stops a slot once a coordinate
    goes negative, and the simple roots take what remains.  The last
    non-simple slot is not walked: the k >= 0 with rest - k * step >= 0 form
    an interval, counted at once."""
    datum = dchi.datum
    if getattr(lam, "group", datum.name) != datum.name:
        raise ValueError(f"a {lam.group} weight is not a {datum.name} weight")
    lam_coeffs = lam.coeffs if hasattr(lam, "coeffs") else tuple(Fraction(c) for c in lam)
    if len(lam_coeffs) != datum.dim:
        raise ValueError(f"{datum.name} weights need {datum.dim} coordinates")
    target = tuple(a - b for a, b in zip(dchi.coeffs, lam_coeffs))
    if w is not None:
        datum.positive_image(w)  # raises for a w that does not permute the roots
        target = w.inverse().act(target)
    coords = datum.simple_coordinates(target)
    if coords is None or min(coords) < 0:
        return 0
    if not datum.nonsimple_coordinates:
        return 1
    *steps, last = datum.nonsimple_coordinates
    count = 0
    stack = [(0, coords)]
    while stack:
        r, rest = stack.pop()
        if r == len(steps):
            count += min(x // c for x, c in zip(rest, last) if c > 0) + 1
            continue
        while min(rest) >= 0:
            stack.append((r + 1, rest))
            rest = tuple(x - c for x, c in zip(rest, steps[r]))
    return count


def is_positive_integer(q: Fraction) -> bool:
    q = Fraction(q)
    return q.denominator == 1 and q > 0


def bgg_simple(dchi: DerivedCharacter):
    """The simplicity test on exact rationals: simple exactly when
    (dchi + delta) pairs with no positive coroot in a positive integer.
    Returns the verdict and the per-root certificate; the pairings run on
    ints over the common denominator of dchi + delta."""
    datum = dchi.datum
    big_d = math.lcm(*(c.denominator for c in (*dchi.coeffs, *datum.delta)))
    shifted = [c.numerator * (big_d // c.denominator) + d.numerator * (big_d // d.denominator)
               for c, d in zip(dchi.coeffs, datum.delta)]
    certificate = []
    simple = True
    for root in datum.positive_roots:
        value = sum(map(mul, shifted, datum.coroot(root)))
        hit = value > 0 and value % big_d == 0
        simple = simple and not hit
        certificate.append({"root": root, "value": Fraction(value, big_d), "positive_integer": hit})
    return simple, certificate


@lru_cache(maxsize=None)
def _twist_table(datum: RootDatum, w: WeylElement):
    """(w.delta as ints over d, d, the coroots (w.alpha)^v over alpha > 0), built once
    per (datum, w); a w that does not permute the roots raises on every call."""
    coroots = tuple(datum.coroot(datum.act_root(w, root)) for root in datum.positive_roots)
    d = math.lcm(*(c.denominator for c in datum.delta))
    return w.act([int(c * d) for c in datum.delta]), d, coroots


def bgg_simple_twisted(dchi: DerivedCharacter, w: WeylElement):
    """The same verdict computed through the w-twisted positive system, on
    ints: w.dchi and w.delta are cleared to one common denominator D, so a
    pairing <w.dchi + w.delta, (w.alpha)^v> is a positive integer exactly
    when its int numerator over D is > 0 and divisible by D."""
    wdelta, d, coroots = _twist_table(dchi.datum, w)
    big_d = math.lcm(d, *(c.denominator for c in dchi.coeffs))
    shifted = [c + e * (big_d // d) for c, e in zip(
        w.act([c.numerator * (big_d // c.denominator) for c in dchi.coeffs]), wdelta)]
    return not any(value > 0 and value % big_d == 0
                   for value in (sum(s * e for s, e in zip(shifted, cov)) for cov in coroots))


# -- the symplectic golden case -------------------------------------------

# Cartan elements attached to the positive roots, as diagonal matrices in
# the chart diag(a, b, 1/b, 1/a); stored as golden data and cross-checked
# against the lattice coroots.
SP4_CARTAN_DIAGONALS = {
    (1, -1): (1, -1, 1, -1),
    (0, 2): (0, 1, -1, 0),
    (1, 1): (1, 1, -1, -1),
    (2, 0): (1, 0, 0, -1),
}


# presentation order of the four conditions: a, b, a+b, 2a+b
SP4_CONDITION_ORDER = [(1, -1), (0, 2), (1, 1), (2, 0)]


def sp4_conditions(c1, c2):
    """The four simplicity values (order a, b, a+b, 2a+b) via the explicit
    Cartan matrices, cross-checked against the generic delta-pairing path;
    the two paths must agree identically.

    With delta(t_{a,b}) = a^2 b and H_{2a+b} = diag(1, 0, 0, -1) the last
    value is c1 + 2: both computation paths force it, and no element of
    the torus algebra pairs to (2*c1, 2) with (dchi, delta)."""
    c1, c2 = Fraction(c1), Fraction(c2)
    datum = get_root_datum("sp4")
    dchi = DerivedCharacter.of("sp4", c1, c2)
    explicit = []
    for root in SP4_CONDITION_ORDER:
        diag = SP4_CARTAN_DIAGONALS[root]
        # consistency of the golden data with the symplectic chart
        if diag[2] != -diag[1] or diag[3] != -diag[0]:
            raise InternalError("golden Cartan matrix is not in the torus algebra")
        shifted = (c1 + datum.delta[0], c2 + datum.delta[1])
        explicit.append(shifted[0] * diag[0] + shifted[1] * diag[1])
    _, certificate = bgg_simple(dchi)
    generic = {tuple(entry["root"]): entry["value"] for entry in certificate}
    if explicit != [generic[r] for r in SP4_CONDITION_ORDER]:
        raise InternalError("explicit Cartan path disagrees with the pairing path")
    return tuple(explicit)


def summand_inventory(group: str):
    """The Weyl-indexed summand list with, for every ordered pair of
    distinct elements, a witness root in w Phi+ inter w' Phi-; the witness
    is the combinatorial reason the summands pairwise admit no nonzero
    intertwiner.  The witness of (w, w') is the least root of the and of
    their masks (``RootDatum.image_masks``), recomputed on every call."""
    datum = get_root_datum(group)
    weyl = datum.weyl_group()
    rows = [(w.name, *datum.image_masks(w)) for w in weyl]
    witnesses = {}
    for name, pos, _ in rows:
        for name2, _, neg in rows:
            if name == name2:
                continue
            witness = datum.least_root(pos & neg)
            if witness is None:
                raise InternalError(f"no witness root for {name} vs {name2}")
            witnesses[(name, name2)] = witness
    return {
        "group": datum.name,
        "summands": [w.name for w in weyl],
        "count": len(weyl),
        "witnesses": witnesses,
    }
