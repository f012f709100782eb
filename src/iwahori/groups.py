"""Matrix models of SL2, SL3 and Sp4 over the p-adic scalar ring.

Realization conventions
-----------------------
The pro-p Iwahori subgroup I consists of matrices over Z_p that are
congruent to a lower-unipotent matrix mod p, and the positive roots are
realized by lower-triangular root subgroups.  To keep the standard
relation t * u_r(x) * t^(-1) = u_r(r(t) x) with this choice, torus
cocharacters are realized with negated exponents: mu = (x, y) acts on Sp4
as diag(c^-x, c^-y, c^y, c^x).  Equivalently, the model here is the
textbook upper-triangular one composed with the transpose-inverse
automorphism.  The dictionary for Sp4, with e1, e2 the epsilon-labels of
the root datum (so a = e1 - e2, b = 2*e2):

    root          matrix direction        entries
    a             E21 - E43 (lower)       (2,1), -(4,3)
    b             E32 (lower)             (3,2)
    a + b         E31 + E42 (lower)       (3,1), (4,2)
    2a + b        E41 (lower)             (4,1)

and negative roots are the transposed directions with the same signs.
The antidiagonal Gram matrix has rows (0,0,0,1), (0,0,1,0), (0,-1,0,0),
(-1,0,0,0).

Factorization algorithm
-----------------------
For a Weyl twist w, the adapted cocharacter gives each matrix position a
distinct integer weight.  Sorting the basis by descending weight turns
the two unipotent batches into strict triangles, so an element of I
factors by exact LDU elimination with unit pivots (guaranteed for
elements of I; a non-unit pivot is an internal error).  Each triangular
factor is then peeled into root-group parameters in the fixed batch
order; reading parameters off matrix entries is exact because the batch
order is height-monotone, and any product of two or more batch roots has
strictly larger weight than a single one.

Self-checks
-----------
``iwahori_factorize`` runs these checks; a failed input check raises
``GateError`` or ``MembershipError``, a failed invariant raises
``InternalError``.  The checks on the twist alone run once per (group
name, w, tie_break) in a process, when its plan is built and cached, since
the root datum, the matrix model and w fix them; the others run on every
call, also when the same element was factorized before:

    the parameter gate p - 1 > h;
    membership in I: the group relation (g^T J g = J on Sp4, det g = 1
      on SL_n, see ``satisfies_group_relation``), unit diagonal congruent
      to 1 and upper entries divisible by p;
    distinct adapted-cocharacter weights (once per twist) and unit LDU
      pivots;
    weight-monotone batch orders, with every batch root inside its strict
      LDU triangle (once per twist);
    in each unipotent strip, agreement of the paired entries of a root
      and an identity remainder;
    a torus diagonal in the image of the cocharacter lattice (see
      ``_torus_coords_ints``), congruent to 1 mod p;
    upper root parameters divisible by p.

Integer path
------------
An element whose entries are all inexact and all at the ring precision N
is read into plain ints modulo p^N when it is built, and keeps them.  For
such elements the group relation, the membership test, the factor minimum
omega, products and inverses run on those ints, and so does the
factorization.  Results stay ints until read: an element builds its scalar
entries ``mat``, and a factorization wraps its four factor lists, the first
time they are read, so ``p_valuation`` builds no scalar.
``from_coordinates`` builds such elements on ints from int coordinates in
1..p^N - 1, as ``sample_iwahori`` draws them.  The path gives the same
(co, prec, exact) as the scalar route, runs the same self-checks and raises
the same exceptions; its outputs are again inexact at N, so chained products
stay on it.  Exact or mixed-precision entries (user matrices, the identity,
root generators) take the scalar route.  Both routes factor in plan order:
the LDU of the rows permuted once into the twist's basis order, then both
strips, in place, through the batch directions that the plan maps to that
order.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from operator import mul

from .padic import (INF, InternalError, PadicScalar, PrecisionError, ScalarRing, exp_int,
                    padic_exp, padic_log, vp_int)
from .roots import RootDatum, WeylElement, get_root_datum


class GateError(ValueError):
    """The parameter gate p - 1 > e*h is violated."""


class MembershipError(ValueError):
    """The element does not belong to the required subgroup."""


@dataclass(frozen=True)
class PValue:
    """An exact p-valuation value: a rational, a cap marker '>= value', or
    infinity.  Comparisons (``ge``, ``eq``) return ``(verdict, margin)``,
    or ``(None, None)`` when a cap marker leaves the answer open."""

    kind: str  # "finite" | "at_least" | "infinite"
    value: Fraction | None = None

    @classmethod
    def finite(cls, q) -> "PValue":
        return cls("finite", Fraction(q))

    @classmethod
    def at_least(cls, q) -> "PValue":
        return cls("at_least", Fraction(q))

    @classmethod
    def infinite(cls) -> "PValue":
        return _INFINITE

    @classmethod
    def of(cls, x: PadicScalar, offset=0) -> "PValue":
        """val(x) + offset (an int or Fraction): infinity for an exact zero,
        '>= prec + offset' when every tracked digit is zero."""
        w = x.pival()
        if w is INF:
            return _INFINITE
        kind = "finite"
        if w is None:
            kind, w = "at_least", x.prec
        # one Fraction from ints: adding Fractions costs several times more
        num, den = offset.numerator, offset.denominator
        return cls(kind, Fraction(w * den + num, den))

    @staticmethod
    def min(values) -> "PValue":
        """The least value; a finite value wins a tie with a cap marker, and
        no values give infinity."""
        best = _INFINITE
        for v in values:
            if v.kind == "infinite":
                continue
            if best.kind == "infinite" or v.value < best.value or (
                    v.kind == "finite" and best.kind == "at_least" and v.value == best.value):
                best = v
        return best

    def __add__(self, other: "PValue") -> "PValue":
        if self.kind == "infinite" or other.kind == "infinite":
            return _INFINITE
        kind = "finite" if self.kind == other.kind == "finite" else "at_least"
        return PValue(kind, self.value + other.value)

    def ge(self, other: "PValue"):
        """Decide self >= other; the margin is self - other when both are known."""
        if other.kind == "infinite":
            return (True, None) if self.kind == "infinite" else (None, None)
        if self.kind == "infinite":
            return True, None
        if self.kind == "finite" and other.kind == "finite":
            return self.value >= other.value, self.value - other.value
        if self.kind == "at_least" and other.kind == "finite" and self.value >= other.value:
            return True, self.value - other.value
        return None, None

    def eq(self, other: "PValue"):
        """Decide self == other; the margin is -|self - other|."""
        if self.kind == "finite" and other.kind == "finite":
            return self.value == other.value, -abs(self.value - other.value)
        if self.kind == "infinite" and other.kind == "infinite":
            return True, None
        return None, None

    def __repr__(self):
        if self.kind == "finite":
            return f"PValue({self.value})"
        if self.kind == "at_least":
            return f"PValue(>= {self.value})"
        return "PValue(inf)"

    def as_json(self):
        if self.kind == "finite":
            return str(self.value)
        if self.kind == "at_least":
            return f">= {self.value}"
        return "inf"


_INFINITE = PValue("infinite")


# -- realization tables -------------------------------------------------

_SP4_GRAM = ((0, 0, 0, 1), (0, 0, 1, 0), (0, -1, 0, 0), (-1, 0, 0, 0))


def _sl_dirs(n):
    dirs = {}
    for i in range(n):
        for j in range(n):
            if i != j:
                root = tuple(int(k == i) - int(k == j) for k in range(n))
                dirs[root] = ((j, i, 1),)
    return dirs


_SP4_DIRS = {
    (1, -1): ((1, 0, 1), (3, 2, -1)),
    (-1, 1): ((0, 1, 1), (2, 3, -1)),
    (0, 2): ((2, 1, 1),),
    (0, -2): ((1, 2, 1),),
    (1, 1): ((2, 0, 1), (3, 1, 1)),
    (-1, -1): ((0, 2, 1), (1, 3, 1)),
    (2, 0): ((3, 0, 1),),
    (-2, 0): ((0, 3, 1),),
}

# products of diagonal entries recovering torus coordinates on the
# cocharacter basis, as lists of (diagonal index, exponent)
_TORUS_RECIPES = {
    "sl2": [[(1, 1)]],
    "sl3": [[(0, -1)], [(2, 1)]],
    "sp4": [[(3, 1)], [(2, 1), (3, 1)]],
}
# the image of the cocharacter lattice: the diagonals where these products are 1
_TORUS_EQUATIONS = {"sl2": [(0, 1)], "sl3": [(0, 1, 2)], "sp4": [(0, 3), (1, 2)]}

_MATRIX_SIZE = {"sl2": 2, "sl3": 3, "sp4": 4}

# g^-1 = -J g^T J on Sp4 reads entry (i, j) off g[3-j][3-i] with this sign
_SP4_INV_SIGN = tuple(tuple(-_SP4_GRAM[i][3 - i] * _SP4_GRAM[3 - j][j] for j in range(4))
                      for i in range(4))


# the basis order by descending weight and its inverse, the two batches, and
# per batch its (root, directions) pairs with each (i, j, s) mapped to plan order
_FactorPlan = namedtuple("_FactorPlan", "order inv_order neg_batch pos_batch neg_strip pos_strip")
# plans by (group name, w.matrix, tie_break): at most 36 over the three groups
_FACTOR_PLANS = {}


class ChevalleyGroup:
    """One of the supported matrix groups over Z_p at precision prec."""

    def __init__(self, name: str, p: int, prec: int = 12):
        self.datum: RootDatum = get_root_datum(name)
        self.name = self.datum.name
        self.ring = ring = ScalarRing(p, prec)
        self.n = n = _MATRIX_SIZE[self.name]
        if self.name == "sp4":
            self.dirs = _SP4_DIRS
        else:
            self.dirs = _sl_dirs(self.n)
        self.torus_recipe = _TORUS_RECIPES[self.name]
        # ring constants for the relation check, built once
        self._one, self._zero = ring.one(), ring.zero()
        self._mod = ring.ppow(ring.prec)  # the int path works modulo p^N
        self._identity_ints = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        self.coxeter_number = h = self.datum.coxeter_number()
        self._height = {r: self.datum.height(r) for r in self.dirs}  # omega offsets ht(root)/h
        self._omega_offset = {r: Fraction(ht, h) for r, ht in self._height.items()}
        self._basis_cache = {}

    # -- gates ---------------------------------------------------------

    def check_gate(self):
        h = self.coxeter_number
        if self.ring.p - 1 <= h:
            raise GateError(
                f"p-1 = {self.ring.p - 1} <= eh = {h} for {self.name}; "
                "the p-valuation is not defined here")

    # -- element constructors -------------------------------------------

    def _diagonal(self, diag) -> "GroupElement":
        zero = self.ring.zero()
        return GroupElement(self, tuple(tuple(diag[i] if i == j else zero for j in range(self.n))
                                        for i in range(self.n)))

    def identity(self) -> "GroupElement":
        return self._diagonal([self.ring.one()] * self.n)

    def element(self, rows) -> "GroupElement":
        n = self.n
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"a {self.name} element is a {n} x {n} matrix")
        mat = tuple(tuple(self.ring.coerce(x) for x in row) for row in rows)
        g = GroupElement(self, mat)
        if not g.satisfies_group_relation():
            raise MembershipError(f"matrix does not satisfy the {self.name} relation")
        return g

    def root_element(self, root, x) -> "GroupElement":
        """One-parameter unipotent u_root(x)."""
        root = tuple(root)
        if root not in self.dirs:
            raise ValueError(f"{root} is not a root of {self.name}")
        x = self.ring.coerce(x)
        rows = [list(r) for r in self.identity().mat]
        for (i, j, s) in self.dirs[root]:
            rows[i][j] = x if s == 1 else -x
        return GroupElement(self, tuple(tuple(r) for r in rows))

    def exponents(self, mu) -> tuple:
        """Diagonal exponent pattern of the cocharacter mu in this model."""
        if self.name == "sp4":
            x, y = mu
            return (-x, -y, y, x)
        return tuple(-c for c in mu)

    def torus_element(self, mu, c) -> "GroupElement":
        """The point mu(c) of the torus, for a unit c."""
        c = self.ring.coerce(c)
        return self._diagonal([c ** e for e in self.exponents(mu)])

    # sparse one-parameter multiplication: a root element touches at most
    # two entries, so column updates beat full matrix products
    def _rmul_root_inplace(self, rows, root, x):
        if x.is_exact_zero:
            return
        n = self.n
        for (i, j, s) in self.dirs[tuple(root)]:
            f = x if s == 1 else -x
            for k in range(n):
                rows[k][j] = rows[k][j] + rows[k][i] * f

    def _rmul_diag_inplace(self, rows, diag):
        n = self.n
        for j in range(n):
            d = diag[j]
            for i in range(n):
                rows[i][j] = rows[i][j] * d

    def torus_diagonal(self, torus_coords):
        """Diagonal scalars of prod_i mu_i(s_i) over the cocharacter basis."""
        diag = [self.ring.one() for _ in range(self.n)]
        for mu_i, s in zip(self.datum.cochar_basis, torus_coords):
            s = self.ring.coerce(s)
            for k, e in enumerate(self.exponents(mu_i)):
                if e:
                    diag[k] = diag[k] * s ** e
        return diag

    # -- batches and bases ------------------------------------------------

    def batches(self, w: WeylElement, tie_break: str = "lex"):
        """The wPhi- and wPhi+ batch root lists in the fixed order."""
        pos = list(self.datum.positive_roots)  # already height-then-lex
        if tie_break == "revlex":
            pos.sort(key=lambda r: (self.datum.height(r), tuple(-c for c in r)))
        elif tie_break != "lex":
            raise ValueError("tie_break must be 'lex' or 'revlex'")
        return ([self.datum.act_root(w, tuple(-c for c in r)) for r in pos],
                [self.datum.act_root(w, r) for r in pos])

    def filtration_scale(self, root) -> int:
        """Power of p scaling the integral points of I inter U_root:
        1 for positive (lower) roots, p for negative (upper) ones."""
        return self.ring.p if self.datum.height(root) < 0 else 1

    # -- memberships -------------------------------------------------------

    def in_iwahori(self, g: "GroupElement") -> bool:
        if g.group is not self:
            raise ValueError("element of a different group")
        if not g.satisfies_group_relation():
            return False
        ints = g._ints
        if ints is not None:
            # diagonal congruent to 1 and upper entries to 0 mod p
            p = self.ring.p
            return all((row[j] - (i == j)) % p == 0
                       for i, row in enumerate(ints) for j in range(i, self.n))
        return all(g.sub_identity_entry(i, j).zero_mod(1)
                   for i in range(self.n) for j in range(i, self.n))

    # -- factorization ------------------------------------------------------

    def iwahori_factorize(self, g: "GroupElement", w: WeylElement | None = None,
                          tie_break: str = "lex") -> "Factorization":
        self.check_gate()
        if not self.in_iwahori(g):
            raise MembershipError("factorization needs an element of the pro-p Iwahori")
        w = self.datum.identity_weyl() if w is None else w
        plan = self._factor_plan(w, tie_break)
        ints = g._ints
        if ints is not None:
            return Factorization(self, w, *self._factor_ints(ints, plan), wrapped=False)
        fact = Factorization(self, w, *self._factor_scalars(g.mat, plan), None)
        fact.omega = PValue.min(self.omega_of_factor_list(fact))
        return fact

    def _factor_scalars(self, mat, plan):
        """(negative params, torus coordinates, torus diagonal, positive
        params) of an element of I, on PadicScalar entries in plan order."""
        order = plan.order
        lmat, diag_sorted, umat = _ldu([[mat[i][j] for j in order] for i in order], self.ring)
        neg = _strip(lmat, plan.neg_strip)
        pos = _strip(umat, plan.pos_strip)
        diag = [diag_sorted[k] for k in plan.inv_order]
        torus_coords = self._torus_coords_from_diag(diag)
        if not all((d - 1).zero_mod(1) for d in diag):
            raise InternalError("torus part is not pro-p")
        for root, x in neg + pos:
            if self.datum.height(root) < 0 and not x.zero_mod(1):
                raise InternalError("upper root parameter not divisible by p")
        return neg, torus_coords, diag, pos

    def _factor_ints(self, ints, plan):
        """``_factor_scalars`` on the int rows of a flat element, modulo p^N,
        with the same checks; the ints and omega.  The LDU factors
        carry exact 0 and 1 outside their strict triangles, where the batch
        roots never lie (``_factor_plan``), so every output wraps inexact."""
        p, mod, n = self.ring.p, self._mod, self.n
        order = plan.order
        a = [[ints[i][j] for j in order] for i in order]
        lmat, umat = list(map(list, self._identity_ints)), list(map(list, self._identity_ints))
        for k in range(n):
            ak = a[k]
            piv = ak[k]
            if piv % p == 0:
                raise InternalError(f"elimination pivot {k} is not a unit: {self._wrap(piv)!r}")
            pivinv = pow(piv, -1, mod)
            for i in range(k + 1, n):
                ai = a[i]
                f = ai[k] * pivinv % mod
                lmat[i][k] = f
                if f:  # column k of a is not read again
                    for j in range(k + 1, n):
                        ai[j] = (ai[j] - f * ak[j]) % mod
            uk = umat[k]
            for j in range(k + 1, n):
                uk[j] = pivinv * ak[j] % mod
        neg = _strip_ints(lmat, plan.neg_strip, mod)
        pos = _strip_ints(umat, plan.pos_strip, mod)
        diag = [a[k][k] for k in plan.inv_order]
        torus_coords = self._torus_coords_ints(diag)
        if any((d - 1) % p for d in diag):
            raise InternalError("torus part is not pro-p")
        # (h * omega, is a cap marker) of the factors off the ints: vp(x) h +
        # ht(root), or the cap N h + ht(root) where x = 0 mod p^N; the torus
        # on d - 1 with offset 0.  A finite value wins a tie with a cap marker,
        # and vp(x) is taken only where vp(x) >= 1 can still lower the least.
        height, h, cap = self._height, self.coxeter_number, self.ring.prec
        best = (INF, True)
        for x, off in [(x, height[r]) for r, x in neg + pos] + [(d - 1, 0) for d in diag]:
            if x % p:
                if off < 0:
                    raise InternalError("upper root parameter not divisible by p")
                value = (off, False)
            elif h + off > best[0]:
                continue
            else:
                value = (vp_int(x, p) * h + off, False) if x else (cap * h + off, True)
            if value < best:
                best = value
        return (neg, torus_coords, diag, pos,
                PValue("at_least" if best[1] else "finite", Fraction(best[0], h)))

    def _wrap(self, v: int) -> PadicScalar:
        return PadicScalar(self.ring, v, self.ring.prec, False)

    def _factor_plan(self, w, tie_break) -> "_FactorPlan":
        """The plan of the twist w, built and checked once per (group name,
        w.matrix, tie_break), since only the root datum and the matrix model
        enter it: distinct weights exps of the adapted cocharacter mu, which w
        fixes, batches weight-monotone under mu, and every batch root inside
        the strict lower (negative batch) or upper (positive batch) triangle
        of the basis sorted by descending weight."""
        key = (self.name, w.matrix, tie_break)
        cached = _FACTOR_PLANS.get(key)
        if cached is not None:
            return cached
        mu, _a = self.datum.adapted_cocharacter(w)
        exps = self.exponents(mu)
        if len(set(exps)) != self.n:
            raise InternalError("adapted cocharacter weights are not distinct")
        order = tuple(sorted(range(self.n), key=lambda i: -exps[i]))
        batches = self.batches(w, tie_break)
        for sign, batch_roots in zip((1, -1), batches):
            last = None
            for r in batch_roots:
                wgt = abs(self.datum.pairing(r, mu))
                if last is not None and wgt < last:
                    raise InternalError("batch order is not weight-monotone")
                last = wgt
                if any(sign * (exps[j] - exps[i]) <= 0 for i, j, _s in self.dirs[r]):
                    raise InternalError(f"batch root {r} lies outside its LDU triangle")
        inv = tuple(order.index(i) for i in range(self.n))
        strips = [tuple((r, tuple((inv[i], inv[j], s) for i, j, s in self.dirs[r]))
                        for r in batch) for batch in batches]
        plan = _FACTOR_PLANS[key] = _FactorPlan(order, inv, *batches, *strips)
        return plan

    def _torus_coords_ints(self, diag):
        """``_torus_coords_from_diag`` on int units modulo p^N; the diagonal
        is checked against the equations of the lattice's image, which hold
        exactly where the rebuild from the coordinates gives it back."""
        mod = self._mod
        if any(prod(diag[i] for i in eq) % mod != 1 for eq in _TORUS_EQUATIONS[self.name]):
            raise InternalError("torus diagonal is not in the cocharacter lattice")
        return [prod(pow(diag[idx], e, mod) for idx, e in recipe) % mod
                for recipe in self.torus_recipe]

    def _torus_diagonal_ints(self, coords):
        """``torus_diagonal`` on int units modulo p^N."""
        mod, diag = self._mod, [1] * self.n
        for mu_i, s in zip(self.datum.cochar_basis, coords):
            for k, e in enumerate(self.exponents(mu_i)):
                if e:
                    diag[k] = diag[k] * pow(s, e, mod) % mod
        return diag

    def _torus_coords_from_diag(self, diag):
        coords = []
        for recipe in self.torus_recipe:
            s = self.ring.one()
            for idx, e in recipe:
                s = s * diag[idx] ** e
            coords.append(s)
        # consistency: the recipe must reconstruct the whole diagonal.  The
        # comparison is at the least precision of the coordinates, to which
        # every entry of the product of the torus elements mu_i(s_i) is known.
        cap = min(s.prec for s in coords)
        rebuilt = self.torus_diagonal(coords)
        for i in range(self.n):
            if not rebuilt[i].truncate(cap) == diag[i]:
                raise InternalError("torus diagonal is not in the cocharacter lattice")
        return coords

    def from_parameters(self, neg, torus_coords, pos) -> "GroupElement":
        """Multiply out (neg batch) * (torus) * (pos batch) in the given order."""
        rows = [list(r) for r in self.identity().mat]
        for root, x in neg:
            self._rmul_root_inplace(rows, root, self.ring.coerce(x))
        self._rmul_diag_inplace(rows, self.torus_diagonal(torus_coords))
        for root, x in pos:
            self._rmul_root_inplace(rows, root, self.ring.coerce(x))
        return GroupElement(self, tuple(tuple(r) for r in rows))

    # -- ordered basis and coordinates ---------------------------------------

    def ordered_basis(self, w: WeylElement | None = None) -> "OrderedBasis":
        self.check_gate()
        if w is None:
            w = self.datum.identity_weyl()
        cached = self._basis_cache.get(w.matrix)
        if cached is not None:
            return cached

        def _root_vector(root):
            scale = self.filtration_scale(root)
            omega = self._omega_offset[root] + (0 if scale == 1 else 1)
            return BasisVector(("root", root), self.root_element(root, scale), omega)

        neg_batch, pos_batch = self.batches(w)
        ep = padic_exp(self.ring.from_int(self.ring.p))
        entries = ([_root_vector(root) for root in neg_batch]
                   + [BasisVector(("cocharacter", tuple(mu_i)), self.torus_element(mu_i, ep),
                                  Fraction(1)) for mu_i in self.datum.cochar_basis]
                   + [_root_vector(root) for root in pos_batch])
        basis = OrderedBasis(self, w, entries)
        self._basis_cache[w.matrix] = basis
        return basis

    def _chart_scaled(self, batch, shift: int):
        """The values of (root, value) pairs, upper-root ones times p^shift:
        an upper-root parameter is p times its chart coordinate."""
        return [x.shift(shift) if self.datum.height(root) < 0 else x for root, x in batch]

    def coordinates(self, g: "GroupElement", w: WeylElement | None = None):
        """Coordinates of g in the ordered basis for w; exact Z_p scalars."""
        fact = self.iwahori_factorize(g, w)
        return (self._chart_scaled(fact.negative, -1)
                + [padic_log(s).shift(-1) for s in fact.torus_coordinates]
                + self._chart_scaled(fact.positive, -1))

    def from_coordinates(self, coords, w: WeylElement | None = None) -> "GroupElement":
        """Evaluate h_1^{x_1} ... h_d^{x_d} for the ordered basis of w, on int
        rows when every coordinate is an int in 1..p^N - 1 (Integer path)."""
        plan = self._factor_plan(self.datum.identity_weyl() if w is None else w, "lex")
        neg_batch, pos_batch = plan.neg_batch, plan.pos_batch
        a, b = len(neg_batch), len(neg_batch) + self.datum.rank
        d = b + len(pos_batch)
        if len(coords) != d:
            raise ValueError(f"need {d} coordinates, got {len(coords)}")
        p, mod = self.ring.p, self._mod
        if all(type(x) is int and 0 < x < mod for x in coords):
            rows = list(map(list, self._identity_ints))

            def rmul_batch(batch, values):  # right multiplication by u_root(x)
                for root, c in zip(batch, values):
                    x = c * p if self._height[root] < 0 else c
                    for i, j, s in self.dirs[root]:
                        for row in rows:
                            row[j] = (row[j] + s * x * row[i]) % mod

            rmul_batch(neg_batch, coords[:a])
            diag = self._torus_diagonal_ints([exp_int(p * c, self.ring) for c in coords[a:b]])
            for row in rows:
                row[:] = [e * dj % mod for e, dj in zip(row, diag)]
            rmul_batch(pos_batch, coords[b:])
            return GroupElement(self, None, tuple(map(tuple, rows)))
        coords = [self.ring.coerce(x) for x in coords]
        return self.from_parameters(
            zip(neg_batch, self._chart_scaled(zip(neg_batch, coords[:a]), 1)),
            [padic_exp(x.shift(1)) for x in coords[a:b]],
            zip(pos_batch, self._chart_scaled(zip(pos_batch, coords[b:]), 1)))

    # -- the p-valuation ------------------------------------------------------

    def p_valuation(self, g: "GroupElement") -> PValue:
        """omega via the Iwahori factorization at w = 1: the minimum of
        val(x) + ht(root)/h over root factors and of val(d_i - 1) over the
        torus diagonal, as the factorization carries it."""
        return self.iwahori_factorize(g).omega

    def omega_of_factor_list(self, fact: "Factorization") -> list:
        """Per-factor omega values (PValue) in product order, torus as one factor."""
        off = self._omega_offset
        torus = PValue.min(PValue.of(d - 1) for d in fact.torus_diagonal)
        return ([PValue.of(x, off[root]) for root, x in fact.negative] + [torus]
                + [PValue.of(x, off[root]) for root, x in fact.positive])

    # -- the conjugation oracle ------------------------------------------------

    def et_data(self):
        """The conjugation data over E = Q_p(p^(1/e)): the height cocharacter
        mu at w = 1, its scale a, the ramification index e = a*h, and the
        congruence level r, the least integer above e/(p-1)."""
        self.check_gate()
        mu, a = self.datum.adapted_cocharacter(self.datum.identity_weyl())
        e = a * self.coxeter_number
        return EtData(self, mu, a, e, e // (self.ring.p - 1) + 1)

    def p_valuation_by_conjugation(self, g: "GroupElement") -> PValue:
        """omega via conjugation into the congruence filtration of E, the
        independent oracle: the least val(g_ij - delta_ij) + (d_i - d_j)/e."""
        et = self.et_data()
        return PValue.min(PValue.of(x, Fraction(k, et.e)) for x, k in et.shifted_entries(g))


@dataclass
class EtData:
    """Conjugation by t = mu(pi), pi^e = p, multiplies entry (i, j) by
    pi^(d_i - d_j), d = exponents(mu): it is read off g, not computed in E."""

    group: ChevalleyGroup
    mu: tuple
    a: int
    e: int
    r: int

    def shifted_entries(self, g: "GroupElement"):
        """(g_ij - delta_ij, d_i - d_j) for every position in row order; the
        entry of t g t^(-1) - 1 there is the first times pi^(second).  Raises
        PrecisionError if an entry is not divisible by pi^(-shift)."""
        exps = self.group.exponents(self.mu)
        n, out = self.group.n, []
        for i in range(n):
            for j in range(n):
                x, k = g.sub_identity_entry(i, j), exps[i] - exps[j]
                w = x.pival()
                if k < 0 and w is not INF and self.e * (x.prec if w is None else w) < -k:
                    raise PrecisionError(f"entry ({i}, {j}) is not divisible by pi^{-k}")
                out.append((x, k))
        return out

    def conjugate_in_congruence(self, g: "GroupElement") -> bool:
        """t g t^(-1) = 1 mod pi^r; PrecisionError below r pi-digits."""
        for x, k in self.shifted_entries(g):
            if self.e * x.prec + k < self.r:
                raise PrecisionError("not enough digits to test the congruence level")
            if not x.zero_mod(-((k - self.r) // self.e)):  # val(x) + k/e >= r/e
                return False
        return True

    def root_values(self):
        """val(alpha(t)) = ht(alpha)/h for the positive roots, exact: alpha(t) =
        pi^(a*ht(alpha)) and val(pi) = 1/e = 1/(a*h)."""
        return {r: self.group._omega_offset[r] for r in self.group.datum.positive_roots}


@dataclass
class BasisVector:
    label: tuple
    generator: "GroupElement"
    omega: Fraction


@dataclass
class OrderedBasis:
    group: ChevalleyGroup
    w: WeylElement
    entries: list

    def __len__(self):
        return len(self.entries)

    def omegas(self):
        return [e.omega for e in self.entries]


class Factorization:
    """[(root, parameter)] for the wPhi- batch, the torus coordinates on the
    cocharacter basis and its diagonal, [(root, parameter)] for the wPhi+
    batch, and the least factor omega (``p_valuation`` at w = 1).  Built on
    ints, the four lists are wrapped as scalars the first time one is read."""

    __slots__ = ("group", "w", "omega", "_parts", "_wrapped")

    def __init__(self, group: ChevalleyGroup, w: WeylElement, negative, torus_coordinates,
                 torus_diagonal, positive, omega: PValue, wrapped: bool = True):
        self.group, self.w, self.omega, self._wrapped = group, w, omega, wrapped
        self._parts = (negative, torus_coordinates, torus_diagonal, positive)

    def _part(self, k):
        if not self._wrapped:
            wrap, (neg, coords, diag, pos) = self.group._wrap, self._parts
            self._parts = ([(r, wrap(x)) for r, x in neg], [wrap(s) for s in coords],
                           [wrap(d) for d in diag], [(r, wrap(x)) for r, x in pos])
            self._wrapped = True
        return self._parts[k]

    negative = property(lambda self: self._part(0))
    torus_coordinates = property(lambda self: self._part(1))
    torus_diagonal = property(lambda self: self._part(2))
    positive = property(lambda self: self._part(3))

    def torus_element(self) -> "GroupElement":
        g = self.group.identity()
        for mu_i, s in zip(self.group.datum.cochar_basis, self.torus_coordinates):
            g = g * self.group.torus_element(mu_i, s)
        return g

    def remultiply(self) -> "GroupElement":
        return self.group.from_parameters(self.negative, self.torus_coordinates,
                                          self.positive)


def _matmul(a, b, n):
    out = []
    for i in range(n):
        ai = a[i]
        zero = ai[0].ring.zero(exact=True)
        row = []
        for j in range(n):
            acc = zero
            for k in range(n):
                acc = acc + ai[k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _flat_ints(mat, ring):
    """Int rows of mat if every entry is an inexact scalar of the ring at
    its precision N, else None."""
    prec = ring.prec
    rows = []
    for row in mat:
        for e in row:
            if e.exact or e.prec != prec or (e.ring is not ring and e.ring != ring):
                return None
        rows.append(tuple(e.co for e in row))
    return tuple(rows)


def _matmul_ints(a, b, mod):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) % mod for col in cols) for row in a)


def _det_recursive(mat, idx_rows, idx_cols, zero):
    """Cofactor expansion from the exact zero ``zero``: a ring zero for
    scalars, 0 for ints (reduced by the caller)."""
    n = len(idx_rows)
    if n == 1:
        return mat[idx_rows[0]][idx_cols[0]]
    if n == 2:
        (r0, r1), (c0, c1) = idx_rows, idx_cols
        return mat[r0][c0] * mat[r1][c1] - mat[r0][c1] * mat[r1][c0]
    acc = zero
    r0 = idx_rows[0]
    rest = idx_rows[1:]
    for k, c in enumerate(idx_cols):
        cols = idx_cols[:k] + idx_cols[k + 1:]
        term = mat[r0][c] * _det_recursive(mat, rest, cols, zero)
        acc = acc + term if k % 2 == 0 else acc - term
    return acc


def _adjugate_det(mat, n, zero):
    """Division-free adjugate and determinant by cofactor expansion."""
    idx = tuple(range(n))
    det = _det_recursive(mat, idx, idx, zero)
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        rows = idx[:i] + idx[i + 1:]
        for j in range(n):
            cols = idx[:j] + idx[j + 1:]
            minor = _det_recursive(mat, rows, cols, zero)
            adj[j][i] = minor if (i + j) % 2 == 0 else -minor
    return adj, det


def _strip(cur, strip):
    """(root, parameter) pairs stripped in place off a unipotent matrix cur
    of scalars, or of ``series._Poly`` polynomials (the batch-group strip),
    through (root, directions) pairs whose directions index the rows of cur."""
    params = []
    for root, dirs in strip:
        i0, j0, s0 = dirs[0]
        x = cur[i0][j0] if s0 == 1 else -cur[i0][j0]
        for (i, j, s) in dirs[1:]:
            if not cur[i][j] == (x if s == 1 else -x):
                raise InternalError(f"paired entries for root {root} disagree")
        params.append((root, x))
        y = -x  # left multiplication by u_root(y)
        if y.is_exact_zero:
            continue
        for (i, j, s) in dirs:
            f = y if s == 1 else -y
            dst = cur[i]
            for k, c in enumerate(cur[j]):
                if c:  # a _Poly is falsy when zero; a scalar never is
                    dst[k] = dst[k] + f * c
    # int targets, not ring constants: an entry known beyond the ring
    # precision is checked at its own precision
    for i, row in enumerate(cur):
        for j, e in enumerate(row):
            if not e == (1 if i == j else 0):
                raise InternalError("unipotent strip left a remainder")
    return params


def _strip_ints(cur, strip, mod):
    """``_strip`` on int rows modulo p^N."""
    params = []
    for root, dirs in strip:
        i0, j0, s0 = dirs[0]
        x = cur[i0][j0] if s0 == 1 else -cur[i0][j0] % mod
        for (i, j, s) in dirs[1:]:
            if (cur[i][j] - (x if s == 1 else -x)) % mod:
                raise InternalError(f"paired entries for root {root} disagree")
        params.append((root, x))
        # left multiplication by u_root(-x)
        for (i, j, s) in dirs:
            f = -x if s == 1 else x
            dst = cur[i]
            for k, c in enumerate(cur[j]):
                if c:
                    dst[k] = (dst[k] + f * c) % mod
    for i, row in enumerate(cur):
        for j, e in enumerate(row):
            if (e - (i == j)) % mod:
                raise InternalError("unipotent strip left a remainder")
    return params


def _ldu(a, ring):
    """Exact LDU of the rows a, in place, for unit leading minors: row k of U
    is filled at step k from its pivot's inverse.  Raises on a non-unit pivot,
    which cannot happen for pro-p Iwahori inputs."""
    n = len(a)
    one, zero = ring.one(), ring.zero(exact=True)
    lmat = [[one if i == j else zero for j in range(n)] for i in range(n)]
    umat = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for k in range(n):
        ak = a[k]
        piv = ak[k]
        if not piv.is_unit():
            raise InternalError(f"elimination pivot {k} is not a unit: {piv!r}")
        pivinv = piv.inv()
        for i in range(k + 1, n):
            ai = a[i]
            f = ai[k] * pivinv
            lmat[i][k] = f
            if not f.is_exact_zero:  # column k of a is not read again
                for j in range(k + 1, n):
                    ai[j] = ai[j] - f * ak[j]
        uk = umat[k]
        for j in range(k + 1, n):
            uk[j] = pivinv * ak[j]
    return lmat, [a[k][k] for k in range(n)], umat


class GroupElement:
    """Square matrix over the scalar ring tagged with its group.

    ``_ints`` holds the entries as int rows modulo p^N for the integer path
    (see the module docstring), or None off it; it is read off ``mat`` when
    the element is built, or handed in, with ``mat`` None, by the integer
    path that built the element, which builds ``mat`` the first time it is
    read."""

    __slots__ = ("group", "_mat", "_ints")

    def __init__(self, group: ChevalleyGroup, mat, ints=None):
        self.group = group
        self._mat = mat
        self._ints = _flat_ints(mat, group.ring) if ints is None else ints

    @property
    def mat(self):
        mat = self._mat
        if mat is None:
            wrap = self.group._wrap
            mat = self._mat = tuple(tuple(wrap(v) for v in row) for row in self._ints)
        return mat

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if other.group is not self.group:
            raise ValueError("elements of different groups")
        a, b = self._ints, other._ints
        if a is not None and b is not None:
            return GroupElement(self.group, None, _matmul_ints(a, b, self.group._mod))
        return GroupElement(self.group, _matmul(self.mat, other.mat, self.group.n))

    def __pow__(self, k: int) -> "GroupElement":
        if k < 0:
            return self.inv() ** (-k)
        # identity * base is base itself on the integer path, so the ladder
        # starts from the base there
        result = None if self._ints is not None else self.group.identity()
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return self.group.identity() if result is None else result

    def inv(self) -> "GroupElement":
        n, group = self.group.n, self.group
        ints = self._ints
        if ints is not None:
            mod = group._mod
            if group.name == "sp4":
                rows = tuple(tuple(sign * ints[3 - j][3 - i] % mod
                                   for j, sign in enumerate(signs))
                             for i, signs in enumerate(_SP4_INV_SIGN))
                return GroupElement(group, None, rows)
            adj, det = _adjugate_det(ints, n, 0)
            det %= mod
            # a non-unit goes to the scalar inverse, which raises its UnitError
            dinv = pow(det, -1, mod) if det % group.ring.p else group._wrap(det).inv().co
            return GroupElement(
                group, None, tuple(tuple(a * dinv % mod for a in row) for row in adj))
        if group.name == "sp4":
            # every entry is read at most at the ring precision and negated
            # at least once, so a nonzero exact entry comes out inexact
            zero, mat = group.ring.zero(), self.mat
            return GroupElement(group, tuple(
                tuple(-(zero - mat[3 - j][3 - i]) if sign > 0 else -(zero + mat[3 - j][3 - i])
                      for j, sign in enumerate(signs))
                for i, signs in enumerate(_SP4_INV_SIGN)))
        adj, det = _adjugate_det(self.mat, n, group.ring.zero(exact=True))
        dinv = det.inv()
        return GroupElement(group, tuple(
            tuple(adj[i][j] * dinv for j in range(n)) for i in range(n)))

    def det(self) -> PadicScalar:
        idx = tuple(range(self.group.n))
        return _det_recursive(self.mat, idx, idx, self.group.ring.zero(exact=True))

    def satisfies_group_relation(self) -> bool:
        group = self.group
        ints = self._ints
        if group.name == "sp4":
            # g^T J g = J for the antidiagonal Gram matrix J, whose nonzero
            # entries are J[0][3] = J[1][2] = 1 and J[2][1] = J[3][0] = -1.
            # Entry (i, j) of g^T J g is g0i g3j + g1i g2j - g2i g1j - g3i g0j;
            # scalar products commute, so this is antisymmetric in (i, j) term
            # by term, as is J.  The diagonal and the lower triangle therefore
            # hold exactly when the six upper entries do, also in truncated
            # arithmetic.  Ring constants keep the comparison at most at the
            # ring precision; the int rows are at that precision already.
            g0, g1, g2, g3 = self.mat if ints is None else ints
            one, zero, mod = group._one, group._zero, group._mod
            for i in range(3):
                for j in range(i + 1, 4):
                    entry = g0[i] * g3[j] + g1[i] * g2[j] - g2[i] * g1[j] - g3[i] * g0[j]
                    if ints is None:
                        if not entry == (one if i + j == 3 else zero):
                            return False
                    elif (entry - (i + j == 3)) % mod:
                        return False
            return True
        if ints is None:
            return self.det() == 1
        idx = tuple(range(group.n))
        return (_det_recursive(ints, idx, idx, 0) - 1) % group._mod == 0

    def sub_identity_entry(self, i: int, j: int) -> PadicScalar:
        if self._mat is None:  # one entry off the int rows, not the whole matrix
            return self.group._wrap((self._ints[i][j] - (i == j)) % self.group._mod)
        e = self.mat[i][j]
        return e - 1 if i == j else e

    def __eq__(self, other):
        if not isinstance(other, GroupElement) or other.group is not self.group:
            return NotImplemented
        return all(self.mat[i][j] == other.mat[i][j]
                   for i in range(self.group.n) for j in range(self.group.n))

    def __repr__(self):
        rows = []
        for row in self.mat:
            rows.append("[" + ", ".join(e.digit_string() for e in row) + "]")
        return f"GroupElement({self.group.name}, [" + "; ".join(rows) + "])"
