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
``GateError``, ``ValueError`` or ``MembershipError``, a failed invariant
raises ``InternalError``.  The checks on the twist alone run once per
(group name, w) in a process, when its plan is built and cached, since
the root datum, the matrix model and w fix them; the others run on every
call, in the order listed, also when the same element was factorized
before:

    the parameter gate p - 1 > h, and an element of this group;
    w in the Weyl group of the root datum (once per twist);
    membership in I: the group relation (g^T J g = J on Sp4, det g = 1
      on SL_n, see ``_membership_tests``), unit diagonal congruent to 1 and
      upper entries divisible by p;
    distinct adapted-cocharacter weights (once per twist) and unit LDU
      pivots;
    weight-monotone batch orders, with every batch root inside its strict
      LDU triangle (once per twist);
    in each unipotent strip, agreement of the paired entries of a root
      and an identity remainder;
    a torus diagonal in the image of the cocharacter lattice (the
      equations ``_TORUS_EQUATIONS``), congruent to 1 mod p;
    upper root parameters divisible by p.

Every per-call check after the group's runs in the plan's generated kernel,
on int rows and on scalar entries alike (see Integer path), with the same
text.

Integer path
------------
An element whose entries are all inexact and all at the ring precision N
is read into plain ints modulo p^N when it is built, and keeps them.  For
such elements the group relation, the membership test, products, inverses
and the factorization with its factor minimum omega run on those ints.
Results stay ints until read: an element builds its scalar entries ``mat``,
and a factorization wraps its four factor lists, the first time they are
read, so ``p_valuation`` builds no scalar.  The conjugation oracle's one
scan reads an entry off the ints, or off a scalar's (co, prec, exact).
``from_coordinates`` builds such elements on ints from int coordinates in
1..p^N - 1, as ``sample_iwahori`` draws them, a torus coordinate c as
exp(p)^c = exp(p c) mod p^N.  The path gives the same (co, prec, exact) as
the scalar route, runs the same self-checks and raises the same exceptions;
its outputs are again inexact at N, so chained products stay on it.  Exact or
mixed-precision entries (user matrices, the identity, root generators and
the basis generators that the et suite tests) take the scalar route, where
an exact zero keeps valuation infinity; on ints it would read as a cap
marker.  Both routes factor in plan order: the LDU of the rows permuted once
into the twist's basis order, then both strips through the batch directions
that the plan maps to that order.  Both run straight-line code generated
from one line list and compiled with ``exec``: a membership function per
group and route, from the relation and congruence tests that the kernels
share (``_membership_tests``), built at import; and a kernel per plan that
runs every check above from membership on and returns the factors, the torus
coordinates and the least omega key, with the root heights as constants
(``_factor_kernel``).  The int kernel is built with the plan; the scalar
kernel, which keeps the precision rules of scalar arithmetic, the first time
a scalar element takes the plan.  Products and inverses are generated for
both routes in the same way at import: a matmul per matrix size
(``_matmul_ints``) and an inverse per group (``_inverse``), whose scalar
forms keep the precision rules of scalar arithmetic.  On ints there is
besides a draw per twist that ``from_coordinates`` draws on, with the
identity's 0 and 1 entries folded (``_draw_kernel``).  linecache serves
their lines under names like ``<iwahori kernel sp4 w=s1*s2>`` or
``<iwahori scalar inverse sl3>``, so tracebacks show them.
"""

from __future__ import annotations

import linecache
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .padic import (INF, InternalError, PadicScalar, PrecisionError, ScalarRing, exp_int,
                    padic_exp, padic_log, vp_int)
from .roots import RootDatum, WeylElement, get_root_datum


class GateError(ValueError):
    """The parameter gate p - 1 > e*h is violated."""


class MembershipError(ValueError):
    """The element does not belong to the required subgroup."""


_NOT_IN_I = "factorization needs an element of the pro-p Iwahori"


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
        if self.kind == "infinite":
            return True, None
        if other.kind == "finite" and (self.kind == "finite" or self.value >= other.value):
            return self.value >= other.value, self.value - other.value
        if self.kind == "finite" and (other.kind == "infinite" or self.value < other.value):
            return False, None  # other is larger by an unknown amount
        return None, None

    def eq(self, other: "PValue"):
        """Decide self == other; the margin is -|self - other|."""
        if self.kind == other.kind == "finite":
            same = self.value == other.value
            return same, _ZERO if same else -abs(self.value - other.value)
        if self.kind == other.kind == "infinite":
            return True, None
        lo, hi = (self, other) if self.kind == "finite" else (other, self)
        if lo.kind == "finite" and (hi.kind == "infinite" or lo.value < hi.value):
            return False, None  # a finite value below a cap marker or infinity
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
_ZERO = Fraction(0)


@lru_cache(maxsize=4096)
def _omega_value(key: int, den: int) -> PValue:
    """The PValue of key = 2 den omega, plus 1 for a cap marker, so that a finite
    value wins a tie; one object per (key, den), and key < 2 (N + 1) den."""
    return PValue("at_least" if key & 1 else "finite", Fraction(key >> 1, den))


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


# the basis order by descending weight, the two batches, and per batch its
# (root, directions) pairs with each (i, j, s) mapped to plan order, and the
# int kernel of ``_factor_kernel``
_FactorPlan = namedtuple("_FactorPlan", "order neg_batch pos_batch neg_strip pos_strip kernel")
# plans by (group name, w.matrix): at most 16 over the three groups
_FACTOR_PLANS = {}
# the int draws of ``from_coordinates`` and the scalar kernels of
# ``_factor_kernel``, by the plan's key, each built at first use
_DRAWS, _SCALAR_KERNELS = {}, {}


class ChevalleyGroup:
    """One of the supported matrix groups over Z_p at precision prec."""

    def __init__(self, name: str, p: int, prec: int = 12):
        self.datum: RootDatum = get_root_datum(name)
        self.name = self.datum.name
        self.ring = ring = ScalarRing(p, prec)
        self.n = _MATRIX_SIZE[self.name]
        if self.name == "sp4":
            self.dirs = _SP4_DIRS
        else:
            self.dirs = _sl_dirs(self.n)
        # ring constants for the scalar membership and kernels, built once
        self._one, self._zero = ring.one(), ring.zero()
        self._mod = ring.ppow(ring.prec)  # the int path works modulo p^N
        self.coxeter_number = h = self.datum.coxeter_number()
        self._height = {r: self.datum.height(r) for r in self.dirs}  # omega offsets ht(root)/h
        self._omega_offset = {r: Fraction(ht, h) for r, ht in self._height.items()}
        self._basis_cache = {}
        # the oracle's data: t = mu(pi), pi^e = p, for the height cocharacter mu at
        # w = 1 scales entry (i, j) by pi^(d_i - d_j), d = exponents(mu); e = a h,
        # and r is the least congruence level above e/(p - 1)
        mu, a = self.datum.adapted_cocharacter(self.datum.identity_weyl())
        d = self.exponents(mu)
        self._conj_shift = tuple(tuple(di - dj for dj in d) for di in d)
        self._conj_e, self._conj_r = a * h, a * h // (p - 1) + 1

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

    def batches(self, w: WeylElement):
        """The wPhi- and wPhi+ batch root lists in the fixed order; a w outside
        the Weyl group raises ValueError."""
        if w.matrix not in self.datum.weyl_matrices:
            raise ValueError(f"w = {w.name} with matrix {w.matrix} is not in the Weyl group "
                             f"of {self.name}")
        pos = self.datum.positive_roots  # stored height-then-lex
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
        return g._member() == 2

    # -- factorization ------------------------------------------------------

    def iwahori_factorize(self, g: "GroupElement", w: WeylElement | None = None) -> "Factorization":
        self.check_gate()
        if g.group is not self:
            raise ValueError("element of a different group")
        w = self.datum.identity_weyl() if w is None else w
        plan = self._factor_plan(w)
        ints = g._ints
        if ints is not None:  # the plan's kernel runs the membership test
            return Factorization(self, w, *self._factor_ints(ints, plan), wrapped=False)
        key = (self.name, w.matrix)
        kernel = _SCALAR_KERNELS.get(key)
        if kernel is None:  # built for the plans that scalar elements take
            kernel = _SCALAR_KERNELS[key] = _factor_kernel(
                self.datum, plan.order, plan.neg_strip, plan.pos_strip,
                f"<iwahori scalar kernel {self.name} w={w.name}>", scalar=True)
        *parts, best = kernel(g.mat, self.ring.p, self.ring.prec, self._one, self._zero)
        return Factorization(self, w, *parts, _INFINITE if best == INF
                             else _omega_value(best, self.coxeter_number))

    def _factor_ints(self, ints, plan):
        """The plan's kernel (``_factor_kernel``) on the int rows of a flat
        element, modulo p^N: the membership test and the factorization with
        its checks; the ints and omega.  Every output wraps inexact."""
        neg, coords, diag, pos, key = plan.kernel(ints, self.ring.p, self._mod, self.ring.prec,
                                                  self._wrap)
        return neg, coords, diag, pos, _omega_value(key, self.coxeter_number)

    def _wrap(self, v: int) -> PadicScalar:
        return PadicScalar(self.ring, v, self.ring.prec, False)

    def _factor_plan(self, w) -> "_FactorPlan":
        """The plan of the twist w, built and checked once per (group name,
        w.matrix), since only the root datum and the matrix model enter it:
        distinct weights exps of the adapted cocharacter mu, which w fixes,
        batches weight-monotone under mu, and every batch root inside the
        strict lower (negative batch) or upper (positive batch) triangle of
        the basis sorted by descending weight."""
        key = (self.name, w.matrix)
        cached = _FACTOR_PLANS.get(key)
        if cached is not None:
            return cached
        batches = self.batches(w)  # raises for a w outside the Weyl group
        mu, _a = self.datum.adapted_cocharacter(w)
        exps = self.exponents(mu)
        if len(set(exps)) != self.n:
            raise InternalError("adapted cocharacter weights are not distinct")
        order = tuple(sorted(range(self.n), key=lambda i: -exps[i]))
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
        kernel = _factor_kernel(self.datum, order, *strips,
                                f"<iwahori kernel {self.name} w={w.name}>")
        plan = _FACTOR_PLANS[key] = _FactorPlan(order, *batches, *strips, kernel)
        return plan

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
        """The basis of the twist w, built once per w; a w outside the Weyl
        group raises in ``batches``."""
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
        w = self.datum.identity_weyl() if w is None else w
        plan = self._factor_plan(w)
        neg_batch, pos_batch = plan.neg_batch, plan.pos_batch
        a, b = len(neg_batch), len(neg_batch) + self.datum.rank
        d = b + len(pos_batch)
        if len(coords) != d:
            raise ValueError(f"need {d} coordinates, got {len(coords)}")
        mod = self._mod
        if all(type(x) is int and 0 < x < mod for x in coords):
            key = (self.name, w.matrix)
            draw = _DRAWS.get(key)
            if draw is None:  # built for the twists that draw
                draw = _DRAWS[key] = _draw_kernel(self, plan,
                                                  f"<iwahori draw {self.name} w={w.name}>")
            return GroupElement(self, None, draw(coords, self.ring.p, mod, self._exp_p))
        coords = [self.ring.coerce(x) for x in coords]
        return self.from_parameters(
            zip(neg_batch, self._chart_scaled(zip(neg_batch, coords[:a]), 1)),
            [padic_exp(x.shift(1)) for x in coords[a:b]],
            zip(pos_batch, self._chart_scaled(zip(pos_batch, coords[b:]), 1)))

    @cached_property
    def _exp_p(self) -> int:
        """exp(p) modulo p^N, for the draws of ``from_coordinates``."""
        return exp_int(self.ring.p, self.ring) % self._mod

    # -- the p-valuation ------------------------------------------------------

    def p_valuation(self, g: "GroupElement") -> PValue:
        """omega via the Iwahori factorization at w = 1: the minimum of
        val(x) + ht(root)/h over root factors and of val(d_i - 1) over the
        torus diagonal, as the factorization carries it."""
        return self.iwahori_factorize(g).omega

    # -- the conjugation oracle ------------------------------------------------

    def p_valuation_by_conjugation(self, g: "GroupElement") -> PValue:
        """omega via conjugation into the congruence filtration of E, the
        independent oracle: the least val(g_ij - delta_ij) + (d_i - d_j)/e."""
        best = self._conjugation_scan(g)[0]
        return _INFINITE if best == INF else _omega_value(best, self._conj_e)

    def conjugate_in_congruence(self, g: "GroupElement") -> bool:
        """t g t^(-1) = 1 mod pi^r; PrecisionError below r pi-digits."""
        verdict = self._conjugation_scan(g)[1]
        if verdict is None:
            raise PrecisionError("not enough digits to test the congruence level")
        return verdict

    def _conjugation_scan(self, g: "GroupElement"):
        """One pass in row order over x = g_ij - delta_ij, read off the int rows of
        g or the (co, prec, exact) of a scalar entry, where t g t^(-1) - 1 is
        x pi^k: the least key (``_omega_value``, INF for none) of val(x) + k/e,
        and the verdict val(x) + k/e >= r/e at every position, None where too
        few digits come first.  PrecisionError where any x is not divisible by
        pi^(-k)."""
        self.check_gate()
        if g.group is not self:
            raise ValueError("element of a different group")
        p, e, r, ppow = self.ring.p, self._conj_e, self._conj_r, self.ring.ppow
        ints, prec, exact, mod = g._ints, self.ring.prec, False, self._mod
        best, verdict = INF, True
        for i, (row, shifts) in enumerate(zip(g.mat if ints is None else ints, self._conj_shift)):
            for j, (y, k) in enumerate(zip(row, shifts)):
                if ints is None:
                    y, prec, exact = y.co, y.prec, y.exact
                    mod = ppow(prec)
                x = (y - (i == j)) % mod
                # e val(x) + k, the valuation in pi-digits of the entry of t g t^(-1) - 1
                u = (vp_int(x, p) if x else INF if exact else prec) * e + k
                if u < 0:
                    raise PrecisionError(f"entry ({i}, {j}) is not divisible by pi^{-k}")
                key = 2 * u + (not x)  # odd for a cap marker, inf for an exact zero
                if key < best:
                    best = key
                if verdict:  # the first position that decides it, in row order
                    if e * prec + k < r:
                        verdict = None
                    elif u < r:
                        verdict = False
        return best, verdict


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


def _compiled(src, filename, fn):
    """The function fn that the source src defines, compiled under filename,
    which linecache serves so that a traceback shows the generated lines."""
    linecache.cache[filename] = (len(src), None, src.splitlines(True), filename)
    scope = {"InternalError": InternalError, "MembershipError": MembershipError,
             "vp_int": vp_int, "INF": INF}
    exec(compile(src, filename, "exec"), scope)
    return scope[fn]


def _unpack(names):
    return ", ".join("(" + ", ".join(row) + ")" for row in names)


def _matmul_ints(n, scalar=False):
    """The product of two n x n row tuples as straight-line code, both
    unpacked into locals: matmul(a, b, mod) on int rows, each entry one dot
    product reduced once; with ``scalar`` matmul(a, b) on PadicScalar rows,
    each entry the dot product summed from the exact zero of the ring of its
    row's first entry."""
    a = [[f"a{i}{k}" for k in range(n)] for i in range(n)]
    b = [[f"b{k}{j}" for j in range(n)] for k in range(n)]
    dots = [[" + ".join(f"{a[i][k]} * {b[k][j]}" for k in range(n)) for j in range(n)]
            for i in range(n)]
    rows = ", ".join("(" + ", ".join(f"{a[i][0]}.ring.zero() + {dots[i][j]}" if scalar
                                     else "(" + dots[i][j] + ") % mod" for j in range(n)) + ")"
                     for i in range(n))
    return _compiled(f"def matmul(a, b{'' if scalar else ', mod'}):\n    {_unpack(a)} = a\n"
                     f"    {_unpack(b)} = b\n    return {rows}\n",
                     f"<iwahori {'scalar ' * scalar}matmul {n}x{n}>", "matmul")


_MATMULS = {n: _matmul_ints(n) for n in _MATRIX_SIZE.values()}
_SCALAR_MATMULS = {n: _matmul_ints(n, True) for n in _MATRIX_SIZE.values()}


def _det_source(x, rows, cols, zero=""):
    """The determinant of the names x on rows and cols as source, by cofactor
    expansion along the first row; zero, such as "zero + ", leads each
    expansion of three or more rows."""
    if len(rows) == 1:
        return x[rows[0]][cols[0]]
    out = zero if len(rows) > 2 else ""
    for k, c in enumerate(cols):
        minor = _det_source(x, rows[1:], cols[:k] + cols[k + 1:], zero)
        out += (" - " if k % 2 else " + " if k else "") + f"{x[rows[0]][c]} * " + (
            f"({minor})" if len(rows) > 2 else minor)
    return out


def _inverse(name, n, scalar=False):
    """g^-1 of the group as straight-line code: inverse(ints, p, mod, wrap)
    modulo mod on int rows, or inverse(rows, zero) on PadicScalar rows with
    the ring's exact zero.  On Sp4 it is -J g^T J, entry (i, j) read off
    g[3-j][3-i] with the sign of ``_SP4_INV_SIGN``; a scalar entry is read
    through zero, as -(zero - x) or -(zero + x), so at most at the ring
    precision and negated at least once: a nonzero exact entry comes out
    inexact.  On SL_n it is the adjugate over det g, the cofactors by
    ``_det_source``, the scalar ones summed from zero; a det that is not a
    unit raises the UnitError of its inverse, on ints that of the wrapped
    det."""
    x = [[f"x{i}{j}" for j in range(n)] for i in range(n)]
    code = [f"{_unpack(x)} = {'rows' if scalar else 'ints'}"]
    if name == "sp4":
        rows = [[(f"-(zero {'-' if sign > 0 else '+'} {x[3 - j][3 - i]})" if scalar
                  else f"{'' if sign > 0 else '-'}{x[3 - j][3 - i]} % mod")
                 for j, sign in enumerate(signs)] for i, signs in enumerate(_SP4_INV_SIGN)]
    else:
        idx, zero = tuple(range(n)), "zero + " if scalar else ""
        det = _det_source(x, idx, idx, zero)
        code += [f"d = ({det}).inv()"] if scalar else [
            f"d = ({det}) % mod", "d = pow(d, -1, mod) if d % p else wrap(d).inv().co"]
        minor = lambda i, j: _det_source(x, idx[:i] + idx[i + 1:], idx[:j] + idx[j + 1:], zero)
        # entry (i, j) is the cofactor of entry (j, i), signed, over det g
        rows = [[f"{'-' * ((i + j) % 2)}({minor(j, i)}) * d{'' if scalar else ' % mod'}"
                 for j in idx] for i in idx]
    code.append(f"return {_unpack(rows)}")
    args = "rows, zero" if scalar else "ints, p, mod, wrap"
    return _compiled(f"def inverse({args}):\n" + "".join(f"    {line}\n" for line in code),
                     f"<iwahori {'scalar ' * scalar}inverse {name}>", "inverse")


_INVERSES = {name: _inverse(name, n) for name, n in _MATRIX_SIZE.items()}
_SCALAR_INVERSES = {name: _inverse(name, n, True) for name, n in _MATRIX_SIZE.items()}


def _off_p(e, scalar):
    """Source of the test that e is not divisible by p, on an int or a scalar."""
    return f"not {e}.zero_mod(1)" if scalar else f"{e} % p"


def _membership_tests(name, n, scalar=False):
    """Membership in I of rows unpacked into locals x00, x01, ..., as two
    conditions that hold where it fails: the group relation, modulo mod on
    ints and against the ring's one or zero on scalars, so at most at the ring
    precision; then the congruence mod p to a lower unitriangular matrix,
    diagonal first in each row.  On SL_n the relation is det g = 1.  On Sp4 it
    is g^T J g = J for the antidiagonal Gram matrix J (J[0][3] = J[1][2] = 1,
    J[2][1] = J[3][0] = -1), whose entry (i, j) g0i g3j + g1i g2j - g2i g1j -
    g3i g0j is antisymmetric in (i, j) term by term, as J is: the diagonal and
    the lower triangle hold exactly when the six upper entries do, also in
    truncated arithmetic."""
    x = [[f"x{i}{j}" for j in range(n)] for i in range(n)]
    if name == "sp4":  # (entry, whether J holds 1 there)
        relation = [(f"{x[0][i]} * {x[3][j]} + {x[1][i]} * {x[2][j]} - {x[2][i]} * {x[1][j]}"
                     f" - {x[3][i]} * {x[0][j]}", i + j == 3)
                    for i in range(3) for j in range(i + 1, 4)]
    else:
        idx = tuple(range(n))
        relation = [(_det_source(x, idx, idx), True)]
    upper = [(x[i][j], i == j) for i in range(n) for j in range(i, n)]
    if scalar:
        relation = [f"{e} != {'one' if one else 'zero'}" for e, one in relation]
    else:
        relation = [f"({e}{' - 1' if one else ''}) % mod" for e, one in relation]
    return " or ".join(relation), " or ".join(
        _off_p(f"({e} - 1)" if diagonal else e, scalar) for e, diagonal in upper)


def _membership(name, n, scalar=False):
    """member(ints, p, mod), or member(rows, one, zero) on scalars with the
    ring's exact one and zero, of the group: 0 where the rows fail the group
    relation, 1 where they keep it but fail the congruence, 2 in I."""
    relation, congruence = _membership_tests(name, n, scalar)
    x = [[f"x{i}{j}" for j in range(n)] for i in range(n)]
    rows, args = ("rows", "rows, one, zero") if scalar else ("ints", "ints, p, mod")
    return _compiled(f"def member({args}):\n    {_unpack(x)} = {rows}\n"
                     f"    if {relation}:\n        return 0\n"
                     f"    return 1 if {congruence} else 2\n",
                     f"<iwahori {'scalar ' * scalar}membership {name}>", "member")


_MEMBERSHIPS = {name: _membership(name, n) for name, n in _MATRIX_SIZE.items()}
_SCALAR_MEMBERSHIPS = {name: _membership(name, n, True) for name, n in _MATRIX_SIZE.items()}


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


def _factor_kernel(datum, order, neg_strip, pos_strip, filename, member=True, scalar=False):
    """One plan's factorization as straight-line code: on int rows,
    kernel(ints, p, mod, cap, wrap) -> (negative, torus coordinates, diagonal,
    positive, omega key) modulo mod = p^N, cap = N; these and the group's
    ``_wrap`` are passed in, since plans are shared across (p, N).  Locals named
    by the row and column of ints make the load in plan order a renaming.  The
    code runs the membership test (``_membership_tests``; member=False leaves it
    out, for rows that reach the later checks only by skipping it), the LDU with
    its pivot check, each strip as ``_strip`` on ints, the lattice equations,
    the torus coordinates of the recipes, the pro-p and upper-root checks, and
    the least key (``_omega_value``) of the factors with the heights as
    constants.  The generator knows each strip entry as the local that holds
    it, or as the identity's 0 or 1 where nothing was ever written, which the
    remainder check skips; it checks every local.

    With ``scalar`` the same lines run on PadicScalar rows, kernel(rows, p,
    cap, one, zero) for the ring's exact one and zero, in the precision rules
    of scalar arithmetic: the LDU skips a row update whose multiplier is an
    exact zero; a strip starts from the identity of the ints 1 and 0 (one and
    zero sit at N and would cap the parameters), updates it in place by y = -x
    (the negation of an exact nonzero scalar is inexact), skips a root whose y
    is an exact zero and checks every entry against the int 1 or 0, at the
    entry's own precision; the lattice equations compare with one; and each
    factor's key is taken at its own precision, INF for an exact zero."""
    n = len(order)
    ints = [[f"x{i}{j}" for j in range(n)] for i in range(n)]
    a = [[ints[i][j] for j in order] for i in order]
    code = [f"{_unpack(ints)} = {'rows' if scalar else 'ints'}"]
    if member:
        for test in _membership_tests(datum.name, n, scalar):
            code += [f"if {test}:", f"    raise MembershipError({_NOT_IN_I!r})"]
    for k in range(n):
        code += [f"if not {a[k][k]}.is_unit():" if scalar else f"if {a[k][k]} % p == 0:",
                 f"    raise InternalError(f'elimination pivot {k} is not a unit: "
                 + (f"{{{a[k][k]}!r}}')" if scalar else f"{{wrap({a[k][k]})!r}}')")]
        if k < n - 1:
            code.append(f"q = {a[k][k]}.inv()" if scalar else f"q = pow({a[k][k]}, -1, mod)")
        for i in range(k + 1, n):
            if scalar:
                code += [f"l{i}{k} = {a[i][k]} * q", f"if not l{i}{k}.is_exact_zero:"]
                code += [f"    {a[i][j]} = {a[i][j]} - l{i}{k} * {a[k][j]}"
                         for j in range(k + 1, n)]
                continue
            code.append(f"l{i}{k} = {a[i][k]} * q % mod")
            code += [f"{a[i][j]} = ({a[i][j]} - l{i}{k} * {a[k][j]}) % mod"
                     for j in range(k + 1, n)]
        code += [f"u{k}{j} = q * {a[k][j]}{'' if scalar else ' % mod'}" for j in range(k + 1, n)]
    params, factors = [], []
    for prefix, batch, strip in (("l", "neg", neg_strip), ("u", "pos", pos_strip)):
        cur = [[f"{prefix}{i}{j}" if (i > j) == (prefix == "l") and i != j else int(i == j)
                for j in range(n)] for i in range(n)]
        if scalar:  # every entry a local, the identity's the ints 1 and 0
            code += [" = ".join([f"{prefix}{i}{j}" for i, row in enumerate(cur)
                                 for j, e in enumerate(row) if e == v] + [str(v)])
                     for v in (1, 0)]
            cur = [[f"{prefix}{i}{j}" for j in range(n)] for i in range(n)]
        out = []
        for root, dirs in strip:
            i0, j0, s0 = dirs[0]
            x = f"{batch}{len(out)}"
            code.append(f"{x} = {'' if s0 == 1 else '-'}{cur[i0][j0]}" if scalar
                        else f"{x} = {cur[i0][j0]}" if s0 == 1 else f"{x} = -{cur[i0][j0]} % mod")
            for i, j, s in dirs[1:]:
                code += [f"if {cur[i][j]} != {'' if s == 1 else '-'}{x}:" if scalar
                         else f"if ({cur[i][j]} {'-' if s == 1 else '+'} {x}) % mod:",
                         f"    raise InternalError('paired entries for root {root} disagree')"]
            out.append(f"({root!r}, {x})")
            factors.append((datum.height(root), x))
            if scalar:
                code += [f"y = -{x}", "if not y.is_exact_zero:"]
            for i, j, s in dirs:  # left multiplication by u_root(-x)
                f = "y" if s == 1 else "-y"  # the scalar form's factor
                for k, c in enumerate(cur[j]):
                    if scalar:
                        code.append(f"    {cur[i][k]} = {cur[i][k]} + {f} * {c}")
                    elif c != 0:
                        name = f"{prefix}{i}{k}_{len(code)}"
                        code.append(f"{name} = ({cur[i][k]} {'-' if s == 1 else '+'} {x}"
                                    f"{'' if c == 1 else f' * {c}'}) % mod")
                        cur[i][k] = name
        left = [f"{e} != 1" if i == j else f"{e} != 0" if scalar else e for i, row in enumerate(cur)
                for j, e in enumerate(row) if type(e) is str]
        code += [f"if {' or '.join(left)}:",
                 "    raise InternalError('unipotent strip left a remainder')"]
        params.append("[" + ", ".join(out) + "]")
    diag = [ints[i][i] for i in range(n)]
    lattice = [" * ".join(diag[i] for i in eq) + (" != one" if scalar else " % mod != 1")
               for eq in _TORUS_EQUATIONS[datum.name]]
    recipes = _TORUS_RECIPES[datum.name]
    if scalar:  # each recipe's product from the ring's one
        coords = [" * ".join(["one"] + [diag[i] if e == 1 else f"{diag[i]} ** {e}"
                                        for i, e in recipe]) for recipe in recipes]
    else:
        coords = [" * ".join(diag[i] if e == 1 else f"pow({diag[i]}, {e}, mod)" for i, e in recipe)
                  + " % mod" for recipe in recipes]
    code += [f"if {' or '.join(lattice)}:",
             "    raise InternalError('torus diagonal is not in the cocharacter lattice')",
             f"if {' or '.join(_off_p(f'({d} - 1)', scalar) for d in diag)}:",
             "    raise InternalError('torus part is not pro-p')",
             f"if {' or '.join(_off_p(x, scalar) for ht, x in factors if ht < 0)}:",
             "    raise InternalError('upper root parameter not divisible by p')"]
    h2 = 2 * datum.coxeter_number()
    if scalar:  # 2 h omega, plus 1 for a cap marker, of each factor and of each d - 1
        code += [f"t{i} = {d} - 1" for i, d in enumerate(diag)]
        keys = [f"({h2} * vp_int({x}.co, p) if {x}.co else INF if {x}.exact "
                f"else {h2} * {x}.prec + 1) {'-' if ht < 0 else '+'} {abs(2 * ht)}"
                for ht, x in factors + [(0, f"t{i}") for i in range(n)]]
        code.append(f"best = min({', '.join(keys)})")
    else:
        # the least key: h omega is vp(x) h + ht(root), or the cap N h + ht(root)
        # where x = 0 mod p^N, and vp(x) is taken only where vp(x) >= 1 can still
        # lower the least.  The factors go by their least possible key, lower
        # roots first, so that a unit parameter of a simple root ends most of
        # the work.  The torus factors d - 1, offset 0, are all divisible by p.
        factors.sort(key=lambda f: (2 * f[0], 0) if f[0] > 0 else (h2 + 2 * f[0], 1))
        for k, (ht, x) in enumerate(factors):
            sign = "+" if ht > 0 else "-"
            deep = (f"{h2} * vp_int({x}, p) {sign} {abs(2 * ht)} if {x} "
                    f"else cap * {h2} {sign} {abs(2 * ht + 1)}")
            if k == 0:  # best is not set yet
                code += ([f"if {x} % p:", f"    best = {2 * ht}", "else:", f"    best = {deep}"]
                         if ht > 0 else [f"best = {deep}"])
            elif ht > 0:
                code += [f"if {x} % p:", f"    if {2 * ht} < best:", f"        best = {2 * ht}",
                         f"elif {h2 + 2 * ht} < best:", f"    best = min(best, {deep})"]
            else:
                code += [f"if {h2 + 2 * ht} < best:", f"    best = min(best, {deep})"]
        for d in diag:
            code += [f"if {h2} < best:",
                     f"    best = min(best, {h2} * vp_int({d} - 1, p) if {d} != 1 "
                     f"else cap * {h2} + 1)"]
    code.append(f"return {params[0]}, [{', '.join(coords)}], [{', '.join(diag)}], {params[1]}, "
                "best")
    args = "rows, p, cap, one, zero" if scalar else "ints, p, mod, cap, wrap"
    src = f"def kernel({args}):\n" + "".join(f"    {line}\n" for line in code)
    return _compiled(src, filename, "kernel")


def _draw_kernel(group, plan, filename):
    """``from_coordinates`` of one plan's twist on int coordinates in 1..p^N - 1
    as straight-line code: draw(coords, p, mod, exp_p) -> int rows modulo mod.
    From the identity, u_root(x) for x = c, or p c on an upper root, adds s x
    times column i to column j at each of its directions (i, j, s); the torus
    scales column k by its diagonal entry, exp(p)^c per cocharacter basis
    vector raised to the exponent at k.  As in ``_factor_kernel``, the
    generator knows each entry as the local that holds it or as the identity's
    0 or 1, and folds the constants."""
    n, a, rank = group.n, len(plan.neg_batch), group.datum.rank
    cs = [f"c{k}" for k in range(a + rank + len(plan.pos_batch))]
    code = [f"{', '.join(cs)} = coords"]
    rows = [[int(i == j) for j in range(n)] for i in range(n)]

    def put(r, j, expr):
        name = f"r{r}{j}_{len(code)}"
        code.append(f"{name} = {expr}")
        rows[r][j] = name

    def rmul(batch, values):  # right multiplication by u_root(x)
        for root, x in zip(batch, values):
            if group.datum.height(root) < 0:
                code.append(f"p{x} = {x} * p % mod")
                x = f"p{x}"
            for i, j, s in group.dirs[root]:
                for r, row in enumerate(rows):
                    src, dst = row[i], row[j]
                    if src == 0:
                        continue
                    term = x if src == 1 else f"{x} * {src}"
                    if dst != 0:
                        put(r, j, f"({dst} {'+' if s == 1 else '-'} {term}) % mod")
                    elif s == 1 and src == 1:
                        row[j] = x
                    else:
                        put(r, j, f"{'' if s == 1 else '-'}{term} % mod")

    rmul(plan.neg_batch, cs[:a])
    diag = [[] for _ in range(n)]  # factors t = exp(p)^c and their inverses s
    for k, (mu, c) in enumerate(zip(group.datum.cochar_basis, cs[a:a + rank])):
        code += [f"t{k} = pow(exp_p, {c}, mod)", f"s{k} = pow(t{k}, -1, mod)"]
        for i, e in enumerate(group.exponents(mu)):
            diag[i] += [f"t{k}"] * e + [f"s{k}"] * -e
    for j, factors in enumerate(diag):
        if len(factors) > 1:
            code.append(f"d{j} = {' * '.join(factors)} % mod")
        dj = f"d{j}" if len(factors) > 1 else factors[0] if factors else 1
        for r, row in enumerate(rows):
            if dj == 1 or row[j] == 0:
                continue
            if row[j] == 1:
                row[j] = dj
            else:
                put(r, j, f"{row[j]} * {dj} % mod")
    rmul(plan.pos_batch, cs[a + rank:])
    code.append(f"return {_unpack([[str(e) for e in row] for row in rows])}")
    src = "def draw(coords, p, mod, exp_p):\n" + "".join(f"    {line}\n" for line in code)
    return _compiled(src, filename, "draw")


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
            return GroupElement(self.group, None, _MATMULS[self.group.n](a, b, self.group._mod))
        return GroupElement(self.group, _SCALAR_MATMULS[self.group.n](self.mat, other.mat))

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
        group = self.group
        if self._ints is not None:
            return GroupElement(group, None, _INVERSES[group.name](
                self._ints, group.ring.p, group._mod, group._wrap))
        return GroupElement(group, _SCALAR_INVERSES[group.name](self.mat, group._zero))

    def _member(self) -> int:
        """The group's generated ``member`` on the int rows or the scalar entries:
        0 off the group relation, 1 in the group but not in I, 2 in I."""
        group = self.group
        if self._ints is not None:
            return _MEMBERSHIPS[group.name](self._ints, group.ring.p, group._mod)
        return _SCALAR_MEMBERSHIPS[group.name](self.mat, group._one, group._zero)

    def satisfies_group_relation(self) -> bool:
        return self._member() > 0

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
