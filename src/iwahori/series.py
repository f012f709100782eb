"""Truncated power series on the coordinate chart of a twisted unipotent
batch, with Gauss norms, torus and Lie actions, slope decompositions, the
slope projector, translation, and the no-invariant-functional check.

Coordinates: the positive batch for a Weyl twist w is the ordered list of
roots w*alpha_1 .. w*alpha_N (alpha_r the positive roots in the fixed
height-then-lex order).  A series is a finitely supported coefficient map
on multi-indices I = (i_1..i_N); the base field is Q_p and coefficients
are exact rationals with a p-adic fast path for evaluated characters.
Norms are reported as valuations: the Gauss norm of f is p^(-v) where v
is the minimum coefficient valuation.

The eigenvalue of the monomial z^I under the distinguished torus operator
is lambda_I = sum_r <w alpha_r, mu> i_r, a non-negative integer, zero only
for the constant monomial; its p-adic valuation drives the slope grading,
with v(lambda_0) = infinity by convention so constants survive every cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .groups import ChevalleyGroup, PValue, _strip
from .padic import (INF, InternalError, PadicScalar, UnitError, padic_exp, padic_log,
                    vp_fraction, vp_int)
from .roots import WeylElement


class SeriesError(ValueError):
    pass


def _check_lengths(n: int, what: str, *vectors) -> None:
    """SeriesError unless every vector has n entries."""
    if any(len(v) != n for v in vectors):
        raise SeriesError(f"{what} need {n} chart entries")


def coeff_is_zero(c) -> bool:
    if isinstance(c, PadicScalar):
        return c.is_exact_zero
    return c == 0


def _add_into(out: dict, terms) -> None:
    """out[idx] += c on a coefficient map for each (idx, c) of terms,
    dropping a sum that is zero."""
    for idx, c in terms:
        if idx in out:
            s = out[idx] + c
            if coeff_is_zero(s):
                del out[idx]
            else:
                out[idx] = s
        else:
            out[idx] = c


class SeriesContext:
    """Chart bookkeeping: group, Weyl twist, adapted cocharacter, weights."""

    def __init__(self, group: str | ChevalleyGroup, w: WeylElement | None = None,
                 p: int = 7, prec: int = 12):
        self.group = group if isinstance(group, ChevalleyGroup) else \
            ChevalleyGroup(group, p=p, prec=prec)
        self.datum = self.group.datum
        self.ring = self.group.ring
        self.w = w if w is not None else self.datum.identity_weyl()
        self.batch = self.group.batches(self.w)[1]  # raises for a w outside the Weyl group
        self.mu, self.scale = self.datum.adapted_cocharacter(self.w)
        self.weights = [self.datum.pairing(g, self.mu) for g in self.batch]
        self.nvars = len(self.batch)
        self.slope_of = lru_cache(maxsize=4096)(self.slope_of)  # remembered per index

    def lambda_of(self, index) -> int:
        if len(index) != self.nvars:
            raise SeriesError(f"monomial indices need {self.nvars} chart entries")
        return sum(map(mul, self.weights, index))

    def slope_of(self, index: tuple):
        """v_p(lambda_I); infinity for the constant monomial."""
        return vp_int(self.lambda_of(index), self.ring.p)

    def max_weight(self) -> int:
        return max(self.weights)

    def zero_index(self):
        return (0,) * self.nvars

    def point_from_cocharacter(self, mu_vec, c: PadicScalar):
        """Coordinate values of the torus point mu(c): a_i = c^<eps_i, mu>."""
        _check_lengths(self.datum.dim, "cocharacters", mu_vec)
        return tuple(c ** e for e in mu_vec)


@dataclass(frozen=True)
class Character:
    """A rigid character of the pro-p torus, carried by its derivative on
    the chart basis: coeffs[i] is the exact rational dchi(eps_i-direction)."""

    coeffs: tuple

    @classmethod
    def from_rationals(cls, *cs) -> "Character":
        return cls(tuple(Fraction(c) for c in cs))

    # twisted and is_rigid run on every torus_action call; 16 entries hold a
    # character under all eight sp4 twists, and keep memory flat
    @lru_cache(maxsize=16)
    def is_rigid(self, p: int) -> bool:
        """Whether min v_p(c_i) > 1/(p-1) - 1, true for the zero character."""
        worst = min((vp_fraction(c, p) for c in self.coeffs), default=INF)
        return worst is INF or worst > Fraction(1, p - 1) - 1

    @lru_cache(maxsize=16)
    def twisted(self, w: WeylElement) -> "Character":
        return Character(w.act(self.coeffs))

    def derivative_pairing(self, cochar) -> Fraction:
        _check_lengths(len(self.coeffs), "cocharacters paired with this character", cochar)
        return sum((c * e for c, e in zip(self.coeffs, cochar)), Fraction(0))

    def evaluate(self, ctx: SeriesContext, point) -> PadicScalar:
        """chi(t) = prod exp(c_i log a_i) on chart values a_i in 1 + pZ_p."""
        _check_lengths(ctx.datum.dim, "the torus point and the character", point, self.coeffs)
        if not self.is_rigid(ctx.ring.p):
            raise SeriesError("character is not rigid on the unit ball")
        out = ctx.ring.one()
        for c, a in zip(self.coeffs, point):
            if c == 0:
                continue
            out = out * padic_exp(padic_log(a) * c)
        return out


def character_expand(c, r_max: int, p: int):
    """Taylor coefficients g_r = p^r c^r / r! of t -> t^c along exp(p x),
    as exact rationals, plus whether they tend to zero p-adically."""
    c = Fraction(c)
    coeffs = [Fraction(p) ** r * c ** r / math.factorial(r) for r in range(r_max + 1)]
    return coeffs, Character((c,)).is_rigid(p)


class TruncatedSeries:
    """Finitely supported coefficient map with an optional total-degree cap."""

    __slots__ = ("ctx", "coeffs", "degree")

    def __init__(self, ctx: SeriesContext, coeffs=None, degree=None):
        self.ctx = ctx
        self.degree = degree
        clean = {}
        for idx, c in (coeffs or {}).items():
            idx = tuple(idx)
            if len(idx) != ctx.nvars:
                raise SeriesError(f"index {idx} has wrong arity")
            if min(idx) < 0:
                raise SeriesError(f"index {idx} has a negative exponent")
            if degree is not None and sum(idx) > degree:
                raise SeriesError(f"index {idx} exceeds the degree cap {degree}")
            if isinstance(c, int):
                c = Fraction(c)
            if not coeff_is_zero(c):
                clean[idx] = c
        self.coeffs = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def _from_checked(cls, ctx: SeriesContext, coeffs: dict, degree) -> "TruncatedSeries":
        """A series on a map, kept as it is, that passes ``__init__``'s checks:
        tuple indices of the chart's arity with no negative exponent in the
        cap, no int or zero value."""
        f = cls.__new__(cls)
        f.ctx, f.coeffs, f.degree = ctx, coeffs, degree
        return f

    @classmethod
    def constant(cls, ctx, c, degree=None):
        return cls(ctx, {ctx.zero_index(): c}, degree)

    @classmethod
    def monomial(cls, ctx, index, c=1, degree=None):
        return cls(ctx, {tuple(index): c}, degree)

    # -- structure ---------------------------------------------------------

    def support(self):
        return sorted(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def max_total_degree(self) -> int:
        return max((sum(i) for i in self.coeffs), default=0)

    def gauss_valuation(self) -> PValue:
        """Valuation form of the Gauss norm: min over coefficient valuations,
        exact for rational coefficients (never zero here), capped for scalars.

        The rational minimum is a running bound ``best`` on ints.  Numerator
        and denominator are coprime, so a numerator prime to p gives
        -vp(denominator), cheap as denominators stay small; otherwise the
        valuation is vp(numerator) >= 1, which can lower ``best`` only if
        ``best`` >= 1 and p^best does not divide the numerator, and is then
        below ``best``.  The full valuation of a long numerator is taken only
        when it lowers the bound.  The minimum becomes one PValue."""
        ring, best, scalars = self.ctx.ring, None, []
        p = ring.p
        for c in self.coeffs.values():
            if isinstance(c, PadicScalar):
                scalars.append(PValue.of(c))
            elif c.numerator % p:
                v = -vp_int(c.denominator, p)
                if best is None or v < best:
                    best = v
            elif best is None or best >= 1 and c.numerator % ring.ppow(best):
                best = vp_int(c.numerator, p)
        return PValue.min(scalars + ([PValue.finite(best)] if best is not None else []))

    # -- ring operations ------------------------------------------------------

    def _merged_degree(self, other):
        if self.degree is None or other.degree is None:
            return None
        return min(self.degree, other.degree)

    def __add__(self, other):
        out = dict(self.coeffs)
        _add_into(out, other.coeffs.items())
        if self.degree == other.degree and self.ctx.nvars == other.ctx.nvars:
            return TruncatedSeries._from_checked(self.ctx, out, self.degree)
        return TruncatedSeries(self.ctx, out, self._merged_degree(other))

    def __neg__(self):
        return TruncatedSeries._from_checked(
            self.ctx, {i: -c for i, c in self.coeffs.items()}, self.degree)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if isinstance(c, int):
            c = Fraction(c)
        if coeff_is_zero(c):
            return TruncatedSeries(self.ctx, {}, self.degree)
        return TruncatedSeries(self.ctx, {i: v * c for i, v in self.coeffs.items()},
                               self.degree)

    def __mul__(self, other):
        """Polynomial product; the output carries no truncation cap."""
        out = {}
        _add_into(out, ((tuple(a + b for a, b in zip(ia, ib)), ca * cb)
                        for ia, ca in self.coeffs.items() for ib, cb in other.coeffs.items()))
        return TruncatedSeries(self.ctx, out, None)

    def evaluate(self, point):
        """Value at a concrete coordinate tuple (polynomial use).  With
        rational coefficients and an int or Fraction point, the powers of each
        coordinate are taken once as numerator and denominator ints, the terms
        are summed on ints over one common denominator, and the value is built
        once, as one Fraction.  p-adic scalars multiply term by term."""
        _check_lengths(self.ctx.nvars, "evaluation points", point)
        coeffs = self.coeffs
        if all(isinstance(v, (int, Fraction)) for v in point) and not any(
                isinstance(c, PadicScalar) for c in coeffs.values()):
            point = [Fraction(v) for v in point]
            top = [max(column) for column in zip(*coeffs)]
            nums = [[x.numerator ** k for k in range(t + 1)] for x, t in zip(point, top)]
            dens = [[x.denominator ** k for k in range(t + 1)] for x, t in zip(point, top)]
            den_f = math.lcm(*(c.denominator for c in coeffs.values()))
            total = 0
            for idx, c in coeffs.items():
                term = c.numerator * (den_f // c.denominator)
                for num, den, t, e in zip(nums, dens, top, idx):
                    term *= num[e] * den[t - e]
                total += term
            return Fraction(total, den_f * math.prod(den[-1] for den in dens))
        total = None
        for idx, c in coeffs.items():
            term = c
            for val, e in zip(point, idx):
                for _ in range(e):
                    term = term * val
            total = term if total is None else total + term
        return Fraction(0) if total is None else total

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            theirs = {self.ctx.zero_index(): other}  # a constant series
        elif isinstance(other, TruncatedSeries):
            theirs = other.coeffs
        else:
            return NotImplemented
        if self.coeffs == theirs:
            return True
        zero = Fraction(0)
        return all(self.coeffs.get(k, zero) == theirs.get(k, zero)
                   for k in set(self.coeffs) | set(theirs))

    def __repr__(self):
        terms = ", ".join(f"{idx}: {c}" for idx, c in sorted(self.coeffs.items())[:6])
        extra = "..." if len(self.coeffs) > 6 else ""
        return f"TruncatedSeries({{{terms}{extra}}}, degree={self.degree})"


# -- torus and Lie actions ---------------------------------------------------


def torus_action(f: TruncatedSeries, point, chi: Character | None = None) -> TruncatedSeries:
    """(t f)(z) = (w chi)(t) * f(alpha_1(t^-1) z_1, ..., alpha_N(t^-1) z_N)
    for the batch roots alpha_r; diagonal on monomials, degree preserved.

    Values are taken on ints modulo p^N (N the ring precision): the point is
    inverted, the batch root values and monomial multipliers are multiplied
    and a rational coefficient is read as num * den^-1.  The precision of the
    output for z^I with coefficient c is the least of chi(t).prec, the
    precision of each point entry read by a batch root that z^I uses (at most
    N), and c.prec for a p-adic c.  The output is exact only when chi(t) and
    each of those entries is an exact 1 and c is exact (for a rational c: an
    integer); built by ``ScalarRing.canonical``, it is inexact if its value
    does not fit below p^prec."""
    ctx, ring = f.ctx, f.ctx.ring
    p, N = ring.p, ring.prec
    _check_lengths(ctx.datum.dim, "the torus point and the character", point,
                   *(() if chi is None else (chi.coeffs,)))
    if not all((a - 1).zero_mod(1) for a in point):
        raise SeriesError("torus point is not pro-p in the chart")
    if chi is not None:
        chi_factor = chi.twisted(ctx.w).evaluate(ctx, point)
    else:
        chi_factor = ring.one()
    q = ring.ppow(N)
    inv_point = [pow(a.co, -1, q) for a in point]
    base = []  # per batch root: its value at t^-1, precision and exactness
    for root in ctx.batch:
        b, b_prec, b_exact = 1, N, True
        for x, a, e in zip(inv_point, point, root):
            if e:
                b = b * pow(x, e, q) % q
                b_prec = min(b_prec, a.prec)
                b_exact = b_exact and a.exact and a.co == 1
        base.append((b, b_prec, b_exact))
    out = {}
    for idx, c in f.coeffs.items():
        mult, prec, exact = chi_factor.co, chi_factor.prec, chi_factor.exact
        for (b, b_prec, b_exact), e in zip(base, idx):
            if e:
                mult = mult * pow(b, e, q) % q
                if b_prec < prec:
                    prec = b_prec
                exact = exact and b_exact
        if isinstance(c, PadicScalar):
            v = mult * c.co
            if c.prec < prec:
                prec = c.prec
            exact = exact and c.exact
        elif c.denominator % p:
            v = mult * c.numerator * pow(c.denominator, -1, q)
            exact = exact and c.denominator == 1
        else:
            raise UnitError(f"denominator {c.denominator} is divisible by p={p}")
        out[idx] = ring.canonical(v, prec, exact)
    return TruncatedSeries(ctx, out, f.degree)


def lie_action(f: TruncatedSeries, dchi_value, droot_values) -> TruncatedSeries:
    """Derivative of the torus action along a tangent vector H, given the
    pairing data dchi(H) and the list d(alpha_r)(H): the monomial z^I is an
    eigenvector with eigenvalue dchi(H) - sum_r d(alpha_r)(H) i_r."""
    ctx = f.ctx
    _check_lengths(ctx.nvars, "the root pairings", droot_values)
    out = {}
    for idx, c in f.coeffs.items():
        eig = dchi_value - sum(d * i for d, i in zip(droot_values, idx))
        if eig:
            out[idx] = c * eig
    return TruncatedSeries(ctx, out, f.degree)


def adapted_lie_data(ctx: SeriesContext, chi: Character | None = None):
    """Pairing data of H_mu for the adapted cocharacter: d(alpha_r)(H_mu)
    equals the batch weight, and d(w chi)(H_mu) = <w.dchi, mu>."""
    droots = list(ctx.weights)
    if chi is None:
        return Fraction(0), droots
    return chi.twisted(ctx.w).derivative_pairing(ctx.mu), droots


# -- slopes -------------------------------------------------------------------


def slope_split(f: TruncatedSeries, s: int):
    """(f^{<s}, f^{>=s}) by the valuation of the monomial eigenvalue."""
    if s < 0:
        raise SeriesError("slope must be a non-negative integer")
    below, atleast = {}, {}
    for idx, c in f.coeffs.items():
        sl = f.ctx.slope_of(idx)
        (atleast if sl is INF or sl >= s else below)[idx] = c
    return (TruncatedSeries._from_checked(f.ctx, below, f.degree),
            TruncatedSeries._from_checked(f.ctx, atleast, f.degree))


def slope_exact(f: TruncatedSeries, s: int) -> TruncatedSeries:
    out = {idx: c for idx, c in f.coeffs.items() if f.ctx.slope_of(idx) == s}
    return TruncatedSeries._from_checked(f.ctx, out, f.degree)


PROJECTOR_EXPONENT_CAP = 10 ** 6


def hida_projector(f: TruncatedSeries, s: int, iterations: int) -> TruncatedSeries:
    """Apply the slope-s idempotent approximant: the n!-th iterate of the
    operator multiplying z^I by (lambda_I / p^s)^(p-1).  Converges to the
    exact slope-s projection as n grows.

    The exact rationals are raised to the power (p-1)*n!, so a coefficient
    grows by that factor in bit length.  The exponent may not exceed
    PROJECTOR_EXPONENT_CAP = 10**6; a larger one raises SeriesError before
    any power is taken.  The cap admits n <= 8 for every p <= 23 (n = 8 at
    p = 7 gives 241 920) and n <= 9 at p = 3."""
    ctx = f.ctx
    p = ctx.ring.p
    ps = p ** s
    for idx in f.coeffs:
        sl = ctx.slope_of(idx)
        if not (sl is INF or sl >= s):
            raise SeriesError("input is not supported on slopes >= s")
    if iterations < 0:
        raise SeriesError("the number of iterations must be non-negative")
    exponent = p - 1
    for k in range(2, iterations + 1):
        if exponent > PROJECTOR_EXPONENT_CAP:
            break  # n! is never computed in full for a large n
        exponent *= k
    if exponent > PROJECTOR_EXPONENT_CAP:
        raise SeriesError(f"the projector exponent (p-1)*n! exceeds "
                          f"{PROJECTOR_EXPONENT_CAP} at p = {p}, n = {iterations}")
    cache = {}
    out = {}
    for idx, c in f.coeffs.items():
        lam = ctx.lambda_of(idx)
        if lam == 0:
            continue  # the constant monomial is annihilated
        if lam not in cache:
            cache[lam] = Fraction(lam, ps) ** exponent
        prod = c * cache[lam]
        if not coeff_is_zero(prod):
            out[idx] = prod
    return TruncatedSeries._from_checked(ctx, out, f.degree)


# -- translation --------------------------------------------------------------

# The batch-group strip packs a multi-index into one int key, _KEY_BITS bits a
# coordinate (no exponent there exceeds 2), so adding keys adds multi-indices.
_KEY_BITS = 16


def _int_product(a: dict, b: dict) -> dict:
    """Product of two polynomials held as {packed multi-index: coefficient};
    adding two packed indices adds the multi-indices."""
    out = {}
    get = out.get
    for ia, ca in a.items():
        for ib, cb in b.items():
            k = ia + ib
            out[k] = get(k, 0) + ca * cb
    return out


def _entry(c):
    """An integral rational as an int, any other as it is."""
    return c.numerator if c.denominator == 1 else c


class _Poly(dict):
    """A polynomial {packed multi-index: coefficient} with no zero coefficient,
    an int while it is integral: the entry type of the batch-group strip, never
    changed once built, with what ``groups._strip`` and
    ``ChevalleyGroup._rmul_root_inplace`` use."""

    @property
    def is_exact_zero(self) -> bool:
        return not self

    def __add__(self, other):
        if not other:
            return self
        out = _Poly(self)
        for k, c in other.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = _entry(s)
            else:
                del out[k]
        return out

    def __neg__(self):
        return _Poly({k: -c for k, c in self.items()})

    def __mul__(self, other):
        if not (self and other):
            return _Poly()
        return _Poly({k: _entry(c) for k, c in _int_product(self, other).items() if c})

    def __eq__(self, other):
        return dict.__eq__(self, other if isinstance(other, dict) else {0: other} if other else {})


def _constants(coords):
    return [_Poly({0: _entry(c)} if c else {}) for c in map(Fraction, coords)]


def _batch_product(ctx: SeriesContext, first, second):
    """Chart coordinates of u(first) * u(second) in the batch group, given and
    returned as one _Poly per batch root: multiplied out and stripped in the
    fixed batch order; exact.  An upper (negative) batch root's chart
    coordinate is its group coordinate over p."""
    _check_lengths(ctx.nvars, "batch coordinates", first, second)
    group, n = ctx.group, ctx.group.n
    one, zero = _Poly({0: 1}), _Poly({})
    rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
    scales = [group.filtration_scale(root) for root in ctx.batch]
    for coords in (first, second):
        for root, scale, x in zip(ctx.batch, scales, coords):
            group._rmul_root_inplace(rows, root, x if scale == 1 else x * _Poly({0: scale}))
    strip = [(root, group.dirs[root]) for root in ctx.batch]
    return [x if scale == 1 else x * _Poly({0: Fraction(1, scale)})
            for (_, x), scale in zip(_strip(rows, strip), scales)]


def coordinate_change_polys(ctx: SeriesContext, shift_coords):
    """Polynomials F_r with coords(u(z) * u0) = (F_1(z), ..., F_N(z)) where
    u0 has chart coordinates shift_coords."""
    bits, mask, p = range(0, _KEY_BITS * ctx.nvars, _KEY_BITS), (1 << _KEY_BITS) - 1, ctx.ring.p
    polys = _batch_product(ctx, [_Poly({1 << b: 1}) for b in bits], _constants(shift_coords))
    for root, x in zip(ctx.batch, polys):
        if ctx.group.filtration_scale(root) != 1 and any(
                type(c) is Fraction and c.denominator % p == 0 for c in x.values()):
            raise InternalError("symbolic coordinate not integral")
    return [TruncatedSeries(ctx, {tuple(k >> b & mask for b in bits): c for k, c in x.items()})
            for x in polys]


def translate_action(f: TruncatedSeries, shift_coords) -> TruncatedSeries:
    """(u0 f)(z) = f(coords(u(z) u0)): substitution of the polynomial
    coordinate change; untruncated output, Gauss norm preserved.

    On ints: F_r is cleared to int numerators over one denominator D_r, the
    rational coefficients of f over one D_f, and a multi-index is packed into
    one int (radix above the largest output degree), so the powers of F_r and
    the monomial products are int convolutions.  Terms are summed over
    D_f * prod D_r^(max e_r); each output coefficient is built once, as one
    Fraction.  A p-adic coefficient multiplies its monomial's substitution."""
    ctx = f.ctx
    polys = coordinate_change_polys(ctx, shift_coords)
    radix = 1 + max((sum(e * F.max_total_degree() for e, F in zip(idx, polys))
                     for idx in f.coeffs), default=0)
    places = [radix ** r for r in range(ctx.nvars)]

    def pack(idx):
        return sum(i * b for i, b in zip(idx, places))

    def unpack(k):
        return tuple(k // b % radix for b in places)

    dens = [math.lcm(*(c.denominator for c in F.coeffs.values())) for F in polys]
    powers = [[{0: 1}, {pack(i): c.numerator * (d // c.denominator) for i, c in F.coeffs.items()}]
              for F, d in zip(polys, dens)]

    def power(r, k):
        table = powers[r]
        while len(table) <= k:
            table.append(_int_product(table[-1], table[1]))
        return table[k]

    top = [max(column) for column in zip(*f.coeffs)]
    den = math.prod(d ** t for d, t in zip(dens, top))
    den_f = math.lcm(*(c.denominator for c in f.coeffs.values() if not isinstance(c, PadicScalar)))
    total, out = {}, {}
    for idx, c in f.coeffs.items():
        scale = math.prod(d ** (t - e) for d, t, e in zip(dens, top, idx))
        scalar = isinstance(c, PadicScalar)
        term = {0: scale if scalar else c.numerator * (den_f // c.denominator) * scale}
        for r, e in enumerate(idx):
            if e:
                term = _int_product(term, power(r, e))
        if scalar:
            _add_into(out, ((unpack(k), c * Fraction(v, den)) for k, v in term.items() if v))
        else:
            for k, v in term.items():
                total[k] = total.get(k, 0) + v
    _add_into(out, ((unpack(k), Fraction(v, den_f * den)) for k, v in total.items() if v))
    return TruncatedSeries._from_checked(ctx, out, None)


def batch_coordinate_product(ctx: SeriesContext, coords_a, coords_b):
    """Chart coordinates of u(a) * u(b) inside the batch group for rational
    a, b: ``coordinate_change_polys``'s product and strip on constants."""
    return [Fraction(x.get(0, 0))
            for x in _batch_product(ctx, _constants(coords_a), _constants(coords_b))]


# -- convergence reports -------------------------------------------------------


def constants_limit_check(f: TruncatedSeries):
    """Truncated form of the constants-in-the-closure property: the tails
    f^{>=s} converge to the constant coefficient, exactly once
    p^s exceeds (total degree) * (largest batch weight)."""
    ctx = f.ctx
    c0 = f.coeffs.get(ctx.zero_index())
    if c0 is None:
        raise SeriesError("the check needs a nonzero constant coefficient")
    p = ctx.ring.p
    dmax = f.degree if f.degree is not None else f.max_total_degree()
    bound = dmax * ctx.max_weight()
    s_star = 0
    while p ** s_star <= bound:
        s_star += 1
    const = TruncatedSeries.constant(ctx, c0, f.degree)
    rows = []
    prev = None
    monotone = True
    exact_from = None
    for s in range(s_star + 3):
        _, tail = slope_split(f, s)
        diff_val = (tail - const).gauss_valuation()
        rows.append({"s": s, "distance_valuation": diff_val.as_json()})
        if prev is not None and diff_val.ge(prev)[0] is False:
            monotone = False
        prev = diff_val
        if tail == const and exact_from is None:
            exact_from = s
    ok = monotone and exact_from is not None and exact_from <= s_star
    return {
        "schema": "iwahori.constants-limit/1",
        "threshold": s_star,
        "exact_from": exact_from,
        "monotone": monotone,
        "rows": rows,
        "ok": ok,
    }


def haar_obstruction(max_degree: int):
    """Exact rational proof that no translation-invariant functional exists
    at finite level: ell(T f_k) = ell(f_k) for k <= D+1 forces
    ell(f_0) = ... = ell(f_D) = 0 via the binomial recurrence.

    Equation k (k = 1..D+1) reads sum_{i < k} C(k, i) ell(f_i) = 0, so the
    system is lower triangular with diagonal C(k, k-1) = k; forward
    substitution solves it and raises on a zero diagonal entry."""
    d = max_degree
    solution = []
    for k in range(1, d + 2):
        diagonal = math.comb(k, k - 1)
        if diagonal == 0:
            raise InternalError(f"equation {k} has a zero diagonal entry")
        rest = sum(math.comb(k, i) * x for i, x in enumerate(solution))
        # an int while the division is exact: str() reads the same either way
        solution.append(-rest // diagonal if rest % diagonal == 0 else Fraction(-rest, diagonal))
    all_zero = all(x == 0 for x in solution)
    return {
        "schema": "iwahori.haar-obstruction/1",
        "degree": d,
        "equations": d + 1,
        "solution": [str(x) for x in solution],
        "unique": True,  # forward substitution raises on a zero diagonal entry
        "zero_functional_only": all_zero,
        "ok": all_zero,
    }
