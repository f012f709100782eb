import math
import random
import re
from fractions import Fraction

import pytest

from iwahori.groups import PValue
from iwahori.padic import (INF, InternalError, PadicScalar, UnitError, padic_exp, vp_fraction,
                           vp_int)
from iwahori.series import (
    _add_into,
    Character,
    SeriesContext,
    SeriesError,
    TruncatedSeries,
    adapted_lie_data,
    batch_coordinate_product,
    character_expand,
    constants_limit_check,
    coordinate_change_polys,
    haar_obstruction,
    hida_projector,
    lie_action,
    slope_exact,
    slope_split,
    torus_action,
    translate_action,
)
from test_fast_paths import root_value_ref

P = 7


def ctx_for(name, w_index=None, prec=12):
    ctx = SeriesContext(name, p=P, prec=prec)
    if w_index is not None:
        datum = ctx.datum
        w = datum.weyl_group()[w_index]
        ctx = SeriesContext(name, w=w, p=P, prec=prec)
    return ctx


def random_series(ctx, rng, degree, terms, unit_den=False):
    coeffs = {}
    for _ in range(terms):
        idx = tuple(rng.randrange(degree + 1) for _ in range(ctx.nvars))
        if sum(idx) > degree:
            continue
        val = rng.randrange(5)
        unit = rng.choice([1, 2, 3, 4, 5, 6, -1, -2])
        den = rng.choice([1, 2, 3, 5]) if unit_den else 1
        coeffs[idx] = Fraction(unit * P ** val, den)
    return TruncatedSeries(ctx, coeffs, degree)


def _revalidated(f):
    """f rebuilt through ``TruncatedSeries.__init__``'s checks."""
    return TruncatedSeries(f.ctx, f.coeffs, f.degree)


@pytest.mark.parametrize("name", ["sl2", "sl3", "sp4"])
def test_series_ops_return_series_that_pass_the_constructor_checks(name):
    # the ops that skip the re-check give what it would keep: the same
    # coefficients and cap, no int and no zero coefficient
    ctx = ctx_for(name)
    rng = random.Random(f"checked-{name}")
    for trial in range(30):
        f, g = random_series(ctx, rng, 6, 8, unit_den=True), random_series(ctx, rng, 6, 8)
        scalar = TruncatedSeries(ctx, {k: ctx.ring.from_fraction(c)
                                       for k, c in f.coeffs.items()}, 6)
        s = trial % 2
        below, atleast = slope_split(f, s)
        shift = [Fraction(rng.randrange(-4, 5), rng.choice([1, 2])) for _ in range(ctx.nvars)]
        outs = [-f, f + g, f - f, scalar + scalar, -scalar, below, atleast, slope_exact(f, s),
                hida_projector(atleast, s, 2), hida_projector(slope_split(scalar, s)[1], s, 1),
                translate_action(f, shift), translate_action(scalar, shift)]
        for out in outs:
            assert out.coeffs == _revalidated(out).coeffs and out.degree == _revalidated(out).degree
            assert all(type(k) is tuple and len(k) == ctx.nvars for k in out.coeffs)
            assert not any(isinstance(c, int) or (c == 0 if isinstance(c, Fraction)
                                                  else c.is_exact_zero)
                           for c in out.coeffs.values())
    # different caps still merge through the checks
    low = TruncatedSeries.monomial(ctx, (1,) + (0,) * (ctx.nvars - 1), 1, 1)
    high = TruncatedSeries.monomial(ctx, (2,) + (0,) * (ctx.nvars - 1), 1, 2)
    with pytest.raises(SeriesError, match="exceeds the degree cap 1"):
        low + high
    assert (low + low).degree == 1 and (low + TruncatedSeries(ctx, low.coeffs)).degree is None



@pytest.mark.parametrize("name", ["sl2", "sl3", "sp4"])
def test_a_negative_exponent_is_refused(name):
    # a negative exponent would be read through lambda, where on sp4 the
    # index (1, -1, 0, 0) has weight 0 and passes for the constant monomial
    ctx = ctx_for(name)
    idx = (1, -1) + (0,) * (ctx.nvars - 2) if ctx.nvars > 1 else (-1,)
    with pytest.raises(SeriesError, match=re.escape(f"index {idx} has a negative exponent")):
        TruncatedSeries(ctx, {idx: 1, ctx.zero_index(): 2})
    with pytest.raises(SeriesError, match="negative exponent"):
        TruncatedSeries.monomial(ctx, idx)

def test_lambda_values():
    ctx = ctx_for("sl2")
    assert ctx.lambda_of((0,)) == 0
    assert ctx.lambda_of((5,)) == 10  # <a, a-coroot> = 2 per power
    sp = ctx_for("sp4")
    assert sp.weights == [sp.scale * sp.datum.height(r) for r in sp.datum.positive_roots]
    for r, root in enumerate(sp.batch):
        e = tuple(int(k == r) for k in range(sp.nvars))
        assert sp.lambda_of(e) == sp.scale * sp.datum.height(sp.datum.positive_roots[r])


def test_character_expand():
    coeffs, conv = character_expand(0, 4, P)
    assert coeffs == [1, 0, 0, 0, 0] and conv
    coeffs, conv = character_expand(Fraction(1, 3), 3, P)
    assert conv and coeffs[1] == Fraction(7, 3)
    _, conv = character_expand(Fraction(1, 7), 3, P)
    assert not conv  # v_p = -1 < 1/(p-1) - 1


def test_character_rigidity_gate():
    ctx = ctx_for("sl2")
    bad = Character.from_rationals(Fraction(1, 7), 0)
    point = ctx.point_from_cocharacter((1, -1), padic_exp(ctx.ring.from_int(P)))
    with pytest.raises(SeriesError, match="not rigid"):
        bad.evaluate(ctx, point)
    f = TruncatedSeries.monomial(ctx, (2,), 1, degree=8)
    with pytest.raises(SeriesError, match="not rigid"):
        torus_action(f, point, bad)


def _wrong_length_calls():
    """(id, expected length, function, arguments): calls on sp4 (four batch
    roots, two chart coordinates) with a chart vector one entry short or one
    too long."""
    ctx = ctx_for("sp4")
    f = TruncatedSeries(ctx, {(1, 0, 0, 0): Fraction(1), (0, 1, 0, 0): Fraction(2),
                              (0, 0, 0, 0): Fraction(3)})
    chi = Character.from_rationals(Fraction(1, 3), 2)
    one = ctx.ring.from_int(1 + P)
    for n in (1, 5):
        z = [1] * n
        yield f"evaluate-{n}", 4, f.evaluate, (z,)
        yield f"lambda_of-{n}", 4, ctx.lambda_of, (tuple(z),)
        yield f"lie_action-{n}", 4, lie_action, (f, 1, z)
        yield f"coordinate_change_polys-{n}", 4, coordinate_change_polys, (ctx, z)
        yield f"translate_action-{n}", 4, translate_action, (f, z)
        yield f"batch_coordinate_product-{n}", 4, batch_coordinate_product, (ctx, [1] * 4, z)
    for n in (1, 3):
        yield f"character_point-{n}", 2, chi.evaluate, (ctx, (one,) * n)
        yield f"derivative_pairing-{n}", 2, chi.derivative_pairing, ((1,) * n,)
        yield f"point_from_cocharacter-{n}", 2, ctx.point_from_cocharacter, ((1,) * n, one)
        bad = Character.from_rationals(*([Fraction(1, 3)] * n))
        yield f"character_coeffs-{n}", 2, bad.evaluate, (ctx, (one, one))


@pytest.mark.parametrize("n,function,args", [c[1:] for c in _wrong_length_calls()],
                         ids=[c[0] for c in _wrong_length_calls()])
def test_a_chart_vector_of_the_wrong_length_is_rejected(n, function, args):
    with pytest.raises(SeriesError, match=f"need {n} chart entries"):
        function(*args)


def test_torus_action_identity_and_eigenvector():
    ctx = ctx_for("sp4")
    rng = random.Random(1)
    f = random_series(ctx, rng, 6, 12)
    one_point = tuple(ctx.ring.one() for _ in range(2))
    assert torus_action(f, one_point) == f
    # monomials are eigenvectors: the action rescales each coefficient
    c = padic_exp(ctx.ring.from_int(P))
    point = ctx.point_from_cocharacter(ctx.mu, c)
    idx = (1, 0, 2, 0)
    g = torus_action(TruncatedSeries.monomial(ctx, idx, 1, 8), point)
    assert g.support() == [idx]


def test_torus_action_preserves_gauss_norm():
    for name in ("sl2", "sp4"):
        ctx = ctx_for(name)
        rng = random.Random(2)
        chi = Character.from_rationals(*([Fraction(1, 3)] * ctx.datum.dim))
        for _ in range(50):
            f = random_series(ctx, rng, 8, 10)
            if f.is_zero():
                continue
            c = ctx.ring.from_int(1 + P * rng.randrange(P ** 6))
            point = ctx.point_from_cocharacter(ctx.mu, c)
            g = torus_action(f, point, chi)
            assert g.gauss_valuation() == f.gauss_valuation()


def test_torus_action_is_group_action():
    # (t1 t2) f = t1 (t2 f); chart values of a torus product multiply
    ctx = ctx_for("sp4", w_index=3)
    rng = random.Random(3)
    chi = Character.from_rationals(2, Fraction(1, 2))
    for _ in range(10):
        f = random_series(ctx, rng, 5, 8)
        c1 = ctx.ring.from_int(1 + P * rng.randrange(P ** 6))
        c2 = ctx.ring.from_int(1 + P * rng.randrange(P ** 6))
        p1 = ctx.point_from_cocharacter(ctx.mu, c1)
        p2 = ctx.point_from_cocharacter((1, 0), c2)
        p12 = tuple(a * b for a, b in zip(p1, p2))
        lhs = torus_action(f, p12, chi)
        rhs = torus_action(torus_action(f, p2, chi), p1, chi)
        assert lhs == rhs


def test_lie_action_eigenvalues_and_derivation():
    ctx = ctx_for("sp4")
    chi = Character.from_rationals(Fraction(1, 3), Fraction(2, 5))
    dchi, droots = adapted_lie_data(ctx, chi)
    idx = (0, 1, 1, 2)
    f = TruncatedSeries.monomial(ctx, idx, 1, 12)
    hf = lie_action(f, dchi, droots)
    eig = dchi - sum(d * i for d, i in zip(droots, idx))
    assert hf == f.scale(eig)
    # the operator dchi(H_mu) Id - H_mu has eigenvalue lambda_I on z^I
    assert f.scale(dchi) - hf == f.scale(ctx.lambda_of(idx))
    # derivation property for the vector-field part (trivial character)
    rng = random.Random(4)
    g1, g2 = random_series(ctx, rng, 4, 6), random_series(ctx, rng, 4, 6)
    lhs = lie_action(g1 * g2, 0, droots)
    rhs = lie_action(g1, 0, droots) * g2 + g1 * lie_action(g2, 0, droots)
    assert lhs == rhs


def test_lie_action_finite_difference_oracle():
    # [(mu(exp(p^k)) f - f)/p^k - H_mu f] has coefficient valuations >= k
    ctx = ctx_for("sp4")
    chi = Character.from_rationals(2, 3)
    dchi, droots = adapted_lie_data(ctx, chi)
    rng = random.Random(5)
    f = random_series(ctx, rng, 5, 8)
    hf = lie_action(f, dchi, droots)
    for k in range(3, 7):
        c = padic_exp(ctx.ring.from_int(P ** k))
        point = ctx.point_from_cocharacter(ctx.mu, c)
        tf = torus_action(f, point, chi)
        for idx, b in f.coeffs.items():
            a = tf.coeffs[idx]  # the action is diagonal, support is shared
            h = hf.coeffs.get(idx, Fraction(0))
            diff = (a - b).shift(-k) - h
            v = diff.val()
            if v is not None and v is not INF:
                assert v >= k, (idx, k, v)


def test_slope_split_and_projections():
    ctx = ctx_for("sl2")
    rng = random.Random(6)
    for _ in range(100):
        f = random_series(ctx, rng, 30, 12)
        below, atleast = slope_split(f, 1)
        assert below + atleast == f
        b2, a2 = slope_split(atleast, 1)
        assert b2.is_zero() and a2 == atleast  # idempotent
        assert slope_split(below, 1)[1].is_zero()  # orthogonal
    # monomial z^7: lambda = 14, v(14) = 1
    f = TruncatedSeries.monomial(ctx, (7,), 1, 30)
    assert not slope_split(f, 1)[1].is_zero()
    assert slope_split(f, 2)[1].is_zero()
    # s = 0 is the identity split
    g = random_series(ctx, rng, 10, 5)
    below0, atleast0 = slope_split(g, 0)
    assert below0.is_zero() and atleast0 == g


def test_constants_survive_all_slopes():
    ctx = ctx_for("sl2")
    f = TruncatedSeries(ctx, {(0,): Fraction(3), (2,): Fraction(1)}, 10)
    for s in range(5):
        assert (0,) in slope_split(f, s)[1].coeffs


def test_hida_projector_convergence():
    ctx = ctx_for("sl2")
    rng = random.Random(7)
    for s in (0, 1, 2):
        for _ in range(10):
            f = random_series(ctx, rng, 30, 10)
            _, tail = slope_split(f, s)
            target = slope_exact(tail, s)
            for n in range(1, 6):
                approx = hida_projector(tail, s, n)
                err = (approx - target).gauss_valuation()
                tailval = tail.gauss_valuation()
                if err.kind == "infinite":
                    continue
                assert tailval.kind == "finite"
                bound = tailval.value + 1 + vp_fraction(math.factorial(n), P)
                assert err.value >= bound, (s, n, err, bound)


def test_hida_projector_multiplier_arithmetic():
    ctx = ctx_for("sl2")
    # pure slope-s monomial: multiplier is 1 mod p at n = 1
    f = TruncatedSeries.monomial(ctx, (7,), 1, 30)  # lambda = 14, slope 1
    out = hida_projector(f, 1, 1)
    mult = out.coeffs[(7,)]
    assert vp_fraction(mult - 1, P) >= 1
    # slope-(s+1) monomial at s: multiplier valuation (p-1)*n!*(v-s)
    g = TruncatedSeries.monomial(ctx, (7 * 7,), 1, None)  # lambda = 98, v = 2
    out = hida_projector(g, 1, 1)
    assert vp_fraction(out.coeffs[(49,)], P) == (P - 1) * 1 * 1
    with pytest.raises(SeriesError):
        hida_projector(TruncatedSeries.monomial(ctx, (1,), 1, 5), 1, 1)


def test_translate_sl2_binomial():
    ctx = ctx_for("sl2")
    f = TruncatedSeries.monomial(ctx, (4,), 1)
    g = translate_action(f, [3])
    # (z + 3)^4 expansion
    expected = TruncatedSeries(ctx, {(k,): Fraction(math.comb(4, k) * 3 ** (4 - k))
                                     for k in range(5)})
    assert g == expected
    assert g.gauss_valuation() == f.gauss_valuation()
    assert translate_action(f, [0]) == f


def test_translate_is_group_action_sp4():
    for w_index in (0, 4):
        ctx = ctx_for("sp4", w_index=w_index)
        rng = random.Random(8)
        for _ in range(20):
            f = random_series(ctx, rng, 4, 6)
            u0 = [rng.randrange(-3, 4) for _ in range(ctx.nvars)]
            u1 = [rng.randrange(-3, 4) for _ in range(ctx.nvars)]
            u01 = batch_coordinate_product(ctx, u0, u1)
            lhs = translate_action(f, u01)
            rhs = translate_action(translate_action(f, u1), u0)
            assert lhs == rhs
            if not f.is_zero():
                assert translate_action(f, u0).gauss_valuation() == f.gauss_valuation()


def test_gauss_norm_multiplicative():
    ctx = ctx_for("sp4")
    rng = random.Random(9)
    for _ in range(40):
        f = random_series(ctx, rng, 4, 5, unit_den=True)
        g = random_series(ctx, rng, 4, 5, unit_den=True)
        if f.is_zero() or g.is_zero():
            continue
        fv, gv, pv = f.gauss_valuation(), g.gauss_valuation(), (f * g).gauss_valuation()
        assert pv.value == fv.value + gv.value


def test_constants_limit():
    ctx = ctx_for("sl2")
    # bound: p^s > D * max weight = 30 * 2 gives s = 3 at p = 7
    rng = random.Random(10)
    for _ in range(10):
        f = random_series(ctx, rng, 30, 15)
        f = f + TruncatedSeries.constant(ctx, Fraction(5), 30)
        rep = constants_limit_check(f)
        assert rep["ok"], rep
        assert rep["threshold"] == 3
    const = TruncatedSeries.constant(ctx, Fraction(2), 10)
    rep = constants_limit_check(const)
    assert rep["exact_from"] == 0


def test_haar_obstruction():
    rep = haar_obstruction(1)
    assert rep["ok"] and rep["solution"] == ["0", "0"]
    rep = haar_obstruction(10)
    assert rep["ok"] and all(x == "0" for x in rep["solution"])


def haar_obstruction_ref(max_degree):
    """The former ``haar_obstruction``, forward substitution on Fractions."""
    d = max_degree
    solution = []
    for k in range(1, d + 2):
        diagonal = math.comb(k, k - 1)
        if diagonal == 0:
            raise InternalError(f"equation {k} has a zero diagonal entry")
        rest = sum(math.comb(k, i) * x for i, x in enumerate(solution))
        solution.append(Fraction(-rest, diagonal))
    all_zero = all(x == 0 for x in solution)
    return {
        "schema": "iwahori.haar-obstruction/1",
        "degree": d,
        "equations": d + 1,
        "solution": [str(x) for x in solution],
        "unique": True,
        "zero_functional_only": all_zero,
        "ok": all_zero,
    }


def test_haar_obstruction_on_ints_matches_the_fraction_code():
    for degree in range(31):
        assert haar_obstruction(degree) == haar_obstruction_ref(degree)


def test_coordinate_change_is_exact_inverse():
    # evaluating the symbolic coordinate change at a point agrees with the
    # product and strip of the two constant batch elements, on every group
    # and Weyl twist
    rng = random.Random(11)
    for name in ("sl2", "sl3", "sp4"):
        for w_index in range(len(SeriesContext(name, p=P).datum.weyl_group())):
            ctx = ctx_for(name, w_index=w_index)
            for _ in range(5):
                a = [rng.randrange(-5, 6) for _ in range(ctx.nvars)]
                b = [rng.randrange(-5, 6) for _ in range(ctx.nvars)]
                ab = batch_coordinate_product(ctx, a, b)
                polys = coordinate_change_polys(ctx, b)
                vals = [poly.evaluate([Fraction(x) for x in a]) for poly in polys]
                assert vals == ab and all(type(x) is Fraction for x in ab)


def lmul_root_inplace_ref(self, rows, root, x):
    """The former ``ChevalleyGroup._lmul_root_inplace``, verbatim, the group
    as ``self``: left multiplication of rows by u_root(x), in place."""
    if x.is_exact_zero:
        return
    n = self.n
    for (i, j, s) in self.dirs[tuple(root)]:
        f = x if s == 1 else -x
        src_row = rows[j]
        dst = rows[i]
        for k in range(n):
            dst[k] = dst[k] + f * src_row[k]


def strip_unipotent_ref(self, mat, batch_roots):
    """The former ``ChevalleyGroup._strip_unipotent``, verbatim, the group as
    ``self``: (root, parameter) pairs stripped in batch order off a copy of a
    unipotent matrix in the element's own basis order."""
    params = []
    cur = [list(row) for row in mat]
    for root in batch_roots:
        dirs = self.dirs[root]
        i0, j0, s0 = dirs[0]
        x = cur[i0][j0] if s0 == 1 else -cur[i0][j0]
        for (i, j, s) in dirs[1:]:
            expect = x if s == 1 else -x
            if not cur[i][j] == expect:
                raise InternalError(f"paired entries for root {root} disagree")
        params.append((root, x))
        lmul_root_inplace_ref(self, cur, root, -x)
    # int targets, not ring constants: an entry known beyond the ring
    # precision is checked at its own precision
    for i in range(self.n):
        for j in range(self.n):
            target = 1 if i == j else 0
            if not cur[i][j] == target:
                raise InternalError("unipotent strip left a remainder")
    return params


def _coordinate_change_polys_ref(ctx, shift_coords):
    """The former ``coordinate_change_polys``, kept as a differential
    reference: the symbolic strip written out on TruncatedSeries entries,
    each upper-root parameter divided by p as it is stripped."""
    group = ctx.group
    n = group.n
    p = ctx.ring.p

    def const(c):
        return TruncatedSeries.constant(ctx, Fraction(c))

    one, zero = const(1), const(0)
    rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
    # u(z): coordinates scale by p on the upper (negative) batch roots
    for r, root in enumerate(ctx.batch):
        scale = Fraction(group.filtration_scale(root))
        zpoly = TruncatedSeries.monomial(ctx, tuple(int(k == r) for k in range(ctx.nvars)),
                                         scale)
        group._rmul_root_inplace(rows, root, zpoly)
    # times the constant element u0
    for r, root in enumerate(ctx.batch):
        scale = Fraction(group.filtration_scale(root))
        c = shift_coords[r]
        c = Fraction(c) if isinstance(c, int) else c
        group._rmul_root_inplace(rows, root, const(scale * c))
    # symbolic strip in the fixed batch order
    out = []
    for root in ctx.batch:
        dirs = group.dirs[root]
        i0, j0, s0 = dirs[0]
        xpoly = rows[i0][j0] if s0 == 1 else -rows[i0][j0]
        for (i, j, s) in dirs[1:]:
            expect = xpoly if s == 1 else -xpoly
            if not rows[i][j] == expect:
                raise InternalError("paired symbolic entries disagree")
        scale = group.filtration_scale(root)
        if scale != 1:
            divided = {}
            for idx, c in xpoly.coeffs.items():
                q = c / scale
                if vp_fraction(q, p) is not INF and vp_fraction(q, p) < 0:
                    raise InternalError("symbolic coordinate not integral")
                divided[idx] = q
            coord = TruncatedSeries(ctx, divided)
        else:
            coord = xpoly
        out.append(coord)
        lmul_root_inplace_ref(group, rows, root, -xpoly)
    for i in range(n):
        for j in range(n):
            target = one if i == j else zero
            if not rows[i][j] == target:
                raise InternalError("symbolic strip left a remainder")
    return out


@pytest.fixture
def series_strip(monkeypatch):
    """The references strip TruncatedSeries entries, and the group's sparse
    row helpers skip an entry whose ``is_exact_zero`` is true."""
    monkeypatch.setattr(TruncatedSeries, "is_exact_zero", property(TruncatedSeries.is_zero),
                        raising=False)


@pytest.mark.parametrize("name", ["sl2", "sl3", "sp4"])
def test_coordinate_change_matches_the_written_out_strip(name, series_strip):
    # every Weyl twist, at integer shifts, at rational shifts with a unit
    # denominator and at rational shifts with p in the denominator; the same
    # polynomials, coefficient for coefficient and type for type, or the same
    # exception type
    rng = random.Random(17)
    weyl = ctx_for(name).datum.weyl_group()
    cases = raised = 0
    for w_index in range(len(weyl)):
        ctx = ctx_for(name, w_index=w_index)
        for k in range(9):
            if k % 3 == 1:
                shift = [Fraction(rng.randrange(-9, 10), rng.choice([1, 2, 3, 5, 8]))
                         for _ in range(ctx.nvars)]
            elif k % 3 == 2:
                shift = [Fraction(rng.randrange(-9, 10), rng.choice([1, P, 2 * P, P * P]))
                         for _ in range(ctx.nvars)]
            else:
                shift = [rng.randrange(-9, 10) for _ in range(ctx.nvars)]
            want = _outcome(_coordinate_change_polys_ref, ctx, shift)
            got = _outcome(coordinate_change_polys, ctx, shift)
            if isinstance(want, type):
                assert got is want, (w_index, shift)
                raised += 1
            else:
                assert [(f.coeffs, f.degree) for f in got] == [(f.coeffs, f.degree) for f in want]
                assert all(type(c) is Fraction for f in got for c in f.coeffs.values())
            cases += 1
    assert cases == 9 * len(weyl)
    assert 0 < raised < 3 * len(weyl)


def _batch_product_ref(ctx, first, shift_coords):
    """The former ``series._batch_product``, kept as a differential reference:
    the strip on TruncatedSeries entries with Fraction coefficients."""
    group, n = ctx.group, ctx.group.n
    one, zero = TruncatedSeries.constant(ctx, Fraction(1)), TruncatedSeries(ctx, {})
    rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
    second = [TruncatedSeries.constant(ctx, Fraction(c)) for c in shift_coords]
    # coordinates scale by p on the upper (negative) batch roots
    for coords in (first, second):
        for root, x in zip(ctx.batch, coords):
            group._rmul_root_inplace(rows, root, x.scale(group.filtration_scale(root)))
    # strip in the fixed batch order, then undo the chart scaling
    return [x.scale(Fraction(1, group.filtration_scale(root)))
            for root, x in strip_unipotent_ref(group, rows, ctx.batch)]


def _batch_coordinate_product_ref(ctx, coords_a, coords_b):
    """The former ``batch_coordinate_product``: constant series through the
    series strip."""
    zero = ctx.zero_index()
    a = [TruncatedSeries.constant(ctx, Fraction(c)) for c in coords_a]
    return [x.coeffs.get(zero, Fraction(0)) for x in _batch_product_ref(ctx, a, coords_b)]


@pytest.mark.parametrize("name", ["sl2", "sl3", "sp4"])
def test_batch_coordinate_product_matches_the_series_strip(name, series_strip):
    # every Weyl twist, rational a and b with denominators that are units,
    # multiples of p or p^2: the same Fractions, or the same exception type
    rng = random.Random(19)
    weyl = ctx_for(name).datum.weyl_group()
    for w_index in range(len(weyl)):
        ctx = ctx_for(name, w_index=w_index)
        for _ in range(8):
            a, b = ([Fraction(rng.randrange(-20, 21), rng.choice([1, 1, 2, 3, P, 3 * P, P * P]))
                     for _ in range(ctx.nvars)] for _ in range(2))
            want = _outcome(_batch_coordinate_product_ref, ctx, a, b)
            got = _outcome(batch_coordinate_product, ctx, a, b)
            if isinstance(want, type):
                assert got is want
            else:
                assert got == want and all(type(x) is Fraction for x in got), (w_index, a, b)


def test_series_equals_a_rational_constant():
    ctx = ctx_for("sl3")
    assert TruncatedSeries(ctx, {}) == 0
    assert TruncatedSeries.constant(ctx, Fraction(1, 3)) == Fraction(1, 3)
    assert TruncatedSeries.constant(ctx, 2) == 2
    assert not TruncatedSeries.constant(ctx, 2) == 1
    assert not TruncatedSeries.monomial(ctx, (1, 0, 0)) == 1
    # a matching constant term does not hide a higher one
    assert not TruncatedSeries(ctx, {(0, 0, 0): 2, (0, 1, 0): 5}) == 2
    assert not TruncatedSeries.monomial(ctx, (0, 0, 1), 3) == 0


def test_hida_projector_exponent_cap():
    ctx = ctx_for("sl2")
    f = TruncatedSeries.monomial(ctx, (7,), 1)
    # demo 03 runs n = 8 at p = 7: (p-1)*8! = 241920 is under the cap
    assert hida_projector(f, 1, 8).coeffs[(7,)] == Fraction(2) ** 241920
    for n in (9, 12, 10 ** 6):
        with pytest.raises(SeriesError, match="exceeds"):
            hida_projector(f, 1, n)
    with pytest.raises(SeriesError):
        hida_projector(f, 1, -1)


# -- the int kernels against the Fraction code they replaced -------------------


def _translate_action_ref(f, shift_coords):
    """The former ``translate_action``, kept as a differential reference:
    each monomial multiplied out on Fraction series from cached powers."""
    ctx = f.ctx
    polys = coordinate_change_polys(ctx, shift_coords)
    pow_cache = [{0: TruncatedSeries.constant(ctx, Fraction(1))} for _ in polys]

    def poly_pow(r, k):
        cache = pow_cache[r]
        if k not in cache:
            cache[k] = poly_pow(r, k - 1) * polys[r]
        return cache[k]

    out = {}
    for idx, c in f.coeffs.items():
        term = TruncatedSeries.constant(ctx, c)
        for r, e in enumerate(idx):
            if e:
                term = term * poly_pow(r, e)
        _add_into(out, term.coeffs.items())
    return TruncatedSeries(ctx, out)


def _evaluate_ref(f, point):
    """The former ``TruncatedSeries.evaluate``: term by term."""
    total = None
    for idx, c in f.coeffs.items():
        term = c
        for val, e in zip(point, idx):
            for _ in range(e):
                term = term * val
        total = term if total is None else total + term
    return Fraction(0) if total is None else total


def _gauss_valuation_ref(f):
    """The former ``TruncatedSeries.gauss_valuation``: the full valuation of
    every rational coefficient, their minimum on ints, then one PValue."""
    p, coeffs = f.ctx.ring.p, f.coeffs.values()
    rational = [vp_int(c.numerator, p) - vp_int(c.denominator, p)
                for c in coeffs if not isinstance(c, PadicScalar)]
    return PValue.min([PValue.of(c) for c in coeffs if isinstance(c, PadicScalar)]
                      + ([PValue.finite(min(rational))] if rational else []))


def _outcome(fn, *args):
    """The result of fn(*args), or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the sweep compares exception types
        return type(exc)


def _same_series(got, want):
    if isinstance(want, type):
        return got is want
    return (isinstance(got, TruncatedSeries) and got.degree == want.degree
            and got.coeffs == want.coeffs
            and all(type(got.coeffs[k]) is type(c) for k, c in want.coeffs.items()))


def _same_value(got, want):
    if isinstance(want, type):
        return got is want
    return type(got) is type(want) and got == want


def _rational_series(ctx, rng, degree, terms):
    """Rational coefficients whose numerators and denominators carry powers
    of p, on monomials that include pure powers z_r^degree."""
    coeffs = {}
    for k in range(terms):
        idx = [0] * ctx.nvars
        if k == 0:
            idx[rng.randrange(ctx.nvars)] = degree
        else:
            for _ in range(rng.randrange(degree + 1)):
                idx[rng.randrange(ctx.nvars)] += 1
        num = rng.choice((-1, 1)) * rng.randint(1, 40) * P ** rng.randrange(3)
        coeffs[tuple(idx)] = Fraction(num, rng.choice((1, 2, 3, 4, 9, P, 2 * P, P * P)))
    return TruncatedSeries(ctx, coeffs, degree)


def _shifts(ctx, rng):
    """Integer shifts, rational shifts with unit denominators, and rational
    shifts with a denominator divisible by p."""
    n = ctx.nvars
    return [[rng.randrange(-5, 6) for _ in range(n)],
            [rng.randrange(-5, 6) for _ in range(n)],
            [Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3, 5, 8))) for _ in range(n)],
            [Fraction(rng.randrange(-9, 10), rng.choice((2, 3))) for _ in range(n)],
            [Fraction(rng.randrange(1, 10), rng.choice((P, 2 * P))) for _ in range(n)]]


@pytest.mark.parametrize("name", ["sl2", "sl3", "sp4"])
def test_series_kernels_match_the_fraction_code(name):
    rng = random.Random(23)
    weyl = ctx_for(name).datum.weyl_group()
    raised = translated = 0
    for w_index in range(len(weyl)):
        ctx = ctx_for(name, w_index=w_index)
        series = [TruncatedSeries(ctx, {}), TruncatedSeries.constant(ctx, Fraction(-3, P))]
        series += [_rational_series(ctx, rng, degree, 6) for degree in (1, 3, 4)]
        points = [[rng.randrange(-4, 5) for _ in range(ctx.nvars)],
                  [Fraction(rng.randrange(-9, 10), rng.choice((1, 2, P))) for _ in range(ctx.nvars)]]
        for f in series:
            assert f.gauss_valuation() == _gauss_valuation_ref(f)
            for z in points:
                assert _same_value(f.evaluate(z), _evaluate_ref(f, z))
            for shift in _shifts(ctx, rng):
                want = _outcome(_translate_action_ref, f, shift)
                got = _outcome(translate_action, f, shift)
                assert _same_series(got, want), (w_index, f, shift)
                if isinstance(want, type):
                    raised += 1
                    continue
                translated += 1
                assert got.gauss_valuation() == _gauss_valuation_ref(want)
                for z in points:
                    assert _same_value(got.evaluate(z), _evaluate_ref(want, z))
    assert translated > 20 * len(weyl)
    if name != "sl2":  # an upper-root coordinate with p in its denominator
        assert raised > 0


def test_series_kernels_on_padic_coefficients():
    # a torus_action output has PadicScalar coefficients: evaluate keeps the
    # scalar type, gauss_valuation reads the cap, translation multiplies the
    # exact substitution of each monomial
    rng = random.Random(29)
    for name, w_index in (("sl2", 1), ("sl3", 2), ("sp4", 5)):
        ctx = ctx_for(name, w_index=w_index, prec=6)
        chi = Character.from_rationals(*([Fraction(1, 3)] * ctx.datum.dim))
        for _ in range(4):
            f = _rational_series(ctx, rng, 3, 5)
            f = TruncatedSeries(ctx, {k: c for k, c in f.coeffs.items() if c.denominator % P})
            c = ctx.ring.from_int(1 + P * rng.randrange(P ** 4))
            g = torus_action(f, ctx.point_from_cocharacter(ctx.mu, c), chi)
            assert g.coeffs and all(isinstance(x, PadicScalar) for x in g.coeffs.values())
            # a scalar known only to be 0 mod p^6 (a '>= cap' valuation), and
            # a rational constant term next to the scalars
            cap = tuple(4 if r == 0 else 0 for r in range(ctx.nvars))
            g = TruncatedSeries(ctx, {**g.coeffs, cap: ctx.ring.from_int(P ** 7)})
            g = g + TruncatedSeries.constant(ctx, Fraction(5, 2))
            assert g.gauss_valuation() == _gauss_valuation_ref(g)
            for z in ([rng.randrange(-4, 5) for _ in range(ctx.nvars)],
                      [Fraction(rng.randrange(-9, 10), 2) for _ in range(ctx.nvars)]):
                assert _same_value(g.evaluate(z), _evaluate_ref(g, z))
                assert isinstance(g.evaluate(z), PadicScalar)
            for shift in ([rng.randrange(-5, 6) for _ in range(ctx.nvars)],
                          [Fraction(rng.randrange(-9, 10), 4) for _ in range(ctx.nvars)]):
                assert translate_action(g, shift) == _translate_action_ref(g, shift)


# -- the Gauss norm's running bound and the torus action's integer path --------


def _rational_coeff(rng, p):
    """A nonzero Fraction whose numerator and denominator carry powers of p:
    valuations from -3 to 6."""
    num = rng.choice((-1, 1)) * rng.choice((1, 2, 3, 4, 6, 9, 13)) * p ** rng.randrange(7)
    return Fraction(num, rng.choice((1, 2, 3, 4, 8)) * p ** rng.randrange(4))


def _gauss_norm_cases(ctx, rng):
    """Series whose coefficients come in an order that moves the running
    bound up and down across 0, projector iterates with numerators of
    thousands of bits, mixed scalar coefficients, one term and none."""
    p, ring, n = ctx.ring.p, ctx.ring, ctx.nvars
    zero = ctx.zero_index()
    unit = tuple(int(r == 0) for r in range(n))
    cases = [TruncatedSeries(ctx, {}), TruncatedSeries.constant(ctx, Fraction(p ** 3, 2)),
             TruncatedSeries.constant(ctx, Fraction(5, p * p)),
             # a negative bound met by a numerator divisible by p, then by one
             # too long to convert to a float
             TruncatedSeries(ctx, {zero: Fraction(1, p), unit: Fraction(p ** 2)}),
             TruncatedSeries(ctx, {zero: Fraction(3, p * p), unit: Fraction(p * 2 ** 1100)}),
             TruncatedSeries(ctx, {zero: Fraction(2), unit: Fraction(p * 3 ** 700)})]
    for terms in (2, 3, 6, 12):
        for _ in range(8):
            coeffs = {}
            while len(coeffs) < terms:
                idx = tuple(rng.randrange(terms + 1) for _ in range(n))
                coeffs[idx] = _rational_coeff(rng, p)
            cases.append(TruncatedSeries(ctx, coeffs))
    for s in (0, 1):
        f = _rational_series(ctx, rng, 4, 10)
        atleast, exact = slope_split(f, s)[1], slope_exact(f, s)
        for n_iter in range(1, 7):
            cases.append(hida_projector(atleast, s, n_iter) - exact)
    scalars = [ring.from_int(p ** ring.prec), ring.from_int(p ** (ring.prec + 2)),
               ring.from_int(3), ring.from_int(p ** 2), ring.zero(exact=False),
               PadicScalar(ring, p * 5 % ring.ppow(ring.prec), ring.prec, False),
               ring.from_int(2, prec=1)]
    for f in cases[6:30]:  # the first random series
        extra = {tuple(rng.randrange(5, 8) for _ in range(n)): rng.choice(scalars)
                 for _ in range(rng.randrange(1, 4))}
        cases.append(TruncatedSeries(ctx, {**f.coeffs, **extra}))
        cases.append(TruncatedSeries(ctx, {**extra, **f.coeffs}))
    cases.append(TruncatedSeries(ctx, {zero: ring.from_int(p ** ring.prec)}))
    return cases


@pytest.mark.parametrize("name,p", [("sl2", 5), ("sl3", 7), ("sp4", 7), ("sp4", 11)])
def test_gauss_valuation_running_bound_matches_the_full_minimum(name, p):
    rng = random.Random(31)
    ctx = SeriesContext(name, p=p, prec=6)
    kinds, bits = set(), 0
    for f in _gauss_norm_cases(ctx, rng):
        want = _gauss_valuation_ref(f)
        assert f.gauss_valuation() == want, f
        kinds.add(want.kind if want.kind != "finite" else ("finite", want.value < 0))
        bits = max([bits] + [c.numerator.bit_length() for c in f.coeffs.values()
                             if isinstance(c, Fraction)])
    assert kinds == {"infinite", "at_least", ("finite", True), ("finite", False)}
    assert bits > 2000


def _torus_action_ref(f, point, chi=None):
    """The former ``torus_action``: every input on the scalar loop."""
    ctx = f.ctx
    if not all((a - 1).zero_mod(1) for a in point):
        raise SeriesError("torus point is not pro-p in the chart")
    if chi is not None:
        chi_factor = chi.twisted(ctx.w).evaluate(ctx, point)
    else:
        chi_factor = ctx.ring.one()
    inv_point = tuple(a.inv() for a in point)
    base = [root_value_ref(ctx.ring, g, inv_point) for g in ctx.batch]
    powers = [{0: ctx.ring.one()} for _ in range(ctx.nvars)]

    def power(r, k):
        cache = powers[r]
        if k not in cache:
            cache[k] = power(r, k - 1) * base[r]
        return cache[k]

    out = {}
    for idx, c in f.coeffs.items():
        mult = chi_factor
        for r, e in enumerate(idx):
            if e:
                mult = mult * power(r, e)
        out[idx] = mult * c
    return TruncatedSeries(ctx, out, f.degree)


def _scalar_state(f):
    """The (co, prec, exact) of every coefficient, or the exception type."""
    if isinstance(f, type):
        return f
    return f.degree, {k: (c.co, c.prec, c.exact) for k, c in f.coeffs.items()}


def _torus_points(ring, rng, dim):
    """Exact and inexact chart points, points with exact 1 entries, and
    points with an entry at another precision."""
    p, N = ring.p, ring.prec
    q = ring.ppow(N)

    def unit(prec=N):
        return 1 + p * rng.randrange(ring.ppow(prec))

    exact = tuple(ring.from_int(unit()) for _ in range(dim))
    inexact = tuple(PadicScalar(ring, unit() % q, N, False) for _ in range(dim))
    from_exp = tuple(padic_exp(ring.from_int(p * rng.randrange(1, 50))) for _ in range(dim))
    ones = tuple(ring.one() for _ in range(dim))
    one_first = (ring.one(),) + inexact[1:]
    low, low_inexact = exact, inexact
    if N > 1:
        low = (ring.from_int(unit(N - 1), prec=N - 1),) + exact[1:]
        low_inexact = exact[:-1] + (PadicScalar(ring, unit(N - 1) % ring.ppow(N - 1),
                                                N - 1, False),)
    high = (ring.from_int(unit(N + 2), prec=N + 2),) + inexact[1:]
    return [exact, inexact, from_exp, ones, one_first, low, low_inexact, high]


def _torus_series(ctx, rng):
    """Rational series with and without p in a denominator, and series with
    exact, inexact, lower- and higher-precision scalar coefficients."""
    ring, p, N = ctx.ring, ctx.ring.p, ctx.ring.prec
    rational = _rational_series(ctx, rng, 3, 6)
    unit_den = TruncatedSeries(ctx, {k: c for k, c in rational.coeffs.items()
                                     if c.denominator % p}, 3)
    scalars = {k: rng.choice([ring.from_int(rng.randrange(1, 90)),
                              PadicScalar(ring, rng.randrange(ring.ppow(N)), N, False),
                              ring.from_int(p ** N)])
               for k in unit_den.coeffs}
    low = dict(scalars)
    if N > 1 and low:
        low[next(iter(low))] = ring.from_int(rng.randrange(1, 90), prec=N - 1)
    # above the ring precision: an exact coefficient, an inexact one, and the
    # exact p^N, which does not fit below p^N
    first = tuple(int(r == 0) for r in range(ctx.nvars))
    high = {**scalars, ctx.zero_index(): ring.from_int(rng.randrange(1, 90), prec=N + 2),
            first: PadicScalar(ring, rng.randrange(ring.ppow(N + 3)), N + 3, False),
            tuple(2 * e for e in first): ring.from_int(p ** N, prec=N + 2)}
    mixed = {**unit_den.coeffs, **scalars}
    mixed[ctx.zero_index()] = Fraction(rng.randrange(1, 9), p)
    return [TruncatedSeries(ctx, {}, 3), unit_den, rational,
            TruncatedSeries(ctx, scalars, 3), TruncatedSeries(ctx, low, 3),
            TruncatedSeries(ctx, high, 3), TruncatedSeries(ctx, mixed, 3)]


def _torus_sweep():
    for name, ps in (("sl2", (5, 7, 11)), ("sl3", (5, 7, 11)), ("sp4", (7, 11))):
        for p in ps:
            for N in (1, 2, 12):
                yield name, p, N


@pytest.mark.parametrize("name,p,N", list(_torus_sweep()))
def test_torus_action_integer_path_matches_the_scalar_loop(name, p, N):
    rng = random.Random(f"torus:{name}:{p}:{N}")
    group = SeriesContext(name, p=p, prec=N).group
    dim = group.datum.dim
    chis = [None, Character.from_rationals(*([0] * dim)),
            Character.from_rationals(*(Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3)))
                                       for _ in range(dim))),
            Character.from_rationals(*([0] * (dim - 1) + [Fraction(2, 3)])),
            Character.from_rationals(*([Fraction(1, p)] + [1] * (dim - 1)))]
    raised, exact_flags = set(), set()
    for w in group.datum.weyl_group():
        ctx = SeriesContext(group, w=w)
        points = _torus_points(ctx.ring, rng, dim)
        for f in _torus_series(ctx, rng):
            for chi in chis:
                for point in rng.sample(points, 3):
                    want = _outcome(_torus_action_ref, f, point, chi)
                    got = _outcome(torus_action, f, point, chi)
                    assert _scalar_state(got) == _scalar_state(want), (w.name, f, point, chi)
                    if isinstance(want, type):
                        raised.add(want)
                    else:
                        exact_flags.update(c.exact for c in want.coeffs.values())
    assert raised == {SeriesError, UnitError}
    if N > 1:  # at one digit the draws rarely give an exact output
        assert exact_flags == {True, False}


def test_torus_action_rejects_a_wrong_length_point_or_character():
    ctx = SeriesContext("sp4", p=7, prec=12)
    ring = ctx.ring
    f = TruncatedSeries(ctx, {(1, 0, 2, 0): Fraction(3, 2), (0, 0, 0, 0): Fraction(5)}, 4)
    two = (ring.from_int(8), ring.from_int(15))
    chi = Character.from_rationals(Fraction(1, 3), 2)
    for point, character in [((ring.from_int(8), ring.from_int(15), ring.from_int(22)), chi),
                             ((ring.from_int(8), ring.from_int(15), ring.from_int(22)), None),
                             ((ring.from_int(8),), chi), ((ring.from_int(8),), None),
                             (two, Character.from_rationals(1, 2, 3)),
                             (two, Character.from_rationals(1))]:
        with pytest.raises(SeriesError, match="need 2 chart entries"):
            torus_action(f, point, character)
    # the right lengths match the scalar loop
    assert torus_action(f, two, chi) == _torus_action_ref(f, two, chi)
    assert torus_action(f, two) == _torus_action_ref(f, two)
