import linecache
import random
import re
from fractions import Fraction
from functools import lru_cache

import pytest

from iwahori import groups
from iwahori.axioms import sample_iwahori
from iwahori.groups import ChevalleyGroup, GateError, GroupElement, MembershipError, PValue
from iwahori.padic import (InternalError, PadicScalar, PrecisionError, ScalarRing, UnitError,
                           padic_exp)
from iwahori.roots import WeylElement
from iwahori.series import SeriesContext
from ramified_ring import RamifiedRing
from test_fast_paths import (factor_scalar, factor_scalars_ref, fused_scalar_ref,
                             in_iwahori_scalar_ref, inv_ref, inverse_order_ref, mat_state,
                             matmul_scalar_ref, outcome as state_outcome, permuted_ref,
                             relation_scalar_ref, reread, root_products, scalar_state, state,
                             torus_coords_ref)
from test_int_checks import mutant
from test_series import strip_unipotent_ref

P, N = 7, 12


def group(name):
    return ChevalleyGroup(name, p=P, prec=N)


def sample(G, rng, w=None):
    d = len(G.ordered_basis(w))
    return G.from_coordinates([rng.randrange(P ** N) for _ in range(d)], w)


def is_exact_identity(g):
    n = g.group.n
    return all((g.mat[i][j] - int(i == j)).is_exact_zero for i in range(n) for j in range(n))


def in_congruence(g, r):
    """Entrywise congruence to the identity modulo p^r; PrecisionError past
    the least precision an entry tracks."""
    if r > min(e.prec for row in g.mat for e in row):
        raise PrecisionError(f"congruence level {r} exceeds the tracked precision")
    n = g.group.n
    return all((g.mat[i][j] - int(i == j)).zero_mod(r) for i in range(n) for j in range(n))


def in_full_iwahori(G, g):
    """The full Iwahori: the group relation, a unit diagonal and upper
    entries divisible by p (not necessarily pro-p)."""
    n = G.n
    return g.satisfies_group_relation() and all(g.mat[i][i].is_unit() for i in range(n)) and all(
        g.mat[i][j].zero_mod(1) for i in range(n) for j in range(i + 1, n))


def sp4_torus(G, a, b):
    """diag(a, b, b^-1, a^-1)."""
    a, b = G.ring.coerce(a), G.ring.coerce(b)
    return G._diagonal([a, b, b.inv(), a.inv()])


def test_root_unipotent_basics():
    G = group("sl2")
    assert is_exact_identity(G.root_element((1, -1), 0))
    u = G.root_element((1, -1), 5)
    assert u.mat[1][0] == 5 and u.mat[0][1].is_exact_zero
    assert u.mat[0][0] == 1 and u.mat[1][1] == 1
    # one-parameter property
    v = G.root_element((1, -1), 9)
    assert u * v == G.root_element((1, -1), 14)


def test_sp4_generators_are_symplectic():
    G = group("sp4")
    for r in G.datum.roots():
        g = G.root_element(r, 3)
        assert g.satisfies_group_relation()
        g2 = G.root_element(r, 4)
        assert g * g2 == G.root_element(r, 7)


def test_torus_conjugation_formula():
    # t u_r(x) t^-1 = u_r(r(t) x), 50 random (t, x, root) per group
    for name in ("sl2", "sl3", "sp4"):
        G = group(name)
        rng = random.Random(7)
        roots = G.datum.roots()
        cochars = G.datum.cochar_basis
        for _ in range(50):
            r = rng.choice(roots)
            mu = rng.choice(cochars)
            c = G.ring.from_int(1 + P * rng.randrange(P ** 8))
            x = G.ring.from_int(rng.randrange(P ** 10))
            t = G.torus_element(mu, c)
            pair = G.datum.pairing(r, mu)
            mult = c ** pair if pair >= 0 else c.inv() ** (-pair)
            lhs = t * G.root_element(r, x) * t.inv()
            assert lhs == G.root_element(r, mult * x)


def test_torus_element_displays():
    G = group("sp4")
    assert is_exact_identity(G.torus_element((1, -1), 1))
    a = G.ring.from_int(2 + P)
    t = G.torus_element((-1, 1), a)  # exponents (1, -1, 1, -1)
    assert t.mat[0][0] == a and t.mat[1][1] == a.inv()
    assert t.mat[2][2] == a and t.mat[3][3] == a.inv()
    assert all(t.mat[i][j].is_exact_zero for i in range(4) for j in range(4) if i != j)


def test_root_value_valuations():
    # val(alpha(mu(c))) = <alpha, mu> * val(c) across all roots of Sp4
    G = group("sp4")
    mu, a = G.datum.adapted_cocharacter(G.datum.identity_weyl())
    c = G.ring.from_int(P)  # val 1
    for r in G.datum.roots():
        k = G.datum.pairing(r, mu)
        if k >= 0:
            assert (c ** k).val() == k * 1
        else:
            assert (c ** (-k)).val() == -k  # valuation of alpha(t)^-1, negated


def test_full_iwahori_membership():
    G = group("sp4")
    # a unit non-pro-p diagonal sits in the full Iwahori but not in I
    t = sp4_torus(G, 3, 2)
    assert in_full_iwahori(G, t) and not G.in_iwahori(t)
    t1 = sp4_torus(G, 1 + P, 1 + 2 * P)
    assert in_full_iwahori(G, t1) and G.in_iwahori(t1)
    u = G.root_element((-1, 1), 1)  # integral upper entry, not div by p
    assert not in_full_iwahori(G, u) and not G.in_iwahori(u)


def test_congruence_memberships():
    G = group("sp4")
    ident = G.identity()
    for r in range(1, N + 1):
        assert in_congruence(ident, r)
    with pytest.raises(PrecisionError):
        in_congruence(ident, N + 1)
    for r in G.datum.positive_roots:
        assert G.in_iwahori(G.root_element(r, 1))
    for r in G.datum.negative_roots:
        assert not G.in_iwahori(G.root_element(r, 1))
        assert G.in_iwahori(G.root_element(r, P))


def test_factorize_identity_and_words():
    G = group("sp4")
    f = G.iwahori_factorize(G.identity())
    assert all(x.is_exact_zero for _, x in f.negative + f.positive)
    assert is_exact_identity(f.torus_element())

    # an already-factored product is recovered verbatim
    alpha = (1, -1)
    nalpha = (-1, 1)
    ep = padic_exp(G.ring.from_int(P))
    g = (G.root_element(nalpha, P)
         * G.torus_element(G.datum.coroot(alpha), G.ring.from_int(1 + P))
         * G.root_element(alpha, 1))
    f = G.iwahori_factorize(g)
    got = {r: x for r, x in f.negative + f.positive}
    assert got[nalpha] == P and got[alpha] == 1
    for r, x in f.negative + f.positive:
        if r not in (alpha, nalpha):
            assert x.is_exact_zero or x.val() is None
    assert f.remultiply() == g


def test_factorization_carries_the_callers_word():
    # s1*s2*s1*s2 and s2*s1*s2*s1 are one element of the Weyl group of Sp4;
    # they share a factorization plan, not a name
    G = group("sp4")
    s1, s2 = (G.datum.simple_reflection(i) for i in range(2))
    w1 = s1.compose(s2).compose(s1).compose(s2)
    w2 = s2.compose(s1).compose(s2).compose(s1)
    assert w1.matrix == w2.matrix and w1.name != w2.name
    for w in (w1, w2, w1):
        assert G.iwahori_factorize(G.identity(), w).w is w
    assert G.iwahori_factorize(G.identity()).w.name == "e"


def test_factorize_round_trip_every_w():
    for name in ("sl2", "sl3", "sp4"):
        G = group(name)
        rng = random.Random(11)
        for w in G.datum.weyl_group():
            for _ in range(6):
                g = sample(G, rng, w)
                f = G.iwahori_factorize(g, w)
                assert f.remultiply() == g


def test_factorization_uniqueness():
    G = group("sp4")
    rng = random.Random(3)
    neg_batch, pos_batch = G.batches(G.datum.identity_weyl())
    for _ in range(10):
        neg = [(r, G.ring.from_int(P * rng.randrange(P ** (N - 1))
                                   if G.datum.height(r) < 0 else rng.randrange(P ** N)))
               for r in neg_batch]
        pos = [(r, G.ring.from_int(P * rng.randrange(P ** (N - 1))
                                   if G.datum.height(r) < 0 else rng.randrange(P ** N)))
               for r in pos_batch]
        tc = [G.ring.from_int(1 + P * rng.randrange(P ** (N - 1))) for _ in range(2)]
        g = G.from_parameters(neg, tc, pos)
        f = G.iwahori_factorize(g)
        assert [(r, x.co) for r, x in f.negative] == [(r, x.co) for r, x in neg]
        assert [(r, x.co) for r, x in f.positive] == [(r, x.co) for r, x in pos]
        assert all(a == b for a, b in zip(f.torus_coordinates, tc))


def test_factorize_rejects_non_iwahori():
    G = group("sl2")
    with pytest.raises(MembershipError):
        G.iwahori_factorize(G.root_element((-1, 1), 1))


def test_a_twist_outside_the_weyl_group_is_refused():
    # -I permutes the roots of A2 but is not in W(A2); an sl3 Weyl element is
    # the wrong size for sp4.  Both are refused by name when a plan is built,
    # on int rows and on the scalar route alike.
    sl3, sp4 = group("sl3"), group("sp4")
    minus = WeylElement(tuple(tuple(-int(i == j) for j in range(3)) for i in range(3)), ())
    g = sample_iwahori(sl3, random.Random(1))
    for h in (g, sl3.identity()):
        with pytest.raises(ValueError, match=r"w = e with matrix \(\(-1, 0, 0\).* not in the "
                                             r"Weyl group of sl3"):
            sl3.iwahori_factorize(h, minus)
    w = sl3.datum.weyl_group()[1]
    message = rf"w = {re.escape(w.name)} with matrix .* not in the Weyl group of sp4"
    for call in (lambda: sp4.iwahori_factorize(sample_iwahori(sp4, random.Random(1)), w),
                 lambda: sp4.from_coordinates([1] * 10, w),
                 lambda: sample_iwahori(sp4, random.Random(1), w)):
        with pytest.raises(ValueError, match=message):
            call()


def test_the_batches_the_basis_and_the_chart_refuse_a_twist_outside_the_weyl_group():
    # -I permutes the roots of sl3, so only the Weyl group test can refuse it
    sl3, sp4 = ChevalleyGroup("sl3", 5, 6), ChevalleyGroup("sp4", 7, 12)
    minus = WeylElement(tuple(tuple(-int(i == j) for j in range(3)) for i in range(3)), ())
    w = sl3.datum.weyl_group()[1]
    for G, bad, shown in ((sl3, minus, r"e with matrix \(\(-1, 0, 0\)"),
                          (sp4, w, re.escape(w.name) + " with matrix")):
        message = rf"w = {shown}.* not in the Weyl group of {G.name}"
        for call in (lambda: G.batches(bad), lambda: G.ordered_basis(bad),
                     lambda: SeriesContext(G, w=bad)):
            for _ in range(2):  # nothing is cached for a refused twist
                with pytest.raises(ValueError, match=message):
                    call()
    # the Weyl group itself still passes, through one set of matrices per datum
    for G in (sl3, sp4):
        assert G.datum.weyl_matrices == {v.matrix for v in G.datum.weyl_group()}
        for v in G.datum.weyl_group():
            assert len(G.ordered_basis(v)) == len(G.dirs) + G.datum.rank
            assert SeriesContext(G, w=v).batch == G.batches(v)[1]


@pytest.mark.parametrize("rows", [
    [[1, 0, 5], [7, 1, 3], [2, 2, 9]],  # its top-left 2 x 2 block is in I
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[1, 0], [1]],
    [[1, 0]],
    [[1, 0], [7, 1], [0, 0]],
])
def test_element_needs_an_n_by_n_matrix(rows):
    with pytest.raises(ValueError, match="a sl2 element is a 2 x 2 matrix"):
        group("sl2").element(rows)


def test_gate_enforced():
    G5 = ChevalleyGroup("sp4", p=5, prec=8)
    with pytest.raises(GateError):
        G5.check_gate()
    with pytest.raises(GateError):
        G5.iwahori_factorize(G5.identity())


def test_omega_closed_forms_sl2():
    G = group("sl2")
    assert G.p_valuation(G.root_element((1, -1), 1)) == PValue.finite(Fraction(1, 2))
    assert G.p_valuation(G.root_element((-1, 1), P)) == PValue.finite(Fraction(1, 2))
    t = G.torus_element((1, -1), padic_exp(G.ring.from_int(P)))
    # congruence-depth oracle on the diagonal: val(exp(p) - 1) = 1
    assert (t.mat[1][1] - 1).val() == 1
    assert G.p_valuation(t) == PValue.finite(1)


def test_omega_conventions_and_oracle():
    for name in ("sl2", "sl3", "sp4"):
        G = group(name)
        assert G.p_valuation(G.identity()).kind == "infinite"
        assert G.p_valuation_by_conjugation(G.identity()).kind == "infinite"
        rng = random.Random(5)
        for _ in range(10):
            g = sample(G, rng)
            assert G.p_valuation(g) == G.p_valuation_by_conjugation(g)


def test_et_embedding_sl2():
    G = group("sl2")
    a = G.datum.adapted_cocharacter(G.datum.identity_weyl())[1]
    assert G._conj_e == a * G.coxeter_number == 4 and G._conj_r == 1
    # u_(1,-1) sits at (1, 0), shifted by pi^2: val = 2/e = ht/h = 1/2
    assert Fraction(G._conj_shift[1][0], G._conj_e) == Fraction(1, 2)
    for vec in G.ordered_basis().entries:
        assert G.conjugate_in_congruence(vec.generator)


def test_conjugation_shifts_are_the_root_values():
    # the oracle's shift k/e at each root direction is ht(root)/h, though
    # it is read off exponents(mu), not off the heights
    for name in ("sl2", "sl3", "sp4"):
        G = group(name)
        for root, dirs in G.dirs.items():
            for i, j, _s in dirs:
                assert (Fraction(G._conj_shift[i][j], G._conj_e)
                        == Fraction(G.datum.height(root), G.coxeter_number)), (name, root)


def test_conjugation_refuses_an_element_of_another_group():
    G = group("sp4")
    others = [sample_iwahori(ChevalleyGroup("sl2", 7, 12), random.Random(1)),
              sample_iwahori(ChevalleyGroup("sp4", 11, 5), random.Random(1)),
              ChevalleyGroup("sl2", 7, 12).identity()]
    for g in others:
        for check in (G.p_valuation_by_conjugation, G.conjugate_in_congruence):
            with pytest.raises(ValueError, match="^element of a different group$"):
                check(g)


# The conjugation oracle computed in E = Q_p(p^(1/(a*h))): every Z_p entry
# embedded in E and shifted by pi^(d_i - d_j).  The library reads the same
# valuations off the Z_p entries with an offset (d_i - d_j)/(a*h); this is
# the differential reference for it.

def ramified_et_data(G):
    G.check_gate()
    mu, a = G.datum.adapted_cocharacter(G.datum.identity_weyl())
    m = a * G.coxeter_number
    ring_e = RamifiedRing(G.ring.p, m, m * G.ring.prec)
    r = m // (G.ring.p - 1) + 1
    return ring_e, mu, r


def ramified_conjugate(G, g):
    ring_e, mu, _r = ramified_et_data(G)
    exps = G.exponents(mu)
    out = []
    for i in range(G.n):
        row = []
        for j in range(G.n):
            row.append(ring_e.embed(g.mat[i][j]).shift(exps[i] - exps[j]))
        out.append(row)
    return out


def ramified_valuation_by_conjugation(G, g):
    conj = ramified_conjugate(G, g)
    return PValue.min((conj[i][j] - 1 if i == j else conj[i][j]).pvalue()
                      for i in range(G.n) for j in range(G.n))


def ramified_conjugate_in_congruence(G, g):
    conj = ramified_conjugate(G, g)
    r = ramified_et_data(G)[2]
    for i in range(G.n):
        for j in range(G.n):
            e = conj[i][j] - 1 if i == j else conj[i][j]
            if e.prec < r:
                raise PrecisionError("not enough digits to test the congruence level")
            if not e.zero_mod(r):
                return False
    return True


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as err:
        return type(err)


def sweep_elements(G, rng, count):
    """The identity, the basis generators, samples and their p-th powers;
    samples times an upper unit root element or a non-pro-p torus point,
    which are not in I; and matrices of random entries, exact or not, at
    random precisions, which need not be in G."""
    p, prec = G.ring.p, G.ring.prec
    samples = [sample_iwahori(G, rng) for _ in range(count)]
    out = [G.identity()] + [vec.generator for vec in G.ordered_basis().entries]
    out += samples + [g ** p for g in samples]
    out += [G.root_element(rng.choice(G.datum.negative_roots), rng.randrange(1, p)) * g
            for g in samples]
    out += [G.torus_element(rng.choice(G.datum.cochar_basis), 2) * g for g in samples]
    for _ in range(count):
        rows = []
        for _i in range(G.n):
            row = []
            for _j in range(G.n):
                k = rng.randrange(1, prec + 1)
                v = rng.choice((0, 1, rng.randrange(p ** k), p ** (k - 1) * rng.randrange(p)))
                row.append(G.ring.from_int(v % p ** k, k) if rng.random() < 0.5
                           else PadicScalar(G.ring, v % p ** k, k, False))
            rows.append(tuple(row))
        out.append(GroupElement(G, tuple(rows)))
    return out


def digitless_copies(G, elements, rng):
    """Copies of the elements with one diagonal entry known to no digit: only
    there, and only on scalar entries, does the congruence test run out of
    digits, since e N + k >= a >= r for N >= 1 when p - 1 > h."""
    out = []
    for g in elements:
        i = rng.randrange(G.n)
        rows = [list(row) for row in g.mat]
        rows[i][i] = PadicScalar(G.ring, 0, 0, False)
        out.append(GroupElement(G, tuple(map(tuple, rows))))
    return out


SWEEP = [(name, p, prec) for name, ps in (("sl2", (5, 7, 11, 13)), ("sl3", (5, 7, 11, 13)),
                                          ("sp4", (7, 11, 13)))
         for p in ps for prec in (1, 2, 3, 6, 12)]


@lru_cache(maxsize=None)
def sweep_config(name, p, prec):
    """The group, its sweep elements, and digitless copies of the last 14."""
    G = ChevalleyGroup(name, p, prec)
    rng = random.Random(f"oracle-{name}-{p}-{prec}")
    elements = sweep_elements(G, rng, 14)
    return G, elements, digitless_copies(G, elements[-14:], rng)


def ramified_mismatches(G, elements):
    """The elements where the oracle or the congruence test gives another
    PValue, verdict or exception type than the embed-and-shift reference."""
    return [g for g in elements
            if outcome(G.p_valuation_by_conjugation, g)
            != outcome(ramified_valuation_by_conjugation, G, g)
            or outcome(G.conjugate_in_congruence, g)
            != outcome(ramified_conjugate_in_congruence, G, g)]


@pytest.mark.parametrize("name,p,prec", SWEEP)
def test_conjugation_oracle_matches_the_ramified_embedding(name, p, prec):
    # the same PValue, the same congruence verdict and the same exception
    # type as the embed-and-shift reference; on elements of I the formula
    # agrees wherever the cap decides, on others it refuses
    G, elements, digitless = sweep_config(name, p, prec)
    assert not ramified_mismatches(G, elements + digitless)
    # not on the digitless copies: one that passes ``in_iwahori`` stops the
    # factorization at its digitless pivot with an InternalError
    for g in elements:
        if G.in_iwahori(g):
            assert G.p_valuation(g).eq(G.p_valuation_by_conjugation(g))[0] is not False, g
        else:
            assert outcome(G.p_valuation, g) is MembershipError, g


# (old, new, the routes on which the sweep must catch it: True for int rows)
SCAN_MUTANTS = [
    ("self._conj_r,", "self._conj_r + 1,", (True, False)),  # r off by one
    # the "not enough digits" check dropped; int rows never reach it, since
    # e N + k >= e - a (h - 1) = a >= r when p - 1 > h
    ("if e * prec + k < r:", "if False:", (False,)),
    # a verdict before every position is read
    ("verdict = False", "return best, False", (True, False)),
    ("verdict = None", "return best, None", (False,)),
]


@pytest.mark.parametrize("old,new,routes", SCAN_MUTANTS)
def test_ramified_sweep_catches_scan_mutants(old, new, routes, monkeypatch):
    configs = [sweep_config(*config) for config in SWEEP]
    monkeypatch.setattr(ChevalleyGroup, "_conjugation_scan",
                        mutant(ChevalleyGroup._conjugation_scan, old, new))
    for on_ints in routes:
        assert any(ramified_mismatches(G, [g for g in elements + digitless
                                           if (g._ints is not None) == on_ints])
                   for G, elements, digitless in configs), on_ints


# -- the scalar factorization route against the former one ------------------------


def ldu_ref(mat, n, ring):
    """The former ``groups._ldu``: U is filled after the elimination, each
    pivot inverted a second time."""
    a = [list(row) for row in mat]
    one, zero = ring.one(), ring.zero(exact=True)
    lmat = [[one if i == j else zero for j in range(n)] for i in range(n)]
    umat = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for k in range(n):
        piv = a[k][k]
        if not piv.is_unit():
            raise InternalError(f"elimination pivot {k} is not a unit: {piv!r}")
        pivinv = piv.inv()
        for i in range(k + 1, n):
            f = a[i][k] * pivinv
            lmat[i][k] = f
            if not f.is_exact_zero:
                for j in range(k, n):
                    a[i][j] = a[i][j] - f * a[k][j]
    diag = [a[k][k] for k in range(n)]
    for k in range(n):
        pivinv = diag[k].inv()
        for j in range(k + 1, n):
            umat[k][j] = pivinv * a[k][j]
    return lmat, diag, umat


def factor_element_order_ref(G, mat, plan):
    """An earlier ``ChevalleyGroup._factor_scalars``: permute into the plan's
    basis order, LDU, permute both factors back and strip them in the
    element's own basis order."""
    lmat, diag_sorted, umat = ldu_ref(permuted_ref(mat, plan.order), G.n, G.ring)
    inv_order = inverse_order_ref(plan.order)
    n1, n2 = permuted_ref(lmat, inv_order), permuted_ref(umat, inv_order)
    diag = [diag_sorted[k] for k in inv_order]
    neg = strip_unipotent_ref(G, n1, plan.neg_batch)
    pos = strip_unipotent_ref(G, n2, plan.pos_batch)
    torus_coords = torus_coords_ref(G, diag)
    if not all((d - 1).zero_mod(1) for d in diag):
        raise InternalError("torus part is not pro-p")
    for root, x in neg + pos:
        if G.datum.height(root) < 0 and not x.zero_mod(1):
            raise InternalError("upper root parameter not divisible by p")
    return neg, torus_coords, diag, pos


def factor_state(fn, *args):
    """The (co, prec, exact) of every factor, or the exception type and text."""
    try:
        neg, coords, diag, pos = fn(*args)
    except (ValueError, RuntimeError) as err:
        return type(err), str(err)
    return ([(r, state(x)) for r, x in neg], [state(s) for s in coords],
            [state(d) for d in diag], [(r, state(x)) for r, x in pos])


@pytest.mark.parametrize("name,p,prec", [("sl2", 5, 6), ("sl3", 5, 6), ("sp4", 7, 5),
                                         ("sl2", 5, 1), ("sl3", 5, 2), ("sp4", 7, 1)])
def test_scalar_factorization_matches_the_former_route(name, p, prec):
    # exact inputs (the identity, basis generators, products of root
    # elements, matrices read as the command line reads them), samples with a
    # 0 coordinate, flat samples, and mixed-precision matrices (random ones,
    # and root products with entries truncated below N), under every
    # twist: the scalar kernel without its membership
    # test gives the same (co, prec, exact) for every factor as the earlier
    # element-order route, or the same InternalError, also on inputs outside I
    G = ChevalleyGroup(name, p, prec)
    rng = random.Random(f"scalar-route-{name}-{p}-{prec}")
    elements = sweep_elements(G, rng, 6) + [root_products(G, rng) for _ in range(12)]
    for g in [root_products(G, rng) for _ in range(12)]:
        rows = [list(row) for row in g.mat]
        for _ in range(rng.randint(1, 4)):
            i, j = rng.randrange(G.n), rng.randrange(G.n)
            rows[i][j] = reread(rows[i][j], "truncated", rng)
        elements.append(GroupElement(G, tuple(map(tuple, rows))))
    d = len(G.ordered_basis())
    for k in range(4):
        coords = [rng.randrange(p ** prec) for _ in range(d)]
        coords[k % d] = 0
        elements.append(G.from_coordinates(coords))
    rows = [[int(i == j) for j in range(G.n)] for i in range(G.n)]
    for i, j, s in G.dirs[G.datum.positive_roots[-1]]:
        rows[i][j] = s * Fraction(1, 2)
    elements += [G.element(rows), G.torus_element(G.datum.cochar_basis[0], 1 + p)]
    results = set()
    for w in G.datum.weyl_group():
        plan = G._factor_plan(w)
        for g in elements:
            got = factor_state(lambda: factor_scalar(G, g.mat, plan)[:4])
            assert got == factor_state(factor_element_order_ref, G, g.mat, plan), (w.name, g)
            if got[0] is InternalError:
                results.add("raised")
                continue
            neg, coords, diag, pos = got
            exact = any(x[2] for x in [x for _r, x in neg + pos] + coords + diag)
            results.add("exact" if exact else "inexact")
    assert results == {"raised", "exact", "inexact"}


# every plan's scalar kernel, with and without its membership test, against
# the former loops

SCALAR_SWEEP = ([(name, p, prec) for name in ("sl2", "sl3")
                 for p, prec in ((5, 1), (5, 2), (7, 12))]
                + [("sp4", 7, 1), ("sp4", 7, 2), ("sp4", 7, 12), ("sp4", 11, 5)])


@lru_cache(maxsize=None)
def scalar_sweep_inputs(name, p, prec):
    """The group and scalar rows for its kernels: the exact identity, root
    elements at 1 or p, products of root elements and samples with a 0
    coordinate; ``sweep_elements``, with flat members, basis generators and
    non-members; and each exact one with entries re-read inexact, truncated
    below N or claimed above it."""
    G = ChevalleyGroup(name, p, prec)
    rng = random.Random(f"scalar-sweep-{name}-{p}-{prec}")
    exact = [G.identity()] + [G.root_element(r, p if G.datum.height(r) < 0 else 1)
                              for r in sorted(G.dirs)]
    exact += [root_products(G, rng) for _ in range(6)]
    d = len(G.dirs) + G.datum.rank
    for _ in range(2):
        coords = [rng.randrange(p ** prec) for _ in range(d)]
        coords[rng.randrange(d)] = 0
        exact.append(G.from_coordinates(coords))
    rows = [g.mat for g in exact + sweep_elements(G, rng, 3)]
    for k, g in enumerate(exact):
        mat = [list(row) for row in g.mat]
        for _ in range(rng.randint(1, 4)):
            i, j = rng.randrange(G.n), rng.randrange(G.n)
            mat[i][j] = reread(mat[i][j], ("inexact", "truncated", "above")[k % 3], rng)
        rows.append(tuple(map(tuple, mat)))
    return G, rows


def scalar_mismatches(config, factor_kernel=None):
    """The first (w, rows) where a plan's scalar kernel, with or
    without its membership test, differs from the former loops: in the (co,
    prec, exact) of a factor, in omega, or in the exception type and text.
    Without a generator given, the library's own kernels and membership
    functions, through ``iwahori_factorize``, ``satisfies_group_relation`` and
    ``in_iwahori`` on rows off the int path."""
    G, rows = scalar_sweep_inputs(*config)
    for w in G.datum.weyl_group():
        plan = G._factor_plan(w)
        kernels = [None if factor_kernel is None else factor_kernel(
            G.datum, plan.order, plan.neg_strip, plan.pos_strip, "<scalar mutant>",
            member=member, scalar=True) for member in (False, True)]
        for mat in rows:
            got = [scalar_state(factor_scalar, G, mat, plan, member, kernel)
                   for member, kernel in zip((False, True), kernels)]
            want = [scalar_state(factor_scalars_ref, G, mat, plan),
                    scalar_state(fused_scalar_ref, G, mat, plan)]
            g = GroupElement(G, mat, None)
            if factor_kernel is None and g._ints is None:
                got.append(scalar_state(fact_parts, G.iwahori_factorize, g, w))
                want.append(want[1])
                got.append((g.satisfies_group_relation(), G.in_iwahori(g)))
                want.append((relation_scalar_ref(g), in_iwahori_scalar_ref(g)))
            if got != want:
                return w.name, mat
    return None


def fact_parts(factorize, *args):
    fact = factorize(*args)
    return (fact.negative, fact.torus_coordinates, fact.torus_diagonal, fact.positive,
            fact.omega)


@pytest.mark.parametrize("config", SCALAR_SWEEP, ids=lambda c: "-".join(map(str, c)))
def test_every_scalar_kernel_matches_the_former_loops(config):
    assert scalar_mismatches(config) is None


# (old, new) in ``_factor_kernel``: each changes the scalar form alone
SCALAR_MUTANTS = [
    # x c subtracted, in place of y = -x added: keeps an exact flag that the
    # negation of an exact nonzero x drops
    ("{cur[i][k]} + {f} * {c}", "{cur[i][k]} {'-' if s == 1 else '+'} {x} * {c}"),
    # the LDU's exact-zero skip dropped
    ('f"if not l{i}{k}.is_exact_zero:"', '"if True:"'),
    # a cap marker at N, not at the factor's own precision
    ("{h2} * {x}.prec + 1", "{h2} * cap + 1"),
    # an exact zero read as a cap marker, not as infinity
    ('else INF if {x}.exact "', '"'),
]


@pytest.mark.parametrize("old,new", SCALAR_MUTANTS)
def test_scalar_sweep_catches_kernel_mutants(old, new, monkeypatch):
    monkeypatch.setattr(linecache, "cache", dict(linecache.cache))
    bad = mutant(groups._factor_kernel, old, new)
    assert any(scalar_mismatches(config, bad) for config in SCALAR_SWEEP)


def test_every_group_compares_its_scalar_relation_at_most_at_n():
    # entries at precision 5 above N = 3 and the diagonal (1 + p^3, 1, ...):
    # the relation holds modulo p^3, as on the int path, on every group (sl2
    # compared det g with 1 at the determinant's precision 5 and refused it)
    for name, p in (("sl2", 5), ("sl3", 5), ("sp4", 7)):
        G = ChevalleyGroup(name, p, 3)
        rows = tuple(tuple(PadicScalar(G.ring, 1 + p ** 3 if i == j == 0 else int(i == j), 5,
                                       False) for j in range(G.n)) for i in range(G.n))
        g, flat = GroupElement(G, rows), GroupElement(G, None, tuple(
            tuple(e.co % G._mod for e in row) for row in rows))
        assert g._ints is None and flat._ints is not None
        assert g.satisfies_group_relation() and flat.satisfies_group_relation()
        assert G.in_iwahori(g) and relation_scalar_ref(g)


def test_a_scalar_strip_keeps_the_precision_of_its_entries():
    # diag(1 + p^3, 1, ..., (1 + p^3)^-1) with every entry inexact at
    # precision 5 above N = 3: a root parameter keeps its entries' precision,
    # so the factorization decides omega 3 as the oracle does (a strip begun
    # from the ring's one and zero at N read >= 7/3 on sl3, >= 9/4 on sp4)
    for name, p in (("sl3", 5), ("sp4", 7)):
        G = ChevalleyGroup(name, p, 3)
        diag = [1 + p ** 3] + [1] * (G.n - 2) + [pow(1 + p ** 3, -1, p ** 5)]
        g = GroupElement(G, tuple(tuple(PadicScalar(G.ring, diag[i] if i == j else 0, 5, False)
                                        for j in range(G.n)) for i in range(G.n)))
        assert g._ints is None
        assert G.p_valuation(g) == G.p_valuation_by_conjugation(g) == PValue.finite(3)


# -- the generated products and inverses against the former loops --------------

PRODUCT_SWEEP = [(name, p, prec) for name in ("sl2", "sl3", "sp4")
                 for p, prec in ((5, 1), (7, 3), (7, 12))]


@lru_cache(maxsize=None)
def product_sweep_inputs(name, p, prec):
    """Products of root elements as they are; with some entries re-read
    inexact, truncated below N or claimed above it; with every entry claimed
    above N; with some rows rebuilt in a ring of another precision, each entry
    at its own; and read inexact at N everywhere, which takes the int path.
    On SL_n besides diag(p, 1, ...), whose det is not a unit, exact and flat."""
    G = ChevalleyGroup(name, p, prec)
    rng = random.Random(f"product-sweep-{name}-{p}-{prec}")
    other = ScalarRing(p, prec - 1 if prec > 1 else prec + 2)
    out = []
    for k in range(42):
        mat = [list(row) for row in root_products(G, rng).mat]
        how = ("as_is", "inexact", "truncated", "above", "all above", "other ring", "flat")[k % 7]
        cells = [(i, j) for i in range(G.n) for j in range(G.n)]
        if how in ("inexact", "truncated", "above"):
            cells = [rng.choice(cells) for _ in range(rng.randint(1, 6))]
        elif how == "other ring":
            cells = [(i, j) for i in rng.sample(range(G.n), rng.randint(1, G.n))
                     for j in range(G.n)]
        for i, j in cells if how != "as_is" else ():
            e = mat[i][j]
            if how == "other ring":
                mat[i][j] = other.canonical(e.co, e.prec, e.exact)
            elif how == "flat":
                mat[i][j] = G._wrap(e.co % G._mod)
            else:
                mat[i][j] = reread(e, how.split()[-1], rng)
        out.append(GroupElement(G, tuple(map(tuple, mat))))
    if name != "sp4":
        diag = [p] + [1] * (G.n - 1)
        out += [GroupElement(G, tuple(tuple(G.ring.from_int(diag[i] * (i == j))
                                            for j in range(G.n)) for i in range(G.n)))]
        out += [GroupElement(G, None, tuple(tuple(diag[i] * (i == j) for j in range(G.n))
                                            for i in range(G.n)))]
    return G, out


def product_mismatches(config):
    """The first element g whose product g h with the next input or whose
    inverse differs from the former loops (``matmul_scalar_ref``,
    ``inv_ref``) in the (co, prec, exact) of an entry, or in the exception
    type and text; None where all agree."""
    G, elements = product_sweep_inputs(*config)
    for g, h in zip(elements, elements[1:] + elements[:1]):
        want = [[state(e) for e in row] for row in matmul_scalar_ref(g.mat, h.mat, G.n)]
        if mat_state(g * h) != want or state_outcome(g.inv) != state_outcome(inv_ref, g):
            return g
    return None


@pytest.mark.parametrize("config", PRODUCT_SWEEP, ids=lambda c: "-".join(map(str, c)))
def test_generated_products_and_inverses_match_the_former_loops(config):
    G, elements = product_sweep_inputs(*config)
    assert product_mismatches(config) is None
    routes = {g._ints is not None for g in elements}
    assert routes == {False, True}
    if G.name != "sp4":  # the non-unit det raises on both routes
        for g in elements[-2:]:
            with pytest.raises(UnitError, match="inversion of a non-unit"):
                g.inv()


# (generator, old, new): each must make some product or inverse differ
PRODUCT_MUTANTS = [
    # the scalar product's leading zero dropped
    ("_matmul_ints", 'f"{a[i][0]}.ring.zero() + {dots[i][j]}"', "dots[i][j]"),
    # the scalar determinant's leading zero dropped
    ("_inverse", '"zero + " if scalar', '"" if scalar'),
    # the sign of the cofactor of entry (0, 0) flipped
    ("_inverse", "{'-' * ((i + j) % 2)}", "{'-' * ((i + j + (i == j == 0)) % 2)}"),
    # the Sp4 entries negated twice, not read through zero
    ("_inverse", "f\"-(zero {'-' if sign > 0 else '+'} ", "f\"-({'-' if sign > 0 else ''}"),
]


@pytest.mark.parametrize("generator,old,new", PRODUCT_MUTANTS)
def test_product_sweep_catches_generator_mutants(generator, old, new, monkeypatch):
    monkeypatch.setattr(linecache, "cache", dict(linecache.cache))
    bad = mutant(getattr(groups, generator), old, new)
    sizes = groups._MATRIX_SIZE
    if generator == "_matmul_ints":
        monkeypatch.setattr(groups, "_MATMULS", {n: bad(n) for n in sizes.values()})
        monkeypatch.setattr(groups, "_SCALAR_MATMULS", {n: bad(n, True) for n in sizes.values()})
    else:
        monkeypatch.setattr(groups, "_INVERSES", {k: bad(k, n) for k, n in sizes.items()})
        monkeypatch.setattr(groups, "_SCALAR_INVERSES",
                            {k: bad(k, n, True) for k, n in sizes.items()})
    assert any(product_mismatches(config) for config in PRODUCT_SWEEP)

def test_ordered_basis_shape_and_bounds():
    G = group("sp4")
    assert len(G.ordered_basis()) == 10  # 4 + 2 + 4
    # closed forms, exhaustive over the basis for every supported group
    for name in ("sl2", "sl3", "sp4"):
        G = group(name)
        h = G.coxeter_number
        basis = G.ordered_basis()
        assert all(om <= 1 for om in basis.omegas())
        npos = len(G.datum.positive_roots)
        neg = basis.entries[:npos]
        tor = basis.entries[npos:npos + G.datum.rank]
        pos = basis.entries[npos + G.datum.rank:]
        for e in neg:
            r = e.label[1]
            assert G.datum.height(r) < 0
            assert e.omega == 1 + Fraction(G.datum.height(r), h)
        for e in tor:
            assert e.omega == 1
        for e in pos:
            r = e.label[1]
            assert e.omega == Fraction(G.datum.height(r), h)


def test_coordinate_min_formula():
    # omega(h) = min_i(val(x_i) + omega(h_i)) against the factorization route
    for name in ("sl2", "sp4"):
        G = group(name)
        rng = random.Random(13)
        for w in G.datum.weyl_group()[:4]:
            basis = G.ordered_basis(w)
            oms = basis.omegas()
            for _ in range(8):
                coords = [rng.randrange(P ** N) for _ in range(len(basis))]
                g = G.from_coordinates(coords, w)
                expected = min(Fraction(v) + om
                               for v, om in ((c_val, om)
                                             for c_val, om in
                                             zip((vp_of_int(c) for c in coords), oms)))
                pv = G.p_valuation(g)
                assert pv == PValue.finite(expected)


def vp_of_int(n, p=P):
    v = 0
    while n and n % p == 0:
        n //= p
        v += 1
    return v if n else N


def test_omega_conjugation_invariance():
    for name in ("sl2", "sp4"):
        G = group(name)
        rng = random.Random(17)
        for _ in range(8):
            g, h = sample(G, rng), sample(G, rng)
            assert G.p_valuation(h * g * h.inv()) == G.p_valuation(g)


def swapped_ties(G, strip):
    """A plan's strip with each run of steps whose positive roots share a
    height reversed; each run has two steps on these groups, so this is the
    height-then-revlex order of the positive roots."""
    runs = {}
    for root, step in zip(G.datum.positive_roots, strip):
        runs.setdefault(G.datum.height(root), []).append(step)
    return tuple(step for ht in sorted(runs) for step in reversed(runs[ht]))


def test_compatibility_under_alternative_order(monkeypatch):
    # omega does not depend on the order of the basis within a height: a
    # kernel built on each twist's strips with the equal-height roots swapped
    # gives p_valuation on every sample
    monkeypatch.setattr(linecache, "cache", dict(linecache.cache))
    for name in ("sl3", "sp4"):
        G = group(name)
        rng = random.Random(23)
        samples = [sample(G, rng) for _ in range(5)]
        assert all(g._ints is not None for g in samples)
        for w in G.datum.weyl_group():
            plan = G._factor_plan(w)
            strips = [swapped_ties(G, strip) for strip in (plan.neg_strip, plan.pos_strip)]
            assert strips[0] != plan.neg_strip and strips[1] != plan.pos_strip
            swapped = plan._replace(kernel=groups._factor_kernel(
                G.datum, plan.order, *strips, f"<swapped ties {name} w={w.name}>"))
            for g in samples:
                assert G._factor_ints(g._ints, swapped)[4] == G.p_valuation(g), (w.name, g)


def test_group_inverse_and_power():
    for name in ("sl2", "sl3", "sp4"):
        G = group(name)
        rng = random.Random(29)
        g = sample(G, rng)
        assert in_congruence(g * g.inv(), N)
        assert g ** 3 == g * g * g
        assert is_exact_identity(g ** 0)


# -- the PValue algebra, over every pair of kinds ------------------------------

F, C, INFTY = PValue.finite, PValue.at_least, PValue.infinite()
Q = Fraction


@pytest.mark.parametrize("values, expected", [
    ((F(1), F(2)), F(1)),
    ((F(2), C(1)), C(1)),
    ((F(1), C(2)), F(1)),
    ((F(1), C(1)), F(1)),  # a finite value wins a tie with a cap marker
    ((C(1), F(1)), F(1)),
    ((C(1), C(2)), C(1)),
    ((C(1), C(1)), C(1)),
    ((F(1), INFTY), F(1)),
    ((INFTY, C(1)), C(1)),
    ((INFTY, INFTY), INFTY),
    ((C(3), F(Q(5, 2)), C(Q(5, 2)), F(4)), F(Q(5, 2))),
    ((), INFTY),
])
def test_pvalue_min(values, expected):
    assert PValue.min(values) == expected
    assert PValue.min(iter(values)) == expected


@pytest.mark.parametrize("a, b, expected", [
    (F(1), F(Q(1, 2)), F(Q(3, 2))),
    (F(1), C(2), C(3)),
    (C(1), F(2), C(3)),
    (C(1), C(2), C(3)),
    (F(1), INFTY, INFTY),
    (INFTY, C(1), INFTY),
    (INFTY, INFTY, INFTY),
])
def test_pvalue_sum(a, b, expected):
    assert a + b == expected


UNDECIDED = (None, None)


@pytest.mark.parametrize("lhs, rhs, expected", [
    (F(2), F(1), (True, 1)),
    (F(1), F(2), (False, -1)),
    (F(1), F(1), (True, 0)),
    (C(2), F(1), (True, 1)),  # decided at the cap, with its margin
    (C(1), F(1), (True, 0)),
    (C(1), F(2), UNDECIDED),
    (F(2), C(1), UNDECIDED),
    (F(1), C(2), (False, None)),  # the cap marker is above 1, by an unknown amount
    (C(2), C(1), UNDECIDED),
    (INFTY, F(1), (True, None)),
    (INFTY, C(1), (True, None)),
    (INFTY, INFTY, (True, None)),
    (F(1), INFTY, (False, None)),
    (C(1), INFTY, UNDECIDED),
    (F(2), C(2), UNDECIDED),
])
def test_pvalue_ge(lhs, rhs, expected):
    assert lhs.ge(rhs) == expected


@pytest.mark.parametrize("lhs, rhs, expected", [
    (F(1), F(1), (True, 0)),
    (F(1), F(Q(3, 2)), (False, Q(-1, 2))),
    (F(Q(3, 2)), F(1), (False, Q(-1, 2))),
    (INFTY, INFTY, (True, None)),
    (F(1), C(1), UNDECIDED),
    (C(1), F(1), UNDECIDED),
    (C(1), C(1), UNDECIDED),
    (F(1), INFTY, (False, None)),
    (INFTY, F(1), (False, None)),
    (C(1), INFTY, UNDECIDED),
    (INFTY, C(1), UNDECIDED),
    (F(1), C(2), (False, None)),  # a cap marker above a finite value, either side
    (C(2), F(1), (False, None)),
    (F(2), C(1), UNDECIDED),
])
def test_pvalue_eq(lhs, rhs, expected):
    assert lhs.eq(rhs) == expected


def test_pvalue_of_scalars():
    zp = ScalarRing(7, 12)
    assert PValue.of(zp.zero(exact=True), Q(1, 2)) == INFTY
    assert PValue.of(zp.zero(exact=False)) == C(12)
    assert PValue.of(zp.zero(exact=False), Q(1, 2)) == C(Q(25, 2))
    assert PValue.of(zp.from_int(49 * 3), Q(-1, 4)) == F(Q(7, 4))
    assert PValue.of(zp.from_int(7 ** 12)) == C(12)  # zero at the cap


def test_zero_mod_matches_spelled_out_predicate():
    zp = ScalarRing(7, 6)
    scalars = [zp.zero(exact=True), zp.zero(exact=False), zp.from_int(3),
               zp.from_int(7 * 5), zp.from_int(7 ** 3), zp.from_int(7 ** 6)]
    for x in scalars:
        w = x.pival()
        levels = {0, 1, x.prec, x.prec + 1}
        if isinstance(w, int):
            levels |= {w - 1, w, w + 1}
        for k in levels:
            assert x.zero_mod(k) == (x.pival() is None or x.pival() >= k), (x, k)
