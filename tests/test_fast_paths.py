"""Differential tests: each fast path against the route it replaced.

* scalar arithmetic against the former generic route through
  ``ScalarRing.canonical``, written out here as a reference, and add and
  sub with an exact-zero operand against the former shortcuts of the
  generic route;
* the six-entry Sp4 relation check against the full product g^T J g = J;
* the scalar torus rebuild against the product of torus elements;
* the integer path of ``groups`` and the int loops of exp/log against the
  PadicScalar route and the former scalar loops of exp/log, kept here,
  which ``scalar_route()`` forces, and the closure of the integer path
  under its own operations;
* the plan-order int factorization kernel against the former int LDU,
  strip and factorization, kept here, and the scalars that elements and
  factorizations build when first read against the former eager wraps;
* the lattice equations of the int torus check against the former rebuild,
  also on planted off-lattice diagonals, and omega taken with a running
  bound against the former full minimum;
* samples that ``from_coordinates`` builds on int rows against the same
  coordinates as scalars, and the omega that the factorization reads off
  its ints against the minimum of ``omega_of_factor_list``;
* the scalar Sp4 inverse read off the sign table against the two products
  with the Gram matrix it replaced, and ``PadicScalar.__pow__`` and the
  torus helpers that call it against the former ladder and the hand-kept
  inverse caches;
* ``PadicScalar.shift``, one ``canonical`` call for any k, against the
  former one-digit steps, values and ``PrecisionError`` messages.

Hypothesis runs with fixed seeds, so every run draws the same examples.
"""

from contextlib import contextmanager
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from iwahori import groups, padic
from iwahori.axioms import check_pvaluation_axioms, sample_iwahori
from iwahori.groups import ChevalleyGroup, GroupElement, MembershipError, PValue
from iwahori.padic import (DomainError, InternalError, PadicScalar, PrecisionError, ScalarRing,
                           padic_exp, padic_log, vp_int)
from iwahori.series import SeriesContext

P, N = 7, 12
Zp = ScalarRing(P, N)


# -- scalar arithmetic ---------------------------------------------------------


def canonical_ref(raw, prec, exact):
    """(co, prec, exact) of the former generic ScalarRing.canonical."""
    k = prec if prec > 0 else 0
    red = raw % P ** k if k else 0
    return (red, prec, exact and red == raw)


def state(x):
    return (x.co, x.prec, x.exact)


def is_exact_zero_ref(x):
    return x.exact and not x.co


def keep_or_truncate(x, prec):
    return state(x) if x.prec <= prec else canonical_ref(x.co, prec, x.exact)


def add_ref(x, y):
    if is_exact_zero_ref(x):
        return keep_or_truncate(y, x.prec)
    if is_exact_zero_ref(y):
        return keep_or_truncate(x, y.prec)
    return canonical_ref(x.co + y.co, min(x.prec, y.prec), x.exact and y.exact)


def sub_ref(x, y):
    if is_exact_zero_ref(y):
        return keep_or_truncate(x, y.prec)
    return canonical_ref(x.co - y.co, min(x.prec, y.prec), x.exact and y.exact)


def mul_ref(x, y):
    if is_exact_zero_ref(x) or is_exact_zero_ref(y):
        return (0, min(x.prec, y.prec), True)
    return canonical_ref(x.co * y.co, min(x.prec, y.prec), x.exact and y.exact)


def neg_ref(x):
    return canonical_ref(-x.co, x.prec, x.exact)


def eq_ref(x, y):
    prec = min(x.prec, y.prec)
    return canonical_ref(x.co, prec, False)[0] == canonical_ref(y.co, prec, False)[0]


@st.composite
def scalars(draw):
    """Canonical scalars: exact zeros, zeros at the cap, values with
    many trailing zero digits, exact small integers, mixed precisions (also
    above and below the ring precision)."""
    prec = draw(st.integers(min_value=0, max_value=N + 3))
    kind = draw(st.sampled_from(("exact_zero", "cap_zero", "p_power", "exact", "any")))
    mod = P ** prec
    if kind == "exact_zero":
        return PadicScalar(Zp, 0, prec, True)
    if kind == "cap_zero":
        return PadicScalar(Zp, 0, prec, False)
    if kind == "p_power":
        co = (P ** draw(st.integers(min_value=0, max_value=N + 3))
              * draw(st.integers(min_value=1, max_value=P - 1))) % mod
        return PadicScalar(Zp, co, prec, False)
    co = draw(st.integers(min_value=0, max_value=max(0, mod - 1)))
    return PadicScalar(Zp, co, prec, kind == "exact")


@seed(20221)
@settings(max_examples=600, deadline=None)
@given(scalars(), scalars())
def test_m1_ops_match_generic_route(x, y):
    assert state(x + y) == add_ref(x, y)
    assert state(x - y) == sub_ref(x, y)
    assert state(x * y) == mul_ref(x, y)
    assert state(-x) == neg_ref(x)
    assert (x == y) == eq_ref(x, y)


@seed(20222)
@settings(max_examples=300, deadline=None)
@given(scalars(), st.integers(min_value=-P ** (N + 2), max_value=P ** (N + 2)))
def test_m1_ops_with_ints_match_generic_route(x, n):
    # an int is read as an exact scalar at the precision of the other operand
    y = Zp.from_int(n, x.prec)
    assert state(y) == canonical_ref(n, x.prec, True)
    assert state(x + n) == add_ref(x, y)
    assert state(x - n) == sub_ref(x, y)
    assert state(x * n) == mul_ref(x, y)
    assert (x == n) == eq_ref(x, y)


# -- the Sp4 relation check ------------------------------------------------------

SP4 = ChevalleyGroup("sp4", p=P, prec=N)
GRAM = ((0, 0, 0, 1), (0, 0, 1, 0), (0, -1, 0, 0), (-1, 0, 0, 0))


def full_relation_ref(g):
    """All sixteen entries of g^T J g against J, accumulated from an exact
    ring zero, as the check did before it read off six entries."""
    for i in range(4):
        for j in range(4):
            acc = SP4.ring.zero(exact=True)
            for k in range(4):
                for m in range(4):
                    if GRAM[k][m]:
                        term = g.mat[k][i] * g.mat[m][j]
                        acc = acc + (term if GRAM[k][m] == 1 else -term)
            if not acc == GRAM[i][j]:
                return False
    return True


def reprecise(g, precs):
    """g with entry (i, j) re-read at precision precs[i][j]: truncated below
    its precision, or its digits claimed further above it."""
    rows = []
    for row, prow in zip(g.mat, precs):
        rows.append(tuple(e.truncate(q) if q <= e.prec else PadicScalar(e.ring, e.co, q, False)
                          for e, q in zip(row, prow)))
    return GroupElement(g.group, tuple(rows))


member_seeds = st.integers(min_value=0, max_value=10 ** 6)
precisions = st.lists(st.lists(st.integers(min_value=1, max_value=N + 2), min_size=4,
                               max_size=4), min_size=4, max_size=4)


@seed(20223)
@settings(max_examples=60, deadline=None)
@given(member_seeds, precisions)
def test_sp4_relation_matches_full_product_on_members(sample_seed, precs):
    g = sample_iwahori(SP4, Random(sample_seed))
    assert g.satisfies_group_relation() and full_relation_ref(g)
    h = reprecise(g, precs)
    assert h.satisfies_group_relation() == full_relation_ref(h)
    # digits claimed beyond the ring precision are not checked by either
    lifted = reprecise(g, [[N + 2] * 4] * 4)
    assert lifted.satisfies_group_relation() and full_relation_ref(lifted)


@seed(20224)
@settings(max_examples=120, deadline=None)
@given(member_seeds, st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=N - 1), st.integers(min_value=1, max_value=P - 1))
def test_sp4_relation_matches_full_product_on_bumped_entries(sample_seed, i, j, k, c):
    g = sample_iwahori(SP4, Random(sample_seed))
    rows = [list(row) for row in g.mat]
    rows[i][j] = rows[i][j] + c * P ** k
    h = GroupElement(SP4, tuple(tuple(row) for row in rows))
    assert h.satisfies_group_relation() == full_relation_ref(h)


def test_sp4_relation_rejects_bumped_diagonal():
    # the agreement above is not vacuous.  Bumping g[i][i] by p^k moves entry
    # (i, 3 - i) of g^T J g by p^k times the unit g[3-i][3-i], so every such
    # bump below the cap breaks the relation.  (An off-diagonal bump need not:
    # p^(N-1) at (3, 0) meets only entries divisible by p.)
    g = sample_iwahori(SP4, Random(3))
    for i in range(4):
        for k in range(N):
            rows = [list(row) for row in g.mat]
            rows[i][i] = rows[i][i] + P ** k
            h = GroupElement(SP4, tuple(tuple(row) for row in rows))
            assert not h.satisfies_group_relation()
            assert not full_relation_ref(h)


def test_sp4_relation_checks_every_upper_entry():
    # I + p^k E_rc with c != 3 - r moves only the entries (c, 3 - r) and
    # (3 - r, c) of g^T J g, so each of the six upper entries is the only
    # witness against some bump: a check that skipped one would pass it
    for a in range(4):
        for b in range(a + 1, 4):
            r, c = 3 - b, a
            for k in range(N):
                rows = [list(row) for row in SP4.identity().mat]
                rows[r][c] = rows[r][c] + P ** k
                h = GroupElement(SP4, tuple(tuple(row) for row in rows))
                assert not h.satisfies_group_relation()
                assert not full_relation_ref(h)


# -- the torus rebuild ----------------------------------------------------------


def matmul_rebuild_ref(G, coords):
    """Diagonal of prod_i mu_i(s_i) as full matrix products."""
    g = G.identity()
    for mu_i, s in zip(G.datum.cochar_basis, coords):
        g = g * G.torus_element(mu_i, s)
    return [g.mat[i][i] for i in range(G.n)]


def recipe_coords(G, diag):
    """The former recipe of ``_torus_coords_from_diag``, with its
    inverses taken by hand."""
    coords = []
    for recipe in G.torus_recipe:
        s = G.ring.one()
        for idx, e in recipe:
            s = s * (diag[idx] if e == 1 else pow_ref(diag[idx].inv(), -e))
        coords.append(s)
    return coords


GROUPS = {name: ChevalleyGroup(name, p=P, prec=N) for name in ("sl2", "sl3", "sp4")}
units = st.integers(min_value=0, max_value=P ** N - 1).map(lambda a: 1 + P * a)


@seed(20225)
@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(GROUPS)), st.lists(units, min_size=4, max_size=4),
       st.lists(st.integers(min_value=1, max_value=N), min_size=4, max_size=4),
       st.booleans())
def test_torus_rebuild_matches_matmul_rebuild(name, values, precs, in_lattice):
    G = GROUPS[name]
    diag = [G.ring.from_int(v, q) for v, q in zip(values[:G.n], precs)]
    if in_lattice:
        # a diagonal in the cocharacter lattice: the rebuild of its coordinates
        diag = [d.truncate(min(precs[:G.n])) for d in
                matmul_rebuild_ref(G, recipe_coords(G, diag))]
    coords = recipe_coords(G, diag)
    cap = min(s.prec for s in coords)
    old = matmul_rebuild_ref(G, coords)
    new = G.torus_diagonal(coords)
    for o, n in zip(old, new):
        assert o.prec == cap and n.truncate(cap).co == o.co
    # the self-check raises exactly when the matmul rebuild disagreed
    old_ok = all(o == d for o, d in zip(old, diag))
    try:
        G._torus_coords_from_diag(diag)
        new_ok = True
    except InternalError:
        new_ok = False
    assert new_ok == old_ok
    if in_lattice:
        assert new_ok


# -- the integer path --------------------------------------------------------------


@contextmanager
def scalar_route():
    """Inside, every group operation and exp/log takes the PadicScalar route:
    no element is read as int rows and exp/log run the former scalar loops.
    Elements must be built inside, so that no int rows are cached yet, and
    ``from_coordinates`` given scalars, since it builds int coordinates in
    1..p^N - 1 on int rows."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "_flat_ints", lambda mat, ring: None)
        mp.setattr(padic, "_exp_loop", exp_loop_ref)
        mp.setattr(padic, "_log_loop", log_loop_ref)
        yield


def lift(x, prec):
    """The former ``PadicScalar._lift``: the same digits at a higher claimed
    precision, valid only where the result is truncated back."""
    return PadicScalar(x.ring, x.co, prec, False)


def exp_loop_ref(xi, ring, nmax, buf):
    """The former scalar loop of ``padic_exp``: sum_{n <= nmax} xi^n/n! on
    scalars at the guard precision buf, as an int modulo p^buf."""
    p = ring.p
    rbuf = ScalarRing(p, buf)
    xb = rbuf.canonical(xi, buf)
    acc = rbuf.one(buf)
    term = rbuf.one(buf)
    for n in range(1, nmax + 1):
        term = term * xb
        v = vp_int(n, p)
        unit = n // p ** v
        if unit != 1:
            term = term * rbuf.from_int(unit, buf).inv()
        if v:
            term = lift(term.shift(-v), buf)
        acc = acc + term
    return acc.co


def log_loop_ref(yi, ring, nmax, buf):
    """The former scalar loop of ``padic_log``: sum_{n <= nmax}
    (-1)^(n-1) yi^n/n on scalars at the guard precision buf, as an int
    modulo p^buf."""
    p = ring.p
    rbuf = ScalarRing(p, buf)
    yb = rbuf.canonical(yi, buf)
    acc = rbuf.zero(buf, exact=True)
    power = rbuf.one(buf)
    for n in range(1, nmax + 1):
        power = power * yb
        v = vp_int(n, p)
        unit = n // p ** v
        term = power
        if unit != 1:
            term = term * rbuf.from_int(unit, buf).inv()
        if v:
            term = lift(term.shift(-v), buf)
        if n % 2 == 0:
            term = -term
        acc = acc + term
    return acc.co


def fresh(g):
    return GroupElement(g.group, g.mat)


def mat_state(g):
    return [[state(e) for e in row] for row in g.mat]


def fact_state(fact):
    return ([(r, state(x)) for r, x in fact.negative],
            [state(s) for s in fact.torus_coordinates],
            [state(d) for d in fact.torus_diagonal],
            [(r, state(x)) for r, x in fact.positive])


def outcome(fn, *args):
    """A comparable result: the value's state, or the exception type and text."""
    try:
        value = fn(*args)
    except (ValueError, RuntimeError) as err:
        return type(err), str(err)
    if isinstance(value, GroupElement):
        return mat_state(value)
    if isinstance(value, groups.Factorization):
        return fact_state(value)
    if isinstance(value, PadicScalar):
        return state(value)
    return value


def assert_flat(g):
    """Every entry inexact at the ring precision, and the int rows equal to
    the entries."""
    ring = g.group.ring
    assert all(not e.exact and e.prec == ring.prec and e.ring == ring
               for row in g.mat for e in row)
    rows = tuple(tuple(e.co for e in row) for row in g.mat)
    assert g._ints == rows


CONFIGS = [(name, p, n) for name, ps in (("sl2", (5, 7, 11)), ("sl3", (5, 7, 11)),
                                         ("sp4", (7, 11)))
           for p in ps for n in (4, 12)]
INT_GROUPS = {c: ChevalleyGroup(c[0], p=c[1], prec=c[2]) for c in CONFIGS}
configs = st.sampled_from(CONFIGS)


def draw_twist(G, index, tie_break):
    weyl = G.datum.weyl_group()
    return weyl[index % len(weyl)], tie_break


@seed(20226)
@settings(max_examples=160, deadline=None)
@given(configs, member_seeds, member_seeds, st.integers(min_value=0, max_value=7),
       st.sampled_from(("lex", "revlex")))
def test_int_path_matches_scalar_route(config, seed_g, seed_h, w_index, tie_break):
    G = INT_GROUPS[config]
    p = G.ring.p
    g, h = sample_iwahori(G, Random(seed_g)), sample_iwahori(G, Random(seed_h))
    # a coordinate drawn as 0 can leave an exact entry; such elements take
    # the scalar route on both sides
    assume(g._ints is not None and h._ints is not None)
    w, tb = draw_twist(G, w_index, tie_break)
    ops = {
        "factorize": lambda a, b: a.group.iwahori_factorize(a, w, tb),
        "mul": lambda a, b: a * b,
        "inv": lambda a, b: a.inv(),
        "pow_p": lambda a, b: a ** p,
        "commutator": lambda a, b: a.inv() * b.inv() * a * b,
        "p_valuation": lambda a, b: a.group.p_valuation(a),
        "coordinates": lambda a, b: [state(x) for x in a.group.coordinates(a, w)],
    }
    fast = {name: outcome(op, fresh(g), fresh(h)) for name, op in ops.items()}
    with scalar_route():
        ref = {name: outcome(op, fresh(g), fresh(h)) for name, op in ops.items()}
    assert fast == ref


@pytest.mark.parametrize("config", CONFIGS)
def test_int_path_factorizations_match_for_every_twist(config):
    G = INT_GROUPS[config]
    g = sample_iwahori(G, Random(sum(config[1:])))
    assert g._ints is not None
    for w in G.datum.weyl_group():
        for tie_break in ("lex", "revlex"):
            fast = outcome(G.iwahori_factorize, fresh(g), w, tie_break)
            with scalar_route():
                ref = outcome(G.iwahori_factorize, fresh(g), w, tie_break)
            assert fast == ref and isinstance(fast, tuple) and len(fast) == 4


@seed(20227)
@settings(max_examples=160, deadline=None)
@given(configs, member_seeds, st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=11),
       st.integers(min_value=1, max_value=10), st.booleans())
def test_int_path_verdicts_match_on_members_and_bumps(config, sample_seed, i, j, k, c, bump):
    G = INT_GROUPS[config]
    i, j, k, c = i % G.n, j % G.n, k % G.ring.prec, c % G.ring.p or 1
    g = sample_iwahori(G, Random(sample_seed))
    rows = [list(row) for row in g.mat]
    if bump:
        rows[i][j] = rows[i][j] + c * G.ring.p ** k
    h = GroupElement(G, tuple(tuple(row) for row in rows))
    assume(h._ints is not None)

    def verdicts(x):
        return (x.satisfies_group_relation(), G.in_iwahori(x),
                outcome(G.iwahori_factorize, x))

    fast = verdicts(fresh(h))
    with scalar_route():
        ref = verdicts(fresh(h))
    assert fast == ref
    if not bump:
        assert fast[0] and fast[1]


def test_int_path_bumps_are_rejected():
    # the agreement above is not vacuous: a diagonal bump by p^k breaks
    # membership on every group, and both routes raise MembershipError
    for config in CONFIGS:
        G = INT_GROUPS[config]
        g = sample_iwahori(G, Random(5))
        for k in range(G.ring.prec):
            rows = [list(row) for row in g.mat]
            rows[0][0] = rows[0][0] + G.ring.p ** k
            h = GroupElement(G, tuple(tuple(row) for row in rows))
            assert h._ints is not None and not G.in_iwahori(h)
            with pytest.raises(MembershipError):
                G.iwahori_factorize(h)


def flatten(g):
    """g with every entry re-read as inexact at the ring precision."""
    G = g.group
    return GroupElement(G, tuple(tuple(G._wrap(e.co) for e in row) for row in g.mat))


def test_int_relation_checks_every_upper_entry():
    # as test_sp4_relation_checks_every_upper_entry, on the integer path:
    # I + p^k E_rc breaks exactly one upper entry of g^T J g
    G = INT_GROUPS[("sp4", 7, 12)]
    for a in range(4):
        for b in range(a + 1, 4):
            r, c = 3 - b, a
            for k in range(G.ring.prec):
                rows = [list(row) for row in flatten(G.identity()).mat]
                rows[r][c] = rows[r][c] + G.ring.p ** k
                h = GroupElement(G, tuple(tuple(row) for row in rows))
                assert h._ints is not None
                assert not h.satisfies_group_relation()
                with scalar_route():
                    assert not fresh(h).satisfies_group_relation()


def relation_keeping_non_members(G):
    """Flat group elements outside I: a torus point with a diagonal entry
    not congruent to 1, and a root element u_r(1) for an upper root r."""
    a, one = G.ring.from_int(2), G.ring.one()
    diag = {"sl2": [a, a.inv()], "sl3": [a, a.inv(), one], "sp4": [a, one, one, a.inv()]}
    upper = min(G.datum.negative_roots, key=G.datum.height)
    return [("torus part is not pro-p", flatten(G._diagonal(diag[G.name]))),
            ("upper root parameter not divisible by p", flatten(G.root_element(upper, 1)))]


@pytest.mark.parametrize("config", CONFIGS)
def test_int_membership_rejects_relation_keeping_non_members(config, monkeypatch):
    G = INT_GROUPS[config]
    for message, g in relation_keeping_non_members(G):
        assert g._ints is not None and g.satisfies_group_relation()
        assert not G.in_iwahori(g)
        with scalar_route():
            assert not G.in_iwahori(fresh(g))
        # past a forced membership test, the factorization's own checks
        # raise the same InternalError on both routes
        monkeypatch.setattr(G, "in_iwahori", lambda g: True)
        fast = outcome(G.iwahori_factorize, fresh(g))
        with scalar_route():
            ref = outcome(G.iwahori_factorize, fresh(g))
        monkeypatch.undo()
        assert fast == ref == (InternalError, message)


@pytest.mark.parametrize("config", CONFIGS)
def test_int_path_raises_on_a_forced_non_unit_pivot(config, monkeypatch):
    G = INT_GROUPS[config]
    monkeypatch.setattr(G, "in_iwahori", lambda g: True)
    p = G.ring.p
    flat = G.ring.from_int(p).truncate(G.ring.prec)  # p + O(p^N), exact flag kept
    flat = PadicScalar(G.ring, flat.co, G.ring.prec, False)
    g = GroupElement(G, tuple(tuple(flat for _ in range(G.n)) for _ in range(G.n)))
    assert g._ints is not None
    fast = outcome(G.iwahori_factorize, g)
    with scalar_route():
        ref = outcome(G.iwahori_factorize, fresh(g))
    assert fast == ref
    assert fast[0] is InternalError and fast[1].startswith("elimination pivot 0 is not a unit")


@seed(20228)
@settings(max_examples=200, deadline=None)
@given(configs, st.integers(min_value=0, max_value=7), st.sampled_from(("lex", "revlex")),
       st.integers(min_value=0, max_value=1), st.data())
def test_int_strip_matches_scalar_strip(config, w_index, tie_break, which, data):
    # unitriangular matrices with arbitrary (mostly non-unipotent-group)
    # entries: the strips return the same parameters or raise the same
    # InternalError, paired-entry and remainder checks alike.  The library's
    # int strip runs here on the batch roots' own directions.
    G = INT_GROUPS[config]
    w, tb = draw_twist(G, w_index, tie_break)
    mu, _a = G.datum.adapted_cocharacter(w)
    exps = G.exponents(mu)
    plan = G._factor_plan(w, tb)
    batch = (plan.neg_batch, plan.pos_batch)[which]
    mod = G._mod
    ints, scalars = [], []
    for i in range(G.n):
        irow, srow = [], []
        for j in range(G.n):
            inside = (exps[i] < exps[j]) if which == 0 else (exps[i] > exps[j])
            if inside:
                v = data.draw(st.one_of(st.integers(0, mod - 1), st.sampled_from((0, 1, mod - 1))))
                irow.append(v)
                srow.append(G._wrap(v))
            elif i == j:
                v = data.draw(st.sampled_from((1, 1, 1, 1 + G.ring.p ** (G.ring.prec - 1))))
                irow.append(v)
                srow.append(G.ring.one() if v == 1 else G._wrap(v))
            else:
                irow.append(0)
                srow.append(G.ring.zero())
        ints.append(irow)
        scalars.append(srow)

    strip = tuple((r, G.dirs[r]) for r in batch)

    def strip_ints():
        return [(r, state(G._wrap(x))) for r, x in
                groups._strip_ints([list(row) for row in ints], strip, mod)]

    def strip_ints_former():
        return [(r, state(G._wrap(x))) for r, x in strip_ints_ref(G, ints, batch)]

    def strip_scalars():
        return [(r, state(x)) for r, x in groups._strip([list(row) for row in scalars], strip)]

    assert outcome(strip_ints) == outcome(strip_ints_former) == outcome(strip_scalars)


@seed(20229)
@settings(max_examples=200, deadline=None)
@given(configs, st.lists(st.integers(min_value=0), min_size=4, max_size=4), st.booleans())
def test_int_torus_rebuild_matches_scalar_rebuild(config, values, in_lattice):
    G = INT_GROUPS[config]
    p, mod = G.ring.p, G._mod
    diag = [(1 + p * v) % mod for v in values[:G.n]]
    if in_lattice:
        # the rebuild of the recipe coordinates of some diagonal
        diag = [d.co for d in G.torus_diagonal([G._wrap(s) for s in recipe_ints(G, diag)])]
    fast = outcome(lambda: [state(G._wrap(s)) for s in G._torus_coords_ints(diag)])
    ref = outcome(lambda: [state(s) for s in
                           G._torus_coords_from_diag([G._wrap(d) for d in diag])])
    assert fast == ref
    if in_lattice:
        assert isinstance(fast, list)


def recipe_ints(G, diag):
    mod = G._mod
    coords = []
    for recipe in G.torus_recipe:
        s = 1
        for idx, e in recipe:
            s = s * pow(diag[idx], e, mod) % mod
        coords.append(s)
    return coords


def torus_coords_rebuild_ref(G, diag):
    """The former ``_torus_coords_ints``: the recipe coordinates, checked by
    rebuilding the diagonal from them."""
    coords = recipe_ints(G, diag)
    if G._torus_diagonal_ints(coords) != diag:
        raise InternalError("torus diagonal is not in the cocharacter lattice")
    return coords


@pytest.mark.parametrize("config", [(name, p, n) for name, p in (("sl2", 5), ("sl3", 5),
                                                                  ("sp4", 7)) for n in (2, 3, 12)],
                         ids=lambda c: "-".join(map(str, c)))
def test_off_lattice_torus_diagonals_raise(config):
    # planted: one entry of a pro-p torus diagonal times 1 + p^k stays pro-p
    # but leaves the torus; the lattice equations, the former rebuild and the
    # whole kernel on that diagonal matrix each reject it
    G = ChevalleyGroup(*config)
    p, mod, n = G.ring.p, G._mod, G.n
    rng = Random(f"torus-{config}")
    plan = G._factor_plan(G.datum.identity_weyl(), "lex")
    message = "torus diagonal is not in the cocharacter lattice"
    for _ in range(4):
        diag = G._torus_diagonal_ints([1 + p * rng.randrange(mod // p)
                                       for _ in G.datum.cochar_basis])
        assert G._torus_coords_ints(diag) == torus_coords_rebuild_ref(G, diag)
        for i in range(n):
            for k in range(1, G.ring.prec):
                bad = list(diag)
                bad[i] = bad[i] * (1 + p ** k) % mod
                rows = tuple(tuple(bad[r] if r == c else 0 for c in range(n)) for r in range(n))
                for call in (lambda: G._torus_coords_ints(bad),
                             lambda: torus_coords_rebuild_ref(G, bad),
                             lambda: G._factor_ints(rows, plan)):
                    with pytest.raises(InternalError, match=message):
                        call()


@seed(20230)
@settings(max_examples=100, deadline=None)
@given(configs, member_seeds, member_seeds, st.integers(min_value=0, max_value=7))
def test_int_path_outputs_stay_flat(config, seed_g, seed_h, w_index):
    # flat inputs give flat outputs: what lets chained products (the
    # commutator, g**p) stay on the integer path
    G = INT_GROUPS[config]
    g, h = sample_iwahori(G, Random(seed_g)), sample_iwahori(G, Random(seed_h))
    assume(g._ints is not None and h._ints is not None)
    assert_flat(g)
    assert_flat(h)
    w = G.datum.weyl_group()[w_index % len(G.datum.weyl_group())]
    for out in (g * h, g.inv(), h ** G.ring.p, g.inv() * h.inv() * g * h, g ** 1):
        assert out._ints is not None  # built from int rows
        assert_flat(out)
    assert g ** 0 == G.identity()
    fact = G.iwahori_factorize(g, w)
    for x in ([x for _r, x in fact.negative + fact.positive]
              + fact.torus_coordinates + fact.torus_diagonal):
        assert not x.exact and x.prec == G.ring.prec and x.ring == G.ring
    assert G.from_parameters(fact.negative, fact.torus_coordinates, fact.positive) == g


def test_int_path_skips_non_flat_elements():
    # exact entries and mixed precisions stay on the scalar route
    G = INT_GROUPS[("sp4", 7, 12)]
    g = sample_iwahori(G, Random(1))
    assert G.identity()._ints is None
    assert G.root_element((1, -1), 7)._ints is None
    assert reprecise(g, [[12] * 4] * 3 + [[12, 12, 12, 11]])._ints is None


# -- the plan-order kernel, against the former int LDU, strip and factorization ----


def permuted_ref(mat, order):
    return [[mat[i][j] for j in order] for i in order]


def inverse_order_ref(order):
    inv = [0] * len(order)
    for k, idx in enumerate(order):
        inv[idx] = k
    return inv


def ldu_ints_ref(a, n, ring):
    """The former ``groups._ldu_ints``: the LDU of int rows modulo p^N, in
    place, with the non-unit pivot error of the scalar ``_ldu``."""
    p, mod = ring.p, ring.ppow(ring.prec)
    lmat = [[int(i == j) for j in range(n)] for i in range(n)]
    umat = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(n):
        ak = a[k]
        piv = ak[k]
        if piv % p == 0:
            shown = PadicScalar(ring, piv, ring.prec, False)
            raise InternalError(f"elimination pivot {k} is not a unit: {shown!r}")
        pivinv = pow(piv, -1, mod)
        for i in range(k + 1, n):
            ai = a[i]
            f = ai[k] * pivinv % mod
            lmat[i][k] = f
            if f:
                for j in range(k, n):
                    ai[j] = (ai[j] - f * ak[j]) % mod
        uk = umat[k]
        for j in range(k + 1, n):
            uk[j] = pivinv * ak[j] % mod
    return lmat, [a[k][k] for k in range(n)], umat


def strip_ints_ref(G, cur, batch_roots):
    """The former ``ChevalleyGroup._strip_ints``: the strip on int rows in
    the element's own basis order, in place."""
    mod, params = G._mod, []
    for root in batch_roots:
        dirs = G.dirs[root]
        i0, j0, s0 = dirs[0]
        x = cur[i0][j0] if s0 == 1 else -cur[i0][j0] % mod
        for (i, j, s) in dirs[1:]:
            if (cur[i][j] - (x if s == 1 else -x)) % mod:
                raise InternalError(f"paired entries for root {root} disagree")
        params.append((root, x))
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


def factor_ints_ref(G, ints, w, tie_break):
    """The former ``ChevalleyGroup._factor_ints`` on ints, its basis order and
    batches taken from the twist here, not from the plan: permute, LDU,
    permute both factors back, strip them, then the torus and the checks.
    Returns (negative, torus coordinates, diagonal, positive, omega)."""
    p, mod, n = G.ring.p, G._mod, G.n
    mu, _a = G.datum.adapted_cocharacter(w)
    exps = G.exponents(mu)
    order = sorted(range(n), key=lambda i: -exps[i])
    neg_batch, pos_batch = G.batches(w, tie_break)
    lmat, diag_sorted, umat = ldu_ints_ref(permuted_ref(ints, order), n, G.ring)
    inv_order = inverse_order_ref(order)
    neg = strip_ints_ref(G, permuted_ref(lmat, inv_order), neg_batch)
    pos = strip_ints_ref(G, permuted_ref(umat, inv_order), pos_batch)
    diag = [diag_sorted[k] for k in inv_order]
    torus_coords = torus_coords_rebuild_ref(G, diag)
    if any((d - 1) % p for d in diag):
        raise InternalError("torus part is not pro-p")
    for root, x in neg + pos:
        if G.datum.height(root) < 0 and x % p:
            raise InternalError("upper root parameter not divisible by p")
    omega = PValue.min([PValue.of(G._wrap(x), G._omega_offset[r]) for r, x in neg + pos]
                       + [PValue.of(G._wrap((d - 1) % mod)) for d in diag])
    return neg, torus_coords, diag, pos, omega


def kernel_inputs(G, rng):
    """Int rows for the kernel: members of I, flat non-members that keep the
    group relation, rows congruent to the identity mod p (sl_n: mostly off
    the torus lattice; sp4: mostly unpaired entries), uniform rows (mostly a
    non-unit pivot or a unit upper parameter), and rows of p's."""
    p, mod, n = G.ring.p, G._mod, G.n
    out = [sample_iwahori(G, rng)._ints for _ in range(3)]
    out += [g._ints for _message, g in relation_keeping_non_members(G)]
    out += [tuple(tuple((int(i == j) + p * rng.randrange(mod)) % mod for j in range(n))
                  for i in range(n)) for _ in range(3)]
    out += [tuple(tuple(rng.randrange(mod) for _ in range(n)) for _ in range(n))
            for _ in range(3)]
    out.append(tuple(tuple(p % mod for _ in range(n)) for _ in range(n)))
    return [rows for rows in out if rows is not None]


KERNEL_CONFIGS = [(name, p, n) for name, p in (("sl2", 5), ("sl3", 5), ("sp4", 7))
                  for n in (1, 2, 3, 12)]


@pytest.mark.parametrize("config", KERNEL_CONFIGS, ids=lambda c: "-".join(map(str, c)))
def test_plan_order_kernel_matches_the_former_kernel(config):
    # every twist and tie-break, on members and on planted bad rows: the same
    # ints and omega, or the same InternalError text
    G = ChevalleyGroup(*config)
    rng = Random(f"kernel-{config}")
    seen = set()
    for w in G.datum.weyl_group():
        for tie_break in ("lex", "revlex"):
            plan = G._factor_plan(w, tie_break)
            for ints in kernel_inputs(G, rng):
                fast = outcome(G._factor_ints, ints, plan)
                assert fast == outcome(factor_ints_ref, G, ints, w, tie_break), (w.name, ints)
                seen.add(fast[1].split(":")[0].split(" for root")[0]
                         if fast[0] is InternalError else "value")
    assert {"value", "elimination pivot 0 is not a unit", "torus part is not pro-p",
            "upper root parameter not divisible by p"} <= seen
    assert ("paired entries" if G.name == "sp4"
            else "torus diagonal is not in the cocharacter lattice") in seen


def test_int_built_elements_and_factorizations_read_as_the_eager_wraps():
    # .mat and the four factor lists are built when first read, and equal the
    # scalars the integer path used to wrap at once
    G = INT_GROUPS[("sp4", 7, 12)]
    rng = Random(7)
    for _ in range(20):
        g = sample_iwahori(G, rng) * sample_iwahori(G, rng)
        rows = g._ints
        assert g._mat is None
        assert mat_state(g) == [[state(G._wrap(v)) for v in row] for row in rows]
        for w in G.datum.weyl_group():
            fact = G.iwahori_factorize(g, w)
            neg, coords, diag, pos, omega = G._factor_ints(rows, G._factor_plan(w, "lex"))
            assert fact.omega == omega
            assert fact_state(fact) == ([(r, state(G._wrap(x))) for r, x in neg],
                                        [state(G._wrap(s)) for s in coords],
                                        [state(G._wrap(d)) for d in diag],
                                        [(r, state(G._wrap(x))) for r, x in pos])
            with scalar_route():
                assert fact_state(G.iwahori_factorize(fresh(g), w)) == fact_state(fact)


def test_an_element_never_read_as_scalars_builds_none(monkeypatch):
    # the axiom suite reads its samples, products, inverses and powers only
    # through their int rows and the omega of their factorizations
    built = []
    init = PadicScalar.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    for config in (("sl3", 5, 10), ("sp4", 7, 12)):
        G = ChevalleyGroup(*config)
        monkeypatch.setattr(PadicScalar, "__init__", counting_init)
        report = check_pvaluation_axioms(G, 6, seed=3)
        g = sample_iwahori(G, Random(4))
        facts = [G.iwahori_factorize(g, w) for w in G.datum.weyl_group()]
        assert report.total_failures == 0 and built == []
        assert g._mat is None and all(fact._wrapped is False for fact in facts)
        assert len(g.mat) == G.n and len(built) == G.n ** 2  # built once read
        monkeypatch.undo()
        built.clear()


# -- samples built on int rows, and omega read off the int factorization ----------

SAMPLE_CONFIGS = [(name, p, n) for name, ps in (("sl2", (5, 7, 11)), ("sl3", (5, 7, 11)),
                                                ("sp4", (7, 11)))
                  for p in ps for n in (1, 2, 3, 12)]
SAMPLE_GROUPS = {c: ChevalleyGroup(*c) for c in SAMPLE_CONFIGS}


def coordinate_vectors(G, d, rng):
    """Chart coordinates for one twist: uniform draws from 1..p^N - 1, all
    ones, p^k u for every k < N (p^(N-1) among them) and one with a 0."""
    p, mod = G.ring.p, G._mod
    vectors = [[rng.randrange(1, mod) for _ in range(d)] for _ in range(2)]
    vectors.append([1] * d)
    vectors.append([p ** (j % G.ring.prec) * rng.randrange(1, p) % mod for j in range(d)])
    vectors.append([rng.randrange(1, mod) for _ in range(d)])
    vectors[-1][rng.randrange(d)] = 0
    return vectors


@pytest.mark.parametrize("config", SAMPLE_CONFIGS, ids=lambda c: "-".join(map(str, c)))
def test_int_samples_match_scalar_from_parameters(config):
    # int coordinates in 1..p^N - 1 are multiplied out on int rows; the same
    # coordinates as scalars take the from_parameters route with scalar exp,
    # and every entry agrees in (co, prec, exact).  A 0 keeps the scalar route.
    G = SAMPLE_GROUPS[config]
    rng = Random(str(config))
    for w in G.datum.weyl_group():
        d = len(G.ordered_basis(w))
        for coords in coordinate_vectors(G, d, rng):
            fast = G.from_coordinates(coords, w)
            with scalar_route():
                ref = G.from_coordinates([G.ring.coerce(c) for c in coords], w)
            assert mat_state(fast) == mat_state(ref), (w.name, coords)
            if all(coords):
                assert fast._ints is not None  # built on int rows
                assert_flat(fast)
        with pytest.raises(ValueError, match=f"need {d} coordinates"):
            G.from_coordinates([1] * (d - 1), w)


@pytest.mark.parametrize("p,prec", [(5, 1), (5, 3), (7, 12), (11, 2)])
def test_exp_int_matches_padic_exp(p, prec):
    ring = ScalarRing(p, prec)
    rng = Random(p * prec)
    values = [1, p ** (prec - 1), p ** prec] + [rng.randrange(1, p ** prec) for _ in range(30)]
    for c in values:
        ref = padic_exp(ring.from_int(c).shift(1))
        assert padic.exp_int(p * c, ring) % p ** prec == ref.co % p ** prec


def omega_inputs(G):
    """(name, element) pairs: exact elements on the scalar route (the
    identity, whose omega is infinity, and root elements), and flat ones on
    the int path whose factors sit at the cap: the identity and a lower
    simple root element at p^(N-1), whose finite value ties with the cap
    marker of the highest upper root."""
    p, prec = G.ring.p, G.ring.prec
    out = [("identity", G.identity()), ("flat identity", flatten(G.identity())),
           ("tie", flatten(G.root_element(G.datum.simple_roots[0], p ** (prec - 1))))]
    for root in sorted(G.dirs):
        x = p if G.datum.height(root) < 0 else 1
        out += [(f"u{root}", G.root_element(root, x)),
                (f"flat u{root}", flatten(G.root_element(root, x)))]
    return out


@pytest.mark.parametrize("config", SAMPLE_CONFIGS, ids=lambda c: "-".join(map(str, c)))
def test_factorization_omega_matches_factor_list_minimum(config):
    G = SAMPLE_GROUPS[config]
    rng = Random(str(config))
    weyl = G.datum.weyl_group()
    samples = [("sample", G.from_coordinates(coords, w)) for w in weyl[:2]
               for coords in coordinate_vectors(G, len(G.ordered_basis(w)), rng)]
    for name, g in samples + omega_inputs(G):
        for w in weyl:
            fact = G.iwahori_factorize(fresh(g), w)
            assert fact.omega == PValue.min(G.omega_of_factor_list(fact)), (name, w.name)
            with scalar_route():
                ref = G.iwahori_factorize(fresh(g), w).omega
            assert fact.omega == ref, (name, w.name)
        assert G.p_valuation(g) == G.iwahori_factorize(g).omega
    assert G.p_valuation(G.identity()) == PValue.infinite()
    h, cap = G.coxeter_number, G.ring.prec
    assert G.p_valuation(flatten(G.identity())) == PValue.at_least(cap - Fraction(h - 1, h))
    tie = dict(omega_inputs(G))["tie"]
    assert tie._ints is not None
    assert G.p_valuation(tie) == PValue.finite(cap - 1 + Fraction(1, h))


def omega_full_min_ref(G, neg, diag, pos):
    """The former omega of ``_factor_ints``: the least (h * value, is a cap
    marker) over every factor, the valuation of each taken."""
    p, h, cap = G.ring.p, G.coxeter_number, G.ring.prec
    values = [((vp_int(x, p) if x else cap) * h + off, not x) for x, off in
              [(x, G._height[r]) for r, x in neg + pos] + [(d - 1, 0) for d in diag]]
    best, at_cap = min(values)
    return PValue("at_least" if at_cap else "finite", Fraction(best, h)), values


@pytest.mark.parametrize("config", SAMPLE_CONFIGS, ids=lambda c: "-".join(map(str, c)))
def test_running_bound_omega_matches_the_full_minimum(config):
    # every twist, on samples and on flat elements at the cap: the identity
    # (all cap markers) and the "tie" input, whose least finite value ties a
    # cap marker
    G = SAMPLE_GROUPS[config]
    rng = Random(f"omega-{config}")
    d = len(G.dirs) + G.datum.rank
    seen = set()
    for w in G.datum.weyl_group():
        plan = G._factor_plan(w, "lex")
        elements = [G.from_coordinates(c, w) for c in coordinate_vectors(G, d, rng)]
        for ints in [flatten(g)._ints for g in elements + [g for _n, g in omega_inputs(G)]]:
            neg, _coords, diag, pos, omega = G._factor_ints(ints, plan)
            ref, values = omega_full_min_ref(G, neg, diag, pos)
            assert omega == ref, (w.name, ints)
            least = min(v for v, _cap in values)
            seen.add(ref.kind)
            if {(least, False), (least, True)} <= set(values):
                seen.add("tie")
    assert seen == {"finite", "at_least", "tie"}


@pytest.mark.parametrize("config", SAMPLE_CONFIGS, ids=lambda c: "-".join(map(str, c)))
def test_int_samples_outside_the_iwahori_raise_membership_error(config):
    G = SAMPLE_GROUPS[config]
    g = G.from_coordinates([1] * len(G.ordered_basis()))
    for k in range(G.ring.prec):
        rows = [list(row) for row in g.mat]
        rows[0][0] = rows[0][0] + G.ring.p ** k
        h = GroupElement(G, tuple(tuple(row) for row in rows))
        assert h._ints is not None
        with pytest.raises(MembershipError):
            G.p_valuation(h)
        for w in G.datum.weyl_group():
            with pytest.raises(MembershipError):
                G.iwahori_factorize(h, w)
    for _message, h in relation_keeping_non_members(G):
        with pytest.raises(MembershipError):
            G.p_valuation(h)


# -- exp and log on one int -------------------------------------------------------


@st.composite
def exp_log_inputs(draw):
    p = draw(st.sampled_from((5, 7, 11)))
    prec = draw(st.sampled_from((1, 4, 12, 20)))
    ring = ScalarRing(p, prec)
    kind = draw(st.sampled_from(("exact_zero", "cap_zero", "p_power", "unit", "exact", "any")))
    mod = p ** prec
    if kind == "exact_zero":
        return PadicScalar(ring, 0, prec, True)
    if kind == "cap_zero":
        return PadicScalar(ring, 0, prec, False)
    if kind == "p_power":
        k = draw(st.integers(min_value=1, max_value=prec + 1))
        return PadicScalar(ring, p ** k * draw(st.integers(1, p - 1)) % mod, prec, False)
    if kind == "unit":
        return PadicScalar(ring, draw(st.integers(1, p - 1)), prec, False)
    co = draw(st.integers(min_value=0, max_value=mod - 1))
    return PadicScalar(ring, co, prec, kind == "exact")


@seed(20231)
@settings(max_examples=400, deadline=None)
@given(exp_log_inputs())
def test_exp_log_int_loops_match_scalar_loops(x):
    one = x.ring.one(x.prec)
    fast = (outcome(padic_exp, x), outcome(padic_log, x), outcome(padic_log, one + x))
    with scalar_route():
        ref = (outcome(padic_exp, x), outcome(padic_log, x), outcome(padic_log, one + x))
    assert fast == ref


def test_exp_log_edge_cases_agree():
    # exact zero, zero at the cap and the domain errors, on both loops
    for prec in (1, 4, 12, 20):
        ring = ScalarRing(7, prec)
        cases = [ring.zero(prec, exact=True), ring.zero(prec, exact=False),
                 ring.from_int(3, prec), ring.one(prec), ring.from_int(7, prec)]
        fast = [(outcome(padic_exp, x), outcome(padic_log, x)) for x in cases]
        with scalar_route():
            ref = [(outcome(padic_exp, x), outcome(padic_log, x)) for x in cases]
        assert fast == ref
        assert fast[2][0][0] is DomainError and fast[0][1][0] is DomainError


@pytest.mark.parametrize("p,prec", [(5, 1), (5, 4), (7, 4), (7, 12), (11, 20)])
def test_exp_log_loops_raise_the_same_precision_error(p, prec):
    # with too few guard digits the division by p^v runs out of digits or
    # meets a non-multiple of p: both loops raise the same PrecisionError
    ring = ScalarRing(p, prec)
    x = ring.from_int(p * (p - 1), prec)
    seen = set()
    for nmax in (p, p * p, p * p * p):
        for buf in (1, 2, prec):
            for loop, ref in ((padic._exp_loop, exp_loop_ref), (padic._log_loop, log_loop_ref)):
                fast = outcome(loop, x.co, ring, nmax, buf)
                assert fast == outcome(ref, x.co, ring, nmax, buf)
                seen.add(fast[0] if isinstance(fast, tuple) else "value")
    assert PrecisionError in seen


# -- the scalar Sp4 inverse -------------------------------------------------------


def sp4_inv_ref(g):
    """The former scalar route of ``GroupElement.inv`` on Sp4, kept as a
    differential reference: -J g^T J as two products with the Gram matrix,
    each entry accumulated from an exact ring zero."""
    group = g.group
    n = group.n
    jmat = GRAM
    gt = [[g.mat[j][i] for j in range(n)] for i in range(n)]
    tmp = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = group.ring.zero(exact=True)
            for k in range(n):
                if jmat[i][k]:
                    acc = acc + (gt[k][j] if jmat[i][k] == 1 else -gt[k][j])
            tmp[i][j] = acc
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = group.ring.zero(exact=True)
            for k in range(n):
                if jmat[k][j]:
                    acc = acc + (tmp[i][k] if jmat[k][j] == 1 else -tmp[i][k])
            out[i][j] = -acc
    return [[state(e) for e in row] for row in out]


def root_products(G, rng):
    """A product of up to six root elements with parameters 0, +-1, p or a
    random value; its entries are exact, or inexact at the ring precision
    where a negative value was reduced."""
    p, prec = G.ring.p, G.ring.prec
    g = G.identity()
    for _ in range(rng.randint(1, 6)):
        x = rng.choice((0, 1, -1, p, rng.randrange(-p ** (prec + 1), p ** (prec + 1))))
        g = g * G.root_element(rng.choice(sorted(G.dirs)), x)
    return g


def reread(e, how, rng):
    """e truncated below the ring precision, made inexact, or rebuilt with
    its digits claimed above it (exact entries stay exact there)."""
    prec = e.ring.prec
    if how == "truncated":
        return e.truncate(rng.randint(1, max(1, min(e.prec, prec - 1))))
    if how == "inexact":
        return PadicScalar(e.ring, e.co, e.prec, False)
    return PadicScalar(e.ring, e.co, prec + rng.randint(1, 3), e.exact)


@pytest.mark.parametrize("p,prec", [(7, 12), (7, 3), (11, 5)])
def test_sp4_scalar_inverse_matches_the_gram_products(p, prec):
    G = ChevalleyGroup("sp4", p=p, prec=prec)
    rng = Random(p * 100 + prec)
    exact_in = inexact_out = 0
    for k in range(300):
        g = root_products(G, rng)
        how = ("as_is", "truncated", "inexact", "above")[k % 4]
        rows = [list(row) for row in g.mat]
        if how != "as_is":
            for _ in range(rng.randint(1, 8)):
                i, j = rng.randrange(4), rng.randrange(4)
                rows[i][j] = reread(rows[i][j], how, rng)
        # no int rows, so inv takes the scalar route whatever the entries
        h = GroupElement(G, tuple(tuple(row) for row in rows), None)
        got = mat_state(h.inv())
        assert got == sp4_inv_ref(h), (how, mat_state(h))
        exact_in += any(e.exact and e.co for row in h.mat for e in row)
        inexact_out += all(not e[2] for row in got for e in row if e[0])
    assert exact_in > 100 and inexact_out == 300


# -- signed powers ------------------------------------------------------------------


def pow_ref(x, n):
    """The former ``PadicScalar.__pow__``, kept as a differential reference:
    the ladder starts from one(prec) and squares after every bit."""
    if n < 0:
        return pow_ref(x.inv(), -n)
    result = x.ring.one(x.prec)
    base = x
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def torus_element_ref(G, mu, c):
    """The former ``ChevalleyGroup.torus_element`` diagonal, with its
    inverse kept by hand."""
    c = G.ring.coerce(c)
    exps = G.exponents(mu)
    cinv = None
    diag = []
    for e in exps:
        if e >= 0:
            diag.append(pow_ref(c, e))
        else:
            if cinv is None:
                cinv = c.inv()
            diag.append(pow_ref(cinv, -e))
    return diag


def torus_diagonal_ref(G, torus_coords):
    """The former ``ChevalleyGroup.torus_diagonal``."""
    diag = [G.ring.one() for _ in range(G.n)]
    for mu_i, s in zip(G.datum.cochar_basis, torus_coords):
        s = G.ring.coerce(s)
        exps = G.exponents(mu_i)
        sinv = None
        for k, e in enumerate(exps):
            if e > 0:
                diag[k] = diag[k] * (s if e == 1 else pow_ref(s, e))
            elif e < 0:
                if sinv is None:
                    sinv = s.inv()
                diag[k] = diag[k] * (sinv if e == -1 else pow_ref(sinv, -e))
    return diag


def point_from_cocharacter_ref(mu_vec, c):
    """The former ``SeriesContext.point_from_cocharacter``."""
    cinv = None
    vals = []
    for e in mu_vec:
        if e >= 0:
            vals.append(pow_ref(c, e))
        else:
            if cinv is None:
                cinv = c.inv()
            vals.append(pow_ref(cinv, -e))
    return tuple(vals)


def root_value_ref(ring, root, point):
    """The former ``SeriesContext.root_value``."""
    out = ring.one()
    invs = {}
    for i, e in enumerate(root):
        if e > 0:
            out = out * pow_ref(point[i], e)
        elif e < 0:
            if i not in invs:
                invs[i] = point[i].inv()
            out = out * pow_ref(invs[i], -e)
    return out


POWER_RINGS = [ScalarRing(P, N), ScalarRing(P, 3)]
EXPONENTS = range(-4, 10)


def draw_scalar(ring, rng, kind, prec=None):
    """An exact unit, an inexact unit, an exact or inexact non-unit or a
    zero, at the given precision or at one drawn below, at or above the ring
    precision."""
    if prec is None:
        prec = rng.randint(1, ring.prec + 2)
    if kind in ("exact_zero", "cap_zero"):
        return ring.zero(prec, exact=kind == "exact_zero")
    co = rng.randrange(ring.ppow(prec))
    co -= co % P
    if kind not in ("non_unit", "exact_non_unit"):
        co += rng.randint(1, P - 1)
    return PadicScalar(ring, co, prec, kind in ("exact", "exact_non_unit"))


@pytest.mark.parametrize("ring", POWER_RINGS, ids=lambda r: f"m1-N{r.prec}")
def test_pow_matches_the_former_ladder(ring):
    rng = Random(100 + ring.prec)
    for k in range(200):
        kind = ("exact", "inexact", "non_unit", "exact_zero", "cap_zero")[k % 5]
        x = draw_scalar(ring, rng, kind)
        for e in EXPONENTS:
            got = outcome(lambda: x ** e)
            assert got == outcome(pow_ref, x, e), (kind, state(x), e)


@pytest.mark.parametrize("ring", POWER_RINGS, ids=lambda r: f"m1-N{r.prec}")
@pytest.mark.parametrize("name", ["sl2", "sl3", "sp4"])
def test_torus_helpers_match_the_hand_kept_inverses(name, ring):
    G = ChevalleyGroup(name, P, ring.prec)
    ctx = SeriesContext(G)
    rng = Random(f"{name}-1-{ring.prec}")
    dim = len(G.datum.cochar_basis[0])
    for k in range(40):
        units = [draw_scalar(ring, rng, ("exact", "inexact")[(k + i) % 2]) for i in range(dim)]
        c = units[0]
        mu = tuple(rng.choice(EXPONENTS) for _ in range(dim))
        t = G.torus_element(mu, c)
        got = [state(t.mat[i][i]) for i in range(G.n)]
        assert got == [state(d) for d in torus_element_ref(G, mu, c)]
        diag = G.torus_diagonal(units[:G.datum.rank])
        assert [state(d) for d in diag] == [state(d) for d in
                                            torus_diagonal_ref(G, units[:G.datum.rank])]
        got = [state(s) for s in G._torus_coords_from_diag(diag)]
        assert got == [state(s) for s in recipe_coords(G, diag)]
        point = ctx.point_from_cocharacter(mu, c)
        assert [state(a) for a in point] == [state(a) for a in point_from_cocharacter_ref(mu, c)]


# -- exact-zero operands of add and sub -------------------------------------------


def add_shortcut_ref(self, other):
    """The former generic route of ``PadicScalar.__add__``, whose exact-zero
    shortcuts the m = 1 branch took over, kept verbatim as a reference."""
    if self.is_exact_zero:
        return other if other.prec <= self.prec else other.truncate(self.prec)
    if other.is_exact_zero:
        return self if self.prec <= other.prec else self.truncate(other.prec)
    prec = min(self.prec, other.prec)
    return self.ring.canonical(self.co + other.co, prec, self.exact and other.exact)


def sub_shortcut_ref(self, other):
    """The former generic route of ``PadicScalar.__sub__``, kept verbatim."""
    if other.is_exact_zero:
        return self if self.prec <= other.prec else self.truncate(other.prec)
    prec = min(self.prec, other.prec)
    return self.ring.canonical(self.co - other.co, prec, self.exact and other.exact)


@pytest.mark.parametrize("ring", [Zp], ids=lambda r: f"m1-N{r.prec}")
def test_add_sub_with_zero_operands_match_the_former_shortcuts(ring):
    rng = Random(1)
    precs = (N - 3, N, N + 2)  # below, at and above the ring precision
    zeros = [ring.zero(prec, exact) for prec in precs for exact in (True, False)]
    others = [draw_scalar(ring, rng, kind, prec) for prec in precs for _ in range(3)
              for kind in ("exact", "inexact", "exact_non_unit", "non_unit")]
    for z in zeros:
        for x in zeros + others:
            for a, b in ((z, x), (x, z)):
                assert state(a + b) == state(add_shortcut_ref(a, b)), (state(a), state(b))
                assert state(a - b) == state(sub_shortcut_ref(a, b)), (state(a), state(b))


# -- shift by k digits in one step -------------------------------------------------


def shift_up_ref(self):
    """The former ``PadicScalar._shift_up``, kept verbatim as a reference."""
    return self.ring.canonical(self.ring.p * self.co, self.prec + 1, self.exact)


def shift_down_ref(self):
    """The former ``PadicScalar._shift_down``, kept verbatim."""
    p = self.ring.p
    if self.prec < 1:
        raise PrecisionError("no digits left to divide by the uniformizer")
    if self.co % p:
        raise PrecisionError("not divisible by the uniformizer")
    return self.ring.canonical(self.co // p, self.prec - 1, self.exact)


def shift_ref(self, k):
    """The former ``PadicScalar.shift``: one digit per step."""
    if self.is_exact_zero:
        return self.ring.zero(max(1, self.prec + k), exact=True)
    x = self
    for _ in range(k):
        x = shift_up_ref(x)
    for _ in range(-k):
        x = shift_down_ref(x)
    return x


def p_power(ring, j, prec, exact, rng):
    """A unit times p**j at precision prec: a value at the cap for
    j = prec - 1, a cap zero (or an exact non-zero) beyond it."""
    return ring.canonical(rng.randint(1, P - 1) * P ** j, prec, exact)


SHIFT_RINGS = [ScalarRing(P, N), ScalarRing(P, 3), ScalarRing(P, 1)]


@pytest.mark.parametrize("ring", SHIFT_RINGS, ids=lambda r: f"m1-N{r.prec}")
def test_shift_matches_the_former_steps(ring):
    rng = Random(1000 + ring.prec)
    values = [ring.zero(prec, exact) for prec in range(ring.prec + 3) for exact in (True, False)]
    for prec in range(1, ring.prec + 3):
        for j in range(prec + 1):
            values += [p_power(ring, j, prec, exact, rng) for exact in (True, False)]
        values += [draw_scalar(ring, rng, kind, prec)
                   for kind in ("exact", "inexact", "exact_non_unit", "non_unit")]
    errors = set()
    for x in values:
        for k in range(-(ring.prec + 2), ring.prec + 3):
            want = outcome(shift_ref, x, k)
            assert outcome(x.shift, k) == want, (state(x), k)
            if want[0] is PrecisionError:
                errors.add(want[1])
    assert errors == {"no digits left to divide by the uniformizer",
                      "not divisible by the uniformizer"}
