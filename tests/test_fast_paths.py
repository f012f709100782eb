"""Differential tests: each fast path against the route it replaced.

* m = 1 scalar arithmetic against the generic route through
  ``ScalarRing.canonical``, written out here as a reference;
* the six-entry Sp4 relation check against the full product g^T J g = J;
* the scalar torus rebuild against the product of torus elements.

Hypothesis runs with fixed seeds, so every run draws the same examples.
"""

from random import Random

from hypothesis import given, seed, settings, strategies as st

from iwahori.axioms import sample_iwahori
from iwahori.groups import ChevalleyGroup, GroupElement
from iwahori.padic import InternalError, PadicScalar, ScalarRing

P, N = 7, 12
Zp = ScalarRing(P, 1, N)


# -- m = 1 scalar arithmetic ---------------------------------------------------


def canonical_ref(raw, prec, exact):
    """(co, prec, exact) of ScalarRing.canonical for m = 1, generic route."""
    k = prec if prec > 0 else 0
    red = raw % P ** k if k else 0
    return ((red,), prec, exact and red == raw)


def state(x):
    return (x.co, x.prec, x.exact)


def is_exact_zero_ref(x):
    return x.exact and not any(x.co)


def keep_or_truncate(x, prec):
    return state(x) if x.prec <= prec else canonical_ref(x.co[0], prec, x.exact)


def add_ref(x, y):
    if is_exact_zero_ref(x):
        return keep_or_truncate(y, x.prec)
    if is_exact_zero_ref(y):
        return keep_or_truncate(x, y.prec)
    return canonical_ref(x.co[0] + y.co[0], min(x.prec, y.prec), x.exact and y.exact)


def sub_ref(x, y):
    if is_exact_zero_ref(y):
        return keep_or_truncate(x, y.prec)
    return canonical_ref(x.co[0] - y.co[0], min(x.prec, y.prec), x.exact and y.exact)


def mul_ref(x, y):
    if is_exact_zero_ref(x) or is_exact_zero_ref(y):
        return ((0,), min(x.prec, y.prec), True)
    return canonical_ref(x.co[0] * y.co[0], min(x.prec, y.prec), x.exact and y.exact)


def neg_ref(x):
    return canonical_ref(-x.co[0], x.prec, x.exact)


def eq_ref(x, y):
    prec = min(x.prec, y.prec)
    return canonical_ref(x.co[0], prec, False)[0] == canonical_ref(y.co[0], prec, False)[0]


@st.composite
def scalars(draw):
    """Canonical m = 1 scalars: exact zeros, zeros at the cap, values with
    many trailing zero digits, exact small integers, mixed precisions (also
    above and below the ring precision)."""
    prec = draw(st.integers(min_value=0, max_value=N + 3))
    kind = draw(st.sampled_from(("exact_zero", "cap_zero", "p_power", "exact", "any")))
    mod = P ** prec
    if kind == "exact_zero":
        return PadicScalar(Zp, (0,), prec, True)
    if kind == "cap_zero":
        return PadicScalar(Zp, (0,), prec, False)
    if kind == "p_power":
        co = (P ** draw(st.integers(min_value=0, max_value=N + 3))
              * draw(st.integers(min_value=1, max_value=P - 1))) % mod
        return PadicScalar(Zp, (co,), prec, False)
    co = draw(st.integers(min_value=0, max_value=max(0, mod - 1)))
    return PadicScalar(Zp, (co,), prec, kind == "exact")


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
    coords = []
    for recipe in G.torus_recipe:
        s = G.ring.one()
        for idx, e in recipe:
            s = s * (diag[idx] if e == 1 else diag[idx].inv() ** (-e))
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
