"""Acceptance suite: one test per criterion, exact comparisons throughout,
with the stated sample counts and runtime ceilings.  Each test prints one
PASS/FAIL line (run pytest with -s to see them live).

Criterion 1 carries one expected failure, marked xfail(strict): the
traditionally quoted fourth simplicity expression "2*c1 + 2" is
inconsistent with the torus chart, half-sum and Cartan matrices used
here, which force c1 + 2 (see README, Install and test).  Every
internally consistent clause of criterion 1 is asserted and passes.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from iwahori.axioms import (
    check_compatibility_all_w,
    check_oracle_agreement,
    check_pvaluation_axioms,
)
from iwahori.groups import ChevalleyGroup, PValue
from iwahori.padic import INF, padic_exp, vp_fraction, vp_int
from iwahori.roots import get_root_datum
from iwahori.series import (
    Character,
    SeriesContext,
    TruncatedSeries,
    adapted_lie_data,
    constants_limit_check,
    haar_obstruction,
    hida_projector,
    lie_action,
    slope_exact,
    slope_split,
    torus_action,
)
from iwahori.verma import (
    DerivedCharacter,
    WeightLabel,
    bgg_simple,
    sp4_conditions,
    summand_inventory,
    weight_multiplicity,
)

P = 7
N = 12


def report(number, elapsed, limit, detail):
    print(f"ACCEPTANCE-{number:<3} PASS  ({elapsed:6.2f}s < {limit}s)  {detail}")


def random_bounded_index(rng, nvars, degree):
    """A multi-index with total degree <= degree, spread over all slots."""
    total = rng.randrange(degree + 1)
    cuts = sorted(rng.randrange(total + 1) for _ in range(nvars - 1))
    parts = []
    prev = 0
    for c in cuts + [total]:
        parts.append(c - prev)
        prev = c
    return tuple(parts)


# -- criterion 1: the symplectic golden suite ---------------------------------


def test_acceptance_01_sp4_golden_suite():
    t0 = time.time()
    datum = get_root_datum("sp4")
    assert datum.coxeter_number() == 4
    alpha, beta = (1, -1), (0, 2)
    assert set(datum.positive_roots) == {alpha, beta,
                                         (1, 1), (2, 0)}  # a, b, a+b, 2a+b
    assert datum.delta == (Fraction(2), Fraction(1))  # delta(t_{a,b}) = a^2 b

    rng = random.Random(101)
    for _ in range(100):
        c1 = Fraction(rng.randrange(-40, 41), rng.choice([1, 2, 3, 5, 7]))
        c2 = Fraction(rng.randrange(-40, 41), rng.choice([1, 2, 3, 5, 7]))
        # sp4_conditions raises unless the explicit Cartan path and the
        # generic pairing path agree identically
        vals = sp4_conditions(c1, c2)
        assert vals[0] == c1 - c2 + 1
        assert vals[1] == c2 + 1
        assert vals[2] == c1 + c2 + 3
        # the long-root value forced by the chart data
        assert vals[3] == c1 + 2

    simple, _ = bgg_simple(DerivedCharacter.of("sp4", 0, 0))
    assert not simple
    assert sp4_conditions(0, 0) == (1, 1, 3, 2)

    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, elapsed, 1, "golden suite: h, roots, delta, conditions, verdict")


@pytest.mark.xfail(strict=True,
                   reason="the quoted fourth expression 2*c1+2 contradicts the "
                          "chart t_{a,b} = diag(a,b,1/b,1/a), delta = a^2 b and "
                          "the Cartan matrix diag(1,0,0,-1), which force c1+2; "
                          "no torus-algebra element pairs to (2*c1, 2); "
                          "kept failing by design, see README")
def test_acceptance_01_fourth_expression_as_published():
    value = sp4_conditions(Fraction(1, 2), Fraction(1, 3))[3]
    print("ACCEPTANCE-1x  FAIL-as-stated: fourth expression is "
          f"{value}, the published form would be {2 * Fraction(1, 2) + 2}")
    assert value == 2 * Fraction(1, 2) + 2


# -- criterion 2: the p-valuation axioms --------------------------------------


@pytest.mark.parametrize("group", ["sl2", "sl3", "sp4"])
def test_acceptance_02_pvaluation_axioms(group):
    t0 = time.time()
    rep = check_pvaluation_axioms(ChevalleyGroup(group, p=P, prec=N), 1000, seed=1)
    elapsed = time.time() - t0
    assert rep.total_failures == 0, rep.failures[:3]
    total = sum(c.passed + c.failed + c.skipped for c in rep.axioms.values())
    assert rep.total_skipped / total < 0.02
    assert elapsed < 30
    report(2, elapsed, 30, f"{group}: 1000 samples, 4 axioms, "
                           f"{rep.total_skipped} skipped at cap")


# -- criterion 3: formula versus conjugation oracle -----------------------------


def test_acceptance_03_oracle_agreement():
    t0 = time.time()
    for group in ("sl2", "sl3", "sp4"):
        rep = check_oracle_agreement(ChevalleyGroup(group, p=P, prec=N), 200, seed=2)
        assert rep.total_failures == 0, (group, rep.failures[:3])
    elapsed = time.time() - t0
    assert elapsed < 60
    report(3, elapsed, 60, "omega formula = conjugation oracle, 200 samples x 3 groups")


# -- criterion 4: round trips and the coordinate minimum formula -----------------


@pytest.mark.parametrize("group", ["sl2", "sl3", "sp4"])
def test_acceptance_04_basis_round_trip_and_min_formula(group):
    t0 = time.time()
    G = ChevalleyGroup(group, p=P, prec=N)
    weyl = G.datum.weyl_group()
    checked = 0
    for w in weyl:
        basis = G.ordered_basis(w)
        omegas = basis.omegas()
        rng = random.Random(400 + len(w.word))
        for _ in range(200):
            coords = [rng.randrange(P ** N) for _ in range(len(basis))]
            g = G.from_coordinates(coords, w)
            back = G.coordinates(g, w)
            assert G.from_coordinates(back, w) == g  # equality at precision N
            vals = [Fraction(vp_int(x, P)) + om if x else None
                    for x, om in zip(coords, omegas)]
            finite = [v for v in vals if v is not None]
            if not finite or min(finite) >= N - 1:
                continue  # cap-adjacent draw, not a comparison
            assert G.p_valuation(g) == PValue.finite(min(finite))
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60
    report(4, elapsed, 60,
           f"{group}: 200 round trips per w ({len(weyl)} w), {checked} min-formula checks")


# -- criterion 5: compatibility for every Weyl twist ----------------------------


@pytest.mark.parametrize("group", ["sl2", "sl3", "sp4"])
def test_acceptance_05_weyl_compatibility(group):
    t0 = time.time()
    rep = check_compatibility_all_w(ChevalleyGroup(group, p=P, prec=N), 100, seed=5)
    elapsed = time.time() - t0
    assert rep.total_failures == 0, rep.failures[:3]
    for name, counts in rep.axioms.items():
        assert counts.passed > 0, name
    assert elapsed < 60
    report(5, elapsed, 60, f"{group}: factor-minimum identity, 100 samples x "
                           f"{len(rep.axioms)} Weyl elements")


# -- criterion 6: eigenfunction identity and finite differences ------------------


def test_acceptance_06_lie_eigenfunctions():
    t0 = time.time()
    datum = get_root_datum("sp4")
    chi = Character.from_rationals(2, 3)
    grid = [idx for idx in itertools.product(range(13), repeat=4) if sum(idx) <= 12]
    for w in datum.weyl_group():
        ctx = SeriesContext("sp4", w=w, p=P, prec=N)
        dchi, droots = adapted_lie_data(ctx, chi)
        f = TruncatedSeries(ctx, {idx: Fraction(1) for idx in grid}, 12)
        hf = lie_action(f, dchi, droots)
        for idx in grid:
            eig = dchi - sum(d * i for d, i in zip(droots, idx))
            assert hf.coeffs.get(idx, Fraction(0)) == eig
    # finite-difference cross-check on one chart per Weyl length parity
    for w in (datum.identity_weyl(), datum.weyl_group()[5]):
        ctx = SeriesContext("sp4", w=w, p=P, prec=N)
        dchi, droots = adapted_lie_data(ctx, chi)
        rng = random.Random(6)
        coeffs = {idx: Fraction(rng.randrange(-20, 21))
                  for idx in rng.sample(grid, 60)}
        f = TruncatedSeries(ctx, coeffs, 12)
        hf = lie_action(f, dchi, droots)
        for k in range(3, 7):
            c = padic_exp(ctx.ring.from_int(P ** k))
            tf = torus_action(f, ctx.point_from_cocharacter(ctx.mu, c), chi)
            for idx, b in f.coeffs.items():
                diff = (tf.coeffs[idx] - b).shift(-k) - hf.coeffs.get(idx, Fraction(0))
                v = diff.val()
                assert v is None or v is INF or v >= k, (idx, k, v)
    elapsed = time.time() - t0
    assert elapsed < 30
    report(6, elapsed, 30, f"all {len(grid)} monomials |I| <= 12, 8 Weyl charts, "
                           "difference quotients k = 3..6")


# -- criterion 7: projector convergence ------------------------------------------


@pytest.mark.parametrize("group", ["sl2", "sp4"])
def test_acceptance_07_projector_convergence(group):
    t0 = time.time()
    ctx = SeriesContext(group, p=P, prec=N)
    rng = random.Random(7)
    degree = 30
    for s in (0, 1, 2):
        for _ in range(50):
            coeffs = {}
            for _ in range(25):
                idx = random_bounded_index(rng, ctx.nvars, degree)
                coeffs[idx] = Fraction(rng.choice([1, 2, 3, -1, -2]) * P ** rng.randrange(4))
            f = TruncatedSeries(ctx, coeffs, degree)
            below, atleast = slope_split(f, s)
            # exact split algebra
            assert below + atleast == f
            b2, a2 = slope_split(atleast, s)
            assert b2.is_zero() and a2 == atleast
            assert slope_split(below, s)[1].is_zero()
            if atleast.is_zero():
                continue
            target = slope_exact(atleast, s)
            base = atleast.gauss_valuation()
            for n in range(1, 6):
                err = (hida_projector(atleast, s, n) - target).gauss_valuation()
                if err.kind == "infinite":
                    continue
                bound = base.value + 1 + vp_fraction(math.factorial(n), P)
                assert err.kind == "finite" and err.value >= bound, (s, n, err)
    elapsed = time.time() - t0
    assert elapsed < 60
    report(7, elapsed, 60, f"{group}: slopes 0..2, iterates n = 1..5, 50 series each")


# -- criterion 8: constants in every tail -----------------------------------------


@pytest.mark.parametrize("group", ["sl2", "sp4"])
def test_acceptance_08_constants_limit(group):
    t0 = time.time()
    ctx = SeriesContext(group, p=P, prec=N)
    rng = random.Random(8)
    degree = 30
    threshold = 0
    while P ** threshold <= degree * ctx.max_weight():
        threshold += 1
    for _ in range(50):
        coeffs = {ctx.zero_index(): Fraction(rng.choice([1, 2, 3, 5]))}
        for _ in range(20):
            idx = random_bounded_index(rng, ctx.nvars, degree)
            if sum(idx) > 0:
                coeffs[idx] = Fraction(rng.randrange(-10, 11) * P ** rng.randrange(3),
                                       rng.choice([1, 2, 3]))
        f = TruncatedSeries(ctx, coeffs, degree)
        rep = constants_limit_check(f)
        assert rep["ok"], rep
        assert rep["threshold"] == threshold
        assert rep["exact_from"] <= threshold
    elapsed = time.time() - t0
    assert elapsed < 30
    report(8, elapsed, 30, f"{group}: 50 series at degree 30, exact from s = "
                           f"{threshold}, monotone before")


# -- criterion 9: no invariant functional ------------------------------------------


def test_acceptance_09_haar_obstruction():
    t0 = time.time()
    rep = haar_obstruction(25)
    assert rep["ok"] and rep["zero_functional_only"]
    assert all(x == "0" for x in rep["solution"])
    assert len(rep["solution"]) == 26
    elapsed = time.time() - t0
    assert elapsed < 5
    report(9, elapsed, 5, "degree 25: unique exact solution is the zero functional")


# -- criterion 10: multiplicities against brute force --------------------------------


@pytest.mark.parametrize("group", ["sp4", "sl3"])
def test_acceptance_10_verma_multiplicities(group):
    t0 = time.time()
    datum = get_root_datum(group)
    dchi = DerivedCharacter.of(group, *[Fraction(1, 2)] * datum.dim)
    w = datum.identity_weyl()
    simples = datum.simple_roots
    # every cone point of height <= 10 (simple-root coefficients)
    cone = []
    for coeffs in itertools.product(range(11), repeat=len(simples)):
        if 0 < sum(coeffs) <= 10:
            tau = tuple(sum(c * s[k] for c, s in zip(coeffs, simples))
                        for k in range(datum.dim))
            if tau not in cone:
                cone.append(tau)
    checked = 0
    for tau in cone:
        lam = WeightLabel(group, tuple(d - t for d, t in zip(dchi.coeffs, tau)))
        got = weight_multiplicity(dchi, lam, w)
        want = brute_force(datum, dchi, lam, w, 10)
        assert got == want, (tau, got, want)
        checked += 1
    # off-cone weights count zero
    assert weight_multiplicity(
        dchi, WeightLabel(group, tuple(c + 1 for c in dchi.coeffs)), w) == 0
    elapsed = time.time() - t0
    assert elapsed < 30
    report(10, elapsed, 30, f"{group}: {checked} cone weights, solver == enumeration")


def brute_force(datum, dchi, lam, w, max_total):
    roots = [datum.act_root(w, r) for r in datum.positive_roots]
    target = tuple(a - b for a, b in zip(dchi.coeffs, lam.coeffs))
    count = 0
    for m in itertools.product(range(max_total + 1), repeat=len(roots)):
        if sum(m) > max_total:
            continue
        vec = tuple(sum(mi * r[k] for mi, r in zip(m, roots))
                    for k in range(datum.dim))
        if all(Fraction(v) == t for v, t in zip(vec, target)):
            count += 1
    return count


# -- criterion 11: pairwise root-set separation ----------------------------------------


def test_acceptance_11_multiplicity_one_combinatorics():
    t0 = time.time()
    pairs_checked = 0
    for group in ("sl2", "sl3", "sp4"):
        datum = get_root_datum(group)
        weyl = datum.weyl_group()
        inv = summand_inventory(group)
        for w in weyl:
            for w2 in weyl:
                if w == w2:
                    assert not datum.intersection_nonempty(w, w2)
                else:
                    assert datum.intersection_nonempty(w, w2)
                    witness = inv["witnesses"][(w.name, w2.name)]
                    plus = {datum.act_root(w, r) for r in datum.positive_roots}
                    minus = {datum.act_root(w2, r) for r in datum.negative_roots}
                    assert witness in plus and witness in minus
                    pairs_checked += 1
    assert pairs_checked == 56 + 30 + 2
    elapsed = time.time() - t0
    assert elapsed < 1
    report(11, elapsed, 1, "all ordered pairs in Sp4 (56), SL3 (30), SL2 (2)")
