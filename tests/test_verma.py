import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from iwahori.roots import WeylElement, get_root_datum
from iwahori.verma import (
    DerivedCharacter,
    WeightLabel,
    bgg_simple,
    bgg_simple_twisted,
    is_positive_integer,
    sp4_conditions,
    summand_inventory,
    weight_multiplicity,
    weyl_twist,
)


def brute_force_multiplicity(datum, dchi, lam, w, max_total=14):
    """Independent oracle: enumerate all multi-indices up to a total bound."""
    roots = [datum.act_root(w, r) for r in datum.positive_roots]
    n = len(roots)
    target = tuple(a - b for a, b in zip(dchi.coeffs, lam.coeffs))
    count = 0
    for m in itertools.product(range(max_total + 1), repeat=n):
        if sum(m) > max_total:
            continue
        vec = tuple(sum(mi * r[k] for mi, r in zip(m, roots)) for k in range(datum.dim))
        if all(Fraction(v) == t for v, t in zip(vec, target)):
            count += 1
    return count


def _walk_multiplicity(dchi: DerivedCharacter, lam, w=None, block_dim: int = 1) -> int:
    """The former ``weight_multiplicity``, kept as a differential reference:
    a depth-first walk over every slot of every w-twisted positive root on
    Fraction vectors, bounded by the pairing with the w-adapted cocharacter
    and rejected only at the leaf."""
    datum = dchi.datum
    if w is None:
        w = datum.identity_weyl()
    lam_coeffs = lam.coeffs if hasattr(lam, "coeffs") else tuple(Fraction(c) for c in lam)
    target = tuple(a - b for a, b in zip(dchi.coeffs, lam_coeffs))
    roots = [datum.act_root(w, r) for r in datum.positive_roots]
    # bound the search by pairing with the w-adapted cocharacter
    mu, a = datum.adapted_cocharacter(w)
    total = sum((t * m for t, m in zip(target, mu)), Fraction(0))
    if total.denominator != 1 or total < 0:
        return 0
    total = int(total)
    weights = [a * datum.height(r) for r in datum.positive_roots]
    # depth-first count of lattice points; the pairing total bounds every slot
    count = 0
    stack = [(0, target, total, 1)]
    while stack:
        r, vec, tot, mult = stack.pop()
        if r == len(roots):
            if all(x == 0 for x in vec) and tot == 0:
                count += mult
            continue
        cap = tot // weights[r]
        for m in range(cap + 1):
            rest = tuple(x - m * c for x, c in zip(vec, roots[r]))
            factor = comb(m + block_dim - 1, block_dim - 1)
            stack.append((r + 1, rest, tot - m * weights[r], mult * factor))
    return count


def _cone_weight(datum, w, rng, height):
    """A random sum of w-twisted positive roots whose heights add to height."""
    ks = [0] * len(datum.positive_roots)
    left = height
    while left:
        i = rng.choice([i for i, r in enumerate(datum.positive_roots)
                        if datum.height(r) <= left])
        ks[i] += 1
        left -= datum.height(datum.positive_roots[i])
    vec = [0] * datum.dim
    for k, r in zip(ks, datum.positive_roots):
        vec = [v + k * c for v, c in zip(vec, datum.act_root(w, r))]
    return vec


def _sweep_targets(datum, w, rng):
    """Differences dchi - lam for the sweep: w-twisted cone weights of height
    0..12, their half-integral shifts, their negatives, and (SL_n) shifts off
    the root span."""
    targets = []
    for height in range(13):
        vec = _cone_weight(datum, w, rng, height)
        targets.append(tuple(Fraction(v) for v in vec))
        if height % 3 == 1:
            targets.append(tuple(-Fraction(v) for v in vec))
        if height % 4 == 2:
            half = list(targets[-1])
            half[rng.randrange(datum.dim)] += Fraction(1, 2)
            targets.append(tuple(half))
        if datum.dim > datum.rank and height % 4 == 3:
            # adding 1 to one coordinate breaks the sum-zero condition
            off = list(vec)
            off[rng.randrange(datum.dim)] += 1
            targets.append(tuple(Fraction(v) for v in off))
    return targets


def test_weight_multiplicity_matches_the_walk():
    rng = random.Random(6)
    cases = nonzero = 0
    for name in ("sl2", "sl3", "sp4"):
        datum = get_root_datum(name)
        for w in datum.weyl_group():
            for _ in range(3):  # three characters per twist
                cs = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                      for _ in range(datum.dim)]
                dchi = DerivedCharacter.of(name, *cs)
                for target in _sweep_targets(datum, w, rng):
                    lam = WeightLabel(name, tuple(c - t for c, t in zip(dchi.coeffs, target)))
                    want = _walk_multiplicity(dchi, lam, w, 1)
                    assert weight_multiplicity(dchi, lam, w) == want, (name, w.name, target)
                    cases += 1
                    nonzero += want > 0
    assert cases > 900 and 0 < nonzero < cases


def test_interval_count_matches_the_walk_up_to_height_40():
    # weight_multiplicity counts its last non-simple slot as an interval; the
    # walk steps through every slot.  Cone weights up to height 40, including
    # multiples of the last non-simple root alone, under every Weyl twist.
    rng = random.Random(40)
    cases = 0
    for name in ("sl2", "sl3", "sp4"):
        datum = get_root_datum(name)
        last = [r for r in datum.positive_roots if r not in datum.simple_roots][-1:]
        for w in datum.weyl_group():
            dchi = DerivedCharacter.of(name, *(rng.randint(-6, 6) for _ in range(datum.dim)))
            targets = [_cone_weight(datum, w, rng, h) for h in (0, 1, 2, 3, 6, 11, 19, 40)]
            targets += [[k * c for c in datum.act_root(w, r)] for r in last for k in (1, 2, 5)]
            for target in targets:
                lam = WeightLabel(name, tuple(c - t for c, t in zip(dchi.coeffs, target)))
                want = _walk_multiplicity(dchi, lam, w)
                assert weight_multiplicity(dchi, lam, w) == want >= 1, (name, w.name, target)
                cases += 1
    assert cases == 2 * 8 + 6 * 11 + 8 * 11


def test_weight_multiplicity_deep_weights():
    # far beyond what the walk reaches in test time
    sp4 = DerivedCharacter.of("sp4", 0, 0)
    assert weight_multiplicity(sp4, WeightLabel.of("sp4", -100, -100)) == 2601
    sl3 = DerivedCharacter.of("sl3", 0, 0, 0)
    assert weight_multiplicity(sl3, WeightLabel.of("sl3", -100, 0, 100)) == 101
    assert weight_multiplicity(sp4, WeightLabel.of("sp4", -3000, -3000)) == 2253001
    assert weight_multiplicity(sl3, WeightLabel.of("sl3", -100000, 0, 100000)) == 100001


def test_weight_multiplicity_rejects_a_foreign_weyl_element():
    w = get_root_datum("sl3").simple_reflection(0)
    with pytest.raises(ValueError, match="does not permute the roots"):
        weight_multiplicity(DerivedCharacter.of("sp4", 0, 0), WeightLabel.of("sp4", -1, -1), w)


def test_weight_multiplicity_rejects_a_weight_of_another_group():
    # an sl2 label has as many coordinates as an sp4 weight
    for lam in (WeightLabel.of("sl2", -1, 0), DerivedCharacter.of("sl2", -1, 0)):
        with pytest.raises(ValueError, match="a sl2 weight is not a sp4 weight"):
            weight_multiplicity(DerivedCharacter.of("sp4", 1, 2), lam)
    assert weight_multiplicity(DerivedCharacter.of("sp4", 1, 2), WeightLabel.of("sp4", -1, 0)) == 4


def test_weyl_twist_basics():
    dchi = DerivedCharacter.of("sp4", Fraction(1, 3), Fraction(2, 7))
    datum = dchi.datum
    e = datum.identity_weyl()
    assert weyl_twist(dchi, e) == dchi
    for w in datum.weyl_group():
        assert weyl_twist(weyl_twist(dchi, w), w.inverse()) == dchi
    s_alpha = datum.simple_reflection(datum.simple_roots.index((1, -1)))
    # s_alpha swaps the two chart coordinates for a = e1 - e2
    assert weyl_twist(dchi, s_alpha).coeffs == (Fraction(2, 7), Fraction(1, 3))


def test_weight_multiplicity_base_cases():
    dchi = DerivedCharacter.of("sl2", 3, -3)
    assert weight_multiplicity(dchi, WeightLabel.of("sl2", 3, -3)) == 1
    alpha = (1, -1)
    for k in range(6):
        lam = WeightLabel.of("sl2", 3 - k, -3 + k)
        assert weight_multiplicity(dchi, lam) == 1  # single positive root
    assert weight_multiplicity(dchi, WeightLabel.of("sl2", 4, -4)) == 0


def test_weight_multiplicity_vs_bruteforce():
    for name in ("sp4", "sl3"):
        datum = get_root_datum(name)
        dchi = DerivedCharacter.of(name, *[Fraction(1, 2)] * datum.dim)
        rng = random.Random(1)
        weyl = datum.weyl_group()
        for _ in range(12):
            w = rng.choice(weyl)
            drop = [rng.randrange(4) for _ in range(len(datum.positive_roots))]
            vec = tuple(
                dchi.coeffs[k]
                - sum(m * datum.act_root(w, r)[k]
                      for m, r in zip(drop, datum.positive_roots))
                for k in range(datum.dim))
            lam = WeightLabel(name, vec)
            got = weight_multiplicity(dchi, lam, w)
            # every rewriting has total degree at most the height of the drop
            bound = sum(m * datum.height(r)
                        for m, r in zip(drop, datum.positive_roots))
            want = brute_force_multiplicity(datum, dchi, lam, w, max_total=bound)
            assert got == want and got >= 1


def test_weight_multiplicity_twist_invariance():
    datum = get_root_datum("sp4")
    dchi = DerivedCharacter.of("sp4", Fraction(2, 3), Fraction(1, 5))
    for w in datum.weyl_group():
        dchi_w = weyl_twist(dchi, w)
        for mx in range(3):
            for my in range(3):
                diff = tuple(mx * a + my * b for a, b in
                             zip(datum.act_root(w, (1, -1)), datum.act_root(w, (0, 2))))
                lam_w = WeightLabel("sp4", tuple(c - d for c, d in zip(dchi_w.coeffs, diff)))
                diff1 = tuple(mx * a + my * b for a, b in zip((1, -1), (0, 2)))
                lam_1 = WeightLabel("sp4", tuple(c - d for c, d in zip(dchi.coeffs, diff1)))
                assert (weight_multiplicity(dchi_w, lam_w, w)
                        == weight_multiplicity(dchi, lam_1))


def test_bgg_simple_golden_values():
    simple, cert = bgg_simple(DerivedCharacter.of("sp4", 0, 0))
    assert not simple
    values = [c["value"] for c in cert]
    assert values == [1, 1, 3, 2]  # batch order: b, a, a+b, 2a+b

    simple, cert = bgg_simple(DerivedCharacter.of("sp4", Fraction(1, 3), Fraction(1, 5)))
    assert simple
    got = {tuple(c["root"]): c["value"] for c in cert}
    assert got[(1, -1)] == Fraction(1, 3) - Fraction(1, 5) + 1
    assert got[(0, 2)] == Fraction(1, 5) + 1
    assert got[(1, 1)] == Fraction(1, 3) + Fraction(1, 5) + 3
    # the long-root value is c1 + 2: forced by the chart, delta = a^2 b and
    # the Cartan element diag(1, 0, 0, -1)
    assert got[(2, 0)] == Fraction(1, 3) + 2


def test_bgg_twist_invariance():
    rng = random.Random(2)
    datum = get_root_datum("sp4")
    for _ in range(25):
        c1 = Fraction(rng.randrange(-6, 7), rng.choice([1, 2, 3, 5]))
        c2 = Fraction(rng.randrange(-6, 7), rng.choice([1, 2, 3, 5]))
        dchi = DerivedCharacter.of("sp4", c1, c2)
        verdict, _ = bgg_simple(dchi)
        for w in datum.weyl_group():
            assert bgg_simple_twisted(dchi, w) == verdict


def _bgg_simple_twisted_ref(dchi, w):
    """The former ``bgg_simple_twisted``, kept as a differential reference:
    w.delta and the twisted coroots rebuilt on every call, the pairings
    summed as Fractions."""
    datum = dchi.datum
    twisted = dchi.twisted(w)
    delta_w = tuple(w.act(datum.delta))
    shifted = tuple(c + d for c, d in zip(twisted.coeffs, delta_w))
    simple = True
    for root in datum.positive_roots:
        wroot = datum.act_root(w, root)
        cov = datum.coroot(wroot)
        value = sum((s * e for s, e in zip(shifted, cov)), Fraction(0))
        simple = simple and not is_positive_integer(value)
    return simple


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the sweep compares exception types and texts
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("group", ["sl2", "sl3", "sp4"])
def test_bgg_simple_twisted_matches_the_fraction_code(group):
    # every Weyl twist, at generic rational dchi and at dchi on each
    # positive-root hyperplane <dchi + delta, alpha^v> = n, n in -1..5:
    # the same bool
    rng = random.Random(31)
    datum = get_root_datum(group)
    dchis = []
    for _ in range(10):
        base = [Fraction(rng.randrange(-12, 13), rng.choice([1, 2, 3, 4, 6, 7, 9]))
                for _ in range(datum.dim)]
        dchis.append(base)
        for root in datum.positive_roots:
            cov = datum.coroot(root)
            pair = sum((b + d) * e for b, d, e in zip(base, datum.delta, cov))
            for n in (-1, 0, 1, rng.randrange(2, 6)):
                t = (n - pair) / sum(e * e for e in cov)
                dchis.append([b + t * e for b, e in zip(base, cov)])
    verdicts = []
    for coeffs in dchis:
        dchi = DerivedCharacter.of(group, *coeffs)
        for w in datum.weyl_group():
            want = _bgg_simple_twisted_ref(dchi, w)
            got = bgg_simple_twisted(dchi, w)
            assert type(got) is type(want) and got == want, (coeffs, w.name)
            verdicts.append(got)
    assert 0 < verdicts.count(True) < len(verdicts)
    # a w that does not permute the roots: the same exception, on every call
    dim = datum.dim
    shear = tuple(tuple(int(i == j) + int(i == 0 and j == 1) for j in range(dim))
                  for i in range(dim))
    other = get_root_datum("sl3" if group == "sp4" else "sp4")
    dchi = DerivedCharacter.of(group, *dchis[0])
    for w in (WeylElement(shear, ()), other.simple_reflection(other.rank - 1)):
        want = _raised(_bgg_simple_twisted_ref, dchi, w)
        assert want is not None and want[0] is ValueError
        assert _raised(bgg_simple_twisted, dchi, w) == want
        assert _raised(bgg_simple_twisted, dchi, w) == want


def test_sp4_conditions_formulas():
    assert sp4_conditions(0, 0) == (1, 1, 3, 2)
    assert sp4_conditions(-1, -1) == (1, 0, 1, 1)
    # at (-1,-1) three of the values are the positive integer 1: not simple
    simple, _ = bgg_simple(DerivedCharacter.of("sp4", -1, -1))
    assert not simple
    rng = random.Random(3)
    for _ in range(100):
        c1 = Fraction(rng.randrange(-50, 50), rng.choice([1, 2, 3, 7, 11]))
        c2 = Fraction(rng.randrange(-50, 50), rng.choice([1, 2, 3, 7, 11]))
        vals = sp4_conditions(c1, c2)  # the generic cross-check runs inside
        assert vals == (c1 - c2 + 1, c2 + 1, c1 + c2 + 3, c1 + 2)


def test_summand_inventory():
    inv = summand_inventory("sp4")
    assert inv["count"] == 8
    assert len(inv["witnesses"]) == 56
    inv2 = summand_inventory("sl2")
    assert inv2["count"] == 2
    datum = get_root_datum("sl2")
    key = (datum.identity_weyl().name, datum.weyl_group()[1].name)
    assert inv2["witnesses"][key] == (1, -1)
    assert summand_inventory("sl3")["count"] == 6


@pytest.mark.parametrize("group", ["sl2", "sl3", "sp4"])
def test_summand_witnesses_are_the_least_common_root(group):
    # the definition: the least root of w Phi+ inter w' Phi-, both sets built per pair
    datum = get_root_datum(group)
    weyl = datum.weyl_group()
    assert summand_inventory(group)["witnesses"] == {
        (w.name, w2.name): min({w.act(r) for r in datum.positive_roots}
                               & {w2.act(r) for r in datum.negative_roots})
        for w in weyl for w2 in weyl if w != w2}
