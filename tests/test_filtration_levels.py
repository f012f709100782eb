"""The valuation checks on samples at every level of the filtration.

Uniform draws from the coordinate grid almost all land on the bottom level
omega = 1/h (h the Coxeter number), so the checks that draw through
``sample_iwahori`` rarely judge a deeper element.  ``level_sample`` hits a
level k exactly: basis coordinate i is p^v_i times a random unit, with
v_i >= max(0, ceil(k/h - omega_i)), and one coordinate sits at its bound,
so that omega(g) = k/h by the min formula.  A coordinate whose bound
reaches the precision N is a zero known modulo p^N, so past the cap
(k > N h) every coordinate is one; the others stay nonzero modulo p^N.

At each level the test checks the min formula, the four p-valuation axioms,
the omega of the factorization under every Weyl twist, the conjugation
oracle and the digitwise factorization oracle.  A verdict that the cap
leaves open is counted as undecided; no verdict may be False.
"""

import math
from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from iwahori.groups import ChevalleyGroup, PValue
from test_factorization_oracle import _agrees as digitwise_agrees

CONFIGS = [("sl2", 5, 6), ("sl3", 5, 5), ("sl3", 7, 2), ("sp4", 7, 4), ("sp4", 11, 3)]
PAST_CAP = 2  # levels drawn past the cap N h
PER_LEVEL = 10  # samples per level


def level_sample(G, rng, k, w):
    """(g, coordinates) with g in the ordered basis for w at level k/h."""
    p, N = G.ring.p, G.ring.prec
    target = Fraction(k, G.coxeter_number)
    oms = G.ordered_basis(w).omegas()
    exps = [max(0, math.ceil(target - om)) for om in oms]
    at_bound = [i for i, (om, v) in enumerate(zip(oms, exps)) if om + v == target and v < N]
    pinned = rng.choice(at_bound) if at_bound else None
    coords = []
    for i, v in enumerate(exps):
        if v >= N:
            coords.append(G.ring.zero(exact=False))
            continue
        if i != pinned:
            v = min(v + rng.randrange(3), N - 1)
        unit = rng.randrange(1, p) + p * rng.randrange(p ** (N - 1))
        coords.append(p ** v * unit % p ** N)
    return G.from_coordinates(coords, w), coords


def level_verdicts(G, g, coords, w, h_elem):
    """{check: (verdict, margin)} for g drawn in the basis for w, paired
    with h_elem for the two-element axioms."""
    p = G.ring.p
    wg, wh = G.p_valuation(g), G.p_valuation(h_elem)
    min_formula = PValue.min(PValue.of(G.ring.coerce(x), om)
                             for x, om in zip(coords, G.ordered_basis(w).omegas()))
    out = {"min_formula": wg.eq(min_formula)}
    if wg.kind == "finite":
        out["lower_bound"] = wg.value > Fraction(1, p - 1), wg.value - Fraction(1, p - 1)
    else:
        out["lower_bound"] = (True, None) if wg.kind == "infinite" else (None, None)
    out["subadditive"] = G.p_valuation(g * h_elem).ge(PValue.min((wg, wh)))
    comm = g.inv() * h_elem.inv() * g * h_elem
    out["commutator"] = G.p_valuation(comm).ge(wg + wh)
    out["p_power"] = G.p_valuation(g ** p).eq(wg + PValue.finite(1))
    for v in G.datum.weyl_group():
        out[f"compat[{v.name}]"] = G.iwahori_factorize(g, v).omega.eq(wg)
    out["conjugation_oracle"] = wg.eq(G.p_valuation_by_conjugation(g))
    out["digitwise_oracle"] = digitwise_agrees(G, g, w, p, G.ring.prec), None
    return out


@pytest.mark.parametrize("name,p,prec", CONFIGS)
def test_checks_hold_at_every_filtration_level(name, p, prec):
    G = ChevalleyGroup(name, p, prec)
    h, weyl = G.coxeter_number, G.datum.weyl_group()
    top = prec * h + PAST_CAP
    rng = Random(f"levels-{name}-{p}-{prec}")
    tally = Counter()
    for k in range(1, top + 1):
        for _ in range(PER_LEVEL):
            w = rng.choice(weyl)
            g, coords = level_sample(G, rng, k, w)
            h_elem, _ = level_sample(G, rng, rng.randrange(1, top + 1), rng.choice(weyl))
            wg, level = G.p_valuation(g), PValue.finite(Fraction(k, h))
            if k <= (prec - 1) * h:
                # every coordinate is nonzero mod p^N and every factor that
                # meets the cap lies above the level, so it is read exactly
                assert wg == level, (k, w.name, coords)
            elif k <= prec * h:
                # a lower root factor at the cap may leave it open
                assert wg.eq(level)[0] is not False, (k, w.name, coords)
            else:
                assert wg.kind == "at_least", (k, wg)
            for check, (verdict, _margin) in level_verdicts(G, g, coords, w, h_elem).items():
                assert verdict is not False, (check, k, w.name, coords)
                tally[check.split("[")[0], verdict] += 1
    # the cap leaves some verdicts open, never all of one check
    assert all(tally[check, True] for check, _verdict in tally), tally
    assert tally["digitwise_oracle", True] == PER_LEVEL * top
