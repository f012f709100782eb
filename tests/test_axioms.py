import pytest

from iwahori.axioms import (
    check_compatibility_all_w,
    check_et_embedding,
    check_oracle_agreement,
    check_pvaluation_axioms,
    check_verma,
)
from iwahori.groups import ChevalleyGroup, GateError, PValue
from iwahori.roots import RootDatum
from fractions import Fraction
from test_fast_paths import omega_of_factor_list_ref


def test_axioms_small_run():
    rep = check_pvaluation_axioms(ChevalleyGroup("sl2", p=7, prec=12), 60, seed=1)
    assert rep.total_failures == 0
    assert rep.counts("p_power").passed > 0
    data = rep.as_json()
    assert data["ok"] and data["schema"].startswith("iwahori.axiom-report")


def test_axioms_reproducible():
    a = check_pvaluation_axioms(ChevalleyGroup("sl3", p=7, prec=12), 10, seed=9)
    b = check_pvaluation_axioms(ChevalleyGroup("sl3", p=7, prec=12), 10, seed=9)
    assert a.as_json() == b.as_json()


def test_power_axiom_closed_form():
    # omega(u_a(1)^7) = omega(u_a(7)) = 3/2 in SL2 at p = 7
    G = ChevalleyGroup("sl2", p=7, prec=12)
    u = G.root_element((1, -1), 1)
    assert G.p_valuation(u ** 7) == PValue.finite(Fraction(3, 2))
    assert G.p_valuation(u) == PValue.finite(Fraction(1, 2))


def test_identity_sample_vacuous():
    G = ChevalleyGroup("sl2", p=7, prec=12)
    ident = G.identity()
    assert G.p_valuation(ident).kind == "infinite"
    # all axioms hold vacuously under the infinity conventions
    comm = ident.inv() * ident.inv() * ident * ident
    assert G.p_valuation(comm).kind == "infinite"


def test_compatibility_small_run():
    rep = check_compatibility_all_w(ChevalleyGroup("sp4", p=7, prec=12), 12, seed=2)
    assert rep.total_failures == 0
    assert len([k for k in rep.axioms if k.startswith("compatible")]) == 8


def test_single_factor_compatibility():
    # omega(u_r(x)) = val(x) + ht(r)/(e h) read off any batch containing r
    G = ChevalleyGroup("sp4", p=7, prec=12)
    h = G.coxeter_number
    for r in G.datum.positive_roots:
        g = G.root_element(r, 1)
        assert G.p_valuation(g) == PValue.finite(Fraction(G.datum.height(r), h))
        for w in G.datum.weyl_group()[:3]:
            fact = G.iwahori_factorize(g, w)
            vals = [v for v in omega_of_factor_list_ref(G, fact.negative, fact.torus_diagonal,
                                                        fact.positive) if v.kind == "finite"]
            assert min(v.value for v in vals) == Fraction(G.datum.height(r), h)


def test_oracle_agreement_small_run():
    rep = check_oracle_agreement(ChevalleyGroup("sl3", p=7, prec=12), 25, seed=3)
    assert rep.total_failures == 0
    assert rep.counts("oracle_agreement").passed + rep.counts("oracle_agreement").skipped == 25


def test_et_embedding_values():
    rep = check_et_embedding(ChevalleyGroup("sl2", p=7, prec=12))
    assert rep.total_failures == 0
    rep = check_et_embedding(ChevalleyGroup("sp4", p=7, prec=12))
    assert rep.total_failures == 0
    # Sp4 at p = 7: root values {1/4, 1/2, 3/4} inside (1/6, 5/6)
    G = ChevalleyGroup("sp4", p=7, prec=12)
    vals = sorted({Fraction(G.datum.height(r), G.coxeter_number) for r in G.datum.positive_roots})
    assert vals == [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]


def test_et_gate_violation():
    with pytest.raises(GateError):
        check_et_embedding(ChevalleyGroup("sp4", p=5, prec=12))
    with pytest.raises(GateError):
        check_pvaluation_axioms(ChevalleyGroup("sp4", p=5, prec=8), 1)


@pytest.mark.parametrize("name,p", [("sl2", 7), ("sl3", 7), ("sp4", 7)])
def test_verma_summand_count_is_the_weyl_group_order(name, p, monkeypatch):
    # the count is checked against |W| of A1, A2 and C2, not against the
    # list it was counted from, so a Weyl group missing an element fails
    group = ChevalleyGroup(name, p=p, prec=12)
    assert check_verma(group).failures == []
    weyl_group = RootDatum.weyl_group
    monkeypatch.setattr(RootDatum, "weyl_group", lambda self: weyl_group(self)[:-1])
    assert "summand count" in check_verma(group).failures
