"""Differential tests for the checks that verify-all runs around the int kernel.

* the conjugation oracle and the congruence test, on int rows and on scalar
  entries, against the former scalar loop, kept here, with cap markers and
  its ``PrecisionError``;
* the generated draws, whose torus coordinate c enters as exp(p)^c, against
  the former loop with the exp(p c) form, kept here;
* the membership function and the kernel's membership test against the
  former int relation and congruence loops;
* the commutator (hg)^-1 gh against the four-factor product g^-1 h^-1 g h;
* omega keys off the int factorization, failure details built only for a
  failed verdict, and the series self-test's draws and chart;
* the draws of the series self-test and of ``sample_iwahori``, which read
  getrandbits directly, against the former randrange forms, kept here;
* planted mutants: each new form, changed in one place by a source edit
  (of the generators, for the generated code), is caught by the comparison
  that passes the form itself.
"""

import inspect
import linecache
import textwrap
from fractions import Fraction
from operator import mul
from random import Random

import pytest

from iwahori import axioms, groups
from iwahori.axioms import AxiomReport, check_pvaluation_axioms, check_series
from iwahori.groups import ChevalleyGroup, GroupElement, PValue, _matmul_ints, _omega_value
from iwahori.padic import INF, PrecisionError, exp_int
from iwahori.series import SeriesContext, SeriesError, TruncatedSeries
from test_fast_paths import (SAMPLE_CONFIGS, SAMPLE_GROUPS, coordinate_vectors,
                             factor_loops_ref, flatten, fused_ref, in_iwahori_ints_ref,
                             kernel_inputs, omega_full_min_ref, omega_inputs,
                             outcome as value_or_error, relation_ints_ref,
                             sweep_kernel_inputs, torus_diagonal_ints_ref)

IDS = {"ids": lambda c: "-".join(map(str, c))}


def mutant(func, old, new):
    """func with the one occurrence of the source text old replaced by new,
    compiled against the globals of func's module."""
    src = textwrap.dedent(inspect.getsource(func))
    assert src.count(old) == 1, old
    found = {}
    exec(compile(src.replace(old, new), inspect.getsourcefile(func), "exec"),
         func.__globals__, found)
    return found[func.__name__]


def outcome(fn, *args):
    try:
        return fn(*args)
    except PrecisionError as err:
        return PrecisionError, str(err)


# -- the conjugation oracle ----------------------------------------------------


def shifted_entries_ref(G, g):
    """The former ``EtData.shifted_entries``, with its data: e = a h, r, and
    (g_ij - delta_ij, d_i - d_j) for every position in row order, d =
    exponents(mu) at w = 1; raises PrecisionError where an entry is not
    divisible by pi^(-shift)."""
    G.check_gate()
    mu, a = G.datum.adapted_cocharacter(G.datum.identity_weyl())
    e = a * G.coxeter_number
    exps = G.exponents(mu)
    out = []
    for i in range(G.n):
        for j in range(G.n):
            x, k = g.mat[i][j] - 1 if i == j else g.mat[i][j], exps[i] - exps[j]
            w = x.pival()
            if k < 0 and w is not INF and e * (x.prec if w is None else w) < -k:
                raise PrecisionError(f"entry ({i}, {j}) is not divisible by pi^{-k}")
            out.append((x, k))
    return e, e // (G.ring.p - 1) + 1, out


def oracle_scalar_ref(G, g):
    """The former scalar ``p_valuation_by_conjugation``: the least
    PValue.of(x, k/e) over the scalar entries of ``shifted_entries_ref``."""
    e, _r, entries = shifted_entries_ref(G, g)
    return PValue.min(PValue.of(x, Fraction(k, e)) for x, k in entries)


def congruence_scalar_ref(G, g):
    """The former ``EtData.conjugate_in_congruence`` over the same entries."""
    e, r, entries = shifted_entries_ref(G, g)
    for x, k in entries:
        if e * x.prec + k < r:
            raise PrecisionError("not enough digits to test the congruence level")
        if not x.zero_mod(-((k - r) // e)):  # val(x) + k/e >= r/e
            return False
    return True


def oracle_inputs(G, rng):
    """Elements for the oracle: samples on every twist, the omega inputs (exact
    and flat, with cap markers), and flat upper-root elements at a unit
    parameter, whose upper entry is not divisible by pi^(-shift)."""
    d = len(G.dirs) + G.datum.rank
    out = [G.from_coordinates(c, w) for w in G.datum.weyl_group()
           for c in coordinate_vectors(G, d, rng)]
    out += [g for _name, g in omega_inputs(G)]
    out += [flatten(G.root_element(r, 1)) for r in sorted(G.dirs) if G.datum.height(r) < 0]
    return out + [flatten(g) for g in out]


def oracle_mismatches(G, rng):
    """(mismatches, outcome kinds seen) of the oracle and the congruence test
    against the scalar loop."""
    bad, seen = [], set()
    for g in oracle_inputs(G, rng):
        got = outcome(G.p_valuation_by_conjugation, g)
        want = outcome(oracle_scalar_ref, G, g)
        seen.add(want.kind if isinstance(want, PValue) else "raises")
        if got != want or (outcome(G.conjugate_in_congruence, g)
                           != outcome(congruence_scalar_ref, G, g)):
            bad.append((g, got, want))
    return bad, seen


@pytest.mark.parametrize("config", SAMPLE_CONFIGS, **IDS)
def test_int_oracle_matches_the_scalar_loop(config):
    # int rows and scalar entries, with cap markers, and the same
    # PrecisionError text where an upper entry is a unit
    G = SAMPLE_GROUPS[config]
    bad, seen = oracle_mismatches(G, Random(f"oracle-{config}"))
    assert not bad
    assert seen == {"finite", "at_least", "infinite", "raises"}


ORACLE_MUTANTS = [
    ("+ (not x)", "+ 0"),  # cap markers read as finite values
    ("if exact else prec", "if exact else prec - 1"),  # the cap one digit short
    ("if u < 0:", "if False:"),  # the precision check dropped
]


@pytest.mark.parametrize("old,new", ORACLE_MUTANTS)
def test_int_oracle_mutants_are_caught(old, new, monkeypatch):
    bad = mutant(ChevalleyGroup._conjugation_scan, old, new)
    monkeypatch.setattr(ChevalleyGroup, "_conjugation_scan", bad)
    caught = [config for config in SAMPLE_CONFIGS if config[2] in (1, 12)
              and oracle_mismatches(SAMPLE_GROUPS[config], Random(f"oracle-{config}"))[0]]
    assert caught


# -- draws ---------------------------------------------------------------------------


def draw_rows_ref(G, coords, w):
    """The former int rows of ``from_coordinates``: from the identity, its
    ``rmul_batch`` loop (right multiplication by u_root(x)) on both batches,
    and each torus coordinate c entering as exp_int(p c)."""
    plan = G._factor_plan(w)
    p, mod = G.ring.p, G._mod
    a, b = len(plan.neg_batch), len(plan.neg_batch) + G.datum.rank
    rows = [[int(i == j) for j in range(G.n)] for i in range(G.n)]
    for batch, values in ((plan.neg_batch, coords[:a]), (None, coords[a:b]),
                          (plan.pos_batch, coords[b:])):
        if batch is None:
            diag = torus_diagonal_ints_ref(G, [exp_int(p * c, G.ring) for c in values])
            rows = [[e * dj % mod for e, dj in zip(row, diag)] for row in rows]
            continue
        for root, c in zip(batch, values):
            x = c * p if G.datum.height(root) < 0 else c
            for i, j, s in G.dirs[root]:
                for row in rows:
                    row[j] = (row[j] + s * x * row[i]) % mod
    return tuple(map(tuple, rows))


def draw_mismatches(G, rng):
    d = len(G.dirs) + G.datum.rank
    bad = []
    for w in G.datum.weyl_group():
        # the last vector of coordinate_vectors has a 0; p^N - 1 is the largest exponent
        for coords in coordinate_vectors(G, d, rng)[:-1] + [[G._mod - 1] * d]:
            if G.from_coordinates(coords, w)._ints != draw_rows_ref(G, coords, w):
                bad.append((w.name, coords))
    return bad


@pytest.mark.parametrize("config", SAMPLE_CONFIGS, **IDS)
def test_draw_rows_match_the_exp_of_p_c_form(config):
    G = SAMPLE_GROUPS[config]
    assert G._exp_p == exp_int(G.ring.p, G.ring) % G._mod
    assert not draw_mismatches(G, Random(f"draw-{config}"))


def plant_draw_mutant(monkeypatch, old, new):
    """The draw generator with old replaced by new, for draws built from here."""
    monkeypatch.setattr(linecache, "cache", dict(linecache.cache))
    monkeypatch.setattr(groups, "_DRAWS", {})
    monkeypatch.setattr(groups, "_draw_kernel", mutant(groups._draw_kernel, old, new))


def test_draw_mutant_is_caught(monkeypatch):
    # exp(p)^c raised only modulo p^(N-1), in the generator
    plant_draw_mutant(monkeypatch, "pow(exp_p, {c}, mod)", "pow(exp_p, {c}, mod // p)")
    assert all(draw_mismatches(SAMPLE_GROUPS[c], Random(f"draw-{c}"))
               for c in SAMPLE_CONFIGS if c[2] in (2, 12))


@pytest.mark.parametrize("old,new", [
    ("({dst} {'+' if s == 1 else '-'} {term})", "({dst} {'-' if s == 1 else '+'} {term})"),
    ("{'' if s == 1 else '-'}{term} % mod", "{term} % mod"),  # a folded entry's sign
    ("code.append(f\"p{x} = {x} * p % mod\")", "code.append(f\"p{x} = {x} % mod\")"),
])
def test_draw_generator_mutants_are_caught(old, new, monkeypatch):
    plant_draw_mutant(monkeypatch, old, new)
    assert any(draw_mismatches(SAMPLE_GROUPS[c], Random(f"draw-{c}")) for c in SAMPLE_CONFIGS)


# -- the commutator ------------------------------------------------------------------


def commutator_pairs(G, rng, n):
    """n pairs of draws; with N <= 3 about half the draws or more have a zero
    coordinate and take the scalar route."""
    d, mod = len(G.dirs) + G.datum.rank, G._mod

    def draw():
        coords = [rng.randrange(mod) for _ in range(d)]
        if G.ring.prec <= 3 and rng.random() < 0.5:
            coords[rng.randrange(d)] = 0
        return G.from_coordinates(coords)

    return [(draw(), draw()) for _ in range(n)]


def four_factor(g, h):
    return g.inv() * h.inv() * g * h


def new_form(g, h):
    return (h * g).inv() * (g * h)


@pytest.mark.parametrize("config", SAMPLE_CONFIGS, **IDS)
def test_commutator_form_matches_the_four_factor_product(config):
    # identical int rows, and the same omega on the scalar route
    G = SAMPLE_GROUPS[config]
    routes = set()
    for g, h in commutator_pairs(G, Random(f"comm-{config}"), 30):
        old, new = four_factor(g, h), new_form(g, h)
        routes.add(g._ints is not None and h._ints is not None)
        if new._ints is not None:
            assert new._ints == old._ints
        assert G.p_valuation(new) == G.p_valuation(old)
    assert (False in routes) == (G.ring.prec <= 3)  # a draw on the scalar route


@pytest.mark.parametrize("form", [
    lambda g, h: (g * h).inv() * (h * g),  # [h, g], the inverse commutator
    lambda g, h: (h * g).inv() * (h * g),  # the identity
])
def test_commutator_mutants_are_caught(form):
    G = SAMPLE_GROUPS[("sp4", 7, 12)]
    pairs = commutator_pairs(G, Random("comm-mutant"), 10)
    assert any(form(g, h)._ints != four_factor(g, h)._ints for g, h in pairs)


def test_the_axiom_suite_forms_the_commutator_once(monkeypatch):
    # one product and one inverse fewer per sample than the four-factor form
    G = ChevalleyGroup("sp4", 7, 12)
    calls = {"mul": 0, "inv": 0}
    product, inverse = GroupElement.__mul__, GroupElement.inv

    def counting_mul(self, other):
        calls["mul"] += 1
        return product(self, other)

    def counting_inv(self):
        calls["inv"] += 1
        return inverse(self)

    monkeypatch.setattr(GroupElement, "__mul__", counting_mul)
    monkeypatch.setattr(GroupElement, "inv", counting_inv)
    check_pvaluation_axioms(G, 1, seed=3)
    # gh, hg and (hg)^-1 gh, and g^7 as two squarings and two products; the
    # four-factor form took 8 products and 2 inverses
    assert calls == {"mul": 3 + 4, "inv": 1}


def matmul_ints_ref(a, b, mod):
    """The former ``groups._matmul_ints``: one comprehension for every size."""
    cols = list(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) % mod for col in cols]) for row in a])


def matmul_mismatches(generator):
    """Products of the generator's functions that differ from the former
    comprehension, over random rows of every matrix size."""
    rng, bad = Random(5), []
    for n, mod in ((2, 5 ** 3), (3, 5 ** 10), (4, 7 ** 12)):
        matmul = generator(n)
        for _ in range(20):
            a, b = ([[rng.randrange(mod) for _ in range(n)] for _ in range(n)] for _ in "ab")
            if matmul(a, b, mod) != matmul_ints_ref(a, b, mod):
                bad.append((a, b))
    return bad


def test_matmul_ints_matches_the_generator_form(monkeypatch):
    assert not matmul_mismatches(_matmul_ints)
    assert not matmul_mismatches(groups._MATMULS.__getitem__)  # what products call
    # planted in the generator: the entries left unreduced, and b read
    # transposed; the mutants register their lines under the same names
    monkeypatch.setattr(linecache, "cache", dict(linecache.cache))
    assert matmul_mismatches(mutant(_matmul_ints, '+ ") % mod" for j', '+ ")" for j'))
    assert matmul_mismatches(mutant(_matmul_ints, "{b[k][j]}", "{b[j][k]}"))


def kernel_mismatches(factor_kernel):
    """Inputs where kernels that factor_kernel builds without the membership
    test differ from the loop forms, on every sl3 and sp4 plan, and on plans
    one root short, where the loops find a remainder."""
    bad = []
    for config in (("sl3", 5, 2), ("sp4", 7, 1), ("sp4", 7, 12)):
        G = ChevalleyGroup(*config)
        rng = Random(f"kernel-mutant-{config}")
        for w in G.datum.weyl_group():
            plan = G._factor_plan(w)
            for short in (plan, plan._replace(neg_strip=plan.neg_strip[:-1]),
                          plan._replace(pos_strip=plan.pos_strip[:-1])):
                kernel = factor_kernel(G.datum, short.order, short.neg_strip, short.pos_strip,
                                       f"<kernel mutant {config} {w.name}>", member=False)

                def factor(ints):
                    *parts, key = kernel(ints, G.ring.p, G._mod, G.ring.prec, G._wrap)
                    return (*parts, _omega_value(key, G.coxeter_number))

                for ints in sweep_kernel_inputs(G, w, rng):
                    if value_or_error(factor, ints) != value_or_error(factor_loops_ref, G, ints,
                                                                      short):
                        bad.append((config, w.name, ints))
    return bad


@pytest.mark.parametrize("old,new", [
    ("% p == 0:", "% (p * p) == 0:"),  # a pivot of valuation 1 passes
    ("{{wrap({a[k][k]})!r}}", "{{{a[k][k]}!r}}"),  # the pivot shown as an int
    ("{'-' if s == 1 else '+'} {x}) % mod:", "{'+' if s == 1 else '-'} {x}) % mod:"),  # pairs
    ("({cur[i][k]} {'-' if s == 1 else '+'} {x}", "({cur[i][k]} {'+' if s == 1 else '-'} {x}"),
    ("a = [[ints[i][j] for j in order]", "a = [[ints[j][i] for j in order]"),  # the load
    ("else e for i, row", 'else "0" for i, row'),  # off-diagonal remainders let through
])
def test_kernel_generator_mutants_are_caught(old, new, monkeypatch):
    monkeypatch.setattr(linecache, "cache", dict(linecache.cache))
    assert kernel_mismatches(mutant(groups._factor_kernel, old, new))


def test_kernels_of_plans_one_root_short_match_the_loop_forms():
    assert not kernel_mismatches(groups._factor_kernel)


def test_a_dropped_lattice_equation_is_caught(monkeypatch):
    # the first lattice equation left out of the kernel's check: on sl_n the
    # whole check, on sp4 the equation d0 d3 = 1
    monkeypatch.setattr(linecache, "cache", dict(linecache.cache))
    bad = mutant(groups._factor_kernel, "for eq in _TORUS_EQUATIONS[datum.name]]",
                 "for eq in _TORUS_EQUATIONS[datum.name][1:]] or ['0']")
    error = (groups.InternalError, "torus diagonal is not in the cocharacter lattice")
    for name, p in (("sl2", 5), ("sl3", 5), ("sp4", 7)):
        G = ChevalleyGroup(name, p, 3)
        plan = G._factor_plan(G.datum.identity_weyl())
        diag = [1 + p] + [1] * (G.n - 1)  # pro-p, off the torus
        rows = tuple(tuple(d if i == j else 0 for j in range(G.n)) for i, d in enumerate(diag))
        assert value_or_error(factor_loops_ref, G, rows, plan) == error
        for generator, caught in ((groups._factor_kernel, True), (bad, False)):
            kernel = generator(G.datum, plan.order, plan.neg_strip, plan.pos_strip,
                               f"<lattice {caught}>", member=False)
            assert (value_or_error(kernel, rows, p, G._mod, 3, G._wrap) == error) == caught


# -- membership ----------------------------------------------------------------------


MEMBERSHIP_CONFIGS = [("sl2", 5, 3), ("sl3", 5, 2), ("sl3", 5, 12), ("sp4", 7, 1), ("sp4", 7, 12)]


def membership_inputs(G, rng):
    """Int rows for the membership test: ``kernel_inputs``, the flat upper root
    elements u_r(1), each off the congruence at its own entries only, and on
    sp4 the I + p^k E_rc, k = 0 and N - 1, that break one upper entry of
    g^T J g - J each."""
    out = kernel_inputs(G, rng)
    out += [flatten(G.root_element(r, 1))._ints for r in sorted(G.dirs) if G.datum.height(r) < 0]
    if G.name == "sp4":
        for a in range(4):
            for b in range(a + 1, 4):
                for k in (0, G.ring.prec - 1):
                    rows = [[int(i == j) for j in range(4)] for i in range(4)]
                    rows[3 - b][a] = (rows[3 - b][a] + G.ring.p ** k) % G._mod
                    out.append(tuple(map(tuple, rows)))
    return out


def membership_mismatches():
    """Inputs where the group's membership function, through
    ``satisfies_group_relation`` and ``in_iwahori``, or the plan's kernel
    differ from the former int loops."""
    bad = []
    for config in MEMBERSHIP_CONFIGS:
        G = ChevalleyGroup(*config)
        w = G.datum.identity_weyl()
        plan = G._factor_plan(w)
        for ints in membership_inputs(G, Random(f"member-{config}")):
            g = GroupElement(G, None, ints)
            if ((g.satisfies_group_relation(), G.in_iwahori(g))
                    != (relation_ints_ref(G, ints), in_iwahori_ints_ref(G, ints))
                    or value_or_error(G._factor_ints, ints, plan)
                    != value_or_error(fused_ref, G, ints, w)):
                bad.append((config, ints))
    return bad


def test_membership_matches_the_former_int_loops():
    assert not membership_mismatches()


@pytest.mark.parametrize("old,new", [
    # a relation entry dropped: (0, 1) of g^T J g on sp4
    ("for j in range(i + 1, 4)]", "for j in range(i + 1, 4) if (i, j) != (0, 1)]"),
    # a congruence position dropped: the corner (0, n - 1)
    ("for j in range(i, n)]", "for j in range(i, n) if (i, j) != (0, n - 1)]"),
])
def test_membership_generator_mutants_are_caught(old, new, monkeypatch):
    monkeypatch.setattr(linecache, "cache", dict(linecache.cache))
    monkeypatch.setattr(groups, "_membership_tests", mutant(groups._membership_tests, old, new))
    monkeypatch.setattr(groups, "_MEMBERSHIPS", {name: groups._membership(name, n)
                                                 for name, n in groups._MATRIX_SIZE.items()})
    monkeypatch.setattr(groups, "_FACTOR_PLANS", {})
    assert membership_mismatches()


# -- omega keys ----------------------------------------------------------------------


def omega_mismatches(G, rng):
    d = len(G.dirs) + G.datum.rank
    plan = G._factor_plan(G.datum.identity_weyl())
    elements = [G.from_coordinates(c) for c in coordinate_vectors(G, d, rng)]
    bad = []
    for g in elements + [flatten(g) for _name, g in omega_inputs(G)]:
        neg, _coords, diag, pos, omega = G._factor_ints(flatten(g)._ints, plan)
        if omega != omega_full_min_ref(G, neg, diag, pos)[0]:
            bad.append(g)
    return bad


@pytest.mark.parametrize("old,new", [
    pytest.param("{abs(2 * ht + 1)}", "{abs(2 * ht)}", id="a root cap read as finite"),
    pytest.param("enumerate(factors)", "enumerate(factors[:-1])", id="a factor skipped"),
    pytest.param("{h2} * vp_int({d} - 1, p)", "{h2} * (vp_int({d} - 1, p) + 1)",
                 id="the torus valuation one high"),
    pytest.param("enumerate(factors)", "enumerate((h + 1 if h > 0 else h, y) for h, y in factors)",
                 id="a lower root height one high in omega"),
])
def test_factor_omega_mutants_are_caught(old, new, monkeypatch):
    # planted in the kernel generator, which rebuilds every plan
    monkeypatch.setattr(linecache, "cache", dict(linecache.cache))
    monkeypatch.setattr(groups, "_factor_kernel", mutant(groups._factor_kernel, old, new))
    monkeypatch.setattr(groups, "_FACTOR_PLANS", {})
    assert any(omega_mismatches(SAMPLE_GROUPS[c], Random(f"omega-{c}")) for c in SAMPLE_CONFIGS)


def test_omega_values_are_shared_per_key_and_denominator():
    assert _omega_value(6, 4) == PValue.finite(Fraction(3, 4))
    assert _omega_value(7, 4) == PValue.at_least(Fraction(3, 4))
    assert _omega_value(6, 8) == PValue.finite(Fraction(3, 8))
    assert _omega_value(6, 4) is _omega_value(6, 4)
    G = ChevalleyGroup("sp4", 7, 3)
    g = G.from_coordinates([1] * 10)
    assert G.p_valuation(g) is G.p_valuation(G.from_coordinates([1] * 10))
    # the oracle and the factorization use different denominators e and h
    assert G.p_valuation(g) == G.p_valuation_by_conjugation(g)


# -- verdicts ------------------------------------------------------------------------


def test_judge_builds_a_callable_detail_only_for_a_failure():
    G = ChevalleyGroup("sl2", 5, 4)
    report = AxiomReport(G, 3, 1)
    called = []

    def detail():
        called.append(1)
        return "omega=1/2"

    report.judge("a", 0, (True, Fraction(0)), detail)
    report.judge("a", 1, (None, None), detail)
    assert not called and report.failures == []
    report.judge("a", 2, (False, Fraction(-1)), detail)
    report.judge("b", 2, (False, None), "plain text")
    assert called == [1]
    assert [f["detail"] for f in report.failures] == ["omega=1/2", "plain text"]
    assert report.counts("a").as_json() == {"passed": 1, "failed": 1, "skipped": 1,
                                            "worst_margin": "-1"}


def test_pvalue_eq_margin_of_equal_values_is_zero():
    for v in (0, Fraction(1, 4), 12):
        verdict, margin = PValue.finite(v).eq(PValue.finite(v))
        assert verdict is True and margin == 0 and str(margin) == "0"


# -- the series self-test ----------------------------------------------------------


def series_draws_ref(seed, nvars):
    """The former draws of ``check_series``: 10 series of 8 terms through
    randrange, an exponent in 0..5 per chart variable, then a coefficient."""
    draw = Random(seed).randrange
    return [{tuple([draw(6) for _ in range(nvars)]): Fraction(draw(-20, 21)) for _ in range(8)}
            for _ in range(10)]


def sample_coords_ref(group, rng):
    """The former coordinates of ``sample_iwahori``: one randrange(p^N) each."""
    box = group.ring.ppow(group.ring.prec)
    return [rng.randrange(box) for _ in range(len(group.dirs) + group.datum.rank)]


def test_check_series_draws_the_former_stream_on_one_chart(monkeypatch):
    built = []

    class Recording(TruncatedSeries):
        def __init__(self, ctx, coeffs=None, degree=None):
            if degree == 5 * ctx.nvars:  # a trial's series, not the constants check's
                built.append((ctx, dict(coeffs)))
            super().__init__(ctx, coeffs, degree)

    monkeypatch.setattr(axioms, "TruncatedSeries", Recording)
    for name, p in (("sl2", 5), ("sl3", 5), ("sp4", 7)):
        G = ChevalleyGroup(name, p, 12)
        for seed in range(200):
            built.clear()
            assert check_series(G, seed).failures == []
            assert [coeffs for _ctx, coeffs in built] == series_draws_ref(seed, built[0][0].nvars)
            assert len(built) == 10 and len({id(ctx) for ctx, _c in built}) == 1
        assert axioms._series_context(G) is axioms._series_context(G)


@pytest.mark.parametrize("config", [("sl2", 5, 10), ("sl3", 5, 10), ("sp4", 7, 12),
                                    ("sp4", 7, 1), ("sl3", 5, 2)], **IDS)
def test_samples_keep_the_former_coordinates(config, monkeypatch):
    # each draw, and the generator's state after two, as with randrange
    G = ChevalleyGroup(*config)
    monkeypatch.setattr(G, "from_coordinates", lambda coords, w=None: coords)
    for seed in range(200):
        rng, ref = Random(seed), Random(seed)
        for _ in range(2):
            assert axioms.sample_iwahori(G, rng) == sample_coords_ref(G, ref)
        assert rng.getstate() == ref.getstate()


def test_randbelow_is_the_randrange_stream():
    # randrange(n) is getrandbits(n.bit_length()) with rejection, and
    # randrange(a, b) is a plus that draw below b - a; the random module does
    # not promise this, so it is checked on every Python the suite runs on
    widths = (6, 41, 5 ** 10, 7 ** 12, 11 ** 5, 7, 1)
    for seed in range(200):
        rng, ref = Random(seed), Random(seed)
        got = [axioms._randbelow(rng.getrandbits, n, 1)[0] for _ in range(40) for n in widths]
        want = [ref.randrange(n) for _ in range(40) for n in widths]
        assert got == want and rng.getstate() == ref.getstate()
        got = axioms._randbelow(rng.getrandbits, 41, 80)
        assert [x - 20 for x in got] == [ref.randrange(-20, 21) for _ in range(80)]
        assert rng.getstate() == ref.getstate()
    assert axioms._randbelow(Random(1).getrandbits, 6, 0) == []


def test_slope_of_is_remembered_per_index():
    ctx = SeriesContext("sp4", p=7, prec=12)
    for idx in [(0, 0, 0, 0), (7, 0, 0, 0), (1, 2, 3, 4), (49, 0, 0, 0)]:
        for _ in range(2):
            slope = ctx.slope_of(idx)
            lam = ctx.lambda_of(idx)
            assert slope == (float("inf") if lam == 0 else
                             next(v for v in range(99) if lam % 7 ** (v + 1)))
    assert ctx.slope_of.cache_info().hits == 4
    for _ in range(2):
        with pytest.raises(SeriesError):
            ctx.slope_of((1, 2))
