"""Property-test harness for the p-valuation and its factorizations, and the
table of suites that ``iwahori verify`` and ``iwahori verify-all`` run.

Samples are drawn by filling the ordered-basis coordinate grid uniformly
at the working precision and assembling group elements from coordinates,
which guarantees membership and exercises the whole chart.  Comparisons
are exact rational comparisons; a sample whose relevant values hit the
precision cap is skipped and counted, never silently passed.  Sampling is
deterministic: the per-sample generator is seeded by (seed, counter).

Every check takes the ``ChevalleyGroup`` it checks and gates it itself, so
it is safe to call alone; ``SUITES`` runs them all on one group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from .groups import ChevalleyGroup, PValue
from .padic import padic_exp, padic_log
from .series import (
    SeriesContext,
    TruncatedSeries,
    constants_limit_check,
    haar_obstruction,
    hida_projector,
    slope_exact,
    slope_split,
)
from .verma import DerivedCharacter, bgg_simple, sp4_conditions, summand_inventory


@dataclass
class AxiomCounts:
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    worst_margin: Fraction | None = None

    def record(self, ok: bool, margin: Fraction | None = None):
        if ok:
            self.passed += 1
        else:
            self.failed += 1
        if margin is not None:
            if self.worst_margin is None or margin < self.worst_margin:
                self.worst_margin = margin

    def as_json(self):
        return {
            "passed": self.passed,
            "failed": self.failed,
            "skipped": self.skipped,
            "worst_margin": None if self.worst_margin is None else str(self.worst_margin),
        }


@dataclass
class AxiomReport:
    group: ChevalleyGroup
    n_samples: int
    seed: int
    axioms: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def counts(self, name: str) -> AxiomCounts:
        return self.axioms.setdefault(name, AxiomCounts())

    @property
    def total_failures(self) -> int:
        return sum(c.failed for c in self.axioms.values())

    @property
    def total_skipped(self) -> int:
        return sum(c.skipped for c in self.axioms.values())

    def judge(self, axiom: str, sample_index: int, decision, detail: str,
              elements=None):
        """Count one sample's (verdict, margin).  A None verdict (undecided at
        the precision cap) is skipped; a False one is also recorded as a
        failure, with its reproduction seed and the offending elements."""
        ok, margin = decision
        c = self.counts(axiom)
        if ok is None:
            c.skipped += 1
            return
        c.record(ok, margin)
        if ok:
            return
        entry = {
            "axiom": axiom,
            "sample": sample_index,
            "seed": _sample_seed(self.seed, sample_index),
            "detail": detail,
        }
        if elements:
            entry["elements"] = {
                name: [[e.digit_string() for e in row] for row in g.mat]
                for name, g in elements.items()
            }
        self.failures.append(entry)

    def as_json(self):
        return {
            "schema": "iwahori.axiom-report/1",
            "group": self.group.name,
            "p": self.group.ring.p,
            "precision": self.group.ring.prec,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "axioms": {k: v.as_json() for k, v in sorted(self.axioms.items())},
            "failures": self.failures,
            "ok": self.total_failures == 0,
        }


@dataclass
class SelfTestReport:
    """The names of the failed cases of a fixed self-test."""
    failures: list
    total_failures = property(lambda self: len(self.failures))

    def as_json(self):
        return {"failures": self.failures}


def _new_report(group: ChevalleyGroup, n_samples: int, seed: int) -> AxiomReport:
    group.check_gate()  # raises GateError when p - 1 <= e*h, no false pass
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    return AxiomReport(group, n_samples, seed)


def _sample_seed(seed: int, k: int) -> int:
    return seed * 1_000_003 + k


def sample_iwahori(group: ChevalleyGroup, rng: Random, w=None):
    """Uniform draw from the coordinate grid at the working precision."""
    group.check_gate()
    box = group.ring.ppow(group.ring.prec)
    # one coordinate per root and per cocharacter basis vector, as in the basis
    coords = [rng.randrange(box) for _ in range(len(group.dirs) + group.datum.rank)]
    return group.from_coordinates(coords, w)


def _first_draws(group: ChevalleyGroup, n_samples: int, seed: int, drawn):
    """(g, factorization of g at w = 1) for samples 0..n_samples - 1, where g
    is the first draw of the sample's generator: read off ``drawn``, the
    axiom suite's samples, where it holds them, else drawn and factorized."""
    for k in range(n_samples):
        if k < len(drawn) and drawn[k] is not None:
            yield drawn[k]
        else:
            g = sample_iwahori(group, Random(_sample_seed(seed, k)))
            yield g, group.iwahori_factorize(g)


def check_pvaluation_axioms(group: ChevalleyGroup, n_samples: int,
                            seed: int = 1, drawn: list | tuple = ()) -> AxiomReport:
    """The four p-valuation axioms on sampled pairs, exact comparisons; sample
    k's (g, factorization of g at w = 1) goes to drawn[k] for k < len(drawn)."""
    report = _new_report(group, n_samples, seed)
    p = group.ring.p
    lower_gate = Fraction(1, p - 1)
    for k in range(n_samples):
        rng = Random(_sample_seed(seed, k))
        g = sample_iwahori(group, rng)
        h = sample_iwahori(group, rng)
        fact = group.iwahori_factorize(g)
        if k < len(drawn):
            drawn[k] = (g, fact)
        wg = fact.omega
        wh = group.p_valuation(h)

        if wg.kind == "finite":
            lower = wg.value > lower_gate, wg.value - lower_gate
        else:  # infinity passes; a cap marker is skipped, whatever its bound
            lower = (True, None) if wg.kind == "infinite" else (None, None)
        report.judge("lower_bound", k, lower, f"omega={wg.as_json()}", {"g": g})
        report.judge("subadditive", k, group.p_valuation(g * h).ge(PValue.min((wg, wh))),
                     "omega(gh) < min", {"g": g, "h": h})
        comm = g.inv() * h.inv() * g * h
        report.judge("commutator", k, group.p_valuation(comm).ge(wg + wh),
                     "omega([g,h]) < omega(g)+omega(h)", {"g": g, "h": h})
        wp = group.p_valuation(g ** p)
        report.judge("p_power", k, wp.eq(wg + PValue.finite(1)),
                     f"omega(g^p)={wp.as_json()} omega(g)={wg.as_json()}", {"g": g})
    return report


def check_compatibility_all_w(group: ChevalleyGroup, n_samples: int,
                              seed: int = 1, drawn: list | tuple = ()) -> AxiomReport:
    """omega(g) equals the factor minimum of the w-twisted factorization,
    for every Weyl element.  omega(g) is that minimum at weyl[0] = e, read
    off the sample's factorization at w = 1 (see ``_first_draws``)."""
    report = _new_report(group, n_samples, seed)
    weyl = group.datum.weyl_group()
    for k, (g, fact) in enumerate(_first_draws(group, n_samples, seed, drawn)):
        wg = fact.omega
        for w in weyl:
            mins = wg if w is weyl[0] else group.iwahori_factorize(g, w).omega
            report.judge(f"compatible[{w.name}]", k, wg.eq(mins),
                         f"omega={wg.as_json()} factor-min={mins.as_json()}", {"g": g})
    return report


def check_oracle_agreement(group: ChevalleyGroup, n_samples: int,
                           seed: int = 1, drawn: list | tuple = ()) -> AxiomReport:
    """Factorization formula versus the conjugation oracle, exact below cap,
    on the samples of ``_first_draws``."""
    report = _new_report(group, n_samples, seed)
    for k, (g, fact) in enumerate(_first_draws(group, n_samples, seed, drawn)):
        report.judge("oracle_agreement", k,
                     fact.omega.eq(group.p_valuation_by_conjugation(g)),
                     "formula != oracle", {"g": g})
    return report


def check_et_embedding(group: ChevalleyGroup, seed: int = 1) -> AxiomReport:
    """Exact interval checks for the conjugating pair and the congruence
    embedding of the ordered basis."""
    report = _new_report(group, 1, seed)
    p = group.ring.p
    et = group.et_data()
    lo = Fraction(1, p - 1)
    hi = 1 - Fraction(1, p - 1)  # 1/e - 1/(p-1) with e = 1
    for root, v in et.root_values().items():
        report.judge("root_value_interval", 0, (lo < v < hi, min(v - lo, hi - v)),
                     f"{root}: {v}")
    report.counts("torus_containment").record(p - 1 > 1)  # middle factor in m_E^r: p-1 > e
    for vec in group.ordered_basis().entries:
        report.judge("basis_in_congruence", 0,
                     (et.conjugate_in_congruence(vec.generator), None), f"{vec.label}")
    return report


def check_padic(group: ChevalleyGroup) -> SelfTestReport:
    """exp/log and the digit valuation at the group's p and N."""
    ring = group.ring
    p, precision = ring.p, ring.prec
    failures = []
    x = ring.from_int(p)
    if not padic_log(padic_exp(x)) == x:
        failures.append("exp/log round trip")
    if not padic_exp(x) * padic_exp(x) == padic_exp(ring.from_int(2 * p)):
        failures.append("exp additivity")
    # p^2 + p^3 has valuation 2, read as the cap marker with N <= 2 digits
    expected = PValue.finite(2) if precision > 2 else PValue.at_least(precision)
    if PValue.of(ring.from_int(p ** 2 + p ** 3)) != expected:
        failures.append("valuation by digits")
    return SelfTestReport(failures)


def check_series(group: ChevalleyGroup, seed: int = 1) -> SelfTestReport:
    """Slope splits and the projector bound on seeded series, the Haar
    obstruction and the constants limit, on the chart of the group."""
    failures = []
    ctx = SeriesContext(group)
    rng = Random(seed)
    for trial in range(10):
        coeffs = {tuple(rng.randrange(6) for _ in range(ctx.nvars)):
                  Fraction(rng.randrange(-20, 21)) for _ in range(8)}
        f = TruncatedSeries(ctx, coeffs, 5 * ctx.nvars)
        below, atleast = slope_split(f, 1)
        if not (below + atleast == f and slope_split(atleast, 1)[0].is_zero()):
            failures.append(f"slope split trial {trial}")
            continue
        if not atleast.is_zero():
            approx = hida_projector(atleast, 1, 3)
            err = (approx - slope_exact(f, 1)).gauss_valuation()
            base = atleast.gauss_valuation()
            if err.ge(base + PValue.finite(1))[0] is False:
                failures.append(f"projector bound trial {trial}")
    if not haar_obstruction(10)["ok"]:
        failures.append("haar obstruction")
    const = TruncatedSeries.constant(ctx, Fraction(1), 6)
    p = Fraction(group.ring.p)
    nonzero = const + TruncatedSeries.monomial(ctx, (1,) * ctx.nvars, p, 6)
    if not constants_limit_check(nonzero)["ok"]:
        failures.append("constants limit")
    return SelfTestReport(failures)


def check_verma(group: ChevalleyGroup) -> SelfTestReport:
    """The summand count, and the golden conditions on Sp4."""
    failures = []
    if group.name == "sp4":
        if sp4_conditions(0, 0) != (1, 1, 3, 2):
            failures.append("golden conditions at zero")
        simple, _ = bgg_simple(DerivedCharacter.of("sp4", 0, 0))
        if simple:
            failures.append("zero character must not be simple")
    # the Weyl group orders of A1, A2 and C2
    if summand_inventory(group.name)["count"] != {"sl2": 2, "sl3": 6, "sp4": 8}[group.name]:
        failures.append("summand count")
    return SelfTestReport(failures)


# verify choice: (verify-all report name, runner(group, n_samples, seed), divisor for
# the suite's share of verify-all's samples, at least one, or None if it draws none).
# verify-all also hands each sampling runner one list, ``drawn``, with a slot for
# each sample a later suite reads: the axiom suite, which runs first and draws the
# most samples, fills it, and the suites after it read their samples there.
# Runners look each check up here when called, so a wrapper put on this module sees it.
SUITES = {
    "padic": ("padic-self-tests", lambda g, n, s: check_padic(g), None),
    "axioms": ("pvaluation-axioms",
               lambda g, n, s, drawn=(): check_pvaluation_axioms(g, n, s, drawn), 1),
    "compat": ("weyl-compatibility",
               lambda g, n, s, drawn=(): check_compatibility_all_w(g, n, s, drawn), 10),
    "oracle": ("omega-oracle-agreement",
               lambda g, n, s, drawn=(): check_oracle_agreement(g, n, s, drawn), 5),
    "et": ("congruence-embedding", lambda g, n, s: check_et_embedding(g, s), None),
    "series": ("series-invariants", lambda g, n, s: check_series(g, s), None),
    "verma": ("verma-golden", lambda g, n, s: check_verma(g), None),
}
