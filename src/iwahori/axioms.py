"""Property-test harness for the p-valuation and its factorizations.

Samples are drawn by filling the ordered-basis coordinate grid uniformly
at the working precision and assembling group elements from coordinates,
which guarantees membership and exercises the whole chart.  Comparisons
are exact rational comparisons; a sample whose relevant values hit the
precision cap is skipped and counted, never silently passed.  Sampling is
deterministic: the per-sample generator is seeded by (seed, counter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from .groups import ChevalleyGroup, PValue


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

    def skip(self):
        self.skipped += 1

    def as_json(self):
        return {
            "passed": self.passed,
            "failed": self.failed,
            "skipped": self.skipped,
            "worst_margin": None if self.worst_margin is None else str(self.worst_margin),
        }


@dataclass
class AxiomReport:
    group: str
    p: int
    precision: int
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

    def record_failure(self, axiom: str, sample_index: int, detail: str,
                       elements=None):
        # a failing sample always carries its reproduction seed and the
        # offending elements themselves
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

    def judge(self, axiom: str, sample_index: int, decision, detail: str,
              elements=None):
        """Count one sample's (verdict, margin); a None verdict (undecided at
        the precision cap) is skipped, a False one also recorded as a failure."""
        ok, margin = decision
        c = self.counts(axiom)
        if ok is None:
            c.skip()
            return
        c.record(ok, margin)
        if not ok:
            self.record_failure(axiom, sample_index, detail, elements)

    def as_json(self):
        return {
            "schema": "iwahori.axiom-report/1",
            "group": self.group,
            "p": self.p,
            "precision": self.precision,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "axioms": {k: v.as_json() for k, v in sorted(self.axioms.items())},
            "failures": self.failures,
            "ok": self.total_failures == 0,
        }


def _sample_seed(seed: int, k: int) -> int:
    return seed * 1_000_003 + k


def sample_iwahori(group: ChevalleyGroup, rng: Random, w=None):
    """Uniform draw from the coordinate grid at the working precision."""
    basis = group.ordered_basis(w)
    box = group.ring.ppow(group.ring.prec)
    coords = [rng.randrange(box) for _ in range(len(basis))]
    return group.from_coordinates(coords, w)


def check_pvaluation_axioms(group_name: str, p: int, precision: int,
                            n_samples: int, seed: int = 1) -> AxiomReport:
    """The four p-valuation axioms on sampled pairs, exact comparisons."""
    group = ChevalleyGroup(group_name, p=p, prec=precision)
    group.check_gate()
    report = AxiomReport(group_name, p, precision, n_samples, seed)
    lower_gate = Fraction(1, p - 1)
    for k in range(n_samples):
        rng = Random(_sample_seed(seed, k))
        g = sample_iwahori(group, rng)
        h = sample_iwahori(group, rng)
        wg = group.p_valuation(g)
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


def check_compatibility_all_w(group_name: str, p: int, precision: int,
                              n_samples: int, seed: int = 1) -> AxiomReport:
    """omega(g) equals the factor minimum of the w-twisted factorization,
    for every Weyl element."""
    group = ChevalleyGroup(group_name, p=p, prec=precision)
    group.check_gate()
    report = AxiomReport(group_name, p, precision, n_samples, seed)
    weyl = group.datum.weyl_group()
    for k in range(n_samples):
        rng = Random(_sample_seed(seed, k))
        g = sample_iwahori(group, rng)
        wg = group.p_valuation(g)
        for w in weyl:
            fact = group.iwahori_factorize(g, w)
            mins = PValue.min(group.omega_of_factor_list(fact))
            report.judge(f"compatible[{w.name}]", k, wg.eq(mins),
                         f"omega={wg.as_json()} factor-min={mins.as_json()}", {"g": g})
    return report


def check_oracle_agreement(group_name: str, p: int, precision: int,
                           n_samples: int, seed: int = 1) -> AxiomReport:
    """Factorization formula versus the conjugation oracle, exact below cap."""
    group = ChevalleyGroup(group_name, p=p, prec=precision)
    group.check_gate()
    report = AxiomReport(group_name, p, precision, n_samples, seed)
    for k in range(n_samples):
        rng = Random(_sample_seed(seed, k))
        g = sample_iwahori(group, rng)
        report.judge("oracle_agreement", k,
                     group.p_valuation(g).eq(group.p_valuation_by_conjugation(g)),
                     "formula != oracle", {"g": g})
    return report


def check_et_embedding(group_name: str, p: int, precision: int = 12,
                       seed: int = 1) -> AxiomReport:
    """Exact interval checks for the conjugating pair and the congruence
    embedding of the ordered basis."""
    group = ChevalleyGroup(group_name, p=p, prec=precision)
    group.check_gate()  # raises GateError when p - 1 <= e*h, no false pass
    report = AxiomReport(group_name, p, precision, 1, seed)
    et = group.et_data()
    lo = Fraction(1, p - 1)
    hi = 1 - Fraction(1, p - 1)  # 1/e - 1/(p-1) with e = 1
    c = report.counts("root_value_interval")
    for root, v in et.root_values().items():
        ok = lo < v < hi
        c.record(ok, min(v - lo, hi - v))
        if not ok:
            report.record_failure("root_value_interval", 0, f"{root}: {v}")
    c = report.counts("torus_containment")
    c.record(p - 1 > 1)  # m in m_E^r for the middle factor needs p-1 > e
    c = report.counts("basis_in_congruence")
    for vec in group.ordered_basis().entries:
        ok = et.conjugate_in_congruence(vec.generator)
        c.record(ok)
        if not ok:
            report.record_failure("basis_in_congruence", 0, f"{vec.label}")
    return report
