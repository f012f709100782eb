"""The benchmark workloads.

A workload object is built once per process (that is set-up time) and then
runs items, one unit of user work each.  Item ``i`` draws its inputs from
``(workload, seed, i)`` only, so a seed names the same inputs on every host.
Every item checks its own outputs and raises ``CheckFailed`` on a wrong one.
It returns an ``Outcome``: the bytes the run digest is built from and its
count of exact comparisons, with how many of them the precision cap left
undecided.

The library is driven from outside, through public functions only.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

# library functions are looked up on their modules at call time, so the
# traced run sees the wrappers that spans.Tracer installs there
import iwahori
from iwahori import cli, series, verma

P = 7
PRECISION = 12


class CheckFailed(Exception):
    """An item produced an output that its check rejects."""


@dataclass
class Outcome:
    digest: bytes
    compared: int
    undecided: int
    report_bytes: int = 0


def item_rng(workload: str, seed: int, index: int) -> random.Random:
    # string seeds go through SHA-512, so streams are stable across hosts
    return random.Random(f"{workload}:{seed}:{index}")


def _fraction_bytes(q: Fraction) -> str:
    # hex, not decimal: projector coefficients exceed the int->str digit limit
    return f"{q.numerator:x}/{q.denominator:x}"


def _scalar_text(c) -> str:
    return _fraction_bytes(c) if isinstance(c, Fraction) else c.digit_string()


def _series_text(f) -> str:
    return ";".join(f"{idx}:{_scalar_text(c)}" for idx, c in sorted(f.coeffs.items()))


# -- verify-sp4 ---------------------------------------------------------------


class VerifySp4:
    """``iwahori verify-all --group sp4 --p 7 --precision 12`` through
    ``iwahori.cli.main``, one call per item, report written with --json.

    The sample count cycles through 1..4 with the item index, so item
    latencies spread evenly instead of clustering at one value."""

    name = "verify-sp4"
    prefix_items = 8
    suites = ("congruence-embedding", "omega-oracle-agreement", "padic-self-tests",
              "pvaluation-axioms", "series-invariants", "verma-golden",
              "weyl-compatibility")

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.outdir = workdir
        self.report_path = os.path.join(workdir, "verify-all-sp4.json")

    def warm_up(self) -> None:
        self._run(0, 10)

    def item(self, index: int) -> Outcome:
        item_seed = item_rng(self.name, self.seed, index).randrange(1 << 31)
        return self._run(item_seed, 1 + index % 4)

    def _run(self, item_seed: int, n_samples: int) -> Outcome:
        argv = ["verify-all", "--group", "sp4", "--p", str(P),
                "--precision", str(PRECISION), "--n-samples", str(n_samples),
                "--seed", str(item_seed), "--json", self.outdir]
        console = io.StringIO()
        with contextlib.redirect_stdout(console):
            rc = cli.main(argv)
        if rc != 0:
            raise CheckFailed(f"verify-all exited {rc} for seed {item_seed}")
        if "total ok" not in console.getvalue():
            raise CheckFailed("verify-all console does not report total ok")
        with open(self.report_path, "rb") as fh:
            data = fh.read()
        report = json.loads(data)
        expect = {"schema": "iwahori.verify-all/1", "group": "sp4", "p": P,
                  "precision": PRECISION, "n_samples": n_samples,
                  "seed": item_seed, "ok": True}
        for key, value in expect.items():
            if report.get(key) != value:
                raise CheckFailed(f"report field {key}={report.get(key)!r}, want {value!r}")
        names = tuple(s["suite"] for s in report["suites"])
        if names != self.suites:
            raise CheckFailed(f"report suites {names}")
        compared = undecided = 0
        for suite in report["suites"]:
            detail = suite["report"]
            if not suite["ok"] or detail.get("failures"):
                raise CheckFailed(f"suite {suite['suite']} failed")
            for counts in detail.get("axioms", {}).values():
                if counts["failed"]:
                    raise CheckFailed(f"suite {suite['suite']} counts a failure")
                compared += counts["passed"] + counts["skipped"]
                undecided += counts["skipped"]
        return Outcome(data, compared, undecided, len(data))


# -- exact-sp4 ----------------------------------------------------------------

# Projector iterates stop at n = 6: the exponent (p-1)*n! is 4320 there and
# 30240 at n = 7, so coefficient sizes stay bounded (see MAX_COEFF_BITS).
MAX_ITERATIONS = 6
SERIES_TERMS = 12
SERIES_DEGREE = 6
# largest |numerator| or denominator a projector coefficient can reach:
# (lambda / p^s)^e times an input coefficient, where lambda <= 6 * degree
# because 6 is the largest Sp4 batch weight
MAX_COEFF_BITS = (P - 1) * math.factorial(MAX_ITERATIONS) * (6 * SERIES_DEGREE).bit_length() + 16
DENOMINATORS = (1, 1, 1, 2, 3, 4, 5, 6, 8, 9)  # all prime to p: rigid characters


def kostant_count_c2(target) -> int:
    """Ways to write target as a non-negative integer combination of the
    Sp4 positive roots (1,-1), (0,2), (1,1), (2,0); the reference count for
    ``weight_multiplicity``.  For each choice of the (1,1) and (2,0)
    multiplicities the other two are determined."""
    x, y = (Fraction(t) for t in target)
    if x.denominator != 1 or y.denominator != 1 or x < 0:
        return 0
    x, y = int(x), int(y)
    count = 0
    for m4 in range(x // 2 + 1):
        for m3 in range(x - 2 * m4 + 1):
            m1 = x - m3 - 2 * m4
            twice_m2 = y + m1 - m3
            if twice_m2 >= 0 and twice_m2 % 2 == 0:
                count += 1
    return count


class ExactSp4:
    """One seeded rigid character on Sp4 per item: the simplicity criterion,
    weight multiplicities over cone weights and Weyl twists, and one series
    through slope_split, the projector iterates, translation and the torus
    action.  Exact rationals throughout.

    The cost of a multiplicity is set by the height of dchi - lambda, that
    of a translation by the degrees of the series, and that of the projector
    by the monomials of the series, whose eigenvalues it raises to the power
    (p-1) n!.  The item index fixes all three, and the seed only picks
    values.  Every fourth item adds one deep cone weight; those items form
    the latency tail."""

    name = "exact-sp4"
    prefix_items = 16
    heights = (9, 12, 14)
    deep_height = 20
    deep_every = 4

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.ctx = iwahori.SeriesContext("sp4", p=P, prec=PRECISION)
        self.ring = self.ctx.ring
        self.datum = self.ctx.datum
        self.weyl = self.datum.weyl_group()

    def warm_up(self) -> None:
        self._run(random.Random("exact-sp4:warm-up"), 0)

    def item(self, index: int) -> Outcome:
        return self._run(item_rng(self.name, self.seed, index), index)

    def _run(self, rng: random.Random, index: int) -> Outcome:
        cs = tuple(Fraction(rng.randint(-12, 12), rng.choice(DENOMINATORS))
                   for _ in range(2))
        heights = self.heights
        if index % self.deep_every == self.deep_every - 1:
            heights += (self.deep_height,)
        parts = []
        checks = self._verma(rng, cs, heights, parts)
        checks += self._series(rng, cs, index, parts)
        return Outcome("|".join(parts).encode(), checks, 0)

    def _cone_offset(self, rng, height):
        """Multiplicities k_r of the positive roots with sum k_r ht(r) = height."""
        roots = self.datum.positive_roots
        ks = [0] * len(roots)
        while height:
            r = rng.choice([i for i, root in enumerate(roots)
                            if self.datum.height(root) <= height])
            ks[r] += 1
            height -= self.datum.height(roots[r])
        return ks

    def _verma(self, rng, cs, heights, parts) -> int:
        dchi = verma.DerivedCharacter.of("sp4", *cs)
        simple, certificate = verma.bgg_simple(dchi)
        conditions = verma.sp4_conditions(*cs)
        by_root = {tuple(e["root"]): e["value"] for e in certificate}
        if conditions != tuple(by_root[r] for r in verma.SP4_CONDITION_ORDER):
            raise CheckFailed("sp4 conditions disagree with the certificate")
        if simple != (not any(verma.is_positive_integer(v) for v in conditions)):
            raise CheckFailed("simplicity verdict disagrees with the conditions")
        for w in self.weyl:
            if verma.bgg_simple_twisted(dchi, w) != simple:
                raise CheckFailed(f"twisted verdict differs under {w.name}")
        parts.append(f"{simple}:" + ",".join(_fraction_bytes(v) for v in conditions))
        checks = 2 + len(self.weyl)

        roots = self.datum.positive_roots
        for height in heights:
            w = rng.choice(self.weyl)
            ks = self._cone_offset(rng, height)
            target = [0, 0]
            for k, r in zip(ks, roots):
                wr = self.datum.act_root(w, r)
                target = [t + k * c for t, c in zip(target, wr)]
            lam = [c - t for c, t in zip(cs, target)]
            mult = verma.weight_multiplicity(dchi, verma.WeightLabel.of("sp4", *lam), w)
            want = kostant_count_c2(w.inverse().act(target))
            if mult != want or mult < 1:
                raise CheckFailed(f"multiplicity {mult}, reference {want}, under {w.name}")
            parts.append(f"{w.name}:{ks}:{mult}")
        off_lattice = verma.WeightLabel.of("sp4", cs[0] - Fraction(1, 2), cs[1])
        if verma.weight_multiplicity(dchi, off_lattice) != 0:
            raise CheckFailed("off-lattice weight has nonzero multiplicity")
        return checks + len(heights) + 1

    def _series(self, rng, cs, index, parts) -> int:
        ctx, ring = self.ctx, self.ring
        s = index % 2
        # one constant term, then total degrees 1..SERIES_DEGREE in turn, on
        # monomials drawn from the index alone
        support = random.Random(f"{self.name}:support:{index}")
        degrees = [0] + [1 + k % SERIES_DEGREE for k in range(SERIES_TERMS - 1)]
        coeffs = {}
        for degree in degrees:
            idx = None
            while idx is None or idx in coeffs:
                idx = [0] * ctx.nvars
                for _ in range(degree):
                    idx[support.randrange(ctx.nvars)] += 1
                idx = tuple(idx)
            coeffs[idx] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 30),
                                   rng.choice(DENOMINATORS))
        f = series.TruncatedSeries(ctx, coeffs, SERIES_DEGREE)

        below, atleast = series.slope_split(f, s)
        if not (below + atleast == f and series.slope_split(atleast, s)[0].is_zero()):
            raise CheckFailed("slope split does not recombine")
        exact = series.slope_exact(f, s)
        base = atleast.gauss_valuation()
        last = None
        for n in range(1, MAX_ITERATIONS + 1):
            projected = series.hida_projector(atleast, s, n)
            bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                        for c in projected.coeffs.values()), default=0)
            if bits > MAX_COEFF_BITS:
                raise CheckFailed(f"projector coefficient of {bits} bits")
            err = (projected - exact).gauss_valuation()
            # v(u^((p-1) n!) - 1) >= 1 for a unit u, so each iterate is at
            # least one digit closer than the input, and none is farther than
            # the one before
            if err.kind == "finite" and (base.kind != "finite" or err.value < base.value + 1):
                raise CheckFailed(f"projector iterate {n} is too far from slope_exact")
            if last is not None and last.kind == "finite" and (
                    err.kind == "finite" and err.value < last.value):
                raise CheckFailed(f"projector iterate {n} moved away from slope_exact")
            last = err
        parts.append(f"s={s}:" + _series_text(projected))

        shift = [rng.randint(-3, 3) for _ in range(ctx.nvars)]
        moved = series.translate_action(f, shift)
        if moved.gauss_valuation() != f.gauss_valuation():
            raise CheckFailed("translation changed the Gauss norm")
        z = [Fraction(rng.randint(-4, 4)) for _ in range(ctx.nvars)]
        if moved.evaluate(z) != f.evaluate(series.batch_coordinate_product(ctx, z, shift)):
            raise CheckFailed("translated series has the wrong values")
        parts.append(_series_text(moved))

        chi = series.Character.from_rationals(*cs)
        t1 = tuple(ring.from_int(1 + P * rng.randrange(P ** 3)) for _ in cs)
        t2 = tuple(ring.from_int(1 + P * rng.randrange(P ** 3)) for _ in cs)
        once = series.torus_action(f, t1, chi)
        if set(once.coeffs) != set(f.coeffs):
            raise CheckFailed("torus action changed the support")
        product = tuple(a * b for a, b in zip(t1, t2))
        if not series.torus_action(once, t2, chi) == series.torus_action(f, product, chi):
            raise CheckFailed("torus action is not multiplicative")
        parts.append(_series_text(once))
        return 1 + 3 * MAX_ITERATIONS + 2 + 2


WORKLOADS = {cls.name: cls for cls in (VerifySp4, ExactSp4)}
