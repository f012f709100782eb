"""Command-line entry point.

Every subcommand emits machine-readable JSON on stdout (or into --json
DIR) with exact values only: rationals as "a/b" strings and p-adic
scalars as digit expansions.  Exit codes: 0 success, 1 check failures,
2 parameter-gate or usage errors, 3 a failed internal self-check (a bug).

Defaults can be overridden with environment variables prefixed IWAHORI_,
e.g. IWAHORI_P=11 iwahori basis --group sl2.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction

from .axioms import SUITES, check_verma
from .groups import ChevalleyGroup, GateError, MembershipError
from .padic import InternalError, PadicScalar
from .roots import get_root_datum
from .series import (
    SeriesContext,
    SeriesError,
    TruncatedSeries,
    character_expand,
    hida_projector,
    slope_exact,
    slope_split,
)
from .verma import (
    DerivedCharacter,
    WeightLabel,
    bgg_simple,
    sp4_conditions,
    summand_inventory,
    weight_multiplicity,
)

GROUPS = ("sl2", "sl3", "sp4")
VERIFY_SAMPLES = 200


def _env(name: str, fallback):
    return os.environ.get(f"IWAHORI_{name.upper()}", fallback)


def _fraction(text) -> Fraction:
    return Fraction(str(text))


def _emit(args, name: str, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if getattr(args, "json_dir", None):
        os.makedirs(args.json_dir, exist_ok=True)
        path = os.path.join(args.json_dir, f"{name}.json")
        with open(path, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {path}")
    else:
        print(text)


def _parse_weyl(datum, word: str):
    word = (word or "e").strip().lower()
    if word in ("e", "1", "id", "identity"):
        return datum.identity_weyl()
    w = datum.identity_weyl()
    for token in word.replace("*", " ").split():
        if not token.startswith("s"):
            raise ValueError(f"bad Weyl word token {token!r}; use e or s1*s2...")
        i = int(token[1:]) - 1
        if not 0 <= i < datum.rank:
            raise ValueError(f"reflection index out of range in {token!r}")
        w = w.compose(datum.simple_reflection(i))
    return w


def _group_from_args(args) -> ChevalleyGroup:
    return ChevalleyGroup(args.group, p=args.p, prec=args.precision)


def _read_json(option: str, path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as err:
            raise ValueError(f"{option} file {path!r} is not valid JSON: {err}") from None


def _parse_matrix(group: ChevalleyGroup, text: str):
    if os.path.exists(text):
        data = _read_json("--element", text)
    else:
        try:
            data = json.loads(text)
        except ValueError:
            raise ValueError(f"--element {text!r} is neither a file nor a JSON matrix") from None
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ValueError(f"--element {text!r} is not a JSON list of rows")
    rows = [[group.ring.from_fraction(_fraction(x)) for x in row] for row in data]
    return group.element(rows)


def _encode_scalar(x) -> str:
    if isinstance(x, PadicScalar):
        return x.digit_string()
    return str(x)


def _series_to_json(f: TruncatedSeries):
    return [{"index": list(idx), "coeff": _encode_scalar(c)}
            for idx, c in sorted(f.coeffs.items())]


def _series_from_json(ctx: SeriesContext, data, degree):
    if not isinstance(data, list) or not all(
            isinstance(t, dict) and "coeff" in t and isinstance(t.get("index"), list)
            and all(isinstance(i, int) for i in t["index"]) for t in data):
        raise ValueError('a series file holds a JSON list of '
                         '{"index": [i1, ..., iN], "coeff": "a/b"} objects')
    coeffs = {tuple(term["index"]): _fraction(term["coeff"]) for term in data}
    return TruncatedSeries(ctx, coeffs, degree)


# -- subcommands ----------------------------------------------------------


def cmd_rootdata(args) -> int:
    datum = get_root_datum(args.group)
    payload = {
        "schema": "iwahori.rootdata/1",
        "group": datum.name,
        "simple_roots": [list(r) for r in datum.simple_roots],
        "positive_roots": [list(r) for r in datum.positive_roots],
        "heights": {str(list(r)): datum.height(r) for r in datum.positive_roots},
        "coxeter_number": datum.coxeter_number(),
        "weyl_order": len(datum.weyl_group()),
        "delta": [str(c) for c in datum.delta],
        "delta_pairings": {str(list(r)): str(v) for r, v in datum.delta_pairings().items()},
    }
    _emit(args, f"rootdata-{datum.name}", payload)
    return 0


def cmd_omega(args) -> int:
    group = _group_from_args(args)
    group.check_gate()
    g = _parse_matrix(group, args.element)
    if not group.in_iwahori(g):
        print("element is not in the pro-p Iwahori subgroup", file=sys.stderr)
        return 1
    formula = group.p_valuation(g)
    payload = {
        "schema": "iwahori.omega/1",
        "group": group.name,
        "p": group.ring.p,
        "precision": group.ring.prec,
        "omega": formula.as_json(),
    }
    if args.oracle:
        payload["omega_oracle"] = group.p_valuation_by_conjugation(g).as_json()
        payload["agreement"] = payload["omega"] == payload["omega_oracle"]
    _emit(args, "omega", payload)
    return 0 if (not args.oracle or payload["agreement"]) else 1


def cmd_factorize(args) -> int:
    group = _group_from_args(args)
    w = _parse_weyl(group.datum, args.w)
    g = _parse_matrix(group, args.element)
    fact = group.iwahori_factorize(g, w)
    payload = {
        "schema": "iwahori.factorization/1",
        "group": group.name,
        "w": w.name,
        "negative_batch": [{"root": list(r), "parameter": _encode_scalar(x)}
                           for r, x in fact.negative],
        "torus_coordinates": [_encode_scalar(s) for s in fact.torus_coordinates],
        "positive_batch": [{"root": list(r), "parameter": _encode_scalar(x)}
                           for r, x in fact.positive],
        "round_trip_ok": fact.remultiply() == g,
    }
    _emit(args, "factorization", payload)
    return 0 if payload["round_trip_ok"] else 1


def cmd_basis(args) -> int:
    group = _group_from_args(args)
    w = _parse_weyl(group.datum, args.w)
    basis = group.ordered_basis(w)
    payload = {
        "schema": "iwahori.basis/1",
        "group": group.name,
        "w": w.name,
        "dimension": len(basis),
        "entries": [{
            "label": {"kind": e.label[0], "vector": list(e.label[1])},
            "omega": str(e.omega),
        } for e in basis.entries],
    }
    _emit(args, f"basis-{group.name}", payload)
    return 0


def _verify_group(args) -> ChevalleyGroup:
    """The gated group that a verify run checks."""
    if args.n_samples < 1:
        raise ValueError(f"--n-samples must be at least 1, got {args.n_samples}")
    return _gated_group(args.group, args.p, args.precision)


@functools.cache
def _gated_group(name: str, p: int, precision: int) -> ChevalleyGroup:
    """One gated group per (name, p, N) in a process, so the ordered basis
    that the et suite checks is built once and read by every later run."""
    group = ChevalleyGroup(name, p=p, prec=precision)
    group.check_gate()
    return group


def cmd_verify(args) -> int:
    _name, run, divisor = SUITES[args.suite]
    if args.n_samples is None:
        args.n_samples = VERIFY_SAMPLES
    elif divisor is None:
        raise ValueError(f"verify {args.suite} takes no --n-samples")
    rep = run(_verify_group(args), args.n_samples, args.seed)
    _emit(args, f"verify-{args.suite}-{args.group}", rep.as_json())
    return 0 if rep.total_failures == 0 else 1


def cmd_slope(args) -> int:
    ctx_group = ChevalleyGroup(args.group, p=args.p, prec=args.precision)
    ctx = SeriesContext(ctx_group, w=_parse_weyl(ctx_group.datum, args.w))
    f = _series_from_json(ctx, _read_json("--series", args.series), args.degree)
    below, atleast = slope_split(f, args.slope)
    if args.action == "split":
        payload = {
            "schema": "iwahori.slope-split/1",
            "s": args.slope,
            "below": _series_to_json(below),
            "at_least": _series_to_json(atleast),
            "gauss_valuation_below": below.gauss_valuation().as_json(),
            "gauss_valuation_at_least": atleast.gauss_valuation().as_json(),
        }
    else:
        try:
            projected = hida_projector(atleast, args.slope, args.iterations)
            projected_json = _series_to_json(projected)
        except ValueError as err:
            # the exponent cap, or str() of an int beyond the interpreter's
            # digit limit
            reason = err if isinstance(err, SeriesError) else (
                "an exact coefficient has too many digits to print")
            print(f"error: {reason}; use fewer --iterations", file=sys.stderr)
            return 2
        target = slope_exact(f, args.slope)
        payload = {
            "schema": "iwahori.slope-project/1",
            "s": args.slope,
            "iterations": args.iterations,
            "projected": projected_json,
            "distance_to_exact": (projected - target).gauss_valuation().as_json(),
        }
    _emit(args, f"slope-{args.action}", payload)
    return 0


def cmd_bgg(args) -> int:
    cs = [_fraction(c) for c in args.characters.split(",")]
    dchi = DerivedCharacter.of(args.group, *cs)
    simple, certificate = bgg_simple(dchi)
    payload = {
        "schema": "iwahori.bgg/1",
        "group": args.group,
        "dchi": [str(c) for c in cs],
        "values": [{"root": list(e["root"]), "value": str(e["value"]),
                    "positive_integer": e["positive_integer"]} for e in certificate],
        "simple": simple,
    }
    _emit(args, "bgg", payload)
    return 0


def cmd_verma_mult(args) -> int:
    cs = [_fraction(c) for c in args.characters.split(",")]
    lam = [_fraction(c) for c in args.weight.split(",")]
    dchi = DerivedCharacter.of(args.group, *cs)
    w = _parse_weyl(dchi.datum, args.w)
    mult = weight_multiplicity(dchi, WeightLabel.of(args.group, *lam), w)
    payload = {
        "schema": "iwahori.verma-mult/1",
        "group": args.group,
        "dchi": [str(c) for c in cs],
        "weight": [str(c) for c in lam],
        "w": w.name,
        "multiplicity": mult,
    }
    _emit(args, "verma-mult", payload)
    return 0


def cmd_summands(args) -> int:
    inv = summand_inventory(args.group)
    payload = {
        "schema": "iwahori.summands/1",
        "group": inv["group"],
        "count": inv["count"],
        "summands": inv["summands"],
        "witnesses": {f"{a}|{b}": list(r) for (a, b), r in sorted(inv["witnesses"].items())},
    }
    _emit(args, f"summands-{args.group}", payload)
    return 0


def cmd_verify_all(args) -> int:
    group = _verify_group(args)
    suites = []
    # a slot per axiom-suite sample that a suite with a divisor above 1 reads
    drawn = [None] * max(max(1, args.n_samples // d) for *_, d in SUITES.values() if d and d > 1)
    t0 = time.perf_counter()
    for name, run, divisor in SUITES.values():
        start = time.perf_counter()
        rep = (run(group, max(1, args.n_samples // divisor), args.seed, drawn) if divisor
               else run(group, None, args.seed))
        ok = rep.total_failures == 0
        print(f"{name:<28} {'ok' if ok else 'FAIL'}  ({time.perf_counter() - start:.2f}s)")
        suites.append({"suite": name, "ok": ok, "report": rep.as_json()})

    ok = all(s["ok"] for s in suites)
    print(f"total {'ok' if ok else 'FAIL'} ({time.perf_counter() - t0:.2f}s)")
    # reports are timing-free so identical configurations give identical bytes
    payload = {
        "schema": "iwahori.verify-all/1",
        "group": args.group,
        "p": args.p,
        "precision": args.precision,
        "n_samples": args.n_samples,
        "seed": args.seed,
        "suites": sorted(suites, key=lambda s: s["suite"]),
        "ok": ok,
    }
    _emit(args, f"verify-all-{args.group}", payload)
    return 0 if ok else 1


def cmd_sp4_golden(args) -> int:
    datum = get_root_datum("sp4")
    group = ChevalleyGroup("sp4", p=args.p, prec=args.precision)
    checks = {}
    checks["coxeter_number_4"] = datum.coxeter_number() == 4
    checks["positive_roots"] = set(datum.positive_roots) == {(1, -1), (0, 2), (1, 1), (2, 0)}
    checks["delta_is_a2b"] = datum.delta == (Fraction(2), Fraction(1))
    vals = sp4_conditions(Fraction(1, 3), Fraction(1, 5))
    checks["conditions_sample"] = vals == (
        Fraction(1, 3) - Fraction(1, 5) + 1, Fraction(1, 5) + 1,
        Fraction(1, 3) + Fraction(1, 5) + 3, Fraction(1, 3) + 2)
    verma_failures = check_verma(group).failures
    checks["zero_character_not_simple"] = "zero character must not be simple" not in verma_failures
    checks["eight_summands"] = "summand count" not in verma_failures
    _, conv = character_expand(Fraction(1, args.p), 3, args.p)
    checks["rigidity_rejects_1_over_p"] = not conv
    _, conv = character_expand(Fraction(1, 3), 3, args.p)
    checks["rigidity_accepts_unit_denominator"] = conv
    membership = all(group.in_iwahori(group.root_element(r, 1))
                     for r in datum.positive_roots)
    membership = membership and all(
        not group.in_iwahori(group.root_element(r, 1))
        and group.in_iwahori(group.root_element(r, args.p))
        for r in datum.negative_roots)
    checks["iwahori_membership_pattern"] = membership
    pattern = [["1" if i == j else ("*" if i > j else "p*") for j in range(4)]
               for i in range(4)]
    ok = all(checks.values())
    payload = {
        "schema": "iwahori.sp4-golden/1",
        "p": args.p,
        "checks": checks,
        "bgg_values_at_(1/3,1/5)": [str(v) for v in vals],
        "mod_p_pattern": pattern,
        "ok": ok,
    }
    _emit(args, "sp4-golden", payload)
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; the IWAHORI_* defaults
    are read when it is built.  They stay strings until a command that reads
    the option parses them, so a malformed one is that command's usage
    error (exit 2) and no other command's."""
    parser = argparse.ArgumentParser(
        prog="iwahori",
        description="Exact computations with pro-p Iwahori subgroups: "
                    "p-valuations, ordered bases, slopes and the simplicity criterion.",
        epilog="Defaults honour IWAHORI_GROUP, IWAHORI_P, IWAHORI_PRECISION, "
               "IWAHORI_SEED environment variables.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, group=True, ring=True, seed=False):
        """--json, and of --group, --p/--precision and --seed only what the
        command reads, so that a setting with no effect is a usage error."""
        if group:
            p.add_argument("--group", choices=GROUPS, default=_env("group", "sp4"))
        if ring:
            p.add_argument("--p", type=int, default=_env("p", 7))
            p.add_argument("--precision", "--n", type=int, default=_env("precision", 12))
        if seed:
            p.add_argument("--seed", type=int, default=_env("seed", 1))
        p.add_argument("--json", dest="json_dir", default=None,
                       help="write reports into this directory instead of stdout")

    p = sub.add_parser("rootdata", help="roots, heights, Coxeter number, delta pairings")
    p.add_argument("topic", nargs="?", choices=("info",), default="info")
    common(p, ring=False)
    p.set_defaults(fn=cmd_rootdata)

    p = sub.add_parser("omega", help="p-valuation of a matrix element")
    common(p)
    p.add_argument("--element", required=True, help="JSON matrix or a path to one")
    p.add_argument("--oracle", action="store_true",
                   help="also run the conjugation oracle and compare")
    p.set_defaults(fn=cmd_omega)

    p = sub.add_parser("factorize", help="batch factorization for a Weyl twist")
    common(p)
    p.add_argument("--element", required=True)
    p.add_argument("--w", default="e", help="Weyl word, e.g. e or s1*s2")
    p.set_defaults(fn=cmd_factorize)

    p = sub.add_parser("basis", help="ordered basis and its p-valuations")
    common(p)
    p.add_argument("--w", default="e")
    p.set_defaults(fn=cmd_basis)

    p = sub.add_parser("verify", help="property suites with exact comparisons")
    p.add_argument("suite", choices=tuple(SUITES))
    common(p, seed=True)
    sampling = ", ".join(key for key, row in SUITES.items() if row[2])
    p.add_argument("--n-samples", type=int, default=None, help=f"samples, for {sampling} "
                   f"only (default {VERIFY_SAMPLES}); the other suites draw none")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("slope", help="slope decompositions and the projector")
    p.add_argument("action", choices=("split", "project"))
    common(p)
    p.add_argument("--w", default="e")
    p.add_argument("--s", dest="slope", type=int, default=0)
    p.add_argument("--degree", type=int, default=30)
    p.add_argument("--iterations", type=int, default=3)
    p.add_argument("--series", required=True, help="path to series JSON")
    p.set_defaults(fn=cmd_slope)

    p = sub.add_parser("bgg", help="simplicity criterion on exact character data")
    common(p, ring=False)
    p.add_argument("--c", dest="characters", required=True,
                   help="comma separated rationals, e.g. 1/3,1/5")
    p.set_defaults(fn=cmd_bgg)

    p = sub.add_parser("verma-mult", help="weight multiplicity")
    common(p, ring=False)
    p.add_argument("--c", dest="characters", required=True)
    p.add_argument("--lambda", dest="weight", required=True)
    p.add_argument("--w", default="e")
    p.set_defaults(fn=cmd_verma_mult)

    p = sub.add_parser("summands", help="Weyl-indexed summand inventory")
    common(p, ring=False)
    p.set_defaults(fn=cmd_summands)

    p = sub.add_parser("verify-all", help="all suites, nonzero exit on failure")
    common(p, seed=True)
    p.add_argument("--n-samples", type=int, default=VERIFY_SAMPLES)
    p.set_defaults(fn=cmd_verify_all)

    p = sub.add_parser("sp4-golden", help="the explicit symplectic rank-two example")
    common(p, group=False)
    p.set_defaults(fn=cmd_sp4_golden)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except GateError as err:
        print(f"gate error: {err}", file=sys.stderr)
        return 2
    except (MembershipError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except InternalError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
