"""Per-layer spans and counters for the traced run, recorded from outside.

``Tracer.install`` wraps public functions and methods of the library in
place and ``Tracer.uninstall`` puts the originals back; the library itself
is not edited.  Wrappers pass arguments and results through unchanged, so a
traced item gives the same outputs as an untraced one (the run checks this
through the digest).

A span is one call of a wrapped function.  Spans are aggregated as they end
(calls, inclusive time, self time), so memory does not grow with run length.
Self time is inclusive time minus the time of child spans recorded here.
Scalar operations are only counted: timing each of them would cost more
than the operation.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

FACTORIZE = "groups.iwahori_factorize"
# child spans of a factorization that are self-checks rather than elimination
FACTORIZE_CHECKS = ("groups.in_iwahori", "groups.satisfies_group_relation", "groups.mul")
# per-layer metrics kept as plain counters rather than derived from spans
COUNTERS = ("padic.mul.calls", "padic.add.calls", "padic.inv.calls",
            "padic.ramified_ops.calls", "groups.iwahori_factorize.mul_calls",
            "series.translate_action.out_terms")
_STAT = {"calls": 0, "total_s": 1, "self_s": 2}


def _spanned_functions():
    from iwahori import axioms, cli, padic, series, verma
    return [
        (padic, "padic_exp", "padic.padic_exp"),
        (padic, "padic_log", "padic.padic_log"),
        (axioms, "check_pvaluation_axioms", "axioms.harness"),
        (axioms, "check_compatibility_all_w", "axioms.harness"),
        (axioms, "check_oracle_agreement", "axioms.harness"),
        (axioms, "check_et_embedding", "axioms.harness"),
        (axioms, "sample_iwahori", "axioms.sample_iwahori"),
        (series, "hida_projector", "series.hida_projector"),
        (series, "translate_action", "series.translate_action"),
        (series, "torus_action", "series.torus_action"),
        (series, "slope_split", "series.slope_split"),
        (verma, "weight_multiplicity", "verma.weight_multiplicity"),
        (verma, "bgg_simple", "verma.bgg_simple"),
        (cli, "_emit", "cli.emit"),
    ]


def _spanned_methods():
    from iwahori.groups import ChevalleyGroup, GroupElement
    from iwahori.series import TruncatedSeries
    return [
        (GroupElement, "__mul__", "groups.mul"),
        (GroupElement, "__pow__", "groups.pow"),
        (GroupElement, "inv", "groups.inv"),
        (GroupElement, "satisfies_group_relation", "groups.satisfies_group_relation"),
        (ChevalleyGroup, "iwahori_factorize", FACTORIZE),
        (ChevalleyGroup, "in_iwahori", "groups.in_iwahori"),
        (ChevalleyGroup, "p_valuation", "groups.p_valuation"),
        (ChevalleyGroup, "p_valuation_by_conjugation", "groups.p_valuation_by_conjugation"),
        (ChevalleyGroup, "from_coordinates", "groups.from_coordinates"),
        (TruncatedSeries, "gauss_valuation", "series.gauss_valuation"),
    ]


def _counted_methods():
    from iwahori.padic import PadicScalar
    return [
        (PadicScalar, "__mul__", "padic.mul.calls"),
        (PadicScalar, "__rmul__", "padic.mul.calls"),
        (PadicScalar, "__add__", "padic.add.calls"),
        (PadicScalar, "__radd__", "padic.add.calls"),
        (PadicScalar, "__sub__", "padic.add.calls"),
        (PadicScalar, "__rsub__", "padic.add.calls"),
        (PadicScalar, "__neg__", "padic.add.calls"),
        (PadicScalar, "inv", "padic.inv.calls"),
    ]


class Tracer:
    def __init__(self):
        # name -> [calls, inclusive seconds, self seconds]
        self.spans = {}
        self.counts = Counter()
        self._stack = []  # one [name, child seconds] frame per open span
        self._factorize_depth = 0
        self._patches = []  # (owner, attribute, original)

    def stat(self, span: str, kind: str) -> float:
        """``kind`` is calls, total_s or self_s; 0 for a span never entered."""
        entry = self.spans.get(span)
        return entry[_STAT[kind]] if entry else 0

    # -- recording ------------------------------------------------------

    def _span(self, name, fn, observe=None):
        stack, spans, counts = self._stack, self.spans, self.counts

        def wrapper(*args, **kwargs):
            if name == "groups.mul" and self._factorize_depth:
                counts["groups.iwahori_factorize.mul_calls"] += 1
            if name == FACTORIZE:
                self._factorize_depth += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if name == FACTORIZE:
                    self._factorize_depth -= 1
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    if parent[0] == FACTORIZE and name in FACTORIZE_CHECKS:
                        counts["groups.iwahori_factorize.check_s"] += elapsed
                entry = spans.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(scalar, *args):
            counts[name] += 1
            if scalar.ring.m > 1:
                counts["padic.ramified_ops.calls"] += 1
            return fn(scalar, *args)

        return wrapper

    def _projector_bits(self, result):
        bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                    for c in result.coeffs.values()), default=0)
        key = "series.hida_projector.max_coeff_bits"
        self.counts[key] = max(self.counts[key], bits)

    def _translate_terms(self, result):
        self.counts["series.translate_action.out_terms"] += len(result.coeffs)

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        observers = {"series.hida_projector": self._projector_bits,
                     "series.translate_action": self._translate_terms}
        for module, attr, name in _spanned_functions():
            original = getattr(module, attr)
            wrapper = self._span(name, original, observers.get(name))
            # the function is also bound under the same name in every module
            # that imported it, and callers look it up there
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] == "iwahori" and \
                        getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapper)
        for cls, attr, name in _spanned_methods():
            self._patch(cls, attr, self._span(name, cls.__dict__[attr]))
        for cls, attr, name in _counted_methods():
            self._patch(cls, attr, self._counter(name, cls.__dict__[attr]))

    def _patch(self, owner, attr, value) -> None:
        # a class attribute is read from __dict__ so methods stay unbound
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
