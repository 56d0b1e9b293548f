"""Outside-in tracer: spans around calls into each cfpow layer.

``Tracer.install`` wraps the public functions listed in ``TARGETS``.  A
module-level function is patched in its defining module and in every cfpow
module that imported it by name (``bounds.pw_transfer``, ``cli.expand``, ...);
a method is patched on its class.  Spans stay in memory until ``summary``
folds them into per-layer totals, and ``uninstall`` restores every original.
Nothing here runs unless a traced run asks for it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from math import comb


def _count_period(counts, args, kwargs, result, error):
    if error is None:
        counts["cfrac.expand.period_terms"] += len(result.period)


def _count_terms(counts, args, kwargs, result, error):
    if error is None:
        counts["cfrac.convergents.terms"] += len(result)


def _count_digits(counts, args, kwargs, result, error):
    if error is None:
        counts["numeration.ostrowski.digits"] += len(result.digits)


def _count_case(counts, args, kwargs, result, error):
    if error is None:
        counts["bounds.case." + result.case] += 1
    elif type(error).__name__ == "InapplicableError":
        counts["bounds.inapplicable"] += 1


def _count_search(counts, args, kwargs, result, error):
    if error is None:
        rng = args[1] if len(args) > 1 else kwargs["rng"]
        # weakly decreasing K-tuples over [0, N_max]
        counts["search.tuples"] += comb(rng.N_max + rng.K, rng.K)
        counts["search.solutions"] += len(result)


# (span name, defining module, attribute or Class.method, counter)
TARGETS = (
    ("quadfield.squarefree_split", "cfpow.quadfield", "squarefree_split", None),
    ("quadfield.make_quadnum", "cfpow.quadfield", "make_quadnum", None),
    ("quadfield.enclose", "cfpow.quadfield", "QuadNum.enclose", None),
    ("quadfield.transcendental", "cfpow.quadfield", "DyadicInterval.log", None),
    ("quadfield.transcendental", "cfpow.quadfield", "DyadicInterval.exp", None),
    ("quadfield.transcendental", "cfpow.quadfield", "DyadicInterval.root", None),
    ("cfrac.expand", "cfpow.cfrac", "expand", _count_period),
    ("cfrac.binet_data", "cfpow.cfrac", "binet_data", None),
    ("cfrac.convergents", "cfpow.cfrac", "convergents", _count_terms),
    ("numeration.ostrowski", "cfpow.numeration", "ostrowski_encode", _count_digits),
    ("numeration.ostrowski", "cfpow.numeration", "ostrowski_decode", None),
    ("numeration.ostrowski", "cfpow.numeration", "ostrowski_validate", None),
    ("numeration.zeckendorf_radix", "cfpow.numeration", "zeckendorf_encode", None),
    ("numeration.zeckendorf_radix", "cfpow.numeration", "radix_encode", None),
    ("heights.height_quadratic", "cfpow.heights", "height_quadratic", None),
    ("heights.log_plus", "cfpow.heights", "log_plus", None),
    ("linforms.matveev", "cfpow.linforms", "matveev_gamma_bound", None),
    ("linforms.matveev", "cfpow.linforms", "matveev_lambda_bound", None),
    ("linforms.pw_transfer", "cfpow.linforms", "pw_transfer", None),
    ("bounds.elementary_constants", "cfpow.bounds", "elementary_constants", None),
    ("bounds.pipeline", "cfpow.bounds", "theorem_y_bound", _count_case),
    ("bounds.pipeline", "cfpow.bounds", "theorem_ham_bound", _count_case),
    ("bounds.pipeline", "cfpow.bounds", "theorem_ham2_bound", _count_case),
    ("search.enumerate", "cfpow.search", "enumerate_solutions", _count_search),
    ("search.power_splits", "cfpow.search", "power_splits", None),
    ("search.verify_bounds", "cfpow.search", "verify_bounds", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in TARGETS))
COUNT_NAMES = (
    "cfrac.expand.period_terms",
    "cfrac.convergents.terms",
    "numeration.ostrowski.digits",
    "bounds.case.main",
    "bounds.case.gamma_equals_one",
    "bounds.case.k_equals_one",
    "bounds.case.below_N0",
    "bounds.inapplicable",
    "search.tuples",
    "search.solutions",
)


class Tracer:
    """Span recorder; install() patches cfpow, uninstall() restores it."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts = Counter()
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original)

    def _wrap(self, name, fn, counter):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
                if counter is not None:
                    counter(counts, args, kwargs, result, error)

        return traced

    def install(self) -> None:
        import cfpow.cli  # noqa: F401  (loads every layer, so every by-name import exists)

        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == "cfpow" or n.startswith("cfpow.")]
        for name, module_name, attr, counter in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(name, original, counter))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, counter)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per-span calls and self time, plus the named counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for name in SPAN_NAMES:
            out[name + ".calls"] = 0
            out[name + ".self_s"] = 0.0
        for index, (name, start, end, parent) in enumerate(self.spans):
            out[name + ".calls"] += 1
            out[name + ".self_s"] += end - start - child[index]
        for name in COUNT_NAMES:
            out[name] = self.counts[name]
        return out
