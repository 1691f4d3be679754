"""Spans and counters around wildmdeg's public functions, installed from outside.

``install`` replaces each traced function with a wrapper everywhere the
package binds it: module globals, names imported by ``from ... import``
into other wildmdeg modules, and class attributes, aliases such as
``Polynomial.__rmul__ = __mul__`` included.  Each wrapper records a span
(name, start, end, parent).  Spans stay in memory and are written out
once, at the end; a layer's self time is its spans' durations minus the
time their child spans cover.
"""

import functools
import json
import sys
from array import array
from time import perf_counter

ROOT_SPAN = "item"

# (metric prefix, module, attribute path) of every traced entry point
TARGETS = (
    ("poly.mul", "wildmdeg.poly", "Polynomial.__mul__"),
    ("poly.pow", "wildmdeg.poly", "Polynomial.__pow__"),
    ("poly.substitute", "wildmdeg.poly", "Polynomial.substitute"),
    ("poly.str", "wildmdeg.poly", "Polynomial.__str__"),
    ("maps.compose", "wildmdeg.maps", "compose"),
    ("maps.shear", "wildmdeg.maps", "NagataShear.applied_to"),
    ("maps.triangular", "wildmdeg.maps", "Triangular.applied_to"),
    ("maps.is_identity", "wildmdeg.maps", "is_identity"),
    ("derivations.exp", "wildmdeg.derivations", "exp"),
    ("reduction.audit", "wildmdeg.reduction", "no_elementary_reduction_check"),
    ("reduction.type_iii", "wildmdeg.reduction", "type_iii_check"),
    ("classify.classify_tame", "wildmdeg.classify", "classify_tame"),
    ("classify.semigroup", "wildmdeg.classify", "semigroup_member"),
    ("classify.wild_family", "wildmdeg.classify", "wild_family"),
    ("classify.to_dict", "wildmdeg.classify", "Classification.to_dict"),
    ("cli.main", "wildmdeg.cli", "main"),
)
NAMES = (ROOT_SPAN,) + tuple(t[0] for t in TARGETS)
MUL_COUNTS = ("term_products", "terms_out", "peak_terms")


class Tracer:
    """Spans of one process, as parallel arrays indexed by span number."""

    def __init__(self):
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._open = [-1]
        self.mul = dict.fromkeys(MUL_COUNTS, 0)

    def open(self, name_id):
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index):
        self.end[index] = perf_counter()
        self._open.pop()

    def count_mul(self, products, terms_out):
        self.mul["term_products"] += products
        self.mul["terms_out"] += terms_out
        if terms_out > self.mul["peak_terms"]:
            self.mul["peak_terms"] = terms_out

    def summary(self):
        """Per-layer calls and self time, plus the multiplication counts."""
        n = len(self.name)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        for i in range(n):
            calls[self.name[i]] += 1
            self_s[self.name[i]] += self.end[i] - self.start[i] - covered[i]
        out = {}
        for name_id, prefix in enumerate(NAMES[1:], start=1):
            out[f"{prefix}.calls"] = calls[name_id]
            out[f"{prefix}.self_s"] = self_s[name_id]
        for key, value in self.mul.items():
            out[f"poly.mul.{key}"] = value
        return out

    def write(self, path):
        """One JSON header line, then the name, start, end and parent arrays."""
        with open(path, "wb") as f:
            header = {
                "names": NAMES,
                "spans": len(self.name),
                "arrays": [["name", "H"], ["start", "d"], ["end", "d"], ["parent", "q"]],
                "byteorder": sys.byteorder,
            }
            f.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.start, self.end, self.parent):
                column.tofile(f)


def _span(tracer, name_id, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)

    return traced


def _mul_span(tracer, name_id, fn, polynomial):
    @functools.wraps(fn)
    def traced(a, b):
        index = tracer.open(name_id)
        try:
            out = fn(a, b)
        finally:
            tracer.close(index)
        if out is not NotImplemented:
            width = len(b) if isinstance(b, polynomial) else 1
            tracer.count_mul(len(a) * width, len(out))
        return out

    return traced


def _package_namespaces():
    for module_name, module in list(sys.modules.items()):
        if module_name == "wildmdeg" or module_name.startswith("wildmdeg."):
            yield module
            for value in list(vars(module).values()):
                if isinstance(value, type) and value.__module__.startswith("wildmdeg"):
                    yield value


def install(tracer):
    """Wrap every traced entry point of the wildmdeg modules already imported."""
    for name_id, (prefix, module_name, path) in enumerate(TARGETS, start=1):
        module = sys.modules.get(module_name)
        if module is None:
            continue
        owner = module
        *owners, attribute = path.split(".")
        for step in owners:
            owner = getattr(owner, step)
        original = vars(owner)[attribute]
        if prefix == "poly.mul":
            wrapper = _mul_span(tracer, name_id, original, owner)
        else:
            wrapper = _span(tracer, name_id, original)
        for namespace in _package_namespaces():
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, wrapper)
