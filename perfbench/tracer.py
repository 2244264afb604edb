"""Span and counter tracing at toriclc module boundaries, from outside the
library.

Tracer.install() replaces selected public functions by wrappers in every
toriclc module that binds them: modules call `la.*`, `co.*`, `se.*` and
`gr.*` through module attributes, and names imported with `from ... import`
(such as `sectors.in_face_localization`) are patched where they are bound.
Tracer.uninstall() puts every original object back.  Spans (name, start,
end, parent, job id) stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "problems", "cones", "semigroups", "sectors", "cohomology",
          "grading", "reporting", "intlinalg")

# Functions timed as spans; the module prefix names the layer.
SPANNED = (
    "cli.run",
    "problems.parse_problem_file",
    "cones.facet_support_functions",
    "cones.build_face_lattice",
    "semigroups.ToricPresentation.build",
    "sectors.enumerate_classes",
    "sectors.class_poset",
    "sectors.sector_inventory",
    "cohomology.assemble_module",
    "cohomology.local_cohomology_max",
    "cohomology.socle_probe",
    "grading.theta_exponents",
    "grading.verify_exponent_identities",
    "grading.gr_generators_dim1",
    "grading.notcm_certificate",
    "grading.fiber_at_origin",
    "grading.fiber_at_orbit",
    "grading.char_variety_max",
    "reporting.analyze_report",
    "reporting.sectors_report",
    "reporting.lc_report",
    "reporting.grd_report",
    "reporting.render_machine",
    "intlinalg.rank",
)

# Hot functions that are only counted: a span per call would cost more than
# the call itself.
COUNTED = (
    "semigroups.in_semigroup",
    "semigroups.in_face_localization",
    "cohomology.cech_ranks",
    "cohomology.cech_slice",   # runs once per cech_ranks cache miss
    "intlinalg.hermite_normal_form",
)

_MARK = "__perfbench_wrapped__"


def _resolve(target: str):
    """(owner, attribute name, original object) for 'module.attr' or
    'module.Class.attr'."""
    module, *path = target.split(".")
    owner = sys.modules[f"toriclc.{module}"]
    for name in path[:-1]:
        owner = getattr(owner, name)
    original = vars(owner)[path[-1]]
    return owner, path[-1], original


def _modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "toriclc" or name.startswith("toriclc."))]


def _bindings(original):
    """Every (module, name) in toriclc that binds the original function."""
    for mod in _modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                yield mod, name


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent index, job id]
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._patches = []    # (owner, name, original)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for target in SPANNED + COUNTED:
            owner, name, original = _resolve(target)
            make = self._spanned if target in SPANNED else self._counted
            if isinstance(original, classmethod):
                wrapper = classmethod(make(target, original.__func__))
                self._patch(owner, name, original, wrapper)
                continue
            wrapper = make(target, original)
            for mod, bound_name in _bindings(original):
                self._patch(mod, bound_name, original, wrapper)

    def _patch(self, owner, name, original, wrapper) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- wrappers -------------------------------------------------------------

    def _spanned(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            record = [name, perf_counter(), None, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(counts, args, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- results --------------------------------------------------------------

    def self_times(self) -> Counter:
        """Self time per span name: duration minus that of direct children."""
        total = Counter()
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent >= 0:
                total[self.spans[parent][0]] -= end - start
        return total

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


def _after_enumerate(counts, args, result):
    dim = args[0].dim
    counts["sectors.degrees_scanned"] += sum((2 * r + 1) ** dim for r, _ in result.history)
    counts["sectors.classes"] += len(result.classes)


def _after_face_lattice(counts, args, result):
    counts["cones.faces"] += len(result.faces)


def _after_render(counts, args, result):
    counts["reporting.bytes"] += len(result)


_AFTER = {
    "sectors.enumerate_classes": _after_enumerate,
    "cones.build_face_lattice": _after_face_lattice,
    "reporting.render_machine": _after_render,
}


def originals() -> dict:
    """The objects currently bound to every traced target."""
    return {target: _resolve(target)[2] for target in SPANNED + COUNTED}


def assert_untraced(expected: dict) -> None:
    """Raise unless every target is bound to its original object in every
    toriclc module and no wrapper is left anywhere."""
    for target, original in expected.items():
        if _resolve(target)[2] is not original:
            raise RuntimeError(f"{target} is not the original function")
    for mod in _modules():
        for name, value in vars(mod).items():
            if getattr(value, _MARK, False):
                raise RuntimeError(f"{mod.__name__}.{name} is still wrapped")
