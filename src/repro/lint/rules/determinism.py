"""Determinism rules: ambient RNG, wall clocks, fs scan order, set order.

Everything the reproduction guarantees — byte-identical crash recovery,
pure-function-of-(spec, seed) search, engine observational identity —
assumes no code path reads ambient nondeterminism.  These rules make the
four ways that assumption historically leaks machine-checked:

* ``determinism/global-rng`` — drawing from the process-wide
  ``random`` module (or unseeded numpy generators) instead of a bound
  :class:`random.Random`;
* ``determinism/wall-clock`` — reading a clock inside the engine-path
  packages (``core``, ``adversary``, ``search``, ``stats``), whose outputs
  must be pure functions of their inputs;
* ``determinism/unsorted-fs-scan`` — consuming ``os.listdir``-family
  results without ``sorted(...)`` (directory order is filesystem-
  dependent);
* ``determinism/set-iteration`` — iterating a freshly built
  ``set``/``frozenset``, whose order is an implementation detail; each
  site is either provably order-insensitive (waive it, with the proof in
  the reason) or a latent bug (sort it).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

from ..findings import Finding
from ..symbols import Project
from .base import Rule, enclosing_map

#: ``random`` module functions that draw from (or mutate) the hidden
#: process-wide generator.  ``random.Random(seed)`` is the sanctioned
#: alternative and is deliberately absent.
_GLOBAL_DRAWS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "getstate", "lognormvariate", "normalvariate",
    "paretovariate", "randbytes", "randint", "random", "randrange",
    "sample", "seed", "setstate", "shuffle", "triangular", "uniform",
    "vonmisesvariate", "weibullvariate",
})

#: numpy constructors that are deterministic *iff* given an explicit seed.
_NUMPY_SEEDED_FACTORIES = frozenset({
    "numpy.random.default_rng", "numpy.random.RandomState",
    "numpy.random.Generator",
})

#: Clock reads that make output depend on when (not what) you ran.
_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns", "time.clock_gettime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Top-level subpackages whose outputs must be pure functions of their
#: inputs (the engine path).  ``serve``/``runtime`` legitimately measure
#: latency and deadlines; benchmarks and tests are outside the lint root.
_CLOCK_SCOPED_PACKAGES = frozenset({"core", "adversary", "search", "stats"})

#: Directory-scan calls whose result order is filesystem-dependent.
_FS_SCANS = frozenset({"os.listdir", "os.scandir", "glob.glob", "glob.iglob"})
_FS_SCAN_METHODS = frozenset({"iterdir", "glob", "rglob"})


class GlobalRngRule(Rule):
    id = "determinism/global-rng"
    severity = "error"
    doc = ("no ambient RNG: draw from a seeded random.Random bound to the "
           "adversary/spec, never the process-wide random module")

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.iter_modules():
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                dotted = module.resolve(node.func)
                if dotted is None:
                    continue
                if dotted.startswith("random.") \
                        and dotted.split(".", 1)[1] in _GLOBAL_DRAWS:
                    yield self.finding(
                        module, node,
                        f"call to the process-wide RNG ({dotted})",
                        "draw from a random.Random(seed) bound to the "
                        "component (adversaries: self.rng)")
                elif dotted in _NUMPY_SEEDED_FACTORIES and not node.args \
                        and not node.keywords:
                    yield self.finding(
                        module, node,
                        f"{dotted}() without an explicit seed",
                        "pass the run's derived seed explicitly")
                elif dotted.startswith("numpy.random.") \
                        and dotted not in _NUMPY_SEEDED_FACTORIES:
                    yield self.finding(
                        module, node,
                        f"call to numpy's global RNG ({dotted})",
                        "use numpy.random.default_rng(seed) or the bound "
                        "random.Random")


class WallClockRule(Rule):
    id = "determinism/wall-clock"
    severity = "error"
    doc = ("no wall clock in the engine path (core/, adversary/, search/, "
           "stats/): outputs must be pure functions of (spec, seed)")

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.iter_modules():
            package = module.relpath.split("/", 1)[0]
            if package not in _CLOCK_SCOPED_PACKAGES:
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                dotted = module.resolve(node.func)
                if dotted in _CLOCK_CALLS:
                    yield self.finding(
                        module, node,
                        f"clock read ({dotted}) inside the engine path "
                        f"({package}/)",
                        "thread timing through the caller, or waive with "
                        "the proof that it never feeds results")


def _under_sorted(node: ast.AST, parents: Dict[ast.AST, ast.AST]) -> bool:
    """Whether *node* sits inside a ``sorted(...)`` call expression."""
    current: Optional[ast.AST] = node
    while current is not None:
        if isinstance(current, ast.stmt):
            return False
        if isinstance(current, ast.Call) \
                and isinstance(current.func, ast.Name) \
                and current.func.id == "sorted":
            return True
        current = parents.get(current)
    return False


class UnsortedFsScanRule(Rule):
    id = "determinism/unsorted-fs-scan"
    severity = "error"
    doc = ("filesystem scan order is OS-dependent: wrap os.listdir / glob "
           "/ Path.iterdir results in sorted(...)")

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.iter_modules():
            parents = enclosing_map(module.tree)
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                dotted = module.resolve(node.func)
                is_scan = dotted in _FS_SCANS
                if not is_scan and isinstance(node.func, ast.Attribute) \
                        and node.func.attr in _FS_SCAN_METHODS \
                        and dotted is None:
                    is_scan = True  # method form: some_path.iterdir()
                if not is_scan:
                    continue
                if _under_sorted(node, parents):
                    continue
                label = dotted or f"*.{node.func.attr}(...)"
                yield self.finding(
                    module, node,
                    f"filesystem scan ({label}) consumed without "
                    f"sorted(...)",
                    "wrap the scan in sorted(...) before iterating")


def _is_set_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


class SetIterationRule(Rule):
    id = "determinism/set-iteration"
    severity = "error"
    doc = ("set iteration order is an implementation detail: sort it, or "
           "waive with the argument why the consumer is order-insensitive")

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.iter_modules():
            for node in ast.walk(module.tree):
                iters = []
                if isinstance(node, ast.For):
                    iters.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.SetComp,
                                       ast.DictComp, ast.GeneratorExp)):
                    iters.extend(gen.iter for gen in node.generators)
                for iterable in iters:
                    if _is_set_expression(iterable):
                        yield self.finding(
                            module, iterable,
                            "iteration over a freshly built set has no "
                            "guaranteed order",
                            "iterate sorted(...) instead, or waive with "
                            "the order-insensitivity argument")
