"""Outside-in tracing of skeinrep's layers, with nothing under src/ edited.

``Tracer.install`` replaces each traced function by a wrapper wherever a
skeinrep module holds it: in the module that defines it and under every
name another module imported it as, so calls such as
``uniqueness -> intertwiner_search`` are caught.  ``uninstall`` puts every
original back.

Spans (name, start, end, parent) are kept in memory and written out at the
end.  The program runs in one thread, so spans nest strictly: a span's self
time is its duration minus the durations of its direct children, and no
layer ever waits on another.  Counting wrappers record calls without a span,
so they add no children to the span that calls them.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import Counter
from time import perf_counter

# (module, function, span name); several functions may share a span name
SPANS = [
    ("chebyshev", "chebyshev_eval", "chebyshev.chebyshev_eval"),
    ("chebyshev", "solve_chebyshev", "chebyshev.solve_chebyshev"),
    ("matrices", "matmul", "matrices.matmul"),
    ("matrices", "nullspace", "matrices.nullspace"),
    ("matrices", "_mp_svd_nullspace", "matrices.nullspace.fallback"),
    ("torus", "build_torus_rep", "torus.build_torus_rep"),
    ("sphere", "solve_u", "sphere.solve_u"),
    ("sphere", "build_sphere_rep_with_u", "sphere.build_sphere_rep_with_u"),
    ("invariants", "verify_relations", "invariants.verify_relations"),
    ("invariants", "commutant_dimension", "invariants.commutant_dimension"),
    ("invariants", "commuting_system", "invariants.commuting_system"),
    ("invariants", "extract_invariants", "invariants.extract_invariants"),
    ("uniqueness", "intertwiner_search", "uniqueness.intertwiner_search"),
    ("uniqueness", "uniqueness_experiment", "uniqueness.experiment"),
    ("uniqueness", "sample_torus_shadow", "uniqueness.sample"),
    ("uniqueness", "sample_sphere_invariants", "uniqueness.sample"),
    ("uniqueness", "_build_variant_reps", "uniqueness.variants"),
    ("uniqueness", "_roundtrip_ok", "uniqueness.roundtrip"),
    ("expressions", "parse", "expressions.parse"),
    ("expressions", "normalize", "expressions.normalize"),
    ("expressions", "evaluate", "expressions.evaluate"),
    ("expressions", "evaluate_normal_form", "expressions.evaluate_normal_form"),
    ("serialize", "dumps_canonical", "serialize.dumps_canonical"),
    ("cli", "main", "cli.main"),
]

# (module, function, counter name): calls counted, no span
COUNTERS = [
    ("matrices", "to_mp_matrix", "matrices.to_mp_matrix.calls"),
]

_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__neg__", "__truediv__", "__rtruediv__", "__pow__")

# (class in skeinrep.scalars, counter name for its arithmetic dunders)
CLASS_COUNTERS = [
    ("BigComplex", "scalars.bigcomplex.ops"),
    ("CyclotomicNumber", "scalars.cyclotomic.ops"),
]

# (class, method, span name)
CLASS_SPANS = [
    ("CyclotomicNumber", "inverse", "scalars.cyclotomic.inverse"),
]

# name, unit, better: every per-layer metric the traced run reports
PER_LAYER = [
    ("scalars.bigcomplex.ops", "count", "lower"),
    ("scalars.cyclotomic.ops", "count", "lower"),
    ("scalars.cyclotomic.inverse.s", "s", "lower"),
    ("chebyshev.chebyshev_eval.calls", "count", "lower"),
    ("chebyshev.chebyshev_eval.s", "s", "lower"),
    ("chebyshev.solve_chebyshev.s", "s", "lower"),
    ("matrices.matmul.calls", "count", "lower"),
    ("matrices.matmul.s", "s", "lower"),
    ("matrices.nullspace.calls", "count", "lower"),
    ("matrices.nullspace.s", "s", "lower"),
    ("matrices.nullspace.fallbacks", "count", "lower"),
    ("matrices.nullspace.fallback_s", "s", "lower"),
    ("matrices.nullspace.fast_ratio", "ratio", "higher"),
    ("matrices.to_mp_matrix.calls", "count", "lower"),
    ("torus.build_torus_rep.calls", "count", "lower"),
    ("torus.build_torus_rep.s", "s", "lower"),
    ("sphere.solve_u.calls", "count", "lower"),
    ("sphere.solve_u.s", "s", "lower"),
    ("sphere.solve_u.trials", "count/call", "lower"),
    ("sphere.build_sphere_rep_with_u.calls", "count", "lower"),
    ("sphere.build_sphere_rep_with_u.s", "s", "lower"),
    ("invariants.verify_relations.s", "s", "lower"),
    ("invariants.commutant_dimension.s", "s", "lower"),
    ("invariants.commuting_system.s", "s", "lower"),
    ("invariants.extract_invariants.s", "s", "lower"),
    ("uniqueness.intertwiner_search.calls", "count", "lower"),
    ("uniqueness.intertwiner_search.s", "s", "lower"),
    ("uniqueness.intertwiner_search.found_ratio", "ratio", "higher"),
    ("uniqueness.intertwiner_search.ms_per_call", "ms", "lower"),
    ("uniqueness.sample.s", "s", "lower"),
    ("uniqueness.variants.s", "s", "lower"),
    ("uniqueness.pairs.s", "s", "lower"),
    ("expressions.normalize.calls", "count", "lower"),
    ("expressions.normalize.s", "s", "lower"),
    ("expressions.evaluate.s", "s", "lower"),
    ("expressions.evaluate_normal_form.s", "s", "lower"),
    ("expressions.parse.s", "s", "lower"),
    ("serialize.dumps_canonical.s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
]


def _skeinrep_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "skeinrep" or name.startswith("skeinrep."))]


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent index or -1]
        self.stats = {}       # span name -> [calls, self seconds, inclusive seconds]
        self.counts = Counter()
        self._stack = []      # [span index, seconds spent in direct children]
        self._patches = []    # (owner, attribute, original, wrapper)

    # -- wrappers -------------------------------------------------------------

    def wrap(self, name, fn):
        """``fn`` recording a span ``name`` per call."""
        spans, stack = self.spans, self._stack
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        found = self.counts if name == "uniqueness.intertwiner_search" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            frame = [index, 0.0]
            spans.append([name, 0.0, 0.0, stack[-1][0] if stack else -1])
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span = spans[index]
                span[1], span[2] = start, end
                stat[0] += 1
                stat[1] += (end - start) - frame[1]
                stat[2] += end - start
                if stack:
                    stack[-1][1] += end - start
            if found is not None and result is not None:
                found["uniqueness.intertwiner_search.found"] += 1
            return result
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ---------------------------------------------------------

    def _function_patches(self, module_name, attr, make):
        original = getattr(sys.modules[f"skeinrep.{module_name}"], attr)
        wrapper = make(original)
        return [(module, key, original, wrapper)
                for module in _skeinrep_modules()
                for key, value in list(vars(module).items()) if value is original]

    def _patches_to_make(self):
        import skeinrep.cli  # noqa: F401  (every traced module is loaded)
        from skeinrep import scalars

        patches = []
        for module_name, attr, name in SPANS:
            patches += self._function_patches(
                module_name, attr, functools.partial(self.wrap, name))
        for module_name, attr, name in COUNTERS:
            patches += self._function_patches(
                module_name, attr, functools.partial(self._count_wrapper, name))
        for cls_name, name in CLASS_COUNTERS:
            cls = getattr(scalars, cls_name)
            patches += [(cls, attr, cls.__dict__[attr], self._count_wrapper(name, cls.__dict__[attr]))
                        for attr in _ARITHMETIC if attr in cls.__dict__]
        for cls_name, attr, name in CLASS_SPANS:
            cls = getattr(scalars, cls_name)
            original = cls.__dict__[attr]
            patches.append((cls, attr, original, self.wrap(name, original)))
        return patches

    def install(self):
        """Put the wrappers in place; may be called again after ``uninstall``."""
        if not self._patches:
            self._patches = self._patches_to_make()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict:
        stats, counts = self.stats, self.counts

        def calls(name):
            return stats.get(name, [0, 0.0, 0.0])[0]

        def self_s(name):
            return stats.get(name, [0, 0.0, 0.0])[1]

        out = {"scalars.bigcomplex.ops": counts["scalars.bigcomplex.ops"],
               "scalars.cyclotomic.ops": counts["scalars.cyclotomic.ops"],
               "matrices.to_mp_matrix.calls": counts["matrices.to_mp_matrix.calls"]}
        for _, _, name in SPANS + CLASS_SPANS:
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.s"] = self_s(name)

        nullspace_calls = calls("matrices.nullspace")
        fallbacks = calls("matrices.nullspace.fallback")
        out["matrices.nullspace.fallbacks"] = fallbacks
        out["matrices.nullspace.fallback_s"] = self_s("matrices.nullspace.fallback")
        # with no attempts nothing was wasted
        out["matrices.nullspace.fast_ratio"] = (
            1.0 - fallbacks / nullspace_calls if nullspace_calls else 1.0)
        searches = calls("uniqueness.intertwiner_search")
        out["uniqueness.intertwiner_search.found_ratio"] = (
            counts["uniqueness.intertwiner_search.found"] / searches if searches else 1.0)
        out["uniqueness.intertwiner_search.ms_per_call"] = (
            1000 * stats["uniqueness.intertwiner_search"][2] / searches if searches else 0.0)
        # build_sphere_rep_with_u calls made directly by solve_u, per solve_u call
        trials = sum(1 for name, _, _, parent in self.spans
                     if name == "sphere.build_sphere_rep_with_u" and parent >= 0
                     and self.spans[parent][0] == "sphere.solve_u")
        solves = calls("sphere.solve_u")
        out["sphere.solve_u.trials"] = trials / solves if solves else 0.0
        # the experiment's own time: pair composition, inverses and residuals
        out["uniqueness.pairs.s"] = self_s("uniqueness.experiment")
        return {name: out[name] for name, _, _ in PER_LAYER}

    def write_spans(self, path):
        """Gzipped JSON: span names, then [name index, start, end, parent] rows."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[name], round(start - t0, 7), round(end - t0, 7), parent]
                for name, start, end, parent in self.spans]
        with gzip.open(path, "wt") as fh:
            json.dump({"names": names, "columns": ["name", "start_s", "end_s", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))
