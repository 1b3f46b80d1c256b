"""In-memory spans around calls into shrinknet's modules.

Each target is a public function at the name its calling module uses
(``shrinknet.pipeline.fit_sem`` is the EM as the pipeline calls it). The
tracer swaps that attribute for a wrapper that records the call's
duration, subtracts the time of the spans it encloses to get self time,
and adds counts read from the call's result. A target that no longer
exists is listed as missing, so its metrics are reported as missing
rather than as zero; so is a result that lacks a counted field.
"""

from __future__ import annotations

import functools
import importlib
import time

#: span name -> (module, attribute) targets, as the callers name them
SPAN_TARGETS = {
    "data.load": [("shrinknet.cli", "load_expression_matrix")],
    "data.standardize": [("shrinknet.pipeline", "standardize"),
                         ("shrinknet.benchmark", "standardize")],
    "benchmark": [("shrinknet.cli", "run_model_sim")],
    "pipeline": [("shrinknet.cli", "infer_network"),
                 ("shrinknet.benchmark", "infer_network")],
    "em.fit": [("shrinknet.pipeline", "fit_sem")],
    "vb.workspace": [("shrinknet.em", "make_workspace")],
    "selection.rank": [("shrinknet.pipeline", "kappa_scores"),
                       ("shrinknet.pipeline", "rank_edges")],
    "selection.p0": [("shrinknet.pipeline", "estimate_p0")],
    "selection.select": [("shrinknet.pipeline", "forward_select")],
    "selection.submodel": [("shrinknet.selection", "fit_local")],
    "simulate.structure": [("shrinknet.benchmark", "make_structure")],
    "simulate.precision": [("shrinknet.benchmark", "sample_precision")],
    "simulate.sample": [("shrinknet.benchmark", "sample_mvn")],
    "metrics.score": [("shrinknet.benchmark", "partial_roc"),
                      ("shrinknet.benchmark", "confusion"),
                      ("shrinknet.benchmark", "scores")],
}

#: evidence lookups are counted, not timed: a span there would move the
#: scan's own bookkeeping out of selection.p0_s and selection.select_s
LOOKUP_TARGET = ("shrinknet.selection", "EvidenceCache", "log_evidence")
LOOKUP_NAME = "selection.lookup"


class Tracer:
    """Self time, call counts and result counters per span name."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[list] = []  # [name, child seconds]
        self._last_top_end = None

    def _count(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    def _observe(self, name, result):
        if name == "em.fit":
            self._count("em.iterations", result.em_iterations)
            self._count("em.nonconverged", int(not result.converged))
        elif name == "selection.submodel":
            if any(frame[0] == "selection.select" for frame in self._stack):
                self._count("selection.select_misses")
            self._count("selection.submodel_sweeps", result.iterations)
            self._count("selection.submodel_nonconverged",
                        int(not result.converged))
        elif name == "selection.select":
            self._count("selection.ranks_evaluated", result.ranks_evaluated)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += duration
                else:
                    self._last_top_end = time.perf_counter()
                self.self_s[name] = (self.self_s.get(name, 0.0)
                                     + duration - frame[1])
                self.calls[name] = self.calls.get(name, 0) + 1
            try:
                self._observe(name, result)
            except AttributeError:  # the result no longer has the field
                if f"{name}:result" not in self.missing:
                    self.missing.append(f"{name}:result")
            return result

        return traced

    def wrap_lookup(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if any(frame[0] == "selection.select" for frame in self._stack):
                self._count("selection.select_lookups")
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Replace every target that exists; list the span names whose
        targets do not."""
        for name, targets in SPAN_TARGETS.items():
            for module_name, attr in targets:
                owner = _resolve(module_name)
                if owner is None or not callable(getattr(owner, attr, None)):
                    self.missing.append(name)
                    continue
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
        module_name, cls_name, attr = LOOKUP_TARGET
        cls = getattr(_resolve(module_name), cls_name, None)
        if cls is None or not callable(getattr(cls, attr, None)):
            self.missing.append(LOOKUP_NAME)
        else:
            setattr(cls, attr, self.wrap_lookup(getattr(cls, attr)))

    def run_root(self, fn):
        """Call the command's entry point; return the seconds it spent
        after its last top-level span ended (writing its outputs)."""
        fn()
        end = time.perf_counter()
        return end - self._last_top_end if self._last_top_end else 0.0


def _resolve(module_name):
    try:
        return importlib.import_module(module_name)
    except ImportError:
        return None
