"""Spans around calls into statelift's layers, for the traced run only.

``Tracer.install`` rebinds, in every statelift module, each name that refers
to a traced function to a wrapper that records a span: name, start, end,
parent span and a few counts.  ``uninstall`` restores the originals, so the
untraced runs that give the end-to-end metrics execute the package as is.
Spans stay in memory; ``layer_metrics`` turns them into per-round figures.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

# module -> public functions wrapped in a span named "<module>.<function>"
TRACED = {
    "cli": ["main"],
    "fileio": ["read_matrix", "read_lifting", "write_matrix", "write_lifting"],
    "liftings": [
        "product_lifting", "kraus_lifting", "apply_lifting", "analyze",
        "check_hermiticity_preserving", "check_trace_constraint", "extract_reference",
        "product_residual", "structure_report", "positivity_witness_search",
        "random_perturbation", "no_go_sweep",
    ],
    "observables": ["adjoint_lifting", "check_unit_reduction", "reduce_observable"],
    "dynamics": ["reduced_dynamics_map", "reduced_dynamics_from_lifting", "choi_matrix", "is_cptp"],
    "measures": ["gaussian_sampler", "draw", "estimate_expectation", "empirical_state"],
    "states": ["random_density", "validate_density"],
}

# spans whose allocation peak is measured with tracemalloc (never nested)
PEAK = {"liftings.random_perturbation", "observables.adjoint_lifting", "measures.draw"}

MB = 1024.0 * 1024.0


@dataclass
class Span:
    name: str
    index: int
    parent: int
    phase: str
    label: str
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.phase = ""
        self.label = ""
        self._stack = []
        self._saved = []

    def install(self) -> None:
        originals = {}
        for module, names in TRACED.items():
            mod = sys.modules[f"statelift.{module}"]
            for name in names:
                fn = getattr(mod, name)
                originals[id(fn)] = (fn, self._wrap(f"{module}.{name}", fn))
        # rebind every alias, e.g. dynamics' own import of apply_lifting
        for modname in ("statelift",) + tuple(f"statelift.{m}" for m in TRACED):
            mod = sys.modules[modname]
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, originals[id(value)][1])

    def uninstall(self) -> None:
        for mod, attr, value in self._saved:
            setattr(mod, attr, value)
        self._saved = []

    def _wrap(self, name, fn):
        peak = name in PEAK

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, len(self.spans), parent, self.phase, self.label)
            self._stack.append(span.index)
            self.spans.append(span)
            if peak:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if peak:
                    span.info["peak_mb"] = tracemalloc.get_traced_memory()[1] / MB
                    tracemalloc.stop()
            _annotate(span, args, kwargs, result)
            return result

        return traced


def _annotate(span, args, kwargs, result) -> None:
    if span.name.startswith("fileio.read_"):
        span.info["bytes_read"] = os.path.getsize(args[0])
    elif span.name.startswith("fileio.write_"):
        span.info["bytes_written"] = os.path.getsize(args[0])
    elif span.name == "liftings.positivity_witness_search":
        span.info["found"] = result is not None
    elif span.name == "measures.draw":
        span.info["samples"] = args[1] if len(args) > 1 else kwargs["n"]


# per-layer metric -> unit, in report order
LAYER_METRICS = {
    "cli.self_s": "s",
    "cli.runs": "count",
    "fileio.read_s": "s",
    "fileio.write_s": "s",
    "fileio.bytes_read": "B",
    "fileio.bytes_written": "B",
    "liftings.assembly_s": "s",
    "liftings.apply_lifting_calls": "count",
    "liftings.apply_lifting_s": "s",
    "liftings.analyze_s": "s",
    "liftings.structure_report_s": "s",
    "liftings.witness_search_s": "s",
    "liftings.witness_searches": "count",
    "liftings.witness_candidates": "count/search",
    "liftings.witness_found": "count",
    "liftings.perturbation_s": "s",
    "liftings.perturbation_peak_mb": "MB",
    "observables.adjoint_s": "s",
    "observables.adjoint_peak_mb": "MB",
    "observables.unit_reduction_s": "s",
    "observables.reduce_observable_s": "s",
    "dynamics.reduced_dynamics_s": "s",
    "dynamics.choi_s": "s",
    "dynamics.cptp_check_s": "s",
    "measures.sampler_s": "s",
    "measures.draw_s": "s",
    "measures.samples_drawn": "count",
    "measures.draw_peak_mb": "MB",
    "measures.estimator_s": "s",
    "measures.empirical_s": "s",
    "states.random_density_s": "s",
    "states.validate_density_s": "s",
    "setup.fileio.write_s": "s",
    "setup.liftings.assembly_s": "s",
    "trace.overhead_s": "s",
}

# metric -> span names whose outermost calls it sums (inclusive time)
_TIMES = {
    "fileio.read_s": ("fileio.read_matrix", "fileio.read_lifting"),
    "fileio.write_s": ("fileio.write_matrix", "fileio.write_lifting"),
    "liftings.assembly_s": ("liftings.product_lifting", "liftings.kraus_lifting"),
    "liftings.apply_lifting_s": ("liftings.apply_lifting",),
    "liftings.analyze_s": ("liftings.analyze",),
    "liftings.structure_report_s": ("liftings.structure_report",),
    "liftings.witness_search_s": ("liftings.positivity_witness_search",),
    "liftings.perturbation_s": ("liftings.random_perturbation",),
    "observables.adjoint_s": ("observables.adjoint_lifting",),
    "observables.unit_reduction_s": ("observables.check_unit_reduction",),
    "observables.reduce_observable_s": ("observables.reduce_observable",),
    "dynamics.reduced_dynamics_s": ("dynamics.reduced_dynamics_map", "dynamics.reduced_dynamics_from_lifting"),
    "dynamics.choi_s": ("dynamics.choi_matrix",),
    "dynamics.cptp_check_s": ("dynamics.is_cptp",),
    "measures.sampler_s": ("measures.gaussian_sampler",),
    "measures.draw_s": ("measures.draw",),
    "measures.estimator_s": ("measures.estimate_expectation",),
    "measures.empirical_s": ("measures.empirical_state",),
    "states.random_density_s": ("states.random_density",),
    "states.validate_density_s": ("states.validate_density",),
}
_SETUP_TIMES = {
    "setup.fileio.write_s": _TIMES["fileio.write_s"],
    "setup.liftings.assembly_s": _TIMES["liftings.assembly_s"],
}
_PEAKS = {
    "liftings.perturbation_peak_mb": "liftings.random_perturbation",
    "observables.adjoint_peak_mb": "observables.adjoint_lifting",
    "measures.draw_peak_mb": "measures.draw",
}


def _outermost(spans, subset, names) -> list:
    """Spans of ``subset`` named in ``names`` with no ancestor named in ``names``."""
    out = []
    for span in subset:
        if span.name not in names:
            continue
        p = span.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            out.append(span)
    return out


def layer_metrics(spans, rounds: int, setup_phase: str, round_phase: str) -> dict:
    """Per-round layer figures from the spans of the timed phase, plus the
    set-up layers from one traced set-up."""
    timed = [s for s in spans if s.phase == round_phase]
    out = {}
    for metric, names in _TIMES.items():
        out[metric] = sum((s.seconds for s in _outermost(spans, timed, names)), 0.0) / rounds
    setup = [s for s in spans if s.phase == setup_phase]
    for metric, names in _SETUP_TIMES.items():
        out[metric] = sum((s.seconds for s in _outermost(spans, setup, names)), 0.0)
    for metric, name in _PEAKS.items():
        out[metric] = max((s.info["peak_mb"] for s in timed if s.name == name), default=0.0)

    children = {}
    for s in timed:
        children[s.parent] = children.get(s.parent, 0.0) + s.seconds
    mains = [s for s in timed if s.name == "cli.main"]
    out["cli.self_s"] = sum(s.seconds - children.get(s.index, 0.0) for s in mains) / rounds
    out["cli.runs"] = len(mains) / rounds

    reads = [s for s in timed if s.name.startswith("fileio.read_")]
    writes = [s for s in timed if s.name.startswith("fileio.write_")]
    out["fileio.bytes_read"] = sum(s.info["bytes_read"] for s in reads) / rounds
    out["fileio.bytes_written"] = sum(s.info["bytes_written"] for s in writes) / rounds

    applies = [s for s in timed if s.name == "liftings.apply_lifting"]
    searches = {s.index: s for s in timed if s.name == "liftings.positivity_witness_search"}
    candidates = sum(1 for s in applies if s.parent in searches)
    out["liftings.apply_lifting_calls"] = len(applies) / rounds
    out["liftings.witness_searches"] = len(searches) / rounds
    out["liftings.witness_candidates"] = candidates / len(searches) if searches else 0.0
    out["liftings.witness_found"] = sum(s.info["found"] for s in searches.values()) / rounds
    out["measures.samples_drawn"] = (
        sum(s.info["samples"] for s in timed if s.name == "measures.draw") / rounds
    )
    return out
