"""In-memory span tracing for the benchmark's traced runs.

`installed(tracer)` wraps the public functions of every ruledgeom layer,
setting one wrapper per function in every module namespace that imported
it, plus the oracle callables of catalog-built SurfaceSpecs and the verify
suites, and puts every original back on exit.  Spans stay in memory; `layer_stats` turns
them into per-name counts, inclusive times and self times.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

# Public functions traced per module; the span is named "<module>.<name>".
FUNCTIONS = {
    "cli": ["main"],
    "surface": ["analyze", "dual_invariants", "frame_ode_residual",
                "sampled_surface"],
    "dual": ["dual_mul", "dual_div", "lift", "dual_cos", "dual_sin",
             "dual_sqrt", "dual_dot", "dual_cross", "dual_norm",
             "dual_normalize", "dual_angle"],
    "lines": ["line_to_dual", "dual_to_line", "common_perpendicular",
              "sample_lines"],
    "offsets": ["construct_offset", "predicted_invariants", "verify_offset"],
    "io": ["write_obj", "write_analysis_csv", "read_sampled_csv",
           "surface_grid", "render_offset_report"],
}
# (module, class, attribute, span name) of traced methods.
METHODS = [
    ("config", "RunConfig", "from_file", "config.from_file"),
    ("config", "RunConfig", "build_surface", "config.build_surface"),
    ("surface", "Reparametrization", "__init__", "surface.Reparametrization"),
]
ORACLE_FIELDS = ("director", "director_d1", "director_d2",
                 "base", "base_d1", "base_d2")
ORACLE_SPAN = "catalog.oracle"
# Statistics layer_stats keys by "<span name>.<stat>".
STATS = ("calls", "s", "self_s", "samples", "bytes", "rows", "n_valid", "n")


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# Counts recorded at the span boundary, from the call's arguments/result.
MEASURES = {
    "surface.analyze": lambda a, k, r: {"samples": r.n},
    "io.write_obj": _file_bytes,
    "io.write_analysis_csv": _file_bytes,
    "io.read_sampled_csv": lambda a, k, r: {"rows": len(r[0])},
    "offsets.verify_offset": lambda a, k, r: {
        "n_valid": r.n_valid, "n": r.offset_analysis.n},
}


@dataclass
class Span:
    id: int
    parent: int          # -1 for a root span
    op: int              # operation the span belongs to (-1: none)
    name: str
    start: float
    end: float
    attrs: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span recorder; `op` tags every new span."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        span = Span(len(self.spans), self._stack[-1] if self._stack else -1,
                    self.op, name, 0.0, 0.0)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn: Callable, args, kwargs,
             measure: Optional[Callable] = None):
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        if measure is not None:
            span.attrs = measure(args, kwargs, result)
        return result

    def wrap(self, name: str, fn: Callable) -> Callable:
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, measure)
        return traced

    @contextmanager
    def span(self, name: str):
        """Span around a block (the benchmark's own per-operation span)."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def dump(self, path) -> None:
        """Write one tab-separated line per span."""
        with open(path, "w") as fh:
            fh.write("id\tparent\top\tname\tstart\tend\tattrs\n")
            for s in self.spans:
                fh.write(f"{s.id}\t{s.parent}\t{s.op}\t{s.name}\t"
                         f"{s.start!r}\t{s.end!r}\t{s.attrs or ''}\n")


def _suite_span(title: str) -> str:
    return "verify.suite." + title.replace(" ", "_")


def known_names() -> set[str]:
    """Every span name `installed` records, and every layer name."""
    from ruledgeom import verify
    names = {f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns}
    names |= {span for *_, span in METHODS}
    names |= {ORACLE_SPAN} | {_suite_span(title) for title, _ in verify.SUITES}
    return names | {name.partition(".")[0] for name in names}


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ruledgeom"
                                  or name.startswith("ruledgeom."))]


@contextmanager
def installed(tracer: Tracer):
    """Trace the ruledgeom layers for the duration of the block."""
    mods = {m.__name__.rpartition(".")[2]: m for m in _package_modules()}
    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    try:
        wrappers = {}
        for mod, names in FUNCTIONS.items():
            for name in names:
                fn = getattr(mods[mod], name)
                wrappers[id(fn)] = (fn, tracer.wrap(f"{mod}.{name}", fn))
        for m in mods.values():
            for attr, value in list(vars(m).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    patch(m, attr, hit[1])

        for mod, cls_name, attr, span_name in METHODS:
            cls = getattr(mods[mod], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                patch(cls, attr, classmethod(tracer.wrap(span_name,
                                                         raw.__func__)))
            else:
                patch(cls, attr, tracer.wrap(span_name, raw))

        catalog = mods["catalog"]
        spec_cls = catalog.SurfaceSpec

        def traced_spec(*args, **kwargs):
            for key in ORACLE_FIELDS:
                if kwargs.get(key) is not None:
                    kwargs[key] = tracer.wrap(ORACLE_SPAN, kwargs[key])
            return spec_cls(*args, **kwargs)
        patch(catalog, "SurfaceSpec", traced_spec)

        verify = mods["verify"]
        patch(verify, "SUITES", [
            (title, tracer.wrap(_suite_span(title), fn))
            for title, fn in verify.SUITES])
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part its direct children cover.

    Spans come from one thread, so children nest inside their parent and
    never overlap each other: the covered part is the sum of their
    durations."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def layer_stats(spans: list[Span]) -> dict[str, float]:
    """Totals over a tracer's spans (span ids index the list), keyed
    "<span name>.<stat>":

    * calls -- number of spans;
    * s -- inclusive seconds, counting a span nested in a same-named span
      once (the outer one);
    * self_s -- seconds not covered by child spans;
    * every attribute recorded at the boundary, summed.

    A name's first component is also aggregated as a layer ("dual.calls",
    "dual.s"), where `s` counts only spans not nested in the same layer.
    """
    selfs = self_times(spans)
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    def nested_in(s: Span, match: Callable[[str], bool]) -> bool:
        p = s.parent
        while p >= 0:
            if match(spans[p].name):
                return True
            p = spans[p].parent
        return False

    for s, own in zip(spans, selfs):
        layer = s.name.partition(".")[0]
        add(f"{s.name}.calls", 1)
        add(f"{s.name}.self_s", own)
        if not nested_in(s, lambda n: n == s.name):
            add(f"{s.name}.s", s.duration)
        for key, value in (s.attrs or {}).items():
            add(f"{s.name}.{key}", value)
        if layer != s.name:
            add(f"{layer}.calls", 1)
            if not nested_in(s, lambda n: n.partition(".")[0] == layer):
                add(f"{layer}.s", s.duration)
    return out
