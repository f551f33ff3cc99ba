"""Span tracing of spagraph's public entry points, installed at run time.

Nothing under `src/` knows about this module. `install` replaces the
public functions of each layer with wrappers that time every call and
attribute it to the span that was open when it started; the index is
traced through `generate`'s `index_factory` hook, with a subclass of
`SphereIndex` whose public methods open spans.

Spans are aggregated in memory per (parent, name) pair: call count,
inclusive time and self time (inclusive minus the time covered by child
spans). Two hot spans also keep every call's duration, for percentiles.
`Tracer.summary` turns the aggregates into the benchmark's per-layer
metrics when the run ends.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Spans whose per-call durations are kept for percentiles.
_SAMPLED = ("spatial_index.covering_spheres", "rng.coin_uniforms")

# Layers whose public module-level functions are wrapped wholesale.
_WRAPPED_MODULES = ("clustering", "stats", "graph_io", "verify")

# Counted but not timed on their own: the file write is part of whichever
# writer (graph, CSV, manifest) called it.
_UNTIMED = ("atomic_write_bytes",)


class Tracer:
    """In-memory span aggregates plus the work counters seen at each span."""

    def __init__(self):
        self._stack: list[list] = []          # [name, child_seconds]
        self.calls: Counter = Counter()       # (parent, name) -> calls
        self.inclusive = defaultdict(float)   # (parent, name) -> seconds
        self.self_time = defaultdict(float)   # (parent, name) -> seconds
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = {name: [] for name in _SAMPLED}

    @property
    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        key = (self.parent, name)
        frame = [name, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += elapsed
            self.calls[key] += 1
            self.inclusive[key] += elapsed
            self.self_time[key] += elapsed - frame[1]
            if name in self.samples:
                self.samples[name].append(elapsed)

    def self_seconds(self, *names) -> float:
        return sum(s for (_, name), s in self.self_time.items() if name in names)

    def spans(self) -> list[dict]:
        """Every aggregated span, for the trace file."""
        return [
            {"parent": parent, "name": name, "calls": self.calls[(parent, name)],
             "inclusive_s": self.inclusive[(parent, name)],
             "self_s": self.self_time[(parent, name)]}
            for parent, name in sorted(self.calls, key=lambda k: (str(k[0]), k[1]))
        ]

    def summary(self) -> dict[str, float]:
        """The per-layer metrics, by name (see the benchmark's README)."""
        s = self.self_seconds
        c = self.counts
        curves = [f"clustering.{f}" for f in (
            "curve_from_report", "banded_curve_from_report", "scatter_from_report",
            "clustering_curve", "banded_curve", "scatter_export", "band_grid")]
        return {
            "spatial_index.covering_spheres_s": s("spatial_index.covering_spheres"),
            "spatial_index.covering_spheres_p50_us":
                _percentile_us(self.samples["spatial_index.covering_spheres"], 50),
            "spatial_index.covering_spheres_p99_us":
                _percentile_us(self.samples["spatial_index.covering_spheres"], 99),
            "spatial_index.update_weight_s": s("spatial_index.update_weight"),
            "spatial_index.insert_s": s("spatial_index.insert"),
            "spatial_index.advance_time_s": s("spatial_index.advance_time"),
            "spatial_index.gathered": c["spatial_index.gathered"],
            "spatial_index.covering": c["spatial_index.covering"],
            "spatial_index.cover_ratio":
                c["spatial_index.covering"] / c["spatial_index.gathered"]
                if c["spatial_index.gathered"] else 0.0,
            "rng.coin_uniforms_s": s("rng.coin_uniforms"),
            "rng.coin_uniforms_p99_us": _percentile_us(self.samples["rng.coin_uniforms"], 99),
            "rng.coin_words": c["rng.coin_words"],
            "rng.position_s": s("rng.position"),
            "geometry.ball_contains_s": s("geometry.ball_contains"),
            "geometry.ball_contains_points": c["geometry.ball_contains_points"],
            "generator.generate_self_s": s("generator.generate"),
            "generator.generate_naive_s": s("generator.generate_naive"),
            "generator.from_edges_s": s("generator.from_edges"),
            "generator.steps": c["generator.steps"],
            "generator.edges": c["generator.edges"],
            "graph_io.serialize_graph_s": s("graph_io.serialize_graph"),
            "graph_io.write_graph_s": s("graph_io.write_graph"),
            "graph_io.bytes_written": c["graph_io.bytes_written"],
            "graph_io.parse_graph_s": s("graph_io.parse_graph", "graph_io.read_graph"),
            "graph_io.bytes_read": c["graph_io.bytes_read"],
            "graph_io.write_csv_s": s("graph_io.write_csv"),
            "clustering.compute_report_s": s("clustering.compute_report", "clustering.split_times"),
            "clustering.directed_pair_counts_s": s("clustering.directed_pair_counts"),
            "clustering.undirected_pair_counts_s": s("clustering.undirected_pair_counts"),
            "clustering.curves_s": s(*curves),
            "stats.trajectory_check_s": s("stats.trajectory_check", "stats.ratio_extremes"),
            "stats.degree_census_s": s("stats.degree_census"),
            "stats.powerlaw_exponent_s": s("stats.powerlaw_exponent"),
            "verify.self_s": s("verify.verify_equivalence"),
            "verify.first_divergent_step_s": s("verify.first_divergent_step"),
            "cli.self_s": s("cli.main"),
        }


def _percentile_us(samples: list[float], q: int) -> float:
    """Nearest-rank percentile of call durations, in microseconds."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[rank - 1] * 1e6


def replace_everywhere(original, replacement) -> None:
    """Point every spagraph module attribute bound to `original` at `replacement`.

    Modules import each other's functions by name (`from .geometry import
    ball_contains`), so patching only the defining module would miss calls.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("spagraph"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _span_wrapper(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return wrapper


def _traced_index_class(tracer: Tracer, base):
    """A subclass of `base` (a SphereIndex) whose public methods open spans."""

    class TracedSphereIndex(base):
        def covering_spheres(self, x, t=None):
            found = tracer.call("spatial_index.covering_spheres",
                                base.covering_spheres, self, x, t)
            tracer.counts["spatial_index.covering"] += int(found.size)
            return found

        def update_weight(self, vertex_id, weight):
            return tracer.call("spatial_index.update_weight",
                               base.update_weight, self, vertex_id, weight)

        def insert(self, vertex_id, position, weight):
            return tracer.call("spatial_index.insert",
                               base.insert, self, vertex_id, position, weight)

        def advance_time(self, t):
            return tracer.call("spatial_index.advance_time", base.advance_time, self, t)

    return TracedSphereIndex


def install(tracer: Tracer, index_base=None) -> None:
    """Wrap spagraph's public entry points so calls report to `tracer`.

    `index_base` is the index class to trace (default `SphereIndex`);
    `--inject-fault` passes a deliberately broken one.
    """
    import spagraph.cli
    from spagraph import generator, geometry, graph_io, rng, spatial_index
    from spagraph.generator import GrownGraph

    modules = {name: sys.modules[f"spagraph.{name}"] for name in _WRAPPED_MODULES}
    for short, module in modules.items():
        for fname, fn in list(vars(module).items()):
            if (fname.startswith("_") or fname in _UNTIMED or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__):
                continue
            replace_everywhere(fn, _span_wrapper(tracer, f"{short}.{fname}", fn))

    original_ball = geometry.ball_contains

    def ball_contains(centers, volumes, x, norm):
        points = len(centers)
        tracer.counts["geometry.ball_contains_points"] += points
        if tracer.parent == "spatial_index.covering_spheres":
            tracer.counts["spatial_index.gathered"] += points
        return tracer.call("geometry.ball_contains", original_ball, centers, volumes, x, norm)

    replace_everywhere(original_ball, ball_contains)

    stream = rng.CounterStream
    original_position, original_coins = stream.position, stream.coin_uniforms

    def position(self, t, m):
        return tracer.call("rng.position", original_position, self, t, m)

    def coin_uniforms(self, t, vertex_ids):
        tracer.counts["rng.coin_words"] += len(vertex_ids)
        return tracer.call("rng.coin_uniforms", original_coins, self, t, vertex_ids)

    stream.position, stream.coin_uniforms = position, coin_uniforms

    index_class = _traced_index_class(tracer, index_base or spatial_index.SphereIndex)
    original_generate, original_naive = generator.generate, generator.generate_naive

    def _count_graph(params, graph):
        tracer.counts["generator.steps"] += params.n
        tracer.counts["generator.edges"] += graph.num_edges
        return graph

    def generate(params, index_factory=None):
        graph = tracer.call("generator.generate", original_generate, params,
                            index_factory=index_factory or index_class)
        return _count_graph(params, graph)

    def generate_naive(params, force=False):
        graph = tracer.call("generator.generate_naive", original_naive, params, force=force)
        return _count_graph(params, graph)

    replace_everywhere(original_generate, generate)
    replace_everywhere(original_naive, generate_naive)

    original_from_edges = GrownGraph.from_edges   # bound to the class

    def from_edges(cls, params, edges, positions=None):
        return tracer.call("generator.from_edges", original_from_edges, params, edges, positions)

    GrownGraph.from_edges = classmethod(from_edges)

    original_atomic_write = graph_io.atomic_write_bytes

    def atomic_write_bytes(path, data):
        # Manifests carry a measured wall time whose digits vary between
        # runs; leaving them out keeps bytes_written an exact count.
        if tracer.parent != "graph_io.write_manifest":
            tracer.counts["graph_io.bytes_written"] += len(data)
        return original_atomic_write(path, data)

    replace_everywhere(original_atomic_write, atomic_write_bytes)

    traced_parse = graph_io.parse_graph

    def parse_graph(data):
        tracer.counts["graph_io.bytes_read"] += len(data)
        return traced_parse(data)

    replace_everywhere(traced_parse, parse_graph)

    cli_main = spagraph.cli.main
    spagraph.cli.main = _span_wrapper(tracer, "cli.main", cli_main)
