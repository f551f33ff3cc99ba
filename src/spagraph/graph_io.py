"""Serialization: graph files, run manifests, run configs, CSV reports.

Graph file format (text, `.gz` suffix selects gzip with a zeroed mtime so
identical graphs produce identical bytes):

    %spa-graph v1
    p=0.7                       # one key=value line per model parameter
    ...
    %edges
    <source>TAB<target>         # one line per edge, generation order
    %positions                  # optional
    <vertex>TAB<coord>...       # repr() floats in [0, 1), shortest round-trip form

Any other `%` line is a parse error, and so is a coordinate outside [0, 1).
Serialize -> parse -> serialize is byte-identical. All writes go through a
temp file plus rename, so readers never observe partial files.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .errors import ParameterError, ParseError
from .generator import GrownGraph, ModelParams
from .geometry import Norm

HEADER = "%spa-graph v1"
_PARAM_KEYS = ("p", "a1", "a2", "dimension", "norm", "n", "seed")

CURVE_COLUMNS = ("variant", "d", "count", "mean_c")
CENSUS_COLUMNS = ("degree", "count", "fraction", "theory_c")
EXPONENT_COLUMNS = ("d_min", "tail_count", "estimate", "stderr", "ls_slope", "theory_gamma")
TRAJECTORY_COLUMNS = ("vertex", "final_degree", "onset_time", "ratio_min", "ratio_max", "vacuous")
SCATTER_COLUMNS = ("variant", "degree", "c")


def atomic_write_bytes(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _format_value(value) -> str:
    if isinstance(value, Norm):
        return value.value
    return repr(value) if isinstance(value, float) else str(value)


def serialize_graph(graph: GrownGraph, include_positions: bool = True) -> bytes:
    out = io.StringIO()
    out.write(HEADER + "\n")
    p = graph.params
    for key in _PARAM_KEYS:
        out.write(f"{key}={_format_value(getattr(p, key))}\n")
    out.write("%edges\n")
    for v, u in graph.iter_edges():
        out.write(f"{v}\t{u}\n")
    if include_positions and graph.positions is not None:
        out.write("%positions\n")
        for v in range(1, graph.n + 1):
            coords = "\t".join(repr(float(c)) for c in graph.positions[v])
            out.write(f"{v}\t{coords}\n")
    return out.getvalue().encode()


def write_graph(graph: GrownGraph, path: str, include_positions: bool = True) -> None:
    data = serialize_graph(graph, include_positions)
    if path.endswith(".gz"):
        buffer = io.BytesIO()
        with gzip.GzipFile(fileobj=buffer, mode="wb", mtime=0) as zipped:
            zipped.write(data)
        data = buffer.getvalue()
    atomic_write_bytes(path, data)


def _parse_params(fields: dict, offset: int) -> ModelParams:
    missing = [k for k in _PARAM_KEYS if k not in fields]
    if missing:
        raise ParseError(f"missing parameter keys {missing}", offset)
    try:
        return ModelParams(
            n=int(fields["n"]),
            p=float(fields["p"]),
            a1=float(fields["a1"]),
            a2=float(fields["a2"]),
            dimension=int(fields["dimension"]),
            norm=Norm.parse(fields["norm"]),
            seed=int(fields["seed"]),
        )
    except (ValueError, ParameterError) as exc:
        raise ParseError(f"bad parameter block: {exc}", offset) from None


def parse_graph(data: bytes) -> GrownGraph:
    """Parse graph bytes; errors carry the byte offset of the bad line."""
    offset = 0
    lines = data.split(b"\n")
    if not lines or lines[0].decode("utf-8", "replace") != HEADER:
        raise ParseError(f"expected header {HEADER!r}", 0)
    offset += len(lines[0]) + 1
    fields: dict[str, str] = {}
    section = "header"
    edges: list[tuple[int, int]] = []
    positions: list[tuple[int, list[float], int]] = []   # (vertex, coords, offset)
    positions_offset = None   # of the %positions marker, if the file has one
    for raw in lines[1:]:
        line_offset = offset
        offset += len(raw) + 1
        line = raw.decode("utf-8", "replace")
        if not line:
            continue
        if line.startswith("%"):
            if line not in ("%edges", "%positions"):
                raise ParseError(f"unknown section marker {line!r}", line_offset)
            section = line[1:]
            if section == "positions":
                positions_offset = line_offset
            continue
        try:
            if section == "header":
                key, _, value = line.partition("=")
                if not _:
                    raise ValueError("expected key=value")
                if key in fields:
                    raise ValueError(f"duplicate key {key!r}")
                fields[key] = value
            elif section == "edges":
                s, u = line.split("\t")
                edges.append((int(s), int(u)))
            else:
                parts = line.split("\t")
                positions.append((int(parts[0]), [float(c) for c in parts[1:]], line_offset))
        except ValueError as exc:
            raise ParseError(f"bad {section} line {line!r}: {exc}", line_offset) from None
    params_offset = len(lines[0]) + 1
    params = _parse_params(fields, params_offset)
    pos_array = None
    if positions_offset is not None:
        pos_array = np.full((params.n + 1, params.dimension), np.nan)
        seen = np.zeros(params.n + 1, dtype=bool)
        for v, coords, row_offset in positions:
            if not 1 <= v <= params.n or len(coords) != params.dimension:
                raise ParseError(f"bad position row for vertex {v}", row_offset)
            if seen[v]:
                raise ParseError(f"duplicate position row for vertex {v}", row_offset)
            seen[v] = True
            pos_array[v] = coords
        if not seen[1:].all():
            missing = int(np.flatnonzero(~seen[1:])[0]) + 1
            raise ParseError(f"no position row for vertex {missing}", positions_offset)
        if not ((pos_array[1:] >= 0.0) & (pos_array[1:] < 1.0)).all():
            for v, coords, row_offset in positions:
                if not all(0.0 <= c < 1.0 for c in coords):
                    raise ParseError(f"position of vertex {v} outside [0, 1)", row_offset)
    try:
        return GrownGraph.from_edges(params, edges, pos_array)
    except Exception as exc:
        raise ParseError(f"inconsistent edge list: {exc}", params_offset) from None


def read_graph(path: str) -> GrownGraph:
    with open(path, "rb") as handle:
        data = handle.read()
    if path.endswith(".gz"):
        data = gzip.decompress(data)
    return parse_graph(data)


def write_manifest(path: str, graph: GrownGraph, graph_file: str, wall_time_s: float) -> None:
    p = graph.params
    manifest = {
        "format": "spa-graph-manifest v1",
        "library": "spagraph",
        "version": __version__,
        "params": {
            "n": p.n, "p": p.p, "a1": p.a1, "a2": p.a2,
            "dimension": p.dimension, "norm": p.norm.value, "seed": p.seed,
        },
        "edge_count": graph.num_edges,
        "wall_time_s": wall_time_s,
        "graph_file": graph_file,
    }
    atomic_write_bytes(path, (json.dumps(manifest, indent=2) + "\n").encode())


def params_from_manifest(path: str) -> ModelParams:
    with open(path, "rb") as handle:
        manifest = json.load(handle)
    raw = manifest["params"]
    return ModelParams(
        n=int(raw["n"]), p=float(raw["p"]), a1=float(raw["a1"]), a2=float(raw["a2"]),
        dimension=int(raw["dimension"]), norm=Norm.parse(raw["norm"]),
        seed=int(raw["seed"]),
    )


@dataclass(frozen=True)
class RunConfig:
    """One generation campaign: model parameters plus replication policy."""

    model: ModelParams
    replicas: int = 1
    seeds: tuple[int, ...] | None = None   # explicit; default base seed + i
    output_dir: str = "."
    include_positions: bool = True

    def __post_init__(self):
        if self.replicas < 1:
            raise ParameterError(f"replicas must be >= 1, got {self.replicas}")
        seeds = self.seed_list()
        if not seeds:
            raise ParameterError("no replica seeds given")
        if len(set(seeds)) != len(seeds):
            raise ParameterError(f"replica seeds must be pairwise distinct: {seeds}")

    def seed_list(self) -> tuple[int, ...]:
        if self.seeds is not None:
            return tuple(self.seeds)
        return tuple(self.model.seed + i for i in range(self.replicas))


_CONFIG_KEYS = frozenset(
    _PARAM_KEYS
    + ("replicas", "seeds", "output_dir", "include_positions")
)


def parse_config(text: str) -> RunConfig:
    """Flat key=value config; keys mirror ModelParams / RunConfig fields."""
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ParameterError(f"config line {lineno} is not key=value: {raw!r}")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ParameterError(f"config line {lineno}: unknown key {key!r}")
        if key in fields:
            raise ParameterError(f"config line {lineno}: repeated key {key!r}")
        fields[key] = value.strip()
    try:
        model = ModelParams(
            n=int(fields.get("n", "1000")),
            p=float(fields.get("p", "0.7")),
            a1=float(fields.get("a1", "1.0")),
            a2=float(fields.get("a2", "1.0")),
            dimension=int(fields.get("dimension", "2")),
            norm=Norm.parse(fields.get("norm", "linf")),
            seed=int(fields.get("seed", "0")),
        )
        seeds = None
        if "seeds" in fields:
            seeds = tuple(int(s) for s in fields["seeds"].split(",") if s.strip())
        return RunConfig(
            model=model,
            replicas=int(fields.get("replicas", "1")),
            seeds=seeds,
            output_dir=fields.get("output_dir", "."),
            include_positions=fields.get("include_positions", "true").lower() != "false",
        )
    except ValueError as exc:
        raise ParameterError(f"bad config value: {exc}") from None


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


def write_csv(path: str, columns, rows) -> None:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    atomic_write_bytes(path, out.getvalue().encode())
