"""Serialization: graph files, run manifests, CSV reports.

Graph file format (text, `.gz` suffix selects gzip with a zeroed mtime so
identical graphs produce identical bytes):

    %spa-graph v1
    p=0.7                       # one key=value line per model parameter
    ...
    %edges
    <source>TAB<target>         # one line per edge, generation order
    %positions                  # optional
    <vertex>TAB<coord>...       # repr() floats in [0, 1), shortest round-trip form

Any other `%` line is a parse error, and so are a repeated section marker,
a blank line or carriage return inside a section, and a coordinate
outside [0, 1). The header is read line by line; each section is parsed
by one bulk numpy call and checked as whole arrays, and a failed check
names the byte offset of the first bad line. Serialize -> parse ->
serialize is byte-identical. All writes go through a temp file plus
rename, so readers never observe partial files. Run configs are not a
file format here: `cli` reads a `generate --config` file as that
command's own flags.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import io
import json
import os
import sys
import tempfile

import numpy as np

try:
    import resource
except ImportError:   # not on Windows
    resource = None

from ._version import __version__
from .errors import ParameterError, ParseError, UsageError
from .generator import GrownGraph, ModelParams, first_bad_edge
from .geometry import Norm

HEADER = "%spa-graph v1"
_PARAM_KEYS = ("p", "a1", "a2", "dimension", "norm", "n", "seed")

CURVE_COLUMNS = ("variant", "d", "count", "mean_c")
CENSUS_COLUMNS = ("degree", "count", "fraction", "theory_c")
EXPONENT_COLUMNS = ("d_min", "tail_count", "estimate", "stderr", "ls_slope", "theory_gamma")
TRAJECTORY_COLUMNS = ("vertex", "final_degree", "onset_time", "ratio_min", "ratio_max", "vacuous")
SCATTER_COLUMNS = ("variant", "degree", "c")

_BATCH = 1 << 13   # lines formatted per tolist() batch when serializing
_EDGE_ROW = np.dtype([("edge", np.int64, (2,))])


@contextlib.contextmanager
def _atomic_file(path: str, mode: str = "wb", **options):
    """A file on a temp name beside `path`, renamed onto it when the block succeeds."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, mode, **options) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path: str, data: bytes) -> None:
    with _atomic_file(path) as handle:
        handle.write(data)


def _format_value(value) -> str:
    if isinstance(value, Norm):
        return value.value
    return repr(value) if isinstance(value, float) else str(value)


def serialize_graph(graph: GrownGraph, include_positions: bool = True) -> bytes:
    p = graph.params
    header = [HEADER] + [f"{key}={_format_value(getattr(p, key))}" for key in _PARAM_KEYS]
    parts = ["\n".join(header + ["%edges\n"]).encode()]
    sources, targets = graph.edge_sources(), graph.out_targets
    for lo in range(0, targets.size, _BATCH):
        pairs = zip(sources[lo : lo + _BATCH].tolist(), targets[lo : lo + _BATCH].tolist())
        parts.append("".join([f"{v}\t{u}\n" for v, u in pairs]).encode())
    if include_positions and graph.positions is not None:
        parts.append(b"%positions\n")
        row = "%d" + "\t%r" * p.dimension + "\n"
        for lo in range(1, graph.n + 1, _BATCH):
            coords = graph.positions[lo : lo + _BATCH].tolist()
            parts.append("".join([row % (v, *c) for v, c in enumerate(coords, lo)]).encode())
    return b"".join(parts)


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
    """Parse graph bytes; errors carry the byte offset of the bad line.

    Header lines are read one at a time. The `%edges` and `%positions`
    sections are each parsed by one bulk numpy call and checked as whole
    arrays; when a check fails, the first offending line is located and
    named.
    """
    newline = data.find(b"\n")
    first = data if newline < 0 else data[:newline]
    if first.decode("utf-8", "replace") != HEADER:
        raise ParseError(f"expected header {HEADER!r}", 0)
    params_offset = len(first) + 1
    sections = _sections(data, params_offset)
    params = _parse_params(_header_fields(data, *sections["header"][1:]), params_offset)
    edges = np.empty((0, 2), dtype=np.int64)
    if "edges" in sections:
        _, start, end = sections["edges"]
        edges = _load_rows(data, "edges", start, end, _EDGE_ROW, params.dimension)["edge"]
    positions = None
    if "positions" in sections:
        positions = _positions(data, sections["positions"], params)
    try:
        return GrownGraph.from_edges(params, edges, positions)
    except UsageError as exc:
        row = first_bad_edge(params.n, edges)[0]
        offset = _line_offset(data, sections["edges"][1], row)
        raise ParseError(f"inconsistent edge list: {exc}", offset) from None


def _sections(data: bytes, start: int) -> dict[str, tuple[int, int, int]]:
    """(marker offset, first byte, end byte) of the header and of each marked section.

    The header runs from `start` to the first `%` line; a section runs
    from its marker line to the next one or the end of the data.
    """
    sections: dict[str, tuple[int, int, int]] = {}
    name, marker_offset = "header", start
    while True:
        hit = data.find(b"\n%", start - 1)
        end = len(data) if hit < 0 else hit + 1
        sections[name] = (marker_offset, start, end)
        if hit < 0:
            return sections
        line_end = data.find(b"\n", end)
        line_end = len(data) if line_end < 0 else line_end
        marker = data[end:line_end].decode("utf-8", "replace")
        if marker not in ("%edges", "%positions"):
            raise ParseError(f"unknown section marker {marker!r}", end)
        if marker[1:] in sections:
            raise ParseError(f"repeated section marker {marker!r}", end)
        name, marker_offset, start = marker[1:], end, line_end + 1


def _header_fields(data: bytes, start: int, end: int) -> dict[str, str]:
    fields: dict[str, str] = {}
    offset = start
    for raw in data[start:end].split(b"\n"):
        line_offset, offset = offset, offset + len(raw) + 1
        line = raw.decode("utf-8", "replace")
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ParseError(f"bad header line {line!r}: expected key=value", line_offset)
        if key in fields:
            raise ParseError(f"bad header line {line!r}: duplicate key {key!r}", line_offset)
        fields[key] = value
    return fields


def _rows(block: bytes, dtype: np.dtype) -> np.ndarray:
    """One row of `dtype` per tab-separated line of `block`, else ValueError."""
    if b"\r" in block or block.startswith(b"\n") or b"\n\n" in block:
        raise ValueError("blank line or carriage return")
    return np.loadtxt(io.BytesIO(block), dtype=dtype, delimiter="\t", comments=None, ndmin=1)


def _load_rows(
    data: bytes, section: str, start: int, end: int, dtype: np.dtype, dimension: int
) -> np.ndarray:
    """Parse data[start:end] in one call; if that fails, raise at the first bad line.

    Each line parses or fails on its own, so bisection over the lines
    finds the first one the bulk parse rejects.
    """
    block = data[start:end]
    if not block:
        return np.empty(0, dtype)
    try:
        return _rows(block, dtype)
    except ValueError:
        pass
    lines = block.split(b"\n")
    if block.endswith(b"\n"):
        lines.pop()
    lo, hi = 0, len(lines)          # the first bad line is in lines[lo:hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _rows(b"\n".join(lines[lo:mid]) + b"\n", dtype)
            lo = mid
        except ValueError:
            hi = mid
    line = lines[lo].decode("utf-8", "replace")
    message = _line_error(section, line, dimension)
    if message is None:   # int() and float() accept it; say what the bulk parse said
        try:
            _rows(lines[lo] + b"\n", dtype)
        except ValueError as exc:
            message = f"bad {section} line {line!r}: {str(exc).split(' at row ')[0]}"
    raise ParseError(message, start + sum(len(x) + 1 for x in lines[:lo]))


def _line_error(section: str, line: str, dimension: int) -> str | None:
    """What is wrong with one edge or position line, in int()/float() terms."""
    fields = line.split("\t")
    try:
        if section == "edges":
            source, target = fields
            int(source), int(target)
            return None
        vertex = int(fields[0])
        [float(c) for c in fields[1:]]
    except ValueError as exc:
        return f"bad {section} line {line!r}: {exc}"
    if len(fields) - 1 != dimension:
        return f"bad position row for vertex {vertex}"
    return None


def _line_offset(data: bytes, start: int, row: int) -> int:
    """Byte offset of line `row` (0-based) of the section starting at `start`."""
    for _ in range(row):
        start = data.index(b"\n", start) + 1
    return start


def _positions(data: bytes, section: tuple[int, int, int], params: ModelParams) -> np.ndarray:
    """The (n+1, m) position array; slot 0 stays NaN."""
    marker_offset, start, end = section
    dtype = np.dtype([("vertex", np.int64), ("coords", np.float64, (params.dimension,))])
    rows = _load_rows(data, "positions", start, end, dtype, params.dimension)
    vertex, coords = rows["vertex"], rows["coords"]
    n = params.n
    in_range = (vertex >= 1) & (vertex <= n)
    first_seen = np.zeros(vertex.size, dtype=bool)
    first_seen[np.unique(np.where(in_range, vertex, 0), return_index=True)[1]] = True
    bad = np.flatnonzero(~in_range | ~first_seen)
    if bad.size:
        row = int(bad[0])
        kind = "duplicate position" if in_range[row] else "bad position"
        raise ParseError(f"{kind} row for vertex {vertex[row]}", _line_offset(data, start, row))
    seen = np.zeros(n + 1, dtype=bool)
    seen[vertex] = True
    if not seen[1:].all():
        missing = int(np.flatnonzero(~seen[1:])[0]) + 1
        raise ParseError(f"no position row for vertex {missing}", marker_offset)
    outside = np.flatnonzero(~((coords >= 0.0) & (coords < 1.0)).all(axis=1))
    if outside.size:
        row = int(outside[0])
        raise ParseError(
            f"position of vertex {vertex[row]} outside [0, 1)", _line_offset(data, start, row)
        )
    positions = np.full((n + 1, params.dimension), np.nan)
    positions[vertex] = coords
    return positions


def read_graph(path: str) -> GrownGraph:
    with open(path, "rb") as handle:
        data = handle.read()
    if path.endswith(".gz"):
        data = gzip.decompress(data)
    return parse_graph(data)


def _peak_rss_mb() -> float | None:
    """This process's peak resident set so far, in MiB; None where `resource` is missing."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss   # bytes on macOS, KiB elsewhere
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


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
        "peak_rss_mb": _peak_rss_mb(),
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


def write_csv(path: str, columns, rows) -> None:
    """A header line, then one line per row; `rows` may be any iterable, read once."""
    with _atomic_file(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
