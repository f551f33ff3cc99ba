"""Serialization: graph files, run manifests, CSV reports.

Graph file format (text, `.gz` suffix selects gzip with a zeroed mtime so
identical graphs produce identical bytes):

    %spa-graph v1
    p=0.7                       # one key=value line per model parameter
    ...
    %edges
    <source>TAB<target>         # one line per edge, generation order
    %positions                  # optional; without it, the seed's positions are drawn
    <vertex>TAB<coord>...       # repr() floats in [0, 1), shortest round-trip form

Any other `%` line is a parse error, and so are a repeated section marker,
a header key that is not a model parameter, a blank line or carriage
return inside a section, and a coordinate outside [0, 1). The header is
read line by line, and a manifest's parameters are checked as a header's
are; each section is parsed by one bulk numpy call and checked as whole
arrays, and a failed check names the byte offset of the first bad line.
Serialize -> parse -> serialize is byte-identical.

CSV reports are written column by column: each block of rows is a tuple
of equal-length columns, a number column is formatted once per distinct
value (`repr`, the shortest round-trip text) and the rows are joined a
batch at a time, giving the bytes `csv.writer` would for the same rows.
A text field that `csv.writer` would quote is refused instead.

All writes go through a temp file plus rename, so readers never observe
partial files, and a new file gets mode 0o666 less the umask, as `open`
would give it. Run configs are not a file format here: `cli` reads a
`generate --config` file as that command's own flags.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import io
import json
import os
import sys
import zlib

import numpy as np

try:
    import resource
except ImportError:   # not on Windows
    resource = None

from ._version import __version__
from .errors import ParseError, UsageError
from .generator import GrownGraph, ModelParams, first_bad_edge
from .geometry import Norm

HEADER = "%spa-graph v1"
# each model parameter's header key, in file order, and how its value is read
_PARAM_TYPES = {
    "p": float, "a1": float, "a2": float, "dimension": int,
    "norm": Norm.parse, "n": int, "seed": int,
}

CURVE_COLUMNS = ("variant", "d", "count", "mean_c")
CENSUS_COLUMNS = ("degree", "count", "fraction", "theory_c")
EXPONENT_COLUMNS = ("d_min", "tail_count", "estimate", "stderr", "ls_slope", "theory_gamma")
TRAJECTORY_COLUMNS = ("vertex", "final_degree", "onset_time", "ratio_min", "ratio_max", "vacuous")
SCATTER_COLUMNS = ("variant", "degree", "c")
SWEEP_COLUMNS = ("variant", "p", "d", "count", "mean_c")

_BATCH = 1 << 13   # lines formatted per batch when writing a graph or a CSV
_EDGE_ROW = np.dtype([("edge", np.int64, (2,))])


@contextlib.contextmanager
def _atomic_file(path: str, mode: str = "wb", **options):
    """A file on a temp name beside `path`, renamed onto it when the block succeeds.

    The file is made as `open` makes one, with mode 0o666 less the umask.
    """
    directory, name = os.path.split(os.path.abspath(path))
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    while True:
        tmp = os.path.join(directory, f".tmp-{os.urandom(4).hex()}{name}")
        try:
            fd = os.open(tmp, flags, 0o666)
            break
        except FileExistsError:
            continue
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


def _format_value(value, kind) -> str:
    if kind is float:   # numpy and int values too, as the float they are read back as
        return repr(float(value))
    return value.value if isinstance(value, Norm) else str(value)


def _write_graph(handle, graph: GrownGraph, include_positions: bool) -> None:
    """Write the graph file's bytes to `handle`, a batch of lines at a time."""
    p = graph.params
    header = [HEADER] + [f"{key}={_format_value(getattr(p, key), kind)}"
                         for key, kind in _PARAM_TYPES.items()]
    handle.write("\n".join(header + ["%edges\n"]).encode())
    sources, targets = graph.edge_sources(), graph.out_targets
    for lo in range(0, targets.size, _BATCH):
        pairs = zip(sources[lo : lo + _BATCH].tolist(), targets[lo : lo + _BATCH].tolist())
        handle.write("".join([f"{v}\t{u}\n" for v, u in pairs]).encode())
    if include_positions:
        handle.write(b"%positions\n")
        row = "%d" + "\t%r" * p.dimension + "\n"
        for lo in range(1, graph.n + 1, _BATCH):
            coords = graph.positions[lo : lo + _BATCH].tolist()
            handle.write("".join([row % (v, *c) for v, c in enumerate(coords, lo)]).encode())


def serialize_graph(graph: GrownGraph, include_positions: bool = True) -> bytes:
    buffer = io.BytesIO()
    _write_graph(buffer, graph, include_positions)
    return buffer.getvalue()


def write_graph(graph: GrownGraph, path: str, include_positions: bool = True) -> None:
    """Stream the graph file to `path`; a `.gz` path is gzipped with a zeroed mtime and no name."""
    with _atomic_file(path) as handle:
        if path.endswith(".gz"):
            with gzip.GzipFile(filename="", fileobj=handle, mode="wb", mtime=0) as zipped:
                _write_graph(zipped, graph, include_positions)
        else:
            _write_graph(handle, graph, include_positions)


def _parse_params(fields: dict, offset: int) -> ModelParams:
    """ModelParams from key -> (value, byte offset of its line); the block starts at `offset`."""
    unknown = [key for key in fields if key not in _PARAM_TYPES]
    if unknown:
        raise ParseError(f"unknown parameter key {unknown[0]!r}", fields[unknown[0]][1])
    missing = [key for key in _PARAM_TYPES if key not in fields]
    if missing:
        raise ParseError(f"missing parameter keys {missing}", offset)
    try:
        return ModelParams(**{key: _PARAM_TYPES[key](value) for key, (value, _) in fields.items()})
    except ValueError as exc:
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


def _header_fields(data: bytes, start: int, end: int) -> dict[str, tuple[str, int]]:
    """key -> (value, byte offset of its line) for the key=value lines of the header."""
    fields: dict[str, tuple[str, int]] = {}
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
        fields[key] = (value, line_offset)
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
        try:
            data = gzip.decompress(data)
        except (EOFError, zlib.error) as exc:   # a truncated or corrupt stream; a bad CRC is an OSError
            raise ParseError(f"damaged gzip stream in {path}: {exc}", 0) from None
    return parse_graph(data)


def _peak_rss_mb() -> float | None:
    """This process's peak resident set so far, in MiB; None where `resource` is missing."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss   # bytes on macOS, KiB elsewhere
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def write_manifest(path: str, graph: GrownGraph, graph_file: str, wall_time_s: float) -> None:
    manifest = {
        "format": "spa-graph-manifest v1",
        "library": "spagraph",
        "version": __version__,
        "params": {**dataclasses.asdict(graph.params), "norm": graph.params.norm.value},
        "edge_count": graph.num_edges,
        "wall_time_s": wall_time_s,
        "peak_rss_mb": _peak_rss_mb(),
        "graph_file": graph_file,
    }
    atomic_write_bytes(path, (json.dumps(manifest, indent=2) + "\n").encode())


def params_from_manifest(path: str) -> ModelParams:
    """The manifest's parameters, read from their text as a header's are (2000.5 is no n)."""
    with open(path, "rb") as handle:
        manifest = json.load(handle)
    return _parse_params({key: (str(v), 0) for key, v in manifest["params"].items()}, 0)


_QUOTED = ',"\r\n'   # a field holding any of these is one csv.writer quotes


def _check_text(fields) -> None:
    """Refuse a text field csv.writer would quote (a lone empty field is written as "")."""
    for field in set(fields):
        if not isinstance(field, str) or not field or any(c in field for c in _QUOTED):
            raise UsageError(f"CSV text fields must be non-empty str without , \" CR or LF, "
                             f"got {field!r}")


def _column_text(column):
    """A function from a row range [lo, hi) of `column` to its field texts.

    A 64-bit int or float array is `repr`'d once per distinct bit
    pattern, so -0.0 and NaN keep their own text and a repeated value
    costs one lookup. A list of str is written as given.
    """
    if not isinstance(column, np.ndarray):
        _check_text(column)
        return lambda lo, hi: column[lo:hi]
    if column.dtype.kind not in "if" or column.dtype.itemsize != 8:
        raise UsageError(f"CSV number columns must be int64 or float64, got {column.dtype}")
    bits, rows = np.unique(column.view(np.int64), return_inverse=True)
    texts = np.array([repr(x) for x in bits.view(column.dtype).tolist()], dtype=object)
    return lambda lo, hi: texts[rows[lo:hi]].tolist()


def write_csv(path: str, header, blocks) -> None:
    """A header line, then the rows of each block; `blocks` may be any iterable, read once.

    A block is a tuple of equal-length columns, one per header field:
    int64 or float64 arrays, or lists of str. The bytes are those
    `csv.writer(lineterminator="\\n")` writes for the same rows, with
    numbers as `repr` gives them.
    """
    _check_text(header)
    with _atomic_file(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for block in blocks:
            size = len(block[0]) if block else 0
            if len(block) != len(header) or any(len(column) != size for column in block):
                raise UsageError(
                    f"a CSV block needs {len(header)} columns of one length, "
                    f"got lengths {[len(column) for column in block]}"
                )
            texts = [_column_text(column) for column in block]
            width = 2 * len(block)   # a row is each field followed by "," or, last, "\n"
            for lo in range(0, size, _BATCH):
                rows = min(_BATCH, size - lo)
                cells = [","] * (width * rows)
                for j, text in enumerate(texts):
                    cells[2 * j :: width] = text(lo, lo + rows)
                cells[width - 1 :: width] = ["\n"] * rows
                handle.write("".join(cells))
