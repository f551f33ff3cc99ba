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
return inside a section, a position row out of the writer's order
(vertices 1..n) and a coordinate outside [0, 1). The header is read line
by line; each section is parsed by one bulk numpy call and checked as
whole arrays, and a failed check names the byte offset of the first bad
line. Serialize -> parse -> serialize is byte-identical.

One row writer serves graph files and CSV reports. A block is a tuple of
equal-length columns, and its text is made a batch of rows at a time,
each number column formatted once per distinct value in the batch
(`repr`, the shortest round-trip text). A CSV gets the bytes
`csv.writer` would write for the same rows; a text field that
`csv.writer` would quote is refused instead.

All writes go through a temp file plus rename, so readers never observe
partial files, and a new file gets mode 0o666 less the umask, as `open`
would give it. Nothing here reads a run manifest back. Run configs are
not a file format here: `cli` reads a `generate --config` file as that
command's own flags.
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
def _atomic_file(path: str):
    """A binary file on a temp name beside `path`, renamed onto it when the block succeeds.

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
        with os.fdopen(fd, "wb") as handle:
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
    return value.value if isinstance(value, Norm) else repr(value)


def _write_rows(handle, block, sep: str) -> None:
    """Write the rows of `block`, a tuple of equal-length columns, `sep` between fields.

    The text is made a `_BATCH` of rows at a time. In each batch an int64
    or float64 column is `repr`'d once per distinct bit pattern, so -0.0
    and NaN keep their own text and a repeated value costs one lookup; a
    list of str is written as given.
    """
    size = len(block[0]) if block else 0
    width = 2 * len(block)   # each field, then sep or, last, "\n"
    for lo in range(0, size, _BATCH):
        rows = min(_BATCH, size - lo)
        cells = [sep] * (width * rows)
        for j, column in enumerate(block):
            part = column[lo : lo + rows]
            if isinstance(part, np.ndarray):
                bits, inverse = np.unique(part.view(np.int64), return_inverse=True)
                texts = np.array([repr(x) for x in bits.view(part.dtype).tolist()], dtype=object)
                part = texts[inverse].tolist()
            cells[2 * j :: width] = part
        cells[width - 1 :: width] = ["\n"] * rows
        handle.write("".join(cells).encode())


def _write_graph(handle, graph: GrownGraph, include_positions: bool) -> None:
    """Write the graph file's bytes to `handle`."""
    header = [HEADER] + [f"{key}={_format_value(getattr(graph.params, key))}"
                         for key in _PARAM_TYPES]
    handle.write("\n".join(header + ["%edges\n"]).encode())
    _write_rows(handle, (graph.edge_sources(), graph.out_targets), "\t")
    if include_positions:
        handle.write(b"%positions\n")
        vertices = np.arange(1, graph.n + 1, dtype=np.int64)
        _write_rows(handle, (vertices, *graph.positions[1:].T), "\t")


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
    """The (n+1, m) position array; slot 0 stays NaN. Row k must be vertex k's, k = 1..n."""
    _, start, end = section
    dtype = np.dtype([("vertex", np.int64), ("coords", np.float64, (params.dimension,))])
    rows = _load_rows(data, "positions", start, end, dtype, params.dimension)
    vertex, coords = rows["vertex"], rows["coords"]
    n = params.n
    wrong = np.flatnonzero(vertex != np.arange(1, vertex.size + 1))
    row = min(int(wrong[0]) if wrong.size else vertex.size, n)   # the first row off the layout
    if row < vertex.size:
        where = f"where vertex {row + 1}'s belongs" if row < n else f"after vertex n = {n}"
        raise ParseError(f"position row for vertex {vertex[row]} {where}",
                         _line_offset(data, start, row))
    if row < n:
        raise ParseError(f"no position row for vertex {row + 1}", end)
    outside = np.flatnonzero(~((coords >= 0.0) & (coords < 1.0)).all(axis=1))
    if outside.size:
        row = int(outside[0])
        raise ParseError(
            f"position of vertex {vertex[row]} outside [0, 1)", _line_offset(data, start, row)
        )
    positions = np.full((n + 1, params.dimension), np.nan)
    positions[1:] = coords
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


_QUOTED = ',"\r\n'   # a field holding any of these is one csv.writer quotes


def _check_text(fields) -> None:
    """Refuse a text field csv.writer would quote (a lone empty field is written as "")."""
    for field in set(fields):
        if not isinstance(field, str) or not field or any(c in field for c in _QUOTED):
            raise UsageError(f"CSV text fields must be non-empty str without , \" CR or LF, "
                             f"got {field!r}")


def write_csv(path: str, header, blocks) -> None:
    """A header line, then the rows of each block; `blocks` may be any iterable, read once.

    A block is a tuple of equal-length columns, one per header field:
    int64 or float64 arrays, or lists of str. The bytes are those
    `csv.writer(lineterminator="\\n")` writes for the same rows, with
    numbers as `repr` gives them.
    """
    _check_text(header)
    with _atomic_file(path) as handle:
        handle.write((",".join(header) + "\n").encode())
        for block in blocks:
            size = len(block[0]) if block else 0
            if len(block) != len(header) or any(len(column) != size for column in block):
                raise UsageError(
                    f"a CSV block needs {len(header)} columns of one length, "
                    f"got lengths {[len(column) for column in block]}"
                )
            for column in block:
                if not isinstance(column, np.ndarray):
                    _check_text(column)
                elif column.dtype.kind not in "if" or column.dtype.itemsize != 8:
                    raise UsageError(
                        f"CSV number columns must be int64 or float64, got {column.dtype}")
            _write_rows(handle, block, ",")
