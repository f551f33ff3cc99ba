"""Serialization: graph files, run manifests, CSV reports.

Graph file format (text, `.gz` suffix selects gzip with a zeroed mtime so
identical graphs produce identical bytes):

    %spa-graph v1
    p=0.7                       # one key=value line per model parameter
    ...
    %edges
    <source>TAB<target>         # one line per edge, generation order
    %positions                  # required; one row per vertex 1..n, in that order
    <vertex>TAB<coord>...       # repr() floats in [0, 1), shortest round-trip form

The writer has this one layout and the parser accepts only it: the
header, then `%edges`, then `%positions`, and a newline at the end of
the data. So a file cut anywhere is a parse error, and so are a missing,
repeated or out-of-order section marker, any other `%` line, a header key
that is not a model parameter, a blank line or carriage return inside a
section, a position row out of the writer's order (vertices 1..n) and a
coordinate outside [0, 1). The header is read line by line; each section
is parsed in place by one bulk numpy call and checked as whole arrays.
An error names the byte offset of the first bad line. A line numpy
cannot parse is found by bisecting the section on its own bytes and is
quoted with numpy's message for that line alone. Serialize -> parse ->
serialize is byte-identical.

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


def _write_graph(handle, graph: GrownGraph) -> None:
    """Write the graph file's bytes to `handle`."""
    header = [HEADER] + [f"{key}={_format_value(getattr(graph.params, key))}"
                         for key in _PARAM_TYPES]
    handle.write("\n".join(header + ["%edges\n"]).encode())
    _write_rows(handle, (graph.edge_sources(), graph.out_targets), "\t")
    handle.write(b"%positions\n")
    vertices = np.arange(1, graph.n + 1, dtype=np.int64)
    _write_rows(handle, (vertices, *graph.positions[1:].T), "\t")


def serialize_graph(graph: GrownGraph) -> bytes:
    buffer = io.BytesIO()
    _write_graph(buffer, graph)
    return buffer.getvalue()


def write_graph(graph: GrownGraph, path: str) -> None:
    """Stream the graph file to `path`; a `.gz` path is gzipped with a zeroed mtime and no name."""
    with _atomic_file(path) as handle:
        if path.endswith(".gz"):
            with gzip.GzipFile(filename="", fileobj=handle, mode="wb", mtime=0) as zipped:
                _write_graph(zipped, graph)
        else:
            _write_graph(handle, graph)


def _parse_params(data: bytes, start: int, end: int) -> ModelParams:
    """ModelParams from the header block data[start:end], one key=value line each.

    One pass in file order: the first line without `=`, with a repeated
    key or with a key that is not a model parameter raises at its own
    offset. A missing key or a bad value raises at the block's offset.
    """
    values: dict[str, str] = {}
    offset = start
    for raw in data[start:end].split(b"\n"):
        line_offset, offset = offset, offset + len(raw) + 1
        line = raw.decode("utf-8", "replace")
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ParseError(f"bad header line {line!r}: expected key=value", line_offset)
        if key in values:
            raise ParseError(f"bad header line {line!r}: duplicate key {key!r}", line_offset)
        if key not in _PARAM_TYPES:
            raise ParseError(f"unknown parameter key {key!r}", line_offset)
        values[key] = value
    missing = [key for key in _PARAM_TYPES if key not in values]
    if missing:
        raise ParseError(f"missing parameter keys {missing}", start)
    try:
        return ModelParams(**{key: _PARAM_TYPES[key](value) for key, value in values.items()})
    except ValueError as exc:
        raise ParseError(f"bad parameter block: {exc}", start) from None


def parse_graph(data: bytes) -> GrownGraph:
    """Parse graph bytes; errors carry the byte offset of the bad line.

    The layout is checked first (see `_sections`). Header lines are then
    read one at a time, and the `%edges` and `%positions` sections are
    each parsed by one bulk numpy call and checked as whole arrays. An
    error names the byte offset of the first offending line; a line the
    bulk call cannot parse is also quoted, with numpy's message for that
    line alone, such as "the dtype passed requires 2 columns but 3 were
    found".
    """
    newline = data.find(b"\n")
    first = data if newline < 0 else data[:newline]
    if first.decode("utf-8", "replace") != HEADER:
        raise ParseError(f"expected header {HEADER!r}", 0)
    header, edge_rows, position_rows = _sections(data, len(first) + 1)
    params = _parse_params(data, *header)
    edges = _load_rows(data, "edges", *edge_rows, _EDGE_ROW)["edge"]
    positions = _positions(data, position_rows, params)
    try:
        return GrownGraph.from_edges(params, edges, positions)
    except UsageError as exc:
        row = first_bad_edge(params.n, edges)[0]
        offset = _line_offset(data, edge_rows[0], row)
        raise ParseError(f"inconsistent edge list: {exc}", offset) from None


_MARKERS = ("%edges", "%positions")


def _sections(data: bytes, start: int) -> list[tuple[int, int]]:
    """(first byte, end byte) of the header, the edges and the positions.

    The header runs from `start` to the `%edges` line, the edges to the
    `%positions` line and the positions to the end of the data, which
    must end with a newline. A marker missing, repeated or out of order,
    or any other `%` line, is an error at the line where the layout breaks.
    """
    if not data.endswith(b"\n"):
        raise ParseError("the data ends inside a line: the file is cut short",
                         data.rfind(b"\n") + 1)
    ranges = []
    for i, expected in enumerate(_MARKERS + (None,)):
        hit = data.find(b"\n%", start - 1)
        end = len(data) if hit < 0 else hit + 1
        ranges.append((start, end))
        if hit < 0:
            if expected is None:
                return ranges
            why = " or was written without positions, which every graph file holds"
            raise ParseError(f"no {expected!r} line: the file is cut short"
                             f"{why if expected == '%positions' else ''}", end)
        line_end = data.index(b"\n", end)
        marker = data[end:line_end].decode("utf-8", "replace")
        if marker not in _MARKERS:
            raise ParseError(f"unknown section marker {marker!r}", end)
        if marker in _MARKERS[:i]:
            raise ParseError(f"repeated section marker {marker!r}", end)
        if marker != expected:
            raise ParseError(f"section marker {marker!r} where {expected!r} belongs", end)
        start = line_end + 1


def _rows(data: bytes, start: int, end: int, dtype: np.dtype) -> np.ndarray:
    """One row of `dtype` per tab-separated line of data[start:end], else ValueError.

    The lines are parsed in place, from a stream over `data` that stops
    after the last of them, so the section is never copied.
    """
    if (data.find(b"\r", start, end) >= 0 or data.startswith(b"\n", start, end)
            or data.find(b"\n\n", start, end) >= 0):
        raise ValueError("blank line or carriage return")
    stream = io.BytesIO(data)
    stream.seek(start)
    return np.loadtxt(stream, dtype=dtype, delimiter="\t", comments=None, ndmin=1,
                      max_rows=data.count(b"\n", start, end))


def _load_rows(data: bytes, section: str, start: int, end: int, dtype: np.dtype) -> np.ndarray:
    """Parse data[start:end] in one call; if that fails, raise at the first bad line.

    Each line parses or fails on its own, so bisection over the line
    boundaries of `data` finds the first one the bulk parse rejects,
    parsing in place as the bulk call does. The error names that line's
    byte offset and what `_rows` says of the line alone.
    """
    if start == end:
        return np.empty(0, dtype)
    try:
        return _rows(data, start, end, dtype)
    except ValueError:
        pass
    lo, hi = start, end   # data[lo:hi] fails, and no line before lo does
    while True:
        half = (lo + hi) // 2   # split at a line start near it; hi when one line is left
        mid = data.rfind(b"\n", lo, half) + 1 or data.find(b"\n", half, hi - 1) + 1 or hi
        try:
            _rows(data, lo, mid, dtype)
        except ValueError as exc:
            if mid == hi:
                line = data[lo : hi - 1].decode("utf-8", "replace")
                raise ParseError(f"bad {section} line {line!r}: {str(exc).split(' at row ')[0]}",
                                 lo) from None
            hi = mid
        else:
            lo = mid


def _line_offset(data: bytes, start: int, row: int) -> int:
    """Byte offset of line `row` (0-based) of the section starting at `start`.

    Line `row` starts just after the row-th newline from `start`, so
    bisection on the newline count of data[start:mid] finds it, counting
    in place as `_load_rows` parses in place.
    """
    lo, hi, below = start, len(data), 0   # data[start:lo] holds `below` < row newlines
    while row and hi - lo > 1:              # and data[start:hi] holds at least row
        mid = (lo + hi) // 2
        seen = below + data.count(b"\n", lo, mid)
        if seen < row:
            lo, below = mid, seen
        else:
            hi = mid
    return hi if row else start


def _positions(data: bytes, section: tuple[int, int], params: ModelParams) -> np.ndarray:
    """The (n+1, m) position array; slot 0 stays NaN. Row k must be vertex k's, k = 1..n."""
    start, end = section
    dtype = np.dtype([("vertex", np.int64), ("coords", np.float64, (params.dimension,))])
    rows = _load_rows(data, "positions", start, end, dtype)
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
