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
coordinate outside [0, 1). The header is read line by line. Each section
is read a block of whole lines at a time, in place, into the arrays the
graph keeps, and each block is checked as whole arrays: a block of edge
lines in the writer's own form is parsed by one `np.fromstring` call,
any other block by `np.loadtxt`. An error names the byte offset of the
first bad line. A line numpy cannot parse is found by bisecting its block
on the file's own bytes and is quoted with numpy's message for that line
alone. Serialize -> parse -> serialize is byte-identical.

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
from .generator import EdgeFill, GrownGraph, ModelParams
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
_BLOCK = 1 << 16   # bytes of a section parsed per block, cut back to a line end


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
    read one at a time. The `%edges` and `%positions` sections are each
    read a block of whole lines at a time (see `_blocks`), straight into
    the arrays the graph keeps, which are sized by counting the lines
    first. Edge lines in the writer's form are parsed by one C call per
    block, any other block by `_load_rows`. An error names the byte offset
    of the first offending line; a line that does not parse is also
    quoted, with numpy's message for that line alone, such as "the dtype
    passed requires 2 columns but 3 were found". A line that does not
    parse outranks a position error, and a position error outranks an
    edge out of order, wherever in their sections they stand.
    """
    newline = data.find(b"\n")
    first = data if newline < 0 else data[:newline]
    if first.decode("utf-8", "replace") != HEADER:
        raise ParseError(f"expected header {HEADER!r}", 0)
    header, edge_rows, position_rows = _sections(data, len(first) + 1)
    params = _parse_params(data, *header)
    edge_blocks, edge_count = _edge_blocks(data, *edge_rows)
    positions = _positions(data, position_rows, params)
    out_ptr, out_targets = _edges(data, edge_blocks, edge_count, params.n)
    return GrownGraph(params=params, out_ptr=out_ptr, out_targets=out_targets, positions=positions)


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


def _blocks(data: bytes, start: int, end: int):
    """(lo, hi) of consecutive blocks of whole lines that cover data[start:end].

    A block runs to the last line end within `_BLOCK` bytes of its start,
    or to the end of its first line when that line is longer. Each line
    parses or fails on its own, so a section parses block by block as it
    would whole, and its first bad line is the first bad line of the first
    block that fails.
    """
    lo = start
    while lo < end:
        hi = data.rfind(b"\n", lo, min(lo + _BLOCK, end)) + 1 or data.index(b"\n", lo + _BLOCK) + 1
        yield lo, hi
        lo = hi


def _writer_lines(data: bytes, lo: int, hi: int) -> int:
    """How many edge lines data[lo:hi] holds, if all are in the writer's form; else 0.

    That form is `digits TAB digits LF`, each field 1 to 18 ASCII digits,
    and nothing else. `np.fromstring` reads such a field as the same int64
    `np.loadtxt` does, and none can overflow; any other line is left to
    `_load_rows` and its messages.
    """
    text = np.frombuffer(data, np.uint8, hi - lo, lo)
    ends = np.flatnonzero(text < ord("0"))   # each field's end: TAB or LF, or a byte that fails
    if (ends.size % 2 or text.max() > ord("9") or not 1 <= ends[0] <= 18
            or (text[ends[0::2]] != ord("\t")).any() or (text[ends[1::2]] != ord("\n")).any()):
        return 0
    widths = np.diff(ends)   # each later field's digits, plus its end byte
    return ends.size // 2 if widths.min() >= 2 and widths.max() <= 19 else 0


def _edge_blocks(data: bytes, start: int, end: int) -> tuple[list[tuple[int, int, bool]], int]:
    """The `%edges` section's blocks, as (lo, hi, whether in the writer's form), and its lines.

    A block not in that form is parsed here by `_load_rows`, so a line that
    does not parse is named before any position row is read: its error
    outranks theirs. Nothing edge-sized is kept.
    """
    blocks, size = [], 0
    for lo, hi in _blocks(data, start, end):
        lines = _writer_lines(data, lo, hi)
        blocks.append((lo, hi, lines > 0))
        size += lines or _load_rows(data, "edges", lo, hi, _EDGE_ROW).size
    return blocks, size


def _edges(data: bytes, blocks, size: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """`out_ptr` and `out_targets` of the `size` edges in `blocks`, parsed into an `EdgeFill`.

    Every line parses (see `_edge_blocks`), so the first edge out of birth
    or generation order is the error, at its own line.
    """
    fill = EdgeFill(n, size)
    for lo, hi, form in blocks:
        if form:
            # one flat list, source then target: LF is whitespace the TAB
            # separator may carry; numpy >= 2.4 takes bytes here, not a memoryview
            numbers = np.fromstring(data[lo:hi], dtype=np.int64, sep="\t")
        else:
            numbers = _load_rows(data, "edges", lo, hi, _EDGE_ROW)["edge"].reshape(-1)
        if not fill.add(numbers[0::2], numbers[1::2]):
            row, message = fill.bad
            raise ParseError(f"inconsistent edge list: {message}",
                             _line_offset(data, lo, row - fill.taken))
        del numbers   # before the next block is parsed
    return fill.finish()


def _positions(data: bytes, section: tuple[int, int], params: ModelParams) -> np.ndarray:
    """The (n+1, m) position array; slot 0 stays NaN. Row k must be vertex k's, k = 1..n.

    Blocks are parsed to the section's end, so a line that does not parse
    outranks a row out of place, which outranks a missing row, which
    outranks a coordinate outside [0, 1).
    """
    start, end = section
    n = params.n
    dtype = np.dtype([("vertex", np.int64), ("coords", np.float64, (params.dimension,))])
    positions = np.full((n + 1, params.dimension), np.nan)
    misplaced = outside = None   # the first row out of place, and the first outside [0, 1)
    row = 0   # rows read so far
    for lo, hi in _blocks(data, start, end):
        rows = _load_rows(data, "positions", lo, hi, dtype)
        vertex, coords = rows["vertex"], rows["coords"]
        if misplaced is None:
            expected = np.arange(row + 1, row + vertex.size + 1)
            wrong = np.flatnonzero((vertex != expected) | (expected > n))
            if wrong.size:
                i = int(wrong[0])
                k = row + i   # the row's index in the section
                where = f"where vertex {k + 1}'s belongs" if k < n else f"after vertex n = {n}"
                misplaced = ParseError(f"position row for vertex {vertex[i]} {where}",
                                       _line_offset(data, lo, i))
            else:
                positions[row + 1 : row + 1 + vertex.size] = coords
                away = np.flatnonzero(~((coords >= 0.0) & (coords < 1.0)).all(axis=1))
                if away.size and outside is None:
                    i = int(away[0])
                    outside = ParseError(f"position of vertex {vertex[i]} outside [0, 1)",
                                         _line_offset(data, lo, i))
        row += vertex.size
    if misplaced is not None:
        raise misplaced
    if row < n:
        raise ParseError(f"no position row for vertex {row + 1}", end)
    if outside is not None:
        raise outside
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
