import csv
import io
import json
import math
import os
import re
import resource
import stat
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import assert_same_graph
from spagraph import graph_io, stats
from spagraph.errors import ParseError, UsageError
from spagraph.generator import GrownGraph, ModelParams, generate, generate_naive
from spagraph.geometry import Norm

PARAMS = dict(p=0.7, a1=1.0, a2=30 / 7)


def make(n, seed=0, **overrides):
    return ModelParams(n=n, seed=seed, **{**PARAMS, **overrides})


@pytest.fixture(scope="module")
def grown():
    return generate(make(300, seed=5))


def test_round_trip_byte_identity(grown, tmp_path):
    path = str(tmp_path / "g.tsv")
    graph_io.write_graph(grown, path)
    first = Path(path).read_bytes()
    parsed = graph_io.read_graph(path)
    graph_io.write_graph(parsed, path)
    assert Path(path).read_bytes() == first
    assert_same_graph(parsed, grown)


def test_round_trip_gzip(grown, tmp_path):
    path = str(tmp_path / "g.tsv.gz")
    graph_io.write_graph(grown, path)
    first = Path(path).read_bytes()
    parsed = graph_io.read_graph(path)
    graph_io.write_graph(parsed, path)
    assert Path(path).read_bytes() == first


def test_round_trip_without_positions(grown, tmp_path):
    # a graph built without positions gets the seed's, the ones the run drew, and writes them
    built = GrownGraph.from_edges(grown.params, np.column_stack(
        [grown.edge_sources(), grown.out_targets]))
    path = str(tmp_path / "g.tsv")
    graph_io.write_graph(built, path)
    assert Path(path).read_bytes() == graph_io.serialize_graph(grown)
    assert_same_graph(graph_io.read_graph(path), grown)


def test_parse_error_reports_byte_offset(grown, tmp_path):
    path = str(tmp_path / "g.tsv")
    graph_io.write_graph(grown, path)
    data = Path(path).read_bytes()
    corrupted = data.replace(b"%edges\n", b"%edges\nnot-an-edge\n", 1)
    with pytest.raises(ParseError) as info:
        graph_io.parse_graph(corrupted)
    expected_offset = corrupted.index(b"not-an-edge")
    assert info.value.byte_offset == expected_offset


def test_parse_rejects_wrong_header():
    with pytest.raises(ParseError):
        graph_io.parse_graph(b"%spa-graph v2\n")


def test_parse_rejects_missing_params():
    with pytest.raises(ParseError, match="missing parameter"):
        graph_io.parse_graph(b"%spa-graph v1\np=0.7\n%edges\n%positions\n")


def test_manifest_reproduces_graph(grown, tmp_path):
    graph_path = str(tmp_path / "g.tsv")
    manifest_path = str(tmp_path / "g.manifest.json")
    graph_io.write_graph(grown, graph_path)
    graph_io.write_manifest(manifest_path, grown, "g.tsv", wall_time_s=1.25)
    manifest = json.loads(Path(manifest_path).read_text())
    assert manifest["edge_count"] == grown.num_edges
    # own-process peak RSS in MiB, never above what the process reports after writing
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert 0 < manifest["peak_rss_mb"] <= peak
    assert list(manifest["params"]) == ["n", "p", "a1", "a2", "dimension", "norm", "seed"]
    params = ModelParams(**{**manifest["params"], "norm": Norm(manifest["params"]["norm"])})
    assert params == grown.params
    regenerated = generate(params)
    regen_path = str(tmp_path / "regen.tsv")
    graph_io.write_graph(regenerated, regen_path)
    assert Path(regen_path).read_bytes() == Path(graph_path).read_bytes()


def test_manifest_peak_rss_is_null_without_resource(grown, tmp_path, monkeypatch):
    monkeypatch.setattr(graph_io, "resource", None)
    path = str(tmp_path / "g.manifest.json")
    graph_io.write_manifest(path, grown, "g.tsv", wall_time_s=0.5)
    manifest = json.loads(Path(path).read_text())
    assert "peak_rss_mb" in manifest and manifest["peak_rss_mb"] is None


def test_write_csv_schema(tmp_path):
    path = str(tmp_path / "curve.csv")
    block = (["directed"], np.array([2]), np.array([10]), np.array([0.5]))
    graph_io.write_csv(path, graph_io.CURVE_COLUMNS, [block])
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "variant,d,count,mean_c"
    assert lines[1] == "directed,2,10,0.5"


def test_write_csv_streams_rows_and_is_atomic(tmp_path):
    path = str(tmp_path / "rows.csv")
    graph_io.write_csv(path, ("a", "b"), ((np.array([i]), np.array([i / 3])) for i in range(3)))
    assert Path(path).read_bytes() == b"a,b\n0,0.0\n1,0.3333333333333333\n2,0.6666666666666666\n"

    def failing_blocks():
        yield (np.array([9]), ["x"])
        raise RuntimeError("block source failed")

    with pytest.raises(RuntimeError):
        graph_io.write_csv(path, ("a", "b"), failing_blocks())
    assert sorted(os.listdir(tmp_path)) == ["rows.csv"]
    assert Path(path).read_bytes().startswith(b"a,b\n0,")


# Values whose text is easy to get wrong: signed zeros and NaNs differ in bits but not
# (or not only) in value, and the extremes of each type.
_CSV_FLOATS = [-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-05, 0.1]
_CSV_INTS = [0, -1, 7, -(2**63), 2**63 - 1, 10**16]
_CSV_VALUES = {
    "int": st.sampled_from(_CSV_INTS) | st.integers(-(2**63), 2**63 - 1),
    "float": st.sampled_from(_CSV_FLOATS) | st.floats(),
    "text": st.sampled_from(["directed", "old_band"]) | st.text(
        st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n'), min_size=1),
}


@st.composite
def csv_tables(draw):
    """(column kinds, blocks): up to four blocks of up to 30 rows in the same columns."""
    kinds = draw(st.lists(st.sampled_from(sorted(_CSV_VALUES)), min_size=1, max_size=4))
    blocks = []
    for size in draw(st.lists(st.integers(0, 30), max_size=4)):
        block = []
        for kind in kinds:
            values = draw(st.lists(_CSV_VALUES[kind], min_size=size, max_size=size))
            dtype = {"int": np.int64, "float": np.float64}.get(kind)
            block.append(values if dtype is None else np.array(values, dtype=dtype))
        blocks.append(tuple(block))
    return kinds, blocks


@settings(max_examples=200, deadline=None)
@given(table=csv_tables(), batch=st.integers(1, 8))
@example(table=(["float", "int"], [(np.array([0.0, -0.0, 0.0]), np.array([1, 1, 2]))]), batch=2)
def test_write_csv_matches_csv_writer(table, batch):
    kinds, blocks = table
    header = [f"{kind}{i}" for i, kind in enumerate(kinds)]
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    for block in blocks:
        writer.writerows(zip(*[c.tolist() if isinstance(c, np.ndarray) else c for c in block]))
    with tempfile.TemporaryDirectory() as directory, \
            mock.patch.object(graph_io, "_BATCH", batch):
        path = os.path.join(directory, "t.csv")
        graph_io.write_csv(path, header, iter(blocks))
        assert Path(path).read_bytes() == expected.getvalue().encode()


@pytest.mark.parametrize("field", ["a,b", 'say "hi"', "a\rb", "a\nb", ""])
def test_write_csv_refuses_a_field_csv_writer_would_quote(tmp_path, field):
    path = tmp_path / "q.csv"
    path.write_bytes(b"old\n")
    with pytest.raises(UsageError, match="CSV text fields"):
        graph_io.write_csv(str(path), ("a", "b"), [(["x", field], np.array([1, 2]))])
    with pytest.raises(UsageError, match="CSV text fields"):
        graph_io.write_csv(str(path), ("a", field), [])
    assert path.read_bytes() == b"old\n" and os.listdir(tmp_path) == ["q.csv"]


@pytest.mark.parametrize("block", [
    (np.arange(2), np.arange(3)),
    (np.arange(2),),
    (np.arange(2, dtype=np.int32), np.arange(2)),
    (np.array([True, False]), np.arange(2)),
    ([1, 2], np.arange(2)),
], ids=["ragged", "short", "int32", "bool", "int-list"])
def test_write_csv_refuses_a_malformed_block(tmp_path, block):
    with pytest.raises(UsageError):
        graph_io.write_csv(str(tmp_path / "b.csv"), ("a", "b"), [block])
    assert os.listdir(tmp_path) == []


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_outputs_get_mode_0666_less_the_umask(grown, tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        graph_io.write_graph(grown, str(tmp_path / "g.tsv"))
        graph_io.write_graph(grown, str(tmp_path / "g.tsv.gz"))
        graph_io.write_manifest(str(tmp_path / "g.manifest.json"), grown, "g.tsv", 0.5)
        graph_io.write_csv(str(tmp_path / "c.csv"), ("a",), [(np.arange(3),)])
    finally:
        os.umask(old)
    modes = {name: stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in os.listdir(tmp_path)}
    assert modes == dict.fromkeys(["c.csv", "g.manifest.json", "g.tsv", "g.tsv.gz"], mode)


def test_atomic_write_leaves_no_temp_files(grown, tmp_path):
    path = str(tmp_path / "g.tsv")
    graph_io.write_graph(grown, path)
    assert sorted(os.listdir(tmp_path)) == ["g.tsv"]


def test_round_trip_l2_dimension_3(tmp_path):
    g = generate(ModelParams(n=60, seed=1, p=0.5, a1=1.0, a2=2.0,
                             dimension=3, norm=Norm.L2))
    path = str(tmp_path / "g3.tsv")
    graph_io.write_graph(g, path)
    parsed = graph_io.read_graph(path)
    assert parsed.params == g.params
    assert np.array_equal(parsed.positions[1:], g.positions[1:])


def test_round_trip_single_vertex(tmp_path):
    g = generate(make(1))
    path = str(tmp_path / "one.tsv")
    graph_io.write_graph(g, path)
    parsed = graph_io.read_graph(path)
    assert parsed.n == 1 and parsed.num_edges == 0


@pytest.mark.parametrize("params", [
    ModelParams(n=50, p=np.float64(0.5), a1=np.float64(1.0), a2=np.float64(2.5), seed=1),
    ModelParams(n=50, p=0.7, a1=1, a2=2, seed=1),
    ModelParams(n=50, p=np.float32(0.5), a1=np.float32(1.0), a2=np.float32(2.5), seed=1),
    ModelParams(n=50, p=0.7, a1=Fraction(1), a2=Fraction(30, 7), seed=1),
    ModelParams(n=50, p=Fraction(7, 10), a1=1.0, a2=2.0, seed=1),
], ids=["numpy-floats", "ints", "float32", "fraction-a", "fraction-p"])
def test_header_of_any_real_params_round_trips(params, tmp_path):
    # p, a1 and a2 are stored, grown with and written as the Python float they are read back as
    graph = generate(params)
    assert_same_graph(graph, generate_naive(params))
    data = graph_io.serialize_graph(graph)
    parsed = graph_io.parse_graph(data)
    assert parsed.params == params
    assert graph_io.serialize_graph(parsed) == data
    path = tmp_path / "g.manifest.json"
    graph_io.write_manifest(str(path), graph, "g.tsv", wall_time_s=0.5)
    written = json.loads(path.read_text())["params"]
    assert ModelParams(**{**written, "norm": Norm(written["norm"])}) == params


def test_positionless_file_gives_the_grown_ball_census(grown):
    # a file without its positions section is refused; its edges alone give the grown census
    data = graph_io.serialize_graph(grown)
    cut = data.index(b"%positions\n")
    with pytest.raises(ParseError, match="no '%positions' line") as info:
        graph_io.parse_graph(data[:cut])
    assert info.value.byte_offset == cut
    edges = np.column_stack([grown.edge_sources(), grown.out_targets])
    built = GrownGraph.from_edges(grown.params, edges)
    assert np.array_equal(stats.ball_census(built, [0.5, 0.5], 0.1),
                          stats.ball_census(grown, [0.5, 0.5], 0.1))


def _drop_position_row(data: bytes, v: int) -> bytes:
    start = data.index(f"\n{v}\t".encode(), data.index(b"%positions")) + 1
    return data[:start] + data[data.index(b"\n", start) + 1:]


@pytest.mark.parametrize("v", [1, 150, 300])
def test_parse_rejects_missing_position_row(grown, v):
    data = graph_io.serialize_graph(grown)
    damaged = _drop_position_row(data, v)
    if v < grown.n:   # the next vertex's row stands where v's belongs
        message = f"position row for vertex {v + 1} where vertex {v}'s belongs"
        offset = data.index(f"\n{v}\t".encode(), data.index(b"%positions")) + 1
    else:             # the section ends before v's row
        message, offset = f"no position row for vertex {v}", len(damaged)
    with pytest.raises(ParseError, match=message) as info:
        graph_io.parse_graph(damaged)
    assert info.value.byte_offset == offset


def test_parse_rejects_empty_positions_section(grown):
    data = graph_io.serialize_graph(grown)
    data = data[: data.index(b"%positions\n") + len(b"%positions\n")]
    with pytest.raises(ParseError, match="no position row for vertex 1"):
        graph_io.parse_graph(data)


def test_parse_rejects_duplicate_position_row(grown):
    data = graph_io.serialize_graph(grown)
    row = data[data.index(b"\n7\t", data.index(b"%positions")) + 1:]
    row = row[: row.index(b"\n") + 1]
    damaged = data + row
    with pytest.raises(ParseError, match="position row for vertex 7 after vertex n = 300") as info:
        graph_io.parse_graph(damaged)
    assert info.value.byte_offset == len(data)


def test_parse_rejects_swapped_position_rows(grown):
    data = graph_io.serialize_graph(grown)
    first = data.index(b"\n41\t", data.index(b"%positions")) + 1
    second = data.index(b"\n", first) + 1
    end = data.index(b"\n", second) + 1
    damaged = data[:first] + data[second:end] + data[first:second] + data[end:]
    with pytest.raises(ParseError, match="position row for vertex 42 where vertex 41's belongs") \
            as info:
        graph_io.parse_graph(damaged)
    assert info.value.byte_offset == first


def test_parse_rejects_trajectories_section(grown):
    data = graph_io.serialize_graph(grown)
    damaged = data + b"%trajectories\n1\t2\t1\n"
    with pytest.raises(ParseError, match="unknown section marker '%trajectories'") as info:
        graph_io.parse_graph(damaged)
    assert info.value.byte_offset == len(data)


def test_parse_rejects_sections_out_of_the_layout(grown):
    data = graph_io.serialize_graph(grown)
    edges, positions = data.index(b"%edges\n"), data.index(b"%positions\n")
    marker = len(b"%edges\n")
    out_of_order = "section marker '%positions' where '%edges' belongs"
    for damaged, offset, message in [
        (data[:edges] + data[positions:] + data[edges:positions], edges, out_of_order),
        (data[:edges], edges, "no '%edges' line: the file is cut short"),   # header only
        (data[:edges] + data[edges + marker:], positions - marker, out_of_order),
        (data[:positions], positions,
         "no '%positions' line: the file is cut short or was written without positions"),
    ]:
        with pytest.raises(ParseError, match=message) as info:
            graph_io.parse_graph(damaged)
        assert info.value.byte_offset == offset


@pytest.mark.parametrize("params", [
    make(1), make(2, seed=3), make(9, seed=1, dimension=1), make(14, seed=2, norm=Norm.L2),
], ids=["n1", "n2", "n9-m1", "n14-l2"])
def test_every_proper_prefix_is_a_parse_error(params):
    data = graph_io.serialize_graph(generate(params))
    for cut in range(len(data)):
        with pytest.raises(ParseError):
            graph_io.parse_graph(data[:cut])


@settings(max_examples=60, deadline=None)
@given(fraction=st.floats(0.0, 1.0, exclude_max=True))
@example(fraction=1 / 3)
def test_a_cut_graph_file_is_a_parse_error(grown, fraction):
    data = graph_io.serialize_graph(grown)
    cut = int(fraction * len(data))
    with pytest.raises(ParseError):
        graph_io.parse_graph(data[:cut])
    # cut at the line break after the point: every section before it is whole
    line_end = data.index(b"\n", cut) + 1
    if line_end < len(data):
        with pytest.raises(ParseError):
            graph_io.parse_graph(data[:line_end])


def test_parse_rejects_duplicate_header_key(grown):
    data = graph_io.serialize_graph(grown)
    damaged = data.replace(b"p=0.7\n", b"p=0.7\np=0.5\n", 1)
    with pytest.raises(ParseError, match="duplicate key 'p'") as info:
        graph_io.parse_graph(damaged)
    assert info.value.byte_offset == damaged.index(b"p=0.5")


small_graphs = st.builds(
    lambda n, dimension, norm, seed: generate(make(n, seed, dimension=dimension, norm=norm)),
    n=st.integers(1, 120),
    dimension=st.integers(1, 3),
    norm=st.sampled_from(list(Norm)),
    seed=st.integers(0, 2 ** 64 - 1),
)


@settings(max_examples=30, deadline=None)
@given(graph=small_graphs, suffix=st.sampled_from([".tsv", ".tsv.gz"]),
       batch=st.sampled_from([1, 2, 3, 1 << 13]))
def test_round_trip_property(graph, suffix, batch):
    data = graph_io.serialize_graph(graph)
    with tempfile.TemporaryDirectory() as directory, \
            mock.patch.object(graph_io, "_BATCH", batch):
        # rows split across batches, down to one row a batch, give the same bytes
        assert graph_io.serialize_graph(graph) == data
        assert graph_io.serialize_graph(graph_io.parse_graph(data)) == data
        path = os.path.join(directory, "g" + suffix)
        graph_io.write_graph(graph, path)
        first = Path(path).read_bytes()
        assert graph_io.serialize_graph(graph_io.read_graph(path)) == data
        graph_io.write_graph(graph_io.read_graph(path), path)
        assert Path(path).read_bytes() == first


def _edge_lines(data: bytes) -> tuple[int, int, list[bytes]]:
    """Start and end of the edge section, and its lines without their newlines."""
    start = data.index(b"%edges\n") + len(b"%edges\n")
    end = data.index(b"%positions\n")
    return start, end, data[start:end].splitlines()


@settings(max_examples=60, deadline=None)
@given(
    graph=small_graphs,
    damage=st.sampled_from(
        ["space", "third field", "non-integer", "out of order", "repeated", "target >= source"]
    ),
    pick=st.integers(0, 10 ** 6),
)
def test_damaged_edge_line_raises_at_its_offset(graph, damage, pick):
    data = graph_io.serialize_graph(graph)
    start, end, lines = _edge_lines(data)
    assume(len(lines) >= 2)
    i = pick % (len(lines) - 1)
    source, target = lines[i].split(b"\t")
    if damage == "space":
        lines[i] = source + b" " + target
    elif damage == "third field":
        lines[i] += b"\t" + target
    elif damage == "non-integer":
        lines[i] = source + b"\t" + target + b".5"
    elif damage == "target >= source":
        lines[i] = source + b"\t" + str(int(source) + pick % 3).encode()
    elif damage == "repeated":
        lines[i + 1] = lines[i]
        i += 1
    else:
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
        i += 1   # the first edge smaller than the one before it
    damaged = data[:start] + b"".join(line + b"\n" for line in lines) + data[end:]
    with pytest.raises(ParseError) as info:
        graph_io.parse_graph(damaged)
    assert info.value.byte_offset == start + sum(len(line) + 1 for line in lines[:i])


@settings(max_examples=60, deadline=None)
@given(
    graph=small_graphs,
    section=st.sampled_from(["edges", "positions"]),
    damage=st.sampled_from(
        ["bad field", "extra field", "missing field", "blank line", "carriage return"]
    ),
    pick=st.integers(0, 10 ** 6),
)
def test_one_damaged_line_is_named_at_its_own_offset(graph, section, damage, pick):
    # the line's own offset and text, with numpy's message for that line alone
    data = graph_io.serialize_graph(graph)
    start = data.index(f"%{section}\n".encode()) + len(section) + 2
    end = data.index(b"%positions\n") if section == "edges" else len(data)
    lines = data[start:end].split(b"\n")[:-1]
    assume(lines)
    i = pick % len(lines)
    fields = lines[i].split(b"\t")
    if damage == "bad field":
        fields[pick % len(fields)] = b"x"
        lines[i] = b"\t".join(fields)
    elif damage == "extra field":
        lines[i] += b"\t" + fields[-1]
    elif damage == "missing field":
        lines[i] = b"\t".join(fields[:-1])
    elif damage == "blank line":
        lines.insert(i, b"")
    else:
        lines[i] += b"\r"
    damaged = data[:start] + b"".join(line + b"\n" for line in lines) + data[end:]
    quoted = re.escape(repr(lines[i].decode()))
    with pytest.raises(ParseError, match=f"^bad {section} line {quoted}: [^(]+ \\(byte offset"
                       ) as info:
        graph_io.parse_graph(damaged)
    assert info.value.byte_offset == start + sum(len(line) + 1 for line in lines[:i])


def _parse_peak(data: bytes) -> tuple[int, ParseError | None]:
    """Peak bytes traced while parsing `data`, and the ParseError it raised, if any."""
    tracemalloc.start()
    try:
        graph_io.parse_graph(data)
        error = None
    except ParseError as exc:
        error = exc
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak, error


def test_naming_a_bad_line_takes_no_more_memory_than_parsing_the_file():
    # the bisection parses the file's own bytes in place: no copy or list of its lines
    data = graph_io.serialize_graph(generate(make(3000, seed=0)))
    intact, error = _parse_peak(data)
    assert error is None
    positions = data.index(b"%positions\n")
    last_row = data.rindex(b"\n", 0, len(data) - 1) + 1
    for damaged, offset in [
        (data[:positions] + b"1\t2\t3\n" + data[positions:], positions),   # the last edge line
        (data[:-1] + b"\t0.5\n", last_row),                              # the last position row
    ]:
        peak, error = _parse_peak(damaged)
        assert error is not None and error.byte_offset == offset
        assert peak <= intact


@pytest.fixture(scope="module")
def large_file():
    return graph_io.serialize_graph(generate(make(3000, seed=0)))


def _swap_lines(data: bytes, first: int) -> bytes:
    """`data` with the line starting at `first` and the line after it swapped."""
    second = data.index(b"\n", first) + 1
    end = data.index(b"\n", second) + 1
    return data[:first] + data[second:end] + data[first:second] + data[end:]


@pytest.mark.parametrize("damage", ["edge out of order", "position row out of place",
                                    "coordinate outside [0, 1)"])
def test_a_check_failing_near_the_end_of_a_large_section_names_its_line(large_file, damage):
    # rows that parse but fail a whole-array check, thousands of lines into their section
    data, n = large_file, 3000
    positions = data.index(b"%positions\n")
    last_edge = data.rindex(b"\n", 0, positions - 1) + 1
    last_row = data.rindex(b"\n", 0, len(data) - 1) + 1
    second_last_row = data.rindex(b"\n", 0, last_row - 1) + 1
    if damage == "edge out of order":
        second_last_edge = data.rindex(b"\n", 0, last_edge - 1) + 1
        damaged = _swap_lines(data, second_last_edge)
        offset = second_last_edge + (positions - last_edge)   # where the smaller edge lands
        message = "inconsistent edge list: edge .* out of generation order"
    elif damage == "position row out of place":
        damaged, offset = _swap_lines(data, second_last_row), second_last_row
        message = f"position row for vertex {n} where vertex {n - 1}'s belongs"
    else:
        vertex, rest = data[last_row:].split(b"\t", 1)
        damaged = data[:last_row] + vertex + b"\t1.0\t" + rest.split(b"\t", 1)[1]
        offset, message = last_row, f"position of vertex {n} outside \\[0, 1\\)"
    assert data.count(b"\n", 0, offset) > 2 * n   # far past the first lines
    with pytest.raises(ParseError, match=message) as info:
        graph_io.parse_graph(damaged)
    assert info.value.byte_offset == offset


@settings(max_examples=60, deadline=None)
@given(lines=st.lists(st.binary(max_size=5).filter(lambda b: b"\n" not in b), max_size=40),
       head=st.binary(max_size=5).filter(lambda b: b"\n" not in b), data=st.data())
def test_line_offset_equals_a_scan_of_the_lines(lines, head, data):
    text = head + b"\n" + b"".join(line + b"\n" for line in lines)
    start = len(head) + 1
    row = data.draw(st.integers(0, max(len(lines) - 1, 0)))
    assert graph_io._line_offset(text, start, row) == start + sum(len(x) + 1 for x in lines[:row])


@pytest.mark.parametrize("damage,message", [
    ("blank line", "bad edges line ''"),
    ("trailing blank line", "bad positions line ''"),
    ("carriage return", "carriage return"),
    ("repeated marker", "repeated section marker '%edges'"),
])
def test_parse_rejects_blank_lines_and_repeated_markers(grown, damage, message):
    data = graph_io.serialize_graph(grown)
    at = data.index(b"\n", data.index(b"%edges\n") + 7) + 1   # the second edge line
    if damage == "blank line":
        damaged = data[:at] + b"\n" + data[at:]
    elif damage == "trailing blank line":
        damaged, at = data + b"\n", len(data)
    elif damage == "carriage return":
        damaged = data[:at - 1] + b"\r" + data[at - 1:]
        at = data.index(b"%edges\n") + 7
    else:
        damaged, at = data + b"%edges\n", len(data)
    with pytest.raises(ParseError, match=message) as info:
        graph_io.parse_graph(damaged)
    assert info.value.byte_offset == at
