import json
import os
import resource
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spagraph import graph_io, stats
from spagraph.errors import ParseError, UsageError
from spagraph.generator import ModelParams, generate
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
    assert np.array_equal(parsed.out_targets, grown.out_targets)
    assert np.array_equal(parsed.positions[1:], grown.positions[1:])
    assert parsed.params == grown.params


def test_round_trip_gzip(grown, tmp_path):
    path = str(tmp_path / "g.tsv.gz")
    graph_io.write_graph(grown, path)
    first = Path(path).read_bytes()
    parsed = graph_io.read_graph(path)
    graph_io.write_graph(parsed, path)
    assert Path(path).read_bytes() == first


def test_round_trip_without_positions(grown, tmp_path):
    path = str(tmp_path / "g.tsv")
    graph_io.write_graph(grown, path, include_positions=False)
    parsed = graph_io.read_graph(path)
    assert parsed.positions is None
    assert np.array_equal(parsed.out_targets, grown.out_targets)


def test_parse_error_reports_byte_offset(grown, tmp_path):
    path = str(tmp_path / "g.tsv")
    graph_io.write_graph(grown, path, include_positions=False)
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
        graph_io.parse_graph(b"%spa-graph v1\np=0.7\n%edges\n")


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
    params = graph_io.params_from_manifest(manifest_path)
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
    graph_io.write_csv(path, graph_io.CURVE_COLUMNS, [("directed", 2, 10, "0.5")])
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "variant,d,count,mean_c"
    assert lines[1] == "directed,2,10,0.5"


def test_write_csv_streams_rows_and_is_atomic(tmp_path):
    path = str(tmp_path / "rows.csv")
    graph_io.write_csv(path, ("a", "b"), ((i, repr(i / 3)) for i in range(3)))
    assert Path(path).read_bytes() == b"a,b\n0,0.0\n1,0.3333333333333333\n2,0.6666666666666666\n"

    def failing_rows():
        yield (9, "x")
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError):
        graph_io.write_csv(path, ("a", "b"), failing_rows())
    assert sorted(os.listdir(tmp_path)) == ["rows.csv"]
    assert Path(path).read_bytes().startswith(b"a,b\n0,")


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


def test_positionless_graph_rejects_ball_census(grown, tmp_path):
    path = str(tmp_path / "g.tsv")
    graph_io.write_graph(grown, path, include_positions=False)
    parsed = graph_io.read_graph(path)
    with pytest.raises(UsageError, match="positions"):
        stats.ball_census(parsed, [0.5, 0.5], 0.1)


def _drop_position_row(data: bytes, v: int) -> bytes:
    start = data.index(f"\n{v}\t".encode(), data.index(b"%positions")) + 1
    return data[:start] + data[data.index(b"\n", start) + 1:]


@pytest.mark.parametrize("v", [1, 150, 300])
def test_parse_rejects_missing_position_row(grown, v):
    data = graph_io.serialize_graph(grown)
    with pytest.raises(ParseError, match=f"no position row for vertex {v}") as info:
        graph_io.parse_graph(_drop_position_row(data, v))
    assert info.value.byte_offset == data.index(b"%positions")


def test_parse_rejects_empty_positions_section(grown):
    data = graph_io.serialize_graph(grown, include_positions=False) + b"%positions\n"
    with pytest.raises(ParseError, match="no position row for vertex 1"):
        graph_io.parse_graph(data)


def test_parse_rejects_duplicate_position_row(grown):
    data = graph_io.serialize_graph(grown)
    row = data[data.index(b"\n7\t", data.index(b"%positions")) + 1:]
    row = row[: row.index(b"\n") + 1]
    damaged = data + row
    with pytest.raises(ParseError, match="duplicate position row for vertex 7") as info:
        graph_io.parse_graph(damaged)
    assert info.value.byte_offset == len(data)


def test_parse_rejects_trajectories_section(grown):
    data = graph_io.serialize_graph(grown)
    damaged = data + b"%trajectories\n1\t2\t1\n"
    with pytest.raises(ParseError, match="unknown section marker '%trajectories'") as info:
        graph_io.parse_graph(damaged)
    assert info.value.byte_offset == len(data)


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
@given(graph=small_graphs, include_positions=st.booleans(), suffix=st.sampled_from([".tsv", ".tsv.gz"]))
def test_round_trip_property(graph, include_positions, suffix):
    data = graph_io.serialize_graph(graph, include_positions)
    assert graph_io.serialize_graph(graph_io.parse_graph(data), include_positions) == data
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "g" + suffix)
        graph_io.write_graph(graph, path, include_positions)
        first = Path(path).read_bytes()
        graph_io.write_graph(graph_io.read_graph(path), path, include_positions)
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


def test_manifest_params_are_checked_as_a_header_is(grown, tmp_path):
    path = tmp_path / "g.manifest.json"
    graph_io.write_manifest(str(path), grown, "g.tsv", wall_time_s=0.5)
    manifest = json.loads(path.read_text())
    assert list(manifest["params"]) == ["n", "p", "a1", "a2", "dimension", "norm", "seed"]
    for damage, message in [
        ({"foo": "bar"}, "unknown parameter key 'foo'"),
        ({"a2": float("nan")}, "bad parameter block: a1 and a2 must be finite"),
        ({"a1": None}, "bad parameter block"),
        ({"n": 300.5}, "bad parameter block: invalid literal for int"),
        ({"seed": 5.0}, "bad parameter block: invalid literal for int"),
        ({"norm": "l3"}, "bad parameter block: unknown norm"),
    ]:
        path.write_text(json.dumps({**manifest, "params": {**manifest["params"], **damage}}))
        with pytest.raises(ParseError, match=message):
            graph_io.params_from_manifest(str(path))
    del manifest["params"]["seed"]
    path.write_text(json.dumps(manifest))
    with pytest.raises(ParseError, match=r"missing parameter keys \['seed'\]"):
        graph_io.params_from_manifest(str(path))
