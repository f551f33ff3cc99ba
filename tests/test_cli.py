import csv
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spagraph import cli
from spagraph.cli import main
from spagraph.clustering import compute_report
from spagraph.errors import ParameterError
from spagraph.generator import GrownGraph, ModelParams, generate
from spagraph.graph_io import read_graph, write_graph

ARGS = ["--n", "400", "--p", "0.7", "--a1", "1.0", "--a2", "4.285714285714286"]


def run(argv):
    return main(argv)


def test_generate_writes_graph_and_manifest(tmp_path):
    out = str(tmp_path)
    assert run(["generate", *ARGS, "--seed", "3", "--out", out]) == 0
    files = sorted(os.listdir(out))
    assert files == ["spa_n400_p0.7_seed3.manifest.json", "spa_n400_p0.7_seed3.tsv"]


def test_generate_deterministic(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    run(["generate", *ARGS, "--seed", "3", "--out", a])
    run(["generate", *ARGS, "--seed", "3", "--out", b])
    name = "spa_n400_p0.7_seed3.tsv"
    assert Path(os.path.join(a, name)).read_bytes() == Path(os.path.join(b, name)).read_bytes()


def test_generate_replicas_distinct_seeds(tmp_path):
    out = str(tmp_path)
    assert run(["generate", *ARGS, "--seed", "10", "--replicas", "3", "--out", out]) == 0
    graphs = [f for f in os.listdir(out) if f.endswith(".tsv")]
    assert len(graphs) == 3
    assert {f.split("seed")[1].split(".")[0] for f in graphs} == {"10", "11", "12"}


def test_generate_rejects_duplicate_seeds(tmp_path, capsys):
    code = run(["generate", *ARGS, "--seeds", "5,5", "--out", str(tmp_path)])
    assert code == 1
    assert "distinct" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["verify", "--n", "50", "--replicas", "0"], "replicas must be >= 1"),
    (["generate", *ARGS, "--replicas", "0"], "replicas must be >= 1"),
    (["sweep", "--p-list", "0.5", "--n", "50", "--replicas", "0"], "replicas must be >= 1"),
    (["verify", "--n", "50", "--seeds", "3,3"], "distinct"),
    (["generate", *ARGS, "--seeds", "3,x"], "comma-separated integers"),
    (["generate", *ARGS, "--seeds", ""], "comma-separated integers"),
    (["verify", "--n", "50", "--seeds", ""], "comma-separated integers"),
    (["sweep", "--p-list", ",", "--n", "50"], "names no p value"),
    (["sweep", "--p-list", "0.5,abc", "--n", "50"], "must be numbers"),
    (["sweep", "--p-list", "0.5,1.5", "--n", "50"], "must be in (0, 1)"),
    (["sweep", "--p-list", "0.5,1", "--n", "50"], "must be in (0, 1)"),
    (["generate", *ARGS, "--a1", "nan"], "a1 and a2 must be finite"),
    (["generate", *ARGS, "--a2", "nan"], "a1 and a2 must be finite"),
    (["generate", *ARGS, "--a2", "inf"], "a1 and a2 must be finite"),
], ids=["verify", "generate", "sweep", "verify-seeds", "generate-bad-seeds",
        "generate-empty-seeds", "verify-empty-seeds", "sweep-no-p",
        "sweep-p-not-a-number", "sweep-p-above-1", "sweep-p-1",
        "generate-a1-nan", "generate-a2-nan", "generate-a2-inf"])
def test_no_runs_or_repeated_seeds_exit_1(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["generate", *ARGS, "--seeds", "3,4", "--replicas", "5"],
    ["generate", *ARGS, "--replicas", "1", "--seeds", "3"],
    ["verify", "--n", "50", "--seeds", "3,4", "--replicas", "5"],
    ["verify", "--n", "50", "--replicas", "1", "--seeds", "3"],
], ids=["generate", "generate-default-count", "verify", "verify-default-count"])
def test_seeds_with_replicas_exit_1(tmp_path, monkeypatch, capsys, argv):
    # an explicit --replicas, even the default count, is not overridden silently
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    assert capsys.readouterr().err == "error: give --seeds or --replicas, not both\n"
    assert os.listdir(tmp_path) == []


def test_sweep_rejects_a_repeated_p_before_growing(tmp_path, monkeypatch, capsys):
    grown = []
    monkeypatch.setattr(cli, "generate_many", lambda models: grown.append(models) or iter(()))
    monkeypatch.chdir(tmp_path)
    assert run(["sweep", "--p-list", "0.3,0.5,0.50", "--n", "200"]) == 1
    assert capsys.readouterr().err == "error: --p-list repeats p = 0.5\n"
    assert grown == [] and os.listdir(tmp_path) == []


def test_invalid_params_exit_code_1(tmp_path, capsys):
    code = run(["generate", "--n", "10", "--p", "0.9", "--a1", "2.0", "--out", str(tmp_path)])
    assert code == 1
    assert "p*a1" in capsys.readouterr().err
    # a dimension whose unit ball overflows a float, in every command that grows a graph
    out = str(tmp_path / "out")
    for argv in (["generate", "--n", "3", "--dim", "342", "--norm", "l2", "--out", out],
                 ["verify", "--n", "3", "--dim", "342", "--norm", "l2"],
                 ["generate", "--n", "3", "--dim", "1024", "--out", out],
                 ["verify", "--n", "3", "--dim", "1024"],
                 ["sweep", "--n", "3", "--dim", "1100", "--p-list", "0.5", "--out", out]):
        assert run(argv) == 1
        assert "is too large" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
    # the largest dimension of each norm grows, verifies and reports
    for dim, norm in (("341", "l2"), ("1023", "linf")):
        model = ["--n", "3", "--dim", dim, "--norm", norm]
        assert run(["generate", *model, "--out", out]) == 0
        assert run(["verify", *model]) == 0
        assert run(["stats", os.path.join(out, "spa_n3_p0.7_seed0.tsv"), "--out", out]) == 0


def test_unreadable_graph_exit_code_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.tsv")
    assert run(["stats", missing, "--out", str(tmp_path)]) == 2


def test_corrupt_graph_exit_code_2(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("%spa-graph v1\np=0.7\n%edges\nall wrong\n")
    assert run(["stats", str(bad), "--out", str(tmp_path)]) == 2
    assert "byte offset" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["truncated", "corrupt deflate", "bad crc"])
def test_damaged_gzip_graph_exit_code_2(tmp_path, capsys, damage):
    path = str(tmp_path / "g.tsv.gz")
    write_graph(generate(ModelParams(n=200, p=0.7, a1=1.0, a2=30 / 7)), path)
    data = bytearray(Path(path).read_bytes())
    if damage == "truncated":
        del data[len(data) // 2:]
    elif damage == "corrupt deflate":
        data[10] |= 0b110   # the first block's type becomes the reserved 11
    else:
        data[-8] ^= 0xFF    # the stored CRC-32
    Path(path).write_bytes(bytes(data))
    assert run(["stats", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and "Traceback" not in err
    if damage != "bad crc":
        assert f"damaged gzip stream in {path}" in err


def test_stats_emits_all_reports(tmp_path):
    out = str(tmp_path)
    run(["generate", *ARGS, "--seed", "3", "--out", out])
    graph = os.path.join(out, "spa_n400_p0.7_seed3.tsv")
    reports = str(tmp_path / "reports")
    assert run(["stats", graph, "--out", reports, "--d-min", "3"]) == 0
    names = sorted(os.listdir(reports))
    stem = "spa_n400_p0.7_seed3"
    assert names == [
        f"census_{stem}.csv",
        "curves_pooled.csv",
        f"curves_{stem}.csv",
        f"exponent_{stem}.csv",
        f"scatter_{stem}.csv",
        f"trajectories_{stem}.csv",
    ]
    with open(os.path.join(reports, f"curves_{stem}.csv")) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["variant", "d", "count", "mean_c"]
    variants = {row[0] for row in rows[1:]}
    assert {"directed", "undirected", "old", "new", "directed_band"} <= variants
    # scatter values are written as the repr of each exact coefficient
    report = compute_report(read_graph(graph))
    with open(os.path.join(reports, f"scatter_{stem}.csv")) as handle:
        scatter = [row for row in csv.reader(handle) if row[0] in ("directed", "undirected")]
    assert scatter == [
        [variant, str(degree), repr(value)]
        for variant in ("directed", "undirected")
        for degree, value in zip(report.variant(variant).degree.tolist(),
                                 report.variant(variant).values.tolist())
    ]


# sha256 of each CSV of `stats --d-min 3 --top 400` on the n = 400 seed-3 graph; 324 of
# its trajectory rows are vacuous and write nan, which the benchmark's seed-0 pins never reach.
# The curves and trajectories pins hold where numpy dispatches AVX-512 `power`: the band
# centers and trajectory ratios round differently under its baseline `power` (see README)
N400_STATS_DIGESTS = {
    "census_{stem}.csv": "5df1760d84e4655b27e40c864effa42674b9cf55fd5669387d8ef54dfb712c16",
    "curves_pooled.csv": "0fbfed68e1bd19992c51324557a88284ccd65dace25263cab1b3277f16b448a9",
    "curves_{stem}.csv": "22488504077048c8af067e571d1789fd8db5186664f4a9fab1186cf73a09ebda",
    "exponent_{stem}.csv": "8eba6a6129cae07643c504f857aad1cdceeb9cf5c55fa7ea68acb0bb41fb2a59",
    "scatter_{stem}.csv": "20c7c906e934a7234831bde25ee67c0f4c1134d91b2aac22194604e5cb19c310",
    "trajectories_{stem}.csv": "3924dd324b7f8dde35bf90f888b7b9d3fc0f828d4a269dfcfd00647047b61bca",
}


def test_stats_digests_with_vacuous_trajectories(tmp_path):
    out = str(tmp_path)
    run(["generate", *ARGS, "--seed", "3", "--out", out])
    stem = "spa_n400_p0.7_seed3"
    reports = tmp_path / "reports"
    graph = os.path.join(out, f"{stem}.tsv")
    assert run(["stats", graph, "--out", str(reports), "--d-min", "3", "--top", "400"]) == 0
    trajectories = (reports / f"trajectories_{stem}.csv").read_text().splitlines()
    assert sum(line.endswith(",nan,nan,nan,1") for line in trajectories) == 324
    digests = {
        name: hashlib.sha256((reports / name.format(stem=stem)).read_bytes()).hexdigest()
        for name in N400_STATS_DIGESTS
    }
    assert digests == N400_STATS_DIGESTS


def test_failed_exponent_fit_replaces_an_earlier_exponent_file(tmp_path):
    out = str(tmp_path)
    run(["generate", *ARGS, "--seed", "3", "--out", out])
    stem = "spa_n400_p0.7_seed3"
    graph, reports = os.path.join(out, f"{stem}.tsv"), str(tmp_path / "reports")
    exponent = tmp_path / "reports" / f"exponent_{stem}.csv"
    header = b"d_min,tail_count,estimate,stderr,ls_slope,theory_gamma\n"
    assert run(["stats", graph, "--out", reports, "--d-min", "3"]) == 0
    assert exponent.read_bytes().startswith(header + b"3,")
    # fewer than 100 vertices reach in-degree 50, so this run fits no exponent
    assert run(["stats", graph, "--out", reports, "--d-min", "50"]) == 0
    assert exponent.read_bytes() == header


def test_stats_pooled_curve_merges_replicas(tmp_path):
    out = str(tmp_path)
    run(["generate", *ARGS, "--seed", "1", "--replicas", "2", "--out", out])
    graphs = sorted(
        os.path.join(out, f) for f in os.listdir(out) if f.endswith(".tsv")
    )
    reports = str(tmp_path / "r")
    assert run(["stats", *graphs, "--out", reports, "--d-min", "3"]) == 0
    with open(os.path.join(reports, "curves_pooled.csv")) as handle:
        pooled = {
            (row["variant"], row["d"]): (int(row["count"]), float(row["mean_c"]))
            for row in csv.DictReader(handle)
        }
    singles = []
    for graph in graphs:
        stem = os.path.splitext(os.path.basename(graph))[0]
        with open(os.path.join(reports, f"curves_{stem}.csv")) as handle:
            singles.append({
                (row["variant"], row["d"]): (int(row["count"]), float(row["mean_c"]))
                for row in csv.DictReader(handle)
            })
    key = ("directed", "2")
    count = sum(s[key][0] for s in singles if key in s)
    weighted = sum(s[key][0] * s[key][1] for s in singles if key in s)
    assert pooled[key][0] == count
    assert pooled[key][1] == pytest.approx(weighted / count, rel=1e-12)


def test_stats_handcrafted_values(tmp_path):
    # hub vertex 1: in-neighbors {2,3,4,5}, edges (3,2),(4,2),(5,4) among
    # them -> c = 3/6; vertex 2: in-neighbors {3,4}, no edge -> c = 0
    params = ModelParams(n=7, p=0.7, a1=1.0, a2=30 / 7, seed=0)
    edges = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 4), (6, 5), (7, 6)]
    path = str(tmp_path / "hand.tsv")
    write_graph(GrownGraph.from_edges(params, edges), path)
    out = str(tmp_path / "r")
    assert run(["stats", path, "--out", out, "--top", "2"]) == 0
    with open(os.path.join(out, "curves_hand.csv")) as handle:
        curve = {
            (row["variant"], row["d"]): (row["count"], row["mean_c"])
            for row in csv.DictReader(handle)
        }
    assert curve[("directed", "4")] == ("1", "0.5")
    assert curve[("directed", "2")] == ("1", "0.0")
    with open(os.path.join(out, "census_hand.csv")) as handle:
        census = {row["degree"]: row["count"] for row in csv.DictReader(handle)}
    assert census == {"0": "2", "1": "3", "2": "1", "4": "1"}


def test_verify_command_pass(capsys):
    assert run(["verify", "--n", "300", "--seed", "2", "--replicas", "2"]) == 0
    assert "ok" in capsys.readouterr().out


def test_sweep_formula_and_output(tmp_path):
    out = str(tmp_path)
    assert run([
        "sweep", "--p-list", "0.5", "--n", "300", "--replicas", "2", "--out", out,
    ]) == 0
    with open(os.path.join(out, "sweep.csv")) as handle:
        rows = list(csv.DictReader(handle))
    assert {row["variant"] for row in rows} == {"directed", "undirected"}
    assert all(row["p"] == "0.5" for row in rows)


def test_multi_p_sweep_digest(tmp_path):
    # pinned before the p values shared one walk: row order and replica pooling stay put
    out = str(tmp_path)
    assert run([
        "sweep", "--p-list", "0.1,0.5,0.9", "--n", "300", "--replicas", "2", "--out", out,
    ]) == 0
    with open(os.path.join(out, "sweep.csv"), "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    assert digest == "301a66b56d4dffb7f4557590d2c1b3300ae6b06745e26873cd8ae19c93d6695e"


def test_generate_from_config_file(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("n=200\np=0.6\na1=1.0\na2=5.0\nseed=4\nreplicas=2\noutput_dir=.\n")
    out = str(tmp_path / "out")
    assert run(["generate", "--config", str(config), "--out", out]) == 0
    graphs = [f for f in os.listdir(out) if f.endswith(".tsv")]
    assert len(graphs) == 2


def test_generate_config_output_dir_used_without_out_flag(tmp_path, monkeypatch):
    target = tmp_path / "from-config"
    config = tmp_path / "run.cfg"
    config.write_text(f"n=50\na2=1.0\nseed=2\noutput_dir={target}\n")
    monkeypatch.chdir(tmp_path)
    assert run(["generate", "--config", str(config)]) == 0
    assert any(f.endswith(".tsv") for f in os.listdir(target))


def test_config_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    for line in ("bogus=1", "split=half", "omega=2.0", "delta=0.2"):
        config.write_text(f"n=50\na2=1.0\n{line}\n")
        assert run(["generate", "--config", str(config), "--out", str(tmp_path)]) == 1
        key = line.split("=")[0]
        assert f"unknown key {key!r}" in capsys.readouterr().err


def test_config_file_round_trip(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text("""
    # campaign settings
    n=1500
    p=0.5
    a1=1.0
    a2=10.0
    dimension=2
    norm=linf
    seed=7
    replicas=3
    output_dir=out
    """)
    assert run(["generate", "--config", str(config)]) == 0
    names = sorted(f for f in os.listdir(tmp_path / "out") if f.endswith(".tsv"))
    assert names == [f"spa_n1500_p0.5_seed{s}.tsv" for s in (7, 8, 9)]
    path = tmp_path / "out" / names[0]
    graph = read_graph(str(path))
    assert graph.params == ModelParams(n=1500, p=0.5, a1=1.0, a2=10.0, seed=7)
    assert np.array_equal(graph.positions[1:], generate(graph.params).positions[1:])


def _config_run(tmp_path, monkeypatch, text):
    """Exit code and the models `generate --config` would grow, without growing them."""
    config = tmp_path / "run.cfg"
    config.write_text(text)
    grown = []
    monkeypatch.setattr(cli, "_generate_one", lambda task: grown.append(task) or task[1])
    monkeypatch.chdir(tmp_path)
    return run(["generate", "--config", str(config)]), grown


def test_config_explicit_seeds_and_validation(tmp_path, monkeypatch, capsys):
    code, grown = _config_run(tmp_path, monkeypatch, "n=10\nseeds=4,5,6\na2=1.0")
    assert code == 0 and [params.seed for params, _ in grown] == [4, 5, 6]
    for text, message in [
        ("n=10\nseeds=4,5,6\nreplicas=3\na2=1.0", "give --seeds or --replicas, not both"),
        ("n=10\nseeds=4,4\na2=1.0", "pairwise distinct"),
        ("n=10\ndelta=0.7\na2=1.0", "line 2: unknown key 'delta'"),
        ("n=10\nreplicas=0\na2=1.0", "replicas must be >= 1"),
        ("n=10\nbroken line\na2=1.0", "line 2 is not key=value"),
        ("n=10\nseeds=\na2=1.0", "comma-separated integers"),
        ("n=100\na2=1.0\nn=200", "line 3: repeated key 'n'"),
    ]:
        code, grown = _config_run(tmp_path, monkeypatch, text)
        assert (code, grown) == (1, [])
        assert message in capsys.readouterr().err


def test_command_line_flags_override_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text("n=50\na2=1.0\nseed=2\n")
    argv = ["generate", "--config", str(config), "--n", "999", "--seed", "5"]
    assert run(argv) == 0
    assert sorted(os.listdir(tmp_path)) == [
        "run.cfg", "spa_n999_p0.7_seed5.manifest.json", "spa_n999_p0.7_seed5.tsv"]
    path = tmp_path / "spa_n999_p0.7_seed5.tsv"
    graph = read_graph(str(path))
    assert graph.params == ModelParams(n=999, p=0.7, a1=1.0, a2=1.0, seed=5)
    assert np.array_equal(graph.positions[1:], generate(graph.params).positions[1:])


def test_config_without_a_key_takes_the_flag_default(tmp_path, monkeypatch):
    code, grown = _config_run(tmp_path, monkeypatch, "seed=3\n")
    assert code == 0
    assert grown == [(ModelParams(n=100_000, p=0.7, a1=1.0, a2=30 / 7, seed=3), ".")]


@pytest.mark.parametrize("value", ["true", "false", "0", "1", "False", "yes", ""])
def test_config_include_positions_is_an_unknown_key(tmp_path, monkeypatch, capsys, value):
    # every graph file holds its positions, so no config line chooses the layout
    code, grown = _config_run(tmp_path, monkeypatch, f"n=10\ninclude_positions={value}\n")
    assert (code, grown) == (1, [])
    assert "config line 2: unknown key 'include_positions'" in capsys.readouterr().err


def test_generate_no_positions_flag_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        run(["generate", *ARGS, "--out", str(tmp_path), "--no-positions"])
    assert info.value.code == 2
    assert "unrecognized arguments: --no-positions" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("key, flag, value", [
    ("n", "--n", "abc"), ("a2", "--a2", "x"), ("dimension", "--dim", "1.5"),
    ("norm", "--norm", "l3"), ("replicas", "--replicas", "two"),
])
def test_bad_config_value_fails_as_its_flag_does(tmp_path, monkeypatch, capsys, key, flag, value):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as from_flag:
        run(["generate", flag, value])
    flag_err = capsys.readouterr().err
    config = tmp_path / "run.cfg"
    config.write_text(f"{key}={value}\n")
    with pytest.raises(SystemExit) as from_file:
        run(["generate", "--config", str(config)])
    assert from_file.value.code == from_flag.value.code == 2
    assert capsys.readouterr().err == flag_err
    assert os.listdir(tmp_path) == ["run.cfg"]


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert run(["generate", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "nope.cfg" in capsys.readouterr().err


def test_non_utf8_config_file_exits_2(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"n=5\xff\n")
    assert run(["generate", "--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "run.cfg is not UTF-8 (byte offset 3)" in err and len(err.splitlines()) == 1
    assert os.listdir(tmp_path) == ["run.cfg"]


@pytest.mark.parametrize("names", [("a/x.tsv", "b/x.tsv"), ("x.tsv", "x.tsv.gz")])
def test_stats_inputs_sharing_a_stem_exit_1_and_write_nothing(tmp_path, capsys, names):
    graph = GrownGraph.from_edges(ModelParams(n=3, p=0.5, a1=1.0, a2=1.0), [(2, 1), (3, 1)])
    paths = []
    for name in names:
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        write_graph(graph, str(path))
        paths.append(str(path))
    out = tmp_path / "reports"
    assert run(["stats", *paths, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert paths[0] in err and paths[1] in err
    assert not out.exists()


def test_parallel_replicas_match_sequential(tmp_path, monkeypatch):
    seq, par = str(tmp_path / "seq"), str(tmp_path / "par")
    run(["generate", *ARGS, "--seed", "1", "--replicas", "2", "--out", seq])
    monkeypatch.setenv("SPA_JOBS", "2")
    run(["generate", *ARGS, "--seed", "1", "--replicas", "2", "--out", par])
    for name in sorted(os.listdir(seq)):
        if name.endswith(".tsv"):
            with open(os.path.join(seq, name), "rb") as a, \
                 open(os.path.join(par, name), "rb") as b:
                assert a.read() == b.read()


def test_parallel_stats_match_sequential(tmp_path, monkeypatch):
    graphs = str(tmp_path / "graphs")
    run(["generate", *ARGS, "--seed", "1", "--replicas", "2", "--out", graphs])
    paths = sorted(os.path.join(graphs, f) for f in os.listdir(graphs) if f.endswith(".tsv"))
    outputs = {}
    for jobs in ("1", "2"):
        monkeypatch.setenv("SPA_JOBS", jobs)
        out = tmp_path / f"jobs{jobs}"
        assert run(["stats", *paths, "--out", str(out), "--d-min", "3"]) == 0
        outputs[jobs] = {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}
    assert len(outputs["1"]) == 11   # five CSVs per graph plus the pooled curves
    assert outputs["2"] == outputs["1"]


# -- input checks -------------------------------------------------------------


@pytest.mark.parametrize("value", ["abc", "", "0", "-3", "1.5"])
def test_jobs_rejects_bad_values(monkeypatch, value):
    monkeypatch.setenv("SPA_JOBS", value)
    with pytest.raises(ParameterError, match="SPA_JOBS"):
        cli._jobs()


def test_cli_import_leaves_process_pools_unloaded():
    # only SPA_JOBS > 1 needs them, and the import would land in every command's run time
    code = "import sys, spagraph.cli; print('concurrent.futures.process' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"


def test_stats_leaves_numpy_ma_unloaded(tmp_path):
    # a plain np.unique imports numpy.ma, which costs the stats run time and resident memory
    run(["generate", *ARGS, "--seed", "3", "--out", str(tmp_path)])
    graph = str(tmp_path / "spa_n400_p0.7_seed3.tsv")
    argv = ["stats", graph, "--out", str(tmp_path / "reports"), "--d-min", "3"]
    code = (f"import sys, spagraph.cli; spagraph.cli.main({argv!r}); "
            "print('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "False"


def test_jobs_default_and_cap(monkeypatch):
    monkeypatch.delenv("SPA_JOBS", raising=False)
    assert cli._jobs() == 1
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    monkeypatch.setenv("SPA_JOBS", "3")
    assert cli._jobs() == 3
    monkeypatch.setenv("SPA_JOBS", "99999")
    assert cli._jobs() == 4


def test_bad_jobs_value_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SPA_JOBS", "abc")
    assert run(["generate", *ARGS, "--replicas", "2", "--out", str(tmp_path)]) == 1
    assert "SPA_JOBS" in capsys.readouterr().err


def _trajectory_vertices(out, stem):
    with open(os.path.join(out, f"trajectories_{stem}.csv")) as handle:
        return [int(row["vertex"]) for row in csv.DictReader(handle)]


@pytest.mark.parametrize("command", ["stats"])
def test_top_at_least_n_never_selects_slot_zero(tmp_path, command):
    params = ModelParams(n=7, p=0.7, a1=1.0, a2=30 / 7, seed=0)
    edges = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 4), (6, 5), (7, 6)]
    path = str(tmp_path / "hand.tsv")
    write_graph(GrownGraph.from_edges(params, edges), path)
    for top in (7, 8, 50):
        out = str(tmp_path / f"{command}{top}")
        assert run([command, path, "--out", out, "--top", str(top)]) == 0
        chosen = _trajectory_vertices(out, "hand")
        assert sorted(chosen) == list(range(1, 8))
        assert chosen[:2] == [1, 2]


def test_stats_on_one_vertex_graph_is_vacuous(tmp_path):
    out = str(tmp_path)
    assert run(["generate", "--n", "1", "--out", out]) == 0
    reports = str(tmp_path / "reports")
    assert run(["stats", os.path.join(out, "spa_n1_p0.7_seed0.tsv"), "--out", reports]) == 0
    with open(os.path.join(reports, "trajectories_spa_n1_p0.7_seed0.csv")) as handle:
        rows = list(csv.DictReader(handle))
    assert [(row["vertex"], row["final_degree"], row["vacuous"]) for row in rows] == [
        ("1", "0", "1")
    ]


@pytest.mark.parametrize("damage", [
    "missing position row", "duplicate header key",
    "coordinate 1.5", "coordinate -0.1", "coordinate 1.0", "coordinate nan",
    "coordinate inf",
])
def test_damaged_graph_file_exits_2(tmp_path, capsys, damage):
    out = str(tmp_path)
    run(["generate", *ARGS, "--seed", "3", "--out", out])
    path = os.path.join(out, "spa_n400_p0.7_seed3.tsv")
    data = Path(path).read_bytes()
    start = data.index(b"\n17\t", data.index(b"%positions")) + 1
    if damage == "missing position row":
        data = data[:start] + data[data.index(b"\n", start) + 1:]
    elif damage == "duplicate header key":
        data = data.replace(b"p=0.7\n", b"p=0.7\np=0.5\n", 1)
    else:
        coord = start + len(b"17\t")
        value = damage.split()[1].encode()
        data = data[:coord] + value + data[data.index(b"\t", coord):]
    with open(path, "wb") as handle:
        handle.write(data)
    assert run(["stats", path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "byte offset" in err
    if damage.startswith("coordinate"):
        assert f"position of vertex 17 outside [0, 1) (byte offset {start})" in err


@pytest.mark.parametrize("line", [b"+2\t1", b"2 \t 1", b"2\t" + b"1".zfill(19), b"2\t1\r"],
                         ids=["plus sign", "spaces", "19 digits", "carriage return"])
def test_edge_line_out_of_the_writers_form_exits_2(tmp_path, capsys, line):
    out = str(tmp_path)
    run(["generate", *ARGS, "--seed", "3", "--out", out])
    path = os.path.join(out, "spa_n400_p0.7_seed3.tsv")
    data = Path(path).read_bytes()
    start = data.index(b"%edges\n") + len(b"%edges\n")   # the first edge line, 2\t1
    Path(path).write_bytes(data[:start] + line + data[data.index(b"\n", start):])
    reports = tmp_path / "reports"
    assert run(["stats", path, "--out", str(reports)]) == 2
    err = capsys.readouterr().err
    assert f"bad edges line {line.decode()!r}: expected digits TAB digits" in err
    assert f"(byte offset {start})" in err and not reports.exists()


def test_stats_on_a_cut_graph_file_exits_2(tmp_path, capsys):
    out = str(tmp_path)
    run(["generate", *ARGS, "--seed", "3", "--out", out])
    path = os.path.join(out, "spa_n400_p0.7_seed3.tsv")
    data = Path(path).read_bytes()
    # cut at the first line break after a third of the bytes: whole lines, no positions
    cut = data.index(b"\n", len(data) // 3) + 1
    with open(path, "wb") as handle:
        handle.write(data[:cut])
    reports = tmp_path / "reports"
    assert run(["stats", path, "--out", str(reports)]) == 2
    err = capsys.readouterr().err
    assert "no '%positions' line: the file is cut short" in err
    assert f"(byte offset {cut})" in err
    assert not reports.exists()


def test_stats_on_a_40000_degree_hub_reports_its_theory_fraction(tmp_path):
    # the census reads c_i up to i = 40,000, past i = 36,163, where the c_i
    # recurrence and product form first differ by more than 1e-12 relative
    n = 40_001
    params = ModelParams(n=n, p=0.9, a1=1.0, a2=10 / 9)
    star = GrownGraph.from_edges(params, [(s, 1) for s in range(2, n + 1)])
    path = str(tmp_path / "star.tsv")
    write_graph(star, path)
    out = tmp_path / "out"
    assert run(["stats", path, "--out", str(out)]) == 0
    with open(out / "census_star.csv", newline="") as handle:
        rows = {int(row["degree"]): row for row in csv.DictReader(handle)}
    assert int(rows[n - 1]["count"]) == 1 and float(rows[n - 1]["theory_c"]) > 0


@pytest.mark.parametrize("omega", ["-1", "0", "nan", "inf"])
def test_bad_omega_mode_exits_1(tmp_path, capsys, omega):
    out = str(tmp_path)
    run(["generate", *ARGS, "--seed", "3", "--out", out])
    path = os.path.join(out, "spa_n400_p0.7_seed3.tsv")
    assert run(["stats", path, "--out", out, f"--omega-mode={omega}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "omega" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("old,new,message,at", [
    # a bad value is reported at the parameter block, an unknown key at its own line
    (b"a2=4.285714285714286\n", b"a2=nan\n", "bad parameter block: a1 and a2 must be finite",
     b"p=0.7\n"),
    (b"%edges\n", b"foo=bar\n%edges\n", "unknown parameter key 'foo'", b"foo=bar\n"),
    (b"dimension=2\n", b"dimension=1000000000\n",
     "bad parameter block: dimension 1000000000 is too large", b"p=0.7\n"),
], ids=["a2=nan", "unknown key", "dimension=1e9"])
def test_bad_header_parameter_exits_2_and_writes_nothing(tmp_path, capsys, old, new, message, at):
    src = str(tmp_path)
    run(["generate", *ARGS, "--seed", "3", "--out", src])
    path = os.path.join(src, "spa_n400_p0.7_seed3.tsv")
    data = Path(path).read_bytes()
    assert old in data
    data = data.replace(old, new, 1)
    with open(path, "wb") as handle:
        handle.write(data)
    out = tmp_path / "out"
    assert run(["stats", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and f"(byte offset {data.index(at)})" in err
    assert not out.exists()


@pytest.mark.parametrize("bad,message,good", [
    (["--top", "-5"], "--top must be >= 0", ["--top", "0"]),
    (["--delta", "0"], "--delta must be in (0, 1/2)", ["--delta", "0.2"]),
    (["--delta", "0.5"], "--delta must be in (0, 1/2)", ["--delta", "0.49"]),
    (["--delta", "nan"], "--delta must be in (0, 1/2)", ["--delta", "0.1"]),
    (["--d-min", "0"], "--d-min must be >= 1", ["--d-min", "1"]),
    (["--omega-mode=-1"], "omega must be finite and > 0", ["--omega-mode=2.5"]),
    (["--omega-mode=abc"], "--omega-mode must be", ["--omega-mode=logloglog"]),
], ids=["top", "delta=0", "delta=0.5", "delta=nan", "d-min", "omega=-1", "omega=abc"])
def test_bad_stats_flag_exits_1_before_writing(tmp_path, capsys, bad, message, good):
    src = str(tmp_path)
    run(["generate", *ARGS, "--seed", "3", "--out", src])
    path = os.path.join(src, "spa_n400_p0.7_seed3.tsv")
    out = tmp_path / "out"
    assert run(["stats", path, "--out", str(out), *bad]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert run(["stats", path, "--out", str(out), *good]) == 0
    if good == ["--top", "0"]:
        assert _trajectory_vertices(str(out), "spa_n400_p0.7_seed3") == []
