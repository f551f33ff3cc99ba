"""Round-trip a graph through its file format and drive the CLI in-process.

Graph files are plain text (gzip optional), deterministic down to the
byte, and each one ships with a JSON manifest sufficient to regenerate it.
The same operations are scriptable through the `spa-model` command.
"""

import os
import tempfile

from spagraph import ModelParams, generate
from spagraph.cli import main
from spagraph.graph_io import read_graph, write_graph, write_manifest

with tempfile.TemporaryDirectory(prefix="spa-demo-") as workdir:
    params = ModelParams(n=2000, p=0.5, a1=1.0, a2=10.0, seed=99)
    graph = generate(params)

    path = os.path.join(workdir, "demo.tsv.gz")
    write_graph(graph, path)
    write_manifest(path + ".manifest.json", graph, "demo.tsv.gz", wall_time_s=0.0)
    print(f"wrote {path} ({os.path.getsize(path)} bytes gzipped)")

    again = read_graph(path)
    print("parsed back:", again.n, "vertices,", again.num_edges, "edges")
    write_graph(again, path)
    print("re-serialized byte count unchanged:", os.path.getsize(path))

    # the CLI drives the same library: generate two replicas, then report stats
    out = os.path.join(workdir, "cli")
    code = main(["generate", "--n", "2000", "--p", "0.5", "--a1", "1.0",
                 "--a2", "10.0", "--seed", "1", "--replicas", "2", "--out", out])
    print("cli generate exit code:", code)
    graphs = sorted(os.path.join(out, f) for f in os.listdir(out) if f.endswith(".tsv"))
    code = main(["stats", *graphs, "--out", out, "--d-min", "5"])
    print("cli stats exit code:", code)
    print("reports written:", sorted(f for f in os.listdir(out) if f.endswith(".csv")))
