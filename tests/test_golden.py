"""Golden digests: the reproducibility contract checked against fixed bytes.

Each case pins the SHA-256 of `serialize_graph(generate(params))`. The
digests were computed once and must never change: any change to the
streams, the membership predicate, the generator or the file format that
alters a single byte of output fails here, even if both generators still
agree with each other. The same digests must also come out with every
optional SIMD kernel numpy could dispatch switched off, so no graph byte
depends on the CPU.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

try:
    from numpy._core import _multiarray_umath
except ImportError:   # numpy < 2
    from numpy.core import _multiarray_umath

from spagraph.generator import ModelParams, generate
from spagraph.geometry import Norm
from spagraph.graph_io import serialize_graph

CASES = [
    (dict(n=2000, p=0.7, a1=1.0, a2=30 / 7, dimension=2, norm=Norm.LINF, seed=0),
     "97c19ca27e8e428de193efc461b7844c8d6da5226eb199dc7ec45bc24f709a50"),
    (dict(n=1500, p=0.7, a1=1.0, a2=30 / 7, dimension=2, norm=Norm.L2, seed=1),
     "900c69baf6e7bd2b7b03ef6e5038943648a62466fa7d58a489750d2470873a62"),
    (dict(n=1000, p=0.1, a1=1.0, a2=90.0, dimension=1, norm=Norm.LINF, seed=2),
     "c6d5eba930ff8c5c5be24797a34de3d88615d69ae6b763ec7b3670164729591c"),
    (dict(n=1000, p=0.1, a1=2.0, a2=9.0, dimension=1, norm=Norm.L2, seed=3),
     "1983447133b910c23d8f6de70f94425f9ef5a9cfe6469fef92f550001cd8514c"),
    (dict(n=1200, p=0.7, a1=1.0, a2=30 / 7, dimension=3, norm=Norm.LINF, seed=4),
     "3031adaa8c1d3959621b6a5bc80166c80c92841e9f4ba52db625a4ad6990234b"),
    (dict(n=1000, p=1.0, a1=0.5, a2=2.0, dimension=3, norm=Norm.L2, seed=5),
     "a60ff57108bdbb78680bb2b0ab4e241e99bb30102baf7ba89cd4f0c10aa68c8e"),
    (dict(n=2000, p=1.0, a1=0.9, a2=1.0, dimension=2, norm=Norm.LINF, seed=6),
     "d15d662aa7de17715f21da6fb4876d29b7147160890d9f09b2b07aa22cae962e"),
    # a2 >= t - 1 up to step 41: every sphere's volume is capped at 1 there
    (dict(n=600, p=0.3, a1=1.5, a2=40.0, dimension=2, norm=Norm.L2, seed=7),
     "8e619673f8d7079f24e09de78b37c5e164e241b4dc31065edb06a7c7f01d1491"),
]


@pytest.mark.parametrize("kwargs, digest", CASES)
def test_serialized_graph_digest(kwargs, digest):
    graph = generate(ModelParams(**kwargs))
    assert hashlib.sha256(serialize_graph(graph)).hexdigest() == digest


def test_digests_without_simd_dispatch():
    dispatch = _multiarray_umath.__cpu_dispatch__
    if not dispatch:
        # numpy refuses to disable a feature it does not dispatch
        pytest.skip("this numpy build dispatches no optional CPU features")
    tests = pathlib.Path(__file__).resolve().parent
    script = (
        "import hashlib\n"
        "from test_golden import CASES, ModelParams, generate, serialize_graph\n"
        "for kwargs, _ in CASES:\n"
        "    print(hashlib.sha256(serialize_graph(generate(ModelParams(**kwargs)))).hexdigest())\n"
    )
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(dispatch),
           "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [digest for _, digest in CASES]
