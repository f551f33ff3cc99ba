from dataclasses import replace

import pytest

from spagraph import claims
from spagraph.clustering import SplitPolicy, compute_report
from spagraph.errors import UsageError
from spagraph.generator import ModelParams, generate

PARAMS = dict(p=0.7, a1=1.0, a2=30 / 7)


@pytest.fixture(scope="module")
def small():
    return generate(ModelParams(n=50, seed=1, **PARAMS))


def test_a_statistic_that_cannot_be_computed_fails_its_claim(small):
    report = compute_report(small, SplitPolicy(mode="half"))
    for claim, reason in [
        (claims.in_degree_exponent([small]), "need at least 100 vertices with degree >= 10, have 11"),
        (claims.clustering_decay([report]), "need at least 5 usable bins"),
        (claims.trajectory_concentration([small]), "vertex 12 below omega log n"),
    ]:
        assert (claim.statistic, claim.passed) == (None, False)
        assert claim.detail.startswith(reason), claim.detail
    assert claims.clustering_decay([report]).detail.endswith("have 0")


def test_claims_take_graphs_of_one_model(small):
    other = generate(replace(small.params, a2=1.0))
    reseeded = generate(replace(small.params, seed=2))
    assert claims.mean_out_degree([small, reseeded]).statistic == pytest.approx(
        (small.num_edges + reseeded.num_edges) / (2 * small.n))
    for claim in (claims.mean_out_degree, claims.degree_fractions, claims.in_degree_exponent,
                  claims.trajectory_concentration, claims.clustering_decay,
                  claims.decomposition_identity):
        with pytest.raises(UsageError, match="at least one"):
            claim([])
    for claim in (claims.mean_out_degree, claims.degree_fractions, claims.in_degree_exponent,
                  claims.trajectory_concentration):
        with pytest.raises(UsageError, match="differ only in seed"):
            claim([small, other])


def test_every_verdict_is_a_bool_and_every_statistic_a_float(small):
    report = compute_report(small, SplitPolicy(mode="half"))
    for claim in (claims.mean_out_degree([small]), claims.degree_fractions([small]),
                  claims.decomposition_identity([report]), claims.ball_census(small)):
        assert type(claim.passed) is bool and type(claim.statistic) is float, claim
