"""Helpers shared by the test modules."""

import numpy as np


def assert_same_graph(got, want):
    """The two graphs have equal parameters, positions and out- and in-CSR arrays.

    Slot 0 of positions is NaN, so positions compare from vertex 1 on.
    """
    assert got.params == want.params
    assert np.array_equal(got.positions[1:], want.positions[1:])
    for name in ("out_ptr", "out_targets", "in_ptr", "in_sources"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
