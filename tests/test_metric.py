import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treegh import (
    FiniteMetricSpace,
    MetricValidationError,
    four_point_defect,
    hausdorff_distance,
    restrict,
    validate_metric,
)
from conftest import random_tree


def euclidean(pts):
    pts = np.asarray(pts, float)
    return np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))


def test_valid_space_reports_ok():
    x = FiniteMetricSpace.from_matrix(euclidean([[0, 0], [1, 0], [0, 1]]))
    rep = validate_metric(x)
    assert rep.ok
    assert rep.category == "ok"
    assert rep.worst_violation == 0.0


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_validate_metric_refuses_a_nan_infinite_or_negative_tol(tol):
    # before: tol=inf reported ok, category "ok", for a triangle violation of 3
    x = FiniteMetricSpace(
        ("a", "b", "c"), np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    )
    assert validate_metric(x).category == "triangle"
    with pytest.raises(ValueError, match="tol must be finite and nonnegative, got %r" % tol):
        validate_metric(x, tol=tol)


def test_construction_rejects_shape_and_label_errors():
    with pytest.raises(MetricValidationError):
        FiniteMetricSpace(("a",), np.zeros((1, 2)))
    with pytest.raises(MetricValidationError):
        FiniteMetricSpace(("a", "a"), np.zeros((2, 2)))
    with pytest.raises(MetricValidationError):
        FiniteMetricSpace(("a", "b", "c"), np.zeros((2, 2)))


def test_triangle_violation_detected():
    d = np.array([[0.0, 5.0, 1.0], [5.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    rep = validate_metric(FiniteMetricSpace(("a", "b", "c"), d))
    assert not rep.ok
    assert rep.category == "triangle"
    assert rep.worst_violation == pytest.approx(3.0)


def test_symmetry_violation_detected():
    d = np.array([[0.0, 1.0], [2.0, 0.0]])
    rep = validate_metric(FiniteMetricSpace(("a", "b"), d))
    assert not rep.ok
    assert rep.category == "symmetry"


def test_vanishing_off_diagonal_detected():
    d = np.zeros((2, 2))
    rep = validate_metric(FiniteMetricSpace(("a", "b"), d))
    assert not rep.ok


def test_nonzero_diagonal_detected():
    d = np.array([[0.5, 1.0], [1.0, 0.0]])
    rep = validate_metric(FiniteMetricSpace(("a", "b"), d))
    assert not rep.ok


def test_diameter_and_eccentricities():
    x = FiniteMetricSpace.from_matrix(euclidean([[0], [1], [3]]))
    assert x.diameter() == 3.0
    assert list(x.eccentricities()) == [3.0, 2.0, 3.0]


def test_index_names_a_missing_label():
    x = FiniteMetricSpace.from_matrix(euclidean([[0], [1]]), labels=["a", "b"])
    assert x.index("b") == 1
    with pytest.raises(ValueError, match="label 'nosuch' not in space"):
        x.index("nosuch")


def test_restrict_keeps_submatrix():
    x = FiniteMetricSpace.from_matrix(euclidean([[0], [1], [3]]), labels=("a", "b", "c"))
    sub = restrict(x, [0, 2])
    assert sub.labels == ("a", "c")
    assert sub.dist[0, 1] == 3.0


def test_hausdorff_on_line_subsets():
    x = FiniteMetricSpace.from_matrix(euclidean([[0], [1], [3]]))
    assert hausdorff_distance(x, [0, 1, 2], [0, 1, 2]) == 0.0
    assert hausdorff_distance(x, [0], [0, 1, 2]) == 3.0
    assert hausdorff_distance(x, [0, 1], [2]) == pytest.approx(3.0)


def test_four_point_defect_on_cycle_and_tree():
    # unit 4-cycle: the two diagonal sums are 4 and 2, so the defect is 2
    d = np.array(
        [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]], dtype=float
    )
    c4 = FiniteMetricSpace(("a", "b", "c", "d"), d)
    assert four_point_defect(c4) == pytest.approx(2.0)

    rng = np.random.default_rng(3)
    t = random_tree(rng, n_lo=5, n_hi=9)
    assert four_point_defect(t.as_space()) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False)
        ),
        min_size=1,
        max_size=8,
        unique=True,
    )
)
# collinear points whose rounded distances exceed the triangle inequality
# by 8.9e-16, well inside tol
@example(pts=[(4.846859794949629, 0.0), (-2.0, 0.0), (-1e-05, 0.0)])
def test_euclidean_sets_always_validate(pts):
    d = euclidean(pts)
    x = FiniteMetricSpace.from_matrix(d)
    rep = validate_metric(x, tol=1e-7)
    # distinct planar points may still coincide after rounding; only a
    # genuine triangle/symmetry failure would be a bug
    assert rep.category in ("ok", "positivity")


def _four_point_defect_all_quadruples(d):
    """Reference: every ordered quadruple, middle sum as total minus extremes."""
    n = d.shape[0]
    if n <= 2:
        return 0.0
    worst = 0.0
    for x in range(n):
        dx = d[x]
        A = dx[:, None, None] + d[None, :, :]
        B = dx[None, :, None] + d[:, None, :]
        C = dx[None, None, :] + d[:, :, None]
        top = np.maximum(np.maximum(A, B), C)
        low = np.minimum(np.minimum(A, B), C)
        worst = max(worst, float((top - (A + B + C - top - low)).max()))
    return worst


@pytest.mark.parametrize("block", [None, 1, 2])
def test_four_point_defect_matches_all_quadruples(block, monkeypatch):
    # block=None keeps the default chunking (one chunk of y per x at these
    # sizes); 1 and 2 split the y range, so later chunks start past x
    rng = np.random.default_rng(20261018)
    spaces = []
    for _ in range(25):
        n = int(rng.integers(1, 16))
        pts = rng.uniform(0.0, 2.0, (n, int(rng.integers(1, 4))))
        spaces.append(FiniteMetricSpace.from_matrix(euclidean(pts)))
    for _ in range(5):
        n = int(rng.integers(3, 12))
        m = rng.uniform(0.0, 1.0, (n, n))
        spaces.append(FiniteMetricSpace.from_matrix(m + m.T))
    trees = [random_tree(rng, n_lo=2, n_hi=16).as_space() for _ in range(10)]
    for x in spaces + trees:
        if block is not None:
            monkeypatch.setattr("treegh.metric._BLOCK_CELLS", block * x.n * x.n)
        want = _four_point_defect_all_quadruples(x.dist)
        assert abs(four_point_defect(x) - want) <= 1e-12
    for t in trees:
        assert four_point_defect(t) <= 1e-12
