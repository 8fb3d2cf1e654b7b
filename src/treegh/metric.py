"""Finite metric spaces as labelled distance matrices.

Everything downstream (trees, comb/star constructions, Gromov-Hausdorff
estimation) talks to the rest of the package through the small surface in
this module: validation of metric axioms, restriction to subsets, Hausdorff
distance between subsets of a common space, and the four-point defect that
measures how far a metric is from being a tree metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "FiniteMetricSpace",
    "ValidationReport",
    "MetricValidationError",
    "validate_metric",
    "restrict",
    "hausdorff_distance",
    "four_point_defect",
]

DEFAULT_TOL = 1e-9
_BLOCK_CELLS = 4_000_000  # entries per four-point sum tensor, bounds memory


class MetricValidationError(ValueError):
    """Raised when an operation receives data that is not a valid metric."""


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A finite metric space: point labels plus a square distance matrix.

    The matrix is stored as float64 and is not modified after construction.
    Use :func:`validate_metric` to check the metric axioms; construction
    itself only enforces shape so that deliberately broken matrices can be
    built and inspected.
    """

    labels: Tuple[str, ...]
    dist: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise MetricValidationError(
                "distance matrix must be square, got shape %s" % (d.shape,)
            )
        if len(self.labels) != d.shape[0]:
            raise MetricValidationError(
                "expected %d labels for a %dx%d matrix, got %d"
                % (d.shape[0], d.shape[0], d.shape[0], len(self.labels))
            )
        if len(set(self.labels)) != len(self.labels):
            raise MetricValidationError("point labels must be unique")
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
        object.__setattr__(self, "dist", d)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError("label %r not in space" % (label,)) from None

    def diameter(self) -> float:
        if self.n == 0:
            return 0.0
        return float(self.dist.max())

    def eccentricities(self) -> np.ndarray:
        """Distance from each point to its farthest point."""
        return self.dist.max(axis=1)

    @classmethod
    def from_matrix(cls, dist, labels: Optional[Sequence[str]] = None) -> "FiniteMetricSpace":
        d = np.asarray(dist, dtype=float)
        if labels is None:
            labels = [str(i) for i in range(d.shape[0])]
        return cls(tuple(labels), d)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a metric-axiom check.

    ``ok`` holds iff ``worst_violation <= tol`` used for the check.
    ``witness`` points at the offending entries: a pair for symmetry /
    positivity problems, ``(i, i)`` for a nonzero diagonal, and a triple
    ``(i, j, k)`` meaning ``d(i, j) > d(i, k) + d(k, j)``.  A tolerated
    violation is still measured in ``worst_violation`` but reported with
    category ``"ok"`` and an empty witness.
    """

    ok: bool
    worst_violation: float
    witness: Tuple[int, ...]
    category: str


def _check_tol(tol: float):
    # The checks compare a violation with tol: a negative tol fails every
    # input, an infinite one passes every input, and NaN compares false.
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError("tol must be finite and nonnegative, got %r" % (tol,))


def _entry_violation(d: np.ndarray) -> Tuple[float, Tuple[int, ...], str]:
    """The largest violation of the entrywise axioms in a square matrix,
    with the entry it is at and its category: an entry that is not finite
    (inf; looked for first), the gap to the transposed entry
    (``"symmetry"``), a diagonal entry's size (``"identity"``) or a
    negative entry's (``"nonnegativity"``); ``(0.0, (), "ok")`` if there
    is none.

    These are the O(n^2) checks of :func:`validate_metric`, which adds
    positivity and the triangle inequality; a command reading a matrix
    from a file runs them alone, and hands them on to :func:`_validated`
    when it checks the rest.
    """
    if not d.size:
        return 0.0, (), "ok"
    bad = ~np.isfinite(d)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        return float("inf"), (int(i), int(j)), "finite"
    worst, witness, category = 0.0, (), "ok"
    sym = np.abs(d - d.T)
    i, j = np.unravel_index(np.argmax(sym), sym.shape)
    if sym[i, j] > worst:
        worst, witness, category = float(sym[i, j]), (int(i), int(j)), "symmetry"
    diag = np.abs(np.diag(d))
    i = int(np.argmax(diag))
    if diag[i] > worst:
        worst, witness, category = float(diag[i]), (i, i), "identity"
    i, j = np.unravel_index(np.argmin(d), d.shape)
    if -d[i, j] > worst:
        worst, witness, category = float(-d[i, j]), (int(i), int(j)), "nonnegativity"
    return worst, witness, category


def validate_metric(space: FiniteMetricSpace, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check the metric axioms on a finite distance matrix.

    Args:
        space: the candidate metric space.
        tol: numerical slack; violations of at most ``tol`` are accepted.

    Returns:
        A :class:`ValidationReport` carrying the largest violation found
        across the entrywise axioms (:func:`_entry_violation`), positivity
        of off-diagonal entries, and the triangle inequality.

    Raises:
        ValueError: if ``tol`` is NaN, infinite or negative.
    """
    _check_tol(tol)
    return _validated(space.dist, tol, _entry_violation(space.dist))


def _validated(
    d: np.ndarray, tol: float, entries: Tuple[float, Tuple[int, ...], str]
) -> ValidationReport:
    """:func:`validate_metric` of the matrix ``d``, given its
    :func:`_entry_violation` ``entries``, for a caller that has made those
    checks already: the report is the same, and they are not made again."""
    n = d.shape[0]
    if n == 0:
        return ValidationReport(True, 0.0, (), "ok")

    worst, witness, category = entries
    if category == "finite":
        return ValidationReport(False, worst, witness, category)

    # Off-diagonal entries below 2*tol count as positivity violations of
    # size (2*tol - d); this makes an exactly-zero distance between distinct
    # labels fail the tol test while entries >= tol still pass.
    off = d + np.diag(np.full(n, np.inf))
    pos = 2.0 * tol - off
    i, j = np.unravel_index(np.argmax(pos), pos.shape)
    if pos[i, j] > worst:
        worst, witness, category = float(pos[i, j]), (int(i), int(j)), "positivity"

    for k in range(n):
        slack = d - (d[:, k][:, None] + d[k, :][None, :])
        i, j = np.unravel_index(np.argmax(slack), slack.shape)
        if slack[i, j] > worst:
            worst = float(slack[i, j])
            witness = (int(i), int(j), int(k))
            category = "triangle"

    if worst <= tol:
        return ValidationReport(True, worst, (), "ok")
    return ValidationReport(False, worst, witness, category)


def restrict(space: FiniteMetricSpace, indices: Sequence[int]) -> FiniteMetricSpace:
    """Restriction of a metric space to a subset of its points.

    ``indices`` picks rows/columns in the given order; duplicates are
    rejected since a metric space cannot repeat a point.
    """
    idx = [int(i) for i in indices]
    for i in idx:
        if not 0 <= i < space.n:
            raise IndexError("restriction index %d out of range [0, %d)" % (i, space.n))
    if len(set(idx)) != len(idx):
        raise MetricValidationError("restriction indices must be distinct")
    sub = space.dist[np.ix_(idx, idx)]
    return FiniteMetricSpace(tuple(space.labels[i] for i in idx), sub)


def hausdorff_distance(space: FiniteMetricSpace, a: Sequence[int], b: Sequence[int]) -> float:
    """Hausdorff distance between two nonempty subsets of one space.

    Args:
        space: the ambient finite metric space.
        a, b: index subsets (order and repetition irrelevant).

    Returns:
        ``max(sup_{x in a} d(x, b), sup_{y in b} d(y, a))``.
    """
    ia = np.asarray(sorted(set(int(i) for i in a)), dtype=int)
    ib = np.asarray(sorted(set(int(i) for i in b)), dtype=int)
    if ia.size == 0 or ib.size == 0:
        raise MetricValidationError("hausdorff_distance needs nonempty subsets")
    if ia.min() < 0 or ia.max() >= space.n or ib.min() < 0 or ib.max() >= space.n:
        raise IndexError("subset index out of range")
    cross = space.dist[np.ix_(ia, ib)]
    return float(max(cross.min(axis=1).max(), cross.min(axis=0).max()))


def four_point_defect(space: FiniteMetricSpace) -> float:
    """Largest four-point-condition violation over all quadruples.

    For each quadruple (x, y, z, t), repeated points allowed, form the three
    pairings ``d(x,y)+d(z,t)``, ``d(x,z)+d(y,t)``, ``d(x,t)+d(y,z)`` and
    sort them ``S1 >= S2 >= S3``.  The defect of the quadruple is
    ``S1 - S2``; the defect of the space is the maximum over quadruples.
    It is 0 exactly when the metric is 0-hyperbolic, i.e. a tree metric.
    The matrix is taken to be symmetric, as a metric is.
    """
    d = space.dist
    n = space.n
    if n <= 2:
        return 0.0
    worst = 0.0
    # The sorted pairing sums of a quadruple do not change when its points
    # are permuted, so it suffices to visit x <= y <= z, t with z and t at
    # least y: for fixed x and a block of y starting at y0 >= x, build the
    # three sum tensors over z, t >= y0, chunked to bound memory.
    block = max(1, int(_BLOCK_CELLS // max(1, n * n)))
    for x in range(n):
        for y0 in range(x, n, block):
            y1 = min(n, y0 + block)
            dx = d[x, y0:]
            dy = d[y0:y1, y0:]
            A = d[x, y0:y1][:, None, None] + d[None, y0:, y0:]  # d(x,y)+d(z,t)
            B = dx[None, :, None] + dy[:, None, :]               # d(x,z)+d(y,t)
            C = dx[None, None, :] + dy[:, :, None]               # d(x,t)+d(y,z)
            top = np.maximum(np.maximum(A, B), C)
            # The median of the three sums, exactly one of them, whatever
            # their order.
            mid = np.maximum(np.minimum(A, B), np.minimum(np.maximum(A, B), C))
            m = float((top - mid).max())
            if m > worst:
                worst = m
    return worst
