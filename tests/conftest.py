import dataclasses

import numpy as np
import pytest

from treegh import EmbedConfig, FiniteMetricSpace, MetricTree, tree_from_edges, unit_grid

# Verdict lines appended by the acceptance tests; printed after the run so
# they are visible even when pytest captures stdout.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_tree(rng, n_lo=2, n_hi=10, scale=1.0):
    """Random tree topology: vertex i hangs off a uniformly chosen earlier one."""
    n = int(rng.integers(n_lo, n_hi + 1))
    if n == 1:
        return MetricTree(("v0",), ())
    edges = []
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        length = float(rng.uniform(0.1, 1.0)) * scale
        edges.append(("v%d" % parent, "v%d" % i, length))
    return tree_from_edges(edges)


def random_space(rng, n_lo=2, n_hi=6, dim=3, spread=2.0):
    n = int(rng.integers(n_lo, n_hi + 1))
    pts = rng.uniform(0.0, spread, (n, dim))
    d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    return FiniteMetricSpace(tuple("p%d" % i for i in range(n)), d)


@pytest.fixture
def small_config():
    h, coords = unit_grid(3)
    t1 = tree_from_edges([("a", "b", 1.0)])
    t2 = tree_from_edges([("x", "y", 0.6), ("y", "z", 0.9)])
    return EmbedConfig(
        h_space=h,
        coords=coords,
        marked=("g0_0", "g2_2"),
        trees=(t1, t2),
        basepoints=("a", "x"),
        m=2,
        branches=3,
        eps=2.0 ** -4,
    )


@pytest.fixture
def asymmetric_config(small_config):
    """small_config with marks that no symmetry of the grid fixes, so no
    two labels share their phi and sigma_i."""
    return dataclasses.replace(small_config, marked=("g0_0", "g1_2"))


def _grid_config(trees, basepoints, m):
    h, coords = unit_grid(3)
    return EmbedConfig(
        h_space=h, coords=coords, marked=("g0_0", "g2_2"), trees=trees,
        basepoints=basepoints, m=m, branches=3, eps=2.0 ** -6,
    )


@pytest.fixture
def inject_scan_grids(small_config):
    """The two grids the inject-scan benchmark scans, with fixed edge
    lengths: small_config's trees at m=3 and a tripod with a two-edge path at
    m=1, each as (config, every unmarked cell at every fiber)."""
    tripod = tree_from_edges([("c", "a", 0.45), ("c", "b", 0.35), ("c", "d", 0.55)])
    path = tree_from_edges([("x", "y", 0.7), ("y", "z", 0.85)])
    grids = []
    for cfg in (
        _grid_config(small_config.trees, small_config.basepoints, m=3),
        _grid_config((tripod, path), ("a", "x"), m=1),
    ):
        labels = [lab for lab in cfg.h_space.labels if lab not in cfg.marked]
        grids.append((cfg, [(lab, k) for k in range(1, cfg.m + 1) for lab in labels]))
    return grids
