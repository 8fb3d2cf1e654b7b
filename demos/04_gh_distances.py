"""Gromov-Hausdorff distances: exact solves, certified bounds, intervals.

For small spaces a search over distortion thresholds returns the exact
distance (half the minimal correspondence distortion) plus the witness
achieving it.  Larger trees get a certified two-sided interval from an
eps-dense subdivision instead.
"""

import numpy as np

from treegh import (
    CombParams,
    FiniteMetricSpace,
    comb_tree,
    gh_exact,
    gh_lower_bound,
    gh_tree_interval,
    gh_upper_bound,
    greedy_tree_correspondence,
    tree_from_edges,
)

# -- two-point spaces have a closed form --------------------------------------

seg = lambda L: FiniteMetricSpace(("o", "e"), np.array([[0.0, L], [L, 0.0]]))
print("d_GH(segment 1, segment 2) =", gh_exact(seg(1.0), seg(2.0)), "(= |1-2|/2)")

# -- exact solve with witness -------------------------------------------------

x = tree_from_edges([("a", "b", 1.0), ("b", "c", 1.0)]).as_space()
y = tree_from_edges([("u", "v", 2.0)]).as_space()
value, corr = gh_exact(x, y, return_witness=True)
print("path(1,1) vs segment(2): d_GH =", value)
print("  witness pairs:", [(x.labels[i], y.labels[j]) for i, j in corr.pairs])

# -- sandwich between certified bounds ----------------------------------------

lo = gh_lower_bound(x, y)
hi = gh_upper_bound(x, y, greedy_tree_correspondence(x, y))
print("  bounds: %.4f <= %.4f <= %.4f" % (lo, value, hi))

# -- intervals between trees via subdivision ----------------------------------

b_half = comb_tree(CombParams(s=0.5))
b_three_eighths = comb_tree(CombParams(s=0.375))
iv = gh_tree_interval(b_half, b_three_eighths, eps=2.0 ** -4)
print("comb(1/2) vs comb(3/8) at eps 2^-4: [%.5f, %.5f] (%s)"
      % (iv.lo, iv.hi, iv.method))

# identical trees give a tight interval regardless of size
iv0 = gh_tree_interval(b_half, comb_tree(CombParams(s=0.5)), eps=2.0 ** -5)
print("comb(1/2) vs itself: [%.5f, %.5f]" % (iv0.lo, iv0.hi))

# tiny trees subdivide below the exact-solver cap, so the interval is an
# exact sampled value plus/minus the sampling eps (true distance: 1.0)
t1 = tree_from_edges([("a", "b", 1.0)])
t2 = tree_from_edges([("u", "v", 3.0)])
iv_exact = gh_tree_interval(t1, t2, eps=0.5, cap=16)
print("segment(1) vs segment(3) at eps 0.5: [%.3f, %.3f] (%s)"
      % (iv_exact.lo, iv_exact.hi, iv_exact.method))
