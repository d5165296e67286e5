"""Graph construction, greedy MIS, exact MIS, and the cover complement.

Builds the Petersen graph, compares the greedy baseline against the exact
branch-and-bound answer, and shows why the complement of a 2-approximate
vertex cover is the independence primitive both algorithms lean on.  Every
routine returns its vertex set as an ascending array of vertex ids.
"""

import numpy as np

from noisymis import (
    build_graph,
    exact_mis,
    greedy_mis,
    is_independent_set,
    vertex_cover_2approx,
)

petersen_edges = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),       # outer cycle
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),       # inner star
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),       # spokes
]
g = build_graph(10, petersen_edges)
print(f"Petersen graph: n={g.n} m={g.m} max_degree={g.max_degree}")

greedy = greedy_mis(g)
exact = exact_mis(g)
print(f"greedy MIS: {greedy.tolist()} (size {len(greedy)})")
print(f"exact  MIS: {exact.tolist()} (size {len(exact)})")
assert is_independent_set(g, greedy) and is_independent_set(g, exact)

# both endpoints of a maximal matching cover every edge; the rest of the
# vertex set is therefore independent.  On a lopsided graph (many mutually
# nonadjacent vertices, two blockers) each matched edge spends at most one
# good vertex per blocker, so the complement keeps nearly everything.
lop = build_graph(10, [(8, 0), (8, 1), (8, 2), (9, 3), (9, 4), (9, 5)])
cover = vertex_cover_2approx(lop)
complement = np.setdiff1d(np.arange(lop.n), cover)
print(f"blockers 8 and 9 vs independent 0..7:")
print(f"  2-approx cover: {cover.tolist()}")
print(f"  complement:     {complement.tolist()} "
      f"independent={is_independent_set(lop, complement)}")

# greedy respects a caller-supplied visit order; a bad order costs size
star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
print(f"star, id order:     {greedy_mis(star).tolist()}")
print(f"star, center last:  {greedy_mis(star, [1, 2, 3, 0]).tolist()}")
