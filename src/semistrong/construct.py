"""Closed-form colorings for the special families the solver short-circuits:
paths and cycles (max degree 2), balanced complete bipartite graphs, and the
covering-edge family handled by a dedicated two-equal-colors construction.

Colorings are returned in the edge order of the corresponding
:mod:`semistrong.families` generators.
"""

from __future__ import annotations

from itertools import combinations

from . import families
from .coloring import Coloring, from_list
from .graph import (
    Graph,
    GraphError,
    g_family_witness,
    is_complete_bipartite_dd,
    is_connected,
    max_degree,
)


def path_pattern(n: int) -> list[int]:
    """Color sequence 1,2,3,1,2,3,... for the path with n vertices (edge i =
    v_i v_{i+1})."""
    if n < 2:
        raise ValueError(f"path coloring needs n >= 2, got {n}")
    return [(i % 3) + 1 for i in range(n - 1)]


def color_path(n: int) -> Coloring:
    """3-color pattern 1,2,3,1,2,3,... along a path with n vertices."""
    return from_list(path_pattern(n))


def cycle_pattern(n: int, relaxed: bool = False) -> list[int]:
    """Color sequence for the cycle with n vertices (edge i = v_i v_{i+1}).

    For n not in {4, 7}: three colors, patched near the wrap-around when
    n = 1 (mod 3). C4 takes four distinct colors (two alternating colors in
    relaxed mode); C7 takes the four-color pattern with classes of at most
    two edges in either mode.
    """
    if n < 3:
        raise ValueError(f"cycle coloring needs n >= 3, got {n}")
    if n == 4:
        return [1, 2, 1, 2] if relaxed else [1, 2, 3, 4]
    if n == 7:
        return [1, 2, 3, 1, 2, 3, 4]
    if n % 3 == 1:
        return [i % 3 + 1 for i in range(n - 4)] + [2, 1, 3, 2]
    return [i % 3 + 1 for i in range(n)]


def color_cycle(n: int) -> Coloring:
    """Cycle coloring; 3 colors except C4 and C7 which need 4."""
    return from_list(cycle_pattern(n, relaxed=False))


def kdd_relaxed_colors(g: Graph, part, side: list[int], colors: list[int]) -> None:
    """Pair opposite edges u_i v_j / u_j v_i, and pair consecutive diagonal
    edges u_i v_i; ceil(d^2/2) colors, valid with one same-colored edge
    allowed at distance 2, written into colors at g's edge ids. Unchecked:
    the component of g on part (its vertices, increasing) is K_{d,d}, and
    side 2-colors it."""
    left = [v for v in part if side[v] == 0]
    right = [v for v in part if side[v] == 1]
    d = len(left)
    pair_color = {pair: c for c, pair in enumerate(combinations(range(d), 2), 1)}
    diag_base = len(pair_color)  # d*(d-1)/2 colors so far
    for i in range(d):
        for j in range(d):
            e = g.edge_between(left[i], right[j])
            assert e is not None
            if i == j:
                colors[e] = diag_base + (i // 2) + 1
            else:
                colors[e] = pair_color[(min(i, j), max(i, j))]


def color_kdd_semistrong(d: int) -> Coloring:
    """Rainbow coloring of the canonical K_{d,d}; d^2 colors, none to spare:
    every semistrong class of K_{d,d} is a single edge."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return from_list(range(1, d * d + 1))


def color_kdd_relaxed(d: int) -> Coloring:
    """ceil(d^2/2)-coloring of the canonical K_{d,d}, (0,1)-relaxed valid."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    colors = [0] * (d * d)
    # the canonical left part is 0..d-1
    kdd_relaxed_colors(families.complete_bipartite(d, d), range(2 * d), [0] * d + [1] * d, colors)
    return from_list(colors)


def g_family_colors(g: Graph, edges, witness: int, colors: list[int]) -> None:
    """color_g_family's colors, written into colors at g's edge ids.
    Unchecked: the component of g on edges (its edge ids) is in the
    covering-edge family and not K_{d,d}, and witness is one of its covering
    edges."""
    u, v = g.edges[witness]
    # neighbor-sorted, so the first free pair is the smallest; N(u) and N(v)
    # are disjoint, so a and b below always differ
    ends_u = [w for w in g.neighbors(u) if w != v]
    ends_v = [w for w in g.neighbors(v) if w != u]
    chosen = next(((a, b) for a in ends_u for b in ends_v if not g.has_edge(a, b)), None)
    if chosen is None:
        raise GraphError("no_free_pair", "no non-adjacent pendant pair exists (graph must be K_{d,d})")
    pair = (g.edge_between(u, chosen[0]), g.edge_between(v, chosen[1]))
    rest = iter(range(2, len(edges)))
    for e in sorted(edges):
        colors[e] = 1 if e in pair else next(rest)


def color_g_family(g: Graph, witness: int) -> Coloring:
    """Color a covering-edge-family graph (not complete bipartite) with
    d^2 - 1 colors: one repeated color on a carefully chosen non-adjacent
    pair of edges pendant to the witness edge, the rest rainbow.

    The witness edge uv has N(u) and N(v) disjoint and covering all vertices,
    so any u' in N(u)\\{v} is non-adjacent to v; picking the smallest pair
    (u', v') with u'v' not an edge makes {uu', vv'} a semistrong class.
    """
    if not is_connected(g):
        raise GraphError("disconnected", "covering-edge construction needs a connected graph")
    d = max_degree(g)
    if g_family_witness(g) is None:
        raise GraphError("not_g_family", "graph is not d-regular on 2d vertices with a covering edge")
    if is_complete_bipartite_dd(g, d):
        raise GraphError("is_kdd", "complete bipartite K_{d,d} is excluded from this construction")
    if not 0 <= witness < g.edge_count:
        raise GraphError("bad_witness", f"witness edge index {witness} out of range")
    u, v = g.edges[witness]
    cover = set(g.neighbors(u)) | set(g.neighbors(v))
    if len(cover) != g.vertex_count:
        raise GraphError("bad_witness", f"edge {witness} does not cover all vertices")
    colors = [0] * g.edge_count
    g_family_colors(g, range(g.edge_count), witness, colors)
    return from_list(colors, d * d - 1)
