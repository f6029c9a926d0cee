"""Closed-form colorings for the special families the solver short-circuits:
paths and cycles (max degree 2), balanced complete bipartite graphs, and the
covering-edge family handled by a dedicated two-equal-colors construction.

Colorings are returned in the edge order of the corresponding
:mod:`semistrong.families` generators.
"""

from __future__ import annotations

from . import families
from .coloring import Coloring, from_list
from .graph import (
    Graph,
    GraphError,
    _bipartition,
    connected_components,
    g_family_witness,
    is_complete_bipartite_dd,
    max_degree,
)

# the repeating 3-color pattern, with the wrap-around patch for cycles whose
# length is 1 mod 3; raw symbol 0 maps to palette color 3
_REMAP = {0: 3, 1: 1, 2: 2}


def color_path(n: int) -> Coloring:
    """3-color pattern 1,2,3,1,2,3,... along a path with n vertices."""
    if n < 2:
        raise ValueError(f"path coloring needs n >= 2, got {n}")
    colors = [(i % 3) + 1 for i in range(n - 1)]
    return from_list(colors)


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
        colors = [_REMAP[i % 3] for i in range(1, n - 3)]
        colors += [_REMAP[2], _REMAP[1], _REMAP[0], _REMAP[2]]
    else:
        colors = [_REMAP[i % 3] for i in range(1, n + 1)]
    return colors


def color_cycle(n: int) -> Coloring:
    """Cycle coloring; 3 colors except C4 and C7 which need 4."""
    return from_list(cycle_pattern(n, relaxed=False))


def color_kdd_semistrong_graph(g: Graph, d: int) -> Coloring:
    """Rainbow: every semistrong class of this graph is a single edge."""
    if not is_complete_bipartite_dd(g, d):
        raise GraphError("not_kdd", f"graph is not K_{{{d},{d}}}")
    return from_list(range(1, g.edge_count + 1))


def color_kdd_relaxed_graph(g: Graph, d: int) -> Coloring:
    """Pair opposite edges u_i v_j / u_j v_i, and pair consecutive diagonal
    edges u_i v_i; ceil(d^2/2) colors, valid with one same-colored edge
    allowed at distance 2."""
    if not is_complete_bipartite_dd(g, d):
        raise GraphError("not_kdd", f"graph is not K_{{{d},{d}}}")
    # is_complete_bipartite_dd has proved both sides hold d vertices
    side = _bipartition(g)
    left = [v for v, s in enumerate(side) if s == 0]
    right = [v for v, s in enumerate(side) if s == 1]
    pair_color: dict[tuple[int, int], int] = {}
    nxt = 1
    for i in range(d):
        for j in range(i + 1, d):
            pair_color[(i, j)] = nxt
            nxt += 1
    diag_base = nxt - 1  # d*(d-1)/2 colors so far
    colors = [0] * g.edge_count
    for i in range(d):
        for j in range(d):
            e = g.edge_between(left[i], right[j])
            assert e is not None
            if i == j:
                colors[e] = diag_base + (i // 2) + 1
            else:
                colors[e] = pair_color[(min(i, j), max(i, j))]
    return from_list(colors, diag_base + (d + 1) // 2)


def color_kdd_semistrong(d: int) -> Coloring:
    """Rainbow coloring of the canonical K_{d,d}; d^2 colors, none to spare."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return color_kdd_semistrong_graph(families.complete_bipartite(d, d), d)


def color_kdd_relaxed(d: int) -> Coloring:
    """ceil(d^2/2)-coloring of the canonical K_{d,d}, (0,1)-relaxed valid."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return color_kdd_relaxed_graph(families.complete_bipartite(d, d), d)


def color_g_family(g: Graph, witness: int) -> Coloring:
    """Color a covering-edge-family graph (not complete bipartite) with
    d^2 - 1 colors: one repeated color on a carefully chosen non-adjacent
    pair of edges pendant to the witness edge, the rest rainbow.

    The witness edge uv has N(u) and N(v) disjoint and covering all vertices,
    so any u' in N(u)\\{v} is non-adjacent to v; picking the smallest pair
    (u', v') with u'v' not an edge makes {uu', vv'} a semistrong class.
    """
    if len(connected_components(g)) != 1:
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
    chosen: tuple[int, int] | None = None
    for u2 in sorted(w for w in g.neighbors(u) if w != v):
        for v2 in sorted(w for w in g.neighbors(v) if w != u):
            if u2 != v2 and not g.has_edge(u2, v2):
                chosen = (u2, v2)
                break
        if chosen:
            break
    if chosen is None:
        raise GraphError("no_free_pair", "no non-adjacent pendant pair exists (graph must be K_{d,d})")
    e1 = g.edge_between(u, chosen[0])
    e2 = g.edge_between(v, chosen[1])
    assert e1 is not None and e2 is not None
    colors = [0] * g.edge_count
    colors[e1] = colors[e2] = 1
    nxt = 2
    for e in range(g.edge_count):
        if colors[e] == 0:
            colors[e] = nxt
            nxt += 1
    return from_list(colors, d * d - 1)
