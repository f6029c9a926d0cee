"""Per-edge distance-1/2 structure.

For an edge e = uv and a 2-neighbor f = xy, the induced subgraph on
{u, v, x, y} is determined by which of the four cross edges ux, uy, vx, vy
are present. The six possible patterns classify f relative to e:

  T1  all four cross edges
  T2  exactly three
  T3  two cross edges meeting one endpoint of f (a triangle through e)
  T4  two cross edges forming a matching (a 4-cycle through e and f)
  T5  two cross edges meeting one endpoint of e (a triangle through f)
  T6  exactly one cross edge

The forbidden set f_set = N(e) ∪ T1..T5 is what a good coloring keeps clear
of e's color; T6 is the only class a good coloring may share a color with.

Greedy and the repair engine keep no per-edge list: they share one state, a
color bitmask per vertex and a same-colored 2-neighbor count per edge (see
solver.py), and read forbidden sets, contacts and the path-shift schema's
(S3) m_set colors off the masks. The exact oracle reads its N1 and N2 lists
and its common neighbors from ``rings``. The certificates and the badness
audit count same-colored contacts straight from the adjacency (see verify.py).

An EdgeNeighborhood is a frozen value built from one ``rings`` walk: n1, n2,
f_set, the pair types type_of and t6, the per-endpoint 2-neighbor splits
(n2_u, n2_v) and the triangle 1-neighbors c_delta are all computed when it is
built. The repair engine builds one only for the few edges that its stage
asserts look at; m_set and observation_bound take one too.
"""

from __future__ import annotations

from collections import Counter
from enum import IntEnum
from typing import TYPE_CHECKING

from .graph import Graph, _Frozen

if TYPE_CHECKING:
    from fractions import Fraction


class PairType(IntEnum):
    T1 = 1
    T2 = 2
    T3 = 3
    T4 = 4
    T5 = 5
    T6 = 6


_T1, _T2, _T3, _T4, _T5, _T6 = PairType

# The pair type of f = xy against e = uv by its cross edges, as bits ux = 1,
# uy = 2, vx = 4, vy = 8; entry bits - 1.
_TYPE_BY_CROSS = (
    _T6, _T6, _T5,  # ux, uy, ux uy
    _T6, _T3, _T4, _T2,  # vx, ux vx, uy vx, ux uy vx
    _T6, _T4, _T3, _T2, _T5, _T2, _T2, _T1,  # vy, and vy with each of the above
)


class EdgeNeighborhood(_Frozen):
    """Color-independent neighborhood data for one edge of a graph.
    Immutable; equal only to itself."""

    __slots__ = ("edge", "u", "v", "n1", "n2", "f_set", "t6", "n2_u", "n2_v", "c_delta", "type_of")
    edge: int
    u: int
    v: int
    n1: frozenset[int]
    n2: frozenset[int]
    f_set: frozenset[int]
    t6: frozenset[int]
    n2_u: frozenset[int]  # 2-neighbors with an endpoint adjacent to u
    n2_v: frozenset[int]  # 2-neighbors with an endpoint adjacent to v
    c_delta: frozenset[int]  # 1-neighbors that close a triangle with the edge
    type_of: dict[int, PairType]
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, edge, u, v, n1, n2, f_set, t6, n2_u, n2_v, c_delta, type_of):
        self._set(edge, u, v, n1, n2, f_set, t6, n2_u, n2_v, c_delta, type_of)


def compute_neighborhood(g: Graph, e: int) -> EdgeNeighborhood:
    """Neighborhood of edge e alone."""
    if not 0 <= e < len(g.edges):
        raise IndexError(f"edge index {e} out of range [0,{len(g.edges)})")
    edges, adjacency = g.edges, g.adjacency
    u, v = edges[e]
    n1, n2, common = rings(g, e)
    near_u = {w for w, _ in adjacency[u]}
    near_v = {w for w, _ in adjacency[v]}
    type_of: dict[int, PairType] = {}
    side_u: list[int] = []
    side_v: list[int] = []
    for f in n2:
        x, y = edges[f]
        bits = (x in near_u) | (y in near_u) << 1 | (x in near_v) << 2 | (y in near_v) << 3
        type_of[f] = _TYPE_BY_CROSS[bits - 1]
        if bits & 3:
            side_u.append(f)
        if bits & 12:
            side_v.append(f)
    ring1, ring2 = frozenset(n1), frozenset(n2)
    t6 = frozenset(f for f, t in type_of.items() if t is _T6)
    return EdgeNeighborhood(
        edge=e,
        u=u,
        v=v,
        n1=ring1,
        n2=ring2,
        f_set=ring1 | (ring2 - t6),
        t6=t6,
        n2_u=frozenset(side_u),
        n2_v=frozenset(side_v),
        c_delta=frozenset(g.edge_between(a, w) for a in (u, v) for w in common),
        type_of=type_of,
    )


def rings(g: Graph, e: int) -> tuple[list[int], list[int], list[int]]:
    """Edge e = uv's 1-neighbors, its distinct 2-neighbors in first-met order
    (the walk meets one once per cross edge: once for T6, two to four times
    for T1..T5), and the common neighbors of u and v (the vertices of u's row
    whose row reaches v), read off the adjacency."""
    adjacency = g.adjacency
    u, v = g.edges[e]
    n1, common, reach = [], [], {}  # reach keeps first-met order as a dict
    for w, f in adjacency[u]:
        if w != v:
            n1.append(f)
            for z, h in adjacency[w]:
                if z == v:
                    common.append(w)
                elif z != u:
                    reach[h] = None
    for w, f in adjacency[v]:
        if w != u:
            n1.append(f)
            for z, h in adjacency[w]:
                if z != u and z != v:
                    reach[h] = None
    return n1, list(reach), common


def observation_bound(nb: EdgeNeighborhood, delta: int) -> Fraction:
    """Exact-rational upper bound on |f_set| in terms of the max degree and the
    sizes of c_delta, T1, T2, T6."""
    from fractions import Fraction  # imported here: the package's only Fraction

    count = Counter(nb.type_of.values())
    half = Fraction(len(nb.c_delta) + count[PairType.T2] + count[PairType.T6], 2)
    return delta * delta - 1 - count[PairType.T1] - half


def m_set(g: Graph, path: list[int]) -> frozenset[int]:
    """Forbidden-color edge set for the last edge of an induced path.

    path is a vertex sequence v0..vk (k >= 1); consecutive vertices must be
    adjacent and no chord may exist. For k = 1 the set is N(e1) ∪ side-2
    neighbors at v1 (e1 itself excluded); for k >= 2 it is
    (N[ek] minus the previous path edge) ∪ side-2 neighbors at vk.
    """
    if len(path) < 2:
        raise ValueError("path must contain at least two vertices")
    if len(set(path)) != len(path):
        raise ValueError("path vertices must be distinct")
    edge_ids: list[int] = []
    for a, b in zip(path, path[1:]):
        idx = g.edge_between(a, b)
        if idx is None:
            raise ValueError(f"consecutive path vertices {a},{b} are not adjacent")
        edge_ids.append(idx)
    for i in range(len(path)):
        for j in range(i + 2, len(path)):
            if g.has_edge(path[i], path[j]):
                raise ValueError(f"path has chord {path[i]}-{path[j]}; not induced")
    last = edge_ids[-1]
    # for k = 1, dropping e1 itself from N[e1] leaves N(e1)
    prev = edge_ids[-2] if len(edge_ids) >= 2 else last
    nb = compute_neighborhood(g, last)
    return ((nb.n1 | {last}) - {prev}) | (nb.n2_u if path[-1] == nb.u else nb.n2_v)
