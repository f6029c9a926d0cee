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
from ``rings``. The certificates and the badness audit count same-colored
contacts straight from the adjacency (see verify.py).

An EdgeNeighborhood holds n1, n2 and f_set as frozensets, built from one
``rings`` walk. The per-endpoint 2-neighbor splits (n2_u, n2_v), the triangle
1-neighbors c_delta, the pair types type_of and t6 are derived on first use.
The repair engine builds one only for the few edges that its stage asserts
look at; m_set and observation_bound take one too.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import IntEnum
from fractions import Fraction
from functools import cached_property

from .graph import Graph


class PairType(IntEnum):
    T1 = 1
    T2 = 2
    T3 = 3
    T4 = 4
    T5 = 5
    T6 = 6


_T1, _T2, _T3, _T4, _T5, _T6 = PairType


@dataclass(eq=False)
class EdgeNeighborhood:
    """Color-independent neighborhood data for one edge of a graph."""

    edge: int
    u: int
    v: int
    n1: frozenset[int]
    n2: frozenset[int]
    f_set: frozenset[int]
    _g: Graph = field(repr=False)

    @cached_property
    def t6(self) -> frozenset[int]:
        return self.n2 - self.f_set

    def _near(self, vertex: int) -> set[int]:
        return {w for w, _ in self._g.adjacency[vertex]}

    def _side(self, vertex: int) -> frozenset[int]:
        near = self._near(vertex)
        edges = self._g.edges
        return frozenset(f for f in self.n2 if edges[f][0] in near or edges[f][1] in near)

    @cached_property
    def n2_u(self) -> frozenset[int]:
        """2-neighbors with an endpoint adjacent to u."""
        return self._side(self.u)

    @cached_property
    def n2_v(self) -> frozenset[int]:
        """2-neighbors with an endpoint adjacent to v."""
        return self._side(self.v)

    @cached_property
    def c_delta(self) -> frozenset[int]:
        """1-neighbors that close a triangle with the edge."""
        nu = self._near(self.u)
        nv = self._near(self.v)
        found = [idx for w, idx in self._g.adjacency[self.u] if w in nv]
        found += [idx for w, idx in self._g.adjacency[self.v] if w in nu]
        return frozenset(found)

    @cached_property
    def type_of(self) -> dict[int, PairType]:
        nu = self._near(self.u)
        nv = self._near(self.v)
        edges = self._g.edges
        type_of: dict[int, PairType] = {}
        for f in self.n2:
            x, y = edges[f]
            ux = x in nu
            uy = y in nu
            vx = x in nv
            vy = y in nv
            count = ux + uy + vx + vy
            if count == 1:
                t = _T6
            elif count == 4:
                t = _T1
            elif count == 3:
                t = _T2
            elif (ux and vx) or (uy and vy):
                t = _T3
            elif (ux and uy) or (vx and vy):
                t = _T5
            else:
                t = _T4
            type_of[f] = t
        return type_of


def compute_neighborhood(g: Graph, e: int) -> EdgeNeighborhood:
    """Neighborhood of edge e alone."""
    if not 0 <= e < len(g.edges):
        raise IndexError(f"edge index {e} out of range [0,{len(g.edges)})")
    u, v = g.edges[e]
    n1, reach = rings(g.edges, g.adjacency, e)
    ring1, n2 = frozenset(n1), frozenset(reach)
    # the 2-neighbors met more than once are T1..T5
    close = [] if len(n2) == len(reach) else [f for f, times in Counter(reach).items() if times > 1]
    return EdgeNeighborhood(edge=e, u=u, v=v, n1=ring1, n2=n2, f_set=ring1.union(close), _g=g)


def rings(edges: tuple[tuple[int, int], ...], adjacency, e: int) -> tuple[list[int], list[int]]:
    """Edge e's 1-neighbors, and its 2-neighbors with repeats, read off the
    adjacency.

    The second list has one entry per cross edge a-w (a an endpoint of e) for
    each edge f = wz disjoint from e, so f occurs once per edge joining it to
    e: once for T6, two to four times for T1..T5.
    """
    u, v = edges[e]
    n1 = [idx for _, idx in adjacency[u] if idx != e] + [idx for _, idx in adjacency[v] if idx != e]
    reach = [
        f
        for a, b in ((u, v), (v, u))
        for w, _ in adjacency[a]
        if w != b
        for z, f in adjacency[w]
        if z != a and z != b
    ]
    return n1, reach


def observation_bound(nb: EdgeNeighborhood, delta: int) -> Fraction:
    """Exact-rational upper bound on |f_set| in terms of the max degree and the
    sizes of c_delta, T1, T2, T6."""
    t1 = t2 = t6 = 0
    for t in nb.type_of.values():
        if t is PairType.T1:
            t1 += 1
        elif t is PairType.T2:
            t2 += 1
        elif t is PairType.T6:
            t6 += 1
    return (
        Fraction(delta * delta - 1)
        - Fraction(len(nb.c_delta), 2)
        - t1
        - Fraction(t2, 2)
        - Fraction(t6, 2)
    )


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
    return ((nb.n1 | {last}) - {prev}) | nb._side(path[-1])
