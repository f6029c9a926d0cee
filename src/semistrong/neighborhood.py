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

Neighborhoods are cached per Graph object. A connected graph is its own only
component (see graph.connected_components), so one solve builds them once and
greedy, repair, the certificate checks and the badness audit all share them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from weakref import WeakKeyDictionary

from .graph import Graph


class PairType(IntEnum):
    T1 = 1
    T2 = 2
    T3 = 3
    T4 = 4
    T5 = 5
    T6 = 6


_T1, _T2, _T3, _T4, _T5, _T6 = PairType


@dataclass(frozen=True, eq=False)
class EdgeNeighborhood:
    """Color-independent neighborhood data for one edge; cached per graph."""

    edge: int
    u: int
    v: int
    n1: frozenset[int]
    n1_u: frozenset[int]
    n1_v: frozenset[int]
    n2: frozenset[int]
    type_of: dict[int, PairType]
    n2_u: frozenset[int]
    n2_v: frozenset[int]
    c_delta: frozenset[int]
    f_set: frozenset[int]

    def type_class(self, t: PairType) -> frozenset[int]:
        return frozenset(f for f, tf in self.type_of.items() if tf is t)

    @property
    def t6(self) -> frozenset[int]:
        return self.n2 - self.f_set

    def side_n1(self, vertex: int) -> frozenset[int]:
        if vertex == self.u:
            return self.n1_u
        if vertex == self.v:
            return self.n1_v
        raise ValueError(f"vertex {vertex} is not an endpoint of edge {self.edge}")

    def side_n2(self, vertex: int) -> frozenset[int]:
        if vertex == self.u:
            return self.n2_u
        if vertex == self.v:
            return self.n2_v
        raise ValueError(f"vertex {vertex} is not an endpoint of edge {self.edge}")


_cache: WeakKeyDictionary[Graph, list[EdgeNeighborhood | None]] = WeakKeyDictionary()
_cache_lock = threading.Lock()


def compute_neighborhood(g: Graph, e: int) -> EdgeNeighborhood:
    """Neighborhood of edge e; lazily computed and cached (idempotent fill,
    so concurrent first access is safe)."""
    slots = _cache.get(g)
    if slots is None:
        with _cache_lock:
            slots = _cache.get(g)
            if slots is None:
                slots = [None] * len(g.edges)
                _cache[g] = slots
    if not 0 <= e < len(g.edges):
        raise IndexError(f"edge index {e} out of range [0,{len(g.edges)})")
    nb = slots[e]
    if nb is None:
        nb = _compute(g, e)
        slots[e] = nb
    return nb


def _compute(g: Graph, e: int) -> EdgeNeighborhood:
    adjacency = g.adjacency
    u, v = g.edges[e]
    n1_u = frozenset(idx for _, idx in adjacency[u] if idx != e)
    n1_v = frozenset(idx for _, idx in adjacency[v] if idx != e)
    n1 = n1_u | n1_v

    nu = {w for w, _ in adjacency[u]}
    nv = {w for w, _ in adjacency[v]}
    c_delta = {idx for w, idx in adjacency[u] if w in nv}
    c_delta.update(idx for w, idx in adjacency[v] if w in nu)

    # side-2 sets: edges disjoint from e with an endpoint in N(u) (resp. N(v))
    n2_u = {f for w in nu if w != v for z, f in adjacency[w] if z != u and z != v}
    n2_v = {f for w in nv if w != u for z, f in adjacency[w] if z != u and z != v}
    n2 = n2_u | n2_v

    type_of: dict[int, PairType] = {}
    close: list[int] = []  # every class but T6
    for f in n2:
        x, y = g.edges[f]
        ux = x in nu
        uy = y in nu
        vx = x in nv
        vy = y in nv
        count = ux + uy + vx + vy
        if count == 1:
            type_of[f] = _T6
            continue
        if count == 4:
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
        close.append(f)

    return EdgeNeighborhood(
        edge=e,
        u=u,
        v=v,
        n1=n1,
        n1_u=n1_u,
        n1_v=n1_v,
        n2=frozenset(n2),
        type_of=type_of,
        n2_u=frozenset(n2_u),
        n2_v=frozenset(n2_v),
        c_delta=frozenset(c_delta),
        f_set=n1 | frozenset(close),
    )


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
    k = len(edge_ids)
    last = edge_ids[-1]
    nb = compute_neighborhood(g, last)
    tip = path[-1]
    if k == 1:
        return frozenset(nb.n1 | nb.side_n2(tip))
    prev = edge_ids[-2]
    return frozenset((nb.n1 | {last}) - {prev}) | nb.side_n2(tip)
