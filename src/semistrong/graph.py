"""Immutable simple-graph representation with indexed edges.

Edge indices are stable and equal to input order; everything downstream
(colorings, neighborhoods, certificates) refers to edges by index. One
breadth-first walk gives the components, each vertex's depth parity (the
2-coloring that recognizes K_{d,d}) and the edge order greedy and exact use.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass


class GraphError(ValueError):
    """Rejected graph input; ``reason`` is a stable machine-readable tag."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True, eq=False, slots=True)
class Graph:
    """Simple undirected graph. Immutable.

    adjacency[v] lists (neighbor, incident edge index) sorted by neighbor.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(w for w, _ in self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return self.edge_between(u, v) is not None

    def edge_between(self, u: int, v: int) -> int | None:
        """Index of the edge uv, or None; bisects u's neighbor-sorted row."""
        if not 0 <= u < self.vertex_count:
            return None
        row = self.adjacency[u]
        i = bisect_left(row, (v,))  # (v,) sorts just before every (v, e)
        return row[i][1] if i < len(row) and row[i][0] == v else None


def build_graph(vertex_count: int, edge_pairs) -> Graph:
    """Validate and build a Graph; edge indices follow input order."""
    if vertex_count < 0:
        raise GraphError("bad_vertex_count", f"vertex_count must be >= 0, got {vertex_count}")
    edges: list[tuple[int, int]] = []
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(vertex_count)]
    seen: set[int] = set()  # min * n + max per edge
    for idx, (u, v) in enumerate(edge_pairs):
        if not (0 <= u < vertex_count) or not (0 <= v < vertex_count):
            raise GraphError("endpoint_out_of_range", f"edge {idx} ({u},{v}) has an endpoint outside [0,{vertex_count})")
        if u == v:
            raise GraphError("self_loop", f"edge {idx} is a self-loop at vertex {u}")
        key = u * vertex_count + v if u < v else v * vertex_count + u
        if key in seen:
            raise GraphError("duplicate_edge", f"edge {idx} ({u},{v}) duplicates an earlier edge")
        edges.append((u, v))
        adjacency[u].append((v, idx))
        adjacency[v].append((u, idx))
        seen.add(key)
    del seen
    # each row becomes its tuple in turn, so one list at a time is copied
    for v, nbrs in enumerate(adjacency):
        nbrs.sort()
        adjacency[v] = tuple(nbrs)
    return Graph(vertex_count, tuple(edges), tuple(adjacency))


def max_degree(g: Graph) -> int:
    return max(map(len, g.adjacency), default=0)


@dataclass(frozen=True, eq=False, slots=True)
class ComponentView:
    """One connected component, re-indexed from 0, with maps back to the parent."""

    graph: Graph
    vertex_map: tuple[int, ...]  # component vertex -> parent vertex
    edge_map: tuple[int, ...]  # component edge -> parent edge


def _walk(g: Graph) -> tuple[list[int], list[int], list[int], list[int]]:
    """One breadth-first walk over every component, each from its smallest
    vertex, with a FIFO queue over the neighbor-sorted rows.

    Returns each vertex's component label (components numbered by smallest
    vertex) and depth parity; the edges in discovery order, each listed when
    its first end leaves the queue; and where each component's edges start in
    that order, followed by the order's length, so component i's edges are
    order[starts[i] : starts[i + 1]]."""
    adjacency = g.adjacency
    label = [-1] * g.vertex_count
    side = [0] * g.vertex_count
    left = [False] * g.vertex_count  # v has left the queue
    order: list[int] = []
    starts: list[int] = []
    for start in range(g.vertex_count):
        if label[start] != -1:
            continue
        count = len(starts)
        starts.append(len(order))
        label[start] = count
        queue = [start]
        for v in queue:  # the list grows as it is read: a FIFO queue
            left[v] = True
            parity = side[v] ^ 1
            for w, e in adjacency[v]:
                if not left[w]:  # v is the first end of e to leave
                    order.append(e)
                    if label[w] == -1:
                        label[w] = count
                        side[w] = parity
                        queue.append(w)
    starts.append(len(order))
    return label, side, order, starts


def _component_parts(label: list[int], count: int) -> list[range] | list[list[int]]:
    """Each component's vertices in increasing order, from _walk's labels and
    component count; a connected graph's one part is range(n)."""
    if count == 1:
        return [range(len(label))]
    parts: list[list[int]] = [[] for _ in range(count)]
    for v, c in enumerate(label):
        parts[c].append(v)
    return parts


def _induced(g: Graph, part, edges) -> tuple[Graph, list[int] | range]:
    """The component of g on part (its vertices, increasing) and edges (its
    parent edge ids), re-indexed from 0, and its parent edge ids, increasing:
    for connected_components, repair's F3 fallback and the debug checkers.
    A component that covers g is g itself, with identity ids and no copy.

    The parent's adjacency is validated and neighbor-sorted, and local labels
    keep the parent's vertex and edge order, so it is relabelled, not rebuilt."""
    if len(part) == g.vertex_count:
        return g, range(g.edge_count)
    adjacency = g.adjacency
    local = {v: i for i, v in enumerate(part)}
    ids = sorted(edges)
    local_edge = {e: i for i, e in enumerate(ids)}
    pairs = tuple([(local[u], local[v]) for u, v in map(g.edges.__getitem__, ids)])
    rows = tuple([tuple([(local[w], local_edge[e]) for w, e in adjacency[v]]) for v in part])
    return Graph(len(part), pairs, rows), ids


def connected_components(g: Graph) -> list[ComponentView]:
    """Components ordered by smallest parent vertex; maps are index-sorted.

    A connected graph is returned as its own only component (identity maps),
    with no copy built."""
    label, _, order, starts = _walk(g)
    views: list[ComponentView] = []
    for part, a, b in zip(_component_parts(label, len(starts) - 1), starts, starts[1:]):
        comp, ids = _induced(g, part, order[a:b])
        views.append(ComponentView(comp, tuple(part), tuple(ids)))
    return views


def is_connected(g: Graph) -> bool:
    return len(_walk(g)[3]) <= 2  # at most one component start


def _two_colors(g: Graph, edges, side: list[int]) -> bool:
    """True iff each of the given edges of g joins the two sides of side."""
    return all(side[u] != side[v] for u, v in map(g.edges.__getitem__, edges))


def is_complete_bipartite_dd(g: Graph, d: int) -> bool:
    """True iff g is (isomorphic to) the complete bipartite graph with d+d vertices.

    Decided structurally: d-regular, 2d vertices, bipartite. Completeness of the
    cross edges then follows from the counts. Rejects disconnected input.
    """
    _, side, _, starts = _walk(g)
    if len(starts) > 2:
        raise GraphError("disconnected", "is_complete_bipartite_dd requires a connected graph")
    if d < 1 or g.vertex_count != 2 * d:
        return False
    if any(g.degree(v) != d for v in range(g.vertex_count)):
        return False
    return _two_colors(g, range(g.edge_count), side) and sum(side) == d  # parts of size d and d


def g_family_witness(g: Graph) -> int | None:
    """Smallest edge uv with N(u) ∪ N(v) covering all vertices, in a d-regular
    graph on 2d vertices; None if the graph is not of that shape.

    A non-None result certifies membership in the family the solver must
    special-case before running greedy + repair.
    """
    return _covering_edge(g, range(g.vertex_count), range(g.edge_count))


def _covering_edge(g: Graph, part, edges) -> int | None:
    """g_family_witness of the component of g on part (its vertices) and
    edges (its edge ids), in g's ids."""
    n = len(part)
    if n == 0 or n % 2 != 0:
        return None
    if any(g.degree(v) != n // 2 for v in part):
        return None
    for idx in sorted(edges):
        u, v = g.edges[idx]
        if len(set(g.neighbors(u)) | set(g.neighbors(v))) == n:
            return idx
    return None


def bfs_edge_order(g: Graph) -> list[int]:
    """Edges in breadth-first discovery order from the smallest vertex of each
    component; deterministic (adjacency is neighbor-sorted)."""
    return _walk(g)[2]
