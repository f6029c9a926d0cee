"""Naive re-derivations used as independent oracles in tests.

Everything here works straight from the definitions (pairwise enumeration,
induced-subgraph degrees) and deliberately shares no code with the package
paths it is used to check. The two greedy starts at the end are the
exception: they read N2 and the forbidden sets from
neighborhood.compute_neighborhood, which solver.greedy_good_coloring does not
use, and take their edge order from naive_bfs_edge_order. verify_mode
dispatches a verify/exact mode to the package's reference checkers, which
the certify pass that the package itself reads is tested against. The last
helpers build random many-component inputs from the named families and count
the adjacency entries a checker reads.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations

from semistrong import families
from semistrong.coloring import Coloring, from_list
from semistrong.graph import Graph, build_graph
from semistrong.neighborhood import EdgeNeighborhood, PairType, compute_neighborhood
from semistrong.solver import PaletteExhaustedError
from semistrong.verify import VerifyResult, badness, verify_relaxed, verify_semistrong, verify_strong


def edge_distance_class(g: Graph, e: int, f: int) -> int:
    """1 if the edges share a vertex, 2 if disjoint but joined by a common
    incident edge, 3 for anything farther."""
    a = set(g.edges[e])
    b = set(g.edges[f])
    if a & b:
        return 1
    for mid in range(len(g.edges)):
        if mid in (e, f):
            continue
        m = set(g.edges[mid])
        if m & a and m & b:
            return 2
    return 3


def two_neighbors(g: Graph, e: int) -> set[int]:
    return {f for f in range(len(g.edges)) if f != e and edge_distance_class(g, e, f) == 2}


def one_neighbors(g: Graph, e: int) -> set[int]:
    return {f for f in range(len(g.edges)) if f != e and edge_distance_class(g, e, f) == 1}


def cross_edges(g: Graph, e: int, f: int) -> set[tuple[int, int]]:
    """Edges of g joining an endpoint of e to an endpoint of f."""
    u, v = g.edges[e]
    x, y = g.edges[f]
    out = set()
    for a in (u, v):
        for b in (x, y):
            if g.has_edge(a, b):
                out.add((a, b))
    return out


def induced_degrees(g: Graph, edge_ids) -> dict[int, int]:
    verts = set()
    for e in edge_ids:
        verts.update(g.edges[e])
    return {x: sum(1 for w in g.neighbors(x) if w in verts) for x in verts}


def naive_is_matching(g: Graph, edge_ids) -> bool:
    verts: list[int] = []
    for e in edge_ids:
        verts.extend(g.edges[e])
    return len(verts) == len(set(verts))


def naive_is_semistrong(g: Graph, edge_ids) -> bool:
    ids = sorted(set(edge_ids))
    if not naive_is_matching(g, ids):
        return False
    deg = induced_degrees(g, ids)
    return all(deg[g.edges[e][0]] == 1 or deg[g.edges[e][1]] == 1 for e in ids)


def naive_is_induced(g: Graph, edge_ids) -> bool:
    ids = sorted(set(edge_ids))
    if not naive_is_matching(g, ids):
        return False
    deg = induced_degrees(g, ids)
    return all(d == 1 for d in deg.values())


def naive_verify(g: Graph, colors, mode: str, s: int = 0, t: int = 0) -> bool:
    """Check a coloring per definition, pair by pair / class by class."""
    m = len(g.edges)
    if mode in ("semistrong", "strong"):
        check = naive_is_semistrong if mode == "semistrong" else naive_is_induced
        classes: dict[int, list[int]] = {}
        for e in range(m):
            classes.setdefault(colors[e], []).append(e)
        return all(check(g, ids) for ids in classes.values())
    if mode == "relaxed":
        for e in range(m):
            d1 = sum(1 for f in range(m) if f != e and colors[f] == colors[e] and edge_distance_class(g, e, f) == 1)
            d2 = sum(1 for f in range(m) if f != e and colors[f] == colors[e] and edge_distance_class(g, e, f) == 2)
            if d1 > s or d2 > t:
                return False
        return True
    raise ValueError(mode)


def naive_badness(g: Graph, colors) -> tuple[int, int, set[int], set[tuple[int, int]]]:
    m = len(g.edges)
    pairs = {
        (e, f)
        for e, f in combinations(range(m), 2)
        if colors[e] == colors[f] and edge_distance_class(g, e, f) == 2
    }
    bad_edges = set()
    for e in range(m):
        cnt = sum(1 for f in two_neighbors(g, e) if colors[f] == colors[e])
        if cnt >= 2:
            bad_edges.add(e)
    return len(bad_edges), len(pairs), bad_edges, pairs


def verify_mode(g: Graph, c: Coloring, mode: str, s: int = 0, t: int = 0) -> VerifyResult:
    """The checker of a verify/exact mode: semistrong, strong or relaxed(s,t)."""
    if mode == "relaxed":
        return verify_relaxed(g, c, s, t)
    return {"semistrong": verify_semistrong, "strong": verify_strong}[mode](g, c)


def naive_bfs_edge_order(g: Graph) -> list[int]:
    """Breadth-first edge order from the definition: each component from its
    smallest vertex, a FIFO queue of vertices, each row sorted by neighbor
    here, and each edge listed when the first of its ends leaves the queue.
    Reads only g.edges."""
    nbrs: list[set[int]] = [set() for _ in range(g.vertex_count)]
    ids: dict[tuple[int, int], int] = {}
    for e, (u, v) in enumerate(g.edges):
        nbrs[u].add(v)
        nbrs[v].add(u)
        ids[u, v] = ids[v, u] = e
    out: list[int] = []
    reached: set[int] = set()
    left: set[int] = set()  # vertices that have left the queue
    for root in range(g.vertex_count):
        if root in reached:
            continue
        reached.add(root)
        queue = deque([root])
        while queue:
            v = queue.popleft()
            left.add(v)
            for w in sorted(nbrs[v]):
                if w not in left:
                    out.append(ids[v, w])
                if w not in reached:
                    reached.add(w)
                    queue.append(w)
    return out


def counting_identity_sides(g: Graph, e: int) -> int:
    """Sum over the two endpoint neighborhoods of (degree - 1)."""
    u, v = g.edges[e]
    total = 0
    for w in g.neighbors(u):
        if w != v:
            total += g.degree(w) - 1
    for w in g.neighbors(v):
        if w != u:
            total += g.degree(w) - 1
    return total


def has_triangle(g: Graph) -> bool:
    for u, v in g.edges:
        if set(g.neighbors(u)) & set(g.neighbors(v)):
            return True
    return False


def naive_graph6_payload(g: Graph) -> str:
    """graph6 payload from the full upper-triangle bit string, column by
    column, six bits per character, zero-padded."""
    present = {frozenset(e) for e in g.edges}
    bits = [
        1 if frozenset((i, j)) in present else 0
        for j in range(1, g.vertex_count)
        for i in range(j)
    ]
    bits += [0] * (-len(bits) % 6)
    return "".join(
        chr(63 + int("".join(map(str, bits[k : k + 6])), 2)) for k in range(0, len(bits), 6)
    )


def type_class(nb: EdgeNeighborhood, t: PairType) -> frozenset[int]:
    """The 2-neighbors of nb's edge whose pair type is t; a view of nb.type_of
    that only tests need."""
    return frozenset(f for f, tf in nb.type_of.items() if tf is t)


def _greedy_oracle(g: Graph, palette_size: int, contact_aware: bool) -> tuple[Coloring, int]:
    """Greedy in breadth-first order over the forbidden sets and N2 sets of
    compute_neighborhood: the smallest color outside the forbidden set or, contact
    aware, the smallest such color whose colored 2-neighbors number 0, or 1
    with no same-colored 2-neighbor of its own yet, and the smallest color
    outside the forbidden set when none qualifies. Returns the coloring and
    how many edges took that fallback."""
    nbs = [compute_neighborhood(g, e) for e in range(g.edge_count)]
    colors = [0] * g.edge_count
    fallbacks = 0

    def qualifies(e: int, c: int) -> bool:
        near = [f for f in nbs[e].n2 if colors[f] == c]
        return not near or (len(near) == 1 and all(colors[h] != c for h in nbs[near[0]].n2))

    for e in naive_bfs_edge_order(g):
        used = {colors[f] for f in nbs[e].f_set}
        allowed = [c for c in range(1, palette_size + 1) if c not in used]
        if not allowed:
            raise PaletteExhaustedError(e, palette_size)
        if contact_aware:
            fitting = [c for c in allowed if qualifies(e, c)]
            fallbacks += not fitting
            allowed = fitting or allowed
        colors[e] = allowed[0]
    return from_list(colors, palette_size), fallbacks


def smallest_color_start(g: Graph, palette_size: int) -> Coloring:
    """The smallest color outside the forbidden set, edge by edge: a good
    start that leaves most edges bad, so tests hand it to the repair
    engine."""
    return _greedy_oracle(g, palette_size, contact_aware=False)[0]


def contact_greedy(g: Graph, palette_size: int) -> tuple[Coloring, int]:
    """The rule of solver.greedy_good_coloring, re-derived from N2 sets, and
    how many edges fell back to the smallest color outside the forbidden
    set."""
    return _greedy_oracle(g, palette_size, contact_aware=True)


def contact_state(g: Graph, colors) -> tuple[list[int], list[int]]:
    """A good coloring's per-vertex color masks (bit c for color c), and each
    edge's count of same-colored 2-neighbors, recounted from verify.badness."""
    held = [0] * g.vertex_count
    for e, (u, v) in enumerate(g.edges):
        held[u] |= 1 << colors[e]
        held[v] |= 1 << colors[e]
    count = [0] * g.edge_count
    for e, f in badness(g, from_list(colors)).bad_pairs:
        count[e] += 1
        count[f] += 1
    return held, count


def random_union(rng: random.Random) -> Graph:
    """A disjoint union of 0-3 isolated vertices, 0-3 K2s and 2-5 components
    drawn from paths, cycles, K_{3,3}, K_{4,4}, prisms and random graphs of
    max degree 3-5, with vertex labels, edge order and edge orientations
    shuffled."""
    draws = [
        lambda: families.path(rng.randint(3, 9)),
        lambda: families.cycle(rng.randint(3, 9)),
        lambda: families.complete_bipartite(3, 3),
        lambda: families.complete_bipartite(4, 4),
        lambda: families.prism(rng.randint(3, 6)),
        lambda: families.random_max_degree(rng.randint(4, 12), rng.randint(3, 5), rng.randrange(10**6)),
    ]
    parts = [families.path(1)] * rng.randint(0, 3) + [families.path(2)] * rng.randint(0, 3)
    parts += [rng.choice(draws)() for _ in range(rng.randint(2, 5))]
    n = sum(p.vertex_count for p in parts)
    label = list(range(n))
    rng.shuffle(label)
    pairs, offset = [], 0
    for p in parts:
        pairs += [(label[u + offset], label[v + offset]) for u, v in p.edges]
        offset += p.vertex_count
    rng.shuffle(pairs)
    return build_graph(n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs])


def counting_rows(g: Graph) -> tuple[Graph, list[int]]:
    """g with adjacency rows that count the entries iterated out of them."""
    read = [0]

    class Row(tuple):
        def __iter__(self):
            for item in tuple.__iter__(self):
                read[0] += 1
                yield item

    return Graph(g.vertex_count, g.edges, tuple(Row(row) for row in g.adjacency)), read
