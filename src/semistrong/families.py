"""Deterministic generators for the named test-bed graphs plus seeded
random bounded-degree instances.

Vertex layouts are documented per family so edge indices are reproducible.
"""

from __future__ import annotations

import random

from .graph import Graph, build_graph


def path(n: int) -> Graph:
    """P_n: vertices 0..n-1, edge i joins i and i+1."""
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    """C_n: vertices 0..n-1, edge i joins i and (i+1) mod n."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: left part 0..a-1, right part a..a+b-1; edges in left-major order."""
    if a < 1 or b < 1:
        raise ValueError(f"complete_bipartite needs a,b >= 1, got ({a},{b})")
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def prism(n: int) -> Graph:
    """n-gonal prism (C_n x K_2): outer ring 0..n-1, inner ring n..2n-1,
    edges: outer cycle, inner cycle, then rungs (i, n+i)."""
    if n < 3:
        raise ValueError(f"prism needs n >= 3, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    return build_graph(2 * n, edges)


def hypercube(n: int) -> Graph:
    """n-cube on vertices 0..2^n-1; edges flip single bits, enumerated by
    (vertex asc, bit asc)."""
    if n < 1:
        raise ValueError(f"hypercube needs n >= 1, got {n}")
    edges = []
    for v in range(1 << n):
        for bit in range(n):
            w = v ^ (1 << bit)
            if v < w:
                edges.append((v, w))
    return build_graph(1 << n, edges)


def blowup(cycle_len: int, part_size: int) -> Graph:
    """Cycle blowup: independent parts V_0..V_{k-1} of the given size, complete
    join between consecutive parts (indices mod k). V_i = {part_size*i, ...}."""
    if cycle_len < 3 or part_size < 1:
        raise ValueError(f"blowup needs cycle_len >= 3 and part_size >= 1, got ({cycle_len},{part_size})")
    edges = []
    for i in range(cycle_len):
        j = (i + 1) % cycle_len
        for a in range(part_size):
            for b in range(part_size):
                edges.append((part_size * i + a, part_size * j + b))
    return build_graph(cycle_len * part_size, edges)


def c7_blowup() -> Graph:
    """The 4-regular 14-vertex graph obtained by doubling every vertex of C_7."""
    return blowup(7, 2)


def h_graph(d: int) -> Graph:
    """Two copies of K_{d-1,d} joined by one edge between a degree-(d-1)
    vertex of each copy. Copy layout follows complete_bipartite; the bridge
    joins the first right-part vertex of each copy and is the last edge."""
    if d < 2:
        raise ValueError(f"h_graph needs d >= 2, got {d}")
    base = complete_bipartite(d - 1, d)
    off = base.vertex_count
    edges = list(base.edges)
    edges += [(u + off, v + off) for u, v in base.edges]
    edges.append((d - 1, off + d - 1))  # right-part vertices have degree d-1 before the bridge
    return build_graph(2 * off, edges)


# random_max_degree shuffles all n(n-1)/2 vertex pairs (45 MiB at this
# cap), so larger n is rejected rather than left to exhaust memory
RANDOM_MAX_DEGREE_MAX_N = 1000


def random_max_degree(n: int, d: int, seed: int) -> Graph:
    """Seeded uniform edge addition under a hard degree cap.

    All vertex pairs are shuffled once with the seed and added greedily while
    both endpoints stay below the cap; identical seeds give identical graphs.
    n is at most RANDOM_MAX_DEGREE_MAX_N.
    """
    if n < 1 or d < 0:
        raise ValueError(f"random_max_degree needs n >= 1 and d >= 0, got ({n},{d})")
    if n > RANDOM_MAX_DEGREE_MAX_N:
        raise ValueError(
            f"random_max_degree builds all n(n-1)/2 vertex pairs; n = {n} is above its cap of {RANDOM_MAX_DEGREE_MAX_N}"
        )
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    deg = [0] * n
    edges = []
    for u, v in pairs:
        if deg[u] < d and deg[v] < d:
            deg[u] += 1
            deg[v] += 1
            edges.append((u, v))
    return build_graph(n, edges)


# per family: the builder, its parameter names, and its vertex and edge
# counts from the parameters alone, so a caller can refuse a size before
# building it. min(n, 64): 2^64 is past any limit, and a huge n must not build
# a huge int; max(..., 0): negative parameters are the builder's own error.
_FAMILIES = {
    "path": (path, ("n",), lambda n: n, lambda n: n - 1),
    "cycle": (cycle, ("n",), lambda n: n, lambda n: n),
    "complete_bipartite": (complete_bipartite, ("a", "b"), lambda a, b: a + b, lambda a, b: max(a, 0) * max(b, 0)),
    "prism": (prism, ("n",), lambda n: 2 * n, lambda n: 3 * n),
    "hypercube": (hypercube, ("n",), lambda n: 2 ** min(n, 64), lambda n: (k := min(n, 64)) * 2 ** (k - 1) if n >= 1 else 0),
    "blowup": (blowup, ("cycle_len", "part_size"), lambda cycle_len, part_size: cycle_len * max(part_size, 0),
               lambda cycle_len, part_size: cycle_len * max(part_size, 0) ** 2),
    "c7_blowup": (c7_blowup, (), lambda: 14, lambda: 28),
    "h_graph": (h_graph, ("d",), lambda d: 4 * d - 2, lambda d: 2 * d * (d - 1) + 1),
    # an upper bound: the degree cap may leave pairs unused
    "random_max_degree": (random_max_degree, ("n", "d", "seed"), lambda n, d, seed: n,
                          lambda n, d, seed: n * min(n - 1, d) // 2),
}


def family_names() -> list[str]:
    return sorted(_FAMILIES)


def family_params(family: str) -> tuple[str, ...]:
    """The parameter names ``make`` takes for the family, in order."""
    return _FAMILIES[family][1]


def make(family: str, **params) -> Graph:
    """Dispatch by family name; rejects unknown names and parameter sets."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; known: {', '.join(family_names())}")
    fn, argnames, _, _ = _FAMILIES[family]
    missing = [a for a in argnames if a not in params]
    extra = [k for k in params if k not in argnames]
    if missing or extra:
        raise ValueError(f"family {family!r} takes {argnames}; missing {missing}, unexpected {extra}")
    return fn(**{a: params[a] for a in argnames})


def vertex_count(family: str, **params) -> int:
    """The vertex count of make(family, **params) for valid parameters,
    computed without building the graph."""
    return _FAMILIES[family][2](**params)


def edge_count(family: str, **params) -> int:
    """The edge count of make(family, **params) for valid parameters (at most
    that many for random_max_degree), computed without building the graph."""
    return _FAMILIES[family][3](**params)
