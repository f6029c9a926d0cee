"""Seeded input generators for the benchmark workloads.

Standard library only and independent of ``semistrong``: a change to the
program's own generators cannot change what the benchmark feeds it. Every
generator runs in time linear in the edges it makes and takes its random
source as an argument, so one seed gives one input.

A graph is ``(n, edges)`` with vertices ``0..n-1`` and edges as ``(u, v)``
pairs.
"""

from __future__ import annotations

import random


def bounded_degree(n: int, d: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    """Up to m distinct edges drawn uniformly between vertices still below
    degree d. Open vertices sit in a swap-remove array, so each draw is O(1)
    and the whole graph O(m); the attempt cap keeps the last, hardest draws
    from running on when few open vertices remain."""
    deg = [0] * n
    open_v = list(range(n))
    pos = list(range(n))
    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    attempts = 0
    while len(edges) < m and len(open_v) >= 2 and attempts < 20 * m:
        attempts += 1
        u = open_v[rng.randrange(len(open_v))]
        v = open_v[rng.randrange(len(open_v))]
        key = (u, v) if u < v else (v, u)
        if u == v or key in seen:
            continue
        seen.add(key)
        edges.append(key)
        for x in key:
            deg[x] += 1
            if deg[x] == d:
                i, last = pos[x], open_v[-1]
                open_v[i], pos[last] = last, i
                open_v.pop()
    return edges


def small_connected(n: int, cap: int, extra: int, rng: random.Random) -> list[tuple[int, int]]:
    """A random tree on n vertices under the degree cap, plus up to `extra`
    random chords under the same cap; connected by construction."""
    deg = [0] * n
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for v in range(1, n):
        candidates = [u for u in range(v) if deg[u] < cap] or list(range(v))
        u = rng.choice(candidates)
        edges.append((u, v))
        seen.add((u, v))
        deg[u] += 1
        deg[v] += 1
    attempts = 4 * extra
    while extra and attempts:
        attempts -= 1
        u, v = rng.randrange(n), rng.randrange(n)
        key = (u, v) if u < v else (v, u)
        if u == v or key in seen or deg[u] >= cap or deg[v] >= cap:
            continue
        seen.add(key)
        edges.append(key)
        deg[u] += 1
        deg[v] += 1
        extra -= 1
    return edges


def path(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def cycle(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def complete_bipartite(a: int, b: int) -> list[tuple[int, int]]:
    """Left part 0..a-1, right part a..a+b-1."""
    return [(i, a + j) for i in range(a) for j in range(b)]


def prism(k: int) -> list[tuple[int, int]]:
    """C_k x K_2: outer cycle, inner cycle, then the rungs."""
    return cycle(k) + [(k + u, k + v) for u, v in cycle(k)] + [(i, k + i) for i in range(k)]


def hypercube(k: int) -> list[tuple[int, int]]:
    return [(v, v ^ (1 << b)) for v in range(1 << k) for b in range(k) if v < v ^ (1 << b)]


def cycle_blowup(length: int, part: int) -> list[tuple[int, int]]:
    """Each cycle vertex i becomes the independent set part*i .. part*i+part-1;
    consecutive sets are completely joined."""
    return [
        (part * i + a, part * ((i + 1) % length) + b)
        for i in range(length)
        for a in range(part)
        for b in range(part)
    ]


def h_graph(d: int) -> list[tuple[int, int]]:
    """Two copies of K_{d-1,d} bridged between a degree-(d-1) vertex of each."""
    base = complete_bipartite(d - 1, d)
    off = 2 * d - 1
    return base + [(u + off, v + off) for u, v in base] + [(d - 1, off + d - 1)]


def vertex_count(edges: list[tuple[int, int]]) -> int:
    return 1 + max(max(e) for e in edges)


def disjoint_union(parts: list[list[tuple[int, int]]], rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Place the parts side by side, then shuffle vertex labels, edge order
    and the endpoint order inside each edge."""
    edges: list[tuple[int, int]] = []
    n = 0
    for part in parts:
        edges += [(u + n, v + n) for u, v in part]
        n += vertex_count(part)
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[u], label[v]) if rng.random() < 0.5 else (label[v], label[u]) for u, v in edges]
    rng.shuffle(edges)
    return n, edges


def edge_list_text(n: int, edges: list[tuple[int, int]]) -> str:
    return "\n".join([f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]) + "\n"


def graph6_text(n: int, edges: list[tuple[int, int]]) -> str:
    """graph6 line for n <= 62: size byte, then the upper triangle column by
    column, six bits to a character, offset 63."""
    if not 0 <= n <= 62:
        raise ValueError(f"graph6 here handles n <= 62, got {n}")
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chars = [chr(63 + int("".join(map(str, bits[k : k + 6])), 2)) for k in range(0, len(bits), 6)]
    return chr(63 + n) + "".join(chars)
