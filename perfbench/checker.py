"""Independent checker for the colorings the benchmark receives.

Works from the definitions alone and shares no code with ``semistrong``:

* a semistrong matching is a matching in which every edge keeps an endpoint
  of degree 1 in the subgraph induced by the matching's endpoints;
* a coloring is (s, t)-relaxed when every edge has at most s same-colored
  edges at distance 1 (sharing a vertex) and at most t at distance 2 (not
  sharing a vertex, but joined by an edge);
* each connected component must meet the paper's color bound for its kind.

Every function returns a list of problems; an empty list means the check
passed.
"""

from __future__ import annotations

from collections import defaultdict


def _adjacency(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _classes(colors) -> dict[int, list[int]]:
    out: dict[int, list[int]] = defaultdict(list)
    for e, c in enumerate(colors):
        out[c].append(e)
    return out


def shape_problems(n: int, edges, colors) -> list[str]:
    """Colors are positive integers, one per edge of a simple graph."""
    problems = []
    if len(colors) != len(edges):
        problems.append(f"{len(colors)} colors for {len(edges)} edges")
    if any(not isinstance(c, int) or isinstance(c, bool) or c < 1 for c in colors):
        problems.append("a color is not a positive integer")
    keys = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            problems.append(f"edge ({u},{v}) is not an edge of a simple graph on {n} vertices")
        keys.add((min(u, v), max(u, v)))
    if len(keys) != len(edges):
        problems.append("repeated edge")
    return problems


def semistrong_problems(n: int, edges, colors) -> list[str]:
    """Every color class is a semistrong matching."""
    adj = _adjacency(n, edges)
    problems = []
    for c, members in sorted(_classes(colors).items()):
        ends: set[int] = set()
        for e in members:
            u, v = edges[e]
            if u in ends or v in ends:
                problems.append(f"color {c}: edge {e} shares a vertex with another edge of its class")
                break
            ends.update((u, v))
        else:
            for e in members:
                u, v = edges[e]
                if len(adj[u] & ends) != 1 and len(adj[v] & ends) != 1:
                    problems.append(f"color {c}: edge {e} has no endpoint of induced degree 1")
    return problems


def relaxed_problems(n: int, edges, colors, s: int = 0, t: int = 1) -> list[str]:
    """At most s same-colored edges at distance 1 and t at distance 2."""
    adj = _adjacency(n, edges)
    problems = []
    for c, members in sorted(_classes(colors).items()):
        at: dict[int, list[int]] = defaultdict(list)  # vertex -> class edges ending there
        for e in members:
            for x in edges[e]:
                at[x].append(e)
        for e in members:
            u, v = edges[e]
            near = {f for x in (u, v) for f in at[x] if f != e}
            far = {f for x in (u, v) for w in adj[x] for f in at[w] if f != e} - near
            if len(near) > s or len(far) > t:
                problems.append(
                    f"color {c}: edge {e} has {len(near)} same-colored edges at distance 1 "
                    f"and {len(far)} at distance 2, allowed ({s},{t})"
                )
    return problems


def components(n: int, edges) -> list[list[int]]:
    """Edge index lists of the connected components that have edges."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    groups: dict[int, list[int]] = defaultdict(list)
    for e, (u, _) in enumerate(edges):
        groups[find(u)].append(e)
    return list(groups.values())


def paper_bound(edges, mode: str) -> tuple[str, int]:
    """(kind, bound) for one connected graph in 'semistrong' or 'relaxed01' mode.

    K_{d,d} needs d^2 colors semistrong and ceil(d^2/2) relaxed; paths and
    cycles need at most 3, except C4 (4 semistrong, 2 relaxed) and C7 (4 in
    both modes); every other graph of maximum degree D >= 3, the triangular
    prism included, gets at most D^2 - 1.
    """
    deg: dict[int, int] = defaultdict(int)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    n, m, delta = len(deg), len(edges), max(deg.values())
    if delta == 1:
        return "K2", 1
    if delta == 2:
        if m < n:
            return "path", min(m, 3)
        if n == 4:
            return "C4", 4 if mode == "semistrong" else 2
        return f"C{n}", 4 if n == 7 else 3
    if n == 2 * delta and m == delta * delta and _bipartite(edges):
        return f"K{delta},{delta}", delta * delta if mode == "semistrong" else (delta * delta + 1) // 2
    return f"max degree {delta}", delta * delta - 1


def _bipartite(edges) -> bool:
    adj: dict[int, list[int]] = defaultdict(list)
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    side: dict[int, int] = {}
    for root in adj:
        if root in side:
            continue
        side[root] = 0
        stack = [root]
        while stack:
            x = stack.pop()
            for w in adj[x]:
                if w not in side:
                    side[w] = 1 - side[x]
                    stack.append(w)
                elif side[w] == side[x]:
                    return False
    return True


def bound_problems(n: int, edges, colors, mode: str) -> list[str]:
    """Each component uses no more colors than the paper's bound for it."""
    problems = []
    for comp in components(n, edges):
        kind, bound = paper_bound([edges[e] for e in comp], mode)
        used = len({colors[e] for e in comp})
        if used > bound:
            problems.append(f"{kind} component at edge {comp[0]} uses {used} colors, bound {bound}")
    return problems


def coloring_problems(n: int, edges, colors, mode: str) -> list[str]:
    """Everything a solver output must satisfy in the given mode. In
    semistrong mode the paper's colorings are also (0,1)-relaxed, so both
    notions are required; relaxed01 mode requires the relaxed notion."""
    problems = shape_problems(n, edges, colors)
    if problems:
        return problems
    if mode == "semistrong":
        problems += semistrong_problems(n, edges, colors)
    problems += relaxed_problems(n, edges, colors, 0, 1)
    return problems + bound_problems(n, edges, colors, mode)
