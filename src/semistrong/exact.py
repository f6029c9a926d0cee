"""Exact minimum color counts for small graphs via backtracking.

The search is fail-first. At each step it colors, among the uncolored edges
in N1 ∪ N2 of the colored ones, the edge with the most colors known not to
fit, and it ends a branch as soon as an edge has none left. Colors obey the
standard symmetry break (an edge may open at most one fresh color). Partial
classes are checked incrementally, by the mode's state with one probe rule:
``fits(e, c)`` says whether edge e may join class c and changes nothing;
``assign(e, c)``, called only after fits said yes, puts it there and returns
a token; ``undo(token)`` takes it out again, restoring the state exactly.

* semistrong: a class is abandoned as soon as some class edge has both
  endpoints with a second neighbor among the class vertices (monotone, so
  the prune is sound; at a full assignment the check is exact). Per-class,
  per-vertex counters answer each probe in O(1): how many class vertices
  each vertex sees, and how many reasons bar it from being an endpoint (it
  is a class vertex, a common neighbor of a class edge's two ends, or next
  to a class vertex whose partner already has a second class neighbor).
  A placement updates them in O(Δ), and undoing it reverses them exactly.
* strong / relaxed(s,t): per-edge counters of same-colored 1- and
  2-neighbors against the s/t caps.

Both checks only get stricter as edges are added, and a fresh color always
fits an empty class, so an edge with no fitting color stays stuck in every
extension: ending the branch there loses no coloring. Classes in different
components never meet, so refutation and symmetry are per component.

``exact_index`` walks the color count top-down, from a count that a greedy
strong coloring always meets, to one less than the colors each found
coloring used, and stops at the first refutation; every count and class
search read one layout, built once per graph. Before it searches at k it
tries a counting bound: some class of a k-coloring has q = ⌈m/k⌉ edges, and
every mode is hereditary (a subset of a valid class is valid), so when no
valid class of q edges exists, k is refuted without the search.

Budgets are wall-clock and/or node counts; a node is one probe of a color
on an edge near the last placed one, one color tried on the chosen edge, or
one edge tried in the class of the counting bound, so node budgets make
timeouts reproducible: a node budget b times out at exactly b + 1 nodes, and
the deadline is read every 1,024 nodes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import NamedTuple

from .coloring import Coloring
from .graph import Graph, bfs_edge_order, max_degree
from .neighborhood import rings
from .verify import certify_mode

MODES = ("semistrong", "strong", "relaxed")


@dataclass(frozen=True)
class Budget:
    """Caps on search nodes and wall-clock seconds; None is no cap, and a cap
    below 0 (or NaN) is a ValueError."""

    max_seconds: float | None = None
    max_nodes: int | None = None

    def __post_init__(self):
        for name in ("max_seconds", "max_nodes"):
            value = getattr(self, name)
            if value is not None and not value >= 0:
                raise ValueError(f"{name} must be >= 0 or None, got {value}")


class _BudgetExceeded(Exception):
    pass


class _Clock:
    """The budget of a run. ``nodes`` is the count so far; the search keeps
    its own count and calls ``check`` only when it reaches ``stop(nodes)``."""

    def __init__(self, budget: Budget | None):
        self.nodes = 0
        self.deadline = None
        self.max_nodes = None
        if budget is not None:
            self.max_nodes = budget.max_nodes
            if budget.max_seconds is not None:
                self.deadline = time.monotonic() + budget.max_seconds

    def stop(self, nodes: int) -> int:
        """The next count to check at: one past the node budget, or the next
        multiple of 1024 when there is a deadline; -1, never reached, with
        neither."""
        stops = []
        if self.max_nodes is not None:
            stops.append(max(self.max_nodes, nodes) + 1)
        if self.deadline is not None:
            stops.append((nodes // 1024 + 1) * 1024)
        return min(stops, default=-1)

    def check(self, nodes: int) -> int:
        """Record the count, raise _BudgetExceeded when the budget is spent,
        and return the next count to check at."""
        self.nodes = nodes
        if self.max_nodes is not None and nodes > self.max_nodes:
            raise _BudgetExceeded
        if self.deadline is not None and nodes % 1024 == 0 and time.monotonic() > self.deadline:
            raise _BudgetExceeded
        return self.stop(nodes)


@dataclass(frozen=True)
class FeasibilityResult:
    status: str  # 'sat' | 'unsat' | 'timeout'
    coloring: Coloring | None
    nodes: int


@dataclass(frozen=True)
class ExactResult:
    value: int | None  # None when infeasible within max_colors, or no coloring found before a timeout
    certificate: Coloring | None
    proof: str  # 'exhausted' | 'timeout'
    nodes: int


def _check_mode(mode: str, s: int, t: int):
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if s < 0 or t < 0:
        raise ValueError(f"s,t must be >= 0, got ({s},{t})")


class _SemistrongState:
    """Per-class, per-vertex counters that answer a probe in O(1).

    For each class c and vertex x: partner[c][x] is x's partner in the class
    matching, -1 when x is not a class vertex; sees[c][x] counts the class
    vertices adjacent to x; poison[c][x] counts the reasons x cannot be an
    endpoint of a new class edge: x is a class vertex, x is a common neighbor
    of a class edge's two ends, or x is next to a class vertex w whose
    partner has a second class neighbor, so w must keep its partner as its
    only one. ``fits`` reads two counters, ``assign`` and ``undo`` move them
    in O(Δ).
    """

    def __init__(self, g: Graph, k: int, layout: _Layout):
        self.edges = g.edges
        self.nbrs, self.common = layout.nbrs, layout.common
        n = g.vertex_count
        self.partner = [[-1] * n for _ in range(k + 1)]
        self.sees = [[0] * n for _ in range(k + 1)]
        self.poison = [[0] * n for _ in range(k + 1)]

    def fits(self, e: int, c: int) -> bool:
        """Whether edge e can join class c, without changing the state.

        Edge uv fits class c when neither end is poisoned and one end sees no
        class vertex: that end has degree 1 among the class vertices, and each
        class vertex w next to the other end gets a second class neighbor,
        which breaks w's class edge only when w's partner has a second class
        neighbor already or uv's end is next to w's partner too; either way
        that end is poisoned.
        """
        u, v = self.edges[e]
        poison = self.poison[c]
        if poison[u] or poison[v]:
            return False
        sees = self.sees[c]
        return not (sees[u] and sees[v])

    def assign(self, e: int, c: int):
        """Put edge e, which fits class c, in it; return the undo token."""
        u, v = self.edges[e]
        poison = self.poison[c]
        sees = self.sees[c]
        if sees[v]:
            u, v = v, u
        # now v sees no class vertex, so only u's class neighbors can get a
        # second class neighbor and doom their partners
        partner = self.partner[c]
        nbrs = self.nbrs
        partner[u] = v
        partner[v] = u
        poison[u] += 1
        poison[v] += 1
        for x in self.common[e]:
            poison[x] += 1
        for x in nbrs[v]:
            sees[x] += 1
        if sees[u] == 1:
            for x in nbrs[u]:
                sees[x] += 1
            return (e, c, ())
        doom = [v]
        for x in nbrs[u]:
            s = sees[x] + 1
            sees[x] = s
            if s == 2 and partner[x] != -1:
                doom.append(partner[x])
        for w in doom:
            for x in nbrs[w]:
                poison[x] += 1
        return (e, c, doom)

    def undo(self, token):
        e, c, doom = token
        u, v = self.edges[e]
        partner = self.partner[c]
        sees = self.sees[c]
        poison = self.poison[c]
        nbrs = self.nbrs
        for w in doom:
            for x in nbrs[w]:
                poison[x] -= 1
        for x in nbrs[u]:
            sees[x] -= 1
        for x in nbrs[v]:
            sees[x] -= 1
        for x in self.common[e]:
            poison[x] -= 1
        poison[u] -= 1
        poison[v] -= 1
        partner[u] = -1
        partner[v] = -1


class _RelaxedState:
    """Per-edge same-colored 1-/2-neighbor counters against the (s,t) caps;
    ``fits``, ``assign`` and ``undo`` each walk e's N1 and N2 at most once."""

    def __init__(self, n1: list[list[int]], n2: list[list[int]], s: int, t: int):
        self.s = s
        self.t = t
        self.n1 = n1
        self.n2 = n2
        m = len(n1)
        self.colors = [0] * m
        self.same1 = [0] * m
        self.same2 = [0] * m

    def fits(self, e: int, c: int) -> bool:
        """Whether edge e can take color c: no edge near e, e included, goes
        over its cap. Changes nothing."""
        colors = self.colors
        c1 = 0
        for f in self.n1[e]:
            if colors[f] == c:
                c1 += 1
                if c1 > self.s or self.same1[f] + 1 > self.s:
                    return False
        c2 = 0
        for f in self.n2[e]:
            if colors[f] == c:
                c2 += 1
                if c2 > self.t or self.same2[f] + 1 > self.t:
                    return False
        return True

    def assign(self, e: int, c: int):
        """Give edge e, which fits color c, that color; return the undo token."""
        colors = self.colors
        c1 = 0
        for f in self.n1[e]:
            if colors[f] == c:
                c1 += 1
                self.same1[f] += 1
        c2 = 0
        for f in self.n2[e]:
            if colors[f] == c:
                c2 += 1
                self.same2[f] += 1
        colors[e] = c
        self.same1[e] = c1
        self.same2[e] = c2
        return (e, c)

    def undo(self, token):
        e, c = token
        colors = self.colors
        colors[e] = 0
        self.same1[e] = 0
        self.same2[e] = 0
        for f in self.n1[e]:
            if colors[f] == c:
                self.same1[f] -= 1
        for f in self.n2[e]:
            if colors[f] == c:
                self.same2[f] -= 1


class _Layout(NamedTuple):
    """Built once per graph, one ``rings`` walk per edge, and read by every
    count and ``_has_class``: the BFS edge order and ranks, N1 ∪ N2 (search),
    N1 and N2 (relaxed state), neighbors and common neighbors (semistrong)."""

    order: list[int]
    rank: list[int]
    near: list[list[int]]
    n1: list[list[int]]
    n2: list[list[int]]
    nbrs: list[list[int]]
    common: list[list[int]]


def _layout(g: Graph) -> _Layout:
    order = bfs_edge_order(g)
    rank = [0] * len(order)
    for r, e in enumerate(order):
        rank[e] = r
    walks = [rings(g, e) for e in range(g.edge_count)]
    n1, n2, common = ([walk[i] for walk in walks] for i in range(3))
    nbrs = [[w for w, _ in row] for row in g.adjacency]
    return _Layout(order, rank, [a + b for a, b, _ in walks], n1, n2, nbrs, common)


def _state(g: Graph, mode: str, k: int, s: int, t: int, layout: _Layout):
    """An empty k-class state for the mode; strong is relaxed(0,0)."""
    if mode == "semistrong":
        return _SemistrongState(g, k, layout)
    if mode == "strong":
        s = t = 0
    return _RelaxedState(layout.n1, layout.n2, s, t)


def _search(g: Graph, mode: str, k: int, clock: _Clock, s: int, t: int, layout: _Layout) -> list[int] | None:
    """Complete fail-first DFS; returns a color list or None when refuted.
    Raises _BudgetExceeded when out of budget.

    The candidates are the uncolored edges with a colored edge in N1 ∪ N2,
    and each edge keeps the set of colors known not to fit it. Placing edge
    e in color c changes class c only, so the search then probes c, with the
    state's read-only ``fits``, on e's uncolored N1 ∪ N2 and nowhere else.
    (In semistrong mode, and in relaxed mode with a cap above zero, a
    placement can also block c a little further out. There the known set
    is part of the blocked one, which costs pruning but not soundness.)

    Each position colors the candidate with the most known blocked colors,
    ties going to the lower breadth-first rank; with no candidates (the
    start of a connected component) it colors the first uncolored edge in
    that order (color 1 only), and k is refuted when that edge fails. It
    tries the colors 1..min(k, max_used + 1) not known blocked, max_used the
    largest so far in the edge's component, in increasing order,
    so an edge with every color blocked ends the branch at once (forward
    checking). The candidates wait in a heap keyed by (blocked count, rank);
    a stale entry is skipped when it comes out, and the heap is rebuilt from
    the candidates when it holds more than 2m entries. A position so costs
    one probe per uncolored edge near the placed one and one heap step per
    changed key, never a pass over all candidates.

    ``nodes`` counts one per probe and one per color tried, in a local
    variable; the clock is called only when the count reaches its next stop
    (one past the node budget, or the next deadline checkpoint), so a
    search without a budget never calls it. The state lives in per-position
    arrays instead of the call stack, so long graphs do not hit the
    interpreter's recursion limit.
    """
    m = g.edge_count
    colors = [0] * m
    if m == 0:
        return colors
    state = _state(g, mode, k, s, t, layout)
    order, rank, near = layout.order, layout.rank, layout.near
    fits, assign, undo = state.fits, state.assign, state.undo
    nodes = clock.nodes
    stop = clock.stop(nodes)
    blocked = [0] * m  # bit c set: color c is known not to fit the edge
    nblocked = [0] * m
    touched = [0] * m  # colored edges in each edge's N1 ∪ N2
    heap: list[int] = []  # (k - nblocked) * m + rank of the candidates, stale entries too
    chosen = [0] * m
    tried = [0] * m  # the last color tried at each position
    tokens: list = [None] * m
    flips: list = [()] * m  # the edges whose placement at each position blocked its color
    max_used = [0] * (m + 1)  # largest color in the component in hand before each position
    pos = 0
    choosing = True
    while True:
        if choosing:
            if len(heap) > 2 * m:
                heap = [(k - nblocked[f]) * m + rank[f] for f in range(m) if touched[f] and not colors[f]]
                heapify(heap)
            e = -1
            while heap:
                key = heappop(heap)
                f = order[key % m]
                if touched[f] and not colors[f] and k - key // m == nblocked[f]:
                    e = f
                    break
            if e < 0:
                # with no candidates the colored edges are whole components, which
                # come first in breadth-first order, so rank pos is the next edge
                e = order[pos]
                max_used[pos] = 0  # a component's colors rename on their own
            chosen[pos] = e
            tried[pos] = 0
            choosing = False
        e = chosen[pos]
        known = blocked[e]
        limit = min(k, max_used[pos] + 1)
        c = tried[pos]
        token = None
        while token is None and c < limit:
            c += 1
            if not known >> c & 1:
                nodes += 1
                if nodes == stop:
                    stop = clock.check(nodes)
                if fits(e, c):
                    token = assign(e, c)
        tried[pos] = c
        if token is not None:
            tokens[pos] = token
            colors[e] = c
            if pos + 1 == m:
                clock.nodes = nodes
                return colors
            max_used[pos + 1] = c if c > max_used[pos] else max_used[pos]
            bit = 1 << c
            flipped = []
            for f in near[e]:
                if colors[f]:
                    continue
                touched[f] += 1
                if not blocked[f] & bit:
                    nodes += 1
                    if nodes == stop:
                        stop = clock.check(nodes)
                    if not fits(f, c):
                        blocked[f] |= bit
                        nblocked[f] += 1
                        flipped.append(f)
                        heappush(heap, (k - nblocked[f]) * m + rank[f])
                        continue
                if touched[f] == 1:
                    heappush(heap, (k - nblocked[f]) * m + rank[f])
            flips[pos] = flipped or ()
            pos += 1
            choosing = True
            continue
        if not touched[e]:  # e opened a component: refuted
            clock.nodes = nodes
            return None
        # no color left at pos: put its edge back among the candidates
        heappush(heap, (k - nblocked[e]) * m + rank[e])
        pos -= 1
        e = chosen[pos]
        bit = 1 << colors[e]
        for f in near[e]:
            if not colors[f]:
                touched[f] -= 1
        for f in flips[pos]:
            blocked[f] ^= bit
            nblocked[f] -= 1
            if touched[f]:
                heappush(heap, (k - nblocked[f]) * m + rank[f])
        colors[e] = 0
        undo(tokens[pos])


def _has_class(g: Graph, mode: str, q: int, clock: _Clock, s: int, t: int, layout: _Layout) -> bool:
    """Whether some valid class has q edges. Raises _BudgetExceeded when out
    of budget.

    A DFS over the edges in index order puts each edge in the class when it
    fits and then leaves it out, and ends a branch once the edges left cannot
    bring the class to q. Every mode's validity is hereditary, so the search
    needs only classes that stay valid on the way, and a subset of q edges
    exists as soon as any larger valid class does. It counts one node per
    probe on the clock shared with ``_search``.
    """
    m = g.edge_count
    state = _state(g, mode, 1, s, t, layout)
    fits, assign, undo = state.fits, state.assign, state.undo
    nodes = clock.nodes
    stop = clock.stop(nodes)
    tokens: list = []  # the class so far, as assign tokens in edge order
    e = 0  # the next edge to decide
    while len(tokens) < q:
        if len(tokens) + (m - e) < q:
            if not tokens:
                clock.nodes = nodes
                return False
            token = tokens.pop()
            undo(token)
            e = token[0] + 1  # the branch that leaves the edge out
            continue
        nodes += 1
        if nodes == stop:
            stop = clock.check(nodes)
        if fits(e, 1):
            tokens.append(assign(e, 1))
        e += 1
    clock.nodes = nodes
    return True


def feasibility(
    g: Graph, mode: str, k: int, budget: Budget | None = None, s: int = 0, t: int = 0
) -> FeasibilityResult:
    """Decide whether a valid k-coloring exists; 'unsat' certifies a completed
    refutation, 'timeout' means the search ran out of budget."""
    _check_mode(mode, s, t)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    clock = _Clock(budget)
    return _feasibility(g, mode, k, clock, s, t, _layout(g))


def _feasibility(g: Graph, mode: str, k: int, clock: _Clock, s: int, t: int, layout: _Layout) -> FeasibilityResult:
    start_nodes = clock.nodes
    try:
        colors = _search(g, mode, k, clock, s, t, layout)
    except _BudgetExceeded:
        return FeasibilityResult("timeout", None, clock.nodes - start_nodes)
    if colors is None:
        return FeasibilityResult("unsat", None, clock.nodes - start_nodes)
    cert = Coloring(tuple(colors), k)
    if not certify_mode(g, cert, mode, s, t)[0].ok:
        raise AssertionError(f"search produced an invalid {mode} certificate; this is a bug")
    return FeasibilityResult("sat", cert, clock.nodes - start_nodes)


def exact_index(
    g: Graph,
    mode: str,
    max_colors: int,
    budget: Budget | None = None,
    s: int = 0,
    t: int = 0,
) -> ExactResult:
    """Smallest k <= max_colors admitting a valid coloring.

    The walk goes top-down. It starts at min(max_colors, m, 2Δ(Δ−1)+1):
    every edge strong-conflicts with at most 2Δ(Δ−1) others, so a greedy
    strong coloring, valid in every mode, meets that count, and so does
    giving each edge its own color. After each ``sat`` it searches again at
    one less than the colors that coloring used, and it stops at the first
    refutation, which refutes every smaller count too. Before that search
    at k, when the coloring's largest class has fewer than q = ⌈m/k⌉ edges,
    it looks for one valid class of q edges: with none, k is refuted
    without the search. (A coloring whose largest class already has q
    edges shows that such a class exists, so the bound is skipped then.)
    The certificate is the first coloring the search finds at the value
    itself: a search at a larger count walks the same tree, with excursions
    into the extra colors, so its first coloring that uses only ``value``
    colors is that one. ``nodes`` is summed over every count and class
    search tried.

    proof='exhausted' certifies that value - 1 was refuted by a complete
    search, of the (value - 1)-colorings or of the classes of
    ⌈m/(value - 1)⌉ edges; value=None then means max_colors itself was
    refuted. On proof='timeout' the value and certificate are the best upper
    bound found before the budget ran out, or None when there was none.
    """
    _check_mode(mode, s, t)
    if max_colors < 1:
        raise ValueError(f"max_colors must be >= 1, got {max_colors}")
    m = g.edge_count
    if m == 0:
        return ExactResult(0, Coloring((), 0), "exhausted", 0)
    clock = _Clock(budget)
    layout = _layout(g)
    delta = max_degree(g)
    k = min(max_colors, m, 2 * delta * (delta - 1) + 1)
    best: Coloring | None = None
    proof = "exhausted"
    while True:
        res = _feasibility(g, mode, k, clock, s, t, layout)
        if res.status == "timeout":
            proof = "timeout"
        if res.status != "sat":
            break
        best = res.coloring
        k = max(best.colors) - 1
        if k < 1:
            break
        q = -(-m // k)
        if max(map(len, best.classes().values())) < q:
            try:
                if not _has_class(g, mode, q, clock, s, t, layout):
                    break
            except _BudgetExceeded:
                proof = "timeout"
                break
    if best is None:
        return ExactResult(None, None, proof, clock.nodes)
    value = max(best.colors)
    return ExactResult(value, Coloring(best.colors, value), proof, clock.nodes)
