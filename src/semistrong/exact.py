"""Exact minimum color counts for small graphs via backtracking.

The search is fail-first. At each step it colors, among the uncolored edges
in N1 ∪ N2 of the colored ones, the edge with the most colors known not to
fit, and it ends a branch as soon as an edge has none left. Colors obey the
standard symmetry break (an edge may open at most one fresh color). Partial
classes are checked incrementally:

* semistrong: a class is abandoned as soon as some class edge has both
  endpoints with a second neighbor among the class vertices (monotone, so
  the prune is sound; at a full assignment the check is exact),
* strong / relaxed(s,t): per-edge counters of same-colored 1- and
  2-neighbors against the s/t caps.

Both checks only get stricter as edges are added, and a fresh color always
fits an empty class, so an edge with no fitting color stays stuck in every
extension: ending the branch there loses no coloring.

Budgets are wall-clock and/or node counts; a node is one probe of a color
on an edge near the last placed one, or one color tried on the chosen edge,
so node budgets make timeouts reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import NamedTuple

from .coloring import Coloring
from .graph import Graph, bfs_edge_order
from .neighborhood import rings
from .verify import verify_mode

MODES = ("semistrong", "strong", "relaxed")


@dataclass(frozen=True)
class Budget:
    max_seconds: float | None = None
    max_nodes: int | None = None


class _BudgetExceeded(Exception):
    pass


class _Clock:
    def __init__(self, budget: Budget | None):
        self.nodes = 0
        self.deadline = None
        self.max_nodes = None
        if budget is not None:
            self.max_nodes = budget.max_nodes
            if budget.max_seconds is not None:
                self.deadline = time.monotonic() + budget.max_seconds

    def tick(self):
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise _BudgetExceeded
        if self.deadline is not None and self.nodes % 1024 == 0 and time.monotonic() > self.deadline:
            raise _BudgetExceeded


@dataclass(frozen=True)
class FeasibilityResult:
    status: str  # 'sat' | 'unsat' | 'timeout'
    coloring: Coloring | None
    nodes: int


@dataclass(frozen=True)
class ExactResult:
    value: int | None  # None when infeasible within max_colors (or unknown on timeout)
    certificate: Coloring | None
    proof: str  # 'exhausted' | 'timeout'
    nodes: int


def _check_mode(mode: str, s: int, t: int):
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if s < 0 or t < 0:
        raise ValueError(f"s,t must be >= 0, got ({s},{t})")


class _SemistrongState:
    """Incremental per-class matching + free-endpoint bookkeeping."""

    def __init__(self, g: Graph, k: int):
        self.edges = g.edges
        self.adjacency = g.adjacency
        n = g.vertex_count
        self.partner = [[-1] * n for _ in range(k + 1)]  # class vertex -> matched partner
        self.cnt = [[0] * n for _ in range(k + 1)]  # class vertex -> neighbors inside class

    def fits(self, e: int, c: int) -> bool:
        """try_assign's verdict, without changing the state.

        If both endpoints see class vertices, the new edge has no endpoint
        of degree 1. Otherwise each class vertex w seen from the one side
        gets its second class neighbor, so w's class edge fails exactly when
        w's partner already has two, or has one and is seen from that side
        too (a triangle).
        """
        u, v = self.edges[e]
        partner = self.partner[c]
        if partner[u] != -1 or partner[v] != -1:
            return False
        adjacency = self.adjacency
        seen = [w for w, _ in adjacency[u] if partner[w] != -1]
        if not seen:
            seen = [w for w, _ in adjacency[v] if partner[w] != -1]
        elif any(partner[w] != -1 for w, _ in adjacency[v]):
            return False
        cnt = self.cnt[c]
        for w in seen:
            p = partner[w]
            if cnt[p] >= 2 or p in seen:
                return False
        return True

    def try_assign(self, e: int, c: int):
        u, v = self.edges[e]
        partner = self.partner[c]
        cnt = self.cnt[c]
        if partner[u] != -1 or partner[v] != -1:
            return None
        bumped: list[int] = []
        ok = True
        cu = 1
        cv = 1
        for w, _ in self.adjacency[u]:
            if partner[w] != -1:
                cu += 1
                cnt[w] += 1
                bumped.append(w)
                if cnt[w] >= 2 and cnt[partner[w]] >= 2:
                    ok = False
                    break
        if ok:
            for w, _ in self.adjacency[v]:
                if partner[w] != -1:
                    cv += 1
                    cnt[w] += 1
                    bumped.append(w)
                    if cnt[w] >= 2 and cnt[partner[w]] >= 2:
                        ok = False
                        break
        if ok and cu >= 2 and cv >= 2:
            ok = False
        if not ok:
            for w in bumped:
                cnt[w] -= 1
            return None
        partner[u] = v
        partner[v] = u
        cnt[u] = cu
        cnt[v] = cv
        return (e, c, bumped)

    def undo(self, token):
        e, c, bumped = token
        u, v = self.edges[e]
        partner = self.partner[c]
        cnt = self.cnt[c]
        for w in bumped:
            cnt[w] -= 1
        partner[u] = -1
        partner[v] = -1
        cnt[u] = 0
        cnt[v] = 0


class _RelaxedState:
    """Per-edge same-colored 1-/2-neighbor counters against the (s,t) caps."""

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
        """try_assign's verdict, without changing the state."""
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

    def try_assign(self, e: int, c: int):
        if not self.fits(e, c):
            return None
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
    """What every search on one graph shares: the breadth-first edge order,
    each edge's rank in it and each edge's N1 ∪ N2 list; the strong and
    relaxed modes also keep N1 and N2 apart for their state."""

    order: list[int]
    rank: list[int]
    near: list[list[int]]
    n1: list[list[int]] | None
    n2: list[list[int]] | None


def _layout(g: Graph, mode: str) -> _Layout:
    order = bfs_edge_order(g)
    rank = [0] * len(order)
    for r, e in enumerate(order):
        rank[e] = r
    rows = (rings(g.edges, g.adjacency, e) for e in range(g.edge_count))
    if mode == "semistrong":
        return _Layout(order, rank, [n1 + list(dict.fromkeys(reach)) for n1, reach in rows], None, None)
    n1: list[list[int]] = []
    n2: list[list[int]] = []
    for a, reach in rows:
        n1.append(a)
        n2.append(list(dict.fromkeys(reach)))
    return _Layout(order, rank, [a + b for a, b in zip(n1, n2)], n1, n2)


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
    that order. It tries the colors 1..min(k, max_used + 1) that are not
    known blocked, in increasing order, so an edge with every color blocked
    ends the branch at once (forward checking). The candidates wait in a
    heap keyed by (blocked count, rank); a stale entry is skipped when it
    comes out, and the heap is rebuilt from the candidates when it holds
    more than 2m entries. A position so costs one probe per uncolored edge
    near the placed one and one heap step per changed key, never a pass
    over all candidates.

    The clock ticks once per probe and once per color tried, and ``nodes``
    counts those ticks. The state lives in per-position arrays instead of
    the call stack, so long graphs do not hit the interpreter's recursion
    limit.
    """
    m = g.edge_count
    colors = [0] * m
    if m == 0:
        return colors
    if mode == "semistrong":
        state = _SemistrongState(g, k)
    else:
        state = _RelaxedState(layout.n1, layout.n2, 0 if mode == "strong" else s, 0 if mode == "strong" else t)
    order, rank, near = layout.order, layout.rank, layout.near
    tick, fits, try_assign, undo = clock.tick, state.fits, state.try_assign, state.undo
    blocked = [0] * m  # bit c set: color c is known not to fit the edge
    nblocked = [0] * m
    touched = [0] * m  # colored edges in each edge's N1 ∪ N2
    heap: list[int] = []  # (k - nblocked) * m + rank of the candidates, stale entries too
    chosen = [0] * m
    tried = [0] * m  # the last color tried at each position
    tokens: list = [None] * m
    flips: list = [()] * m  # the edges whose placement at each position blocked its color
    max_used = [0] * (m + 1)  # largest color among the edges before each position
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
                tick()
                token = try_assign(e, c)
        tried[pos] = c
        if token is not None:
            tokens[pos] = token
            colors[e] = c
            if pos + 1 == m:
                return colors
            max_used[pos + 1] = c if c > max_used[pos] else max_used[pos]
            bit = 1 << c
            flipped = []
            for f in near[e]:
                if colors[f]:
                    continue
                touched[f] += 1
                if not blocked[f] & bit:
                    tick()
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
        # no color left at pos: put its edge back among the candidates
        if touched[e]:
            heappush(heap, (k - nblocked[e]) * m + rank[e])
        if pos == 0:
            return None
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


def feasibility(
    g: Graph, mode: str, k: int, budget: Budget | None = None, s: int = 0, t: int = 0
) -> FeasibilityResult:
    """Decide whether a valid k-coloring exists; 'unsat' certifies a completed
    refutation, 'timeout' means the search ran out of budget."""
    _check_mode(mode, s, t)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    clock = _Clock(budget)
    return _feasibility(g, mode, k, clock, s, t, _layout(g, mode))


def _feasibility(g: Graph, mode: str, k: int, clock: _Clock, s: int, t: int, layout: _Layout) -> FeasibilityResult:
    start_nodes = clock.nodes
    try:
        colors = _search(g, mode, k, clock, s, t, layout)
    except _BudgetExceeded:
        return FeasibilityResult("timeout", None, clock.nodes - start_nodes)
    if colors is None:
        return FeasibilityResult("unsat", None, clock.nodes - start_nodes)
    cert = Coloring(tuple(colors), k)
    if not verify_mode(g, cert, mode, s, t).ok:
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

    proof='exhausted' certifies every smaller k was refuted by complete
    search; proof='timeout' certifies only the upper bound. value=None means
    no k within max_colors worked (a completed infeasible-at-max refutation
    when proof='exhausted').
    """
    _check_mode(mode, s, t)
    if max_colors < 1:
        raise ValueError(f"max_colors must be >= 1, got {max_colors}")
    if g.edge_count == 0:
        return ExactResult(0, Coloring((), 0), "exhausted", 0)
    clock = _Clock(budget)
    layout = _layout(g, mode)
    timed_out = False
    for k in range(1, max_colors + 1):
        res = _feasibility(g, mode, k, clock, s, t, layout)
        if res.status == "sat":
            return ExactResult(k, res.coloring, "timeout" if timed_out else "exhausted", clock.nodes)
        if res.status == "timeout":
            timed_out = True
            if clock.max_nodes is not None and clock.nodes > clock.max_nodes:
                break
            if clock.deadline is not None and time.monotonic() > clock.deadline:
                break
    return ExactResult(None, None, "timeout" if timed_out else "exhausted", clock.nodes)
