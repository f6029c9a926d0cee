"""Exact minimum color counts for small graphs via backtracking.

Search runs over edges in a fixed breadth-first order with the standard
symmetry break (an edge may open at most one fresh color). Partial classes
are pruned incrementally:

* semistrong: a class is abandoned as soon as some class edge has both
  endpoints with a second neighbor among the class vertices (monotone, so
  the prune is sound; at a full assignment the check is exact),
* strong / relaxed(s,t): per-edge counters of same-colored 1- and
  2-neighbors against the s/t caps.

Budgets are wall-clock and/or node counts; node budgets make timeouts
reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .coloring import Coloring
from .graph import Graph, bfs_edge_order
from .neighborhood import neighborhoods
from .verify import verify_relaxed, verify_semistrong, verify_strong

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
        self.g = g
        n = g.vertex_count
        self.partner = [[-1] * n for _ in range(k + 1)]  # class vertex -> matched partner
        self.cnt = [[0] * n for _ in range(k + 1)]  # class vertex -> neighbors inside class

    def try_assign(self, e: int, c: int):
        g = self.g
        u, v = g.edges[e]
        partner = self.partner[c]
        cnt = self.cnt[c]
        if partner[u] != -1 or partner[v] != -1:
            return None
        bumped: list[int] = []
        ok = True
        cu = 1
        cv = 1
        for w, _ in g.adjacency[u]:
            if partner[w] != -1:
                cu += 1 if w != v else 0
                cnt[w] += 1
                bumped.append(w)
                if cnt[w] >= 2 and cnt[partner[w]] >= 2:
                    ok = False
                    break
        if ok:
            for w, _ in g.adjacency[v]:
                if partner[w] != -1:
                    cv += 1 if w != u else 0
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
        u, v = self.g.edges[e]
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

    def __init__(self, g: Graph, s: int, t: int):
        self.s = s
        self.t = t
        m = g.edge_count
        self.colors = [0] * m
        self.same1 = [0] * m
        self.same2 = [0] * m
        nbs = neighborhoods(g)
        self.n1 = [sorted(nb.n1) for nb in nbs]
        self.n2 = [sorted(nb.n2) for nb in nbs]

    def try_assign(self, e: int, c: int):
        colors = self.colors
        c1 = 0
        for f in self.n1[e]:
            if colors[f] == c:
                c1 += 1
                if c1 > self.s or self.same1[f] + 1 > self.s:
                    return None
        c2 = 0
        for f in self.n2[e]:
            if colors[f] == c:
                c2 += 1
                if c2 > self.t or self.same2[f] + 1 > self.t:
                    return None
        colors[e] = c
        self.same1[e] = c1
        self.same2[e] = c2
        for f in self.n1[e]:
            if colors[f] == c and f != e:
                self.same1[f] += 1
        for f in self.n2[e]:
            if colors[f] == c:
                self.same2[f] += 1
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


def _search(g: Graph, mode: str, k: int, clock: _Clock, s: int, t: int) -> list[int] | None:
    """Complete DFS; returns a color list or None when refuted. Raises
    _BudgetExceeded when out of budget.

    The search state lives in per-position arrays instead of the call
    stack, so long graphs do not hit the interpreter's recursion limit.
    Position pos tries colors from next_color[pos] up to one past the largest
    color used before it, ticking the clock once per try.
    """
    order = bfs_edge_order(g)
    m = g.edge_count
    colors = [0] * m
    if m == 0:
        return colors
    if mode == "semistrong":
        state = _SemistrongState(g, k)
    else:
        state = _RelaxedState(g, 0 if mode == "strong" else s, 0 if mode == "strong" else t)
    tick, try_assign, undo = clock.tick, state.try_assign, state.undo
    next_color = [1] * m
    max_used = [0] * (m + 1)  # largest color among the edges before each position
    tokens: list = [None] * m
    pos = 0
    while True:
        e = order[pos]
        limit = min(k, max_used[pos] + 1)
        c = next_color[pos]
        token = None
        while c <= limit and token is None:
            tick()
            token = try_assign(e, c)
            c += 1
        if token is not None:
            colors[e] = c - 1
            if pos + 1 == m:
                return colors
            next_color[pos] = c
            tokens[pos] = token
            max_used[pos + 1] = max_used[pos] if c <= max_used[pos] else c - 1
            pos += 1
            next_color[pos] = 1
            continue
        if pos == 0:
            return None
        pos -= 1
        colors[order[pos]] = 0
        undo(tokens[pos])


def _verify_certificate(g: Graph, mode: str, coloring: Coloring, s: int, t: int) -> bool:
    if mode == "semistrong":
        return verify_semistrong(g, coloring).ok
    if mode == "strong":
        return verify_strong(g, coloring).ok
    return verify_relaxed(g, coloring, s, t).ok


def feasibility(
    g: Graph, mode: str, k: int, budget: Budget | None = None, s: int = 0, t: int = 0
) -> FeasibilityResult:
    """Decide whether a valid k-coloring exists; 'unsat' certifies a completed
    refutation, 'timeout' means the search ran out of budget."""
    _check_mode(mode, s, t)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    clock = _Clock(budget)
    return _feasibility(g, mode, k, clock, s, t)


def _feasibility(g: Graph, mode: str, k: int, clock: _Clock, s: int, t: int) -> FeasibilityResult:
    start_nodes = clock.nodes
    try:
        colors = _search(g, mode, k, clock, s, t)
    except _BudgetExceeded:
        return FeasibilityResult("timeout", None, clock.nodes - start_nodes)
    if colors is None:
        return FeasibilityResult("unsat", None, clock.nodes - start_nodes)
    cert = Coloring(tuple(colors), k)
    if not _verify_certificate(g, mode, cert, s, t):
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
    timed_out = False
    for k in range(1, max_colors + 1):
        res = _feasibility(g, mode, k, clock, s, t)
        if res.status == "sat":
            return ExactResult(k, res.coloring, "timeout" if timed_out else "exhausted", clock.nodes)
        if res.status == "timeout":
            timed_out = True
            if clock.max_nodes is not None and clock.nodes > clock.max_nodes:
                break
            if clock.deadline is not None and time.monotonic() > clock.deadline:
                break
    return ExactResult(None, None, "timeout" if timed_out else "exhausted", clock.nodes)
