"""Greedy good coloring plus a repair engine that drives the bad-edge count
to zero under the lexicographic (kappa1, kappa2) potential.

A *good* coloring keeps every edge's color off its forbidden set; its only
same-colored distance-2 contacts are single-cross-edge (T6) pairs. A *bad*
edge has two or more such contacts.

Greedy colors the edges in breadth-first order and avoids making bad edges:
it takes the smallest color outside the forbidden set whose colored
2-neighbors number 0, or 1 that has no same-colored 2-neighbor yet, and only
when no color qualifies the smallest color outside the forbidden set. Its
state, a _Contacts, keeps per vertex the bitmask of its colors and per edge
its count of same-colored 2-neighbors: O(m) memory. Greedy builds it in
O(Delta) per edge: the masks of the neighbors of the edge's ends, ORed
together in greedy's own loop, give the colors met once and twice or more
around the edge, so a few int operations find the color instead of one trial
per color. When no count exceeds one, the start has no bad edge and is the
component's coloring, and no engine is built.

Otherwise the repair engine removes the bad edges by searching move schemas
in a fixed order:

  S1  recolor the bad edge itself
  S2  recolor a 1-neighbor, then give the bad edge that neighbor's old color
  S4  swap the bad edge's color with a 1-neighbor's
  S3  shift colors along an induced path rooted at the bad edge

These are recolorings of the paper's proof. Every candidate is
exact-checked: it is accepted only if it preserves goodness and strictly
lowers (kappa1, kappa2) lexicographically, so imperfect schema contexts
degrade into skipped candidates, never into bad moves. When no schema yields
a move, repair defers to the exact feasibility search (F3) and records the
event; at the Delta^2 - 1 palette this is never expected to happen. F3 has a
fixed node budget, and running out of it raises EngineInvariantError naming
the bad edges no schema could fix.

The state also keeps the potential: the bad edges, a lazy min-heap over
them and the count of same-colored pairs. Lifting or placing an edge changes
only the counts of its same-colored 2-neighbors, found in O(Delta); tally,
which greedy and the engine share, and lift keep all three, so the engine takes
greedy's state over as it is. S1 and S2 read an edge's free colors off ring
masks as greedy does, S3 the colors of a path's forbidden set off the masks
at its tip, and S2 and S4 take the 1-neighbors from the adjacency. A
candidate is scored by making it and undone when the potential does not fall.

The engine builds an EdgeNeighborhood for an edge only when a stage assert
first asks for it, and keeps it. The heap gives the smallest bad edge. Each
move first tries S1 on it, the first candidate the full search would try;
the bad set is sorted only when that fails, and the sorted list then drives
S1-S4 and the stage asserts.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from . import exact
from .coloring import Coloring, from_list
from .construct import cycle_pattern, g_family_colors, kdd_relaxed_colors, path_pattern
from .graph import (
    Graph,
    GraphError,
    _component_parts,
    _covering_edge,
    _induced,
    _two_colors,
    _walk,
    bfs_edge_order,
    g_family_witness,
    is_connected,
    max_degree,
)
from .neighborhood import EdgeNeighborhood, PairType, compute_neighborhood
from .verify import badness, certify, is_good_coloring, verify_relaxed, verify_semistrong

MODES = ("semistrong", "relaxed01")
MAX_SHIFT_PATH_EDGES = 8
# node budget of the F3 exact search; past it repair fails loudly instead of
# hanging on a large component
F3_MAX_NODES = 1_000_000


class PaletteExhaustedError(ValueError):
    """Greedy ran out of colors; ``edge`` is the stuck edge."""

    def __init__(self, edge: int, palette_size: int):
        super().__init__(f"no color in [1,{palette_size}] is available for edge {edge}")
        self.edge = edge
        self.palette_size = palette_size


class EngineInvariantError(RuntimeError):
    """A proven consequence of schema exhaustion failed; indicates a bug."""


@dataclass(frozen=True)
class MoveProposal:
    assignments: tuple[tuple[int, int], ...]  # (edge, new color), edge-sorted
    schema: str


@dataclass
class ComponentTrace:
    strategy: str  # trivial | delta2 | kdd | g_family | greedy_repair
    vertices: int
    edges: int
    delta: int
    colors_used: int
    exceeds_bound: bool
    moves_by_schema: dict[str, int] = field(default_factory=dict)
    fallback_f3: int = 0
    kappa_trajectory: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class SolveResult:
    coloring: Coloring
    colors_used: int
    mode: str
    trace: list[ComponentTrace]
    certificates: dict[str, bool]
    kappa: tuple[int, int]  # (kappa1, kappa2) of the coloring


def greedy_good_coloring(g: Graph, palette_size: int) -> Coloring:
    """Color edges in breadth-first order with the smallest color outside the
    forbidden set that makes no bad edge: one whose colored 2-neighbors
    number 0, or 1 where that 2-neighbor has no same-colored 2-neighbor yet.
    When no color qualifies, the smallest color outside the forbidden set.
    Raises PaletteExhaustedError when an edge has no color left (only
    possible when some |f_set| >= palette_size)."""
    return _greedy(_Contacts(g, palette_size), bfs_edge_order(g)).to_coloring()


class _Contacts:
    """A good coloring of g, possibly partial (color 0, count 0), with every
    edge's count of same-colored 2-neighbors: the state greedy builds and
    repair moves.

    ``held[x]`` is a bitmask of the colors at vertex x, bit c for color c:
    its only per-vertex color index, exact after every place and lift.
    Goodness makes every same-colored 2-neighbor of e = uv a T6 contact, so
    it is the one edge of e's color at exactly one w of e's ring, the
    neighbors of u and v other than u and v; a scan of w's row, at most Delta
    edges, finds it. ``contacts``, ``place`` and ``lift`` read one color over
    the ring, in O(Delta); greedy and _free_colors walk it for every color at
    once. ``hot`` is greedy's own mask, which nothing else reads.

    One state serves a whole solve: ``part``, ``edges`` and ``k`` are the
    vertices, edge ids and palette of the component in hand (all of g until
    solve takes up a component), and greedy, the engine and check read only
    those. Its potential (kappa1, kappa2) is kept beside the counts: ``bad``,
    its edges of count two or more; ``heap``, every bad edge and maybe stale
    entries; and ``pairs``, its count of same-colored pairs. ``tally`` alone
    counts a placed edge's contacts in, and ``lift`` counts them out.
    """

    def __init__(self, g: Graph, k: int):
        self.g = g
        self.colors = [0] * g.edge_count
        self.count = [0] * g.edge_count
        self.held = [0] * g.vertex_count
        self.hot = [0] * g.vertex_count
        self.take(range(g.vertex_count), range(g.edge_count), k)

    def take(self, part, edges, k: int) -> None:
        """Take up the uncolored component on part with edge ids edges and
        palette k, with a potential of its own: no bad edge and no pair."""
        self.part, self.edges, self.k = part, edges, k
        self.bad: set[int] = set()
        self.heap: list[int] = []
        self.pairs = 0

    @classmethod
    def of(cls, g: Graph, c: Coloring) -> _Contacts:
        """The state of a good coloring c."""
        state = cls(g, c.k)
        for e, color in enumerate(c.colors):
            state.place(e, color, state.contacts(e, color))
        return state

    def to_coloring(self) -> Coloring:
        return from_list(self.colors, self.k)

    def place(self, e: int, c: int, contacts) -> None:
        """Color the uncolored edge e with c, outside its forbidden set, given
        its colored 2-neighbors of color c as contacts found them."""
        u, v = self.g.edges[e]
        self.colors[e] = c
        self.held[u] |= 1 << c
        self.held[v] |= 1 << c
        self.tally(e, contacts)

    def tally(self, e: int, contacts) -> None:
        """Count the contacts of e, just colored, into the potential."""
        count, bad, heap = self.count, self.bad, self.heap
        count[e] = n = len(contacts)
        self.pairs += n
        if n >= 2:
            bad.add(e)
            heapq.heappush(heap, e)
        for f in contacts:  # counts move by one: f turns bad on reaching two
            count[f] += 1
            if count[f] == 2:
                bad.add(f)
                heapq.heappush(heap, f)

    def contacts(self, e: int, c: int) -> list[int] | None:
        """e's colored 2-neighbors of color c, or None when c is in e's
        forbidden set: at e's ends, or on an edge joined to e twice."""
        u, v = self.g.edges[e]
        held, bit = self.held, 1 << c
        if (held[u] | held[v]) & bit:
            return None
        colors, adjacency = self.colors, self.g.adjacency
        found = []
        for a, b in ((u, v), (v, u)):
            for w, _ in adjacency[a]:
                if w != b and held[w] & bit:
                    for _, f in adjacency[w]:  # the edge of color c at w
                        if colors[f] == c:
                            break
                    if f in found:
                        return None
                    found.append(f)
        return found

    def lift(self, e: int) -> list[int]:
        """Uncolor e; return the contacts that place puts it back with."""
        u, v = self.g.edges[e]
        c = self.colors[e]
        self.held[u] ^= 1 << c
        self.held[v] ^= 1 << c
        self.colors[e] = self.count[e] = 0
        found = self.contacts(e, c)
        self.pairs -= len(found)
        count, bad = self.count, self.bad
        bad.discard(e)
        for f in found:
            count[f] -= 1
            if count[f] == 1:
                bad.discard(f)
        return found

    def potential(self) -> tuple[int, int]:
        """(kappa1, kappa2) of the component in hand."""
        return (len(self.bad), self.pairs)

    def bad_edges(self) -> list[int]:
        return sorted(self.bad)

    def smallest_bad(self) -> int | None:
        """The smallest bad edge, dropping stale heap tops; None when there
        is no bad edge. The heap is rebuilt from the bad set once stale
        entries make it longer than twice the component's edge count."""
        heap, bad = self.heap, self.bad
        if len(heap) > 2 * len(self.edges):
            heap[:] = bad
            heapq.heapify(heap)
        while heap and heap[0] not in bad:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def check(self, what: str) -> None:
        """Hold the component in hand, on its own Graph, to the reference
        checkers: its coloring to is_good_coloring, ``count``, ``bad`` and
        ``pairs`` to badness, ``heap`` to ``bad`` and ``held`` to a state
        built from scratch; raise EngineInvariantError."""
        comp, ids = _induced(self.g, self.part, self.edges)
        coloring = from_list([self.colors[e] for e in ids], self.k)
        if not is_good_coloring(comp, coloring):
            raise EngineInvariantError(f"{what} is not a good coloring")
        report = badness(comp, coloring)
        recount = [0] * comp.edge_count
        for e, f in report.bad_pairs:
            recount[e] += 1
            recount[f] += 1
        held = _Contacts.of(comp, coloring).held
        if recount != [self.count[e] for e in ids] or held != [self.held[v] for v in self.part]:
            raise EngineInvariantError(f"{what}: the contact counts or color masks disagree with a recount")
        bad = {ids[e] for e in report.bad_edges}
        if self.bad != bad or not bad <= set(self.heap) or self.pairs != report.kappa2:
            raise EngineInvariantError(f"{what}: the bad set, its heap or the pair count disagree with a recount")


def _greedy(state: _Contacts, order: list[int]) -> _Contacts:
    """Place the edges in order, the component in hand's breadth-first edge
    order, as greedy_good_coloring does from the palette [1, state.k], into
    state; return state.

    ``hot[x]`` is the part of ``held[x]`` whose edge already has a
    same-colored 2-neighbor. A color at neither end of e met nowhere on e's
    ring, which greedy walks itself, has no contact; met once, its one contact
    is the edge at the neighbor holding it, and qualifies unless hot there. So
    the smallest qualifying color is the lowest zero bit of one int, and
    placing an edge costs O(Delta). Only when no color qualifies does greedy
    walk the colors outside e's ends, where one met twice or more is two
    contacts or one edge met twice, which only contacts tells apart. Greedy
    writes e's color and held bits; tally counts its contacts, if any."""
    palette_size = state.k
    if palette_size < 1:
        raise ValueError(f"palette_size must be >= 1, got {palette_size}")
    contacts, tally = state.contacts, state.tally
    edges, adjacency, colors, held, hot = state.g.edges, state.g.adjacency, state.colors, state.held, state.hot
    top = 1 << palette_size
    for e in order:
        u, v = edges[e]
        once = twice = warm = 0
        # u and v are on each other's rows; their colors are taken anyway
        for w, _ in adjacency[u]:
            mask = held[w]
            twice |= once & mask
            once |= mask
            warm |= hot[w]
        for w, _ in adjacency[v]:
            mask = held[w]
            twice |= once & mask
            once |= mask
            warm |= hot[w]
        y = held[u] | held[v] | 1 | twice | (once & warm)
        bit = ~y & (y + 1)  # y's lowest zero bit: the smallest color that qualifies
        found = None
        if bit > top:
            # none does: the smallest color outside the forbidden set, met on
            # the ring once (a hot contact) or more (ask contacts)
            y = held[u] | held[v] | 1
            while found is None:
                bit = ~y & (y + 1)
                if bit > top:
                    raise PaletteExhaustedError(e, palette_size)
                if not twice & bit:
                    break
                found = contacts(e, bit.bit_length() - 1)
                y |= bit
        c = bit.bit_length() - 1
        if found is None:
            # c met once on the ring is one contact, met nowhere none
            found = contacts(e, c) if once & bit else ()
        colors[e] = c
        held[u] |= bit
        held[v] |= bit
        if found:
            tally(e, found)
            hot[u] |= bit
            hot[v] |= bit
            for f in found:
                a, b = edges[f]
                hot[a] |= bit
                hot[b] |= bit
    return state


class _Engine:
    """The repair search over the component in hand of a _Contacts state,
    which it takes over and moves. The state keeps the potential, so
    ``try_move`` scores a candidate by making it and undoes a rejected one,
    in O(Delta) per moved edge either way. The engine keeps only search
    state: Delta, whether the stage asserts run, and the neighborhoods they
    read.
    """

    def __init__(self, state: _Contacts, debug: bool = False):
        self.g = g = state.g
        self.state = state
        self.colors = state.colors
        self._nbs: dict[int, EdgeNeighborhood] = {}
        self.k = state.k
        self.debug = debug
        self.delta = max(map(g.degree, state.part), default=0)
        self.enforce_invariants = self.delta >= 3 and self.k == self.delta * self.delta - 1

    def nb(self, e: int) -> EdgeNeighborhood:
        """Edge e's full neighborhood, built on first use and kept."""
        nb = self._nbs.get(e)
        if nb is None:
            nb = self._nbs[e] = compute_neighborhood(self.g, e)
        return nb

    def try_move(self, assignments: dict[int, int], schema: str) -> MoveProposal | None:
        """Make the move if it keeps the coloring good and strictly lowers
        (kappa1, kappa2), and return it; otherwise return None with the
        state exactly as before. A no-op or a color off the palette is
        rejected at once. Otherwise every moved edge is lifted and then placed
        in its new color unless the edges colored so far forbid it, which
        rolls the move back. So every coloring on the way is good, and no
        vertex ever has one color on two edges."""
        colors, state = self.colors, self.state
        x = {e: c for e, c in assignments.items() if colors[e] != c}
        if not x or not all(1 <= c <= self.k for c in x.values()):
            return None
        before = state.potential()
        lifted = [(e, colors[e], state.lift(e)) for e in x]
        placed = []
        for e, c in x.items():
            contacts = state.contacts(e, c)
            if contacts is None:
                break
            state.place(e, c, contacts)
            placed.append(e)
        else:
            if state.potential() < before:
                move = MoveProposal(tuple(sorted(assignments.items())), schema)
                if self.debug:
                    state.check(f"move {move.schema} {move.assignments}")
                return move
        for e in reversed(placed):
            state.lift(e)
        for e, c, contacts in reversed(lifted):
            state.place(e, c, contacts)
        return None

    # -- schema candidate generators --------------------------------------

    def _colors_outside(self, mask: int):
        """The colors in [1, k] whose bit mask lacks, in increasing order."""
        free = ~mask & ((2 << self.k) - 2)
        while free:
            bit = free & -free
            yield bit.bit_length() - 1
            free ^= bit

    def _free_colors(self, e: int):
        """The colors outside e's forbidden set on at most one 2-neighbor of e,
        all T6 contacts, in increasing order: the colors in [1, k] neither at
        e's ends nor met twice on e's ring, which is one contact each or none.
        A color met twice is two contacts or an edge joined to e twice."""
        g, held = self.g, self.state.held
        u, v = g.edges[e]
        once = twice = 0
        for w, _ in g.adjacency[u] + g.adjacency[v]:
            twice |= once & held[w]
            once |= held[w]
        return self._colors_outside(held[u] | held[v] | twice)

    def _n1(self, e: int) -> list[int]:
        """e's 1-neighbors, the edges at its ends, in increasing order."""
        return sorted(h for x in self.g.edges[e] for _, h in self.g.adjacency[x] if h != e)

    def _s1_candidates(self, e: int):
        for alpha in self._free_colors(e):
            yield {e: alpha}

    def _s2_candidates(self, e: int):
        for f in self._n1(e):
            alpha1 = self.colors[f]
            # f's own color is forbidden to it, so it is never offered
            for alpha in self._free_colors(f):
                yield {f: alpha, e: alpha1}

    def _s4_candidates(self, e: int):
        for h in self._n1(e):
            yield {e: self.colors[h], h: self.colors[e]}

    def _s3_candidates(self, e: int):
        u, v = self.g.edges[e]
        for path in ([u, v], [v, u]):
            yield from self._s3_grow(path, [e])

    def _s3_grow(self, path: list[int], edges: list[int]):
        g, held, tip, end = self.g, self.state.held, path[-1], path[-2]
        if len(edges) >= 2:
            # the colors of m_set(path), exact on an induced path: those at
            # its tip and its tip's neighbors, but the previous edge's at end
            used = held[tip] | held[end] & ~(1 << self.colors[edges[-2]])
            for w, _ in g.adjacency[tip]:
                if w != end:
                    used |= held[w]
            free = list(self._colors_outside(used))
            if free:
                for alpha in free:
                    move = {edges[i]: self.colors[edges[i + 1]] for i in range(len(edges) - 1)}
                    move[edges[-1]] = alpha
                    yield move
                return  # a non-tight forbidden set stops the growth here
        if len(edges) >= MAX_SHIFT_PATH_EDGES:
            return
        for w, nxt in g.adjacency[tip]:  # rows are neighbor-sorted
            if w in path or any(g.has_edge(w, x) for x in path[:-1]):
                continue
            yield from self._s3_grow(path + [w], edges + [nxt])

    # -- schema-exhaustion invariants --------------------------------------

    def _fail(self, e: int, what: str):
        raise EngineInvariantError(
            f"bad edge {e}: {what} must hold once the shallow schemas are exhausted "
            f"(component n={len(self.state.part)} m={len(self.state.edges)}, palette {self.k})"
        )

    def _assert_stage1(self, bad: list[int]):
        """Consequences of S1 exhaustion for every bad edge."""
        g = self.g
        for e in bad:
            nb = self.nb(e)
            same = [f for f in nb.n2 if self.colors[f] == self.colors[e]]
            if len(same) != 2 or any(f not in nb.t6 for f in same):
                self._fail(e, "exactly two same-colored contacts, both single-cross")
            if len(nb.t6) % 2 != 0:
                self._fail(e, "an even number of single-cross contacts")
            f_colors = [self.colors[f] for f in nb.f_set]
            if len(set(f_colors)) != len(f_colors):
                self._fail(e, "all forbidden-set edges distinctly colored")
            if set(f_colors) & {self.colors[f] for f in nb.t6}:
                self._fail(e, "forbidden-set colors disjoint from single-cross colors")
            if nb.c_delta:
                self._fail(e, "no triangle 1-neighbors")
            if len(nb.f_set) != self.k - len(nb.t6) // 2:
                self._fail(e, "forbidden set of size palette minus half the T6 count")
            for w in set(g.neighbors(nb.u)) | set(g.neighbors(nb.v)):
                if g.degree(w) != self.delta:
                    self._fail(e, "all endpoint neighbors of maximum degree")

    def _assert_stage2(self, bad: list[int]):
        """Additional consequences of S2 exhaustion."""
        for e in bad:
            nb = self.nb(e)
            same = [f for f in nb.n2 if self.colors[f] == self.colors[e]]
            if sum(1 for f in same if f in nb.n2_u) != 1 or sum(1 for f in same if f in nb.n2_v) != 1:
                self._fail(e, "one same-colored contact on each side")
            if any(tf is PairType.T5 for tf in nb.type_of.values()):
                self._fail(e, "no two-cross contacts through the edge's own endpoints")

    def _assert_stage3(self, bad: list[int]):
        """Additional consequences of S4 exhaustion."""
        for e in bad:
            nb = self.nb(e)
            t6u = nb.t6 & nb.n2_u
            t6v = nb.t6 & nb.n2_v
            if len(t6u) != len(t6v):
                self._fail(e, "side-balanced single-cross contacts")
            if len({self.colors[f] for f in t6u}) != len(t6u):
                self._fail(e, "distinct colors on u-side single-cross contacts")
            if len({self.colors[f] for f in t6v}) != len(t6v):
                self._fail(e, "distinct colors on v-side single-cross contacts")
            for side in (nb.n2_u, nb.n2_v):
                region = nb.n1 | side
                if len(region) != self.k or len({self.colors[f] for f in region}) != self.k:
                    self._fail(e, "a full rainbow on N(e) plus either side's 2-neighbors")

    # -- search -------------------------------------------------------------

    def ladder(self):
        """(schema, candidates at a bad edge, assert once it has no move) in search order."""
        return [
            ("S1", self._s1_candidates, self._assert_stage1),
            ("S2", self._s2_candidates, self._assert_stage2),
            ("S4", self._s4_candidates, self._assert_stage3),
            ("S3", self._s3_candidates, None),
        ]

    def find_move(self) -> MoveProposal | None:
        """Make the first accepted candidate of the first schema that has
        one, and return it; None, with nothing changed, when none has."""
        first = self.state.smallest_bad()
        if first is None:
            return None
        # the full search below would try these candidates first
        for assignments in self._s1_candidates(first):
            move = self.try_move(assignments, "S1")
            if move is not None:
                return move
        bad = self.state.bad_edges()
        for schema, gen, post_assert in self.ladder():
            for e in bad:
                for assignments in gen(e):
                    move = self.try_move(assignments, schema)
                    if move is not None:
                        return move
            if post_assert is not None and self.enforce_invariants:
                post_assert(bad)
        return None


def _repair_engine(state: _Contacts, debug: bool, mode: str) -> ComponentTrace:
    """Repair the coloring of the component in hand, moving state; the trace
    is that of a greedy_repair component, and after F3 its trajectory ends
    at the potential of F3's coloring."""
    engine = _Engine(state, debug=debug)
    moves: dict[str, int] = {}
    trajectory = [state.potential()]
    fallback_f3 = 0
    while state.bad:
        move = engine.find_move()
        if move is None:
            fallback_f3 = 1
            trajectory.append(_f3_fallback(state, mode))
            break
        after = state.potential()
        if after >= trajectory[-1]:
            raise EngineInvariantError(f"move {move.schema} did not lower the potential: {trajectory[-1]} -> {after}")
        moves[move.schema] = moves.get(move.schema, 0) + 1
        trajectory.append(after)
    return _trace(
        "greedy_repair",
        len(state.part),
        len(state.edges),
        engine.delta,
        map(state.colors.__getitem__, state.edges),
        trajectory,
        moves_by_schema=moves,
        fallback_f3=fallback_f3,
    )


def _trace(strategy: str, vertices: int, edges: int, d: int, colors, trajectory, **engine_fields) -> ComponentTrace:
    """A component's trace; exceeds_bound holds the count of colors to the
    bound for maximum degree d: 1, 3 or d^2 - 1."""
    used = len(set(colors))
    bound = 1 if d <= 1 else (3 if d == 2 else d * d - 1)
    return ComponentTrace(
        strategy=strategy,
        vertices=vertices,
        edges=edges,
        delta=d,
        colors_used=used,
        exceeds_bound=used > bound,
        kappa_trajectory=trajectory,
        **engine_fields,
    )


def _f3_fallback(state: _Contacts, mode: str) -> tuple[int, int]:
    """Color the component in hand by the exact search, into state.colors
    only, and return that coloring's (kappa1, kappa2) by certify. The rest of
    the state still holds the stuck coloring, and no state.check runs on F3's:
    in relaxed01 mode it need not be good, which the state cannot hold, and
    exact._feasibility has checked it with certify_mode already."""
    comp, ids = _induced(state.g, state.part, state.edges)
    k = state.k
    budget = exact.Budget(max_nodes=F3_MAX_NODES)
    if mode == "relaxed01":
        res = exact.feasibility(comp, "relaxed", k, budget, s=0, t=1)
    else:
        res = exact.feasibility(comp, "semistrong", k, budget)
    if res.status == "timeout":
        raise EngineInvariantError(
            f"exact fallback ran out of its {F3_MAX_NODES}-node budget at {k} colors in {mode} mode; "
            f"no move was found for bad edges {state.bad_edges()}"
        )
    if res.status != "sat" or res.coloring is None:
        raise EngineInvariantError(
            f"exact fallback could not certify {k} colors in {mode} mode; "
            "the repair engine and the feasibility search disagree"
        )
    for e, c in zip(ids, res.coloring.colors):
        state.colors[e] = c
    return certify(comp, res.coloring).kappa


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def repair(g: Graph, c: Coloring, debug: bool = False, mode: str = "semistrong") -> Coloring:
    """Drive a good coloring to zero bad edges on a connected graph with
    maximum degree >= 3 outside the covering-edge family. The palette is
    kept; an already-clean coloring is returned unchanged, with no engine
    built. The mode is that of solve, and only F3 reads it."""
    _check_mode(mode)
    if not is_good_coloring(g, c):
        raise ValueError("repair requires a good coloring")
    if not is_connected(g):
        raise GraphError("disconnected", "repair runs on one connected component at a time")
    if max_degree(g) < 3:
        raise ValueError("repair requires maximum degree >= 3")
    if g_family_witness(g) is not None:
        raise GraphError("g_family", "covering-edge family graphs take the dedicated construction")
    state = _Contacts.of(g, c)
    if not state.bad:
        return c
    _repair_engine(state, debug, mode)
    return state.to_coloring()


def _color_path_or_cycle(g: Graph, part, d: int, mode: str, colors: list[int]) -> ComponentTrace:
    """Color the component of g on part (its vertices, increasing), of
    maximum degree d <= 2, into colors on g's own rows: walk the path from its
    smallest end, or the cycle from its smallest vertex to that vertex's
    smaller neighbor, and lay the closed-form pattern along the walk."""
    if d == 0:
        return _trace("trivial", 1, 0, 0, (), [])
    adjacency = g.adjacency
    n = len(part)
    v = next((x for x in part if len(adjacency[x]) == 1), None)
    if v is None:
        v, pattern = part[0], cycle_pattern(n, relaxed=(mode == "relaxed01"))
    else:
        pattern = path_pattern(n)
    # one color per edge; rows are neighbor-sorted, so the first entry off
    # prev is the smaller neighbor
    prev = -1
    for c in pattern:
        first, second = adjacency[v][0], adjacency[v][-1]
        w, e = first if first[0] != prev else second
        colors[e] = c
        prev, v = v, w
    return _trace("trivial" if d == 1 else "delta2", n, len(pattern), d, pattern, [])


def _solve_component(state: _Contacts, d: int, mode: str, debug: bool, side: list[int]) -> ComponentTrace:
    """Color the component in hand, of maximum degree d >= 3 and with its
    edges in breadth-first order, given the walk's depth parities."""
    g, part, edges, colors = state.g, state.part, state.edges, state.colors
    trajectory: list[tuple[int, int]] = []
    if (witness := _covering_edge(g, part, edges)) is not None:
        # d-regular on 2d vertices with a covering edge: connected, and
        # bipartite only as K_{d,d}, every edge of which covers
        strategy = "kdd" if _two_colors(g, edges, side) else "g_family"
        if strategy == "g_family":
            g_family_colors(g, edges, witness, colors)
        elif mode == "relaxed01":
            kdd_relaxed_colors(g, part, side, colors)
        else:
            for c, e in enumerate(sorted(edges), 1):
                colors[e] = c
    else:
        strategy = "greedy_repair"
        _greedy(state, edges)
        if debug:
            state.check("the greedy start")
        if state.bad:
            return _repair_engine(state, debug, mode)
        # no bad edge: the start is the repaired coloring, with no engine built
        trajectory = [state.potential()]
    return _trace(strategy, len(part), len(edges), d, map(colors.__getitem__, edges), trajectory)


def solve(g: Graph, mode: str, debug: bool = False) -> SolveResult:
    """Color any simple graph per-component and verify the result.

    Components reuse palettes (colors are shared across components), so the
    total color count is the maximum over components. One breadth-first walk
    gives the components, their edge orders and their depth parities. Every
    component is colored on g's own rows, with no Graph built for it: one of
    maximum degree <= 2 by a walk along it, and one of maximum degree >= 3 on
    one _Contacts state that serves them all. Traces follow the components'
    smallest vertices.
    """
    _check_mode(mode)
    adjacency = g.adjacency
    # each component of maximum degree >= 3 is taken up on the state with its
    # own palette and potential
    state = _Contacts(g, 0)
    colors = state.colors
    traces: list[ComponentTrace] = []
    label, side, order, starts = _walk(g)
    for part, a, b in zip(_component_parts(label, len(starts) - 1), starts, starts[1:]):
        d = max(map(len, map(adjacency.__getitem__, part)))
        if d <= 2:
            traces.append(_color_path_or_cycle(g, part, d, mode, colors))
        else:
            state.take(part, order[a:b], d * d - 1)
            traces.append(_solve_component(state, d, mode, debug, side))
    coloring = from_list(colors, max(colors, default=0))
    cert = certify(g, coloring)
    if debug and cert != (
        verify_semistrong(g, coloring),
        verify_relaxed(g, coloring, 0, 1),
        badness(g, coloring).potential,
    ):
        raise EngineInvariantError("certify disagrees with the independent checkers")
    certificates = {"semistrong": cert.semistrong.ok, "relaxed01": cert.relaxed.ok}
    if not certificates[mode]:
        raise EngineInvariantError(f"solve produced an invalid {mode} coloring")
    return SolveResult(
        coloring=coloring,
        colors_used=coloring.distinct_colors(),
        mode=mode,
        trace=traces,
        certificates=certificates,
        kappa=cert.kappa,
    )
