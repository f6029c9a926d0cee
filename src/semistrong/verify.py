"""Ground-truth checkers for the matching and coloring notions, plus the
bad-edge / bad-pair accounting that drives the repair engine.

Every checker reads a color index (per vertex, its edges by color) and
applies its rule edge by edge, in O(m·Δ); a witness is always the smallest
offending (color, edge). All functions are pure and share no data with the
state that greedy and the repair engine keep, so they are an
independent check of the engine's own tables.

``certify`` is the one verification pass, which ``solve``, ``exact``'s κ and
certificate checks and ``semistrong verify`` in every mode read (the last
two through ``certify_mode``): from the cross edges, in
O(m + contacts) for a proper coloring, it counts each edge's same-colored
1-neighbors and distinct same-colored 2-neighbors. Per vertex it keeps a
bitmask of the colors held, and an edge xy whose ends hold a common color
other than its own joins a same-colored edge at x to one at y. From those
counts it gives the semistrong certificate, the relaxed(s, t) one for the
caps it is passed and (κ₁, κ₂).
``verify_semistrong``, ``verify_relaxed`` and ``badness`` are the independent
checkers, each with its own walk over the rows; tests and
``solve(debug=True)`` hold ``certify`` to them.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, NamedTuple

from .coloring import Coloring, from_list
from .graph import Graph


class VerifyResult(NamedTuple):
    ok: bool
    witness: tuple[int, int] | None  # (color, offending edge index)

    def __bool__(self) -> bool:
        return self.ok


def _color_index(g: Graph, c: Coloring) -> list[dict[int, list[int]]]:
    """at[x][color] = the edges of that color at vertex x, in index order."""
    if len(c.colors) != len(g.edges):
        raise ValueError(f"coloring has {len(c.colors)} entries for {len(g.edges)} edges")
    at: list[dict[int, list[int]]] = [{} for _ in range(g.vertex_count)]
    for e, (u, v) in enumerate(g.edges):
        ce = c.colors[e]
        at[u].setdefault(ce, []).append(e)
        at[v].setdefault(ce, []).append(e)
    return at


def verify_semistrong(g: Graph, c: Coloring) -> VerifyResult:
    """Every color class M is a semistrong matching: each edge of M shares
    no vertex with another edge of M and has an endpoint of degree 1 in
    G[V(M)], i.e. an endpoint with no other neighbor on an edge of M."""
    at = _color_index(g, c)
    colors = c.colors
    adjacency = g.adjacency
    best: tuple[int, int] | None = None
    for e, (u, v) in enumerate(g.edges):
        ce = colors[e]
        if best is not None and ce >= best[0]:
            continue  # edges come in index order: no smaller witness of a color >= best's
        if len(at[u][ce]) + len(at[v][ce]) > 2 or (
            any(w != v and ce in at[w] for w, _ in adjacency[u])
            and any(w != u and ce in at[w] for w, _ in adjacency[v])
        ):
            best = (ce, e)
    return VerifyResult(best is None, best)


def verify_strong(g: Graph, c: Coloring) -> VerifyResult:
    """Every color class is an induced matching (relaxed with s = t = 0)."""
    return verify_relaxed(g, c, 0, 0)


def _one_class(g: Graph, m: Iterable[int]) -> Coloring:
    """m in color 1, every other edge in a color of its own. Raises
    ValueError for an edge id outside [0, m)."""
    colors = list(range(2, len(g.edges) + 2))
    for e in m:
        if not 0 <= e < len(colors):
            raise ValueError(f"edge id {e} outside [0, {len(colors)})")
        colors[e] = 1
    return from_list(colors)


def is_semistrong_matching(g: Graph, m: Iterable[int]) -> bool:
    """m is a matching and each of its edges keeps an endpoint of degree 1 in
    the subgraph induced by m's endpoints."""
    return verify_semistrong(g, _one_class(g, m)).ok


def is_induced_matching(g: Graph, m: Iterable[int]) -> bool:
    """m is a matching with all induced-subgraph degrees equal to 1
    (no two edges at distance 1 or 2)."""
    return verify_strong(g, _one_class(g, m)).ok


def _same_colored_contacts(g: Graph, c: Coloring) -> Iterator[tuple[int, int, int, dict[int, int]]]:
    """(e, color of e, same-colored 1-neighbor count, {same-colored
    2-neighbor f: cross edges between e and f}) for every edge in order.

    For e = uv of color c the walk reads the color-c edges of the index at
    each neighbor w of u (resp. v), reaching every same-colored 2-neighbor
    once per cross edge. A count of 1 is a T6 contact, anything higher puts
    f in e's forbidden set.
    """
    at = _color_index(g, c)
    colors = c.colors
    edges = g.edges
    adjacency = g.adjacency
    for e, (u, v) in enumerate(edges):
        ce = colors[e]
        d1 = len(at[u][ce]) + len(at[v][ce]) - 2
        same: dict[int, int] = {}
        for a, b in ((u, v), (v, u)):
            for w, _ in adjacency[a]:
                if w == b:
                    continue
                for f in at[w].get(ce, ()):
                    x, y = edges[f]
                    if x != a and x != b and y != a and y != b:
                        same[f] = same.get(f, 0) + 1
        yield e, ce, d1, same


def verify_relaxed(g: Graph, c: Coloring, s: int, t: int) -> VerifyResult:
    """Per edge: at most s same-colored 1-neighbors and at most t same-colored
    2-neighbors. (0,0) is verify_strong."""
    if s < 0 or t < 0:
        raise ValueError(f"s,t must be >= 0, got ({s},{t})")
    best: tuple[int, int] | None = None
    for e, ce, d1, same in _same_colored_contacts(g, c):
        if (d1 > s or len(same) > t) and (best is None or (ce, e) < best):
            best = (ce, e)
    return VerifyResult(best is None, best)


def is_good_coloring(g: Graph, c: Coloring) -> bool:
    """True iff no edge shares its color with any edge of its forbidden set:
    no same-colored 1-neighbor, and every same-colored 2-neighbor joined to
    the edge by a single cross edge (T6)."""
    return all(
        d1 == 0 and all(count == 1 for count in same.values())
        for _, _, d1, same in _same_colored_contacts(g, c)
    )


class Certificate(NamedTuple):
    semistrong: VerifyResult
    relaxed: VerifyResult  # for the caps (s, t) certify was passed
    kappa: tuple[int, int]  # (kappa1, kappa2), as badness(...).potential


def certify(g: Graph, c: Coloring, s: int = 0, t: int = 1) -> Certificate:
    """verify_semistrong, verify_relaxed(g, c, s, t) and badness(g, c).potential
    from one pass over the cross edges: O(m + contacts) for a proper coloring
    whose palette is narrower than ``span``.

    Edges e and f of one color are same-colored 2-neighbors exactly when they
    share no vertex and some edge xy, other than both, has e at x and f at y.
    Each vertex keeps a bitmask of the colors it holds, so for each edge xy
    only the bits of held[x] & held[y], less xy's own, are looked up in the
    per-vertex index; no row is walked. Each edge's distinct 2-neighbors are
    counted as their pairs are first met, and where it met them (at one end
    or at both) is kept.

    The index keeps one edge per (vertex, bit); ``more`` lists all the edges of
    the pairs that hold two or more, so it also gives each edge's same-colored
    1-neighbors. An edge fails the semistrong certificate iff it has a
    1-neighbor or meets 2-neighbors across both of its ends, and the relaxed
    one iff it has more than s 1-neighbors or more than t 2-neighbors; κ₁
    counts the edges with two or more 2-neighbors.

    A palette reaching ``span`` is ranked, leaving out colors used once, and
    folded into ``span`` bits, so the n masks take O(n + m) space; a bit may
    then stand for several colors, so each meeting compares the two colors.
    """
    colors = c.colors
    edges = g.edges
    m = len(edges)
    if len(colors) != m:
        raise ValueError(f"coloring has {len(colors)} entries for {m} edges")
    span = 64 + 128 * m // max(g.vertex_count, 1)
    pos = colors
    if colors and max(colors) >= span:
        uses = Counter(colors)
        rank = {x: i % span for i, x in enumerate(sorted(x for x in uses if uses[x] > 1))}
        pos = [rank.get(x, -1) for x in colors]  # -1: a color used once meets no other
    held = [0] * g.vertex_count
    first: list[dict[int, int]] = [{} for _ in range(g.vertex_count)]
    more: dict[tuple[int, int], list[int]] = {}
    for e, (u, v) in enumerate(edges):
        p = pos[e]
        if p < 0:
            continue
        held[u] |= 1 << p
        held[v] |= 1 << p
        if first[u].setdefault(p, e) != e:
            more.setdefault((u, p), [first[u][p]]).append(e)
        if first[v].setdefault(p, e) != e:
            more.setdefault((v, p), [first[v][p]]).append(e)
    pairs: set[int] = set()  # e * m + f for each same-colored 2-neighbor pair e < f
    near: dict[int, int] = {}  # edge -> its same-colored 2-neighbors
    end: dict[int, int] = {}  # edge -> the end at which it first met a 2-neighbor
    two_sided: set[int] = set()
    for i, (x, y) in enumerate(edges):
        common = held[x] & held[y]
        p = pos[i]
        if p >= 0 and not (more and (x, p) in more and (y, p) in more):
            common ^= 1 << p  # a pair through i on its own bit needs a second edge at x and y
        while common:
            low = common & -common
            common ^= low
            q = low.bit_length() - 1
            if more:
                met = [
                    (e, f)
                    for e in more.get((x, q), (first[x][q],))
                    for f in more.get((y, q), (first[y][q],))
                    if set(edges[e]).isdisjoint(edges[f])  # so neither is edge i
                ]
            else:
                met = ((first[x][q], first[y][q]),)
            for e, f in met:
                if colors[e] != colors[f]:
                    continue
                key = e * m + f if e < f else f * m + e
                if key not in pairs:
                    pairs.add(key)
                    near[e] = near.get(e, 0) + 1
                    near[f] = near.get(f, 0) + 1
                if end.setdefault(e, x) != x:
                    two_sided.add(e)
                if end.setdefault(f, y) != y:
                    two_sided.add(f)
    touch: dict[int, int] = {}  # edge -> its same-colored 1-neighbors
    for group in more.values():
        count = Counter(colors[e] for e in group)
        for e in group:
            if count[colors[e]] > 1:
                touch[e] = touch.get(e, 0) + count[colors[e]] - 1

    def smallest(flagged: Iterable[int]) -> VerifyResult:
        witness = min(((colors[e], e) for e in flagged), default=None)
        return VerifyResult(witness is None, witness)

    # near's counts, each at least 1, sum to 2 * len(pairs): with that many entries all are 1
    kappa1 = len(near) - list(near.values()).count(1) if len(near) < 2 * len(pairs) else 0
    over = [e for e, k in near.items() if k > t] if kappa1 or t < 1 else []  # else none exceeds t
    failed = [e for e, k in touch.items() if k > s] + over
    return Certificate(smallest(two_sided.union(touch)), smallest(failed), (kappa1, len(pairs)))


def certify_mode(g: Graph, c: Coloring, mode: str, s: int, t: int) -> tuple[VerifyResult, Certificate]:
    """The verdict of a verify/exact mode (semistrong, strong or relaxed(s,t))
    and the certificate it is read from; strong is relaxed(0,0)."""
    cert = certify(g, c, *((s, t) if mode == "relaxed" else (0, 0)))
    return (cert.semistrong if mode == "semistrong" else cert.relaxed), cert


class BadnessReport(NamedTuple):
    """Bad edges have >= 2 same-colored 2-neighbors; bad pairs are unordered
    same-colored distance-2 pairs. kappa1/kappa2 count them."""

    kappa1: int
    kappa2: int
    bad_edges: tuple[int, ...]
    bad_pairs: tuple[tuple[int, int], ...]

    @property
    def potential(self) -> tuple[int, int]:
        return (self.kappa1, self.kappa2)


def badness(g: Graph, c: Coloring) -> BadnessReport:
    bad_edges: list[int] = []
    bad_pairs: list[tuple[int, int]] = []
    for e, _, _, same in _same_colored_contacts(g, c):
        if len(same) >= 2:
            bad_edges.append(e)
        for f in same:
            if e < f:
                bad_pairs.append((e, f))
    bad_pairs.sort()
    return BadnessReport(
        kappa1=len(bad_edges),
        kappa2=len(bad_pairs),
        bad_edges=tuple(bad_edges),
        bad_pairs=tuple(bad_pairs),
    )
