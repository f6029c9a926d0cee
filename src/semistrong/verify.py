"""Ground-truth checkers for the matching and coloring notions, plus the
bad-edge / bad-pair accounting that drives the repair engine.

Every checker reads a color index (per vertex, its edges by color) and
applies its rule edge by edge, in O(m·Δ); a witness is always the smallest
offending (color, edge). All functions are pure and share no data with the
neighborhoods that greedy and the repair engine build, so they are an
independent check of the engine's own tables.

``certify`` is the solve-time pass: one index and one contact walk give both
of the theorem's certificates (semistrong and (0,1)-relaxed) and (κ₁, κ₂).
``verify_semistrong``, ``verify_relaxed`` and ``badness`` are the independent
checkers, each with its own walk; tests and ``solve(debug=True)`` hold
``certify`` to them.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def verify_mode(g: Graph, c: Coloring, mode: str, s: int = 0, t: int = 0) -> VerifyResult:
    """The checker of a verify/exact mode: semistrong, strong or relaxed(s,t)."""
    if mode == "relaxed":
        return verify_relaxed(g, c, s, t)
    return {"semistrong": verify_semistrong, "strong": verify_strong}[mode](g, c)


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
    relaxed01: VerifyResult
    kappa: tuple[int, int]  # (kappa1, kappa2), as badness(...).potential


def certify(g: Graph, c: Coloring) -> Certificate:
    """verify_semistrong, verify_relaxed(g, c, 0, 1) and badness(g, c).potential
    in one walk over the same-colored contacts of every edge.

    For e = uv of color c with no other color-c edge at u or v, every color-c
    edge at a neighbor w of u (resp. v) is a same-colored 2-neighbor, and e
    breaks the semistrong rule iff both u and v have such a neighbor.

    The index keeps one edge per (vertex, color); ``more`` lists all the
    edges of the pairs that hold two or more, which a proper coloring has none of.
    """
    colors = c.colors
    edges = g.edges
    if len(colors) != len(edges):
        raise ValueError(f"coloring has {len(colors)} entries for {len(edges)} edges")
    first: list[dict[int, int]] = [{} for _ in range(g.vertex_count)]
    more: dict[tuple[int, int], list[int]] = {}
    for e, (u, v) in enumerate(edges):
        ce = colors[e]
        for x in (u, v):
            f = first[x].setdefault(ce, e)
            if f != e:
                more.setdefault((x, ce), [f]).append(e)
    adjacency = g.adjacency
    semistrong: tuple[int, int] | None = None
    relaxed: tuple[int, int] | None = None
    kappa1 = contacts = 0
    for e, (u, v) in enumerate(edges):
        ce = colors[e]
        clash = bool(more) and ((u, ce) in more or (v, ce) in more)
        same: set[int] = set()
        sides = 0
        for a, b in ((u, v), (v, u)):
            hit = False
            for w, _ in adjacency[a]:
                f = first[w].get(ce)
                if f is not None and w != b:
                    hit = True
                    fs = more.get((w, ce), (f,)) if more else (f,)
                    if clash:
                        same.update(f for f in fs if a not in edges[f] and b not in edges[f])
                    else:
                        same.update(fs)
            sides += hit
        n2 = len(same)
        contacts += n2
        if n2 >= 2:
            kappa1 += 1
        if (clash or sides == 2) and (semistrong is None or (ce, e) < semistrong):
            semistrong = (ce, e)
        if (clash or n2 > 1) and (relaxed is None or (ce, e) < relaxed):
            relaxed = (ce, e)
    # the 2-neighbor relation is symmetric, so each bad pair was met from both ends
    return Certificate(
        VerifyResult(semistrong is None, semistrong),
        VerifyResult(relaxed is None, relaxed),
        (kappa1, contacts // 2),
    )


@dataclass(frozen=True)
class BadnessReport:
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
