"""Ground-truth checkers for the matching and coloring notions, plus the
bad-edge / bad-pair accounting that drives the repair engine.

All functions are pure; witnesses always report the lexicographically
smallest failure so tests are reproducible.

The per-edge checks (verify_relaxed, is_good_coloring, badness) count
same-colored contacts straight from the adjacency, in O(m·Δ), and share no
data with the neighborhoods that greedy and the repair engine build, so
they are an independent check of the engine's own tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .coloring import Coloring
from .graph import Graph


class VerifyResult(NamedTuple):
    ok: bool
    witness: tuple[int, int] | None  # (color, offending edge index)

    def __bool__(self) -> bool:
        return self.ok


def _induced_degrees(g: Graph, edge_ids: Iterable[int]) -> dict[int, int]:
    """Degrees in the subgraph induced by the endpoints of the given edges."""
    verts: set[int] = set()
    for e in edge_ids:
        u, v = g.edges[e]
        verts.add(u)
        verts.add(v)
    return {x: sum(1 for w, _ in g.adjacency[x] if w in verts) for x in verts}


def _is_matching(g: Graph, edge_ids: list[int]) -> bool:
    seen: set[int] = set()
    for e in edge_ids:
        u, v = g.edges[e]
        if u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


def is_semistrong_matching(g: Graph, m: Iterable[int]) -> bool:
    """m is a matching and each of its edges keeps an endpoint of degree 1 in
    the subgraph induced by m's endpoints."""
    edge_ids = sorted(set(m))
    if not _is_matching(g, edge_ids):
        return False
    deg = _induced_degrees(g, edge_ids)
    return all(deg[g.edges[e][0]] == 1 or deg[g.edges[e][1]] == 1 for e in edge_ids)


def is_induced_matching(g: Graph, m: Iterable[int]) -> bool:
    """m is a matching with all induced-subgraph degrees equal to 1
    (no two edges at distance 1 or 2)."""
    edge_ids = sorted(set(m))
    if not _is_matching(g, edge_ids):
        return False
    deg = _induced_degrees(g, edge_ids)
    return all(d == 1 for d in deg.values())


def _first_offender_matching(g: Graph, edge_ids: list[int]) -> int:
    """Smallest edge sharing a vertex with another edge of the class."""
    use: dict[int, int] = {}
    clash = len(g.edges)
    for e in edge_ids:
        for x in g.edges[e]:
            if x in use:
                clash = min(clash, use[x], e)
            else:
                use[x] = e
    return clash


def _check_classes(g: Graph, c: Coloring, class_ok, offender) -> VerifyResult:
    if len(c.colors) != len(g.edges):
        raise ValueError(f"coloring has {len(c.colors)} entries for {len(g.edges)} edges")
    best: tuple[int, int] | None = None
    for color, edge_ids in sorted(c.classes().items()):
        if class_ok(g, edge_ids):
            continue
        cand = (color, offender(g, edge_ids))
        if best is None or cand < best:
            best = cand
    return VerifyResult(best is None, best)


def _semistrong_offender(g: Graph, edge_ids: list[int]) -> int:
    if not _is_matching(g, edge_ids):
        return _first_offender_matching(g, edge_ids)
    deg = _induced_degrees(g, edge_ids)
    for e in edge_ids:
        u, v = g.edges[e]
        if deg[u] != 1 and deg[v] != 1:
            return e
    raise AssertionError("offender requested for a valid class")


def _induced_offender(g: Graph, edge_ids: list[int]) -> int:
    if not _is_matching(g, edge_ids):
        return _first_offender_matching(g, edge_ids)
    deg = _induced_degrees(g, edge_ids)
    for e in edge_ids:
        u, v = g.edges[e]
        if deg[u] != 1 or deg[v] != 1:
            return e
    raise AssertionError("offender requested for a valid class")


def verify_semistrong(g: Graph, c: Coloring) -> VerifyResult:
    """Every color class is a semistrong matching."""
    return _check_classes(g, c, is_semistrong_matching, _semistrong_offender)


def verify_strong(g: Graph, c: Coloring) -> VerifyResult:
    """Every color class is an induced matching."""
    return _check_classes(g, c, is_induced_matching, _induced_offender)


def _same_colored_contacts(g: Graph, c: Coloring) -> Iterator[tuple[int, int, int, dict[int, int]]]:
    """(e, color of e, same-colored 1-neighbor count, {same-colored
    2-neighbor f: cross edges between e and f}) for every edge in order.

    Edges are indexed per vertex by color; for e = uv of color c the walk
    reads the color-c edges at each neighbor w of u (resp. v), reaching every
    same-colored 2-neighbor once per cross edge. A count of 1 is a T6 contact,
    anything higher puts f in e's forbidden set.
    """
    if len(c.colors) != len(g.edges):
        raise ValueError(f"coloring has {len(c.colors)} entries for {len(g.edges)} edges")
    colors = c.colors
    edges = g.edges
    adjacency = g.adjacency
    at: list[dict[int, list[int]]] = [{} for _ in range(g.vertex_count)]
    for e, (u, v) in enumerate(edges):
        ce = colors[e]
        at[u].setdefault(ce, []).append(e)
        at[v].setdefault(ce, []).append(e)
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
    2-neighbors. (0,0) coincides with verify_strong."""
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


@dataclass(frozen=True)
class BadnessReport:
    """Bad edges have >= 2 same-colored 2-neighbors; bad pairs are unordered
    same-colored distance-2 pairs. kappa1/kappa2 count them."""

    kappa1: int
    kappa2: int
    per_color_kappa1: dict[int, int]
    per_color_kappa2: dict[int, int]
    bad_edges: tuple[int, ...]
    bad_pairs: tuple[tuple[int, int], ...]

    @property
    def potential(self) -> tuple[int, int]:
        return (self.kappa1, self.kappa2)


def badness(g: Graph, c: Coloring) -> BadnessReport:
    bad_edges: list[int] = []
    bad_pairs: list[tuple[int, int]] = []
    per1: dict[int, int] = {}
    per2: dict[int, int] = {}
    for e, ce, _, same in _same_colored_contacts(g, c):
        if len(same) >= 2:
            bad_edges.append(e)
            per1[ce] = per1.get(ce, 0) + 1
        for f in same:
            if e < f:
                bad_pairs.append((e, f))
                per2[ce] = per2.get(ce, 0) + 1
    bad_pairs.sort()
    return BadnessReport(
        kappa1=len(bad_edges),
        kappa2=len(bad_pairs),
        per_color_kappa1=per1,
        per_color_kappa2=per2,
        bad_edges=tuple(bad_edges),
        bad_pairs=tuple(bad_pairs),
    )
