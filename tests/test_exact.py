from __future__ import annotations

import random
from pathlib import Path

import pytest
from _oracles import naive_verify, one_neighbors, two_neighbors

from semistrong import families
from semistrong.exact import (
    Budget,
    _Clock,
    _has_class,
    _layout,
    _RelaxedState,
    _SemistrongState,
    exact_index,
    feasibility,
)
from semistrong.formats import parse_edge_list
from semistrong.graph import build_graph
from semistrong.verify import verify_relaxed, verify_semistrong, verify_strong


def test_c4_values():
    g = families.cycle(4)
    res = exact_index(g, "semistrong", 6)
    assert (res.value, res.proof) == (4, "exhausted")
    res = exact_index(g, "relaxed", 6, s=0, t=1)
    assert (res.value, res.proof) == (2, "exhausted")


def test_c7_values():
    g = families.cycle(7)
    assert exact_index(g, "semistrong", 6).value == 4
    assert exact_index(g, "relaxed", 6, s=0, t=1).value == 4


def test_k33_values():
    g = families.complete_bipartite(3, 3)
    res = exact_index(g, "semistrong", 9)
    assert (res.value, res.proof) == (9, "exhausted")
    res = exact_index(g, "relaxed", 6, s=0, t=1)
    assert (res.value, res.proof) == (5, "exhausted")


def test_c5_strong_needs_five():
    assert exact_index(families.cycle(5), "strong", 6).value == 5


def test_certificates_verified():
    g = families.hypercube(3)
    res = exact_index(g, "semistrong", 7)
    assert res.value == 6
    assert verify_semistrong(g, res.certificate).ok
    res = exact_index(g, "strong", 7)
    assert verify_strong(g, res.certificate).ok
    res = exact_index(g, "relaxed", 7, s=0, t=1)
    assert verify_relaxed(g, res.certificate, 0, 1).ok


def test_feasibility_refutes_and_finds():
    g = families.cycle(4)
    res = feasibility(g, "semistrong", 3)
    assert res.status == "unsat"
    res = feasibility(g, "semistrong", 4)
    assert res.status == "sat"
    assert res.coloring is not None and res.coloring.distinct_colors() == 4


def test_feasibility_monotone():
    g = families.prism(3)
    statuses = [feasibility(g, "semistrong", k).status for k in range(4, 12)]
    # once sat, stays sat
    first_sat = statuses.index("sat")
    assert all(s == "sat" for s in statuses[first_sat:])


def test_semistrong_at_most_strong():
    for g in [families.cycle(5), families.prism(3), families.hypercube(3), families.path(6)]:
        ss = exact_index(g, "semistrong", 12).value
        st = exact_index(g, "strong", 12).value
        assert ss is not None and st is not None
        assert ss <= st


def test_incomparability_of_semistrong_and_relaxed():
    g = families.cycle(4)
    ss = exact_index(g, "semistrong", 6).value
    rel = exact_index(g, "relaxed", 6, s=0, t=1).value
    assert ss == 4 and rel == 2
    assert ss > rel


def test_relaxed00_matches_strong_values():
    for g in [families.cycle(5), families.cycle(6), families.prism(3)]:
        assert exact_index(g, "strong", 12).value == exact_index(g, "relaxed", 12, s=0, t=0).value


def test_node_budget_timeout_is_deterministic():
    g = families.prism(5)
    res = feasibility(g, "semistrong", 7, budget=Budget(max_nodes=500))
    assert res.status == "timeout"
    again = feasibility(g, "semistrong", 7, budget=Budget(max_nodes=500))
    assert again.nodes == res.nodes
    # a node budget b stops at exactly b + 1 nodes, deadline or not
    assert res.nodes == 501
    timed = feasibility(g, "semistrong", 7, budget=Budget(max_seconds=600, max_nodes=500))
    assert (timed.status, timed.nodes) == ("timeout", 501)
    zero = feasibility(g, "semistrong", 7, budget=Budget(max_nodes=0))
    assert (zero.status, zero.nodes) == ("timeout", 1)
    full = feasibility(g, "semistrong", 7)
    assert full.status == "unsat"


# an 8-vertex graph where relaxed(0,1) has a 3-edge class, so the counting
# bound lets the refutation of 5 colors through to the search
_BOUND_PASSES = build_graph(
    8, [(0, 5), (0, 6), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (2, 4), (3, 5), (3, 6), (3, 7), (4, 5)]
)


def _class_nodes(g, mode, q, s=0, t=0):
    """The class search's verdict and node count on a fresh clock."""
    clock = _Clock(None)
    found = _has_class(g, mode, q, clock, s, t, _layout(g))
    return found, clock.nodes


def test_exact_index_timeout_proof():
    g = families.prism(5)
    res = exact_index(g, "semistrong", 8, budget=Budget(max_nodes=50))
    assert res.proof == "timeout"
    assert res.value is None
    # the 100-node search at 8 colors fits in the budget, the 391-node search
    # for a 3-edge class does not: the found coloring is kept as an upper bound
    res = exact_index(g, "semistrong", 8, budget=Budget(max_nodes=300))
    assert (res.value, res.proof, res.nodes) == (8, "timeout", 301)
    assert res.certificate.k == 8 and verify_semistrong(g, res.certificate).ok
    res = exact_index(g, "semistrong", 8, budget=Budget(max_nodes=5000))
    assert (res.value, res.proof, res.nodes) == (8, "exhausted", 491)
    # the bound passes 5 colors on to the 446-node refutation, which the
    # budget cuts after 200 nodes
    res = exact_index(_BOUND_PASSES, "relaxed", 6, budget=Budget(max_nodes=78 + 85 + 200), s=0, t=1)
    assert (res.value, res.proof, res.nodes) == (6, "timeout", 364)
    assert res.certificate.k == 6 and verify_relaxed(_BOUND_PASSES, res.certificate, 0, 1).ok


def test_exact_index_walks_down_and_searches_no_count_below_the_refuted_one():
    # prism5: 100 nodes to color with 8, then 391 to find no 3-edge
    # semistrong matching, which refutes 7 = 15 edges / 2 per class, rounded up
    g = families.prism(5)
    res = exact_index(g, "semistrong", 8)
    assert (res.value, res.proof, res.nodes) == (8, "exhausted", 491)
    assert _class_nodes(g, "semistrong", 3) == (False, 391)
    assert res.nodes == feasibility(g, "semistrong", 8).nodes + 391
    # K4,4 relaxed(0,1): 125 nodes at 8, then no 3-edge class in 419
    g = families.complete_bipartite(4, 4)
    res = exact_index(g, "relaxed", 8, s=0, t=1)
    assert (res.value, res.proof, res.nodes) == (8, "exhausted", 544)
    assert _class_nodes(g, "relaxed", 3, 0, 1) == (False, 419)
    assert res.nodes == feasibility(g, "relaxed", 8, s=0, t=1).nodes + 419
    # a 3-edge class exists, so the search refutes 5 colors: 72 nodes at 12
    # colors (6 used), 78 at 6 (6 used), 85 to find the class, 446 to refute 5
    g = _BOUND_PASSES
    res = exact_index(g, "relaxed", 12, s=0, t=1)
    assert (res.value, res.proof, res.nodes) == (6, "exhausted", 681)
    assert _class_nodes(g, "relaxed", 3, 0, 1) == (True, 85)
    counts = [feasibility(g, "relaxed", k, s=0, t=1) for k in (12, 6, 5)]
    assert [r.status for r in counts] == ["sat", "sat", "unsat"]
    assert res.nodes == sum(r.nodes for r in counts) + 85


@pytest.mark.parametrize("mode,s,t", [("semistrong", 0, 0), ("strong", 0, 0), ("relaxed", 0, 1), ("relaxed", 1, 1)])
def test_has_class_matches_brute_force(mode, s, t):
    # a valid class of q edges exists iff some q-subset is valid; the answers
    # fall as q grows (every mode is hereditary), and q = m + 1 has none
    rng = random.Random(53 + 2 * s + t + (mode == "strong"))
    runs = 0
    while runs < 12:
        g = _random_graph(rng.randint(4, 8), rng.choice((0.3, 0.45, 0.6)), rng)
        m = g.edge_count
        if not 1 <= m <= 11:
            continue
        valid = [naive_verify(g, [0 if T >> e & 1 else e + 1 for e in range(m)], mode, s, t) for T in range(1 << m)]
        expected = [any(valid[T] for T in range(1 << m) if T.bit_count() == q) for q in range(1, m + 2)]
        assert expected == sorted(expected, reverse=True) and not expected[-1]
        layout = _layout(g)
        assert [_has_class(g, mode, q, _Clock(None), s, t, layout) for q in range(1, m + 2)] == expected
        runs += 1


def test_exact_certificate_is_the_first_coloring_at_the_value():
    # a search at a larger count finds, among colorings with at most `value`
    # colors, the same first one as the search at `value` itself
    rng = random.Random(41)
    runs = 0
    for _ in range(30):
        g = _random_graph(rng.randint(4, 8), rng.choice((0.3, 0.45, 0.6)), rng)
        if not 1 <= g.edge_count <= 14:  # relaxed(1,1) refutes 16 edges in 1.6 million nodes
            continue
        for mode, s, t in (("semistrong", 0, 0), ("strong", 0, 0), ("relaxed", 0, 1), ("relaxed", 1, 1)):
            res = exact_index(g, mode, g.edge_count, s=s, t=t)
            assert res.proof == "exhausted"
            assert res.certificate == feasibility(g, mode, res.value, s=s, t=t).coloring
            runs += 1
    assert runs >= 100


def test_exact_index_starts_at_a_count_greedy_always_meets(monkeypatch):
    # path(5): 4 edges and maximum degree 2, so the walk starts at
    # min(10**6, 4, 2*2*1 + 1) = 4 colors and allocates nothing larger
    from semistrong import exact

    sizes = []

    class Recording(exact._SemistrongState):
        def __init__(self, g, k, layout):
            sizes.append(k)
            super().__init__(g, k, layout)

    monkeypatch.setattr(exact, "_SemistrongState", Recording)
    res = exact_index(families.path(5), "semistrong", 10**6)
    assert (res.value, res.proof) == (2, "exhausted")
    assert sizes and max(sizes) == 4


def test_infeasible_at_max():
    g = families.cycle(4)
    res = exact_index(g, "semistrong", 3)
    assert res.value is None
    assert res.proof == "exhausted"


def test_empty_graph():
    res = exact_index(build_graph(3, []), "semistrong", 2)
    assert res.value == 0
    assert res.proof == "exhausted"


def test_bad_parameters():
    g = families.cycle(4)
    with pytest.raises(ValueError):
        exact_index(g, "nope", 3)
    with pytest.raises(ValueError):
        feasibility(g, "semistrong", 0)
    with pytest.raises(ValueError):
        exact_index(g, "relaxed", 3, s=-1)
    for caps in ({"max_nodes": -1}, {"max_seconds": -1}, {"max_seconds": float("nan")}):
        with pytest.raises(ValueError):
            Budget(**caps)


def test_h_graph_value():
    res = exact_index(families.h_graph(3), "semistrong", 8)
    assert (res.value, res.proof) == (7, "exhausted")


def test_long_path_search_is_iterative():
    # one search position per edge: a recursive search would exceed the
    # interpreter's recursion limit long before 1,499 edges
    g = families.path(1500)
    res = feasibility(g, "semistrong", 3)
    assert res.status == "sat"
    assert res.nodes == 4494
    assert verify_semistrong(g, res.coloring).ok


def test_search_does_not_thrash_on_the_c7_blowup():
    # a fixed-order search needed about 1.13 million nodes here
    g = families.c7_blowup()
    res = feasibility(g, "semistrong", 14, budget=Budget(max_nodes=100_000))
    assert res.status == "sat"
    assert verify_semistrong(g, res.coloring).ok


def test_prism5_refutation_follows_the_candidate_order():
    # the count follows the candidate order exactly: a candidate lost from
    # the heap on backtracking, or a tie broken another way, changes it
    res = feasibility(families.prism(5), "semistrong", 7)
    assert (res.status, res.nodes) == ("unsat", 61467)


@pytest.mark.parametrize("mode,s,t", [("semistrong", 0, 0), ("relaxed", 0, 1)])
def test_refutation_stops_at_the_component_that_fails(mode, s, t):
    # 18 components: 3 colors fail on one of them, and a search that
    # backtracked into the earlier, independent components ran past 3 million
    # nodes without refuting 3; every component opens at color 1
    g = parse_edge_list((Path(__file__).parent / "data" / "paths_cycles.txt").read_text(encoding="utf-8"))
    res = exact_index(g, mode, 8, Budget(max_nodes=10_000), s=s, t=t)
    assert (res.value, res.proof, res.nodes) == (4, "exhausted", {"semistrong": 383, "relaxed": 382}[mode])


def test_every_component_keeps_its_own_symmetry_break():
    # K_{4,4}, K_{5,5}, the 3-prism and two random graphs: K_{5,5} alone
    # refutes 24, which a later component can only reach when it opens at
    # color 1 instead of at any of the colors the components before it used
    g = parse_edge_list((Path(__file__).parent / "data" / "special.txt").read_text(encoding="utf-8"))
    res = exact_index(g, "semistrong", 25, Budget(max_nodes=300_000))
    assert (res.value, res.proof) == (25, "exhausted")
    assert verify_semistrong(g, res.certificate).ok


@pytest.mark.parametrize("mode,s,t,value,nodes", [("strong", 0, 0, 8, 486), ("relaxed", 1, 1, 4, 1018)])
def test_prism5_node_counts_in_strong_and_relaxed11_mode(mode, s, t, value, nodes):
    # the relaxed state's counts, pinned like the semistrong and relaxed(0,1)
    # ones: a changed probe or candidate order moves them
    g = parse_edge_list((Path(__file__).parent / "data" / "prism5.txt").read_text(encoding="utf-8"))
    res = exact_index(g, mode, 15, s=s, t=t)
    assert (res.value, res.proof, res.nodes) == (value, "exhausted", nodes)
    assert verify_relaxed(g, res.certificate, s, t).ok


def test_search_stays_linear_on_a_large_easy_instance():
    # at Delta^2 - 1 colors this graph colors greedily; a search that probed
    # every candidate at every position needed over a million nodes here
    g = families.random_max_degree(1000, 4, 1)
    res = feasibility(g, "semistrong", 15, budget=Budget(max_nodes=20 * g.edge_count))
    assert res.status == "sat"
    assert verify_semistrong(g, res.coloring).ok


def _random_graph(n, density, rng):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density])


def _snapshot(state):
    if isinstance(state, _SemistrongState):
        return [[row[:] for row in table] for table in (state.partner, state.sees, state.poison)]
    return state.colors[:], state.same1[:], state.same2[:]


@pytest.mark.parametrize("caps", [None, (0, 0), (0, 1), (1, 1)])
def test_fits_matches_the_definitions_and_undo_reverses_assign(caps):
    # caps None is the semistrong state, else the relaxed (s, t) state; the
    # graphs include triangles (K4, the 3-prism, random graphs of density 1/2).
    # fits changes nothing, assign then undo restores the state, and in the
    # first 25 rounds fits must match the definitions.
    rng = random.Random(31 if caps is None else 37 + 2 * caps[0] + caps[1])
    graphs = [families.complete_bipartite(2, 2), build_graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])]
    graphs += [families.prism(3)] + [_random_graph(rng.randint(5, 9), 0.5, rng) for _ in range(6)]
    for g in graphs:
        m = g.edge_count
        k = 5
        layout = _layout(g)
        n1, n2 = layout.n1, layout.n2
        mode = ("semistrong",) if caps is None else ("relaxed", *caps)
        for trial_round in range(100):
            state = _SemistrongState(g, k, layout) if caps is None else _RelaxedState(n1, n2, *caps)
            colors = [0] * m
            for e in rng.sample(range(m), rng.randint(0, m)):
                c = rng.randint(1, k)
                if state.fits(e, c):
                    state.assign(e, c)
                    colors[e] = c
            for e in range(m):
                if colors[e]:
                    continue
                for c in range(1, k + 1):
                    before = _snapshot(state)
                    verdict = state.fits(e, c)
                    assert _snapshot(state) == before
                    if verdict:
                        state.undo(state.assign(e, c))
                        assert _snapshot(state) == before
                    if trial_round < 25:
                        # the uncolored edges get colors of their own
                        trial = [colors[f] or -1 - f for f in range(m)]
                        trial[e] = c
                        assert verdict == naive_verify(g, trial, *mode)


def test_layout_matches_the_definitions_on_every_small_graph():
    # every graph with at most 7 vertices: n1 and n2 are each edge's distance-1
    # and distance-2 edges without repeats, near is n1 then n2, and common
    # holds the common neighbors of the edge's ends
    nx = pytest.importorskip("networkx")
    for G in nx.graph_atlas_g():
        g = build_graph(G.number_of_nodes(), [tuple(e) for e in G.edges()])
        m = g.edge_count
        layout = _layout(g)
        assert sorted(layout.order) == list(range(m))
        assert [layout.order[r] for r in layout.rank] == list(range(m))
        assert layout.nbrs == [list(g.neighbors(x)) for x in range(g.vertex_count)]
        for e, (u, v) in enumerate(g.edges):
            assert sorted(layout.n1[e]) == sorted(one_neighbors(g, e))
            assert sorted(layout.n2[e]) == sorted(two_neighbors(g, e))
            assert layout.near[e] == layout.n1[e] + layout.n2[e]
            assert sorted(layout.common[e]) == sorted(set(g.neighbors(u)) & set(g.neighbors(v)))


def _recount(g, partner):
    """sees and poison of one class, from the class matching alone."""
    n = g.vertex_count
    nbrs = [set(g.neighbors(x)) for x in range(n)]
    sees = [sum(partner[w] != -1 for w in nbrs[x]) for x in range(n)]
    # class vertices whose partner has a second class neighbor
    doomed = [partner[x] != -1 and sees[partner[x]] >= 2 for x in range(n)]
    class_edges = [(a, b) for a, b in enumerate(partner) if a < b]
    poison = [
        (partner[x] != -1) + sum(a in nbrs[x] and b in nbrs[x] for a, b in class_edges) + sum(doomed[w] for w in nbrs[x])
        for x in range(n)
    ]
    return sees, poison


def test_semistrong_counters_match_their_definitions():
    rng = random.Random(43)
    graphs = [families.prism(3), build_graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])]
    graphs += [_random_graph(rng.randint(5, 10), rng.choice((0.3, 0.5)), rng) for _ in range(8)]
    for g in graphs:
        k = 3
        state = _SemistrongState(g, k, _layout(g))
        tokens = []
        for _ in range(200):
            if tokens and rng.random() < 0.3:
                state.undo(tokens.pop())
            else:
                e, c = rng.randrange(g.edge_count), rng.randint(1, k)
                if state.fits(e, c):
                    tokens.append(state.assign(e, c))
            for c in range(1, k + 1):
                counters = (state.sees[c], state.poison[c])
                assert counters == _recount(g, state.partner[c])


def _brute_force_index(g, mode, s, t):
    # a class is valid in every mode iff the coloring that gives it one color
    # and every other edge a color of its own is valid; then the fewest valid
    # classes covering the edges, by dynamic programming over edge subsets
    m = g.edge_count
    full = (1 << m) - 1
    valid = [naive_verify(g, [0 if T >> e & 1 else e + 1 for e in range(m)], mode, s, t) for T in range(full + 1)]
    best = [0] + [m + 1] * full
    for S in range(1, full + 1):
        low = S & -S
        T = S
        while T:
            if T & low and valid[T]:
                best[S] = min(best[S], best[S ^ T] + 1)
            T = (T - 1) & S
    return best[full]


def test_exact_index_matches_brute_force():
    rng = random.Random(5)
    graphs = []
    while len(graphs) < 24:
        g = _random_graph(rng.randint(4, 8), 0.3, rng)
        if 1 <= g.edge_count <= 7:
            graphs.append(g)
    for g in graphs:
        for mode, s, t in (("semistrong", 0, 0), ("strong", 0, 0), ("relaxed", 0, 1)):
            res = exact_index(g, mode, g.edge_count, s=s, t=t)
            assert (res.value, res.proof) == (_brute_force_index(g, mode, s, t), "exhausted")
            assert naive_verify(g, res.certificate.colors, mode, s, t)


def test_disconnected_union_value():
    c4, c7 = families.cycle(4), families.cycle(7)
    g = build_graph(11, list(c4.edges) + [(u + 4, v + 4) for u, v in c7.edges])
    for mode, s, t in (("semistrong", 0, 0), ("strong", 0, 0), ("relaxed", 0, 1)):
        res = exact_index(g, mode, 6, s=s, t=t)
        assert (res.value, res.proof) == (4, "exhausted")
