from __future__ import annotations

import functools
import itertools
import random
import re

import pytest

from _oracles import contact_greedy, random_union, smallest_color_start
from semistrong import construct, families, graph, solver
from semistrong.coloring import from_list
from semistrong.graph import (
    Graph,
    GraphError,
    build_graph,
    connected_components,
    g_family_witness,
    is_complete_bipartite_dd,
    max_degree,
)
from semistrong.neighborhood import compute_neighborhood
from semistrong.solver import (
    EngineInvariantError,
    PaletteExhaustedError,
    _Contacts,
    _Engine,
    _repair_engine,
    greedy_good_coloring,
    repair,
    solve,
)
from semistrong.verify import VerifyResult, badness, certify, is_good_coloring, verify_relaxed, verify_semistrong


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return build_graph(10, outer + inner + spokes)


def spider_tree():
    # max degree 3 tree: a path with branches
    return build_graph(8, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (4, 6), (4, 7)])


def test_greedy_good_on_petersen():
    g = petersen()
    c = greedy_good_coloring(g, 8)
    assert is_good_coloring(g, c)
    assert max(c.colors) <= 8


def test_greedy_stuck_on_k33():
    with pytest.raises(PaletteExhaustedError) as exc:
        greedy_good_coloring(families.complete_bipartite(3, 3), 8)
    assert 0 <= exc.value.edge < 9


def test_greedy_on_tree():
    g = spider_tree()
    assert max_degree(g) == 3
    for e in range(g.edge_count):
        assert len(compute_neighborhood(g, e).f_set) <= 7
    c = greedy_good_coloring(g, 8)
    assert is_good_coloring(g, c)


def test_good_colorings_bad_pairs_are_single_cross():
    for seed in range(12):
        g = families.random_max_degree(12, 4, seed)
        d = max_degree(g)
        if d < 3 or g_family_witness(g) is not None:
            continue
        c = greedy_good_coloring(g, d * d - 1)
        rep = badness(g, c)
        for e, f in rep.bad_pairs:
            nb = compute_neighborhood(g, e)
            assert f in nb.t6


def test_find_improving_move_progresses():
    # scan seeded graphs until the smallest-color start leaves bad edges,
    # then check the move
    found = 0
    for seed in range(60):
        g = families.random_max_degree(12, 4, seed)
        d = max_degree(g)
        if d < 3 or g_family_witness(g) is not None:
            continue
        c = smallest_color_start(g, d * d - 1)
        rep = badness(g, c)
        if rep.kappa1 == 0:
            continue
        found += 1
        eng = _Engine(_Contacts.of(g, c))
        move = eng.find_move()
        assert move is not None
        new_colors = list(c.colors)
        for e, col in move.assignments:
            new_colors[e] = col
        assert eng.colors == new_colors
        c2 = from_list(new_colors, c.k)
        assert is_good_coloring(g, c2)
        rep2 = badness(g, c2)
        assert rep2.potential < rep.potential
        assert rep2.potential == eng.state.potential()
    assert found >= 3  # the corpus really exercises the engine


def test_repair_petersen():
    g = petersen()
    c = repair(g, smallest_color_start(g, 8), debug=True)
    assert badness(g, c).kappa1 == 0
    assert is_good_coloring(g, c)
    assert verify_semistrong(g, c).ok
    assert verify_relaxed(g, c, 0, 1).ok
    assert max(c.colors) <= 8


def test_repair_prism5():
    g = families.prism(5)
    c = repair(g, smallest_color_start(g, 8), debug=True)
    assert verify_semistrong(g, c).ok
    assert c.distinct_colors() <= 8


def test_repair_fixed_point():
    g = petersen()
    clean = repair(g, smallest_color_start(g, 8))
    again = repair(g, clean)
    assert again.colors == clean.colors


def test_repair_returns_a_clean_coloring_without_building_the_engine(monkeypatch):
    g = petersen()
    clean = repair(g, smallest_color_start(g, 8))

    def failing(state, debug=False):
        raise AssertionError("a clean coloring reached the engine")

    monkeypatch.setattr(solver, "_Engine", failing)
    for mode in ("semistrong", "relaxed01"):
        assert repair(g, clean, debug=True, mode=mode) is clean
    with pytest.raises(AssertionError, match="engine"):
        repair(g, smallest_color_start(g, 8))


def test_repair_rejects_bad_inputs():
    g = families.cycle(6)
    with pytest.raises(ValueError):
        repair(g, from_list([1, 2, 3, 1, 2, 3]))  # max degree 2
    k33 = families.complete_bipartite(3, 3)
    with pytest.raises(Exception):
        repair(k33, from_list(range(1, 10)))  # in the covering-edge family
    # a mode solve rejects, which F3 would otherwise take for semistrong
    g = families.prism(7)
    start = greedy_good_coloring(g, 8)
    assert badness(g, start).kappa1 > 0
    with pytest.raises(ValueError) as rejected:
        solve(g, "bogus")
    with pytest.raises(ValueError, match=re.escape(str(rejected.value))):
        repair(g, start, mode="bogus")


def test_repair_trajectory_strictly_decreasing():
    for seed in (3, 7, 11, 19):
        g = families.random_max_degree(13, 4, seed)
        d = max_degree(g)
        if d < 3 or g_family_witness(g) is not None:
            continue
        state = _Contacts.of(g, smallest_color_start(g, d * d - 1))
        trace = _repair_engine(state, debug=True, mode="semistrong")
        traj = trace.kappa_trajectory
        for a, b in zip(traj, traj[1:]):
            assert b < a
        assert trace.fallback_f3 == 0
        assert badness(g, state.to_coloring()).kappa1 == 0


def test_solve_c7_semistrong():
    res = solve(families.cycle(7), "semistrong")
    assert res.colors_used == 4
    assert res.trace[0].strategy == "delta2"
    assert res.certificates["semistrong"]


def test_solve_c4_modes():
    assert solve(families.cycle(4), "semistrong").colors_used == 4
    res = solve(families.cycle(4), "relaxed01")
    assert res.colors_used == 2
    assert res.certificates["relaxed01"]


def test_solve_disjoint_union_reuses_colors():
    pet = petersen()
    pairs = list(pet.edges) + [(u + 10, v + 10) for u, v in families.cycle(6).edges]
    g = build_graph(16, pairs)
    res = solve(g, "semistrong")
    assert res.colors_used <= 8
    assert len(res.trace) == 2
    assert {t.strategy for t in res.trace} == {"greedy_repair", "delta2"}
    assert res.certificates["semistrong"]


def test_solve_k33_relaxed():
    res = solve(families.complete_bipartite(3, 3), "relaxed01")
    assert res.colors_used == 5
    assert res.trace[0].strategy == "kdd"
    res = solve(families.complete_bipartite(3, 3), "semistrong")
    assert res.colors_used == 9
    assert res.trace[0].exceeds_bound


def test_solve_prism3_uses_family_branch():
    res = solve(families.prism(3), "semistrong")
    assert res.trace[0].strategy == "g_family"
    assert res.colors_used == 8
    assert not res.trace[0].exceeds_bound
    assert res.certificates["semistrong"] and res.certificates["relaxed01"]


def _shuffled_union(parts, seed):
    """The disjoint union of parts, its vertices relabelled and its edges
    reordered from the seed."""
    rng = random.Random(seed)
    n = sum(p.vertex_count for p in parts)
    label = list(range(n))
    rng.shuffle(label)
    pairs, offset = [], 0
    for p in parts:
        pairs += [(label[u + offset], label[v + offset]) for u, v in p.edges]
        offset += p.vertex_count
    rng.shuffle(pairs)
    return build_graph(n, pairs)


def _union(parts):
    """The disjoint union of parts, each keeping the order of its labels, and
    so its breadth-first order and greedy start."""
    pairs, offset = [], 0
    for p in parts:
        pairs += [(u + offset, v + offset) for u, v in p.edges]
        offset += p.vertex_count
    return build_graph(offset, pairs)


def _count_calls(monkeypatch, name: str) -> list[int]:
    """Count the calls of graph.<name> wherever graph, solver or construct
    bind it; the list holds one entry per call."""
    fn = getattr(graph, name)
    calls: list[int] = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for mod in (graph, solver, construct):
        if getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_solve_recognizes_each_special_component_once(monkeypatch):
    # K_{3,3} and the 3-prism are 3-regular on 6 vertices; the 4-prism is not
    parts = [families.complete_bipartite(3, 3)] * 10 + [families.prism(3)] * 10 + [families.prism(4)] * 10
    g = _shuffled_union(parts, 23)
    walks = _count_calls(monkeypatch, "_walk")
    others = [_count_calls(monkeypatch, name) for name in ("is_complete_bipartite_dd", "bfs_edge_order")]
    for mode in ("semistrong", "relaxed01"):
        walks.clear()
        res = solve(g, mode)
        assert sorted(t.strategy for t in res.trace) == ["g_family"] * 10 + ["greedy_repair"] * 10 + ["kdd"] * 10
        # one walk gives the components, their edge orders and their sides
        assert len(walks) == 1
        assert not any(others)
    walks.clear()
    assert solve(families.prism(7), "semistrong").trace[0].strategy == "greedy_repair"
    assert len(walks) == 1


def test_connectivity_checks_build_no_component(monkeypatch):
    g = _shuffled_union([families.prism(3), families.prism(4)], 5)
    c = greedy_good_coloring(g, 8)

    def refuse(*args):
        raise AssertionError("a connectivity check relabelled a component")

    monkeypatch.setattr(graph, "_induced", refuse)
    with pytest.raises(GraphError) as exc:
        repair(g, c)
    assert exc.value.reason == "disconnected"
    with pytest.raises(GraphError) as exc:
        construct.color_g_family(g, 0)
    assert exc.value.reason == "disconnected"


def test_solve_dispatch_matches_the_public_recognizers():
    nx = pytest.importorskip("networkx")
    graphs = []
    for G in nx.graph_atlas_g():
        n = G.number_of_nodes()
        if n and nx.is_connected(G):
            g = build_graph(n, [tuple(e) for e in G.edges()])
            if max_degree(g) >= 3:
                graphs.append(g)
    graphs += [_shuffled_union([families.complete_bipartite(d, d)], d) for d in range(3, 7)]
    # two covering-edge-family members that are not bipartite
    graphs += [families.random_max_degree(8, 4, 1), families.random_max_degree(10, 5, 0)]
    seen = set()
    for g in graphs:
        d = max_degree(g)
        kdd = is_complete_bipartite_dd(g, d)
        member = g_family_witness(g) is not None and not kdd
        strategy = solve(g, "semistrong").trace[0].strategy
        assert (strategy == "kdd") == kdd
        assert (strategy == "g_family") == member
        seen.add(strategy)
    assert seen == {"kdd", "g_family", "greedy_repair"}


def test_solve_c7_blowup():
    res = solve(families.c7_blowup(), "semistrong", debug=True)
    assert res.trace[0].strategy == "greedy_repair"
    assert res.colors_used <= 15
    assert res.trace[0].fallback_f3 == 0
    assert res.certificates["semistrong"] and res.certificates["relaxed01"]


def test_solve_trivial_components():
    g = build_graph(4, [(0, 1)])
    res = solve(g, "semistrong")
    assert res.colors_used == 1
    assert [t.strategy for t in res.trace] == ["trivial", "trivial", "trivial"]


def test_solve_bad_mode():
    with pytest.raises(ValueError):
        solve(families.cycle(4), "strong")


def test_solve_c7_relaxed():
    res = solve(families.cycle(7), "relaxed01")
    assert res.colors_used == 4
    assert res.certificates["relaxed01"]
    assert res.trace[0].exceeds_bound  # 4 > 3, the lone relaxed exception


def test_solve_path_component():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    res = solve(g, "semistrong")
    assert res.colors_used == 3
    assert res.certificates["semistrong"] and res.certificates["relaxed01"]
    assert res.trace[0].strategy == "delta2"
    # shuffled labels put the walk's start anywhere along the path or cycle
    rng = random.Random(2)
    for n in range(3, 40):
        path_colors = min(3, n - 1)
        cycle_colors = 4 if n in (4, 7) else 3
        shapes = [
            (families.path(n), path_colors, path_colors),
            (families.cycle(n), cycle_colors, 2 if n == 4 else cycle_colors),
        ]
        for base, semistrong_colors, relaxed_colors in shapes:
            label = list(range(n))
            rng.shuffle(label)
            pairs = [(label[u], label[v]) for u, v in base.edges]
            rng.shuffle(pairs)
            shuffled = build_graph(n, pairs)
            for mode, expected in (("semistrong", semistrong_colors), ("relaxed01", relaxed_colors)):
                res = solve(shuffled, mode)
                assert res.trace[0].strategy == "delta2"
                assert res.certificates[mode]
                assert res.colors_used == expected


def test_solve_on_many_components_equals_solve_on_each_component():
    for seed in range(60):
        g = random_union(random.Random(seed))
        views = connected_components(g)
        for mode in ("semistrong", "relaxed01"):
            res = solve(g, mode)
            assert len(res.trace) == len(views)
            for view, trace in zip(views, res.trace):
                alone = solve(view.graph, mode)
                assert [res.coloring.colors[pe] for pe in view.edge_map] == list(alone.coloring.colors)
                assert [trace] == alone.trace


def test_solve_colors_paths_cycles_and_trivial_components_on_the_parent(monkeypatch):
    parts = [families.path(1)] * 4 + [families.path(2)] * 3 + [families.path(n) for n in range(3, 12)]
    parts += [families.cycle(n) for n in range(3, 14)] * 2
    # K_{3,3}, the 3-prism and the 5-prism: kdd, g_family and greedy_repair
    parts += [families.complete_bipartite(3, 3), families.prism(3), families.prism(5)] * 2
    g = _shuffled_union(parts, 31)
    built, states = [], []
    init, state_init = Graph.__init__, _Contacts.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def counting_state(self, *args):
        states.append(args)
        state_init(self, *args)

    def refuse(_):
        raise AssertionError("solve split the graph with connected_components")

    monkeypatch.setattr(Graph, "__init__", counting_init)
    monkeypatch.setattr(_Contacts, "__init__", counting_state)
    monkeypatch.setattr(graph, "connected_components", refuse)
    for mode in ("semistrong", "relaxed01"):
        states.clear()
        res = solve(g, mode)
        assert res.certificates[mode]
        assert len(res.trace) == len(parts)
        assert {t.strategy for t in res.trace} == {"trivial", "delta2", "kdd", "g_family", "greedy_repair"}
        assert len(states) == 1
        assert built == []
        # the debug checkers hold each Delta >= 3 component on its own Graph
        assert solve(g, mode, debug=True).coloring == res.coloring
        built.clear()


def test_debug_solve_checks_a_connected_input_on_its_own_graph(monkeypatch):
    # prism(7) repairs its greedy start, so check runs after greedy and after
    # every move, each time on the input's own Graph
    g = families.prism(7)
    built = []
    init = Graph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    for mode in ("semistrong", "relaxed01"):
        res = solve(g, mode, debug=True)
        assert res.certificates[mode] and res.trace[0].moves_by_schema
    assert built == []


def _counting_engines(monkeypatch) -> list:
    """The component (vertices, edge ids) and the engine of every repair
    engine built from now on."""
    built = []

    def counting(state, debug=False):
        engine = _Engine(state, debug)
        built.append((state.part, state.edges, engine))
        return engine

    monkeypatch.setattr(solver, "_Engine", counting)
    return built


def test_checks_on_a_disconnected_graph_build_no_parent_neighborhoods(monkeypatch):
    from semistrong import neighborhood
    from semistrong.formats import emit_result

    built = _counting_engines(monkeypatch)
    single = []

    def counting_single(graph, e):
        single.append((graph, e))
        return neighborhood.compute_neighborhood(graph, e)

    monkeypatch.setattr(solver, "compute_neighborhood", counting_single)
    # the fallback graph's start has a bad edge
    parts = [families.cycle(7), families.complete_bipartite(3, 3), families.path(5), families.prism(4)]
    g = _union([build_graph(10, FALLBACK_EDGES), _shuffled_union(parts, 12)])
    views = connected_components(g)
    for mode in ("semistrong", "relaxed01"):
        built.clear()
        single.clear()
        res = solve(g, mode, debug=True)
        assert res.certificates[mode]
        assert '"valid": true' in emit_result(g, res)
        # one engine, on the greedy_repair component whose start has a bad
        # edge, and neighborhoods only of that component's edges; the
        # certificates and the badness audit count contacts from the adjacency
        repaired = [set(view.edge_map) for view, t in zip(views, res.trace) if t.strategy == "greedy_repair"]
        assert len(repaired) == 2 and len(built) == 1
        edges = set(built[0][1])
        assert edges in repaired and single
        assert all(h is g and e in edges for h, e in single)


def test_solve_builds_each_engine_on_its_component_s_degree_and_palette(monkeypatch):
    # K_5 (Delta 4, a clean start) beside the 7-prism (Delta 3) and the C_7
    # blow-up (Delta 4), whose starts have bad edges: each engine takes its
    # component's Delta and palette, so the stage asserts stay on
    built = _counting_engines(monkeypatch)
    k5 = build_graph(5, list(itertools.combinations(range(5), 2)))
    parts = [k5, families.prism(7), families.c7_blowup()]
    g = _union(parts)
    for mode in ("semistrong", "relaxed01"):
        built.clear()
        res = solve(g, mode, debug=True)
        assert res.certificates[mode]
        assert sorted(engine.delta for _, _, engine in built) == [3, 4]
        for part, edges, engine in built:
            assert engine.delta == max(g.degree(v) for v in part)
            assert engine.enforce_invariants and engine.k == engine.delta**2 - 1
            # the 7-prism has 21 edges and the blow-up 28, on 14 vertices each
            assert (len(part), len(edges)) == (14, 21 if engine.delta == 3 else 28)
        # each component's potential is its own, so with debug off (which
        # would hold a stale one to the checkers) every trace, its
        # kappa_trajectory included, is that of the component solved alone
        assert solve(g, mode).trace == [solve(p, mode).trace[0] for p in parts]


def test_solve_carries_the_certificate_and_kappa_of_its_coloring():
    g = families.c7_blowup()
    for mode in ("semistrong", "relaxed01"):
        res = solve(g, mode)
        assert res.kappa == badness(g, res.coloring).potential
        assert res.certificates == {
            "semistrong": verify_semistrong(g, res.coloring).ok,
            "relaxed01": verify_relaxed(g, res.coloring, 0, 1).ok,
        }


def test_solve_raises_when_a_certificate_fails_or_disagrees(monkeypatch):
    g = families.prism(5)
    failed = VerifyResult(False, (1, 0))

    def failing(field):
        def fake(g, c):
            cert = certify(g, c)
            return cert._replace(**{field: failed})

        return fake

    for mode, field in (("semistrong", "semistrong"), ("relaxed01", "relaxed")):
        monkeypatch.setattr(solver, "certify", failing(field))
        with pytest.raises(EngineInvariantError, match=f"invalid {mode}"):
            solve(g, mode)
    # debug=True holds certify to the independent checkers
    monkeypatch.setattr(solver, "certify", lambda g, c: certify(g, c)._replace(kappa=(1, 1)))
    assert solve(g, "semistrong").kappa == (1, 1)
    with pytest.raises(EngineInvariantError, match="disagrees"):
        solve(g, "semistrong", debug=True)


# random_max_degree(10, 3, 8): the contact rule finds no color for one edge
# and falls back, so the start has a bad edge and solve runs the engine
FALLBACK_EDGES = [
    (1, 2), (0, 4), (4, 6), (7, 9), (2, 7), (5, 9), (2, 6), (4, 8), (3, 6), (0, 5),
    (1, 3), (7, 8), (1, 9), (5, 8), (0, 3),
]


def test_solve_runs_the_engine_only_when_the_start_has_a_bad_edge(monkeypatch):
    built = _counting_engines(monkeypatch)
    fallback = build_graph(10, FALLBACK_EDGES)
    assert contact_greedy(fallback, 8)[1] == 1
    clean = families.hypercube(3)
    assert contact_greedy(clean, 8)[1] == 0
    for mode in ("semistrong", "relaxed01"):
        built.clear()
        res = solve(fallback, mode, debug=True)
        assert [(len(part), len(edges)) for part, edges, _ in built] == [(10, 15)]
        (trace,) = res.trace
        assert trace.strategy == "greedy_repair"
        assert trace.moves_by_schema == {"S1": 3, "S2": 1}
        assert trace.kappa_trajectory[0] == (1, 7) and trace.kappa_trajectory[-1] == (0, 3)
        assert res.certificates[mode] and res.kappa == (0, 3)
        built.clear()
        res = solve(clean, mode, debug=True)
        assert built == []
        (trace,) = res.trace
        assert (trace.strategy, trace.moves_by_schema, trace.fallback_f3) == ("greedy_repair", {}, 0)
        assert trace.kappa_trajectory == [res.kappa] == [(0, 4)]
        assert res.certificates[mode]


def test_debug_solve_holds_the_greedy_start_to_the_checkers(monkeypatch):
    g = families.hypercube(3)
    greedy = solver._greedy

    def miscounted(state, order):
        greedy(state, order)
        state.count[0] += 1
        return state

    def not_good(state, order):
        greedy(state, order)
        state.colors[1] = state.colors[0]  # edges 0 and 1 share vertex 0
        return state

    def unmapped(state, order):
        greedy(state, order)
        state.held[g.edges[0][0]] ^= 1 << state.colors[0]
        return state

    def mispaired(state, order):
        greedy(state, order)
        state.pairs += 1
        return state

    assert set(g.edges[0]) & set(g.edges[1])
    for fake, why in (
        (miscounted, "disagree with a recount"),
        (not_good, "not a good coloring"),
        (unmapped, "disagree with a recount"),
        (mispaired, "pair count disagree with a recount"),
    ):
        monkeypatch.setattr(solver, "_greedy", fake)
        with pytest.raises(EngineInvariantError, match=why):
            solve(g, "semistrong", debug=True)


def test_debug_repair_holds_every_move_to_the_checkers(monkeypatch):
    fallback = build_graph(10, FALLBACK_EDGES)
    lift, place = _Contacts.lift, _Contacts.place

    def forgetful(state, e):  # one contact keeps its count
        contacts = lift(state, e)
        for f in contacts[:1]:
            state.count[f] += 1
        return contacts

    def overcounted(state, e, c, contacts):  # one pair too many
        place(state, e, c, contacts)
        state.pairs += 1

    def dropped(state, e, c, contacts):  # the contacts leave the bad set
        place(state, e, c, contacts)
        state.bad.difference_update(contacts)

    def faking(name, fake):
        """An _Engine maker that gives the state fake as its method name, so
        repair runs the fake and greedy's start stays exact."""

        def engine(state, debug=False):
            setattr(state, name, functools.partial(fake, state))
            return _Engine(state, debug)

        return engine

    assert solve(fallback, "semistrong", debug=True).trace[0].moves_by_schema["S1"] == 3
    for name, fake, why in (
        ("lift", forgetful, "contact counts or color masks disagree"),
        ("place", overcounted, "pair count disagree"),
        ("place", dropped, "bad set, its heap or the pair count disagree"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_Engine", faking(name, fake))
            with pytest.raises(EngineInvariantError, match=f"move S1 .*{why}"):
                solve(fallback, "semistrong", debug=True)
