from __future__ import annotations

import copy
import itertools
import pickle
import random

import pytest
from _oracles import naive_bfs_edge_order, random_union
from hypothesis import given, settings
from hypothesis import strategies as st

from semistrong import families
from semistrong.coloring import Coloring, from_list
from semistrong.exact import Budget, exact_index, feasibility
from semistrong.graph import (
    Graph,
    GraphError,
    _two_colors,
    _walk,
    bfs_edge_order,
    build_graph,
    connected_components,
    g_family_witness,
    is_complete_bipartite_dd,
    max_degree,
)
from semistrong.neighborhood import EdgeNeighborhood, compute_neighborhood
from semistrong.solver import solve
from semistrong.verify import badness


def test_build_c4():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.vertex_count == 4
    assert g.edge_count == 4
    assert g.edges[3] == (3, 0)
    assert g.degree(0) == 2
    assert g.edge_between(0, 3) == 3
    assert g.edge_between(3, 0) == 3


def test_build_single_vertex():
    g = build_graph(1, [])
    assert g.edge_count == 0
    assert max_degree(g) == 0


@pytest.mark.parametrize(
    "n,pairs,reason",
    [
        (3, [(0, 1), (0, 1)], "duplicate_edge"),
        (3, [(0, 1), (1, 0)], "duplicate_edge"),
        (2, [(0, 0)], "self_loop"),
        (2, [(0, 2)], "endpoint_out_of_range"),
        (2, [(-1, 0)], "endpoint_out_of_range"),
        (-1, [], "bad_vertex_count"),
    ],
)
def test_build_rejections(n, pairs, reason):
    with pytest.raises(GraphError) as exc:
        build_graph(n, pairs)
    assert exc.value.reason == reason


@pytest.mark.parametrize(
    "n,pairs,reason,message",
    [
        (3, [(0, 1), (1, 0), (2, 2)], "duplicate_edge", "edge 1 (1,0) duplicates an earlier edge"),
        (4, [(0, 1), (3, 3), (1, 0)], "self_loop", "edge 1 is a self-loop at vertex 3"),
        (3, [(0, 1), (3, 3), (1, 0)], "endpoint_out_of_range", "edge 1 (3,3) has an endpoint outside [0,3)"),
        (3, [(2, 2), (0, -1)], "self_loop", "edge 0 is a self-loop at vertex 2"),
        (3, [(0, 2), (1, 2), (2, 0), (0, 3)], "duplicate_edge", "edge 2 (2,0) duplicates an earlier edge"),
        (3, [(0, 1), (1, 2), (-1, 1), (1, 1)], "endpoint_out_of_range", "edge 2 (-1,1) has an endpoint outside [0,3)"),
    ],
)
def test_build_reports_the_first_offending_edge_in_input_order(n, pairs, reason, message):
    with pytest.raises(GraphError) as exc:
        build_graph(n, pairs)
    assert (exc.value.reason, str(exc.value)) == (reason, message)


def _first_offence(n, pairs):
    """(reason, edge index) of the first pair build_graph must reject, or None."""
    seen = set()
    for idx, (u, v) in enumerate(pairs):
        if not (0 <= u < n and 0 <= v < n):
            return "endpoint_out_of_range", idx
        if u == v:
            return "self_loop", idx
        if frozenset((u, v)) in seen:
            return "duplicate_edge", idx
        seen.add(frozenset((u, v)))
    return None


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(-2, n + 1), st.integers(-2, n + 1)), max_size=10))))
def test_build_rejects_exactly_the_first_offending_pair(case):
    n, pairs = case
    want = _first_offence(n, pairs)
    if want is None:
        assert build_graph(n, pairs).edges == tuple(pairs)
        return
    with pytest.raises(GraphError) as exc:
        build_graph(n, pairs)
    assert exc.value.reason == want[0]
    assert str(exc.value).startswith(f"edge {want[1]} ")


def _random_simple_graph(rng: random.Random):
    n = rng.randint(0, 12)
    p = rng.random()
    pairs = [(u, v) if rng.random() < 0.5 else (v, u) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    rng.shuffle(pairs)
    return build_graph(n, pairs)


def _assert_edge_between_matches_pairs(g, pairs):
    index = {frozenset(p): i for i, p in enumerate(pairs)}
    # u == v, negative and out-of-range vertices included: none has an edge
    for u in range(-3, g.vertex_count + 3):
        for v in range(-3, g.vertex_count + 3):
            want = index.get(frozenset((u, v)))
            assert g.edge_between(u, v) == want, (u, v)
            assert g.has_edge(u, v) is (want is not None)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.integers(0, 2**32))
def test_edge_between_matches_a_brute_force_pair_set(seed):
    rng = random.Random(seed)
    for g in (_random_simple_graph(rng), random_union(rng)):
        _assert_edge_between_matches_pairs(g, g.edges)
        for view in connected_components(g):
            local = {pv: lv for lv, pv in enumerate(view.vertex_map)}
            pairs = [(local[g.edges[pe][0]], local[g.edges[pe][1]]) for pe in view.edge_map]
            _assert_edge_between_matches_pairs(view.graph, pairs)


def test_graph_and_component_view_survive_pickle_and_deepcopy():
    g = build_graph(6, [(0, 1), (4, 2), (2, 3), (3, 4)])
    view = connected_components(g)[1]
    for clone in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
        h = clone(g)
        assert (h.vertex_count, h.edges, h.adjacency) == (g.vertex_count, g.edges, g.adjacency)
        assert [h.edge_between(2, w) for w in range(6)] == [None, None, None, 2, 1, None]
        w = clone(view)
        assert (w.vertex_map, w.edge_map) == (view.vertex_map, view.edge_map) == ((2, 3, 4), (1, 2, 3))
        assert (w.graph.edges, w.graph.adjacency) == (view.graph.edges, view.graph.adjacency)
        assert w.graph.edge_between(2, 0) == 0
    # slots and frozen: no per-instance dict, no assignment
    assert not hasattr(g, "__dict__") and not hasattr(view, "__dict__")
    with pytest.raises(AttributeError):
        g.vertex_count = 7


def _records():
    """One value of each public record type as the package builds it, by type
    name, with whether it is immutable; a Graph and an EdgeNeighborhood are
    equal only to themselves."""
    g = families.prism(5)
    solved = solve(g, "semistrong")
    return {
        "Graph": (g, True),
        "Coloring": (solved.coloring, True),
        "Budget": (Budget(max_seconds=2.5, max_nodes=10), True),
        "FeasibilityResult": (feasibility(families.cycle(7), "semistrong", 4), True),
        "ExactResult": (exact_index(families.cycle(4), "semistrong", 4), True),
        "BadnessReport": (badness(g, from_list([1] * g.edge_count)), True),
        "EdgeNeighborhood": (compute_neighborhood(g, 0), True),
        "ComponentTrace": (solved.trace[0], False),
        "SolveResult": (solved, False),
    }


def _fields(value) -> tuple[str, ...]:
    return value._fields if isinstance(value, tuple) else value.__slots__  # a NamedTuple, or a slots record


@pytest.mark.parametrize(
    "name",
    [
        "Graph", "Coloring", "Budget", "FeasibilityResult", "ExactResult", "BadnessReport",
        "EdgeNeighborhood", "ComponentTrace", "SolveResult",
    ],
)
def test_records_survive_pickle_and_deepcopy_and_frozen_ones_refuse_assignment(name):
    value, frozen = _records()[name]
    assert type(value).__name__ == name
    fields = _fields(value)
    before = [getattr(value, f) for f in fields]
    for clone in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
        copied = clone(value)
        assert type(copied) is type(value) and copied is not value
        assert [getattr(copied, f) for f in fields] == [getattr(value, f) for f in fields]
        if isinstance(value, (Graph, EdgeNeighborhood)):
            assert copied != value and hash(copied) != hash(value)
        else:
            assert copied == value
            if frozen:
                assert hash(copied) == hash(value)
    if not frozen:
        with pytest.raises(TypeError):
            hash(value)
    for field in fields if frozen else ():
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert [getattr(value, f) for f in fields] == before


# each slots record's fields, in the order its class declares them
_DECLARED = {
    "Graph": ("vertex_count", "edges", "adjacency"),
    "EdgeNeighborhood": ("edge", "u", "v", "n1", "n2", "f_set", "t6", "n2_u", "n2_v", "c_delta", "type_of"),
    "ComponentTrace": (
        "strategy", "vertices", "edges", "delta", "colors_used", "exceeds_bound",
        "moves_by_schema", "fallback_f3", "kappa_trajectory",
    ),
    "SolveResult": ("coloring", "colors_used", "mode", "trace", "certificates", "kappa"),
}


@pytest.mark.parametrize("name", ["Budget", "Coloring", *_DECLARED])
def test_record_repr_lists_its_fields_in_declaration_order(name):
    value = _records()[name][0]
    if name == "Budget":
        assert repr(value) == "Budget(max_seconds=2.5, max_nodes=10)"
    elif name == "Coloring":
        assert eval(repr(value), {"Coloring": Coloring}) == value
    else:
        assert repr(value) == f"{name}({', '.join(f'{f}={getattr(value, f)!r}' for f in _DECLARED[name])})"


def test_adjacency_consistency():
    for g in [families.prism(5), families.hypercube(3), families.c7_blowup()]:
        counts = [0] * g.edge_count
        for v in range(g.vertex_count):
            assert g.degree(v) == len(g.adjacency[v])
            for w, e in g.adjacency[v]:
                assert v in g.edges[e] and w in g.edges[e]
                counts[e] += 1
        assert all(c == 2 for c in counts)
        assert sum(g.degree(v) for v in range(g.vertex_count)) == 2 * g.edge_count


def test_max_degree_values():
    assert max_degree(families.cycle(4)) == 2
    assert max_degree(families.complete_bipartite(3, 3)) == 3
    assert max_degree(families.h_graph(3)) == 3


def test_components_single():
    g = families.cycle(4)
    views = connected_components(g)
    assert len(views) == 1
    # a connected graph is its own component, so caches keyed on it are shared
    assert views[0].graph is g
    assert views[0].vertex_map == (0, 1, 2, 3)
    assert views[0].edge_map == (0, 1, 2, 3)


def test_components_shuffled_union_maps_back():
    rng = random.Random(5)
    parts = [families.prism(4), families.cycle(7), families.path(2), families.complete_bipartite(3, 3), families.path(5)]
    n = sum(p.vertex_count for p in parts)
    label = list(range(n))
    rng.shuffle(label)
    pairs, offset = [], 0
    for p in parts:
        pairs += [(label[u + offset], label[v + offset]) for u, v in p.edges]
        offset += p.vertex_count
    rng.shuffle(pairs)
    pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
    g = build_graph(n + 2, pairs)  # plus two isolated vertices
    views = connected_components(g)
    assert len(views) == len(parts) + 2
    assert [v.vertex_map[0] for v in views] == sorted(v.vertex_map[0] for v in views)
    assert sorted(pe for v in views for pe in v.edge_map) == list(range(g.edge_count))
    assert sorted(pv for v in views for pv in v.vertex_map) == list(range(g.vertex_count))
    for view in views:
        assert list(view.vertex_map) == sorted(view.vertex_map)
        assert list(view.edge_map) == sorted(view.edge_map)
        for le, pe in enumerate(view.edge_map):
            lu, lv = view.graph.edges[le]
            assert (view.vertex_map[lu], view.vertex_map[lv]) == g.edges[pe]


def test_components_disjoint_union():
    c4 = families.cycle(4)
    c5 = families.cycle(5)
    pairs = list(c4.edges) + [(u + 4, v + 4) for u, v in c5.edges]
    g = build_graph(9, pairs)
    views = connected_components(g)
    assert len(views) == 2
    assert views[0].graph.vertex_count == 4
    assert views[1].graph.vertex_count == 5
    # edge endpoints map consistently
    for view in views:
        for le, pe in enumerate(view.edge_map):
            lu, lv = view.graph.edges[le]
            assert {view.vertex_map[lu], view.vertex_map[lv]} == set(g.edges[pe])


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_each_component_equals_build_graph_of_its_local_edges(seed):
    # components are relabelled from the parent's adjacency, not rebuilt
    g = random_union(random.Random(seed))
    views = connected_components(g)
    assert len(views) > 1
    for view in views:
        comp = view.graph
        local = {pv: lv for lv, pv in enumerate(view.vertex_map)}
        built = build_graph(len(view.vertex_map), [(local[g.edges[pe][0]], local[g.edges[pe][1]]) for pe in view.edge_map])
        assert (comp.vertex_count, comp.edges, comp.adjacency) == (built.vertex_count, built.edges, built.adjacency)
        for u in range(comp.vertex_count):
            for v in range(comp.vertex_count):
                assert comp.edge_between(u, v) == built.edge_between(u, v)
        assert max_degree(comp) == max((comp.degree(v) for v in range(comp.vertex_count)), default=0)


def test_components_edgeless():
    g = build_graph(3, [])
    assert len(connected_components(g)) == 3


def test_complete_bipartite_recognition():
    assert is_complete_bipartite_dd(families.complete_bipartite(3, 3), 3)
    assert not is_complete_bipartite_dd(families.prism(3), 3)
    assert is_complete_bipartite_dd(families.cycle(4), 2)
    assert not is_complete_bipartite_dd(families.complete_bipartite(2, 3), 2)
    assert not is_complete_bipartite_dd(families.complete_bipartite(3, 3), 2)


def test_complete_bipartite_rejects_disconnected():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(GraphError) as exc:
        is_complete_bipartite_dd(g, 1)
    assert exc.value.reason == "disconnected"


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return build_graph(10, outer + inner + spokes)


def test_g_family_witness_k33():
    g = families.complete_bipartite(3, 3)
    w = g_family_witness(g)
    assert w is not None
    # every edge qualifies, so the smallest index is returned
    assert w == 0


def test_g_family_witness_prism3():
    g = families.prism(3)
    w = g_family_witness(g)
    assert w is not None
    # verify by direct adjacency enumeration
    u, v = g.edges[w]
    assert set(g.neighbors(u)) | set(g.neighbors(v)) == set(range(6))


def test_g_family_witness_petersen_none():
    g = petersen()
    # 3-regular on 10 vertices: not d-regular for d = n/2, so no witness
    assert g_family_witness(g) is None
    # confirm by enumerating all edges anyway
    for u, v in g.edges:
        assert len(set(g.neighbors(u)) | set(g.neighbors(v))) < 10


def test_g_family_witness_prisms():
    assert g_family_witness(families.prism(3)) is not None
    for n in range(4, 8):
        assert g_family_witness(families.prism(n)) is None


def test_kdd_implies_witness():
    for d in range(1, 5):
        assert g_family_witness(families.complete_bipartite(d, d)) is not None


def test_bfs_edge_order_covers_all():
    for g in [families.prism(4), build_graph(5, [(0, 1), (3, 4)])]:
        order = bfs_edge_order(g)
        assert sorted(order) == list(range(g.edge_count))


def test_walk_matches_the_definition_and_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(27)
    graphs = [build_graph(0, []), build_graph(6, []), families.prism(5), families.complete_bipartite(3, 4)]
    graphs += [random_union(random.Random(seed)) for seed in range(30)]
    for _ in range(40):  # sparse and dense, connected or not, isolated vertices kept
        n, density = rng.randint(1, 14), rng.choice((0.1, 0.3, 0.7))
        pairs = [p for p in itertools.combinations(range(n), 2) if rng.random() < density]
        rng.shuffle(pairs)
        graphs.append(build_graph(n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]))
    kinds = set()
    for g in graphs:
        G = nx.Graph()
        G.add_nodes_from(range(g.vertex_count))
        G.add_edges_from(g.edges)
        assert bfs_edge_order(g) == naive_bfs_edge_order(g)
        label, side, order, starts = _walk(g)
        comps = sorted(sorted(c) for c in nx.connected_components(G))
        assert len(starts) - 1 == len(comps)
        assert [[v for v in range(g.vertex_count) if label[v] == i] for i in range(len(comps))] == comps
        for i, comp in enumerate(comps):
            assert sorted(order[starts[i] : starts[i + 1]]) == [e for e, (u, _) in enumerate(g.edges) if label[u] == i]
        # the walk's depth parities 2-color exactly the bipartite graphs
        two = _two_colors(g, range(g.edge_count), side)
        assert two == nx.is_bipartite(G)
        kinds.add((len(comps) > 1, g.edge_count == 0, not two))
    assert {(True, True, False), (True, False, False), (False, False, False), (True, False, True), (False, False, True)} <= kinds
