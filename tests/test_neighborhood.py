from __future__ import annotations

import dataclasses
import gc
from fractions import Fraction

import pytest

from _oracles import (
    counting_identity_sides,
    cross_edges,
    has_triangle,
    one_neighbors,
    two_neighbors,
    type_class,
)
from semistrong import families
from semistrong.graph import Graph, build_graph, max_degree
from semistrong.coloring import from_list
from semistrong.neighborhood import PairType, compute_neighborhood, m_set, observation_bound, rings
from semistrong.solver import _Contacts

CORPUS = [
    families.cycle(4),
    families.cycle(5),
    families.cycle(7),
    families.path(6),
    families.complete_bipartite(3, 3),
    families.complete_bipartite(2, 4),
    families.prism(3),
    families.prism(5),
    families.hypercube(3),
    families.h_graph(3),
    families.c7_blowup(),
] + [families.random_max_degree(10, 4, seed) for seed in range(8)]


def test_rings_match_pairwise_enumeration():
    for g in CORPUS:
        for e in range(g.edge_count):
            nb = compute_neighborhood(g, e)
            assert nb.n1 == frozenset(one_neighbors(g, e))
            assert nb.n2 == frozenset(two_neighbors(g, e))
            assert not nb.n1 & nb.n2
            assert nb.n2 == nb.n2_u | nb.n2_v
            n2 = rings(g, e)[1]
            assert len(n2) == len(set(n2))


def test_type_partition_and_f_set():
    for g in CORPUS:
        for e in range(g.edge_count):
            nb = compute_neighborhood(g, e)
            assert set(nb.type_of) == set(nb.n2)
            t_sets = [type_class(nb, t) for t in PairType]
            assert frozenset().union(*t_sets) == nb.n2
            for i in range(6):
                for j in range(i + 1, 6):
                    assert not t_sets[i] & t_sets[j]
            assert nb.f_set == nb.n1.union(*t_sets[:5])
            assert nb.t6 == nb.n2 - nb.f_set
            assert type_class(nb, PairType.T4) <= nb.n2_u & nb.n2_v


def test_types_match_cross_edge_counts():
    # the class index encodes the cross-edge pattern; check against raw enumeration
    expected_count = {PairType.T1: 4, PairType.T2: 3, PairType.T3: 2, PairType.T4: 2, PairType.T5: 2, PairType.T6: 1}
    for g in CORPUS:
        for e in range(g.edge_count):
            nb = compute_neighborhood(g, e)
            for f, t in nb.type_of.items():
                assert len(cross_edges(g, e, f)) == expected_count[t]


def test_specific_patterns():
    c4 = families.cycle(4)
    nb = compute_neighborhood(c4, 0)
    assert nb.type_of == {2: PairType.T4}

    p4 = families.path(4)
    nb = compute_neighborhood(p4, 0)
    assert nb.type_of == {2: PairType.T6}

    k4 = build_graph(4, [(0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3)])
    nb = compute_neighborhood(k4, 0)
    assert nb.type_of[1] is PairType.T1

    # triangle 0,1,2 with pendant edge 2-3: the pendant is T3 for edge 0-1
    tri = build_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    nb = compute_neighborhood(tri, 0)
    assert nb.type_of[3] is PairType.T3

    # star side: edges 0-2 and 0-3 only; 2-3 is T5 for edge 0-1
    star = build_graph(4, [(0, 1), (2, 3), (0, 2), (0, 3)])
    nb = compute_neighborhood(star, 0)
    assert nb.type_of[1] is PairType.T5


def test_symmetry_f_and_t6():
    for g in CORPUS:
        for e in range(g.edge_count):
            nb = compute_neighborhood(g, e)
            for f in nb.n2:
                back = compute_neighborhood(g, f)
                assert (f in nb.f_set) == (e in back.f_set)
                assert (f in nb.t6) == (e in back.t6)


def test_triangle_free_rules_out_dense_types():
    # no triangle edge next to e means no T1/T2/T3 neighbors
    for g in CORPUS:
        for e in range(g.edge_count):
            nb = compute_neighborhood(g, e)
            if not nb.c_delta:
                for t in (PairType.T1, PairType.T2, PairType.T3):
                    assert not type_class(nb, t)


def test_counting_identity():
    for g in CORPUS:
        tri_free = not has_triangle(g)
        for e in range(g.edge_count):
            nb = compute_neighborhood(g, e)
            weight = {PairType.T1: 4, PairType.T2: 3, PairType.T3: 2, PairType.T4: 2, PairType.T5: 2, PairType.T6: 1}
            rhs = len(nb.c_delta) + sum(weight[t] for t in nb.type_of.values())
            lhs = counting_identity_sides(g, e)
            assert lhs >= rhs
            if tri_free:
                assert lhs == rhs


def test_observation_bound_examples():
    k33 = families.complete_bipartite(3, 3)
    for e in range(k33.edge_count):
        nb = compute_neighborhood(k33, e)
        assert len(nb.f_set) == 8
        assert observation_bound(nb, 3) == Fraction(8)
        assert not nb.c_delta and not nb.t6

    c4 = families.cycle(4)
    nb = compute_neighborhood(c4, 0)
    assert len(nb.f_set) == 3
    assert observation_bound(nb, 2) == Fraction(3)

    p4 = families.path(4)
    nb = compute_neighborhood(p4, 1)
    assert len(nb.f_set) == 2
    assert len(nb.f_set) <= observation_bound(nb, 2)


def test_observation_bound_holds_everywhere():
    for g in CORPUS:
        delta = max_degree(g)
        for e in range(g.edge_count):
            nb = compute_neighborhood(g, e)
            assert len(nb.f_set) <= observation_bound(nb, delta)


def test_m_set_on_c5():
    c5 = families.cycle(5)
    m1 = m_set(c5, [0, 1])
    assert m1 == {4, 1, 2}
    m2 = m_set(c5, [0, 1, 2])
    assert m2 == {1, 2, 3}
    assert 1 in m2 and 0 not in m2


def test_m_set_bound_on_regular_graphs():
    for g in [families.prism(5), families.c7_blowup(), families.complete_bipartite(4, 4)]:
        delta = max_degree(g)
        # grow a few induced paths from every edge
        for e in range(g.edge_count):
            u, v = g.edges[e]
            for path in _induced_paths(g, [u, v], 4):
                assert len(m_set(g, path)) <= delta * delta - 1


def _induced_paths(g, path, max_len):
    yield list(path)
    if len(path) > max_len:
        return
    tip = path[-1]
    for w in g.neighbors(tip):
        if w in path:
            continue
        if any(g.has_edge(w, x) for x in path[:-1]):
            continue
        yield from _induced_paths(g, path + [w], max_len)


def test_m_set_errors():
    c5 = families.cycle(5)
    with pytest.raises(ValueError):
        m_set(c5, [0, 2])  # not adjacent
    with pytest.raises(ValueError):
        m_set(c5, [0, 1, 2, 3, 4])  # chord 4-0: not induced
    with pytest.raises(ValueError):
        m_set(c5, [0])


def test_invalid_edge_index():
    with pytest.raises(IndexError):
        compute_neighborhood(families.cycle(4), 4)


_PATTERN = {4: PairType.T1, 3: PairType.T2}


def _oracle_type(g, e, f) -> PairType:
    """Pair type of 2-neighbor f from the raw cross edges."""
    u, v = g.edges[e]
    cross = cross_edges(g, e, f)
    if len(cross) in _PATTERN:
        return _PATTERN[len(cross)]
    if len(cross) == 1:
        return PairType.T6
    ends_e = {a for a, _ in cross}
    ends_f = {b for _, b in cross}
    if len(ends_f) == 1:
        return PairType.T3  # both endpoints of e meet one endpoint of f
    if len(ends_e) == 1:
        return PairType.T5  # one endpoint of e meets both endpoints of f
    return PairType.T4


def _cross_bits(g, e, f) -> int:
    """f's cross edges to e as bits ux = 1, uy = 2, vx = 4, vy = 8."""
    u, _ = g.edges[e]
    x, _ = g.edges[f]
    return sum(1 << (2 * (a != u) + (b != x)) for a, b in cross_edges(g, e, f))


def test_derived_fields_match_eager_recomputation():
    # every graph with at most 7 vertices as well, so that all 15 cross-edge
    # patterns, and with them every row of the pair-type table, occur
    k4 = build_graph(4, [(0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3)])
    patterns = set()
    for g in [families.prism(5), families.c7_blowup(), families.hypercube(3), families.prism(3), k4, *_atlas_graphs()]:
        for e in range(g.edge_count):
            nb = compute_neighborhood(g, e)
            u, v = g.edges[e]
            near_u = set(g.neighbors(u))
            near_v = set(g.neighbors(v))
            n2 = two_neighbors(g, e)
            assert nb.type_of == {f: _oracle_type(g, e, f) for f in n2}
            patterns.update(_cross_bits(g, e, f) for f in n2)
            assert nb.t6 == {f for f in n2 if len(cross_edges(g, e, f)) == 1}
            assert nb.n2_u == {f for f in n2 if set(g.edges[f]) & near_u}
            assert nb.n2_v == {f for f in n2 if set(g.edges[f]) & near_v}
            assert nb.c_delta == {
                f for f in one_neighbors(g, e) if (set(g.edges[f]) - {u, v}) <= near_u & near_v
            }
    assert patterns == set(range(1, 16))


def test_neighborhood_is_a_frozen_value():
    g = families.prism(3)
    nb = compute_neighborhood(g, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        nb.f_set = frozenset()
    # it keeps no reference to the graph it was built from
    assert not any(isinstance(r, Graph) for r in [*gc.get_referents(nb), *vars(nb).values()])


def _atlas_graphs():
    nx = pytest.importorskip("networkx")
    for G in nx.graph_atlas_g():
        yield build_graph(G.number_of_nodes(), [tuple(e) for e in G.edges()])


def test_contacts_match_single_edge_builds():
    # every graph with at most 7 vertices, the corpus, and seeded random
    # graphs, each in a rainbow coloring, so that colors name edges
    randoms = [families.random_max_degree(n, d, seed) for seed, (n, d) in enumerate([(30, 3), (40, 5), (60, 6)] * 3)]
    for g in [*_atlas_graphs(), *CORPUS, *randoms]:
        rainbow = from_list(range(1, g.edge_count + 1))
        state = _Contacts.of(g, rainbow)
        assert state.count == [0] * g.edge_count
        for e in range(g.edge_count):
            one = compute_neighborhood(g, e)
            assert state.lift(e) == []
            for f in range(g.edge_count):
                if f != e:
                    found = state.contacts(e, rainbow.colors[f])
                    assert (found is None) == (f in one.f_set)
                    assert (found == [f]) == (f in one.t6)
            state.place(e, e + 1, ())
