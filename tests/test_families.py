from __future__ import annotations

import pytest

from semistrong import families
from semistrong.graph import connected_components, g_family_witness, max_degree


def degrees(g):
    return sorted(g.degree(v) for v in range(g.vertex_count))


def test_prism5_shape():
    g = families.prism(5)
    assert g.vertex_count == 10
    assert g.edge_count == 15
    assert degrees(g) == [3] * 10


def test_c7_blowup_shape():
    g = families.c7_blowup()
    assert g.vertex_count == 14
    assert g.edge_count == 28
    assert degrees(g) == [4] * 14
    # parts are independent and joined completely to the next part
    for i in range(7):
        a, b = 2 * i, 2 * i + 1
        assert not g.has_edge(a, b)
        for x in (a, b):
            for y in (2 * ((i + 1) % 7), 2 * ((i + 1) % 7) + 1):
                assert g.has_edge(x, y)


def test_h_graph_shape():
    g = families.h_graph(3)
    assert g.vertex_count == 10
    assert g.edge_count == 13
    assert max_degree(g) == 3
    assert len(connected_components(g)) == 1


def test_h_graph_bridge_endpoints():
    d = 4
    g = families.h_graph(d)
    assert g.vertex_count == 2 * (2 * d - 1)
    assert g.edge_count == 2 * (d - 1) * d + 1
    u, v = g.edges[-1]
    # bridge joins two previously degree-(d-1) vertices, one per copy
    assert g.degree(u) == d and g.degree(v) == d
    assert max_degree(g) == d


def test_hypercube_shape():
    g = families.hypercube(3)
    assert g.vertex_count == 8
    assert g.edge_count == 12
    assert degrees(g) == [3] * 8


def test_cycle_path_shapes():
    assert families.path(2).edge_count == 1
    assert families.cycle(3).edge_count == 3
    with pytest.raises(ValueError):
        families.cycle(2)
    with pytest.raises(ValueError):
        families.path(0)


def test_random_max_degree_respects_cap_and_seed():
    for seed in range(5):
        g = families.random_max_degree(12, 4, seed)
        assert max(degrees(g)) <= 4
        again = families.random_max_degree(12, 4, seed)
        assert again.edges == g.edges
    assert families.random_max_degree(12, 4, 0).edges != families.random_max_degree(12, 4, 1).edges


def test_random_max_degree_rejects_n_above_its_cap():
    cap = families.RANDOM_MAX_DEGREE_MAX_N
    with pytest.raises(ValueError, match=f"above its cap of {cap}"):
        families.random_max_degree(cap + 1, 3, 1)
    with pytest.raises(ValueError, match="above its cap"):
        families.make("random_max_degree", n=10**6, d=4, seed=1)


def test_witness_over_families():
    assert g_family_witness(families.complete_bipartite(4, 4)) is not None
    assert g_family_witness(families.prism(3)) is not None
    for n in range(4, 9):
        assert g_family_witness(families.prism(n)) is None


def test_make_dispatch():
    g = families.make("prism", n=5)
    assert g.edge_count == 15
    assert families.make("c7_blowup").vertex_count == 14
    with pytest.raises(ValueError):
        families.make("nope")
    with pytest.raises(ValueError):
        families.make("prism", n=5, d=2)
    with pytest.raises(ValueError):
        families.make("prism")


def _small_params(family):
    """Every combination of a few valid sizes for the family's parameters."""
    sizes = {
        "n": [3, 4, 7], "a": [1, 3], "b": [2, 5], "d": [2, 3, 5],
        "cycle_len": [3, 5], "part_size": [1, 2], "seed": [1],
    }
    grid = [{}]
    for name in families.family_params(family):
        grid = [{**params, name: value} for params in grid for value in sizes[name]]
    return grid


@pytest.mark.parametrize("family", families.family_names())
def test_vertex_count_matches_the_built_graph(family):
    for params in _small_params(family):
        assert families.vertex_count(family, **params) == families.make(family, **params).vertex_count


@pytest.mark.parametrize("family", families.family_names())
def test_edge_count_matches_the_built_graph(family):
    for params in _small_params(family):
        count, g = families.edge_count(family, **params), families.make(family, **params)
        if family == "random_max_degree":  # an upper bound: the degree cap may leave pairs unused
            assert count >= g.edge_count
        else:
            assert count == g.edge_count
    if family == "hypercube":
        assert families.edge_count(family, n=17) == 1_114_112
