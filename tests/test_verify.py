from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    counting_rows,
    cross_edges,
    edge_distance_class,
    has_triangle,
    induced_degrees,
    naive_badness,
    naive_is_induced,
    naive_is_semistrong,
    naive_verify,
    verify_mode,
)
from semistrong import families
from semistrong.coloring import Coloring, from_list
from semistrong.graph import bfs_edge_order, build_graph
from semistrong.solver import _Contacts, _greedy, solve
from semistrong.verify import (
    badness,
    certify,
    is_good_coloring,
    is_induced_matching,
    is_semistrong_matching,
    verify_relaxed,
    verify_semistrong,
    verify_strong,
)


def rainbow(g):
    return from_list(range(1, g.edge_count + 1))


def test_single_edge_classes():
    g = families.path(3)
    assert is_semistrong_matching(g, [0])
    assert is_induced_matching(g, [0])


def test_c4_opposite_pair_not_semistrong():
    g = families.cycle(4)
    assert not is_semistrong_matching(g, [0, 2])
    assert not is_induced_matching(g, [0, 2])


def test_p4_end_pair_semistrong_not_induced():
    g = families.path(4)
    assert is_semistrong_matching(g, [0, 2])
    assert not is_induced_matching(g, [0, 2])


def test_c6_antipodal_induced():
    g = families.cycle(6)
    assert is_induced_matching(g, [0, 3])


def test_adjacent_edges_never_a_matching():
    g = families.path(3)
    assert not is_semistrong_matching(g, [0, 1])
    assert not is_induced_matching(g, [0, 1])


def test_matching_checks_reject_edge_ids_outside_the_graph():
    g = families.path(4)
    for ids in ([0, -1], [-3], [3], [0, 2, 7]):
        with pytest.raises(ValueError):
            is_semistrong_matching(g, ids)
        with pytest.raises(ValueError):
            is_induced_matching(g, ids)


def test_matching_checks_agree_with_oracle():
    rng = random.Random(7)
    for seed in range(40):
        g = families.random_max_degree(9, 4, seed)
        if g.edge_count == 0:
            continue
        for _ in range(10):
            size = rng.randint(1, min(4, g.edge_count))
            m = rng.sample(range(g.edge_count), size)
            assert is_semistrong_matching(g, m) == naive_is_semistrong(g, m)
            assert is_induced_matching(g, m) == naive_is_induced(g, m)


def test_rainbow_everything_valid():
    for g in [families.cycle(7), families.prism(3), families.complete_bipartite(3, 3)]:
        c = rainbow(g)
        assert verify_semistrong(g, c).ok
        assert verify_strong(g, c).ok
        assert verify_relaxed(g, c, 0, 0).ok
        assert is_good_coloring(g, c)
        rep = badness(g, c)
        assert rep.kappa1 == 0 and rep.kappa2 == 0


def test_c7_cycle_pattern_applied_anyway_fails():
    # the 3-color pattern that works for n = 10, 13, ... is invalid on C7
    g = families.cycle(7)
    c = from_list([1, 2, 3, 2, 1, 3, 2])
    res = verify_semistrong(g, c)
    assert not res.ok
    # color class 2 = edges {1, 3, 6}: some edge has no degree-1 endpoint
    assert not is_semistrong_matching(g, [1, 3, 6])
    assert res.witness is not None and res.witness[0] == 2
    rep = badness(g, c)
    k1, k2, bad_edges, _ = naive_badness(g, c.colors)
    assert rep.kappa1 == k1 and rep.kappa2 == k2
    assert 1 in rep.bad_edges  # edge 1 pairs with both 3 and 6
    assert rep.kappa1 >= 1


def test_c7_four_color_pattern_clean():
    g = families.cycle(7)
    c = from_list([1, 2, 3, 1, 2, 3, 4])
    rep = badness(g, c)
    assert rep.kappa1 == 0 and rep.kappa2 == 0


def test_c4_alternating():
    g = families.cycle(4)
    c = from_list([1, 2, 1, 2])
    assert verify_relaxed(g, c, 0, 1).ok
    assert not verify_relaxed(g, c, 0, 0).ok
    assert not is_good_coloring(g, c)  # opposite edges are distance-2 partners in f_set
    assert not verify_semistrong(g, c).ok


def test_relaxed00_equals_strong_on_random_pairs():
    rng = random.Random(20260810)
    checked = 0
    while checked < 1000:
        g = families.random_max_degree(rng.randint(4, 9), rng.randint(2, 4), rng.randint(0, 10**6))
        if g.edge_count == 0:
            continue
        k = rng.randint(1, g.edge_count)
        colors = [rng.randint(1, k) for _ in range(g.edge_count)]
        c = from_list(colors, k)
        assert verify_relaxed(g, c, 0, 0).ok == verify_strong(g, c).ok == naive_verify(g, colors, "strong")
        checked += 1


def test_strong_implies_semistrong_and_matching():
    rng = random.Random(99)
    for _ in range(300):
        g = families.random_max_degree(rng.randint(4, 9), 3, rng.randint(0, 10**6))
        if g.edge_count == 0:
            continue
        k = rng.randint(1, max(1, g.edge_count // 2))
        c = from_list([rng.randint(1, k) for _ in range(g.edge_count)], k)
        if verify_strong(g, c).ok:
            assert verify_semistrong(g, c).ok


def test_no_strong_4_coloring_of_c5():
    g = families.cycle(5)
    for combo in itertools.product(range(1, 5), repeat=5):
        c = from_list(list(combo), 4)
        assert not verify_strong(g, c).ok
        assert not naive_verify(g, combo, "strong")
    assert verify_strong(g, rainbow(g)).ok


def test_badness_matches_oracle_randomized():
    rng = random.Random(5)
    for _ in range(150):
        g = families.random_max_degree(rng.randint(4, 10), rng.randint(2, 4), rng.randint(0, 10**6))
        if g.edge_count == 0:
            continue
        k = rng.randint(1, g.edge_count)
        colors = [rng.randint(1, k) for _ in range(g.edge_count)]
        c = from_list(colors, k)
        rep = badness(g, c)
        k1, k2, bad_edges, pairs = naive_badness(g, colors)
        assert rep.kappa1 == k1
        assert rep.kappa2 == k2
        assert set(rep.bad_edges) == bad_edges
        assert set(rep.bad_pairs) == pairs
        if rep.kappa1 > 0:
            assert rep.kappa2 >= rep.kappa1
        assert rep.bad_pairs == tuple(sorted(rep.bad_pairs))
        # cross-check the relaxed verifier against the same enumeration
        assert verify_relaxed(g, c, 0, 1).ok == naive_verify(g, colors, "relaxed", 0, 1)
        assert verify_semistrong(g, c).ok == naive_verify(g, colors, "semistrong")


def test_witness_is_lexicographically_smallest():
    g = families.cycle(6)
    # two invalid classes: color 1 on adjacent edges 0,1; color 2 on adjacent edges 2,3
    c = from_list([1, 1, 2, 2, 3, 4])
    res = verify_semistrong(g, c)
    assert res.witness == (1, 0)
    res = verify_strong(g, c)
    assert res.witness == (1, 0)


def test_length_mismatch_rejected():
    g = families.cycle(4)
    with pytest.raises(ValueError):
        verify_semistrong(g, from_list([1, 2, 3]))
    with pytest.raises(ValueError):
        badness(g, from_list([1, 2, 3]))


def test_bad_color_range_rejected():
    with pytest.raises(ValueError, match=r"^edge 0 has color 0 outside \[1,2\]$"):
        Coloring(colors=(0, 1), k=2)
    with pytest.raises(ValueError, match=r"^edge 1 has color 3 outside \[1,2\]$"):
        Coloring(colors=(1, 3), k=2)
    # the first edge out of range is named, not the one with the extreme color
    with pytest.raises(ValueError, match=r"^edge 1 has color 5 outside \[1,4\]$"):
        Coloring(colors=(2, 5, 0, 3), k=4)
    assert Coloring(colors=(), k=0).k == 0


def test_is_good_detects_forbidden_class_sharing():
    g = build_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])  # triangle + pendant
    # pendant edge 3 is a T3 neighbor of edge 0, so equal colors are not good
    c = from_list([1, 2, 3, 1])
    assert not is_good_coloring(g, c)
    assert is_good_coloring(g, rainbow(g))


def _with_k4(g, rng):
    """g plus a K4 on four random vertices (at least four vertices needed)."""
    quad = rng.sample(range(g.vertex_count), 4)
    pairs = {tuple(sorted(p)) for p in g.edges}
    pairs |= {tuple(sorted((a, b))) for a, b in itertools.combinations(quad, 2)}
    return build_graph(g.vertex_count, sorted(pairs))


def _dense_random_graphs(rng, count):
    """Small random graphs dense enough for triangles, half with a planted K4."""
    out = []
    while len(out) < count:
        g = families.random_max_degree(rng.randint(5, 9), rng.randint(3, 5), rng.randint(0, 10**6))
        if len(out) % 2:
            g = _with_k4(g, rng)
        if g.edge_count:
            out.append(g)
    return out


def _oracle_good(g, colors) -> bool:
    """No same-colored 1-neighbor, and every same-colored 2-neighbor joined
    to the edge by exactly one cross edge."""
    m = g.edge_count
    for e in range(m):
        for f in range(m):
            if f == e or colors[f] != colors[e]:
                continue
            dist = edge_distance_class(g, e, f)
            if dist == 1 or (dist == 2 and len(cross_edges(g, e, f)) != 1):
                return False
    return True


def test_is_good_coloring_matches_cross_edge_oracle():
    from semistrong.solver import greedy_good_coloring

    rng = random.Random(31)
    outcomes = []
    triangles = 0
    for g in _dense_random_graphs(rng, 160):
        triangles += has_triangle(g)
        start = greedy_good_coloring(g, g.edge_count).colors
        colors = list(start)
        for _ in range(rng.randint(0, 2)):  # 0 keeps the good start, else perturb it
            colors[rng.randrange(g.edge_count)] = rng.randint(1, max(colors))
        c = from_list(colors)
        got = is_good_coloring(g, c)
        assert got == _oracle_good(g, colors), (g.edges, colors)
        outcomes.append(got)
    assert triangles >= 100
    assert outcomes.count(True) >= 40 and outcomes.count(False) >= 40


def _oracle_relaxed_witness(g, colors, s, t):
    """Smallest (color, edge) with more than s same-colored 1-neighbors or
    more than t same-colored 2-neighbors, by pairwise enumeration."""
    m = g.edge_count
    worst = []
    for e in range(m):
        dist = [edge_distance_class(g, e, f) for f in range(m) if f != e and colors[f] == colors[e]]
        if dist.count(1) > s or dist.count(2) > t:
            worst.append((colors[e], e))
    return min(worst, default=None)


def _oracle_matching_witness(g, colors, strong):
    """Smallest (color, edge) of a class M where the edge shares a vertex
    with another edge of M, or has no endpoint (strong: not both endpoints)
    of degree 1 in G[V(M)], by pairwise enumeration and induced degrees."""
    classes = {}
    for e, ce in enumerate(colors):
        classes.setdefault(ce, []).append(e)
    worst = []
    for ce, ids in classes.items():
        deg = induced_degrees(g, ids)
        for e in ids:
            clash = any(edge_distance_class(g, e, f) == 1 for f in ids if f != e)
            loose = [deg[x] != 1 for x in g.edges[e]]
            if clash or (any(loose) if strong else all(loose)):
                worst.append((ce, e))
    return min(worst, default=None)


def test_verify_relaxed_matches_oracle_for_every_cap():
    rng = random.Random(47)
    failing = 0
    for g in _dense_random_graphs(rng, 60):
        k = rng.randint(2, g.edge_count)
        colors = [rng.randint(1, k) for _ in range(g.edge_count)]
        c = from_list(colors, k)
        for s, t in itertools.product(range(3), repeat=2):
            res = verify_relaxed(g, c, s, t)
            assert res.ok == naive_verify(g, colors, "relaxed", s, t)
            assert res.witness == _oracle_relaxed_witness(g, colors, s, t)
            assert verify_mode(g, c, "relaxed", s, t) == res
            failing += not res.ok
        for mode, strong in (("semistrong", False), ("strong", True)):
            res = verify_mode(g, c, mode)
            assert res.ok == naive_verify(g, colors, mode)
            assert res.witness == _oracle_matching_witness(g, colors, strong), (mode, g.edges, colors)
    assert failing >= 100


def test_matching_witnesses_match_oracle_on_sparse_colorings():
    """Colorings near validity, where a class is often a matching except
    for one clash and the smallest offender need not be on the clash."""
    rng = random.Random(53)
    outcomes = {"semistrong": [], "strong": []}
    for _ in range(300):
        g = families.random_max_degree(rng.randint(5, 10), rng.randint(2, 4), rng.randint(0, 10**6))
        if g.edge_count < 2:
            continue
        colors = list(range(1, g.edge_count + 1))
        for _ in range(rng.randint(1, 4)):  # merge a few classes of the rainbow coloring
            colors[rng.randrange(g.edge_count)] = colors[rng.randrange(g.edge_count)]
        c = from_list(colors)
        for mode, check, strong in (("semistrong", verify_semistrong, False), ("strong", verify_strong, True)):
            res = check(g, c)
            assert res.ok == naive_verify(g, colors, mode)
            assert res.witness == _oracle_matching_witness(g, colors, strong), (mode, g.edges, colors)
            outcomes[mode].append(res.ok)
    for seen in outcomes.values():
        assert seen.count(True) >= 20 and seen.count(False) >= 100


def test_witness_is_the_smallest_offender_not_the_smallest_clash():
    # color 1 = edges {0, 2, 3}: 2 and 3 share vertex 3, but edge 0 already
    # sits at distance 2 from edge 2, so it breaks the strong rule first
    g = families.path(6)
    c = from_list([1, 2, 1, 1, 3])
    assert verify_strong(g, c).witness == (1, 0)
    assert verify_semistrong(g, c).witness == (1, 2)  # vertex 0 keeps edge 0 semistrong
    # color 1 = edges {1, 4, 5, 6, 11}: 4 and 5 share vertex 3, while both
    # ends of edge 1 = (1, 2) see class vertex 0, so neither has degree 1
    g = build_graph(
        8,
        [(0, 1), (1, 2), (0, 2), (5, 6), (0, 3), (3, 5), (3, 4), (1, 7), (2, 5), (4, 7), (6, 7), (4, 6)],
    )
    c = from_list([2, 1, 2, 2, 1, 1, 1, 2, 2, 2, 2, 1])
    assert verify_semistrong(g, c).witness == (1, 1)


def _assert_certify_agrees(g, c):
    cert = certify(g, c)
    assert cert.semistrong == verify_semistrong(g, c), (g.edges, c.colors)
    assert cert.relaxed == verify_relaxed(g, c, 0, 1), (g.edges, c.colors)
    assert cert.kappa == badness(g, c).potential, (g.edges, c.colors)
    for s, t in itertools.product(range(4), repeat=2):
        assert certify(g, c, s, t) == cert._replace(relaxed=verify_relaxed(g, c, s, t)), (s, t, g.edges, c.colors)
    return cert


def test_certify_matches_the_oracles_on_named_graphs():
    rng = random.Random(61)
    corpus = [
        families.cycle(4),
        families.cycle(7),
        families.path(6),
        families.complete_bipartite(3, 3),
        families.prism(3),
        families.prism(5),
        families.hypercube(3),
        families.h_graph(3),
        families.c7_blowup(),
    ]
    for g in corpus:
        colorings = [rainbow(g), solve(g, "semistrong").coloring, solve(g, "relaxed01").coloring]
        for k in (2, 4, 8):
            colorings.append(from_list([rng.randint(1, k) for _ in range(g.edge_count)], k))
        for c in colorings:
            cert = _assert_certify_agrees(g, c)
            assert cert.semistrong.ok == naive_verify(g, c.colors, "semistrong")
            assert cert.relaxed.ok == naive_verify(g, c.colors, "relaxed", 0, 1)
            assert cert.kappa == naive_badness(g, c.colors)[:2]


def test_certify_matches_the_checkers_on_random_colorings():
    rng = random.Random(67)
    seen = {"semistrong": [], "relaxed01": []}
    checked = 0
    while checked < 2000:
        g = families.random_max_degree(rng.randint(5, 12), rng.randint(2, 5), rng.randint(0, 10**6))
        if g.edge_count == 0:
            continue
        kind = checked % 4
        if kind < 2:  # valid in its mode, perturbed half of the time
            colors = list(solve(g, ("semistrong", "relaxed01")[kind]).coloring.colors)
            if rng.random() < 0.5:
                colors[rng.randrange(g.edge_count)] = colors[rng.randrange(g.edge_count)]
        else:
            k = rng.randint(1, g.edge_count)
            colors = [rng.randint(1, k) for _ in range(g.edge_count)]
        cert = _assert_certify_agrees(g, from_list(colors))
        seen["semistrong"].append(cert.semistrong.ok)
        seen["relaxed01"].append(cert.relaxed.ok)
        checked += 1
    for oks in seen.values():
        assert oks.count(True) >= 300 and oks.count(False) >= 300


@pytest.mark.parametrize(
    "n,pairs,colors",
    [
        # two color-1 edges at vertex 1, inside a 5-cycle with a pendant edge
        (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 5)], [1, 1, 2, 1, 3, 2]),
        # three color-1 edges at vertex 0 of K_{1,3}, whose leaves reach a 4-path
        (7, [(0, 1), (0, 2), (0, 3), (1, 4), (4, 5), (5, 6), (2, 6)], [1, 1, 1, 2, 1, 3, 1]),
        # e = (0, 1) has no other color-1 edge at 0 or 1, but ring vertex 2 holds two
        (6, [(0, 1), (0, 2), (2, 3), (2, 4), (1, 5)], [1, 2, 1, 1, 3]),
        # the same clash at a ring vertex reached from both ends of e
        (6, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 5)], [1, 2, 3, 1, 1, 2]),
    ],
)
def test_certify_reads_the_overflow_of_same_colored_edges_at_one_vertex(n, pairs, colors):
    # certify indexes one edge per (vertex, color) and lists the rest apart
    g = build_graph(n, pairs)
    cert = _assert_certify_agrees(g, from_list(colors))
    assert not cert.semistrong.ok and not cert.relaxed.ok
    assert cert.kappa == naive_badness(g, colors)[:2]


def test_certify_on_disconnected_and_empty_graphs():
    pairs, n = [], 0
    for part in (families.prism(5), families.cycle(7), families.path(2)):
        pairs += [(u + n, v + n) for u, v in part.edges]
        n += part.vertex_count
    g = build_graph(n + 1, pairs)  # and an isolated vertex
    for mode in ("semistrong", "relaxed01"):
        _assert_certify_agrees(g, solve(g, mode).coloring)
    _assert_certify_agrees(g, from_list([1 + e % 3 for e in range(g.edge_count)]))
    for n in (0, 3):
        assert certify(build_graph(n, []), from_list([])) == ((True, None), (True, None), (0, 0))


def test_certify_reads_no_row_per_spoke_on_a_wheel():
    n = 1000  # W_1000: hub 0 joined to the cycle 1..n
    g = build_graph(n + 1, [(0, i) for i in range(1, n + 1)] + [(i, i % n + 1) for i in range(1, n + 1)])
    c = _greedy(_Contacts(g, n * n - 1), bfs_edge_order(g)).to_coloring()
    counted, read = counting_rows(g)
    cert = certify(counted, c)
    # a walk of both ends' rows per edge reads the hub's row once per spoke:
    # about 10^6 entries
    assert read[0] <= 4 * g.edge_count
    assert cert == (verify_semistrong(g, c), verify_relaxed(g, c, 0, 1), badness(g, c).potential)


def test_certify_folds_a_palette_wider_than_its_masks():
    # 570 to 1,170 colors, most far above the edge count, and 240 to 450 of
    # them used twice or more: more than the masks' bits, so ranks share
    # bits, an end can hold two colors on one bit and one bit can stand for
    # different colors at an edge's two ends
    rng = random.Random(29)
    for d in (2, 3, 4):
        g = families.random_max_degree(900, d, rng.randrange(10**6))
        base = [rng.choice((1, 2**64, 2**90)) + rng.randrange(g.edge_count // 3) for _ in range(g.edge_count)]
        for proper in (True, False):
            colors = base[:]
            if not proper:
                for _ in range(5):
                    row = g.adjacency[rng.randrange(g.vertex_count)]
                    if len(row) > 1:
                        colors[row[1][1]] = colors[row[0][1]]
            _assert_certify_agrees(g, from_list(colors))


@st.composite
def _colored_graphs(draw):
    """A small graph, often with a hub, colored from a small or a sparse huge
    palette, sometimes with a color repeated at a vertex of largest degree."""
    n = draw(st.integers(2, 14))
    pairs = set(draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30)))
    if draw(st.booleans()):
        pairs |= {(0, v) for v in range(1, n)}
    pairs = sorted({(min(p), max(p)) for p in pairs if p[0] != p[1]})
    palette = draw(
        st.one_of(
            st.just((1, 7, 10**18, 2**70)),
            st.lists(st.integers(1, 4), min_size=1, max_size=4),
            st.lists(st.one_of(st.integers(1, 8), st.integers(2**64, 2**80)), min_size=1, max_size=5),
        )
    )
    colors = draw(st.lists(st.sampled_from(palette), min_size=len(pairs), max_size=len(pairs)))
    if pairs and draw(st.booleans()):
        g = build_graph(n, pairs)
        row = max(g.adjacency, key=len)
        for _, e in row[1 : draw(st.integers(2, max(2, len(row))))]:
            colors[e] = colors[row[0][1]]
    return n, pairs, colors


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_colored_graphs())
@example((5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)], [2**70, 2**70, 7, 2**70, 10**18, 7]))
@example((6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (4, 5)], [1, 10**18, 7, 1, 1, 1, 7]))
def test_certify_equals_the_checkers_on_clashes_and_huge_palettes(case):
    n, pairs, colors = case
    _assert_certify_agrees(build_graph(n, pairs), from_list(colors))
