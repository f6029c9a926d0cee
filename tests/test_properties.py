from __future__ import annotations

import random
from collections import Counter

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracles import contact_greedy, smallest_color_start
from semistrong import families
from semistrong.coloring import from_list
from semistrong.graph import g_family_witness, max_degree
from semistrong.neighborhood import compute_neighborhood, edge_lists
from semistrong.solver import MODES, _greedy, _repair_engine, greedy_good_coloring, solve
from semistrong.verify import badness, is_good_coloring, verify_relaxed, verify_semistrong


def _qualifying_random_graphs(count, rng):
    made = 0
    seed = 0
    while made < count:
        seed += 1
        g = families.random_max_degree(rng.randint(8, 14), rng.randint(3, 5), seed)
        if max_degree(g) < 3 or g_family_witness(g) is not None:
            continue
        made += 1
        yield g


def test_clean_good_colorings_pass_both_verifiers():
    # a good coloring without bad edges is simultaneously semistrong and
    # (0,1)-relaxed valid
    rng = random.Random(123)
    for g in _qualifying_random_graphs(40, rng):
        d = max_degree(g)
        start = smallest_color_start(g, d * d - 1)
        coloring, _ = _repair_engine(g, edge_lists(g), start, debug=False, mode="semistrong")
        assert is_good_coloring(g, coloring)
        assert badness(g, coloring).kappa1 == 0
        assert verify_semistrong(g, coloring).ok
        assert verify_relaxed(g, coloring, 0, 1).ok


def test_move_count_within_potential_bound():
    rng = random.Random(321)
    for g in _qualifying_random_graphs(30, rng):
        d = max_degree(g)
        start = smallest_color_start(g, d * d - 1)
        rep = badness(g, start)
        _, trace = _repair_engine(g, edge_lists(g), start, debug=False, mode="semistrong")
        moves = sum(trace.moves_by_schema.values())
        assert moves <= rep.kappa1 * (rep.kappa2 + 1) + rep.kappa2


def test_greedy_never_needs_more_than_forbidden_plus_one():
    rng = random.Random(55)
    for g in _qualifying_random_graphs(30, rng):
        worst = max(len(compute_neighborhood(g, e).f_set) for e in range(g.edge_count))
        c = greedy_good_coloring(g, worst + 1)
        assert is_good_coloring(g, c)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.integers(6, 30), st.integers(3, 6), st.integers(0, 10**6), st.integers(0, 4))
def test_greedy_start_is_good_and_counts_its_contacts(n, d, seed, tight):
    g = families.random_max_degree(n, d, seed)
    delta = max_degree(g)
    assume(delta >= 3)
    # from the solver's palette down to one color more than the largest
    # forbidden set, where the contact rule falls back more often
    enough = 1 + max(len(f) for f in edge_lists(g).f_set)
    k = max(enough, delta * delta - 1 - (delta * delta) * tight // 4)
    colors, count = _greedy(g, k)
    start = from_list(colors, k)
    oracle, fallbacks = contact_greedy(g, k)
    assert start == oracle and is_good_coloring(g, start)
    rep = badness(g, start)
    per_edge = Counter(e for pair in rep.bad_pairs for e in pair)
    assert count == [per_edge[e] for e in range(g.edge_count)]
    # a fallback always leaves a bad edge, and nothing else makes one
    assert (rep.kappa1 == 0) == (fallbacks == 0)
    for mode in MODES:
        res = solve(g, mode, debug=True)
        assert res.certificates[mode] and res.kappa[0] == 0
        for trace in res.trace:
            if trace.strategy == "greedy_repair":
                assert not trace.exceeds_bound and trace.fallback_f3 == 0
                steps = trace.kappa_trajectory
                assert all(b < a for a, b in zip(steps, steps[1:])) and steps[-1][0] == 0
