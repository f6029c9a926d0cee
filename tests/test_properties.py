from __future__ import annotations

import random

from semistrong import families
from semistrong.graph import g_family_witness, max_degree
from semistrong.neighborhood import compute_neighborhood, edge_lists
from semistrong.solver import _repair_engine, greedy_good_coloring
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
        start = greedy_good_coloring(g, d * d - 1)
        coloring, _ = _repair_engine(g, edge_lists(g), start, debug=False, mode="semistrong")
        assert is_good_coloring(g, coloring)
        assert badness(g, coloring).kappa1 == 0
        assert verify_semistrong(g, coloring).ok
        assert verify_relaxed(g, coloring, 0, 1).ok


def test_move_count_within_potential_bound():
    rng = random.Random(321)
    for g in _qualifying_random_graphs(30, rng):
        d = max_degree(g)
        start = greedy_good_coloring(g, d * d - 1)
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
