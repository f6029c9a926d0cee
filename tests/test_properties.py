from __future__ import annotations

import random

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _oracles import contact_greedy, contact_state, smallest_color_start
from semistrong import families
from semistrong.graph import bfs_edge_order, connected_components, g_family_witness, is_complete_bipartite_dd, max_degree
from semistrong.neighborhood import compute_neighborhood
from semistrong.solver import MODES, PaletteExhaustedError, _Contacts, _greedy, _repair_engine, greedy_good_coloring, solve
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
        state = _Contacts.of(g, start)
        _repair_engine(state, debug=False, mode="semistrong")
        coloring = state.to_coloring()
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
        trace = _repair_engine(_Contacts.of(g, start), debug=False, mode="semistrong")
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
    enough = 1 + max(len(compute_neighborhood(g, e).f_set) for e in range(g.edge_count))
    k = max(enough, delta * delta - 1 - (delta * delta) * tight // 4)
    state = _greedy(_Contacts(g, k), bfs_edge_order(g))
    start = state.to_coloring()
    oracle, fallbacks = contact_greedy(g, k)
    assert start == oracle and is_good_coloring(g, start)
    assert (state.held, state.count) == contact_state(g, start.colors)
    rep = badness(g, start)
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


def _greedy_outcome(g, k, greedy):
    """The coloring, color masks, counts, potential and bad set greedy builds,
    or the edge it got stuck on."""
    try:
        return greedy(g, k)
    except PaletteExhaustedError as exc:
        return exc.edge


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.builds(families.random_max_degree, st.integers(8, 40), st.integers(3, 8), st.integers(0, 10**6)))
@example(families.c7_blowup())
@example(families.blowup(5, 2))
@example(families.hypercube(4))
@example(families.prism(7))
def test_greedy_tallies_match_the_n2_oracle_up_to_degree_8(g):
    # greedy reads a ring edge met twice (a common neighbor of the edge's
    # ends, or a 4-cycle through it) off its masks as a color met twice:
    # the blow-ups, the hypercube and the prism are full of 4-cycles, and
    # dense random graphs of triangles
    assume(g.edge_count > 0)
    enough = 1 + max(len(compute_neighborhood(g, e).f_set) for e in range(g.edge_count))

    # greedy counts contacts into the potential itself, so (kappa1, kappa2)
    # and the bad set are held to badness too
    def ours(g, k):
        state = _greedy(_Contacts(g, k), bfs_edge_order(g))
        return state.to_coloring(), state.held, state.count, state.potential(), state.bad

    def oracle(g, k):
        coloring = contact_greedy(g, k)[0]
        report = badness(g, coloring)
        return (coloring, *contact_state(g, coloring.colors), report.potential, set(report.bad_edges))

    # from 3/8 of one color more than the largest forbidden set, where greedy
    # mostly runs out of colors, through palettes where it falls back, up to
    # that bound, where it never runs out
    for k in sorted({max(1, enough * eighths // 8) for eighths in range(3, 9)}):
        got = _greedy_outcome(g, k, ours)
        assert got == _greedy_outcome(g, k, oracle)
        assert k < enough or not isinstance(got, int)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(6, 30), st.integers(3, 6), st.integers(0, 10**6))
def test_repair_engine_from_the_smallest_color_start(n, d, seed):
    whole = families.random_max_degree(n, d, seed)
    g = max((view.graph for view in connected_components(whole)), key=lambda h: h.edge_count)
    delta = max_degree(g)
    assume(delta >= 3 and not is_complete_bipartite_dd(g, delta) and g_family_witness(g) is None)
    start = smallest_color_start(g, delta * delta - 1)
    for mode in MODES:
        state = _Contacts.of(g, start)
        trace = _repair_engine(state, debug=True, mode=mode)
        coloring = state.to_coloring()
        assert coloring.distinct_colors() <= delta * delta - 1 and trace.fallback_f3 == 0
        assert verify_semistrong(g, coloring).ok and verify_relaxed(g, coloring, 0, 1).ok
        steps = trace.kappa_trajectory
        assert steps[0] == badness(g, start).potential and steps[-1][0] == 0
        assert all(b < a for a, b in zip(steps, steps[1:]))
        assert (state.held, state.count) == contact_state(g, coloring.colors)
