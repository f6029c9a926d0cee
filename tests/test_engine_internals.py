from __future__ import annotations

import itertools
import random
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from _oracles import contact_greedy, contact_state, smallest_color_start
from semistrong import families, solver
from semistrong.coloring import from_list
from semistrong.formats import parse_edge_list
from semistrong.graph import bfs_edge_order, build_graph, connected_components, is_connected, max_degree
from semistrong.neighborhood import compute_neighborhood, m_set
from semistrong.solver import (
    EngineInvariantError,
    PaletteExhaustedError,
    _Contacts,
    _Engine,
    _repair_engine,
    greedy_good_coloring,
    solve,
)
from semistrong.verify import badness, certify, is_good_coloring, verify_relaxed, verify_semistrong


def random_good_coloring(g, k, rng):
    m = g.edge_count
    while True:
        colors = [0] * m
        order = list(range(m))
        rng.shuffle(order)
        ok = True
        for e in order:
            nb = compute_neighborhood(g, e)
            used = {colors[f] for f in nb.f_set if colors[f]}
            avail = [c for c in range(1, k + 1) if c not in used]
            if not avail:
                ok = False
                break
            colors[e] = rng.choice(avail)
        if ok:
            return from_list(colors, k)


def bad_state(g, rng, tries=500):
    k = max_degree(g) ** 2 - 1
    for _ in range(tries):
        c = random_good_coloring(g, k, rng)
        if badness(g, c).kappa1 > 0:
            return c
    raise AssertionError("could not sample a good coloring with bad edges")


def test_schema_generators_yield_wellformed_candidates():
    rng = random.Random(1)
    g = families.prism(5)
    c = bad_state(g, rng)
    eng = _Engine(_Contacts.of(g, c))
    gens = [
        eng._s1_candidates,
        eng._s2_candidates,
        eng._s3_candidates,
        eng._s4_candidates,
    ]
    for e in eng.state.bad_edges():
        for gen in gens:
            cands = list(gen(e))
            again = list(gen(e))
            assert cands == again  # deterministic
            for cand in cands:
                assert cand  # non-empty assignment maps
                for edge, color in cand.items():
                    assert 0 <= edge < g.edge_count
                    assert 1 <= color <= eng.k


def cut_gadget():
    """Two dense sides joined by a 2-edge cut, the shape behind the deeper
    schemas, with a good coloring whose middle edge 0 is bad."""
    g = build_graph(
        9,
        [
            (0, 1),  # the tight middle edge
            (0, 2), (0, 3), (1, 4), (1, 5),
            (2, 5), (3, 4), (3, 5),
            (2, 6), (4, 7),  # the cut pair
            (6, 7), (6, 8), (7, 8),
        ],
    )
    return g, from_list([1, 2, 3, 4, 5, 6, 7, 8, 1, 1, 5, 4, 6], 8)


def _pairs_at_distance_two(eng, e):
    """Every two-edge recoloring of edges near bad edge e (e, N1(e), N2(e))
    that lie in each other's N2."""
    nb = eng.nb(e)
    ball = sorted({e} | nb.n1 | nb.n2)
    for i, x in enumerate(ball):
        for y in ball[i + 1 :]:
            if y in eng.nb(x).n2:
                for ax, ay in itertools.product(range(1, eng.k + 1), repeat=2):
                    if (ax, ay) != (eng.colors[x], eng.colors[y]):
                        yield {x: ax, y: ay}


def _schema_candidates(eng, e):
    """Every schema's candidates at bad edge e, plus the two-edge pairs of
    _pairs_at_distance_two."""
    return [
        ("S1", eng._s1_candidates(e)),
        ("S2", eng._s2_candidates(e)),
        ("S3", eng._s3_candidates(e)),
        ("S4", eng._s4_candidates(e)),
        ("pair", _pairs_at_distance_two(eng, e)),
    ]


def _moved_at_distance_two(eng, cand):
    moved = [edge for edge, color in cand.items() if eng.colors[edge] != color]
    return any(a in eng.nb(b).n2 for a in moved for b in moved)


def _assert_matches_recount(eng):
    g = eng.g
    assert (eng.state.held, eng.state.count) == contact_state(g, eng.colors)
    rep = badness(g, eng.state.to_coloring())
    assert eng.state.bad_edges() == list(rep.bad_edges)
    assert eng.state.potential() == rep.potential


def _snapshot(eng):
    return list(eng.colors), list(eng.state.count), list(eng.state.held), set(eng.state.bad), eng.state.pairs


def test_try_move_matches_full_recount():
    rng = random.Random(77)
    states = [cut_gadget()]
    for g in [families.prism(5), families.c7_blowup()]:
        k = max_degree(g) ** 2 - 1
        for _ in range(60):
            c = random_good_coloring(g, k, rng)
            if badness(g, c).kappa1 > 0:
                states.append((g, c))
    scored = Counter()
    close = Counter()
    for g, c in states:
        eng = _Engine(_Contacts.of(g, c))  # only generates candidates, never moves
        before = eng.state.potential()
        trial = _Engine(_Contacts.of(g, c))
        for e in eng.state.bad_edges():
            for name, gen in _schema_candidates(eng, e):
                for cand in itertools.islice(gen, 5):
                    start = _snapshot(trial)
                    move = trial.try_move(cand, name)
                    new_colors = list(c.colors)
                    for edge, color in cand.items():
                        new_colors[edge] = color
                    c2 = from_list(new_colors, c.k)
                    good_change = is_good_coloring(g, c2) and new_colors != list(c.colors)
                    if move is None:
                        assert _snapshot(trial) == start
                        assert not good_change or badness(g, c2).potential >= before
                    else:
                        assert good_change
                        assert trial.colors == new_colors
                        _assert_matches_recount(trial)
                        assert trial.state.potential() < before
                        trial = _Engine(_Contacts.of(g, c))
                    # scored: recolored and its potential read, kept or not
                    scored[name] += good_change
                    close[name] += good_change and _moved_at_distance_two(eng, cand)
    assert set(+scored) == {"S1", "S2", "S3", "S4", "pair"}
    # moves whose edges lie in each other's N2 change each other's counts
    assert all(close[name] > 0 for name in ("S3", "pair"))


@pytest.mark.parametrize("n,d,seed", [(110, 4, 1), (120, 5, 2), (130, 6, 3)])
def test_incremental_state_matches_recount_after_every_move(n, d, seed):
    g = families.random_max_degree(n, d, seed)
    assert max_degree(g) == d and 200 <= g.edge_count <= 400
    eng = _Engine(_Contacts.of(g, smallest_color_start(g, d * d - 1)))
    _assert_matches_recount(eng)
    moves = 0
    while eng.state.bad:
        before = eng.state.potential()
        move = eng.find_move()
        assert move is not None
        assert eng.state.potential() < before
        _assert_matches_recount(eng)
        moves += 1
    assert moves > 0


def test_try_move_rejects_noop():
    g = families.prism(5)
    c = random_good_coloring(g, 8, random.Random(3))
    eng = _Engine(_Contacts.of(g, c))
    start = _snapshot(eng)
    assert eng.try_move({0: c.colors[0]}, "S1") is None
    assert _snapshot(eng) == start


def test_repair_on_cut_gadget():
    # repair must clean it regardless of which schema fires
    g, c = cut_gadget()
    assert is_good_coloring(g, c)
    assert badness(g, c).kappa1 >= 1
    state = _Contacts.of(g, c)
    trace = _repair_engine(state, debug=True, mode="semistrong")
    out = state.to_coloring()
    assert badness(g, out).kappa1 == 0
    assert trace.fallback_f3 == 0


def test_repair_random_good_starts():
    # at the Delta^2 - 1 palette, S1-S4 alone clean every start
    rng = random.Random(4)
    schemas_seen = set()
    graphs = [
        families.prism(5),
        families.prism(7),
        families.c7_blowup(),
        families.blowup(5, 2),
        families.hypercube(3),
        families.h_graph(3),
        families.h_graph(4),
    ]
    graphs += [families.random_max_degree(n, d, seed) for n, d, seed in [(12, 3, 1), (16, 4, 2), (20, 5, 3)]]
    for g in graphs:
        assert is_connected(g) and max_degree(g) >= 3
        for _ in range(25):
            c = random_good_coloring(g, max_degree(g) ** 2 - 1, rng)
            state = _Contacts.of(g, c)
            trace = _repair_engine(state, debug=True, mode="semistrong")
            out = state.to_coloring()
            assert badness(g, out).kappa1 == 0
            assert trace.fallback_f3 == 0
            schemas_seen.update(trace.moves_by_schema)
            for a, b in zip(trace.kappa_trajectory, trace.kappa_trajectory[1:]):
                assert b < a
    assert "S1" in schemas_seen


def test_f3_fallback_produces_valid_certificate(monkeypatch):
    # force the schema search to come up empty so repair falls through to
    # the exact feasibility search
    monkeypatch.setattr(_Engine, "find_move", lambda self: None)
    rng = random.Random(9)
    g = families.prism(5)
    c = bad_state(g, rng)
    state = _Contacts.of(g, c)
    trace = _repair_engine(state, debug=False, mode="semistrong")
    out = state.to_coloring()
    assert trace.fallback_f3 == 1
    assert verify_semistrong(g, out).ok

    state = _Contacts.of(g, c)
    trace = _repair_engine(state, debug=False, mode="relaxed01")
    out = state.to_coloring()
    assert trace.fallback_f3 == 1
    assert verify_relaxed(g, out, 0, 1).ok


# A seeded good start below the bound (random_max_degree(13, 3, 5), 6 colors
# where Delta^2 - 1 = 8). S1 and S2 lower the potential to (1, 4), then no
# schema applies and the exact search finishes the repair, with a coloring of
# higher potential: (4, 8) in semistrong mode, (0, 7) in relaxed01 mode.
BELOW_BOUND_EDGES = [
    (9, 12), (8, 12), (2, 9), (3, 8), (6, 8), (0, 2), (1, 6), (1, 11), (2, 5), (1, 5),
    (5, 10), (3, 7), (9, 11), (0, 3), (4, 7), (0, 6), (11, 12), (7, 10), (4, 10),
]
BELOW_BOUND_START = [6, 4, 5, 6, 3, 6, 5, 4, 2, 6, 4, 3, 2, 2, 5, 4, 3, 6, 2]
BELOW_BOUND_STUCK = [1, 6, 5, 1, 3, 6, 5, 6, 3, 1, 4, 3, 2, 2, 5, 4, 3, 6, 2]


def test_below_bound_run_ends_in_a_verified_f3_coloring():
    g = build_graph(13, BELOW_BOUND_EDGES)
    stuck = from_list(BELOW_BOUND_STUCK, 6)
    assert is_good_coloring(g, stuck) and badness(g, stuck).potential == (1, 4)
    assert _Engine(_Contacts.of(g, stuck)).find_move() is None
    start = from_list(BELOW_BOUND_START, 6)
    for mode, kappa in (("semistrong", (4, 8)), ("relaxed01", (0, 7))):
        state = _Contacts.of(g, start)
        trace = _repair_engine(state, debug=True, mode=mode)
        out = state.to_coloring()
        assert trace.moves_by_schema == {"S1": 5, "S2": 1}
        # the stuck potential, then that of the coloring F3 returns
        assert trace.kappa_trajectory[-2] == (1, 4)
        assert trace.kappa_trajectory[-1] == kappa == certify(g, out).kappa
        assert trace.fallback_f3 == 1
        certificate = verify_semistrong(g, out) if mode == "semistrong" else verify_relaxed(g, out, 0, 1)
        assert certificate.ok and out.distinct_colors() <= 6


def test_prism5_fixture_repair_makes_a_two_edge_s2_move():
    # the shuffled 5-prism of the byte-stable color fixtures, from the
    # smallest-color start: a two-edge S2 move at the Delta^2 - 1 palette
    g = parse_edge_list((Path(__file__).parent / "data" / "prism5.txt").read_text(encoding="utf-8"))
    start = smallest_color_start(g, 8)
    for mode in ("semistrong", "relaxed01"):
        state = _Contacts.of(g, start)
        trace = _repair_engine(state, debug=True, mode=mode)
        out = state.to_coloring()
        assert trace.moves_by_schema == {"S1": 5, "S2": 1}
        assert trace.kappa_trajectory[0] == (9, 12) and trace.kappa_trajectory[-1] == (0, 1)
        assert trace.fallback_f3 == 0 and verify_semistrong(g, out).ok


def test_f3_fallback_out_of_budget_names_the_bad_edges(monkeypatch):
    monkeypatch.setattr(_Engine, "find_move", lambda self: None)
    monkeypatch.setattr(solver, "F3_MAX_NODES", 5)
    g = families.prism(5)
    c = bad_state(g, random.Random(9))
    bad = sorted(badness(g, c).bad_edges)
    for mode in ("semistrong", "relaxed01"):
        with pytest.raises(EngineInvariantError, match=re.escape(f"bad edges {bad}")):
            _repair_engine(_Contacts.of(g, c), debug=False, mode=mode)


def test_stage_asserts_raise_on_a_state_whose_schemas_are_not_exhausted():
    # no real run reaches the stage asserts, so call each one on the bad edges
    # of a start that S1 can still improve; edge by edge, so that the checks
    # behind a bad edge's first failure run on the other edges
    g = families.prism(5)
    eng = _Engine(_Contacts.of(g, smallest_color_start(g, 8)))
    bad = eng.state.bad_edges()
    assert eng.enforce_invariants and bad == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13]

    def failures(check):
        found = {}
        for e in bad:
            try:
                check([e])
            except EngineInvariantError as exc:
                found.setdefault(re.match(rf"bad edge {e}: (.*) must hold", str(exc)).group(1), []).append(e)
        return found

    assert failures(eng._assert_stage1) == {
        "exactly two same-colored contacts, both single-cross": [0, 1, 3, 4, 6, 8],
        "all forbidden-set edges distinctly colored": [2, 5, 7, 9, 10, 12, 13],
    }
    # edges 2, 5, 7 and 9 pass every stage-2 check
    assert failures(eng._assert_stage2) == {"one same-colored contact on each side": [0, 1, 3, 4, 6, 8, 10, 12, 13]}
    assert failures(eng._assert_stage3) == {
        "distinct colors on u-side single-cross contacts": [0, 1, 4, 6, 7, 8, 12, 13],
        "a full rainbow on N(e) plus either side's 2-neighbors": [2, 5, 9],
        "distinct colors on v-side single-cross contacts": [3, 10],
    }


def test_deep_schemas_produce_accepted_moves():
    # S1/S2 usually win the pass order, so exercise the deeper generators
    # directly: on real bad states they must yield exact-check-accepted moves
    rng = random.Random(77)
    accepted = set()
    for g in [families.prism(5), families.c7_blowup()]:
        k = max_degree(g) ** 2 - 1
        for _ in range(60):
            c = random_good_coloring(g, k, rng)
            if badness(g, c).kappa1 == 0:
                continue
            for e in sorted(badness(g, c).bad_edges):
                for name in ("S3", "S4"):
                    # a fresh engine per schema: an accepted move stays made
                    eng = _Engine(_Contacts.of(g, c))
                    gen = getattr(eng, f"_{name.lower()}_candidates")
                    if any(eng.try_move(cand, name) is not None for cand in gen(e)):
                        accepted.add(name)
    assert {"S3", "S4"} <= accepted


# Good colorings at k = Delta^2 - 1 where S3, or S4, is the first schema with
# a move for any bad edge; found by tools/schema_witnesses.py
S3_WITNESS = [3, 1, 6, 4, 2, 7, 1, 2, 7, 5, 6, 3, 1, 4, 8, 5, 4, 3, 8, 5, 6]  # prism(7)
S4_WITNESS = [5, 6, 1, 7, 1, 5, 4, 7, 8, 4, 5, 3, 2, 8, 1, 3, 2, 8, 6, 7, 6]  # prism(7)
S3_WITNESS_DELTA4 = [15, 9, 1, 5, 11, 12, 4, 13, 14, 8, 2, 3, 15, 9, 5, 1, 12, 13, 11, 4, 3, 8, 2, 14, 6, 7, 4, 10]
STAGE_ASSERTS = ("_assert_stage1", "_assert_stage2", "_assert_stage3")


@pytest.mark.parametrize(
    "g,colors,schema,move,stages",
    [
        (families.prism(7), S3_WITNESS, "S3", ((0, 1), (1, 2), (6, 3)), 3),
        (families.prism(7), S4_WITNESS, "S4", ((8, 3), (15, 8)), 2),
        (families.c7_blowup(), S3_WITNESS_DELTA4, "S3", ((0, 11), (4, 6), (26, 15)), 3),
    ],
    ids=["S3-prism7", "S4-prism7", "S3-c7_blowup"],
)
def test_schema_fires_first_on_its_witness(monkeypatch, g, colors, schema, move, stages):
    c = from_list(colors, max_degree(g) ** 2 - 1)
    assert is_good_coloring(g, c) and badness(g, c).kappa1 > 0
    ran = []
    for name in STAGE_ASSERTS:
        check = getattr(_Engine, name)
        # each assert that runs must hold: a failure raises out of find_move
        monkeypatch.setattr(_Engine, name, lambda self, bad, name=name, check=check: (ran.append(name), check(self, bad)))
    eng = _Engine(_Contacts.of(g, c))
    assert eng.enforce_invariants
    assert eng.find_move() == solver.MoveProposal(move, schema)
    assert ran == list(STAGE_ASSERTS[:stages])
    for mode in ("semistrong", "relaxed01"):
        state = _Contacts.of(g, c)
        trace = _repair_engine(state, debug=True, mode=mode)
        out = state.to_coloring()
        assert badness(g, out).kappa1 == 0 and trace.fallback_f3 == 0
        assert trace.moves_by_schema == {schema: 1}


def test_on_demand_neighborhood_matches_compute_neighborhood():
    for g in [families.prism(5), families.c7_blowup(), families.h_graph(4), cut_gadget()[0]]:
        eng = _Engine(_Contacts.of(g, greedy_good_coloring(g, max_degree(g) ** 2 - 1)))
        assert eng._nbs == {}  # nothing is built up front
        for e in range(g.edge_count):
            nb, one = eng.nb(e), compute_neighborhood(g, e)
            assert eng.nb(e) is nb
            assert (nb.edge, nb.u, nb.v, nb.n1, nb.n2, nb.f_set) == (one.edge, one.u, one.v, one.n1, one.n2, one.f_set)
            assert (nb.t6, nb.n2_u, nb.n2_v, nb.c_delta, nb.type_of) == (one.t6, one.n2_u, one.n2_v, one.c_delta, one.type_of)


def test_free_colors_and_one_neighbors_match_the_neighborhood_oracle(monkeypatch):
    # free: outside the forbidden set and e's own color, on at most one T6
    # contact, read off the ring masks with no per-color contacts call
    calls = _counting_contacts(monkeypatch)
    rng = random.Random(5)
    twice = 0  # free-looking colors that two T6 contacts rule out
    for g in [families.prism(5), families.c7_blowup(), families.random_max_degree(30, 4, 7)]:
        eng = _Engine(_Contacts.of(g, bad_state(g, rng)))
        calls.clear()
        colors = eng.colors
        for e in range(g.edge_count):
            nb = compute_neighborhood(g, e)
            taken = {colors[f] for f in nb.f_set} | {colors[e]}
            t6 = Counter(colors[f] for f in nb.t6)
            assert list(eng._free_colors(e)) == [a for a in range(1, eng.k + 1) if a not in taken and t6[a] <= 1]
            assert eng._n1(e) == sorted(nb.n1)
            twice += sum(1 for a, n in t6.items() if n > 1 and a not in taken)
        assert calls == []
    assert twice > 0


def _induced_path(g, rng, length):
    """A random induced path of g with up to length edges: its vertices and
    its edge ids."""
    e = rng.randrange(g.edge_count)
    path, edges = list(g.edges[e]), [e]
    while len(edges) < length:
        ahead = [w for w in g.neighbors(path[-1]) if w not in path and not any(g.has_edge(w, x) for x in path[:-1])]
        if not ahead:
            break
        w = rng.choice(ahead)
        edges.append(g.edge_between(path[-1], w))
        path.append(w)
    return path, edges


def test_s3_reads_the_colors_of_m_set_off_the_masks(monkeypatch):
    # on an induced path of two or more edges S3 offers the last edge every
    # color outside m_set's, and builds no neighborhood to find them
    rng = random.Random(41)
    graphs = [families.prism(7), families.c7_blowup(), families.hypercube(4), families.blowup(9, 2)]
    graphs += [families.random_max_degree(rng.randint(20, 60), rng.randint(3, 6), rng.randrange(10**6)) for _ in range(6)]
    states = []
    for g in graphs:
        # the solver's palette, and one color more than the largest forbidden
        # set, where m_set's colors often fill the palette
        enough = 1 + max(len(compute_neighborhood(g, e).f_set) for e in range(g.edge_count))
        for k in {max_degree(g) ** 2 - 1, enough}:
            states += [(g, random_good_coloring(g, k, rng)) for _ in range(3)]
    monkeypatch.setattr(solver, "compute_neighborhood", lambda g, e: pytest.fail("S3 built a neighborhood"))
    offered = Counter()
    for g, c in states:
        eng = _Engine(_Contacts.of(g, c))
        for _ in range(40):
            path, edges = _induced_path(g, rng, rng.randint(2, solver.MAX_SHIFT_PATH_EDGES))
            if len(edges) < 2:
                continue
            used = {c.colors[f] for f in m_set(g, path)}
            # no growth past this path: only its own last-edge colors
            monkeypatch.setattr(solver, "MAX_SHIFT_PATH_EDGES", len(edges))
            alphas = [move[edges[-1]] for move in eng._s3_grow(path, edges)]
            assert alphas == [a for a in range(1, c.k + 1) if a not in used]
            offered[bool(alphas)] += 1
        assert eng._nbs == {}
    assert offered[True] > 100 and offered[False] > 10


def test_heap_top_is_the_smallest_bad_edge_after_random_moves():
    rng = random.Random(31)
    made = Counter()
    for g in [families.prism(5), families.c7_blowup(), families.random_max_degree(30, 4, 7)]:
        k = max_degree(g) ** 2 - 1
        eng = _Engine(_Contacts.of(g, random_good_coloring(g, k, rng)))
        for _ in range(400):
            edges = rng.sample(range(g.edge_count), rng.choice((1, 2, 3)))
            move = eng.try_move({e: rng.randint(1, k) for e in edges}, "random")
            made[move is not None] += 1
            state = eng.state
            assert state.smallest_bad() == min(state.bad, default=None)
            assert state.bad <= set(state.heap) and len(state.heap) <= 2 * g.edge_count
            if not state.bad:
                eng = _Engine(_Contacts.of(g, random_good_coloring(g, k, rng)))
    assert made[True] > 0 and made[False] > 0


def test_s1_only_repair_never_sorts_the_bad_set(monkeypatch):
    sorts = []
    bad_edges = _Contacts.bad_edges

    def counting(self):
        sorts.append(len(self.bad))
        return bad_edges(self)

    monkeypatch.setattr(_Contacts, "bad_edges", counting)
    g = families.random_max_degree(130, 6, 3)
    d = max_degree(g)
    start = smallest_color_start(g, d * d - 1)
    assert badness(g, start).kappa1 > 100
    for debug in (False, True):
        state = _Contacts.of(g, start)
        trace = _repair_engine(state, debug=debug, mode="semistrong")
        out = state.to_coloring()
        assert badness(g, out).kappa1 == 0
        assert set(trace.moves_by_schema) == {"S1"} and trace.moves_by_schema["S1"] > 100
    assert sorts == []


def _hub_graph():
    """A seeded graph of maximum degree 3 with 2,850 edges, plus one vertex
    of degree 40 joined to it, so the palette is 40^2 - 1 while almost every
    N2 is small."""
    rng = random.Random(5)
    n = 1950
    deg = [0] * n
    pairs = set()
    for _ in range(10 * n):
        u, v = sorted(rng.sample(range(n), 2))
        if deg[u] < 3 and deg[v] < 3 and (u, v) not in pairs:
            deg[u] += 1
            deg[v] += 1
            pairs.add((u, v))
    spokes = [(w, n) for w in rng.sample(range(n), 40)]
    return build_graph(n + 1, sorted(pairs) + spokes)


def test_greedy_color_masks_stay_small_on_a_hub_graph():
    hub = _hub_graph()
    g = max((view.graph for view in connected_components(hub)), key=lambda h: h.edge_count)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        state = solver._greedy(_Contacts(g, 40 * 40 - 1), bfs_edge_order(g))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (state.held, state.count) == contact_state(g, state.colors)
    # about 160 KiB here; with a color -> edge map per vertex beside the
    # masks it was 540 KiB, 490 KiB of it the state; per-vertex tallies (per
    # color, the one neighbor carrying it) peaked at 710 KiB, and at 1,096 KiB
    # when every vertex's were kept to the end
    assert peak < 2**18


def _counting_contacts(monkeypatch) -> list:
    """What every _Contacts.contacts call returns, in call order."""
    calls = []
    contacts = _Contacts.contacts

    def counting(self, e, c):
        found = contacts(self, e, c)
        calls.append(found)
        return found

    monkeypatch.setattr(_Contacts, "contacts", counting)
    return calls


def test_greedy_asks_contacts_nothing_on_a_wheel(monkeypatch):
    calls = _counting_contacts(monkeypatch)
    n = 1000  # W_1000: hub 0 joined to the cycle 1..n
    g = build_graph(n + 1, [(0, i) for i in range(1, n + 1)] + [(i, i % n + 1) for i in range(1, n + 1)])
    state = solver._greedy(_Contacts(g, n * n - 1), bfs_edge_order(g))
    # each rim edge met every spoke color twice, at the hub, and per-color
    # tallies asked contacts about each: 998,000 calls
    assert len(calls) <= g.edge_count
    assert (state.held, state.count) == contact_state(g, state.colors)


def test_greedy_fallback_matches_the_n2_oracle(monkeypatch):
    # the palettes where no color qualifies for some edge, so greedy takes the
    # smallest color outside the forbidden set, or runs out
    calls = _counting_contacts(monkeypatch)
    rng = random.Random(22)
    fallbacks = stuck = 0
    for _ in range(100):
        g = families.random_max_degree(rng.randint(8, 30), rng.randint(3, 6), rng.randrange(10**6))
        d = max_degree(g)
        for k in sorted({d + 1, 2 * d - 1, d * d - 1}):
            try:
                oracle, fell = contact_greedy(g, k)
            except PaletteExhaustedError as exc:
                with pytest.raises(PaletteExhaustedError) as ours:
                    solver._greedy(_Contacts(g, k), bfs_edge_order(g))
                assert (ours.value.edge, ours.value.palette_size) == (exc.edge, k)
                stuck += 1
                continue
            state = solver._greedy(_Contacts(g, k), bfs_edge_order(g))
            assert state.to_coloring() == oracle
            assert (state.held, state.count) == contact_state(g, state.colors)
            report = badness(g, oracle)
            assert (state.potential(), state.bad) == (report.potential, set(report.bad_edges))
            fallbacks += fell
    assert fallbacks > 0 and stuck > 0
    # contacts ruled a color met twice forbidden, and gave one as the fallback
    assert None in calls and any(found is not None for found in calls)


def test_repair_state_is_linear_in_the_edge_count():
    hub = _hub_graph()
    g = max((view.graph for view in connected_components(hub)), key=lambda h: h.edge_count)
    assert max_degree(g) == 40 and g.edge_count > 2500
    start = smallest_color_start(g, 40 * 40 - 1)
    # the state and a whole repair: about 350 KiB here; per-vertex color ->
    # edge maps peaked at 925 KiB, and per-edge N2 and forbidden-set lists
    # with a count table per edge at 2.2 MiB
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        state = _Contacts.of(g, start)
        trace = _repair_engine(state, debug=False, mode="semistrong")
        out = state.to_coloring()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert badness(g, out).kappa1 == 0 and trace.moves_by_schema["S1"] > 1000
    assert peak < 2**19
    # one mask bit per edge end, and no per-edge list or table
    assert sum(held.bit_count() for held in state.held) == 2 * g.edge_count
    assert (state.held, state.count) == contact_state(g, out.colors)
    # the whole solve: per-edge frozenset neighborhoods peaked at 6.4 MiB
    # here, and a dense palette-sized table per edge at about 38 MiB
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert solve(hub, "semistrong").certificates["semistrong"]
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20
