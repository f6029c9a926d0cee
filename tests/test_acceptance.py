"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The expensive five-minute-plus searches all finish
in seconds here, but every search still carries its stated budget so a
regression degrades the way the criteria allow instead of hanging.
"""

from __future__ import annotations

import time

import pytest

from _oracles import type_class
from semistrong import families
from semistrong.construct import color_cycle, color_g_family, color_kdd_relaxed, color_kdd_semistrong, color_path
from semistrong.exact import Budget, exact_index, feasibility
from semistrong.graph import build_graph, connected_components, g_family_witness, is_complete_bipartite_dd, max_degree
from semistrong.neighborhood import PairType, compute_neighborhood, observation_bound
from semistrong.solver import solve
from semistrong.verify import verify_relaxed, verify_semistrong


def _report(cid: str, failures: list[str], detail: str):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {cid}: {status} ({detail})")
    assert not failures, f"{cid}: " + "; ".join(failures[:10])


# --- corpus shared by criteria 4 and 9 -------------------------------------


def _seven_vertex_corpus():
    nx = pytest.importorskip("networkx")
    for G in nx.graph_atlas_g():
        n = G.number_of_nodes()
        if n == 0 or not nx.is_connected(G):
            continue
        g = build_graph(n, [tuple(e) for e in G.edges()])
        if max_degree(g) < 3:
            continue
        if n == 6 and is_complete_bipartite_dd(g, 3):
            continue  # the excluded balanced complete bipartite graph
        yield g


@pytest.fixture(scope="module")
def corpus_solves():
    results = []
    for g in _seven_vertex_corpus():
        results.append((g, solve(g, "semistrong", debug=True)))
    return results


def test_criterion_01_exact_values():
    t0 = time.monotonic()
    fast = Budget(max_seconds=60)
    slow = Budget(max_seconds=300)
    cases = [
        ("C4 semistrong", families.cycle(4), "semistrong", 0, 0, 6, 4, fast),
        ("C4 relaxed01", families.cycle(4), "relaxed", 0, 1, 6, 2, fast),
        ("C7 semistrong", families.cycle(7), "semistrong", 0, 0, 6, 4, fast),
        ("C7 relaxed01", families.cycle(7), "relaxed", 0, 1, 6, 4, fast),
        ("K33 semistrong", families.complete_bipartite(3, 3), "semistrong", 0, 0, 9, 9, fast),
        ("K33 relaxed01", families.complete_bipartite(3, 3), "relaxed", 0, 1, 9, 5, fast),
        ("Q3 semistrong", families.hypercube(3), "semistrong", 0, 0, 8, 6, slow),
        ("H(3) semistrong", families.h_graph(3), "semistrong", 0, 0, 8, 7, slow),
    ]
    failures = []
    for name, g, mode, s, t, max_colors, expected, budget in cases:
        res = exact_index(g, mode, max_colors, budget=budget, s=s, t=t)
        if res.value != expected or res.proof != "exhausted":
            failures.append(f"{name}: got value={res.value} proof={res.proof}, want {expected} exhausted")
    _report("criterion 1 (exact values)", failures, f"8 oracle values, {time.monotonic() - t0:.1f}s")


def test_criterion_02_prism5_sharpness():
    t0 = time.monotonic()
    g = families.prism(5)
    failures = []
    res = exact_index(g, "semistrong", 8, budget=Budget(max_seconds=600))
    if res.proof == "exhausted":
        if res.value != 8:
            failures.append(f"exact value {res.value} != 8")
        detail = f"value 8 with exhausted proof at 7, {time.monotonic() - t0:.1f}s"
    else:
        # degraded form: certificate at 8 plus solver output within 8
        if res.value != 8:
            failures.append(f"no certificate at 8 within budget (value={res.value})")
        solved = solve(g, "semistrong")
        if solved.colors_used > 8:
            failures.append(f"solver used {solved.colors_used} > 8 colors")
        detail = f"budget hit; degraded check, {time.monotonic() - t0:.1f}s"
    _report("criterion 2 (5-prism sharpness)", failures, detail)


def test_criterion_02_prism5_refutation_unbudgeted():
    res = feasibility(families.prism(5), "semistrong", 7)
    assert res.status == "unsat"


def test_criterion_03_c7_blowup_feasibility():
    t0 = time.monotonic()
    g = families.c7_blowup()
    failures = []
    res = feasibility(g, "semistrong", 14, budget=Budget(max_seconds=600))
    if res.status != "sat" or res.coloring is None:
        failures.append(f"feasibility status {res.status}, want sat")
    else:
        if not verify_semistrong(g, res.coloring).ok:
            failures.append("certificate fails the semistrong verifier")
        if res.coloring.distinct_colors() > 14:
            failures.append(f"certificate uses {res.coloring.distinct_colors()} > 14 colors")
    _report("criterion 3 (C7-blowup feasibility at 14)", failures, f"{time.monotonic() - t0:.1f}s")


def test_criterion_04_main_theorem_small_scale(corpus_solves):
    t0 = time.monotonic()
    failures = []
    fallbacks = 0
    for g, res in corpus_solves:
        d = max_degree(g)
        if not res.certificates["semistrong"]:
            failures.append(f"n={g.vertex_count} edges={g.edges}: semistrong verifier failed")
        if not res.certificates["relaxed01"]:
            failures.append(f"n={g.vertex_count} edges={g.edges}: relaxed01 verifier failed")
        if res.colors_used > d * d - 1:
            failures.append(f"n={g.vertex_count} edges={g.edges}: {res.colors_used} > {d * d - 1} colors")
        fallbacks += sum(tr.fallback_f3 for tr in res.trace)
    if fallbacks:
        failures.append(f"{fallbacks} exact-search fallbacks (expected 0)")
    detail = f"{len(corpus_solves)} connected graphs on <=7 vertices, fallbacks={fallbacks}, {time.monotonic() - t0:.1f}s"
    _report("criterion 4 (main theorem, exhaustive small scale)", failures, detail)


def test_criterion_05_degree_two_closed_forms():
    t0 = time.monotonic()
    failures = []
    for n in range(2, 61):
        g = families.path(n)
        c = color_path(n)
        expected = min(n - 1, 3)
        if c.distinct_colors() != expected:
            failures.append(f"path {n}: {c.distinct_colors()} colors != {expected}")
        if not verify_semistrong(g, c).ok or not verify_relaxed(g, c, 0, 1).ok:
            failures.append(f"path {n}: verifier failed")
    for n in range(3, 61):
        if n in (4, 7):
            continue
        g = families.cycle(n)
        c = color_cycle(n)
        if c.distinct_colors() != 3:
            failures.append(f"cycle {n}: {c.distinct_colors()} colors != 3")
        if not verify_semistrong(g, c).ok or not verify_relaxed(g, c, 0, 1).ok:
            failures.append(f"cycle {n}: verifier failed")
    _report("criterion 5 (degree-2 closed forms)", failures, f"paths+cycles to 60, {time.monotonic() - t0:.2f}s")


def test_criterion_06_kdd_constructions():
    t0 = time.monotonic()
    failures = []
    for d in range(2, 7):
        g = families.complete_bipartite(d, d)
        ss = color_kdd_semistrong(d)
        if ss.distinct_colors() != d * d:
            failures.append(f"d={d}: semistrong {ss.distinct_colors()} != {d * d}")
        if not verify_semistrong(g, ss).ok:
            failures.append(f"d={d}: semistrong verifier failed")
        rel = color_kdd_relaxed(d)
        if rel.distinct_colors() != (d * d + 1) // 2:
            failures.append(f"d={d}: relaxed {rel.distinct_colors()} != {(d * d + 1) // 2}")
        if not verify_relaxed(g, rel, 0, 1).ok:
            failures.append(f"d={d}: relaxed verifier failed")
    _report("criterion 6 (balanced bipartite constructions)", failures, f"d=2..6, {time.monotonic() - t0:.2f}s")


def test_criterion_07_covering_family_branch():
    t0 = time.monotonic()
    failures = []
    g = families.prism(3)
    witness = g_family_witness(g)
    if witness is None:
        failures.append("prism(3) witness missing")
    else:
        c = color_g_family(g, witness)
        if c.distinct_colors() != 8:
            failures.append(f"{c.distinct_colors()} colors != 8")
        if not verify_semistrong(g, c).ok:
            failures.append("semistrong verifier failed")
        if not verify_relaxed(g, c, 0, 1).ok:
            failures.append("relaxed verifier failed")
    _report("criterion 7 (covering-edge family branch)", failures, f"{time.monotonic() - t0:.2f}s")


def test_criterion_08_structural_properties():
    t0 = time.monotonic()
    failures = []
    checked_edges = 0
    for i in range(500):
        n = 4 + (7 * i) % 11  # 4..14
        cap = 1 + (3 * i) % 5  # 1..5
        g = families.random_max_degree(n, cap, seed=1000 + i)
        delta = max_degree(g)
        for e in range(g.edge_count):
            checked_edges += 1
            nb = compute_neighborhood(g, e)
            t_sets = [type_class(nb, t) for t in PairType]
            if frozenset().union(*t_sets) != nb.n2 or sum(len(s) for s in t_sets) != len(nb.n2):
                failures.append(f"graph {i} edge {e}: type classes do not partition the 2-neighborhood")
            if len(nb.f_set) > observation_bound(nb, delta):
                failures.append(f"graph {i} edge {e}: forbidden-set bound violated")
            for f in nb.n2:
                back = compute_neighborhood(g, f)
                if (f in nb.f_set) != (e in back.f_set) or (f in nb.t6) != (e in back.t6):
                    failures.append(f"graph {i} pair ({e},{f}): symmetry violated")
            if not nb.c_delta and (t_sets[0] or t_sets[1] or t_sets[2]):
                failures.append(f"graph {i} edge {e}: dense types present without triangle neighbors")
        for view in connected_components(g):
            comp = view.graph
            dc = max_degree(comp)
            tight = any(
                len(compute_neighborhood(comp, e).f_set) == dc * dc - 1 for e in range(comp.edge_count)
            )
            if tight != (g_family_witness(comp) is not None):
                failures.append(f"graph {i}: covering-family equivalence violated on a component")
    detail = f"500 seeded graphs, {checked_edges} edges, {time.monotonic() - t0:.1f}s"
    _report("criterion 8 (structural properties)", failures, detail)


def test_criterion_09_repair_monotonicity(corpus_solves):
    t0 = time.monotonic()
    failures = []
    runs = 0
    results = list(corpus_solves) + [(families.c7_blowup(), solve(families.c7_blowup(), "semistrong", debug=True))]
    for g, res in results:
        for tr in res.trace:
            if tr.strategy != "greedy_repair":
                continue
            runs += 1
            traj = tr.kappa_trajectory
            for a, b in zip(traj, traj[1:]):
                if not b < a:
                    failures.append(f"n={g.vertex_count} edges={g.edges}: potential step {a} -> {b} not decreasing")
    # debug=True already raised on any incremental/full disagreement or
    # goodness break inside solve; reaching this point certifies those too
    detail = f"{runs} repair runs, strict lexicographic descent, {time.monotonic() - t0:.1f}s"
    _report("criterion 9 (repair monotonicity)", failures, detail)


def test_criterion_10_incomparability_witness():
    t0 = time.monotonic()
    failures = []
    g = families.cycle(4)
    ss = exact_index(g, "semistrong", 6, budget=Budget(max_seconds=60))
    rel = exact_index(g, "relaxed", 6, budget=Budget(max_seconds=60), s=0, t=1)
    if ss.value != 4 or rel.value != 2 or not ss.value > rel.value:
        failures.append(f"semistrong {ss.value} vs relaxed {rel.value}")
    _report("criterion 10 (incomparability witness)", failures, f"{time.monotonic() - t0:.2f}s")
