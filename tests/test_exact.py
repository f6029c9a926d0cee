from __future__ import annotations

import pytest

from semistrong import families
from semistrong.exact import Budget, exact_index, feasibility
from semistrong.graph import build_graph
from semistrong.verify import verify_relaxed, verify_semistrong, verify_strong


def test_c4_values():
    g = families.cycle(4)
    res = exact_index(g, "semistrong", 6)
    assert (res.value, res.proof) == (4, "exhausted")
    res = exact_index(g, "relaxed", 6, s=0, t=1)
    assert (res.value, res.proof) == (2, "exhausted")


def test_c7_values():
    g = families.cycle(7)
    assert exact_index(g, "semistrong", 6).value == 4
    assert exact_index(g, "relaxed", 6, s=0, t=1).value == 4


def test_k33_values():
    g = families.complete_bipartite(3, 3)
    res = exact_index(g, "semistrong", 9)
    assert (res.value, res.proof) == (9, "exhausted")
    res = exact_index(g, "relaxed", 6, s=0, t=1)
    assert (res.value, res.proof) == (5, "exhausted")


def test_c5_strong_needs_five():
    assert exact_index(families.cycle(5), "strong", 6).value == 5


def test_certificates_verified():
    g = families.hypercube(3)
    res = exact_index(g, "semistrong", 7)
    assert res.value == 6
    assert verify_semistrong(g, res.certificate).ok
    res = exact_index(g, "strong", 7)
    assert verify_strong(g, res.certificate).ok
    res = exact_index(g, "relaxed", 7, s=0, t=1)
    assert verify_relaxed(g, res.certificate, 0, 1).ok


def test_feasibility_refutes_and_finds():
    g = families.cycle(4)
    res = feasibility(g, "semistrong", 3)
    assert res.status == "unsat"
    res = feasibility(g, "semistrong", 4)
    assert res.status == "sat"
    assert res.coloring is not None and res.coloring.distinct_colors() == 4


def test_feasibility_monotone():
    g = families.prism(3)
    statuses = [feasibility(g, "semistrong", k).status for k in range(4, 12)]
    # once sat, stays sat
    first_sat = statuses.index("sat")
    assert all(s == "sat" for s in statuses[first_sat:])


def test_semistrong_at_most_strong():
    for g in [families.cycle(5), families.prism(3), families.hypercube(3), families.path(6)]:
        ss = exact_index(g, "semistrong", 12).value
        st = exact_index(g, "strong", 12).value
        assert ss is not None and st is not None
        assert ss <= st


def test_incomparability_of_semistrong_and_relaxed():
    g = families.cycle(4)
    ss = exact_index(g, "semistrong", 6).value
    rel = exact_index(g, "relaxed", 6, s=0, t=1).value
    assert ss == 4 and rel == 2
    assert ss > rel


def test_relaxed00_matches_strong_values():
    for g in [families.cycle(5), families.cycle(6), families.prism(3)]:
        assert exact_index(g, "strong", 12).value == exact_index(g, "relaxed", 12, s=0, t=0).value


def test_node_budget_timeout_is_deterministic():
    g = families.prism(5)
    res = feasibility(g, "semistrong", 7, budget=Budget(max_nodes=500))
    assert res.status == "timeout"
    again = feasibility(g, "semistrong", 7, budget=Budget(max_nodes=500))
    assert again.nodes == res.nodes
    full = feasibility(g, "semistrong", 7)
    assert full.status == "unsat"


def test_exact_index_timeout_proof():
    g = families.prism(5)
    res = exact_index(g, "semistrong", 8, budget=Budget(max_nodes=50))
    assert res.proof == "timeout"
    assert res.value is None


def test_infeasible_at_max():
    g = families.cycle(4)
    res = exact_index(g, "semistrong", 3)
    assert res.value is None
    assert res.proof == "exhausted"


def test_empty_graph():
    res = exact_index(build_graph(3, []), "semistrong", 2)
    assert res.value == 0
    assert res.proof == "exhausted"


def test_bad_parameters():
    g = families.cycle(4)
    with pytest.raises(ValueError):
        exact_index(g, "nope", 3)
    with pytest.raises(ValueError):
        feasibility(g, "semistrong", 0)
    with pytest.raises(ValueError):
        exact_index(g, "relaxed", 3, s=-1)


def test_h_graph_value():
    res = exact_index(families.h_graph(3), "semistrong", 8)
    assert (res.value, res.proof) == (7, "exhausted")


def test_long_path_search_is_iterative():
    # one search position per edge: a recursive search would exceed the
    # interpreter's recursion limit long before 1,499 edges
    g = families.path(1500)
    res = feasibility(g, "semistrong", 3)
    assert res.status == "sat"
    assert res.nodes == 2697
    assert verify_semistrong(g, res.coloring).ok
