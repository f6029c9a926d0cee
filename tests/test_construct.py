from __future__ import annotations

import pytest

from _oracles import naive_verify
from semistrong import families
from semistrong.construct import (
    color_cycle,
    color_g_family,
    color_kdd_relaxed,
    color_kdd_semistrong,
    color_path,
    cycle_pattern,
)
from semistrong.graph import GraphError, g_family_witness
from semistrong.verify import verify_relaxed, verify_semistrong


def test_path_small():
    assert color_path(2).colors == (1,)
    assert color_path(4).colors == (1, 2, 3)
    with pytest.raises(ValueError):
        color_path(1)


def test_paths_all_sizes():
    for n in range(2, 61):
        g = families.path(n)
        c = color_path(n)
        assert c.distinct_colors() <= 3
        assert verify_semistrong(g, c).ok
        assert verify_relaxed(g, c, 0, 1).ok


def test_cycle_patterns():
    assert color_cycle(6).colors == (1, 2, 3, 1, 2, 3)
    assert color_cycle(4).distinct_colors() == 4
    assert color_cycle(7).distinct_colors() == 4
    assert cycle_pattern(4, relaxed=True) == [1, 2, 1, 2]
    with pytest.raises(ValueError):
        color_cycle(2)


# cycle_pattern(n) at n = 3..20; relaxed mode differs only at n = 4
CYCLE_PATTERNS = {
    3: [1, 2, 3],
    4: [1, 2, 3, 4],
    5: [1, 2, 3, 1, 2],
    6: [1, 2, 3, 1, 2, 3],
    7: [1, 2, 3, 1, 2, 3, 4],
    8: [1, 2, 3, 1, 2, 3, 1, 2],
    9: [1, 2, 3, 1, 2, 3, 1, 2, 3],
    10: [1, 2, 3, 1, 2, 3, 2, 1, 3, 2],
    11: [1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2],
    12: [1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3],
    13: [1, 2, 3, 1, 2, 3, 1, 2, 3, 2, 1, 3, 2],
    14: [1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2],
    15: [1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3],
    16: [1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 2, 1, 3, 2],
    17: [1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2],
    18: [1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3],
    19: [1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 2, 1, 3, 2],
    20: [1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2],
}


def test_cycle_pattern_is_pinned():
    for n, pattern in CYCLE_PATTERNS.items():
        assert cycle_pattern(n) == pattern
        assert cycle_pattern(n, relaxed=True) == ([1, 2, 1, 2] if n == 4 else pattern)


def test_cycles_all_sizes():
    for n in range(3, 61):
        g = families.cycle(n)
        c = color_cycle(n)
        if n in (4, 7):
            assert c.distinct_colors() == 4
        else:
            assert c.distinct_colors() == 3
        assert verify_semistrong(g, c).ok
        if n != 4:
            assert verify_relaxed(g, c, 0, 1).ok
    # C4's semistrong rainbow is trivially relaxed-valid too; the 2-color
    # variant is the relaxed-optimal one
    g4 = families.cycle(4)
    from semistrong.coloring import from_list

    assert verify_relaxed(g4, from_list(cycle_pattern(4, relaxed=True)), 0, 1).ok


def test_cycle10_patched_branch():
    g = families.cycle(10)
    c = color_cycle(10)
    assert c.distinct_colors() == 3
    assert naive_verify(g, c.colors, "semistrong")
    assert naive_verify(g, c.colors, "relaxed", 0, 1)


def test_kdd_semistrong():
    assert color_kdd_semistrong(1).colors == (1,)
    for d in range(1, 7):
        g = families.complete_bipartite(d, d)
        c = color_kdd_semistrong(d)
        assert c.distinct_colors() == d * d
        assert verify_semistrong(g, c).ok
    with pytest.raises(ValueError):
        color_kdd_semistrong(0)


def test_kdd_relaxed():
    for d in range(1, 7):
        g = families.complete_bipartite(d, d)
        c = color_kdd_relaxed(d)
        assert c.distinct_colors() == (d * d + 1) // 2
        assert verify_relaxed(g, c, 0, 1).ok
        sizes = sorted(len(v) for v in c.classes().values())
        assert set(sizes) <= {1, 2}
    assert color_kdd_relaxed(2).distinct_colors() == 2
    assert color_kdd_relaxed(3).distinct_colors() == 5
    assert color_kdd_relaxed(4).distinct_colors() == 8


def test_kdd_relaxed_not_semistrong():
    # the paired classes sharing a color violate the semistrong condition
    d = 3
    g = families.complete_bipartite(d, d)
    c = color_kdd_relaxed(d)
    assert not verify_semistrong(g, c).ok
    assert verify_relaxed(g, c, 0, 1).ok


def test_g_family_prism3():
    g = families.prism(3)
    w = g_family_witness(g)
    assert w is not None
    c = color_g_family(g, w)
    assert c.distinct_colors() == 8
    assert c.k == 8
    assert verify_semistrong(g, c).ok
    assert verify_relaxed(g, c, 0, 1).ok


def test_g_family_rejects_kdd():
    g = families.complete_bipartite(3, 3)
    with pytest.raises(GraphError) as exc:
        color_g_family(g, 0)
    assert exc.value.reason == "is_kdd"


def test_g_family_rejects_non_members():
    with pytest.raises(GraphError):
        color_g_family(families.prism(4), 0)


def test_g_family_edge_count_invariant():
    for g in [families.prism(3), families.complete_bipartite(3, 3), families.complete_bipartite(4, 4)]:
        if g_family_witness(g) is not None:
            d = g.degree(0)
            assert g.edge_count == d * d
