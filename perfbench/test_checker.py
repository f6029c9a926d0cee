"""The benchmark's checker rejects hand-made invalid colorings and accepts
known valid ones.

Run with ``python3 -m unittest discover -s perfbench -p 'test_*.py'`` or
with pytest.
"""

from __future__ import annotations

import random
import unittest

import checker
import generate

C4 = generate.cycle(4)
C7 = generate.cycle(7)
P5 = generate.path(5)
K33 = generate.complete_bipartite(3, 3)
PRISM3 = generate.prism(3)


class SemistrongMatchings(unittest.TestCase):
    def test_opposite_edges_of_c4_are_not_a_semistrong_class(self):
        # class {01, 23}: every endpoint has induced degree 2
        self.assertTrue(checker.semistrong_problems(4, C4, [1, 2, 1, 2]))
        self.assertEqual(checker.semistrong_problems(4, C4, [1, 2, 3, 4]), [])

    def test_adjacent_edges_in_one_class_are_rejected(self):
        problems = checker.semistrong_problems(5, P5, [1, 1, 2, 3])
        self.assertIn("shares a vertex", problems[0])

    def test_path_edges_joined_by_one_edge_may_share_a_color(self):
        # edges 0 and 2 of P5 are joined by edge 1; vertices 0 and 3 keep degree 1
        self.assertEqual(checker.semistrong_problems(5, P5, [1, 2, 1, 3]), [])

    def test_k33_rainbow_passes_and_a_repeated_color_fails(self):
        self.assertEqual(checker.semistrong_problems(6, K33, list(range(1, 10))), [])
        colors = list(range(1, 10))
        colors[8] = 1  # edges 0 (0-3) and 8 (2-5) induce a 4-cycle
        self.assertTrue(checker.semistrong_problems(6, K33, colors))


class RelaxedColorings(unittest.TestCase):
    def test_c4_alternating_is_relaxed_01_but_not_strong(self):
        self.assertEqual(checker.relaxed_problems(4, C4, [1, 2, 1, 2], 0, 1), [])
        self.assertTrue(checker.relaxed_problems(4, C4, [1, 2, 1, 2], 0, 0))

    def test_adjacent_same_color_breaks_s_zero(self):
        self.assertTrue(checker.relaxed_problems(4, C4, [1, 1, 2, 3], 0, 1))

    def test_two_same_colored_edges_at_distance_two_break_t_one(self):
        # edges 2 (2-3) and 5 (5-6) are both at distance 2 from edge 0 (0-1)
        edges = P5 + [(1, 5), (5, 6)]
        self.assertEqual(checker.relaxed_problems(7, edges, [1, 2, 1, 3, 4, 5], 0, 1), [])
        problems = checker.relaxed_problems(7, edges, [1, 2, 1, 3, 4, 1], 0, 1)
        self.assertTrue(any("edge 0 " in p for p in problems))


class PaperBounds(unittest.TestCase):
    def test_kinds_and_bounds(self):
        self.assertEqual(checker.paper_bound(P5, "semistrong"), ("path", 3))
        self.assertEqual(checker.paper_bound(C4, "semistrong"), ("C4", 4))
        self.assertEqual(checker.paper_bound(C4, "relaxed01"), ("C4", 2))
        self.assertEqual(checker.paper_bound(C7, "relaxed01"), ("C7", 4))
        self.assertEqual(checker.paper_bound(generate.cycle(9), "semistrong"), ("C9", 3))
        self.assertEqual(checker.paper_bound(K33, "semistrong"), ("K3,3", 9))
        self.assertEqual(checker.paper_bound(generate.complete_bipartite(4, 4), "relaxed01"), ("K4,4", 8))
        self.assertEqual(checker.paper_bound(PRISM3, "semistrong")[1], 8)
        self.assertEqual(checker.paper_bound(generate.prism(5), "relaxed01")[1], 8)

    def test_too_many_colors_on_a_component_is_rejected(self):
        n, edges = generate.disjoint_union([C7, generate.path(3)], random.Random(1))
        colors = list(range(1, len(edges) + 1))
        problems = checker.bound_problems(n, edges, colors, "semistrong")
        self.assertEqual(len(problems), 1)
        self.assertIn("C7", problems[0])


class WholeColorings(unittest.TestCase):
    def test_known_valid_colorings_pass(self):
        self.assertEqual(checker.coloring_problems(5, P5, [1, 2, 3, 1], "semistrong"), [])
        self.assertEqual(checker.coloring_problems(7, C7, [1, 2, 3, 1, 2, 3, 4], "semistrong"), [])
        # triangular prism: rung 6 (0-3) covers every vertex; its pendant
        # edges 0 (0-1) and 5 (5-3) share a color, the other seven are rainbow
        colors = [1, 2, 3, 4, 5, 1, 6, 7, 8]
        self.assertEqual(checker.coloring_problems(6, PRISM3, colors, "semistrong"), [])

    def test_shape_errors(self):
        self.assertTrue(checker.coloring_problems(5, P5, [1, 2, 3], "semistrong"))
        self.assertTrue(checker.coloring_problems(5, P5, [1, 2, 0, 1], "relaxed01"))
        self.assertTrue(checker.shape_problems(3, [(0, 1), (1, 0)], [1, 2]))


if __name__ == "__main__":
    unittest.main()
