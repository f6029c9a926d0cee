#!/usr/bin/env python3
"""Search for good colorings at which a deep repair schema fires first.

    python3 tools/schema_witnesses.py --seed 1 --seconds 2400

At the Delta^2 - 1 palette the repair engine tries its schemas in the order
of ``_Engine.ladder()``, and random starts almost never get past S1. This
search climbs toward the states the later schemas exist for. Each climb
takes a good coloring with a bad edge and makes single-edge recolorings that
keep the coloring good and keep a bad edge. It keeps one when it does not
raise the profile: per schema, in ladder order, the number of bad edges that
schema has an accepted move for, compared lexicographically. A climb ends
after PATIENCE visits in a row that do not lower the profile. A graph
whose random colorings keep coming out without a bad edge gets no climb.

Phase (a) starts each climb from a random good coloring; phase (b) from a
random one of phase (a)'s witnesses, the climb ends where a schema past S2
fires first. Each phase gets half of --seconds. The graphs are prism(5),
prism(7), hypercube(3), c7_blowup() and seeded connected random cubic graphs
on 10-20 vertices and 4-regular ones on 10-13 vertices; covering-edge family
graphs, which repair does not take, are skipped.

Standard output is JSON lines. A ``state`` line gives each distinct state
past S2 the first time it is visited, with the move a fresh engine's
``find_move`` takes there (``F3`` when none, ``assert`` when a stage assert
fails). One ``summary`` line per phase and maximum degree ends the output:
the climbs, the graphs that got none, the schema ``find_move`` takes at
each climb's end, and the visited states counted by the first schema with
a move (repeats included).
The imported program is the ``src/`` of this checkout.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from semistrong import families  # noqa: E402
from semistrong.coloring import from_list  # noqa: E402
from semistrong.graph import build_graph, g_family_witness, is_connected, max_degree  # noqa: E402
from semistrong.solver import EngineInvariantError, _Contacts, _Engine  # noqa: E402

PATIENCE = 1000
START_TRIES = 100
NAMED = {
    "prism(5)": lambda: families.prism(5),
    "prism(7)": lambda: families.prism(7),
    "hypercube(3)": lambda: families.hypercube(3),
    "c7_blowup()": families.c7_blowup,
}
SHALLOW = ("S1", "S2")


def random_regular(n: int, d: int, seed: int):
    """A connected simple d-regular graph on n vertices from the pairing
    model, retried until one comes out simple and connected."""
    rng = random.Random(seed)
    while True:
        points = [v for v in range(n) for _ in range(d)]
        rng.shuffle(points)
        pairs = {(min(a, b), max(a, b)) for a, b in zip(points[::2], points[1::2])}
        if len(pairs) == n * d // 2 and all(a != b for a, b in pairs):
            g = build_graph(n, sorted(pairs))
            if is_connected(g):
                return g


def random_graph(rng: random.Random):
    """(name, graph): a named graph or a fresh seeded random regular one,
    never a covering-edge family graph."""
    while True:
        kind = rng.choice([*NAMED, "cubic", "quartic"])
        if kind in NAMED:
            name, g = kind, NAMED[kind]()
        else:
            d = 3 if kind == "cubic" else 4
            n = rng.choice(range(10, 21, 2)) if d == 3 else rng.randint(10, 13)
            seed = rng.randrange(10**9)
            name, g = f"random_regular({n}, {d}, {seed})", random_regular(n, d, seed)
        if g_family_witness(g) is None:
            return name, g


def random_start(g, k: int, rng: random.Random) -> _Engine | None:
    """An engine on a random good coloring with a bad edge: edges in random
    order, each in a random color outside its forbidden set. None when
    START_TRIES colorings have no bad edge, as on graphs with few T6 pairs."""
    for _ in range(START_TRIES):
        state = _Contacts(g, k)
        order = list(range(g.edge_count))
        rng.shuffle(order)
        for e in order:
            found = {c: state.contacts(e, c) for c in range(1, k + 1)}
            free = [c for c, contacts in found.items() if contacts is not None]
            if not free:
                break
            c = rng.choice(free)
            state.place(e, c, found[c])
        else:
            if state.bad:
                return _Engine(state)
    return None


def recolor(eng: _Engine, e: int, c: int) -> bool:
    """Give e color c if that keeps the coloring good; report whether it did."""
    old = eng.colors[e]
    state = eng.state
    state.lift(e)
    contacts = state.contacts(e, c)
    if contacts is None:
        state.place(e, old, state.contacts(e, old))
        return False
    state.place(e, c, contacts)
    return True


def restore(eng: _Engine, old: dict[int, int]):
    """Put the edges of old back in their old colors after an accepted move."""
    state = eng.state
    moved = [e for e, c in old.items() if eng.colors[e] != c]
    for e in moved:
        state.lift(e)
    for e in moved:
        state.place(e, old[e], state.contacts(e, old[e]))


def has_move(eng: _Engine, name: str, gen, e: int) -> bool:
    """Whether the schema has an accepted move at bad edge e; the coloring
    is left as it was."""
    for assignments in gen(e):
        old = {f: eng.colors[f] for f in assignments}
        if eng.try_move(assignments, name) is not None:
            restore(eng, old)
            return True
    return False


def profile(eng: _Engine, bound: list[int] | None) -> tuple[list[int], str]:
    """The profile, or its prefix up to where it first exceeds bound, and
    the first schema with a move (F3 when none has)."""
    bad = eng.state.bad_edges()
    counts: list[int] = []
    first = "F3"
    for name, gen, _ in eng.ladder():
        n = sum(has_move(eng, name, gen, e) for e in bad)
        counts.append(n)
        if n and first == "F3":
            first = name
        if bound is not None and counts < bound[: len(counts)]:
            bound = None  # better already: the rest is the new bound
        elif bound is not None and counts > bound[: len(counts)]:
            break
    return counts, first


def engine(g, colors: list[int]) -> _Engine:
    """A fresh engine on a coloring at the Delta^2 - 1 palette."""
    return _Engine(_Contacts.of(g, from_list(list(colors), max_degree(g) ** 2 - 1)))


def first_move(g, colors: list[int]) -> tuple[str, object]:
    """The schema and move of a fresh engine's find_move, asserts on."""
    try:
        move = engine(g, colors).find_move()
    except EngineInvariantError as exc:
        return "assert", str(exc)
    return ("F3", None) if move is None else (move.schema, [list(a) for a in move.assignments])


class Search:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen: set[tuple[str, tuple[int, ...]]] = set()
        self.ends: dict[tuple[str, int], Counter] = {}
        self.visits: dict[tuple[str, int], Counter] = {}
        self.climbs: Counter = Counter()
        self.no_start: Counter = Counter()
        self.witnesses: list[tuple[str, object, list[int]]] = []

    def climb(self, phase: str, name: str, g, eng: _Engine, deadline: float):
        rng, k, m, delta = self.rng, eng.k, g.edge_count, eng.delta
        visits = self.visits.setdefault((phase, delta), Counter())
        current, _ = profile(eng, None)
        stall = 0
        while stall < PATIENCE and time.monotonic() < deadline:
            e, c = rng.randrange(m), rng.randint(1, k)
            old = eng.colors[e]
            if c == old:
                continue
            if not recolor(eng, e, c):
                continue
            if not eng.state.bad:
                recolor(eng, e, old)
                continue
            eng.state.smallest_bad()  # keeps the heap within twice the edge count
            counts, first = profile(eng, current)
            visits[first] += 1
            if first not in SHALLOW:
                self.report(phase, name, g, eng, first)
            if counts <= current[: len(counts)]:
                stall = 0 if counts < current[: len(counts)] else stall + 1
                current = counts
            else:
                recolor(eng, e, old)
                stall += 1
        schema, _ = first_move(g, eng.colors)
        self.ends.setdefault((phase, delta), Counter())[schema] += 1
        self.climbs[(phase, delta)] += 1
        if phase == "a" and schema not in SHALLOW:
            self.witnesses.append((name, g, list(eng.colors)))

    def report(self, phase: str, name: str, g, eng: _Engine, first: str):
        key = (name, tuple(eng.colors))
        if key in self.seen:
            return
        self.seen.add(key)
        schema, move = first_move(g, eng.colors)
        line = {
            "state": phase,
            "graph": name,
            "delta": eng.delta,
            "k": eng.k,
            "colors": list(eng.colors),
            "kappa": list(eng.state.potential()),
            "first": first,
            "find_move": schema,
            "move": move,
        }
        print(json.dumps(line), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="wall-clock budget, half per phase")
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    search = Search(rng)
    half = args.seconds / 2
    deadline = time.monotonic() + half
    while time.monotonic() < deadline:
        name, g = random_graph(rng)
        d = max_degree(g)
        eng = random_start(g, d * d - 1, rng)
        if eng is None:
            search.no_start[("a", d)] += 1
        else:
            search.climb("a", name, g, eng, deadline)
    deadline = time.monotonic() + half
    while search.witnesses and time.monotonic() < deadline:
        name, g, colors = rng.choice(search.witnesses)
        search.climb("b", name, g, engine(g, colors), deadline)
    for phase, delta in sorted(set(search.climbs) | set(search.no_start)):
        key = (phase, delta)
        line = {
            "summary": phase,
            "delta": delta,
            "climbs": search.climbs[key],
            "no_start": search.no_start[key],
            "climb_end": dict(sorted(search.ends.get(key, {}).items())),
            "visits": dict(sorted(search.visits.get(key, {}).items())),
        }
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
