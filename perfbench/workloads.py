"""The four workloads: seeded inputs written to disk, the operations of one
pass, and the checks on each operation's output.

Each operation is timed only as part of a whole pass; its output is checked
after the pass, with the independent checker and the paper's values.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import checker
import generate


@dataclass
class Outcome:
    attempted: int
    failed: int = 0
    colors: int = 0
    problems: list[str] = field(default_factory=list)


@dataclass
class Op:
    name: str
    run: Callable[[Any], Any]  # api -> raw output (an exception is caught by the pass)
    check: Callable[[Any], Outcome]


@dataclass
class Colored:
    """A graph the workload colors, in one mode."""

    fmt: str  # 'edgelist' | 'graph6'
    text: str
    mode: str


@dataclass
class Workload:
    files: list[Path]  # what set-up loads
    ops: list[Op]
    colored: list[Colored] = field(default_factory=list)


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def _ran(rc) -> bool:
    """The command returned exit code 0 (a raised exception is a failure)."""
    return not isinstance(rc, BaseException) and rc == 0


def _color_op(name: str, n: int, edges, mode: str, src: Path, dst: Path) -> Op:
    argv = ["color", "--mode", mode, "--input", str(src), "--output", str(dst)]
    want_edges = [list(e) for e in edges]

    def check(rc) -> Outcome:
        if not _ran(rc):
            return Outcome(1, 1)
        doc = json.loads(dst.read_text(encoding="utf-8"))
        colors = doc.get("colors") or []
        problems = [] if doc.get("edges") == want_edges else [f"{name}: output edges differ from the input"]
        problems += [f"{name}: {p}" for p in checker.coloring_problems(n, edges, colors, mode)]
        return Outcome(1, 0, len(set(colors)), problems)

    return Op(name, lambda api: api.cli(argv), check)


# --- ladder ---------------------------------------------------------------
# (max degree, vertices, target edges), two graphs each; repair cost grows
# steeply with the degree, so the Delta = 8 rung weighs most.
LADDER = ((4, 400, 800), (6, 150, 450), (8, 80, 320))
PER_RUNG = 2


def ladder(seed: int, work: Path) -> Workload:
    ops, files, colored = [], [], []
    for d, n, m in LADDER:
        for i in range(PER_RUNG):
            edges = generate.bounded_degree(n, d, m, random.Random(f"ladder:{seed}:{d}:{i}"))
            src = _write(work / f"ladder-d{d}-{i}.txt", generate.edge_list_text(n, edges))
            files.append(src)
            colored.append(Colored("edgelist", src.read_text(encoding="utf-8"), "semistrong"))
            ops.append(_color_op(f"ladder d={d} #{i}", n, edges, "semistrong", src, work / f"ladder-d{d}-{i}.json"))
    return Workload(files, ops, colored)


# --- components -------------------------------------------------------------
# Twenty components per block; paths take 3..9 vertices from the seed.
BLOCK = ("K2",) * 6 + ("path",) * 5 + ("C4", "C7", "C9", "K33", "K44", "prism3", "prism4", "prism4", "prism5")
BLOCKS = 40


def _component(kind: str, rng: random.Random):
    if kind == "K2":
        return generate.path(2)
    if kind == "path":
        return generate.path(rng.randint(3, 9))
    if kind[0] == "C":
        return generate.cycle(int(kind[1:]))
    if kind[0] == "K":
        return generate.complete_bipartite(int(kind[1]), int(kind[2]))
    return generate.prism(int(kind[-1]))


def components(seed: int, work: Path) -> Workload:
    rng = random.Random(f"components:{seed}")
    parts = [_component(kind, rng) for _ in range(BLOCKS) for kind in BLOCK]
    n, edges = generate.disjoint_union(parts, rng)
    src = _write(work / "components.txt", generate.edge_list_text(n, edges))
    text = src.read_text(encoding="utf-8")
    ops, colored = [], []
    for mode in ("semistrong", "relaxed01"):
        ops.append(_color_op(f"components {mode}", n, edges, mode, src, work / f"components-{mode}.json"))
        colored.append(Colored("edgelist", text, mode))
    return Workload([src], ops, colored)


# --- batch -----------------------------------------------------------------
SMALL_FILES = 3
SMALL_PER_FILE = 400
MID = ((4, 150, 300), (5, 120, 300))  # (max degree, vertices, target edges)
BATCH_MODE = "relaxed01"


def batch(seed: int, work: Path) -> Workload:
    rng = random.Random(f"batch:{seed}")
    root = work / "batch"
    root.mkdir(exist_ok=True)
    expected: dict[str, tuple[int, int, int, int]] = {}  # row name -> (n, m, delta, bound)
    files, colored = [], []

    def expect(name, n, edges):
        deg = [0] * n
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        parts = [[edges[e] for e in comp] for comp in checker.components(n, edges)]
        bound = max(checker.paper_bound(part, BATCH_MODE)[1] for part in parts)
        expected[name] = (n, len(edges), max(deg), bound)

    for f in range(SMALL_FILES):
        lines = []
        for i in range(SMALL_PER_FILE):
            n = rng.randint(5, 10)
            edges = generate.small_connected(n, rng.choice((3, 4)), n // 2, rng)
            lines.append(generate.graph6_text(n, edges))
            expect(f"small-{f}.g6:{i + 1}", n, edges)
        path = _write(root / f"small-{f}.g6", "\n".join(lines) + "\n")
        files.append(path)
        colored += [Colored("graph6", line, BATCH_MODE) for line in lines]
    for d, n, m in MID:
        edges = generate.bounded_degree(n, d, m, rng)
        path = _write(root / f"mid-d{d}.txt", generate.edge_list_text(n, edges))
        files.append(path)
        colored.append(Colored("edgelist", path.read_text(encoding="utf-8"), BATCH_MODE))
        expect(path.name, n, edges)

    report = work / "batch.csv"
    argv = ["batch", "--dir", str(root), "--mode", BATCH_MODE, "--report", str(report), "--jobs", "2"]

    def check(rc) -> Outcome:
        total = len(expected)
        if not _ran(rc):
            return Outcome(total, total)
        with report.open(encoding="utf-8", newline="") as fh:
            rows = {row["graph"]: row for row in csv.DictReader(fh)}
        out = Outcome(total)
        for name, (n, m, delta, bound) in expected.items():
            row = rows.get(name)
            if row is None or row["strategy"].startswith("error:"):
                out.failed += 1
                continue
            used = int(row["colors_used"])
            out.colors += used
            if (int(row["n"]), int(row["m"]), int(row["delta"])) != (n, m, delta):
                out.problems.append(f"batch {name}: n/m/delta {row['n']}/{row['m']}/{row['delta']}, want {n}/{m}/{delta}")
            if row["valid"] != "True" or not delta <= used <= bound:
                out.problems.append(f"batch {name}: valid={row['valid']} with {used} colors, want {delta}..{bound}")
        if len(rows) != total:
            out.problems.append(f"batch report has {len(rows)} rows for {total} graphs")
        return out

    return Workload(files, [Op("batch", lambda api: api.batch(argv), check)], colored)


# --- exact -----------------------------------------------------------------
# (label, edges, mode, s, t, max colors, value); the first eight are the
# paper's exact values, then the 5-prism (7 refuted) and K4,4 relaxed.
EXACT_VALUES = (
    ("C4 semistrong", generate.cycle(4), "semistrong", 0, 0, 6, 4),
    ("C4 relaxed01", generate.cycle(4), "relaxed", 0, 1, 6, 2),
    ("C7 semistrong", generate.cycle(7), "semistrong", 0, 0, 6, 4),
    ("C7 relaxed01", generate.cycle(7), "relaxed", 0, 1, 6, 4),
    ("K33 semistrong", generate.complete_bipartite(3, 3), "semistrong", 0, 0, 9, 9),
    ("K33 relaxed01", generate.complete_bipartite(3, 3), "relaxed", 0, 1, 9, 5),
    ("Q3 semistrong", generate.hypercube(3), "semistrong", 0, 0, 8, 6),
    ("H(3) semistrong", generate.h_graph(3), "semistrong", 0, 0, 8, 7),
    ("prism5 semistrong", generate.prism(5), "semistrong", 0, 0, 8, 8),
    ("K44 relaxed01", generate.complete_bipartite(4, 4), "relaxed", 0, 1, 8, 8),
)
# (label, edges, k): a valid k-coloring exists. The 1,500-vertex path fails
# today: the search recurses once per edge and raises RecursionError.
FEASIBLE = (
    ("C7 blow-up at 14", generate.cycle_blowup(7, 2), 14),
    ("path(1500) at 3", generate.path(1500), 3),
)
BUDGET_SECONDS = 60


def _certificate_problems(label, n, edges, colors, mode, s, t, most) -> list[str]:
    if mode == "semistrong":
        found = checker.semistrong_problems(n, edges, colors)
    else:
        found = checker.relaxed_problems(n, edges, colors, s, t)
    if len(set(colors)) > most:
        found.append(f"{len(set(colors))} colors, want at most {most}")
    return [f"{label}: {p}" for p in found]


def _exact_value_op(label, n, edges, g, mode, s, t, most, value) -> Op:
    def run(api):
        return api.exact_index(g, mode, most, budget=api.Budget(max_seconds=BUDGET_SECONDS), s=s, t=t)

    def check(res) -> Outcome:
        if isinstance(res, BaseException):
            return Outcome(1, 1)
        if res.value != value or res.proof != "exhausted" or res.certificate is None:
            return Outcome(1, 0, 0, [f"{label}: value {res.value} ({res.proof}), want {value} (exhausted)"])
        colors = list(res.certificate.colors)
        return Outcome(1, 0, len(set(colors)), _certificate_problems(label, n, edges, colors, mode, s, t, value))

    return Op(label, run, check)


def _feasible_op(label, n, edges, g, k) -> Op:
    def run(api):
        return api.feasibility(g, "semistrong", k, budget=api.Budget(max_seconds=BUDGET_SECONDS))

    def check(res) -> Outcome:
        if isinstance(res, BaseException):
            return Outcome(1, 1)
        if res.status != "sat" or res.coloring is None:
            return Outcome(1, 0, 0, [f"{label}: status {res.status}, want sat"])
        colors = list(res.coloring.colors)
        return Outcome(1, 0, len(set(colors)), _certificate_problems(label, n, edges, colors, "semistrong", 0, 0, k))

    return Op(label, run, check)


def exact(seed: int, work: Path, parse) -> Workload:
    """The instances are the paper's fixed graphs; the seed does not change them."""
    del seed
    ops, files = [], []

    def load(edges):
        n = generate.vertex_count(edges)
        path = _write(work / f"exact-{len(files)}.txt", generate.edge_list_text(n, edges))
        files.append(path)
        return n, edges, parse(path.read_text(encoding="utf-8"))

    for label, edges, mode, s, t, most, value in EXACT_VALUES:
        ops.append(_exact_value_op(label, *load(edges), mode, s, t, most, value))
    for label, edges, k in FEASIBLE:
        ops.append(_feasible_op(label, *load(edges), k))
    return Workload(files, ops)


NAMES = ("ladder", "components", "batch", "exact")
