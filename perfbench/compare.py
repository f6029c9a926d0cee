#!/usr/bin/env python3
"""Run sets of benchmark runs and compare them.

    # ten seeds of every workload on two checkouts, alternating which runs first
    python3 perfbench/compare.py run --out results --seeds 1-10 parent=../parent change=.
    # one set: medians, quartiles and run-to-run spread against each bound
    python3 perfbench/compare.py report results/change
    # two sets: a verdict per workload and end-to-end metric
    python3 perfbench/compare.py report results/parent results/change

Each checkout runs its own perfbench/run.py with --trace 0 and must hold the
same benchmark files. A run's result line is saved as
<out>/<label>/<workload>-seed<n>.json.

Verdicts follow the metric's bound in BENCHMARK.json: "worse" when the
change's median is worse than the parent's by more than the bound, "improved"
when the change wins at least nine tenths of the seed-paired runs and the
medians differ by more than the parent's interquartile range, "unresolved"
when the parent's own spread is wider than the bound and not every run of the
change beats every run of the parent, otherwise "no worse".
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return list(range(1, int(text) + 1))


def cmd_run(args, spec):
    sides = [side.split("=", 1) for side in args.sides]
    workloads = [w["name"] for w in spec["workloads"]]
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = sides if i % 2 == 0 else sides[::-1]
        for workload in workloads:
            for label, root in order:
                out = Path(args.out) / label
                out.mkdir(parents=True, exist_ok=True)
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.exit(f"{label} {workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
                (out / f"{workload}-seed{seed}.json").write_text(lines[-1] + "\n", encoding="utf-8")
                print(f"{label:>8} {workload:<10} seed {seed:<3} {lines[-1]}", flush=True)


def load(directory: Path) -> dict[str, dict[int, dict]]:
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*-seed*.json")):
        workload, seed = path.stem.rsplit("-seed", 1)
        runs.setdefault(workload, {})[int(seed)] = json.loads(path.read_text(encoding="utf-8"))
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def failed_share(runs: dict[int, dict]) -> str:
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    return f"{failed}/{attempted} = {failed / attempted:.6f}"


def verdict(base: list[float], change: list[float], paired: list[tuple[float, float]], lower: bool, bound: float):
    q1, med_b, q3 = quartiles(base)
    med_c = statistics.median(change)
    sign = 1 if lower else -1
    worse_by = sign * (med_c - med_b) / med_b if med_b else 0.0
    wins = sum(1 for b, c in paired if sign * (c - b) < 0)
    spread = (q3 - q1) / med_b if med_b else 0.0
    all_better = all(sign * (c - b) < 0 for c in change for b in base)
    if worse_by > bound:
        word = "worse" if spread <= bound else "unresolved"
    elif paired and wins >= 0.9 * len(paired) and sign * (med_c - med_b) < 0 and abs(med_c - med_b) > q3 - q1:
        word = "improved"
    elif spread > bound and not all_better:
        word = "unresolved"
    else:
        word = "no worse"
    return word, worse_by, wins


def cmd_report(args, spec):
    metrics = spec["end_to_end"]
    sets = [load(Path(d)) for d in args.dirs]
    for workload in sorted(set().union(*sets)):
        per_set = [s.get(workload, {}) for s in sets]
        shares = "  vs  ".join(failed_share(r) for r in per_set if r)
        correct = all(r["correct"] for runs in per_set for r in runs.values())
        print(f"\n{workload}  runs {' / '.join(str(len(r)) for r in per_set)}  failed {shares}  correct {correct}")
        for m in metrics:
            name = m["name"]
            cols = []
            values = [[runs[s]["metrics"][name]["value"] for s in sorted(runs)] for runs in per_set]
            for vals in values:
                if not vals:
                    cols.append("-")
                    continue
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else 0.0
                cols.append(f"median {med:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.3f}")
            line = f"  {name:<12} " + "  |  ".join(cols)
            if len(per_set) == 2 and all(values):
                base, change = per_set
                paired = [(base[s]["metrics"][name]["value"], change[s]["metrics"][name]["value"])
                          for s in sorted(set(base) & set(change))]
                word, worse_by, wins = verdict(values[0], values[1], paired, m["better"] == "lower", m["bound"])
                line += f"  ->  {word} (worse by {worse_by:+.3f}, bound {m['bound']}, won {wins}/{len(paired)})"
            else:
                line += f"  (bound {m['bound']})"
            print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run every workload on each seed for one or more checkouts")
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seeds", default="10", help="'N' for 1..N or 'A-B'")
    p_run.add_argument("sides", nargs="+", metavar="LABEL=CHECKOUT")
    p_report = sub.add_parser("report", help="summarize one set of runs, or compare two")
    p_report.add_argument("dirs", nargs="+", metavar="DIR")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    if args.command == "run":
        cmd_run(args, spec)
    elif len(args.dirs) > 2:
        parser.error("report takes one or two directories")
    else:
        cmd_report(args, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
