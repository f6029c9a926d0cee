"""Command-line surface: color, verify, exact, gen, batch.

Exit codes: 0 success (and valid for `verify`), 1 invalid coloring,
2 usage or input error, 3 internal invariant failure or any other
unexpected exception (reported on one line, without a traceback).
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import os
import sys
import time
from functools import cache
from pathlib import Path

from . import families
from .exact import MODES as EXACT_MODES, Budget, exact_index
from .formats import (
    MAX_VERTICES,
    FormatError,
    emit_edge_list,
    emit_graph6,
    emit_result,
    emit_verdict,
    parse_coloring,
    parse_edge_list,
    parse_graph6,
)
from .graph import Graph, GraphError
from .solver import MODES as COLOR_MODES, solve
from .verify import certify_mode

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        raise FormatError("usage", message)


def _read_text(path: str | None) -> str:
    """The file's text, or standard input's, as strict UTF-8 whatever the
    locale."""
    stdin = path is None or path == "-"
    try:
        if stdin:
            return sys.stdin.buffer.read().decode("utf-8")
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        name = "<stdin>" if stdin else path
        raise FormatError("not_utf8", f"{name} is not UTF-8 text: {exc}") from exc


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _load_graph(text: str, fmt: str) -> Graph:
    if fmt == "edgelist":
        return parse_edge_list(text)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("truncated_graph6", "no graph6 line found")
    if len(lines) > 1:
        raise FormatError("usage", f"{len(lines)} graph6 lines found where one graph is read; `batch` takes many")
    return parse_graph6(lines[0])


def _at_least(low: int, kind=int):
    """An argparse type for numbers >= low (not NaN), so errors name the flag."""

    def convert(text: str):
        value = kind(text)
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return value

    convert.__name__ = kind.__name__  # as in "invalid int value"
    return convert


@cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: a build takes ~1 ms and leaves reference cycles."""
    parser = _CliParser(prog="semistrong", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_color = sub.add_parser("color", help="construct a coloring meeting the degree-squared bound")
    p_color.set_defaults(run=_cmd_color)
    p_color.add_argument("--mode", choices=COLOR_MODES, required=True)
    p_color.add_argument("--format", choices=["edgelist", "graph6"], default="edgelist")
    p_color.add_argument("--input", default=None, help="graph file (default/- : stdin)")
    p_color.add_argument("--output", default=None, help="JSON output file (default: stdout)")
    p_color.add_argument("--debug", action="store_true", help="cross-check incremental potentials")

    p_verify = sub.add_parser("verify", help="check a coloring against a graph")
    p_verify.set_defaults(run=_cmd_verify)
    p_verify.add_argument("--mode", choices=EXACT_MODES, required=True)
    p_verify.add_argument("--s", type=_at_least(0), default=0)
    p_verify.add_argument("--t", type=_at_least(0), default=0)
    p_verify.add_argument("--format", choices=["edgelist", "graph6"], default="edgelist")
    p_verify.add_argument("--graph", required=True)
    p_verify.add_argument("--coloring", required=True, help="JSON file with a 'colors' field")

    p_exact = sub.add_parser("exact", help="exact minimum color count by complete search")
    p_exact.set_defaults(run=_cmd_exact)
    p_exact.add_argument("--mode", choices=EXACT_MODES, required=True)
    p_exact.add_argument("--s", type=_at_least(0), default=0)
    p_exact.add_argument("--t", type=_at_least(0), default=0)
    p_exact.add_argument("--max-colors", type=_at_least(1), required=True)
    p_exact.add_argument("--budget-secs", type=_at_least(0, float), default=None)
    p_exact.add_argument("--budget-nodes", type=_at_least(0), default=None)
    p_exact.add_argument("--format", choices=["edgelist", "graph6"], default="edgelist")
    p_exact.add_argument("--input", default=None)
    p_exact.add_argument("--output", default=None)

    p_gen = sub.add_parser("gen", help="generate a named graph")
    p_gen.set_defaults(run=_cmd_gen)
    p_gen.add_argument("--family", required=True, choices=families.family_names())
    p_gen.add_argument("--n", type=int, default=None, help="size parameter (also the left part / cycle length)")
    p_gen.add_argument("--d", type=int, default=None, help="degree parameter (also the right part / part size)")
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--format", choices=["edgelist", "graph6"], default="edgelist")
    p_gen.add_argument("--output", default=None)

    p_batch = sub.add_parser("batch", help="color every graph in a directory, write a CSV report")
    p_batch.set_defaults(run=_cmd_batch)
    p_batch.add_argument("--dir", required=True)
    p_batch.add_argument("--mode", choices=COLOR_MODES, required=True)
    p_batch.add_argument("--report", required=True)
    p_batch.add_argument("--jobs", type=_at_least(1), default=1, help="processes: this one and up to N-1 forked children, at most one per CPU (default 1)")
    return parser


# the gen option (--n, --d or --seed) that carries each family parameter
_GEN_OPTION = {"n": "n", "a": "n", "cycle_len": "n", "d": "d", "b": "d", "part_size": "d", "seed": "seed"}


def _gen_params(args) -> dict:
    params = {name: getattr(args, _GEN_OPTION[name]) for name in families.family_params(args.family)}
    missing = [f"--{_GEN_OPTION[name]}" for name, value in params.items() if value is None]
    if missing:
        raise FormatError("usage", f"family {args.family} needs {' '.join(missing)}")
    taken = {_GEN_OPTION[name] for name in params}
    unread = [f"--{flag}" for flag in ("n", "d", "seed") if flag not in taken and getattr(args, flag) is not None]
    if unread:
        raise FormatError("usage", f"family {args.family} does not take {' '.join(unread)}")
    return params


def _cmd_color(args) -> int:
    g = _load_graph(_read_text(args.input), args.format)
    result = solve(g, args.mode, debug=args.debug)
    _write_text(args.output, emit_result(g, result))
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = _load_graph(_read_text(args.graph), args.format)
    coloring = parse_coloring(_read_text(args.coloring))
    res, cert = certify_mode(g, coloring, args.mode, args.s, args.t)
    sys.stdout.write(emit_verdict(res, cert.kappa, args.mode, args.s, args.t))
    return EXIT_OK if res.ok else EXIT_INVALID


def _cmd_exact(args) -> int:
    g = _load_graph(_read_text(args.input), args.format)
    budget = Budget(max_seconds=args.budget_secs, max_nodes=args.budget_nodes)  # None is no cap
    result = exact_index(g, args.mode, args.max_colors, budget=budget, s=args.s, t=args.t)
    _write_text(args.output, emit_result(g, result, mode=args.mode, s=args.s, t=args.t))
    return EXIT_OK


# a 500,000-edge complete_bipartite(500, 1000) build peaks at about 250 MiB, so a
# graph at this cap needs about 0.5 GiB
MAX_EDGES = 1_000_000


def _cmd_gen(args) -> int:
    params = _gen_params(args)
    # refused before building: a short command line can ask for 2^64 vertices
    # or 10^10 edges
    given = ", ".join(f"{name}={value}" for name, value in params.items())
    if families.vertex_count(args.family, **params) > MAX_VERTICES:
        message = f"family {args.family} with {given} has more than the {MAX_VERTICES} vertices the formats support"
        raise FormatError("too_large", message)
    if families.edge_count(args.family, **params) > MAX_EDGES:
        raise FormatError("too_large", f"family {args.family} with {given} has more than the {MAX_EDGES} edges gen builds")
    g = families.make(args.family, **params)
    text = emit_edge_list(g) if args.format == "edgelist" else emit_graph6(g) + "\n"
    _write_text(args.output, text)
    return EXIT_OK


BATCH_FIELDS = [
    "graph", "n", "m", "delta", "strategy", "colors_used", "valid",
    "kappa1_trajectory_len", "fallbacks", "wall_time_s", "cpu_time_s", "error",
]


def _one_line(exc: Exception) -> str:
    return " ".join(str(exc).split())


def _batch_work(item: tuple[str, tuple[str, str | OSError | UnicodeDecodeError]], mode: str) -> list:
    """One report row, in BATCH_FIELDS order: one graph colored, or why not."""
    name, (fmt, text) = item
    try:
        if isinstance(text, Exception):
            raise text
        g = parse_edge_list(text) if fmt == "edgelist" else parse_graph6(text)
        start, cpu_start = time.monotonic(), time.process_time()
        result = solve(g, mode)
        elapsed, cpu = time.monotonic() - start, time.process_time() - cpu_start
        traces = result.trace
        return [
            name, g.vertex_count, g.edge_count, max((t.delta for t in traces), default=0),
            "+".join(sorted({t.strategy for t in traces})), result.colors_used, result.certificates[mode],
            sum(len(t.kappa_trajectory) for t in traces), sum(t.fallback_f3 for t in traces),
            f"{elapsed:.6f}", f"{cpu:.6f}", "",
        ]
    except Exception as exc:  # per-graph failures land in the report
        return [name, "", "", "", f"error:{type(exc).__name__}", "", False, "", "", "", "", _one_line(exc)]


def _share_rows(share: list, mode: str) -> bytes:
    """A share's CSV rows; a file name that is not UTF-8 keeps its bytes."""
    buf = io.StringIO()
    csv.writer(buf).writerows(_batch_work(item, mode) for item in share)
    return buf.getvalue().encode("utf-8", "surrogateescape")


def _fork_share(share: list, mode: str, inherited: list[int]) -> tuple[int, int]:
    """(pid, read end) of a forked child that writes the share's rows to a
    pipe, with the inherited read ends closed. It leaves only through
    os._exit, whatever happens, so it runs none of the command's cleanup."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        try:
            for fd in (read_end, *inherited):
                os.close(fd)
            with open(write_end, "wb") as pipe:
                pipe.write(_share_rows(share, mode))
        except BaseException:
            os._exit(1)
        os._exit(0)
    os.close(write_end)
    return pid, read_end


_BATCH_FORMATS = {".txt": "edgelist", ".edgelist": "edgelist", ".g6": "graph6", ".graph6": "graph6"}


def _batch_inputs(root: Path):
    """(name, (format, text)) per graph. A file that cannot be read or is not
    UTF-8 yields one item holding that error in place of the text, so it gets
    one error row and the other graphs are still colored."""
    for path in sorted(root.iterdir()):
        fmt = _BATCH_FORMATS.get(path.suffix)
        if fmt is None:
            continue
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            yield path.name, (fmt, exc)
            continue
        if fmt == "edgelist":
            yield path.name, (fmt, text)
        else:
            lines = [ln for ln in text.splitlines() if ln.strip()]
            for i, line in enumerate(lines):
                yield f"{path.name}:{i + 1}", (fmt, line)


def _cmd_batch(args) -> int:
    root = Path(args.dir)
    if not root.is_dir():
        raise FormatError("usage", f"--dir {args.dir} is not a directory")
    inputs = list(_batch_inputs(root))
    # contiguous shares whose sizes differ by at most one, never more than CPUs
    # or graphs; this process colors the first, a forked child each other one
    workers = max(1, min(args.jobs, os.cpu_count() or 1, len(inputs))) if hasattr(os, "fork") else 1
    shares = [inputs[i * len(inputs) // workers : (i + 1) * len(inputs) // workers] for i in range(workers)]
    children = []  # (pid, read end)
    try:
        for share in shares[1:]:
            children.append(_fork_share(share, args.mode, [fd for _, fd in children]))
        texts = [(",".join(BATCH_FIELDS) + "\r\n").encode(), _share_rows(shares[0], args.mode)]
        for _, read_end in children:
            with open(read_end, "rb", closefd=False) as pipe:
                texts.append(pipe.read())
    finally:
        for _, read_end in children:  # a child still writing gets EPIPE and exits
            os.close(read_end)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in children]
    if any(codes):
        raise RuntimeError(f"a batch worker exited with code {next(filter(None, codes))}")
    Path(args.report).write_bytes(b"".join(texts))
    return EXIT_OK


def cli(argv: list[str]) -> int:
    # the commands make no reference cycles, so the cyclic collector would only
    # rescan the graph's per-edge tuples: paused, then the caller's state restored
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # argparse --help
        gc.collect()  # its formatter's sections and the formatter refer to each other
        return int(exc.code or 0)
    except (FormatError, GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # an invariant failure or any other bug: one line, no traceback
        detail = _one_line(exc)
        print(f"internal error: {type(exc).__name__}" + (f": {detail}" if detail else ""), file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if collecting:
            gc.enable()


def main():
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
