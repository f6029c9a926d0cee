from __future__ import annotations

import csv
import gc
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from _oracles import counting_rows, verify_mode

import semistrong
from semistrong import families
from semistrong.cli import MAX_EDGES, cli
from semistrong.coloring import from_list
from semistrong.exact import Budget, exact_index
from semistrong.formats import MAX_VERTICES, _dumps, emit_edge_list, emit_graph6, emit_result, parse_edge_list
from semistrong.graph import bfs_edge_order, build_graph
from semistrong.solver import _Contacts, _greedy, solve
from semistrong.verify import badness


def run(capsys, argv, stdin=None, monkeypatch=None):
    """Run the CLI; stdin (text or bytes) is served like a real standard
    input, a text stream over a byte buffer."""
    if stdin is not None:
        import io as _io
        import sys as _sys

        data = stdin.encode("utf-8") if isinstance(stdin, str) else stdin
        monkeypatch.setattr(_sys, "stdin", _io.TextIOWrapper(_io.BytesIO(data), encoding="utf-8"))
    code = cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_pipe_color(capsys, monkeypatch):
    code, out, _ = run(capsys, ["gen", "--family", "cycle", "--n", "7"])
    assert code == 0
    code, out, _ = run(capsys, ["color", "--mode", "semistrong"], stdin=out, monkeypatch=monkeypatch)
    assert code == 0
    doc = json.loads(out)
    assert doc["colors_used"] == 4
    assert doc["valid"] is True


def test_color_from_file(tmp_path, capsys):
    g = families.prism(5)
    path = tmp_path / "prism5.txt"
    path.write_text(emit_edge_list(g))
    out_path = tmp_path / "out.json"
    code, _, _ = run(capsys, ["color", "--mode", "semistrong", "--input", str(path), "--output", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["valid"] is True
    assert doc["colors_used"] <= 8


def test_color_graph6_input(tmp_path, capsys):
    path = tmp_path / "k4.g6"
    path.write_text(emit_graph6(families.complete_bipartite(2, 2)) + "\n")
    code, out, _ = run(capsys, ["color", "--mode", "relaxed01", "--format", "graph6", "--input", str(path)])
    assert code == 0
    assert json.loads(out)["colors_used"] == 2


def test_single_graph_commands_reject_a_second_graph6_line(tmp_path, capsys):
    path = tmp_path / "two.g6"
    path.write_text("Dhc\nBw\n")
    coloring = tmp_path / "c.json"
    coloring.write_text(json.dumps({"colors": [1] * 5}))
    for argv in (
        ["color", "--mode", "semistrong", "--input", str(path)],
        ["verify", "--mode", "semistrong", "--graph", str(path), "--coloring", str(coloring)],
        ["exact", "--mode", "semistrong", "--max-colors", "4", "--input", str(path)],
    ):
        code, out, err = run(capsys, [*argv, "--format", "graph6"])
        assert code == 2 and out == ""
        assert "batch" in err


def test_verify_valid_and_tampered(tmp_path, capsys):
    g = families.cycle(7)
    gpath = tmp_path / "c7.txt"
    gpath.write_text(emit_edge_list(g))
    res = solve(g, "semistrong")
    cpath = tmp_path / "coloring.json"
    cpath.write_text(emit_result(g, res))
    code, out, _ = run(capsys, ["verify", "--mode", "semistrong", "--graph", str(gpath), "--coloring", str(cpath)])
    assert code == 0
    assert json.loads(out)["valid"] is True

    doc = json.loads(emit_result(g, res))
    doc["colors"][0] = doc["colors"][2]  # tamper: two distance-2 edges share a color
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["verify", "--mode", "semistrong", "--graph", str(gpath), "--coloring", str(bad)])
    assert code == 1
    parsed = json.loads(out)
    assert parsed["valid"] is False
    assert parsed["witness"] is not None


def test_verify_relaxed_flags(tmp_path, capsys):
    g = families.cycle(4)
    gpath = tmp_path / "c4.txt"
    gpath.write_text(emit_edge_list(g))
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps({"colors": [1, 2, 1, 2]}))
    code, out, _ = run(capsys, ["verify", "--mode", "relaxed", "--s", "0", "--t", "1", "--graph", str(gpath), "--coloring", str(cpath)])
    assert code == 0
    code, out, _ = run(capsys, ["verify", "--mode", "relaxed", "--s", "0", "--t", "0", "--graph", str(gpath), "--coloring", str(cpath)])
    assert code == 1


def test_exact_infeasible_at_max(tmp_path, capsys):
    gpath = tmp_path / "c4.txt"
    gpath.write_text(emit_edge_list(families.cycle(4)))
    code, out, _ = run(capsys, ["exact", "--mode", "semistrong", "--max-colors", "3", "--input", str(gpath)])
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] is None
    assert doc["proof"] == "exhausted"


def test_exact_c7(tmp_path, capsys):
    gpath = tmp_path / "c7.txt"
    gpath.write_text(emit_edge_list(families.cycle(7)))
    code, out, _ = run(capsys, ["exact", "--mode", "semistrong", "--max-colors", "6", "--input", str(gpath)])
    assert code == 0
    assert json.loads(out)["value"] == 4


def test_exact_rejects_a_negative_budget_with_exit_2(tmp_path, capsys):
    gpath = tmp_path / "c7.txt"
    gpath.write_text(emit_edge_list(families.cycle(7)))
    for flag, value in (
        ("--budget-nodes", "-5"),
        ("--budget-secs", "-1"),
        ("--budget-secs", "nan"),
        ("--s", "-1"),
        ("--t", "-1"),
        ("--max-colors", "0"),
    ):
        code, out, err = run(capsys, ["exact", "--mode", "semistrong", "--max-colors", "6", flag, value, "--input", str(gpath)])
        assert code == 2 and out == ""
        assert err.startswith("error: ")
        assert flag in err


def test_gen_family_flags(capsys):
    code, out, _ = run(capsys, ["gen", "--family", "complete_bipartite", "--n", "3", "--d", "3"])
    assert code == 0
    assert out.splitlines()[0] == "6 9"
    code, out, _ = run(capsys, ["gen", "--family", "h_graph", "--d", "3"])
    assert code == 0
    assert out.splitlines()[0] == "10 13"
    code, out, _ = run(capsys, ["gen", "--family", "random_max_degree", "--n", "10", "--d", "3", "--seed", "5"])
    assert code == 0


def test_gen_rejects_random_max_degree_above_its_cap(capsys):
    n = families.RANDOM_MAX_DEGREE_MAX_N + 1
    code, out, err = run(capsys, ["gen", "--family", "random_max_degree", "--n", str(n), "--d", "4", "--seed", "1"])
    assert code == 2 and out == ""
    assert f"n = {n} is above its cap" in err


@pytest.mark.parametrize("fmt", ["edgelist", "graph6"])
@pytest.mark.parametrize("family,n", [("path", MAX_VERTICES + 1), ("hypercube", 64), ("prism", 200_000)])
def test_gen_refuses_a_family_above_the_vertex_limit_before_building_it(capsys, family, n, fmt):
    # hypercube 64 would loop over 2^64 vertices if gen built it first
    code, out, err = run(capsys, ["gen", "--family", family, "--n", str(n), "--format", fmt])
    assert code == 2 and out == ""
    assert f"more than the {MAX_VERTICES} vertices" in err


def _refuse_to_build(family, **params):
    raise AssertionError(f"gen built {family} {params} past its size caps")


@pytest.mark.parametrize("fmt", ["edgelist", "graph6"])
@pytest.mark.parametrize(
    "family,n,d",
    [("complete_bipartite", 129_023, 129_024), ("blowup", 3, 86_015), ("hypercube", 17, None), ("complete_bipartite", 1000, 1001)],
)
def test_gen_refuses_a_family_above_the_edge_limit_before_building_it(capsys, monkeypatch, family, n, d, fmt):
    # within the vertex limit, but 1.66e10, 2.2e10, 1,114,112 and 1,001,000 edges;
    # a regression fails on the patched builder instead of exhausting memory
    monkeypatch.setattr(families, "make", _refuse_to_build)
    argv = ["gen", "--family", family, "--n", str(n), "--format", fmt] + ([] if d is None else ["--d", str(d)])
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert f"more than the {MAX_EDGES} edges" in err


def test_gen_passes_a_family_at_the_edge_limit_to_its_builder(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(families, "make", lambda family, **params: built.append(params) or families.path(2))
    code, out, _ = run(capsys, ["gen", "--family", "complete_bipartite", "--n", "1000", "--d", "1000"])
    assert code == 0 and built == [{"a": 1000, "b": 1000}]
    assert families.edge_count("complete_bipartite", a=1000, b=1000) == MAX_EDGES


def test_gen_builds_a_path_at_the_vertex_limit(capsys):
    code, out, _ = run(capsys, ["gen", "--family", "path", "--n", str(MAX_VERTICES)])
    assert code == 0
    assert out.splitlines()[0] == f"{MAX_VERTICES} {MAX_VERTICES - 1}"
    assert parse_edge_list(out).vertex_count == MAX_VERTICES


def test_python_dash_m_runs_the_cli(tmp_path):
    path = tmp_path / "prism5.txt"
    path.write_text(emit_edge_list(families.prism(5)), encoding="utf-8")
    src = str(Path(semistrong.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "semistrong", "color", "--mode", "semistrong", "--input", str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["valid"] is True


def test_gen_missing_params(capsys):
    code, _, err = run(capsys, ["gen", "--family", "prism"])
    assert code == 2
    assert "--n" in err


@pytest.mark.parametrize("family", families.family_names())
def test_gen_every_family(capsys, family):
    # with no size flags, gen names every flag the family needs
    code, _, err = run(capsys, ["gen", "--family", family])
    needed = err.split(" needs ", 1)[1].split() if code else []
    assert code in (0, 2) and set(needed) <= {"--n", "--d", "--seed"}
    values = {"--n": "5", "--d": "3", "--seed": "1"}
    flags = [x for flag in needed for x in (flag, values[flag])]
    code, out, _ = run(capsys, ["gen", "--family", family, *flags])
    assert code == 0 and parse_edge_list(out).edge_count > 0
    for flag in needed:
        rest = [x for other in needed if other != flag for x in (other, values[other])]
        code, _, err = run(capsys, ["gen", "--family", family, *rest])
        assert code == 2 and err == f"error: family {family} needs {flag}\n"


def test_usage_errors(tmp_path, capsys, monkeypatch):
    assert run(capsys, ["color"])[0] == 2  # --mode required
    assert run(capsys, ["nonsense"])[0] == 2
    assert run(capsys, [])[0] == 2
    # --dir names a file: no report is written
    graph, report = tmp_path / "c7.txt", tmp_path / "r.csv"
    graph.write_text(emit_edge_list(families.cycle(7)))
    code, _, err = run(capsys, ["batch", "--dir", str(graph), "--mode", "semistrong", "--report", str(report)])
    assert code == 2 and "is not a directory" in err and not report.exists()
    # graph6 input of blank lines only
    code, out, err = run(capsys, ["color", "--mode", "semistrong", "--format", "graph6"], stdin="\n \n", monkeypatch=monkeypatch)
    assert code == 2 and out == "" and "no graph6 line found" in err


def test_byte_stable_output(capsys, monkeypatch):
    text = emit_edge_list(families.prism(3))
    _, out1, _ = run(capsys, ["color", "--mode", "semistrong"], stdin=text, monkeypatch=monkeypatch)
    _, out2, _ = run(capsys, ["color", "--mode", "semistrong"], stdin=text, monkeypatch=monkeypatch)
    assert out1 == out2


def _batch_dir(tmp_path) -> Path:
    d = tmp_path / "graphs"
    d.mkdir()
    (d / "c7.txt").write_text(emit_edge_list(families.cycle(7)))
    (d / "prism5.txt").write_text(emit_edge_list(families.prism(5)))
    (d / "two.g6").write_text(
        emit_graph6(families.hypercube(3)) + "\n" + emit_graph6(families.complete_bipartite(3, 3)) + "\n"
    )
    (d / "broken.txt").write_text("not a graph\n")
    return d


def _report_rows(path: Path) -> list[dict]:
    return list(csv.DictReader(path.read_text().splitlines()))


def test_batch(tmp_path, capsys):
    d = _batch_dir(tmp_path)
    report = tmp_path / "report.csv"
    code, _, _ = run(capsys, ["batch", "--dir", str(d), "--mode", "semistrong", "--report", str(report)])
    assert code == 0
    rows = _report_rows(report)
    assert len(rows) == 5
    by_name = {r["graph"]: r for r in rows}
    assert by_name["c7.txt"]["colors_used"] == "4"
    assert by_name["c7.txt"]["valid"] == "True"
    assert by_name["prism5.txt"]["strategy"] == "greedy_repair"
    assert by_name["two.g6:2"]["colors_used"] == "9"  # K33 rainbow
    assert by_name["broken.txt"]["strategy"] == "error:FormatError"
    assert by_name["broken.txt"]["error"] == "header must be 'n m', got 'not a graph'"
    assert by_name["broken.txt"]["valid"] == "False"
    assert by_name["broken.txt"]["cpu_time_s"] == ""
    assert all(r["fallbacks"] in ("0", "") for r in rows)
    for r in rows:
        if r["graph"] != "broken.txt":
            assert r["error"] == ""
            assert re.fullmatch(r"\d+\.\d{6}", r["wall_time_s"]) and re.fullmatch(r"\d+\.\d{6}", r["cpu_time_s"])


def test_batch_jobs_matches_serial(tmp_path, capsys):
    d = _batch_dir(tmp_path)
    (d / "more.g6").write_text("".join(emit_graph6(g) + "\n" for g in (families.cycle(6), families.prism(4))))
    r1 = tmp_path / "serial.csv"
    r2 = tmp_path / "jobs.csv"
    assert run(capsys, ["batch", "--dir", str(d), "--mode", "semistrong", "--report", str(r1)])[0] == 0
    assert run(capsys, ["batch", "--dir", str(d), "--mode", "semistrong", "--report", str(r2), "--jobs", "2"])[0] == 0

    def strip_time(path):
        rows = _report_rows(path)
        for row in rows:
            row.pop("wall_time_s")
            row.pop("cpu_time_s")
        return rows

    serial = strip_time(r1)
    assert [r["graph"] for r in serial] == [
        "broken.txt", "c7.txt", "more.g6:1", "more.g6:2", "prism5.txt", "two.g6:1", "two.g6:2"
    ]
    assert serial[0]["error"] == "header must be 'n m', got 'not a graph'"
    assert strip_time(r2) == serial


def test_batch_unreadable_files_get_one_error_row_each(tmp_path, capsys):
    d = tmp_path / "graphs"
    d.mkdir()
    (d / "a.txt").write_text(emit_edge_list(families.cycle(7)))
    (d / "b.g6").write_bytes(b"\xff\xfe\x00")
    (d / "c.txt").mkdir()
    report = tmp_path / "report.csv"
    for jobs in ("1", "2"):
        argv = ["batch", "--dir", str(d), "--mode", "semistrong", "--report", str(report), "--jobs", jobs]
        assert run(capsys, argv)[0] == 0
        good, bad, folder = _report_rows(report)
        assert folder["graph"] == "c.txt" and folder["strategy"] == "error:IsADirectoryError"
        assert good["graph"] == "a.txt" and good["valid"] == "True" and good["error"] == ""
        assert bad["graph"] == "b.g6"
        assert bad["strategy"] == "error:UnicodeDecodeError"
        assert bad["error"] == "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
        assert bad["valid"] == "False"


@pytest.mark.parametrize("bad_flag", ["--graph", "--coloring"])
def test_verify_names_the_file_that_is_not_utf8(tmp_path, capsys, bad_flag):
    g = families.cycle(7)
    files = {"--graph": tmp_path / "ok.txt", "--coloring": tmp_path / "ok.json"}
    files["--graph"].write_text(emit_edge_list(g))
    files["--coloring"].write_text(emit_result(g, solve(g, "semistrong")))
    bad = tmp_path / "bad.g6"
    bad.write_bytes(b"\xff\xfe\x00")
    files[bad_flag] = bad
    argv = ["verify", "--mode", "semistrong", "--graph", str(files["--graph"]), "--coloring", str(files["--coloring"])]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {bad} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("text", ['[1, 2, 3, 4]', '{"colors": [true, true, true, true]}'])
def test_verify_rejects_a_malformed_coloring_with_exit_2(tmp_path, capsys, text):
    gpath = tmp_path / "c4.txt"
    gpath.write_text(emit_edge_list(families.cycle(4)))
    cpath = tmp_path / "c.json"
    cpath.write_text(text)
    code, out, err = run(capsys, ["verify", "--mode", "strong", "--graph", str(gpath), "--coloring", str(cpath)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "colors" in err


@pytest.mark.parametrize("text", ['{"colors": [0, 1, 2, 3]}', '{"colors": [1, 2, 3, ' + "9" * 5000 + "]}"])
def test_verify_rejects_a_color_below_one_or_too_long_with_exit_2(tmp_path, capsys, text):
    gpath = tmp_path / "c4.txt"
    gpath.write_text(emit_edge_list(families.cycle(4)))
    cpath = tmp_path / "c.json"
    cpath.write_text(text)
    code, out, err = run(capsys, ["verify", "--mode", "strong", "--graph", str(gpath), "--coloring", str(cpath)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("mode", ["semistrong", "strong", "relaxed"])
def test_verify_rejects_a_coloring_one_entry_short_with_exit_2(tmp_path, capsys, mode):
    gpath = tmp_path / "c4.txt"
    gpath.write_text(emit_edge_list(families.cycle(4)))
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps({"colors": [1, 2, 3]}))
    code, out, err = run(capsys, ["verify", "--mode", mode, "--graph", str(gpath), "--coloring", str(cpath)])
    assert code == 2 and out == ""
    assert err == "error: coloring has 3 entries for 4 edges\n"


def test_color_rejects_a_vertex_count_beyond_the_graph6_limit_with_exit_2(tmp_path, capsys):
    # twelve bytes that would otherwise allocate 10^8 adjacency lists
    path = tmp_path / "huge.txt"
    path.write_text("100000000 0\n")
    code, out, err = run(capsys, ["color", "--mode", "semistrong", "--input", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "258047" in err


def test_verify_reports_the_smallest_offending_edge(tmp_path, capsys):
    gpath = tmp_path / "p6.txt"
    gpath.write_text(emit_edge_list(families.path(6)))
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps({"colors": [1, 2, 1, 1, 3]}))
    code, out, _ = run(capsys, ["verify", "--mode", "strong", "--graph", str(gpath), "--coloring", str(cpath)])
    assert code == 1
    assert json.loads(out) == {"mode": "strong", "valid": False, "witness": {"color": 1, "edge": 0}, "kappa1": 0, "kappa2": 1}


def test_color_names_stdin_that_is_not_utf8(capsys, monkeypatch):
    code, out, err = run(capsys, ["color", "--mode", "semistrong"], stdin=b"\xff\xfe\x00", monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert err.startswith("error: <stdin> is not UTF-8 text: 'utf-8' codec can't decode byte 0xff")


def test_batch_worker_count_is_capped(tmp_path, capsys, monkeypatch):
    """Workers are min(--jobs, CPUs, graphs): this process and one forked
    child per further share, each share contiguous, sizes differing by at
    most one. Without os.fork there is one process."""
    import semistrong.cli as cli_mod

    forks, forked_shares = [], []
    real_fork, real_fork_share = os.fork, cli_mod._fork_share

    def counting_fork():
        forks.append(1)
        return real_fork()

    def recording_fork_share(share, *rest):
        forked_shares.append([name for name, _ in share])
        return real_fork_share(share, *rest)

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(cli_mod, "_fork_share", recording_fork_share)
    d = _batch_dir(tmp_path)  # five graphs
    names = ["broken.txt", "c7.txt", "prism5.txt", "two.g6:1", "two.g6:2"]
    report = tmp_path / "report.csv"
    argv = ["batch", "--dir", str(d), "--mode", "semistrong", "--report", str(report), "--jobs"]
    cases = [
        (4, "5000", [["c7.txt"], ["prism5.txt"], ["two.g6:1", "two.g6:2"]]),
        (8, "5000", [[name] for name in names[1:]]),
        (8, "3", [["c7.txt", "prism5.txt"], ["two.g6:1", "two.g6:2"]]),
        (None, "5000", []),
        (4, "1", []),
    ]
    for cpus, jobs, want in cases:
        forks.clear()
        forked_shares.clear()
        monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: cpus)
        assert run(capsys, argv + [jobs])[0] == 0
        assert len(forks) == len(want) and forked_shares == want
        assert [row["graph"] for row in _report_rows(report)] == names
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: 8)
    forked_shares.clear()
    assert run(capsys, argv + ["5000"])[0] == 0
    assert forked_shares == [] and [row["graph"] for row in _report_rows(report)] == names


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_batch_leaves_no_child_process(tmp_path, capsys, monkeypatch):
    """Every forked child is reaped on every path: a clean run, a child that
    dies, this process failing on its own share while the children fail on
    theirs, and this process failing while a child waits to write more than
    a pipe holds."""
    import semistrong.cli as cli_mod

    d = _batch_dir(tmp_path)
    report = tmp_path / "report.csv"
    argv = ["batch", "--dir", str(d), "--mode", "semistrong", "--report", str(report), "--jobs", "2"]
    monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: 3)
    assert run(capsys, argv)[0] == 0
    _no_child_left()
    report.unlink()
    me, real_work = os.getpid(), cli_mod._batch_work

    def child_dies(item, mode):
        return real_work(item, mode) if os.getpid() == me else os._exit(7)

    def all_fail(item, mode):
        raise RuntimeError("boom")

    def child_writes_a_lot(item, mode):
        if os.getpid() == me:
            raise RuntimeError("boom")
        return ["x" * 200_000]

    def hung(*_):
        raise RuntimeError("hung")

    # a reaping order that deadlocks fails the test instead of hanging it
    previous = signal.signal(signal.SIGALRM, hung)
    try:
        for work, jobs, message in [
            (child_dies, "2", "internal error: RuntimeError: a batch worker exited with code 7\n"),
            (all_fail, "3", "internal error: RuntimeError: boom\n"),
            (child_writes_a_lot, "3", "internal error: RuntimeError: boom\n"),
        ]:
            monkeypatch.setattr(cli_mod, "_batch_work", work)
            signal.alarm(30)
            code, out, err = run(capsys, argv[:-1] + [jobs])
            signal.alarm(0)
            assert (code, out, err) == (3, "", message)
            assert not report.exists()
            _no_child_left()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_writes_a_name_that_is_not_utf8_as_its_bytes(tmp_path, capsys, monkeypatch, jobs):
    import semistrong.cli as cli_mod

    monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: 2)
    d = tmp_path / "graphs"
    d.mkdir()
    (Path(os.fsdecode(bytes(d) + b"/bad\xff.txt"))).write_text(emit_edge_list(families.path(2)))
    (d / "good.txt").write_text(emit_edge_list(families.cycle(7)))
    report = tmp_path / "report.csv"
    argv = ["batch", "--dir", str(d), "--mode", "semistrong", "--report", str(report), "--jobs", jobs]
    assert run(capsys, argv)[0] == 0
    lines = report.read_bytes().split(b"\r\n")
    assert lines[1].startswith(b"bad\xff.txt,2,1,1,trivial,1,True,")
    assert lines[2].startswith(b"good.txt,7,7,2,delta2,4,True,")
    assert lines[3:] == [b""]


def test_batch_rejects_jobs_below_one(tmp_path, capsys):
    d = _batch_dir(tmp_path)
    for jobs in ("0", "-2"):
        code, _, err = run(capsys, ["batch", "--dir", str(d), "--mode", "semistrong",
                                    "--report", str(tmp_path / "r.csv"), "--jobs", jobs])
        assert code == 2
        assert "--jobs" in err and "must be >= 1" in err
    assert not (tmp_path / "r.csv").exists()


def test_help_exits_zero(capsys):
    assert run(capsys, ["--help"])[0] == 0
    assert run(capsys, ["exact", "--help"])[0] == 0


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    import semistrong.cli as cli_mod
    from semistrong.solver import EngineInvariantError

    def boom(*a, **kw):
        raise EngineInvariantError("synthetic")

    monkeypatch.setattr(cli_mod, "solve", boom)
    gpath = tmp_path / "g.txt"
    gpath.write_text(emit_edge_list(families.cycle(7)))
    code, _, err = run(capsys, ["color", "--mode", "semistrong", "--input", str(gpath)])
    assert code == 3
    assert "internal error" in err


def test_unexpected_exception_exit_code(tmp_path, capsys, monkeypatch):
    import semistrong.cli as cli_mod

    def boom(*a, **kw):
        raise RuntimeError("synthetic\nfailure")

    monkeypatch.setattr(cli_mod, "solve", boom)
    gpath = tmp_path / "g.txt"
    gpath.write_text(emit_edge_list(families.cycle(7)))
    code, out, err = run(capsys, ["color", "--mode", "semistrong", "--input", str(gpath)])
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: synthetic failure\n"


def test_commands_pause_the_collector_and_leave_no_cycles(tmp_path, capsys, monkeypatch):
    """cli() runs every command with the cyclic collector paused and gives the
    caller back its own setting on each exit code (0/1/2/3). The commands make
    no reference cycles, so a caller that keeps the collector off is left no
    garbage to collect."""
    import semistrong.cli as cli_mod

    g = families.prism(5)
    gpath = tmp_path / "prism5.txt"
    gpath.write_text(emit_edge_list(g))
    c7 = tmp_path / "c7.txt"
    c7.write_text(emit_edge_list(families.cycle(7)))
    loop = tmp_path / "loop.txt"
    loop.write_text("2 1\n0 0\n")
    good = tmp_path / "good.json"
    good.write_text(emit_result(g, solve(g, "semistrong")))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"colors": [1] * g.edge_count}))
    d = _batch_dir(tmp_path)
    report = tmp_path / "report.csv"

    paused = []

    def boom(*args, **kwargs):
        paused.append(not gc.isenabled())
        raise RuntimeError("synthetic")

    def failing_solve(argv):
        with monkeypatch.context() as patch:
            patch.setattr(cli_mod, "solve", boom)
            return cli(argv)

    color = ["color", "--input", str(gpath), "--mode"]
    batch = ["batch", "--dir", str(d), "--mode", "relaxed01", "--report", str(report), "--jobs"]
    calls = [
        (0, cli, [*color, "semistrong"]),
        (0, cli, [*color, "relaxed01"]),
        (0, cli, [*color, "semistrong", "--debug"]),
        (0, cli, [*color, "relaxed01", "--debug"]),
        (0, cli, ["verify", "--mode", "semistrong", "--graph", str(gpath), "--coloring", str(good)]),
        (1, cli, ["verify", "--mode", "semistrong", "--graph", str(gpath), "--coloring", str(bad)]),
        (0, cli, ["exact", "--mode", "semistrong", "--max-colors", "5", "--input", str(c7)]),
        (0, cli, ["gen", "--family", "prism", "--n", "4"]),
        (0, cli, ["--help"]),
        (0, cli, ["verify", "--help"]),
        (0, cli, [*batch, "1"]),
        (0, cli, [*batch, "2"]),
        (2, cli, ["color", "--mode", "bogus"]),
        (2, cli, ["color", "--mode", "semistrong", "--input", str(loop)]),
        (3, failing_solve, [*color, "semistrong"]),
    ]
    # one pass first: it builds the cached parser, and the first pool imports
    # signal and socket, whose enum classes leave one-time garbage
    for want, call, argv in calls:
        assert call(argv) == want
    caller = gc.isenabled()
    try:
        for collecting in (True, False):
            for want, call, argv in calls:
                (gc.enable if collecting else gc.disable)()
                gc.collect()
                assert call(argv) == want, argv
                assert gc.isenabled() is collecting, argv
                if not collecting:
                    assert gc.collect() == 0, argv
    finally:
        (gc.enable if caller else gc.disable)()
    assert paused == [True] * 3  # the collector is off inside the command
    capsys.readouterr()


def test_the_cached_parser_answers_as_a_fresh_one(tmp_path, capsys, monkeypatch):
    import semistrong.cli as cli_mod

    assert cli_mod.build_parser() is cli_mod.build_parser()
    g = families.cycle(7)
    gpath = tmp_path / "c7.txt"
    gpath.write_text(emit_edge_list(g))
    cpath = tmp_path / "c7.json"
    cpath.write_text(emit_result(g, solve(g, "semistrong")))
    sequence = [
        ["color", "--mode", "bogus"],
        ["gen", "--family", "prism", "--n", "4"],
        ["color", "--mode", "semistrong", "--input", str(gpath)],
        ["--help"],
        ["verify", "--mode", "semistrong", "--graph", str(gpath), "--coloring", str(cpath)],
    ]
    cached = [(cli(argv), *capsys.readouterr()) for argv in sequence]
    # every call below builds its own parser
    monkeypatch.setattr(cli_mod, "build_parser", cli_mod.build_parser.__wrapped__)
    fresh = [(cli(argv), *capsys.readouterr()) for argv in sequence]
    assert cached == fresh
    assert [code for code, _, _ in cached] == [2, 0, 0, 0, 0]


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("graph", ["mixed", "random_d4", "prism5", "special", "paths_cycles", "two_repairs"])
@pytest.mark.parametrize("mode", ["semistrong", "relaxed01"])
def test_color_output_is_byte_stable(tmp_path, capsys, graph, mode):
    # mixed: a shuffled union of the 5-prism, C7, K3,3, a path, the 3-prism,
    # an edge and an isolated vertex; random_d4: random_max_degree(40, 4, 11);
    # prism5: the 5-prism with shuffled labels, edge order and endpoint order,
    # whose greedy start has one bad edge, so its repair makes one S1 move;
    # random_d4's start has none, so that solve builds no repair engine;
    # special: a shuffled union of K4,4, K5,5, the 3-prism,
    # random_max_degree(8, 4, 1) and random_max_degree(10, 5, 0), the last
    # three covering-edge members that are not bipartite; paths_cycles: a
    # shuffled union (labels, edge order, endpoint order) of three isolated
    # vertices, two K2s, P3-P9, C3, C4, C5, C7, C10 and C13, every one colored
    # by the degree-2 walk on the parent's rows, C4 in both of its patterns
    # and C10 and C13 with the n = 1 (mod 3) tail; two_repairs: the 7-prism,
    # then blowup(9, 2) on vertices 14-31, both repaired on one state, by two
    # S1 moves and by one S3 move
    out_path = tmp_path / "out.json"
    argv = ["color", "--mode", mode, "--input", str(DATA / f"{graph}.txt"), "--output", str(out_path)]
    # --debug holds each component of maximum degree >= 3 to the reference
    # checkers on its own Graph, and changes no byte
    for debug in ([], ["--debug"]):
        out_path.unlink(missing_ok=True)
        assert run(capsys, argv + debug)[0] == 0
        assert out_path.read_bytes() == (DATA / f"{graph}.{mode}.json").read_bytes()


# strong mode takes no caps: its --s and --t are ignored
VERIFY_MODES = [
    ("semistrong", 0, 0), ("strong", 0, 0), ("strong", 1, 2),
    ("relaxed", 0, 0), ("relaxed", 0, 1), ("relaxed", 1, 2), ("relaxed", 2, 3),
]


def _two_walk_verify_output(g, coloring, mode, s, t):
    """What verify prints when its mode's checker and badness each walk the
    coloring, and its exit code."""
    res = verify_mode(g, coloring, mode, s, t)
    report = badness(g, coloring)
    doc = {
        "mode": mode if mode != "relaxed" else f"relaxed({s},{t})",
        "valid": res.ok,
        "witness": None if res.witness is None else {"color": res.witness[0], "edge": res.witness[1]},
        "kappa1": report.kappa1,
        "kappa2": report.kappa2,
    }
    return (0 if res.ok else 1), _dumps(doc) + "\n"


@pytest.mark.parametrize("graph", ["mixed", "random_d4", "prism5", "special", "paths_cycles"])
def test_verify_and_exact_print_what_the_separate_checkers_give(tmp_path, capsys, graph):
    g = parse_edge_list((DATA / f"{graph}.txt").read_text(encoding="utf-8"))
    rng = random.Random(graph)
    colorings = []
    for fixture in ("semistrong", "relaxed01"):
        colors = json.loads((DATA / f"{graph}.{fixture}.json").read_text(encoding="utf-8"))["colors"]
        colorings.append(colors)
        for _ in range(3):
            tampered = list(colors)
            for _ in range(rng.randint(1, 3)):
                tampered[rng.randrange(len(tampered))] = rng.randint(1, max(colors))
            colorings.append(tampered)
    gpath = tmp_path / "g.txt"
    gpath.write_text(emit_edge_list(g))
    cpath = tmp_path / "c.json"
    codes = set()
    for colors in colorings:
        cpath.write_text(json.dumps({"colors": colors}))
        coloring = from_list(colors)
        for mode, s, t in VERIFY_MODES:
            argv = ["verify", "--mode", mode, "--s", str(s), "--t", str(t), "--graph", str(gpath), "--coloring", str(cpath)]
            code, out, _ = run(capsys, argv)
            assert (code, out) == _two_walk_verify_output(g, coloring, mode, s, t)
            codes.add(code)
    assert codes == {0, 1}
    # an exact certificate's kappa is the badness of its coloring
    for mode, s, t in (("semistrong", 0, 0), ("relaxed", 0, 1)):
        res = exact_index(g, mode, 12, budget=Budget(max_nodes=3000), s=s, t=t)
        doc = json.loads(emit_result(g, res, mode=mode, s=s, t=t))
        if res.certificate is not None:
            assert (doc["kappa1"], doc["kappa2"]) == badness(g, res.certificate).potential


@pytest.mark.parametrize("mode,s,t", VERIFY_MODES)
def test_verify_reads_no_row_per_spoke_on_a_wheel(tmp_path, capsys, monkeypatch, mode, s, t):
    import semistrong.cli as cli_mod

    n = 1000  # W_1000: hub 0 joined to the cycle 1..n
    g = build_graph(n + 1, [(0, i) for i in range(1, n + 1)] + [(i, i % n + 1) for i in range(1, n + 1)])
    coloring = _greedy(_Contacts(g, n * n - 1), bfs_edge_order(g)).to_coloring()
    gpath = tmp_path / "g.txt"
    gpath.write_text(emit_edge_list(g))
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps({"colors": list(coloring.colors)}))
    load = cli_mod._load_graph
    reads = []

    def counted_load(text, fmt):
        counted, read = counting_rows(load(text, fmt))
        reads.append(read)
        return counted

    monkeypatch.setattr(cli_mod, "_load_graph", counted_load)
    argv = ["verify", "--mode", mode, "--s", str(s), "--t", str(t), "--graph", str(gpath), "--coloring", str(cpath)]
    code, out, _ = run(capsys, argv)
    # a reference checker walks the hub's row once per spoke: about 10^6
    # entries
    assert reads[0][0] <= 4 * g.edge_count
    assert (code, out) == _two_walk_verify_output(g, coloring, mode, s, t)


def test_verify_ranks_a_huge_palette_and_names_the_checkers_witness(tmp_path, capsys):
    g = families.random_max_degree(400, 4, 3)
    colors = [c * 2**64 for c in solve(g, "semistrong").coloring.colors]
    row = max(g.adjacency, key=len)
    colors[row[0][1]] = colors[row[1][1]] = 2**200  # two edges of one color at a vertex
    gpath = tmp_path / "g.txt"
    gpath.write_text(emit_edge_list(g))
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps({"colors": colors}))
    start = time.perf_counter()
    code, out, _ = run(capsys, ["verify", "--mode", "semistrong", "--graph", str(gpath), "--coloring", str(cpath)])
    # one bit per color value would ask for masks of 2^64 bits and more
    assert time.perf_counter() - start < 1.0
    assert code == 1
    coloring = from_list(colors)
    witness = verify_mode(g, coloring, "semistrong").witness
    kappa = badness(g, coloring).potential
    assert json.loads(out) == {
        "mode": "semistrong",
        "valid": False,
        "witness": {"color": witness[0], "edge": witness[1]},
        "kappa1": kappa[0],
        "kappa2": kappa[1],
    }
