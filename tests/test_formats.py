from __future__ import annotations

import hashlib
import json
import random
import tracemalloc
from pathlib import Path

import pytest
from _oracles import naive_graph6_payload, random_union
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semistrong import families
from semistrong.cli import cli
from semistrong.coloring import from_list
from semistrong.exact import exact_index
from semistrong.formats import (
    FormatError,
    _object,
    emit_edge_list,
    emit_graph6,
    emit_result,
    parse_coloring,
    parse_edge_list,
    parse_graph6,
)
from semistrong.graph import GraphError, build_graph
from semistrong.solver import ComponentTrace, SolveResult, solve


def test_parse_edge_list_c4():
    g = parse_edge_list("4 4\n0 1\n1 2\n2 3\n3 0\n")
    assert g.vertex_count == 4
    assert g.edges == ((0, 1), (1, 2), (2, 3), (3, 0))


def test_parse_edge_list_comments_and_blanks():
    g = parse_edge_list("# a square\n4 4  # header\n\n0 1\n1 2\n2 3\n3 0\n")
    assert g.edge_count == 4


def test_parse_edge_list_errors():
    with pytest.raises(FormatError) as exc:
        parse_edge_list("nonsense\n")
    assert exc.value.reason == "malformed_header"
    with pytest.raises(FormatError) as exc:
        parse_edge_list("3 2\n0 1\n")
    assert exc.value.reason == "count_mismatch"
    with pytest.raises(GraphError) as exc:
        parse_edge_list("2 1\n0 0\n")
    assert exc.value.reason == "self_loop"
    with pytest.raises(GraphError) as exc:
        parse_edge_list("2 1\n0 5\n")
    assert exc.value.reason == "endpoint_out_of_range"
    # a wrong edge count before any malformed edge line, and every malformed
    # edge line before build_graph's checks, whatever line each is on
    for text, reason, message in [
        ("3 2\n0 0\n1 x\n0 1\n", "count_mismatch", "header declares 2 edges but 3 edge lines follow"),
        ("3 3\n0 0\n0 1\n1 x  # c\n", "bad_edge_line", "edge endpoints must be integers, got '1 x'"),
        ("3 2\n0 0\n1\t2 3\n", "bad_edge_line", "edge lines must be 'u v', got '1 2 3'"),
        ("3 2\n0 1\n1 1\n", "self_loop", "edge 1 is a self-loop at vertex 1"),
    ]:
        with pytest.raises((FormatError, GraphError)) as exc:
            parse_edge_list(text)
        assert (exc.value.reason, str(exc.value)) == (reason, message)


def test_edge_list_parse_keeps_no_per_line_lists():
    n = 10_000  # a 4-regular circulant, m = 2 * 10^4
    text = f"{n} {2 * n}\n" + "".join(f"{i} {(i + s) % n}\n" for i in range(n) for s in (1, 2))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert g.edge_count == 2 * n and g.edges[-1] == (n - 1, 1)
    # about 9.7 MiB here, 5.7 MiB of it the Graph; a split list per line, a
    # copy of the edge lines and a tuple per edge, all held until build_graph
    # returned, peaked at 15.9 MiB
    assert peak < 10.5 * 2**20


def test_edge_list_round_trip():
    for g in [families.prism(5), families.c7_blowup(), families.path(2)]:
        back = parse_edge_list(emit_edge_list(g))
        assert back.vertex_count == g.vertex_count
        assert back.edges == g.edges


def test_parse_graph6_k4():
    g = parse_graph6("C~")
    assert g.vertex_count == 4
    assert g.edge_count == 6


def test_parse_graph6_header_allowed():
    g = parse_graph6(">>graph6<<C~")
    assert g.edge_count == 6


def test_graph6_round_trip_strings():
    rng = random.Random(11)
    for trial in range(100):
        n = rng.randint(1, 16) if trial < 80 else rng.randint(60, 90)  # both size prefixes
        g = families.random_max_degree(n, rng.randint(0, 5), rng.randint(0, 10**6))
        line = emit_graph6(g)
        assert line.endswith(naive_graph6_payload(g))
        back = parse_graph6(line)
        assert back.vertex_count == g.vertex_count
        assert {tuple(sorted(e)) for e in back.edges} == {tuple(sorted(e)) for e in g.edges}
        assert emit_graph6(back) == line


def test_graph6_long_path():
    g = families.path(3000)
    line = emit_graph6(g)
    # the encoding of the old full-bit-string encoder, pinned
    assert len(line) == 749754
    assert hashlib.sha256(line.encode()).hexdigest() == "8a66040f58376fcaa6ea541fd214861c2d9b88530e4bcfc1c4becea530c5d6f6"
    back = parse_graph6(line)
    assert back.vertex_count == 3000
    assert back.edges == g.edges


def test_graph6_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(3)
    for _ in range(50):
        g = families.random_max_degree(rng.randint(2, 12), 4, rng.randint(0, 10**6))
        line = emit_graph6(g)
        G = nx.from_graph6_bytes(line.encode("ascii"))
        assert G.number_of_nodes() == g.vertex_count
        assert {frozenset(e) for e in G.edges()} == {frozenset(e) for e in g.edges}
        # and decode what networkx encodes
        enc = nx.to_graph6_bytes(G, header=False).decode("ascii").strip()
        back = parse_graph6(enc)
        assert {frozenset(e) for e in back.edges} == {frozenset(e) for e in g.edges}


def test_parse_graph6_errors():
    for line, reason in [
        ("", "truncated_graph6"),
        ("D", "truncated_graph6"),  # 5 vertices need payload
        ("~?", "truncated_graph6"),  # 4-byte size prefix cut short
        ("~~???", "truncated_graph6"),  # 8-byte size prefix cut short
        ("~>??", "invalid_graph6"),  # 4-byte size prefix character below 63
        ("~~??>???", "invalid_graph6"),  # 8-byte size prefix character below 63
        ("C~~~~", "invalid_graph6"),  # trailing junk
        ("C>", "invalid_graph6"),  # character below 63
        ("C\x7f", "invalid_graph6"),  # character above 126
        ("Cé", "invalid_graph6"),  # not ASCII
        (">", "invalid_graph6"),  # size character below 63
        # an 8-byte size prefix over 258,047 vertices, before its payload is checked
        ("~~??@???", "too_large"),  # 2^18 vertices, no payload
        ("~~??@???" + "?" * 10, "too_large"),
        ("~~???~~~", "too_large"),  # 258,048 + 4,095
        ("~~???}~~", "truncated_graph6"),  # 258,047 vertices is still allowed
    ]:
        with pytest.raises(FormatError) as exc:
            parse_graph6(line)
        assert exc.value.reason == reason, line


def test_graph6_padding_bits_are_rejected():
    # K3 uses three of the six bits of its one payload character; the other
    # three are padding and must be zero
    assert parse_graph6("Bw").edges == ((0, 1), (0, 2), (1, 2))
    with pytest.raises(FormatError) as exc:
        parse_graph6("B~")
    assert exc.value.reason == "invalid_graph6"


def test_emit_graph6_too_large():
    with pytest.raises(FormatError) as exc:
        emit_graph6(build_graph(258048, []))
    assert exc.value.reason == "too_large"


def test_emit_solve_result_fields():
    g = families.cycle(7)
    res = solve(g, "semistrong")
    doc = json.loads(emit_result(g, res))
    assert doc["n"] == 7
    assert doc["edges"] == [[u, v] for u, v in g.edges]
    assert doc["colors_used"] == 4
    assert doc["mode"] == "semistrong"
    assert doc["valid"] is True
    assert doc["kappa1"] == 0 and doc["kappa2"] == 0
    assert doc["trace"][0]["strategy"] == "delta2"
    # round-trip the certificate
    back = parse_coloring(emit_result(g, res))
    assert back.colors == res.coloring.colors


def test_emit_exact_result():
    g = families.cycle(4)
    res = exact_index(g, "semistrong", 6)
    doc = json.loads(emit_result(g, res, mode="semistrong"))
    assert doc["value"] == 4
    assert doc["proof"] == "exhausted"
    assert doc["valid"] is True
    assert len(doc["colors"]) == 4
    infeasible = exact_index(g, "semistrong", 3)
    doc = json.loads(emit_result(g, infeasible, mode="semistrong"))
    assert doc["value"] is None
    assert doc["colors"] is None
    assert doc["valid"] is False


def test_emit_round_trip_on_random_results():
    rng = random.Random(15)
    for _ in range(100):
        g = families.random_max_degree(rng.randint(2, 10), rng.randint(1, 4), rng.randint(0, 10**6))
        res = solve(g, "semistrong")
        back = parse_coloring(emit_result(g, res))
        assert back.colors == res.coloring.colors


def test_parse_coloring_errors():
    with pytest.raises(FormatError):
        parse_coloring("not json")
    with pytest.raises(FormatError):
        parse_coloring('{"colors": "nope"}')
    for text in ('[1, 2]', '"colors"', '3', 'null', '{"colors": [true, true]}', '{"colors": [1, false]}'):
        with pytest.raises(FormatError) as exc:
            parse_coloring(text)
        assert exc.value.reason == "bad_coloring"
    for text in ('{"colors": [0]}', '{"colors": [2, -1]}'):
        with pytest.raises(FormatError) as exc:
            parse_coloring(text)
        assert exc.value.reason == "bad_coloring"
    # json's own digit limit and nesting limit, neither a JSONDecodeError
    for text in ('{"colors": [' + "1" * 5000 + "]}", "[" * 100_000):
        with pytest.raises(FormatError) as exc:
            parse_coloring(text)
        assert exc.value.reason == "bad_json"


def test_edge_list_header_is_capped_at_the_graph6_vertex_limit():
    assert parse_edge_list("258047 1\n0 258046\n").vertex_count == 258047
    for text in ("258048 0\n", "100000000 0\n"):
        with pytest.raises(FormatError) as exc:
            parse_edge_list(text)
        assert exc.value.reason == "too_large"


def test_emit_is_byte_stable():
    g = families.prism(3)
    a = emit_result(g, solve(g, "semistrong"))
    b = emit_result(g, solve(g, "semistrong"))
    assert a == b


def test_five_vertex_code_round_trip():
    g = parse_graph6("DQc")
    assert g.vertex_count == 5
    assert emit_graph6(g) == "DQc"


# what emit_result and emit_verdict hand the writer: str-keyed dicts of
# scalars and nested dicts
_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
_JSON_OBJECTS = st.recursive(_JSON_SCALARS, lambda kids: st.dictionaries(st.text(), kids), max_leaves=25)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_JSON_OBJECTS)
@example({})
@example({"": {}, "a": {"": {}}})
@example({"\u00e9\u2028": "\"\\\x00\t\U0001f600", "b": 2**70, "a": {"z": None, "": -0.0, "t": True, "f": False}})
@example({"n": 3, "s": "\u00e9", "ok": True, "no": None, "x": 0.5, "big": -(2**70), "d": {"k": {"v": 1}}})
def test_object_matches_the_stdlib_indent_encoder(value):
    assert _object(value, "\n") == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [[], [1, 2], (), {"k": [1]}, {"k": {"v": (1, 2)}}])
def test_object_refuses_lists_and_tuples(value):
    with pytest.raises(TypeError):
        _object(value, "\n")


def _canonical(text: str) -> bool:
    return text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_emitted_documents_match_the_stdlib_indent_encoder(tmp_path, capsys):
    g = parse_edge_list((Path(__file__).parent / "data" / "mixed.txt").read_text(encoding="utf-8"))
    results = [solve(g, mode) for mode in ("semistrong", "relaxed01")]
    assert all(_canonical(emit_result(g, res)) for res in results)
    c4 = families.cycle(4)
    for mode, s, t, cap in (("semistrong", 0, 0, 6), ("semistrong", 0, 0, 3), ("relaxed", 0, 1, 4)):
        res = exact_index(c4, mode, cap, s=s, t=t)
        assert _canonical(emit_result(c4, res, mode=mode, s=s, t=t))
    bad = from_list([1, 2, 3, 2, 1, 3, 2])
    graph = tmp_path / "c7.txt"
    graph.write_text(emit_edge_list(families.cycle(7)))
    for colors in ([1, 2, 3, 1, 2, 3, 4], bad.colors):
        coloring = tmp_path / "coloring.json"
        coloring.write_text(json.dumps({"colors": list(colors)}))
        capsys.readouterr()
        cli(["verify", "--mode", "semistrong", "--graph", str(graph), "--coloring", str(coloring)])
        assert _canonical(capsys.readouterr().out)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_emitted_solve_results_on_many_components_match_the_stdlib_indent_encoder(seed):
    g = random_union(random.Random(seed))
    for mode in ("semistrong", "relaxed01"):
        assert _canonical(emit_result(g, solve(g, mode)))


def _trace_dict(trace: ComponentTrace) -> dict:
    """A trace entry in the dict form emit_result wrote before its row
    template."""
    return {
        "strategy": trace.strategy,
        "vertices": trace.vertices,
        "edges": trace.edges,
        "delta": trace.delta,
        "colors_used": trace.colors_used,
        "exceeds_bound": trace.exceeds_bound,
        "moves_by_schema": trace.moves_by_schema,
        "fallback_f3": trace.fallback_f3,
        "kappa_trajectory_len": len(trace.kappa_trajectory),
    }


def test_trace_row_template_writes_what_the_stdlib_writes_for_the_dict_form():
    # no fixture has a trace that exceeds its bound with moves in several
    # schemas, or one with an F3 fallback
    g = families.prism(5)
    res = solve(g, "semistrong")
    traces = [
        [],
        [ComponentTrace("kdd", 6, 9, 3, 9, True)],
        [
            ComponentTrace("greedy_repair", 10, 15, 3, 8, False, {"S1": 3, "S2": 1, "S4": 12, "S3": 2}, 0, [(2, 5)]),
            ComponentTrace("greedy_repair", 10, 15, 3, 9, True, {"S3": 1}, 1, [(1, 1), (0, 0)]),
            ComponentTrace("delta2", 7, 7, 2, 4, True, {}, 0, []),
            ComponentTrace('odd "name"\u00e9', 0, 0, 0, 0, False),
        ],
    ]
    for trace in traces:
        faked = SolveResult(res.coloring, res.colors_used, res.mode, trace, res.certificates, res.kappa)
        doc = {
            "n": g.vertex_count,
            "edges": g.edges,
            "colors": list(res.coloring.colors),
            "colors_used": res.colors_used,
            "mode": res.mode,
            "valid": True,
            "trace": [_trace_dict(t) for t in trace],
            "kappa1": res.kappa[0],
            "kappa2": res.kappa[1],
            "certificates": res.certificates,
        }
        assert emit_result(g, faked) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


_PARSERS = {"edge_list": parse_edge_list, "graph6": parse_graph6, "coloring": parse_coloring}
_INT_PAIRS = st.tuples(st.integers(), st.integers())
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text() | st.lists(_INT_PAIRS, max_size=5),
    lambda kids: st.lists(kids) | st.lists(kids).map(tuple) | st.dictionaries(st.text(), kids),
    max_leaves=25,
)
# short inputs drawn mostly from each format's own alphabet, so that fuzzing
# gets past the first check of each parser
_HOSTILE_TEXT = (
    st.text(max_size=40)
    | st.text(alphabet="0123456789 -+_#\n\t", max_size=40)
    | st.text(alphabet=[chr(c) for c in range(60, 128)], max_size=24)
    | _JSON_VALUES.map(json.dumps)
    | st.lists(st.integers(-3, 10**6) | st.booleans() | st.floats() | st.text(max_size=3), max_size=8).map(
        lambda colors: json.dumps({"colors": colors})
    )
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.sampled_from(sorted(_PARSERS)), _HOSTILE_TEXT)
@example("edge_list", "100000000 0\n")  # 10^8 adjacency lists before a single edge
@example("coloring", '{"colors": [0]}')  # a color below 1
@example("coloring", '{"colors": [' + "7" * 5000 + "]}")  # past json's digit limit
@example("coloring", "[" * 100_000)  # past json's nesting limit
@example("graph6", "~~??????")  # a 0-vertex graph in the 8-byte size prefix
@example("graph6", "~~~~~~~~")  # 2^36 - 1 vertices and no payload
def test_parsers_raise_only_their_own_errors(parser, text):
    try:
        _PARSERS[parser](text)
    except (FormatError, GraphError):
        pass
