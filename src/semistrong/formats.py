"""Graph ingestion and result serialization.

Edge-list format: a header line "n m", then m lines "u v" (0-indexed),
whitespace separated; '#' starts a comment anywhere on a line.

graph6: the standard one-line ASCII encoding (size prefix, then the upper
triangle column by column, six bits per character, offset 63).

Results are emitted as JSON with a stable envelope: n, edges, colors,
colors_used, mode, valid, trace, kappa1, kappa2, plus emission-specific
extras. Colors are 1-based and follow input edge order. A verify verdict is
mode, valid, witness, kappa1 and kappa2.
"""

from __future__ import annotations

import json

from .coloring import Coloring, from_list
from .exact import ExactResult
from .graph import Graph, build_graph
from .solver import ComponentTrace, SolveResult
from .verify import VerifyResult, certify


# graph6's 4-byte size prefix holds no more; parsers reject a larger header
# before they allocate its adjacency
MAX_VERTICES = 258047


class FormatError(ValueError):
    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


def parse_edge_list(text: str) -> Graph:
    """Parse an edge list and build its Graph. Every edge line is checked
    before build_graph sees one, holding only the stripped lines and a flat
    list of endpoints, so a malformed line is reported before any graph
    error."""
    lines = [line for raw in text.splitlines() if (line := raw.split("#", 1)[0].strip())]
    if not lines:
        raise FormatError("malformed_header", "empty input; expected a 'n m' header line")
    header = lines[0].split()
    if len(header) != 2:
        raise FormatError("malformed_header", f"header must be 'n m', got {' '.join(header)!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise FormatError("malformed_header", f"header must be two integers, got {' '.join(header)!r}") from exc
    if n > MAX_VERTICES:
        raise FormatError("too_large", f"header declares {n} vertices; at most {MAX_VERTICES} are supported")
    if len(lines) - 1 != m:
        raise FormatError("count_mismatch", f"header declares {m} edges but {len(lines) - 1} edge lines follow")
    ends: list[int] = []
    for i in range(1, len(lines)):
        row = lines[i].split()
        if len(row) != 2:
            raise FormatError("bad_edge_line", f"edge lines must be 'u v', got {' '.join(row)!r}")
        try:
            ends += int(row[0]), int(row[1])
        except ValueError as exc:
            raise FormatError("bad_edge_line", f"edge endpoints must be integers, got {' '.join(row)!r}") from exc
    del lines
    pairs = iter(ends)
    return build_graph(n, zip(pairs, pairs))


def emit_edge_list(g: Graph) -> str:
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def _graph6_size(line: str) -> tuple[int, int]:
    """(vertex count, payload start index)."""
    if not line:
        raise FormatError("truncated_graph6", "empty graph6 line")
    first = ord(line[0])
    if first == 126:
        # "~" and three six-bit digits, or "~~" and six
        start, end = (2, 8) if line[1:2] == "~" else (1, 4)
        if len(line) < end:
            raise FormatError("truncated_graph6", f"{end}-byte size prefix cut short")
        n = 0
        for ch in line[start:end]:
            d = ord(ch) - 63
            if not 0 <= d <= 63:
                raise FormatError("invalid_graph6", "size prefix holds characters outside [63,126]")
            n = (n << 6) | d
        return n, end
    if not 63 <= first <= 125:
        raise FormatError("invalid_graph6", f"bad leading character {line[0]!r}")
    return first - 63, 1


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line (optional '>>graph6<<' header allowed)."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    n, start = _graph6_size(s)
    if n > MAX_VERTICES:
        raise FormatError("too_large", f"size prefix declares {n} vertices; at most {MAX_VERTICES} are supported")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    payload = s[start:]
    if len(payload) < need:
        raise FormatError("truncated_graph6", f"need {need} payload characters for n={n}, got {len(payload)}")
    if len(payload) > need:
        raise FormatError("invalid_graph6", f"{len(payload) - need} trailing characters after the payload")
    pairs = []
    # bit k of the payload is the pair (i, j) with k = j(j-1)/2 + i, i < j;
    # walking the set bits in order only ever moves (i, j) forward
    i, j, k = 0, 1, 0
    for pos, ch in enumerate(payload):
        val = ord(ch) - 63
        if val < 0 or val > 63:
            raise FormatError("invalid_graph6", f"payload character {ch!r} outside [63,126]")
        while val:
            top = val.bit_length() - 1
            val ^= 1 << top
            bit = 6 * pos + 5 - top
            if bit >= nbits:
                raise FormatError("invalid_graph6", "padding bits set in the last payload character")
            i += bit - k
            k = bit
            while i >= j:
                i -= j
                j += 1
            pairs.append((i, j))
    return build_graph(n, pairs)


# maps a six-bit value v to the graph6 character chr(v + 63)
_GRAPH6_CHAR = bytes(range(63, 127)).ljust(256, b"\0")


def emit_graph6(g: Graph) -> str:
    n = g.vertex_count
    if n <= 62:
        prefix = chr(n + 63)
    elif n <= MAX_VERTICES:
        prefix = "~" + "".join(chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0))
    else:
        raise FormatError("too_large", f"graph6 encoding beyond {MAX_VERTICES} vertices not supported (n={n})")
    sextets = bytearray((n * (n - 1) // 2 + 5) // 6)
    for u, v in g.edges:
        i, j = (u, v) if u < v else (v, u)
        bit = j * (j - 1) // 2 + i
        sextets[bit // 6] |= 32 >> (bit % 6)
    payload = sextets.translate(_GRAPH6_CHAR).decode("ascii")
    return prefix + payload


def emit_result(g: Graph, result: SolveResult | ExactResult, mode: str | None = None, s: int = 0, t: int = 0) -> str:
    """Serialize a solve result, or an exact-search result with the mode it
    searched in (and its s and t, written in relaxed mode)."""
    if isinstance(result, SolveResult):
        colors, kappa = result.coloring.colors, result.kappa
        doc = {"mode": result.mode, "valid": result.certificates[result.mode], "certificates": result.certificates}
        doc["trace"] = _Text(_trace_text(result.trace))
    elif isinstance(result, ExactResult):
        cert = result.certificate
        colors, kappa = (None, (None, None)) if cert is None else (cert.colors, certify(g, cert).kappa)
        doc = {"mode": mode, "valid": result.value is not None, "value": result.value, "proof": result.proof, "nodes": result.nodes}
        doc["trace"] = None
        if mode == "relaxed":
            doc["s"], doc["t"] = s, t
    else:
        raise TypeError(f"cannot emit {type(result).__name__}")
    doc["kappa1"], doc["kappa2"] = kappa
    doc["n"] = g.vertex_count
    # the edges and colors come validated: their templates need no type scan
    doc["edges"] = _Text(_pairs_text(g.edges, "\n  "))
    doc["colors"] = _Text(_ints_text(colors, "\n  ")) if colors is not None else None
    doc["colors_used"] = len(set(colors)) if colors is not None else None
    return _object(doc, "\n") + "\n"


def emit_verdict(res: VerifyResult, kappa: tuple[int, int], mode: str, s: int, t: int) -> str:
    """Serialize what verify found: the mode checked, the verdict with its
    witness (a color and one of its edges) and the coloring's kappa."""
    witness = None if res.witness is None else {"color": res.witness[0], "edge": res.witness[1]}
    doc = {"mode": f"relaxed({s},{t})" if mode == "relaxed" else mode, "valid": res.ok, "witness": witness}
    doc["kappa1"], doc["kappa2"] = kappa
    return _object(doc, "\n") + "\n"


class _Text(str):
    """JSON text that emit_result rendered itself; _object copies it as it is."""


_quote = json.encoder.encode_basestring_ascii

# one solve trace entry, as _object writes its dict (keys sorted) in the list
# under a top-level key; a non-empty moves_by_schema is written at _TRACE_KEY
_TRACE_KEY = "\n      "
_TRACE_ROW = """{
      "colors_used": %d,
      "delta": %d,
      "edges": %d,
      "exceeds_bound": %s,
      "fallback_f3": %d,
      "kappa_trajectory_len": %d,
      "moves_by_schema": %s,
      "strategy": %s,
      "vertices": %d
    }"""


def _trace_text(traces: list[ComponentTrace]) -> str:
    """The value of a solve result's top-level "trace" key, one row template
    per trace; only a non-empty moves_by_schema goes through _object."""
    if not traces:
        return "[]"
    rows = []
    for t in traces:
        moves = _object(t.moves_by_schema, _TRACE_KEY) if t.moves_by_schema else "{}"
        fields = (t.colors_used, t.delta, t.edges, "true" if t.exceeds_bound else "false", t.fallback_f3, len(t.kappa_trajectory))
        rows.append(_TRACE_ROW % (*fields, moves, _quote(t.strategy), t.vertices))
    return "[\n    " + ",\n    ".join(rows) + "\n  ]"


def _object(value, newline: str) -> str:
    """json.dumps(value, sort_keys=True, indent=2) with each line break
    written as newline, the break and indentation of the value's first line.
    It takes only what the program writes: a JSON scalar, a _Text, or a dict
    with str keys holding those. The stdlib's indenting encoder is pure Python
    and leaves reference cycles; its one-line encoder is C, leaves none and
    writes a scalar the same."""
    if type(value) is _Text:
        return value
    if type(value) is not dict:
        if isinstance(value, (list, tuple)):
            raise TypeError(f"_object writes no {type(value).__name__}")
        return json.dumps(value)
    if not value:
        return "{}"
    inner = newline + "  "
    items = [_quote(key) + ": " + _object(value[key], inner) for key in sorted(value)]
    return "{" + inner + ("," + inner).join(items) + newline + "}"


# a list of ints, and one of int pairs, as json.dumps(indent=2) writes it after newline
def _ints_text(values, newline: str) -> str:
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(map(str, values)) + newline + "]" if values else "[]"


def _pairs_text(pairs, newline: str) -> str:
    inner = newline + "  "
    row = "[" + inner + "  %d," + inner + "  %d" + inner + "]"
    return "[" + inner + ("," + inner).join([row % x for x in pairs]) + newline + "]" if pairs else "[]"


def parse_coloring(text: str) -> Coloring:
    """Read back a coloring from emitted JSON (or any JSON with 'colors')."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, too many digits, too deep
        raise FormatError("bad_json", f"coloring file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("bad_coloring", "coloring file must hold a JSON object with a 'colors' field")
    colors = doc.get("colors")
    if not isinstance(colors, list) or any(type(c) is not int or c < 1 for c in colors):
        raise FormatError("bad_coloring", "JSON field 'colors' must be a list of integers of at least 1")
    return from_list(colors)
