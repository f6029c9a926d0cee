"""Graph ingestion and result serialization.

Edge-list format: a header line "n m", then m lines "u v" (0-indexed),
whitespace separated; '#' starts a comment anywhere on a line.

graph6: the standard one-line ASCII encoding (size prefix, then the upper
triangle column by column, six bits per character, offset 63).

Results are emitted as JSON with a stable envelope: n, edges, colors,
colors_used, mode, valid, trace, kappa1, kappa2, plus emission-specific
extras. Colors are 1-based and follow input edge order.
"""

from __future__ import annotations

import json
from typing import Any

from .coloring import Coloring, from_list
from .exact import ExactResult
from .graph import Graph, build_graph
from .solver import ComponentTrace, SolveResult
from .verify import certify


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


def _envelope(g: Graph, colors, mode, valid) -> dict[str, Any]:
    return {  # the edges and colors come validated, and skip _write's type scans
        "n": g.vertex_count,
        "edges": _Text(_pairs_text(g.edges, "\n  ")),
        "colors": _Text(_ints_text(colors, "\n  ")) if colors is not None else None,
        "colors_used": len(set(colors)) if colors else (0 if colors is not None else None),
        "mode": mode,
        "valid": valid,
        "trace": None,
        "kappa1": None,
        "kappa2": None,
    }


def emit_result(g: Graph, result: SolveResult | ExactResult, **meta) -> str:
    """Serialize a solve result or an exact-search result.

    For exact results pass mode/s/t via meta.
    """
    if isinstance(result, SolveResult):
        doc = _envelope(g, result.coloring.colors, result.mode, result.certificates[result.mode])
        doc["kappa1"], doc["kappa2"] = result.kappa
        doc["trace"] = _Text(_trace_text(result.trace))
        doc["certificates"] = result.certificates
    elif isinstance(result, ExactResult):
        colors = result.certificate.colors if result.certificate is not None else None
        doc = _envelope(g, colors, meta.get("mode"), result.value is not None)
        doc["value"] = result.value
        doc["proof"] = result.proof
        doc["nodes"] = result.nodes
        if result.certificate is not None:
            doc["kappa1"], doc["kappa2"] = certify(g, result.certificate).kappa
        if meta.get("mode") == "relaxed":
            doc["s"] = meta.get("s", 0)
            doc["t"] = meta.get("t", 0)
    else:
        raise TypeError(f"cannot emit {type(result).__name__}")
    return _dumps(doc) + "\n"


class _Text(str):
    """JSON text that emit_result rendered itself; _write copies it as it is."""


_quote = json.encoder.encode_basestring_ascii
_BOOL = {True: "true", False: "false"}
# the scalars json writes without recursion, keyed by exact type
_INLINE = {int: str, str: _quote, bool: _BOOL.get, type(None): lambda _: "null", _Text: str}

# one solve trace entry, as _write writes its dict (keys sorted) in the list
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
    per trace; only a non-empty moves_by_schema goes through _write."""
    if not traces:
        return "[]"
    rows = []
    for t in traces:
        moves = "{}"
        if t.moves_by_schema:
            out: list[str] = []
            _write(t.moves_by_schema, _TRACE_KEY, out)
            moves = "".join(out)
        fields = (t.colors_used, t.delta, t.edges, _BOOL[t.exceeds_bound], t.fallback_f3, len(t.kappa_trajectory))
        rows.append(_TRACE_ROW % (*fields, moves, _quote(t.strategy), t.vertices))
    return "[\n    " + ",\n    ".join(rows) + "\n  ]"


def _dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte, for any value
    whose dicts have str keys.

    With an indent CPython's json falls back to its pure-Python encoder; this
    writer dispatches on exact type, writes a dict's scalar values in line,
    joins an all-int list in one call and fills one row template per pair of
    a list of int pairs (the edges). Any other list, a float or a subclass
    goes to the stdlib encoder.
    """
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


def _write(obj, newline: str, out: list[str]) -> None:
    kind = type(obj)
    inline = _INLINE.get(kind)
    if inline is not None:
        out.append(inline(obj))
    elif (kind is list or kind is tuple) and all(type(x) is int for x in obj):
        out.append(_ints_text(obj, newline))
    elif (kind is list or kind is tuple) and all(
        type(x) is tuple and len(x) == 2 and type(x[0]) is int and type(x[1]) is int for x in obj
    ):
        out.append(_pairs_text(obj, newline))
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            value = obj[key]
            inline = _INLINE.get(type(value))
            if inline is not None:
                out.append(sep + _quote(key) + ": " + inline(value))
            else:
                out.append(sep + _quote(key) + ": ")
                _write(value, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:  # floats, subclasses, other lists: the stdlib encoder, re-indented to this depth
        out.append(json.dumps(obj, sort_keys=True, indent=2).replace("\n", newline))


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
