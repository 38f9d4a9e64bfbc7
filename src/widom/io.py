"""The GraphFile text format and friends.

Layout::

    # comments allowed anywhere, blank lines ignored
    n m
    u v            (m edge lines, 0-indexed)
    weights        (optional section)
    v w            (exactly one line per vertex)

``parse_graph`` returns a WeightedGraph when the weights section is
present and a plain Graph otherwise; ``emit_graph`` writes the same
format back deterministically, so parse(emit(x)) == x.
"""

from __future__ import annotations

import json
from pathlib import Path

from .graph import Graph, WeightedGraph


class GraphFormatError(ValueError):
    """Malformed graph input; message carries the line number."""


class PartitionError(ValueError):
    """A clique/matched split is invalid or could not be obtained."""


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((idx, line))
    return out


def _ints(lineno: int, line: str, want: int, what: str) -> list[int]:
    parts = line.split()
    if len(parts) != want:
        raise GraphFormatError(f"line {lineno}: expected {what}, got {line!r}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise GraphFormatError(
            f"line {lineno}: expected {what}, got {line!r}"
        ) from None


def parse_graph(text: str) -> Graph | WeightedGraph:
    lines = _content_lines(text)
    if not lines:
        raise GraphFormatError("empty input: missing the 'n m' header")
    lineno, header = lines[0]
    n, m = _ints(lineno, header, 2, "header 'n m'")
    if n < 0 or m < 0:
        raise GraphFormatError(f"line {lineno}: negative counts in header")
    if len(lines) < 1 + m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for lineno, line in lines[1 : 1 + m]:
        u, v = _ints(lineno, line, 2, "edge 'u v'")
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise GraphFormatError(f"line {lineno}: bad edge ({u},{v}) for n={n}")
        edges.append((u, v))
    try:
        g = Graph(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None

    rest = lines[1 + m :]
    if not rest:
        return g
    lineno, word = rest[0]
    if word != "weights":
        raise GraphFormatError(
            f"line {lineno}: expected 'weights' or end of file, got {word!r}"
        )
    body = rest[1:]
    if len(body) != n:
        raise GraphFormatError(
            f"weights section needs {n} lines, found {len(body)}"
        )
    weights = [None] * n
    for lineno, line in body:
        v, w = _ints(lineno, line, 2, "weight 'v w'")
        if not (0 <= v < n):
            raise GraphFormatError(f"line {lineno}: weight for unknown vertex {v}")
        if weights[v] is not None:
            raise GraphFormatError(f"line {lineno}: duplicate weight for vertex {v}")
        weights[v] = w
    return WeightedGraph(g, tuple(weights))


def parse_dimacs(text: str) -> Graph:
    """DIMACS 'p edge n m' format, 1-indexed vertices, 'c' comments."""
    n = None
    edges = []
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] not in ("edge", "col"):
                raise GraphFormatError(f"line {idx}: bad problem line {line!r}")
            n, _ = _ints(idx, " ".join(parts[2:]), 2, "integer counts in 'p edge n m'")
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError(f"line {idx}: edge before problem line")
            u, v = _ints(idx, " ".join(parts[1:]), 2, "edge 'e u v'")
            edges.append((u - 1, v - 1))
        else:
            raise GraphFormatError(f"line {idx}: unrecognized line {line!r}")
    if n is None:
        raise GraphFormatError("missing DIMACS problem line")
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def read_text(path: str | Path) -> tuple[str, bytes]:
    """A file's UTF-8 text and its raw bytes.

    Raises GraphFormatError naming the file and the line of the first
    byte that is not UTF-8.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode(), data
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise GraphFormatError(f"{path}: line {line}: not UTF-8 text") from None


def parse_graph_file(path: str | Path, dimacs: bool = False) -> Graph | WeightedGraph:
    """Parse a graph file; a GraphFormatError names the file."""
    text, _ = read_text(path)
    try:
        return parse_dimacs(text) if dimacs else parse_graph(text)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None


def emit_graph(g: Graph | WeightedGraph, meta: dict | None = None) -> str:
    """Canonical GraphFile text; metadata rides in a '# meta' comment."""
    wg = g if isinstance(g, WeightedGraph) else None
    base = wg.graph if wg else g
    lines = [f"{base.n} {len(base.edges)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(base.edges))
    if wg is not None:
        lines.append("weights")
        lines.extend(f"{v} {w}" for v, w in enumerate(wg.weights))
    if meta is not None:
        lines.append("# meta " + json.dumps(meta, sort_keys=True))
    return "\n".join(lines) + "\n"


def extract_meta(text: str) -> dict | None:
    """Read back the '# meta {...}' comment emit_graph may have added."""
    for raw in text.splitlines():
        stripped = raw.strip()
        if stripped.startswith("# meta "):
            return json.loads(stripped[len("# meta "):])
    return None


def parse_partition_file(path: str | Path, n: int) -> tuple[frozenset[int], frozenset[int]]:
    """JSON {"A": [...]} or {"A": [...], "B": [...]}; B defaults to the rest.

    Raises PartitionError when a side names a vertex that is not an
    integer in 0..n-1.
    """
    try:
        data = json.loads(read_text(path)[0])
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"partition file is not valid JSON: {exc}") from None
    if not isinstance(data, dict) or "A" not in data:
        raise GraphFormatError('partition file needs an "A" key')
    a = _partition_side(data, "A", n)
    b = _partition_side(data, "B", n) if "B" in data else frozenset(range(n)) - a
    return a, b


def _partition_side(data: dict, side: str, n: int) -> frozenset[int]:
    raw = data[side]
    if not isinstance(raw, list):
        raise PartitionError(f'partition side "{side}" is not a list of vertices')
    for v in raw:
        if type(v) is not int:
            raise PartitionError(f'partition side "{side}": vertex {v!r} is not an integer')
        if not 0 <= v < n:
            raise PartitionError(f'partition side "{side}": vertex {v} out of range for n={n}')
    return frozenset(raw)
