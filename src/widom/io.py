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
from typing import Iterable, Iterator

from .graph import Graph, WeightedGraph


class GraphFormatError(ValueError):
    """Malformed graph input; message carries the line number."""


class PartitionError(ValueError):
    """A clique/matched split is invalid or could not be obtained."""


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield idx, line


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


def _graph(lineno: int, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """``Graph(n, edges)`` for the header on ``lineno``, with its errors
    as GraphFormatError.  A graph allocates its n adjacency masks before
    it reads ``edges``, so n must fit an index and then memory."""
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None
    except (OverflowError, MemoryError):
        raise GraphFormatError(f"line {lineno}: vertex count {n} is too large") from None


def _edge_lines(lines: Iterator[tuple[int, str]], n: int, m: int) -> Iterator[tuple[int, int]]:
    """The m edge lines after the header, each checked as it is read."""
    found = 0
    for found, (lineno, line) in zip(range(1, m + 1), lines):
        u, v = _ints(lineno, line, 2, "edge 'u v'")
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise GraphFormatError(f"line {lineno}: bad edge ({u},{v}) for n={n}")
        yield u, v
    if found < m:
        raise GraphFormatError(f"expected {m} edge lines, found {found}")


def parse_graph(text: str) -> Graph | WeightedGraph:
    lines = _content_lines(text)
    head, header = next(lines, (0, ""))
    if not header:
        raise GraphFormatError("empty input: missing the 'n m' header")
    n, m = _ints(head, header, 2, "header 'n m'")
    if n < 0 or m < 0:
        raise GraphFormatError(f"line {head}: negative counts in header")
    g = _graph(head, n, _edge_lines(lines, n, m))

    lineno, word = next(lines, (0, ""))
    if not word:
        return g
    if word != "weights":
        raise GraphFormatError(
            f"line {lineno}: expected 'weights' or end of file, got {word!r}"
        )
    body = list(lines)
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
    n = head = None
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
            head = idx
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError(f"line {idx}: edge before problem line")
            u, v = _ints(idx, " ".join(parts[1:]), 2, "edge 'e u v'")
            if not (0 < u <= n and 0 < v <= n) or u == v:
                raise GraphFormatError(f"line {idx}: bad edge ({u},{v}) for n={n}")
            edges.append((u - 1, v - 1))
        else:
            raise GraphFormatError(f"line {idx}: unrecognized line {line!r}")
    if n is None:
        raise GraphFormatError("missing DIMACS problem line")
    return _graph(head, n, edges)


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


def parse_graph_file(path: str | Path) -> Graph | WeightedGraph:
    """Parse a GraphFile; a GraphFormatError names the file."""
    text, _ = read_text(path)
    try:
        return parse_graph(text)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None


def emit_graph(g: Graph | WeightedGraph, meta: dict | None = None) -> str:
    """Canonical GraphFile text; metadata rides in a '# meta' comment."""
    wg = g if isinstance(g, WeightedGraph) else None
    base = wg.graph if wg else g
    edges = sorted(base.edges)
    lines = [f"{base.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
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
    """The A and B sides in a JSON partition file; see ``partition_sides``."""
    try:
        data = json.loads(read_text(path)[0])
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"{path}: partition file is not valid JSON: {exc}") from None
    return partition_sides(data, n, str(path))


def partition_sides(data, n: int, source: str) -> tuple[frozenset[int], frozenset[int]]:
    """The sides of a parsed JSON partition {"A": [...]} or {"A": [...], "B": [...]}.

    B defaults to the rest.  Raises GraphFormatError when ``data`` is not
    an object with an "A" key, and PartitionError when a side is not a
    list of integers in 0..n-1; both messages start with ``source``.
    """
    if not isinstance(data, dict) or "A" not in data:
        raise GraphFormatError(f'{source}: partition needs an "A" key')
    a = _partition_side(data, "A", n, source)
    b = _partition_side(data, "B", n, source) if "B" in data else frozenset(range(n)) - a
    return a, b


def _partition_side(data: dict, side: str, n: int, source: str) -> frozenset[int]:
    raw = data[side]
    where = f'{source}: partition side "{side}"'
    if not isinstance(raw, list):
        raise PartitionError(f"{where} is not a list of vertices")
    for v in raw:
        if type(v) is not int:
            raise PartitionError(f"{where}: vertex {v!r} is not an integer")
        if not 0 <= v < n:
            raise PartitionError(f"{where}: vertex {v} out of range for n={n}")
    return frozenset(raw)
