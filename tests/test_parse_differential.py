"""parse_graph against the reader it replaced, on generated GraphFile texts.

``oracle_parse_graph`` below is that earlier reader, kept here as a test
oracle: every content line passes through a generator, each edge line
through a second one that splits it into a list of ints and checks it,
and ``Graph`` checks it again.  On every text both readers must give an
equal graph and equal weights, or the identical GraphFormatError.
"""

from typing import Iterable, Iterator

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from widom.graph import Graph, WeightedGraph
from widom.io import GraphFormatError, parse_graph

# -- the oracle ---------------------------------------------------------------


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
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None
    except (OverflowError, MemoryError):
        raise GraphFormatError(f"line {lineno}: vertex count {n} is too large") from None


def _edge_lines(lines: Iterator[tuple[int, str]], n: int, m: int) -> Iterator[tuple[int, int]]:
    found = 0
    for found, (lineno, line) in zip(range(1, m + 1), lines):
        u, v = _ints(lineno, line, 2, "edge 'u v'")
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise GraphFormatError(f"line {lineno}: bad edge ({u},{v}) for n={n}")
        yield u, v
    if found < m:
        raise GraphFormatError(f"expected {m} edge lines, found {found}")


def oracle_parse_graph(text: str) -> Graph | WeightedGraph:
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


# -- generated texts ----------------------------------------------------------

# every line break str.splitlines knows
BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
# whitespace that str.split and str.strip drop, but splitlines keeps in a line
SPACES = (" ", "  ", "\t", "\x1f", "\xa0", "\u3000")
DIGIT_SETS = (
    "0123456789",
    "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",  # Arabic-Indic
    "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19",  # fullwidth
)
# vertex counts whose masks cannot be allocated: past sys.maxsize, or past
# what a list may hold, so they fail before any memory is taken
PAST_MEMORY = (2**61, 2**63, 10**30)
JUNK = ("x", "weights", "1.5", "0x1", "--1", "1__0", "_1", "e", "nan", "\u0661x")


@st.composite
def numbers(draw, value: int) -> str:
    """``value`` as int() reads it: signed, padded, with underscores or
    in another script's digits."""
    text = str(abs(value))
    form = draw(st.sampled_from(("plain",) * 6 + ("plus", "zeros", "underscore", "digits")))
    if form == "plus" and value >= 0:
        text = "+" + text
    elif form == "zeros":
        text = "00" + text
    elif form == "underscore" and len(text) > 1:
        at = draw(st.integers(1, len(text) - 1))
        text = text[:at] + "_" + text[at:]
    elif form == "digits":
        digits = draw(st.sampled_from(DIGIT_SETS))
        text = "".join(digits[int(c)] for c in text)
    return ("-" if value < 0 else "") + text


@st.composite
def lines_of(draw, values: list[int], odds: int) -> str:
    """One content line: the tokens, or one time in ``odds`` (never if 0)
    one too few, one too many or a junk token; a trailing comment now and
    then."""
    tokens = [draw(numbers(v)) for v in values]
    change = "none"
    if odds and draw(st.integers(1, odds)) == 1:
        change = draw(st.sampled_from(("drop", "add", "junk")))
    if change == "drop":
        tokens.pop(draw(st.integers(0, len(tokens) - 1)))
    elif change == "add":
        tokens.append(draw(numbers(draw(st.integers(-2, 9)))))
    elif change == "junk":
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(JUNK))
    spaces = st.sampled_from(SPACES)
    line = draw(st.sampled_from(("", "", " ", "\t"))) + "".join(
        (draw(spaces) if i else "") + tok for i, tok in enumerate(tokens)
    )
    if draw(st.integers(0, 7)) == 0:
        line += draw(st.sampled_from(("#", " # note", "\t#1 2", "# weights")))
    return line


@st.composite
def graph_texts(draw) -> str:
    """A GraphFile text, most of it well formed: short and long edge and
    weight sections, bad ids, comments, blank lines, every line break."""
    huge = draw(st.integers(0, 15)) == 0
    n = draw(st.sampled_from(PAST_MEMORY) if huge else st.integers(0, 9))
    # most texts are well formed line by line; the rest break a line now and then
    odds = draw(st.sampled_from((0, 0, 0, 40, 12)))
    small = n if n < 100 else 6
    pairs = [(u, v) for u in range(small) for v in range(small) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    if draw(st.integers(0, 5)) == 0:  # a self-loop or an id out of range
        ids = st.integers(-1, small)
        edges.insert(draw(st.integers(0, len(edges))), draw(st.tuples(ids, ids)))
    m = len(edges) + draw(st.sampled_from((0,) * 8 + (-2, -1, 1, 2)))
    if draw(st.integers(0, 15)) == 0:
        m = draw(st.sampled_from((-1, 10**30)))
    lines = [draw(lines_of([n, m], odds))] + [draw(lines_of([u, v], odds)) for u, v in edges]
    if draw(st.booleans()):
        order = draw(st.permutations(range(small)))
        count = small + draw(st.sampled_from((0,) * 6 + (-1, 1)))
        vertices = [order[i % small] if small else 0 for i in range(max(count, 0))]
        if vertices and draw(st.integers(0, 5)) == 0:
            vertices[draw(st.integers(0, len(vertices) - 1))] = draw(st.integers(-1, small))
        word = draw(st.sampled_from(("weights",) * 8 + (" weights ", "weights 1", "Weights")))
        lines.append(word)
        lines += [draw(lines_of([v, draw(st.integers(-50, 10**12))], odds)) for v in vertices]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(("", " ", "\t", "# comment", "  #", "\x1f"))))
    text = "".join(line + draw(st.sampled_from(BREAKS)) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("".join(BREAKS))
    for _ in range(draw(st.sampled_from((0,) * 6 + (1, 2)))):
        at = draw(st.integers(0, len(text)))
        piece = draw(st.sampled_from(BREAKS + SPACES + ("#", "+", "_", "-", "0", "7", "\u0663", "w")))
        text = text[:at] + piece + text[at + draw(st.integers(0, 2)):]
    return text


def _allocates(text: str) -> bool:
    """A vertex count that splicing made large but not past memory: both
    readers would allocate its masks."""
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if parts:
            try:
                return 10**5 < int(parts[0]) < 2**61
            except ValueError:
                return False
    return False


def _outcome(parse, text: str):
    try:
        return parse(text)
    except GraphFormatError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(text=graph_texts())
@example(text="3 5\n0 1\nweights\n")
@example(text="2 5\n0 1\n")
@example(text=f"2 {10**30}\n0 1\n")
@example(text="2 1\n0 1\nweights\n0 3\n1 x\n1 4\n")
@example(text=f"{2**61} 1\n0 0\n")
@example(text="3 1\r\n0 1 weights\x85 0 1\x1c1 2\r2 +3 # w\n")
def test_parse_graph_matches_the_line_by_line_reader(text):
    assume(not _allocates(text))
    got, want = _outcome(parse_graph, text), _outcome(oracle_parse_graph, text)
    assert type(got) is type(want)
    assert got == want
