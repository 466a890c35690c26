"""Text formats for game graphs and energy functions.

Game files are DIMACS-flavored and diff-friendly::

    # comment lines start with '#', blank lines are ignored
    p eg <n> <m>
    v <id> <A|B>        (one per node, ids 0..n-1)
    e <src> <dst> <w>   (one per edge, in order; repeated lines are parallel edges)

Energy files carry one ``v <id> <value>`` line per node, ids ascending, with
the literal ``inf`` for infinite energies.  Emitters produce canonical files
(no comments, ids ascending, edges in stored order); parsing a canonical file
and re-emitting it is byte-identical.

Every integer field (counts, node ids, weights, energies) is ASCII digits
with an optional ``-``, of any length.  ``_int`` reads it with ``int()``;
past Python's integer-string limit (4,300 digits by default from 3.11 on,
never below 640) it reads the digits in pieces of at most 640, and the
emitters write them in pieces, so that process-wide limit is never changed.
"""

from __future__ import annotations

from .core import ALICE, BOB, INF, Edge, EnergyFn, GameGraph

_PIECE = 640  # the least integer-string limit Python allows
_PIECE_BOUND = 10**_PIECE


def _int(text: str) -> int:
    """The integer of an optionally negative run of ASCII digits of any
    length; raises ValueError on anything else."""
    try:
        return int(text)
    except ValueError:  # not such a run, or one past the digit limit
        negative = text.startswith("-")
        digits = text[negative:]
        if not (digits.isascii() and digits.isdigit()):
            raise

    def read(digits: str) -> int:
        if len(digits) <= _PIECE:
            return int(digits)
        half = len(digits) // 2
        return read(digits[:-half]) * 10**half + read(digits[-half:])

    value = read(digits)
    return -value if negative else value


def _long_str(value: int) -> str:
    """str(value) for an integer of any size.  Called only after str() has
    raised, so the common path pays nothing."""
    if value < 0:
        return "-" + _long_str(-value)

    def write(value: int, width: int) -> str:
        # The digits of value, zero-padded on the left to width.
        if value < _PIECE_BOUND:
            return str(value).zfill(width)
        half = int(value.bit_length() * 0.30103) // 2  # about half its digits
        high, low = divmod(value, 10**half)
        return write(high, width - half) + write(low, half)

    return write(value, 0)


class GameFileError(ValueError):
    """A malformed game or energy file; carries the offending line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_QUOTE_LIMIT = 60


def _quote(text: str, show=repr) -> str:
    """``text`` in quotes (bare with ``show=str``), cut to its first characters
    when it is long: a message also names the line, so a prefix is enough to
    find it, and one line can hold a whole file or a number of any length."""
    if len(text) <= _QUOTE_LIMIT:
        return show(text)
    return f"{show(text[:_QUOTE_LIMIT])}... ({len(text)} characters)"


def _foreign(text: str) -> bool:
    return not text.isascii() or "_" in text or "+" in text


def _significant_lines(text: str):
    """The numbered, stripped lines that are neither blank nor comments.
    Lines end at '\n' only; strip() takes the '\r' of a CRLF ending.
    int() reads '1_000', '+7' and any Unicode digit, which no emitter writes,
    so such a line holding '_', '+' or a non-ASCII character raises.  The
    text is tested once, single lines only if that test fails."""
    suspect = _foreign(text)
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if suspect and _foreign(raw):
            raise GameFileError(line_no, f"'_', '+' or a non-ASCII character in {_quote(raw)}")
        yield line_no, line


def _ints(texts: list[str], line_no: int, message: str) -> list[int]:
    """The integers of texts, or a GameFileError with message."""
    try:
        return [_int(text) for text in texts]
    except ValueError:
        raise GameFileError(line_no, message) from None


def _out_of_range(n: int) -> str:
    """The end of a node-id error on n nodes: the range 0..n-1, or that
    there is none."""
    return f"out of range 0..{n - 1}" if n else "out of range: the header declares no nodes"


def _node_id(text: str, line: str, line_no: int, n: int) -> int:
    """The node id in text, a field of line, checked to lie in 0..n-1."""
    try:
        node = _int(text)
    except ValueError:
        raise GameFileError(line_no, f"non-integer node id in {_quote(line)}") from None
    if not 0 <= node < n:
        raise GameFileError(line_no, f"node id {_quote(text, str)} {_out_of_range(n)}")
    return node


def parse_game(text: str) -> GameGraph:
    lines = list(_significant_lines(text))
    if not lines:
        raise GameFileError(0, "empty file: expected a 'p eg <n> <m>' header")
    line_no, header = lines[0]
    parts = header.split()
    if len(parts) != 4 or parts[0] != "p" or parts[1] != "eg":
        raise GameFileError(line_no, f"expected 'p eg <n> <m>', got {_quote(header)}")
    n, m = _ints(parts[2:], line_no, f"non-integer counts in header {_quote(header)}")
    if n < 0 or m < 0:
        raise GameFileError(line_no, f"invalid counts in header {_quote(header)}")
    for count, text, kind in ((n, parts[2], "nodes"), (m, parts[3], "edges")):  # one record each
        if count > len(lines) - 1:
            raise GameFileError(line_no, f"header promised {_quote(text, str)} {kind}, found {len(lines) - 1} records")

    owners: list[str | None] = [None] * n
    edges: list[Edge] = []
    for line_no, line in lines[1:]:
        parts = line.split()
        if parts[0] == "v":
            if len(parts) != 3:
                raise GameFileError(line_no, f"expected 'v <id> <A|B>', got {_quote(line)}")
            node = _node_id(parts[1], line, line_no, n)
            if owners[node] is not None:
                raise GameFileError(line_no, f"duplicate declaration of node {node}")
            if parts[2] not in (ALICE, BOB):
                raise GameFileError(line_no, f"owner must be A or B, got {_quote(parts[2])}")
            owners[node] = parts[2]
        elif parts[0] == "e":
            if len(parts) != 4:
                raise GameFileError(line_no, f"expected 'e <src> <dst> <w>', got {_quote(line)}")
            try:
                src, dst, weight = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:
                src, dst, weight = _ints(parts[1:], line_no, f"non-integer field in {_quote(line)}")
            if not 0 <= src < n > dst >= 0:  # both ends in 0..n-1
                end, text = ("target", parts[2]) if 0 <= src < n else ("source", parts[1])
                raise GameFileError(line_no, f"edge {end} {_quote(text, str)} {_out_of_range(n)}")
            edges.append((src, dst, weight))
        else:
            raise GameFileError(line_no, f"unknown record {_quote(parts[0])}")

    missing = [v for v, owner in enumerate(owners) if owner is None]
    if missing:
        raise GameFileError(0, f"missing node declarations: {len(missing)} of {n} nodes, from node {missing[0]}")
    if len(edges) != m:
        raise GameFileError(0, f"header promised {m} edges, found {len(edges)}")
    return GameGraph(tuple(owners), tuple(edges))  # type: ignore[arg-type]


def emit_game(graph: GameGraph) -> str:
    lines = [f"p eg {graph.n} {graph.m}"]
    lines.extend(f"v {v} {graph.owners[v]}" for v in range(graph.n))
    try:
        edges = [f"e {src} {dst} {weight}" for src, dst, weight in graph.edges]
    except ValueError:  # a weight too long for str()
        edges = [f"e {src} {dst} {_long_str(weight)}" for src, dst, weight in graph.edges]
    lines.extend(edges)
    return "\n".join(lines) + "\n"


def parse_energies(text: str, n: int) -> EnergyFn:
    values: list[int | float | None] = [None] * n
    expected = 0
    for line_no, line in _significant_lines(text):
        parts = line.split()
        if len(parts) != 3 or parts[0] != "v":
            raise GameFileError(line_no, f"expected 'v <id> <value|inf>', got {_quote(line)}")
        node = _node_id(parts[1], line, line_no, n)
        if node != expected:
            raise GameFileError(line_no, f"node ids must ascend from 0; expected {expected}")
        expected += 1
        if parts[2] == "inf":
            values[node] = INF
        else:
            try:
                value = _int(parts[2])
            except ValueError:
                raise GameFileError(
                    line_no, f"energy must be a non-negative integer or 'inf', got {_quote(parts[2])}"
                ) from None
            if value < 0:
                raise GameFileError(line_no, f"energy must be non-negative, got {_quote(parts[2], str)}")
            values[node] = value
    if expected != n:
        raise GameFileError(0, f"expected {n} energy lines, found {expected}")
    return tuple(values)  # type: ignore[arg-type]


def emit_energies(energies: EnergyFn) -> str:
    try:
        lines = [f"v {v} {'inf' if value == INF else value}" for v, value in enumerate(energies)]
    except ValueError:  # a value too long for str()
        lines = [f"v {v} {'inf' if value == INF else _long_str(value)}" for v, value in enumerate(energies)]
    return "\n".join(lines) + "\n"
