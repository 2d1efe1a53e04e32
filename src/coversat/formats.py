"""Parsers and writers for the three on-disk formats.

* DIMACS CNF: ``c`` comments, ``p cnf n m`` header, 0-terminated clauses.
* CSP: ``c`` comments, ``p csp d n m`` header; each constraint is a list of
  "variable forbidden-value" pairs terminated by 0, meaning the disjunction
  of (x_v != c) literals.
* Covering-code files: header ``q t r size``, then one word per line as
  space-separated symbols in 1..q.

All parsers accept bytes or str (ASCII, LF or CRLF), never raise anything but
ParseError on malformed input, and report 1-based line numbers. An integer
token is an optional sign followed by ASCII digits.
"""

from __future__ import annotations

import re
import warnings
from operator import itemgetter

from .cnf import Formula
from .codes import CoveringCode
from .csp import CspFormula
from .errors import ParseError, ParseWarning

_INTEGER = re.compile(r"[+-]?[0-9]+")


def _decode(text: str | bytes) -> str:
    if isinstance(text, bytes):
        try:
            return text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not ASCII: {exc}") from None
    return text


def _content_lines(text: str | bytes):
    """Yield (line number, stripped line) for each line that is neither blank
    nor a 'c' comment."""
    for lineno, line in enumerate(map(str.strip, _decode(text).splitlines()), start=1):
        if line and line[0] != "c":
            yield lineno, line


def _int_token(token: str, line: int | None, what: str) -> int:
    try:
        if _INTEGER.fullmatch(token):
            return int(token)
    except ValueError:  # beyond int()'s digit limit
        pass
    raise ParseError(f"expected integer {what}, got {token!r}", line)


def _ints(line: str, lineno: int | None, what: str) -> list[int]:
    # int() also takes underscores and non-ASCII digits; a line free of both
    # holds only integer tokens whenever int() accepts them all
    if "_" not in line and line.isascii():
        try:
            return list(map(int, line.split()))
        except ValueError:
            pass
    return [_int_token(token, lineno, what) for token in line.split()]


def _fields(parts: list[str], names: tuple[str, ...], line: int) -> tuple[int, ...]:
    return tuple(_int_token(token, line, name) for token, name in zip(parts, names))


def _dedupe(items: list, var) -> tuple | None:
    """Drop repeated items of a record; return None for a tautology, where
    two items give one variable different values (x and -x, or x != a and
    x != b), since every assignment satisfies it."""
    seen: dict = {}
    for item in items:
        if seen.setdefault(var(item), item) != item:
            return None
    return tuple(seen.values())


def _header(lines, fmt: str, record: str, names: tuple[str, ...]) -> tuple[tuple[int, ...], int]:
    """Read the 'p <fmt> <names...>' header that must open lines; return its
    values and its line number."""
    for lineno, line in lines:
        if not line.startswith("p"):
            raise ParseError(f"{record} data before 'p {fmt}' header: {line!r}", lineno)
        parts = line.split()
        if len(parts) != 2 + len(names) or parts[1] != fmt:
            raise ParseError(f"malformed header {line!r}", lineno)
        return _fields(parts[2:], names, lineno), lineno
    raise ParseError(f"missing 'p {fmt}' header")


def _records(lines, record: str, declared: int, what: str, var, pairs=None, bound=None) -> list:
    """Read the 0-terminated records left in lines; a record may span lines.

    The tokens of all lines are converted at once, and a fault's line is
    looked up only once one is found. bound, when given, caps each token's
    absolute value (a DIMACS variable). pairs(values), when given, turns a
    record's integers into its items or raises a ParseError, which gets the
    line of the record's 0. Items are deduplicated by var (see _dedupe). A
    record count other than the declared one is a ParseWarning.
    """
    data = list(lines)

    def line_of(pos: int) -> int:
        for lineno, line in data:
            pos -= len(line.split())
            if pos < 0:
                return lineno

    try:
        ints = _ints(" ".join(map(itemgetter(1), data)), None, what)
    except ParseError:
        # a second 'p' line or a bad token: name the first such line
        for lineno, line in data:
            if line.startswith("p"):
                raise ParseError("duplicate header", lineno) from None
            _ints(line, lineno, what)
        raise
    if bound is not None and ints and (max(ints) > bound or -min(ints) > bound):
        pos = next(i for i, u in enumerate(ints) if abs(u) > bound)
        bad = abs(ints[pos])
        raise ParseError(f"variable {bad} out of range (header declares {bound})", line_of(pos))
    kept = []
    count = ints.count(0)
    start = 0
    for _ in range(count):
        end = ints.index(0, start)
        items = ints[start:end]
        if pairs is not None:
            try:
                items = pairs(items)
            except ParseError as exc:
                raise ParseError(str(exc), line_of(end)) from None
        if len(set(map(var, items))) == len(items):  # nothing to drop
            kept.append(tuple(items))
        elif (item := _dedupe(items, var)) is not None:
            kept.append(item)
        start = end + 1
    if start < len(ints):
        raise ParseError(f"unterminated {record} at end of input (missing 0)", line_of(start))
    if count != declared:
        warnings.warn(
            ParseWarning(f"header declares {declared} {record}s, file has {count}"), stacklevel=3
        )
    return kept


def _first_content_line(text: str) -> str:
    """The first line that _content_lines(text) yields, "" when there is
    none. Only the lines up to it are split, from a prefix of text that is
    doubled until it holds that line whole."""
    size = 1024
    while True:
        lines = text[:size].splitlines()
        if size < len(text):
            lines.pop()  # may be cut short
        for line in map(str.strip, lines):
            if line and line[0] != "c":
                return line
        if size >= len(text):
            return ""
        size *= 2


def input_kind(text: str | bytes) -> str:
    """'csp' when the first content line is a 'p csp' header, else 'cnf'.
    Only that line is looked at, and of a str only the lines up to it are
    split; the parser checks the rest."""
    line = _first_content_line(_decode(text))
    return "csp" if line.startswith("p") and line.split()[1:2] == ["csp"] else "cnf"


def parse_dimacs(text: str | bytes) -> Formula:
    """Parse DIMACS CNF text into a Formula.

    Clause-count mismatches against the header produce a ParseWarning;
    out-of-range variables are hard errors. The scanner leaves only int
    literals over distinct variables in 1..n, so the Formula is built
    without validating its clauses again.
    """
    lines = _content_lines(text)
    (n, m), line = _header(lines, "cnf", "clause", ("variable count", "clause count"))
    if n < 0 or m < 0:
        raise ParseError("header counts must be non-negative", line)
    return Formula._unchecked(n, tuple(_records(lines, "clause", m, "literal", abs, bound=n)))


def parse_csp(text: str | bytes) -> CspFormula:
    """Parse 'p csp' text into a CspFormula.

    The scanner leaves only non-empty constraints of int pairs over
    distinct variables in 1..n with values in 1..d, so the CspFormula is
    built without validating its constraints again.
    """
    lines = _content_lines(text)
    (d, n, m), line = _header(
        lines, "csp", "constraint", ("domain size", "variable count", "constraint count")
    )
    if d < 1 or n < 0 or m < 0:
        raise ParseError("header counts out of range", line)

    def to_pairs(values: list[int]) -> list[tuple[int, int]]:
        if len(values) % 2 != 0:
            raise ParseError("constraint has a dangling variable without a value")
        pairs = list(zip(values[::2], values[1::2]))
        for v, c in pairs:
            if not 1 <= v <= n:
                raise ParseError(f"variable {v} out of range (header declares {n})")
            if not 1 <= c <= d:
                raise ParseError(f"value {c} outside domain 1..{d}")
        if not pairs:
            raise ParseError("constraint with zero literals")
        return pairs

    constraints = _records(lines, "constraint", m, "token", itemgetter(0), to_pairs)
    return CspFormula._unchecked(d, n, tuple(constraints))


def _write(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


def write_dimacs(f: Formula) -> str:
    """Canonical DIMACS text: header then one 0-terminated clause per line."""
    rows = (" ".join(map(str, (*clause, 0))) for clause in f.clauses)
    return _write(f"p cnf {f.num_vars} {len(f.clauses)}", rows)


def write_csp(f: CspFormula) -> str:
    """Canonical CSP text: header then one 0-terminated constraint per line."""
    rows = (" ".join([*(f"{v} {c}" for v, c in constraint), "0"]) for constraint in f.constraints)
    return _write(f"p csp {f.domain_size} {f.num_vars} {len(f.constraints)}", rows)


def write_code(code: CoveringCode) -> str:
    """Serialize a covering code: 'q t r size' header, one word per line."""
    if code.t < 1:
        raise ValueError("length-0 codes have no file representation")
    rows = (" ".join(map(str, word)) for word in code.words)
    return _write(f"{code.q} {code.t} {code.r} {len(code.words)}", rows)


def read_code(text: str | bytes) -> CoveringCode:
    """Parse a covering-code file. The verified flag is NOT restored; run
    verify_cover (or verifycode) to re-establish it."""
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("missing code header")
    head_line, head = lines[0]
    parts = head.split()
    if len(parts) != 4:
        raise ParseError(f"malformed code header {head!r}", head_line)
    q, t, r, size = _fields(parts, ("alphabet size", "word length", "radius", "code size"), head_line)
    if q < 2 or t < 1 or not 0 <= r <= t or size < 0:
        raise ParseError("code header values out of range", head_line)
    if len(lines) - 1 != size:
        raise ParseError(f"header declares {size} words, file has {len(lines) - 1}", head_line)
    words = []
    for lineno, line in lines[1:]:
        symbols = tuple(_ints(line, lineno, "symbol"))
        if len(symbols) != t:
            raise ParseError(f"word has length {len(symbols)}, expected {t}", lineno)
        for s in symbols:
            if not 1 <= s <= q:
                raise ParseError(f"symbol {s} outside alphabet 1..{q}", lineno)
        words.append(symbols)
    if len(set(words)) != len(words):
        raise ParseError("duplicate codeword in file")
    return CoveringCode._unchecked(q, t, r, tuple(sorted(words)))
