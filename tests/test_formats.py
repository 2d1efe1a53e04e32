import random
import warnings

import pytest

from coversat.cnf import Formula
from coversat.codes import CoveringCode
from coversat.csp import CspFormula
from coversat.errors import ParseError, ParseWarning
from coversat.formats import (
    input_kind,
    parse_csp,
    parse_dimacs,
    read_code,
    write_code,
    write_csp,
    write_dimacs,
)

from helpers import rand_csp, rand_formula


class TestParseDimacs:
    def test_minimal(self):
        assert parse_dimacs("p cnf 1 1\n1 0\n") == Formula(1, [[1]])

    def test_comments_and_widths(self):
        f = parse_dimacs("c comment\np cnf 3 2\n1 -2 3 0\n-1 2 0\n")
        assert f.num_vars == 3
        assert f.clauses == ((1, -2, 3), (-1, 2))

    def test_variable_out_of_range(self):
        with pytest.raises(ParseError) as err:
            parse_dimacs("p cnf 2 1\n3 0\n")
        assert err.value.line == 2

    def test_crlf_and_bytes(self):
        assert parse_dimacs(b"p cnf 2 1\r\n1 2 0\r\n") == Formula(2, [[1, 2]])

    def test_clause_spanning_lines(self):
        assert parse_dimacs("p cnf 3 1\n1 2\n3 0\n") == Formula(3, [[1, 2, 3]])

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_dimacs("1 0\n")
        with pytest.raises(ParseError, match="header"):
            parse_dimacs("")

    def test_non_integer_token(self):
        with pytest.raises(ParseError) as err:
            parse_dimacs("p cnf 2 1\n1 x 0\n")
        assert err.value.line == 2

    def test_unterminated_clause(self):
        with pytest.raises(ParseError, match="unterminated"):
            parse_dimacs("p cnf 2 1\n1 2\n")

    def test_count_mismatch_warns_but_parses(self):
        with pytest.warns(ParseWarning):
            f = parse_dimacs("p cnf 2 5\n1 0\n")
        assert len(f.clauses) == 1

    def test_duplicate_literals_deduplicated(self):
        assert parse_dimacs("p cnf 2 1\n1 1 2 0\n") == Formula(2, [[1, 2]])

    def test_tautological_clause_dropped(self):
        f = parse_dimacs("p cnf 2 2\n1 -1 0\n2 0\n")
        assert f == Formula(2, [[2]])

    def test_empty_clause_accepted(self):
        f = parse_dimacs("p cnf 2 1\n0\n")
        assert f.clauses == ((),)

    def test_non_ascii_rejected(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 1 1\n1 0\n".encode("utf-16"))


class TestParseCsp:
    def test_single_literal(self):
        g = parse_csp("p csp 3 1 1\n1 2 0\n")
        assert g.domain_size == 3
        assert g.constraints == (((1, 2),),)

    def test_three_literals(self):
        g = parse_csp("p csp 3 3 1\n1 1 2 2 3 3 0\n")
        assert g.constraints == (((1, 1), (2, 2), (3, 3)),)

    def test_value_out_of_domain(self):
        with pytest.raises(ParseError, match="domain"):
            parse_csp("p csp 2 1 1\n1 3 0\n")

    def test_dangling_pair(self):
        with pytest.raises(ParseError, match="dangling"):
            parse_csp("p csp 3 2 1\n1 2 2 0\n")

    def test_missing_terminator(self):
        with pytest.raises(ParseError, match="unterminated"):
            parse_csp("p csp 3 2 1\n1 2\n")

    def test_variable_out_of_range(self):
        with pytest.raises(ParseError):
            parse_csp("p csp 3 2 1\n5 1 0\n")

    def test_zero_literal_constraint_rejected(self):
        with pytest.raises(ParseError, match="zero literals"):
            parse_csp("p csp 3 2 1\n0\n")

    def test_duplicate_pair_deduplicated(self):
        g = parse_csp("p csp 3 2 1\n1 2 1 2 2 1 0\n")
        assert g.constraints == (((1, 2), (2, 1)),)

    def test_tautological_constraint_dropped(self):
        with pytest.warns(ParseWarning):
            g = parse_csp("p csp 3 2 2\n1 1 1 2 0\n")
        assert g.constraints == ()

    def test_count_mismatch_warns(self):
        with pytest.warns(ParseWarning):
            parse_csp("p csp 3 2 9\n1 1 0\n")


class TestCodeFiles:
    def test_radius_zero_full_space_example(self):
        code = CoveringCode(3, 1, 0, ((1,), (2,), (3,)))
        assert write_code(code) == "3 1 0 3\n1\n2\n3\n"
        assert read_code("3 1 0 3\n1\n2\n3\n") == code

    def test_symbol_out_of_alphabet(self):
        with pytest.raises(ParseError):
            read_code("3 2 1 1\n4 1\n")

    def test_length_zero_code_not_written(self):
        with pytest.raises(ValueError, match="length-0"):
            write_code(CoveringCode(2, 0, 0, ((),)))

    def test_word_length_mismatch(self):
        with pytest.raises(ParseError, match="length"):
            read_code("3 2 1 1\n1\n")

    def test_size_mismatch(self):
        with pytest.raises(ParseError, match="words"):
            read_code("3 1 0 2\n1\n")

    def test_duplicate_words_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            read_code("2 2 1 2\n1 2\n1 2\n")

    def test_unsorted_words_sorted(self):
        code = read_code("2 1 0 2\n2\n1\n")
        assert code.words == ((1,), (2,))
        assert code.verified is False

    def test_verified_flag_not_restored_but_equality_holds(self):
        code = CoveringCode(2, 2, 2, ((1, 1),), verified=True)
        back = read_code(write_code(code))
        assert back == code
        assert back.verified is False


def _rand_code(rng: random.Random) -> CoveringCode:
    q = rng.randint(2, 4)
    t = rng.randint(1, 5)
    size = rng.randint(1, 6)
    words = {tuple(rng.randint(1, q) for _ in range(t)) for _ in range(size)}
    return CoveringCode(q, t, rng.randint(0, t), tuple(words))


# Inputs with one fault each: (parser, text, line, message) of the ParseError.
PARSE_FAULTS = [
    ("dimacs", "p cnf 2 1\n1 x 0\n", 2, "expected integer literal, got 'x'"),
    ("dimacs", "1 0\n", 1, "clause data before 'p cnf' header: '1 0'"),
    ("dimacs", "c only a comment\n", None, "missing 'p cnf' header"),
    ("dimacs", "p cnf 2 1\np cnf 2 1\n1 0\n", 2, "duplicate header"),
    ("dimacs", "p cnf 2\n1 0\n", 1, "malformed header 'p cnf 2'"),
    ("dimacs", "p cnf -1 0\n", 1, "header counts must be non-negative"),
    ("dimacs", "p cnf x 1\n", 1, "expected integer variable count, got 'x'"),
    ("dimacs", "p cnf 2 1\n3 1\n2 0\n", 2, "variable 3 out of range (header declares 2)"),
    ("dimacs", "p cnf 2 1\n1\n-3 0\n", 3, "variable 3 out of range (header declares 2)"),
    ("dimacs", "p cnf 2 2\n1 0\n1 2\n", 3, "unterminated clause at end of input (missing 0)"),
    ("csp", "p csp 3 2 1\n1 2 2 0\n", 2, "constraint has a dangling variable without a value"),
    ("csp", "p csp 2 1 1\n1 3 0\n", 2, "value 3 outside domain 1..2"),
    ("csp", "p csp 3 2 1\n1 1\n5 1 0\n", 3, "variable 5 out of range (header declares 2)"),
    ("csp", "p csp 3 2 1\n0\n", 2, "constraint with zero literals"),
    ("csp", "p csp 3 2 1\n1 2\n\n2 1\n", 2, "unterminated constraint at end of input (missing 0)"),
    ("csp", "p csp 0 2 1\n", 1, "header counts out of range"),
    ("csp", "p cnf 3 2 1\n", 1, "malformed header 'p cnf 3 2 1'"),
    ("csp", "p csp 3 2 1\n1 2 2 y 0\n", 2, "expected integer token, got 'y'"),
    ("code", "3 2 1 1\n4 1\n", 2, "symbol 4 outside alphabet 1..3"),
    ("code", "3 2 1 1\n1\n", 2, "word has length 1, expected 2"),
    ("code", "3 1 0 2\n1\n", 1, "header declares 2 words, file has 1"),
    ("code", "2 2 1 2\n1 2\n1 2\n", None, "duplicate codeword in file"),
    ("code", "c comment\n3 2 1\n", 2, "malformed code header '3 2 1'"),
    ("code", "3 x 1 1\n", 1, "expected integer word length, got 'x'"),
    ("code", "1 2 0 1\n1 1\n", 1, "code header values out of range"),
    ("code", "3 2 1 1\n1 +\n", 2, "expected integer symbol, got '+'"),
]
PARSERS = {"dimacs": parse_dimacs, "csp": parse_csp, "code": read_code}


@pytest.mark.parametrize("kind, text, line, message", PARSE_FAULTS)
def test_parse_fault_names_message_and_line(kind, text, line, message):
    with pytest.raises(ParseError) as err:
        PARSERS[kind](text)
    assert err.value.line == line
    assert str(err.value) == (message if line is None else f"line {line}: {message}")


@pytest.mark.parametrize(
    "kind, text, line, token",
    [
        ("dimacs", "p cnf 1_0 1\n1 0\n", 1, "1_0"),
        ("dimacs", "p cnf 20 1\n1 1_0 0\n", 2, "1_0"),
        ("dimacs", "p cnf 2 1\n\u0661 0\n", 2, "\u0661"),
        ("csp", "p csp 3 2 1\n1 2_0 0\n", 2, "2_0"),
        ("csp", "p csp 3 1_0 1\n1 2 0\n", 1, "1_0"),
        ("code", "3 1_0 1 1\n1\n", 1, "1_0"),
        ("code", "3 2 1 1\n1 +_2\n", 2, "+_2"),
    ],
)
def test_integer_tokens_are_sign_and_ascii_digits(kind, text, line, token):
    # int() also reads "1_0" as 10 and accepts non-ASCII digits
    with pytest.raises(ParseError, match="expected integer") as err:
        PARSERS[kind](text)
    assert err.value.line == line
    assert repr(token) in str(err.value)


def test_signs_and_leading_zeros_accepted():
    assert parse_dimacs("p cnf 02 +1\n+1 -02 -0\n") == Formula(2, [[1, -2]])


def test_non_ascii_whitespace_separates_tokens():
    assert parse_dimacs("p cnf 2 1\n1\u00a02 0\n") == Formula(2, [[1, 2]])


def test_token_beyond_int_digit_limit_is_parse_error():
    with pytest.raises(ParseError) as err:
        parse_dimacs("p cnf 2 1\n" + "1" * 5000 + " 0\n")
    assert err.value.line == 2


def _dimacs_token(rng: random.Random, u: int) -> str:
    sign = "-" if u < 0 else rng.choice(["", "", "+"])
    return sign + "0" * rng.randint(0, 1) + str(abs(u))


def _record_text(rng: random.Random, header: str, tokens: list[str]) -> str:
    """tokens under the header, cut into lines at random, with comment and
    blank lines between them."""
    lines = [header]
    while tokens:
        cut = rng.randint(1, 4)
        lines.append(rng.choice([" ", "  ", "\t"]).join(tokens[:cut]))
        tokens = tokens[cut:]
        lines.extend(rng.choice([[], [], ["c note"], [""]]))
    return "\n".join(lines) + "\n"


def test_fuzzed_dimacs_equals_validating_constructor():
    # parse_dimacs skips Formula's clause validation: for every file it
    # accepts, the result must equal Formula(n, clauses) on the clauses a
    # plain reading gives (first occurrence of each literal kept, clauses
    # with x and -x dropped), and a file with a fault must still raise
    rng = random.Random(2027)
    faults = 0
    for _ in range(400):
        n = rng.randint(0, 6)
        records = [
            [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(0, 5) if n else 0)]
            for _ in range(rng.randint(0, 6))
        ]
        tokens = [_dimacs_token(rng, u) for record in records for u in (*record, 0)]
        fault = rng.choice([None, None, None, "range", "token", "unterminated"])
        if fault == "range":
            tokens.insert(rng.randint(0, len(tokens)), str(rng.choice((1, -1)) * (n + 1)))
        elif fault == "token":
            tokens.insert(rng.randint(0, len(tokens)), rng.choice(["x", "1.5", "--1", "1_0"]))
        elif fault == "unterminated":
            tokens.append(_dimacs_token(rng, rng.randint(1, n + 1)))
        m = rng.choice([len(records), rng.randint(0, 8)])
        text = _record_text(rng, f"p cnf {n} {m}", tokens)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ParseWarning)
            if fault is not None:
                faults += 1
                with pytest.raises(ParseError):
                    parse_dimacs(text)
                continue
            parsed = parse_dimacs(text)
        kept = [tuple(dict.fromkeys(r)) for r in records if not any(-u in r for u in r)]
        expected = Formula(n, tuple(kept))
        assert parsed == expected
        assert hash(parsed) == hash(expected)
        assert all(type(u) is int for clause in parsed.clauses for u in clause)
        assert parsed.literal_masks == expected.literal_masks
        assert parsed.max_width == expected.max_width
    assert faults > 50


def test_fuzzed_csp_equals_validating_constructor():
    # parse_csp skips CspFormula's constraint validation: for every file it
    # accepts, the result must equal CspFormula(d, n, constraints) on the
    # constraints a plain reading gives (first occurrence of each pair kept,
    # constraints giving one variable two values dropped), and a file with a
    # fault must still raise
    rng = random.Random(2028)
    faults = 0
    for _ in range(400):
        d, n = rng.randint(1, 4), rng.randint(0, 6)
        records = [
            [(rng.randint(1, n), rng.randint(1, d)) for _ in range(rng.randint(1, 4))]
            for _ in range(rng.randint(0, 6) if n else 0)
        ]
        tokens = []
        boundaries = [0]  # token positions where a record may start
        for record in records:
            tokens += [_dimacs_token(rng, x) for pair in record for x in pair] + ["0"]
            boundaries.append(len(tokens))
        fault = rng.choice([None, None, None, "variable", "value", "dangling", "empty", "token"])
        # inserted inside a record, a fault record splits it into two, and
        # one of them is then faulty or has an odd number of values
        at = rng.randint(0, len(tokens))
        if fault == "variable":
            tokens[at:at] = [str(rng.choice((0, n + 1, -1))), "1", "0"]
        elif fault == "value":
            tokens[at:at] = ["1", str(rng.choice((0, d + 1, -1))), "0"]
        elif fault == "dangling":
            tokens[at:at] = ["1", "0"]
        elif fault == "empty":
            at = rng.choice(boundaries)
            tokens[at:at] = ["0"]
        elif fault == "token":
            tokens.insert(at, rng.choice(["x", "1.5", "--1", "1_0"]))
        text = _record_text(rng, f"p csp {d} {n} {len(records)}", tokens)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ParseWarning)
            if fault is not None:
                faults += 1
                with pytest.raises(ParseError):
                    parse_csp(text)
                continue
            parsed = parse_csp(text)
        kept = [
            tuple(dict.fromkeys(r)) for r in records if len(dict(r)) == len(dict.fromkeys(r))
        ]
        expected = CspFormula(d, n, tuple(kept))
        assert parsed == expected
        assert hash(parsed) == hash(expected)
        assert all(type(x) is int for con in parsed.constraints for pair in con for x in pair)
        assert all(type(pair) is tuple for con in parsed.constraints for pair in con)
        assert parsed.max_width == expected.max_width
        (masks, getters, rows), want = parsed._restriction, expected._restriction
        assert (masks, rows) == (want[0], want[2])
        # itemgetters do not compare by value: apply both to one probe tuple
        probe = tuple(range(n * d))
        assert [g(probe) for g in getters] == [g(probe) for g in want[1]]
    assert faults > 150


class TestInputKind:
    def test_kind_from_first_content_line(self):
        assert input_kind(b"c x\n\np csp 3 1 1\n1 2 0\n") == "csp"
        assert input_kind("p cnf 1 1\n1 0\n") == "cnf"
        assert input_kind("1 0\n") == "cnf"
        assert input_kind("") == "cnf"

    def test_body_not_parsed(self):
        assert input_kind("p csp 3 1 1\nnot a constraint\n") == "csp"

    def test_first_line_found_across_prefixes(self):
        # input_kind splits growing prefixes of a str: wherever one cuts the
        # header or a CRLF pair, the kind is that of the whole first line
        for pad in range(2200):
            for sep in ("\n", "\r\n", "\r"):
                text = "c" + "x" * pad + sep + "p csp 3 1 1" + sep + "1 2 0" + sep
                assert input_kind(text) == "csp", (pad, sep)
        assert input_kind(b"c" * 5000 + b"\r\n  p csp 3 1 1\r\n") == "csp"
        assert input_kind("c" * 5000 + "\n") == "cnf"


class TestRoundTrips:
    def test_dimacs_round_trip(self):
        rng = random.Random(2024)
        for _ in range(200):
            f = rand_formula(rng, rng.randint(1, 8), rng.randint(0, 10))
            text = write_dimacs(f)
            assert parse_dimacs(text) == f
            assert write_dimacs(parse_dimacs(text)) == text

    def test_csp_round_trip(self):
        rng = random.Random(2025)
        for _ in range(200):
            g = rand_csp(rng, rng.randint(2, 4), rng.randint(1, 6), rng.randint(0, 6))
            text = write_csp(g)
            assert parse_csp(text) == g
            assert write_csp(parse_csp(text)) == text

    def test_code_round_trip(self):
        rng = random.Random(2026)
        for _ in range(200):
            code = _rand_code(rng)
            text = write_code(code)
            assert read_code(text) == code
            assert write_code(read_code(text)) == text

    def test_arbitrary_bytes_never_crash(self):
        rng = random.Random(4096)
        for _ in range(300):
            blob = bytes(rng.randrange(256) for _ in range(rng.randint(0, 80)))
            for parser in (parse_dimacs, parse_csp, read_code):
                try:
                    parser(blob)
                except ParseError:
                    pass
