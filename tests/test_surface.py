"""Tests for the surface syntax (lexer, parser, printer)."""

from __future__ import annotations

import hashlib

import pytest

from repro.core.bag import Bag, EMPTY_BAG, Tup
from repro.core.errors import ParseError
from repro.core.eval import evaluate
from repro.core.expr import (
    AdditiveUnion, Attribute, Cartesian, Const, Dedup, Intersection,
    Map, MaxUnion, Powerbag, Powerset, Select, Subtraction, Var, var,
)
from repro.surface import parse, to_text, tokenize
from repro.testkit import generate_case

#: Frozen from the character-at-a-time scanner the master regex
#: replaced: ``(text, tokens)`` or ``(text, (message, position))``.
_LEXER_PINS = [
    ("", [("EOF", "", 0)]),
    ("'", ("unclosed string literal", 0)),
    ("x'", ("unclosed string literal", 1)),
    ("alpha", [("KEYWORD", "alpha", 0), ("EOF", "", 5)]),
    ("alpha12", [("ALPHA", "alpha12", 0), ("EOF", "", 7)]),
    ("alpha12x", [("IDENT", "alpha12x", 0), ("EOF", "", 8)]),
    ("alpha\u0663", [("ALPHA", "alpha\u0663", 0), ("EOF", "", 6)]),
    ("(+", ("unexpected character '+'", 1)),
    ("(+)(+", ("unexpected character '+'", 4)),
    ("{{{", ("unexpected character '{'", 2)),
    ("}}}", ("unexpected character '}'", 2)),
    ("B ? B", ("unexpected character '?'", 2)),
    ("<==", [("LE", "<=", 0), ("EQ", "=", 2), ("EOF", "", 3)]),
    ("a\tb\r\nc", [("IDENT", "a", 0), ("IDENT", "b", 2),
                   ("IDENT", "c", 5), ("EOF", "", 6)]),
    # only space, tab, CR and LF are blank
    ("\xa0", ("unexpected character '\\xa0'", 0)),
    ("a\x0bb", ("unexpected character '\\x0b'", 1)),
    # str.isalpha / isalnum / isdigit, not [A-Za-z0-9]
    ("\xe9t\xe9 \u0436_1", [("IDENT", "\xe9t\xe9", 0),
                           ("IDENT", "\u0436_1", 4), ("EOF", "", 7)]),
    ("\u0663\u0664 12\xb2 x\xb2",
     [("INT", "\u0663\u0664", 0), ("INT", "12\xb2", 3),
      ("IDENT", "x\xb2", 7), ("EOF", "", 9)]),
    ("12ab", [("INT", "12", 0), ("IDENT", "ab", 2), ("EOF", "", 4)]),
    # numeric but neither digit nor letter: cannot start a token
    ("\xbd", ("unexpected character '\xbd'", 0)),
    ("a\xbd", [("IDENT", "a\xbd", 0), ("EOF", "", 2)]),
    ("_x1 __", [("IDENT", "_x1", 0), ("IDENT", "__", 4),
                ("EOF", "", 6)]),
    ("'a\nb' ''", [("STRING", "a\nb", 0), ("STRING", "", 6),
                   ("EOF", "", 8)]),
    ("'it''s'", [("STRING", "it", 0), ("STRING", "s", 4),
                 ("EOF", "", 7)]),
    ("P('x' (+) {{['a',42]}})-u!=<=<;:",
     [("KEYWORD", "P", 0), ("LPAREN", "(", 1), ("STRING", "x", 2),
      ("ADDUNION", "(+)", 6), ("LBAG", "{{", 10), ("LBRACKET", "[", 12),
      ("STRING", "a", 13), ("COMMA", ",", 16), ("INT", "42", 17),
      ("RBRACKET", "]", 19), ("RBAG", "}}", 20), ("RPAREN", ")", 22),
      ("MINUS", "-", 23), ("KEYWORD", "u", 24), ("NE", "!=", 25),
      ("LE", "<=", 27), ("LT", "<", 29), ("SEMI", ";", 30),
      ("COLON", ":", 31), ("EOF", "", 32)]),
]


class TestLexer:
    def test_keywords_vs_identifiers(self):
        kinds = {token.text: token.kind for token in tokenize("P B eps")}
        assert kinds["P"] == "KEYWORD"
        assert kinds["B"] == "IDENT"
        assert kinds["eps"] == "KEYWORD"

    def test_alpha_with_index(self):
        tokens = tokenize("alpha12(t)")
        assert tokens[0].kind == "ALPHA"
        assert tokens[0].text == "alpha12"

    def test_multi_char_punctuation(self):
        kinds = [token.kind for token in tokenize("(+) != <= {{ }}")]
        assert kinds[:5] == ["ADDUNION", "NE", "LE", "LBAG", "RBAG"]

    def test_strings_and_ints(self):
        tokens = tokenize("'hello' 42")
        assert tokens[0].kind == "STRING"
        assert tokens[0].text == "hello"
        assert tokens[1].kind == "INT"

    def test_unclosed_string(self):
        with pytest.raises(ParseError):
            tokenize("'oops")

    def test_bad_character(self):
        with pytest.raises(ParseError):
            tokenize("B ? B")

    @pytest.mark.parametrize("text, expected", _LEXER_PINS)
    def test_pinned_streams_and_errors(self, text, expected):
        if isinstance(expected, list):
            assert [(token.kind, token.text, token.position)
                    for token in tokenize(text)] == expected
            return
        with pytest.raises(ParseError) as info:
            tokenize(text)
        error = info.value
        assert (error.args[0], error.position) == expected
        assert error.text == text

    def test_generated_corpus_digest(self):
        """500 printed ``testkit.generate`` expressions tokenize to
        the stream the old scanner produced (32 887 tokens)."""
        digest, count = hashlib.sha256(), 0
        for index in range(500):
            case = generate_case(7, index, fragment="mixed")
            tokens = tokenize(to_text(case.expr))
            count += len(tokens)
            digest.update(repr([(token.kind, token.text, token.position)
                                for token in tokens]).encode())
        assert count == 32887
        assert digest.hexdigest() == (
            "609047d6b547567483f46cc641afbe67"
            "5b9cab259c7213e4fa90e4b26beddef4")


class TestParser:
    def test_binary_operators(self):
        assert isinstance(parse("A (+) B"), AdditiveUnion)
        assert isinstance(parse("A - B"), Subtraction)
        assert isinstance(parse("A u B"), MaxUnion)
        assert isinstance(parse("A n B"), Intersection)
        assert isinstance(parse("A x B"), Cartesian)

    def test_precedence_product_tightest(self):
        expr = parse("A (+) B x C")
        assert isinstance(expr, AdditiveUnion)
        assert isinstance(expr.right, Cartesian)

    def test_precedence_extremes_over_sum(self):
        expr = parse("A - B n C")
        assert isinstance(expr, Subtraction)
        assert isinstance(expr.right, Intersection)

    def test_left_associativity(self):
        expr = parse("A - B - C")
        assert isinstance(expr, Subtraction)
        assert isinstance(expr.left, Subtraction)

    def test_parentheses(self):
        expr = parse("A - (B - C)")
        assert isinstance(expr.right, Subtraction)

    def test_unary_operators(self):
        assert isinstance(parse("P(B)"), Powerset)
        assert isinstance(parse("Pb(B)"), Powerbag)
        assert isinstance(parse("eps(B)"), Dedup)

    def test_attribute(self):
        expr = parse("alpha2(t)")
        assert isinstance(expr, Attribute)
        assert expr.index == 2

    def test_projection_sugar(self):
        expr = parse("pi[2,1](B)")
        assert isinstance(expr, Map)

    def test_map_and_sigma(self):
        expr = parse("sigma[t: alpha1(t) = 'a'](B)")
        assert isinstance(expr, Select)
        assert expr.op == "eq"
        assert parse("sigma[t: alpha1(t) != 'a'](B)").op == "ne"
        assert parse("sigma[t: alpha1(t) <= 'a'](B)").op == "le"
        assert parse("sigma[t: alpha1(t) < 'a'](B)").op == "lt"

    def test_bag_literal(self):
        expr = parse("{{'a', 'a', 'b'}}")
        assert isinstance(expr, Const)
        assert expr.value.multiplicity("a") == 2

    def test_bag_literal_of_tuples(self):
        expr = parse("{{['b', 1], ['b', 2]}}")
        assert Tup("b", 1) in expr.value

    def test_heterogeneous_literal_rejected(self):
        from repro.core.errors import HeterogeneousBagError
        with pytest.raises(HeterogeneousBagError):
            parse("{{'a', ['b', 1]}}")

    def test_empty_bag_literal(self):
        assert parse("{{}}") == Const(EMPTY_BAG)

    def test_ifp(self):
        from repro.machines import Ifp
        expr = parse("ifp[X: X u B; B]")
        assert isinstance(expr, Ifp)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("B B")

    def test_missing_paren(self):
        with pytest.raises(ParseError):
            parse("P(B")

    def test_keyword_misuse(self):
        with pytest.raises(ParseError):
            parse("u(B)")


class TestRoundTrip:
    CASES = [
        "B (+) B",
        "(B - C) u (C - B)",
        "pi[1,4](sigma[t: alpha2(t) = alpha3(t)](B x B))",
        "delta(P(B))",
        "Pb({{'a', 'a'}})",
        "map[t: tau(alpha2(t), 'k')](B)",
        "eps(B) n eps(C)",
        "beta(tau('a', 'b'))",
        "sigma[t: alpha1(t) <= 2](B)",
        "ifp[X: X u pi[1](B); eps(pi[1](B))]",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_parse_print_parse(self, text):
        first = parse(text)
        second = parse(to_text(first))
        assert first == second

    @pytest.mark.parametrize("text", CASES[:8])
    def test_semantics_preserved(self, text):
        B = Bag.of(Tup("a", "b", "a", "b"), Tup("b", "a", "b", "a"))
        # use a 4-ary bag so every projection/attribute in CASES is
        # well-typed where applicable; fall back when typing differs
        env = {"B": B, "C": B}
        first = parse(text)
        second = parse(to_text(first))
        try:
            expected = evaluate(first, env)
        except Exception:
            pytest.skip("case not typeable over the fixture bag")
        assert evaluate(second, env) == expected

    def test_internal_lambda_names_printable(self):
        """Derived expressions use '·'-prefixed parameters, which the
        printer renames into lexable names."""
        from repro.core.derived import parity_even_expr
        expr = parity_even_expr(var("R"))
        text = to_text(expr)
        reparsed = parse(text)
        R = Bag.of(Tup(1), Tup(2))
        assert evaluate(reparsed, R=R) == evaluate(expr, R=R)


class TestNestedRoundTrip:
    """Printer/parser round trips on expressions over *nested* bag
    types — the shapes the differential harness's ``surface`` backend
    exercises (nest/unnest, bag literals inside tuples, lambdas whose
    bodies build bags)."""

    NESTED_CASES = [
        "nest[2](B)",
        "unnest[2](nest[2](B))",
        "nest[1,2](B x B)",
        "map[t: tau(alpha1(t), beta(alpha2(t)))](B)",
        "sigma[t: alpha2(t) = {{'a', 'a'}}](N)",
        "{{['a', {{'b', 'b'}}], ['a', {{'b', 'b'}}]}}",
        "map[t: beta(tau(t))](delta(beta(beta('a'))))",
        "eps(nest[2](B)) (+) nest[2](B)",
    ]

    @pytest.mark.parametrize("text", NESTED_CASES)
    def test_parse_print_parse(self, text):
        first = parse(text)
        second = parse(to_text(first))
        assert first == second

    @pytest.mark.parametrize("text", NESTED_CASES)
    def test_nested_semantics_preserved(self, text):
        B = Bag.of(Tup("a", "b"), Tup("a", "b"), Tup("a", "c"))
        N = Bag.of(Tup("x", Bag.of("a", "a")),
                   Tup("y", Bag.of("b")))
        env = {"B": B, "N": N}
        first = parse(text)
        expected = evaluate(first, env)
        assert evaluate(parse(to_text(first)), env) == expected

    def test_generated_nested_cases_round_trip(self):
        """Every testkit-generated case (nested types, derived sugar)
        must survive ``parse(to_text(e))`` semantically."""
        from repro.core.eval import Evaluator
        from repro.testkit import generate_case
        for index in range(25):
            case = generate_case(31, index, fragment="balg3")
            reparsed = parse(to_text(case.expr))
            try:
                expected = Evaluator().run(case.expr, case.database)
            except Exception:
                continue  # ungoverned blow-up; harness covers these
            assert Evaluator().run(reparsed, case.database) == expected

    def test_renamed_nest_under_lambda_round_trips(self):
        """'·'-prefixed parameters force the printer's renaming
        substitution; a Nest under the renamed lambda must survive it
        (regression: substitute() used to rebuild Nest with no
        indices)."""
        from repro.core.expr import Lam, Map, Tupling
        from repro.core.nest import Nest
        inner = Nest(Const(Bag.of(Tup("a", "b"), Tup("a", "b"))), 1)
        expr = Map(Lam("·h", Tupling(var("·h"))),
                   Map(Lam("·g", inner), var("R")))
        R = Bag.of(Tup("z"))
        text = to_text(expr)
        assert evaluate(parse(text), R=R) == evaluate(expr, R=R)
