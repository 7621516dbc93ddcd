"""Policy language: parsing, semantic errors, and canonical serialization."""

import pytest
from hypothesis import given, settings, strategies as st

from enforcekit import (
    DefaultAction,
    EventKind,
    Instancing,
    MonitorAutomaton,
    PolicyParseError,
    PolicySemanticError,
    PolicySpec,
    TraceParseError,
    parse_document,
    parse_monitor,
    parse_policy,
    serialize_monitor,
    serialize_policy,
)
from enforcekit.dsl import _Token, _tokenize
from conftest import CATALOG, CATALOG_MONITORS, CATALOG_POLICIES, monitors, policies

CAMERA_TEXT = (CATALOG / "camera_release.policy").read_text()


def test_camera_policy_structure(camera_policy):
    assert camera_policy.name == "CameraRelease"
    assert camera_policy.instancing is Instancing.PER_COMPONENT
    assert camera_policy.automaton.states == ("FREE", "HELD")
    assert len(camera_policy.automaton.transitions) == 3
    assert len(camera_policy.alphabet) == 3
    assert camera_policy.automaton.default is DefaultAction.ALLOW
    assert camera_policy.statement.startswith("An activity that is paused")


def test_camera_repair_transition(camera_policy):
    (repair,) = [
        t
        for t in camera_policy.automaton.transitions
        if t.pattern.kind is EventKind.CALLBACK
    ]
    assert repair.source == "HELD" and repair.target == "FREE"
    assert repair.output.text() == "[api Camera.release, $in]"


def test_minimal_policy():
    spec = parse_policy("policy P initial S state S: end")
    assert spec.automaton.states == ("S",)
    assert spec.automaton.transitions == ()
    assert spec.alphabet == ()
    assert spec.instancing is Instancing.SINGLETON
    assert spec.statement == ""


def test_newlines_are_insignificant():
    flat = "policy P initial S state S: end"
    multi = "policy P\ninitial S\nstate S:\nend\n"
    assert parse_policy(flat) == parse_policy(multi)


def test_comments_are_skipped():
    text = "# leading\npolicy P # trailing\ninitial S\nstate S:\nend"
    assert parse_policy(text).name == "P"


def test_statement_escapes():
    spec = parse_policy('policy P statement "say \\"hi\\" \\\\ more" initial S state S: end')
    assert spec.statement == 'say "hi" \\ more'


class TestParseErrors:
    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("policy P initial S state S:", "missing 'end'"),
            ('policy P statement "oops\ninitial S state S: end', "unterminated string"),
            ("policy P initial S state S: end extra", "unexpected content after 'end'"),
            ("policy P initial S state S: on xx foo -> S emit [$in] end", "'cb' or 'api'"),
            ("policy P alphabet cb a initial S state S: on cb a -> S end", "expected 'emit'"),
            ("policy P instantiate sometimes initial S state S: end", "unknown instancing mode"),
            ("policy P default maybe initial S state S: end", "'allow' or 'suppress'"),
            ("policy P weird initial S state S: end", "unknown clause"),
        ],
    )
    def test_syntax_errors(self, text, fragment):
        with pytest.raises(PolicyParseError, match=fragment):
            parse_policy(text)

    def test_positions_are_one_based(self):
        with pytest.raises(PolicyParseError) as exc:
            parse_policy("policy P\ninitial S\nstate S: on xx a -> S emit [$in]\nend")
        assert exc.value.line == 3
        assert exc.value.column == 13


@pytest.mark.parametrize("cls", [PolicyParseError, PolicySemanticError, TraceParseError])
def test_positioned_errors(cls):
    err = cls("boom", 2, 3)
    assert isinstance(err, ValueError)
    assert (err.line, err.column, str(err)) == (2, 3, "line 2, column 3: boom")


def test_semantic_errors_are_not_syntax_errors():
    assert not issubclass(PolicySemanticError, PolicyParseError)
    assert not issubclass(PolicyParseError, PolicySemanticError)


class TestSemanticErrors:
    def test_unknown_target_state(self):
        text = "policy P alphabet cb a initial S state S: on cb a -> X emit [$in] end"
        with pytest.raises(PolicySemanticError, match="unknown state X"):
            parse_policy(text)

    def test_unknown_initial_state(self):
        with pytest.raises(PolicySemanticError, match="unknown state T"):
            parse_policy("policy P initial T state S: end")

    def test_duplicate_state(self):
        with pytest.raises(PolicySemanticError, match="duplicate state S"):
            parse_policy("policy P initial S state S: state S: end")

    def test_duplicate_initial_clause(self):
        with pytest.raises(PolicySemanticError, match="duplicate initial clause"):
            parse_policy("policy P initial S initial S state S: end")

    def test_off_alphabet_transition_pattern(self):
        text = "policy P alphabet cb a initial S state S: on cb b -> S emit [$in] end"
        with pytest.raises(PolicySemanticError, match="not in the alphabet"):
            parse_policy(text)

    def test_error_state_rejected_in_policy(self):
        with pytest.raises(PolicySemanticError, match="only allowed in monitors"):
            parse_policy("policy P initial S state S error: end")

    def test_emit_rejected_in_monitor(self):
        text = "monitor M alphabet cb a initial S state S: on cb a -> S emit [$in] end"
        with pytest.raises(PolicySemanticError, match="do not emit"):
            parse_monitor(text)

    def test_default_rejected_in_monitor(self):
        with pytest.raises(PolicySemanticError, match="no default clause"):
            parse_monitor("monitor M initial S state S: default allow end")

    def test_error_state_must_be_absorbing(self):
        text = (
            "monitor M alphabet cb a initial S "
            "state S: on cb a -> E "
            "state E error: on cb a -> S "
            "end"
        )
        with pytest.raises(PolicySemanticError, match="must not have outgoing"):
            parse_monitor(text)

    def test_binder_named_in_is_rejected(self):
        text = (
            "policy P instantiate per-binder k alphabet api a{k=$in} "
            "initial S state S: end"
        )
        with pytest.raises(PolicySemanticError, match="'\\$in' cannot be used"):
            parse_policy(text)

    @pytest.mark.parametrize("doc", ["policy", "monitor"])
    def test_duplicate_alphabet_pattern(self, doc):
        text = f"{doc} M alphabet api a, api a initial S state S: end"
        with pytest.raises(PolicySemanticError, match="duplicate alphabet pattern"):
            parse_document(text)

    def test_per_binder_without_binder_pattern(self):
        text = "policy P instantiate per-binder k alphabet cb a initial S state S: end"
        with pytest.raises(PolicySemanticError, match="per-binder"):
            parse_policy(text)


def test_parse_document_dispatches_on_leading_keyword(camera_policy):
    assert isinstance(parse_document(CAMERA_TEXT), PolicySpec)
    monitor_text = (CATALOG / "camera.monitor").read_text()
    assert isinstance(parse_document(monitor_text), MonitorAutomaton)


def test_monitor_error_states(camera_monitor):
    assert camera_monitor.error_states == frozenset({"LEAKED"})
    assert camera_monitor.initial == "FREE"
    assert all(t.output is None for t in camera_monitor.transitions)


# --- canonical serialization --------------------------------------------


@pytest.mark.parametrize("name", CATALOG_POLICIES)
def test_catalog_policy_round_trip(name):
    spec = parse_policy((CATALOG / name).read_text())
    assert parse_policy(serialize_policy(spec)) == spec


@pytest.mark.parametrize("name", CATALOG_MONITORS)
def test_catalog_monitor_round_trip(name):
    monitor = parse_monitor((CATALOG / name).read_text())
    assert parse_monitor(serialize_monitor(monitor)) == monitor


def test_serialization_is_stable(camera_policy):
    assert serialize_policy(camera_policy) == serialize_policy(camera_policy)


def test_minimal_policy_round_trip():
    spec = parse_policy("policy P initial S state S: end")
    text = serialize_policy(spec)
    reparsed = parse_policy(text)
    assert reparsed.automaton.states == ("S",)
    assert reparsed.automaton.transitions == ()
    assert reparsed == spec


# Random well-formed policies and monitors (see conftest): serialize ->
# parse reproduces them exactly.


@given(policies())
def test_random_policy_round_trip(spec):
    assert parse_policy(serialize_policy(spec)) == spec


@given(monitors())
def test_random_monitor_round_trip(monitor):
    text = serialize_monitor(monitor)
    assert parse_monitor(text) == monitor
    assert parse_document(text) == monitor


# --- lexer -----------------------------------------------------------------
#
# The character-by-character tokenizer that the compiled token pattern
# replaced, kept as the reference the pattern must agree with exactly:
# same tokens, or the same error message at the same line and column.

_IDENT_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-"
)
_PUNCT = {"{": "{", "}": "}", "[": "[", "]": "]", ",": ",", "=": "=", ":": ":"}


def reference_tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col, i = 1, 1, 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < size and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            chunks: list[str] = []
            while i < size and text[i] != '"':
                if text[i] == "\n":
                    raise PolicyParseError("unterminated string", start_line, start_col)
                if text[i] == "\\":
                    if i + 1 >= size or text[i + 1] not in ('"', "\\"):
                        raise PolicyParseError(
                            "bad escape in string (only \\\" and \\\\ are allowed)",
                            line,
                            col,
                        )
                    chunks.append(text[i + 1])
                    i += 2
                    col += 2
                    continue
                chunks.append(text[i])
                i += 1
                col += 1
            if i >= size:
                raise PolicyParseError("unterminated string", start_line, start_col)
            i += 1
            col += 1
            tokens.append(_Token("string", "".join(chunks), start_line, start_col))
            continue
        if ch == "-" and text[i + 1 : i + 2] == ">":
            tokens.append(_Token("arrow", "->", line, col))
            i += 2
            col += 2
            continue
        if ch == "$":
            start_col = col
            i += 1
            col += 1
            j = i
            while j < size and text[j] in _IDENT_CHARS:
                if text[j] == "-" and text[j + 1 : j + 2] == ">":
                    break
                j += 1
            if j == i:
                raise PolicyParseError("expected name after '$'", line, start_col)
            tokens.append(_Token("binder", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(_Token(_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch in _IDENT_CHARS:
            start_col = col
            j = i
            while j < size and text[j] in _IDENT_CHARS:
                if text[j] == "-" and text[j + 1 : j + 2] == ">":
                    break
                j += 1
            tokens.append(_Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        raise PolicyParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


def _lex(tokenize, text: str):
    try:
        return tokenize(text)
    except PolicyParseError as err:
        return type(err), str(err), err.line, err.column


DOCUMENT_TEXTS = [(CATALOG / name).read_text() for name in CATALOG_POLICIES + CATALOG_MONITORS]
LEXICAL_PIECES = [
    "->", "-", ">", "$", '"', "\\", "#", "\r", "\t", "\u00a0", "\u2028", "\n",
    " ", "é", "Ж", "ß", "a", "Z", "0", "_", ".", "{", "}", "[", "]", ",", "=", ":", "!",
]


@st.composite
def _mutated_document(draw) -> str:
    text = draw(st.sampled_from(DOCUMENT_TEXTS))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        how = draw(st.sampled_from(["cut", "drop", "insert"]))
        if how == "cut":
            text = text[:at]
        elif how == "drop":
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + draw(st.sampled_from(LEXICAL_PIECES)) + text[at:]
    return text


@settings(max_examples=300, deadline=None)
@given(_mutated_document() | st.lists(st.sampled_from(LEXICAL_PIECES)).map("".join))
def test_tokenizer_agrees_with_the_reference(text):
    assert _lex(_tokenize, text) == _lex(reference_tokenize, text)


@pytest.mark.parametrize("name", CATALOG_POLICIES + CATALOG_MONITORS)
def test_tokenizer_agrees_on_the_catalog(name):
    text = (CATALOG / name).read_text()
    assert _tokenize(text) == reference_tokenize(text)


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ('policy P\nstatement "ab', "unterminated string", 2, 11),
        ('policy P\nstatement "ab\n"', "unterminated string", 2, 11),
        ('policy P statement "a\\qb"', "bad escape in string", 1, 22),
        ('policy P statement "a\\', "bad escape in string", 1, 22),
        ("policy P alphabet api a{k=$}", "expected name after '$'", 1, 27),
        ("policy P alphabet api a{k=$->}", "expected name after '$'", 1, 27),
        ("policy P\n  on!", "unexpected character '!'", 2, 5),
        ("policy P # no end", "missing 'end'", 1, 10),
    ],
)
def test_lexical_error_positions(text, message, line, column):
    with pytest.raises(PolicyParseError) as exc:
        parse_policy(text)
    assert (exc.value.line, exc.value.column) == (line, column)
    assert str(exc.value).startswith(f"line {line}, column {column}: {message}")


def test_names_end_before_arrows():
    values = [(t.type, t.value) for t in _tokenize("S->T $b->U a-->")]
    assert values == [
        ("ident", "S"), ("arrow", "->"), ("ident", "T"),
        ("binder", "b"), ("arrow", "->"), ("ident", "U"),
        ("ident", "a-"), ("arrow", "->"), ("eof", ""),
    ]
