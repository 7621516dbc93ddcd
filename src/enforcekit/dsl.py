"""Textual grammar for enforcement policies and safety monitors.

Both document kinds share one grammar. A policy::

    policy CameraRelease
    statement "..."
    instantiate per-component
    alphabet api Camera.open, api Camera.release, cb onPause
    initial FREE
    state FREE:
      on api Camera.open -> HELD emit [$in]
    state HELD:
      on api Camera.release -> FREE emit [$in]
      on cb onPause -> FREE emit [api Camera.release, $in]
    default allow
    end

A monitor starts with ``monitor`` instead of ``policy``, its transitions
carry no ``emit`` clause, states may be flagged ``error`` (``state LEAKED
error:``), and there is no ``default`` line: unmatched alphabet events
self-loop. Indentation is not significant; names, binders, strings,
comments and error positions follow "Lexical rules" in the README.

This module owns the grammar and nothing more. The spec constructors in
:mod:`enforcekit.policy` own the rules (unique states, a known initial
state and targets, patterns from the alphabet, absorbing error states), and
the parser only adds a position to their errors: the token of the state or
transition at fault, or else the document head.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Union

from .events import _IDENT_CHAR, _KINDS, _PositionedError
from .policy import (
    INPUT,
    Binder,
    Constraint,
    DefaultAction,
    EventPattern,
    Instancing,
    InputRef,
    Literal,
    MonitorAutomaton,
    OutputTemplate,
    PolicySpec,
    Transition,
    _SpecError,
)

__all__ = [
    "PolicyParseError",
    "PolicySemanticError",
    "parse_policy",
    "parse_monitor",
    "parse_document",
    "serialize_policy",
    "serialize_monitor",
]


class PolicyParseError(_PositionedError):
    """Syntax error in a policy or monitor file (1-based line/column)."""


class PolicySemanticError(_PositionedError):
    """The text parses but breaks a rule of its document kind or of the spec."""


class _Token(NamedTuple):
    type: str  # ident | string | binder | arrow | { } [ ] , = : | eof
    value: str
    line: int
    col: int


# A name is a run of identifier characters that stops before "->", so
# "S->T" lexes as S, ->, T.
_NAME = rf"(?:(?!->){_IDENT_CHAR})+"
_STRING_BODY = r'(?:[^"\\\n]|\\["\\])*'
_TOKEN_RE = re.compile(
    rf"""(?P<newline>\n)
    |(?P<space>[^\S\n]+)
    |(?P<comment>\#[^\n]*)
    |"(?P<string>{_STRING_BODY})"
    |(?P<arrow>->)
    |\$(?P<binder>{_NAME})
    |(?P<punct>[{{}}\[\],=:])
    |(?P<ident>{_NAME})""",
    re.VERBOSE,
)
_STRING_PREFIX_RE = re.compile(_STRING_BODY)


def _lex_error(text: str, pos: int, line: int, line_start: int) -> PolicyParseError:
    """The error for ``text[pos]``, where no token starts."""
    ch = text[pos]
    col = pos - line_start + 1
    if ch == '"':
        stop = _STRING_PREFIX_RE.match(text, pos + 1).end()
        if text[stop : stop + 1] == "\\":
            return PolicyParseError(
                "bad escape in string (only \\\" and \\\\ are allowed)",
                line,
                stop - line_start + 1,
            )
        return PolicyParseError("unterminated string", line, col)
    if ch == "$":
        return PolicyParseError("expected name after '$'", line, col)
    return PolicyParseError(f"unexpected character {ch!r}", line, col)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start, pos = 1, 0, 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise _lex_error(text, pos, line, line_start)
        kind = match.lastgroup
        value = match[kind]
        if kind == "newline":
            line, line_start = line + 1, match.end()
        elif kind == "comment":
            if match.end() == len(text):
                break  # EOF after a trailing comment is placed at its '#'
        elif kind != "space":
            if kind == "string":
                value = re.sub(r"\\(.)", r"\1", value)
            type_ = value if kind == "punct" else kind
            tokens.append(_Token(type_, value, line, pos - line_start + 1))
        pos = match.end()
    tokens.append(_Token("eof", "", line, pos - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, type_: str, what: str | None = None) -> _Token:
        token = self.peek()
        if token.type != type_:
            wanted = what or f"'{type_}'"
            raise _syntax(f"expected {wanted}, got {token.value!r}", token)
        return self.next()

    def expect_keyword(self, keyword: str) -> _Token:
        token = self.peek()
        if token.type != "ident" or token.value != keyword:
            raise _syntax(f"expected '{keyword}', got {token.value!r}", token)
        return self.next()

    def at_keyword(self, *keywords: str) -> bool:
        token = self.peek()
        return token.type == "ident" and token.value in keywords


def _syntax(message: str, token: _Token) -> PolicyParseError:
    return PolicyParseError(message, token.line, token.col)


def _semantic(message: str, token: _Token) -> PolicySemanticError:
    return PolicySemanticError(message, token.line, token.col)


def _parse_constraints(parser: _Parser) -> tuple[tuple[str, Constraint], ...]:
    """Parse ``{key=value, key=$var, ...}`` after a pattern or item name."""
    parser.expect("{")
    pairs: list[tuple[str, Constraint]] = []
    while True:
        key_tok = parser.expect("ident", "attribute key")
        parser.expect("=")
        value_tok = parser.next()
        constraint: Constraint
        if value_tok.type == "ident":
            constraint = Literal(value_tok.value)
        elif value_tok.type == "binder":
            if value_tok.value == "in":
                raise _semantic("'$in' cannot be used as a binder name", value_tok)
            constraint = Binder(value_tok.value)
        else:
            raise _syntax(
                f"expected literal or $binder, got {value_tok.value!r}", value_tok
            )
        pairs.append((key_tok.value, constraint))
        if parser.peek().type == ",":
            parser.next()
            continue
        parser.expect("}")
        return tuple(pairs)


def _parse_pattern(parser: _Parser) -> EventPattern:
    kind_tok = parser.expect("ident", "'cb' or 'api'")
    if kind_tok.value not in _KINDS:
        raise _syntax(f"expected 'cb' or 'api', got {kind_tok.value!r}", kind_tok)
    name_tok = parser.expect("ident", "event name")
    constraints: tuple[tuple[str, Constraint], ...] = ()
    if parser.peek().type == "{":
        constraints = _parse_constraints(parser)
    try:
        return EventPattern(_KINDS[kind_tok.value], name_tok.value, constraints)
    except ValueError as err:
        raise _semantic(str(err), name_tok) from err


def _parse_template(parser: _Parser) -> OutputTemplate:
    parser.expect("[")
    items: list[Union[InputRef, EventPattern]] = []
    if parser.peek().type != "]":
        while True:
            token = parser.peek()
            if token.type == "binder":
                parser.next()
                if token.value != "in":
                    raise _semantic(
                        f"expected '$in' or a synthesized event, got '${token.value}'",
                        token,
                    )
                items.append(INPUT)
            else:
                items.append(_parse_pattern(parser))
            if parser.peek().type == ",":
                parser.next()
                continue
            break
    close = parser.expect("]")
    try:
        return OutputTemplate(tuple(items))
    except ValueError as err:
        raise _semantic(str(err), close) from err


def _parse(text: str, doc: str | None) -> PolicySpec | MonitorAutomaton:
    """Parse one document; ``doc`` is "policy", "monitor" or None for either.

    With None the leading keyword decides, and anything but ``monitor``
    is read as a policy, so errors name the policy grammar.
    """
    parser = _Parser(text)
    if doc is None:
        doc = "monitor" if parser.at_keyword("monitor") else "policy"
    is_monitor = doc == "monitor"
    head = parser.expect_keyword(doc)
    name = parser.expect("ident", f"{doc} name").value
    statement: str | None = None
    instancing: Instancing | None = None
    binder_attr: str | None = None
    alphabet: list[EventPattern] | None = None
    initial: _Token | None = None
    default: DefaultAction | None = None
    state_toks: list[_Token] = []  # each state's name, in declaration order
    error_states: set[str] = set()
    transitions: list[Transition] = []
    on_toks: list[_Token] = []  # each transition's 'on'

    def reject_duplicate(value, clause: str, token: _Token):
        if value is not None:
            raise _semantic(f"duplicate {clause} clause", token)

    while True:
        token = parser.peek()
        if token.type == "eof":
            raise _syntax("missing 'end'", token)
        if token.type != "ident":
            raise _syntax(f"expected a clause keyword, got {token.value!r}", token)
        keyword = token.value
        if keyword == "end":
            parser.next()
            break
        if keyword == "statement":
            reject_duplicate(statement, "statement", token)
            parser.next()
            statement = parser.expect("string", "quoted statement").value
        elif keyword == "instantiate":
            reject_duplicate(instancing, "instantiate", token)
            parser.next()
            mode_tok = parser.expect("ident", "instancing mode")
            try:
                instancing = Instancing(mode_tok.value)
            except ValueError:
                message = f"unknown instancing mode {mode_tok.value!r}"
                raise _syntax(message, mode_tok) from None
            if instancing is Instancing.PER_BINDER:
                binder_attr = parser.expect("ident", "binder attribute key").value
        elif keyword == "alphabet":
            reject_duplicate(alphabet, "alphabet", token)
            parser.next()
            alphabet = [_parse_pattern(parser)]
            while parser.peek().type == ",":
                parser.next()
                alphabet.append(_parse_pattern(parser))
        elif keyword == "initial":
            reject_duplicate(initial, "initial", token)
            parser.next()
            initial = parser.expect("ident", "state name")
        elif keyword == "state":
            parser.next()
            name_tok = parser.expect("ident", "state name")
            state_toks.append(name_tok)
            if parser.at_keyword("error"):
                error_tok = parser.next()
                if not is_monitor:
                    raise _semantic(
                        "error states are only allowed in monitors", error_tok
                    )
                error_states.add(name_tok.value)
            parser.expect(":")
            while parser.at_keyword("on"):
                on_toks.append(parser.next())
                pattern = _parse_pattern(parser)
                parser.expect("arrow", "'->'")
                target_tok = parser.expect("ident", "target state")
                output: OutputTemplate | None = None
                if parser.at_keyword("emit"):
                    emit_tok = parser.next()
                    if is_monitor:
                        raise _semantic("monitor transitions do not emit", emit_tok)
                    output = _parse_template(parser)
                elif not is_monitor:
                    after = parser.peek()
                    raise _syntax("expected 'emit' after the target state", after)
                transitions.append(Transition(name_tok.value, pattern, target_tok.value, output))
        elif keyword == "default":
            reject_duplicate(default, "default", token)
            parser.next()
            if is_monitor:
                raise _semantic(
                    "monitors have no default clause (unmatched events self-loop)",
                    token,
                )
            action_tok = parser.expect("ident", "'allow' or 'suppress'")
            try:
                default = DefaultAction(action_tok.value)
            except ValueError:
                message = f"expected 'allow' or 'suppress', got {action_tok.value!r}"
                raise _syntax(message, action_tok) from None
        else:
            raise _syntax(f"unknown clause {keyword!r}", token)

    trailing = parser.peek()
    if trailing.type != "eof":
        raise _syntax(f"unexpected content after 'end': {trailing.value!r}", trailing)

    if not state_toks:
        raise _syntax(f"{doc} declares no states", trailing)
    if initial is None:
        raise _syntax(f"{doc} has no initial state", trailing)
    shared = dict(
        name=name,
        states=tuple(tok.value for tok in state_toks),
        initial=initial.value,
        transitions=tuple(transitions),
        alphabet=tuple(alphabet or ()),
        instancing=instancing or Instancing.SINGLETON,
        binder_attr=binder_attr,
        statement=statement or "",
    )
    # The constructor checks the rules; an error that names a state or a
    # transition is placed at its token, and any other at the document head.
    try:
        if is_monitor:
            return MonitorAutomaton(**shared, error_states=frozenset(error_states))
        return PolicySpec(**shared, default=default or DefaultAction.ALLOW)
    except ValueError as err:
        field_name, index = err.where if isinstance(err, _SpecError) else ("head", 0)
        tokens = {"initial": [initial], "states": state_toks, "transitions": on_toks}
        raise _semantic(str(err), tokens.get(field_name, [head])[index]) from err


def parse_policy(text: str) -> PolicySpec:
    """Parse one ``policy ... end`` document into a :class:`PolicySpec`."""
    return _parse(text, "policy")  # type: ignore[return-value]


def parse_monitor(text: str) -> MonitorAutomaton:
    """Parse one ``monitor ... end`` document into a :class:`MonitorAutomaton`."""
    return _parse(text, "monitor")  # type: ignore[return-value]


def parse_document(text: str) -> PolicySpec | MonitorAutomaton:
    """Parse either document kind, deciding by the leading keyword."""
    return _parse(text, None)


def _escape(statement: str) -> str:
    return statement.replace("\\", "\\\\").replace('"', '\\"')


def _serialize(doc: PolicySpec | MonitorAutomaton) -> str:
    """Canonical text of either document kind; ``_parse`` reads it back equal."""
    is_monitor = isinstance(doc, MonitorAutomaton)
    lines = [f"{doc.kind} {doc.name}"]
    if doc.statement:
        lines.append(f'statement "{_escape(doc.statement)}"')
    instantiate = f"instantiate {doc.instancing.value}"
    if doc.instancing is Instancing.PER_BINDER:
        instantiate += f" {doc.binder_attr}"
    lines.append(instantiate)
    if doc.alphabet:
        lines.append("alphabet " + ", ".join(p.text() for p in doc.alphabet))
    lines.append(f"initial {doc.initial}")
    for state in doc.states:
        flag = " error" if is_monitor and state in doc.error_states else ""
        lines.append(f"state {state}{flag}:")
        for t in doc.transitions:
            if t.source == state:
                emit = "" if t.output is None else f" emit {t.output.text()}"
                lines.append(f"  on {t.pattern.text()} -> {t.target}{emit}")
    if not is_monitor:
        lines.append(f"default {doc.default.value}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def serialize_policy(spec: PolicySpec) -> str:
    """Render the canonical text form; stable across calls and round-trips.

    ``parse_policy(serialize_policy(s))`` structurally equals ``s``.
    """
    return _serialize(spec)


def serialize_monitor(monitor: MonitorAutomaton) -> str:
    """Render the canonical monitor text; the round-trip twin of the above."""
    return _serialize(monitor)
