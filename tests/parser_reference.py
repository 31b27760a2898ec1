"""The polynomial parser as it was before terms were built in place: a
tokenizer that walks the text one character at a time, and a recursive
descent that forms a ``Poly`` for every number and variable and multiplies
them one ``Poly`` product at a time.  Only the tests read it, as the
reference ``poly.parse_poly`` must agree with: the same ``str(Poly)`` or the
same ``PolyParseError`` text on every input."""

from __future__ import annotations

from typing import Mapping

from wanas.poly import (
    _VAR_INDEX,
    MAX_DEGREE,
    MAX_NESTING,
    VARIABLES,
    DegreeOverflowError,
    Poly,
    PolyParseError,
    _int,
    is_digits,
)

_TOKEN_CHARS = {"+", "-", "*", "/", "^", "(", ")"}


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    text = text.replace("**", "^")
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _TOKEN_CHARS:
            tokens.append(ch)
            i += 1
        elif is_digits(ch):
            j = i
            while j < len(text) and is_digits(text[j]):
                j += 1
            if j < len(text) and text[j] == ".":
                raise PolyParseError(
                    f"decimal literals are not allowed (near {text[i:j + 2]!r}); use p/q"
                )
            tokens.append(text[i:j])
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise PolyParseError(f"unexpected character {ch!r} in {text!r}")
    return tokens


class _Parser:
    def __init__(self, tokens: list[str], names: Mapping[str, Poly]):
        self.tokens = tokens
        self.pos = self.depth = 0
        self.names = names

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise PolyParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse_expr(self) -> Poly:
        result = self.parse_term()  # a leading sign is the first factor's
        while self.peek() in ("+", "-"):
            op = self.take()
            term = self.parse_term()
            result = result + term if op == "+" else result - term
        return result

    def parse_term(self) -> Poly:
        result = self.parse_factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.parse_factor()
            if op == "*":
                result = result * rhs
            else:
                if not rhs.is_constant() or rhs.is_zero():
                    raise PolyParseError(
                        f"can only divide by a nonzero rational constant, got {rhs}"
                    )
                result = result / rhs.constant_value()
        return result

    def parse_factor(self) -> Poly:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        base = self.parse_atom()
        if self.peek() == "^":
            self.take()
            exp_tok = self.take()
            if not is_digits(exp_tok):
                raise PolyParseError(f"exponent must be a non-negative integer, got {exp_tok!r}")
            # a prefix one digit longer than the bound's, so no int() of a long literal
            exponent = int(exp_tok.lstrip("0")[: len(str(MAX_DEGREE)) + 1] or 0)
            if exponent > MAX_DEGREE:
                raise PolyParseError(f"exponent {exp_tok} is above {MAX_DEGREE}, the limit of a monomial's degree")
            base = base**exponent
        return -base if sign < 0 else base

    def parse_atom(self) -> Poly:
        tok = self.take()
        if tok == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise PolyParseError(f"parentheses nest deeper than {MAX_NESTING} levels")
            inner = self.parse_expr()
            if self.take() != ")":
                raise PolyParseError("unbalanced parentheses")
            self.depth -= 1
            return inner
        if is_digits(tok):
            return Poly.const(_int(tok))
        if tok in _VAR_INDEX:
            return Poly.var(tok)
        if tok in self.names:
            return self.names[tok]
        allowed = list(VARIABLES) + sorted(self.names)
        raise PolyParseError(f"unknown name {tok!r}; expected one of {', '.join(allowed)}")


def reference_parse(text: str, names: Mapping[str, Poly] | None = None) -> Poly:
    """``parse_poly`` through the reference tokenizer and parser."""
    parser = _Parser(_tokenize(text), names or {})
    try:
        result = parser.parse_expr()
    except DegreeOverflowError as exc:
        raise PolyParseError(str(exc)) from None
    if parser.peek() is not None:
        raise PolyParseError(f"trailing input at {parser.peek()!r} in {text!r}")
    return result
