"""Tokeniser and recursive-descent parser for the `.bsx` scene language.

Grammar::

    scene      := (factordecl)* setdecl
    factordecl := "factor" IDENT "=" poly ";"
    setdecl    := "set" "S" "=" clause ("|" clause)* ";"
    clause     := "{" atom ("," atom)* "}"
    atom       := (IDENT | poly) REL "0"
    REL        := ">" | "<" | ">=" | "<=" | "==" | "!="

Polynomials use rational coefficients, variables x and y, ``^`` and ``*``.
Implicit products ("3x", "x y") are also accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bipoly import BiPoly
from .errors import InternalError, ParseError
from .scene import RELS, Atom, Clause, Scene


@dataclass
class _Tok:
    kind: str  # NUM IDENT OP END
    text: str
    line: int
    col: int


_OPS = (">=", "<=", "==", "!=", ">", "<", "=", ";", ",", "{", "}", "|", "+", "-", "*", "^", "(", ")", "/")


def _tokenize(src: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col = 1, 1
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and src[i] != "\n":
                i += 1
            continue
        matched = False
        for op in _OPS:
            if src.startswith(op, i):
                toks.append(_Tok("OP", op, line, col))
                i += len(op)
                col += len(op)
                matched = True
                break
        if matched:
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            toks.append(_Tok("NUM", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(_Tok("IDENT", src[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(line, col, f"token (got {ch!r})")
    toks.append(_Tok("END", "", line, col))
    return toks


class _P:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> _Tok:
        t = self.peek()
        if t.text != text:
            raise ParseError(t.line, t.col, repr(text))
        return self.next()

    def fail(self, expected: str):
        t = self.peek()
        raise ParseError(t.line, t.col, expected)


# -- polynomial expressions ------------------------------------------------------


def _parse_poly_expr(p: _P, stop: tuple[str, ...]) -> BiPoly:
    return _sum(p, stop)


def _sum(p: _P, stop: tuple[str, ...]) -> BiPoly:
    neg = False
    if p.peek().text in ("+", "-"):
        neg = p.next().text == "-"
    acc = _product(p, stop)
    if neg:
        acc = -acc
    while p.peek().text in ("+", "-"):
        op = p.next().text
        term = _product(p, stop)
        acc = acc + term if op == "+" else acc - term
    return acc


def _product(p: _P, stop: tuple[str, ...]) -> BiPoly:
    acc = _power(p, stop)
    while True:
        t = p.peek()
        if t.text == "*":
            p.next()
            acc = acc * _power(p, stop)
        elif t.text == "/":
            p.next()
            d = p.peek()
            if d.kind != "NUM" or int(d.text) == 0:
                p.fail("nonzero integer denominator")
            p.next()
            acc = acc.scale(Fraction(1, int(d.text)))
        elif t.kind in ("NUM", "IDENT") or t.text == "(":
            # implicit product
            if t.text in stop:
                break
            acc = acc * _power(p, stop)
        else:
            break
    return acc


def _power(p: _P, stop: tuple[str, ...]) -> BiPoly:
    base = _atom_poly(p, stop)
    if p.peek().text == "^":
        p.next()
        e = p.peek()
        if e.kind != "NUM":
            p.fail("integer exponent")
        p.next()
        return base ** int(e.text)
    return base


def _atom_poly(p: _P, stop: tuple[str, ...]) -> BiPoly:
    t = p.peek()
    if t.text == "(":
        p.next()
        inner = _sum(p, (")",))
        p.expect(")")
        return inner
    if t.kind == "NUM":
        p.next()
        return BiPoly.const(int(t.text))
    if t.kind == "IDENT":
        if t.text == "x":
            p.next()
            return BiPoly.x()
        if t.text == "y":
            p.next()
            return BiPoly.y()
        p.fail("polynomial in x, y")
    p.fail("polynomial")
    raise InternalError("Parser.fail returned")


def parse_polynomial(text: str) -> BiPoly:
    p = _P(_tokenize(text))
    poly = _parse_poly_expr(p, ())
    if p.peek().kind != "END":
        p.fail("end of polynomial")
    return poly


# -- scene files -------------------------------------------------------------------


def parse_scene_text(src: str):
    """Parse a full scene file; returns a Scene (factors auto-registered)."""

    p = _P(_tokenize(src))
    factors: dict[str, BiPoly] = {}
    order: list[str] = []

    while p.peek().text == "factor":
        p.next()
        name_tok = p.peek()
        if name_tok.kind != "IDENT" or name_tok.text in ("x", "y", "set", "factor"):
            p.fail("factor name")
        p.next()
        p.expect("=")
        poly = _parse_poly_expr(p, (";",))
        p.expect(";")
        if name_tok.text in factors:
            raise ParseError(name_tok.line, name_tok.col, f"fresh name ({name_tok.text} already declared)")
        factors[name_tok.text] = poly
        order.append(name_tok.text)

    p.expect("set")
    s_tok = p.peek()
    if s_tok.text != "S":
        p.fail('"S"')
    p.next()
    p.expect("=")

    clauses: list[list[tuple[str | BiPoly, str]]] = []
    while True:
        p.expect("{")
        atoms: list[tuple[str | BiPoly, str]] = []
        while True:
            # atom: IDENT REL 0  (IDENT a declared factor)  or  poly REL 0
            t = p.peek()
            subject: str | BiPoly
            if t.kind == "IDENT" and t.text in factors:
                nxt = p.toks[p.i + 1]
                if nxt.text in RELS:
                    subject = t.text
                    p.next()
                else:
                    subject = _parse_poly_expr(p, RELS)
            else:
                subject = _parse_poly_expr(p, RELS)
            rel_tok = p.peek()
            if rel_tok.text not in RELS:
                p.fail("relation (one of > < >= <= == !=)")
            p.next()
            zero = p.peek()
            if zero.kind != "NUM" or int(zero.text) != 0:
                p.fail('"0"')
            p.next()
            atoms.append((subject, rel_tok.text))
            if p.peek().text == ",":
                p.next()
                continue
            break
        p.expect("}")
        clauses.append(atoms)
        if p.peek().text == "|":
            p.next()
            continue
        break
    p.expect(";")
    if p.peek().kind != "END":
        p.fail("end of file")

    return Scene.build(factors, order, clauses)
