"""Expressions for the coefficient G and the free term g: functions of the
point z, the node value tau and the curve parameter t.

Grammar (left associative, ^ binds tightest, then unary minus, then * /,
then + -):

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | factor
    factor := atom ("^" exponent)?
    atom   := number | "i" | "rho" | "z" | "tau" | "t" | "(" expr ")"
            | ("exp" | "ln" | "inv") "(" expr ")"

Numbers are decimal reals; a trailing "i" makes an imaginary literal, so
"2i" is one token.  Exponents are integers, optionally parenthesized and
signed: z^2, tau^(-3).  Division multiplies by the inverse (the algebra is
commutative).  Constant subtrees built from literals with + - * fold to a
single literal at parse time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .algebra import (
    DualComplex,
    PointE,
    dc_add,
    dc_exp,
    dc_inv,
    dc_ln,
    dc_mul,
    dc_neg,
    dc_pow_int,
    dc_sub,
)
from .errors import (
    ExprSyntaxError,
    UnboundVariableError,
    UnknownIdentifierError,
)

VARIABLES = ("z", "tau", "t")
FUNCTIONS = ("exp", "ln", "inv")


# -- nodes --------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    c1: complex
    c2: complex = 0j

    def value(self) -> DualComplex:
        return DualComplex(self.c1, self.c2)


@dataclass(frozen=True)
class Var:
    name: str  # "z" | "tau" | "t"


@dataclass(frozen=True)
class Bin:
    op: str  # "+" | "-" | "*" | "/"
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    n: int


@dataclass(frozen=True)
class Call:
    fn: str  # "exp" | "ln" | "inv"
    arg: "Expr"


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


Expr = Union[Const, Var, Bin, Pow, Call, Neg]


def is_expr(f) -> bool:
    """True when ``f`` is an expression node rather than a callable or samples."""
    return isinstance(f, Expr)


# -- lexer --------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "imag" | "ident" | an operator/paren char | "end"
    text: str
    pos: int


def _lex(text: str) -> list[_Token]:
    toks: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            toks.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            # trailing "i" glues into an imaginary literal unless it starts
            # a longer identifier ("2in..." is a syntax error downstream)
            if j < n and text[j] == "i" and (j + 1 >= n or not text[j + 1].isalnum()):
                toks.append(_Token("imag", text[i:j], i))
                j += 1
            else:
                toks.append(_Token("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            toks.append(_Token("ident", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    toks.append(_Token("end", "", n))
    return toks


# -- parser -------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _lex(text)
        self.k = 0

    def peek(self) -> _Token:
        return self.toks[self.k]

    def take(self) -> _Token:
        tok = self.toks[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                                  tok.pos)
        return self.take()

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected {tok.text!r} after expression", tok.pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            rhs = self.term()
            e = _fold_bin(op, e, rhs)
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.take().kind
            rhs = self.unary()
            e = _fold_bin(op, e, rhs)
        return e

    def unary(self) -> Expr:
        if self.peek().kind == "-":
            self.take()
            return _fold_neg(self.unary())
        return self.factor()

    def factor(self) -> Expr:
        base = self.atom()
        if self.peek().kind == "^":
            self.take()
            n = self.exponent()
            return _fold_pow(base, n)
        return base

    def exponent(self) -> int:
        tok = self.peek()
        if tok.kind == "(":
            self.take()
            n = self.signed_int()
            self.expect(")")
            return n
        return self.signed_int()

    def signed_int(self) -> int:
        sign = 1
        tok = self.peek()
        if tok.kind in ("+", "-"):
            self.take()
            sign = -1 if tok.kind == "-" else 1
            tok = self.peek()
        if tok.kind != "num" or "." in tok.text:
            raise ExprSyntaxError("expected an integer exponent", tok.pos)
        self.take()
        return sign * int(tok.text)

    def atom(self) -> Expr:
        tok = self.take()
        if tok.kind == "num":
            return Const(complex(float(tok.text)))
        if tok.kind == "imag":
            return Const(complex(0.0, float(tok.text)))
        if tok.kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        if tok.kind == "ident":
            name = tok.text
            if name == "i":
                return Const(1j)
            if name == "rho":
                return Const(0j, 1 + 0j)
            if name in VARIABLES:
                return Var(name)
            if name in FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(name, arg)
            raise UnknownIdentifierError(name, tok.pos)
        raise ExprSyntaxError(f"unexpected {tok.text or 'end of input'!r}", tok.pos)


def parse(text: str) -> Expr:
    """Parse an expression string into an immutable tree."""
    return _Parser(text).parse()


# -- constant folding / smart constructors ------------------------------------

def _fold_bin(op: str, a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const) and op in ("+", "-", "*"):
        va, vb = a.value(), b.value()
        v = {"+": dc_add, "-": dc_sub, "*": dc_mul}[op](va, vb)
        return Const(v.c1, v.c2)
    return Bin(op, a, b)


def _fold_neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        v = dc_neg(a.value())
        return Const(v.c1, v.c2)
    return Neg(a)


def _fold_pow(base: Expr, n: int) -> Expr:
    if isinstance(base, Const) and n >= 0:
        v = dc_pow_int(base.value(), n)
        return Const(v.c1, v.c2)
    return Pow(base, n)


# -- structure queries ---------------------------------------------------------

def is_const_value(e: Expr, c1: complex, c2: complex = 0j) -> bool:
    return isinstance(e, Const) and e.c1 == c1 and e.c2 == c2


# -- printing ------------------------------------------------------------------

def _num_str(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return np.format_float_positional(x, trim="-")


def _const_str(e: Const) -> str:
    parts = []
    if e.c1 != 0 or e.c2 == 0:
        re, im = e.c1.real, e.c1.imag
        if im == 0:
            parts.append(_num_str(re))
        elif re == 0:
            parts.append(f"{_num_str(im)}i" if im != 1 else "i")
        else:
            parts.append(f"{_num_str(re)}+{_num_str(im)}i" if im >= 0
                         else f"{_num_str(re)}-{_num_str(-im)}i")
    if e.c2 != 0:
        re, im = e.c2.real, e.c2.imag
        if im == 0:
            coef = _num_str(re)
        elif re == 0:
            coef = f"{_num_str(im)}i"
        else:
            coef = f"({_num_str(re)}+{_num_str(im)}i)" if im >= 0 \
                else f"({_num_str(re)}-{_num_str(-im)}i)"
        term = "rho" if coef == "1" else f"{coef}*rho"
        parts.append(term)
    s = "+".join(parts).replace("+-", "-")
    needs_parens = ("+" in s[1:] or "-" in s[1:] or "*" in s)
    return f"({s})" if needs_parens else s


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_str(e: Expr, parent_prec: int = 0) -> str:
    if isinstance(e, Const):
        s = _const_str(e)
        # "-2^2" would read as -(2^2): a negative literal binds like a negation
        return f"({s})" if s.startswith("-") and parent_prec > _PREC["neg"] else s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        s = "-" + to_str(e.arg, _PREC["neg"])
        return f"({s})" if parent_prec > _PREC["neg"] else s
    if isinstance(e, Call):
        return f"{e.fn}({to_str(e.arg)})"
    if isinstance(e, Pow):
        base = to_str(e.base, _PREC["^"] + 1)
        n = str(e.n) if e.n >= 0 else f"({e.n})"
        s = f"{base}^{n}"
        return f"({s})" if parent_prec > _PREC["^"] else s
    if isinstance(e, Bin):
        prec = _PREC[e.op]
        left = to_str(e.left, prec)
        right = to_str(e.right, prec + 1)  # left associative
        s = f"{left}{e.op}{right}"
        return f"({s})" if parent_prec > prec else s
    raise TypeError(f"not an expression node: {e!r}")


# -- evaluation ----------------------------------------------------------------

def _bind(value) -> DualComplex:
    if isinstance(value, DualComplex):
        return value
    if isinstance(value, PointE):
        return value.value()
    if isinstance(value, (int, float, np.ndarray)):
        arr = np.asarray(value, dtype=complex)
        if arr.ndim == 0:
            return DualComplex(complex(arr), 0j)
        return DualComplex(arr, np.zeros_like(arr))
    raise TypeError(f"cannot bind {type(value).__name__} to a variable")


def evaluate(e: Expr, z=None, tau=None, t=None) -> DualComplex:
    """Evaluate with algebra semantics; '/' is multiplication by the inverse."""
    env = {}
    if z is not None:
        env["z"] = _bind(z)
    if tau is not None:
        env["tau"] = _bind(tau)
    if t is not None:
        env["t"] = _bind(t)
    return _eval(e, env)


def _eval(e: Expr, env: dict) -> DualComplex:
    if isinstance(e, Const):
        return e.value()
    if isinstance(e, Var):
        if e.name not in env:
            raise UnboundVariableError(e.name)
        return env[e.name]
    if isinstance(e, Neg):
        return dc_neg(_eval(e.arg, env))
    if isinstance(e, Pow):
        return dc_pow_int(_eval(e.base, env), e.n)
    if isinstance(e, Call):
        v = _eval(e.arg, env)
        if e.fn == "exp":
            return dc_exp(v)
        if e.fn == "ln":
            return dc_ln(v)
        return dc_inv(v)
    if isinstance(e, Bin):
        a = _eval(e.left, env)
        b = _eval(e.right, env)
        if e.op == "+":
            return dc_add(a, b)
        if e.op == "-":
            return dc_sub(a, b)
        if e.op == "*":
            return dc_mul(a, b)
        return dc_mul(a, dc_inv(b))
    raise TypeError(f"not an expression node: {e!r}")

