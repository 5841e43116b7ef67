"""Concrete syntax: lexer, parser, and pretty printer.

Source files use extension ``.pql``, UTF-8 encoding, and ``#`` line
comments.  A program is a sequence of declarations (``var``, ``sig``,
``fun``) followed by an optional main expression.

An integer literal is a run of decimal digits, the digits ``int`` reads
(``١٢`` is 12); another digit, such as ``²``, is an unexpected character.
An identifier starts with a letter or ``_``.  A few identifiers (``sig``,
``database``, ``from``, ``readonly``, ``tablekeys``, ``not``, ``mod``)
have a special meaning only in position.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .errors import ParseError
from . import syntax as S
from . import values as V

KEYWORDS = frozenset(
    """fun var query lineage table with where prov data default for if else
    empty insert values update set delete true false""".split()
)

# One alternative per token kind, tried after the blanks and `#` comments
# that precede it; multi-character symbols come before their prefixes.
# Every position matches some alternative (`bad` at worst, `eof` at the
# end), so `finditer` walks the text without gaps.
_TOKEN = re.compile(
    r"(?:[ \t\r]|#[^\n]*)*"
    r"(?:(?P<sym><--|<-|->|==|<>|&&|\|\||\+\+|[|(){}\[\],;:.=<>+\-*!])"
    r"|(?P<ident>[^\W\d]\w*)"
    r"|(?P<nl>\n)"
    r"|(?P<num>\d+)"
    r'|(?P<str>"[^"\\]*(?:\\[\s\S][^"\\]*)*")'
    r"|(?P<eof>\Z)"
    r"|(?P<bad>.))"
)
_ESCAPE = re.compile(r"\\([\s\S])")
_ESCAPES = {"n": "\n", "t": "\t"}


@dataclass(slots=True)
class Token:
    kind: str  # 'num' | 'str' | 'ident' | 'kw' | 'sym' | 'eof'
    text: str
    line: int
    col: int

    @property
    def span(self) -> S.Span:
        return S.Span(self.line, self.col)


def tokenize(text: str) -> list[Token]:
    """The tokens of `text`, ending with one `eof` token.  A token's column
    counts characters from the start of its line, a tab as one; `\\n` and
    `\\t` escapes in a string literal stand for newline and tab, and any
    other escaped character for itself."""
    toks: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        tok, start = m[kind], m.start(kind)
        col = start - line_start + 1
        if kind == "sym":
            toks.append(Token("sym", tok, line, col))
        elif kind == "ident":
            if not (tok[0].isalpha() or tok[0] == "_"):
                # a digit that is not decimal, such as '²'
                raise ParseError(f"unexpected character {tok[0]!r}", S.Span(line, col))
            toks.append(Token("kw" if tok in KEYWORDS else "ident", tok, line, col))
        elif kind == "nl":
            line += 1
            line_start = start + 1
        elif kind == "num":
            toks.append(Token("num", tok, line, col))
        elif kind == "str":
            body = tok[1:-1]
            if "\\" in body:
                body = _ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[1]), body)
            toks.append(Token("str", body, line, col))
            # a raw newline in the literal starts a new line
            if "\n" in tok:
                line += tok.count("\n")
                line_start = start + tok.rfind("\n") + 1
        elif kind == "eof":
            break
        else:
            what = "unterminated string literal" if tok == '"' else f"unexpected character {tok!r}"
            raise ParseError(what, S.Span(line, col))
    # after a closing comment, the end is where the comment starts
    comment = text.find("#", m.start())
    if comment >= 0:
        col = comment - line_start + 1
    toks.append(Token("eof", "", line, col))
    return toks


@dataclass
class Declaration:
    name: str
    expr: S.Expr
    sig: Optional[S.Type] = None
    span: Optional[S.Span] = None


@dataclass
class SourceProgram:
    decls: list[Declaration] = field(default_factory=list)
    main: Optional[S.Expr] = None

    def as_expr(self) -> S.Expr:
        """Fold the declarations into nested let-bindings around main."""
        if self.main is None:
            raise ParseError("program has no main expression")
        out = self.main
        for d in reversed(self.decls):
            if isinstance(d.expr, S.DatabaseRef):
                continue
            out = S.Let(d.name, d.expr, out, span=d.span)
        return out


_STATEMENT_STARTS = {"for", "where", "var", "insert"}


# How far past the current token the parser looks: `peek(k)` for k <= 2.
_LOOKAHEAD = 2
_WORD_KINDS = frozenset(("sym", "kw", "ident"))


class Parser:
    def __init__(self, text: str):
        toks = tokenize(text)
        # the eof token repeated, so that peeking past the end reads eof
        self.toks = toks + [toks[-1]] * _LOOKAHEAD
        self.pos = 0
        self.declared_names: set[str] = set()
        self.in_program = False

    # -- token helpers ------------------------------------------------------

    def peek(self, k: int = 0) -> Token:
        return self.toks[self.pos + k]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, text: str, k: int = 0) -> bool:
        t = self.toks[self.pos + k]
        return t.text == text and t.kind in _WORD_KINDS

    def eat(self, text: str) -> Token:
        if not self.at(text):
            t = self.peek()
            raise ParseError(
                f"expected {text!r}, found {t.text or 'end of input'!r}",
                t.span,
                expected=(text,),
            )
        return self.next()

    def eat_ident(self, what: str = "identifier") -> Token:
        t = self.peek()
        if t.kind != "ident":
            raise ParseError(f"expected {what}, found {t.text or 'end of input'!r}", t.span)
        return self.next()

    # -- program ------------------------------------------------------------

    def parse_program(self) -> SourceProgram:
        self.in_program = True
        prog = SourceProgram()
        pending_sigs: dict[str, S.Type] = {}
        declared: set[str] = set()
        while True:
            t = self.peek()
            if t.kind == "eof":
                break
            if t.kind == "ident" and t.text == "sig" and self.peek(1).kind == "ident":
                self.next()
                name = self.eat_ident().text
                self.eat(":")
                pending_sigs[name] = self.parse_type()
                if self.at(";"):
                    self.next()
                continue
            if self.at("var") and self.peek(1).kind == "ident" and self.at("=", 2):
                span = self.next().span
                name = self.eat_ident().text
                self.eat("=")
                expr = self.parse_expr()
                self.eat(";")
                self._declare(prog, declared, name, expr, pending_sigs, span)
                continue
            if self.at("fun") and self.peek(1).kind == "ident":
                span = self.peek().span
                expr = self.parse_atom()
                assert isinstance(expr, S.Fun) and expr.fname
                if self.at(";"):
                    self.next()
                self._declare(prog, declared, expr.fname, expr, pending_sigs, span)
                continue
            prog.main = self.parse_expr()
            t = self.peek()
            if t.kind != "eof":
                raise ParseError(f"unexpected {t.text!r} after main expression", t.span)
            break
        for name in pending_sigs:
            if name not in declared:
                raise ParseError(f"signature for undeclared name {name!r}")
        return prog

    def _declare(self, prog, declared, name, expr, sigs, span):
        if name in declared:
            raise ParseError(f"duplicate declaration of {name!r}", span)
        declared.add(name)
        self.declared_names.add(name)
        prog.decls.append(Declaration(name, expr, sigs.get(name), span))

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> S.Expr:
        t = self.peek()
        if t.kind == "kw" and t.text in _STATEMENT_STARTS:
            # Greedy statement-like forms; their body extends maximally.
            if t.text == "for":
                return self._parse_for()
            if t.text == "where":
                return self._parse_where()
            if t.text == "var":
                return self._parse_let()
            if t.text == "insert":
                return self._parse_insert()
        return self.parse_or()

    def _parse_for(self) -> S.Expr:
        span = self.eat("for").span
        self.eat("(")
        var = self.eat_ident().text
        table = self.at("<--")
        if table:
            self.next()
        else:
            self.eat("<-")
        source = self.parse_expr()
        self.eat(")")
        body = self.parse_expr()
        return S.For(var, source, body, table, span=span)

    def _parse_where(self) -> S.Expr:
        span = self.eat("where").span
        self.eat("(")
        cond = self.parse_expr()
        self.eat(")")
        body = self.parse_expr()
        return S.Where(cond, body, span=span)

    def _parse_let(self) -> S.Expr:
        span = self.eat("var").span
        name = self.eat_ident().text
        self.eat("=")
        value = self.parse_expr()
        self.eat(";")
        body = self.parse_expr()
        return S.Let(name, value, body, span=span)

    def _parse_insert(self) -> S.Expr:
        span = self.eat("insert").span
        table = self.parse_postfix()
        self.eat("values")
        values = self.parse_expr()
        return S.Insert(table, values, span=span)

    def parse_or(self) -> S.Expr:
        e = self.parse_and()
        while self.at("||"):
            span = self.next().span
            e = S.Prim("||", (e, self.parse_and()), span=span)
        return e

    def parse_and(self) -> S.Expr:
        e = self.parse_cmp()
        while self.at("&&"):
            span = self.next().span
            e = S.Prim("&&", (e, self.parse_cmp()), span=span)
        return e

    def parse_cmp(self) -> S.Expr:
        e = self.parse_concat()
        if self.peek().kind == "sym" and self.peek().text in ("==", "<>", "<", ">"):
            op = self.next()
            return S.Prim(op.text, (e, self.parse_concat()), span=op.span)
        return e

    def parse_concat(self) -> S.Expr:
        e = self.parse_add()
        while self.at("++"):
            span = self.next().span
            e = S.Concat(e, self.parse_add(), span=span)
        return e

    def parse_add(self) -> S.Expr:
        e = self.parse_mul()
        while self.peek().kind == "sym" and self.peek().text in ("+", "-"):
            op = self.next()
            e = S.Prim(op.text, (e, self.parse_mul()), span=op.span)
        return e

    def parse_mul(self) -> S.Expr:
        e = self.parse_unary()
        while self.at("*"):
            span = self.next().span
            e = S.Prim("*", (e, self.parse_unary()), span=span)
        return e

    def parse_unary(self) -> S.Expr:
        t = self.peek()
        if t.kind == "kw" and t.text == "data":
            span = self.next().span
            return S.Data(self.parse_unary(), span=span)
        if t.kind == "kw" and t.text == "prov":
            span = self.next().span
            return S.ProvOf(self.parse_unary(), span=span)
        return self.parse_postfix()

    def parse_postfix(self) -> S.Expr:
        e = self.parse_atom()
        while True:
            if self.at("."):
                span = self.next().span
                e = S.Project(e, self._parse_label(), span=span)
            elif self.at("("):
                span = self.next().span
                args = []
                if not self.at(")"):
                    args.append(self.parse_expr())
                    while self.at(","):
                        self.next()
                        args.append(self.parse_expr())
                self.eat(")")
                e = S.App(e, tuple(args), span=span)
            else:
                return e

    def _parse_label(self) -> str:
        t = self.peek()
        if t.kind in ("ident", "num", "str"):
            return self.next().text
        if t.kind == "kw" and t.text in ("data", "prov"):
            return self.next().text
        if t.kind == "sym" and t.text == "!":
            self.next()
            return "!" + self._parse_label()
        raise ParseError(f"expected a label, found {t.text!r}", t.span)

    def parse_atom(self) -> S.Expr:
        t = self.peek()
        span = t.span
        if t.kind == "num" or (t.kind == "sym" and t.text == "-" and self.peek(1).kind == "num"):
            if t.text == "-":
                self.next()
            n = int(self.next().text) * (-1 if t.text == "-" else 1)
            if not S.INT_MIN <= n <= S.INT_MAX:
                raise ParseError("Int literal out of the 64-bit range", span)
            return S.Const(n, span=span)
        if t.kind == "str":
            self.next()
            return S.Const(t.text, span=span)
        if t.kind == "kw":
            if t.text in ("true", "false"):
                self.next()
                return S.Const(t.text == "true", span=span)
            if t.text == "if":
                return self._parse_if()
            if t.text == "query":
                self.next()
                self.eat("{")
                body = self.parse_expr()
                self.eat("}")
                return S.Query(body, span=span)
            if t.text == "lineage":
                self.next()
                self.eat("{")
                body = self.parse_expr()
                self.eat("}")
                return S.LineageBlock(body, span=span)
            if t.text == "fun":
                return self._parse_fun()
            if t.text == "empty":
                self.next()
                self.eat("(")
                coll = self.parse_expr()
                self.eat(")")
                return S.IsEmpty(coll, span=span)
            if t.text == "table":
                return self._parse_table()
            if t.text == "update":
                return self._parse_update()
            if t.text == "delete":
                return self._parse_delete()
            if t.text in _STATEMENT_STARTS:
                return self.parse_expr()
            raise ParseError(f"unexpected keyword {t.text!r}", span)
        if t.kind == "ident":
            if t.text == "database" and self.peek(1).kind == "str":
                self.next()
                name = self.next().text
                return S.DatabaseRef(name, span=span)
            if t.text in ("not", "mod") and self.at("(", 1):
                op = self.next().text
                self.eat("(")
                args = [self.parse_expr()]
                while self.at(","):
                    self.next()
                    args.append(self.parse_expr())
                self.eat(")")
                want = 1 if op == "not" else 2
                if len(args) != want:
                    raise ParseError(f"{op} takes {want} argument(s)", span)
                return S.Prim(op, tuple(args), span=span)
            self.next()
            return S.Var(t.text, span=span)
        if t.kind == "sym" and t.text == "[":
            return self._parse_list()
        if t.kind == "sym" and t.text == "(":
            return self._parse_parens()
        raise ParseError(f"unexpected {t.text or 'end of input'!r}", span)

    def _parse_if(self) -> S.Expr:
        span = self.eat("if").span
        self.eat("(")
        cond = self.parse_expr()
        self.eat(")")
        self.eat("{")
        then = self.parse_expr()
        self.eat("}")
        self.eat("else")
        self.eat("{")
        els = self.parse_expr()
        self.eat("}")
        return S.If(cond, then, els, span=span)

    def _parse_fun(self) -> S.Expr:
        span = self.eat("fun").span
        fname = None
        if self.peek().kind == "ident":
            fname = self.next().text
        self.eat("(")
        params = []
        if not self.at(")"):
            params.append(self.eat_ident("parameter").text)
            while self.at(","):
                self.next()
                params.append(self.eat_ident("parameter").text)
        self.eat(")")
        self.eat("{")
        body = self.parse_expr()
        self.eat("}")
        return S.Fun(fname, tuple(params), body, span=span)

    def _parse_list(self) -> S.Expr:
        span = self.eat("[").span
        if self.at("]"):
            self.next()
            elem = None
            if self.at(":"):
                self.next()
                ty = self.parse_type()
                if not isinstance(ty, S.ListType):
                    raise ParseError("empty-list annotation must be a list type", span)
                elem = ty.elem
            return S.EmptyList(elem, span=span)
        items = [self.parse_expr()]
        while self.at(","):
            self.next()
            items.append(self.parse_expr())
        self.eat("]")
        return S.list_lit(items, span=span)

    def _parse_parens(self) -> S.Expr:
        span = self.eat("(").span
        if self.at(")"):
            self.next()
            return S.RecordLit((), span=span)
        # Record literal when a label is followed by '='.
        if self._label_ahead():
            fields = [self._parse_field()]
            while self.at(","):
                self.next()
                fields.append(self._parse_field())
            self.eat(")")
            return S.RecordLit(tuple(fields), span=span)
        first = self.parse_expr()
        if self.at(","):
            items = [first]
            while self.at(","):
                self.next()
                items.append(self.parse_expr())
            self.eat(")")
            fields = tuple((str(i + 1), e) for i, e in enumerate(items))
            return S.RecordLit(fields, span=span)
        self.eat(")")
        return first

    def _label_ahead(self) -> bool:
        t, t1 = self.peek(), self.peek(1)
        if t.kind in ("ident", "str") or (t.kind == "kw" and t.text in ("data", "prov")):
            return t1.kind == "sym" and t1.text == "="
        if t.kind == "sym" and t.text == "!":
            return True
        return False

    def _parse_field(self) -> tuple[str, S.Expr]:
        label = self._parse_label()
        self.eat("=")
        return (label, self.parse_expr())

    def _parse_table(self) -> S.Expr:
        span = self.eat("table").span
        name_tok = self.peek()
        if name_tok.kind != "str":
            raise ParseError("table name must be a string literal", name_tok.span)
        self.next()
        self.eat("with")
        self.eat("(")
        row_items: list[tuple[str, S.Type]] = []
        if not self.at(")"):
            row_items.append(self._parse_row_entry(row_items))
            while self.at(","):
                self.next()
                row_items.append(self._parse_row_entry(row_items))
        self.eat(")")
        spec_entries: list[S.ProvSpecEntry] = []
        readonly: list[str] = []
        if self.at("where") and not self.at("(", 1):
            self.next()
            while True:
                col = self._parse_label()
                if self.peek().kind == "ident" and self.peek().text == "readonly":
                    self.next()
                    readonly.append(col)
                else:
                    self.eat("prov")
                    if self.at("default"):
                        self.next()
                        spec_entries.append(S.ProvSpecEntry(col, None))
                    else:
                        spec_entries.append(S.ProvSpecEntry(col, self.parse_expr()))
                if self.at(","):
                    self.next()
                    continue
                break
        keys: list[tuple[str, ...]] = []
        if self.peek().kind == "ident" and self.peek().text == "tablekeys":
            self.next()
            self.eat("[")
            while not self.at("]"):
                self.eat("[")
                group = []
                while not self.at("]"):
                    kt = self.peek()
                    if kt.kind != "str":
                        raise ParseError("table keys must be string literals", kt.span)
                    group.append(self.next().text)
                    if self.at(","):
                        self.next()
                self.eat("]")
                keys.append(tuple(group))
                if self.at(","):
                    self.next()
            self.eat("]")
        if self.peek().kind == "ident" and self.peek().text == "from":
            self.next()
            handle = self.eat_ident("database handle")
            if self.in_program and handle.text not in self.declared_names:
                raise ParseError(
                    f"table references undeclared database handle {handle.text!r}",
                    handle.span,
                )
        row = S.make_row(row_items)
        oid_implicit = S.row_get(row, "oid") is None
        if oid_implicit:
            row = S.make_row(list(row) + [("oid", S.INT)])
            readonly.append("oid")
        spec = S.ProvSpec(tuple(spec_entries))
        try:
            spec.validate_against(row)
        except ValueError as exc:
            raise ParseError(str(exc), span) from None
        if spec.lookup("oid") is not None:
            raise ParseError("the oid column cannot carry a provenance spec", span)
        return S.TableRef(
            name_tok.text, row, spec, tuple(readonly), tuple(keys), oid_implicit, span=span
        )

    def _parse_row_entry(self, before: list[tuple[str, S.Type]]) -> tuple[str, S.Type]:
        """One ``label: type`` entry of a row whose earlier entries are
        ``before``; a label may occur once per row."""
        tok = self.peek()
        label = self._parse_label()
        if any(l == label for l, _ in before):
            raise ParseError(f"duplicate label {label!r} in row", tok.span)
        self.eat(":")
        return (label, self.parse_type())

    def _parse_update(self) -> S.Expr:
        span = self.eat("update").span
        self.eat("(")
        var = self.eat_ident().text
        self.eat("<--")
        table = self.parse_expr()
        self.eat(")")
        self.eat("where")
        self.eat("(")
        pred = self.parse_expr()
        self.eat(")")
        self.eat("set")
        self.eat("(")
        assigns = [self._parse_field()]
        while self.at(","):
            self.next()
            assigns.append(self._parse_field())
        self.eat(")")
        return S.Update(var, table, pred, tuple(assigns), span=span)

    def _parse_delete(self) -> S.Expr:
        span = self.eat("delete").span
        self.eat("(")
        var = self.eat_ident().text
        self.eat("<--")
        table = self.parse_expr()
        self.eat(")")
        self.eat("where")
        self.eat("(")
        pred = self.parse_expr()
        self.eat(")")
        return S.Delete(var, table, pred, span=span)

    # -- types ----------------------------------------------------------------

    def parse_type(self) -> S.Type:
        t = self.parse_type_atom()
        if self.at("->"):
            self.next()
            result = self.parse_type()
            params = t if isinstance(t, tuple) else (t,)
            return S.FunType(params, result)
        if isinstance(t, tuple):
            if len(t) == 1:
                return t[0]
            return S.tuple_type(*t)
        return t

    def parse_type_atom(self):
        """Returns a Type, or a tuple of Types for a parenthesized group
        (kept raw so a following '->' can read it as a parameter list)."""
        t = self.peek()
        if t.kind == "sym" and t.text == "[":
            self.next()
            inner = self.parse_type()
            self.eat("]")
            return S.ListType(inner)
        if t.kind == "ident" and t.text in S.BASE_TYPES:
            self.next()
            return S.BaseType(t.text)
        if t.kind == "kw" and t.text == "table":
            self.next()
            self.eat("(")
            row, _ = self._parse_row_type()
            self.eat(")")
            return S.TableType(row)
        if t.kind == "ident" and t.text == "Prov":
            self.next()
            self.eat("(")
            inner = self.parse_type()
            self.eat(")")
            if not isinstance(inner, S.BaseType):
                raise ParseError("Prov takes a base type argument", t.span)
            return S.ProvType(inner)
        if t.kind == "sym" and t.text == "(":
            self.next()
            if self.at(")"):
                self.next()
                if self.at("->"):
                    return ()
                return S.UNIT
            if self._row_type_ahead():
                row, open_ = self._parse_row_type()
                self.eat(")")
                return S.RecordType(row, open_)
            items = [self.parse_type()]
            while self.at(","):
                self.next()
                items.append(self.parse_type())
            self.eat(")")
            return tuple(items)
        raise ParseError(f"expected a type, found {t.text!r}", t.span)

    def _row_type_ahead(self) -> bool:
        t, t1 = self.peek(), self.peek(1)
        label_like = (
            t.kind in ("ident", "str")
            or (t.kind == "kw" and t.text in ("data", "prov"))
            or (t.kind == "sym" and t.text == "!")
        )
        return label_like and (
            (t1.kind == "sym" and t1.text == ":")
            or (t.kind == "sym" and t.text == "!")
        )

    def _parse_row_type(self) -> tuple[S.Row, bool]:
        items = [self._parse_row_entry([])]
        open_ = False
        while self.at(","):
            self.next()
            items.append(self._parse_row_entry(items))
        if self.at("|"):
            self.next()
            self.eat_ident("row variable")
            open_ = True
        return S.make_row(items), open_


def parse_program(text: str) -> SourceProgram:
    """Parse a whole source program (declarations plus main expression)."""
    p = Parser(text)
    return _nesting_checked(p, p.parse_program)


def parse_expr(text: str) -> S.Expr:
    p = Parser(text)
    e = _nesting_checked(p, p.parse_expr)
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"unexpected {t.text!r} after expression", t.span)
    return e


def _nesting_checked(p: Parser, parse):
    """``parse()``, with a recursive descent too deep for Python's stack
    reported as a parse error at the token it reached."""
    try:
        return parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", p.peek().span) from None


def parse_type(text: str) -> S.Type:
    p = Parser(text)
    t = p.parse_type()
    if p.peek().kind != "eof":
        raise ParseError("unexpected input after type")
    return t


# ---------------------------------------------------------------------------
# Pretty printer

_PREC_STMT = 0
_PREC_OR = 1
_PREC_AND = 2
_PREC_CMP = 3
_PREC_CONCAT = 4
_PREC_ADD = 5
_PREC_MUL = 6
_PREC_UNARY = 7
_PREC_POSTFIX = 8

_BINOP_PREC = {
    "||": _PREC_OR, "&&": _PREC_AND,
    "==": _PREC_CMP, "<>": _PREC_CMP, "<": _PREC_CMP, ">": _PREC_CMP,
    "+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL,
}


def pretty_print(e: S.Expr) -> str:
    """Render an expression so that it reparses to a structurally equal term."""
    return _show(e, _PREC_STMT)


def pretty_print_program(prog: SourceProgram) -> str:
    parts = []
    for d in prog.decls:
        if d.sig is not None:
            parts.append(f"sig {d.name} : {d.sig}")
        if isinstance(d.expr, S.Fun) and d.expr.fname == d.name:
            parts.append(_show(d.expr, _PREC_STMT))
        else:
            parts.append(f"var {d.name} = {_show(d.expr, _PREC_STMT)};")
    if prog.main is not None:
        parts.append(_show(prog.main, _PREC_STMT))
    return "\n\n".join(parts) + "\n"


def _paren(s: str, needed: bool) -> str:
    return f"({s})" if needed else s


def _show_label(label: str) -> str:
    if label.isidentifier() and label not in KEYWORDS:
        return label
    if label in ("data", "prov") or label.isdigit():
        return label
    return '"' + label + '"'


def _show(e: S.Expr, prec: int) -> str:
    if isinstance(e, S.Const):
        v = e.value
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, str):
            return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
        return str(v) if v >= 0 else f"(-{-v})" if prec > _PREC_STMT else f"-{-v}"
    if isinstance(e, S.Var):
        return e.name
    if isinstance(e, S.RecordLit):
        if not e.fields_:
            return "()"
        labels = [l for l, _ in e.fields_]
        if len(labels) >= 2 and labels == [str(i + 1) for i in range(len(labels))]:
            return "(" + ", ".join(_show(x, _PREC_STMT) for _, x in e.fields_) + ")"
        parts = [f"{_show_label(l)} = {_show(x, _PREC_STMT)}" for l, x in e.fields_]
        return "(" + ", ".join(parts) + ")"
    if isinstance(e, S.Project):
        return f"{_show(e.expr, _PREC_POSTFIX)}.{_show_label(e.label)}"
    if isinstance(e, S.Fun):
        name = f" {e.fname}" if e.fname else ""
        params = ", ".join(e.params)
        return f"fun{name}({params}) {{ {_show(e.body, _PREC_STMT)} }}"
    if isinstance(e, S.App):
        args = ", ".join(_show(a, _PREC_STMT) for a in e.args)
        return f"{_show(e.fn, _PREC_POSTFIX)}({args})"
    if isinstance(e, S.Prim):
        if e.op in ("not", "mod"):
            args = ", ".join(_show(a, _PREC_STMT) for a in e.args)
            return f"{e.op}({args})"
        p = _BINOP_PREC[e.op]
        # Comparison operators do not chain; print operands one level up.
        lhs = _show(e.args[0], p if e.op not in ("==", "<>", "<", ">") else p + 1)
        rhs = _show(e.args[1], p + 1)
        return _paren(f"{lhs} {e.op} {rhs}", prec > p)
    if isinstance(e, S.Let):
        s = f"var {e.name} = {_show(e.value, _PREC_STMT)}; {_show(e.body, _PREC_STMT)}"
        return _paren(s, prec > _PREC_STMT)
    if isinstance(e, S.If):
        return (
            f"if ({_show(e.cond, _PREC_STMT)}) {{ {_show(e.then, _PREC_STMT)} }}"
            f" else {{ {_show(e.els, _PREC_STMT)} }}"
        )
    if isinstance(e, S.Query):
        return f"query {{ {_show(e.body, _PREC_STMT)} }}"
    if isinstance(e, S.LineageBlock):
        return f"lineage {{ {_show(e.body, _PREC_STMT)} }}"
    if isinstance(e, S.TableRef):
        return _show_table(e)
    if isinstance(e, S.DatabaseRef):
        return f'database "{e.name}"'
    if isinstance(e, S.EmptyList):
        if e.elem is not None:
            return _paren(f"[] : [{e.elem}]", prec > _PREC_CMP)
        return "[]"
    if isinstance(e, S.Singleton):
        return f"[{_show(e.item, _PREC_STMT)}]"
    if isinstance(e, S.Concat):
        lhs = _show(e.left, _PREC_CONCAT)
        rhs = _show(e.right, _PREC_CONCAT + 1)
        return _paren(f"{lhs} ++ {rhs}", prec > _PREC_CONCAT)
    if isinstance(e, S.IsEmpty):
        return f"empty({_show(e.coll, _PREC_STMT)})"
    if isinstance(e, S.For):
        arrow = "<--" if e.table else "<-"
        s = f"for ({e.var} {arrow} {_show(e.source, _PREC_STMT)}) {_show(e.body, _PREC_STMT)}"
        return _paren(s, prec > _PREC_STMT)
    if isinstance(e, S.Where):
        s = f"where ({_show(e.cond, _PREC_STMT)}) {_show(e.body, _PREC_STMT)}"
        return _paren(s, prec > _PREC_STMT)
    if isinstance(e, S.Insert):
        s = f"insert {_show(e.table, _PREC_POSTFIX)} values {_show(e.values, _PREC_STMT)}"
        return _paren(s, prec > _PREC_STMT)
    if isinstance(e, S.Update):
        sets = ", ".join(f"{_show_label(l)} = {_show(x, _PREC_STMT)}" for l, x in e.assigns)
        return (
            f"update ({e.var} <-- {_show(e.table, _PREC_STMT)})"
            f" where ({_show(e.pred, _PREC_STMT)}) set ({sets})"
        )
    if isinstance(e, S.Delete):
        return (
            f"delete ({e.var} <-- {_show(e.table, _PREC_STMT)})"
            f" where ({_show(e.pred, _PREC_STMT)})"
        )
    if isinstance(e, S.Data):
        return _paren(f"data {_show(e.expr, _PREC_UNARY)}", prec > _PREC_UNARY)
    if isinstance(e, S.ProvOf):
        return _paren(f"prov {_show(e.expr, _PREC_UNARY)}", prec > _PREC_UNARY)
    if isinstance(e, S.UnionAnnot):
        colors = ", ".join(str(c) for c in sorted(e.colors, key=V.color_sort_key))
        return f"({_show(e.expr, _PREC_STMT)})^{{∪{{{colors}}}}}"
    if isinstance(e, S.ValueLit):
        return V.render(e.value)
    if isinstance(e, S.Hole):
        return "[·]"
    raise TypeError(f"cannot print {type(e).__name__}")


def _show_table(e: S.TableRef) -> str:
    cols = ", ".join(
        f"{_show_label(l)}: {t}"
        for l, t in e.row
        if not (l == "oid" and e.oid_implicit)
    )
    out = f'table "{e.name}" with ({cols})'
    clauses = []
    for col in e.readonly:
        if col == "oid" and e.oid_implicit:
            continue
        clauses.append(f"{_show_label(col)} readonly")
    for entry in e.spec.entries:
        if entry.fn is None:
            clauses.append(f"{_show_label(entry.column)} prov default")
        else:
            clauses.append(f"{_show_label(entry.column)} prov {_show(entry.fn, _PREC_OR)}")
    if clauses:
        out += " where " + ", ".join(clauses)
    if e.keys:
        groups = ", ".join("[" + ", ".join(f'"{k}"' for k in g) + "]" for g in e.keys)
        out += f" tablekeys [{groups}]"
    return out
