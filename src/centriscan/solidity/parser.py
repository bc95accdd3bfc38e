"""Tolerant recursive-descent parser for the Solidity subset.

Never raises on any token stream: constructs outside the subset are
absorbed into Opaque nodes via brace/semicolon-matched recovery, each with
a note-level diagnostic, so downstream detectors see a best-effort AST.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress

from ..diagnostics import Diagnostic
from . import ast
from .tokens import Tokens, tokenize

_ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<=", ">>=", "**="})
_CMP_OPS = frozenset({"<", ">", "<=", ">="})
_ARITH_OPS = frozenset({"+", "-", "*", "/", "%", "**", "<<", ">>", "&", "|", "^"})
# Binding strength of each binary operator, loosest first. Relational and
# arithmetic operators share one opaque tier: their relative precedence
# never matters to the detectors.
_OPAQUE_PREC = 4
_BINARY_PREC = {
    "||": 1, "&&": 2, "==": 3, "!=": 3,
    **{op: _OPAQUE_PREC for op in _CMP_OPS | _ARITH_OPS},
}
_UNARY_OPS = frozenset({"!", "-", "~", "+", "++", "--", "delete", "new"})
_EXPR_STOP = frozenset({";", ")", "]", "}", ",", "{"})
_OPAQUE_EXPR_STOP = _EXPR_STOP - {"{"}
_OPENERS = frozenset("([{")
_CLOSERS = frozenset(")]}")
_REGION_STOP = frozenset({";", "{", "}"})
_INITIALIZER_STOP = frozenset({";", "}"})
_REQUIRE_MESSAGE_STOP = frozenset({")"})
_BODY_STOP = frozenset({"{", "}"})

_FN_HEADER_KEYWORDS = frozenset({
    "public", "external", "internal", "private",
    "view", "pure", "payable", "constant", "virtual", "override",
})
_VAR_KEYWORDS = frozenset({
    "public", "private", "internal", "constant", "immutable", "override", "payable",
})
_ELEMENTARY_TYPES = frozenset({
    "address", "bool", "string", "bytes", "byte", "int", "uint", "fixed", "ufixed",
})

_MAX_EXPR_DEPTH = 50
_MAX_STMT_DEPTH = 50

# Statement keywords that always fall outside the recognized subset.
_OPAQUE_STMT_KEYWORDS = frozenset({
    "for", "while", "do", "assembly", "try", "emit", "break", "continue",
})
# Every token text that _parse_statement handles before the generic paths.
_STMT_KEYWORDS = _OPAQUE_STMT_KEYWORDS | {
    "{", "unchecked", "require", "if", "revert", "return", "_", ";",
}


def parse_source(tokens: Tokens, path: str, source: str) -> ast.SourceUnit:
    """Parse ``tokens``, the result of ``tokenize(source)``, into a SourceUnit;
    total for any input. Node texts are slices of ``source``, from a node's
    first token to the end of its last."""
    return _Parser(tokens, path, source).parse_unit()


def parse_solidity(source: str, path: str = "<solidity>") -> ast.SourceUnit:
    """Tokenize and parse source text in one step."""
    return parse_source(tokenize(source), path, source)


def _is_type_start(kind: str, text: str) -> bool:
    if kind == "identifier":
        return True
    if kind == "keyword":
        return text in _ELEMENTARY_TYPES or text == "mapping" \
            or text[:1] in "ui" and any(c.isdigit() for c in text) \
            or text.startswith("bytes")
    return False


class _Parser:
    def __init__(self, tokens: Tokens, path: str, source: str):
        kinds, texts, starts = tokens.kinds, tokens.texts, tokens.starts
        if "comment" in kinds:
            keep = list(map("comment".__ne__, kinds))
            kinds = list(compress(kinds, keep))
            texts = list(compress(texts, keep))
            starts = list(compress(starts, keep))
        self.n = len(kinds)
        # The parser never moves past n, so two trailing sentinels let
        # _text(0), _text(1) and kinds[i + 1] skip a bounds check.
        self.kinds = [*kinds, "", ""]
        self.texts = [*texts, "", ""]
        self.starts = starts
        self.newlines = tokens.newlines
        self.src = source
        self.path = path
        self.diags: list[Diagnostic] = []
        self.i = 0
        self.expr_depth = 0
        self.stmt_depth = 0

    # --- token stream helpers ------------------------------------------

    def _pos(self, i: int) -> tuple[int, int]:
        """1-based (line, column) of token i < n (see Tokens)."""
        start = self.starts[i]
        newlines = self.newlines
        line = bisect_left(newlines, start)
        return line, start - newlines[line - 1]

    def _text(self, k: int = 0) -> str:
        """Text of the token k ahead (k <= 1), or "" past the end."""
        return self.texts[self.i + k]

    def _name(self) -> str:
        """Consume and return an identifier, or return "" and consume nothing."""
        if self.kinds[self.i] != "identifier":
            return ""
        self.i += 1
        return self.texts[self.i - 1]

    def _eat(self, text: str) -> bool:
        if self.texts[self.i] == text:
            self.i += 1
            return True
        return False

    def _expect(self, text: str, context: str) -> bool:
        if self.texts[self.i] == text:
            self.i += 1
            return True
        self._note(f"expected '{text}' in {context}")
        return False

    def _note(self, message: str, severity: str = "note") -> None:
        # Past the end of input a note sits on the last token.
        i = min(self.i, self.n - 1)
        line, column = self._pos(i) if i >= 0 else (1, 1)
        self.diags.append(Diagnostic(message, line, column, severity))

    def _span_text(self, start: int, end: int) -> str:
        if start >= end:
            return ""
        last = end - 1
        return self.src[self.starts[start]:self.starts[last] + len(self.texts[last])]

    # --- recovery --------------------------------------------------------

    def _skip_balanced(self) -> None:
        """Consume a bracketed region starting at the current opener."""
        self.i += 1
        self._skip_to(_CLOSERS)
        if self.i < self.n:
            self.i += 1

    def _skip_to(self, stops: frozenset[str]) -> None:
        """Advance to the first token in stops at bracket depth 0, or to the
        end. All three bracket kinds count toward depth; an unmatched closer
        that is not a stop is stepped over."""
        texts = self.texts
        depth = 0
        while self.i < self.n:
            t = texts[self.i]
            if depth == 0 and t in stops:
                return
            if t in _OPENERS:
                depth += 1
            elif t in _CLOSERS and depth:
                depth -= 1
            self.i += 1

    def _recover_region(self) -> None:
        """Skip to a statement/member boundary: a `;` at depth 0, a balanced
        `{...}` opened at depth 0, or an unmatched `}` (left unconsumed)."""
        self._skip_to(_REGION_STOP)
        t = self.texts[self.i]
        if t == ";":
            self.i += 1
        elif t == "{":
            self._skip_balanced()

    def _opaque_stmt(self, note: str | None = None) -> ast.Opaque:
        start = self.i
        line, column = self._pos(start) if start < self.n else (1, 1)
        if note:
            self._note(note)
        self._recover_region()
        if self.i == start and self.i < self.n:
            self.i += 1  # guarantee progress when stuck on a stray '}'
        return ast.Opaque(line, column, self._span_text(start, self.i))

    # --- source unit -----------------------------------------------------

    def parse_unit(self) -> ast.SourceUnit:
        contracts = []
        while self.i < self.n:
            t = self._text()
            if t in ("contract", "interface", "library") or (
                t == "abstract" and self._text(1) == "contract"
            ):
                contracts.append(self._parse_contract())
            elif t in ("pragma", "import"):
                self._recover_region()
            else:
                self._opaque_stmt("skipped unrecognized top-level construct")
        return ast.SourceUnit(self.path, contracts, self.diags)

    def _parse_contract(self) -> ast.ContractDecl:
        self._eat("abstract")
        kw = self.i  # contract | interface | library
        self.i += 1
        name = self._name()
        if not name:
            self._note(f"missing name after '{self.texts[kw]}'")
        line, column = self._pos(kw)
        contract = ast.ContractDecl(name, line=line, column=column)
        # Skip the inheritance clause, base arguments included, to the body.
        self._skip_to(_BODY_STOP)
        if not self._eat("{"):
            self._note("contract body not found")
            return contract
        closed = False
        while self.i < self.n:
            if self._eat("}"):
                closed = True
                break
            self._parse_member(contract)
        if not closed:
            self._note(f"unterminated contract '{name}' at end of input")
        return contract

    # --- contract members -------------------------------------------------

    def _parse_member(self, contract: ast.ContractDecl) -> None:
        if self.i >= self.n:
            return
        t = self.texts[self.i]
        if t == "function":
            contract.functions.append(self._parse_function(named=True))
        elif t in ("constructor", "fallback", "receive"):
            contract.functions.append(self._parse_function(named=False))
        elif t == "modifier":
            contract.modifiers.append(self._parse_modifier())
        elif t == ";":
            self.i += 1
        elif t == "mapping" or _is_type_start(self.kinds[self.i], t):
            var = self._try_state_var()
            if var is not None:
                contract.state_vars.append(var)
            else:
                self._opaque_stmt("skipped unrecognized contract member")
        else:
            self._opaque_stmt("skipped unrecognized contract member")

    def _try_state_var(self) -> ast.StateVar | None:
        save = self.i
        type_desc = self._parse_type()
        if type_desc is None:
            self.i = save
            return None
        while self._text() in _VAR_KEYWORDS:
            self.i += 1
            if self._text() == "(":  # override(Base) carries arguments
                self._skip_balanced()
        at = self.i
        name = self._name()
        if not name:
            self.i = save
            return None
        if self._text() == "=":
            self.i += 1
            self._skip_to(_INITIALIZER_STOP)
        if not self._eat(";"):
            self.i = save
            return None
        return ast.StateVar(name, type_desc, *self._pos(at))

    def _parse_type(self) -> ast.TypeDesc | None:
        start = self.i
        if start >= self.n:
            return None
        text = self.texts[start]
        if text == "mapping":
            self.i += 1
            if not self._eat("("):
                return None
            key = self._parse_type()
            if key is None or not self._eat("=>"):
                return None
            value = self._parse_type()
            if value is None or not self._eat(")"):
                return None
            return ast.TypeDesc("mapping", self._span_text(start, self.i), key, value)
        tok_kind = self.kinds[start]
        if not _is_type_start(tok_kind, text):
            return None
        self.i += 1
        name = text
        kind = "elementary" if text in _ELEMENTARY_TYPES or tok_kind == "keyword" else "other"
        if text == "address" and self._text() == "payable":
            self.i += 1
            name = "address payable"
        while self._text() == "[":
            self._skip_balanced()
            kind = "other"
            name = self._span_text(start, self.i)
        return ast.TypeDesc(kind, name)

    def _parse_modifier(self) -> ast.ModifierDecl:
        kw = self.i
        self.i += 1
        name = self._name()
        if not name:
            self._note("missing modifier name")
        if self._text() == "(":
            self._skip_balanced()
        while self._text() in ("virtual", "override"):
            self.i += 1
            if self._text() == "(":
                self._skip_balanced()
        body: list[ast.Stmt] = []
        if self._text() == "{":
            body = self._parse_block()
        elif not self._eat(";"):
            self._note(f"modifier '{name}' has no body")
        return ast.ModifierDecl(name, body, *self._pos(kw))

    def _parse_function(self, named: bool) -> ast.FunctionDecl:
        kw = self.i  # function | constructor | fallback | receive
        self.i += 1
        name = ""
        if named and self.kinds[self.i] in ("identifier", "keyword"):
            name = self.texts[self.i]
            self.i += 1
        if self._text() == "(":
            self._skip_balanced()
        invocations: list[str] = []
        body: list[ast.Stmt] = []
        while self.i < self.n:
            t = self._text()
            if t == "{":
                body = self._parse_block()
                break
            if t == ";":
                self.i += 1
                break
            if t == "returns":
                self.i += 1
                if self._text() == "(":
                    self._skip_balanced()
                continue
            if t in _FN_HEADER_KEYWORDS:
                self.i += 1
                if t == "override" and self._text() == "(":
                    self._skip_balanced()
                continue
            if self.kinds[self.i] == "identifier":
                self.i += 1
                invocations.append(t)
                if self._text() == "(":
                    self._skip_balanced()
                continue
            self._note(f"unexpected token {t!r} in function header")
            self.i += 1
        return ast.FunctionDecl(name, invocations, body, *self._pos(kw))

    # --- statements --------------------------------------------------------

    def _parse_block(self) -> list[ast.Stmt]:
        self._expect("{", "block")
        stmts: list[ast.Stmt] = []
        texts = self.texts
        while self.i < self.n and texts[self.i] != "}":
            self._parse_statement(stmts)
        if not self._eat("}"):
            self._note("unterminated block at end of input")
        return stmts

    def _parse_statement(self, out: list[ast.Stmt]) -> None:
        """Parse one statement into out; a nested block adds its statements."""
        if self.stmt_depth >= _MAX_STMT_DEPTH:
            out.append(self._opaque_stmt("statement nesting too deep"))
            return
        i = self.i
        if i >= self.n:
            return
        self.stmt_depth += 1
        try:
            t = self.texts[i]
            if t in _STMT_KEYWORDS:
                if t == "{":
                    out.extend(self._parse_block())
                    return
                if t == "unchecked":
                    if self.texts[i + 1] == "{":
                        self.i = i + 1
                        out.extend(self._parse_block())
                        return
                elif t == "require":
                    out.append(self._parse_require())
                    return
                elif t == "if":
                    out.append(self._parse_if())
                    return
                elif t == "revert":
                    self._recover_region()
                    out.append(ast.Revert(*self._pos(i), self._span_text(i, self.i)))
                    return
                elif t == "return":
                    self._recover_region()
                    out.append(ast.Return(*self._pos(i), self._span_text(i, self.i)))
                    return
                elif t == "_":
                    if self.texts[i + 1] == ";":
                        self.i = i + 2
                        out.append(ast.Placeholder(*self._pos(i), "_;"))
                        return
                elif t == ";":  # empty statement
                    self.i = i + 1
                    return
                else:
                    out.append(self._opaque_stmt("statement outside recognized subset"))
                    return
            if self.kinds[i + 1] == "identifier" and _is_type_start(self.kinds[i], t):
                # Two adjacent words start a local declaration, never an expression.
                out.append(self._opaque_stmt("statement outside recognized subset"))
                return
            out.append(self._parse_expression_statement())
        finally:
            self.stmt_depth -= 1

    def _parse_require(self) -> ast.Stmt:
        start = self.i
        self.i += 1
        if not self._eat("("):
            self.i = start
            return self._opaque_stmt("malformed require")
        condition = self._parse_expr()
        if self._text() == ",":
            self._skip_to(_REQUIRE_MESSAGE_STOP)
        self._expect(")", "require")
        if not self._eat(";"):
            self._note("missing ';' after require")
        return ast.Require(*self._pos(start), self._span_text(start, self.i), condition)

    def _parse_if(self) -> ast.Stmt:
        start = self.i
        self.i += 1
        self._expect("(", "if")
        condition = self._parse_expr()
        self._expect(")", "if")
        then_body = self._parse_branch()
        else_body: list[ast.Stmt] = []
        if self._eat("else"):
            else_body = self._parse_branch()
        return ast.If(*self._pos(start), self._span_text(start, self.i),
                      condition, then_body, else_body)

    def _parse_branch(self) -> list[ast.Stmt]:
        if self._text() == "{":
            return self._parse_block()
        body: list[ast.Stmt] = []
        self._parse_statement(body)
        return body

    def _parse_expression_statement(self) -> ast.Stmt:
        start = self.i
        expr = self._parse_expr()
        t = self._text()
        if t in _ASSIGN_OPS and self.i > start:
            self.i += 1
            rvalue = self._parse_expr()
            if not self._eat(";"):
                self._note("missing ';' after assignment")
            return ast.Assign(*self._pos(start), self._span_text(start, self.i),
                              expr, rvalue, t)
        if t == ";" and isinstance(expr, ast.CallExpr):
            self.i += 1
            return ast.Call(*self._pos(start), self._span_text(start, self.i), expr)
        self.i = start
        return self._opaque_stmt("statement outside recognized subset")

    # --- expressions --------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        if self.expr_depth >= _MAX_EXPR_DEPTH:
            return self._opaque_expr_scan()
        self.expr_depth += 1
        try:
            start = self.i
            expr = self._parse_unary()
            if self.texts[self.i] in _BINARY_PREC:
                expr = self._parse_binary(start, expr, 1)
            if self.texts[self.i] == "?":  # ternary folds to opaque
                self.i += 1
                self._parse_expr()
                if self._eat(":"):
                    self._parse_expr()
                return ast.OpaqueExpr(*self._pos(start), self._span_text(start, self.i))
            return expr
        finally:
            self.expr_depth -= 1

    def _opaque_expr_scan(self) -> ast.Expr:
        """Depth-limit fallback: consume to an expression boundary, no recursion."""
        start = self.i
        line, column = self._pos(start) if start < self.n else (1, 1)
        self._skip_to(_OPAQUE_EXPR_STOP)
        return ast.OpaqueExpr(line, column, self._span_text(start, self.i))

    def _parse_binary(self, start: int, expr: ast.Expr, min_prec: int) -> ast.Expr:
        """Precedence climbing: extend expr, parsed from token start, with the
        binary operators binding at least as tightly as min_prec. Chains are
        left-associative; an opaque-tier chain folds into one OpaqueExpr
        spanning its operands."""
        texts = self.texts
        line, column = self._pos(start)
        while True:
            op = texts[self.i]
            prec = _BINARY_PREC.get(op, 0)
            if prec < min_prec:  # min_prec >= 1, so a non-operator stops here
                return expr
            self.i += 1
            if prec == _OPAQUE_PREC:
                self._parse_unary()
                expr = ast.OpaqueExpr(line, column, self._span_text(start, self.i))
                continue
            rhs_start = self.i
            rhs = self._parse_unary()
            if _BINARY_PREC.get(texts[self.i], 0) > prec:
                rhs = self._parse_binary(rhs_start, rhs, prec + 1)
            expr = ast.Binary(line, column, self._span_text(start, self.i), op, expr, rhs)

    def _parse_unary(self) -> ast.Expr:
        """Prefix operators, then a primary with member, index and call suffixes."""
        start = i = self.i
        texts = self.texts
        t = texts[i]
        if t in _UNARY_OPS:
            # A prefix-operator chain folds into one opaque node; the operand
            # is parsed only to find where the chain ends.
            while texts[i] in _UNARY_OPS:
                i += 1
            self.i = i
            self._parse_unary()
            return ast.OpaqueExpr(*self._pos(start), self._span_text(start, self.i))
        # --- primary
        if i >= self.n:
            return ast.OpaqueExpr(1, 1, "")
        # Every node below spans from token i, so all take its position.
        line, column = self._pos(i)
        if t in _EXPR_STOP:
            # No suffix starts with a stop token, so return at once.
            return ast.OpaqueExpr(line, column, "")
        kind = self.kinds[i]
        if kind == "identifier":
            self.i = i + 1
            expr = ast.Identifier(line, column, t, t)
        elif t == "address" and texts[i + 1] == "(":
            self.i = i + 2
            inner = self._parse_expr()
            self._expect(")", "address cast")
            expr = ast.AddressCast(line, column, self._span_text(start, self.i), inner)
        elif t == "(":
            self.i = i + 1
            expr = self._parse_expr()
            self._expect(")", "parenthesized expression")
        elif kind in ("number-literal", "string-literal") or t in ("true", "false"):
            self.i = i + 1
            expr = ast.Literal(line, column, t)
        elif kind == "keyword":
            self.i = i + 1
            expr = ast.Identifier(line, column, t, t)
        else:
            self.i = i + 1
            expr = ast.OpaqueExpr(line, column, t)
        # --- suffixes
        while True:
            t = texts[self.i]
            if t == ".":
                if self.kinds[self.i + 1] not in ("identifier", "keyword"):
                    self.i += 1
                    return ast.OpaqueExpr(line, column, self._span_text(start, self.i))
                member = texts[self.i + 1]
                self.i += 2
                text = self._span_text(start, self.i)
                if isinstance(expr, ast.Identifier) and expr.name == "msg" and member == "sender":
                    expr = ast.MsgSender(line, column, text)
                else:
                    expr = ast.Member(line, column, text, expr, member)
            elif t == "[":
                self.i += 1
                index = self._parse_expr()
                self._expect("]", "index expression")
                expr = ast.Index(line, column, self._span_text(start, self.i), expr, index)
            elif t == "(":
                args = self._parse_call_args()
                expr = ast.CallExpr(line, column, self._span_text(start, self.i), expr, args)
            elif t == "{" and isinstance(expr, ast.Member):
                opt_start = self.i
                self._skip_balanced()
                options = self._span_text(opt_start, self.i)
                if self._text() == "(":
                    args = self._parse_call_args()
                    expr = ast.CallExpr(line, column, self._span_text(start, self.i),
                                        expr, args, options)
                else:
                    return ast.OpaqueExpr(line, column, self._span_text(start, self.i))
            else:
                return expr

    def _parse_call_args(self) -> list[ast.Expr]:
        self._eat("(")
        args: list[ast.Expr] = []
        if self._text() == ")":
            self.i += 1
            return args
        while self.i < self.n:
            if self._text() == "{":
                opt_start = self.i
                self._skip_balanced()
                args.append(ast.OpaqueExpr(*self._pos(opt_start),
                                           self._span_text(opt_start, self.i)))
            else:
                args.append(self._parse_expr())
            if self._eat(","):
                continue
            break
        self._expect(")", "call arguments")
        return args
