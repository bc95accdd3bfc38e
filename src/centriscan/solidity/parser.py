"""Tolerant recursive-descent parser for the Solidity subset.

Never raises on any token stream: constructs outside the subset are
absorbed into Opaque nodes via brace/semicolon-matched recovery, each with
a note-level diagnostic, so downstream detectors see a best-effort AST.
Comments never reach the parser: the tokenizer skips them like whitespace.
"""

from __future__ import annotations

from ..diagnostics import Diagnostic
from . import ast
from .tokens import SIZED_TYPE, Tokens, tokenize

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
_STEP_OPS = frozenset({"++", "--"})
_WRITE_PREFIXES = _STEP_OPS | {"delete"}
_WRITABLE = frozenset({ast.Identifier, ast.Member, ast.Index})
_EXPR_STOP = frozenset({";", ")", "]", "}", ",", "{"})
_NUMBER_UNITS = frozenset({
    "wei", "gwei", "ether", "szabo", "finney",
    "seconds", "minutes", "hours", "days", "weeks", "years",
})
_OPAQUE_EXPR_STOP = _EXPR_STOP - {"{"}
_OPENERS = frozenset("([{")
_CLOSERS = frozenset(")]}")
_REGION_STOP = frozenset({";", "{", "}"})
# A contract, interface or library may start after any broken top-level
# construct; recovery stops before it, at any bracket depth, so the unit is
# still parsed.
_UNIT_STARTS = frozenset({"contract", "interface", "library", "abstract"})
# File-level directives, which end at their `;`.
_DIRECTIVES = frozenset({"pragma", "import", "using"})
_DIRECTIVE_STOP = frozenset({";"})
_INITIALIZER_STOP = frozenset({";", "}"})
_REQUIRE_MESSAGE_STOP = frozenset({")"})
_BODY_STOP = frozenset({"{", "}"})

# The keywords that open a declaration with a body, and those followed by a name.
_DECLARATION_KEYWORDS = frozenset({"function", "modifier", "constructor", "fallback", "receive"})
_NAMED_DECLARATIONS = frozenset({"function", "modifier"})
# The keywords of definitions that hold no code, in a contract or at file
# level, skipped without a note.
_CODE_FREE_MEMBERS = frozenset({"event", "struct", "error", "enum", "using", "type"})
_FN_HEADER_KEYWORDS = frozenset({
    "public", "external", "internal", "private",
    "view", "pure", "payable", "constant", "virtual", "override",
})
_VAR_KEYWORDS = frozenset({
    "public", "private", "internal", "constant", "immutable", "override", "payable",
})
# Keywords that start a type besides the sized ones (`uint8`, `bytes32`).
_TYPE_KEYWORDS = frozenset({
    "address", "bool", "string", "bytes", "byte", "int", "uint", "fixed", "ufixed", "mapping",
})

_MAX_EXPR_DEPTH = 50
_MAX_STMT_DEPTH = 50

# Statement keywords that always fall outside the recognized subset.
_OPAQUE_STMT_KEYWORDS = frozenset({
    "for", "while", "do", "assembly", "try", "emit", "break", "continue",
})
# Every token text that _parse_statement handles before the generic paths.
_STMT_KEYWORDS = _OPAQUE_STMT_KEYWORDS | {
    "{", "unchecked", "require", "assert", "if", "revert", "return", "_", ";",
}


def parse_source(tokens: Tokens) -> ast.SourceUnit:
    """Parse ``tokens``, the result of ``tokenize(source)``, into a SourceUnit
    that carries them; total for any input. Expression and statement nodes
    hold token spans, from which ``tokens`` derives their positions and
    texts (see ``ast``). Comments are gaps, never tokens, so a node's text
    is the slice of the source from its first token to the end of its last,
    comments between its tokens included."""
    return _Parser(tokens).parse_unit()


def parse_solidity(source: str) -> ast.SourceUnit:
    """Tokenize and parse source text in one step."""
    return parse_source(tokenize(source))


def _is_type_start(kind: str, text: str) -> bool:
    return kind == "identifier" or kind == "keyword" and (
        text in _TYPE_KEYWORDS or SIZED_TYPE.match(text) is not None)


class _Parser:
    def __init__(self, tokens: Tokens):
        self.tokens = tokens
        self.n = len(tokens)
        # The parser never moves past n, so two trailing sentinels let
        # _text(0), _text(1) and kinds[i + 1] skip a bounds check.
        self.kinds = [*tokens.kinds, "", ""]
        self.texts = [*tokens.texts, "", ""]
        self.diags: list[Diagnostic] = []
        self.i = 0
        self.expr_depth = 0
        self.stmt_depth = 0

    # --- token stream helpers ------------------------------------------

    def _text(self, k: int = 0) -> str:
        """Text of the token k ahead (k <= 1), or "" past the end."""
        return self.texts[self.i + k]

    def _name(self) -> str:
        """Consume and return an identifier, or return "" and consume nothing."""
        if self.kinds[self.i] != "identifier":
            return ""
        self.i += 1
        return self.texts[self.i - 1]

    def _path(self) -> str:
        """Consume and return a dotted identifier path such as `L.Base`, or
        return "" and consume nothing."""
        path = self._name()
        while path and self.texts[self.i] == "." and self.kinds[self.i + 1] == "identifier":
            path += "." + self.texts[self.i + 1]
            self.i += 2
        return path

    def _eat(self, text: str) -> bool:
        if self.texts[self.i] == text:
            self.i += 1
            return True
        return False

    def _expect(self, text: str, context: str) -> None:
        if not self._eat(text):
            self._note(f"expected '{text}' in {context}")

    def _note(self, message: str) -> None:
        # Past the end of input a note sits on the last token.
        i = min(self.i, self.n - 1)
        line, column = self.tokens.position(i) if i >= 0 else (1, 1)
        self.diags.append(Diagnostic(message, line, column))

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

    def _recover_region(self, stops: frozenset[str] = _REGION_STOP) -> None:
        """Skip to a statement/member boundary: a `;` at depth 0, a balanced
        `{...}` opened at depth 0, or an unmatched `}` or other stop (left
        unconsumed)."""
        self._skip_to(stops)
        t = self.texts[self.i]
        if t == ";":
            self.i += 1
        elif t == "{":
            self._skip_balanced()

    def _recover_file_level(self, stops: frozenset[str]) -> bool:
        """_recover_region for a file-level construct, which also stops before
        a unit start at any bracket depth: none sits inside a bracket, so one
        there follows a construct left open. Returns True when it stopped at
        a unit start inside a bracket. Member and statement recovery, the
        hot path, keep _skip_to."""
        texts = self.texts
        depth = 0
        braced = False  # in a `{` opened at depth 0, which its closer ends
        while self.i < self.n:
            t = texts[self.i]
            if t in _UNIT_STARTS:
                return depth > 0
            if depth == 0 and t in stops:
                if t != "{":
                    self.i += t == ";"
                    return False
                braced = True
            if t in _OPENERS:
                depth += 1
            elif t in _CLOSERS and depth:
                depth -= 1
                if braced and not depth:
                    self.i += 1
                    return False
            self.i += 1
        return False

    def _opaque_stmt(self, note: str) -> ast.Opaque:
        start = self.i
        self._note(note)
        self._recover_region()
        if self.i == start and self.i < self.n:
            self.i += 1  # guarantee progress when stuck on a stray '}'
        return ast.Opaque(start, self.i)

    # --- source unit -----------------------------------------------------

    def parse_unit(self) -> ast.SourceUnit:
        contracts = []
        while self.i < self.n:
            t = self._text()
            if t in ("contract", "interface", "library") or (
                t == "abstract" and self._text(1) == "contract"
            ):
                contracts.append(self._parse_contract())
            elif t in _DIRECTIVES or t in _CODE_FREE_MEMBERS:
                # `import {A} from "a.sol";` and `using {f} for T global;` hold braces.
                if self._recover_file_level(
                        _DIRECTIVE_STOP if t in _DIRECTIVES else _REGION_STOP):
                    self._note(f"unterminated '{t}' before {self.texts[self.i]!r}")
            else:
                start = self.i
                self._note("skipped unrecognized top-level construct")
                self._recover_file_level(_REGION_STOP)
                if self.i == start:
                    self.i += 1  # guarantee progress when stuck on a stray '}'
        return ast.SourceUnit(contracts, self.diags, self.tokens)

    def _parse_contract(self) -> ast.ContractDecl:
        self._eat("abstract")
        kw = self.i  # contract | interface | library
        self.i += 1
        name = self._name()
        if not name:
            self._note(f"missing name after '{self.texts[kw]}'")
        contract = ast.ContractDecl(name, kw)
        if self._eat("is"):
            while base := self._path():
                contract.bases.append(base)
                if self._text() == "(":  # base-constructor arguments
                    self._skip_balanced()
                if not self._eat(","):
                    break
        self._skip_to(_BODY_STOP)  # whatever else precedes the body
        if not self._eat("{"):
            self._note("contract body not found")
            return contract
        closed = False
        # The next unit's keyword is left to parse_unit, as the header loop does.
        while self.i < self.n and self.texts[self.i] not in _UNIT_STARTS:
            if self._eat("}"):
                closed = True
                break
            self._parse_member(contract)
        if not closed:
            where = "at end of input" if self.i == self.n else f"before {self.texts[self.i]!r}"
            self._note(f"unterminated contract '{name}' {where}")
        return contract

    # --- contract members -------------------------------------------------

    def _parse_member(self, contract: ast.ContractDecl) -> None:
        t = self.texts[self.i]
        if t in _DECLARATION_KEYWORDS:
            declarations = contract.modifiers if t == "modifier" else contract.functions
            declarations.append(self._parse_function())
        elif t == ";":
            self.i += 1
        elif t in _CODE_FREE_MEMBERS:
            self._recover_region(_INITIALIZER_STOP if t == "using" else _REGION_STOP)
        elif _is_type_start(self.kinds[self.i], t) and (var := self._try_state_var()):
            contract.state_vars.append(var)
        else:
            self._opaque_stmt("skipped unrecognized contract member")

    def _try_state_var(self) -> ast.StateVar | None:
        save = self.i
        if not self._parse_type():
            self.i = save
            return None
        type_end = self.i
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
        return ast.StateVar(name, at, save, type_end)

    def _parse_type(self, named: bool = False) -> bool:
        """Consume a type and return True, or return False: a `mapping(`
        nested _MAX_EXPR_DEPTH deep is not taken. If named, a name after the
        type is consumed too: a mapping's key and value may be named
        (Solidity 0.8.18)."""
        text = self.texts[self.i]
        if text == "mapping":
            if self.expr_depth >= _MAX_EXPR_DEPTH or self.texts[self.i + 1] != "(":
                return False
            self.i += 2
            self.expr_depth += 1
            taken = self._parse_type(True) and self._eat("=>") and self._parse_type(True)
            self.expr_depth -= 1
            if not (taken and self._eat(")")):
                return False
        elif not _is_type_start(self.kinds[self.i], text):  # the end sentinel is none
            return False
        else:
            self.i += 1
            if text == "address":
                self._eat("payable")
            while self._text() == "[":
                self._skip_balanced()
        if named:
            self._name()
        return True

    def _parse_function(self) -> ast.FunctionDecl:
        """A declaration opening with one of _DECLARATION_KEYWORDS: its name,
        if its keyword takes one, its header and its body."""
        kw = self.i
        keyword = self.texts[kw]
        self.i += 1
        name = ""
        if keyword in _NAMED_DECLARATIONS and self.kinds[self.i] in ("identifier", "keyword"):
            name = self.texts[self.i]
            self.i += 1
        elif keyword == "modifier":
            self._note("missing modifier name")
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
            if t == "}" or t in _UNIT_STARTS:
                # The enclosing contract ends here, or the next one starts.
                self._note(f"function header ended by {t!r} before a body")
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
                invocations.append(self._path())
                if self._text() == "(":
                    self._skip_balanced()
                continue
            self._note(f"unexpected token {t!r} in function header")
            self.i += 1
        return ast.FunctionDecl(name, invocations, body, kw)

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
                elif t == "require" or t == "assert":
                    out.append(self._parse_require(t))
                    return
                elif t == "if":
                    out.append(self._parse_if())
                    return
                elif t == "revert":
                    self._recover_region()
                    out.append(ast.Revert(i, self.i))
                    return
                elif t == "return":
                    self._recover_region()
                    out.append(ast.Return(i, self.i))
                    return
                elif t == "_":
                    if self.texts[i + 1] == ";":
                        self.i = i + 2
                        out.append(ast.Placeholder(i, i + 2))
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

    def _parse_require(self, keyword: str) -> ast.Stmt:
        start = self.i
        self.i += 1
        if not self._eat("("):
            self.i = start
            return self._opaque_stmt(f"malformed {keyword}")
        condition = self._parse_expr()
        if self._text() == ",":
            self._skip_to(_REQUIRE_MESSAGE_STOP)
        self._expect(")", keyword)
        if not self._eat(";"):
            self._note(f"missing ';' after {keyword}")
        return ast.Require(start, self.i, condition)

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
        return ast.If(start, self.i, condition, then_body, else_body)

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
            return ast.Assign(start, self.i, expr, rvalue)
        if t == ";" and isinstance(expr, ast.CallExpr):
            self.i += 1
            return ast.Call(start, self.i, expr)
        step = self._parse_step(start, expr)
        if step is not None:
            return step
        self.i = start
        return self._opaque_stmt("statement outside recognized subset")

    def _parse_step(self, start: int, expr: ast.Expr) -> ast.Assign | None:
        """`delete x;`, `++x;`, `--x;`, `x++;` and `x--;` as an Assign to x
        whose rvalue is the operator token; None for any other statement.
        Tried only where a statement would otherwise be opaque: a prefix
        chain has folded into expr, so its operand is parsed again."""
        texts = self.texts
        op = self.i
        if texts[op] in _STEP_OPS:
            end = op + 1
        elif texts[op] == ";" and texts[start] in _WRITE_PREFIXES:
            op = start
            self.i = start + 1
            expr = self._parse_unary()
            end = self.i
        else:
            return None
        if texts[end] != ";" or type(expr) not in _WRITABLE:
            return None
        self.i = end + 1
        return ast.Assign(start, self.i, expr, ast.OpaqueExpr(op, op + 1))

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
                return ast.OpaqueExpr(start, self.i)
            return expr
        finally:
            self.expr_depth -= 1

    def _opaque_expr_scan(self) -> ast.Expr:
        """Depth-limit fallback: consume to an expression boundary, no recursion."""
        start = self.i
        self._skip_to(_OPAQUE_EXPR_STOP)
        return ast.OpaqueExpr(start, self.i)

    def _parse_binary(self, start: int, expr: ast.Expr, min_prec: int) -> ast.Expr:
        """Precedence climbing: extend expr, parsed from token start, with the
        binary operators binding at least as tightly as min_prec. Chains are
        left-associative; an opaque-tier chain folds into one OpaqueExpr
        spanning its operands."""
        texts = self.texts
        while True:
            op = texts[self.i]
            prec = _BINARY_PREC.get(op, 0)
            if prec < min_prec:  # min_prec >= 1, so a non-operator stops here
                return expr
            self.i += 1
            if prec == _OPAQUE_PREC:
                self._parse_unary()
                expr = ast.OpaqueExpr(start, self.i)
                continue
            rhs_start = self.i
            rhs = self._parse_unary()
            if _BINARY_PREC.get(texts[self.i], 0) > prec:
                rhs = self._parse_binary(rhs_start, rhs, prec + 1)
            expr = ast.Binary(start, self.i, op, expr, rhs)

    def _parse_unary(self) -> ast.Expr:
        """Prefix operators, then a primary with member, index and call suffixes."""
        start = i = self.i
        texts = self.texts
        t = texts[i]
        if t == "!":
            while texts[i] == "!":
                i += 1
            if texts[i] not in _UNARY_OPS:
                # A run of `!` reads as its parity: one Not, or two nested,
                # each spanning the whole run and its operand.
                self.i = i
                operand = self._parse_unary()
                if (i - start) % 2 == 0:
                    operand = ast.Not(start, self.i, operand)
                return ast.Not(start, self.i, operand)
        if t in _UNARY_OPS:
            # Any other prefix-operator chain folds into one opaque node; the operand
            # is parsed only to find where the chain ends.
            while texts[i] in _UNARY_OPS:
                i += 1
            self.i = i
            self._parse_unary()
            return ast.OpaqueExpr(start, self.i)
        # --- primary
        if i >= self.n or t in _EXPR_STOP:
            # No suffix starts with a stop token, so return at once.
            return ast.OpaqueExpr(i, i)
        # Every node below spans from token i.
        kind = self.kinds[i]
        if kind == "identifier" or kind == "keyword":
            # A keyword is an Identifier too: `true`, and the callee of a
            # cast such as `address(x)` or `payable(x)`.
            self.i = i + 1
            expr = ast.Identifier(i, i + 1, t)
        elif t == "(":
            self.i = i + 1
            expr = self._parse_expr()
            self._expect(")", "parenthesized expression")
        else:  # number and string literals among them
            # A unit (`1 ether`, `2 days`) is part of its number literal.
            unit = kind == "number-literal" and texts[i + 1] in _NUMBER_UNITS
            self.i = i + 2 if unit else i + 1
            expr = ast.OpaqueExpr(i, self.i)
        # --- suffixes
        while True:
            t = texts[self.i]
            if t == ".":
                if self.kinds[self.i + 1] not in ("identifier", "keyword"):
                    self.i += 1
                    return ast.OpaqueExpr(i, self.i)
                member = texts[self.i + 1]
                self.i += 2
                if isinstance(expr, ast.Identifier) and expr.name == "msg" and member == "sender":
                    expr = ast.MsgSender(i, self.i)
                else:
                    expr = ast.Member(i, self.i, expr, member)
            elif t == "[":
                self.i += 1
                index = self._parse_expr()
                self._expect("]", "index expression")
                expr = ast.Index(i, self.i, expr, index)
            elif t == "(":
                args = self._parse_call_args()
                expr = ast.CallExpr(i, self.i, expr, args, None)
            elif t == "{" and isinstance(expr, ast.Member):
                opt_start = self.i
                self._skip_balanced()
                options = ast.OpaqueExpr(opt_start, self.i)
                if self._text() == "(":
                    args = self._parse_call_args()
                    expr = ast.CallExpr(i, self.i, expr, args, options)
                else:
                    return ast.OpaqueExpr(i, self.i)
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
                args.append(ast.OpaqueExpr(opt_start, self.i))
            else:
                args.append(self._parse_expr())
            if self._eat(","):
                continue
            break
        self._expect(")", "call arguments")
        return args
