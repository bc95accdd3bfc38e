"""Tolerant recursive-descent parser for the Solidity subset.

Never raises on any token stream: constructs outside the subset are
absorbed into Opaque nodes via brace/semicolon-matched recovery, each with
a note-level diagnostic, so downstream detectors see a best-effort AST.
Every expression operator, prefix, binary, ternary or assignment, is
read from one binding-power table and keeps the operands it holds.
Comments never reach the parser: the tokenizer skips them like whitespace.
No unit start (`contract`, `interface`, `library`, `abstract`) sits inside
a construct, so every skip ends before one at any bracket depth and only
parse_unit consumes one: whatever is left open, the next contract is parsed.
"""

from __future__ import annotations

from ..diagnostics import Diagnostic
from . import ast
from .tokens import SIZED_TYPE, Tokens, tokenize

# Binding power of each infix operator, loosest first: assignments and `?`
# (right-associative), then the left-associative `||`, `&&`, equality and one
# tier of relational and arithmetic operators, whose order never matters to
# the detectors. Prefix operators (_UNARY_OPS) bind tighter, suffixes tightest.
_RIGHT_TIER = 1
_BINDING = {**dict.fromkeys("= += -= *= /= %= |= &= ^= <<= >>= **= ?".split(), _RIGHT_TIER),
            "||": 2, "&&": 3, "==": 4, "!=": 4,
            **dict.fromkeys("< > <= >= + - * / % ** << >> & | ^".split(), 5)}
_LOOSEST = frozenset(op for op, tier in _BINDING.items() if tier == _RIGHT_TIER)
_UNARY_OPS = frozenset({"!", "-", "~", "+", "++", "--", "delete", "new"})
_STEP_OPS = frozenset({"++", "--"})
_WRITE_PREFIXES = _STEP_OPS | {"delete"}
_WRITABLE = frozenset({ast.Identifier, ast.Member, ast.Index})
# The callees a `{name: value}` options block may follow: `x.call{...}`, `new T{...}`.
_CALLEES = frozenset({ast.Identifier, ast.Member})
_NUMBER_UNITS = frozenset({
    "wei", "gwei", "ether", "szabo", "finney",
    "seconds", "minutes", "hours", "days", "weeks", "years",
})
_OPENERS = frozenset("([{")
_CLOSERS = frozenset(")]}")
# The keywords that start a contract, interface or library: every skip
# stops before one (see the module docstring).
_UNIT_STARTS = frozenset({"contract", "interface", "library", "abstract"})
_EXPR_STOP = frozenset({";", ")", "]", "}", ",", "{"}) | _UNIT_STARTS
_OPAQUE_EXPR_STOP = _EXPR_STOP - {"{"}
_REGION_STOP = frozenset({";", "{", "}"})
_BLOCK_END = _UNIT_STARTS | {"}"}
# File-level directives, which end at their `;`.
_DIRECTIVES = frozenset({"pragma", "import", "using"})
_DIRECTIVE_STOP = frozenset({";"})
_INITIALIZER_STOP = frozenset({";", "}"})
_REQUIRE_MESSAGE_STOP = frozenset({")"})
_BODY_STOP = frozenset({"{", "}"})
_PAIRS_STOP = frozenset({"}"})
# The tokens _skip_to looks at: the brackets, the unit starts, `;` and `,`.
# Every stop set it is given is made of them.
_MARKS = _EXPR_STOP | _OPENERS

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

    def _close(self, what: str) -> None:
        """Consume the `}` that ends what, or note that what is left open."""
        if not self._eat("}"):
            where = "at end of input" if self.i == self.n else f"before {self.texts[self.i]!r}"
            self._note(f"unterminated {what} {where}")

    def _note(self, message: str) -> None:
        # Past the end of input a note sits on the last token.
        i = min(self.i, self.n - 1)
        line, column = self.tokens.position(i) if i >= 0 else (1, 1)
        self.diags.append(Diagnostic(message, line, column))

    # --- recovery --------------------------------------------------------

    def _skip_balanced(self) -> bool:
        """Consume a bracketed region from the current opener through its
        closer, or up to a unit start or the end; return whether it closed."""
        self.i += 1
        self._skip_to(_CLOSERS)
        reached = self.texts[self.i] in _CLOSERS
        self.i += reached
        return reached

    def _skip_to(self, stops: frozenset[str]) -> int:
        """Advance to the first token in stops at bracket depth 0, to a unit
        start at any depth, or to the end; return the depth there. All three
        bracket kinds count toward depth; an unmatched closer that is not a
        stop is stepped over. Every token in stops must be in _MARKS."""
        texts = self.texts
        marks = _MARKS
        i, n = self.i, self.n
        depth = 0
        while i < n:
            t = texts[i]
            if t in marks:
                if t in _UNIT_STARTS or not depth and t in stops:
                    break
                if t in _OPENERS:
                    depth += 1
                elif depth and t in _CLOSERS:
                    depth -= 1
            i += 1
        self.i = i
        return depth

    def _recover_region(self, stops: frozenset[str] = _REGION_STOP) -> bool:
        """Skip to a statement/member boundary: a `;` at depth 0, a balanced
        `{...}` opened at depth 0, or an unmatched `}`, other stop or unit
        start (left unconsumed). Returns True when a unit start cut it short
        inside a bracket."""
        depth = self._skip_to(stops)
        t = self.texts[self.i]
        if t == ";":
            self.i += 1
        elif t == "{" and not self._skip_balanced():
            depth = 1  # cut short inside the braces
        return depth > 0 and self.i < self.n

    def _opaque_stmt(self, note: str) -> ast.Opaque:
        start = self.i
        self._note(note)
        self._recover_region()
        if self.i == start and self.i < self.n:
            self.i += 1  # guarantee progress when stuck on a stray '}' or 'abstract'
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
                if self._recover_region(_DIRECTIVE_STOP if t in _DIRECTIVES else _REGION_STOP):
                    self._note(f"unterminated '{t}' before {self.texts[self.i]!r}")
            else:
                self._opaque_stmt("skipped unrecognized top-level construct")
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
        while self.i < self.n and self.texts[self.i] not in _BLOCK_END:
            self._parse_member(contract)
        self._close(f"contract '{name}'")
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
        if keyword in _NAMED_DECLARATIONS and self.kinds[self.i] in ("identifier", "keyword") \
                and self.texts[self.i] not in _UNIT_STARTS:
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
            if t in _BLOCK_END:
                # The enclosing contract ends here, or the next one starts.
                self._note(f"function header ended by {t!r} before a body")
                break
            if t in _FN_HEADER_KEYWORDS or t == "returns":
                self.i += 1
                if (t == "returns" or t == "override") and self._text() == "(":
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
        while self.i < self.n and texts[self.i] not in _BLOCK_END:
            self._parse_statement(stmts)
        self._close("block")
        return stmts

    def _parse_statement(self, out: list[ast.Stmt]) -> None:
        """Parse one statement into out; a nested block adds its statements.
        Never called at a unit start, which is parse_unit's."""
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
                    out.append(self._parse_return())
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

    def _parse_return(self) -> ast.Return:
        """`return;` or `return e;`. A value that does not parse up to its
        `;`, such as a tuple, is skipped as a region, without a note."""
        start, notes = self.i, len(self.diags)
        self.i += 1
        value = None if self._text() == ";" else self._parse_expr()
        if not self._eat(";"):
            del self.diags[notes:]
            self.i, value = start, None
            self._recover_region()
        return ast.Return(start, self.i, value)

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
        t = self._text()
        if t == "{":
            return self._parse_block()
        body: list[ast.Stmt] = []
        if t not in _UNIT_STARTS:
            self._parse_statement(body)
        return body

    def _parse_expression_statement(self) -> ast.Stmt:
        """An ExprStmt when the expression is a call followed by `;`, or an
        assignment or step (a missing `;` gets a note); else an Opaque."""
        start = self.i
        expr = self._parse_expr()
        if type(expr) is ast.Assign:
            if not self._eat(";"):
                self._note("missing ';' after assignment")
        elif not (type(expr) is ast.CallExpr and self._eat(";")):
            self.i = start
            return self._opaque_stmt("statement outside recognized subset")
        return ast.ExprStmt(start, self.i, expr)

    # --- expressions --------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        """Operands joined by the operators of _BINDING. A chain of the
        loosest tier, `a = b += c` or `a ? b : c ? d : e`, nests right to
        left: a loop, not recursion, collects its links (an lvalue, or a
        condition and its middle operand) and folds them at the end."""
        if self.expr_depth >= _MAX_EXPR_DEPTH:
            return self._opaque_expr_scan()
        self.expr_depth += 1
        try:
            texts = self.texts
            start = self.i
            expr = self._parse_unary()
            op = texts[self.i]
            links = []
            while op in _BINDING:
                if op not in _LOOSEST:
                    expr = self._parse_binary(start, expr, _RIGHT_TIER + 1)
                    op = texts[self.i]
                    if op not in _LOOSEST:
                        break
                self.i += 1
                middle = self._parse_expr() if op == "?" else None
                if middle is not None:
                    self._expect(":", "conditional expression")
                links.append((start, expr, middle))
                start = self.i
                expr = self._parse_unary()
                op = texts[self.i]
            while links:
                start, head, middle = links.pop()
                expr = ast.Assign(start, self.i, head, expr) if middle is None \
                    else ast.Conditional(start, self.i, head, middle, expr)
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
        binary operators binding at least as tightly as min_prec, which is
        above _RIGHT_TIER. Chains are left-associative."""
        texts = self.texts
        while True:
            op = texts[self.i]
            prec = _BINDING.get(op, 0)
            if prec < min_prec:  # a non-operator, or one of the loosest tier
                return expr
            self.i += 1
            rhs_start = self.i
            rhs = self._parse_unary()
            if _BINDING.get(texts[self.i], 0) > prec:
                rhs = self._parse_binary(rhs_start, rhs, prec + 1)
            expr = ast.Binary(start, self.i, op, expr, rhs)

    def _parse_unary(self) -> ast.Expr:
        """Prefix operators, collected in a loop, then their operand: a primary
        with member, index, call and step suffixes. The operators fold onto it
        right to left, each a Unary from its own token, or, if `delete`, `++`
        or `--` on a writable operand, an Assign whose rvalue is its token.
        An operand that breaks off is one opaque span, its operators included."""
        texts = self.texts
        start = i = self.i
        while texts[i] in _UNARY_OPS:
            i += 1
        t = texts[i]
        # --- primary; every node below spans from token i
        kind = self.kinds[i]
        if i >= self.n or t in _EXPR_STOP:  # no suffix starts with a stop token
            self.i = i
            expr = ast.OpaqueExpr(i, i)
        elif kind == "identifier" or kind == "keyword":
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
                kind = self.kinds[self.i + 1]
                member = texts[self.i + 1]
                if kind != "identifier" and (kind != "keyword" or member in _UNIT_STARTS):
                    self.i += 1
                    return ast.OpaqueExpr(start, self.i)
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
            elif t == "{" and type(expr) in _CALLEES and (
                    texts[self.i + 1] == "}" or texts[self.i + 2] == ":"):
                options = self._parse_pairs()
                if self._text() != "(":
                    return ast.OpaqueExpr(start, self.i)
                args = self._parse_call_args()
                expr = ast.CallExpr(i, self.i, expr, args, options)
            elif t in _STEP_OPS and type(expr) in _WRITABLE:  # `x++` writes to x
                self.i += 1
                expr = ast.Assign(i, self.i, expr, ast.OpaqueExpr(self.i - 1, self.i))
            else:
                break
        # --- prefix operators, innermost first
        while i > start:
            i -= 1
            op = texts[i]
            if op in _WRITE_PREFIXES and type(expr) in _WRITABLE:
                expr = ast.Assign(i, self.i, expr, ast.OpaqueExpr(i, i + 1))
            else:
                expr = ast.Unary(i, self.i, op, expr)
        return expr

    def _parse_pairs(self) -> ast.Pairs:
        """`{name: value, ...}`, a call's options or named arguments, from its
        `{` through its `}`; what does not read as a pair is skipped to the
        `}`, or up to a unit start."""
        start = self.i
        self.i += 1
        texts = self.texts
        names, values = [], []
        while self.kinds[self.i] == "identifier" and texts[self.i + 1] == ":":
            names.append(texts[self.i])
            self.i += 2
            values.append(self._parse_expr())
            if not self._eat(","):
                break
        if texts[self.i] != "}":
            self._skip_to(_PAIRS_STOP)
        self._eat("}")
        return ast.Pairs(start, self.i, names, values)

    def _parse_call_args(self) -> list[ast.Expr]:
        self._eat("(")
        args: list[ast.Expr] = []
        if self._text() == ")":
            self.i += 1
            return args
        while self.i < self.n:
            args.append(self._parse_pairs() if self._text() == "{" else self._parse_expr())
            if self._eat(","):
                continue
            break
        self._expect(")", "call arguments")
        return args
