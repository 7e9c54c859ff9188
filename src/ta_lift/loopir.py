"""A small affine loop-nest IR in the seq-loop dialect.

Kernels are Python-style nests of `for v in seq(lo, hi):` loops over
f32 DRAM arrays, with plain assignments and `+=` accumulations at the
leaves.  Bounds are compile-time constants, so every access can be
bounds-checked by interval analysis at parse time, and extents can be
swapped consistently to produce small clones that interpret quickly.

A nest has one exact semantics.  A constant stands for its f32 value, a
dyadic rational n / 2**k, and a loop variable for its int.  An index is
exact integer arithmetic; a value is computed over GF(p), where 2**k has
an inverse.  Constants fold only where the exact result of their f32
values is an f32 value, so a rewrite never changes what a nest computes.

`interpret` compiles a nest to the source of a Python function once per
prime, keeps the function on the nest object and calls it.  Little else
runs per iteration: each statement is one line, row prefixes and compound
indices are bound outside the loops that do not change them, and an
innermost loop keeps an element it does not move in a local.  Loops plus
operators nest at most `_MAX_DEPTH` deep; deeper nests are a
`NestingTooDeep` syntax error.  `check_equivalence` runs two nests once
over a prime drawn from its seed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property

import numpy as np


class KernelSyntaxError(ValueError):
    """Malformed kernel text."""


class NonConstantBound(KernelSyntaxError):
    """A loop bound or extent is not an integer literal."""


class NestingTooDeep(KernelSyntaxError):
    """Loops and operators nest deeper than the recursive passes over a nest can go."""


class BoundsError(ValueError):
    """An array access can fall outside the declared extents."""


class ShapeMismatch(ValueError):
    """Interpreter inputs do not match the declared arrays."""


class SignatureMismatch(ValueError):
    """Two kernels disagree on array names or extents."""


# -- expressions ---------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: int | float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Read:
    array: str
    indices: tuple["Expr", ...]


@dataclass(frozen=True)
class BinOp:
    op: str  # "+", "-", "*"
    left: "Expr"
    right: "Expr"


Expr = Const | Var | Read | BinOp


@dataclass(frozen=True)
class Assign:
    array: str
    indices: tuple[Expr, ...]
    rhs: Expr


@dataclass(frozen=True)
class Accumulate:
    array: str
    indices: tuple[Expr, ...]
    rhs: Expr


@dataclass(frozen=True)
class Loop:
    var: str
    lo: int
    hi: int
    body: tuple["Statement", ...]


Statement = Loop | Assign | Accumulate


@dataclass(frozen=True)
class ArrayDecl:
    name: str
    extents: tuple[int, ...]


@dataclass(frozen=True)
class LoopNest:
    name: str
    arrays: tuple[ArrayDecl, ...]
    body: tuple[Statement, ...]

    @cached_property
    def _programs(self) -> dict:
        """This nest compiled over GF(p), by prime p (see `interpret`)."""
        return {}

    @cached_property
    def _locality_cost(self) -> float:
        return _locality_walk(self)


# -- expression helpers --------------------------------------------------------


# The least magnitude that rounds to infinity in f32: halfway past its largest value.
_F32_LIMIT = 2.0**128 - 2.0**103


def _f32(value: int | float | Fraction) -> Fraction | None:
    """`value` rounded to f32, exactly, or None where that is not finite; any value but an int via a double."""
    if type(value) is int:  # rounded once, to 24 significant bits; `round` takes ties to even
        shift = max(abs(value).bit_length() - 24, 0)
        rounded = round(Fraction(value, 1 << shift)) << shift
        return Fraction(rounded) if abs(rounded) < 2**128 else None
    value = float(value)
    if not abs(value) < _F32_LIMIT:
        return None
    return Fraction(float(np.float32(value)))


def _fold(op: str, left: Expr, right: Expr) -> Const | None:
    """`left op right` as one constant, when both are constants and the exact result of their f32 values is an f32 value."""
    if type(left) is not Const or type(right) is not Const:
        return None
    a, b = _f32(left.value), _f32(right.value)
    exact = a + b if op == "+" else a - b if op == "-" else a * b
    if _f32(exact) != exact:
        return None
    return Const(int(exact) if type(left.value) is type(right.value) is int else float(exact))


def integer(value: int) -> Expr:
    """An expression whose value is exactly the int `value`: a constant where f32 holds it."""
    if abs(value) <= 2**24:
        return Const(value)
    high, low = divmod(value, 2**24)
    return plus(times(integer(high), Const(2**24)), Const(low))


def plus(left: Expr, right: Expr) -> Expr:
    folded = _fold("+", left, right)
    if folded is not None:
        return folded
    if isinstance(left, Const) and left.value == 0:
        return right
    if isinstance(right, Const) and right.value == 0:
        return left
    return BinOp("+", left, right)


def times(left: Expr, right: Expr) -> Expr:
    folded = _fold("*", left, right)
    if folded is not None:
        return folded
    if (isinstance(left, Const) and left.value == 0) or (
        isinstance(right, Const) and right.value == 0
    ):
        return Const(0)
    if isinstance(left, Const) and left.value == 1:
        return right
    if isinstance(right, Const) and right.value == 1:
        return left
    return BinOp("*", left, right)


def substitute(expr: Expr, var: str, replacement: Expr) -> Expr:
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Var):
        return replacement if expr.name == var else expr
    if isinstance(expr, Read):
        return Read(expr.array, tuple(substitute(i, var, replacement) for i in expr.indices))
    left = substitute(expr.left, var, replacement)
    right = substitute(expr.right, var, replacement)
    if left is expr.left and right is expr.right:
        return expr
    if expr.op == "+":
        return plus(left, right)
    if expr.op == "*":
        return times(left, right)
    return _fold("-", left, right) or BinOp("-", left, right)


def substitute_stmt(stmt: Statement, var: str, replacement: Expr) -> Statement:
    if isinstance(stmt, Loop):
        if stmt.var == var:  # inner binding shadows
            return stmt
        return Loop(stmt.var, stmt.lo, stmt.hi,
                    tuple(substitute_stmt(s, var, replacement) for s in stmt.body))
    indices = tuple(substitute(i, var, replacement) for i in stmt.indices)
    rhs = substitute(stmt.rhs, var, replacement)
    kind = Assign if isinstance(stmt, Assign) else Accumulate
    return kind(stmt.array, indices, rhs)


def free_vars(expr: Expr) -> set[str]:
    if isinstance(expr, Const):
        return set()
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, Read):
        return set().union(*(free_vars(i) for i in expr.indices)) if expr.indices else set()
    return free_vars(expr.left) | free_vars(expr.right)


# -- parsing -------------------------------------------------------------------

_TOKEN = re.compile(r"\d+\.\d+|\d+|\w+|[\[\](),+\-*]")
_LOOP = re.compile(r"^for (\w+) in seq\(([^,]+), ([^)]+)\):$")

# Passes over a nest (bounds, rendering, rewrites, the cost proxy) recurse
# once per loop and once per operator, so a statement's enclosing loops plus
# the longest operator chain in its expressions may not exceed this.
_MAX_DEPTH = 900
# The expression parser recurses three times per parenthesis or bracket.
_MAX_BRACKETS = 100


class _ExprParser:
    def __init__(self, text: str):
        self.tokens = _TOKEN.findall(text)
        if "".join(self.tokens).replace(" ", "") != text.replace(" ", ""):
            raise KernelSyntaxError(f"cannot tokenize expression '{text}'")
        self.pos = 0
        self.brackets = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise KernelSyntaxError(f"expected '{expected}', found '{tok}'")
        self.pos += 1
        return tok

    def parse(self) -> Expr:
        expr = self.sum()
        if self.peek() is not None:
            raise KernelSyntaxError(f"trailing tokens after expression: '{self.peek()}'")
        return expr

    def sum(self) -> Expr:
        expr = self.product()
        while self.peek() in ("+", "-"):
            op = self.take()
            right = self.product()
            expr = BinOp(op, expr, right)
        return expr

    def product(self) -> Expr:
        expr = self.atom()
        while self.peek() == "*":
            self.take()
            expr = BinOp("*", expr, self.atom())
        return expr

    def atom(self) -> Expr:
        tok = self.peek()
        if tok is None:
            raise KernelSyntaxError("unexpected end of expression")
        if tok == "(":
            self.take()
            self.open_bracket()
            expr = self.sum()
            self.take(")")
            self.brackets -= 1
            return expr
        if tok == "-":
            signs = 0
            while self.peek() == "-":
                self.take()
                signs += 1
            expr = self.atom()
            for _ in range(signs):
                expr = Const(-expr.value) if isinstance(expr, Const) else BinOp("-", Const(0), expr)
            return expr
        self.take()
        if re.fullmatch(r"\d+(\.\d+)?", tok):
            return Const(_literal(tok))
        if not re.fullmatch(r"\w+", tok):
            raise KernelSyntaxError(f"unexpected token '{tok}'")
        if self.peek() == "[":
            self.take()
            self.open_bracket()
            indices = [self.sum()]
            while self.peek() == ",":
                self.take()
                indices.append(self.sum())
            self.take("]")
            self.brackets -= 1
            return Read(tok, tuple(indices))
        return Var(tok)

    def open_bracket(self) -> None:
        self.brackets += 1
        if self.brackets > _MAX_BRACKETS:
            raise NestingTooDeep(f"more than {_MAX_BRACKETS} nested parentheses or brackets")


# f32's largest value, about 3.4e38, has 39 digits.
_F32_DIGITS = 39


def _literal(tok: str) -> int | float:
    """The value of a literal, refused unless its f32 value is finite.

    Digits are counted first, so no literal meets `int()`'s digit limit.
    """
    whole = tok.split(".")[0].lstrip("0")
    if len(whole) <= _F32_DIGITS:
        value = float(tok) if "." in tok else int(whole or "0")
        if _f32(value) is not None:
            return value
    shown = tok if len(tok) <= 24 else tok[:20] + "..."
    raise KernelSyntaxError(f"literal {shown} is not finite in f32, whose largest value is about 3.4e38")


def parse_expr(text: str) -> Expr:
    return _ExprParser(text.strip()).parse()


def _parse_int(text: str) -> int:
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        raise NonConstantBound(f"expected an integer constant, found '{text}'") from None


def _split_params(text: str) -> list[str]:
    parts = []
    depth = 0
    current = ""
    for ch in text:
        if ch == "," and depth == 0:
            parts.append(current)
            current = ""
            continue
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        current += ch
    if current.strip():
        parts.append(current)
    return parts


_PARAM = re.compile(r"^(\w+)\s*:\s*f32\s*\[([^\]]*)\]\s*@\s*DRAM$")


def parse_kernel(text: str) -> LoopNest:
    lines = [line.rstrip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise KernelSyntaxError("empty kernel text")

    header = ""
    body_start = 0
    for i, line in enumerate(lines):
        header += line.strip() if not header else " " + line.strip()
        if header.endswith("):"):
            body_start = i + 1
            break
    else:
        raise KernelSyntaxError("missing 'def name(...):' header")

    m = re.match(r"^def (\w+)\((.*)\):$", header)
    if m is None:
        raise KernelSyntaxError(f"malformed header '{header}'")
    name = m.group(1)
    arrays = []
    for raw in _split_params(m.group(2)):
        pm = _PARAM.match(raw.strip())
        if pm is None:
            raise KernelSyntaxError(f"malformed parameter '{raw.strip()}'")
        extents = tuple(_parse_int(e) for e in pm.group(2).split(","))
        arrays.append(ArrayDecl(pm.group(1), extents))
    if not arrays:
        raise KernelSyntaxError("kernel declares no arrays")

    body_lines = lines[body_start:]
    if not body_lines:
        raise KernelSyntaxError("kernel has an empty body")

    def indent_of(line: str) -> int:
        width = len(line) - len(line.lstrip(" "))
        if width % 4 != 0:
            raise KernelSyntaxError(f"indentation must be a multiple of 4 spaces: '{line}'")
        return width // 4

    base = indent_of(body_lines[0])
    if base != 0 and all(indent_of(l) >= base for l in body_lines):
        body_lines = [l[base * 4 :] for l in body_lines]

    # The loops open at the current line, outermost first, each with its
    # header, variable, bounds and the statements of its body so far.
    open_loops: list[tuple[str, str, int, int, list[Statement]]] = []
    top: list[Statement] = []

    def close_loop() -> None:
        header, var, lo, hi, stmts = open_loops.pop()
        if not stmts:
            raise KernelSyntaxError(f"loop '{header}' has an empty body")
        (open_loops[-1][4] if open_loops else top).append(Loop(var, lo, hi, tuple(stmts)))

    for line in body_lines:
        depth = indent_of(line)
        while depth < len(open_loops):
            close_loop()
        if depth > len(open_loops):
            raise KernelSyntaxError(f"unexpected indentation: '{line.strip()}'")
        stripped = line.strip()
        loop = _LOOP.match(stripped)
        if loop:
            lo = _parse_int(loop.group(2))
            hi = _parse_int(loop.group(3))
            open_loops.append((stripped, loop.group(1), lo, hi, []))
            continue
        op = " += " if " += " in stripped else " = "
        if op not in stripped:
            raise KernelSyntaxError(f"cannot parse statement '{stripped}'")
        lhs_text, rhs_text = stripped.split(op, 1)
        lhs = parse_expr(lhs_text)
        if not isinstance(lhs, Read):
            raise KernelSyntaxError(f"left side must be an array element: '{stripped}'")
        for index in lhs.indices:
            if any(isinstance(node, Read) for node in _walk(index)):
                raise KernelSyntaxError(f"array reads are not allowed in indices: '{stripped}'")
        kind = Accumulate if op == " += " else Assign
        (open_loops[-1][4] if open_loops else top).append(kind(lhs.array, lhs.indices, parse_expr(rhs_text)))
    while open_loops:
        close_loop()
    nest = LoopNest(name, tuple(arrays), tuple(top))
    check_bounds(nest)
    return nest


def _walk(expr: Expr):
    """Every node of `expr` in preorder, array indices included."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Read):
            stack.extend(reversed(node.indices))
        elif isinstance(node, BinOp):
            stack += (node.right, node.left)


def _postorder(expr: Expr) -> list[Expr]:
    """`expr`'s value nodes, operands before operators, left before right.

    Array indices are not descended into.  Iterative, so a deep sum cannot
    exhaust the Python stack.
    """
    order, stack = [], [expr]
    while stack:
        node = stack.pop()
        order.append(node)
        if isinstance(node, BinOp):
            stack += (node.left, node.right)
    order.reverse()
    return order


def _operator_depth(expr: Expr) -> int:
    """The longest chain of operators in `expr`, through array indices."""
    deepest, stack = 0, [(expr, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, BinOp):
            depth += 1
            stack += ((node.left, depth), (node.right, depth))
        elif isinstance(node, Read):
            stack.extend((index, depth) for index in node.indices)
        deepest = max(deepest, depth)
    return deepest


def _check_depth(nest: LoopNest) -> None:
    """Reject a nest whose loops plus operators nest deeper than `_MAX_DEPTH`."""
    stack = [(stmt, 0) for stmt in nest.body]
    while stack:
        stmt, loops = stack.pop()
        if isinstance(stmt, Loop):
            depth = loops + 1
            stack.extend((inner, depth) for inner in stmt.body)
        else:
            depth = loops + max(_operator_depth(e) for e in (*stmt.indices, stmt.rhs))
        if depth > _MAX_DEPTH:
            raise NestingTooDeep(f"loops and operators nest {depth} deep, more than {_MAX_DEPTH}")


# -- bounds checking -----------------------------------------------------------

def _index_range(expr: Expr, ranges: dict[str, tuple[int, int]]) -> tuple[int, int]:
    """The exact range of an index expression, whose constants must be integers in f32."""
    bounds: list[tuple[int, int]] = []
    for node in _postorder(expr):
        if isinstance(node, Const):
            value = _f32(node.value)
            if value is None or value.denominator != 1:
                raise BoundsError(f"index constant {node.value} is not an integer in f32")
            bounds.append((int(value), int(value)))
        elif isinstance(node, Var):
            if node.name not in ranges:
                raise BoundsError(f"unbound variable '{node.name}' in index expression")
            bounds.append(ranges[node.name])
        elif isinstance(node, Read):
            raise BoundsError("array reads are not allowed in index expressions")
        else:
            (rl, rh), (ll, lh) = bounds.pop(), bounds.pop()
            if node.op == "+":
                bounds.append((ll + rl, lh + rh))
            elif node.op == "-":
                bounds.append((ll - rh, lh - rl))
            else:
                corners = (ll * rl, ll * rh, lh * rl, lh * rh)
                bounds.append((min(corners), max(corners)))
    return bounds[-1]


def check_bounds(nest: LoopNest) -> None:
    """Reject any access that interval analysis cannot prove in-bounds.

    A nest too deep to analyze raises NestingTooDeep first.
    """
    _check_depth(nest)
    extents = {a.name: a.extents for a in nest.arrays}

    def check_access(array: str, indices: tuple[Expr, ...], ranges) -> None:
        if array not in extents:
            raise BoundsError(f"unknown array '{array}'")
        if len(indices) != len(extents[array]):
            raise BoundsError(f"{array} expects {len(extents[array])} indices, got {len(indices)}")
        for dim, index in enumerate(indices):
            low, high = _index_range(index, ranges)
            if low < 0 or high >= extents[array][dim]:
                raise BoundsError(
                    f"{array} index {dim} spans [{low}, {high}] outside [0, {extents[array][dim] - 1}]"
                )

    def visit(stmts: tuple[Statement, ...], ranges: dict[str, tuple[int, int]]) -> None:
        for stmt in stmts:
            if isinstance(stmt, Loop):
                if stmt.hi <= stmt.lo:
                    raise BoundsError(f"loop '{stmt.var}' has empty range [{stmt.lo}, {stmt.hi})")
                visit(stmt.body, {**ranges, stmt.var: (stmt.lo, stmt.hi - 1)})
                continue
            check_access(stmt.array, stmt.indices, ranges)
            for node in _walk(stmt.rhs):
                if isinstance(node, Read):
                    check_access(node.array, node.indices, ranges)

    visit(nest.body, {})


# -- rendering -----------------------------------------------------------------


def render_expr(expr: Expr) -> str:
    """`expr` as text that `parse_expr` reads back as the same tree."""
    if isinstance(expr, Const):
        text = str(expr.value)
        if "e" in text:  # the parser reads no exponents
            text = format(Decimal(text), "f")
            text += "" if "." in text else ".0"
        return text
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Read):
        return f"{expr.array}[{', '.join(render_expr(i) for i in expr.indices)}]"
    left = render_expr(expr.left)
    right = render_expr(expr.right)
    # The parser groups `*` first, then left to right.
    if expr.op == "*" and isinstance(expr.left, BinOp) and expr.left.op in "+-":
        left = f"({left})"
    if isinstance(expr.right, BinOp) and (expr.op == "*" or expr.right.op in "+-"):
        right = f"({right})"
    return f"{left} {expr.op} {right}"


def render_line(stmt: Statement) -> str:
    """One statement as source text, without indentation or children."""
    if isinstance(stmt, Loop):
        return f"for {stmt.var} in seq({stmt.lo}, {stmt.hi}):"
    lhs = f"{stmt.array}[{', '.join(render_expr(i) for i in stmt.indices)}]"
    op = "+=" if isinstance(stmt, Accumulate) else "="
    return f"{lhs} {op} {render_expr(stmt.rhs)}"


def render_header(nest: LoopNest) -> list[str]:
    """Header lines, wrapped at 79 columns with parameters kept whole."""
    params = [f"{a.name}: f32[{', '.join(str(e) for e in a.extents)}] @ DRAM" for a in nest.arrays]
    opening = f"def {nest.name}("
    header = opening + ", ".join(params) + "):"
    if len(header) <= 79:
        return [header]
    lines: list[str] = []
    indent = " " * len(opening)
    current = opening
    first = True
    for i, param in enumerate(params):
        tail = "):" if i == len(params) - 1 else ","
        piece = param + tail
        candidate = current + ("" if first else " ") + piece
        if not first and len(candidate) > 79:
            lines.append(current)
            current = indent + piece
        else:
            current = candidate
        first = False
    lines.append(current)
    return lines


def render_kernel(nest: LoopNest) -> str:
    lines = render_header(nest)

    def emit(stmts: tuple[Statement, ...], depth: int) -> None:
        pad = "    " * depth
        for stmt in stmts:
            lines.append(pad + render_line(stmt))
            if isinstance(stmt, Loop):
                emit(stmt.body, depth + 1)

    emit(nest.body, 1)
    return "\n".join(lines) + "\n"


# -- interpretation ------------------------------------------------------------
#
# Arrays enter the generated code as nested lists of Python ints, which
# index faster than numpy arrays.  A value is computed in ints, a constant as
# its residue mod p and a loop variable as itself, and each store is reduced
# mod p (`P` in the function's namespace), so no int outgrows one
# statement's expression.  An index is computed in ints, exactly, each
# constant as its f32 value.  The code around the arithmetic is cut down to
# little more than the loops:
#
# - A statement is one line, its expressions inline.  A part nested deeper
#   than `_INLINE_DEPTH` goes into a temporary first, so CPython's parser
#   never meets a deep expression.
# - A row prefix such as `A[r, q]` is bound to a local once, at the top of
#   the loop that binds the innermost variable its indices read (or of the
#   function), and inner loops index that row.  Generated code assigns only
#   at the last index, so a row never changes.  A compound index is bound
#   the same way.
# - In an innermost loop, an array whose every access there has one index
#   tuple that does not read the loop variable lives in a local: loaded
#   before the loop, stored after it when the loop writes it.
#
# Loops are never empty (an empty one is refused), so a row or an element
# loaded ahead of a loop is one the loop would have read anyway.  No user
# name appears in the source (arrays `a<k>`, loop variables `i<k>`, rows
# `r<k>`, indices `x<k>`, locals `s<k>`, temporaries `t<k>`), so names such
# as `range` or `P` cannot capture anything.  Each loop gets a fresh
# variable and rows are keyed by their generated text, so a loop that
# shadows a name never reuses a row or local bound under the outer meaning.

# The largest prime below 2**30, the default modulus of `interpret` and the
# top of `check_equivalence`'s draw: every stored value is one CPython digit.
P = 2**30 - 35

# CPython refuses more than 20 statically nested blocks in one function.
_LOOPS_PER_FUNCTION = 16
# Brackets, calls and operators one generated expression may nest before a
# part goes into a temporary; CPython's parser allows 200 nested brackets.
_INLINE_DEPTH = 40


def _bare(operand: str) -> str:
    """An operand without the parentheses around an operator at its root."""
    return operand[1:-1] if operand.startswith("(") else operand


class _Frame:
    """The top of one loop body or function: the locals bound there, by the text they hold."""

    def __init__(self, pad: str):
        self.pad = pad
        self.lines: list[str] = []
        self.bound: dict[str, str] = {}


class _Scope:
    """What generated code at one place sees.

    `names` maps each visible loop variable to its Python name and level,
    the number of this function's loops around its binding (0 for a
    parameter).  `frames[level]` is the frame of that level, and `indices`
    remembers each index rendered here by node identity.
    """

    def __init__(self, names: dict[str, tuple[str, int]], frames: list[_Frame]):
        self.names = names
        self.frames = frames
        self.indices: dict[int, tuple[str, int, int]] = {}


class _Compiler:
    """Python source for one nest, as `source`: functions `k0`, `k1`, ...

    `k0` takes the arrays in declaration order and computes over GF(`p`).
    A loop deeper than `_LOOPS_PER_FUNCTION` in its function moves to a
    function of its own that also takes the loop variables in scope and
    binds its own rows.
    """

    def __init__(self, nest: LoopNest, p: int):
        self.p = p
        self.arrays = {a.name: f"a{k}" for k, a in enumerate(nest.arrays)}
        self.namespace: dict[str, object] = {"P": p}
        self.queue: list[tuple[str, tuple[Statement, ...], _Scope]] = []
        # Lines, and frames whose bound locals go in their place once all are known.
        self.lines: list[str | _Frame] = []
        self.loops = self.bound = self.temps = 0
        self.known: dict[int, tuple[frozenset[str], int]] = {}
        self.function(nest.body, _Scope({}, []))
        # Emitting a function may queue more; the loop picks them up.
        for header, stmts, outer in self.queue:
            top = _Frame("    ")
            self.lines += (header, top)
            names = {name: (var, 0) for name, (var, _) in outer.names.items()}
            self.block(stmts, _Scope(names, [top]), 1, {})
        self.source = "\n".join(
            line for part in self.lines for line in (part.lines if type(part) is _Frame else (part,))
        ) + "\n"

    def function(self, stmts: tuple[Statement, ...], scope: _Scope) -> str:
        """Queue a function running `stmts` in `scope`; return its call."""
        name = f"k{len(self.queue)}"
        params = ", ".join([*self.arrays.values(), *(var for var, _ in scope.names.values())])
        self.queue.append((f"def {name}({params}):", stmts, scope))
        return f"{name}({params})"

    def block(self, stmts: tuple[Statement, ...], scope: _Scope, depth: int, scalars: dict[str, str]) -> None:
        """Emit `stmts`, with the arrays in `scalars` read and written through those locals."""
        pad = "    " * depth
        if not stmts:
            self.lines.append(pad + "pass")
        for stmt in stmts:
            if isinstance(stmt, Loop) and depth > _LOOPS_PER_FUNCTION:
                self.lines.append(pad + self.function((stmt,), scope))
            elif isinstance(stmt, Loop):
                self.loop(stmt, scope, depth)
            else:
                self.statement(stmt, scope, scalars, pad)

    def loop(self, loop: Loop, scope: _Scope, depth: int) -> None:
        if loop.hi <= loop.lo:
            raise BoundsError(f"loop '{loop.var}' has empty range [{loop.lo}, {loop.hi})")
        pad = "    " * depth
        var = f"i{self.loops}"
        self.loops += 1
        top = _Frame(pad + "    ")
        inner = _Scope({**scope.names, loop.var: (var, len(scope.frames))}, [*scope.frames, top])
        scalars: dict[str, str] = {}
        stores: list[str] = []
        if all(type(stmt) is not Loop for stmt in loop.body):
            for array, indices, written in self.scalars(loop):
                local = scalars[array] = f"s{self.bound}"
                self.bound += 1
                element = self.access(array, indices, scope, [])[0]
                self.lines.append(f"{pad}{local} = {element}")
                if written:
                    stores.append(f"{pad}{element} = {local}")
        bounds = f"{loop.lo}, {loop.hi}" if loop.lo else loop.hi
        self.lines += (f"{pad}for {var} in range({bounds}):", top)
        self.block(loop.body, inner, depth + 1, scalars)
        self.lines += stores

    def scalars(self, loop: Loop) -> list[tuple[str, tuple[Expr, ...], bool]]:
        """The arrays of an innermost loop that can live in a local, their indices and whether the loop writes them.

        Every access to such an array in the loop has indices equal by
        value, which do not read the loop variable and need no temporary.
        Index trees equal by value name the same element: they differ at
        most in a constant's type or a zero's sign, which changes no f32
        value.
        """
        indices: dict[str, tuple[Expr, ...] | None] = {}
        written = set()
        for stmt in loop.body:
            written.add(stmt.array)
            reads = [(node.array, node.indices) for node in _postorder(stmt.rhs) if type(node) is Read]
            for array, spot in ((stmt.array, stmt.indices), *reads):
                known = indices.setdefault(array, spot)
                if known is not None and known is not spot and known != spot:
                    indices[array] = None
        return [
            (array, spot, array in written)
            for array, spot in indices.items()
            if spot is not None and all(self.invariant(index, loop.var) for index in spot)
        ]

    def invariant(self, index: Expr, var: str) -> bool:
        """Whether `index` does not read `var` and renders without a temporary."""
        if type(index) is Var:
            return index.name != var
        names, depth = self.facts(index)
        return var not in names and depth < _INLINE_DEPTH

    def facts(self, expr: Expr) -> tuple[frozenset[str], int]:
        """The free variables and operator depth of an index, computed once per compile."""
        known = self.known.get(id(expr))
        if known is None:
            names = frozenset(node.name for node in _walk(expr) if type(node) is Var)
            known = self.known[id(expr)] = names, _operator_depth(expr)
        return known

    def statement(self, stmt: Assign | Accumulate, scope: _Scope, scalars: dict[str, str], pad: str) -> None:
        self.temps = 0
        code: list[str] = []
        target = scalars.get(stmt.array) or self.access(stmt.array, stmt.indices, scope, code)[0]
        value = self.value(stmt.rhs, scope, scalars, code)[0]
        if isinstance(stmt, Accumulate):
            value = f"({target} + {value})"
        code.append(f"{target} = {value} % P")
        self.lines += [pad + line for line in code]

    def access(self, array: str, indices: tuple[Expr, ...], scope: _Scope, code: list[str]) -> tuple[str, int]:
        """`a<k>[...]...[...]` and its nesting, with row prefixes and compound indices bound where they can be.

        A prefix or compound index is bound at the level of the innermost
        loop variable it reads when that is outside the accessing level and
        no index of the access up to it needed a temporary.
        """
        if array not in self.arrays:
            raise BoundsError(f"unknown array '{array}'")
        level, temps = len(scope.frames) - 1, len(code)
        text, depth, reach, last = self.arrays[array], 0, 0, len(indices) - 1
        for k, index in enumerate(indices):
            spot, spot_depth, at = self.index(index, scope, code)
            inline = len(code) == temps
            if type(index) is BinOp and at < level and inline:
                spot, spot_depth = self.bind(scope.frames[at], spot, "x"), 0
            if at > reach:
                reach = at
            if spot_depth >= depth:
                depth = spot_depth + 1
            text = f"{text}[{spot}]"
            if k < last and reach < level and inline:
                text, depth = self.bind(scope.frames[reach], text, "r"), 0
        return text, depth

    def bind(self, frame: _Frame, text: str, kind: str) -> str:
        """The local holding `text`, assigned at the top of `frame` the first time it is asked for."""
        if text not in frame.bound:
            frame.bound[text] = f"{kind}{self.bound}"
            self.bound += 1
            frame.lines.append(f"{frame.pad}{frame.bound[text]} = {text}")
        return frame.bound[text]

    def value(self, expr: Expr, scope: _Scope, scalars: dict[str, str], code: list[str]) -> tuple[str, int]:
        """`expr` over GF(`p`) as an operand and its nesting; an operator at its root is parenthesized."""

        def leaf(node: Expr) -> tuple[str, int]:
            if isinstance(node, Const):
                value = _f32(node.value)
                return repr(value.numerator * pow(value.denominator, -1, self.p) % self.p), 0
            if isinstance(node, Var):
                return self.variable(node.name, scope)[0], 0
            if node.array in scalars:
                return scalars[node.array], 0
            return self.access(node.array, node.indices, scope, code)

        return self.operators(expr, code, leaf)

    def index(self, expr: Expr, scope: _Scope, code: list[str]) -> tuple[str, int, int]:
        """An int operand equal to an index, its nesting and its level.

        The level is that of the innermost loop variable the index reads.
        An index rendered without temporaries is remembered per scope.
        """
        known = scope.indices.get(id(expr))
        if known is not None:
            return known
        temps = len(code)
        level = max((self.variable(name, scope)[1] for name in self.facts(expr)[0]), default=0)
        spot, depth = self.operators(
            expr, code,
            lambda node: (repr(int(_f32(node.value))) if isinstance(node, Const) else self.variable(node.name, scope)[0], 0),
        )
        spot = _bare(spot)
        if len(code) == temps:
            scope.indices[id(expr)] = spot, depth, level
        return spot, depth, level

    def operators(self, expr: Expr, code: list[str], leaf) -> tuple[str, int]:
        """`expr` as one operand and its nesting, with `leaf` giving the other nodes with theirs.

        Each operator is parenthesized; one that would nest deeper than
        `_INLINE_DEPTH` goes into a temporary.
        """
        stack: list[tuple[str, int]] = []
        for node in _postorder(expr):
            if type(node) is BinOp:
                right, right_depth = stack.pop()
                left, depth = stack.pop()
                depth = (depth if depth > right_depth else right_depth) + 1
                if depth > _INLINE_DEPTH:
                    stack.append((self.temp(code, f"{left} {node.op} {right}"), 0))
                else:
                    stack.append((f"({left} {node.op} {right})", depth))
            else:
                stack.append(leaf(node))
        return stack.pop()

    def temp(self, code: list[str], value: str) -> str:
        self.temps += 1
        code.append(f"t{self.temps} = {value}")
        return f"t{self.temps}"

    def variable(self, name: str, scope: _Scope) -> tuple[str, int]:
        """The Python name of a loop variable and the level that binds it."""
        if name not in scope.names:
            raise BoundsError(f"unbound variable '{name}'")
        return scope.names[name]


def _compile(nest: LoopNest, p: int):
    compiler = _Compiler(nest, p)
    exec(compile(compiler.source, f"<loop nest {nest.name}>", "exec"), compiler.namespace)
    return compiler.namespace["k0"]


def interpret(nest: LoopNest, inputs: dict[str, np.ndarray], p: int = P) -> dict[str, np.ndarray]:
    """Run the kernel sequentially over GF(`p`) and return all arrays as int64.

    Inputs are integer arrays.  Values are computed in Python ints, with
    each stored value reduced mod `p`; a constant is its f32 value, n / 2**k,
    as n times the inverse of 2**k mod `p`.  Indices are exact.  The nest is
    compiled to Python on its first run for `p` and the function kept on
    the nest object.  Variables are scoped lexically: an inner loop that
    reuses a name shadows the outer one only inside its body.
    """
    declared = {a.name: a.extents for a in nest.arrays}
    if set(inputs) != set(declared):
        raise ShapeMismatch(f"inputs {sorted(inputs)} do not match arrays {sorted(declared)}")
    lists = []
    for name, extents in declared.items():
        value = np.asarray(inputs[name])
        if value.shape != extents:
            raise ShapeMismatch(f"{name} has shape {value.shape}, expected {extents}")
        if not np.issubdtype(value.dtype, np.integer):
            raise ShapeMismatch(f"{name} holds {value.dtype}, expected integers")
        lists.append(value.tolist())
    program = nest._programs.get(p)
    if program is None:
        program = nest._programs[p] = _compile(nest, p)
    program(*lists)
    # The reshape keeps a zero extent after the first, which nested lists cannot show.
    return {name: np.array(rows, np.int64).reshape(extents) for (name, extents), rows in zip(declared.items(), lists)}


@dataclass(frozen=True)
class EquivalenceVerdict:
    passed: bool
    trials_run: int
    detail: str = ""

    def __bool__(self) -> bool:
        return self.passed


def _is_prime(n: int) -> bool:
    """Miller-Rabin on bases 2, 3, 5 and 7, which is exact below 3 215 031 751."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_equivalence(k1: LoopNest, k2: LoopNest, seed: int = 0) -> EquivalenceVerdict:
    """Compare both kernels in one exact trial over GF(p).

    The seed draws p, the first prime at or above a uniform draw in
    [2**29, `P`], and then the inputs, uniform in [0, p).  Both kernels run
    over GF(p) (see `interpret`) and their outputs are compared exactly.  A
    nest computes only `+ - *` on dyadic constants, so each output is a
    polynomial in the inputs.  A wrong kernel whose outputs differ by a
    polynomial of degree d passes with probability at most d/p (Schwartz
    1980, Zippel 1979), plus the chance that p divides every coefficient of
    the difference; legal reorderings, tilings and unrollings always pass.
    """
    sig1 = tuple((a.name, a.extents) for a in k1.arrays)
    sig2 = tuple((a.name, a.extents) for a in k2.arrays)
    if sig1 != sig2:
        raise SignatureMismatch(f"signatures differ: {sig1} vs {sig2}")
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2**29, P + 1))
    while not _is_prime(p):
        p += 1
    inputs = {a.name: rng.integers(0, p, size=a.extents) for a in k1.arrays}
    out1 = interpret(k1, inputs, p)
    out2 = interpret(k2, inputs, p)
    for name in out1:
        if not np.array_equal(out1[name], out2[name]):
            return EquivalenceVerdict(False, 1, f"trial 0: array '{name}' differs")
    return EquivalenceVerdict(True, 1)


# -- reduced clones and the cost proxy -----------------------------------------


def reduce_extents(nest: LoopNest, limit: int = 8) -> LoopNest:
    """Shrink every extent above `limit` to it, consistently by value.

    Loop bounds in the unscheduled kernels are exactly the extent
    constants, so a value map keeps arrays and loops in agreement.
    """
    mapping = {}
    for decl in nest.arrays:
        for extent in decl.extents:
            mapping[extent] = min(extent, limit)
    arrays = tuple(
        ArrayDecl(a.name, tuple(mapping[e] for e in a.extents)) for a in nest.arrays
    )

    def rewrite(stmt: Statement) -> Statement:
        if isinstance(stmt, Loop):
            hi = mapping.get(stmt.hi, stmt.hi)
            return Loop(stmt.var, stmt.lo, hi, tuple(rewrite(s) for s in stmt.body))
        return stmt

    reduced = LoopNest(nest.name, arrays, tuple(rewrite(s) for s in nest.body))
    check_bounds(reduced)
    return reduced


def _const_value(expr: Expr) -> int | float | None:
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, BinOp):
        left = _const_value(expr.left)
        right = _const_value(expr.right)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        return left * right
    return None


def _coefficient(expr: Expr, var: str) -> int | float | None:
    """Affine coefficient of `var` in `expr`, or None when non-affine."""
    if isinstance(expr, Const):
        return 0
    if isinstance(expr, Var):
        return 1 if expr.name == var else 0
    if isinstance(expr, Read):
        return None
    left = _coefficient(expr.left, var)
    right = _coefficient(expr.right, var)
    if expr.op in ("+", "-"):
        if left is None or right is None:
            return None
        return left + right if expr.op == "+" else left - right
    lconst = _const_value(expr.left)
    rconst = _const_value(expr.right)
    if lconst is not None and right is not None:
        return lconst * right
    if rconst is not None and left is not None:
        return left * rconst
    return None


STRIDE_PENALTY = 4.0


def locality_cost(nest: LoopNest) -> float:
    """Dynamic statement count plus a penalty per strided access execution.

    Every loop header and leaf statement instance counts once.  Each array
    access is charged `STRIDE_PENALTY` per execution when the innermost enclosing
    loop variable appearing in its indices walks the flattened row-major
    layout with a stride other than one.  The cost is kept on the nest object.
    """
    return nest._locality_cost


def _locality_walk(nest: LoopNest) -> float:
    """`locality_cost`, walked over the nest."""
    extents = {a.name: a.extents for a in nest.arrays}

    def row_weights(shape: tuple[int, ...]) -> list[int]:
        weights = [1] * len(shape)
        for d in range(len(shape) - 2, -1, -1):
            weights[d] = weights[d + 1] * shape[d + 1]
        return weights

    def access_is_strided(array: str, indices: tuple[Expr, ...], loop_vars: list[str]) -> bool:
        used = set().union(*(free_vars(i) for i in indices)) if indices else set()
        innermost = next((v for v in reversed(loop_vars) if v in used), None)
        if innermost is None:
            return False
        weights = row_weights(extents[array])
        stride = 0.0
        for dim, index in enumerate(indices):
            coefficient = _coefficient(index, innermost)
            if coefficient is None:
                return True  # non-affine: assume the worst
            stride += coefficient * weights[dim]
        return stride != 1

    total = 0.0

    def visit(stmts: tuple[Statement, ...], multiplier: float, loop_vars: list[str]) -> None:
        nonlocal total
        for stmt in stmts:
            total += multiplier
            if isinstance(stmt, Loop):
                visit(stmt.body, multiplier * (stmt.hi - stmt.lo), loop_vars + [stmt.var])
                continue
            accesses = [(stmt.array, stmt.indices)]
            accesses.extend(
                (node.array, node.indices) for node in _walk(stmt.rhs) if isinstance(node, Read)
            )
            for array, indices in accesses:
                if access_is_strided(array, indices, loop_vars):
                    total += STRIDE_PENALTY * multiplier

    visit(nest.body, 1.0, [])
    return total
