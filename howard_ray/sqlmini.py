"""Mini-SQL surface: compile a small SQL subset to a Ray Data plan.

The reference's primary user surface is arbitrary SQL over the variants
table (``howard query``, howard/tools/query.py:22-74; the CLI --query
path). A full SQL engine is out of scope here, but the shape of the
surface matters: this module parses the subset

    SELECT [DISTINCT] item [, item ...] | *
    FROM <table> [JOIN <table> ON col = col ...]
    [WHERE bool-expr]   -- AND/OR/NOT, parens, BETWEEN, IN, IS [NOT] NULL
    [GROUP BY col [, col ...]]
    [HAVING bool-expr]          -- over output aliases
    [ORDER BY col [DESC] [, ...]]
    [LIMIT n]

    item := col
          | COUNT(*) AS alias
          | COUNT(DISTINCT col) AS alias
          | [ROUND(] SUM|MIN|MAX|AVG|COUNT (col) [, nd )] AS alias
    OP   := = != <> < <= > >= LIKE (with %substr% pattern)
          | IN (lit, ...) | BETWEEN lit AND lit

WHERE / HAVING are parsed with a recursive-descent boolean grammar
(AND binds tighter than OR, parentheses group) and compiled to
disjunctive normal form. A single-branch DNF is the classic conjunction
and keeps every fast path (zone pruning, predicate pushdown, metadata
answers). A multi-branch DNF evaluates as one vectorized Kleene-OR of
per-branch AND masks; over a store, blocks are pruned when EVERY branch's
zone classification says 'none' (union-of-branches pruning).

COUNT(DISTINCT) runs as a value-hash-bucketed distinct fold (bounded
groupby, DESIGN.md §8.1), never a distinct-key-count Ray groupby; HAVING
filters the (small) aggregate result driver-side.

and compiles it to the idiomatic Ray pipeline: column-pruned
``read_parquet`` → vectorized Arrow predicate in ``map_batches`` →
``groupby().aggregate()`` (Ray's partial-then-final grouped aggregation)
→ ordered driver-side finish on the (small) aggregate result. AVG is
computed as SUM/COUNT so the distributed part stays mergeable. Plain
(non-aggregate) SELECTs keep ORDER BY / LIMIT distributed (``ds.sort`` /
``ds.limit``) — only the already-limited result reaches the driver.

The correctness gate runs THE SAME SQL TEXT through DuckDB as the oracle —
one string, two engines, value-hash-equal results.

``FROM store`` runs the surface directly over an encoded store
(:func:`decode_store` scan: pruned columns, zone-map block pruning on every
range conjunct, the FULL pushable conjunction evaluated inside the scan
with progressive predicate-column decoding) — and a pure
COUNT(*)/SUM/MIN/MAX/AVG SELECT with no WHERE/GROUP BY short-circuits to
:func:`_store_metadata_answer`, which answers from the footer zone-map
stats with zero block decodes.
"""

from __future__ import annotations

import json
import math
import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _sql_round(v, nd: int):
    """DuckDB-compatible ROUND over doubles: round-half-AWAY-from-zero on
    the scaled value ``v * 10**nd`` (DuckDB applies std::round to the
    scaled double), where numpy/pandas/python round half-to-even — the two
    disagree exactly when the scaled product lands on .5, which is common
    for money-like 2-decimal inputs divided by powers of ten. Ties are
    detected exactly (binary ``frac >= 0.5`` after the same scaling the
    oracle performs), avoiding the classic ``floor(y+0.5)`` drift at
    non-tie values like 0.49999999999999994. NaN/None pass through."""
    p = 10.0 ** nd
    y = np.asarray(v, dtype=float) * p
    a = np.abs(y)
    f = np.floor(a)
    with np.errstate(invalid="ignore"):
        r = np.where(a - f >= 0.5, f + 1.0, f)
    out = np.copysign(r, y) / p
    if isinstance(v, pd.Series):
        return pd.Series(out, index=v.index, name=v.name)
    if np.ndim(out) == 0:
        return float(out)
    return out

_AGGS = {"COUNT", "SUM", "MIN", "MAX", "AVG"}

_ITEM_RE = re.compile(
    r"^(?:(?P<round>ROUND\()\s*)?"
    r"(?:(?P<agg>COUNT|SUM|MIN|MAX|AVG)\(\s*(?P<distinct>DISTINCT\s+)?"
    r"(?P<arg>\*|[A-Za-z_][\w]*)\s*\)"
    r"|(?P<col>[A-Za-z_][\w]*))"
    r"(?:\s*,\s*(?P<nd>\d+)\s*\))?"
    r"(?:\s+AS\s+(?P<alias>[A-Za-z_][\w]*))?$",
    re.IGNORECASE)

_LIT_RE = re.compile(r"^('(?:[^']*)'|-?\d+(?:\.\d+)?)$")

_SQL_RE = re.compile(
    r"^\s*SELECT\s+(?P<select>.+?)\s+FROM\s+(?P<from>[A-Za-z_][\w]*"
    r"(?:\s+(?:LEFT\s+(?:OUTER\s+)?)?JOIN\s+[A-Za-z_][\w]*\s+ON\s+"
    r"[A-Za-z_][\w]*\s*=\s*[A-Za-z_][\w]*)*)"
    r"(?:\s+WHERE\s+(?P<where>.+?))?"
    r"(?:\s+GROUP\s+BY\s+(?P<group>.+?))?"
    r"(?:\s+HAVING\s+(?P<having>.+?))?"
    r"(?:\s+ORDER\s+BY\s+(?P<order>.+?))?"
    r"(?:\s+LIMIT\s+(?P<limit>\d+))?\s*;?\s*$",
    re.IGNORECASE | re.DOTALL)


def _split_commas(s: str) -> list[str]:
    """Split on commas not inside parentheses or string literals."""
    out, depth, cur, instr = [], 0, [], False
    for ch in s:
        if ch == "'":
            instr = not instr
        elif not instr:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
        if ch == "," and depth == 0 and not instr:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur).strip())
    return out


_JOIN_RE = re.compile(
    r"\s+(?:(?P<left>LEFT)\s+(?:OUTER\s+)?)?JOIN\s+"
    r"(?P<table>[A-Za-z_][\w]*)\s+ON\s+"
    r"(?P<a>[A-Za-z_][\w]*)\s*=\s*(?P<b>[A-Za-z_][\w]*)",
    re.IGNORECASE)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<str>'[^']*')"
    r"|(?P<num>-?\d+(?:\.\d+)?)"
    r"|(?P<id>[A-Za-z_]\w*)"
    r"|(?P<sym>>=|<=|!=|<>|=|<|>|\(|\)|,))")

_MAX_DNF_BRANCHES = 64


def _lit_val(tok: str):
    if tok.startswith("'"):
        return tok[1:-1]
    return float(tok) if "." in tok else int(tok)


# ---------------------------------------------------------------------------
# Scalar arithmetic expressions (SELECT items and aggregate arguments).
#
# The reference's SQL surface runs arbitrary DuckDB expressions
# (howard/tools/query.py:26-96); this subset covers the arithmetic that
# real analytics need — TPC-H Q1's SUM(l_extendedprice * (1 - l_discount))
# shape — compiled to vectorized pyarrow.compute kernels inside one
# map_batches stage. Grammar (precedence: unary minus > * / > + -):
#
#     expr   := term (('+'|'-') term)*
#     term   := factor (('*'|'/') factor)*
#     factor := '-' factor | '(' expr ')' | CASE ... END | column
#               | number | string
#
# CASE WHEN <bool> THEN expr [WHEN ...]* [ELSE expr] END is a factor
# (TPC-H Q12/Q14 conditional-aggregation shape); the WHEN condition is a
# boolean grammar over comparisons of sub-expressions (OR / AND / NOT,
# LIKE, IS [NOT] NULL), evaluated with Kleene kernels and SQL's
# NULL-condition-selects-nothing rule applied once per WHEN arm.
#
# AST nodes: ('col', name) | ('lit', value) | ('neg', x) | (op, l, r)
# | ('case', ((cond, val), ...), else|None) | ('cmp', op, l, r)
# | ('and'|'or', l, r) | ('not', x) | ('like', x, pat)
# | ('isnull'|'notnull', x).
# '/' follows SQL semantics (always float division — DuckDB's '/'), so
# the same text evaluates identically in both engines; + - * keep integer
# types on integer inputs, as SQL does. Elementwise IEEE arithmetic is
# deterministic, so unrounded float expressions still value-hash-match
# the oracle (only REDUCTIONS over floats are order-sensitive).
# ---------------------------------------------------------------------------

_EXPR_TOK_RE = re.compile(
    r"\s*(?:'(?P<str>(?:[^']|'')*)'"
    r"|(?P<num>\d+(?:\.\d+)?)"
    r"|(?P<id>[A-Za-z_]\w*)"
    r"|(?P<sym><=|>=|<>|!=|=|<|>|\+|-|\*|/|\(|\)|,))")

# reserved inside expressions — never column names
_EXPR_KEYWORDS = {"CASE", "WHEN", "THEN", "ELSE", "END",
                  "AND", "OR", "NOT", "IS", "NULL", "LIKE",
                  "BETWEEN", "IN"}

_CMP_OPS = ("=", "!=", "<>", "<", "<=", ">", ">=")

_AGG_FNS = {"COUNT", "SUM", "MIN", "MAX", "AVG"}

# scalar functions → (min_args, max_args); evaluated in _eval_fn with
# pyarrow.compute kernels (ROUND via _sql_round for DuckDB tie parity)
_SCALAR_FNS = {"ABS": (1, 1), "LENGTH": (1, 1), "LOWER": (1, 1),
               "UPPER": (1, 1), "FLOOR": (1, 1), "CEIL": (1, 1),
               "CEILING": (1, 1), "COALESCE": (2, 8), "SUBSTR": (3, 3),
               "SUBSTRING": (3, 3), "ROUND": (2, 2)}


class _ExprParser:
    def __init__(self, text: str):
        # string-literal tokens are ('str', value) tuples so 'CASE' the
        # string can never be confused with CASE the keyword
        self.toks: list = []
        i = 0
        while i < len(text):
            m = _EXPR_TOK_RE.match(text, i)
            if not m or m.end() == i:
                if text[i:].strip():
                    raise ValueError(
                        f"unsupported expression near {text[i:i+24]!r}")
                break
            if m.group("str") is not None:
                self.toks.append(("str", m.group("str").replace("''", "'")))
            else:
                self.toks.append(m.group("num") or m.group("id")
                                 or m.group("sym"))
            i = m.end()
        self.i = 0

    def _peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _next(self):
        t = self._peek()
        self.i += 1
        return t

    def _kw(self, word: str) -> bool:
        t = self._peek()
        return isinstance(t, str) and t.upper() == word

    def parse(self) -> tuple:
        node = self._expr()
        if self._peek() is not None:
            raise ValueError(
                f"unexpected token {self._peek()!r} in expression")
        return node

    def parse_bool(self) -> tuple:
        node = self._bool()
        if self._peek() is not None:
            raise ValueError(
                f"unexpected token {self._peek()!r} in condition")
        return node

    def _expr(self) -> tuple:
        node = self._term()
        while self._peek() in ("+", "-"):
            op = self._next()
            node = (op, node, self._term())
        return node

    def _term(self) -> tuple:
        node = self._factor()
        while self._peek() in ("*", "/"):
            op = self._next()
            node = (op, node, self._factor())
        return node

    def _factor(self) -> tuple:
        t = self._peek()
        if isinstance(t, tuple):  # string literal
            self._next()
            return ("lit", t[1])
        if t == "-":
            self._next()
            return ("neg", self._factor())
        if t == "(":
            self._next()
            node = self._expr()
            if self._next() != ")":
                raise ValueError("unbalanced parentheses in expression")
            return node
        if self._kw("CASE"):
            return self._case()
        # aggregate call as a factor: SUM(expr), COUNT(*), ... — yields an
        # ('aggref', AGG, arg) node; whether that's legal where it appears
        # is decided by the item classifier (_parse_item_expr)
        if (isinstance(t, str) and t.upper() in _AGG_FNS
                and self.i + 1 < len(self.toks)
                and self.toks[self.i + 1] == "("):
            agg = self._next().upper()
            self._next()  # (
            if agg == "COUNT" and self._peek() == "*":
                self._next()
                arg = "*"
            else:
                if self._kw("DISTINCT"):
                    raise ValueError(
                        "DISTINCT is unsupported inside aggregate "
                        "expressions")
                arg = self._expr()
            if self._next() != ")":
                raise ValueError("unbalanced parentheses in aggregate call")
            return ("aggref", agg, arg)
        # scalar function call: FN(arg [, arg]*)
        if (isinstance(t, str) and t.upper() in _SCALAR_FNS
                and self.i + 1 < len(self.toks)
                and self.toks[self.i + 1] == "("):
            fn = self._next().upper()
            self._next()  # (
            args = [self._expr()]
            while self._peek() == ",":
                self._next()
                args.append(self._expr())
            if self._next() != ")":
                raise ValueError(f"unbalanced parentheses in {fn}(...)")
            lo, hi = _SCALAR_FNS[fn]
            if not lo <= len(args) <= hi:
                raise ValueError(
                    f"{fn} takes {lo}..{hi} arguments, got {len(args)}")
            if fn == "CEILING":
                fn = "CEIL"
            elif fn == "SUBSTRING":
                fn = "SUBSTR"
            return ("fn", fn, tuple(args))
        t = self._next()
        if t is None:
            raise ValueError("dangling expression")
        if re.fullmatch(r"\d+(?:\.\d+)?", t):
            return ("lit", float(t) if "." in t else int(t))
        if re.fullmatch(r"[A-Za-z_]\w*", t):
            if t.upper() in _EXPR_KEYWORDS:
                raise ValueError(
                    f"misplaced keyword {t!r} in expression")
            return ("col", t)
        raise ValueError(f"unsupported expression token {t!r}")

    # -- CASE WHEN ... THEN ... [ELSE ...] END --------------------------
    def _case(self) -> tuple:
        self._next()  # CASE
        whens: list[tuple] = []
        while self._kw("WHEN"):
            self._next()
            cond = self._bool()
            if not self._kw("THEN"):
                raise ValueError("CASE WHEN needs THEN")
            self._next()
            whens.append((cond, self._expr()))
        if not whens:
            raise ValueError("CASE needs at least one WHEN arm")
        els = None
        if self._kw("ELSE"):
            self._next()
            els = self._expr()
        if not self._kw("END"):
            raise ValueError("CASE needs END")
        self._next()
        return ("case", tuple(whens), els)

    def _bool(self) -> tuple:
        node = self._booland()
        while self._kw("OR"):
            self._next()
            node = ("or", node, self._booland())
        return node

    def _booland(self) -> tuple:
        node = self._boolnot()
        while self._kw("AND"):
            self._next()
            node = ("and", node, self._boolnot())
        return node

    def _boolnot(self) -> tuple:
        if self._kw("NOT"):
            self._next()
            return ("not", self._boolnot())
        return self._boolatom()

    def _boolatom(self) -> tuple:
        # '(' is ambiguous: boolean grouping vs arithmetic parens in a
        # comparison's lhs — try boolean first, backtrack on failure
        # (tokens are a flat list, so backtracking is an index reset)
        if self._peek() == "(":
            save = self.i
            self._next()
            try:
                node = self._bool()
                if self._next() != ")":
                    raise ValueError("unbalanced parens in CASE condition")
                return node
            except ValueError:
                self.i = save
        return self._comparison()

    def _comparison(self) -> tuple:
        lhs = self._expr()
        if self._kw("IS"):
            self._next()
            neg = False
            if self._kw("NOT"):
                self._next()
                neg = True
            t = self._next()
            if not (isinstance(t, str) and t.upper() == "NULL"):
                raise ValueError("IS must be followed by [NOT] NULL")
            return ("notnull" if neg else "isnull", lhs)
        if self._kw("NOT"):
            self._next()
            if self._kw("BETWEEN"):
                return ("not", self._between(lhs))
            if self._kw("IN"):
                return ("not", self._inlist(lhs))
            if not self._kw("LIKE"):
                raise ValueError(
                    "expected LIKE/BETWEEN/IN after NOT in condition")
            self._next()
            pat = self._next()
            if not isinstance(pat, tuple):
                raise ValueError("LIKE needs a string literal pattern")
            return ("not", ("like", lhs, pat[1]))
        if self._kw("LIKE"):
            self._next()
            pat = self._next()
            if not isinstance(pat, tuple):
                raise ValueError("LIKE needs a string literal pattern")
            return ("like", lhs, pat[1])
        if self._kw("BETWEEN"):
            return self._between(lhs)
        if self._kw("IN"):
            return self._inlist(lhs)
        t = self._peek()
        if t in _CMP_OPS:
            op = self._next()
            return ("cmp", "!=" if op == "<>" else op, lhs, self._expr())
        raise ValueError(
            f"expected a comparison operator in condition, got {t!r}")

    def _between(self, lhs: tuple) -> tuple:
        # lhs BETWEEN e1 AND e2 — the AND belongs to BETWEEN, consumed here
        self._next()
        lo = self._expr()
        if not self._kw("AND"):
            raise ValueError("BETWEEN needs AND")
        self._next()
        return ("and", ("cmp", ">=", lhs, lo),
                ("cmp", "<=", lhs, self._expr()))

    def _inlist(self, lhs: tuple) -> tuple:
        self._next()
        if self._next() != "(":
            raise ValueError("IN needs a parenthesized literal list")
        node = None
        while True:
            alt = ("cmp", "=", lhs, self._expr())
            node = alt if node is None else ("or", node, alt)
            t = self._next()
            if t == ")":
                return node
            if t != ",":
                raise ValueError("IN list items must be comma-separated")


def _parse_expr(text: str) -> tuple:
    node = _ExprParser(text).parse()
    if node[0] in ("col", "lit"):
        # a bare column/literal is not an "expression item" — the plain
        # item paths (and their fast paths) own those
        raise ValueError(f"not a compound expression: {text!r}")
    return node


def _expr_cols(node: tuple, out: set | None = None) -> set:
    out = out if out is not None else set()
    kind = node[0]
    if kind == "col":
        out.add(node[1])
    elif kind == "lit":
        pass
    elif kind in ("neg", "not", "isnull", "notnull", "like"):
        _expr_cols(node[1], out)
    elif kind == "aggref":
        if isinstance(node[2], tuple):
            _expr_cols(node[2], out)
    elif kind == "fn":
        for a in node[2]:
            _expr_cols(a, out)
    elif kind == "case":
        for cond, val in node[1]:
            _expr_cols(cond, out)
            _expr_cols(val, out)
        if node[2] is not None:
            _expr_cols(node[2], out)
    elif kind == "cmp":
        _expr_cols(node[2], out)
        _expr_cols(node[3], out)
    else:  # binary arithmetic / and / or
        _expr_cols(node[1], out)
        _expr_cols(node[2], out)
    return out


def _eval_expr(node: tuple, batch: pa.Table):
    """Evaluate an expression AST over an Arrow batch → Array/scalar.
    '/' casts both sides to float64 (SQL float-division semantics,
    matching DuckDB's '/'); + - * keep Arrow's native type promotion
    (int op int stays int, like SQL)."""
    kind = node[0]
    if kind == "col":
        col = batch[node[1]]
        return col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
            else col
    if kind == "lit":
        return node[1]
    if kind == "neg":
        v = _eval_expr(node[1], batch)
        return -v if isinstance(v, (int, float)) else pc.negate(v)
    if kind == "case":
        return _eval_case(node, batch)
    if kind == "fn":
        return _eval_fn(node, batch)
    if kind == "aggref":  # backstop: lowering missed an aggregate call
        raise ValueError(
            f"internal: aggregate {node[1]}(...) reached row evaluation "
            "un-lowered — _lower_postagg should have replaced it")
    lv = _eval_expr(node[1], batch)
    rv = _eval_expr(node[2], batch)
    if kind == "/":
        lv = float(lv) if isinstance(lv, (int, float)) \
            else pc.cast(lv, pa.float64())
        rv = float(rv) if isinstance(rv, (int, float)) \
            else pc.cast(rv, pa.float64())
    if isinstance(lv, (int, float)) and isinstance(rv, (int, float)):
        return {"+": lv + rv, "-": lv - rv,
                "*": lv * rv, "/": lv / rv if rv else float("nan")}[kind]
    fn = {"+": pc.add, "-": pc.subtract,
          "*": pc.multiply, "/": pc.divide}[kind]
    return fn(lv, rv)


def _eval_fn(node: tuple, batch: pa.Table):
    """Scalar SQL functions → pyarrow.compute kernels. LENGTH counts
    characters (utf8_length, like DuckDB's length on VARCHAR); SUBSTR is
    SQL 1-based (start, len both positive); ROUND matches DuckDB's
    half-away-from-zero via _sql_round, not Arrow's banker's rounding."""
    fn, args = node[1], node[2]
    vals = [_eval_expr(a, batch) for a in args]

    def _arr(v):
        return v.combine_chunks() if isinstance(v, pa.ChunkedArray) else v

    v0 = _arr(vals[0])
    if fn == "ABS":
        return abs(v0) if isinstance(v0, (int, float)) else pc.abs(v0)
    if fn == "LENGTH":
        # cast to int64: DuckDB's length() is BIGINT, Arrow's is int32
        return len(v0) if isinstance(v0, str) \
            else pc.cast(pc.utf8_length(v0), pa.int64())
    if fn == "LOWER":
        return v0.lower() if isinstance(v0, str) else pc.utf8_lower(v0)
    if fn == "UPPER":
        return v0.upper() if isinstance(v0, str) else pc.utf8_upper(v0)
    if fn == "FLOOR":
        return math.floor(v0) if isinstance(v0, (int, float)) \
            else pc.floor(v0)
    if fn == "CEIL":
        return math.ceil(v0) if isinstance(v0, (int, float)) \
            else pc.ceil(v0)
    if fn == "COALESCE":
        cv = [_arr(v) for v in vals]
        if all(isinstance(v, (int, float, str)) for v in cv):
            return cv[0]
        return pc.coalesce(*cv)
    if fn == "SUBSTR":
        start, length = vals[1], vals[2]
        if not isinstance(start, int) or not isinstance(length, int) \
                or start < 1 or length < 0:
            raise ValueError(
                "SUBSTR needs positive integer literal start/len")
        if isinstance(v0, str):
            return v0[start - 1:start - 1 + length]
        return pc.utf8_slice_codeunits(v0, start - 1, start - 1 + length)
    if fn == "ROUND":
        nd = vals[1]
        if not isinstance(nd, int):
            raise ValueError("ROUND digit count must be an integer literal")
        if isinstance(v0, (int, float)):
            return float(_sql_round(float(v0), nd))
        return pa.array(_sql_round(
            pc.cast(v0, pa.float64()).to_numpy(zero_copy_only=False), nd))
    raise ValueError(f"unknown scalar function {fn}")


def _eval_bool(node: tuple, batch: pa.Table):
    """Evaluate a CASE-condition AST → BooleanArray (Kleene three-valued,
    may contain nulls) or a Python bool for all-constant conditions."""
    kind = node[0]
    if kind == "and":
        lv, rv = _eval_bool(node[1], batch), _eval_bool(node[2], batch)
        if isinstance(lv, bool) and isinstance(rv, bool):
            return lv and rv
        return pc.and_kleene(lv, rv)
    if kind == "or":
        lv, rv = _eval_bool(node[1], batch), _eval_bool(node[2], batch)
        if isinstance(lv, bool) and isinstance(rv, bool):
            return lv or rv
        return pc.or_kleene(lv, rv)
    if kind == "not":
        v = _eval_bool(node[1], batch)
        return (not v) if isinstance(v, bool) else pc.invert(v)
    if kind == "like":
        return pc.match_like(_eval_expr(node[1], batch), node[2])
    if kind == "isnull":
        v = _eval_expr(node[1], batch)
        return False if isinstance(v, (int, float, str)) else pc.is_null(v)
    if kind == "notnull":
        v = _eval_expr(node[1], batch)
        return True if isinstance(v, (int, float, str)) else pc.is_valid(v)
    # ('cmp', op, l, r)
    op, lv, rv = node[1], _eval_expr(node[2], batch), \
        _eval_expr(node[3], batch)
    if isinstance(lv, (int, float, str)) and isinstance(rv, (int, float, str)):
        return {"=": lv == rv, "!=": lv != rv, "<": lv < rv,
                "<=": lv <= rv, ">": lv > rv, ">=": lv >= rv}[op]
    fn = {"=": pc.equal, "!=": pc.not_equal, "<": pc.less,
          "<=": pc.less_equal, ">": pc.greater, ">=": pc.greater_equal}[op]
    return fn(lv, rv)


def _eval_case(node: tuple, batch: pa.Table):
    """SQL CASE: first WHEN whose condition is TRUE wins (NULL condition
    selects nothing); no match → ELSE, or NULL without one. Vectorized as
    a reversed pc.if_else chain; branch values are unified to one Arrow
    type first (ints widen to float64 when any branch is float, exactly
    DuckDB's promotion for the types this grammar can produce)."""
    whens, els = node[1], node[2]
    conds = [_eval_bool(c, batch) for c, _ in whens]
    vals = [_eval_expr(v, batch) for _, v in whens]
    ev = _eval_expr(els, batch) if els is not None else None
    branches = vals + ([ev] if els is not None else [])
    # unified result type across all branch values
    arrs = [b for b in branches if isinstance(b, (pa.Array, pa.ChunkedArray))]

    def _is_str(b):
        return isinstance(b, str) or (
            isinstance(b, (pa.Array, pa.ChunkedArray))
            and (pa.types.is_string(b.type)
                 or pa.types.is_large_string(b.type)))

    def _is_float(b):
        return isinstance(b, float) or (
            isinstance(b, (pa.Array, pa.ChunkedArray))
            and pa.types.is_floating(b.type))

    if any(_is_str(b) for b in branches):
        typ = pa.string()
    elif any(_is_float(b) for b in branches):
        typ = pa.float64()
    else:
        typ = arrs[0].type if arrs else pa.int64()

    def _as(v):
        if isinstance(v, (pa.Array, pa.ChunkedArray)):
            v = v.combine_chunks() if isinstance(v, pa.ChunkedArray) else v
            return v if v.type == typ else pc.cast(v, typ)
        return pa.scalar(v, type=typ)

    res = _as(ev) if els is not None else pa.scalar(None, type=typ)
    for c, v in zip(reversed(conds), reversed(vals)):
        if isinstance(c, bool):
            c = pa.array([c] * batch.num_rows)
        elif isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        c = pc.fill_null(c, False)  # SQL: NULL condition selects nothing
        res = pc.if_else(c, _as(v), res)
    if isinstance(res, pa.Scalar):  # every branch constant, no rows hit
        res = pa.array([res.as_py()] * batch.num_rows, type=typ)
    return res


def _has_expr(plan: dict) -> bool:
    """True when the plan carries expression constructs that footer-stat
    fast paths cannot fold (expression items, post-aggregation residuals,
    expression WHERE/HAVING masks)."""
    return (plan.get("where_expr") is not None
            or plan.get("having_expr") is not None
            or any(it.get("expr") or it.get("post_expr")
                   for it in plan["items"]))


def _extract_aggrefs(node, acc: list):
    """Replace every ('aggref', AGG, arg) in the AST with a ('col',
    hidden_alias) reference, collecting (alias, (AGG, arg)) pairs in acc
    (deduplicated: two uses of SUM(x) share one hidden aggregate)."""
    if not isinstance(node, tuple):
        return node
    if node[0] == "aggref":
        agg, arg = node[1], node[2]
        key = ("COUNT", "*") if arg == "*" else (agg, arg)
        for alias, k in acc:
            if k == key:
                return ("col", alias)
        alias = f"__pa{len(acc)}"
        acc.append((alias, key))
        return ("col", alias)
    if node[0] == "case":
        whens = tuple((_extract_aggrefs(c, acc), _extract_aggrefs(v, acc))
                      for c, v in node[1])
        els = (_extract_aggrefs(node[2], acc)
               if node[2] is not None else None)
        return ("case", whens, els)
    if node[0] == "fn":
        # node[2] is the ARGS TUPLE, not an AST node — recurse per-arg
        # (the generic walk below would mistake it for a node and skip
        # its first element, leaving aggrefs un-lowered inside FLOOR(
        # AVG(x)) etc.)
        return ("fn", node[1],
                tuple(_extract_aggrefs(a, acc) for a in node[2]))
    return (node[0],) + tuple(
        _extract_aggrefs(x, acc) if isinstance(x, tuple) else x
        for x in node[1:])


def _lower_postagg(items: list[dict], having_expr=None,
                   order_raw: list | None = None,
                   is_agg_query: bool = False):
    """Rewrite post-aggregation items in place: each aggref becomes a
    HIDDEN aggregate item computed by the ordinary grouped machinery; the
    residual expression (stored as 'post_expr') is evaluated over the
    small result frame after aggregation. A HAVING expression's raw
    aggregate calls lower through the same accumulator (shared dedupe).
    ORDER BY keys that are expressions (``ORDER BY COUNT(*) DESC``,
    ``ORDER BY SUM(a)/COUNT(*)``, ``ORDER BY LENGTH(x)``) lower to hidden
    items too — the sort runs on the hidden column, dropped before output.
    Returns (items-with-hidden-appended, rewritten having_expr, order)."""
    acc: list[tuple] = []
    for it in items:
        if it.get("postagg") is not None:
            it["post_expr"] = _extract_aggrefs(it.pop("postagg"), acc)
    if having_expr is not None:
        having_expr = _extract_aggrefs(having_expr, acc)
    order: list[tuple[str, bool]] = []
    ord_hidden: list[dict] = []
    for i, (txt, desc) in enumerate(order_raw or []):
        if re.fullmatch(r"[A-Za-z_]\w*", txt):
            order.append((txt, desc))
            continue
        ast = _ExprParser(txt).parse()
        if ast[0] == "aggref":
            # a lone aggregate call: reuse/create its hidden agg item
            ref = _extract_aggrefs(ast, acc)
            order.append((ref[1], desc))
            continue
        alias = f"__ord{i}"
        if _contains_aggref(ast) or is_agg_query:
            # compound over aggregates, or any expression in an aggregate
            # query (only group keys are visible there): evaluate on the
            # small result frame
            ord_hidden.append({"agg": None, "arg": None, "col": None,
                               "distinct": False, "nd": None,
                               "alias": alias, "hidden": True,
                               "post_expr": _extract_aggrefs(ast, acc)})
        else:
            # row expression in a plain query: materialize per row
            ord_hidden.append({"agg": None, "arg": None, "col": None,
                               "distinct": False, "nd": None,
                               "alias": alias, "hidden": True,
                               "expr": ast})
        order.append((alias, desc))
    for alias, (agg, arg) in acc:
        hid = {"agg": agg, "arg": None, "col": None, "distinct": False,
               "nd": None, "alias": alias, "hidden": True}
        if arg == "*":
            hid["arg"] = "*"
        elif isinstance(arg, tuple) and arg[0] == "col":
            hid["arg"] = arg[1]
        else:
            hid["expr"] = arg
        items.append(hid)
    items.extend(ord_hidden)
    return items, having_expr, order


def _contains_aggref(node) -> bool:
    if not isinstance(node, tuple):
        return False
    if node[0] == "aggref":
        return True
    if node[0] == "case":
        return (any(_contains_aggref(c) or _contains_aggref(v)
                    for c, v in node[1])
                or (node[2] is not None and _contains_aggref(node[2])))
    if node[0] == "fn":  # node[2] is the args TUPLE — walk per-arg
        return any(_contains_aggref(a) for a in node[2])
    return any(_contains_aggref(x) for x in node[1:])


def _parse_item_expr(raw: str) -> dict:
    """Fallback SELECT-item parser for expression items:

        [ROUND(] expr-with-optional-aggregate-calls [, nd )] AS alias

    The parsed AST classifies the item: a lone AGG(...) call is an
    ordinary aggregate item (its argument may be a row expression); an
    expression CONTAINING aggregate calls (SUM(x)/COUNT(*), TPC-H Q14
    shape) becomes a POST-AGGREGATION item — each aggref is later pulled
    out as a hidden aggregate and the residual expression is evaluated on
    the small result frame; a pure row expression materializes as a
    column. An alias is REQUIRED (both engines must agree on the output
    column name; auto-generated expression names never would)."""
    text = raw.strip()
    am = re.search(r"\s+AS\s+([A-Za-z_]\w*)\s*$", text, re.IGNORECASE)
    if not am:
        raise ValueError(
            f"expression SELECT items need an AS alias: {raw!r}")
    alias = am.group(1)
    text = text[:am.start()].strip()
    nd = None
    rm = re.match(r"^ROUND\((.*),\s*(\d+)\s*\)$", text,
                  re.IGNORECASE | re.DOTALL)
    if rm and _balanced(rm.group(1)):
        nd = int(rm.group(2))
        text = rm.group(1).strip()
    ast = _ExprParser(text).parse()
    base = {"agg": None, "arg": None, "col": None, "distinct": False,
            "nd": nd, "alias": alias, "expr": None}
    if ast[0] == "aggref":
        agg, arg = ast[1], ast[2]
        if arg == "*":
            return dict(base, agg="COUNT", arg="*")
        if arg[0] == "col":
            return dict(base, agg=agg, arg=arg[1])
        return dict(base, agg=agg, expr=arg)
    if _contains_aggref(ast):
        return dict(base, postagg=ast)
    if ast[0] == "lit":
        # constant item ('TOTAL' AS tag, 1 AS one) — UNION tag columns
        # etc.; materialized like any expression column
        return dict(base, expr=ast)
    if ast[0] == "col":
        # a bare column is not an "expression item" — the plain item
        # paths (and their fast paths) own those
        raise ValueError(f"not a compound expression: {text!r}")
    return dict(base, expr=ast)


def _balanced(s: str) -> bool:
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


_NEG_OP = {"=": "!=", "!=": "=", "<>": "=", "<": ">=", "<=": ">",
           ">": "<=", ">=": "<", "LIKE": "NOTLIKE", "NOTLIKE": "LIKE",
           "ISNULL": "NOTNULL", "NOTNULL": "ISNULL"}


def _neg_cond(c: dict) -> list[dict]:
    """¬cond as a CONJUNCTION of positive conds. Null-faithful: every
    mapping yields NULL for NULL inputs exactly when SQL's NOT does —
    e.g. NOT(col IN (a,b)) ≡ col != a AND col != b (NULL AND NULL =
    NULL, row not selected, same as DuckDB)."""
    if c["op"] == "IN":
        return [{"col": c["col"], "op": "!=", "val": v} for v in c["val"]]
    return [{"col": c["col"], "op": _NEG_OP[c["op"]], "val": c["val"]}]


def _neg_dnf(branches: list[list[dict]], what: str) -> list[list[dict]]:
    """De Morgan over a DNF: NOT(∨ᵢ ∧ⱼ cᵢⱼ) = ∧ᵢ(∨ⱼ ¬cᵢⱼ), redistributed
    to DNF (cross product of the per-branch negation alternatives)."""
    out: list[list[dict]] = [[]]
    for br in branches:
        alts = [_neg_cond(c) for c in br]
        out = [acc + alt for acc in out for alt in alts]
        if len(out) > _MAX_DNF_BRANCHES:
            raise ValueError(f"{what} too complex (DNF cap under NOT)")
    return out


class _BoolParser:
    """Recursive-descent WHERE/HAVING parser → DNF branches
    (list of conjunctions, each a list of cond dicts). Grammar:

        expr   := term (OR term)*
        term   := factor (AND factor)*
        factor := '(' expr ')' | atom
        atom   := col (op lit | LIKE str | IN '(' lit,... ')'
                       | BETWEEN lit AND lit)

    AND distributes over OR during parsing, so the result is always DNF;
    branch count is capped at _MAX_DNF_BRANCHES (a hand-written WHERE
    never gets near it — the cap only guards pathological inputs).

    NOT is resolved AT PARSE TIME by operator negation (=/!= swap, range
    flip, IN → conjunction of !=, LIKE ↔ NOTLIKE, IS NULL ↔ IS NOT NULL)
    plus De Morgan over sub-DNFs, so the executor only ever sees positive
    DNF — every downstream path (zone pruning, pushdown, Kleene masks)
    works unchanged. The operator table is null-faithful: NOT(col = 5)
    becomes col != 5, which is NULL for NULL rows exactly as SQL wants."""

    def __init__(self, text: str, what: str):
        self.what = what
        self.toks: list[str] = []
        i = 0
        while i < len(text):
            m = _TOKEN_RE.match(text, i)
            if not m or m.end() == i:
                if text[i:].strip():
                    raise ValueError(
                        f"unsupported {what} syntax near {text[i:i+24]!r}")
                break
            self.toks.append(m.group("str") or m.group("num")
                             or m.group("id") or m.group("sym"))
            i = m.end()
        self.i = 0

    def _peek(self) -> str | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _kw(self, word: str) -> bool:
        t = self._peek()
        return t is not None and t.upper() == word

    def _next(self) -> str | None:
        t = self._peek()
        self.i += 1
        return t

    def parse(self) -> list[list[dict]]:
        out = self._expr()
        if self._peek() is not None:
            raise ValueError(
                f"unexpected token {self._peek()!r} in {self.what}")
        return out

    def _expr(self) -> list[list[dict]]:
        branches = self._term()
        while self._kw("OR"):
            self._next()
            branches = branches + self._term()
            if len(branches) > _MAX_DNF_BRANCHES:
                raise ValueError(f"{self.what} too complex (DNF cap)")
        return branches

    def _term(self) -> list[list[dict]]:
        branches = self._factor()
        while self._kw("AND"):
            self._next()
            right = self._factor()
            branches = [a + b for a in branches for b in right]
            if len(branches) > _MAX_DNF_BRANCHES:
                raise ValueError(f"{self.what} too complex (DNF cap)")
        return branches

    def _factor(self) -> list[list[dict]]:
        if self._kw("NOT"):
            self._next()
            return _neg_dnf(self._factor(), self.what)
        if self._peek() == "(":
            self._next()
            inner = self._expr()
            if self._next() != ")":
                raise ValueError(f"unbalanced parentheses in {self.what}")
            return inner
        return self._atom()

    def _atom(self) -> list[list[dict]]:
        col = self._next()
        if col is None or not re.fullmatch(r"[A-Za-z_]\w*", col):
            raise ValueError(
                f"expected a column name in {self.what}, got {col!r}")
        t = self._peek()
        if t is None:
            raise ValueError(f"dangling condition on {col!r} in {self.what}")
        up = t.upper()
        if up == "IS":
            # col IS NULL / col IS NOT NULL
            self._next()
            neg = self._kw("NOT") and (self._next() or True)
            if not self._kw("NULL"):
                raise ValueError(f"IS needs NULL in {self.what}")
            self._next()
            return [[{"col": col, "op": "NOTNULL" if neg else "ISNULL",
                      "val": None}]]
        if up == "NOT":
            # col NOT LIKE / NOT IN / NOT BETWEEN: parse the positive
            # form, then negate (NOT BETWEEN yields TWO branches)
            self._next()
            nxt = self._peek()
            if nxt is None or nxt.upper() not in ("LIKE", "IN", "BETWEEN"):
                raise ValueError(f"NOT needs LIKE/IN/BETWEEN after {col!r}")
            return _neg_dnf(self._op_atom(col), self.what)
        return self._op_atom(col)

    def _literal(self, col: str):
        """One literal token — plus SQL's typed date/time literal forms
        ``DATE '2020-01-31'`` / ``TIMESTAMP '2020-01-31 00:00:00'``
        (DuckDB runs the same text; Arrow compares a Python datetime
        against timestamp columns natively)."""
        t = self._next()
        if t is not None and t.upper() in ("DATE", "TIMESTAMP"):
            s = self._next()
            if s is None or not s.startswith("'"):
                raise ValueError(
                    f"{t.upper()} needs a quoted literal in {self.what}")
            from datetime import datetime
            return datetime.fromisoformat(s[1:-1])
        if t is None or not _LIT_RE.match(t):
            raise ValueError(
                f"unsupported literal for {col!r} in {self.what}: {t!r}")
        return _lit_val(t)

    def _op_atom(self, col: str) -> list[list[dict]]:
        t = self._peek()
        if t is None:
            raise ValueError(f"dangling condition on {col!r} in {self.what}")
        up = t.upper()
        if up == "BETWEEN":
            self._next()
            a = self._literal(col)
            if not self._kw("AND"):
                raise ValueError(f"BETWEEN needs AND in {self.what}")
            self._next()
            b = self._literal(col)
            return [[{"col": col, "op": ">=", "val": a},
                     {"col": col, "op": "<=", "val": b}]]
        if up == "IN":
            self._next()
            if self._next() != "(":
                raise ValueError(f"IN needs a literal list in {self.what}")
            vals = []
            while True:
                lit = self._next()
                if lit is None:
                    raise ValueError(f"unterminated IN list in {self.what}")
                if lit == ")":
                    break
                if lit == ",":
                    continue
                if not _LIT_RE.match(lit):
                    raise ValueError(f"unsupported IN literal: {lit!r}")
                vals.append(_lit_val(lit))
            if not vals:
                raise ValueError(f"empty IN list in {self.what}")
            return [[{"col": col, "op": "IN", "val": tuple(vals)}]]
        if up == "LIKE":
            self._next()
            lit = self._next()
            if lit is None or not lit.startswith("'"):
                raise ValueError(f"LIKE needs a string literal, got {lit!r}")
            return [[{"col": col, "op": "LIKE", "val": _lit_val(lit)}]]
        if t in (">=", "<=", "!=", "<>", "=", "<", ">"):
            self._next()
            return [[{"col": col, "op": t, "val": self._literal(col)}]]
        raise ValueError(f"unsupported operator {t!r} on {col!r}")


def _parse_bool(text: str, what: str) -> list[list[dict]]:
    return _BoolParser(text, what).parse()


_WINDOW_CORE = (
    r"(?P<fn>ROW_NUMBER|RANK|LAG|LEAD|SUM|COUNT|AVG|MIN|MAX)\s*\(\s*"
    r"(?P<warg>\*|[A-Za-z_]\w*)?\s*(?:,\s*(?P<off>\d+)\s*)?\)\s*"
    r"OVER\s*\(\s*PARTITION\s+BY\s+"
    r"(?P<part>[A-Za-z_]\w*(?:\s*,\s*[A-Za-z_]\w*)*)"
    r"(?:\s+ORDER\s+BY\s+(?P<word>[^)]+?))?\s*\)")
_WINDOW_RE = re.compile(
    r"^" + _WINDOW_CORE + r"\s*(?:AS\s+)?(?P<alias>[A-Za-z_]\w*)$",
    re.IGNORECASE)
_WINDOW_ROUND_RE = re.compile(
    r"^ROUND\s*\(\s*" + _WINDOW_CORE + r"\s*,\s*(?P<nd>\d+)\s*\)"
    r"\s*(?:AS\s+)?(?P<alias>[A-Za-z_]\w*)$", re.IGNORECASE)


def _parse_window_item(raw: str) -> dict | None:
    """``FN(arg) OVER (PARTITION BY p[, q] [ORDER BY k [DESC][, ...]])
    AS alias`` → window item, or None when the text is not a window call.

    Supported: ROW_NUMBER / RANK (need ORDER BY), LAG / LEAD (column arg,
    optional offset, need ORDER BY), SUM / COUNT / AVG / MIN / MAX —
    running with ORDER BY (DuckDB's default RANGE frame: peer rows with
    equal order keys share the value) or partition-wide without."""
    m = _WINDOW_RE.match(raw.strip())
    nd = None
    if not m:
        m = _WINDOW_ROUND_RE.match(raw.strip())
        if not m:
            return None
        nd = int(m.group("nd"))
    fn = m.group("fn").upper()
    warg = m.group("warg")
    order = []
    if m.group("word"):
        for part in _split_commas(m.group("word")):
            txt = part.strip()
            om = re.search(r"\s+(ASC|DESC)\s*$", txt, re.IGNORECASE)
            desc = False
            if om:
                desc = om.group(1).upper() == "DESC"
                txt = txt[:om.start()].strip()
            if not re.fullmatch(r"[A-Za-z_]\w*", txt):
                raise ValueError(
                    f"window ORDER BY must be plain columns: {part!r}")
            order.append((txt, desc))
    if fn in ("ROW_NUMBER", "RANK") and (warg or not order):
        raise ValueError(f"{fn}() takes no argument and needs ORDER BY")
    if fn in ("LAG", "LEAD") and (not warg or warg == "*" or not order):
        raise ValueError(f"{fn}(col) needs a column and ORDER BY")
    if fn in ("SUM", "AVG", "MIN", "MAX") and (not warg or warg == "*"):
        raise ValueError(f"window {fn} needs a column argument")
    if fn == "COUNT" and warg not in (None, "*"):
        raise ValueError("window COUNT supports only COUNT(*)")
    return {"agg": None, "arg": None, "col": None, "distinct": False,
            "nd": nd, "alias": m.group("alias"),
            "window": {"fn": fn, "arg": None if warg == "*" else warg,
                       "off": int(m.group("off") or 1),
                       "part": [c.strip() for c in
                                m.group("part").split(",")],
                       "order": order}}


def parse(sql: str) -> dict:
    m = _SQL_RE.match(sql)
    if not m:
        raise ValueError(f"unsupported SQL: {sql!r}")
    items = []
    sel = m.group("select").strip()
    dm = re.match(r"^DISTINCT\s+", sel, re.IGNORECASE)
    select_distinct = bool(dm)
    if dm:
        sel = sel[dm.end():]
    star = sel == "*"
    for raw in ([] if star else _split_commas(sel)):
        wit = _parse_window_item(raw)
        if wit is not None:
            items.append(wit)
            continue
        im = _ITEM_RE.match(raw.strip())
        if not im:
            # compound arithmetic item: expr / AGG(expr) / ROUND(..., nd)
            try:
                items.append(_parse_item_expr(raw))
                continue
            except ValueError as e:
                raise ValueError(
                    f"unsupported SELECT item: {raw!r} ({e})") from None
        d = im.groupdict()
        if d["round"] and d["nd"] is None:
            raise ValueError(f"ROUND(...) needs a digit count: {raw!r}")
        if d["distinct"] and (d["agg"] or "").upper() != "COUNT":
            raise ValueError(f"DISTINCT only supported in COUNT: {raw!r}")
        items.append({
            "agg": d["agg"].upper() if d["agg"] else None,
            "arg": d["arg"],
            "col": d["col"],
            "distinct": bool(d["distinct"]),
            "nd": int(d["nd"]) if d["nd"] is not None else None,
            "alias": d["alias"] or d["col"],
        })

    # WHERE/HAVING: the DNF parser owns the fast shapes (zone pruning,
    # pushdown); anything it can't express — function calls, arithmetic
    # comparisons, CASE — falls back to the EXPRESSION boolean grammar,
    # evaluated as one vectorized Kleene mask with no pruning
    where_expr = having_expr = None
    wb = [[]]
    if m.group("where"):
        try:
            wb = _parse_bool(m.group("where"), "WHERE")
        except ValueError:
            where_expr = _ExprParser(m.group("where")).parse_bool()
            if _contains_aggref(where_expr):
                raise ValueError("aggregates are not allowed in WHERE")
    conds, or_branches = (wb[0], None) if len(wb) == 1 else ([], wb)
    hb = [[]]
    if m.group("having"):
        try:
            hb = _parse_bool(m.group("having"), "HAVING")
        except ValueError:
            # HAVING may use raw aggregates (HAVING COUNT(*) > 5) — those
            # lower to hidden aggregate items exactly like postagg items
            having_expr = _ExprParser(m.group("having")).parse_bool()
    having, having_or = (hb[0], None) if len(hb) == 1 else ([], hb)
    group = ([c.strip() for c in m.group("group").split(",")]
             if m.group("group") else [])
    order_raw: list[tuple[str, bool]] = []
    if m.group("order"):
        for raw in _split_commas(m.group("order")):
            txt = raw.strip()
            om = re.search(r"\s+(ASC|DESC)\s*$", txt, re.IGNORECASE)
            desc = False
            if om:
                desc = om.group(1).upper() == "DESC"
                txt = txt[:om.start()].strip()
            order_raw.append((txt, desc))
    items, having_expr, order = _lower_postagg(
        items, having_expr, order_raw,
        is_agg_query=bool(group) or any(it["agg"] for it in items))
    frm = m.group("from")
    table = frm.split()[0]
    joins = [{"table": jm.group("table"),
              "a": jm.group("a"), "b": jm.group("b"),
              "how": "left" if jm.group("left") else "inner"}
             for jm in _JOIN_RE.finditer(frm)]
    if select_distinct:
        if any(it["agg"] for it in items) or group:
            raise ValueError(
                "SELECT DISTINCT with aggregates/GROUP BY is unsupported")
    wins = [it for it in items if it.get("window")]
    if wins:
        if group or any(it["agg"] for it in items) or select_distinct \
                or joins:
            raise ValueError(
                "window functions combine only with plain items, WHERE, "
                "ORDER BY and LIMIT (no GROUP BY/aggregates/DISTINCT/JOIN)")
        parts = {tuple(w["window"]["part"]) for w in wins}
        if len(parts) > 1:
            raise ValueError(
                "all window functions in one query must share the same "
                "PARTITION BY (the partitioning IS the shuffle key)")
    return {"items": items, "star": star, "table": table, "joins": joins,
            "select_distinct": select_distinct,
            "conds": conds, "or_branches": or_branches,
            "where_expr": where_expr, "having_expr": having_expr,
            "having": having, "having_or": having_or,
            "group": group, "order": order,
            "limit": int(m.group("limit")) if m.group("limit") else None}


def _expand_star(sf_dir: str, plan: dict,
                 as_of: int | None = None) -> dict:
    """``SELECT *`` → one plain item per physical column, in the table's
    own order (for a store: the footer's first-seen union order — same
    order DuckDB reports for the equivalent parquet), so star queries
    hash-compare cleanly against the oracle."""
    if not plan.get("star"):
        return plan
    if plan["joins"]:
        raise ValueError("SELECT * with JOIN is not supported")
    if plan["table"] == "store":
        from .manifest import load_footer
        cols, seen = [], set()
        for b in load_footer(sf_dir, as_of=as_of)["blocks"]:
            for c in (b.get("columns") or {}):
                if c not in seen:
                    seen.add(c)
                    cols.append(c)
    else:
        import pyarrow.parquet as pq_mod
        cols = [f.name for f in pq_mod.read_schema(
            os.path.join(sf_dir, plan["table"] + ".parquet"))]
    plan = dict(plan)
    plan["items"] = [{"agg": None, "arg": None, "col": c,
                      "distinct": False, "nd": None, "alias": c}
                     for c in cols]
    return plan


def _needed_columns_runtime(sf_dir: str, plan: dict) -> list[str]:
    """_needed_columns plus a WITNESS column when the plan runs any map
    stage (expression/window materialization) over an otherwise
    column-free read: a 0-column Arrow batch reports num_rows == 0, so
    ``SELECT 'x' AS t, COUNT(*) FROM tbl`` would count nothing."""
    cols = _needed_columns(plan)
    needs_rows = (_has_expr(plan)
                  or any(it.get("window") for it in plan["items"]))
    if cols or not needs_rows:
        return cols
    try:
        if plan["table"] == "store":
            # ONE column name is enough — read footer.json (+ at most the
            # first shard), never the whole 10^5-block record set
            from . import storeio as _sio
            from .manifest import store_paths
            _, _, fpath = store_paths(sf_dir)
            with _sio.sopen(fpath) as f:
                footer = json.load(f)
            if footer.get("sharded"):
                for sh in footer["shards"]:
                    zone = sh.get("zone") or {}
                    if zone:
                        return [sorted(zone)[0]]
                sh = footer["shards"][0]
                with _sio.sopen(os.path.join(
                        sf_dir, "footer_shards", sh["file"])) as f:
                    recs = json.load(f)
            else:
                recs = footer.get("blocks", [])
            for b in recs:
                for c in (b.get("columns") or {}):
                    return [c]
            return cols
        import pyarrow.parquet as pq_mod
        names = pq_mod.read_schema(
            os.path.join(sf_dir, plan["table"] + ".parquet")).names
        return [names[0]] if names else cols
    except OSError:
        return cols


def _needed_columns(plan: dict) -> list[str]:
    cols = set()
    for it in plan["items"]:
        if it.get("window"):
            w = it["window"]
            if w["arg"]:
                cols.add(w["arg"])
            cols.update(w["part"])
            cols.update(c for c, _ in w["order"])
        elif it.get("expr"):
            cols |= _expr_cols(it["expr"])
        elif it["col"]:
            cols.add(it["col"])
        elif it["arg"] and it["arg"] != "*":
            cols.add(it["arg"])
    for c in plan["conds"]:
        cols.add(c["col"])
    for br in (plan.get("or_branches") or []):
        for c in br:
            cols.add(c["col"])
    if plan.get("where_expr") is not None:
        cols |= _expr_cols(plan["where_expr"])
    expr_aliases = {it["alias"] for it in plan["items"] if it.get("expr")}
    cols.update(c for c in plan["group"] if c not in expr_aliases)
    # ORDER BY may reference an output ALIAS (e.g. an aggregate's name) —
    # those are not table columns and must not reach the pruned read; the
    # final sort runs on the result frame where aliases exist
    aliases = {it["alias"] for it in plan["items"] if it["alias"]}
    for c, _ in plan["order"]:
        if c not in aliases:
            cols.add(c)
    return sorted(cols)


def _cond_mask(batch: pa.Table, c: dict):
    col = batch[c["col"]]
    op, val = c["op"], c["val"]
    if op == "IN":
        return pc.is_in(col, value_set=pa.array(list(val)))
    if op == "ISNULL":
        return pc.is_null(col)
    if op == "NOTNULL":
        return pc.is_valid(col)
    if op == "NOTLIKE":
        # Arrow invert is null-preserving, i.e. Kleene NOT — NULL rows
        # stay NULL and are dropped by the filter, matching SQL NOT LIKE
        return pc.invert(_cond_mask(batch, dict(c, op="LIKE")))
    if op == "LIKE":
        pat = str(val)
        inner = pat.strip("%")
        if "%" not in inner and "_" not in pat:
            # fast substring/prefix/suffix/equality kernels
            if pat.startswith("%") and pat.endswith("%"):
                return pc.match_substring(col, inner)
            if pat.endswith("%"):
                return pc.starts_with(col, inner)
            if pat.startswith("%"):
                return pc.ends_with(col, inner)
            return pc.equal(col, pat)
        # general LIKE (interior % / _): translate to an anchored
        # regex — % -> .*, _ -> ., everything else escaped
        rx = "".join(".*" if ch == "%" else "." if ch == "_"
                     else re.escape(ch) for ch in pat)
        return pc.match_substring_regex(col, f"^(?s:{rx})$")
    fn = {"=": pc.equal, "!=": pc.not_equal, "<>": pc.not_equal,
          "<": pc.less, "<=": pc.less_equal,
          ">": pc.greater, ">=": pc.greater_equal}[op]
    return fn(col, val)


def _mask(batch: pa.Table, conds: list[dict]):
    mask = None
    for c in conds:
        m = _cond_mask(batch, c)
        mask = m if mask is None else pc.and_kleene(mask, m)
    return mask


def _predicate(batch: pa.Table, conds: list[dict]) -> pa.Table:
    mask = _mask(batch, conds)
    return batch.filter(mask) if mask is not None else batch


def _predicate_dnf(batch: pa.Table, branches: list[list[dict]]) -> pa.Table:
    """Vectorized DNF filter: Kleene-OR of per-branch AND masks — the
    null semantics SQL uses (NULL OR TRUE = TRUE), so OR over nullable
    columns hash-matches the DuckDB oracle."""
    masks = [_mask(batch, br) for br in branches]
    if any(m is None for m in masks):   # an empty branch matches all rows
        return batch
    out = masks[0]
    for m in masks[1:]:
        out = pc.or_kleene(out, m)
    return batch.filter(out)


def _count_distinct(ds, group: list[str], col: str) -> pd.DataFrame:
    """Exact grouped COUNT(DISTINCT col) under the engine's bounded-groupby
    rule (DESIGN.md §8.1): per-batch distinct (group, value) pairs bucketed
    by a hash of the VALUE (every copy of a value co-locates), in-bucket
    Arrow group_by dedup + per-group partial counts, tiny driver fold —
    the distinct-key space never becomes a Ray group count. Arrow-format
    stages (round-4): no pandas conversion on the big passes."""
    import numpy as np

    from .pipeline import stable_hash_u64

    def part(b: pa.Table) -> pa.Table:
        d = (b.select(group + [col])
             .filter(pc.is_valid(b[col]))
             .group_by(group + [col]).aggregate([]))
        h = stable_hash_u64(
            pc.cast(d[col], pa.string()).to_numpy(zero_copy_only=False))
        return d.append_column(
            "__b", pa.array((h % np.uint64(64)).view(np.int64)))

    def fold(g: pa.Table) -> pa.Table:
        d = (g.drop_columns(["__b"])
             .group_by(group + [col]).aggregate([]))
        if group:
            p = d.group_by(group).aggregate([(col, "count")])
            return p.rename_columns(
                ["__cd" if c == f"{col}_count" else c
                 for c in p.column_names]).select(group + ["__cd"])
        return pa.table({"__cd": pa.array([d.num_rows], type=pa.int64())})

    parts = (ds.map_batches(part, batch_format="pyarrow")
               .groupby("__b").map_groups(fold, batch_format="pyarrow")
               .to_pandas())
    if group:
        return parts.groupby(group, as_index=False)["__cd"].sum()
    return pd.DataFrame({"__cd": [int(parts["__cd"].sum())]})


def _like_mask(s, pattern: str, negate: bool = False):
    """SQL LIKE over a pandas string Series (%/_ wildcards, anchored).
    The whole value must match and the wildcards match newlines too, as
    in SQL (``^…$`` with ``str.match`` would also accept a trailing
    newline the pattern does not have)."""
    rx = "".join(
        ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
        for ch in str(pattern))
    m = s.astype("string").str.fullmatch(rx, flags=re.DOTALL, na=False)
    # NULL [NOT] LIKE is NULL: a NULL value passes neither filter
    return (~m & s.notna()) if negate else m


_HAVING_OPS = {
    "=": lambda s, v: s == v, "!=": lambda s, v: s != v,
    "<>": lambda s, v: s != v, "<": lambda s, v: s < v,
    "<=": lambda s, v: s <= v, ">": lambda s, v: s > v,
    ">=": lambda s, v: s >= v, "IN": lambda s, v: s.isin(list(v)),
    "ISNULL": lambda s, v: s.isna(), "NOTNULL": lambda s, v: s.notna(),
    "LIKE": lambda s, v: _like_mask(s, v),
    "NOTLIKE": lambda s, v: _like_mask(s, v, negate=True),
}


_PUSH_OPS = {"=": "==", "!=": "!=", "<>": "!=",
             "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def _pushable(conds: list[dict]) -> tuple | None:
    """First WHERE condition expressible as a store decode predicate —
    it rides into :func:`decode_store` where zone maps prune whole blocks,
    Bloom sidecars kill point probes, and late materialization decodes the
    predicate column first. The FULL conjunction is still applied
    vectorized afterwards, so pushing any one condition is always sound."""
    for c in conds:
        # IN first: it is the one op that can consult a Bloom sidecar
        # (definite-miss blocks skipped before any decode)
        if c["op"] == "IN":
            return (c["col"], "in", tuple(c["val"]))
    for c in conds:
        if c["op"] in _PUSH_OPS:
            return (c["col"], _PUSH_OPS[c["op"]], c["val"])
    return None


def _pushable_all(conds: list[dict]) -> list[tuple]:
    """EVERY pushable condition, IN first (Bloom-probing), as the
    conjunction :func:`decode_store` evaluates with progressive decoding —
    predicate columns decode one at a time and the payload never decodes
    once the combined mask empties. Non-pushable ops (LIKE) stay in the
    vectorized residual filter."""
    ins = [(c["col"], "in", tuple(c["val"])) for c in conds
           if c["op"] == "IN"]
    rest = [(c["col"], _PUSH_OPS[c["op"]], c["val"]) for c in conds
            if c["op"] in _PUSH_OPS]
    return ins + rest


def _store_zones(conds: list[dict]) -> dict:
    """Fold range conjuncts into per-column (lo, hi) intervals for footer
    zone pruning (inclusive — sound for pruning, not for all-match proofs)."""
    zones: dict = {}
    for c in conds:
        if c["op"] == "IN":
            lo0, hi0 = min(c["val"]), max(c["val"])
            lo, hi = zones.get(c["col"], (None, None))
            zones[c["col"]] = (lo0 if lo is None else max(lo, lo0),
                               hi0 if hi is None else min(hi, hi0))
        elif c["op"] in ("=", "<", "<=", ">", ">="):
            lo, hi = zones.get(c["col"], (None, None))
            if c["op"] in ("=", ">", ">="):
                lo = c["val"] if lo is None else max(lo, c["val"])
            if c["op"] in ("=", "<", "<="):
                hi = c["val"] if hi is None else min(hi, c["val"])
            zones[c["col"]] = (lo, hi)
    return zones


def _joined_dataset(sf_dir: str, plan: dict, tables_dir: str | None = None):
    """Compile ``FROM fact JOIN dim ON k = k [JOIN ...]`` to the idiomatic
    Ray star-schema plan: the fact table streams; every JOINed table is
    read pruned + pre-filtered (each WHERE condition is one-sided
    col-vs-literal, so it pushes entirely into its owning table's scan),
    materialized once, broadcast via ``ray.put``, and hash-joined per batch
    with the Arrow acero ``Table.join`` kernel — the exchange-free
    broadcast-join shape (big⋈big joins are the cogroup_join /
    Dataset.join operators, not this surface). Columns are resolved
    unqualified; a name owned by two tables in the FROM list is rejected.
    """
    import os

    import pyarrow.parquet as pq_mod
    import ray

    from .ops.util import tbl

    tables = [plan["table"]] + [j["table"] for j in plan["joins"]]
    if "store" in tables[1:]:
        raise ValueError("a store can only be the FROM (fact) side of a join")
    dims_root = tables_dir or sf_dir
    schemas = {}
    schemas_full: dict[str, "pa.Schema | None"] = {}
    for t in tables:
        if t == "store":
            from .manifest import load_footer
            blocks = load_footer(sf_dir)["blocks"]
            if not blocks:
                raise ValueError(f"empty store {sf_dir!r}")
            schemas[t] = list((blocks[0].get("columns") or {}).keys())
            schemas_full[t] = None
        else:
            sch = pq_mod.read_schema(
                os.path.join(dims_root, f"{t}.parquet"))
            schemas[t] = list(sch.names)
            schemas_full[t] = sch

    def owner(col: str) -> str:
        owners = [t for t in tables if col in schemas[t]]
        if not owners:
            raise ValueError(f"unknown column {col!r} in FROM {tables}")
        if len(owners) > 1:
            raise ValueError(
                f"ambiguous column {col!r} (in {owners}); mini-SQL joins "
                f"resolve columns unqualified")
        return owners[0]

    needed = set(_needed_columns(plan))
    for j in plan["joins"]:
        needed.add(j["a"])
        needed.add(j["b"])
    # a WHERE condition on a LEFT-joined dim must filter AFTER the join
    # (SQL's WHERE sees the NULL-padded rows; pre-filtering the dim would
    # KEEP unmatched left rows the condition should drop) — such conds are
    # held back and applied as a post-join residual mask
    left_tables = {j["table"] for j in plan["joins"]
                   if j.get("how") == "left"}
    conds_by: dict[str, list[dict]] = {t: [] for t in tables}
    post_conds: list[dict] = []
    for c in plan["conds"]:
        t = owner(c["col"])
        if t in left_tables:
            post_conds.append(c)
        else:
            conds_by[t].append(c)
    cols_by = {t: sorted(c for c in needed if c in schemas[t])
               for t in tables}

    def scan(t: str):
        cs = conds_by[t]
        if t == "store":
            # encoded store as the streaming fact side: zone-pruned,
            # predicate-pushed block scan (same plan as plain FROM store)
            from .pipeline import decode_store
            ds = decode_store(sf_dir, columns=cols_by[t],
                              zone_filter=_store_zones(cs) or None,
                              predicate=_pushable_all(cs) or None)
        else:
            ds = tbl(dims_root, t, cols_by[t])
        if cs:
            ds = ds.map_batches(lambda b, _cs=cs: _predicate(b, _cs),
                                batch_format="pyarrow")
        return ds

    ds = scan(plan["table"])
    acc = set(cols_by[plan["table"]])
    for j in plan["joins"]:
        if j["a"] in acc:
            lk, rk = j["a"], j["b"]
        elif j["b"] in acc:
            lk, rk = j["b"], j["a"]
        else:
            raise ValueError(
                f"join ON {j['a']} = {j['b']} references no column of the "
                f"tables joined so far ({sorted(acc)})")
        if owner(rk) != j["table"]:
            raise ValueError(
                f"join key {rk!r} is not a column of {j['table']!r}")
        dim = scan(j["table"])
        # The joined side is BROADCAST: materialized once on the driver,
        # ray.put once, read zero-copy in every batch task. This is the
        # right shape for small dims, but LEFT JOIN inverts the usual
        # expectation (users put the BIG table on the right to keep all
        # left rows) — guard with a clear error instead of exhausting
        # driver memory. At 100-TB scale a big right side needs the
        # cogroup path (ops/relational.cogroup_join), not a broadcast.
        # The cap is checked on OBJECT-STORE block sizes (materialize()
        # keeps blocks in plasma) BEFORE concat pulls anything onto the
        # driver heap — an over-cap dim errors without ever being heaped.
        _BCAST_CAP = int(os.environ.get("HOWARD_SQL_BROADCAST_CAP_MB",
                                        "2048")) * (1 << 20)
        dim_mat = dim.materialize()
        dim_bytes = dim_mat.size_bytes() or 0
        if dim_bytes > _BCAST_CAP:
            raise ValueError(
                f"joined table {j['table']!r} is "
                f"{dim_bytes / 1e6:.0f} MB — too large to broadcast "
                f"(cap {_BCAST_CAP >> 20} MB; raise with "
                "HOWARD_SQL_BROADCAST_CAP_MB or use "
                "howard_ray.ops.relational.cogroup_join for big-big joins)")
        dim_tbl = pa.concat_tables(
            ray.get(dim_mat.to_arrow_refs()), promote_options="default")
        ref = ray.put(dim_tbl)

        how = "left outer" if j.get("how") == "left" else "inner"

        _rschema = schemas_full[j["table"]]
        _rcols = cols_by[j["table"]]

        def bjoin(batch: pa.Table, _ref=ref, _lk=lk, _rk=rk, _how=how,
                  _rs=_rschema, _rc=tuple(_rcols)) -> pa.Table:
            from .pipeline import _cached_get
            right = _cached_get(_ref)
            if _rk not in right.column_names and _rs is not None:
                # an EMPTY dim (e.g. a CTE that matched nothing) comes
                # back as a schemaless block — rebuild it typed from the
                # dim's parquet schema so the join still runs
                right = pa.table({c: pa.array([], type=_rs.field(c).type)
                                  for c in _rc})
            # defensive key-type alignment: a dim materialized through an
            # empty intermediate can carry a widened key type, and Arrow's
            # join refuses mismatched key fields
            lt = batch.schema.field(_lk).type
            ri = right.schema.get_field_index(_rk)
            if right.schema.field(ri).type != lt:
                right = right.set_column(
                    ri, _rk, right[_rk].cast(lt))
            return batch.join(right, keys=_lk, right_keys=_rk,
                              join_type=_how)

        ds = ds.map_batches(bjoin, batch_format="pyarrow")
        acc |= set(cols_by[j["table"]])
    if post_conds:
        ds = ds.map_batches(lambda b, _cs=post_conds: _predicate(b, _cs),
                            batch_format="pyarrow")
    return ds


def _store_metadata_answer(store_dir: str, plan: dict,
                           as_of: int | None = None) -> pd.DataFrame | None:
    """O(metadata) fast path: a pure COUNT(*) / SUM / MIN / MAX / AVG
    SELECT with no WHERE / GROUP BY over a store is answered from the
    footer zone-map stats alone — ZERO blocks are read or decoded (the
    column-statistics read every lakehouse metadata layer provides; a
    100-TB store answers ``SELECT SUM(n_tok) FROM store`` from its footer).

    Soundness gates — returns None (caller falls back to the block scan)
    when any fails:
    - predicates / grouping / HAVING / DISTINCT present (stats can't filter)
    - COUNT(col): footer has no per-column null counts (COUNT(*) is exact
      because columns carrying int stats are null-free by construction —
      nullable columns take the "other" codec and publish no stats)
    - pending tombstones (physical stats would overcount deleted rows)
    - any block missing the needed stat (empty block / "other"-kind column)
    - SUM/AVG of a list column (stats hold the flattened sum, not SQL SUM)
    """
    import os as _os

    from .manifest import load_footer

    if plan["conds"] or plan["group"] or plan["having"] \
            or plan.get("having_or"):
        return None
    items = plan["items"]
    if not items:
        return None
    for it in items:
        if not it["agg"] or it["distinct"]:
            return None
        if it["agg"] == "COUNT" and it["arg"] != "*":
            return None
    tomb = _os.path.join(store_dir, "tombstones")
    try:
        if _os.path.isdir(tomb) and any(
                f.endswith(".tmb") for f in _os.listdir(tomb)):
            return None
    except OSError:
        return None
    blocks = load_footer(store_dir, as_of=as_of)["blocks"]
    if not blocks:
        return None
    n_rows = sum(b["n_rows"] for b in blocks)
    out: dict[str, list] = {}
    for it in items:
        agg, col = it["agg"], it["arg"]
        if agg == "COUNT":
            val: float | int | str = n_rows
        else:
            sts = [((b.get("columns") or {}).get(col) or {}).get("stats")
                   or {} for b in blocks]
            if agg in ("SUM", "AVG"):
                if any("sum" not in s or "n_values" in s for s in sts):
                    return None
                total = sum(int(s["sum"]) for s in sts)
                val = total if agg == "SUM" else total / n_rows
            else:
                key = "min" if agg == "MIN" else "max"
                if any(key not in s for s in sts):
                    return None
                vals = [s[key] for s in sts]
                val = min(vals) if agg == "MIN" else max(vals)
        if it["nd"] is not None:
            val = _sql_round(float(val), it["nd"])
        out[it["alias"]] = [val]
    df = pd.DataFrame(out)
    for it in items:
        if it["nd"] is None and it["agg"] in ("COUNT", "SUM") \
                and pd.api.types.is_numeric_dtype(df[it["alias"]]):
            df[it["alias"]] = df[it["alias"]].astype("int64")
    return df


def _zone_classify(stats: dict, op: str, val) -> str:
    """Classify one block against one range conjunct using its footer
    min/max: 'all' (every row matches — answer from stats), 'none' (no row
    can match — skip), 'partial' (straddles — must decode). Exact op
    semantics, unlike the inclusive fold used for plain zone pruning."""
    if not stats or "min" not in stats or "max" not in stats:
        return "partial"
    mn, mx = stats["min"], stats["max"]
    try:
        if op == "IN":
            if all(v < mn or v > mx for v in val):
                return "none"
            return "all" if mn == mx and mn in val else "partial"
        if op == "=":
            if mx < val or mn > val:
                return "none"
            return "all" if mn == val and mx == val else "partial"
        if op in ("!=", "<>"):
            if mn == mx == val:
                return "none"
            return "all" if val < mn or val > mx else "partial"
        if op == ">":
            if mx <= val:
                return "none"
            return "all" if mn > val else "partial"
        if op == ">=":
            if mx < val:
                return "none"
            return "all" if mn >= val else "partial"
        if op == "<":
            if mn >= val:
                return "none"
            return "all" if mx < val else "partial"
        if op == "<=":
            if mn > val:
                return "none"
            return "all" if mx <= val else "partial"
    except TypeError:
        return "partial"  # incomparable literal/stat types: just decode
    return "partial"


def _or_zone_block_ids(store_dir: str, branches: list[list[dict]],
                       as_of: int | None = None) -> set[str]:
    """Union-of-branches zone pruning for a DNF WHERE over a store: a block
    must decode unless EVERY branch has at least one range/IN conjunct the
    block's footer min/max proves 'none'. Non-classifiable ops (LIKE, !=)
    count as match-possible. Metadata-only — same footer stats, same
    :func:`_zone_classify`, no block reads."""
    from .manifest import load_footer

    keep: set[str] = set()
    for b in load_footer(store_dir, as_of=as_of)["blocks"]:
        cols = b.get("columns") or {}
        for br in branches:
            verdicts = [
                _zone_classify((cols.get(c["col"]) or {}).get("stats"),
                               c["op"], c["val"])
                for c in br
                if c["op"] in ("=", "!=", "<>", "<", "<=", ">", ">=", "IN")]
            if "none" not in verdicts:
                keep.add(b["block_id"])
                break
    return keep


def _store_pushdown_aggregate(store_dir: str, plan: dict,
                              as_of: int | None = None) -> pd.DataFrame | None:
    """Zone-complete aggregate pushdown over a store: for a pure
    COUNT(*)/SUM/MIN/MAX/AVG SELECT whose WHERE is a conjunction of range
    conditions, classify every block against the conjuncts — 'all'
    blocks contribute their footer stats (no read), 'none' blocks vanish,
    and ONLY the straddling 'partial' blocks are decoded (with the
    predicate pushed into the scan). On a store clustered by the filtered
    column, a selective WHERE aggregates 100 TB with a handful of block
    decodes — the DuckDB/Iceberg zone-map count applied to the encoded
    store. Returns None when a soundness gate fails (grouping, DISTINCT,
    COUNT(col), non-range ops, pending tombstones) — caller falls back."""
    import os as _os

    from .manifest import load_footer

    if plan["group"] or plan["having"] or plan.get("having_or") \
            or not plan["conds"]:
        return None
    items = plan["items"]
    if not items:
        return None
    for it in items:
        if not it["agg"] or it["distinct"]:
            return None
        if it["agg"] == "COUNT" and it["arg"] != "*":
            return None
    if any(c["op"] not in ("=", "<", "<=", ">", ">=", "IN")
           for c in plan["conds"]):
        return None
    tomb = _os.path.join(store_dir, "tombstones")
    try:
        if _os.path.isdir(tomb) and any(
                f.endswith(".tmb") for f in _os.listdir(tomb)):
            return None
    except OSError:
        return None
    blocks = load_footer(store_dir, as_of=as_of)["blocks"]
    if not blocks:
        return None

    # which per-column stats each aggregate needs from an all-match block
    need_sum = {it["arg"] for it in items if it["agg"] in ("SUM", "AVG")}
    need_mm = {it["arg"] for it in items if it["agg"] in ("MIN", "MAX")}

    all_blocks, partial_ids = [], set()
    for b in blocks:
        cols = b.get("columns") or {}
        verdicts = [_zone_classify((cols.get(c["col"]) or {}).get("stats"),
                                   c["op"], c["val"]) for c in plan["conds"]]
        if "none" in verdicts:
            continue
        ok = all(v == "all" for v in verdicts)
        if ok:  # stats must also carry what the aggregates need
            for c in need_sum:
                st = (cols.get(c) or {}).get("stats") or {}
                if "sum" not in st or "n_values" in st:
                    ok = False
            for c in need_mm:
                st = (cols.get(c) or {}).get("stats") or {}
                if "min" not in st:
                    ok = False
        if ok:
            all_blocks.append(b)
        else:
            partial_ids.add(b["block_id"])

    # mergeable partials: n rows, per-col sum / non-null count / min / max
    n = sum(b["n_rows"] for b in all_blocks)
    sums = {c: sum(int(((b["columns"][c]) or {})["stats"]["sum"])
                   for b in all_blocks) if all_blocks else 0
            for c in need_sum}
    # AVG divides by the NON-NULL input count, not the row count: blocks
    # with published stats are null-free, decoded partials report counts
    cnts = {c: n for c in need_sum}
    mins = {c: min((b["columns"][c]["stats"]["min"] for b in all_blocks),
                   default=None) for c in need_mm}
    maxs = {c: max((b["columns"][c]["stats"]["max"] for b in all_blocks),
                   default=None) for c in need_mm}

    if partial_ids:
        from .pipeline import decode_store
        conds = plan["conds"]
        agg_cols = sorted(need_sum | need_mm)
        need_cols = sorted(set(agg_cols) | {c["col"] for c in conds})
        ds = decode_store(store_dir, columns=need_cols,
                          predicate=_pushable_all(conds) or None,
                          block_ids=partial_ids, as_of=as_of)

        def part(b: pa.Table) -> pa.Table:
            b = _predicate(b, conds)
            row: dict[str, list] = {"__n": [b.num_rows]}
            for c in agg_cols:
                col = b[c]
                if c in need_sum:
                    row[f"__s_{c}"] = [pc.sum(col).as_py() if b.num_rows
                                       else None]
                    row[f"__c_{c}"] = [b.num_rows - col.null_count]
                if c in need_mm:
                    mm = (pc.min_max(col) if b.num_rows
                          else {"min": pa.scalar(None), "max": pa.scalar(None)})
                    row[f"__mn_{c}"] = [mm["min"].as_py()]
                    row[f"__mx_{c}"] = [mm["max"].as_py()]
            return pa.table(row)

        parts = ds.map_batches(part, batch_format="pyarrow").to_pandas()
        if len(parts):
            n += int(parts["__n"].sum())
            for c in need_sum:
                s = parts[f"__s_{c}"].dropna()
                if len(s):
                    sums[c] += int(s.sum()) if s.dtype.kind in "iu" \
                        else float(s.sum())
                cnts[c] += int(parts[f"__c_{c}"].sum())
            for c in need_mm:
                lo = parts[f"__mn_{c}"].dropna()
                hi = parts[f"__mx_{c}"].dropna()
                if len(lo):
                    m = lo.min()
                    mins[c] = m if mins[c] is None else min(mins[c], m)
                if len(hi):
                    m = hi.max()
                    maxs[c] = m if maxs[c] is None else max(maxs[c], m)

    out: dict[str, list] = {}
    for it in items:
        agg, col = it["agg"], it["arg"]
        if agg == "COUNT":
            val = n
        elif agg == "SUM":
            val = sums[col] if cnts[col] else None
        elif agg == "AVG":
            val = sums[col] / cnts[col] if cnts[col] else None
        elif agg == "MIN":
            val = mins[col]
        else:
            val = maxs[col]
        if it["nd"] is not None and val is not None:
            val = _sql_round(float(val), it["nd"])
        out[it["alias"]] = [val]
    df = pd.DataFrame(out)
    for it in items:
        if it["nd"] is None and it["agg"] in ("COUNT", "SUM") \
                and pd.api.types.is_numeric_dtype(df[it["alias"]]) \
                and not df[it["alias"]].isna().any():
            df[it["alias"]] = df[it["alias"]].astype("int64")
    return df


def _store_grouped_metadata_answer(store_dir: str, plan: dict,
                                   as_of: int | None = None) -> pd.DataFrame | None:
    """Grouped O(metadata) aggregates: ``GROUP BY col`` over a store whose
    blocks are single-valued in the group column (footer min == max — true
    by construction for the cluster mode's (source, salt) blocks) folds
    per-group COUNT(*)/SUM/MIN/MAX/AVG from the footer stats; only blocks
    that straddle group values decode. The grouped companion of
    :func:`_store_metadata_answer` — a clustered 100-TB store answers
    ``SELECT source, COUNT(*), SUM(n_tok) GROUP BY source`` from its
    footer. Gates mirror the global fast path (no WHERE — the pushdown
    path handles filters, and composing both is not worth the state
    space); single group column only."""
    import os as _os

    from .manifest import load_footer

    if plan["conds"] or plan["having"] or plan.get("having_or") \
            or len(plan["group"]) != 1:
        return None
    gcol = plan["group"][0]
    items = plan["items"]
    aggs = [it for it in items if it["agg"]]
    if not aggs:
        return None
    for it in items:
        if it["distinct"]:
            return None
        if it["agg"] == "COUNT" and it["arg"] != "*":
            return None
        if not it["agg"] and it["col"] != gcol:
            return None
    tomb = _os.path.join(store_dir, "tombstones")
    try:
        if _os.path.isdir(tomb) and any(
                f.endswith(".tmb") for f in _os.listdir(tomb)):
            return None
    except OSError:
        return None
    blocks = load_footer(store_dir, as_of=as_of)["blocks"]
    if not blocks:
        return None

    need_sum = {it["arg"] for it in aggs if it["agg"] in ("SUM", "AVG")}
    need_mm = {it["arg"] for it in aggs if it["agg"] in ("MIN", "MAX")}

    def _fresh():
        return {"n": 0, "sum": dict.fromkeys(need_sum, 0),
                "cnt": dict.fromkeys(need_sum, 0),
                "min": dict.fromkeys(need_mm), "max": dict.fromkeys(need_mm)}

    _NULLG = object()  # NULL-group sentinel: NaN != NaN as a dict key
    groups: dict = {}
    mixed = []
    for b in blocks:
        cols = b.get("columns") or {}
        gst = (cols.get(gcol) or {}).get("stats") or {}
        ok = "min" in gst and gst["min"] == gst["max"]
        if ok:
            for c in need_sum:
                st = (cols.get(c) or {}).get("stats") or {}
                if "sum" not in st or "n_values" in st:
                    ok = False
            for c in need_mm:
                st = (cols.get(c) or {}).get("stats") or {}
                if "min" not in st:
                    ok = False
        if not ok:
            mixed.append(b["block_id"])
            continue
        g = groups.setdefault(gst["min"], _fresh())
        g["n"] += b["n_rows"]
        for c in need_sum:
            g["sum"][c] += int(cols[c]["stats"]["sum"])
            g["cnt"][c] += b["n_rows"]  # stats imply a null-free codec
        for c in need_mm:
            st = cols[c]["stats"]
            g["min"][c] = st["min"] if g["min"][c] is None \
                else min(g["min"][c], st["min"])
            g["max"][c] = st["max"] if g["max"][c] is None \
                else max(g["max"][c], st["max"])

    if mixed:
        # straddling blocks: decode only them and fold real rows in.
        # SQL semantics preserved (these blocks may carry nulls, which is
        # often WHY they lack stats): the NULL group survives
        # (dropna=False), SUM/AVG skip null inputs via per-column
        # non-null counts, all-null folds stay NULL
        from .pipeline import decode_store
        agg_cols = sorted(need_sum | need_mm)
        ds = decode_store(store_dir, columns=sorted({gcol, *agg_cols}),
                          block_ids=set(mixed), as_of=as_of)

        def part(b: pa.Table) -> pa.Table:
            df = b.to_pandas()
            rows = []
            for gval, sub in df.groupby(gcol, dropna=False):
                r = {"__g": gval, "__n": len(sub)}
                for c in need_sum:
                    r[f"__s_{c}"] = sub[c].sum(min_count=1)
                    r[f"__c_{c}"] = int(sub[c].count())
                for c in need_mm:
                    r[f"__mn_{c}"] = sub[c].min()
                    r[f"__mx_{c}"] = sub[c].max()
                rows.append(r)
            return pa.Table.from_pandas(pd.DataFrame(rows),
                                        preserve_index=False) \
                if rows else pa.table({})

        parts = ds.map_batches(part, batch_format="pyarrow").to_pandas()
        for _, r in parts.iterrows():
            key = _NULLG if pd.isna(r["__g"]) else r["__g"]
            g = groups.setdefault(key, _fresh())
            g["n"] += int(r["__n"])
            for c in need_sum:
                v = r[f"__s_{c}"]
                if not pd.isna(v):
                    g["sum"][c] += v
                g["cnt"][c] += int(r[f"__c_{c}"])
            for c in need_mm:
                for k, fn in (("min", min), ("max", max)):
                    v = r[f"__m{'n' if k == 'min' else 'x'}_{c}"]
                    if pd.isna(v):
                        continue
                    g[k][c] = v if g[k][c] is None else fn(g[k][c], v)

    rows_out = []
    ordered = sorted(k for k in groups if k is not _NULLG)
    if _NULLG in groups:
        ordered.append(_NULLG)  # NULL group sorts last (pandas/DuckDB)
    for gkey in ordered:
        g = groups[gkey]
        gval = None if gkey is _NULLG else gkey
        row = {}
        for it in items:
            if not it["agg"]:
                # the group item may carry ROUND(col, nd)
                row[it["alias"]] = (_sql_round(float(gval), it["nd"])
                                    if it["nd"] is not None
                                    and gval is not None else gval)
                continue
            agg, col = it["agg"], it["arg"]
            val = (g["n"] if agg == "COUNT"
                   else (g["sum"][col] if g["cnt"][col] else None)
                   if agg == "SUM"
                   else (g["sum"][col] / g["cnt"][col]
                         if g["cnt"][col] else None) if agg == "AVG"
                   else g["min"][col] if agg == "MIN" else g["max"][col])
            if it["nd"] is not None and val is not None:
                val = _sql_round(float(val), it["nd"])
            row[it["alias"]] = val
        rows_out.append(row)
    df = pd.DataFrame(rows_out, columns=[it["alias"] for it in items])
    for it in items:
        if it["agg"] in ("COUNT", "SUM") and it["nd"] is None \
                and pd.api.types.is_numeric_dtype(df[it["alias"]]) \
                and not df[it["alias"]].isna().any():
            df[it["alias"]] = df[it["alias"]].astype("int64")
    return df


# observability for tests/EXPLAIN: the last ORDER BY+LIMIT scan's census
LAST_TOPK_INFO: dict = {}


def _topk_candidates(sf_dir: str, plan: dict,
                     as_of: int | None = None):
    """Shared qualification for the ORDER BY+LIMIT short-circuit: a plain
    (no aggregate/group/having) SELECT with ORDER BY whose FIRST key is a
    physical column carrying min/max zone stats on EVERY block that
    survives WHERE-conjunct pruning. Returns (key, desc, candidates) with
    candidates ordered by the key's block min (ASC) / max (DESC), or None."""
    if plan["limit"] is None or not plan["order"] or plan["group"] \
            or plan["having"] or plan.get("having_or") \
            or any(it["agg"] for it in plan["items"]):
        return None
    if any(not it["col"] for it in plan["items"]):
        return None
    alias2col = {it["alias"]: it["col"] for it in plan["items"] if it["col"]}
    selected = {it["col"] for it in plan["items"]}
    if any(alias2col.get(c, c) not in selected for c, _ in plan["order"]):
        return None  # ordering by a non-selected column: generic scan
    key0, desc = plan["order"][0]
    key = alias2col.get(key0, key0)

    from .manifest import load_footer
    blocks = load_footer(sf_dir, as_of=as_of)["blocks"]
    cand = []
    for b in blocks:
        cols = b.get("columns") or {}
        if any(_zone_classify((cols.get(c["col"]) or {}).get("stats"),
                              c["op"], c["val"]) == "none"
               for c in plan["conds"]):
            continue  # zone-pruned: no row can match the WHERE
        s = (cols.get(key) or {}).get("stats") or {}
        if "min" not in s or "max" not in s:
            return None  # key not stats-covered: generic scan
        cand.append((b["block_id"], s["min"], s["max"], b["n_rows"]))
    if not cand:
        return key, desc, []
    cand.sort(key=(lambda c: c[2]) if desc else (lambda c: c[1]),
              reverse=desc)
    return key, desc, cand


def _store_order_limit_scan(sf_dir: str, plan: dict,
                            as_of: int | None = None):
    """Top-k over the encoded store without a global sort: when the store
    is clustered on the ORDER BY key (recluster/Z-order — blocks are
    near-disjoint key ranges), decode blocks GREEDILY in footer-stat key
    order and stop as soon as ``limit`` collected rows provably precede
    every undecoded block (strictly < the next block's min for ASC / > its
    max for DESC — ties can never be displaced by later blocks). A
    ``LIMIT k`` over a clustered 100-TB store then decodes O(k/rows-per-
    block) blocks instead of sorting the table; on an unclustered store
    the same loop degrades gracefully to a full scan, never to a wrong
    answer. Returns the ALIASED result rows (superset of the final top-k;
    the caller's fast-path tail applies the authoritative sort + LIMIT),
    or None when the query shape doesn't qualify."""
    q = _topk_candidates(sf_dir, plan, as_of=as_of)
    if q is None:
        return None
    key, desc, cand = q
    need = _needed_columns(plan)
    out_cols = [it["alias"] for it in plan["items"]]
    if not cand:
        return pd.DataFrame({it["alias"]: [] for it in plan["items"]})

    from .pipeline import decode_store
    pred = _pushable_all(plan["conds"]) or None
    limit = plan["limit"]
    frames: list[pd.DataFrame] = []
    n_decoded, i, chunk = 0, 0, max(1, -(-limit // max(c[3] for c in cand)))
    while i < len(cand):
        ids = {c[0] for c in cand[i:i + chunk]}
        i += chunk
        chunk *= 2  # back off geometrically if early blocks don't satisfy
        df = decode_store(sf_dir, columns=need, predicate=pred,
                          block_ids=ids, as_of=as_of).to_pandas()
        n_decoded += len(ids)
        # a fully-filtered chunk comes back EMPTY with its schema lost
        # through to_pandas — nothing to collect or count
        if not df.empty:
            if plan["conds"]:
                df = _predicate(
                    pa.Table.from_pandas(df, preserve_index=False),
                    plan["conds"]).to_pandas()
            frames.append(df)
        if i >= len(cand):
            break
        bound = cand[i][2] if desc else cand[i][1]
        safe = sum(int((f[key] > bound).sum() if desc
                       else (f[key] < bound).sum()) for f in frames)
        if safe >= limit:
            break
    LAST_TOPK_INFO.clear()
    LAST_TOPK_INFO.update({"key": key, "desc": desc,
                           "blocks_total": len(cand),
                           "blocks_decoded": n_decoded})
    if not frames:
        return pd.DataFrame({it["alias"]: [] for it in plan["items"]})
    out = pd.concat(frames, ignore_index=True)
    out = pd.DataFrame({it["alias"]: out[it["col"]]
                        for it in plan["items"]})
    for it in plan["items"]:
        if it["nd"] is not None:
            out[it["alias"]] = out[it["alias"]].astype(float).pipe(_sql_round, it["nd"])
    return out


def explain_sql(sf_dir: str, sql: str,
                tables_dir: str | None = None) -> dict:
    """Plan observability WITHOUT executing: which execution path
    :func:`run_sql` will take, what the pruned read touches, and — for a
    store — how the footer classifies every block against the WHERE
    conjuncts (pruned / metadata-answered / decoded). The block census
    reuses the same :func:`_zone_classify` the executor uses, so the
    numbers are the plan, not an estimate."""
    plan = _expand_star(sf_dir, parse(sql))
    if plan.get("select_distinct"):
        # mirror run_sql's rewrite so the reported plan is the real one
        # (expression items have col=None: group on the alias, as run_sql
        # does — None would crash _needed_columns' sort)
        plan = dict(plan, group=[it["col"] or it["alias"]
                                 for it in plan["items"]])
    out: dict = {"table": plan["table"],
                 "joins": [dict(j) for j in plan["joins"]],
                 "columns": _needed_columns(plan),
                 "group_by": list(plan["group"]),
                 "aggregates": [f"{it['agg']}({it['arg'] or '<expr>'})"
                                for it in plan["items"] if it["agg"]],
                 "conditions": [f"{c['col']} {c['op']} {c['val']!r}"
                                for c in plan["conds"]]}
    if plan.get("or_branches"):
        out["conditions"] = [
            "(" + " AND ".join(f"{c['col']} {c['op']} {c['val']!r}"
                               for c in br) + ")"
            for br in plan["or_branches"]]
        out["where_form"] = "dnf"
    if plan["joins"]:
        out["path"] = "broadcast-join"
        out["fact"] = plan["table"]
        out["broadcast_dims"] = [j["table"] for j in plan["joins"]]
        return out
    if plan["table"] != "store":
        out["path"] = "table-scan"
        return out

    from .manifest import load_footer

    if plan.get("or_branches"):
        # DNF WHERE: fast paths are gated off; the census is the
        # union-of-branches pruning the executor applies
        blocks = load_footer(sf_dir)["blocks"]
        keep = _or_zone_block_ids(sf_dir, plan["or_branches"])
        out["blocks"] = {"total": len(blocks),
                         "pruned": len(blocks) - len(keep),
                         "metadata": 0, "decoded": len(keep)}
        out["zone_filter"] = {}
        out["pushed_predicate"] = None
        out["path"] = "store-scan"
        tomb_dir = os.path.join(sf_dir, "tombstones")
        out["tombstones_pending"] = os.path.isdir(tomb_dir) and any(
            f.endswith(".tmb") for f in os.listdir(tomb_dir))
        return out

    pure_agg = (plan["items"]
                and not _has_expr(plan)
                and all(it["agg"] and not it["distinct"]
                        and (it["agg"] != "COUNT" or it["arg"] == "*")
                        for it in plan["items"]
                        if it["agg"] or not plan["group"])
                and all(c["op"] in ("=", "<", "<=", ">", ">=", "IN")
                        for c in plan["conds"])
                and not plan["having"] and not plan.get("having_or"))
    tomb_dir = os.path.join(sf_dir, "tombstones")
    has_tombs = os.path.isdir(tomb_dir) and any(
        f.endswith(".tmb") for f in os.listdir(tomb_dir))
    blocks = load_footer(sf_dir)["blocks"]
    census = {"total": len(blocks), "pruned": 0, "metadata": 0, "decoded": 0}
    for b in blocks:
        cols = b.get("columns") or {}
        verdicts = [_zone_classify((cols.get(c["col"]) or {}).get("stats"),
                                   c["op"], c["val"])
                    for c in plan["conds"]]
        if "none" in verdicts:
            census["pruned"] += 1
        elif not (pure_agg and not has_tombs):
            census["decoded"] += 1
        elif plan["group"]:
            gst = (cols.get(plan["group"][0]) or {}).get("stats") or {}
            single = "min" in gst and gst["min"] == gst.get("max")
            if len(plan["group"]) == 1 and not plan["conds"] and single:
                census["metadata"] += 1
            else:
                census["decoded"] += 1
        elif all(v == "all" for v in verdicts):
            census["metadata"] += 1
        else:
            census["decoded"] += 1
    out["blocks"] = census
    out["zone_filter"] = {c: list(v)
                          for c, v in _store_zones(plan["conds"]).items()}
    p = _pushable(plan["conds"])
    out["pushed_predicate"] = list(p) if p else None
    out["tombstones_pending"] = bool(has_tombs)

    # which executor path fires (mirror run_sql's dispatch; the *_answer
    # gates can still fall back to the scan at run time — e.g. missing
    # stats — which the census's 'decoded' column already reflects)
    if plan["group"]:
        fast = pure_agg and len(plan["group"]) == 1 and not plan["conds"] \
            and not has_tombs
        out["path"] = "grouped-metadata" if fast else "store-scan"
    elif any(it["agg"] for it in plan["items"]):
        out["path"] = (("pushdown-aggregate" if plan["conds"] else "metadata")
                       if pure_agg and not has_tombs else "store-scan")
    else:
        q = _topk_candidates(sf_dir, plan)
        if q is not None:
            key, desc, cand = q
            # metadata-only lower bound on decoded blocks: assume every
            # row passes the WHERE; the executor may decode more, never
            # fewer (same greedy loop _store_order_limit_scan runs)
            need, i, chunk, n_dec = plan["limit"], 0, 1, 0
            if cand:
                chunk = max(1, -(-plan["limit"] // max(c[3] for c in cand)))
            while i < len(cand):
                n_dec += len(cand[i:i + chunk])
                i += chunk
                chunk *= 2
                if i >= len(cand):
                    break
                bound = cand[i][2] if desc else cand[i][1]
                safe = sum(c[3] for c in cand[:i]
                           if (c[1] > bound if desc else c[2] < bound))
                if safe >= need:
                    break
            out["path"] = "order-limit-scan"
            out["order_limit"] = {"key": key, "desc": desc,
                                  "blocks_decoded_min": n_dec,
                                  "blocks_candidate": len(cand)}
        else:
            out["path"] = "store-scan"
    return out




def _win_codes(col: "pa.ChunkedArray") -> np.ndarray:
    """Grouping codes for a partition key: int64, −1 for null (nulls form
    ONE group, matching dropna=False semantics). Factorize is C-speed and
    handles every Arrow type pandas can hold."""
    codes, _ = pd.factorize(col.to_pandas(), use_na_sentinel=True)
    return codes.astype(np.int64)


def _win_sortkey(col: "pa.ChunkedArray", desc: bool) -> np.ndarray:
    """Order-key array for np.lexsort with SQL null placement (NULLS LAST
    for ASC and DESC — DuckDB's default and pandas' na_position='last'):
    numeric keys pass through as float64 (NaN sorts last in lexsort, and
    −x keeps NaN last for DESC); other types factorize order-preserving
    with null → NaN."""
    t = col.type
    if pa.types.is_temporal(t):
        # NaT → int-min under a direct float view; route through an Arrow
        # int cast so nulls stay null and land as NaN below
        col = col.cast(pa.int64() if t.bit_width == 64 else pa.int32())
        t = col.type
    if pa.types.is_integer(t) and col.null_count == 0:
        # exact: a float64 round-trip would merge keys differing only
        # beyond 2^53 into RANGE-frame peers; ~x is an exact monotonic
        # reversal for DESC (no -x overflow at int64 min)
        xi = (col.combine_chunks()
              .to_numpy(zero_copy_only=False).astype(np.int64))
        return np.invert(xi) if desc else xi
    if pa.types.is_integer(t) or pa.types.is_floating(t):
        x = col.to_pandas().to_numpy(dtype="float64", na_value=np.nan)
    else:
        codes, _ = pd.factorize(col.to_pandas(), sort=True,
                                use_na_sentinel=True)
        x = codes.astype(np.float64)
        x[codes < 0] = np.nan
    return -x if desc else x


def _win_eq_prev(a: np.ndarray) -> np.ndarray:
    """a[i] == a[i−1] with NaN == NaN (peer detection); a[0] → False."""
    eq = np.zeros(len(a), dtype=bool)
    if len(a) > 1:
        x, y = a[1:], a[:-1]
        eq[1:] = (x == y) | (pd.isna(x) & pd.isna(y))
    return eq


def _input_size_hint(sf_dir: str, plan: dict) -> int:
    """Best-effort UNCOMPRESSED byte estimate of the windowed fold's
    input, metadata-only (parquet footer / store footer) — feeds
    derive_buckets so the bucketed shuffle's per-task input stays bounded
    at any scale (round-5 item #1). 0 when unknown (floor-only sizing)."""
    import os as _os
    try:
        if plan["table"] == "store":
            from .manifest import load_footer
            f = load_footer(sf_dir)
            # encoded → raw expansion: the store's lightweight codecs
            # land ~3-4x; err high so buckets err many
            return int(f.get("encoded_bytes", 0)) * 4
        from .ops.util import parquet_bytes
        return parquet_bytes(
            _os.path.join(sf_dir, f"{plan['table']}.parquet"),
            _needed_columns_runtime(sf_dir, plan))
    except Exception:
        return 0


def _run_windowed(plan: dict, ds, size_hint: int = 0) -> pd.DataFrame:
    """Window-function execution: ONE bucketed shuffle on the shared
    PARTITION BY key (every row of a partition co-locates; bucket count
    bounds per-task memory), then each bucket computes every window column
    in an ARROW-NATIVE pass — numpy lexsort by (partition, window order,
    input position), segment ops on the sorted arrays (cumsum − segment
    baseline, reduceat, boundary-masked shifts), values scattered back by
    the inverse permutation (round-3 verdict item #4: no per-bucket
    pandas conversion). Running aggregates follow DuckDB's default RANGE
    frame (peer rows with equal order keys share the frame value; null
    inputs don't break the accumulation). ROW_NUMBER / LAG / LEAD are
    ROWS-based: with non-unique order keys their tie order is
    engine-defined (here: stable by input position), exactly as in SQL."""
    wins = [it for it in plan["items"] if it.get("window")]
    part = wins[0]["window"]["part"]
    from .ops.util import derive_buckets
    n_buckets = derive_buckets(size_hint)
    # ORDER BY may name a physical column that is not selected — carry it
    # through the fold as a hidden passthrough, dropped after the sort
    aliases = {it["alias"] for it in plan["items"]}
    extra_ord = [c for c, _ in plan["order"] if c not in aliases]

    def add_bucket(batch: pa.Table) -> pa.Table:
        h = np.zeros(batch.num_rows, dtype=np.uint64)
        for c in part:
            with np.errstate(over="ignore"):
                h = h * np.uint64(1099511628211) + pd.util.hash_array(
                    np.asarray(batch[c].to_pandas()), categorize=False)
        return batch.append_column(
            "__wb", pa.array((h % n_buckets).view(np.int64)))

    out_specs = [(it["alias"], it.get("window"), it.get("col"), it["nd"])
                 for it in plan["items"]]

    def _numeric_f64(col: "pa.ChunkedArray") -> np.ndarray:
        return col.to_pandas().to_numpy(dtype="float64", na_value=np.nan)

    def fold(g: pa.Table) -> pa.Table:
        g = g.drop_columns(["__wb"])
        n = g.num_rows
        res: dict[str, pa.Array] = {}
        if n == 0:
            for alias, win, col, nd in out_specs:
                if win is None:
                    res[alias] = (pa.array([], type=pa.float64())
                                  if nd is not None
                                  else g[col].combine_chunks())
                    continue
                fn = win["fn"]
                if fn in ("ROW_NUMBER", "RANK", "COUNT"):
                    res[alias] = pa.array([], type=pa.int64())
                elif fn in ("LAG", "LEAD") and nd is None:
                    res[alias] = g[win["arg"]].combine_chunks()
                elif nd is None and fn in ("SUM", "MIN", "MAX") and (
                        pa.types.is_integer(g[win["arg"]].type)):
                    res[alias] = pa.array([], type=pa.int64())
                else:
                    res[alias] = pa.array([], type=pa.float64())
            for c in extra_ord:
                res[c] = g[c].combine_chunks()
            return pa.table(res)

        pos = np.arange(n, dtype=np.int64)
        pcodes = [_win_codes(g[c]) for c in part]
        sort_cache: dict[tuple, tuple] = {}

        def sorted_ctx(okeys: tuple):
            """(order, inv, seg_start_per_row, seg_end_per_row,
            b_peer) for one window ORDER BY spec, cached per spec."""
            if okeys in sort_cache:
                return sort_cache[okeys]
            okarrs = [_win_sortkey(g[c], desc) for c, desc in okeys]
            # lexsort: LAST key is primary → (pos, okeyN..okey1, partN..1)
            order = np.lexsort(tuple([pos] + okarrs[::-1] + pcodes[::-1]))
            inv = np.empty(n, dtype=np.int64)
            inv[order] = pos
            b_part = np.zeros(n, dtype=bool)
            b_part[0] = True
            for pc_ in pcodes:
                s = pc_[order]
                b_part[1:] |= s[1:] != s[:-1]
            starts = np.flatnonzero(b_part)
            seg_id = np.cumsum(b_part) - 1
            seg_start = starts[seg_id]
            ends = np.append(starts[1:] - 1, n - 1)
            seg_end = ends[seg_id]
            b_peer = b_part.copy()
            for arr in okarrs:
                b_peer |= ~_win_eq_prev(arr[order])
            sort_cache[okeys] = (order, inv, seg_start, seg_end, b_peer)
            return sort_cache[okeys]

        def peer_last(vals: np.ndarray, b_peer: np.ndarray,
                      seg_start: np.ndarray) -> np.ndarray:
            """RANGE frame: every row takes its peer group's value at the
            peer END, forward-filling over null-input positions within
            the partition (a frame that ends on a null input still sums
            everything before it). Integer input (the int64-exact SUM
            path, null-free by construction) stays integer: the float
            np.where branch would silently promote and round above 2^53
            — the exact bug the int path exists to avoid."""
            ps = np.flatnonzero(b_peer)
            pid = np.cumsum(b_peer) - 1
            pend = np.append(ps[1:] - 1, len(vals) - 1)[pid]
            if vals.dtype.kind != "f":
                return vals[pend]
            valid = ~np.isnan(vals)
            lv = np.maximum.accumulate(np.where(valid, pos, -1))
            ff = np.where((lv >= seg_start) & (lv >= 0),
                          vals[np.clip(lv, 0, None)], np.nan)
            return ff[pend]

        for alias, win, col, nd in out_specs:
            if win is None:
                colv = g[col].combine_chunks()
                if nd is not None:  # ROUND on a plain item in a window
                    colv = pa.array(_sql_round(
                        colv.to_pandas().to_numpy(dtype="float64",
                                                  na_value=np.nan), nd))
                res[alias] = colv
                continue
            okeys = tuple(win["order"])
            order, inv, seg_start, seg_end, b_peer = sorted_ctx(okeys)
            fn, arg, off = win["fn"], win["arg"], win["off"]
            arrow_out = None
            if fn == "ROW_NUMBER":
                v = (pos - seg_start + 1).astype(np.float64)
            elif fn == "RANK":
                rn = pos - seg_start + 1
                ps = np.flatnonzero(b_peer)
                pid = np.cumsum(b_peer) - 1
                v = rn[ps[pid]].astype(np.float64)
            elif fn in ("LAG", "LEAD"):
                if fn == "LAG":
                    idx = pos - off
                    ok = idx >= seg_start
                else:
                    idx = pos + off
                    ok = idx <= seg_end
                safe = np.where(ok, idx, 0)
                if nd is not None:
                    # ROUND(LAG(x)) — numeric path so rounding applies
                    x = _numeric_f64(g[arg])[order]
                    v = np.where(ok, x[safe], np.nan)
                else:
                    src = g[arg].combine_chunks().take(pa.array(order))
                    vals = src.take(pa.array(safe))
                    arrow_out = pc.if_else(pa.array(ok), vals,
                                           pa.scalar(None, vals.type))
            elif okeys:
                # running aggregate, RANGE frame: ROWS-cumulative along
                # the sorted partition, peers share the peer-END value
                if fn == "COUNT":
                    v = peer_last((pos - seg_start + 1).astype(np.float64),
                                  b_peer, seg_start)
                elif (fn == "SUM" and nd is None
                      and pa.types.is_integer(g[arg].type)
                      and g[arg].null_count == 0):
                    # int64-exact running SUM (ADVICE r4 #4): null-free
                    # int input must not round-trip through float64
                    # cumsum (loses exactness above 2^53)
                    xi = (g[arg].combine_chunks()
                          .to_numpy(zero_copy_only=False)
                          .astype(np.int64)[order])
                    cs = np.cumsum(xi)
                    run = cs - (cs - xi)[seg_start]
                    v = peer_last(run, b_peer, seg_start)
                else:
                    x = _numeric_f64(g[arg])[order]
                    nanm = np.isnan(x)
                    xf = np.where(nanm, 0.0, x)
                    if fn == "SUM":
                        cs = np.cumsum(xf)
                        run = cs - (cs - xf)[seg_start]
                    elif fn == "AVG":
                        cs = np.cumsum(xf)
                        cnt = np.cumsum(~nanm)
                        cnt = cnt - (cnt - (~nanm))[seg_start]
                        run = (cs - (cs - xf)[seg_start]) / cnt
                    else:
                        acc = np.fmin if fn == "MIN" else np.fmax
                        run = np.empty(n, dtype=np.float64)
                        starts = np.unique(seg_start)
                        for s, e in zip(starts,
                                        np.append(starts[1:], n)):
                            run[s:e] = acc.accumulate(x[s:e])
                    run = np.where(nanm, np.nan, run)
                    v = peer_last(run, b_peer, seg_start)
            else:
                # partition-wide aggregate duplicated on every row
                starts = np.unique(seg_start)
                if fn == "COUNT":
                    v = (seg_end - seg_start + 1).astype(np.float64)
                elif (fn == "SUM" and nd is None
                      and pa.types.is_integer(g[arg].type)
                      and g[arg].null_count == 0):
                    # int64-exact partition SUM (ADVICE r4 #4)
                    xi = (g[arg].combine_chunks()
                          .to_numpy(zero_copy_only=False)
                          .astype(np.int64)[order])
                    seg = np.add.reduceat(xi, starts)
                    v = seg[np.searchsorted(starts, pos,
                                            side="right") - 1]
                else:
                    x = _numeric_f64(g[arg])[order]
                    nanm = np.isnan(x)
                    nvalid = np.add.reduceat((~nanm).astype(np.int64),
                                             starts)
                    if fn == "SUM":
                        seg = np.add.reduceat(np.where(nanm, 0.0, x),
                                              starts)
                    elif fn == "AVG":
                        seg = (np.add.reduceat(np.where(nanm, 0.0, x),
                                               starts)
                               / np.where(nvalid == 0, np.nan, nvalid))
                    else:
                        red = np.fmin if fn == "MIN" else np.fmax
                        with np.errstate(invalid="ignore"):
                            seg = red.reduceat(x, starts)
                        seg = np.where(nvalid == 0, np.nan, seg)
                    v = seg[np.searchsorted(starts, pos, side="right") - 1]
            if arrow_out is None:
                if nd is not None:
                    v = _sql_round(v, nd)
                # output type decided from PLAN + SCHEMA only (ADVICE r4
                # #4): every bucket of one alias emits the same Arrow
                # type regardless of where nulls happen to fall — same
                # rule as the empty-bucket branch above. Null positions
                # (NaN in v) become int64 NULLS, which pandas renders as
                # NaN exactly like the old float64 output did.
                int_like = (fn in ("ROW_NUMBER", "RANK", "COUNT")
                            or (nd is None and fn in ("SUM", "MIN", "MAX")
                                and pa.types.is_integer(g[arg].type)))
                if int_like and v.dtype.kind != "f":
                    arrow_out = pa.array(v[inv].astype(np.int64))
                elif int_like:
                    vv = v[inv]
                    mask = np.isnan(vv)
                    arrow_out = pa.array(
                        np.where(mask, 0, vv).astype(np.int64), mask=mask)
                else:
                    arrow_out = pa.array(v[inv], from_pandas=True)
            else:
                arrow_out = arrow_out.take(pa.array(inv))
            if nd is not None and not pa.types.is_floating(arrow_out.type):
                arrow_out = arrow_out.cast(pa.float64())
            res[alias] = (arrow_out.combine_chunks()
                          if isinstance(arrow_out, pa.ChunkedArray)
                          else arrow_out)
        for c in extra_ord:
            res[c] = g[c].combine_chunks()
        return pa.table(res)

    out = (ds.map_batches(add_bucket, batch_format="pyarrow")
             .groupby("__wb").map_groups(fold, batch_format="pyarrow")
             .to_pandas())
    if plan["order"]:
        out = out.sort_values([c for c, _ in plan["order"]],
                              ascending=[not d for _, d in plan["order"]])
    if plan["limit"] is not None:
        out = out.head(plan["limit"])
    hid = [it["alias"] for it in plan["items"]
           if it.get("hidden") and it["alias"] in out.columns]
    hid += [c for c in extra_ord if c in out.columns]
    if hid:
        out = out.drop(columns=hid)
    return out.reset_index(drop=True)

def _mask_literals(sql: str) -> str:
    """Same-length copy with every character INSIDE a single-quoted
    literal (including '' escapes) replaced by \\x00, so structural scans
    (UNION, FROM (, paren depth) can run on the mask while slicing from
    the original — a WHERE note = 'a union b' or a literal containing an
    unbalanced paren no longer mis-splits the query."""
    out = list(sql)
    i, n = 0, len(sql)
    in_lit = False
    while i < n:
        c = sql[i]
        if in_lit:
            if c == "'":
                if i + 1 < n and sql[i + 1] == "'":
                    out[i] = out[i + 1] = "\x00"
                    i += 2
                    continue
                in_lit = False
            else:
                out[i] = "\x00"
        elif c == "'":
            in_lit = True
        i += 1
    return "".join(out)


def _split_union(sql: str):
    """Top-level ``UNION [ALL]`` split (paren-depth 0, literal-aware).
    Returns (parts, all_flags) — all_flags[i] is True when part i+1
    joined via UNION ALL — or ([sql], []) when no union present."""
    parts, flags = [], []
    depth = start = 0
    i = 0
    msk = _mask_literals(sql)
    up = msk.upper()
    while i < len(sql):
        ch = msk[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and up.startswith("UNION", i) \
                and (i == 0 or not (sql[i - 1].isalnum()
                                    or sql[i - 1] == "_")) \
                and not (sql[i + 5:i + 6].isalnum()
                         or sql[i + 5:i + 6] == "_"):
            m = re.match(r"UNION(\s+ALL)?\s", up[i:])
            if m:
                parts.append(sql[start:i].strip())
                flags.append(bool(m.group(1)))
                i += m.end()
                start = i
                continue
        i += 1
    parts.append(sql[start:].strip())
    return parts, flags


def _run_union(sf_dir: str, parts: list[str], flags: list[bool],
               tables_dir: str | None) -> pd.DataFrame:
    """UNION [ALL] by composition: the last part's trailing ORDER BY /
    LIMIT belongs to the WHOLE union (standard SQL); each side runs
    through the full compiler; UNION (without ALL) dedups the combined
    rows. Column names come from the FIRST side (SQL positional-union
    semantics; sides must be column-compatible)."""
    tail = parts[-1]
    order_txt = limit_n = None
    lm = re.search(r"\sLIMIT\s+(\d+)\s*$", tail, re.IGNORECASE)
    if lm:
        limit_n = int(lm.group(1))
        tail = tail[:lm.start()].rstrip()
    om = re.search(r"\sORDER\s+BY\s+([^()]+)$", tail, re.IGNORECASE)
    if om:
        order_txt = om.group(1).strip()
        tail = tail[:om.start()].rstrip()
    parts = parts[:-1] + [tail]
    frames = [run_sql(sf_dir, p, tables_dir=tables_dir) for p in parts]
    cols = list(frames[0].columns)
    aligned = [frames[0]]
    for f in frames[1:]:
        if len(f.columns) != len(cols):
            raise ValueError("UNION sides have different column counts")
        aligned.append(f.set_axis(cols, axis=1))
    out = pd.concat(aligned, ignore_index=True)
    if not all(flags):
        if not any(flags):
            out = out.drop_duplicates().reset_index(drop=True)
        else:
            raise ValueError("mixing UNION and UNION ALL is unsupported")
    if order_txt:
        keys, asc = [], []
        for raw in _split_commas(order_txt):
            txt = raw.strip()
            dm = re.search(r"\s+(ASC|DESC)\s*$", txt, re.IGNORECASE)
            desc = False
            if dm:
                desc = dm.group(1).upper() == "DESC"
                txt = txt[:dm.start()].strip()
            keys.append(txt)
            asc.append(not desc)
        out = out.sort_values(keys, ascending=asc)
    if limit_n is not None:
        out = out.head(limit_n)
    return out.reset_index(drop=True)


def _split_ctes(sql: str):
    """Parse ``WITH name AS ( body )[, name2 AS ( body2 )] <main>`` with a
    balanced-paren scan. Returns ([(name, body), ...], main_sql)."""
    m = re.match(r"^\s*WITH\s+", sql, re.IGNORECASE)
    if not m:
        return [], sql
    msk = _mask_literals(sql)
    i = m.end()
    ctes = []
    while True:
        nm = re.match(r"\s*([A-Za-z_]\w*)\s+AS\s*\(", sql[i:],
                      re.IGNORECASE)
        if not nm:
            raise ValueError(f"malformed WITH clause near: {sql[i:i+40]!r}")
        name = nm.group(1)
        j = i + nm.end()          # position after the opening paren
        depth = 1
        k = j
        while depth:
            if k >= len(sql):
                raise ValueError(f"unbalanced parens in CTE {name!r}")
            if msk[k] == "(":
                depth += 1
            elif msk[k] == ")":
                depth -= 1
            k += 1
        ctes.append((name, sql[j:k - 1].strip()))
        i = k
        cm = re.match(r"\s*,", sql[i:])
        if cm:
            i += cm.end()
            continue
        break
    return ctes, sql[i:].strip()


def _rewrite_derived_tables(sql: str) -> str:
    """``FROM (SELECT …) alias`` → ``WITH alias AS (SELECT …) … FROM
    alias`` — derived tables ride the CTE machinery (one rewrite, full
    compiler underneath). Repeats until no derived table remains; the
    alias is REQUIRED (both engines must agree on the table name)."""
    while True:
        msk = _mask_literals(sql)
        m = re.search(r"\bFROM\s*\(", msk, re.IGNORECASE)
        if not m:
            return sql
        j = m.end()
        depth = 1
        k = j
        while depth:
            if k >= len(sql):
                raise ValueError("unbalanced parens in derived table")
            if msk[k] == "(":
                depth += 1
            elif msk[k] == ")":
                depth -= 1
            k += 1
        body = sql[j:k - 1].strip()
        am = re.match(r"\s*(?:AS\s+)?([A-Za-z_]\w*)", sql[k:])
        if not am:
            raise ValueError(
                "derived tables need an alias: FROM (SELECT …) name")
        alias = am.group(1)
        rest = sql[k + am.end():]
        main = sql[:m.start()] + f"FROM {alias}" + rest
        sql = f"WITH {alias} AS ({body}) {main}"


def _run_with_ctes(sf_dir: str, sql: str,
                   tables_dir: str | None) -> pd.DataFrame:
    """WITH-clause execution by MATERIALIZED composition: each CTE body
    runs through the ordinary compiler against a scratch dir seeded with
    symlinks to the base tables, and its (small, by SQL-result contract)
    result lands there as ``<name>.parquet`` — so later CTEs and the main
    query reference earlier ones exactly like base tables, CTE names
    shadow base tables (SQL scoping), and the whole existing machinery
    (pruned reads, pushdown, grouping, windows, joins) applies unchanged
    at every level. The scale contract matches the engine's result
    convention: a CTE's materialized result is a query RESULT (bounded),
    not a relabeled 100-TB input."""
    import shutil
    import tempfile

    ctes, main = _split_ctes(sql)
    scratch = tempfile.mkdtemp(prefix="howard_sql_cte_")
    try:
        # mirror EVERYTHING (parquet tables AND the encoded-store layout —
        # blocks/, footer.json, manifest.jsonl, snapshots/ … — so WITH
        # bodies and the main query can say FROM store too); CTE results
        # overwrite their own names below
        for f in os.listdir(sf_dir):
            os.symlink(os.path.join(sf_dir, f), os.path.join(scratch, f))
        for name, body in ctes:
            res = run_sql(scratch, body, tables_dir=tables_dir)
            import pyarrow.parquet as pq_mod
            dst = os.path.join(scratch, f"{name}.parquet")
            if os.path.islink(dst) or os.path.exists(dst):
                os.unlink(dst)  # CTE shadows a base table of the same name
            pq_mod.write_table(
                pa.Table.from_pandas(res, preserve_index=False), dst)
        return run_sql(scratch, main, tables_dir=tables_dir)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run_sql(sf_dir: str, sql: str,
            tables_dir: str | None = None,
            as_of: int | None = None) -> pd.DataFrame:
    """Parse + compile + execute over the sf tables — or over an ENCODED
    STORE: ``FROM store`` reads ``sf_dir`` as a store directory via
    :func:`decode_store` (pruned columns + one pushed-down predicate), so
    the whole mini-SQL surface (grouping, HAVING, COUNT(DISTINCT), LIKE,
    ORDER/LIMIT) runs directly on encoded blocks. Returns pandas.

    ``as_of``: time-travel — every footer read (metadata fast paths, zone
    pruning, the top-k scan) and every block decode resolves against the
    retained snapshot footer instead of the live one, so the whole SQL
    surface answers as of that snapshot. Tombstones still pierce history
    (erasure semantics), exactly as ``decode_store(as_of=)``. Only plain
    ``FROM store`` supports it (no JOIN)."""
    from ray.data.aggregate import Count, Max, Min, Sum

    from .ops.util import tbl

    if re.search(r"\bFROM\s*\(", _mask_literals(sql), re.IGNORECASE):
        sql = _rewrite_derived_tables(sql)
    if re.match(r"^\s*WITH\s+", sql, re.IGNORECASE):
        if as_of is not None:
            raise ValueError("as_of does not combine with WITH")
        return _run_with_ctes(sf_dir, sql, tables_dir)
    uparts, uflags = _split_union(sql)
    if len(uparts) > 1:
        if as_of is not None:
            raise ValueError("as_of does not combine with UNION")
        return _run_union(sf_dir, uparts, uflags, tables_dir)

    plan = parse(sql)
    if as_of is not None and (plan["table"] != "store" or plan["joins"]):
        raise ValueError("as_of requires a plain FROM store query")
    plan = _expand_star(sf_dir, plan, as_of=as_of)
    distinct_drop = False
    if plan.get("select_distinct"):
        if any(it.get("hidden") for it in plan["items"]):
            raise ValueError(
                "expression ORDER BY with SELECT DISTINCT is unsupported")
        # SELECT DISTINCT a, b ≡ GROUP BY a, b with a hidden COUNT(*):
        # rides the whole grouped machinery (NULL-group tagging, store
        # grouped-metadata fast path) — the hidden count drops at the end
        # expression items group on their ALIAS — the materialization
        # stage creates that column before the grouped aggregation runs
        plan = dict(plan, group=[it["col"] or it["alias"]
                                 for it in plan["items"]],
                    items=plan["items"] + [{
                        "agg": "COUNT", "arg": "*", "col": None,
                        "distinct": False, "nd": None, "alias": "__dn"}])
        distinct_drop = True
    # A GROUP BY key naming a ROUND(col) item's ALIAS must group on the
    # ROUNDED value (in SQL the alias refers to the whole select
    # expression) — promote such plain items to expression items so the
    # materialization stage computes the rounded column before grouping.
    # GROUP BY the raw column name keeps raw-column grouping (SQL resolves
    # a name collision in favor of the physical column); runs BEFORE the
    # scan dispatch so _needed_columns never treats the alias as physical.
    if plan["group"]:
        promoted = [dict(it) for it in plan["items"]]
        hit = False
        for it in promoted:
            if (not it["agg"] and not it.get("expr") and it["col"]
                    and it["nd"] is not None
                    and it["alias"] in plan["group"]
                    and it["alias"] != it["col"]):
                it["expr"] = ("col", it["col"])
                it["col"] = None
                hit = True
        if hit:
            plan = dict(plan, items=promoted)
    if plan["joins"]:
        if plan["table"] == "store" and tables_dir is None:
            raise ValueError(
                "FROM store JOIN needs tables_dir= for the joined tables")
        # conds are applied per-side INSIDE the join plan (full pushdown)
        ds = _joined_dataset(sf_dir, plan, tables_dir)
        plan = dict(plan, conds=[])
    elif plan["table"] == "store":
        if plan.get("or_branches") or _has_expr(plan):
            # DNF WHERE: stats can't prove all-match across a disjunction,
            # so every metadata fast path is gated off; zone pruning still
            # fires as a union over branches (block_ids below). Expression
            # items likewise need real rows — footer stats can't fold
            # SUM(a*b).
            fast = None
        elif plan["group"]:
            fast = _store_grouped_metadata_answer(sf_dir, plan, as_of=as_of)
        elif any(it["agg"] for it in plan["items"]):
            fast = (_store_pushdown_aggregate(sf_dir, plan, as_of=as_of)
                    if plan["conds"] else
                    _store_metadata_answer(sf_dir, plan, as_of=as_of))
        else:
            fast = _store_order_limit_scan(sf_dir, plan, as_of=as_of)
        if fast is not None:
            # pure-aggregate result (global or footer-grouped): HAVING is
            # gated off; ORDER BY/LIMIT apply on the small frame
            if plan["order"]:
                col2alias = {it["col"]: it["alias"]
                             for it in plan["items"] if it["col"]}
                fast = fast.sort_values(
                    [c if c in fast.columns else col2alias.get(c, c)
                     for c, _ in plan["order"]],
                    ascending=[not d for _, d in plan["order"]])
            if plan["limit"] is not None:
                fast = fast.head(plan["limit"])
            if distinct_drop:
                fast = fast.drop(columns=["__dn"])
            hid = [it["alias"] for it in plan["items"]
                   if it.get("hidden") and it["alias"] in fast.columns]
            if hid:
                fast = fast.drop(columns=hid)
            return fast.reset_index(drop=True)
        from .pipeline import decode_store
        if plan.get("or_branches"):
            # DNF: block survives if ANY branch may match (zone union);
            # the residual Kleene-OR mask below is the filter
            keep = _or_zone_block_ids(sf_dir, plan["or_branches"],
                                      as_of=as_of)
            ds = decode_store(sf_dir,
                              columns=_needed_columns_runtime(sf_dir, plan),
                              block_ids=keep, as_of=as_of)
        else:
            # every range/IN condition contributes to zone pruning (blocks
            # whose footer min/max misses ANY conjunct never decode), and
            # the full pushable conjunction additionally rides into the
            # block scan (IN preferred: it consults Bloom sidecars)
            zones = _store_zones(plan["conds"])
            ds = decode_store(sf_dir,
                              columns=_needed_columns_runtime(sf_dir, plan),
                              zone_filter=zones or None,
                              predicate=_pushable_all(plan["conds"]) or None,
                              as_of=as_of)
    else:
        ds = tbl(sf_dir, plan["table"],
                 _needed_columns_runtime(sf_dir, plan))
    if plan.get("or_branches"):
        brs = plan["or_branches"]
        ds = ds.map_batches(lambda b: _predicate_dnf(b, brs),
                            batch_format="pyarrow")
    elif plan["conds"]:
        conds = plan["conds"]
        ds = ds.map_batches(lambda b: _predicate(b, conds),
                            batch_format="pyarrow")
    if plan.get("where_expr") is not None:
        # expression WHERE (functions / arithmetic comparisons / CASE):
        # one vectorized Kleene mask; WHERE keeps only TRUE rows, so
        # NULLs fill to False exactly as SQL drops them
        wex = plan["where_expr"]

        def _wmask(b: pa.Table, _w=wex) -> pa.Table:
            mk = _eval_bool(_w, b)
            if isinstance(mk, bool):
                return b if mk else b.slice(0, 0)
            if isinstance(mk, pa.ChunkedArray):
                mk = mk.combine_chunks()
            return b.filter(pc.fill_null(mk, False))

        ds = ds.map_batches(_wmask, batch_format="pyarrow")

    if _has_expr(plan):
        # Materialize every expression item as a real column in ONE
        # vectorized map_batches stage, then rewrite the plan so the item
        # is an ordinary column (plain items) or aggregate argument
        # (AGG(expr)) — the entire downstream machinery (grouped
        # aggregation, NULL groups, HAVING, ORDER/LIMIT) runs unchanged.
        # For NON-aggregate items ROUND folds into the materialized column
        # (the alias names the rounded expression, and group keys must see
        # the rounded value); for AGG(expr) the ROUND stays on the
        # aggregate result, as in SQL.
        specs: list[tuple[str, tuple, int | None]] = []
        new_items = [dict(it) for it in plan["items"]]
        lit_backfill: dict[str, object] = {}
        for i, it in enumerate(new_items):
            if not it.get("expr"):
                continue
            if not it["agg"] and it["expr"][0] == "lit":
                # remembered so an EMPTY input (whose map stage never
                # runs) can still backfill the constant after aggregation
                lit_backfill[it["alias"]] = it["expr"][1]
            tgt = f"__x{i}" if it["agg"] else it["alias"]
            specs.append((tgt, it["expr"], None if it["agg"] else it["nd"]))
            if it["agg"]:
                it["arg"] = tgt
            else:
                it["col"] = tgt
                it["nd"] = None
            it["expr"] = None

        def _compute(b: pa.Table, _specs=specs) -> pa.Table:
            for tgt, ast, nd in _specs:
                v = _eval_expr(ast, b)
                if isinstance(v, (int, float, str)):  # constant expression
                    v = pa.array([v] * b.num_rows)
                if nd is not None:
                    v = pa.array(_sql_round(
                        v.to_numpy(zero_copy_only=False), nd))
                b = b.append_column(tgt, v)
            return b

        ds = ds.map_batches(_compute, batch_format="pyarrow")
        plan = dict(plan, items=new_items, _lit_backfill=lit_backfill)

    # windowed dispatch AFTER expression materialization: a query mixing
    # a window with a computed item (SELECT v*2 AS d, ROW_NUMBER() OVER …)
    # sees the expression as an ordinary materialized column in the fold
    if any(it.get("window") for it in plan["items"]):
        return _run_windowed(plan, ds, size_hint=_input_size_hint(
            sf_dir, plan))

    if any(it["agg"] for it in plan["items"]):
        # SQL keeps NULL as its own group; Ray's groupby DROPS null keys.
        # Encode each (string/numeric) group key as (filled value, isnull
        # flag) pairs so the null group survives the shuffle, then restore
        # None on the (small) result frame.
        null_flags: list[tuple[str, str]] = []
        if plan["group"]:
            gcols = list(plan["group"])

            def _null_tag(b: pa.Table) -> pa.Table:
                for c in gcols:
                    col = b[c]
                    t = col.type
                    flag = pc.is_null(col)
                    if pa.types.is_string(t) or pa.types.is_large_string(t):
                        fill = pa.scalar("", type=t)
                    elif pa.types.is_integer(t) or pa.types.is_floating(t):
                        fill = pa.scalar(0, type=t)
                    else:  # exotic key type: flag only (Ray semantics)
                        b = b.append_column(f"__isnull_{c}", flag)
                        continue
                    b = b.set_column(b.column_names.index(c), c,
                                     pc.fill_null(col, fill))
                    b = b.append_column(f"__isnull_{c}", flag)
                return b

            # probe one schema-bearing batch? No — tag unconditionally;
            # the flag column is a bool per key and the result frame is
            # small, so correctness costs almost nothing
            ds = ds.map_batches(_null_tag, batch_format="pyarrow")
            null_flags = [(c, f"__isnull_{c}") for c in gcols]
        # grouped (or global) aggregate: build Ray aggregates; AVG becomes
        # SUM + COUNT merged driver-side (mergeable-partial discipline)
        aggs, post, distinct_items = [], [], []
        bare_global_counts: list[str] = []
        agg_cols: list[str] = []
        for i, it in enumerate(plan["items"]):
            if not it["agg"]:
                continue
            key = f"__a{i}"
            if it["distinct"]:
                distinct_items.append(it)
                continue
            if it["agg"] == "COUNT":
                # COUNT(*) counts rows; COUNT(col) counts NON-NULL values
                # (SQL semantics — the DuckDB oracle runs the same text)
                if it["arg"] == "*":
                    aggs.append(Count(alias_name=key))
                    bare_global_counts.append(key)
                else:
                    aggs.append(Count(on=it["arg"], ignore_nulls=True,
                                      alias_name=key))
                agg_cols.append(key)
            elif it["agg"] == "SUM":
                aggs.append(Sum(it["arg"], alias_name=key))
                agg_cols.append(key)
            elif it["agg"] == "MIN":
                aggs.append(Min(it["arg"], alias_name=key))
                agg_cols.append(key)
            elif it["agg"] == "MAX":
                aggs.append(Max(it["arg"], alias_name=key))
                agg_cols.append(key)
            elif it["agg"] == "AVG":
                # SUM skips nulls, so the divisor must too
                aggs.append(Sum(it["arg"], alias_name=key + "_s"))
                aggs.append(Count(on=it["arg"], ignore_nulls=True,
                                  alias_name=key + "_c"))
                agg_cols.extend([key + "_s", key + "_c"])
            post.append((i, key, it))
        gb_keys = (plan["group"] + [f for _, f in null_flags]
                   if plan["group"] else plan["group"])

        def _restore_nulls(frame: pd.DataFrame) -> pd.DataFrame:
            for c, f in null_flags:
                if f in frame.columns:
                    m = frame[f].astype(bool)
                    frame = frame.drop(columns=[f])
                    # assign ONLY when a null group exists: pandas casts
                    # int64 keys to float64 even for an all-False mask,
                    # which would break dtype parity with DuckDB on
                    # null-free integer group keys
                    if m.any():
                        frame.loc[m, c] = None
            return frame

        if aggs:
            if plan["group"]:
                out = ds.groupby(gb_keys).aggregate(*aggs).to_pandas()
                if out.empty and not set(gb_keys) <= set(out.columns):
                    # a grouped aggregate over ZERO input rows comes back
                    # as a schema-less empty frame — rebuild the typed
                    # empty (group keys + one column per aggregate) so
                    # renames/HAVING/ORDER downstream stay total
                    out = pd.DataFrame(
                        {c: pd.Series(dtype="float64" if c in agg_cols
                                      else "object")
                         for c in list(gb_keys) + agg_cols})
            elif len(bare_global_counts) == len(aggs):
                # Ray 2.49 quirk: a GLOBAL aggregate whose only aggs are
                # bare Count() (on=None) answers 0 — route row counting
                # through Dataset.count() (distributed, metadata-aware)
                n = ds.count()
                out = pd.DataFrame({k: [n] for k in bare_global_counts})
            else:
                out = ds.groupby(None).aggregate(*aggs).to_pandas()
                if out.empty:
                    # SQL's global aggregate over zero rows is ONE row:
                    # COUNT 0 (restored in the post loop), others NULL
                    out = pd.DataFrame({c: [float("nan")]
                                        for c in agg_cols})
        else:
            out = None  # COUNT(DISTINCT ...) only — built below
        for it in distinct_items:
            cd = _count_distinct(ds, gb_keys, it["arg"])
            cd = cd.rename(columns={"__cd": it["alias"]})
            cd[it["alias"]] = cd[it["alias"]].astype("int64")
            if it["nd"] is not None:
                cd[it["alias"]] = cd[it["alias"]].astype(float) \
                    .pipe(_sql_round, it["nd"])
            if out is None:
                out = cd
            elif plan["group"]:
                # merge on the FILLED keys + flags (None keys don't need
                # to match); nulls are restored once, after every merge
                out = out.merge(cd, on=gb_keys, how="left")
                out[it["alias"]] = out[it["alias"]].fillna(0).astype("int64")
            else:
                out[it["alias"]] = cd[it["alias"]].iloc[0]
        if plan["group"]:
            out = _restore_nulls(out)
        for _, key, it in post:
            if it["agg"] == "AVG":
                out[it["alias"]] = out[key + "_s"] / out[key + "_c"]
                out = out.drop(columns=[key + "_s", key + "_c"])
            else:
                out = out.rename(columns={key: it["alias"]})
            if it["agg"] == "COUNT":
                out[it["alias"]] = \
                    out[it["alias"]].fillna(0).astype("int64")
            if it["nd"] is not None:
                out[it["alias"]] = out[it["alias"]].astype(float).pipe(_sql_round, it["nd"])
        # post-aggregation expressions: hidden aggregates are now real
        # columns of the (small) result frame — evaluate the residual
        # expression over it with the same Arrow kernels rows use
        _post_items = [it for it in plan["items"]
                       if it.get("post_expr") is not None]
        if _post_items:
            # SELECT aliases of group keys are visible to ORDER BY /
            # HAVING expressions (DuckDB semantics) but the col→alias
            # rename happens below — expose alias names ALONGSIDE the
            # originals for evaluation so both resolve
            ev = out.copy()
            for it2 in plan["items"]:
                c2, a2 = it2["col"], it2["alias"]
                if (c2 and not it2["agg"] and a2 != c2
                        and c2 in ev.columns and a2 not in ev.columns):
                    ev[a2] = ev[c2]
        for it in _post_items:
            t_ = pa.Table.from_pandas(ev, preserve_index=False)
            v = _eval_expr(it["post_expr"], t_)
            if isinstance(v, (int, float, str)):
                out[it["alias"]] = v
            else:
                out[it["alias"]] = v.to_pandas()
            ev[it["alias"]] = out[it["alias"]]
            if it["nd"] is not None:
                out[it["alias"]] = out[it["alias"]].astype(float) \
                    .pipe(_sql_round, it["nd"])
        out = out.rename(columns={it["col"]: it["alias"]
                                  for it in plan["items"]
                                  if it["col"] and not it["agg"]})
        if plan.get("having_expr") is not None:
            # expression HAVING — raw aggregate calls were lowered to
            # hidden items, still present in the frame at this point
            t_ = pa.Table.from_pandas(out, preserve_index=False)
            mk = _eval_bool(plan["having_expr"], t_)
            if isinstance(mk, bool):
                out = out if mk else out.iloc[0:0]
            else:
                if isinstance(mk, pa.ChunkedArray):
                    mk = mk.combine_chunks()
                out = out[pc.fill_null(mk, False).to_pandas().to_numpy()]
        for a, v in (plan.get("_lit_backfill") or {}).items():
            if a not in out.columns:
                out[a] = v
        order_keys = {c for c, _ in plan["order"]}
        cols = [it["alias"] for it in plan["items"]
                if not it.get("hidden")]
        # hidden ORDER BY columns must survive until the final sort
        cols += [it["alias"] for it in plan["items"]
                 if it.get("hidden") and it["alias"] in order_keys]
        out = out[cols]
        # HAVING: post-aggregate filter on the (small) result, aliases
        # resolved — same alias-reference semantics the DuckDB oracle uses
        for c in plan["having"]:
            out = out[_HAVING_OPS[c["op"]](out[c["col"]], c["val"])]
        if plan.get("having_or"):
            dis = None
            for br in plan["having_or"]:
                bm = None
                for c in br:
                    cm = _HAVING_OPS[c["op"]](out[c["col"]], c["val"])
                    bm = cm if bm is None else (bm & cm)
                if bm is None:       # empty branch: matches everything
                    dis = pd.Series(True, index=out.index)
                    break
                dis = bm if dis is None else (dis | bm)
            out = out[dis]
        out = out.reset_index(drop=True)
    else:
        if plan["having"] or plan.get("having_or") \
                or plan.get("having_expr") is not None:
            raise ValueError("HAVING requires an aggregate SELECT")
        # plain SELECT: with a LIMIT, order+limit stay DISTRIBUTED — a
        # large filtered table must never be pulled to the driver just to
        # sort and slice. WITHOUT a limit the whole result reaches the
        # driver anyway and the authoritative frame sort below re-orders
        # it, so the all-to-all ds.sort would be pure waste — skipped when
        # every ORDER BY key survives into the result frame. ORDER BY may
        # use an output alias; the Dataset carries the underlying names
        if plan["order"]:
            alias2col = {it["alias"]: it["col"]
                         for it in plan["items"] if it["col"]}
            selected = {it["col"] for it in plan["items"] if it["col"]} \
                | {it["alias"] for it in plan["items"]}
            driver_sorts = plan["limit"] is None and all(
                c in selected for c, _ in plan["order"])
            if not driver_sorts:
                ds = ds.sort([alias2col.get(c, c)
                              for c, _ in plan["order"]],
                             descending=[d for _, d in plan["order"]])
        if plan["limit"] is not None:
            ds = ds.limit(plan["limit"])
        out = ds.to_pandas()
        if out.empty:  # empty Datasets lose their schema through to_pandas
            # rebuild with the SOURCE dtypes (a float64/object empty frame
            # would poison downstream composition — a CTE materialized
            # empty must still join on int64 keys)
            cols = {}
            try:
                import pyarrow.parquet as pq_mod
                sch = pq_mod.read_schema(
                    os.path.join(sf_dir, plan["table"] + ".parquet")) \
                    if plan["table"] != "store" else None
            except OSError:
                sch = None
            for it in plan["items"]:
                c = it["col"]
                dt = None
                if sch is not None and c and sch.get_field_index(c) >= 0:
                    try:
                        dt = sch.field(c).type.to_pandas_dtype()
                    except (NotImplementedError, KeyError):
                        dt = None
                cols[c] = pd.Series([], dtype=dt) if dt is not None \
                    else pd.Series([], dtype=object)
            out = pd.DataFrame(cols)
        out = pd.DataFrame({
            it["alias"]: out[it["col"] if it["col"] in out.columns
                             else it["alias"]]
            for it in plan["items"]})

    # ROUND on plain (non-aggregate) columns — agg rounding handled above
    for it in plan["items"]:
        if it["nd"] is not None and not it["agg"]:
            out[it["alias"]] = out[it["alias"]].astype(float).pipe(_sql_round, it["nd"])

    if plan["order"]:
        # the result frame carries ALIASES; accept either the alias or the
        # underlying column name in ORDER BY
        col2alias = {it["col"]: it["alias"]
                     for it in plan["items"] if it["col"]}
        keys = [c if c in out.columns else col2alias.get(c, c)
                for c, _ in plan["order"]]
        if all(k in out.columns for k in keys):
            out = out.sort_values(keys,
                                  ascending=[not d for _, d in plan["order"]])
        # else: ORDER BY references non-selected columns — the plain path
        # already applied the full order DISTRIBUTED (ds.sort) before the
        # projection dropped them; re-sorting a key subset would be wrong
    if plan["limit"] is not None:
        out = out.head(plan["limit"])
    if distinct_drop:
        out = out.drop(columns=["__dn"])
    hid = [it["alias"] for it in plan["items"]
           if it.get("hidden") and it["alias"] in out.columns]
    if hid:
        out = out.drop(columns=hid)
    return out.reset_index(drop=True)
