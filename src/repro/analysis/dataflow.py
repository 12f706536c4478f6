"""Lightweight intra-function dataflow for the kernel-contract rules.

One pass over each function body classifies names into *kinds* the
rules can query:

``compute``
    Arrays created in (or cast to) the precision layer's compute dtype
    — allocations with ``dtype=cd`` where ``cd`` came from
    ``Precision.compute_dtype`` (or a backend's ``compute_dtype``), and
    ``x.astype(cd)`` results.
``accum``
    Deliberate float64 accumulators: allocations with
    ``dtype=np.float64`` and casts through the accumulate dtype.
``mask``
    Boolean lane masks: comparison results, ``np.less_equal``-family
    calls, boolean combinations of other masks, and parameters whose
    name contains ``mask`` / equals ``valid``.
``workspace``
    Views handed out by the PR-2 ``Workspace`` (``ws.buf(...)``).

The pass is intentionally *syntactic* — no fixpoints, no aliasing —
because the rules only need enough signal to separate deliberate
accumulation from accidental float64 promotion and to know whether a
function manipulates masks at all.  Everything it cannot prove is left
unclassified and the rules stay conservative about it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

# names conventionally bound to the compute / accumulate dtype
COMPUTE_DTYPE_PARAMS = {"cd", "compute_dtype"}
ACCUM_DTYPE_PARAMS = {"ad", "accum_dtype", "out_dtype"}
MASK_PARAM_NAMES = {"valid", "mask", "masks", "within"}

# calls that legitimately consume float64 values for accumulation
# (segmented sums, reductions, approved scatter helpers)
ACCUMULATION_SINKS = {
    "bincount",
    "segsum3",
    "sum",
    "einsum",
    "trace",
    "dot",
    "reduce_add",
    "scatter",  # conventional local alias of the scatter_add_* methods
    "scatter_add",
    "scatter_add_rows",
    "scatter_add_conflict",
    "scatter_add_distinct",
}

MASK_PRODUCING_CALLS = {
    "less",
    "less_equal",
    "greater",
    "greater_equal",
    "equal",
    "not_equal",
    "isfinite",
    "isnan",
    "isinf",
    "isclose",
    "logical_and",
    "logical_or",
    "logical_not",
    "any",
    "all",
    # VectorBackend lane comparators / vector-wide conditionals
    "cmp_lt",
    "cmp_le",
    "cmp_gt",
    "all_lanes",
    "any_lanes",
}


def call_name(node: ast.Call) -> str | None:
    """Terminal name of a call: ``np.zeros`` -> 'zeros', ``f()`` -> 'f'."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def is_np_attr_call(node: ast.Call, names: set[str] | frozenset[str]) -> bool:
    """True for ``np.<name>(...)`` / ``numpy.<name>(...)`` calls."""
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr in names
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
    )


def is_float64_expr(node: ast.expr) -> bool:
    """``np.float64`` / ``"float64"`` / ``float`` dtype expressions."""
    if isinstance(node, ast.Attribute) and node.attr in ("float64", "double"):
        base = node.value
        return isinstance(base, ast.Name) and base.id in ("np", "numpy")
    if isinstance(node, ast.Constant) and node.value in ("float64", "double", "d8"):
        return True
    return False


def dtype_argument(node: ast.Call) -> ast.expr | None:
    """The ``dtype=`` keyword value of a call, if present."""
    for kw in node.keywords:
        if kw.arg == "dtype":
            return kw.value
    return None


@dataclass
class FunctionInfo:
    """Dataflow summary of one function (nested defs get their own)."""

    node: ast.FunctionDef
    qualname: str
    is_hot_path: bool = False
    hot_path_lineno: int | None = None
    is_precision_parameterized: bool = False
    kinds: dict[str, str] = field(default_factory=dict)  # name -> kind
    compute_dtype_names: set[str] = field(default_factory=set)
    accum_dtype_names: set[str] = field(default_factory=set)
    mask_names: set[str] = field(default_factory=set)
    errstate_ranges: list[tuple[int, int]] = field(default_factory=list)
    has_mask_sanitization: bool = False

    def in_errstate(self, lineno: int) -> bool:
        return any(lo <= lineno <= hi for lo, hi in self.errstate_ranges)


def walk_own(fn: ast.FunctionDef):
    """Walk a function's own body, excluding nested function/class defs.

    Nested defs get their own :class:`FunctionInfo`, so both the
    dataflow pass and the function-scoped rules must not leak into
    them (a nested closure's errstate block does not guard the outer
    function, and vice versa).
    """
    stack = list(reversed(fn.body))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        # pre-order, source order — the dataflow pass relies on seeing
        # `valid = a < b` before `mask = valid & other`
        stack.extend(reversed(list(ast.iter_child_nodes(node))))


_own_statements = walk_own


def _decorator_is_hot_path(dec: ast.expr) -> bool:
    target = dec.func if isinstance(dec, ast.Call) else dec
    if isinstance(target, ast.Name):
        return target.id == "hot_path"
    if isinstance(target, ast.Attribute):
        return target.attr == "hot_path"
    return False


def _names_in(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _is_mask_expr(node: ast.expr, mask_names: set[str]) -> bool:
    """Expressions that produce (or combine) boolean masks."""
    if isinstance(node, ast.Compare):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Invert):
        return _is_mask_expr(node.operand, mask_names)
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitAnd, ast.BitOr, ast.BitXor)):
        return _is_mask_expr(node.left, mask_names) or _is_mask_expr(node.right, mask_names)
    if isinstance(node, ast.Name):
        return node.id in mask_names
    if isinstance(node, ast.Subscript):
        return _is_mask_expr(node.value, mask_names)
    if isinstance(node, ast.Call):
        name = call_name(node)
        if name in MASK_PRODUCING_CALLS:
            return True
        if name == "where" and node.args:
            # np.where(mask, a, b) of two masks stays a mask; be lenient
            return False
    return False


def _classify_call(node: ast.Call, info: FunctionInfo) -> str | None:
    """Kind of the value produced by ``node``, if recognizable."""
    name = call_name(node)
    if name is None:
        return None
    if name == "buf":
        # Workspace.buf(...) — any receiver whose name smells like a
        # workspace ('ws', 'workspace', 'self.workspace', ...)
        return "workspace"
    if name in ("zeros", "empty", "ones", "full", "full_like", "zeros_like", "empty_like",
                "ones_like", "arange", "array", "asarray", "ascontiguousarray"):
        dt = dtype_argument(node)
        if dt is None and name in ("zeros", "empty", "ones") and len(node.args) >= 2:
            dt = node.args[1]
        if dt is None and name == "full" and len(node.args) >= 3:
            dt = node.args[2]
        if dt is not None:
            if isinstance(dt, ast.Name) and dt.id in info.compute_dtype_names:
                return "compute"
            if isinstance(dt, ast.Name) and dt.id in info.accum_dtype_names:
                return "accum"
            if is_float64_expr(dt):
                return "accum"
        return None
    if name == "astype" and node.args:
        dt = node.args[0]
        if isinstance(dt, ast.Name) and dt.id in info.compute_dtype_names:
            return "compute"
        if isinstance(dt, ast.Name) and dt.id in info.accum_dtype_names:
            return "accum"
        # NOTE: a bare .astype(np.float64) deliberately does NOT make the
        # target an accumulator — that would let any promotion launder
        # itself past KA002.  Accumulators are established by explicit
        # float64 *allocations* or casts through the accum-dtype name.
    if name in MASK_PRODUCING_CALLS:
        return "mask"
    return None


def analyze_function(fn: ast.FunctionDef, qualname: str) -> FunctionInfo:
    info = FunctionInfo(node=fn, qualname=qualname)

    for dec in fn.decorator_list:
        if _decorator_is_hot_path(dec):
            info.is_hot_path = True
            info.hot_path_lineno = dec.lineno

    args = fn.args
    all_params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
    for a in all_params:
        lowered = a.arg.lower()
        if a.arg in COMPUTE_DTYPE_PARAMS:
            info.compute_dtype_names.add(a.arg)
        if a.arg in ACCUM_DTYPE_PARAMS:
            info.accum_dtype_names.add(a.arg)
        if a.arg in MASK_PARAM_NAMES or "mask" in lowered:
            info.mask_names.add(a.arg)
            info.kinds[a.arg] = "mask"

    # first pass: dtype bindings (cd = <x>.compute_dtype) — these must be
    # known before classifying allocations, so collect them up front.
    for node in _own_statements(fn):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute):
            attr = node.value.attr
            for target in node.targets:
                if isinstance(target, ast.Name):
                    if attr == "compute_dtype":
                        info.compute_dtype_names.add(target.id)
                    elif attr == "accum_dtype":
                        info.accum_dtype_names.add(target.id)
    if info.compute_dtype_names:
        info.is_precision_parameterized = True
    else:
        # functions that reach through an object every time
        # (self.precision.compute_dtype inline) still count
        for node in _own_statements(fn):
            if isinstance(node, ast.Attribute) and node.attr == "compute_dtype":
                info.is_precision_parameterized = True
                break

    # second pass: name kinds, errstate ranges, sanitization evidence
    for node in _own_statements(fn):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            value = node.value
            if value is None:
                continue
            kind = None
            if isinstance(value, ast.Call):
                kind = _classify_call(value, info)
            if kind is None and _is_mask_expr(value, info.mask_names):
                kind = "mask"
            if kind is not None:
                for target in targets:
                    if isinstance(target, ast.Name):
                        info.kinds[target.id] = kind
                        if kind == "mask":
                            info.mask_names.add(target.id)
        elif isinstance(node, ast.With):
            for item in node.items:
                ctx = item.context_expr
                if isinstance(ctx, ast.Call) and call_name(ctx) == "errstate":
                    info.errstate_ranges.append((node.lineno, node.end_lineno or node.lineno))
        elif isinstance(node, ast.Call) and call_name(node) == "where" and node.args:
            cond = node.args[0]
            if _names_in(cond) & info.mask_names or isinstance(cond, ast.Compare):
                info.has_mask_sanitization = True

    return info


def collect_functions(tree: ast.Module) -> list[FunctionInfo]:
    """All function defs in a module (methods get ``Class.method`` names)."""
    out: list[FunctionInfo] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                out.append(analyze_function(child, qual))
                visit(child, f"{qual}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def build_parent_map(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    """child -> parent links (ast has none natively)."""
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def enclosing_sink_call(node: ast.AST, parents: dict[ast.AST, ast.AST]) -> ast.Call | None:
    """The nearest ancestor accumulation-sink Call containing ``node``
    (as an argument or as the method receiver), or None.  The walk stops
    at the enclosing statement, so sink-ness never leaks across
    statements."""
    cur = parents.get(node)
    while cur is not None and not isinstance(cur, ast.stmt):
        if isinstance(cur, ast.Call) and call_name(cur) in ACCUMULATION_SINKS:
            return cur
        cur = parents.get(cur)
    return None
