"""Trace compiler: generate specialized Python code for address tracing.

Cache simulation only needs the *address stream*, not computed values, so
this module compiles a program into a Python function that walks the
iteration space with native ``range`` loops and emits one callback per
array access — roughly an order of magnitude faster than the
value-computing interpreter. The generated trace is bit-identical to the
interpreter's (tested), just without the floating-point work.

Subscript bounds are NOT checked here; run the validating interpreter
first if the program is untrusted.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.ir.affine import Affine
from repro.ir.nodes import Assign, Loop, Program
from repro.exec.blocktrace import _affine_expr, _static_ops
from repro.exec.layout import MemoryLayout

__all__ = ["CompiledTrace", "compile_trace"]

#: Callback protocol: (byte_address, is_write, sid) -> None
AccessFn = Callable[[int, bool, int], None]


@dataclass
class CompiledTrace:
    """A compiled trace generator for one (program, parameters) pair."""

    program_name: str
    source: str
    _fn: Callable[[AccessFn], tuple[int, int]]
    layout: MemoryLayout

    def run(self, access: AccessFn) -> tuple[int, int]:
        """Execute the trace; returns (statement instances, operations)."""
        return self._fn(access)


def compile_trace(
    program: Program, params: Mapping[str, int] | None = None
) -> CompiledTrace:
    """Compile ``program`` (with concrete parameters) to a trace function."""
    env = dict(program.param_env) | dict(params or {})
    layout = MemoryLayout.for_program(program, env)

    out = io.StringIO()
    out.write("def __trace(access):\n")
    out.write("    __count = 0\n")
    out.write("    __ops = 0\n")
    body_emitted = False
    for node in program.body:
        _emit(node, env, layout, out, depth=1)
        body_emitted = True
    if not body_emitted:
        out.write("    pass\n")
    out.write("    return __count, __ops\n")
    source = out.getvalue()

    namespace: dict = {}
    exec(compile(source, f"<trace:{program.name}>", "exec"), namespace)
    return CompiledTrace(program.name, source, namespace["__trace"], layout)


def _emit(
    node: "Loop | Assign",
    env: Mapping[str, int],
    layout: MemoryLayout,
    out: io.StringIO,
    depth: int,
) -> None:
    pad = "    " * depth
    if isinstance(node, Assign):
        # Rank-0 references are register temporaries: no memory traffic
        # (matching the interpreter).
        for ref in node.reads:
            if ref.rank == 0:
                continue
            out.write(
                f"{pad}access({_address_expr(ref, env, layout)}, False, {node.sid})\n"
            )
        if node.lhs.rank:
            out.write(
                f"{pad}access({_address_expr(node.lhs, env, layout)}, True, {node.sid})\n"
            )
        out.write(f"{pad}__count += 1\n")
        out.write(f"{pad}__ops += {_static_ops(node) + 1}\n")
        return
    lb = _affine_expr(node.lb, env)
    ub = _affine_expr(node.ub, env)
    if node.step > 0:
        out.write(f"{pad}for {node.var} in range({lb}, ({ub}) + 1, {node.step}):\n")
    else:
        out.write(f"{pad}for {node.var} in range({lb}, ({ub}) - 1, {node.step}):\n")
    if not node.body:
        out.write(f"{pad}    pass\n")
    for child in node.body:
        _emit(child, env, layout, out, depth + 1)


def _address_expr(ref, env: Mapping[str, int], layout: MemoryLayout) -> str:
    """Fold base + column-major strides into a single affine expression."""
    arr = layout[ref.array]
    addr = Affine.constant(arr.base)
    for sub, stride in zip(ref.subs, arr.strides):
        addr = addr + (sub.partial_evaluate(env) - 1) * stride
    return _affine_expr(addr, env)
