"""Every parameter of every function in ``src/arbor`` is read by its body.

A parameter nothing reads is an option no caller can use.  ``self``,
``cls`` and ``_``-prefixed names are exempt, and so are ``*args`` and
``**kwargs`` catch-alls, which take whatever a protocol passes (as
``__exit__`` does).  A read in a nested function or lambda counts.
"""

import ast
from pathlib import Path

import arbor

PACKAGE = Path(arbor.__file__).parent


def unread_parameters(source: str) -> list[str]:
    """``name.param`` for each named parameter that its function's body
    never loads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        loaded = {n.id for stmt in node.body for n in ast.walk(stmt)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for param in args.posonlyargs + args.args + args.kwonlyargs:
            name = param.arg
            if name not in ("self", "cls") and not name.startswith("_") and name not in loaded:
                found.append(f"{node.name}.{name}")
    return found


def test_checker_flags_only_unread_named_parameters():
    source = (
        "def f(self, a, b, _c, *rest, d=1, **extra):\n"
        "    return a + (lambda: d)()\n"
        "def g(cls, x):\n"
        "    x = 1\n"
    )
    assert unread_parameters(source) == ["f.b", "g.x"]


def test_every_parameter_in_the_package_is_read():
    unread = [f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py"))
              for name in unread_parameters(path.read_text(encoding="utf-8"))]
    assert unread == []
