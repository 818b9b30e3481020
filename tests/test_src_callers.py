"""Everything ``src/arbor`` defines is used by ``src/arbor``.

A function, method or class that nothing in the package refers to is
either dead or a test utility, and belongs in the tests.  The check reads
the package's source with ``ast``.  What counts as a use depends on where
the definition sits:

* a module-level definition is used through its name in its own module,
  a relative ``from .mod import name`` (a re-export from the package
  counts), or an attribute of a name bound to its module (``ad.exp``
  after ``from . import autodiff as ad``), so ``np.exp`` or a local
  variable of the same name elsewhere is not a use;
* a closure (a definition inside a function) is used through its name
  in its own file;
* a method (a definition inside a class) is used through its name as a
  name, an attribute or an import anywhere in ``src/arbor``.

A use inside the definition itself does not count.  A definition that
``perfbench/spans.py`` patches counts as used (its ``PATCHES`` table is
read from the file, as ``test_span_targets.py`` does).  Dunder methods
are called by the language, so they are exempt.
"""

import ast
from pathlib import Path

from test_span_targets import patches

SRC = Path(__file__).resolve().parents[1] / "src" / "arbor"


class _File:
    """One module's references: the ``(name, line)`` of each bare name,
    attribute and imported name, and the ``(module, name, line)`` of each
    attribute read off a module binding and of each ``from .module import
    name``."""

    def __init__(self, tree):
        bound = {}  # local name -> module of the package it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
                for alias in node.names:
                    bound[alias.asname or alias.name] = alias.name
        self.names, self.attributes, self.aliases = [], [], []
        self.module_attributes, self.imports = [], []
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                self.names.append((node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                self.attributes.append((node.attr, node.lineno))
                if isinstance(node.value, ast.Name) and node.value.id in bound:
                    self.module_attributes.append((bound[node.value.id], node.attr,
                                                   node.lineno))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    self.aliases.append((alias.name.split(".")[-1], node.lineno))
                    if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                        self.imports.append((node.module, alias.name, node.lineno))


def _definitions_and_files():
    """The ``(file, qualified name, name, kind, first line, last line)`` of
    each definition, ``kind`` one of ``module``, ``closure`` and
    ``method``, and the ``_File`` of each file."""
    definitions, files = [], {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        files[path.name] = _File(tree)

        def visit(node, prefix, kind):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    definitions.append((path.name, prefix + child.name, child.name, kind,
                                        child.lineno, child.end_lineno))
                    visit(child, prefix + child.name + ".",
                          "method" if isinstance(child, ast.ClassDef) else "closure")
                else:
                    visit(child, prefix, kind)

        visit(tree, "", "module")
    return definitions, files


def _used(definition, files) -> bool:
    file, _, name, kind, first, last = definition
    module = file[: -len(".py")]

    def outside(other, line):
        return other != file or not first <= line <= last

    if kind == "module":
        own = files[file]
        return (any(ref == name and outside(file, line) for ref, line in own.names)
                or any((mod, ref) == (module, name) and outside(other, line)
                       for other, f in files.items()
                       for mod, ref, line in f.imports + f.module_attributes))
    if kind == "closure":
        return any(ref == name and outside(file, line) for ref, line in files[file].names)
    return any(ref == name and outside(other, line)
               for other, f in files.items()
               for ref, line in f.names + f.attributes + f.aliases)


def test_every_definition_has_a_caller_in_src():
    definitions, files = _definitions_and_files()
    patched = {f"{module.split('.')[-1]}.py:{attr}" for module, attr, *_ in patches()}
    unused = []
    for definition in definitions:
        file, qualname, name = definition[:3]
        if name.startswith("__") and name.endswith("__") or f"{file}:{qualname}" in patched:
            continue
        if not _used(definition, files):
            unused.append(f"{file}:{qualname}")
    assert not unused, f"defined in src/arbor but used only outside it: {unused}"
