"""Everything ``src/arbor`` defines is used by ``src/arbor``.

A function, method or class that nothing in the package refers to is
either dead or a test utility, and belongs in the tests.  The check reads
the package's source with ``ast``: a definition counts as used when its
name appears as a name, an attribute or an import anywhere in
``src/arbor`` outside the definition itself, or when
``perfbench/spans.py`` patches it (its ``PATCHES`` table is read from the
file, as ``test_span_targets.py`` does).  Dunder methods are called by
the language, so they are exempt.
"""

import ast
from pathlib import Path

from test_span_targets import patches

SRC = Path(__file__).resolve().parents[1] / "src" / "arbor"


def _definitions_and_references():
    """The ``(file, qualified name, name, first line, last line)`` of each
    definition, and per file the ``(name, line)`` of each reference."""
    definitions, references = [], {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        refs = references[path.name] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, node.lineno))
            elif isinstance(node, ast.alias):  # a re-export from the package
                refs.append((node.name.split(".")[-1], node.lineno))

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    definitions.append((path.name, prefix + child.name, child.name,
                                        child.lineno, child.end_lineno))
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return definitions, references


def test_every_definition_has_a_caller_in_src():
    definitions, references = _definitions_and_references()
    patched = {f"{module.split('.')[-1]}.py:{attr}" for module, attr, *_ in patches()}
    unused = []
    for file, qualname, name, first, last in definitions:
        if name.startswith("__") and name.endswith("__") or f"{file}:{qualname}" in patched:
            continue
        if not any(ref == name and (other != file or not first <= line <= last)
                   for other, refs in references.items() for ref, line in refs):
            unused.append(f"{file}:{qualname}")
    assert not unused, f"defined in src/arbor but used only outside it: {unused}"
