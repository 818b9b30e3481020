"""Every name the benchmark's tracer patches still exists in arbor.

``perfbench/spans.py`` replaces ``(module, attribute)`` pairs listed in its
``PATCHES`` table; a name renamed or deleted in ``src/arbor`` would make a
traced benchmark run crash at install time.  The table is read from the
file, which is imported on its own and left as it is.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def patches():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


@pytest.mark.parametrize("module_name, attribute", [(m, a) for m, a, *_ in patches()])
def test_patched_name_resolves_in_arbor(module_name, attribute):
    assert module_name == "arbor" or module_name.startswith("arbor.")
    target = importlib.import_module(module_name)
    for part in attribute.split("."):
        target = getattr(target, part)
    assert callable(target)
