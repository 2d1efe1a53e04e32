"""The benchmark tracer (perfbench/tracing.py) wraps package functions by
module and attribute name. A rename or deletion in the package would break
only the slower perfbench suite, so the names are checked here."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


def test_traced_names_resolve():
    patches = _patches()
    assert patches
    missing = [
        f"{modname}.{attr}"
        for modname, attr, *_ in patches
        if not callable(getattr(importlib.import_module(modname), attr, None))
    ]
    assert not missing, missing
