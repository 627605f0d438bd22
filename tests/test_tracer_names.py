"""Every function perfbench's tracer wraps still exists in the package.

``perfbench/tracer.py`` names what it traces as (layer, module, attribute
path) in ``TRACED``. A name that no longer resolves would only fail in the
benchmark run, so this reads the tuple with ``ast`` (without importing
perfbench) and resolves each entry here.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced() -> tuple[tuple[str, str, str], ...]:
    for node in ast.parse(TRACER.read_text()).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {TRACER}")


def test_every_traced_name_resolves():
    traced = _traced()
    assert len(traced) > 20
    missing = []
    for _layer, module, path in traced:
        obj = importlib.import_module(module)
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(f"{module}.{path}")
    assert missing == []
