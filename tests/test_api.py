"""The public surface: every option of an exported function has a caller."""

import ast
import inspect
from pathlib import Path

import tsystems as ts


ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "perfbench", "tools")


def _exported_functions():
    return {name: getattr(ts, name) for name in ts.__all__ if inspect.isfunction(getattr(ts, name))}


def _options(fn):
    """Names and positions of the parameters that have a default."""
    params = list(inspect.signature(fn).parameters.values())
    return [(i, p.name) for i, p in enumerate(params) if p.default is not inspect.Parameter.empty]


def _calls_by_name():
    """Every call in the scanned trees, keyed by the called name (plain or attribute)."""
    calls = {}
    for path in sorted(p for d in SCANNED for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
                if name is not None:
                    calls.setdefault(name, []).append(node)
    return calls


def _sets(call, pos, name) -> bool:
    """Whether a call passes the parameter, by keyword or by position."""
    if any(k.arg == name for k in call.keywords):
        return True
    plain = [a for a in call.args if not isinstance(a, ast.Starred)]
    return len(plain) == len(call.args) and len(plain) > pos


def test_every_exported_option_is_set_by_some_call():
    calls = _calls_by_name()
    unset = [
        (fname, pname)
        for fname, fn in sorted(_exported_functions().items())
        for pos, pname in _options(fn)
        if not any(_sets(c, pos, pname) for c in calls.get(fname, ()))
    ]
    assert unset == []
