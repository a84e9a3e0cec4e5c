"""The package namespace: every public name, resolved on first access;
and the plain classes that replaced frozen dataclasses."""

from __future__ import annotations

import pickle
import subprocess
import sys
from copy import deepcopy

import pytest

from chromaflow import OuterCycle, PhiString, VertexJoinTree

# In a fresh interpreter, after a bare `import chromaflow`; prints "ok".
_LAZY_NAMESPACE = """
import pkgutil, sys
import chromaflow
assert [m for m in sys.modules if m.startswith("chromaflow.")] == [], sorted(sys.modules)

names = [n for n in chromaflow.__all__ if n != "__version__"]
submodules = sorted(m.name for m in pkgutil.iter_modules(chromaflow.__path__))
assert set(dir(chromaflow)) >= {*chromaflow.__all__, *submodules}
for name in names:
    value = getattr(chromaflow, name)
    assert value is getattr(sys.modules[value.__module__], name), name
for name in submodules:
    assert getattr(chromaflow, name) is sys.modules[f"chromaflow.{name}"], name
assert chromaflow.IntPoly is chromaflow.polyring.IntPoly
assert chromaflow.PhiString is chromaflow.wheels.PhiString
assert isinstance(chromaflow.__version__, str)

star = {}
exec("from chromaflow import *", star)
assert set(chromaflow.__all__) <= set(star), set(chromaflow.__all__) - set(star)

try:
    chromaflow.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("chromaflow.no_such_name resolved")
print("ok")
"""


def test_lazy_namespace_resolves_every_public_name():
    proc = subprocess.run([sys.executable, "-c", _LAZY_NAMESPACE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


@pytest.mark.parametrize("make, field", [
    (lambda: PhiString([2, 0, 1]), "values"),
    (lambda: VertexJoinTree(3, [(0, 1), (1, 2)], {2: 1, 0: 2}), "mult"),
    (lambda: OuterCycle((0, 1, 2), (), {(0, 1): 2}, ()), "parallel_count"),
])
def test_plain_classes_compare_hash_pickle_and_stay_frozen(make, field):
    value, same = make(), make()
    assert value == same and hash(value) == hash(same) and value != object()
    assert pickle.loads(pickle.dumps(value)) == deepcopy(value) == value
    name = type(value).__name__
    assert repr(value).startswith(f"{name}(") and f"{field}=" in repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = 1
