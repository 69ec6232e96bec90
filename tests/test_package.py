"""The package namespace: each public name is imported from its home module
on first use, and importing the package loads none of its modules."""

import importlib
import subprocess
import sys

import pytest

import spinframes


def test_every_public_name_is_its_home_modules_object():
    assert len(spinframes.__all__) == len(set(spinframes.__all__)) == 62
    listed = dir(spinframes)
    for name in spinframes.__all__:
        home = importlib.import_module(f"spinframes.{spinframes._HOME[name]}")
        value = getattr(spinframes, name)
        assert value is getattr(home, name), name
        # functions and classes were defined there, not re-bound from elsewhere
        if callable(value):
            assert value.__module__ == home.__name__, name
        assert name in listed, name
    namespace = {}
    exec("from spinframes import *", namespace)
    assert all(namespace[name] is getattr(spinframes, name) for name in spinframes.__all__)
    with pytest.raises(AttributeError, match="'spinframes' has no attribute 'no_such_name'"):
        spinframes.no_such_name  # noqa: B018


def test_import_loads_no_module_until_a_name_is_used():
    script = """
import sys
import spinframes
def loaded():
    return sorted(m.split(".")[1] for m in sys.modules if m.startswith("spinframes."))
print(*loaded(), sep=",")
spinframes.wigner_D
print(*loaded(), sep=",")
print("wigner_D" in vars(spinframes))
from spinframes import *
print(*loaded(), sep=",")
"""
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout.splitlines() == [
        "",
        "exactnum,rotations,wigner",
        "True",
        "antisym_checker,composite,exactnum,frames,rotations,states,wigner",
    ]
