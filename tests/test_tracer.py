"""The benchmark's tracer names only callables that exist, and puts every
one back as it found it.

perfbench/tracer.py wraps the callables it lists by name for a traced
pass (``perfbench/run.py --trace 1``), and a name that no longer resolves
makes that pass raise at install.  The tracer is read here, never changed.
"""

import importlib.util
import pathlib
import sys

import pytest

import nlfield  # noqa: F401 - loads every module the tracer patches

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bindings(tracer):
    """Every attribute the tracer may patch: ((owner, attr), value)."""
    out = {}
    for layer, path in tracer.SPANNED + tracer.COUNTED:
        mod = tracer._module(layer)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            out[(cls, attr)] = cls.__dict__[attr]
        else:
            orig = getattr(mod, path)
            for name, m in list(sys.modules.items()):
                if name == "nlfield" or name.startswith("nlfield."):
                    for key, val in vars(m).items():
                        if val is orig:
                            out[(m, key)] = val
    return out


def test_every_traced_name_resolves(tracer):
    for layer, path in tracer.SPANNED + tracer.COUNTED:
        obj = tracer._module(layer)
        if "." in path:
            cls_name, attr = path.split(".")
            assert attr in getattr(obj, cls_name).__dict__, (layer, path)
        else:
            assert callable(getattr(obj, path)), (layer, path)


def test_install_then_uninstall_restores_every_attribute(tracer):
    before = _bindings(tracer)
    t = tracer.Tracer()
    try:
        t.install()
        patched = {k for k, v in before.items() if k[0].__dict__[k[1]] is not v}
    finally:
        t.uninstall()
    assert patched == set(before)
    for (owner, attr), val in before.items():
        assert owner.__dict__[attr] is val, (owner, attr)
