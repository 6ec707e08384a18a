"""Every name the benchmark tracer wraps still exists.

`perfbench/tracer.py` binds its wrappers by name: each (module, attr) in
its SPANNED and COUNTED tables is looked up in `geomink.<module>`, and an
attr `Class.method` in the class's own namespace.  An untraced run never
installs the tracer, so a renamed or deleted name would only show as a
traced run failing.  These tests read the tables from the file, without
installing the tracer."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tables():
    spec = importlib.util.spec_from_file_location("_tracer_tables", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPANNED + tracer.COUNTED


@pytest.mark.parametrize("module, attr", _tables())
def test_tracer_binding_resolves(module, attr):
    owner = importlib.import_module(f"geomink.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attr))
