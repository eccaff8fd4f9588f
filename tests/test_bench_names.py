"""The names the benchmark's tracer wraps resolve in the package.

``bench/tracing.py`` looks layer functions up by module and attribute name,
and wraps them also in the modules it lists as importing them by name.  A
rename in the package would otherwise show only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tables():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(name):
    return importlib.import_module(f"isingccp.{name}")


_TRACING = _tables()


@pytest.mark.parametrize("name", [*_TRACING._SPANNED, *_TRACING._COUNTED])
def test_wrapped_functions_resolve_where_they_are_looked_up(name):
    mod, attr, importers = {**_TRACING._SPANNED, **_TRACING._COUNTED}[name]
    original = getattr(_module(mod), attr)
    assert callable(original)
    # the tracer wraps the name in each importer that holds it; one holding
    # another object under that name would call past the wrapper
    for site in importers:
        assert getattr(_module(site), attr, original) is original


@pytest.mark.parametrize("name", list(_TRACING._SPANNED_METHODS))
def test_wrapped_methods_resolve(name):
    mod, cls, meth = _TRACING._SPANNED_METHODS[name]
    assert callable(getattr(getattr(_module(mod), cls), meth))
