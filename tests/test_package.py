import importlib
import pkgutil

import pytest

import floqnet


def test_every_export_is_defined():
    missing = [name for name in floqnet.__all__ if getattr(floqnet, name, None) is None]
    assert missing == []


@pytest.mark.parametrize(
    "module", sorted(m.name for m in pkgutil.iter_modules(floqnet.__path__))
)
def test_every_module_export_is_defined(module):
    mod = importlib.import_module(f"floqnet.{module}")
    exports = getattr(mod, "__all__", ())
    missing = [name for name in exports if getattr(mod, name, None) is None]
    assert missing == []
