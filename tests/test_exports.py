import importlib
import pkgutil

import pytest

import defbond

MODULES = ["defbond"] + [f"defbond.{info.name}" for info in pkgutil.iter_modules(defbond.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # the package's PEP 562 engine names resolve here too, importing their
    # modules on first access
    module = importlib.import_module(name)
    assert [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)] == []
