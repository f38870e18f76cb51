import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import defbond

MODULES = ["defbond"] + [f"defbond.{info.name}" for info in pkgutil.iter_modules(defbond.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # the package's PEP 562 engine names resolve here too, importing their
    # modules on first access
    module = importlib.import_module(name)
    assert [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)] == []


def test_readme_library_example_runs(capsys):
    # the documented API cannot drift from the package
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1, f"expected one python block in README.md, found {len(blocks)}"
    exec(compile(blocks[0], str(readme), "exec"), {"__name__": "__main__"})
    assert len(capsys.readouterr().out.splitlines()) == 2
