import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import thetafock as tf

MODULES = ["thetafock"] + [f"thetafock.{m.name}" for m in pkgutil.iter_modules(tf.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is gone breaks `import *`
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing


def _private_theta_reads(source: str) -> list:
    """(line, name) of each _-prefixed name of thetafock.theta that source reads."""
    tree = ast.parse(source)
    aliases, reads = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("theta", "thetafock.theta"):  # from .theta import _x
                reads += [(node.lineno, a.name) for a in node.names if a.name.startswith("_")]
            elif node.module in (None, "thetafock"):  # from . import theta as T
                aliases |= {a.asname or a.name for a in node.names if a.name == "theta"}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names if a.name == "thetafock.theta" and a.asname}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in aliases):
            reads.append((node.lineno, node.attr))
    return reads


def test_private_theta_reader_sees_each_import_form():
    source = ("from . import theta as _theta\nfrom .theta import _rows, plan\n"
              "import thetafock.theta as T\n_theta._plan(1)\nT._cells\n_theta.plan\n")
    assert sorted(_private_theta_reads(source)) == [(2, "_rows"), (4, "_plan"), (5, "_cells")]


@pytest.mark.parametrize("path", sorted(p for p in Path(tf.__file__).parent.glob("*.py")
                                         if p.name != "theta.py"), ids=lambda p: p.name)
def test_only_theta_reads_its_private_names(path):
    # every other module reaches theta through its public names, so a
    # change to the planned-sum route stays inside theta
    assert _private_theta_reads(path.read_text(encoding="utf-8")) == []
