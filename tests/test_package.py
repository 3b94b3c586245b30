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


def _private_reads(source: str) -> list:
    """(line, module, name) of each _-prefixed name of a thetafock module that source reads."""
    tree = ast.parse(source)
    aliases, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if (node.level, module) in ((1, ""), (0, "thetafock")):  # from . import theta as T
                aliases.update((a.asname or a.name, a.name) for a in node.names)
            elif node.level == 1 or module.startswith("thetafock."):  # from .theta import _x
                module = module.removeprefix("thetafock.")
                reads += [(node.lineno, module, a.name) for a in node.names
                          if a.name.startswith("_") and not a.name.startswith("__")]
        elif isinstance(node, ast.Import):  # import thetafock.theta as T
            aliases.update((a.asname, a.name.removeprefix("thetafock.")) for a in node.names
                           if a.name.startswith("thetafock.") and a.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in aliases):
            reads.append((node.lineno, aliases[node.value.id], node.attr))
    return reads


def test_private_theta_reader_sees_each_import_form():
    source = ("from . import theta as _theta\nfrom .theta import _rows, plan\n"
              "import thetafock.theta as T\n_theta._plan(1)\nT._cells\n_theta.plan\n"
              "from thetafock import space\nfrom .problem import _entry\nspace._box\n"
              "from functools import _lru_cache_wrapper\n")
    assert sorted(_private_reads(source)) == [
        (2, "theta", "_rows"), (4, "theta", "_plan"), (5, "theta", "_cells"),
        (8, "problem", "_entry"), (9, "space", "_box")]


_SOURCES = sorted(p for p in Path(tf.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", [p for p in _SOURCES if p.name != "theta.py"],
                         ids=lambda p: p.name)
def test_only_theta_reads_its_private_names(path):
    # every other module reaches theta through its public names, so a
    # change to the planned-sum route stays inside theta
    reads = _private_reads(path.read_text(encoding="utf-8"))
    assert [read for read in reads if read[1] == "theta"] == []


# each read of another module's private name; a new one shows up here in review
_ALLOWED_PRIVATE_READS = {
    ("verify", "space", "_log_norms"),
    ("verify", "space", "_exp_norms"),
    ("verify", "quadrature", "_check_work"),
    ("cli", "problem", "_complex_entry"),
    ("cli", "problem", "_positive_number"),
}


def test_cross_module_private_reads_are_the_allow_list():
    reads = {(path.stem, module, name) for path in _SOURCES
             for _, module, name in _private_reads(path.read_text(encoding="utf-8"))
             if module != path.stem}
    assert reads == _ALLOWED_PRIVATE_READS
