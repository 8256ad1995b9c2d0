"""No module of the package reaches into another one's private names: every
name one `k3fm` module takes from another is public."""

import ast
from pathlib import Path

import k3fm

PACKAGE = Path(k3fm.__file__).parent
MODULES = {p.stem for p in PACKAGE.glob("*.py")}


def private_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    module_aliases = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            internal = node.level > 0 or (node.module or "").split(".")[0] == "k3fm"
            if not internal:
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{node.module}.{alias.name}")
                elif alias.name in MODULES:
                    module_aliases.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_aliases
            and node.attr.startswith("_")
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_imports_a_private_name_of_another():
    offenders = {
        path.name: private_imports(path)
        for path in sorted(PACKAGE.glob("*.py"))
        if private_imports(path)
    }
    assert offenders == {}


def test_the_check_sees_a_private_import(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from .fm_count import HodgeGroupSpec, _hidden\n"
        "from . import bqf\n"
        "x = bqf._helper(1)\n"
    )
    assert private_imports(bad) == ["fm_count._hidden", "bqf._helper"]
