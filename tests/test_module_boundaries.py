"""No module of the package reaches into another one's private names: every
name one `k3fm` module takes from another is public."""

import ast
import importlib
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


def cap_offenders(path: Path) -> tuple:
    """(functions with a `cap` parameter, code outside docstrings that names
    K3FM_CAP or reads the environment) of one module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    with_cap, env = [], []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if any(a.arg == "cap" for a in params):
                with_cap.append(node.name)
        elif isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            env.append(node.attr)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and "K3FM_CAP" in node.value
            and id(node) not in docstrings
        ):
            env.append("K3FM_CAP")
    return with_cap, env


def test_no_function_takes_a_cap_and_only_finite_qform_reads_it():
    with_cap = {}
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        names, env = cap_offenders(path)
        if names:
            with_cap[path.name] = names
        if env:
            readers.add(path.name)
    assert with_cap == {}
    assert readers == {"finite_qform.py"}


def test_the_check_sees_a_cap_parameter_and_an_environment_read(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        '"""Reads K3FM_CAP."""\n'
        "import os\n"
        "def f(a, cap=None):\n"
        '    return os.environ.get("K3FM_CAP")\n'
    )
    with_cap, env = cap_offenders(bad)
    assert with_cap == ["f"] and sorted(env) == ["K3FM_CAP", "environ"]


def test_one_module_defines_the_isometry_generators():
    owners = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if any(
            isinstance(node, ast.FunctionDef) and node.name == "lattice_isometry_generators"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        )
    ]
    assert owners == ["bqf.py"]


def calls_and_names(path: Path) -> tuple:
    """(names of the functions called, every name read) in one module; a call
    `m.f(...)` counts as a call of f."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    called, named = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            called.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None))
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.asname or node.name)
    return called, named


# the genus enumerators that `fm_count.genus_lattices` wraps or replaced
GENUS_ENUMERATORS = {"genus_representative_forms", "definite_genus_lattices"}


def test_one_function_lists_the_genus():
    callers = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if "genus_representative_forms" in calls_and_names(path)[0]
    )
    assert callers == ["fm_count.py"]
    _, cli_names = calls_and_names(PACKAGE / "cli.py")
    assert "signature" not in cli_names
    assert cli_names & GENUS_ENUMERATORS == set()


def test_the_check_sees_a_genus_dispatch(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from . import bqf, gluing\n"
        "from .lattice import signature\n"
        "def f(s):\n"
        "    if signature(s).as_pair() == (1, 1):\n"
        "        return bqf.genus_representative_forms(s)\n"
        "    return gluing.definite_genus_lattices(s)\n"
    )
    called, named = calls_and_names(bad)
    assert {"genus_representative_forms", "definite_genus_lattices", "signature"} <= called
    assert {"signature", "definite_genus_lattices"} <= named


TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_names(path: Path) -> dict:
    """The SPANNED and COUNTED tables of (layer, function) pairs in a tracer
    source, read without importing it."""
    tables = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in ("SPANNED", "COUNTED"):
                    tables[target.id] = ast.literal_eval(node.value)
    return tables


def unresolved(pairs) -> list:
    """The pairs that do not name a function on `k3fm.<layer>`; a
    `Class.method` must be defined on the class itself, as the tracer
    replaces it in the class dict."""
    out = []
    for layer, func in pairs:
        owner = importlib.import_module(f"k3fm.{layer}")
        if "." in func:
            cls_name, attr = func.split(".")
            found = vars(getattr(owner, cls_name, object)).get(attr)
        else:
            found = getattr(owner, func, None)
        if not callable(found):
            out.append(f"{layer}.{func}")
    return out


def test_every_name_the_benchmark_tracer_binds_resolves():
    tables = traced_names(TRACER)
    assert sorted(tables) == ["COUNTED", "SPANNED"]
    assert all(tables.values())
    assert unresolved(tables["SPANNED"] + tables["COUNTED"]) == []


def test_the_check_sees_an_unbound_name():
    pairs = [
        ("intmat", "det"),
        ("lattice", "DiscriminantData.classify"),
        ("bqf", "no_such_function"),
        ("lattice", "DiscriminantData.no_such_method"),
        ("lattice", "NoSuchClass.classify"),
    ]
    assert unresolved(pairs) == [
        "bqf.no_such_function",
        "lattice.DiscriminantData.no_such_method",
        "lattice.NoSuchClass.classify",
    ]
