"""Package hygiene: every exported name resolves and is used, and no import
goes unused."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "segreg"
MODULES = sorted(SRC.glob("*.py"))
# code whose references keep a public name alive (tests do not count)
USER_CODE = MODULES + sorted((ROOT / "perfbench").glob("*.py"))
# public names that no package or benchmark code references, with the reason
UNREFERENCED_ALLOWED = {
    "segreg.autodiff.leaky_relu":
        "used only by the composed _norm_act reference in tests/reference_ops.py",
}


def _module_name(path: Path) -> str:
    return "segreg" if path.stem == "__init__" else f"segreg.{path.stem}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_all_names_resolve(path):
    module = importlib.import_module(_module_name(path))
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ lists undefined {missing}"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:        # names re-exported through __all__
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, f"{path.name} imports unused {unused}"


def test_unused_import_scan_sees_unused_names():
    tree = ast.parse("import os\nfrom a import b, c as d\nfrom e import f\n"
                     "__all__ = ['f']\nprint(d)\n")
    assert _unused_imports(tree) == ["b (line 2)", "os (line 1)"]


def _referenced_names(paths) -> set[str]:
    names: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_is_referenced_from_package_or_benchmark_code():
    used = _referenced_names(USER_CODE)
    unreferenced = []
    for path in MODULES:
        module = importlib.import_module(_module_name(path))
        unreferenced += [f"{module.__name__}.{name}"
                         for name in getattr(module, "__all__", ()) if name not in used]
    assert sorted(unreferenced) == sorted(UNREFERENCED_ALLOWED), (
        "public names nothing in src/segreg or perfbench uses: "
        f"{sorted(set(unreferenced) - set(UNREFERENCED_ALLOWED))}; "
        f"stale allowlist entries: {sorted(set(UNREFERENCED_ALLOWED) - set(unreferenced))}")


def _add_at_calls(tree: ast.Module) -> list[int]:
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "at"
            and isinstance(node.value, ast.Attribute) and node.value.attr == "add"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_np_add_at(path):
    """``autodiff.scatter_add_rows`` is the one scatter-add."""
    lines = _add_at_calls(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name} calls np.add.at on lines {lines}"


def test_add_at_scan_sees_calls_not_prose():
    tree = ast.parse('"""np.add.at in a docstring"""\nnp.add.at(a, i, v)\n')
    assert _add_at_calls(tree) == [2]
