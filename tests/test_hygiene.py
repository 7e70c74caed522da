"""Package hygiene: every exported name and every public member of an
exported class resolves and is used, and no import goes unused."""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "segreg"
MODULES = sorted(SRC.glob("*.py"))
# code whose references keep a public name alive (tests do not count)
USER_CODE = MODULES + sorted((ROOT / "perfbench").glob("*.py"))
# public names that no other package module and no benchmark code takes from
# their module, with the reason: a type that a public function returns, or a
# function or constant that the tests check directly (ROADMAP aim 3)
UNREFERENCED_ALLOWED = {
    "segreg.baselines.ICPReport": "returned by icp and ransac_icp",
    "segreg.evaluation.EvalRecord": "returned by evaluate_pose",
    "segreg.gradcheck.CheckResult": "returned by run_checks",
    "segreg.pipeline.RegistrationResult": "returned by register_pair",
    "segreg.training.TrainResult": "returned by train",
    "segreg.evaluation.rmse": "the RMSE that evaluate_pose reports, tested directly",
    "segreg.evaluation.pose_errors": "the pose errors of evaluate_pose, tested directly",
    "segreg.training.lr_at": "the learning-rate schedule train follows, tested directly",
    "segreg.training.tau_at": "the temperature schedule train follows, tested directly",
    "segreg.fileio.CHECKPOINT_VERSION":
        "the version a checkpoint header must carry; tests write other versions from it",
}
# public members of exported classes that nothing reads, with the reason
UNREFERENCED_MEMBERS_ALLOWED = {
    "segreg.phantom.RegistrationSample.config":
        "passed by keyword (perfbench, the CLI, load_sample); nothing reads it",
}


def _module_name(path: Path) -> str:
    return "segreg" if path.stem == "__init__" else f"segreg.{path.stem}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_all_names_resolve(path):
    module = importlib.import_module(_module_name(path))
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ lists undefined {missing}"


def test_every_traced_layer_resolves():
    """The benchmark tracer wraps each ``LAYERS`` entry at its module and
    attribute, so a rename in the package fails here, and not first in a
    traced benchmark run.  The tracer is read, not imported."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    layers, = [ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign)
               and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"]]
    assert layers
    unresolved = [f"{name}: {module}.{attr}" for name, (module, attr) in layers.items()
                  if module.split(".")[0] != "segreg"
                  or not callable(vars(importlib.import_module(module)).get(attr))]
    assert not unresolved, f"perfbench/tracer.py LAYERS names missing functions {unresolved}"


def _package_calls(tree: ast.Module) -> list[tuple]:
    """``(line, module, name, attr, positional count, keywords)`` for each
    call to a name the file imports from ``segreg`` (``attr`` None) or to an
    attribute of one; a call with ``*`` or ``**`` arguments is skipped."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "segreg":
            for alias in node.names:
                imported[alias.asname or alias.name] = (node.module, alias.name)
    calls = []
    for node in ast.walk(tree):
        if (not isinstance(node, ast.Call) or any(k.arg is None for k in node.keywords)
                or any(isinstance(a, ast.Starred) for a in node.args)):
            continue
        func, attr = node.func, None
        if isinstance(func, ast.Attribute):
            func, attr = func.value, func.attr
        if isinstance(func, ast.Name) and func.id in imported:
            calls.append((node.lineno, *imported[func.id], attr, len(node.args),
                          tuple(k.arg for k in node.keywords)))
    return calls


def _resolve(module: str, name: str, attr: str | None):
    try:
        obj = importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        obj = getattr(importlib.import_module(module), name)
    return obj if attr is None else getattr(obj, attr)


def test_benchmark_workload_calls_bind_to_package_signatures():
    """Each call ``perfbench/workloads.py`` makes into the package binds to
    the callee's signature with its positional count and keywords, so a
    dropped or renamed parameter fails here, and not first in a benchmark
    run.  The workloads are read, not imported."""
    calls = _package_calls(ast.parse((ROOT / "perfbench" / "workloads.py").read_text()))
    assert calls
    unbound = []
    for line, module, name, attr, n_args, keywords in calls:
        try:
            inspect.signature(_resolve(module, name, attr)).bind(*[None] * n_args,
                                                                 **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"line {line}: {'.'.join(filter(None, (name, attr)))}: {exc}")
    assert not unbound, f"perfbench/workloads.py calls that no longer bind: {unbound}"


def test_package_call_scan_sees_imported_names_and_their_attributes():
    tree = ast.parse("from segreg import pipeline\nfrom segreg.geometry import RigidTransform as RT\n"
                     "import numpy as np\npipeline.register_pair(a, b, c=1)\nRT(r, t)\n"
                     "np.zeros(3)\npipeline.f(*a)\nRT(**k)\nx.pipeline.y()\n")
    assert _package_calls(tree) == [(4, "segreg", "pipeline", "register_pair", 2, ("c",)),
                                    (5, "segreg.geometry", "RigidTransform", None, 2, ())]


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


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` of a chain of attributes on a name, None for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _module_references(tree: ast.Module) -> set[tuple[str, str]]:
    """``(module, name)`` for every name a file takes from a ``segreg``
    module: ``from segreg.m import name``, ``alias.name`` where an import
    binds ``alias`` to ``segreg.m``, and a ``("segreg.m", "name")`` pair of
    string constants (how the benchmark's tracer names what it wraps)."""
    refs: set[tuple[str, str]] = set()
    bound: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "segreg":
            for alias in node.names:
                refs.add((node.module, alias.name))
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "segreg":   # ``import segreg.m`` binds segreg
                    bound[alias.asname or "segreg"] = alias.name if alias.asname else "segreg"
        elif (isinstance(node, ast.Tuple) and len(node.elts) == 2
              and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                      for e in node.elts)
              and node.elts[0].value.split(".")[0] == "segreg"):
            refs.add((node.elts[0].value, node.elts[1].value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = _dotted(node.value)
            head, _, rest = (base or "").partition(".")
            if head in bound:
                refs.add((".".join(filter(None, (bound[head], rest))), node.attr))
    return refs


def test_every_public_name_is_referenced_from_package_or_benchmark_code():
    """A name in ``__all__`` is used when another ``segreg`` module or the
    benchmark takes it from the module that exports it; the exporting
    module's own references and the tests' do not count."""
    refs = {path: _module_references(ast.parse(path.read_text(), filename=str(path)))
            for path in USER_CODE}
    unreferenced = []
    for path in MODULES:
        module = _module_name(path)
        exported = getattr(importlib.import_module(module), "__all__", ())
        used = {name for user, pairs in refs.items() if user != path
                for ref_module, name in pairs if ref_module == module}
        unreferenced += [f"{module}.{name}" for name in exported if name not in used]
    assert sorted(unreferenced) == sorted(UNREFERENCED_ALLOWED), (
        "public names no other module in src/segreg or perfbench uses: "
        f"{sorted(set(unreferenced) - set(UNREFERENCED_ALLOWED))}; "
        f"stale allowlist entries: {sorted(set(UNREFERENCED_ALLOWED) - set(unreferenced))}")


def test_module_reference_scan_resolves_imports_and_aliases():
    tree = ast.parse("import segreg.cli\nimport numpy as np\n"
                     "from segreg import fileio, matching as m\n"
                     "from segreg.geometry import PointCloud as PC, knn\n"
                     "fileio.save_ply(x)\nm.K_CORR\nsegreg.cli.main()\nPC.apply\n"
                     "np.zeros\nsave_ply\nLAYERS = {'a': ('segreg.kpconv', 'build_pyramid')}\n"
                     "('numpy', 'zeros')\n")
    assert _module_references(tree) == {
        ("segreg", "fileio"), ("segreg", "matching"), ("segreg.geometry", "PointCloud"),
        ("segreg.geometry", "knn"), ("segreg.fileio", "save_ply"),
        ("segreg.matching", "K_CORR"), ("segreg", "cli"), ("segreg.cli", "main"),
        ("segreg.geometry.PointCloud", "apply"), ("segreg.kpconv", "build_pyramid")}


def _member_references(tree: ast.Module) -> set[str]:
    """Names read as ``x.name`` or as ``getattr(x, "name", ...)``."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str)):
            names.add(node.args[1].value)
    return names


def _public_members(cls) -> set[str]:
    """Public methods, properties and dataclass fields defined by ``cls``."""
    members = {name for name, value in vars(cls).items()
               if not name.startswith("_")
               and (inspect.isfunction(value)
                    or isinstance(value, (staticmethod, classmethod, property)))}
    if dataclasses.is_dataclass(cls):
        members |= {f.name for f in dataclasses.fields(cls) if not f.name.startswith("_")}
    return members


def test_every_public_member_of_an_exported_class_is_referenced():
    used = set().union(*(_member_references(ast.parse(path.read_text(), filename=str(path)))
                         for path in USER_CODE))
    unreferenced = []
    for path in MODULES:
        module = importlib.import_module(_module_name(path))
        for name in getattr(module, "__all__", ()):
            cls = getattr(module, name)
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                unreferenced += [f"{module.__name__}.{name}.{member}"
                                 for member in _public_members(cls) if member not in used]
    assert sorted(unreferenced) == sorted(UNREFERENCED_MEMBERS_ALLOWED), (
        "class members nothing in src/segreg or perfbench reads: "
        f"{sorted(set(unreferenced) - set(UNREFERENCED_MEMBERS_ALLOWED))}; "
        "stale allowlist entries: "
        f"{sorted(set(UNREFERENCED_MEMBERS_ALLOWED) - set(unreferenced))}")


def test_member_scan_sees_attributes_and_getattr_strings():
    tree = ast.parse('x.a\ngetattr(y, "b", None)\ngetattr(y, c)\nd\n"e"\nf(y, "g")\n')
    assert _member_references(tree) == {"a", "b"}


def test_public_members_are_methods_properties_and_fields():
    @dataclasses.dataclass
    class Record:
        kept: int
        _hidden: int = 0
        LIMIT = 3

        @property
        def size(self):
            return self.kept

        def grow(self):
            self.kept += 1

    assert _public_members(Record) == {"kept", "size", "grow"}


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


def _id_calls(tree: ast.Module) -> list[int]:
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "id"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_id_calls(path):
    """No ``id()``: a table keyed by it hands out a stale entry once its key
    object is freed and a new object reuses the id.  What a step derives
    from a sample alone lives on the sample's own objects."""
    lines = _id_calls(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name} calls id() on lines {lines}"


def test_id_scan_sees_calls_not_prose_or_attributes():
    tree = ast.parse('"""id(x) in a docstring"""\nkey = id(x)\nrow.id(x)\nsample_id(x)\n'
                     "{id(p): p for p in ps}\n")
    assert _id_calls(tree) == [2, 5]


def _finite_difference_calls(tree: ast.Module) -> list[int]:
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (node.func.id if isinstance(node.func, ast.Name)
                 else node.func.attr if isinstance(node.func, ast.Attribute)
                 else None) == "finite_difference_gradient"]


def test_finite_differences_run_only_in_the_gradcheck_suite():
    """``segreg.gradcheck`` holds the one copy of every finite-difference
    check; tests run it through ``run_checks``.  The training-loss check in
    ``test_training.py`` samples entries of full-size parameters instead, as
    full finite differences of the dual loss cost too much."""
    paths = MODULES + sorted((ROOT / "tests").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py"))
    calls = {path: _finite_difference_calls(ast.parse(path.read_text(), filename=str(path)))
             for path in paths}
    assert calls.pop(SRC / "gradcheck.py")
    elsewhere = [f"{path.relative_to(ROOT)}:{line}" for path, lines in calls.items()
                 for line in lines]
    assert not elsewhere, f"finite differences outside segreg.gradcheck: {elsewhere}"


def test_finite_difference_scan_sees_calls_not_prose_or_references():
    tree = ast.parse('"""finite_difference_gradient(f, x)"""\n'
                     "finite_difference_gradient(f, x)\nad.finite_difference_gradient(f, x)\n"
                     "g = finite_difference_gradient\nrows[0](x)\n")
    assert _finite_difference_calls(tree) == [2, 3]


_ARITHMETIC_DUNDERS = {f"__{p}{op}__" for p in ("", "r", "i")
                       for op in ("add", "sub", "mul", "matmul", "truediv", "floordiv",
                                  "mod", "divmod", "pow", "lshift", "rshift", "and", "xor",
                                  "or")} | {"__neg__", "__pos__", "__abs__", "__invert__"}
# the functions that may store requires_grad; only record_custom touches a tape
_REQUIRES_GRAD_SETTERS = {"Tensor.__init__", "record_custom"}


def _tape_bypasses(tree: ast.Module) -> list[str]:
    """Ways onto the tape other than ``record_custom``: an arithmetic dunder
    on ``Tensor``, a call that grows a ``nodes`` list outside
    ``record_custom``, and a ``requires_grad`` store outside
    ``_REQUIRES_GRAD_SETTERS``.  Each is ``"scope: what (line n)"``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{scope}.{child.name}" if scope else child.name
                if scope == "Tensor" and child.name in _ARITHMETIC_DUNDERS:
                    found.append(f"{name}: arithmetic operator (line {child.lineno})")
                visit(child, name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr in ("append", "extend", "insert")
                    and isinstance(child.func.value, ast.Attribute)
                    and child.func.value.attr == "nodes" and scope != "record_custom"):
                found.append(f"{scope}: tape append (line {child.lineno})")
            elif (isinstance(child, ast.Attribute) and child.attr == "requires_grad"
                  and isinstance(child.ctx, ast.Store)
                  and scope not in _REQUIRES_GRAD_SETTERS):
                found.append(f"{scope}: requires_grad store (line {child.lineno})")
            visit(child, scope)

    visit(tree, "")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_record_custom_is_the_only_way_onto_the_tape(path):
    """Every differentiable op returns ``record_custom(value, requires_grad,
    backward_fn)``; ``Tensor`` has no operators that build nodes."""
    found = _tape_bypasses(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"{path.name} reaches the tape around record_custom: {found}"


def test_autodiff_keeps_no_second_recording_path():
    from segreg import autodiff

    assert not hasattr(autodiff, "_record") and not hasattr(autodiff, "as_tensor")
    assert not _ARITHMETIC_DUNDERS & set(vars(autodiff.Tensor))


def test_tape_bypass_scan_sees_dunders_appends_and_stores():
    tree = ast.parse(
        "class Tensor:\n"
        "    def __init__(self):\n        self.requires_grad = False\n"
        "    def __rmul__(self, o):\n        return o\n"
        "    def shape(self):\n        return 0\n"
        "class Other:\n    def __add__(self, o):\n        return o\n"
        "def record_custom(out):\n    _TAPE.nodes.append(out)\n    out.requires_grad = 1\n"
        "def add(a):\n    def bwd(g):\n        tape.nodes.append(g)\n"
        "    out.requires_grad = True\n    nodes.append(a)\n    tape.nodes.clear()\n")
    assert _tape_bypasses(tree) == ["Tensor.__rmul__: arithmetic operator (line 4)",
                                    "add.bwd: tape append (line 16)",
                                    "add: requires_grad store (line 17)"]


def _getattr_defaults(tree: ast.Module) -> list[int]:
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "getattr" and len(node.args) == 3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_getattr_with_default(path):
    """A member is read by name, or the type is checked with ``isinstance``:
    ``getattr(x, "name", default)`` hides a field some callers lack."""
    lines = _getattr_defaults(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name} calls getattr with a default on lines {lines}"


def test_getattr_scan_sees_three_argument_calls_only():
    tree = ast.parse('getattr(x, "a")\ngetattr(x, "b", None)\nx.getattr(y, "c", 1)\n')
    assert _getattr_defaults(tree) == [2]


# np.errstate calls that keep a float-error policy of their own, with the
# reason; every other one is autodiff.quiet's
ERRSTATE_ALLOWED = {
    "fileio.load_ply": "over='raise': an ascii float past its type's range is a "
                       "data error, not an infinity",
    "geometry.rotation_defects": "invalid only: a NaN matrix's determinant is NaN "
                                 "and fails the check",
}


def _errstate_calls(tree: ast.Module, prefix: str) -> list[str]:
    """``prefix.[Class.]function`` of each ``np.errstate`` or bare
    ``errstate`` call, decorators counting in the function they wrap."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call) and (
                    child.func.attr if isinstance(child.func, ast.Attribute)
                    else child.func.id if isinstance(child.func, ast.Name)
                    else None) == "errstate":
                found.append(scope)
            visit(child, scope)

    visit(tree, prefix)
    return found


def test_one_float_error_policy():
    """Every forward that can leave the float range runs under
    ``autodiff.quiet``, so an overflow raises ``NonFiniteError`` and never
    a ``RuntimeWarning``; only ``ERRSTATE_ALLOWED`` keeps a policy of its own."""
    found = sorted(scope for path in MODULES
                   for scope in _errstate_calls(ast.parse(path.read_text()), path.stem))
    assert found == sorted(["autodiff.quiet", *ERRSTATE_ALLOWED]), (
        f"np.errstate outside autodiff.quiet: "
        f"{sorted(set(found) - {'autodiff.quiet', *ERRSTATE_ALLOWED})}; every call: {found}")


def test_errstate_scan_sees_calls_decorators_and_nested_scopes():
    tree = ast.parse('"""np.errstate(over="ignore") in a docstring"""\n'
                     "@np.errstate(over='ignore')\ndef f():\n    return np.errstate\n"
                     "class C:\n    def m(self):\n"
                     "        with numpy.errstate(invalid='ignore'):\n            pass\n"
                     "def g():\n    def h():\n        return errstate()\n"
                     "    return state(errstate=1)\n")
    assert _errstate_calls(tree, "mod") == ["mod.f", "mod.C.m", "mod.g.h"]


# parameters that a function keeps without reading them, with the reason
UNREAD_PARAMETERS_ALLOWED = {
    "autodiff.Tape.__exit__.exc_type": "context-manager protocol argument",
    "autodiff.Tape.__exit__.exc": "context-manager protocol argument",
    "autodiff.Tape.__exit__.tb": "context-manager protocol argument",
    "pipeline.register_pair.seg_cfg": "perfbench calls register_pair with five arguments",
    "pipeline.register_pair.match_cfg": "perfbench calls register_pair with five arguments",
}


def _unread_parameters(tree: ast.Module, prefix: str) -> dict[str, int]:
    """``prefix.[Class.]function.parameter`` -> the function's line, for every
    parameter that its body (nested functions included) never loads."""
    found: dict[str, int] = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{scope}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [
                    p for p in (a.vararg, a.kwarg) if p is not None]
                loaded = {n.id for stmt in child.body for n in ast.walk(stmt)
                          if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                for p in params:
                    if p.arg not in loaded and p.arg not in ("self", "cls"):
                        found[f"{prefix}.{scope}{child.name}.{p.arg}"] = child.lineno
                visit(child, f"{scope}{child.name}.")

    visit(tree, "")
    return found


def test_every_function_parameter_is_read():
    unread = {}
    for path in MODULES:
        unread.update(_unread_parameters(ast.parse(path.read_text(), filename=str(path)),
                                         path.stem))
    new = [f"{name} ({name.split('.')[0]}.py:{line})" for name, line in sorted(unread.items())
           if name not in UNREAD_PARAMETERS_ALLOWED]
    stale = sorted(set(UNREAD_PARAMETERS_ALLOWED) - set(unread))
    assert not new and not stale, (
        f"parameters no function body reads: {new}; stale allowlist entries: {stale}")


def test_unread_parameter_scan_sees_nested_reads_and_methods():
    tree = ast.parse("def f(a, b, *c, d=1, **e):\n    def g():\n        return a\n"
                     "    b = 2\n    return g\n"
                     "class K:\n    def m(self, x):\n        return self\n")
    assert _unread_parameters(tree, "mod") == {"mod.f.b": 1, "mod.f.c": 1, "mod.f.d": 1,
                                               "mod.f.e": 1, "mod.K.m.x": 7}


# defaulted parameters that no package or benchmark call passes, with the reason
UNPASSED_DEFAULTS_ALLOWED: dict[str, str] = {}


def _defaulted_parameters(tree: ast.Module, prefix: str) -> dict[tuple[str, str], int | None]:
    """(function, parameter) -> positional index (None for keyword-only) of
    every defaulted parameter of a public module-level function, and of
    every defaulted field of a public ``*Config`` dataclass."""
    found: dict[tuple[str, str], int | None] = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            node = _config_fields_as_function(node)
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            a = node.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            for i, p in enumerate(positional[first:], first):
                found[(f"{prefix}.{node.name}", p.arg)] = i
            found.update({(f"{prefix}.{node.name}", p.arg): None
                          for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None})
    return found


def _passed_arguments(tree: ast.Module) -> set[tuple[str, object]]:
    """(called name, keyword or positional index) of every call; ``f(*x)``
    from index i passes every index from i on (``("*", i)``) and ``f(**x)``
    every keyword (``"**"``).  Calls are matched by the called name only."""
    passed: set[tuple[str, object]] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name is None:
            continue
        passed.update((name, kw.arg or "**") for kw in node.keywords)
        for i, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                passed.add((name, ("*", i)))
                break
            passed.add((name, i))
    return passed


def _unpassed_defaults(defaulted: dict, passed: set) -> list[str]:
    starred = {}
    for name, key in passed:
        if isinstance(key, tuple):
            starred[name] = min(starred.get(name, key[1]), key[1])
    unpassed = []
    for (qualified, param), index in defaulted.items():
        name = qualified.split(".")[-1]
        if ((name, param) in passed or (name, "**") in passed
                or index is not None and ((name, index) in passed
                                          or index >= starred.get(name, index + 1))):
            continue
        unpassed.append(f"{qualified}.{param}")
    return sorted(unpassed)


def test_every_defaulted_parameter_is_passed_somewhere():
    """A default that no package or benchmark call overrides is a knob only
    tests turn: make it a module constant instead."""
    passed = set().union(*(_passed_arguments(ast.parse(p.read_text(), filename=str(p)))
                           for p in USER_CODE))
    defaulted = {}
    for path in MODULES:
        defaulted.update(_defaulted_parameters(ast.parse(path.read_text(), filename=str(path)),
                                               path.stem))
    unpassed = _unpassed_defaults(defaulted, passed)
    assert unpassed == sorted(UNPASSED_DEFAULTS_ALLOWED), (
        "defaulted parameters no call in src/segreg or perfbench passes: "
        f"{sorted(set(unpassed) - set(UNPASSED_DEFAULTS_ALLOWED))}; "
        f"stale allowlist entries: {sorted(set(UNPASSED_DEFAULTS_ALLOWED) - set(unpassed))}")


def test_unpassed_default_scan_sees_keywords_positions_and_stars():
    defs = ast.parse("def f(a, b=1, c=2, *, d=3):\n    pass\n"
                     "def g(x, y=1):\n    pass\n"
                     "def h(x=1):\n    pass\n"
                     "def k(x=1, y=2):\n    pass\n"
                     "def _private(x=1):\n    pass\n"
                     "class C:\n    def m(self, x=1):\n        pass\n"
                     "@dataclass(frozen=True)\nclass NetConfig:\n    scale: float = 0.5\n"
                     "    seed: int = 0\n    size: ClassVar[int] = 3\n")
    calls = ast.parse("f(0, 1)\nm.g(0, y=2)\nh(*args)\nk(**opts)\nNetConfig(seed=2)\n")
    defaulted = _defaulted_parameters(defs, "mod")
    assert defaulted == {("mod.f", "b"): 1, ("mod.f", "c"): 2, ("mod.f", "d"): None,
                         ("mod.g", "y"): 1, ("mod.h", "x"): 0, ("mod.k", "x"): 0,
                         ("mod.k", "y"): 1, ("mod.NetConfig", "scale"): 0,
                         ("mod.NetConfig", "seed"): 1}
    assert _unpassed_defaults(defaulted, _passed_arguments(calls)) == [
        "mod.NetConfig.scale", "mod.f.c", "mod.f.d"]


# imports inside function bodies under src/segreg, with the reason
LOCAL_IMPORTS_ALLOWED = {
    "evaluation.wilcoxon_signed_rank: scipy.stats":
        "import cost: at module level scipy.stats slows every CLI start; "
        "test_cli_import_leaves_scipy_stats_unloaded guards it",
}


def _local_imports(tree: ast.Module, prefix: str) -> dict[str, int]:
    """``prefix.[Class.]function: module`` -> line, for every import statement
    inside a function body (nested functions and methods included)."""
    found: dict[str, int] = {}

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}{child.name}.",
                      in_function or not isinstance(child, ast.ClassDef))
            elif isinstance(child, (ast.Import, ast.ImportFrom)) and in_function:
                modules = ([alias.name for alias in child.names]
                           if isinstance(child, ast.Import) else [child.module])
                for module in modules:
                    found[f"{prefix}.{scope[:-1]}: {module}"] = child.lineno
            else:
                visit(child, scope, in_function)

    visit(tree, "", False)
    return found


def test_no_imports_inside_functions():
    """Imports sit at module level, where the dependencies of a module show."""
    local = {}
    for path in MODULES:
        local.update(_local_imports(ast.parse(path.read_text(), filename=str(path)),
                                    path.stem))
    new = [f"{name} ({name.split('.')[0]}.py:{line})" for name, line in sorted(local.items())
           if name not in LOCAL_IMPORTS_ALLOWED]
    stale = sorted(set(LOCAL_IMPORTS_ALLOWED) - set(local))
    assert not new and not stale, (
        f"imports inside functions: {new}; stale allowlist entries: {stale}")


def test_local_import_scan_sees_nested_functions_and_methods():
    tree = ast.parse("import os\n"
                     "def f():\n    import csv\n    def g():\n        from a.b import c\n"
                     "class K:\n    from x import y\n    def m(self):\n"
                     "        if self:\n            import json, re\n")
    assert _local_imports(tree, "mod") == {"mod.f: csv": 3, "mod.f.g: a.b": 5,
                                           "mod.K.m: json": 10, "mod.K.m: re": 10}


# the except clauses of cli.py, one per function named here, with the reason
CLI_EXCEPT_ALLOWED = {
    "_exits": "the one rule table: turns the first matching exception into an _Exit",
    "main": "prints a failed command's message and returns its exit code",
    "cmd_ablate": "the Wilcoxon report: an undefined test is written to the report, "
                  "then the command exits with a data error",
}


def _except_scopes(tree: ast.Module) -> list[tuple[str, int]]:
    """(enclosing ``[Class.]function``, line) of every except clause;
    ``<module>`` outside any function or class."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.ExceptHandler):
                found.append((scope or "<module>", child.lineno))
            visit(child, scope)

    visit(tree, "")
    return found


def test_cli_catches_exceptions_only_in_exits_main_and_the_wilcoxon_report():
    """Commands raise; the rules of ``_exits`` pick every other exit code."""
    path = SRC / "cli.py"
    found = _except_scopes(ast.parse(path.read_text(), filename=str(path)))
    assert sorted(scope for scope, _ in found) == sorted(CLI_EXCEPT_ALLOWED), (
        f"except clauses in cli.py: {found}; allowed once each: {sorted(CLI_EXCEPT_ALLOWED)}")


def test_except_scan_sees_handlers_by_enclosing_function():
    tree = ast.parse("try:\n    a\nexcept E:\n    b\n"
                     "def f():\n    try:\n        a\n    except (E, F):\n"
                     "        def g():\n            try:\n                b\n"
                     "            except Exception:\n                c\n"
                     "class K:\n    def m(self):\n        try:\n            a\n"
                     "        except:\n            b\n"
                     "'''except in a docstring'''\n")
    assert _except_scopes(tree) == [("<module>", 3), ("f", 8), ("f.g", 12), ("K.m", 18)]


# parameters that every package and benchmark call passes one constant, with the reason;
# fields of a *Config dataclass count as parameters (the network configs are not
# listed: load_checkpoint builds them from a header with ``**``, a value the scan
# cannot see)
ONE_CONSTANT_PARAMETERS_ALLOWED = {
    "geometry.random_rigid.max_translation": "geometry must not import phantom's pose bounds",
    "geometry.random_rigid.max_rotation_deg": "geometry must not import phantom's pose bounds",
    "phantom.mm_to_units.mm": "a unit conversion of the caller's data",
}

_CONSTANT_NAME = re.compile(r"[A-Z][A-Z0-9_]+")


def _constant_key(node: ast.expr):
    """``("name", id)`` for an UPPER_CASE name of 2 or more characters,
    ``("literal", repr)`` for a literal, None for anything else."""
    if isinstance(node, ast.Name):
        return ("name", node.id) if _CONSTANT_NAME.fullmatch(node.id) else None
    try:
        return ("literal", repr(ast.literal_eval(node)))
    except (ValueError, TypeError, SyntaxError):
        return None


def _argument_keys(fn: ast.FunctionDef, call: ast.Call) -> dict[str, object]:
    """Parameter -> ``_constant_key`` of what ``call`` passes it, or of its
    default where the call passes nothing; None where a ``*`` or ``**``
    argument hides what it gets."""
    a = fn.args
    positional = a.posonlyargs + a.args
    defaults = {p.arg: d for p, d in zip(positional[len(positional) - len(a.defaults):],
                                         a.defaults)}
    defaults.update((p.arg, d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
    explicit = {}
    for p, arg in zip(positional, call.args):
        if isinstance(arg, ast.Starred):
            break
        explicit[p.arg] = arg
    explicit.update((kw.arg, kw.value) for kw in call.keywords if kw.arg is not None)
    hidden = (any(isinstance(arg, ast.Starred) for arg in call.args)
              or any(kw.arg is None for kw in call.keywords))
    keys = {}
    for p in positional + a.kwonlyargs:
        node = explicit.get(p.arg, None if hidden else defaults.get(p.arg))
        keys[p.arg] = None if node is None else _constant_key(node)
    return keys


def _config_fields_as_function(cls: ast.ClassDef) -> ast.FunctionDef | None:
    """A public ``*Config`` dataclass as a function whose parameters are its
    fields, with their defaults (``ClassVar`` constants are not fields);
    None for any other class."""
    if (cls.name.startswith("_") or not cls.name.endswith("Config")
            or not any(ast.unparse(d).startswith("dataclass") for d in cls.decorator_list)):
        return None
    fields = [node for node in cls.body if isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)
              and not ast.unparse(node.annotation).startswith("ClassVar")]
    args = ast.arguments(posonlyargs=[], args=[ast.arg(arg=f.target.id) for f in fields],
                         vararg=None, kwonlyargs=[], kw_defaults=[], kwarg=None,
                         defaults=[f.value for f in fields if f.value is not None])
    return ast.FunctionDef(name=cls.name, args=args, body=[], decorator_list=[])


def _one_constant_parameters(defs: dict[str, ast.Module], calls: list[ast.Module]
                             ) -> list[str]:
    """``module.function.parameter`` of every public module-level function in
    ``defs`` (module prefix -> tree), and ``module.Class.field`` of every
    public ``*Config`` dataclass, that every call in ``calls`` passes the
    same constant.  Calls are matched by the called name only."""
    by_name: dict[str, list] = {}
    for prefix, tree in defs.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                node = _config_fields_as_function(node)
            if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")):
                by_name.setdefault(node.name, []).append((f"{prefix}.{node.name}", node))
    keys: dict[str, set] = {}
    for tree in calls:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            for qualified, fn in by_name.get(name, ()):
                for param, key in _argument_keys(fn, call).items():
                    keys.setdefault(f"{qualified}.{param}", set()).add(key)
    return sorted(name for name, seen in keys.items() if len(seen) == 1 and None not in seen)


def test_no_parameter_always_takes_one_constant():
    """A parameter that every package and benchmark call sets to the same
    literal or module constant is that constant: the function reads it."""
    defs = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    calls = [ast.parse(path.read_text(), filename=str(path)) for path in USER_CODE]
    found = _one_constant_parameters(defs, calls)
    assert found == sorted(ONE_CONSTANT_PARAMETERS_ALLOWED), (
        "parameters every call in src/segreg or perfbench passes one constant: "
        f"{sorted(set(found) - set(ONE_CONSTANT_PARAMETERS_ALLOWED))}; stale allowlist "
        f"entries: {sorted(set(ONE_CONSTANT_PARAMETERS_ALLOWED) - set(found))}")


def test_one_constant_scan_sees_literals_constant_names_and_defaults():
    defs = {"mod": ast.parse("def f(a, b=2, *, c=3):\n    pass\n"
                             "def g(x, y):\n    pass\n"
                             "def k(v):\n    pass\n"
                             "def _h(x):\n    pass\n")}
    calls = [ast.parse("f(1, c=C_MAX)\nm.f(a=1, b=2, c=C_MAX)\n"
                       "g(N, y)\ng(*args)\nk(1)\nk(2)\n_h(1)\n")]
    assert _one_constant_parameters(defs, calls) == ["mod.f.a", "mod.f.b", "mod.f.c"]


def test_one_constant_scan_reads_config_dataclass_fields():
    defs = {"mod": ast.parse(
        "@dataclass(frozen=True)\nclass NetConfig:\n    widths: tuple = (1, 2)\n"
        "    scale: float = 0.5\n    seed: int = 0\n    size: ClassVar[int] = 3\n"
        "    def __post_init__(self):\n        pass\n"
        "@dataclass\nclass _HiddenConfig:\n    a: int = 1\n"
        "class PlainConfig:\n    b: int = 1\n"
        "@dataclass\nclass Record:\n    c: int = 1\n")}
    calls = [ast.parse("NetConfig(scale=s)\nNetConfig(seed=2)\nNetConfig(size=4)\n"
                       "_HiddenConfig()\nPlainConfig()\nRecord()\n")]
    assert _one_constant_parameters(defs, calls) == ["mod.NetConfig.widths"]
