"""Module hygiene by an ast walk: __all__ entries exist, top-level imports
are used, the package imports nothing beyond the standard library, numpy
and scipy's pocketfft extension (and importing the command line loads
neither scipy.fft nor what its import chain brings), it reaches no LAPACK
routine through numpy, only the point evaluator takes np.sin or np.cos of
a series' angles, only the transform layer and the time stepper call
pocketfft's transforms, the time stepper allocates its arrays in its
workspace only, the config objects and public entry points take the pinned
options only, no cache outlives a call but three that hold no field
values, one module names the run directory's files, and every package name
the benchmark imports or wraps exists."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "msqglab"
BENCH = PACKAGE.parents[1] / "bench"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _tree(name: str) -> ast.Module:
    path = PACKAGE / f"{name}.py"
    return ast.parse(path.read_text(), filename=str(path))


def _declared_all(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return None


def _top_level_imports(tree: ast.Module) -> dict:
    """Bound name -> line of every import statement in the module body."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def test_modules_found():
    assert {"cli", "evolution", "kernels", "spectral", "trajectories", "verify"} <= set(MODULES)


@pytest.mark.parametrize("name", [m for m in MODULES if _declared_all(_tree(m)) is not None])
def test_all_entries_exist(name):
    exported = _declared_all(_tree(name))
    module = importlib.import_module(f"msqglab.{name}")
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert not missing, f"msqglab.{name}.__all__ names missing attributes: {missing}"
    assert len(set(exported)) == len(exported), f"msqglab.{name}.__all__ repeats a name"


@pytest.mark.parametrize("name", MODULES)
def test_top_level_imports_used(name):
    tree = _tree(name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(_declared_all(tree) or ())
    unused = {imp: line for imp, line in _top_level_imports(tree).items()
              if imp not in used and imp not in exported}
    assert not unused, f"msqglab/{name}.py imports unused names (name: line): {unused}"


# third-party modules the package may import: numpy, and scipy's pocketfft
# extension, which spectral loads on its own and imports through scipy.fft
# only as a fallback; scipy.fft itself would pull in scipy.special and the
# array-API shim, scipy.integrate scipy.linalg, optimize, sparse and spatial
ALLOWED_THIRD_PARTY = ("numpy", "scipy.fft._pocketfft")


def _imported_modules(tree: ast.Module):
    """(module, line) of every absolute import anywhere in the module, with
    `from a import b` read as a.b (b may be a submodule)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and not node.level:
            for alias in node.names:
                yield f"{node.module}.{alias.name}", node.lineno


def _allowed(module: str) -> bool:
    top = module.split(".")[0]
    if top in sys.stdlib_module_names:
        return True
    return any(module == root or module.startswith(root + ".") for root in ALLOWED_THIRD_PARTY)


@pytest.mark.parametrize("name", MODULES)
def test_imports_only_stdlib_numpy_scipy_fft_special(name):
    banned = {mod: line for mod, line in _imported_modules(_tree(name)) if not _allowed(mod)}
    assert not banned, (f"msqglab/{name}.py imports outside the standard library and "
                        f"{ALLOWED_THIRD_PARTY} (module: line): {banned}")


def _dotted(node):
    """"a.b.c" for an attribute chain on a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id] + parts[::-1]) if isinstance(node, ast.Name) else None


def _nodes_with_owner(node, owner=None):
    """Every node below node, with the name of the innermost def around it
    (None at module level)."""
    for child in ast.iter_child_nodes(node):
        yield child, owner
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        yield from _nodes_with_owner(child, inner)


def _resolved_names(tree: ast.Module):
    """(name, line, def) of every attribute chain on a plain name and every
    absolute import, with `from a import b` read as a.b and numpy's aliases
    resolved; def is the innermost function around it, or None."""
    aliases = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names}
    for node, owner in _nodes_with_owner(tree):
        if isinstance(node, ast.Attribute):
            names = [_dotted(node)]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in filter(None, names):
            head, _, rest = name.partition(".")
            yield ".".join(filter(None, [aliases.get(head, head), rest])), node.lineno, owner


def _lapack_uses(tree: ast.Module):
    """(name, line) of every numpy.linalg name but norm and every numpy.polynomial
    name, reached by attribute or by import."""
    for name, line, _ in _resolved_names(tree):
        if (name.startswith("numpy.polynomial")
                or name.startswith("numpy.linalg.") and name != "numpy.linalg.norm"):
            yield name, line


def _trig_uses(tree: ast.Module):
    """(def, line) of every use of numpy's sin or cos, called or not."""
    for name, line, owner in _resolved_names(tree):
        if name in ("numpy.sin", "numpy.cos"):
            yield owner, line


# numpy.linalg beyond norm, and numpy.polynomial (leggauss, fits), call
# LAPACK, whose first use costs a fresh process about 1 MB of peak resident
# memory; kernels._gauss_legendre avoids it for the same reason
@pytest.mark.parametrize("name", MODULES)
def test_no_lapack_through_numpy(name):
    used = dict(_lapack_uses(_tree(name)))
    assert not used, f"msqglab/{name}.py calls into LAPACK through numpy (name: line): {used}"


def test_lapack_check_sees_attributes_and_imports():
    tree = ast.parse("import numpy as np\nfrom numpy.linalg import solve\n"
                     "np.linalg.lstsq\nnp.linalg.norm\nnp.polynomial.legendre.leggauss\n")
    assert sorted(_lapack_uses(tree)) == [
        ("numpy.linalg.lstsq", 3), ("numpy.linalg.solve", 2),
        ("numpy.polynomial", 5), ("numpy.polynomial.legendre", 5),
        ("numpy.polynomial.legendre.leggauss", 5)]


# the one function per module that may take numpy's sin or cos: the point
# evaluator, and two tables that evaluate no series (unit directions and the
# Gauss-Legendre start); sin or cos anywhere else would begin another point
# evaluator
TRIG_OWNERS = {"spectral": "evaluate_points", "verify": "default_directions",
               "kernels": "_gauss_legendre"}


@pytest.mark.parametrize("name", MODULES)
def test_sin_and_cos_only_in_the_point_evaluator(name):
    used = [(owner, line) for owner, line in _trig_uses(_tree(name))
            if owner != TRIG_OWNERS.get(name)]
    assert not used, (f"msqglab/{name}.py takes np.sin or np.cos outside "
                      f"{TRIG_OWNERS.get(name, 'its allowed function')} (def, line): {used}")


def test_trig_check_sees_references_imports_and_their_function():
    tree = ast.parse("import numpy as np\nfrom numpy import cos\nT = {'s': np.sin}\n"
                     "def f(x):\n    return np.cosh(x) + np.sin(x)\n")
    assert sorted(_trig_uses(tree), key=lambda use: use[1]) == [(None, 2), (None, 3), ("f", 5)]


# the modules that may call pocketfft's transforms: the transform layer and
# the time stepper's tendency; the quadrature samples the central cell
# through spectral's midpoint evaluator, not by a transform of its own
TRANSFORM_OWNERS = ("spectral", "evolution")


def _transform_uses(tree: ast.Module):
    """(name, line) of every reference to pocketfft's dst or dct, by attribute
    or by import."""
    for name, line, _ in _resolved_names(tree):
        if name.rpartition(".")[2] in ("dst", "dct") and "pocketfft" in name:
            yield name, line


@pytest.mark.parametrize("name", [m for m in MODULES if m not in TRANSFORM_OWNERS])
def test_pocketfft_transforms_only_in_the_transform_layer(name):
    used = dict(_transform_uses(_tree(name)))
    assert not used, (f"msqglab/{name}.py calls pocketfft's dst or dct outside "
                      f"{TRANSFORM_OWNERS} (name: line): {used}")


def test_transform_check_sees_attributes_and_imports():
    tree = ast.parse("from .spectral import _pocketfft\nfrom . import spectral\n"
                     "_pocketfft.dst(a, 3)\nspectral._pocketfft.dct\n"
                     "from scipy.fft._pocketfft.pypocketfft import dst\n_pocketfft.good_size\n")
    assert sorted(_transform_uses(tree), key=lambda use: use[1]) == [
        ("_pocketfft.dst", 3), ("spectral._pocketfft.dct", 4),
        ("scipy.fft._pocketfft.pypocketfft.dst", 5)]
    assert len(list(_transform_uses(_tree("spectral")))) > 0


def test_principal_value_leaves_scipy_integrate_unloaded():
    # a near-field velocity at a point inside the near square takes the
    # principal-value path of the singular rectangle
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from msqglab import kernels\n"
        "from msqglab.spectral import SineField\n"
        "calls = []\n"
        "real = kernels._linear_pv_integrals\n"
        "kernels._linear_pv_integrals = lambda *a: calls.append(a) or real(*a)\n"
        "om = SineField(np.random.default_rng(3).standard_normal((16, 16)) / 16.0)\n"
        "oracle = kernels.QuadratureOracle(om, kernels.KernelParams(alpha=0.5))\n"
        "u = oracle.velocity((0.1, 0.2), kernels.RegionSpec('near', 4.0))\n"
        "assert len(calls) == 1 and np.all(np.isfinite(u))\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))\n")
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_command_line_leaves_scipy_fft_unloaded():
    # scipy.fft's import chain: scipy.special through _fftlog, and the
    # array-API shim, which clones numpy and so loads numpy.f2py
    script = (
        "import sys\n"
        "import msqglab.cli\n"
        "from msqglab import spectral\n"
        "heavy = ('scipy.fft', 'scipy.special', 'scipy._lib._array_api', 'numpy.f2py')\n"
        "print(spectral.POCKETFFT_LOADER, sorted(m for m in heavy if m in sys.modules))\n")
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "direct []"


# the fields of each config object and the keyword parameters of each public
# verifier and tracer; a value no caller sets is a module constant instead,
# so adding an option takes a deliberate edit here
OPTIONS = {
    "evolution.ExperimentConfig": (
        "alpha", "n_modes", "n_grid", "t_final", "dt_policy", "dt", "cfl_safety", "delta",
        "L", "beta", "diag_every", "snapshot_every", "out_dir", "preserve_degeneracy"),
    "initial_data.InitialDataSpec": ("delta", "n_modes", "n_grid", "blend_order", "delta_max"),
    "kernels.KernelParams": ("alpha", "image_radius", "cells_central", "cells_panel",
                             "cells_far"),
    "verify.verify_kernel_asymptotics": ("n_directions",),
    "verify.verify_near_field": ("params", "n_directions"),
    "verify.verify_medium_ratio": ("params", "n_directions"),
    "verify.verify_far_field": ("params",),
    "verify.verify_background": ("L", "params"),
    "verify.verify_decomposition": ("params",),
    "trajectories.trace": (),
    "trajectories.fit_gamma": ("window",),
}


def _options(qualname: str) -> tuple:
    module, name = qualname.split(".")
    obj = getattr(importlib.import_module(f"msqglab.{module}"), name)
    if dataclasses.is_dataclass(obj):
        return tuple(f.name for f in dataclasses.fields(obj))
    return tuple(p.name for p in inspect.signature(obj).parameters.values()
                 if p.default is not p.empty)


def test_every_public_verifier_pinned():
    verifiers = {f"verify.{n}" for n in _declared_all(_tree("verify")) if n.startswith("verify_")}
    assert verifiers == {name for name in OPTIONS if name.startswith("verify.")}


@pytest.mark.parametrize("qualname", sorted(OPTIONS))
def test_option_inventory(qualname):
    assert _options(qualname) == OPTIONS[qualname]


def _calls_of(tree: ast.Module, name: str):
    """(def, line) of every call of `name`, as a plain name or an attribute."""
    for node, owner in _nodes_with_owner(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                yield owner, node.lineno


def test_initial_data_spec_built_in_one_place():
    # every subcommand asks cli._initial_spec which omega0 its settings mean
    sites = [(name, owner) for name in MODULES
             for owner, _ in _calls_of(_tree(name), "InitialDataSpec")]
    assert sites == [("cli", "_initial_spec")]


def test_oracle_samples_whole_cells_one_way():
    # the central cell and the image cells' base grid are both omega on the
    # midpoints of [0, pi] by the midpoint transform; sine tables serve the
    # sub-interval grids (near squares and medium frames) only
    tree = _tree("kernels")
    assert [owner for owner, _ in _calls_of(tree, "evaluate_midpoints")] == ["_cell_samples"]
    assert [owner for owner, _ in _calls_of(tree, "_sines")] == ["_sine_products"]


def _terms_with_powers(tree: ast.Module):
    """(def, line) of every Term call given a powers argument, by position
    or by keyword."""
    for node, owner in _nodes_with_owner(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "Term" and (len(node.args) > 2
                                   or any(k.arg == "powers" for k in node.keywords)):
                yield owner, node.lineno


def test_derivatives_named_in_one_module():
    # every derivative of a grid maximum or a point is a Term with mode-number
    # powers, and spectral makes them all; _velocity_into's arrays serve the
    # tendency and velocity_coefficients only, and spectral_derivative is a
    # reference for the tests
    stray = {name: list(_terms_with_powers(_tree(name))) for name in MODULES
             if name != "spectral"}
    assert not {name: sites for name, sites in stray.items() if sites}, stray
    assert list(_terms_with_powers(_tree("spectral")))
    sites = sorted((name, owner) for name in MODULES
                   for owner, _ in _calls_of(_tree(name), "_velocity_into"))
    assert sites == [("evolution", "__call__"), ("spectral", "velocity_coefficients")]
    assert not [(name, site) for name in MODULES
                for site in _calls_of(_tree(name), "spectral_derivative")]


def test_term_check_sees_positions_keywords_and_attributes():
    tree = ast.parse("import m\nfrom m import Term\nTerm(0, p)\nTerm(0, p, (1, 0))\n"
                     "def f():\n    return m.Term(0, p, powers=(0, 1))\n")
    assert list(_terms_with_powers(tree)) == [(None, 4), ("f", 6)]


def test_call_check_sees_names_and_attributes():
    tree = ast.parse("import m\nfrom m import f\nf(1)\ndef g():\n    return m.f(2)\n"
                     "h = f\n")
    assert list(_calls_of(tree, "f")) == [(None, 3), ("g", 5)]


ALLOCATORS = {f"numpy.{name}{like}" for name in ("empty", "zeros", "ones", "full")
              for like in ("", "_like")}


def _none_tested(test) -> str | None:
    """name for a test `name is None`, else None."""
    if (isinstance(test, ast.Compare) and isinstance(test.left, ast.Name)
            and [type(op) for op in test.ops] == [ast.Is]
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None):
        return test.left.id
    return None


def _allocations(tree: ast.Module):
    """(scope, guards, line) of every call of numpy's empty, zeros, ones or
    full, or their _like forms: scope is the dotted path of the classes and
    defs around the call, guards the names n of the `if n is None:` bodies
    it lies in."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            aliases.update((a.asname or a.name, f"{node.module}.{a.name}") for a in node.names)

    def visit(node, scope, guards):
        if isinstance(node, ast.Call) and (name := _dotted(node.func)):
            head, _, rest = name.partition(".")
            if ".".join(filter(None, [aliases.get(head, head), rest])) in ALLOCATORS:
                yield ".".join(scope), guards, node.lineno
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.If):
            tested = _none_tested(node.test)
            inner = guards | {tested} if tested else guards
            for child, child_guards in ([(node.test, guards)] + [(c, inner) for c in node.body]
                                        + [(c, guards) for c in node.orelse]):
                yield from visit(child, scope, child_guards)
            return
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope, guards)

    yield from visit(tree, (), frozenset())


# where the time stepper may allocate an array, and the name that must be
# None there: every array it allocates is an N x N or a grid-sized one, and
# run() holds them all in one _Rk4Workspace, whose tendency evaluator takes
# its grids from the workspace's scratch; a _Rhs allocates its own only
# when built without one, for nonlinear_term, and a tendency only when
# given no out, as step_rk4's first stage is for the new coefficients
EVOLUTION_ALLOCATIONS = {"_Rk4Workspace.__init__": None, "_Rhs.__init__": "scratch",
                         "_Rhs.__call__": "out"}


def test_evolution_allocates_only_in_its_workspace():
    stray = [(scope, line) for scope, guards, line in _allocations(_tree("evolution"))
             if scope not in EVOLUTION_ALLOCATIONS
             or EVOLUTION_ALLOCATIONS[scope] not in guards | {None}]
    assert not stray, f"msqglab/evolution.py allocates outside its workspace (def, line): {stray}"


def test_allocation_check_sees_scopes_and_none_guards():
    tree = ast.parse("import numpy as np\nfrom numpy import zeros\n"
                     "class A:\n    def __init__(self, s=None):\n        if s is None:\n"
                     "            s = np.empty(3)\n        else:\n            t = zeros(2)\n"
                     "def f(x):\n    return np.full_like(x, 0) + np.asarray(x)\n")
    assert list(_allocations(tree)) == [("A.__init__", {"s"}, 6), ("A.__init__", set(), 8),
                                        ("f", set(), 10)]


# the only state the package keeps from one call to the next: a version
# string, the layout of a tuple of evaluate_points terms per mode count, and
# the fractional Laplacian symbol per (N, alpha); none is keyed on field
# values.  A benchmark repeats identical passes in one process, so a cache
# of anything computed from a field would show a gain that no single run of
# the program gets
MODULE_CACHES = {"spectral._scipy_version", "spectral._term_layout", "spectral._laplacian_power",
                 "spectral._mode_power"}
CACHE_DECORATORS = {"lru_cache", "cache", "cached_property"}
MUTATORS = {"append", "add", "update", "setdefault", "extend", "insert", "__setitem__"}


def _cached_functions(name: str, tree: ast.Module):
    """module.def of every def decorated by a functools cache."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                if (_dotted(target) or "").split(".")[-1] in CACHE_DECORATORS:
                    yield f"{name}.{node.name}"


def _module_state_writes(tree: ast.Module):
    """(def, line) of every global statement, and of every store into or
    mutating call on a container bound at module level, inside a def."""
    bound = {target.id for node in tree.body if isinstance(node, ast.Assign)
             for target in node.targets if isinstance(target, ast.Name)}
    for node, owner in _nodes_with_owner(tree):
        if owner is None:
            continue
        if isinstance(node, ast.Global):
            yield owner, node.lineno
        elif (isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id in bound):
            yield owner, node.lineno
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATORS and isinstance(node.func.value, ast.Name)
              and node.func.value.id in bound):
            yield owner, node.lineno


def test_module_caches_hold_no_field_values():
    cached = {f for name in MODULES for f in _cached_functions(name, _tree(name))}
    assert cached == MODULE_CACHES
    writes = {name: list(_module_state_writes(_tree(name))) for name in MODULES}
    assert not {name: w for name, w in writes.items() if w}, (
        f"module-level state written inside a def (module: [(def, line)]): {writes}")


def test_cache_check_sees_decorators_globals_and_container_writes():
    tree = ast.parse("import functools\nfrom functools import lru_cache\nMEMO = {}\nN = 0\n"
                     "@functools.cache\ndef f(x):\n    MEMO[x] = 1\n    return x\n"
                     "@lru_cache(maxsize=2)\ndef g(x):\n    global N\n    MEMO.setdefault(x, 2)\n"
                     "    return x\ndef h(x):\n    y = {}\n    y[x] = 1\n    return y\n")
    assert sorted(_cached_functions("m", tree)) == ["m.f", "m.g"]
    assert sorted(_module_state_writes(tree)) == [("f", 7), ("g", 11), ("g", 12)]


RUN_DIR_NAMES = ("snap_", "diagnostics.csv", "metadata.json")


def _run_dir_literals(tree: ast.Module):
    """(line, text) of every string constant but a docstring that names a
    run-directory file."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in docstrings and any(n in node.value for n in RUN_DIR_NAMES)):
            yield node.lineno, node.value


def test_run_directory_named_in_one_place():
    # run() writes the run directory and read_run_dir reads it back, both by
    # evolution's names; no other module spells a file name of its own
    found = {name: list(_run_dir_literals(_tree(name))) for name in MODULES}
    assert [text for _, text in found.pop("evolution")] == [
        "snap_{step:07d}.msqg", "diagnostics.csv", "metadata.json"]
    assert not {name: sites for name, sites in found.items() if sites}, found


def test_run_directory_check_skips_docstrings():
    tree = ast.parse('"""metadata.json"""\ndef f():\n    "snap_*"\n    return "diagnostics.csv"\n'
                     'x = f"{d}/metadata.json"\n')
    assert list(_run_dir_literals(tree)) == [(4, "diagnostics.csv"), (5, "/metadata.json")]


def test_benchmark_imports_exist():
    # a name the workloads import and the package lost would stop every
    # benchmark run at its import
    tree = ast.parse((BENCH / "workloads.py").read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("msqglab")
                for alias in node.names]
    assert imported
    missing = [f"{module}.{name}" for module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"bench/workloads.py imports names msqglab lacks: {missing}"


def test_benchmark_layers_exist(monkeypatch):
    # the tracer looks each layer up as owner.__dict__[attribute], so an
    # inherited or deleted attribute would make a traced run raise KeyError
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, layers)     # for its dataclasses
    spec.loader.exec_module(layers)
    targets = layers._targets()
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, *_ in targets
               if attr not in owner.__dict__]
    assert not missing, f"bench/layers.py wraps attributes msqglab lacks: {missing}"
