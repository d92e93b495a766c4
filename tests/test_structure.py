"""Code-structure rules that keep rotor's two checks independent, read from one parse per module."""

import ast
import functools
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rotor"


@functools.cache
def _tree(module):
    return ast.parse((SRC / module).read_text(encoding="utf-8"))


def _names(node):
    """Every identifier, attribute and imported name under ``node``."""
    field = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    return {getattr(n, field[type(n)]) for n in ast.walk(node) if type(n) in field}


def _functions():
    return [f for f in ast.walk(_tree("quantum.py")) if isinstance(f, ast.FunctionDef)]


def _function(name):
    (function,) = [f for f in _functions() if f.name == name]
    return function


def _top_functions():
    """quantum.py's module-level functions by name; a method may share a name with one."""
    return {node.name: node for node in _tree("quantum.py").body if isinstance(node, ast.FunctionDef)}


def test_no_scipy_at_import():
    # scipy is imported only inside the Fock functions that use it: sparse algebra, jv, the
    # banded eigensolver. Loaded at import it cost every command 0.3-0.5 s and 30 MB, and the
    # survival sweep's DCT comes from numpy.fft. A fresh interpreter: pytest's holds rotor
    code = "import sys, rotor, rotor.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    loaded = ast.literal_eval(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                             text=True, check=True).stdout)
    assert not loaded, loaded


def test_no_scipy_in_symplectic():
    # symplectic_generator's 4x4 logarithm and exponential are numpy iterations in the
    # calling thread; scipy's logm and expm woke the BLAS pool, which spun ~0.1 s a call
    tree = _tree("symplectic.py")
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    found = [name for name in names if name.split(".")[0] == "scipy"]
    assert not found, f"src/rotor/symplectic.py imports {found}"


def test_one_fock_build():
    # the top-level build_fock_hamiltonian forms the real band in closed form; the sparse q, p
    # and their krons stay the oracle of the tests and of conjugation_check, which skips the builder
    top = _top_functions()
    built = _names(top["build_fock_hamiltonian"]) & {"kron", "phase_space_operators"}
    assert not built, f"build_fock_hamiltonian names {sorted(built)}"
    assert "build_fock_hamiltonian" not in _names(top["conjugation_check"]), "conjugation_check names build_fock_hamiltonian"


def test_one_weight_rule():
    # both Chebyshev series take their weights (2 - delta_k0) (-i)^k J_k(z) from the one
    # FFT rule of _chebyshev_weights; jv is left only in the order count
    bessel = sorted({f.name for f in _functions() if f.name != "_chebyshev_orders" and "jv" in _names(f)})
    assert not bessel, f"{bessel} name jv"
    for series in ("_propagator", "_autocorrelation"):
        assert "_chebyshev_weights" in _names(_function(series)), f"{series} does not name _chebyshev_weights"


def test_one_chebyshev_recurrence():
    # both series take their start (the truncation check, D*, the Gershgorin interval and
    # the scaled band, filled from R's own arrays with no kron) from _chebyshev_start and
    # their terms from _chebyshev_terms, read in place: no stacked copy, no per-term vdot
    for series in ("_propagator", "_autocorrelation"):
        missing = sorted({"_chebyshev_start", "_chebyshev_terms"} - _names(_function(series)))
        assert not missing, f"{series} does not name {missing}"
    interval = sorted({f.name for f in _functions() if f.name != "_chebyshev_start" and "_gershgorin_interval" in _names(f)})
    assert not interval, f"{interval} name _gershgorin_interval"
    for name, banned in (("_chebyshev_start", {"kron"}), ("_propagator", {"stack", "islice"}), ("_autocorrelation", {"vdot"})):
        found = sorted(banned & _names(_function(name)))
        assert not found, f"{name} names {found}"


def test_fock_simulate_path_stays_in_the_calling_thread():
    # OpenBLAS threads a large gemm or gemv, and its woken pool spins for 0.1 s or more: the
    # readers of an evolved stack call no dot, the propagator multiplies by no @ and takes its
    # block product from _panel_product, whose one matmul sits in its panel loop
    top = _top_functions()
    for name in ("_propagator", "_overlap", "mean_excitation", "phase_space_expectations", "_truncation_loss"):
        found = sorted({"tensordot", "dot"} & _names(top[name]))
        assert not found, f"{name} names {found}"
    for name in ("_propagator", "_panel_product"):
        products = [node for node in ast.walk(top[name]) if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)]
        assert not products, f"{name} multiplies by @"
    assert "_panel_product" in _names(top["_propagator"]), "_propagator does not name _panel_product"
    assert "matmul" not in _names(top["_propagator"]), "_propagator names matmul"
    panels = top["_panel_product"]
    calls = [node for node in ast.walk(panels) if isinstance(node, ast.Call) and "matmul" in _names(node.func)]
    looped = {node for loop in ast.walk(panels) if isinstance(loop, ast.For) for node in ast.walk(loop)}
    assert len(calls) == 1 and calls[0] in looped, "_panel_product's matmul is not one call in a loop"
    assert "_SERIAL_PRODUCT" in _names(panels), "_panel_product does not size its panels by _SERIAL_PRODUCT"


def test_closed_forms_name_no_fock_function():
    # ClosedFormState is checked against the Fock functions, so it calls none of them; a
    # method of its own, such as self.energy_variance, is an attribute and not a Name
    fock = {"build_fock_hamiltonian", "entangled_state", "fock_state", "coherent_state", "energy_variance",
            "evolve_series", "_propagator", "_autocorrelation", "sp"}
    (closed,) = [node for node in _tree("quantum.py").body
                 if isinstance(node, ast.ClassDef) and node.name == "ClosedFormState"]
    found = sorted(fock & {node.id for node in ast.walk(closed) if isinstance(node, ast.Name)})
    assert not found, f"ClosedFormState names {found}"


def test_no_environment_variable():
    # a run's settings are its flags, which its manifest records: no module reads or sets the environment
    found = {path.name: sorted(names) for path in sorted(SRC.glob("*.py"))
             if (names := _names(_tree(path.name)) & {"environ", "getenv", "putenv"})}
    assert not found, f"src/rotor/ names the environment: {found}"


def test_readme_tour():
    # the README's one python block runs as written, so a changed public signature fails here
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 1, f"{len(blocks)} python blocks in README.md"
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme_tour"})
