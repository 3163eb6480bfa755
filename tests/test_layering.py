"""Module layering: passivity alone decides certificates, network, which
builds the closed loop, does not depend on it, serial detection reads the
loop only through assemble, the library reads the
energy-frame generator s_red, never the aliases and dense views kept for
the benchmark and the tests,
only the resolvent scan loads scipy (the Cayley stepper runs on numpy), and
the scan's frequency loop calls no numpy BLAS."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "phnet"
CERTIFICATE_INTERNALS = {"_certificate", "_psd_verdict", "_tol_for"}
# DiscreteGenerator.m_red (the identity) and sim_operator() (s_red) serve the
# benchmark oracles only, and the dense views lift and m_full the oracles,
# tests and demos; chol, the old energy frame, is gone
HARNESS_ALIASES = {"m_red", "chol", "sim_operator", "lift", "m_full"}
# the Network fields assemble closes the loop from, and the retired declaration
LOOP_FIELDS = {"k_mat", "coupling", "serial_blocks"}
# (module, function) of every scipy import: the scan's Schur form and
# frequency-loop kernels (triangular solve, gemv, norm, tridiagonal eigensolver)
SCIPY_IMPORTERS = {("analysis.py", "resolvent_scan")}
# numpy calls that reach numpy's own BLAS or LAPACK
NUMPY_BLAS = {"dot", "vdot", "matmul", "inner", "tensordot", "einsum"}
COLD_PATH = """
import contextlib, json, os, sys
import phnet
from phnet import cli
tmp = sys.argv[1]
path = os.path.join(tmp, "chain.json")
with open(path, "w") as f, contextlib.redirect_stdout(f):
    cli.main(["scenario", "dump", "chain_of_strings"])
with open(os.devnull, "w") as f, contextlib.redirect_stdout(f):
    assert cli.main(["check", path]) == 0
    assert cli.main(["spectrum", path, "--n", "24", "--out", os.path.join(tmp, "s.csv")]) == 0
    assert cli.main(["simulate", path, "--n", "24", "--t-end", "0.05",
                     "--out", os.path.join(tmp, "t.csv")]) == 0
net = phnet.build_coupled(variant="spring_mass_damper_string_beam")
assert net.controllers
gen = phnet.assemble_generator(net, 24)
rep = phnet.spectrum(gen)
phnet.simulate(gen, phnet.make_initial_state(net, gen), dt=1e-2, t_end=0.05)
cold = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
phnet.resolvent_scan(gen, samples=5, spectrum_report=rep)
print(json.dumps({"cold": cold, "scan": sorted(sys.modules)}))
"""


def _names(tree):
    """Every identifier a module defines, reads, imports or looks up as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.alias):
            yield node.name
            yield node.asname


def test_certificate_internals_live_in_passivity_only():
    users = {path.name: sorted(CERTIFICATE_INTERNALS.intersection(
                 _names(ast.parse(path.read_text()))))
             for path in SRC.glob("*.py")}
    assert users.pop("passivity.py") == sorted(CERTIFICATE_INTERNALS)
    assert {name: used for name, used in users.items() if used} == {}


def test_network_does_not_import_passivity():
    imported = []
    for node in ast.walk(ast.parse((SRC / "network.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.module:      # from .passivity import x
            imported.append(node.module)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):     # from . import passivity
            imported += [alias.name for alias in node.names]
    assert not [m for m in imported if m.split(".")[-1] == "passivity"]


def test_serial_detection_reads_the_loop_through_assemble():
    defs = {node.name: node for node in ast.walk(ast.parse((SRC / "network.py").read_text()))
            if isinstance(node, ast.FunctionDef)}
    # detect_serial_structure and the module functions it calls, assemble aside
    seen, todo = set(), ["detect_serial_structure"]
    while todo:
        name = todo.pop()
        seen.add(name)
        todo += [node.func.id for node in ast.walk(defs[name])
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id in defs and node.func.id not in seen | {"assemble"}]
    assert "assemble" in set(_names(defs["detect_serial_structure"]))
    assert {name: sorted(LOOP_FIELDS.intersection(_names(defs[name])))
            for name in seen} == {name: [] for name in seen}


def test_library_reads_no_harness_alias():
    reads = {path.name: sorted({node.attr for node in ast.walk(ast.parse(path.read_text()))
                                if isinstance(node, ast.Attribute)
                                and node.attr in HARNESS_ALIASES})
             for path in SRC.glob("*.py")}
    assert {name: used for name, used in reads.items() if used} == {}


def _scipy_imports(tree, scope=None):
    """(enclosing function, None at module level; module) of every scipy import."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _scipy_imports(node, node.name)
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            names = []
        for name in names:
            if name.split(".")[0] == "scipy":
                yield scope, name
        yield from _scipy_imports(node, scope)


def test_scipy_imported_only_inside_the_scan():
    found = {(path.name, scope) for path in SRC.glob("*.py")
             for scope, _ in _scipy_imports(ast.parse(path.read_text()))}
    assert found == SCIPY_IMPORTERS


def test_inverse_lanczos_takes_its_kernels_from_its_arguments():
    # numpy and scipy each ship an OpenBLAS with its own thread pool; a loop
    # that alternates the two runs a threaded call while the other pool spins
    fn = next(node for node in ast.walk(ast.parse((SRC / "analysis.py").read_text()))
              if isinstance(node, ast.FunctionDef) and node.name == "_inverse_lanczos")
    matmuls = [node.lineno for node in ast.walk(fn)
               if isinstance(getattr(node, "op", None), ast.MatMult)]
    calls = [ast.unparse(node.func) for node in ast.walk(fn) if isinstance(node, ast.Call)]
    numpy_blas = [call for call in calls if "linalg" in call.split(".")
                  or call.split(".")[-1] in NUMPY_BLAS]
    assert matmuls == [] and numpy_blas == []


def test_cold_path_loads_no_scipy(tmp_path):
    # import phnet, check, spectrum and simulate (a controller network too)
    # run on numpy alone; the resolvent scan loads scipy.linalg, not scipy.sparse
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", COLD_PATH, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True)
    loaded = json.loads(out.stdout)
    assert loaded["cold"] == []
    assert "scipy.linalg" in loaded["scan"]
    assert "scipy.sparse" not in loaded["scan"]
