"""Module layering: passivity alone decides certificates, network, which
builds the closed loop, does not depend on it, serial detection reads the
loop only through assemble, the library and the demos read the
energy-frame generator s_red and lift_state, never the aliases and dense
views kept for the benchmark oracles and the view tests, the library
defines no test-only energy-balance helper,
the library's one trace extractor is trace_map @ v split by split_traces,
only the reduction forms rows of lift (the dense lift view is lift_state
of the identity),
only the resolvent scan loads scipy (the Cayley stepper runs on numpy),
the scan's frequency loop calls no numpy BLAS, the CLI's parser declares
every usage rule, the CLI alone shapes its JSON reports and, through its
one CSV writer, its CSV tables, one encoder writes every report and every
network file, and each scenario names its own builder."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "phnet"
DEMOS = ROOT / "demos"
CERTIFICATE_INTERNALS = {"_certificate", "_psd_verdict", "_tol_for"}
# DiscreteGenerator.m_red (the identity) and sim_operator() (s_red) serve the
# benchmark oracles only, and the dense views lift and m_full the oracles and
# the view tests; chol, the old energy frame, is gone
HARNESS_ALIASES = {"m_red", "chol", "sim_operator", "lift", "m_full"}
# the energy balance's two sides, oracles that tests/helpers.py keeps
TEST_ONLY_HELPERS = {"discrete_energy_rate", "boundary_flux"}
# every trace is gen.trace_map @ v, cut per subsystem by gen.split_traces;
# no second extractor method may wrap it
TRACE_METHODS = {"trace", "traces"}
# the Network fields assemble closes the loop from, and the retired declaration
LOOP_FIELDS = {"k_mat", "coupling", "serial_blocks"}
# (module, function) of every scipy import: the scan's Schur form and
# frequency-loop kernels (triangular solve, gemv, norm, tridiagonal eigensolver)
SCIPY_IMPORTERS = {("analysis.py", "resolvent_scan")}
# helpers no module may define: _reduce forms its rows of lift inline, and
# the dense lift view is lift_state of the identity
LIFT_ROW_HELPERS = {"_lift_rows", "_lift_blocks"}
# the report and file encoders that model._encode replaced
RETIRED_ENCODERS = {"_finite", "_encode_array"}
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
net = phnet.build_spring_mass_damper_string_beam()
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


def _alias_reads(paths):
    """{file name: the HARNESS_ALIASES attributes it reads}, read-free files left out."""
    reads = {path.name: sorted({node.attr for node in ast.walk(ast.parse(path.read_text()))
                                if isinstance(node, ast.Attribute)
                                and node.attr in HARNESS_ALIASES})
             for path in paths}
    return {name: used for name, used in reads.items() if used}


def _library_defines(names):
    """{module name: the functions of names it defines}, modules defining none left out."""
    defined = {path.name: sorted(node.name for node in ast.walk(ast.parse(path.read_text()))
                                 if isinstance(node, ast.FunctionDef) and node.name in names)
               for path in SRC.glob("*.py")}
    return {name: found for name, found in defined.items() if found}


def test_library_reads_no_harness_alias():
    assert _alias_reads(SRC.glob("*.py")) == {}


def test_demos_read_no_harness_alias():
    # a demo maps reduced states with lift_state, never with the dense views
    demos = sorted(DEMOS.glob("*.py"))
    assert demos and _alias_reads(demos) == {}


def test_library_keeps_one_trace_extractor():
    assert _library_defines(TRACE_METHODS) == {}


def test_library_keeps_no_test_only_helper():
    assert _library_defines(TEST_ONLY_HELPERS) == {}


def _scoped(tree, scope=None):
    """(enclosing function, None at module level; node) of every node below tree."""
    for node in ast.iter_child_nodes(tree):
        yield scope, node
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield from _scoped(node, inner)


def _library_scopes(test):
    """{(module name, enclosing function)} of every library node that passes test."""
    return {(path.name, scope) for path in SRC.glob("*.py")
            for scope, node in _scoped(ast.parse(path.read_text())) if test(node)}


def _imports_scipy(node):
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    else:
        names = []
    return any(name.split(".")[0] == "scipy" for name in names)


def test_scipy_imported_only_inside_the_scan():
    assert _library_scopes(_imports_scipy) == SCIPY_IMPORTERS


def test_only_the_reduction_forms_lift_rows():
    # lift_state is W^{-1} z_y v node by node and forms no rows of lift
    assert _library_defines(LIFT_ROW_HELPERS) == {}
    calls = _library_scopes(lambda node: isinstance(node, ast.Call)
                            and ast.unparse(node.func) == "self.lift_state")
    assert ("discretize.py", "lift") in calls


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


def test_cli_main_holds_no_usage_rule():
    # subcommands and their arguments are argparse declarations; main only
    # parses, dispatches and maps exceptions to exit 2
    tree = ast.parse((SRC / "cli.py").read_text())
    main = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    calls = [ast.unparse(node.func) for node in ast.walk(main) if isinstance(node, ast.Call)]
    assert [call for call in calls if call.split(".")[-1] == "error"] == []
    assert {"command", "action"}.isdisjoint(_names(main))


def test_cli_writes_json_through_one_encoder():
    # model._encode alone turns numpy scalars, complex numbers and non-finite
    # values into JSON, for the CLI's reports and for saved network files; a
    # default= hook on any json.dump or json.dumps would be a second encoder
    calls = [(path.name, ast.unparse(node.func), [kw.arg for kw in node.keywords])
             for path in SRC.glob("*.py") for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and ast.unparse(node.func) in ("json.dump", "json.dumps")]
    assert {("cli.py", "json.dumps"), ("netfile.py", "json.dump")} <= {c[:2] for c in calls}
    assert [call for call in calls if "default" in call[2]] == []


def test_each_scenario_names_its_own_builder():
    # a scenario's builder is a module-level build_* function whose keywords
    # are the whole parameter set: no lambda over a shared builder, and no
    # builder that switches on a variant
    from phnet.scenarios import SCENARIOS
    tree = ast.parse((SRC / "scenarios.py").read_text())
    builders = {node.name for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("build_")}
    assert {name: (entry["build"].__module__, entry["build"].__name__ in builders)
            for name, entry in SCENARIOS.items()} == {
        name: ("phnet.scenarios", True) for name in SCENARIOS}
    switches = [getattr(node, "name", "lambda") for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.Lambda))
                and "variant" in {arg.arg for arg in node.args.args + node.args.kwonlyargs}]
    assert switches == []


def _class_methods(name):
    """[(module name, class name)] of every library class that defines name."""
    return [(path.name, cls.name) for path in SRC.glob("*.py")
            for cls in ast.walk(ast.parse(path.read_text()))
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, ast.FunctionDef) and node.name == name]


def test_one_report_writer_and_one_encoder():
    # cli shapes every report, JSON and CSV, with the one CSV writer; the
    # only to_dict left is the coefficient file codec, no result type writes
    # its own table, and no module keeps a second encoder
    assert _class_methods("to_dict") == [("model.py", "MatrixFunction")]
    assert _class_methods("to_csv") == []
    assert _library_defines({"write_csv"}) == {"cli.py": ["write_csv"]}
    assert _library_defines(RETIRED_ENCODERS) == {}
