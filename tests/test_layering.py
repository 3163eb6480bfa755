"""Module layering: passivity alone decides certificates, network, which
builds the closed loop, does not depend on it, and the library reads the
energy-frame generator s_red, never the aliases kept for the benchmark."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "phnet"
CERTIFICATE_INTERNALS = {"_certificate", "_psd_verdict", "_tol_for"}
# DiscreteGenerator.m_red (the identity) and sim_operator() (s_red) serve the
# benchmark oracles only; chol, the old energy frame, is gone
HARNESS_ALIASES = {"m_red", "chol", "sim_operator"}


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


def test_library_reads_no_harness_alias():
    reads = {path.name: sorted({node.attr for node in ast.walk(ast.parse(path.read_text()))
                                if isinstance(node, ast.Attribute)
                                and node.attr in HARNESS_ALIASES})
             for path in SRC.glob("*.py")}
    assert {name: used for name, used in reads.items() if used} == {}
