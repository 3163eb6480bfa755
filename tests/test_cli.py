"""CLI subcommands: exit codes, JSON reports, CSV outputs."""

import copy
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phnet import (SCENARIOS, MatrixFunction, Network, PHSubsystem, build_beam,
                   build_chain, build_scenario, network_to_dict, save_network)
from phnet.cli import main


def write_chain(tmp_path, **kwargs):
    path = tmp_path / "chain.json"
    params = {"m": 3, "kappa": [0.5, 0.0, 0.0]}
    params.update(kwargs)
    path.write_text(json.dumps(
        {"schema": 1, "scenario": {"name": "chain_of_strings", "params": params}}))
    return str(path)


def write_indefinite_h(tmp_path):
    """Explicit one-string chain whose constant H = diag(1, -1) is not coercive."""
    doc = network_to_dict(build_chain(m=1))
    doc["subsystems"][0]["hamiltonian"] = {"kind": "constant", "data": [[1, 0], [0, -1]]}
    path = tmp_path / "indefinite.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestCheck:
    def test_default_chain_exit_zero_serial_true(self, tmp_path, capsys):
        rc = main(["check", write_chain(tmp_path)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == 1
        assert report["serial"] is True
        assert report["network_certificate"]["pass"] is True
        assert all(p["impedance"]["pass"] for p in report["passivity"])

    def test_failing_certificate_exit_one_with_witness(self, tmp_path, capsys):
        net = build_chain(m=1, kappa=[0.5], literal_bc_sign=True)
        path = tmp_path / "bad.json"
        save_network(net, path)
        rc = main(["check", str(path)])
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        assert report["network_certificate"]["pass"] is False
        assert "witness" in report["network_certificate"]

    def test_invalid_subsystem_is_not_certified(self, tmp_path, capsys):
        rc = main(["check", write_indefinite_h(tmp_path)])
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        assert report["subsystems_valid"] is False
        assert report["pass"] is False

    @pytest.mark.parametrize("declared", [False, True])
    def test_fully_coupled_chain_is_not_serial(self, tmp_path, capsys, declared):
        # K couples every port, diagonals included; a serial_blocks key, which
        # files no longer carry, is ignored like any other unknown key
        doc = network_to_dict(build_chain(m=3))
        doc["k_mat"] = np.full((6, 6), -0.1).tolist()
        if declared:
            doc["serial_blocks"] = [[None] * 3 for _ in range(3)]
        path = tmp_path / "coupled.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) in (0, 1)
        report = json.loads(capsys.readouterr().out)
        assert report["serial"] is False
        assert report["serial_cycle"] == [0, 1, 2]
        assert "serial_ordering" not in report

    def test_string_beam_is_serial(self, tmp_path, capsys):
        # the boundary damper on the diagonal of K is the string's own closure
        path = tmp_path / "string_beam.json"
        path.write_text(json.dumps({"schema": 1, "scenario": {"name": "damper_string_beam"}}))
        assert main(["check", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["serial"] is True
        assert report["serial_ordering"] == [0, 1]

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc = main(["check", str(path)])
        assert rc == 2

    def test_schema_violation_exit_two(self, tmp_path):
        path = tmp_path / "both.json"
        path.write_text(json.dumps({
            "schema": 1,
            "scenario": {"name": "chain_of_strings", "params": {}},
            "subsystems": [{"order": 1}],
        }))
        assert main(["check", str(path)]) == 2


class TestSpectrum:
    def test_damped_wave_summary(self, tmp_path, capsys):
        path = write_chain(tmp_path, m=1, kappa=[0.5])
        out = tmp_path / "spec.csv"
        rc = main(["spectrum", path, "--n", "64", "--out", str(out)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert abs(summary["abscissa"] - (-0.5493061443)) <= 1e-6
        assert summary["verdict"] == "exponentially stable (surrogate)"
        rows = out.read_text().splitlines()
        assert rows[0] == "re,im"
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert abs(data[:, 0].max() - summary["abscissa"]) <= 1e-12

    def test_conservative_beam_verdict(self, tmp_path, capsys):
        path = tmp_path / "beam.json"
        path.write_text(json.dumps({
            "schema": 1,
            "scenario": {"name": "euler_bernoulli_beam",
                         "params": {"left_bc": "pinned", "right_bc": "pinned"}}}))
        rc = main(["spectrum", str(path), "--n", "48", "--out",
                   str(tmp_path / "s.csv")])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["verdict"] == "not asymptotically stable (imaginary spectrum)"

    def test_chain_verdict_exponential(self, tmp_path, capsys):
        rc = main(["spectrum", write_chain(tmp_path), "--n", "32",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["verdict"] == "exponentially stable (surrogate)"


class TestSimulate:
    def test_damped_wave_eta(self, tmp_path, capsys):
        path = write_chain(tmp_path, m=1, kappa=[0.5])
        out = tmp_path / "trace.csv"
        rc = main(["simulate", path, "--n", "64", "--dt", "5e-3",
                   "--t-end", "10", "--x0", "sine", "--record-every", "5",
                   "--out", str(out)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        eta = summary["decay_fit"]["eta"]
        assert abs(eta - np.log(1 / 3)) <= 0.05 * abs(np.log(1 / 3))
        header = out.read_text().splitlines()[0]
        assert header.startswith("t,H,s0_tau0")

    def test_conservative_eta_zero(self, tmp_path, capsys):
        path = tmp_path / "beam.json"
        path.write_text(json.dumps({
            "schema": 1,
            "scenario": {"name": "euler_bernoulli_beam",
                         "params": {"left_bc": "pinned", "right_bc": "pinned"}}}))
        rc = main(["simulate", str(path), "--n", "32", "--dt", "1e-2",
                   "--t-end", "5", "--out", str(tmp_path / "t.csv")])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert abs(summary["decay_fit"]["eta"]) <= 1e-9

    def test_chain_eta_negative(self, tmp_path, capsys):
        rc = main(["simulate", write_chain(tmp_path), "--n", "24",
                   "--dt", "1e-2", "--t-end", "10",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["decay_fit"]["eta"] < 0

    def test_random_preset_seeded(self, tmp_path, capsys):
        path = write_chain(tmp_path, m=1, kappa=[0.5])
        energies = []
        for _ in range(2):
            rc = main(["simulate", path, "--n", "24", "--dt", "1e-2",
                       "--t-end", "1", "--x0", "random:7",
                       "--out", str(tmp_path / "r.csv")])
            assert rc == 0
            energies.append(json.loads(capsys.readouterr().out)["H0"])
        assert energies[0] == energies[1]


class TestResolvent:
    def test_damped_wave_bounded(self, tmp_path, capsys):
        path = write_chain(tmp_path, m=1, kappa=[0.5])
        out = tmp_path / "res.csv"
        rc = main(["resolvent", path, "--n", "48", "--out", str(out)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["trend"] <= 1.1
        assert summary["verdict"] == "exponentially stable (surrogate)"
        assert out.read_text().splitlines()[0] == "beta,norm"

    def test_conservative_diverged_flags(self, tmp_path, capsys):
        path = tmp_path / "cons.json"
        path.write_text(json.dumps({
            "schema": 1,
            "scenario": {"name": "euler_bernoulli_beam",
                         "params": {"left_bc": "pinned", "right_bc": "pinned"}}}))
        rc = main(["resolvent", str(path), "--n", "32", "--beta-max", "40",
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["diverged"] > 0

    def test_growth_scenario_verdict(self, tmp_path, capsys):
        path = tmp_path / "growth.json"
        path.write_text(json.dumps({
            "schema": 1, "scenario": {"name": "mass_damped_string", "params": {}}}))
        rc = main(["resolvent", str(path), "--n", "64",
                   "--out", str(tmp_path / "g.csv")])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["trend"] > 2.0
        assert "NOT indicated" in summary["verdict"]


class TestScenarioCommand:
    def test_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        doc = json.loads(capsys.readouterr().out)
        names = {entry["name"] for entry in doc["scenarios"]}
        assert {"chain_of_strings", "euler_bernoulli_beam",
                "damper_string_beam", "spring_mass_damper_string_beam",
                "mass_damped_string"} <= names

    def test_dump_and_reload(self, tmp_path, capsys):
        assert main(["scenario", "dump", "chain_of_strings"]) == 0
        doc = json.loads(capsys.readouterr().out)
        path = tmp_path / "dumped.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 0

    def test_dump_unknown_name(self, capsys):
        assert main(["scenario", "dump", "nope"]) == 2

    def test_dump_needs_name(self):
        assert main(["scenario", "dump"]) == 2


def reject_nonfinite(token):
    raise ValueError("bare %s in JSON output" % token)


class TestNonFiniteReports:
    def test_empty_trusted_spectrum_is_null_and_inconclusive(self, tmp_path, capsys):
        # a kinked (sampled) P_0 keeps every mode from matching its companion
        zs = np.linspace(0.0, 1.0, 7)
        p0 = MatrixFunction.samples(np.array(
            [[[-1.0 - 6.0 * z * (1.0 - z), 0.5j], [-0.5j, -2.0]] for z in zs]))
        s = PHSubsystem(order=1, dim=2, p_matrices=(p0, np.array([[0.0, 1.0], [1.0, 0.0]])),
                        hamiltonian=np.diag([1.0, 2.0]),
                        w_b=np.array([[0, 0, 0, -1.0], [1, 0, 0, 0]]),
                        w_c=np.array([[0, 0, 1.0, 0], [0, 1, 0, 0]]))
        path = tmp_path / "p0.json"
        save_network(Network(subsystems=(s,), k_mat=np.diag([-1.0, 0.0])), path)
        for cmd in ("spectrum", "resolvent"):
            rc = main([cmd, str(path), "--n", "32", "--out", str(tmp_path / "o.csv")])
            assert rc == 0
            summary = json.loads(capsys.readouterr().out, parse_constant=reject_nonfinite)
            assert summary["abscissa"] is None
            assert summary["verdict"] == "inconclusive (no trusted eigenvalues)"


class TestExitCodes:
    """Exit 2 with one error line and no traceback for every bad input."""

    def assert_usage_error(self, rc, capsys):
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_params_not_json(self, capsys):
        rc = main(["scenario", "dump", "chain_of_strings", "--params", "{m: 2}"])
        self.assert_usage_error(rc, capsys)

    def test_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps({"schema": 1, "label": "\u00e9"},
                                    ensure_ascii=False).encode("latin-1"))
        self.assert_usage_error(main(["check", str(path)]), capsys)

    @pytest.mark.parametrize("where", ["file", "params"])
    @pytest.mark.parametrize("key, depth", [("m", 100000), ("kappa", 500)],
                             ids=["beyond_decoder_limit", "500_deep"])
    def test_deeply_nested_parameter(self, tmp_path, capsys, where, key, depth):
        # beyond the decoder's limit the JSON read overflowed; 500 deep it
        # decoded, then overflowed the recursion of the boolean check
        params = '{"%s": %s}' % (key, "[" * depth + "]" * depth)
        if where == "params":
            rc = main(["scenario", "dump", "chain_of_strings", "--params", params])
        else:
            path = tmp_path / "deep.json"
            path.write_text('{"schema": 1, "scenario": {"name": "chain_of_strings", '
                            '"params": %s}}' % params)
            rc = main(["check", str(path)])
        self.assert_usage_error(rc, capsys)

    def test_unknown_scenario_param_in_file(self, tmp_path, capsys):
        self.assert_usage_error(main(["check", write_chain(tmp_path, bogus=1)]), capsys)

    def test_non_integer_order(self, tmp_path, capsys):
        doc = network_to_dict(build_chain(m=1, kappa=[0.5]))
        doc["subsystems"][0]["order"] = "x"
        path = tmp_path / "order.json"
        path.write_text(json.dumps(doc))
        self.assert_usage_error(main(["check", str(path)]), capsys)

    @pytest.mark.parametrize("field, value", [
        ("order", True), ("order", 1.7), ("dim", 2.5),
        ("coupling", [[0.5]]), ("coupling", [[False]]),
        ("external_ports", [0.7]), ("external_ports", [True])])
    def test_integer_field_not_an_integer(self, tmp_path, capsys, field, value):
        # int() used to read these as 1, 1, 2, 0, 0, 0 and 1
        doc = network_to_dict(build_scenario("spring_mass_damper_string_beam", {}))
        if field in ("order", "dim"):
            doc["subsystems"][0][field] = value
        else:
            doc[field] = value
        path = tmp_path / "integer.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be an integer" in err

    @pytest.mark.parametrize("name, params", [
        ("chain_of_strings", {"m": True}),
        ("chain_of_strings", {"m": 2, "rho": [True, 1]}),
        ("chain_of_strings", {"m": 1, "kappa": [True]}),
        ("chain_of_strings", {"m": 1, "literal_bc_sign": "no"}),
        ("chain_of_strings", {"m": 1, "literal_bc_sign": [False]}),
        ("euler_bernoulli_beam", {"left_bc": [[True, 0], [0, 0]]}),
        ("mass_damped_string", {"mass": True})])
    def test_scenario_parameter_of_wrong_type(self, tmp_path, capsys, name, params):
        # booleans used to read as 1 (exit 0), and a truthy non-boolean
        # literal_bc_sign flipped the damper (exit 1)
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"schema": 1, "scenario": {"name": name, "params": params}}))
        self.assert_usage_error(main(["check", str(path)]), capsys)

    @pytest.mark.parametrize("command", ["check", "spectrum"])
    @pytest.mark.parametrize("name, params", [
        ("chain_of_strings", {"m": 2, "kappa": [0.5, float("nan")]}),
        ("damper_string_beam", {"kappa": float("inf")}),
        ("chain_of_strings", {"m": 2, "lengths": [1, float("inf")]}),
        ("chain_of_strings", {"m": 1, "rho": [{"kind": "samples",
                                               "data": [1, -0.001, 1, 1, 1, 1, 1]}]}),
        ("chain_of_strings", {"m": 1, "rho": [{"kind": "constant", "data": []}]}),
        ("chain_of_strings", {"m": 2, "kappa": [10 ** 400, 0]}),
        ("mass_damped_string", {"mass": 10 ** 400}),
        ("chain_of_strings", {"m": 1, "rho": [{"kind": "constant", "data": [1, -5, 7]}]}),
        ("chain_of_strings", {"m": 1, "rho": [{"kind": "samples",
                                               "data": [[1, 1], [1, 1]]}]})],
        ids=["nan_kappa", "infinite_kappa", "infinite_length", "negative_knot", "empty",
             "huge_kappa", "huge_mass", "constant_list", "nested_samples"])
    def test_scenario_parameter_out_of_range(self, tmp_path, capsys, command, name, params):
        # NaN and Infinity used to exit 1 (an SVD traceback, or "pass": false),
        # an empty profile with an IndexError, an integer beyond float range
        # with an OverflowError traceback; the negative knot exited 0, and so
        # did a constant profile given a list (read as its first entry) and
        # nested samples (flattened into knots)
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"schema": 1, "scenario": {"name": name, "params": params}}))
        out = ["--out", str(tmp_path / "s.csv")] if command == "spectrum" else []
        self.assert_usage_error(main([command, str(path)] + out), capsys)

    @pytest.mark.parametrize("literal, rc", [(False, 0), (True, 1)])
    def test_literal_bc_sign_boolean(self, tmp_path, capsys, literal, rc):
        assert main(["check", write_chain(tmp_path, literal_bc_sign=literal)]) == rc

    @pytest.mark.parametrize("command", ["check", "spectrum"])
    @pytest.mark.parametrize("field, value", [
        ("external_ports", [99]), ("external_ports", [-1]),
        ("interval", [0, float("inf")]), ("interval", [-1e308, 1e308]),
        ("interval", [0, True]), ("interval", [True, 2])])
    def test_field_out_of_range(self, tmp_path, capsys, command, field, value):
        # these used to exit 0 or 1: a missing external row was skipped, a
        # boolean endpoint read as 0 or 1, and an infinite length scaled P_1 to 0
        doc = network_to_dict(build_chain(m=1))
        if field == "interval":
            doc["subsystems"][0][field] = value
        else:
            doc[field] = value
        path = tmp_path / "range.json"
        path.write_text(json.dumps(doc))
        out = ["--out", str(tmp_path / "s.csv")] if command == "spectrum" else []
        self.assert_usage_error(main([command, str(path)] + out), capsys)

    @pytest.mark.parametrize("command", ["check", "spectrum"])
    def test_controller_on_external_port(self, tmp_path, capsys, command):
        # used to exit 1 (check) and 0 (spectrum, sym_drift 1128): the
        # external row 0 defined u_0 a second time beside the controller
        doc = network_to_dict(build_scenario("mass_damped_string", {}))
        assert doc["coupling"] == [[0]]
        doc["external_ports"] = [0]
        path = tmp_path / "external.json"
        path.write_text(json.dumps(doc))
        out = ["--out", str(tmp_path / "s.csv")] if command == "spectrum" else []
        self.assert_usage_error(main([command, str(path)] + out), capsys)

    @pytest.mark.parametrize("command", ["check", "spectrum"])
    @pytest.mark.parametrize("build, interval", [
        (build_chain, [0, 5e-324]), (build_chain, [0, 1e-310]), (build_beam, [0, 1e-160])])
    def test_interval_too_short(self, tmp_path, capsys, command, build, interval):
        # an order-1 string and an order-2 beam: (b - a) ** -k used to
        # overflow with a traceback and exit 1
        doc = network_to_dict(build())
        doc["subsystems"][0]["interval"] = interval
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        out = ["--out", str(tmp_path / "s.csv")] if command == "spectrum" else []
        self.assert_usage_error(main([command, str(path)] + out), capsys)

    def test_unsupported_schema(self, tmp_path, capsys):
        path = tmp_path / "schema2.json"
        path.write_text(json.dumps(
            {"schema": 2, "scenario": {"name": "chain_of_strings", "params": {}}}))
        self.assert_usage_error(main(["check", str(path)]), capsys)

    def test_complex_entry_with_three_components(self, tmp_path, capsys):
        doc = network_to_dict(build_chain(m=1, kappa=[0.5]))
        w_b = doc["subsystems"][0]["w_b"]
        doc["subsystems"][0]["w_b"] = [[[v, 0.0, 1.0] for v in row] for row in w_b]
        path = tmp_path / "triple.json"
        path.write_text(json.dumps(doc))
        self.assert_usage_error(main(["check", str(path)]), capsys)

    @pytest.mark.parametrize("entry", [None, float("nan"), float("inf"),
                                       float("-inf"), True])
    def test_matrix_entry_not_a_finite_number(self, tmp_path, capsys, entry):
        doc = network_to_dict(build_chain(m=1, kappa=[0.5]))
        doc["subsystems"][0]["w_b"][0][0] = entry
        path = tmp_path / "entry.json"
        path.write_text(json.dumps(doc))
        self.assert_usage_error(main(["check", str(path)]), capsys)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--dt", "0"],
        ["simulate", "--dt", "-1"],
        ["simulate", "--t-end", "-1"],
        ["simulate", "--dt", "1e-320"],         # t_end / dt overflows
        ["simulate", "--t-end", "1e308"],
        ["simulate", "--dt", "1e-300"],         # more records than numpy can index
        ["simulate", "--dt", "5e-18"],          # a record count numpy indexes, bytes it cannot
        ["simulate", "--dt", "1e308"],          # the Cayley factors overflow
        ["simulate", "--record-every", "0"],
        ["simulate", "--x0", "random:abc"],
        ["simulate", "--x0", "randomfoo"],
        ["simulate", "--x0", "random_7"],
        ["resolvent", "--samples", "-1"],
        ["spectrum", "--n", "abc"],
        ["spectrum", "--bogus"],
        ["spectrum", "--seed", "1"],
    ])
    def test_bad_flag(self, tmp_path, capsys, argv):
        path = write_chain(tmp_path, m=1, kappa=[0.5])
        rc = main(argv[:1] + [path, "--n", "24", "--out", str(tmp_path / "o.csv")]
                  + argv[1:])
        self.assert_usage_error(rc, capsys)

    def test_out_of_memory(self, tmp_path, capsys, monkeypatch):
        # a record allocation too large for the host (--dt 1e-9 asks for 74.5 GiB)
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB")
        monkeypatch.setattr("phnet.cli.simulate", no_memory)
        rc = main(["simulate", write_chain(tmp_path, m=1, kappa=[0.5]), "--n", "24",
                   "--dt", "1e-9", "--out", str(tmp_path / "o.csv")])
        self.assert_usage_error(rc, capsys)

    @pytest.mark.parametrize("command", ["spectrum", "simulate", "resolvent"])
    def test_non_coercive_hamiltonian(self, tmp_path, capsys, command):
        rc = main([command, write_indefinite_h(tmp_path), "--n", "24",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: subsystem 0: H numerically singular at the "
                              "collocation nodes, or indefinite")
        assert err.count("\n") == 1

    def test_too_few_samples_for_decay_fit(self, tmp_path, capsys):
        rc = main(["simulate", write_chain(tmp_path, m=1, kappa=[0.5]), "--n", "24",
                   "--t-end", "2", "--dt", "1e-2", "--record-every", "50",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["decay_fit"] is None
        assert "at least 32 samples" in summary["decay_fit_reason"]


def _scenario_dump(name):
    """What `phnet scenario dump <name>` prints, as a JSON document."""
    params = dict(SCENARIOS[name]["defaults"])
    return json.loads(json.dumps(network_to_dict(build_scenario(name, params),
                                                  scenario=(name, params))))


# the five scenario dumps and one explicit file with a controller
MUTATION_BASES = [_scenario_dump(name) for name in sorted(SCENARIOS)] + [
    json.loads(json.dumps(network_to_dict(build_scenario("spring_mass_damper_string_beam", {}))))]


def _paths(node, path=()):
    """Every position in a JSON document, the root included."""
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_files(draw):
    """A base document with one key deleted, one value replaced, one
    matrix row dropped, or its text truncated."""
    doc = copy.deepcopy(draw(st.sampled_from(MUTATION_BASES)))
    paths = list(_paths(doc))
    matrices = [p for p in paths if isinstance(_at(doc, p), list) and _at(doc, p)
                and all(isinstance(row, list) for row in _at(doc, p))]
    kind = draw(st.sampled_from(["delete", "replace", "truncate"]
                                + (["drop_row"] if matrices else [])))
    if kind == "truncate":
        text = json.dumps(doc)
        return text[:draw(st.integers(0, len(text) - 1))]
    if kind == "delete":
        keys = [p for p in paths if p and isinstance(_at(doc, p[:-1]), dict)]
        path = draw(st.sampled_from(keys))
        del _at(doc, path[:-1])[path[-1]]
    elif kind == "replace":
        path = draw(st.sampled_from(paths))
        value = draw(st.sampled_from([None, "x", True, [[1, 2], [3]]]))
        if path:
            _at(doc, path[:-1])[path[-1]] = value
        else:
            doc = value
    else:
        rows = _at(doc, draw(st.sampled_from(matrices)))
        del rows[draw(st.integers(0, len(rows) - 1))]
    return json.dumps(doc)


class TestMutatedFiles:
    """`check` and `spectrum` return 0, 1 or 2 on any mutated file, and 2
    comes with exactly one `error:` line."""

    # a nested list in external_ports used to escape as a TypeError traceback
    @settings(max_examples=200)
    @given(text=mutated_files())
    @example(text=json.dumps(dict(MUTATION_BASES[-1], external_ports=[[1, 2], [3]])))
    def test_exit_code_contract(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "net.json")
            with open(path, "w") as f:
                f.write(text)
            for argv in (["check", path],
                         ["spectrum", path, "--n", "16", "--out", os.path.join(tmp, "s.csv")]):
                err = io.StringIO()
                with redirect_stdout(io.StringIO()), redirect_stderr(err):
                    rc = main(argv)
                assert rc in (0, 1, 2)
                if rc == 2:
                    lines = err.getvalue().splitlines()
                    assert len(lines) == 1 and lines[0].startswith("error: ")
