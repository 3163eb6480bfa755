"""CLI subcommands: exit codes, JSON reports, CSV outputs."""

import copy
import dataclasses
import io
import json
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phnet import (SCENARIOS, MatrixFunction, Network, PHSubsystem, assemble_generator,
                   build_beam, build_chain, build_scenario, load_network,
                   make_initial_state, network_to_dict, save_network, simulate)
from phnet.cli import _emit, main

from helpers import complex_explicit_network, random_passive_network


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

    def test_csv_headers(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        rc = main(["simulate", write_chain(tmp_path, m=1, kappa=[0.5]), "--n", "32",
                   "--dt", "1e-2", "--t-end", "0.5", "--out", str(out)])
        assert rc == 0
        header = out.read_text().splitlines()[0].split(",")
        assert header[:2] == ["t", "H"]
        assert "s0_tau0" in header and "s0_tau3" in header
        assert not any(h.endswith("_im") for h in header)

    def test_csv_writes_imaginary_parts_of_complex_traces(self, tmp_path, capsys):
        path, out = tmp_path / "complex.json", tmp_path / "trace.csv"
        save_network(complex_explicit_network(), path)
        rc = main(["simulate", str(path), "--n", "16", "--dt", "1e-2", "--t-end", "0.05",
                   "--out", str(out)])
        assert rc == 0
        net = load_network(path)
        gen = assemble_generator(net, 16)
        tr = simulate(gen, make_initial_state(net, gen, "sine"), dt=1e-2, t_end=0.05)
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        want = ["t", "H"]
        for j, t in enumerate(tr.traces):
            assert np.iscomplexobj(t)
            want += [h % (j, i) for i in range(t.shape[1]) for h in ("s%d_tau%d", "s%d_tau%d_im")]
        assert header == want
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        stacked = np.hstack(tr.traces)
        assert np.array_equal(table[:, :2], np.column_stack([tr.times, tr.energies]))
        assert np.array_equal(table[:, 2::2], stacked.real)
        assert np.array_equal(table[:, 3::2], stacked.imag)


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

    @pytest.mark.parametrize("beta_max", ["100", "1e4"])
    @pytest.mark.parametrize("name", ["mass_damped_string", "spring_mass_damper_string_beam"])
    def test_user_band_is_capped_at_the_trusted_band(self, tmp_path, capsys, name, beta_max):
        # past the trusted band the under-resolved modes' norms fall off:
        # uncapped, --beta-max 100 read trends 0.017 and 0.15 at n = 32, and
        # "exponentially stable (surrogate)" on both tip-mass scenarios
        path = tmp_path / "tip.json"
        path.write_text(json.dumps(_scenario_dump(name)))

        def run(*flags):
            assert main(["resolvent", str(path), "--n", "32",
                         "--out", str(tmp_path / "r.csv"), *flags]) == 0
            return json.loads(capsys.readouterr().out)

        default, user = run(), run("--beta-max", beta_max)
        assert "NOT indicated" in user["verdict"]
        assert user["beta_max"] <= default["beta_max"]


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

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_dump_with_null_params_is_the_default_dump(self, capsys, name):
        # null means no overrides, as in a file's scenario reference
        assert main(["scenario", "dump", name]) == 0
        default = capsys.readouterr().out
        assert json.loads(default) == _scenario_dump(name)
        assert main(["scenario", "dump", name, "--params", "null"]) == 0
        assert capsys.readouterr().out == default

    def test_dump_unknown_name(self, capsys):
        assert main(["scenario", "dump", "nope"]) == 2

    def test_dump_needs_name(self):
        assert main(["scenario", "dump"]) == 2

    @pytest.mark.parametrize("extra", [["chain_of_strings"], ["--params", "{}"]])
    def test_list_takes_no_argument(self, capsys, extra):
        assert main(["scenario", "list"] + extra) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


# the arguments each command declares, as its --help usage line names them
USAGE = {("check",): {"file"},
         ("spectrum",): {"file", "--n", "--out"},
         ("resolvent",): {"file", "--n", "--beta-max", "--samples", "--out"},
         ("simulate",): {"file", "--n", "--dt", "--t-end", "--x0", "--record-every", "--out"},
         ("scenario", "list"): set(),
         ("scenario", "dump"): {"name", "--params"}}


@pytest.mark.parametrize("command, declared", [pytest.param(*item, id=" ".join(item[0]))
                                               for item in USAGE.items()])
def test_help_usage_names_the_declared_arguments(capsys, command, declared):
    with pytest.raises(SystemExit) as stop:
        main(list(command) + ["--help"])
    assert stop.value.code == 0
    out = capsys.readouterr().out
    prog = "usage: phnet " + " ".join(command)
    usage = out[:out.index("\n\n")]
    assert usage.startswith(prog + " ")
    named = set(re.findall(r"[\w-]+", usage[len(prog):]))
    # each declared argument, and none that another command declares
    assert named & set().union(*USAGE.values()) == declared


def reject_nonfinite(token):
    raise ValueError("bare %s in JSON output" % token)


class TestNonFiniteReports:
    def test_one_encoder_writes_json_types(self, capsys):
        _emit({"count": np.int64(3),
               "nested": {"top": np.float32(np.inf), "values": [1.5, float("nan")],
                          "poles": [np.complex128(complex(np.nan, 1)), complex(1, np.inf)]}})
        doc = json.loads(capsys.readouterr().out, parse_constant=reject_nonfinite)
        assert doc == {"count": 3, "nested": {"top": None, "values": [1.5, None],
                                              "poles": [[None, 1.0], [1.0, None]]}}
        assert type(doc["count"]) is int

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

    def test_saved_non_finite_entry_is_null(self, tmp_path, capsys):
        net = build_chain(m=2)
        k_mat = np.array(net.k_mat)
        k_mat[0, 1] = np.nan
        path = tmp_path / "nan.json"
        save_network(dataclasses.replace(net, k_mat=k_mat), path)
        doc = json.loads(path.read_text(), parse_constant=reject_nonfinite)
        assert doc["k_mat"][0][1] is None
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot decode matrix for k_mat: matrix entries "
                              "must be finite numbers") and err.count("\n") == 1


CERTIFICATE_KEYS = ["kind", "pass", "margin", "marginal", "detail"]


class TestReportShapes:
    """Each report's keys, in order; counts are JSON integers."""

    def report(self, capsys, argv, rc=0):
        assert main(argv) == rc
        return json.loads(capsys.readouterr().out, parse_constant=reject_nonfinite)

    def assert_certificate(self, cert):
        # a failed certificate carries its witness, a passed one none
        assert list(cert) == CERTIFICATE_KEYS + ([] if cert["pass"] else ["witness"])

    def assert_check(self, report, serial_key, controllers):
        assert list(report) == (["schema", "subsystems", "passivity"]
                                + (["controllers"] if controllers else [])
                                + ["network_certificate", "serial", serial_key,
                                   "subsystems_valid", "pass"])
        assert type(report["schema"]) is int
        for rep in report["subsystems"]:
            assert list(rep) == ["passed", "checks"]
            assert all(list(c) == ["name", "passed", "margin", "detail"]
                       for c in rep["checks"])
        for entry in report["passivity"]:
            assert list(entry) == ["sym_p0", "impedance", "scattering"]
            for cert in entry.values():
                self.assert_certificate(cert)
        for cert in report.get("controllers", []) + [report["network_certificate"]]:
            self.assert_certificate(cert)
        assert all(type(i) is int for i in report[serial_key])

    def test_check_with_a_controller(self, tmp_path, capsys):
        path = tmp_path / "smd.json"
        path.write_text(json.dumps(_scenario_dump("spring_mass_damper_string_beam")))
        report = self.report(capsys, ["check", str(path)])
        self.assert_check(report, "serial_ordering", controllers=True)

    def test_failing_complex_check(self, tmp_path, capsys):
        net = random_passive_network(np.random.default_rng(5), 2, complex_ok=True)
        path = tmp_path / "active.json"
        save_network(dataclasses.replace(net, k_mat=-net.k_mat), path)
        report = self.report(capsys, ["check", str(path)], rc=1)
        self.assert_check(report, "serial_cycle", controllers=False)
        witness = report["network_certificate"]["witness"]
        assert witness and all(type(p) is list and len(p) == 2
                               and all(type(v) is float for v in p) for p in witness)

    def test_analysis_reports(self, tmp_path, capsys):
        path = tmp_path / "mds.json"
        path.write_text(json.dumps(_scenario_dump("mass_damped_string")))
        common = [str(path), "--n", "24", "--out", str(tmp_path / "o.csv")]
        spec = self.report(capsys, ["spectrum"] + common)
        assert list(spec) == ["schema", "abscissa", "n", "n_trusted", "n_raw",
                              "discarded", "zero_modes", "sym_drift", "verdict"]
        assert all(type(spec[k]) is int
                   for k in ("schema", "n", "n_trusted", "n_raw", "discarded", "zero_modes"))
        scan = self.report(capsys, ["resolvent"] + common)
        assert list(scan) == ["schema", "abscissa", "beta_max", "samples", "sup_norm",
                              "trend", "diverged", "diverged_betas", "verdict"]
        assert all(type(scan[k]) is int for k in ("schema", "samples", "diverged"))
        sim = self.report(capsys, ["simulate"] + common)
        assert list(sim) == ["schema", "dt", "t_end", "H0", "H_end", "decay_fit"]
        assert list(sim["decay_fit"]) == ["M", "eta"]


class TestExitCodes:
    """Exit 2 with one error line and no traceback for every bad input."""

    def assert_usage_error(self, rc, capsys):
        assert rc == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out == ""

    def test_params_not_json(self, capsys):
        rc = main(["scenario", "dump", "chain_of_strings", "--params", "{m: 2}"])
        self.assert_usage_error(rc, capsys)

    def test_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps({"schema": 1, "label": "\u00e9"},
                                    ensure_ascii=False).encode("latin-1"))
        self.assert_usage_error(main(["check", str(path)]), capsys)

    @pytest.mark.parametrize("name", ["nope", ["chain_of_strings"]], ids=["string", "list"])
    def test_unknown_scenario_in_file_reads_as_dump(self, tmp_path, capsys, name):
        # build_scenario alone owns the names: the file loader kept a second
        # message, and a list name read "unhashable type: 'list'"
        assert main(["scenario", "dump", "nope"]) == 2
        reason = capsys.readouterr().err[len("error: "):].replace("'nope'", repr(name))
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps({"schema": 1, "scenario": {"name": name}}))
        assert main(["check", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: cannot decode network: " + reason

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

    @pytest.mark.parametrize("m", ["2.5", '"3"', "[2]", "null", "0"])
    def test_chain_m_not_an_integer(self, capsys, m):
        # a fraction used to exit 2 with "can't multiply sequence by non-int
        # of type 'float'", a string with "'<' not supported between
        # instances of 'str' and 'int'"
        rc = main(["scenario", "dump", "chain_of_strings", "--params", '{"m": %s}' % m])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: m must be a positive integer, got ")

    def test_chain_m_integral_float(self, tmp_path, capsys):
        # an integral number counts as an integer, as order and dim do in a
        # file; 2.0 used to exit 2
        assert main(["scenario", "dump", "chain_of_strings", "--params", '{"m": 2.0}']) == 0
        path = tmp_path / "chain.json"
        path.write_text(capsys.readouterr().out)
        assert main(["check", str(path)]) == 0
        assert len(json.loads(capsys.readouterr().out)["subsystems"]) == 2

    @pytest.mark.parametrize("params", [{"m": 2, "lengths": [1e-300, 1]},
                                        {"m": 2, "kappa": [1e300, 0]}])
    def test_rank_deficiency_reports_relative_singular_value(self, tmp_path, capsys, params):
        # the rank rule is sigma <= REL_TOL sigma_max, and the message used
        # to give the absolute sigma_min, 1.55e+01 on both networks
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(
            {"schema": 1, "scenario": {"name": "chain_of_strings", "params": params}}))
        rc = main(["spectrum", str(path), "--n", "16", "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        ratio = re.search(r"sigma_min / sigma_max (\S+)\)", err)
        assert ratio and float(ratio.group(1)) <= 1e-10

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

    @pytest.mark.parametrize("name, params", [
        ("damper_string_beam", {"mass": -5}),
        ("spring_mass_damper_string_beam", {"kappa": -3}),
        ("chain_of_strings", {"rho": 0}),
        ("chain_of_strings", {"tension": 0.0}),
        ("chain_of_strings", {"lengths": []})])
    def test_scenario_parameter_its_builder_does_not_use(self, tmp_path, capsys, name,
                                                         params):
        # each coupled scenario took the other's keys, and a chain read a
        # falsy rho, tension or lengths as the default: exit 0, with a dump
        # that recorded values the network never used
        rc = main(["scenario", "dump", name, "--params", json.dumps(params)])
        self.assert_usage_error(rc, capsys)
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"schema": 1, "scenario": {"name": name, "params": params}}))
        self.assert_usage_error(main(["check", str(path)]), capsys)

    @pytest.mark.parametrize("key", ["rho", "tension", "kappa", "lengths"])
    def test_chain_parameter_not_a_list(self, capsys, key):
        # each used to read "'int' object is not iterable"
        rc = main(["scenario", "dump", "chain_of_strings", "--params", '{"%s": 0}' % key])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: %s must be a list of 3 entries, one per segment, got 0\n" % key

    @pytest.mark.parametrize("key, value, message", [
        ("interval", [0, 1, 2], "interval must be a list of 2 entries, got [0, 1, 2]"),
        ("interval", 1, "interval must be a list of 2 entries, got 1"),
        ("p_matrices", 3, "p_matrices (P_0..P_1) must be a list of 2 entries, got 3"),
        ("coupling", 3, "coupling must be a list, got 3"),
        ("coupling", [3], "coupling[0] must be a list, got 3"),
        ("external_ports", 3, "external_ports must be a list, got 3"),
        ("controllers", 3, "controllers must be a list, got 3"),
        ("subsystems", {"a": 1}, "subsystems must be a list, got {'a': 1}")],
        ids=["interval_triple", "interval_number", "p_matrices", "coupling", "coupling_row",
             "external_ports", "controllers", "subsystems_object"])
    def test_list_entry_not_a_list(self, tmp_path, capsys, key, value, message):
        # these used to read "too many values to unpack (expected 2)", "'int'
        # object is not iterable", "object of type 'int' has no len()" and
        # "string indices must be integers, not 'str'"
        doc = network_to_dict(build_scenario("spring_mass_damper_string_beam", {}))
        (doc["subsystems"][0] if key in ("interval", "p_matrices") else doc)[key] = value
        path = tmp_path / "lists.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: %s\n" % message

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

    @pytest.mark.parametrize("schema", [2, True])
    def test_unsupported_schema(self, tmp_path, capsys, schema):
        # True == 1 used to pass the schema check
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(
            {"schema": schema, "scenario": {"name": "chain_of_strings", "params": {}}}))
        self.assert_usage_error(main(["check", str(path)]), capsys)

    def test_schema_integral_float(self, tmp_path, capsys):
        # 1.0 reads as 1, as every other integer field does
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(
            {"schema": 1.0, "scenario": {"name": "chain_of_strings", "params": {}}}))
        assert main(["check", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True

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
        # an --out that cannot be written fails before the computation
        ["spectrum", "--out", "{tmp}/missing/o.csv"],
        ["spectrum", "--out", "{tmp}"],
        ["spectrum", "--out", ""],
        ["spectrum", "--out", "{tmp}/"],
        ["resolvent", "--out", "{tmp}/missing/o.csv"],
        ["resolvent", "--out", "{tmp}"],
        ["simulate", "--out", "{tmp}/missing/o.csv"],
        ["simulate", "--out", "{tmp}"],
    ])
    def test_bad_flag(self, tmp_path, capsys, argv):
        path = write_chain(tmp_path, m=1, kappa=[0.5])
        rc = main(argv[:1] + [path, "--n", "24", "--out", str(tmp_path / "o.csv")]
                  + [a.format(tmp=tmp_path) for a in argv[1:]])
        self.assert_usage_error(rc, capsys)

    @pytest.mark.parametrize("command", ["spectrum", "resolvent", "simulate"])
    @pytest.mark.parametrize("n", [10 ** 20, 4 * 10 ** 9])
    def test_n_too_large(self, tmp_path, capsys, command, n):
        # refused before any array of size n is allocated; 10**20 used to end
        # in numpy's "Maximum allowed dimension exceeded" traceback
        rc = main([command, write_chain(tmp_path, m=1, kappa=[0.5]), "--n", str(n),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: subsystem 0: n = %d too large" % n)

    @pytest.mark.parametrize("command", ["spectrum", "resolvent", "simulate"])
    def test_write_fails(self, tmp_path, capsys, monkeypatch, command):
        # a write refused after the parse-time check
        def refuse(*args):
            raise PermissionError(13, "Permission denied", "o.csv")
        monkeypatch.setattr("phnet.cli.write_csv", refuse)
        extra = ["--t-end", "0.05"] if command == "simulate" else []
        rc = main([command, write_chain(tmp_path, m=1, kappa=[0.5]), "--n", "24",
                   "--out", str(tmp_path / "o.csv")] + extra)
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

    def test_zero_initial_energy_reports_why_no_fit(self, tmp_path, capsys, monkeypatch):
        # a guard on H0 > 0 used to drop both keys
        monkeypatch.setattr("phnet.cli.make_initial_state",
                            lambda *args, **kwargs: 0.0 * make_initial_state(*args, **kwargs))
        rc = main(["simulate", write_chain(tmp_path, m=1, kappa=[0.5]), "--n", "24",
                   "--t-end", "1", "--out", str(tmp_path / "t.csv")])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["H0"] == 0.0 and summary["decay_fit"] is None
        assert summary["decay_fit_reason"] == "decay_fit needs H(0) > 0"


def _scenario_dump(name):
    """What `phnet scenario dump <name>` prints, as a JSON document."""
    return {"schema": 1,
            "scenario": {"name": name, "params": copy.deepcopy(SCENARIOS[name]["defaults"])}}


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
