"""CLI subcommands: exit codes, JSON reports, CSV outputs."""

import json

import numpy as np
import pytest

from phnet import (MatrixFunction, Network, PHSubsystem, build_chain,
                   network_to_dict, save_network)
from phnet.cli import main


def write_chain(tmp_path, **kwargs):
    path = tmp_path / "chain.json"
    params = {"m": 3, "kappa": [0.5, 0.0, 0.0]}
    params.update(kwargs)
    path.write_text(json.dumps(
        {"schema": 1, "scenario": {"name": "chain_of_strings", "params": params}}))
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

    def test_unknown_scenario_param_in_file(self, tmp_path, capsys):
        self.assert_usage_error(main(["check", write_chain(tmp_path, bogus=1)]), capsys)

    def test_non_integer_order(self, tmp_path, capsys):
        doc = network_to_dict(build_chain(m=1, kappa=[0.5]))
        doc["subsystems"][0]["order"] = "x"
        path = tmp_path / "order.json"
        path.write_text(json.dumps(doc))
        self.assert_usage_error(main(["check", str(path)]), capsys)

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
        ["simulate", "--record-every", "0"],
        ["simulate", "--x0", "random:abc"],
        ["resolvent", "--samples", "-1"],
        ["spectrum", "--n", "abc"],
        ["spectrum", "--bogus"],
    ])
    def test_bad_flag(self, tmp_path, capsys, argv):
        path = write_chain(tmp_path, m=1, kappa=[0.5])
        rc = main(argv[:1] + [path, "--n", "24", "--out", str(tmp_path / "o.csv")]
                  + argv[1:])
        self.assert_usage_error(rc, capsys)

    def test_too_few_samples_for_decay_fit(self, tmp_path, capsys):
        rc = main(["simulate", write_chain(tmp_path, m=1, kappa=[0.5]), "--n", "24",
                   "--t-end", "2", "--dt", "1e-2", "--record-every", "50",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["decay_fit"] is None
        assert "at least 32 samples" in summary["decay_fit_reason"]
