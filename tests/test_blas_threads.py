"""spectrum, resolvent and simulate report the same results whatever the
BLAS thread count: one OpenBLAS thread and the library default give the
same exit codes, report keys, counts and verdicts, scalars within RTOL
relative, the same spectrum CSV as a set, and the same trace CSV header
and rows, each column within RTOL of its scale.  The spectrum's row order
is not compared: near-tied real parts may order the trusted eigenvalues by
their last digits.  simulate runs at a fixed dt, so its step count is
exact."""

import contextlib
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from phnet.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
RTOL = 1e-9
# report values that follow the rounding of threaded BLAS kernels
ROUNDED = {"abscissa", "sym_drift", "sup_norm", "trend", "beta_max", "diverged_betas",
           "H0", "H_end", "decay_fit"}
# variables OpenBLAS reads for its thread count
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def run_cli(args, threads, cwd):
    """(exit code, JSON report, CSV rows) of one phnet run in a child
    process, under OPENBLAS_NUM_THREADS=threads or, for None, the library
    default; the thread setting reaches the child alone."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    out = cwd / ("%s_%s.csv" % (args[0], threads))
    proc = subprocess.run([sys.executable, "-m", "phnet.cli"] + args + ["--out", str(out)],
                          env=env, cwd=cwd, capture_output=True, text=True, timeout=300)
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    return proc.returncode, json.loads(proc.stdout), rows


def as_eigenvalues(rows):
    assert rows[0] == ["re", "im"]
    return np.array([complex(float(re), float(im)) for re, im in rows[1:]])


def assert_same_set(one, default):
    """Each eigenvalue of one has a partner in default, one to one, whose
    real and imaginary parts agree within RTOL of their column's scale."""
    assert len(one) == len(default)
    i, j = linear_sum_assignment(np.abs(one[:, None] - default[None, :]))
    for part in (np.real, np.imag):
        scale = max(np.abs(part(one)).max(), np.abs(part(default)).max())
        assert np.abs(part(one[i]) - part(default[j])).max() <= RTOL * scale


def assert_same_table(one, default):
    """The same header, and each column within RTOL of its scale: its own
    largest entry for t and H, and for a trace column the largest trace
    entry, since one product trace_map @ v rounds all the traces."""
    assert one[0] == default[0]
    one, default = (np.array(rows[1:], dtype=float) for rows in (one, default))
    scale = np.maximum(np.abs(one).max(axis=0), np.abs(default).max(axis=0))
    scale[2:] = scale[2:].max()
    assert np.all(np.abs(one - default) <= RTOL * scale)


@pytest.mark.parametrize("name", ["chain_of_strings", "spring_mass_damper_string_beam"])
def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, name):
    path = tmp_path / "net.json"
    with open(path, "w") as f, contextlib.redirect_stdout(f):
        assert main(["scenario", "dump", name]) == 0
    for command, flags in (("spectrum", []), ("resolvent", []),
                           ("simulate", ["--dt", "1e-2", "--t-end", "0.5"])):
        args = [command, str(path), "--n", "32"] + flags
        rc_one, report_one, rows_one = run_cli(args, 1, tmp_path)
        rc_default, report_default, rows_default = run_cli(args, None, tmp_path)
        assert rc_one == rc_default == 0
        assert list(report_one) == list(report_default)
        for key, value in report_one.items():
            if key in ROUNDED:
                assert value == pytest.approx(report_default[key], rel=RTOL, abs=0), key
            else:
                assert value == report_default[key], key
        assert len(rows_one) == len(rows_default)
        if command == "spectrum":
            assert_same_set(as_eigenvalues(rows_one), as_eigenvalues(rows_default))
        elif command == "simulate":
            assert_same_table(rows_one, rows_default)
