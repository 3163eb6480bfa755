# Network JSON files and the batch CLI: dump a scenario, reload it, run the
# certification pipeline, and read the machine-readable reports.

import json
import subprocess
import sys
from pathlib import Path

from phnet import build_chain, load_network, save_network

workdir = Path("network_files_demo")
workdir.mkdir(exist_ok=True)

# A scenario reference keeps the file minimal and rebuilds on load.
chain_file = workdir / "chain.json"
chain_file.write_text(json.dumps({
    "schema": 1,
    "scenario": {"name": "chain_of_strings",
                 "params": {"m": 3, "kappa": [0.5, 0.0, 0.0]}},
}, indent=1))

# The same network can be stored fully explicitly (matrices as nested
# arrays, complex entries as [re, im] pairs).
explicit_file = workdir / "chain_explicit.json"
save_network(build_chain(m=3, kappa=[0.5, 0.0, 0.0]), explicit_file)
net = load_network(explicit_file)
print("explicit file reloaded: %d subsystems, k_mat %s"
      % (len(net.subsystems), net.k_mat.shape))

def run(*args):
    cmd = [sys.executable, "-m", "phnet.cli"] + list(args)
    proc = subprocess.run(cmd, capture_output=True, text=True)
    print("$ phnet " + " ".join(args))
    print("  exit code:", proc.returncode)
    return proc

proc = run("check", str(chain_file))
report = json.loads(proc.stdout)
print("  certified:", report["network_certificate"]["pass"],
      " serial:", report["serial"])

proc = run("spectrum", str(chain_file), "--n", "48",
           "--out", str(workdir / "spectrum.csv"))
print("  abscissa: %.5f  verdict: %s"
      % (json.loads(proc.stdout)["abscissa"], json.loads(proc.stdout)["verdict"]))

proc = run("simulate", str(chain_file), "--n", "32", "--dt", "0.005",
           "--t-end", "20", "--out", str(workdir / "trace.csv"))
print("  decay fit:", json.loads(proc.stdout)["decay_fit"])

proc = run("scenario", "list")
names = [e["name"] for e in json.loads(proc.stdout)["scenarios"]]
print("  built-in scenarios:", ", ".join(names))

print("\nartifacts in", workdir)
