"""phnet benchmark: three seeded workloads run in-process against the public API.

    python3 perfbench/run.py --workload sweep|scan|trajectory|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout: the program is imported from ./src.
setup_s is the median of three cold set-ups, each in a fresh interpreter.
The jobs then run in this one process, one at a time (closed loop).  BLAS
runs at its library default and PHNET_THREADS is left as found; both are
recorded.  Every job's result is checked by an independent oracle outside
the timed region (perfbench/oracles.py).

--trace 0 measures the end-to-end metrics.  --trace 1 runs every job twice
on the same input, once inside spans and once without, alternating which
goes first; the spans give the per-layer metrics and the difference of the
two timings gives trace.overhead_s.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines above it are a readable report
of all eight end-to-end metrics; the full record (environment, per-job
sizes, every metric) and the spans go to perfbench/out/.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 3

WORKLOADS = {
    "sweep": {
        "why": "A parameter sweep like `phnet check` + `phnet spectrum` serve: ~400 small "
               "heterogeneous networks (chains, beams, string-beam couplings, mass-damped "
               "strings, explicit random passive networks with controllers), ~15% "
               "non-dissipative by construction, n in {24, 32, 40}.",
        "loads": "netfile, model, passivity, network (certificates, serial detection); "
                 "discretize and spectrum at n_red 20-300, where they are overhead-bound",
        "bypasses": "resolvent_scan, simulate",
        "whole_passes": False,
    },
    "scan": {
        "why": "`phnet resolvent` with its defaults on five networks with n_red 96-188 "
               "(chain m=3 n=32, chain m=2 n=48, mass_damped_string n=48, "
               "spring_mass_damper_string_beam n=32, damper_string_beam n=40), giving "
               "both verdicts.",
        "loads": "analysis.resolvent_scan: one dense SVD per frequency, nearly all the time",
        "bypasses": "certificates, simulate",
        "whole_passes": True,
    },
    "trajectory": {
        "why": "`phnet simulate` with its defaults on chain m=10, n=48 (n_full 960, "
               "n_red 940): the only job where dense O(n^3) work and memory dominate; "
               "4000 Cayley steps at the default step (t_end about 10).",
        "loads": "simulate (Cayley LU + steps), spectrum and assemble_generator at n_red 940",
        "bypasses": "certificates, resolvent_scan",
        "whole_passes": True,
    },
}

# the end-to-end metrics BENCHMARK.json gates: every workload has them and
# they are never 0.  job_s_p50 is reported but not gated: over ten-seed sets
# on a shared 2-vCPU host its sweep spread was 11-18 %, against 8-14 % for
# jobs_per_s.
E2E_METRICS = ("setup_s", "jobs_per_s", "peak_rss_mb")

LAYERS = (
    "netfile.network_from_dict",
    "model.validate_subsystem",
    "passivity.subsystem_checks",
    "network.check_controller_passive",
    "network.certify_network_dissipative",
    "network.detect_serial_structure",
    "discretize.assemble_generator",
    "analysis.spectrum",
    "analysis.resolvent_scan",
    "analysis.exponential_verdict",
    "scenarios.make_initial_state",
    "simulate.default_dt",
    "simulate.simulate",
    "analysis.decay_fit",
)
# counts attached to spans, summed per layer
SPAN_COUNTS = {
    "discretize.assemble_generator": ("n_full", "n_red", "n_red_companion"),
    "analysis.spectrum": ("raw", "trusted"),
    "analysis.resolvent_scan": ("freqs", "diverged"),
    "simulate.simulate": ("steps",),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


SRC = ROOT / "src"

# one cold set-up, as a CLI user pays it: interpreter start, phnet import,
# the first generator assembly (first LAPACK calls), input generation
SETUP_CODE = """
import sys
sys.path[:0] = sys.argv[1:3]
import phnet, inputs
phnet.assemble_generator(phnet.build_chain(m=2), 24)
inputs.ITEMS[sys.argv[3]](int(sys.argv[4]))
"""


def cold_setup_s(workload, seed):
    """Wall time of SETUP_CODE in a fresh interpreter."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), workload,
                    str(seed)], check=True)
    return time.perf_counter() - start


def import_program():
    """Import phnet from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import phnet
    if Path(phnet.__file__).resolve().parent != (SRC / "phnet").resolve():
        sys.exit("perfbench: imported phnet from %s, not from %s" % (phnet.__file__, SRC))
    return phnet


def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads():
    """Thread count reported by each OpenBLAS library mapped into this process."""
    import ctypes
    libs = set()
    with open("/proc/self/maps") as f:
        for line in f:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower() and ".so" in path:
                libs.add(path)
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def environment():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "threads": blas_threads()},
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "PHNET_THREADS": os.environ.get("PHNET_THREADS"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}




def timed_phase(workload, items, seconds, traced):
    """Closed loop over the items until `seconds` of job time have passed.

    Scan and trajectory stop on a whole pass over their few items, so every
    run times the same mix.  Oracles run after each job, outside its timing.
    """
    from jobs import JOBS
    from oracles import ORACLES
    from spans import NullTracer, Tracer
    job_fn, oracle = JOBS[workload], ORACLES[workload]
    whole = WORKLOADS[workload]["whole_passes"]
    tracer, null = Tracer(), NullTracer()
    records, busy = [], 0.0
    cpu0, wall0 = os.times(), time.perf_counter()
    i = 0
    while busy < seconds or (whole and i % len(items)):
        item = items[i % len(items)]
        # traced runs: each input twice, alternating which tracer goes first
        modes = [null] if not traced else ([tracer, null] if i % 2 else [null, tracer])
        for mode in modes:
            rec = {"job": len(records), "input": i % len(items), "kind": item["kind"],
                   "traced": mode is tracer}
            out, start = None, time.perf_counter()
            try:
                with mode.job(rec["job"]):
                    out, rec["sizes"] = job_fn(mode, item)
            except Exception:
                rec["problems"] = ["raised: " + traceback.format_exc(limit=3)]
            rec["s"] = time.perf_counter() - start
            busy += rec["s"]
            peak = rss_mb()      # before this job's oracle runs
            if out is not None:
                if "sim_s" in out:
                    rec["sim_s"] = out["sim_s"]
                try:
                    rec["problems"] = oracle(item, out)
                except Exception:
                    rec["problems"] = ["oracle raised: " + traceback.format_exc(limit=3)]
            del out
            records.append(rec)
        i += 1
    cpu1 = os.times()
    wall = time.perf_counter() - wall0
    cpu = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
    return records, tracer.spans, {"wall_s": wall, "peak_rss_mb": peak, "cpu_s": cpu,
                                   "cpu_util": cpu / wall if wall > 0 else 0.0}


def tail(values):
    """Highest percentile with at least ten samples beyond it: (value, pct, beyond)."""
    n = len(values)
    if n < 11:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(workload, setup_info, records, phase):
    times = [r["s"] for r in records if "sizes" in r]
    failed = sum(1 for r in records if r["problems"])
    ok = len(times) > 0
    total = sum(r["s"] for r in records)
    m = {"setup_s": (setup_info["setup_s"], "s"),
         "wall_s": (phase["wall_s"], "s"),
         "jobs_per_s": ((len(records) - failed) / total if ok else None, "1/s"),
         "job_s_p50": (statistics.median(times) if ok else None, "s"),
         "job_s_tail": (None, "s"),
         "steps_per_s": (None, "1/s"),
         "peak_rss_mb": (phase["peak_rss_mb"], "MB"),
         "error_rate": (failed / len(records) if records else None, "ratio")}
    t = tail(times)
    if workload == "sweep" and t:
        m["job_s_tail"] = (t[0], "s")
    if workload == "trajectory" and ok:
        steps = sum(r["sizes"]["steps"] for r in records if "sim_s" in r)
        m["steps_per_s"] = (steps / sum(r["sim_s"] for r in records if "sim_s" in r), "1/s")
    notes = {"job_s_p50": "%d samples" % len(times),
             "jobs_per_s": "%d verified jobs over %.3f s of job time"
                           % (len(records) - failed, total),
             "error_rate": "%d/%d" % (failed, len(records)),
             "setup_s": "median of %d cold set-ups: %s s"
                        % (SETUP_REPS, ", ".join("%.3f" % v for v in setup_info["cold_s"]))}
    if t:
        notes["job_s_tail"] = "p%.2f, %d jobs beyond it" % (t[1], t[2])
    return m, notes


def per_layer(spans, records, phase):
    from spans import layer_totals
    totals = layer_totals(spans)
    m = {}
    for name in LAYERS:
        agg = totals.get(name, {"calls": 0, "busy_s": 0.0})
        m[name + ".calls"] = (agg["calls"], "count")
        m[name + ".busy_s"] = (agg["busy_s"], "s")
        for key in SPAN_COUNTS.get(name, ()):
            m[name + "." + key] = (sum(s.get(key, 0) for s in spans if s["name"] == name),
                                   "count")
    raw = m["analysis.spectrum.raw"][0]
    m["analysis.spectrum.trusted_ratio"] = (m["analysis.spectrum.trusted"][0] / raw
                                            if raw else 0.0, "ratio")
    freqs = m["analysis.resolvent_scan.freqs"][0]
    m["analysis.resolvent_scan.s_per_freq"] = (
        m["analysis.resolvent_scan.busy_s"][0] / freqs if freqs else 0.0, "s")
    steps = m["simulate.simulate.steps"][0]
    m["simulate.simulate.s_per_step"] = (
        m["simulate.simulate.busy_s"][0] / steps if steps else 0.0, "s")
    job = totals.get("job", {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    m["job.calls"] = (job["calls"], "count")
    m["job.busy_s"] = (job["busy_s"], "s")
    m["job.self_s"] = (job["self_s"], "s")
    m["process.cpu_s"] = (phase["cpu_s"], "s")
    m["process.cpu_util"] = (phase["cpu_util"], "ratio")
    pairs = {}          # jobs 2k and 2k+1 ran the same input, one of them traced
    for r in records:
        if "sizes" in r:
            pairs.setdefault(r["job"] // 2, {})[r["traced"]] = r["s"]
    # median pair difference times the pair count: a stall in one job of a
    # pair would otherwise swamp the few microseconds a span costs
    diffs = [v[True] - v[False] for v in pairs.values() if len(v) == 2]
    m["trace.overhead_s"] = (statistics.median(diffs) * len(diffs) if diffs else 0.0, "s")
    return m


def size_summary(records):
    keys = ("subsystems", "n_full", "n_red", "n_red_companion", "constraints",
            "freqs", "steps")
    out = []
    for k in keys:
        vals = [r["sizes"][k] for r in records if k in r.get("sizes", {})]
        if vals:
            out.append("%s %s-%s (median %s)" % (k, min(vals), max(vals),
                                                 statistics.median(vals)))
    return "; ".join(out)


def fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return "%.6g" % value


def run(args):
    if not (SRC / "phnet" / "__init__.py").is_file():
        sys.exit("perfbench: no phnet sources at %s; run from a full checkout" % SRC)
    # setup_s: the median of SETUP_REPS cold set-ups in fresh interpreters;
    # this process then sets up once more for itself
    cold = [cold_setup_s(args.workload, args.seed) for _ in range(SETUP_REPS)]
    start = time.perf_counter()
    phnet = import_program()
    sys.path.insert(0, str(HERE))
    import inputs
    phnet.assemble_generator(phnet.build_chain(m=2), 24)
    items = inputs.ITEMS[args.workload](args.seed)
    setup_info = {"setup_s": statistics.median(cold), "cold_s": cold,
                  "in_process_s": time.perf_counter() - start}
    records, spans, phase = timed_phase(args.workload, items, args.seconds, args.trace == 1)

    e2e, notes = end_to_end(args.workload, setup_info, records, phase)
    layer = per_layer(spans, records, phase) if args.trace else {}
    failed = sum(1 for r in records if r["problems"])
    env = environment()

    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "about": WORKLOADS[args.workload], "env": env,
              "setup": setup_info, "phase": phase,
              "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
              "notes": notes,
              "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layer.items()},
              "jobs": records}
    with open(OUT / (stem + ".json"), "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    if args.trace:
        with open(OUT / (stem + "-spans.json"), "w") as f:
            json.dump(spans, f)
            f.write("\n")

    about = WORKLOADS[args.workload]
    print("perfbench %s  seed %d  trace %d  (%s)" % (args.workload, args.seed, args.trace,
                                                    OUT / (stem + ".json")))
    print("  why: " + about["why"])
    print("  loads: %s; bypasses: %s" % (about["loads"], about["bypasses"]))
    print("  env: python %s numpy %s scipy %s, BLAS %s %s threads %s, nproc %s, "
          "PHNET_THREADS %s" % (env["python"], env["numpy"], env["scipy"],
                                env["blas"]["name"], env["blas"]["version"],
                                env["blas"]["threads"], env["nproc"],
                                env["PHNET_THREADS"] or "unset"))
    print("  sizes: " + size_summary(records))
    for name, (value, unit) in e2e.items():
        print("  %-12s %12s %-5s %s" % (name, fmt(value), unit, notes.get(name, "")))
    for name, (value, unit) in layer.items():
        print("  %-44s %12s %s" % (name, fmt(value), unit))
    for r in records:
        for p in r["problems"]:
            print("  job %d (%s): %s" % (r["job"], r["kind"], p.strip()))

    metrics = layer if args.trace else {k: e2e[k] for k in E2E_METRICS}
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args):
    """Each workload in its own process, one after another."""
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code = subprocess.run(cmd, cwd=ROOT).returncode
        if code:
            return code
    return 0


def main(argv=None):
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run(args)


if __name__ == "__main__":
    sys.exit(main())
