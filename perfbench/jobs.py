"""One job of each workload: the public phnet calls a CLI command makes.

Each call sits in a span named <module>.<function>; counts that the
per-layer report needs are attached to the span after the call.  A job
returns what the oracle needs and the job's size record.
"""

import time

from phnet import (assemble_generator, certify_network_dissipative,
                   check_controller_passive, check_impedance, check_scattering,
                   check_sym_p0, decay_fit, detect_serial_structure,
                   exponential_verdict, make_initial_state, network_from_dict,
                   resolvent_scan, simulate, spectrum, validate_subsystem)
from phnet.simulate import default_dt

# `phnet simulate` runs to t_end 10 at the default step; the chain of the
# trajectory workload gets dt ~ 2.5e-3 there.  A fixed step count keeps the
# work per job independent of the seeded dampers.
STEPS = 4000


def _network(tr, item, sizes):
    with tr.span("netfile.network_from_dict"):
        net = network_from_dict(item["doc"])
    sizes["subsystems"] = len(net.subsystems)
    sizes["n"] = [item["n"]] * len(net.subsystems)
    return net


def _generator_and_spectrum(tr, net, n, sizes):
    with tr.span("discretize.assemble_generator") as sp:
        gen = assemble_generator(net, n)
    sizes.update(n_full=gen.n_full, n_red=gen.n_red,
                 n_red_companion=gen.companion.n_red,
                 constraints=int(gen.meta["constraint"].shape[0]))
    sp.update(n_full=gen.n_full, n_red=gen.n_red, n_red_companion=gen.companion.n_red)
    with tr.span("analysis.spectrum") as sp:
        rep = spectrum(gen)
    sp.update(raw=len(rep.raw_eigenvalues), trusted=len(rep.eigenvalues))
    return gen, rep


def sweep_job(tr, item):
    """`phnet check`, then `phnet spectrum` when the network is certified."""
    sizes = {}
    net = _network(tr, item, sizes)
    for s in net.subsystems:
        with tr.span("model.validate_subsystem"):
            validate_subsystem(s)
        with tr.span("passivity.subsystem_checks"):
            check_sym_p0(s)
            check_impedance(s)
            check_scattering(s)
    for c in net.controllers:
        with tr.span("network.check_controller_passive"):
            check_controller_passive(c)
    with tr.span("network.certify_network_dissipative"):
        cert = certify_network_dissipative(net)
    with tr.span("network.detect_serial_structure"):
        detect_serial_structure(net)
    out = {"cert": cert}
    if cert.passed:
        out["gen"], out["rep"] = _generator_and_spectrum(tr, net, item["n"], sizes)
    return out, sizes


def scan_job(tr, item):
    """`phnet resolvent` with its defaults (samples 200, auto beta_max)."""
    sizes = {}
    net = _network(tr, item, sizes)
    gen, rep = _generator_and_spectrum(tr, net, item["n"], sizes)
    with tr.span("analysis.resolvent_scan") as sp:
        scan = resolvent_scan(gen, spectrum_report=rep)
    sp.update(freqs=len(scan.betas), diverged=int(scan.diverged.sum()))
    with tr.span("analysis.exponential_verdict"):
        verdict = exponential_verdict(rep, scan)
    sizes["freqs"] = len(scan.betas)
    return {"gen": gen, "scan": scan, "verdict": verdict}, sizes


def trajectory_job(tr, item):
    """`phnet simulate` with its defaults (sine start, default dt), STEPS steps."""
    sizes = {}
    net = _network(tr, item, sizes)
    gen, rep = _generator_and_spectrum(tr, net, item["n"], sizes)
    with tr.span("scenarios.make_initial_state"):
        x0 = make_initial_state(net, gen, "sine")
    with tr.span("simulate.default_dt"):
        dt = default_dt(gen, rep)
    start = time.perf_counter()
    with tr.span("simulate.simulate") as sp:
        trace = simulate(gen, x0, dt=dt, t_end=STEPS * dt, record_every=1)
    sim_s = time.perf_counter() - start
    sp.update(steps=trace.meta["steps"])
    with tr.span("analysis.decay_fit"):
        fit = decay_fit(trace)
    sizes["steps"] = trace.meta["steps"]
    return {"gen": gen, "x0": x0, "trace": trace, "fit": fit, "sim_s": sim_s}, sizes


JOBS = {"sweep": sweep_job, "scan": scan_job, "trajectory": trajectory_job}
