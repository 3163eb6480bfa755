"""Batch front door: phnet check | spectrum | simulate | resolvent | scenario.

The parser declares every usage rule.  Each command shapes its whole
output here: a schema-1 JSON report on stdout, through model's one
encoder, which writes network files too (complex numbers as [re, im], NaN
and infinity, in either part too, as null), and a CSV table at --out
through write_csv ('.' decimals, ',' separators, a header row, LF line
endings).  Exit codes: 0 success / certified, 1 failed certification, 2
schema, parse or parameter error, non-positive numeric flag, an --out
that cannot be written (checked at parse time, before any computation),
non-finite file entry, a dt and t_end that give no step count or Cayley
factor, or memory exhausted (one line on stderr).
The only parallelism is BLAS's, set by OPENBLAS_NUM_THREADS; a random
start is seeded by --x0 random:<seed> (random alone means random:0).
"""

import argparse
import json
import os
import sys
import numpy as np

from .analysis import (decay_fit, exponential_verdict, resolvent_scan, spectrum)
from .discretize import assemble_generator
from .model import PHStructuralError, _encode, validate_subsystem
from .netfile import NetworkFileError, load_network, parse_json
from .network import NotSerial, detect_serial_structure
from .passivity import (certify_network_dissipative, check_controller_passive,
                        check_impedance, check_scattering, check_sym_p0)
from .scenarios import SCENARIOS, ScenarioError, build_scenario, make_initial_state
from .simulate import StepSizeError, simulate

DEFAULT_N = 48


class _Parser(argparse.ArgumentParser):
    def error(self, message):           # main reports it in one line
        raise argparse.ArgumentError(None, message)


def _positive(kind):
    """argparse type: a finite `kind` value greater than zero."""
    def parse(text):
        value = kind(text)
        if not (value > 0 and np.isfinite(value)):
            raise argparse.ArgumentTypeError("must be positive and finite, got %s" % text)
        return value
    parse.__name__ = kind.__name__
    return parse


def _out_path(text):
    """argparse type for --out: a file name, not a directory, in a writable directory."""
    parent, name = os.path.split(text)
    parent = parent or "."
    if not name or os.path.isdir(text):
        raise argparse.ArgumentTypeError("%r is not a file name" % text)
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise argparse.ArgumentTypeError("%s is not a writable directory" % parent)
    return text


def _emit(doc):
    print(json.dumps(_encode(doc), indent=1))


def write_csv(path, header, columns):
    """One header row, then one row of %.17g values per entry of the columns."""
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in zip(*columns):
            f.write(",".join("%.17g" % v for v in row) + "\n")


def _cert_report(cert):
    """A certificate's report entry; detail and witness only when present."""
    entry = {"kind": cert.kind, "pass": cert.passed, "margin": cert.margin,
             "marginal": cert.marginal}
    if cert.detail:
        entry["detail"] = cert.detail
    if cert.witness is not None:
        entry["witness"] = cert.witness
    return entry


def cmd_check(args):
    net = load_network(args.file)
    reports = [validate_subsystem(s) for s in net.subsystems]
    valid = all(rep.passed for rep in reports)
    cert = certify_network_dissipative(net)
    serial = detect_serial_structure(net)
    passed = bool(valid and cert.passed)
    report = {"schema": 1,
              "subsystems": [{"passed": rep.passed, "checks": rep.checks} for rep in reports],
              "passivity": [{"sym_p0": _cert_report(check_sym_p0(s)),
                             "impedance": _cert_report(check_impedance(s)),
                             "scattering": _cert_report(check_scattering(s))}
                            for s in net.subsystems]}
    if net.controllers:
        report["controllers"] = [_cert_report(check_controller_passive(c))
                                 for c in net.controllers]
    report["network_certificate"] = _cert_report(cert)
    if isinstance(serial, NotSerial):
        report["serial"] = False
        report["serial_cycle"] = serial.cycle
    else:
        report["serial"] = True
        report["serial_ordering"] = serial.ordering
    report["subsystems_valid"] = valid
    report["pass"] = passed
    _emit(report)
    return 0 if passed else 1


def cmd_spectrum(args):
    net = load_network(args.file)
    gen = assemble_generator(net, args.n)
    rep = spectrum(gen)
    write_csv(args.out, ["re", "im"], [rep.eigenvalues.real, rep.eigenvalues.imag])
    _emit({"schema": 1, "abscissa": rep.abscissa, "n": args.n,
           "n_trusted": len(rep.eigenvalues), "n_raw": len(rep.raw_eigenvalues),
           "discarded": rep.discarded, "zero_modes": len(rep.zero_modes),
           "sym_drift": gen.meta["sym_drift"], "verdict": exponential_verdict(rep, None)})
    return 0


def cmd_resolvent(args):
    net = load_network(args.file)
    gen = assemble_generator(net, args.n)
    rep = spectrum(gen)
    scan = resolvent_scan(gen, beta_max=args.beta_max, samples=args.samples,
                          spectrum_report=rep)
    write_csv(args.out, ["beta", "norm"],
              [scan.betas[~scan.diverged], scan.norms[~scan.diverged]])
    _emit({"schema": 1, "abscissa": rep.abscissa, "beta_max": scan.beta_max,
           "samples": len(scan.betas), "sup_norm": scan.sup_norm, "trend": scan.trend,
           "diverged": scan.diverged.sum(), "diverged_betas": scan.betas[scan.diverged],
           "verdict": exponential_verdict(rep, scan)})
    return 0


def cmd_simulate(args):
    net = load_network(args.file)
    gen = assemble_generator(net, args.n)
    x0 = make_initial_state(net, gen, preset=args.x0)
    trace = simulate(gen, x0, dt=args.dt, t_end=args.t_end,
                     record_every=args.record_every)
    # t, H, then s<j>_tau<i> per trace component, each of a complex trace followed by its _im
    header, columns = ["t", "H"], [trace.times, trace.energies]
    for j, tr in enumerate(trace.traces):
        for i in range(tr.shape[1]):
            header.append("s%d_tau%d" % (j, i))
            columns.append(tr[:, i].real)
            if np.iscomplexobj(tr):
                header.append("s%d_tau%d_im" % (j, i))
                columns.append(tr[:, i].imag)
    write_csv(args.out, header, columns)
    report = {"schema": 1, "dt": trace.meta["dt"], "t_end": args.t_end,
              "H0": trace.energies[0], "H_end": trace.energies[-1]}
    if trace.warning:
        report["warning"] = trace.warning
    try:
        m_const, eta = decay_fit(trace)
        report["decay_fit"] = {"M": m_const, "eta": eta}
    except ValueError as exc:           # too few samples or a nonpositive energy
        report["decay_fit"] = None
        report["decay_fit_reason"] = str(exc)
    _emit(report)
    return 0


def cmd_scenario_list(args):
    _emit({"schema": 1,
           "scenarios": [{"name": k, "doc": v["doc"], "defaults": v["defaults"]}
                         for k, v in sorted(SCENARIOS.items())]})
    return 0


def cmd_scenario_dump(args):
    params = parse_json(args.params, "--params") if args.params else {}
    build_scenario(args.name, params)       # a reference is written only if it builds
    _emit({"schema": 1, "scenario": {"name": args.name, "params": {
        **SCENARIOS[args.name]["defaults"], **(params or {})}}})
    return 0


def build_parser():
    p = _Parser(prog="phnet", description="port-Hamiltonian network toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("file", help="network JSON file")
        sp.add_argument("--n", type=int, default=DEFAULT_N,
                        help="collocation points per subsystem")

    sp = sub.add_parser("check", help="validate, certify dissipativity, detect serial structure")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("spectrum", help="trusted eigenvalues and spectral abscissa")
    common(sp)
    sp.add_argument("--out", type=_out_path, default="spectrum.csv")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("resolvent", help="imaginary-axis resolvent scan")
    common(sp)
    sp.add_argument("--beta-max", type=_positive(float), default=None,
                    help="band top, capped at 0.7 max |Im| of the trusted eigenvalues")
    sp.add_argument("--samples", type=_positive(int), default=200)
    sp.add_argument("--out", type=_out_path, default="resolvent.csv")
    sp.set_defaults(func=cmd_resolvent)

    sp = sub.add_parser("simulate", help="contractive time integration")
    common(sp)
    sp.add_argument("--dt", type=_positive(float), default=None)
    sp.add_argument("--t-end", type=_positive(float), default=10.0)
    sp.add_argument("--x0", default="sine", help="sine | bump | random[:seed]")
    sp.add_argument("--record-every", type=_positive(int), default=1)
    sp.add_argument("--out", type=_out_path, default="trace.csv")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("scenario", help="list built-in scenarios or dump one as JSON")
    actions = sp.add_subparsers(dest="action", required=True)
    ap = actions.add_parser("list", help="names, descriptions and default parameters")
    ap.set_defaults(func=cmd_scenario_list)
    ap = actions.add_parser("dump", help="a scenario reference file on stdout")
    ap.add_argument("name")
    ap.add_argument("--params", default=None, help="JSON object of overrides")
    ap.set_defaults(func=cmd_scenario_dump)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (argparse.ArgumentError, NetworkFileError, ScenarioError,
            PHStructuralError, StepSizeError, MemoryError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
