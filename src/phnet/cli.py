"""Batch front door: phnet check | spectrum | simulate | resolvent | scenario.

Reports are JSON on stdout (schema 1); tabular output goes to CSV files
with '.' decimals, ',' separators, a header row, and LF line endings.
Non-finite numbers are reported as null.  Exit codes: 0 success /
certified, 1 failed certification, 2 schema, parse or parameter error,
non-positive numeric flag, non-finite file entry, a dt and t_end that give
no step count or Cayley factor, or memory exhausted (one line on stderr).
The only parallelism is BLAS's, set by OPENBLAS_NUM_THREADS; a random
start is seeded by --x0 random:<seed> (random alone means random:0).
"""

import argparse
import json
import sys
import numpy as np

from .analysis import (decay_fit, exponential_verdict, resolvent_scan, spectrum)
from .discretize import assemble_generator
from .model import PHStructuralError, validate_subsystem
from .netfile import NetworkFileError, load_network, network_to_dict, parse_json
from .network import NotSerial, detect_serial_structure
from .passivity import (certify_network_dissipative, check_controller_passive,
                        check_impedance, check_scattering, check_sym_p0)
from .scenarios import SCENARIOS, ScenarioError, build_scenario, make_initial_state
from .simulate import StepSizeError, simulate, write_csv

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


def _emit(doc):
    print(json.dumps(_finite(doc), indent=1, default=_json_default))


def _finite(x):
    """Copy of a report with NaN and infinities, which JSON lacks, as None."""
    if isinstance(x, dict):
        return {k: _finite(v) for k, v in x.items()}
    if isinstance(x, np.ndarray):
        x = x.tolist()
    if isinstance(x, (list, tuple)):
        return [_finite(v) for v in x]
    if isinstance(x, (float, np.floating)) and not np.isfinite(x):
        return None
    return x


def _json_default(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, complex):
        return [x.real, x.imag]
    raise TypeError(repr(x))


def cmd_check(args):
    net = load_network(args.file)
    report = {"schema": 1, "subsystems": [], "passivity": []}
    ok_subsystems = True
    for j, s in enumerate(net.subsystems):
        rep = validate_subsystem(s)
        ok_subsystems &= rep.passed
        report["subsystems"].append(rep.to_dict())
        report["passivity"].append({
            "sym_p0": check_sym_p0(s).to_dict(),
            "impedance": check_impedance(s).to_dict(),
            "scattering": check_scattering(s).to_dict(),
        })
    if net.controllers:
        report["controllers"] = [check_controller_passive(c).to_dict()
                                 for c in net.controllers]
    cert = certify_network_dissipative(net)
    report["network_certificate"] = cert.to_dict()
    serial = detect_serial_structure(net)
    if isinstance(serial, NotSerial):
        report["serial"] = False
        report["serial_cycle"] = list(serial.cycle)
    else:
        report["serial"] = True
        report["serial_ordering"] = list(serial.ordering)
    passed = bool(ok_subsystems and cert.passed)
    report["subsystems_valid"] = bool(ok_subsystems)
    report["pass"] = passed
    _emit(report)
    return 0 if passed else 1


def cmd_spectrum(args):
    net = load_network(args.file)
    gen = assemble_generator(net, args.n)
    rep = spectrum(gen)
    write_csv(args.out, ["re", "im"], [rep.eigenvalues.real, rep.eigenvalues.imag])
    summary = {"schema": 1, "abscissa": rep.abscissa, "n": args.n}
    summary.update(rep.to_dict())
    summary["verdict"] = exponential_verdict(rep, None)
    _emit(summary)
    return 0


def cmd_resolvent(args):
    net = load_network(args.file)
    gen = assemble_generator(net, args.n)
    rep = spectrum(gen)
    scan = resolvent_scan(gen, beta_max=args.beta_max, samples=args.samples,
                          spectrum_report=rep)
    write_csv(args.out, ["beta", "norm"],
              [scan.betas[~scan.diverged], scan.norms[~scan.diverged]])
    summary = {"schema": 1, "abscissa": rep.abscissa}
    summary.update(scan.to_dict())
    summary["diverged_betas"] = scan.betas[scan.diverged].tolist()
    summary["verdict"] = exponential_verdict(rep, scan)
    _emit(summary)
    return 0


def cmd_simulate(args):
    net = load_network(args.file)
    gen = assemble_generator(net, args.n)
    x0 = make_initial_state(net, gen, preset=args.x0)
    trace = simulate(gen, x0, dt=args.dt, t_end=args.t_end,
                     record_every=args.record_every)
    trace.to_csv(args.out)
    summary = {"schema": 1, "dt": trace.meta["dt"], "t_end": args.t_end,
               "H0": float(trace.energies[0]),
               "H_end": float(trace.energies[-1])}
    if trace.warning:
        summary["warning"] = trace.warning
    if trace.energies[0] > 0:
        try:
            m_const, eta = decay_fit(trace)
            summary["decay_fit"] = {"M": m_const, "eta": eta}
        except ValueError as exc:       # too few samples or a nonpositive energy
            summary["decay_fit"] = None
            summary["decay_fit_reason"] = str(exc)
    _emit(summary)
    return 0


def cmd_scenario(args):
    if args.action == "list":
        _emit({"schema": 1,
               "scenarios": [{"name": k, "doc": v["doc"], "defaults": v["defaults"]}
                             for k, v in sorted(SCENARIOS.items())]})
        return 0
    params = parse_json(args.params, "--params") if args.params else {}
    net = build_scenario(args.name, params)
    merged = dict(SCENARIOS[args.name]["defaults"])
    merged.update(params or {})
    _emit(network_to_dict(net, scenario=(args.name, merged)))
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
    sp.add_argument("--out", default="spectrum.csv")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("resolvent", help="imaginary-axis resolvent scan")
    common(sp)
    sp.add_argument("--beta-max", type=_positive(float), default=None)
    sp.add_argument("--samples", type=_positive(int), default=200)
    sp.add_argument("--out", default="resolvent.csv")
    sp.set_defaults(func=cmd_resolvent)

    sp = sub.add_parser("simulate", help="contractive time integration")
    common(sp)
    sp.add_argument("--dt", type=_positive(float), default=None)
    sp.add_argument("--t-end", type=_positive(float), default=10.0)
    sp.add_argument("--x0", default="sine", help="sine | bump | random[:seed]")
    sp.add_argument("--record-every", type=_positive(int), default=1)
    sp.add_argument("--out", default="trace.csv")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("scenario", help="list built-in scenarios or dump one as JSON")
    sp.add_argument("action", choices=["list", "dump"])
    sp.add_argument("name", nargs="?")
    sp.add_argument("--params", default=None, help="JSON object of overrides")
    sp.set_defaults(func=cmd_scenario)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "scenario" and args.action == "dump" and not args.name:
            parser.error("scenario dump needs a name")
        return args.func(args)
    except (argparse.ArgumentError, NetworkFileError, ScenarioError,
            PHStructuralError, StepSizeError, MemoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
