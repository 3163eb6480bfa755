"""Network description files: JSON with matrices as nested arrays.

A file carries either explicit subsystems or a scenario reference, never
both.  Complex entries are [re, im] pairs at the scalar position.  The
top-level keys are

    {"schema": 1,
     "scenario": {"name": ..., "params": {...}}          # or:
     "subsystems": [{"order", "dim", "p_matrices", "hamiltonian",
                     "w_b", "w_c", "interval"}, ...],
     "controllers": [{"a_c", "b_c", "c_c", "d_c", "state_weight"}, ...],
     "coupling": [[port rows], ...],
     "k_mat": [[...]] | null,
     "external_ports": [...]}

Unknown keys are ignored; older files that declare "serial_blocks" still
load, and the serial structure is derived from the closed loop.
"""

import json
import numbers

from .model import MatrixFunction, PHSubsystem, _decode_array, _encode_array
from .network import Controller, Network
from .scenarios import SCENARIOS, build_scenario


class NetworkFileError(ValueError):
    """Schema violation or undecodable content in a network file."""


def _matrix(obj, what):
    try:
        return _decode_array(obj, 2)
    except Exception as exc:
        raise NetworkFileError("cannot decode matrix for %s: %s" % (what, exc)) from exc


def _integer(obj, what):
    """An integral JSON number; booleans and fractions are schema errors."""
    integral = (isinstance(obj, numbers.Integral)
                or isinstance(obj, float) and obj.is_integer())
    if isinstance(obj, bool) or not integral:
        raise NetworkFileError("%s must be an integer, got %r" % (what, obj))
    return int(obj)


def _real(obj, what):
    """A real JSON number; booleans and other values are schema errors."""
    if isinstance(obj, bool) or not isinstance(obj, numbers.Real):
        raise NetworkFileError("%s must be a number, got %r" % (what, obj))
    return float(obj)


def subsystem_to_dict(s):
    p_list = [None if s.p0 is None else s.p0.to_dict()]
    for k in range(1, s.order + 1):
        p_list.append(_encode_array(s.p_matrices[k]))
    return {"order": s.order, "dim": s.dim, "p_matrices": p_list,
            "hamiltonian": s.hamiltonian.to_dict(),
            "w_b": _encode_array(s.w_b), "w_c": _encode_array(s.w_c),
            "interval": list(s.interval), "label": s.label}


def subsystem_from_dict(d):
    order, dim = _integer(d["order"], "order"), _integer(d["dim"], "dim")
    raw = d["p_matrices"]
    if len(raw) != order + 1:
        raise NetworkFileError("p_matrices must list P_0..P_%d" % order)
    p0 = raw[0]
    if p0 is not None:
        p0 = (MatrixFunction.from_dict(p0) if isinstance(p0, dict)
              else MatrixFunction.constant(_matrix(p0, "P_0")))
    p_list = [p0] + [_matrix(raw[k], "P_%d" % k) for k in range(1, order + 1)]
    ham = d["hamiltonian"]
    ham = (MatrixFunction.from_dict(ham) if isinstance(ham, dict)
           else MatrixFunction.constant(_matrix(ham, "H")))
    return PHSubsystem(order=order, dim=dim, p_matrices=tuple(p_list),
                       hamiltonian=ham,
                       w_b=_matrix(d["w_b"], "W_B"), w_c=_matrix(d["w_c"], "W_C"),
                       interval=tuple(_real(v, "interval endpoint")
                                      for v in d.get("interval", (0.0, 1.0))),
                       label=d.get("label", ""))


def controller_to_dict(c):
    return {"a_c": _encode_array(c.a_c), "b_c": _encode_array(c.b_c),
            "c_c": _encode_array(c.c_c), "d_c": _encode_array(c.d_c),
            "state_weight": _encode_array(c.state_weight)}


def controller_from_dict(d):
    return Controller(a_c=_matrix(d["a_c"], "A_c"), b_c=_matrix(d["b_c"], "B_c"),
                      c_c=_matrix(d["c_c"], "C_c"), d_c=_matrix(d["d_c"], "D_c"),
                      state_weight=_matrix(d["state_weight"], "state_weight"))


def network_to_dict(net, scenario=None):
    """Serializable document; pass scenario=(name, params) to reference one."""
    doc = {"schema": 1}
    if scenario is not None:
        name, params = scenario
        doc["scenario"] = {"name": name, "params": params or {}}
        return doc
    doc["subsystems"] = [subsystem_to_dict(s) for s in net.subsystems]
    doc["controllers"] = [controller_to_dict(c) for c in net.controllers]
    doc["coupling"] = [list(c) for c in net.coupling]
    doc["k_mat"] = None if net.k_mat is None else _encode_array(net.k_mat)
    doc["external_ports"] = list(net.external_ports)
    if net.label:
        doc["label"] = net.label
    return doc


def network_from_dict(doc):
    """Network of a document; any malformed content raises NetworkFileError."""
    try:
        return _network_from_dict(doc)
    except NetworkFileError:
        raise
    except KeyError as exc:
        raise NetworkFileError("entry missing key %s" % exc) from exc
    except (TypeError, ValueError) as exc:    # scenario and structural errors too
        raise NetworkFileError("cannot decode network: %s" % exc) from exc


def _network_from_dict(doc):
    if not isinstance(doc, dict):
        raise NetworkFileError("top level must be a JSON object")
    if doc.get("schema") != 1:
        raise NetworkFileError("unsupported schema %r (expected 1)" % (doc.get("schema"),))
    has_scenario = "scenario" in doc and doc["scenario"] is not None
    has_subsystems = bool(doc.get("subsystems"))
    if has_scenario and has_subsystems:
        raise NetworkFileError("give either explicit subsystems or a scenario "
                               "reference, not both")
    if has_scenario:
        sc = doc["scenario"] if isinstance(doc["scenario"], dict) else {}
        name = sc.get("name")
        if name not in SCENARIOS:
            raise NetworkFileError("unknown scenario %r (known: %s)"
                                   % (name, sorted(SCENARIOS)))
        return build_scenario(name, sc.get("params"))
    if not has_subsystems:
        raise NetworkFileError("need a 'subsystems' list or a 'scenario' reference")
    subsystems = [subsystem_from_dict(d) for d in doc["subsystems"]]
    controllers = [controller_from_dict(d) for d in doc.get("controllers") or []]
    coupling = [tuple(_integer(i, "coupling entry") for i in row)
                for row in doc.get("coupling") or []]
    k_mat = doc.get("k_mat")
    if k_mat is not None:
        k_mat = _matrix(k_mat, "k_mat")
    return Network(subsystems=subsystems, controllers=controllers,
                   k_mat=k_mat, coupling=coupling,
                   external_ports=tuple(_integer(i, "external port")
                                        for i in doc.get("external_ports") or ()),
                   label=doc.get("label", ""))


def parse_json(text, where):
    """JSON document of text; malformed JSON, or JSON nested beyond the
    decoder's recursion limit, raises NetworkFileError."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise NetworkFileError("malformed JSON in %s: %s" % (where, exc)) from exc


def load_network(path):
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise NetworkFileError("%s is not UTF-8 text: %s" % (path, exc)) from exc
    except OSError as exc:
        raise NetworkFileError(str(exc)) from exc
    return network_from_dict(parse_json(text, path))


def save_network(net, path, scenario=None):
    with open(path, "w") as f:
        json.dump(network_to_dict(net, scenario=scenario), f, indent=1)
        f.write("\n")
