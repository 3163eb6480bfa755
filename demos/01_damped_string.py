# A single boundary-damped string, end to end:
# validate the subsystem, certify the closure, compare the discrete
# spectrum against the characteristic equation, and watch the energy decay.

import numpy as np

from phnet import (assemble_generator, build_chain, certify_network_dissipative,
                   check_impedance, decay_fit, flux_form, make_initial_state,
                   simulate, spectrum, validate_subsystem)

# The chain scenario with one segment is the classic damped string:
# w_tt = w_zz on (0,1), T w_z(0) = kappa w_t(0), free right end.
kappa = 0.5
net = build_chain(m=1, kappa=[kappa])
string = net.subsystems[0]

report = validate_subsystem(string)
print("validation passed:", report.passed)
for check in report.checks:
    print("  %-28s %s  margin=%.3e" % (check["name"], check["passed"], check["margin"]))

# The boundary flux form Q encodes Re<Ax, x> = tau* Q tau / 2.
print("\nflux matrix Q:\n", flux_form(string))
print("impedance passive:", check_impedance(string).passed)
print("closed loop certified dissipative:",
      certify_network_dissipative(net).passed)

# Separation of variables gives e^{2 lambda} = (1-kappa)/(1+kappa):
# a vertical line of eigenvalues at Re = ln((1-k)/(1+k))/2.
gen = assemble_generator(net, 64)
rep = spectrum(gen)
target = 0.5 * np.log((1 - kappa) / (1 + kappa))
print("\nspectral abscissa: %.9f   (exact %.9f)" % (rep.abscissa, target))
for k in range(5):
    lam = target + 1j * np.pi * k
    err = np.min(np.abs(rep.eigenvalues - lam))
    print("  mode k=%d:  |discrete - exact| = %.2e" % (k, err))
print("trusted %d of %d raw eigenvalues (two-grid filter)"
      % (len(rep.eigenvalues), len(rep.raw_eigenvalues)))

# Energy decays at twice the modal rate: H(t) ~ e^{2 Re lambda t}.
x0 = make_initial_state(net, gen, "sine")
trace = simulate(gen, x0, dt=5e-3, t_end=10.0, record_every=5)
m_const, eta = decay_fit(trace)
print("\nsimulated decay: H(t) <= %.2f exp(%.4f t) H(0)   (2*abscissa = %.4f)"
      % (m_const, eta, 2 * rep.abscissa))
trace.to_csv("damped_string_trace.csv")
print("trace written to damped_string_trace.csv")
