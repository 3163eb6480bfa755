# Mixed-order coupling: a wave segment transmitting into an Euler-Bernoulli
# beam, damped either by a boundary damper or by a tip mass-spring-damper
# controller.  The controller network satisfies Re<Ax, x> = -r |x_c,2|^2
# exactly at the discrete level.

import numpy as np

from phnet import (assemble, assemble_generator, build_damper_string_beam,
                   build_spring_mass_damper_string_beam, certify_network_dissipative,
                   spectrum)

print("damper-string-beam")
net = build_damper_string_beam(kappa=1.0)
print("  certified:", certify_network_dissipative(net).passed)
gen = assemble_generator(net, 40)
print("  spectral abscissa: %.4f" % spectrum(gen).abscissa)

print("\nspring-mass-damper-string-beam (m = k = r = 1)")
net = build_spring_mass_damper_string_beam()
ctrl = net.controllers[0]
print("  controller eigenvalues:", np.round(np.linalg.eigvals(ctrl.a_c), 6),
      " (exact -(r +- sqrt(r^2-4km))/2m)")
print("  certified:", certify_network_dissipative(net).passed)

closed = assemble(net)
print("  constraint rows: %d over %d trace components + %d controller states"
      % (closed.w_b_net.shape[0], closed.w_b_net.shape[1], closed.c_c_net.shape[1]))

gen = assemble_generator(net, 32)
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(50):
    v = rng.standard_normal(gen.n_red)
    x = gen.lift_state(v)
    rate = np.real(v @ gen.s_red @ v)     # Re<Ax, x> = Re v* s_red v in the energy frame
    xc2 = x[gen.controller_slice][1]
    worst = max(worst, abs(rate + 1.0 * abs(xc2) ** 2))
print("  max |Re<Ax,x> + r |x_c,2|^2| over 50 random constrained states: %.2e"
      % worst)
print("  spectral abscissa: %.6f" % spectrum(gen).abscissa)
