# A chain of three serially connected strings with one end damper:
# the interconnection matrix has negative semi-definite symmetric part,
# each joint couples one string's right end to the next string's left end,
# so the closure is serial in the natural order, and the energy decays
# uniformly exponentially.

import numpy as np

from phnet import (assemble_generator, build_chain, certify_network_dissipative,
                   decay_fit, detect_serial_structure, simulate, spectrum)

# Lipschitz (affine) density and tension per segment; damper kappa0 at the
# left end, conservative joints.
net = build_chain(
    m=3, kappa=[0.5, 0.0, 0.0],
    rho=[{"kind": "polynomial", "data": [1.0, 0.2]},
         {"kind": "polynomial", "data": [1.1, -0.15]},
         {"kind": "polynomial", "data": [0.9, 0.1]}],
    tension=[{"kind": "polynomial", "data": [1.0, 0.1]},
             {"kind": "polynomial", "data": [1.0, 0.2]},
             {"kind": "polynomial", "data": [1.2, -0.1]}])

print("interconnection matrix K:\n", np.round(net.k_mat, 3))
sym = 0.5 * (net.k_mat + net.k_mat.T)
print("eigenvalues of Sym K:", np.round(np.linalg.eigvalsh(sym), 6))

cert = certify_network_dissipative(net)
print("\nnetwork certified dissipative:", cert.passed, " margin %.2e" % cert.margin)

serial = detect_serial_structure(net)
print("serial structure ordering:", serial.ordering)

gen = assemble_generator(net, 48)
rep = spectrum(gen)
print("\nspectral abscissa: %.6f" % rep.abscissa)

# Start on the slowest mode so the fitted decay rate is the modal one: an
# eigenvector v of s_red, the generator in the energy frame, lifted to samples.
vals, v = np.linalg.eig(gen.s_red)
x0 = np.real(gen.lift_state(v[:, np.argmin(np.abs(vals - rep.eigenvalues[0]))]))
trace = simulate(gen, x0, dt=5e-3, t_end=40.0, record_every=10)
m_const, eta = decay_fit(trace)
print("energy envelope: H(t) <= %.2f exp(%.5f t) H(0)" % (m_const, eta))
print("eta / (2 abscissa) = %.4f" % (eta / (2 * rep.abscissa)))
print("energy non-increasing:",
      bool(np.all(np.diff(trace.energies) <= trace.energies[:-1] * 1e-12)))
