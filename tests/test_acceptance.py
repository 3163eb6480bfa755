"""Acceptance criteria: one test per criterion, each printing a verdict line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not calibrated.
"""

import time

import numpy as np
import pytest

from phnet import (Network, NotSerial, SerialStructure, assemble_generator,
                   build_beam, build_chain, build_coupled,
                   build_mass_damped_string, build_scenario,
                   certify_network_dissipative, decay_fit,
                   detect_serial_structure, flux_form, make_initial_state,
                   simulate, spectrum)
from phnet.discretize import discrete_energy_rate
from phnet.scenarios import _wave_subsystem
from phnet.simulate import CayleyStepper

from helpers import (poly_trace, quadrature_energy_rate, quadrature_p0_term,
                     random_constrained_state, random_nsd_k, random_passive_subsystem,
                     random_poly_state, slowest_mode)


def _verdict(num, ok, text):
    print("ACCEPTANCE %d: %s - %s" % (num, "PASS" if ok else "FAIL", text))
    assert ok, text


def test_criterion_1_random_certification_suite():
    """200 random impedance-passive subsystems with Sym K <= 0 closures:
    certificate passes and the discrete abscissa stays <= 1e-7 at n=32."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_abscissa = -np.inf
    for i in range(200):
        s = random_passive_subsystem(rng, with_p0=bool(rng.integers(2)),
                                     varying_h=bool(rng.integers(2)),
                                     complex_ok=bool(rng.integers(2)))
        k = random_nsd_k(rng, s.port_dim)
        net = Network(subsystems=(s,), k_mat=k)
        cert = certify_network_dissipative(net)
        assert cert.passed, "certificate failed at case %d" % i
        gen = assemble_generator(net, 32)
        absc = float(np.linalg.eigvals(gen.s_red).real.max())
        worst_abscissa = max(worst_abscissa, absc)
        assert absc <= 1e-7, "abscissa %.3e at case %d" % (absc, i)
    elapsed = time.perf_counter() - start
    _verdict(1, elapsed < 120.0,
             "200 certified closures, worst abscissa %.2e, %.1f s"
             % (worst_abscissa, elapsed))


def test_criterion_2_flux_identity_oracle():
    """|Re<Ax,x> - tau*Q tau/2 - P_0 term| <= 1e-9 on 100 random polynomial
    states across N in {1, 2, 3, 4}."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for order in (1, 2, 3, 4):
        for _ in range(25):
            s = random_passive_subsystem(rng, order=order, complex_ok=True,
                                         with_p0=bool(rng.integers(2)))
            q = flux_form(s)
            coeffs = random_poly_state(rng, s.dim, order + 4)
            tau = poly_trace(coeffs, order)
            lhs = quadrature_energy_rate(s, coeffs)
            rhs = (0.5 * float(np.real(tau.conj() @ q @ tau))
                   + quadrature_p0_term(s, coeffs))
            scale = max(1.0, abs(lhs), float(np.abs(tau).max()) ** 2)
            defect = abs(lhs - rhs) / scale
            worst = max(worst, defect)
            assert defect <= 1e-9
    elapsed = time.perf_counter() - start
    _verdict(2, elapsed < 30.0,
             "100 polynomial states, worst relative defect %.2e, %.1f s"
             % (worst, elapsed))


def test_criterion_3_damped_wave_eigenvalue_oracle():
    """Single string rho=T=1, kappa=0.5, free right end: eigenvalues match
    lambda_k = ln(1/3)/2 + i pi k for k=0..4 to 1e-6 at n=64."""
    start = time.perf_counter()
    net = build_chain(m=1, kappa=[0.5])
    gen = assemble_generator(net, 64)
    rep = spectrum(gen)
    base = 0.5 * np.log(1.0 / 3.0)
    worst = 0.0
    for k in range(5):
        err = float(np.min(np.abs(rep.eigenvalues - (base + 1j * np.pi * k))))
        worst = max(worst, err)
        assert err <= 1e-6, "mode k=%d error %.2e" % (k, err)
    elapsed = time.perf_counter() - start
    _verdict(3, elapsed < 10.0,
             "modes k=0..4 match characteristic equation, worst %.2e, %.1f s"
             % (worst, elapsed))


def test_criterion_4_chain_corollary():
    """Chain m=3 with Lipschitz coefficients, kappa = (0.5, 0, 0): certified,
    serial, abscissa < -1e-4, simulated eta < -1e-4 and within 10 percent of
    twice the abscissa at n=48, t_end=40, dt=5e-3."""
    start = time.perf_counter()
    net = build_chain(m=3, kappa=[0.5, 0.0, 0.0],
                      rho=[{"kind": "polynomial", "data": [1.0, 0.2]},
                           {"kind": "polynomial", "data": [1.1, -0.15]},
                           {"kind": "polynomial", "data": [0.9, 0.1]}],
                      tension=[{"kind": "polynomial", "data": [1.0, 0.1]},
                               {"kind": "polynomial", "data": [1.0, 0.2]},
                               {"kind": "polynomial", "data": [1.2, -0.1]}])
    assert certify_network_dissipative(net).passed
    assert isinstance(detect_serial_structure(net), SerialStructure)
    gen = assemble_generator(net, 48)
    rep = spectrum(gen)
    assert rep.abscissa < -1e-4
    # dominant trusted eigenmode as the (free) initial state: the window fit
    # then measures the modal rate
    x0 = slowest_mode(gen, rep)
    tr = simulate(gen, x0, dt=5e-3, t_end=40.0, record_every=10)
    _, eta = decay_fit(tr)
    assert eta < -1e-4
    rel = abs(eta - 2.0 * rep.abscissa) / abs(eta)
    assert rel <= 0.1
    elapsed = time.perf_counter() - start
    _verdict(4, elapsed < 120.0,
             "abscissa %.5f, eta %.5f, |eta-2a|/|eta| = %.4f, %.1f s"
             % (rep.abscissa, eta, rel, elapsed))


def test_criterion_5_euler_bernoulli():
    """Pinned-pinned beam modes match +-i(k pi)^2 to 1e-5 at n=64; the
    dissipative end K0=diag(1,0) with clamped right end gives abscissa < 0
    and a monotone energy trace."""
    start = time.perf_counter()
    net = build_beam(left_bc="pinned", right_bc="pinned")
    rep = spectrum(assemble_generator(net, 64))
    worst = 0.0
    for k in (1, 2, 3):
        for sign in (1.0, -1.0):
            err = float(np.min(np.abs(rep.eigenvalues - sign * 1j * (k * np.pi) ** 2)))
            worst = max(worst, err)
            assert err <= 1e-5
    net_d = build_beam(left_bc=np.diag([1.0, 0.0]), right_bc="clamped")
    assert certify_network_dissipative(net_d).passed
    gen_d = assemble_generator(net_d, 48)
    absc = spectrum(gen_d).abscissa
    assert absc < 0
    x0 = make_initial_state(net_d, gen_d, "sine")
    tr = simulate(gen_d, x0, dt=1e-2, t_end=5.0)
    assert np.all(np.diff(tr.energies) <= tr.energies[:-1] * 1e-12 + 1e-300)
    elapsed = time.perf_counter() - start
    _verdict(5, elapsed < 60.0,
             "modes worst %.2e, damped abscissa %.4f, energy monotone, %.1f s"
             % (worst, absc, elapsed))


def test_criterion_6_spring_mass_damper():
    """Controller eigenvalues equal -(r +- sqrt(r^2-4km))/2m exactly; the
    network is certified; Re<Ax,x> = -r |x_c,2|^2 to 1e-8 on 100 random
    constrained states."""
    start = time.perf_counter()
    m_par, k_par, r_par = 1.0, 1.0, 1.0
    net = build_coupled(variant="spring_mass_damper_string_beam",
                        mass=m_par, stiffness=k_par, damping=r_par)
    ev = np.sort_complex(np.linalg.eigvals(net.controllers[0].a_c))
    disc = np.sqrt(complex(r_par ** 2 - 4 * k_par * m_par))
    expect = np.sort_complex(np.array([(-r_par + disc) / (2 * m_par),
                                       (-r_par - disc) / (2 * m_par)]))
    assert np.allclose(ev, expect, atol=1e-14)
    assert certify_network_dissipative(net).passed
    gen = assemble_generator(net, 32)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        v = random_constrained_state(gen, rng)
        x = gen.lift @ v
        rate = discrete_energy_rate(gen, v)
        xc2 = x[gen.controller_slice][1]
        defect = abs(rate + r_par * abs(xc2) ** 2) / max(1.0, abs(rate))
        worst = max(worst, defect)
        assert defect <= 1e-8
    elapsed = time.perf_counter() - start
    _verdict(6, elapsed < 60.0,
             "controller eigenvalues exact, identity defect %.2e, %.1f s"
             % (worst, elapsed))


def test_criterion_7_contraction_invariant():
    """Per-step energy never grows beyond 1e-12 relative for every scenario
    and dt in {1e-3, 1e-2, 1e-1}; conservative variants preserve energy to
    1e-10 over 10^4 steps."""
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    nets = [build_scenario(name, {}) for name in
            ("chain_of_strings", "euler_bernoulli_beam", "damper_string_beam",
             "spring_mass_damper_string_beam", "mass_damped_string")]
    for net in nets:
        gen = assemble_generator(net, 24)
        for dt in (1e-3, 1e-2, 1e-1):
            stepper = CayleyStepper(gen, dt)
            v = rng.standard_normal(gen.n_red)
            e = stepper.energy(v)
            for _ in range(300):
                v = stepper.step(v)
                e_new = stepper.energy(v)
                assert e_new <= e * (1.0 + 1e-12), net.label
                e = e_new
    # conservative variants: free-free string and pinned-pinned beam
    cons = [Network(subsystems=(_wave_subsystem(1.0, 1.0, kind="last"),),
                    k_mat=np.zeros((2, 2))),
            build_beam(left_bc="pinned", right_bc="pinned")]
    drifts = []
    for net in cons:
        gen = assemble_generator(net, 24)
        stepper = CayleyStepper(gen, 1e-2)
        v = rng.standard_normal(gen.n_red)
        e0 = stepper.energy(v)
        for _ in range(10000):
            v = stepper.step(v)
        drift = abs(stepper.energy(v) - e0) / e0
        drifts.append(drift)
        assert drift <= 1e-10
    elapsed = time.perf_counter() - start
    _verdict(7, elapsed < 180.0,
             "5 scenarios x 3 dt contractive; conservative drifts %s, %.1f s"
             % (", ".join("%.1e" % d for d in drifts), elapsed))


def test_criterion_8_serial_structure():
    """The chain is serial in the identity ordering; the gyrator, whose
    coupling rows touch each string at both ends, returns NotSerial with
    both strings as the witness."""
    start = time.perf_counter()
    net = build_chain(m=3, kappa=[0.5, 0.0, 0.0])
    result = detect_serial_structure(net)
    assert isinstance(result, SerialStructure)
    assert result.ordering == (0, 1, 2)
    s1 = _wave_subsystem(1.0, 1.0, kind="interior")
    s2 = _wave_subsystem(1.0, 1.3, kind="interior")
    k = np.zeros((4, 4))
    k[0:2, 2:4] = -np.eye(2)
    k[2:4, 0:2] = np.eye(2)
    gyr = Network(subsystems=(s1, s2), k_mat=k)
    result = detect_serial_structure(gyr)
    assert isinstance(result, NotSerial)
    assert sorted(result.cycle) == [0, 1]
    elapsed = time.perf_counter() - start
    _verdict(8, elapsed < 1.0,
             "chain ordering (0,1,2); gyrator cycle %s, %.2f s"
             % (sorted(result.cycle), elapsed))
