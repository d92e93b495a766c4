"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import functools
import time

import numpy as np
import pytest

from rotor import (
    J,
    PhaseSpaceState,
    TrapConfig,
    build_fock_hamiltonian,
    build_rotating_hamiltonian,
    coherent_state,
    conjugation_check,
    converge_truncation,
    design_protocol,
    entangled_state,
    evolve,
    fock_state,
    ground_state_sensitivity,
    lab_frame_state,
    mean_excitation,
    measure_sensitivity,
    minimal_time,
    normal_frequencies,
    normal_modes,
    revival_phase,
    sample_trajectory,
    stability_sweep,
    step_transforms,
    survival_probability,
    symplectic_generator,
    wavepacket_track,
)
from rotor.classical import flow_matrix
from rotor.quantum import (
    GROUND_STATE_WIDTH,
    eigenvalues,
    phase_space_expectations,
)

TABLE1_KHZ = (1.0, 2.0, 5.0, 10.0)


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number:2d} [{label}]: FAIL")
                raise
            elapsed = time.perf_counter() - start
            print(f"\nACCEPTANCE {number:2d} [{label}]: PASS ({elapsed:.2f}s)")

        return wrapper

    return decorate


@criterion(1, "reference table reproduction")
def test_c01_reference_table():
    printed = {
        1.0: (1.79, 0.23, 1.08),
        2.0: (3.59, 0.46, 0.54),
        5.0: (8.96, 1.16, 0.22),
        10.0: (17.93, 2.32, 0.11),
    }
    design_protocol(2 * np.pi, np.pi / 2, 1, 2)  # warm up
    start = time.perf_counter()
    protocols = [design_protocol(2 * np.pi * f, np.pi / 2, 1, 2) for f in TABLE1_KHZ]
    elapsed = time.perf_counter() - start
    for f, p in zip(TABLE1_KHZ, protocols):
        w2, td, duration = printed[f]
        assert round(p.omega2 / (2 * np.pi), 2) == w2
        assert round(p.theta_dot / (2 * np.pi), 2) == td
        assert round(p.duration, 2) == duration
    assert elapsed < 1e-3, f"designer took {elapsed * 1e3:.3f} ms"


@criterion(2, "normal-frequency oracle on a 50x50 grid")
def test_c02_frequency_oracle_grid():
    start = time.perf_counter()
    for td in np.linspace(0.0, 0.99, 50):
        for ratio in np.linspace(1.01, 20.0, 50):
            cfg = TrapConfig(1.0, ratio, td)
            a = build_rotating_hamiltonian(cfg).a
            modes = normal_modes(cfg)
            s = modes.transform.s
            diag = s.T @ a @ s
            off = diag - np.diag(np.diag(diag))
            assert np.abs(off).max() < 1e-12 * np.abs(a).max()
            assert np.abs(s.T @ J @ s - J).max() < 1e-12
            eigs = np.linalg.eigvals(2 * J @ a)
            got = np.sort(np.abs(eigs.imag))[[1, 3]]
            closed = np.array([modes.omega_cap1, modes.omega_cap2])
            assert np.abs(got - closed).max() < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"grid sweep took {elapsed:.2f} s"


@criterion(3, "commensurability chain")
def test_c03_commensurability_chain():
    cases = [
        (1, 2, np.pi / 2),
        (1, 3, np.pi / 2),
        (2, 3, np.pi / 4),
        (1, 5, 1.0),
        (3, 7, 0.5),
        (1, 2, np.pi * 0.999),
        (2, 5, 2.0),
    ]
    for n1, n2, theta_f in cases:
        p = design_protocol(1.0, theta_f, n1, n2)
        o1, o2 = p.normal_frequencies()
        assert abs(o2 / o1 - n2 / n1) < 1e-9 * (n2 / n1)
        for duration in (p.theta_f / p.theta_dot, 2 * np.pi * n1 / o1, 2 * np.pi * n2 / o2):
            assert abs(p.duration - duration) < 1e-9 * p.duration


@criterion(4, "minimal-time limit")
def test_c04_minimal_time_limit():
    theta_f = np.pi / 2
    durations = []
    ratios = []
    for n2 in range(2, 201):
        p = design_protocol(1.0, theta_f, 1, n2)
        durations.append(p.duration)
        ratios.append(p.kappa_minus / p.kappa_plus)
    assert np.all(np.diff(durations) < 0)
    assert np.all(np.diff(ratios) < 0)
    t_min = minimal_time(1.0, theta_f)
    assert np.all(np.array(durations) > t_min)
    assert (durations[-1] - t_min) / t_min < 0.005


@criterion(5, "classical closed orbits and lab-frame contract")
def test_c05_classical_closed_orbits():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    for f in TABLE1_KHZ:
        p = design_protocol(2 * np.pi * f, np.pi / 2, 1, 2)
        modes = normal_modes(p.config)
        m_final = flow_matrix(modes, p.duration)
        v0 = rng.normal(size=(4, 100), scale=3.0)
        v_final = m_final @ v0
        norms = 1 + np.linalg.norm(v0, axis=0)
        assert (np.linalg.norm(v_final - v0, axis=0) / norms).max() < 1e-8
        for k in range(0, 100, 10):
            lab_final = lab_frame_state(
                PhaseSpaceState.from_vector(v_final[:, k]), p.theta_f
            ).vector
            lab_expected = lab_frame_state(
                PhaseSpaceState.from_vector(v0[:, k]), p.theta_f
            ).vector
            assert np.abs(lab_final - lab_expected).max() / norms[k] < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"closed-orbit check took {elapsed:.2f} s"


@criterion(6, "quantum revival for ground/entangled/coherent states")
def test_c06_quantum_revival():
    start = time.perf_counter()
    protocol = design_protocol(1.0, np.pi / 2, 1, 2)
    builders = {
        "ground": lambda n: fock_state(0, 0, n),
        "entangled": entangled_state,
        "coherent": lambda n: coherent_state(1 / np.sqrt(2), 1 / np.sqrt(2), n),
    }
    expected_phase = (-1.0) ** (protocol.n1 + protocol.n2)
    for name, make in builders.items():
        nmax, _ = converge_truncation(protocol, make)
        assert nmax <= 64, f"{name} needed nmax = {nmax}"
        psi0 = make(nmax)
        h = build_fock_hamiltonian(protocol.config, nmax)
        psi_t = evolve(psi0, h, protocol.duration)
        assert survival_probability(psi0, psi_t) > 1 - 1e-6, name
        assert abs(mean_excitation(psi_t) - mean_excitation(psi0)) < 1e-6, name
        phase = revival_phase(psi0, psi_t)
        assert abs(phase - expected_phase) < 1e-4, name
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"revival check took {elapsed:.1f} s"


@criterion(7, "truncated spectrum vs normal-mode ladder")
def test_c07_spectrum_cross_check():
    protocol = design_protocol(1.0, np.pi / 2, 1, 2)
    nmax = 48
    o1, o2 = normal_frequencies(protocol.config)
    spectrum = eigenvalues(build_fock_hamiltonian(protocol.config, nmax))
    for j in range(5):
        for k in range(5 - j):
            predicted = o1 * (j + 0.5) + o2 * (k + 0.5)
            assert np.abs(spectrum - predicted).min() / predicted < 1e-6


@criterion(8, "timing-error stability law")
def test_c08_stability_law():
    row1 = design_protocol(1.0, np.pi / 2, 1, 2)
    report = measure_sensitivity(row1, nmax=16)
    predicted = ground_state_sensitivity(row1)
    assert abs(report.delta_h_sq - predicted) < 1e-10 * predicted
    assert abs(report.fitted_rate - predicted) / predicted < 0.01
    # larger n2: quadratic decay steepens, survival at a fixed offset drops
    curvatures, probes = [], []
    probe_eps = 0.01 * row1.duration
    for n2 in (2, 5, 10):
        p = design_protocol(1.0, np.pi / 2, 1, n2)
        curvatures.append(measure_sensitivity(p, nmax=16).fitted_rate)
        probes.append(stability_sweep(fock_state(0, 0, 16), p, [probe_eps]).values[0])
    assert np.all(np.diff(curvatures) > 0)
    assert np.all(np.diff(probes) < 0)


@criterion(9, "wavepacket track follows the classical orbit")
def test_c09_track_ridge():
    start = time.perf_counter()
    nmax = 96
    protocol = design_protocol(1.0, np.pi / 2, 1, 2)
    psi0 = coherent_state(8 / np.sqrt(2), 2 / np.sqrt(2), nmax)
    grid = wavepacket_track(psi0, protocol, time_steps=2000, grid_points=221)
    print(f"\n  track nmax = {nmax}, diagnostics = {grid.diagnostics}")
    assert grid.time_integral() == pytest.approx(protocol.duration, rel=0.01)

    centroid = phase_space_expectations(psi0)
    times = np.linspace(0.0, protocol.duration, 2000)
    start_point = PhaseSpaceState.from_vector(centroid)
    orbit = sample_trajectory(start_point, protocol.config, times).states[:, :2]
    dq = grid.q1_axis[1] - grid.q1_axis[0]
    window = max(2, int(round(2.5 * GROUND_STATE_WIDTH / dq)))
    probe_times = np.linspace(0.0, protocol.duration, 51)[:-1]
    modes = normal_modes(protocol.config)
    for t in probe_times:
        point = (flow_matrix(modes, t) @ centroid)[:2]
        i0 = int(np.searchsorted(grid.q1_axis, point[0]))
        j0 = int(np.searchsorted(grid.q2_axis, point[1]))
        i_sl = slice(max(0, i0 - window), min(grid.q1_axis.size, i0 + window + 1))
        j_sl = slice(max(0, j0 - window), min(grid.q2_axis.size, j0 + window + 1))
        sub = grid.density[i_sl, j_sl]
        im, jm = np.unravel_index(np.argmax(sub), sub.shape)
        ridge = np.array(
            [grid.q1_axis[i_sl][im], grid.q2_axis[j_sl][jm]]
        )
        distance = np.hypot(orbit[:, 0] - ridge[0], orbit[:, 1] - ridge[1]).min()
        assert distance <= GROUND_STATE_WIDTH, f"t = {t:.3f}: {distance:.3f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"track job took {elapsed:.0f} s"


@criterion(10, "operator conjugation identity on the truncated basis")
def test_c10_conjugation_identity():
    protocol = design_protocol(1.0, np.pi / 2, 1, 2)
    _, shear, squeeze, _ = step_transforms(protocol.config)

    g_shear = symplectic_generator(shear)
    shear_resid = conjugation_check(g_shear, shear, 30, levels=10)
    assert shear_resid < 1e-6
    g_squeeze = symplectic_generator(squeeze)
    squeeze_resid = conjugation_check(g_squeeze, squeeze, 40, levels=8)
    assert squeeze_resid < 1e-4

    assert shear_resid < conjugation_check(g_shear, shear, 15, levels=10)
    assert squeeze_resid < conjugation_check(g_squeeze, squeeze, 20, levels=8)
