import numpy as np
import pytest
from scipy.linalg import expm

from rotor import (
    J,
    LogBranchFailure,
    PhaseSpaceState,
    SymplecticTransform,
    TrapConfig,
    WilliamsonViolation,
    build_rotating_hamiltonian,
    from_normal_coords,
    hamiltonian_value,
    normal_frequencies,
    normal_mode_energy,
    normal_modes,
    step_transforms,
    symplectic_generator,
    to_normal_coords,
)
from rotor.symplectic import _block_rotation


def sweep_configs():
    for td_frac in np.linspace(0.0, 0.99, 12):
        for ratio in np.linspace(1.01, 20.0, 12):
            yield TrapConfig(1.0, ratio, td_frac)


def normal_coords_closed_form(v, config, alpha):
    """Printed closed forms of the inverse transform, used as an oracle."""
    q1, q2, p1, p2 = v
    w1, w2, td = config.omega1, config.omega2, config.theta_dot
    delta = w1**2 - td**2
    sd, ca, sa = np.sqrt(delta), np.cos(alpha), np.sin(alpha)
    return np.array(
        [
            q2 * (sd * sa - td * ca) / np.sqrt(delta * w2) + p1 * np.sqrt(w1 / delta) * ca,
            q2 * (sd * ca + td * sa) / np.sqrt(delta * w2) - p1 * np.sqrt(w1 / delta) * sa,
            -q1 * (sd * ca + td * sa) / np.sqrt(w1) + p2 * np.sqrt(w2) * sa,
            q1 * (sd * sa - td * ca) / np.sqrt(w1) + p2 * np.sqrt(w2) * ca,
        ]
    )


class TestStepTransforms:
    def test_static_trap_limit(self):
        cfg = TrapConfig(1.0, 1.7, 0.0)
        s0, s1, s2, s3 = step_transforms(cfg)
        np.testing.assert_array_equal(s1.s, np.eye(4))
        np.testing.assert_array_equal(s3.s, np.eye(4))
        np.testing.assert_allclose(
            np.diag(s2.s), [1.0, np.sqrt(1.7), 1.0, 1 / np.sqrt(1.7)]
        )
        assert normal_modes(cfg).alpha == 0.0

    def test_intermediate_forms(self, row1_protocol):
        # chain the products and check each stage against its printed shape
        cfg = row1_protocol.config
        w1, w2, td = cfg.omega1, cfg.omega2, cfg.theta_dot
        delta = w1**2 - td**2
        eta = cfg.eta
        a = build_rotating_hamiltonian(cfg).a
        s0, s1, s2, s3 = (t.s for t in step_transforms(cfg))

        a1 = s0.T @ a @ s0
        expected1 = 0.5 * np.array(
            [
                [w1, eta * td, 0, 0],
                [eta * td, w2, 0, 0],
                [0, 0, w1, td / eta],
                [0, 0, td / eta, w2],
            ]
        )
        np.testing.assert_allclose(a1, expected1, atol=1e-12)

        a2 = s1.T @ a1 @ s1
        expected2 = 0.5 * np.array(
            [
                [w1, 2 * eta * td, 0, 0],
                [2 * eta * td, (3 * td**2 + w2**2) / w2, 0, 0],
                [0, 0, delta / w1, 0],
                [0, 0, 0, w2],
            ]
        )
        np.testing.assert_allclose(a2, expected2, atol=1e-12)

        a3 = s2.T @ a2 @ s2
        expected3 = 0.5 * np.array(
            [
                [delta, 2 * td * np.sqrt(delta), 0, 0],
                [2 * td * np.sqrt(delta), 3 * td**2 + w2**2, 0, 0],
                [0, 0, 1, 0],
                [0, 0, 0, 1],
            ]
        )
        np.testing.assert_allclose(a3, expected3, atol=1e-12)

        a4 = s3.T @ a3 @ s3
        o1, o2 = normal_frequencies(cfg)
        np.testing.assert_allclose(
            a4, np.diag([o1**2, o2**2, 1.0, 1.0]) / 2, atol=1e-12
        )

    def test_each_factor_symplectic(self):
        for cfg in sweep_configs():
            for t in step_transforms(cfg):
                assert np.abs(t.s.T @ J @ t.s - J).max() < 1e-12

    def test_velocity_bound_raises(self):
        with pytest.raises(WilliamsonViolation):
            step_transforms(TrapConfig(1.0, 1.5, 1.0))


class TestNormalModes:
    def test_static_trap_frequencies(self):
        modes = normal_modes(TrapConfig(1.0, 1.7, 0.0))
        assert modes.omega_cap1 == pytest.approx(1.0, abs=1e-14)
        assert modes.omega_cap2 == pytest.approx(1.7, abs=1e-14)

    def test_row1_values(self, row1_protocol):
        modes = normal_modes(row1_protocol.config)
        assert modes.omega_cap1 == pytest.approx(0.929827865131221, abs=1e-12)
        assert modes.omega_cap2 == pytest.approx(1.859655730262442, abs=1e-12)
        assert modes.omega_cap2 / modes.omega_cap1 == pytest.approx(2.0, abs=1e-12)

    def test_isotropic_rotating(self):
        # omega1 = omega2 splits the modes by the rotation velocity
        modes = normal_modes(TrapConfig(1.0, 1.0, 0.3))
        assert modes.omega_cap1 == pytest.approx(0.7, abs=1e-12)
        assert modes.omega_cap2 == pytest.approx(1.3, abs=1e-12)

    def test_diagonalization_sweep(self):
        for cfg in sweep_configs():
            a = build_rotating_hamiltonian(cfg).a
            modes = normal_modes(cfg)
            diag = modes.diag
            off = diag - np.diag(np.diag(diag))
            assert np.abs(off).max() < 1e-12 * np.abs(a).max()
            target = np.diag(
                [modes.omega_cap1**2 / 2, modes.omega_cap2**2 / 2, 0.5, 0.5]
            )
            assert np.abs(np.diag(diag) - np.diag(target)).max() < 1e-10
            assert abs(np.linalg.det(modes.transform.s) - 1.0) < 1e-12

    def test_eigenvalue_oracle(self):
        # {+-i O1, +-i O2} must be the spectrum of the dynamics matrix 2 J A
        for cfg in sweep_configs():
            a = build_rotating_hamiltonian(cfg).a
            eigs = np.linalg.eigvals(2 * J @ a)
            assert np.abs(eigs.real).max() < 1e-10
            got = np.sort(np.abs(eigs.imag))[[1, 3]]
            want = np.array(normal_frequencies(cfg))
            assert np.abs(got - want).max() < 1e-10

    def test_monotonic_in_velocity(self):
        tds = np.linspace(0.0, 0.99, 40)
        freqs = np.array([normal_frequencies(TrapConfig(1.0, 1.5, td)) for td in tds])
        assert np.all(np.diff(freqs[:, 0]) <= 1e-14)
        assert np.all(np.diff(freqs[:, 1]) >= -1e-14)

    def test_invalid_raises(self):
        with pytest.raises(WilliamsonViolation):
            normal_modes(TrapConfig(1.0, 1.5, 1.0))
        with pytest.raises(WilliamsonViolation):
            normal_frequencies(TrapConfig(1.0, 1.5, 2.0))


class TestCoordinateChange:
    def test_zero_maps_to_zero(self, row1_protocol):
        modes = normal_modes(row1_protocol.config)
        out = to_normal_coords(PhaseSpaceState(0, 0, 0, 0), modes)
        np.testing.assert_array_equal(out.vector, np.zeros(4))

    def test_against_closed_form(self, rng):
        for cfg in (TrapConfig(1.0, 1.793, 0.2325), TrapConfig(1.0, 3.7, 0.8)):
            modes = normal_modes(cfg)
            for _ in range(25):
                v = rng.normal(size=4, scale=2.0)
                got = to_normal_coords(PhaseSpaceState.from_vector(v), modes).vector
                want = normal_coords_closed_form(v, cfg, modes.alpha)
                assert np.abs(got - want).max() < 1e-12 * max(1.0, np.abs(want).max())

    def test_static_trap_momentum_swap(self):
        cfg = TrapConfig(1.0, 1.7, 0.0)
        modes = normal_modes(cfg)
        out = to_normal_coords(PhaseSpaceState(0.0, 0.0, 1.0, 0.0), modes)
        assert out.q1 == pytest.approx(1.0 / np.sqrt(cfg.omega1))
        assert out.q2 == pytest.approx(0.0, abs=1e-15)

    def test_round_trip(self, rng, row1_protocol):
        modes = normal_modes(row1_protocol.config)
        for _ in range(100):
            v = rng.normal(size=4, scale=4.0)
            state = PhaseSpaceState.from_vector(v)
            back = from_normal_coords(to_normal_coords(state, modes), modes)
            assert np.abs(back.vector - v).max() < 1e-12 * max(1.0, np.abs(v).max())

    def test_energy_through_transform(self, rng, row1_protocol):
        cfg = row1_protocol.config
        modes = normal_modes(cfg)
        form = build_rotating_hamiltonian(cfg)
        assert normal_mode_energy(PhaseSpaceState(0, 0, 0, 0), modes) == 0.0
        single = normal_mode_energy(PhaseSpaceState(1, 0, 0, 0), modes)
        assert single == pytest.approx(modes.omega_cap1**2 / 2)
        for _ in range(100):
            v = rng.normal(size=4, scale=3.0)
            state = PhaseSpaceState.from_vector(v)
            direct = hamiltonian_value(form, state)
            through = normal_mode_energy(to_normal_coords(state, modes), modes)
            assert abs(direct - through) < 1e-10 * max(1.0, abs(direct))


class TestGenerator:
    def test_identity(self):
        g = symplectic_generator(SymplecticTransform(np.eye(4)))
        np.testing.assert_allclose(g, np.zeros((4, 4)), atol=1e-14)

    def test_shear(self, row1_protocol):
        _, s1, _, _ = step_transforms(row1_protocol.config)
        g = symplectic_generator(s1)
        assert np.abs(g - g.T).max() < 1e-12
        np.testing.assert_allclose(expm(2 * J @ g), s1.s, atol=1e-12)

    def test_scaling(self, row1_protocol):
        _, _, s2, _ = step_transforms(row1_protocol.config)
        g = symplectic_generator(s2)
        np.testing.assert_allclose(expm(2 * J @ g), s2.s, atol=1e-12)
        # generator of a diagonal squeeze couples each q_j with its own p_j
        coupling = np.zeros((4, 4), dtype=bool)
        coupling[0, 2] = coupling[2, 0] = coupling[1, 3] = coupling[3, 1] = True
        assert np.abs(g[~coupling]).max() < 1e-14

    def test_composite_contract(self, row1_protocol):
        # the principal branch either works and reconstructs, or reports
        transform = normal_modes(row1_protocol.config).transform
        try:
            g = symplectic_generator(transform)
        except LogBranchFailure:
            return
        assert np.abs(g - g.T).max() < 1e-10
        assert np.abs(expm(2 * J @ g) - transform.s).max() < 1e-10

    def test_rotation_with_negative_eigenvalue_reports(self):
        # a pi block rotation has spectrum {-1}, off the principal branch;
        # its first square root meets a zero matrix
        r = -np.eye(4)
        with pytest.raises(LogBranchFailure, match="singular"):
            symplectic_generator(SymplecticTransform(r))

    def test_rounded_pi_rotation_reports(self):
        # cos(pi) and sin(pi) in floating point leave the spectrum 1e-16 off
        # -1: a square root then does not converge within the cap, and the
        # failure is a LogBranchFailure, not numpy's LinAlgError
        r = _block_rotation(np.pi)
        assert r[1, 0] != 0.0
        with pytest.raises(LogBranchFailure, match="did not converge"):
            symplectic_generator(SymplecticTransform(r))


def test_symplectic_transform_validation():
    with pytest.raises(ValueError):
        SymplecticTransform(np.diag([2.0, 1.0, 1.0, 1.0]))
    t = SymplecticTransform(np.eye(4))
    np.testing.assert_array_equal(t.inverse, np.eye(4))
