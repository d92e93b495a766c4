import numpy as np
import pytest

from rotor import (
    J,
    PhaseSpaceState,
    QuadraticForm,
    TrapConfig,
    build_rotating_hamiltonian,
    hamiltonian_value,
    williamson_valid,
)


def scalar_energy(v, omega1, omega2, theta_dot):
    """Independent term-by-term evaluation of the rotating-frame energy."""
    q1, q2, p1, p2 = v
    eta = np.sqrt(omega1 / omega2)
    return (
        omega1 / 2 * (p1**2 + q1**2)
        + omega2 / 2 * (p2**2 + q2**2)
        - theta_dot * (q1 * p2 / eta - eta * q2 * p1)
    )


class TestTrapConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrapConfig(-1.0, 1.0)
        with pytest.raises(ValueError):
            TrapConfig(1.0, 1.0, theta_dot=-0.1)
        with pytest.raises(ValueError):
            TrapConfig(np.inf, 1.0)

    def test_axis_normalization(self):
        cfg = TrapConfig(2.0, 1.0, 0.3)
        assert cfg.omega1 == 1.0 and cfg.omega2 == 2.0

    def test_eta(self):
        assert TrapConfig(1.0, 4.0).eta == pytest.approx(0.5)
        assert TrapConfig(1.0, 1.0).eta == 1.0

    def test_from_frequency_hz(self):
        cfg = TrapConfig.from_frequency_hz(1000.0, 2000.0, 100.0)
        assert cfg.omega1 == pytest.approx(2 * np.pi * 1000)
        assert cfg.theta_dot == pytest.approx(2 * np.pi * 100)


class TestQuadraticForm:
    def test_isotropic_static(self):
        form = build_rotating_hamiltonian(TrapConfig(1.0, 1.0, 0.0))
        np.testing.assert_array_equal(form.a, np.eye(4) / 2)

    def test_row1_entries(self, row1_protocol):
        # direct evaluation at the reference design point, omega1 = 1
        form = build_rotating_hamiltonian(row1_protocol.config)
        assert row1_protocol.config.eta == pytest.approx(0.7468108253005911, abs=1e-12)
        assert form.a[0, 3] == pytest.approx(-0.15563309904435396, abs=1e-12)
        assert form.a[1, 2] == pytest.approx(0.08680068941826673, abs=1e-12)
        np.testing.assert_allclose(
            np.diag(form.a),
            [0.5, row1_protocol.omega2 / 2, 0.5, row1_protocol.omega2 / 2],
        )

    def test_matches_scalar_energy(self, rng):
        for _ in range(10):
            w1 = rng.uniform(0.5, 2.0)
            w2 = w1 * rng.uniform(1.0, 5.0)
            td = rng.uniform(0.0, 0.99) * w1
            cfg = TrapConfig(w1, w2, td)
            form = build_rotating_hamiltonian(cfg)
            for _ in range(10):
                v = rng.normal(size=4, scale=3.0)
                direct = scalar_energy(v, w1, w2, td)
                quad = hamiltonian_value(form, PhaseSpaceState.from_vector(v))
                assert abs(quad - direct) <= 1e-12 * max(1.0, abs(direct))

    def test_symmetry_required(self):
        bad = np.eye(4)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            QuadraticForm(bad)


class TestWilliamsonValidity:
    def test_basic(self):
        assert williamson_valid(TrapConfig(1.0, 1.5, 0.5))
        assert not williamson_valid(TrapConfig(1.0, 1.5, 1.0))
        assert williamson_valid(TrapConfig(1.0, 1.5, 0.99))

    def test_equivalent_to_positive_definite(self):
        # eigenvalue oracle across the validity boundary, margin 1e-12
        for w2 in (1.0, 1.3, 4.0):
            for td in (0.0, 0.4, 0.9, 0.999, 1.0, 1.2):
                cfg = TrapConfig(1.0, w2, td)
                eigs = np.linalg.eigvalsh(build_rotating_hamiltonian(cfg).a)
                if abs(td - 1.0) < 1e-12:
                    continue
                assert williamson_valid(cfg) == bool(eigs.min() > 0)

    def test_near_boundary_definite(self):
        cfg = TrapConfig(1.0, 1.5, 0.99)
        assert np.linalg.eigvalsh(build_rotating_hamiltonian(cfg).a).min() > 0


class TestHamiltonianValue:
    def test_trivial(self):
        identity_half = QuadraticForm(np.eye(4) / 2)
        assert hamiltonian_value(identity_half, PhaseSpaceState(1, 0, 0, 0)) == 0.5
        assert hamiltonian_value(identity_half, PhaseSpaceState(0, 0, 0, 0)) == 0.0

    def test_row1_point(self, row1_protocol):
        form = build_rotating_hamiltonian(row1_protocol.config)
        state = PhaseSpaceState(8.0, 2.0, 0.0, 0.0)
        expected = scalar_energy(
            state.vector, 1.0, row1_protocol.omega2, row1_protocol.theta_dot
        )
        assert hamiltonian_value(form, state) == pytest.approx(expected, rel=1e-14)

    def test_parity_invariance(self, rng, row1_protocol):
        form = build_rotating_hamiltonian(row1_protocol.config)
        for _ in range(20):
            v = rng.normal(size=4)
            plus = hamiltonian_value(form, PhaseSpaceState.from_vector(v))
            minus = hamiltonian_value(form, PhaseSpaceState.from_vector(-v))
            assert plus == pytest.approx(minus, rel=1e-14)


def test_metric_constants():
    np.testing.assert_array_equal(J @ J, -np.eye(4))
    np.testing.assert_array_equal(J.T, -J)


def test_phase_space_state_validation():
    with pytest.raises(ValueError):
        PhaseSpaceState(np.nan, 0.0)
    v = PhaseSpaceState(1.0, 2.0, 3.0, 4.0).vector
    np.testing.assert_array_equal(v, [1.0, 2.0, 3.0, 4.0])
