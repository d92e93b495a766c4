import numpy as np
import pytest
from scipy.linalg import expm

from rotor import (
    J,
    PhaseSpaceState,
    TrapConfig,
    WilliamsonViolation,
    build_rotating_hamiltonian,
    hamiltonian_value,
    lab_frame_state,
    normal_modes,
    propagate_normal,
    propagate_rotating,
    sample_trajectory,
    to_normal_coords,
)
from rotor.classical import Trajectory, flow_matrix


def rk4_reference(v0, config, t, nsteps=100_000):
    """Fixed-step integrator of the linear dynamics, used only as an oracle."""
    m = 2 * J @ build_rotating_hamiltonian(config).a
    h = t / nsteps
    v = np.array(v0, dtype=float)
    for _ in range(nsteps):
        k1 = m @ v
        k2 = m @ (v + h / 2 * k1)
        k3 = m @ (v + h / 2 * k2)
        k4 = m @ (v + h * k3)
        v = v + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return v


class TestPropagateNormal:
    def test_identity_at_zero(self, rng, row1_protocol):
        modes = normal_modes(row1_protocol.config)
        v = rng.normal(size=4)
        out = propagate_normal(PhaseSpaceState.from_vector(v), modes, 0.0)
        np.testing.assert_array_equal(out.vector, v)

    def test_single_mode_period(self, row1_protocol):
        modes = normal_modes(row1_protocol.config)
        state = PhaseSpaceState(1.3, 0.0, -0.4, 0.0)  # mode-2 amplitude zero
        out = propagate_normal(state, modes, 2 * np.pi / modes.omega_cap1)
        assert np.abs(out.vector - state.vector).max() < 1e-12

    def test_protocol_period_closes(self, rng, row1_protocol):
        modes = normal_modes(row1_protocol.config)
        v = rng.normal(size=4, scale=3.0)
        out = propagate_normal(
            PhaseSpaceState.from_vector(v), modes, row1_protocol.duration
        )
        assert np.abs(out.vector - v).max() < 1e-10

    def test_energy_conserved(self, rng, row1_protocol):
        from rotor import normal_mode_energy

        modes = normal_modes(row1_protocol.config)
        state = PhaseSpaceState.from_vector(rng.normal(size=4))
        e0 = normal_mode_energy(state, modes)
        for t in (0.3, 1.7, 4.1):
            et = normal_mode_energy(propagate_normal(state, modes, t), modes)
            assert et == pytest.approx(e0, rel=1e-12)

    def test_negative_time_rejected(self, row1_protocol):
        modes = normal_modes(row1_protocol.config)
        with pytest.raises(ValueError):
            propagate_normal(PhaseSpaceState(1, 0, 0, 0), modes, -1.0)


class TestPropagateRotating:
    def test_rest_at_origin(self, row1_protocol):
        out = propagate_rotating(
            PhaseSpaceState(0, 0, 0, 0), row1_protocol.config, 2.7
        )
        np.testing.assert_array_equal(out.vector, np.zeros(4))

    def test_closed_orbit(self, row1_protocol):
        v0 = PhaseSpaceState(8.0, 2.0, 0.0, 0.0)
        out = propagate_rotating(v0, row1_protocol.config, row1_protocol.duration)
        resid = np.linalg.norm(out.vector - v0.vector) / (
            1 + np.linalg.norm(v0.vector)
        )
        assert resid < 1e-8

    def test_against_integrator(self, rng):
        for cfg, t in [
            (TrapConfig(1.0, 1.793, 0.2325), 2.3),
            (TrapConfig(1.0, 4.0, 0.7), 1.1),
            (TrapConfig(1.0, 1.2, 0.9), 3.7),
        ]:
            v0 = rng.normal(size=4, scale=2.0)
            exact = propagate_rotating(PhaseSpaceState.from_vector(v0), cfg, t).vector
            reference = rk4_reference(v0, cfg, t)
            assert np.linalg.norm(exact - reference) < 1e-6 * np.linalg.norm(exact)
            # the sampler, in both frames, against the same integration
            c, s = np.cos(cfg.theta_dot * t), np.sin(cfg.theta_dot * t)
            r_inv = np.array([[c, -s], [s, c]])
            lab_reference = np.concatenate([r_inv @ reference[:2], r_inv @ reference[2:]])
            start = PhaseSpaceState.from_vector(v0)
            for frame, want in (("rotating", reference), ("lab", lab_reference)):
                got = sample_trajectory(start, cfg, [0.0, t], frame=frame).states[-1]
                assert np.linalg.norm(got - want) < 1e-6 * np.linalg.norm(want)

    def test_equivalent_to_normal_route(self, rng, row1_protocol):
        cfg = row1_protocol.config
        modes = normal_modes(cfg)
        v0 = PhaseSpaceState.from_vector(rng.normal(size=4))
        t = 1.9
        direct = propagate_rotating(v0, cfg, t).vector
        via_modes = modes.transform.s @ propagate_normal(
            to_normal_coords(v0, modes), modes, t
        ).vector
        assert np.abs(direct - via_modes).max() < 1e-12

    def test_near_isotropic_slow_rotation_against_expm(self):
        # the normal modes split by ~1e-7 of omega1: the slow one must still
        # rotate in the first plane of the flow
        cfg = TrapConfig(0.0117, 0.0117, 1.258e-7 * 0.0117)
        a = build_rotating_hamiltonian(cfg).a
        t = 1e3
        exact = expm(2 * J @ a * t)
        assert np.abs(flow_matrix(normal_modes(cfg), t) - exact).max() < 1e-12

    def test_invalid_config(self):
        with pytest.raises(WilliamsonViolation):
            propagate_rotating(PhaseSpaceState(1, 0, 0, 0), TrapConfig(1.0, 1.5, 1.2), 1.0)

    def test_flow_is_symplectic(self, row1_protocol):
        modes = normal_modes(row1_protocol.config)
        for t in (0.0, 0.4, 1.234, row1_protocol.duration):
            m = flow_matrix(modes, t)
            assert np.abs(m.T @ J @ m - J).max() < 1e-10


class TestLabFrame:
    def test_zero_angle_identity(self, rng):
        v = rng.normal(size=4)
        out = lab_frame_state(PhaseSpaceState.from_vector(v), 0.0)
        np.testing.assert_array_equal(out.vector, v)

    def test_quarter_turn_convention(self):
        out = lab_frame_state(PhaseSpaceState(1.0, 2.0, 3.0, 4.0), np.pi / 2)
        # R(pi/2)^-1 maps (a, b) -> (-b, a)
        np.testing.assert_allclose(out.vector, [-2.0, 1.0, -4.0, 3.0], atol=1e-15)

    def test_full_protocol_contract(self, rng, row1_protocol):
        cfg = row1_protocol.config
        theta_f = row1_protocol.theta_f
        for _ in range(5):
            v0 = PhaseSpaceState.from_vector(rng.normal(size=4, scale=3.0))
            vT = propagate_rotating(v0, cfg, row1_protocol.duration)
            lab_final = lab_frame_state(vT, theta_f).vector
            lab_expected = lab_frame_state(v0, theta_f).vector
            assert np.abs(lab_final - lab_expected).max() < 1e-8

    def test_physical_units_unscale(self):
        cfg = TrapConfig(4.0, 9.0, 0.0)
        out = lab_frame_state(PhaseSpaceState(2.0, 3.0, 4.0, 6.0), 0.0, config=cfg)
        # q / sqrt(omega), p * sqrt(omega)
        np.testing.assert_allclose(out.vector, [1.0, 1.0, 8.0, 18.0])


class TestTrajectory:
    def test_single_sample(self, row1_protocol):
        v0 = PhaseSpaceState(1.0, -1.0, 0.5, 0.0)
        traj = sample_trajectory(v0, row1_protocol.config, [0.0])
        assert traj.times.size == 1
        np.testing.assert_allclose(traj.states[0], v0.vector, atol=1e-14)

    def test_energy_constant_along_orbit(self, row1_protocol):
        cfg = row1_protocol.config
        traj = sample_trajectory(
            PhaseSpaceState(8.0, 2.0, 0.0, 0.0),
            cfg,
            np.linspace(0, row1_protocol.duration, 500),
        )
        form = build_rotating_hamiltonian(cfg)
        energies = np.array(
            [hamiltonian_value(form, PhaseSpaceState.from_vector(v)) for v in traj.states]
        )
        assert np.abs(energies - energies[0]).max() < 1e-10 * abs(energies[0])

    def test_closed_lissajous(self, row1_protocol):
        traj = sample_trajectory(
            PhaseSpaceState(8.0, 2.0, 0.0, 0.0),
            row1_protocol.config,
            np.linspace(0, row1_protocol.duration, 1000),
        )
        assert np.abs(traj.states[-1] - traj.states[0]).max() < 1e-8
        # the orbit explores both signs in each coordinate (two-lobe figure)
        assert traj.states[:, 0].min() < 0 < traj.states[:, 0].max()
        assert traj.states[:, 1].min() < 0 < traj.states[:, 1].max()

    def test_frames(self, row1_protocol):
        cfg = row1_protocol.config
        times = np.linspace(0, 1.0, 7)
        v0 = PhaseSpaceState(2.0, 1.0, 0.0, 0.0)
        rotating = sample_trajectory(v0, cfg, times, frame="rotating")
        lab = sample_trajectory(v0, cfg, times, frame="lab")
        normal = sample_trajectory(v0, cfg, times, frame="normal")
        assert rotating.frame == "rotating" and lab.frame == "lab"
        assert normal.frame == "normal"
        k = 4
        expected_lab = lab_frame_state(
            PhaseSpaceState.from_vector(rotating.states[k]),
            cfg.theta_dot * times[k],
        ).vector
        np.testing.assert_allclose(lab.states[k], expected_lab, atol=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            Trajectory(times=[0.0, 0.0], states=np.zeros((2, 4)))
        with pytest.raises(ValueError):
            Trajectory(times=[0.0], states=np.zeros((2, 4)))
        with pytest.raises(ValueError):
            Trajectory(times=[0.0], states=np.zeros((1, 4)), frame="galactic")


def test_hundred_random_closed_orbits(rng, row1_protocol):
    modes = normal_modes(row1_protocol.config)
    m = flow_matrix(modes, row1_protocol.duration)
    v0 = rng.normal(size=(4, 100), scale=3.0)
    vT = m @ v0
    resid = np.linalg.norm(vT - v0, axis=0) / (1 + np.linalg.norm(v0, axis=0))
    assert resid.max() < 1e-8
