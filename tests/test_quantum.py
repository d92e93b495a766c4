import numpy as np
import pytest
from scipy.linalg import expm

import rotor.quantum
from scipy.special import eval_hermite, factorial

from rotor import (
    ConvergenceFailure,
    DegenerateOverlap,
    FockHamiltonian,
    PhaseSpaceState,
    TrapConfig,
    TruncationTooSmall,
    build_fock_hamiltonian,
    coherent_nmax,
    coherent_state,
    coherent_track,
    conjugation_check,
    converge_truncation,
    design_protocol,
    entangled_state,
    evolve,
    fock_state,
    ground_state_sensitivity,
    mean_excitation,
    measure_sensitivity,
    normal_frequencies,
    revival_phase,
    sample_trajectory,
    stability_sweep,
    step_transforms,
    survival_probability,
    symplectic_generator,
    wavepacket_track,
)
from rotor.quantum import (
    ObservableSeries,
    QuantumState,
    TrackGrid,
    _coherent_series,
    _coherent_tail,
    _index_grids,
    _quadratic_operator,
    _sector_eigh,
    _track_density,
    _track_grid,
    _unitary_columns,
    eigenvalues,
    energy_variance,
    evolve_series,
    fit_quadratic_decay,
    hermite_functions,
    phase_space_expectations,
    phase_space_operators,
    top_shell_weight,
)


class TestHermiteFunctions:
    def test_against_polynomial_route(self):
        x = np.linspace(-5, 5, 101)
        phi = hermite_functions(25, x)
        for n in (0, 1, 2, 7, 24):
            norm = np.sqrt(2.0**n * factorial(n) * np.sqrt(np.pi))
            explicit = eval_hermite(n, x) * np.exp(-(x**2) / 2) / norm
            assert np.abs(phi[n] - explicit).max() < 1e-10

    def test_orthonormal_on_grid(self):
        x = np.linspace(-14, 14, 4001)
        phi = hermite_functions(40, x)
        gram = phi @ phi.T * (x[1] - x[0])
        assert np.abs(gram - np.eye(40)).max() < 1e-8

    def test_large_order_finite(self):
        phi = hermite_functions(120, np.linspace(-16, 16, 301))
        assert np.all(np.isfinite(phi))


class TestStates:
    def test_fock_and_entangled(self):
        g = fock_state(0, 0, 8)
        assert g.coeffs[0, 0] == 1.0 and mean_excitation(g) == 0.0
        e = entangled_state(8)
        assert mean_excitation(e) == pytest.approx(1.0)
        assert survival_probability(e, e) == pytest.approx(1.0)
        with pytest.raises(TruncationTooSmall):
            fock_state(9, 0, 8)

    def test_coherent_trivial(self):
        st = coherent_state(0.0, 0.0, 8)
        assert survival_probability(st, fock_state(0, 0, 8)) == pytest.approx(1.0)

    @pytest.mark.parametrize("nmax", [1, 2, 8, 16, 33])
    def test_zero_amplitudes_give_the_ground_state_bit_for_bit(self, nmax):
        for alpha1, alpha2 in [(0, 0), (0j, 0.0)]:
            coeffs = coherent_state(alpha1, alpha2, nmax).coeffs
            assert coeffs.tobytes() == fock_state(0, 0, nmax).coeffs.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200, complex(0, np.nan), 1e200j])
    def test_non_finite_mean_rejected(self, bad):
        for call in (coherent_nmax, lambda a1, a2: coherent_state(a1, a2, 16)):
            for alpha1, alpha2 in [(bad, 0.5), (0.5, bad)]:
                with pytest.raises(ValueError, match="finite"):
                    call(alpha1, alpha2)

    def test_coherent_nmax_search_is_logarithmic(self, monkeypatch):
        calls = []

        def counting(alpha, nmax):
            calls.append(nmax)
            return _coherent_tail(alpha, nmax)

        monkeypatch.setattr(rotor.quantum, "_coherent_tail", counting)
        nmax = coherent_nmax(1e4, 0.5)  # |alpha|^2 = 1e8
        assert len(calls) < 10**4
        assert _coherent_tail(1e4, nmax) < 1e-10 <= _coherent_tail(1e4, nmax - 8)
        assert nmax % 8 == 0

    def test_coherent_mean_excitation(self):
        st = coherent_state(1 / np.sqrt(2), 1 / np.sqrt(2), 24)
        assert mean_excitation(st) == pytest.approx(1.0, abs=1e-10)

    def test_coherent_centroid(self):
        st = coherent_state(8 / np.sqrt(2), 2 / np.sqrt(2), 88)
        mean = phase_space_expectations(st)
        np.testing.assert_allclose(mean, [8.0, 2.0, 0.0, 0.0], atol=1e-6)

    def test_coherent_complex_amplitude(self):
        st = coherent_state(1j, 0.5 - 0.5j, 24)
        mean = phase_space_expectations(st)
        np.testing.assert_allclose(
            mean,
            [0.0, np.sqrt(2) * 0.5, np.sqrt(2), -np.sqrt(2) * 0.5],
            atol=1e-9,
        )

    def test_truncation_guard(self):
        with pytest.raises(TruncationTooSmall):
            coherent_state(8 / np.sqrt(2), 0.0, 32)

    def test_expand_and_shell(self):
        edge = fock_state(7, 3, 8)
        assert top_shell_weight(edge) == pytest.approx(1.0)

    def test_normalization_enforced(self):
        c = np.zeros((4, 4), dtype=complex)
        c[0, 0] = 0.5
        with pytest.raises(ValueError):
            QuantumState(c)


class TestFockHamiltonian:
    def test_static_trap_diagonal(self):
        h = build_fock_hamiltonian(TrapConfig(1.0, 1.7, 0.0), 6)
        dense = h.dense()
        off = dense - np.diag(np.diag(dense))
        assert np.abs(off).max() == 0.0
        n1 = np.repeat(np.arange(6), 6)
        n2 = np.tile(np.arange(6), 6)
        np.testing.assert_allclose(
            np.diag(dense).real, 1.0 * (n1 + 0.5) + 1.7 * (n2 + 0.5)
        )

    def test_minimal_basis_couplings(self, row1_protocol):
        cfg = row1_protocol.config
        h = build_fock_hamiltonian(cfg, 2).dense()
        eta, td = cfg.eta, cfg.theta_dot
        # basis order |00>, |01>, |10>, |11>
        assert h[2, 1] == pytest.approx(1j * td * (1 / eta + eta) / 2, abs=1e-15)
        assert h[3, 0] == pytest.approx(-1j * td * (1 / eta - eta) / 2, abs=1e-15)
        assert np.abs(h - h.conj().T).max() < 1e-15

    def test_hermitian(self, row1_protocol):
        h = build_fock_hamiltonian(row1_protocol.config, 12)
        resid = h.matrix - h.matrix.getH()
        assert (np.abs(resid.data).max() if resid.nnz else 0.0) < 1e-14

    def test_nmax_validation(self, row1_protocol):
        with pytest.raises(ValueError):
            build_fock_hamiltonian(row1_protocol.config, 1)

    def test_spectrum_matches_normal_modes(self, row1_protocol):
        # commensurate designs have degenerate levels, so match each
        # predicted energy to its nearest eigenvalue
        h = build_fock_hamiltonian(row1_protocol.config, 40)
        o1, o2 = normal_frequencies(row1_protocol.config)
        got = eigenvalues(h)
        for j in range(5):
            for k in range(5 - j):
                predicted = o1 * (j + 0.5) + o2 * (k + 0.5)
                assert np.abs(got - predicted).min() / predicted < 1e-6

    def test_parity_coupling_rejected(self, row1_protocol):
        # a term linear in q1 changes n1 + n2 by one: not a quadratic operator
        nmax = 8
        h = build_fock_hamiltonian(row1_protocol.config, nmax)
        q1 = phase_space_operators(nmax)[0]
        coupled = FockHamiltonian(h.matrix + 0.1 * q1, nmax, row1_protocol.config)
        with pytest.raises(ValueError, match="parity"):
            eigenvalues(coupled)
        with pytest.raises(ValueError, match="parity"):
            evolve(entangled_state(nmax), coupled, 1.0)

    def test_spectrum_converges_under_doubling(self, row1_protocol):
        o1, o2 = normal_frequencies(row1_protocol.config)
        predicted = [
            o1 * (j + 0.5) + o2 * (k + 0.5)
            for j in range(3)
            for k in range(3 - j)
        ]
        errs = []
        for nmax in (8, 16, 32):
            got = eigenvalues(build_fock_hamiltonian(row1_protocol.config, nmax))
            errs.append(max(np.abs(got - e).min() for e in predicted))
        # decreasing until the rounding floor
        for before, after in zip(errs, errs[1:]):
            assert after <= max(before, 1e-12)


class TestEvolution:
    def test_matches_dense_exponential(self, rng, row1_protocol):
        nmax = 8
        h = build_fock_hamiltonian(row1_protocol.config, nmax)
        dense = h.dense()
        c = rng.normal(size=(nmax, nmax)) + 1j * rng.normal(size=(nmax, nmax))
        psi = QuantumState(c / np.linalg.norm(c))
        for t in (0.3, 1.7, row1_protocol.duration):
            reference = expm(-1j * dense * t) @ psi.vector
            got = evolve(psi, h, t).vector
            assert np.linalg.norm(got - reference) < 1e-10

    def test_identity_at_zero(self, row1_protocol):
        h = build_fock_hamiltonian(row1_protocol.config, 10)
        st = entangled_state(10)
        out = evolve(st, h, 0.0)
        assert np.abs(out.vector - st.vector).max() < 1e-13

    def test_eigenstate_is_stationary(self, row1_protocol):
        nmax = 10
        h = build_fock_hamiltonian(row1_protocol.config, nmax)
        w, v = np.linalg.eigh(h.dense())
        psi = QuantumState(v[:, 3].reshape(nmax, nmax))
        for t in (0.9, 4.4):
            assert survival_probability(psi, evolve(psi, h, t)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_unitary(self, rng, row1_protocol):
        nmax = 12
        h = build_fock_hamiltonian(row1_protocol.config, nmax)
        c = rng.normal(size=(nmax, nmax)) + 1j * rng.normal(size=(nmax, nmax))
        psi = QuantumState(c / np.linalg.norm(c))
        series = evolve_series(psi, h, np.linspace(0, 10, 17))
        norms = np.linalg.norm(series.reshape(17, -1), axis=1)
        assert np.abs(norms - 1.0).max() < 1e-10

    def test_mismatched_truncation(self, row1_protocol):
        h = build_fock_hamiltonian(row1_protocol.config, 8)
        with pytest.raises(ValueError):
            evolve(entangled_state(10), h, 1.0)


class TestObservables:
    def test_survival_trivial(self):
        a, b = fock_state(0, 0, 6), fock_state(1, 0, 6)
        assert survival_probability(a, a) == 1.0
        assert survival_probability(a, b) == 0.0

    def test_revival_all_reference_states(self, row1_protocol):
        nmax = 24
        h = build_fock_hamiltonian(row1_protocol.config, nmax)
        for st in (
            fock_state(0, 0, nmax),
            entangled_state(nmax),
            coherent_state(1 / np.sqrt(2), 1 / np.sqrt(2), nmax),
        ):
            out = evolve(st, h, row1_protocol.duration)
            assert survival_probability(st, out) > 1 - 1e-6
            assert abs(mean_excitation(out) - mean_excitation(st)) < 1e-6

    def test_ground_survival_dominates_coherent(self, row1_protocol):
        nmax = 24
        h = build_fock_hamiltonian(row1_protocol.config, nmax)
        times = np.linspace(0, row1_protocol.duration, 300)
        ground = fock_state(0, 0, nmax)
        coherent = coherent_state(1 / np.sqrt(2), 1 / np.sqrt(2), nmax)
        p_ground = survival_probability(ground, evolve_series(ground, h, times))
        p_coherent = survival_probability(coherent, evolve_series(coherent, h, times))
        assert p_ground.min() > p_coherent.min()

    def test_transient_excitation_dip(self, row1_protocol):
        nmax = 24
        h = build_fock_hamiltonian(row1_protocol.config, nmax)
        st = coherent_state(1 / np.sqrt(2), 1 / np.sqrt(2), nmax)
        times = np.linspace(0, row1_protocol.duration, 300)
        values = mean_excitation(evolve_series(st, h, times))
        assert values.min() < values[0] - 1e-3

    def test_ehrenfest_matches_classical(self, row1_protocol):
        nmax = 24
        cfg = row1_protocol.config
        h = build_fock_hamiltonian(cfg, nmax)
        psi0 = coherent_state(1 / np.sqrt(2), 1 / np.sqrt(2), nmax)
        times = np.linspace(0, row1_protocol.duration, 40)
        means = phase_space_expectations(evolve_series(psi0, h, times))
        centroid = PhaseSpaceState.from_vector(phase_space_expectations(psi0))
        classical = sample_trajectory(centroid, cfg, times)
        assert np.abs(means - classical.states).max() < 1e-6


def _phase_after_period(psi0, protocol):
    h = build_fock_hamiltonian(protocol.config, psi0.nmax)
    return revival_phase(psi0, evolve(psi0, h, protocol.duration))


class TestRevivalPhase:
    def test_sum_odd_gives_minus(self, row1_protocol):
        phase = _phase_after_period(entangled_state(20), row1_protocol)
        assert abs(phase - (-1.0)) < 1e-4

    def test_sum_even_gives_plus(self):
        p13 = design_protocol(1.0, np.pi / 2, 1, 3)
        phase = _phase_after_period(entangled_state(20), p13)
        assert abs(phase - 1.0) < 1e-4

    def test_ground_state_carries_zero_point_phase(self, row1_protocol):
        o1, o2 = normal_frequencies(row1_protocol.config)
        expected = np.exp(-1j * (o1 + o2) * row1_protocol.duration / 2)
        phase = _phase_after_period(fock_state(0, 0, 20), row1_protocol)
        assert abs(phase - expected) < 1e-9

    def test_phase_of_overlap_at_any_duration(self, row1_protocol):
        # off the commensurate period the phase is complex, so its sign is tested
        st = coherent_state(0.7, 0.3j, 16)
        h = build_fock_hamiltonian(row1_protocol.config, 16)
        psi_t = evolve(st, h, row1_protocol.duration / 5)
        overlap = np.vdot(st.vector, psi_t.vector)
        assert abs(overlap.imag) > 0.1
        assert abs(revival_phase(st, psi_t) - overlap / abs(overlap)) < 1e-12

    def test_degenerate_overlap_raises(self):
        ground = fock_state(0, 0, 4)
        with pytest.raises(DegenerateOverlap):
            revival_phase(ground, fock_state(1, 0, 4))  # <0,0|1,0> = 0

        def with_ground_amplitude(amplitude):
            c = np.zeros((4, 4), dtype=complex)
            c[0, 0], c[1, 0] = amplitude, np.sqrt(1 - abs(amplitude) ** 2)
            return QuantumState(c)

        # either side of the 1e-6 cut on |<0,0|psi>|
        with pytest.raises(DegenerateOverlap):
            revival_phase(ground, with_ground_amplitude(5e-7))
        assert abs(revival_phase(ground, with_ground_amplitude(2e-6j)) - 1j) < 1e-12


class TestConvergence:
    def test_converges_and_traces(self, row1_protocol):
        nmax, trace = converge_truncation(
            row1_protocol, lambda n: entangled_state(n), nmax_start=8
        )
        # the smaller of the two agreeing sizes is returned
        assert nmax == trace[-2]["nmax"]
        assert trace[-2]["shell_weight"] < 1e-8
        assert trace[-1]["shell_weight"] < 1e-8
        assert abs(trace[-1]["survival"] - trace[-2]["survival"]) < 1e-8

    def test_ground_state_stops_at_start(self, row1_protocol):
        result = converge_truncation(row1_protocol, lambda n: fock_state(0, 0, n))
        nmax, trace = result
        assert nmax == 16
        assert [step["nmax"] for step in trace] == [16, 32]
        assert result.hamiltonian.nmax == 16
        assert result.hamiltonian.config == row1_protocol.config

    def test_prebuilt_hamiltonian_must_match(self, row1_protocol):
        h = build_fock_hamiltonian(row1_protocol.config, 12)
        with pytest.raises(ValueError):
            revival_phase(entangled_state(16), entangled_state(12))
        other = design_protocol(1.0, np.pi / 2, 1, 3)
        with pytest.raises(ValueError):
            stability_sweep(entangled_state(12), other, [0.0], h)
        with pytest.raises(ValueError):
            measure_sensitivity(other, entangled_state(12), h=h)

    def test_cap_failure(self, row1_protocol):
        with pytest.raises(ConvergenceFailure):
            converge_truncation(
                row1_protocol,
                lambda n: entangled_state(n),
                nmax_start=4,
                p_tol=0.0,
                nmax_cap=8,
            )


class TestTrack:
    def test_static_ground_state(self):
        protocol = design_protocol(1.0, np.pi / 2, 1, 2)
        static = TrapConfig(1.0, protocol.omega2, 0.0)
        frozen = type(protocol)(
            **{**protocol.__dict__, "theta_dot": 0.0, "omega2": protocol.omega2}
        )
        # bypass the designed config: evolve the ground state of a static trap
        psi0 = fock_state(0, 0, 16)
        grid = wavepacket_track(
            psi0, _StaticProtocol(static, protocol.duration), time_steps=200, grid_points=121
        )
        # the default axes are symmetric about the orbit at the origin
        axis = grid.q1_axis
        np.testing.assert_array_equal(grid.q2_axis, axis)
        peak = np.unravel_index(np.argmax(grid.density), grid.density.shape)
        assert abs(axis[peak[0]]) < 0.05 and abs(axis[peak[1]]) < 0.05
        assert grid.time_integral() == pytest.approx(protocol.duration, rel=0.01)
        # stationary state: density is T * |phi_0(q1) phi_0(q2)|^2
        expected = protocol.duration * np.exp(-(axis**2)) / np.sqrt(np.pi)
        mid = 60
        np.testing.assert_allclose(grid.density[:, mid], expected * np.exp(-(axis[mid] ** 2)) / np.sqrt(np.pi), atol=1e-6)

    def test_small_coherent_ridge(self, row1_protocol):
        psi0 = coherent_state(1.5, 0.5, 24)
        grid = wavepacket_track(psi0, row1_protocol, time_steps=300, grid_points=101)
        assert grid.time_integral() == pytest.approx(row1_protocol.duration, rel=0.01)
        assert grid.diagnostics["quadrature_rel_change"] < 0.01

    @pytest.mark.parametrize("points", [0, 1])
    def test_grid_needs_two_points(self, row1_protocol, monkeypatch, points):
        def no_build(*args):
            raise AssertionError("Hamiltonian built for a grid without spacing")

        monkeypatch.setattr(rotor.quantum, "build_fock_hamiltonian", no_build)
        with pytest.raises(ValueError, match="grid_points"):
            wavepacket_track(coherent_state(1.5, 0.5, 24), row1_protocol, grid_points=points)

    def test_quadrature_guard(self, row1_protocol):
        psi0 = coherent_state(1.5, 0.5, 24)
        with pytest.raises(ConvergenceFailure):
            wavepacket_track(psi0, row1_protocol, time_steps=2, grid_points=61)

    def test_track_grid_validation(self):
        with pytest.raises(ValueError):
            TrackGrid(np.arange(3.0), np.arange(3.0), -np.ones((3, 3)))
        with pytest.raises(ValueError):
            TrackGrid(np.arange(3.0), np.arange(4.0), np.zeros((3, 3)))


class TestCoherentTrack:
    """The Gaussian-amplitude track against its Fock reference."""

    @pytest.mark.parametrize("alpha1, alpha2, nmax", [(2.0, 0.0, 16), (1.5j, -1.2 + 1j, 12)])
    def test_initial_loss_is_the_poisson_tail(self, row1_protocol, alpha1, alpha2, nmax):
        (c,) = _coherent_series(alpha1, alpha2, row1_protocol.config, nmax, [0.0])
        kept = (1 - _coherent_tail(alpha1, nmax)) * (1 - _coherent_tail(alpha2, nmax))
        assert 1 - kept > 1e-7
        assert 1 - (abs(c) ** 2).sum() == pytest.approx(1 - kept, rel=1e-9)

    def test_matches_the_fock_track(self, row1_protocol):
        fock = wavepacket_track(
            coherent_state(1.5, 0.5, 24), row1_protocol, time_steps=300, grid_points=101
        )
        grid = coherent_track(1.5, 0.5, row1_protocol, 24, time_steps=300, grid_points=101)
        np.testing.assert_array_equal(grid.q1_axis, fock.q1_axis)
        np.testing.assert_array_equal(grid.q2_axis, fock.q2_axis)
        peak = fock.density.max()
        assert np.abs(grid.density - fock.density).max() <= 1e-9 * peak
        assert grid.diagnostics["max_norm_loss"] < 1e-12

    def test_chunks_do_not_change_the_density(self, row1_protocol, monkeypatch):
        whole = coherent_track(1.0, 0.5j, row1_protocol, 16, time_steps=60, grid_points=31)
        # at most three times per chunk
        per_time = 16 * (16**2 + 31 * 16 + 31**2) + 8 * 31**2
        monkeypatch.setattr(rotor.quantum, "_TRACK_CHUNK_BYTES", 3 * per_time)
        chunked = coherent_track(1.0, 0.5j, row1_protocol, 16, time_steps=60, grid_points=31)
        np.testing.assert_allclose(chunked.density, whole.density, rtol=1e-13, atol=0)
        assert chunked.diagnostics == pytest.approx(whole.diagnostics, rel=1e-12)

    def test_norm_loss_reports_truncation(self, row1_protocol):
        # |alpha|^2 = 4 leaves a Poisson tail of about 8e-12 above nmax = 24
        grid = coherent_track(2.0, 0.0, row1_protocol, 24, time_steps=100, grid_points=31)
        assert _coherent_tail(2.0, 24) <= grid.diagnostics["max_norm_loss"] < 1e-10

    def test_truncation_too_small(self, row1_protocol):
        with pytest.raises(TruncationTooSmall):
            coherent_track(3.0, 0.0, row1_protocol, 16, time_steps=100, grid_points=31)

    def test_vacuum_underflow_rejected(self, row1_protocol):
        # exp(-|alpha|^2 / 2) = exp(-800) is below the smallest normal double
        with pytest.raises(ValueError, match="underflows"):
            _coherent_series(40, 0, row1_protocol.config, 16, [0.0])

    @pytest.mark.filterwarnings("ignore:invalid value encountered")  # the 0/0 itself
    def test_all_zero_amplitudes_fail_the_quadrature_check(self, row1_protocol):
        axes, times = _track_grid(row1_protocol, np.zeros(4), grid_points=5, time_steps=4)
        with pytest.raises(ConvergenceFailure):
            _track_density(axes, times, 8, lambda t: np.zeros((t.size, 8, 8), dtype=complex))

    @pytest.mark.parametrize("points", [0, 1])
    def test_grid_needs_two_points(self, row1_protocol, points):
        with pytest.raises(ValueError, match="grid_points"):
            coherent_track(1.5, 0.5, row1_protocol, 24, grid_points=points)

    def test_odd_steps_rejected_before_any_evolution(self, row1_protocol, monkeypatch):
        def no_evolution(*args):
            raise AssertionError("state evolved for an odd step count")

        monkeypatch.setattr(rotor.quantum, "build_fock_hamiltonian", no_evolution)
        monkeypatch.setattr(rotor.quantum, "_coherent_series", no_evolution)
        psi0 = coherent_state(1.5, 0.5, 24)
        with pytest.raises(ValueError, match="time_steps"):
            wavepacket_track(psi0, row1_protocol, time_steps=41, grid_points=31)
        with pytest.raises(ValueError, match="time_steps"):
            coherent_track(1.5, 0.5, row1_protocol, 24, time_steps=41, grid_points=31)


class _StaticProtocol:
    """Minimal protocol stand-in for non-rotating tracks."""

    def __init__(self, config, duration):
        self.config = config
        self.duration = duration


class TestStability:
    def test_zero_offset_is_unity(self, row1_protocol):
        sweep = stability_sweep(fock_state(0, 0, 16), row1_protocol, [0.0])
        assert sweep.values[0] == pytest.approx(1.0, abs=1e-6)

    def test_ground_state_rate(self, row1_protocol):
        report = measure_sensitivity(row1_protocol, nmax=16)
        predicted = ground_state_sensitivity(row1_protocol)
        assert report.delta_h_sq == pytest.approx(predicted, rel=1e-10)
        assert report.relative_error < 0.01

    def test_general_state_matches_variance(self, row1_protocol):
        psi0 = entangled_state(16)
        report = measure_sensitivity(row1_protocol, psi0=psi0)
        h = build_fock_hamiltonian(row1_protocol.config, 16)
        assert report.delta_h_sq == pytest.approx(energy_variance(psi0, h), rel=1e-12)
        assert report.relative_error < 0.01

    def test_zero_variance_rejected_before_the_sweep(self, monkeypatch):
        p = design_protocol(1.0, np.pi / 2, 1, 2)
        isotropic = type(p)(**{**p.__dict__, "omega2": p.omega1})
        swept = []
        monkeypatch.setattr(rotor.quantum, "stability_sweep", lambda *a: swept.append(a))
        with pytest.raises(ValueError, match="variance"):
            measure_sensitivity(isotropic, nmax=8)
        assert not swept

    def test_narrowing_with_n2(self):
        curvatures = []
        probes = []
        t_ref = design_protocol(1.0, np.pi / 2, 1, 2).duration
        for n2 in (2, 5, 10):
            protocol = design_protocol(1.0, np.pi / 2, 1, n2)
            report = measure_sensitivity(protocol, nmax=16)
            curvatures.append(report.fitted_rate)
            sweep = stability_sweep(
                fock_state(0, 0, 16), protocol, [0.01 * t_ref]
            )
            probes.append(sweep.values[0])
        assert np.all(np.diff(curvatures) > 0)
        assert np.all(np.diff(probes) < 0)

    def test_fit_requires_offsets(self):
        with pytest.raises(ValueError):
            fit_quadratic_decay(ObservableSeries([0.0], [1.0]))


class TestConjugation:
    def test_zero_generator(self, row1_protocol):
        from rotor import SymplecticTransform

        resid = conjugation_check(np.zeros((4, 4)), SymplecticTransform(np.eye(4)), 12)
        assert resid < 1e-12

    def test_shear(self, row1_protocol):
        _, s1, _, _ = step_transforms(row1_protocol.config)
        g = symplectic_generator(s1)
        assert conjugation_check(g, s1, 30, levels=10) < 1e-6

    def test_squeeze(self, row1_protocol):
        _, _, s2, _ = step_transforms(row1_protocol.config)
        g = symplectic_generator(s2)
        assert conjugation_check(g, s2, 40, levels=8) < 1e-4

    def test_tightens_with_truncation(self, row1_protocol):
        _, _, s2, _ = step_transforms(row1_protocol.config)
        g = symplectic_generator(s2)
        small = conjugation_check(g, s2, 20, levels=8)
        large = conjugation_check(g, s2, 40, levels=8)
        assert large < small

    @pytest.mark.parametrize("nmax", [8, 12])
    @pytest.mark.parametrize(
        "step, sector_dtype", [(1, np.float64), (2, np.complex128)], ids=["shear", "squeeze"]
    )
    def test_unitary_columns_match_dense_expm(self, row1_protocol, nmax, step, sector_dtype):
        # the shear generator rotates to real sectors, the squeeze one does not
        s = step_transforms(row1_protocol.config)[step]
        g = symplectic_generator(s)
        quad = _quadratic_operator(g, nmax)
        _, sectors = _sector_eigh(quad, nmax)
        assert all(v.dtype == sector_dtype for _, _, v in sectors)
        n1, n2 = _index_grids(nmax)
        keep = np.where((n1 < nmax // 2) & (n2 < nmax // 2))[0]
        dense = expm(1j * quad.toarray())
        assert np.abs(_unitary_columns(g, nmax, keep) - dense[:, keep]).max() < 1e-12

    def test_wrong_generator_rejected(self, row1_protocol):
        from rotor import LogBranchFailure, SymplecticTransform

        _, s1, _, _ = step_transforms(row1_protocol.config)
        with pytest.raises(LogBranchFailure):
            conjugation_check(np.eye(4), s1, 12)


def test_observable_series_validation():
    with pytest.raises(ValueError):
        ObservableSeries([0.0, 1.0], [1.0])
