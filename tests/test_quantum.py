import dataclasses
import math
import types
from itertools import islice

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import rotor.quantum
from scipy.special import eval_hermite, factorial, jv

from rotor import (
    ClosedFormState,
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
    GROUND_STATE_WIDTH,
    ObservableSeries,
    QuantumState,
    TrackGrid,
    _coherent_series,
    _coherent_tail,
    _expm_action,
    _gershgorin_interval,
    _propagator,
    _track_density,
    _track_grid,
    eigenvalues,
    energy_variance,
    evolve_series,
    fit_quadratic_decay,
    hermite_functions,
    phase_space_expectations,
    phase_space_operators,
    top_shell_weight,
)


def _refuse_eigensolver(*args, **kwargs):
    raise AssertionError("a Hamiltonian was factorized")


class _EinsumSpy(types.ModuleType):
    """numpy as ``rotor.quantum`` sees it, recording the subscripts and
    options of the two contractions that stand in for BLAS products: the
    survival sum and the conjugation residual.  With ``blas`` set, each runs
    as the ``@`` product it replaced."""

    _BLAS_FORMS = {"tj,j->t": lambda a, b: a @ b, "ij,ik->jk": lambda a, b: a.T @ b}

    def __init__(self):
        super().__init__("numpy")
        self.blas, self.calls = False, []

    def __getattr__(self, name):
        return getattr(np, name)

    def einsum(self, subscripts, *operands, **kwargs):
        if subscripts in self._BLAS_FORMS:
            self.calls.append((subscripts, kwargs))
            if self.blas:
                return self._BLAS_FORMS[subscripts](*operands)
        return np.einsum(subscripts, *operands, **kwargs)

    def own_loops(self, subscripts):
        """The number of recorded contractions, after checking that each
        has ``subscripts`` and runs numpy's own loop (no ``optimize``,
        which may hand a contraction to BLAS)."""
        assert all(spec == subscripts and not kw.get("optimize", False) for spec, kw in self.calls)
        return len(self.calls)


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
        with pytest.raises(TruncationTooSmall, match="nmax = 1"):
            entangled_state(1)

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

    def test_nan_coefficient_rejected(self):
        # a NaN norm fails every comparison, so it must not pass as "not too far from 1"
        c = np.zeros((4, 4), dtype=complex)
        c[0, 0], c[1, 1] = 1.0, np.nan
        with pytest.raises(ValueError, match="normalized"):
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

    def test_built_from_neither_ladder_products_nor_kron(self, row1_protocol, monkeypatch):
        # the band is its own closed form; the sparse q and p stay the oracle's
        def refuse(*args, **kwargs):
            raise AssertionError("the band was built from the sparse q and p")

        monkeypatch.setattr(rotor.quantum, "phase_space_operators", refuse)
        monkeypatch.setattr(sp, "kron", refuse)
        for config in (row1_protocol.config, TrapConfig(1.0, 1.7, 0.0)):
            for nmax in (2, 9):
                assert build_fock_hamiltonian(config, nmax).rotated.shape == (nmax**2, nmax**2)

    def test_nmax_validation(self, row1_protocol):
        with pytest.raises(ValueError):
            build_fock_hamiltonian(row1_protocol.config, 1)

    def test_compares_and_hashes_by_identity(self, row1_protocol):
        # a sparse matrix has no truth value, so equal builds are distinct
        h, again = (build_fock_hamiltonian(row1_protocol.config, 4) for _ in range(2))
        assert h == h and h != again
        assert len({h, h, again}) == 2
        assert hash(h) == hash(h)

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
        with pytest.raises(ValueError, match="parity"):
            FockHamiltonian.from_matrix(h.matrix + 0.1 * q1, nmax)

    def test_complex_sector_rejected(self, row1_protocol):
        # a q1 p1 squeeze term stays imaginary under the diag(i**n1) rotation
        nmax = 8
        h = build_fock_hamiltonian(row1_protocol.config, nmax)
        q1, _, p1, _ = phase_space_operators(nmax)
        with pytest.raises(ValueError, match="not real"):
            FockHamiltonian.from_matrix(h.matrix + 0.1 * (q1 @ p1 + p1 @ q1), nmax)

    def test_parity_coupling_rejected_by_the_search(self, row1_protocol, monkeypatch):
        # a search whose build takes a foreign matrix meets the same check
        def coupled(config, nmax):
            h = build_fock_hamiltonian(config, nmax)
            return FockHamiltonian.from_matrix(h.matrix + 0.1 * phase_space_operators(nmax)[0], nmax)

        monkeypatch.setattr(rotor.quantum, "build_fock_hamiltonian", coupled)
        with pytest.raises(ValueError, match="parity"):
            converge_truncation(row1_protocol, entangled_state, nmax_start=8)

    def test_complex_sector_rejected_by_the_search(self, row1_protocol, monkeypatch):
        def squeezed(config, nmax):
            h = build_fock_hamiltonian(config, nmax)
            q1, _, p1, _ = phase_space_operators(nmax)
            return FockHamiltonian.from_matrix(h.matrix + 0.1 * (q1 @ p1 + p1 @ q1), nmax)

        monkeypatch.setattr(rotor.quantum, "build_fock_hamiltonian", squeezed)
        with pytest.raises(ValueError, match="not real"):
            converge_truncation(row1_protocol, entangled_state, nmax_start=8)

    def test_asymmetric_rotation_rejected(self, row1_protocol):
        # i a1+ a2 without its conjugate is real after the rotation, but the
        # rotated matrix is not symmetric: no Hamiltonian
        nmax = 8
        h = build_fock_hamiltonian(row1_protocol.config, nmax)
        q1, q2, p1, p2 = phase_space_operators(nmax)
        hop = (q1 - 1j * p1) @ (q2 + 1j * p2) / 2
        with pytest.raises(ValueError, match="not real symmetric"):
            FockHamiltonian.from_matrix(h.matrix + 0.1j * hop, nmax)

    def test_from_matrix_keeps_the_built_band(self, row1_protocol):
        # the unit phases i**n1 round nothing, so the rotation of the derived
        # complex matrix is the band itself, bit for bit
        for config in (row1_protocol.config, TrapConfig(1.0, 1.7, 0.0)):
            h = build_fock_hamiltonian(config, 9)
            again = FockHamiltonian.from_matrix(h.matrix, 9).rotated
            assert abs(again - h.rotated).max() == 0.0

    def test_spectrum_forms_no_eigenvectors(self, row1_protocol, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a spectrum needs no eigenvectors")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        h = build_fock_hamiltonian(row1_protocol.config, 12)
        assert eigenvalues(h).shape == (144,)

    def test_spectrum_calls_no_dense_eigensolver(self, row1_protocol, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the spectrum is read from band storage")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        h = build_fock_hamiltonian(row1_protocol.config, 12)
        assert eigenvalues(h).shape == (144,)

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
    def test_no_stale_factorization(self, rng, row1_protocol):
        # a Hamiltonian cannot change in place and caches no factorization,
        # so every series follows the matrix it is given, evolved before or not
        nmax = 8
        h = build_fock_hamiltonian(row1_protocol.config, nmax)
        other = build_fock_hamiltonian(design_protocol(1.0, np.pi / 2, 1, 3).config, nmax)
        c = rng.normal(size=(nmax, nmax)) + 1j * rng.normal(size=(nmax, nmax))
        psi = QuantumState(c / np.linalg.norm(c))
        times = np.array([0.3, 1.7, row1_protocol.duration])

        def assert_evolves_under(matrix, series):
            for t, row in zip(times, series):
                exact = expm(-1j * matrix.toarray() * t) @ psi.vector
                assert np.abs(row.ravel() - exact).max() < 1e-12

        assert_evolves_under(h.matrix, evolve_series(psi, h, times))
        for name in ("rotated", "matrix"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(h, name, other.rotated)
        assert_evolves_under(h.matrix, evolve_series(psi, h, times))
        swapped = dataclasses.replace(h, rotated=other.rotated)
        assert_evolves_under(other.matrix, evolve_series(psi, swapped, times))

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
        with pytest.raises(ValueError, match="truncations"):
            energy_variance(entangled_state(10), h)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, row1_protocol, bad):
        h = build_fock_hamiltonian(row1_protocol.config, 4)
        with pytest.raises(ValueError, match="finite"):
            evolve_series(entangled_state(4), h, [0.0, bad])

    @settings(deadline=None)
    @given(st.lists(st.floats(-200.0, 200.0), min_size=1, max_size=8))
    def test_chebyshev_weights_match_bessel(self, offsets):
        # the FFT rule against scipy's jv, with K from the order rule; jv
        # itself errs by up to 1.5e-14 near the turning point k = |z| at |z|
        # near 100, where the FFT rule holds to 2e-15 of the exact values
        z = np.array([0.0, *offsets])
        orders = rotor.quantum._chebyshev_orders(np.abs(z).max())
        k = np.arange(orders)
        weights = rotor.quantum._chebyshev_weights(z, orders)
        assert weights.shape == (z.size, orders)
        np.testing.assert_array_equal(weights[0], k == 0)
        want = (2 - (k == 0)) * (-1j) ** k * jv(k, z[:, None])
        assert np.abs(weights - want).max() <= 2e-14


class TestChebyshevEvolve:
    """The Chebyshev propagator, at one time and over a grid."""

    @pytest.mark.parametrize(
        "config",
        [
            # diagonal: its Gershgorin discs are points, and the spectrum fills the interval
            TrapConfig(1.0, 1.7, 0.0),
            design_protocol(1.0, np.pi / 2, 1, 2).config,
            design_protocol(1.0, 7.2, 1, 4).config,
            design_protocol(2 * np.pi, 1.0, 2, 3).config,
        ],
        ids=["static", "row1", "squeezing", "fast"],
    )
    @pytest.mark.parametrize("nmax", [2, 7, 16])
    def test_scaled_spectrum_within_unit_interval(self, config, nmax):
        rot = build_fock_hamiltonian(config, nmax).rotated
        centre, radius = _gershgorin_interval(rot)
        scaled = (np.linalg.eigvalsh(rot.toarray()) - centre) / radius
        assert scaled.min() >= -1.0 and scaled.max() <= 1.0

    def test_identity_at_zero_bit_for_bit(self, rng, row1_protocol):
        nmax = 9
        h = build_fock_hamiltonian(row1_protocol.config, nmax)
        c = rng.normal(size=(nmax, nmax)) + 1j * rng.normal(size=(nmax, nmax))
        psi = QuantumState(c / np.linalg.norm(c))
        assert _propagator(psi, h)(0.0)[0].tobytes() == psi.coeffs.tobytes()

    @pytest.mark.parametrize("nmax", [16, 32])
    def test_block_is_the_generator_recurrence_bit_for_bit(self, rng, row1_protocol, nmax):
        # one block of the widest span, K = 70 orders, against its terms made
        # one at a time by a generator and stacked
        h = build_fock_hamiltonian(row1_protocol.config, nmax)
        c = rng.normal(size=(nmax, nmax)) + 1j * rng.normal(size=(nmax, nmax))
        psi = QuantumState(c / np.linalg.norm(c))
        phases, centre, radius, turn, x = rotor.quantum._chebyshev_start(psi, h)

        def terms():
            previous, current = x, turn @ x / 2
            yield previous
            while True:
                yield current
                previous, current = current, turn @ current + previous

        times = np.linspace(0.0, rotor.quantum._CHEBYSHEV_SPAN / radius, 9)
        z = radius * times
        orders = rotor.quantum._chebyshev_orders(np.abs(z).max())
        assert orders == rotor.quantum._CHEBYSHEV_ROWS
        weights = (rotor.quantum._chebyshev_weights(z, orders) * 1j ** np.arange(orders)).real
        series = weights @ np.stack(list(islice(terms(), orders)))
        states = np.exp(-1j * centre * times)[:, None] * (series[:, : nmax**2] + 1j * series[:, nmax**2 :])
        want = (states * phases).reshape(times.size, nmax, nmax)
        assert evolve_series(psi, h, times).tobytes() == want.tobytes()

    def test_zero_diagonal_entry_is_stored(self, row1_protocol):
        # H - H_00 has a zero at (0, 0): from_matrix stores it, so the series
        # shifts it like every other diagonal entry
        nmax = 6
        h = build_fock_hamiltonian(row1_protocol.config, nmax)
        shifted = h.matrix - h.matrix[0, 0].real * sp.eye(nmax * nmax, format="csr")
        again = FockHamiltonian.from_matrix(shifted, nmax)
        assert again.rotated.has_canonical_format and np.count_nonzero(again.rotated.diagonal() == 0) == 1
        psi = entangled_state(nmax)
        got = evolve_series(psi, again, [0.7])[0].ravel()
        assert np.abs(got - expm(-0.7j * shifted.toarray()) @ psi.vector).max() <= 1e-13

    def test_missing_diagonal_entry_rejected_before_any_product(self, row1_protocol, monkeypatch):
        rot = build_fock_hamiltonian(row1_protocol.config, 6).rotated.tolil()
        rot[3, 3] = 0.0
        h = FockHamiltonian(rot.tocsr(), 6)
        TestStability._dense_products(monkeypatch, refuse=True)
        for run in (lambda: evolve_series(entangled_state(6), h, [0.5]),
                    lambda: rotor.quantum._autocorrelation(entangled_state(6), h, [0.5])):
            with pytest.raises(ValueError, match="diagonal"):
                run()

    def test_norm_of_the_benchmark_state_at_nmax_64(self, rng):
        # the perfbench simulate run's coherent state and design, one period
        protocol = design_protocol(2 * np.pi, np.pi / 2, 1, 2)
        phases = np.exp(1j * rng.uniform(0.0, 2 * np.pi, 2))
        psi = coherent_state(1.0 * phases[0], 0.5 * phases[1], 64)
        h = build_fock_hamiltonian(protocol.config, 64)
        psi_t = _propagator(psi, h)(protocol.duration)[0]
        assert abs(np.linalg.norm(psi_t) - 1.0) <= 1e-12
        assert survival_probability(psi, psi_t) == pytest.approx(1.0, abs=1e-12)


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
        assert type(result) is tuple

    def test_prebuilt_hamiltonian_must_match(self, row1_protocol):
        with pytest.raises(ValueError):
            revival_phase(entangled_state(16), entangled_state(12))

    def test_cap_failure(self, row1_protocol):
        # the top shell holds all of the state's weight at every size
        with pytest.raises(ConvergenceFailure):
            converge_truncation(
                row1_protocol, lambda n: fock_state(n - 1, 0, n), nmax_start=4, nmax_cap=8
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
        grid = coherent_track(1.5, 0.5, row1_protocol, time_steps=300, grid_points=101)
        # the Fock axes follow the centroid of the renormalized truncated
        # state, which differs from the exact one by the Poisson tail
        np.testing.assert_allclose(grid.q1_axis, fock.q1_axis, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grid.q2_axis, fock.q2_axis, rtol=0, atol=1e-12)
        peak = fock.density.max()
        assert np.abs(grid.density - fock.density).max() <= 1e-9 * peak
        assert grid.diagnostics["max_norm_loss"] < 1e-12
        assert fock.packet_width is None

    def test_packet_width_is_the_smallest_fock_spread(self, row1_protocol):
        psi0 = coherent_state(1.5, 0.5, 24)
        grid = coherent_track(1.5, 0.5, row1_protocol, time_steps=300, grid_points=21)
        stack = evolve_series(
            psi0, build_fock_hamiltonian(row1_protocol.config, 24), grid.trajectory.times
        )
        q1, q2 = phase_space_operators(24)[:2]
        vectors = stack.reshape(stack.shape[0], -1).T
        moments = [
            [np.einsum("it,it->t", vectors.conj(), a @ (b @ vectors)).real for b in (q1, q2)]
            for a in (q1, q2)
        ]
        mean = phase_space_expectations(stack)[:, :2]
        cov = np.moveaxis(np.array(moments), -1, 0) - mean[:, :, None] * mean[:, None, :]
        width = np.sqrt(np.linalg.eigvalsh(cov)[:, 0].min())
        assert grid.packet_width == pytest.approx(width, rel=1e-9)
        assert grid.packet_width < GROUND_STATE_WIDTH

    def test_chunks_do_not_change_the_density(self, row1_protocol, monkeypatch):
        psi0 = coherent_state(1.0, 0.5j, 16)
        whole = wavepacket_track(psi0, row1_protocol, time_steps=60, grid_points=31)
        # at most three times per chunk, at nmax = 16
        per_time = 16 * (16**2 + 31 * 16 + 31**2) + 8 * 31**2
        monkeypatch.setattr(rotor.quantum, "_TRACK_CHUNK_BYTES", 3 * per_time)
        # the 61 times run in 21 chunks, each continuing the series of the
        # last, and no chunk factorizes anything
        monkeypatch.setattr(np.linalg, "eigh", _refuse_eigensolver)
        chunked = wavepacket_track(psi0, row1_protocol, time_steps=60, grid_points=31)
        np.testing.assert_allclose(chunked.density, whole.density, rtol=1e-13, atol=0)
        assert chunked.diagnostics == pytest.approx(whole.diagnostics, rel=1e-12)

    def test_no_basis_and_few_truncation_times(self, row1_protocol, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the Gaussian track used the Fock basis")

        monkeypatch.setattr(rotor.quantum, "hermite_functions", refuse)
        monkeypatch.setattr(rotor.quantum, "build_fock_hamiltonian", refuse)
        sampled = []
        series = rotor.quantum._coherent_series

        def counted(alpha1, alpha2, config, nmax, times):
            sampled.extend(times)
            return series(alpha1, alpha2, config, nmax, times)

        monkeypatch.setattr(rotor.quantum, "_coherent_series", counted)
        grid = coherent_track(1.5, 0.5, row1_protocol, time_steps=300, grid_points=31)
        assert len(sampled) <= 21
        assert sampled[0] == 0.0 and sampled[-1] == row1_protocol.duration
        assert grid.diagnostics["nmax"] == coherent_nmax(1.5, 0.5)

    def test_norm_loss_reports_truncation(self, row1_protocol):
        # |alpha|^2 = 4 leaves a Poisson tail of about 8e-12 above coherent_nmax = 24
        grid = coherent_track(2.0, 0.0, row1_protocol, time_steps=100, grid_points=31)
        assert grid.diagnostics["nmax"] == 24
        assert _coherent_tail(2.0, 24) <= grid.diagnostics["max_norm_loss"] < 1e-10

    def test_vacuum_underflow_rejected(self, row1_protocol):
        # exp(-|alpha|^2 / 2) = exp(-800) is below the smallest normal double
        with pytest.raises(ValueError, match="underflows"):
            _coherent_series(40, 0, row1_protocol.config, 16, [0.0])

    @pytest.mark.filterwarnings("ignore:invalid value encountered")  # the 0/0 itself
    def test_all_zero_amplitudes_fail_the_quadrature_check(self, row1_protocol):
        axes, orbit = _track_grid(row1_protocol, np.zeros(4), grid_points=5, time_steps=4)
        with pytest.raises(ConvergenceFailure):
            _track_density(axes, orbit, 8, lambda t: np.zeros((t.size, 8, 8), dtype=complex))

    @pytest.mark.parametrize("points", [0, 1])
    def test_grid_needs_two_points(self, row1_protocol, points):
        with pytest.raises(ValueError, match="grid_points"):
            coherent_track(1.5, 0.5, row1_protocol, grid_points=points)

    def test_odd_steps_rejected_before_any_evolution(self, row1_protocol, monkeypatch):
        def no_evolution(*args):
            raise AssertionError("state evolved for an odd step count")

        monkeypatch.setattr(rotor.quantum, "build_fock_hamiltonian", no_evolution)
        monkeypatch.setattr(rotor.quantum, "_coherent_series", no_evolution)
        psi0 = coherent_state(1.5, 0.5, 24)
        with pytest.raises(ValueError, match="time_steps"):
            wavepacket_track(psi0, row1_protocol, time_steps=41, grid_points=31)
        with pytest.raises(ValueError, match="time_steps"):
            coherent_track(1.5, 0.5, row1_protocol, time_steps=41, grid_points=31)


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
        monkeypatch.setattr(rotor.quantum, "_autocorrelation", lambda *a: swept.append(a))
        with pytest.raises(ValueError, match="variance"):
            measure_sensitivity(isotropic, nmax=8)
        assert not swept

    @staticmethod
    def _dense_products(monkeypatch, refuse=False):
        """The shapes of the dense operands of every sparse CSR product from
        now on, the products of a Chebyshev series; with ``refuse``, any one
        fails."""
        products = []
        matmul = sp.csr_matrix.__matmul__

        def counting(matrix, other):
            if isinstance(other, np.ndarray):
                if refuse:
                    raise AssertionError("a sparse product ran")
                products.append(other.shape)
            return matmul(matrix, other)

        monkeypatch.setattr(sp.csr_matrix, "__matmul__", counting)
        return products

    def test_sweep_takes_half_the_orders_in_products(self, monkeypatch):
        # K moments from about K / 2 products of one series, with no hops
        protocol = design_protocol(1.0, np.pi / 2, 1, 10)
        h = build_fock_hamiltonian(protocol.config, 16)
        _, radius = _gershgorin_interval(h.rotated)
        orders, count = [], rotor.quantum._chebyshev_orders
        monkeypatch.setattr(rotor.quantum, "_chebyshev_orders", lambda top: orders.append(count(top)) or orders[-1])
        products = self._dense_products(monkeypatch)
        window = 0.01 * protocol.duration
        rotor.quantum._survival_sweep(fock_state(0, 0, 16), protocol, h, np.linspace(-window, window, 25))
        (k,) = orders
        assert k > radius * (protocol.duration + window)
        assert 0 < len(products) <= math.ceil(k / 2) + 2

    def test_short_tables_continue_one_series(self, monkeypatch):
        # tables of three rows, each one new term after the two it repeats,
        # against the whole series in one table
        protocol = design_protocol(1.0, np.pi / 2, 1, 10)
        h = build_fock_hamiltonian(protocol.config, 16)
        psi0 = entangled_state(16)
        times = protocol.duration * (1.0 + np.linspace(-0.01, 0.01, 25))
        tables, terms = [], rotor.quantum._chebyshev_terms

        def recording(*args):
            for table in terms(*args):
                tables.append(len(table))
                yield table

        monkeypatch.setattr(rotor.quantum, "_chebyshev_terms", recording)
        monkeypatch.setattr(rotor.quantum, "_CHEBYSHEV_ROWS", 10**6)
        whole = rotor.quantum._autocorrelation(psi0, h, times)
        (rows,) = tables
        monkeypatch.setattr(rotor.quantum, "_CHEBYSHEV_ROWS", 3)
        orders, count = [], rotor.quantum._chebyshev_orders
        monkeypatch.setattr(rotor.quantum, "_chebyshev_orders", lambda top: orders.append(count(top)) or orders[-1])
        products = self._dense_products(monkeypatch)
        short = rotor.quantum._autocorrelation(psi0, h, times)
        (k,) = orders
        assert tables[1:] == [3] * (rows - 2)
        assert np.abs(short - whole).max() <= 1e-15
        assert 0 < len(products) <= math.ceil(k / 2) + 1

    def test_sweep_forms_no_bessel_table_and_no_state(self, row1_protocol, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep evolved a state")

        for name in ("_propagator", "evolve_series"):
            monkeypatch.setattr(rotor.quantum, name, refuse)
        sweep = stability_sweep(entangled_state(16), row1_protocol, [-row1_protocol.duration, 0.0])
        assert sweep.values[0] == pytest.approx(1.0, abs=1e-15)
        assert sweep.values[1] == pytest.approx(1.0, abs=1e-9)
        measure_sensitivity(row1_protocol, nmax=16)

    def test_mismatched_truncation_rejected_before_any_product(self, row1_protocol, monkeypatch):
        h = build_fock_hamiltonian(row1_protocol.config, 8)
        self._dense_products(monkeypatch, refuse=True)
        with pytest.raises(ValueError, match="truncations"):
            rotor.quantum._survival_sweep(entangled_state(10), row1_protocol, h, [0.0])
        with pytest.raises(ValueError, match="truncations"):
            evolve_series(entangled_state(10), h, [0.0, 1.0])

    def test_sweep_runs_the_propagators_recurrence(self, row1_protocol, monkeypatch):
        # one Chebyshev recurrence: the survival sum reads its moments from
        # the propagator's own terms, one series per sweep
        calls = []
        terms = rotor.quantum._chebyshev_terms
        monkeypatch.setattr(rotor.quantum, "_chebyshev_terms", lambda *a: calls.append("terms") or terms(*a))
        psi0 = entangled_state(16)
        stability_sweep(psi0, row1_protocol, [-0.01, 0.0, 0.01])
        assert len(calls) == 1
        evolve_series(psi0, build_fock_hamiltonian(row1_protocol.config, 16), [0.0, 0.1])
        assert len(calls) == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_offset_not_finite_rejected_before_any_product(self, row1_protocol, monkeypatch, bad):
        self._dense_products(monkeypatch, refuse=True)
        with pytest.raises(ValueError, match="finite"):
            stability_sweep(fock_state(0, 0, 8), row1_protocol, [0.0, bad])

    def test_one_build_and_one_factorization(self, row1_protocol, monkeypatch):
        # the variance and the sweep share one Hamiltonian, and neither
        # factorizes it
        built = []
        build = rotor.quantum.build_fock_hamiltonian

        def counting_build(config, nmax):
            built.append(nmax)
            return build(config, nmax)

        monkeypatch.setattr(rotor.quantum, "build_fock_hamiltonian", counting_build)
        monkeypatch.setattr(np.linalg, "eigh", _refuse_eigensolver)
        measure_sensitivity(row1_protocol, nmax=16)
        assert built == [16]

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

    def test_scalar_offset_gives_a_one_point_series(self, row1_protocol, monkeypatch):
        psi0 = fock_state(0, 0, 8)
        offset = 0.01 * row1_protocol.duration
        scalar = stability_sweep(psi0, row1_protocol, offset)
        listed = stability_sweep(psi0, row1_protocol, [offset])
        assert scalar.times.shape == scalar.values.shape == (1,)
        np.testing.assert_array_equal(scalar.times, listed.times)
        np.testing.assert_array_equal(scalar.values, listed.values)
        # a scalar that is not finite is still refused before any product
        self._dense_products(monkeypatch, refuse=True)
        with pytest.raises(ValueError, match="finite"):
            stability_sweep(psi0, row1_protocol, np.nan)

    @pytest.mark.parametrize("chunk_bytes", [1, 2**15])
    def test_chunked_sum_equals_one_chunk(self, monkeypatch, chunk_bytes):
        protocol = design_protocol(1.0, np.pi / 2, 1, 10)
        h = build_fock_hamiltonian(protocol.config, 16)
        psi0 = entangled_state(16)
        times = protocol.duration * np.linspace(-1.0, 1.0, 101)
        spy = _EinsumSpy()
        monkeypatch.setattr(rotor.quantum, "np", spy)
        whole = rotor.quantum._autocorrelation(psi0, h, times)
        assert spy.own_loops("tj,j->t") == 1
        monkeypatch.setattr(rotor.quantum, "_SWEEP_CHUNK_BYTES", chunk_bytes)
        chunked = rotor.quantum._autocorrelation(psi0, h, times)
        assert spy.own_loops("tj,j->t") > 2
        assert np.abs(chunked - whole).max() <= 1e-15

    @pytest.mark.parametrize("n2", [2, 5, 10])
    def test_survival_sum_leaves_blas_alone(self, monkeypatch, n2):
        # numpy's own loop against the gemv it replaced, on the sensitivity sweep
        protocol = design_protocol(1.0, np.pi / 2, 1, n2)
        h = build_fock_hamiltonian(protocol.config, 16)
        window = rotor.quantum.SENSITIVITY_WINDOW * protocol.duration
        times = protocol.duration + np.linspace(-window, window, 25)
        spy = _EinsumSpy()
        monkeypatch.setattr(rotor.quantum, "np", spy)
        got = rotor.quantum._autocorrelation(fock_state(0, 0, 16), h, times)
        assert spy.own_loops("tj,j->t") == 1
        spy.blas = True
        want = rotor.quantum._autocorrelation(fock_state(0, 0, 16), h, times)
        # the two orders of summing the K (656 at n2 = 10) terms of the rule
        # differ by a few eps: 1.1e-15 at n2 = 10
        assert np.abs(got - want).max() <= 1e-14


class TestClosedFormState:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"alpha1": np.nan}, "finite"),
            ({"alpha2": 1e200j}, "finite"),
            ({"alpha1": 1, "entangled": True}, "no coherent amplitudes"),
        ],
    )
    def test_invalid_state_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ClosedFormState(**kwargs)

    def test_ground_state_carries_zero_point_phase(self, row1_protocol):
        o1, o2 = normal_frequencies(row1_protocol.config)
        duration = row1_protocol.duration
        overlap = ClosedFormState().overlap(row1_protocol.config, duration)
        assert abs(overlap - np.exp(-1j * (o1 + o2) * duration / 2)) < 1e-12

    @pytest.mark.parametrize("t", [0.0, 0.37, -2.5, 17.0])
    def test_overlap_forms_one_flow_at_its_time(self, monkeypatch, row1_protocol, t):
        # G0 is a closed form: no grid over [0, t] follows its branch
        calls = []
        ladder_flow = rotor.quantum._ladder_flow

        def recording(config, times):
            calls.append(np.atleast_1d(times).tolist())
            return ladder_flow(config, times)

        monkeypatch.setattr(rotor.quantum, "_ladder_flow", recording)
        for state in (ClosedFormState(), ClosedFormState(entangled=True), ClosedFormState(1, 0.5j)):
            calls.clear()
            state.overlap(row1_protocol.config, t * row1_protocol.duration)
            assert calls == [[t * row1_protocol.duration]]

    @pytest.mark.parametrize(
        "state", [ClosedFormState(), ClosedFormState(entangled=True)], ids=["ground", "entangled"]
    )
    @pytest.mark.parametrize("method", ["survival", "overlap", "mean_excitation"])
    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_time_not_finite_rejected(self, row1_protocol, state, method, t):
        times = t if method == "overlap" else [0.0, t]
        with pytest.raises(ValueError, match="evolution times must be finite"):
            getattr(state, method)(row1_protocol.config, times)

    def test_ground_state_sensitivity(self, row1_protocol):
        report = ClosedFormState().sensitivity(row1_protocol)
        fock = measure_sensitivity(row1_protocol, nmax=16)
        assert report.delta_h_sq == pytest.approx(ground_state_sensitivity(row1_protocol), rel=1e-14)
        assert report.fitted_rate == pytest.approx(fock.fitted_rate, rel=1e-10)

    def test_zero_variance_rejected_before_the_sweep(self, monkeypatch):
        p = design_protocol(1.0, np.pi / 2, 1, 2)
        isotropic = type(p)(**{**p.__dict__, "omega2": p.omega1})
        monkeypatch.setattr(ClosedFormState, "survival", None)  # nothing may be swept
        with pytest.raises(ValueError, match="variance"):
            ClosedFormState().sensitivity(isotropic)


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

    @pytest.mark.parametrize("nmax", [12, 24])
    @pytest.mark.parametrize("step, levels", [(1, 10), (2, 8)], ids=["shear", "squeeze"])
    def test_residual_contraction_leaves_blas_alone(self, row1_protocol, monkeypatch, nmax, step, levels):
        # numpy's own loop against the zgemm it replaced
        transform = step_transforms(row1_protocol.config)[step]
        g = symplectic_generator(transform)
        spy = _EinsumSpy()
        monkeypatch.setattr(rotor.quantum, "np", spy)
        got = conjugation_check(g, transform, nmax, levels=levels)
        assert spy.own_loops("ij,ik->jk") == 4
        spy.blas = True
        want = conjugation_check(g, transform, nmax, levels=levels)
        assert 0 < got and abs(got - want) <= 1e-15

    def test_shares_no_code_with_the_evolution(self, row1_protocol, monkeypatch):
        # nor with the closed-form band it would otherwise check itself against
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle reached the Fock evolution or the band builder")

        for name in ("_propagator", "_autocorrelation", "_gershgorin_interval", "_chebyshev_start",
                     "_chebyshev_orders", "_chebyshev_weights", "_chebyshev_terms", "evolve_series",
                     "build_fock_hamiltonian", "FockHamiltonian", "_rotation_phases", "_parity_sectors"):
            monkeypatch.setattr(rotor.quantum, name, refuse)
        _, s1, _, _ = step_transforms(row1_protocol.config)
        assert conjugation_check(symplectic_generator(s1), s1, 20, levels=10) < 1e-6

    def test_residual_independent_of_the_global_random_stream(self, row1_protocol):
        _, _, s2, _ = step_transforms(row1_protocol.config)
        g = symplectic_generator(s2)
        saved, residuals = np.random.get_state(), []
        try:
            for seed in (0, 1):
                np.random.seed(seed)
                residuals.append(conjugation_check(g, s2, 24, levels=8))
            # and draws nothing from it
            before = np.random.get_state()
            conjugation_check(g, s2, 24, levels=8)
            after = np.random.get_state()
        finally:
            np.random.set_state(saved)
        assert residuals[0] == residuals[1]
        assert before[0] == after[0] and before[2:] == after[2:]
        np.testing.assert_array_equal(before[1], after[1])

    def test_one_level_keeps_no_odd_state(self, row1_protocol):
        # |0, 0> alone is kept: every v_j maps it off the kept block
        _, s1, _, _ = step_transforms(row1_protocol.config)
        assert conjugation_check(symplectic_generator(s1), s1, 12, levels=1) == 0.0

    @pytest.mark.parametrize("levels", [0, -1])
    def test_levels_below_one_rejected(self, row1_protocol, monkeypatch, levels):
        monkeypatch.setattr(rotor.quantum, "_expm_action", None)  # nothing may run
        _, s1, _, _ = step_transforms(row1_protocol.config)
        with pytest.raises(ValueError, match="levels must be at least 1"):
            conjugation_check(symplectic_generator(s1), s1, 12, levels=levels)

    @pytest.mark.parametrize("nmax", [1, 0])
    def test_nmax_below_two_rejected(self, row1_protocol, monkeypatch, nmax):
        monkeypatch.setattr(rotor.quantum, "_expm_action", None)  # nothing may run
        _, s1, _, _ = step_transforms(row1_protocol.config)
        with pytest.raises(ValueError, match="nmax must be at least 2"):
            conjugation_check(symplectic_generator(s1), s1, nmax)

    def test_levels_above_nmax_keep_the_whole_basis(self, row1_protocol):
        # perfbench's small warm-up runs nmax 8 and 4 with levels 10
        _, s1, _, _ = step_transforms(row1_protocol.config)
        g = symplectic_generator(s1)
        for nmax in (8, 4):
            assert conjugation_check(g, s1, nmax, levels=10) == conjugation_check(
                g, s1, nmax, levels=nmax
            )

    def test_wrong_generator_rejected(self, row1_protocol):
        from rotor import LogBranchFailure, SymplecticTransform

        _, s1, _, _ = step_transforms(row1_protocol.config)
        with pytest.raises(LogBranchFailure):
            conjugation_check(np.eye(4), s1, 12)


class TestExpmAction:
    """The conjugation oracle's Taylor series against the dense ``expm``,
    on normal matrices whose exponential keeps every norm: anti-Hermitian
    (complex) and skew-symmetric (real), dense and sparse, with 1-norms
    from 0 to 40 (up to five steps of the series), applied to one column
    and to 30."""

    @pytest.mark.parametrize("norm", [0.0, 1e-3, 3.0, 9.9, 10.0, 25.0, 40.0])
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("storage", ["dense", "sparse"])
    def test_matches_the_dense_exponential(self, norm, field, storage):
        rng = np.random.default_rng(int(norm * 10) + 7 * (field == "real"))
        for n in (9, 24, 64):
            x = rng.normal(size=(n, n))
            if field == "real":
                a, b = x - x.T, rng.normal(size=(n, 30))
            else:
                x = x + 1j * rng.normal(size=(n, n))
                a, b = 1j * (x + x.conj().T), rng.normal(size=(n, 30)) + 1j * rng.normal(size=(n, 30))
            a *= norm / np.abs(a).sum(axis=0).max()
            op = sp.csr_matrix(a) if storage == "sparse" else a
            for cols in (b[:, :1], b):
                got, want = _expm_action(op, cols), expm(a) @ cols
                assert got.dtype == want.dtype
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @staticmethod
    def _tested_at_every_term(a, b):
        """exp(a) @ b by the same Taylor series, with the exact stop test on
        the partial sum's norm taken after every term."""
        steps = max(1, math.ceil(abs(a).sum(axis=0).max() / 9.9))
        for _ in range(steps):
            term, total = b, np.array(b, dtype=np.result_type(a.dtype, b.dtype))
            size = np.abs(term).sum(axis=1).max()
            for k in range(1, 56):
                term = a @ term
                term *= 1.0 / (steps * k)
                prev, size = size, np.abs(term).sum(axis=1).max()
                total += term
                if prev + size <= 2.0**-53 * np.abs(total).sum(axis=1).max():
                    break
            b = total
        return b

    def test_stops_where_the_exact_test_does(self, monkeypatch):
        # the bound on the partial sum's norm spares norms only: the same
        # products and the same bits, over random sparse inputs with 1-norms
        # up to 40 (up to five steps), real and complex
        rng = np.random.default_rng(30)
        products = []
        matmul = sp.csr_matrix.__matmul__
        monkeypatch.setattr(sp.csr_matrix, "__matmul__", lambda m, o: products.append(o.shape) or matmul(m, o))
        # -9.9 I and -25 I reach the 55-term cap: their terms peak far above the sum
        inputs = [(sp.csr_matrix(-9.9 * np.eye(6)), np.ones((6, 3))), (sp.csr_matrix(-25.0 * np.eye(6)), np.ones((6, 1)))]
        for _ in range(300):
            n = int(rng.integers(2, 40))
            x = rng.normal(size=(n, n)) * (rng.random((n, n)) < rng.uniform(0.05, 0.5))
            b = rng.normal(size=(n, int(rng.integers(1, 6))))
            if rng.random() < 0.5:
                x = x + 1j * rng.normal(size=(n, n)) * (x != 0)
                b = b + 1j * rng.normal(size=b.shape)
            x *= 10 ** rng.uniform(-3.0, 1.6) / max(np.abs(x).sum(axis=0).max(), 1e-300)
            inputs.append((sp.csr_matrix(x), b))
        made = []
        for a, b in inputs:
            products.clear()
            got = _expm_action(a, b)
            made.append(len(products))
            products.clear()
            want = self._tested_at_every_term(a, b)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert made[-1] == len(products)
        assert made[0] == 55 and made[1] >= 2 * 55
        assert max(math.ceil(abs(a).sum(axis=0).max() / 9.9) for a, _ in inputs) >= 4

    @pytest.mark.parametrize("angle", [3.0, 7.0, 9.9, 25.0, 40.0])
    def test_rounding_grows_with_the_largest_term(self, angle):
        # a plane rotation has a 2-norm equal to its 1-norm, so the terms of
        # a step peak near e^(|A|_1 / s) / sqrt(2 pi |A|_1 / s), up to 2.5e3
        # at 9.9; the rounding of their sum grows with them, to 1.5e-13 here
        # (scipy's expm_multiply picks the same steps and terms)
        steps = max(1, math.ceil(angle / 9.9))
        bound = 4 * steps * 2.0**-53 * math.exp(angle / steps)
        a = np.array([[0.0, angle], [-angle, 0.0]])
        b = np.eye(2)
        for op in (a, 1j * np.diag([angle, -angle]), sp.csr_matrix(a)):
            dense = op.toarray() if sp.issparse(op) else op
            want = expm(dense) @ b
            assert np.abs(_expm_action(op, b) - want).max() <= bound


def test_observable_series_validation():
    with pytest.raises(ValueError):
        ObservableSeries([0.0, 1.0], [1.0])
