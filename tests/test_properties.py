"""Property tests over random feasible designs, time grids and states.

The vectorised orbit sampler is checked against the per-sample maps
(``flow_matrix``, ``_mode_rotation`` and ``lab_frame_state``).  It shares
the normal-mode rotation and the lab rotation with them, so this checks the
stacking only; the sampler's independent oracle is the RK4 integrator of
``test_classical.py::TestPropagateRotating::test_against_integrator``.  Each Fock
observable applied to a stack of states is checked against the same
observable applied to each state alone, and the revival phase against
``np.vdot``.  The Gaussian amplitudes of an evolving coherent state are
checked against :func:`evolve_series` on the truncated Hamiltonian.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rotor import (
    InfeasibleDesign,
    J,
    PhaseSpaceState,
    QuantumState,
    TrapConfig,
    TruncationTooSmall,
    build_fock_hamiltonian,
    build_rotating_hamiltonian,
    coherent_nmax,
    coherent_state,
    commensurate_velocity,
    design_protocol,
    from_normal_coords,
    kappa,
    lab_frame_state,
    mean_excitation,
    normal_frequencies,
    normal_modes,
    revival_phase,
    sample_trajectory,
    survival_probability,
    to_normal_coords,
)
from rotor.classical import _mode_rotation, flow_matrix
from rotor.quantum import (
    _coherent_series,
    evolve_series,
    phase_space_expectations,
    top_shell_weight,
)

COPRIME_PAIRS = ((1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (2, 5), (3, 5))
REL = 1e-12


@st.composite
def protocols(draw):
    """Feasible designs: theta_f below the excluded band (pi(n2-n1), pi(n2+n1))."""
    n1, n2 = draw(st.sampled_from(COPRIME_PAIRS))
    omega1 = draw(st.floats(0.1, 10.0))
    theta_f = draw(st.floats(0.05, 0.95 * np.pi * (n2 - n1)))
    try:
        return design_protocol(omega1, theta_f, n1, n2)
    except InfeasibleDesign:
        assume(False)


points = st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4).map(
    PhaseSpaceState.from_vector
)
# strictly increasing sample times, as fractions of up to three periods
fractions = st.lists(st.floats(0.0, 3.0), min_size=1, max_size=40, unique=True)


def _times(protocol, fracs):
    return np.unique(np.asarray(fracs) * protocol.duration)


def assert_rel_close(got, want, rel=REL):
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


@settings(deadline=None)
@given(protocols(), points, fractions)
def test_sample_trajectory_matches_per_sample_oracles(protocol, v0, fracs):
    config = protocol.config
    times = _times(protocol, fracs)
    modes = normal_modes(config)
    rotating = np.array([flow_matrix(modes, t) @ v0.vector for t in times])
    v0n = modes.transform.inverse @ v0.vector
    normal = np.array([_mode_rotation(modes, t) @ v0n for t in times])
    lab = np.array(
        [
            lab_frame_state(PhaseSpaceState.from_vector(v), config.theta_dot * t).vector
            for v, t in zip(rotating, times)
        ]
    )
    for frame, expected in (("rotating", rotating), ("normal", normal), ("lab", lab)):
        got = sample_trajectory(v0, config, times, frame=frame)
        assert got.frame == frame
        np.testing.assert_array_equal(got.times, times)
        assert_rel_close(got.states, expected)


@settings(deadline=None)
@given(protocols(), fractions)
def test_flow_matrix_stack_matches_per_time(protocol, fracs):
    modes = normal_modes(protocol.config)
    times = _times(protocol, fracs)
    stack = flow_matrix(modes, times)
    assert stack.shape == (times.size, 4, 4)
    assert_rel_close(stack, np.array([flow_matrix(modes, t) for t in times]))


@settings(deadline=None)
@given(protocols())
def test_commensurate_velocity_recovers_design(protocol):
    theta_dot, theta_f = commensurate_velocity(
        protocol.omega1, protocol.omega2, protocol.n1, protocol.n2
    )
    assert abs(theta_dot / protocol.theta_dot - 1) < 1e-10
    assert abs(theta_f / protocol.theta_f - 1) < 1e-10
    o1, o2 = normal_frequencies(protocol.config)
    assert abs((o2 / o1) / (protocol.n2 / protocol.n1) - 1) < 1e-10


amplitudes = st.builds(
    lambda r, phi: r * np.exp(1j * phi), st.floats(0.0, 12.0), st.floats(0.0, 2 * np.pi)
)


@settings(deadline=None)
@given(amplitudes, amplitudes)
def test_coherent_nmax_is_the_smallest_accepted_size(alpha1, alpha2):
    nmax = coherent_nmax(alpha1, alpha2)
    assert nmax >= 16 and nmax % 8 == 0
    coherent_state(alpha1, alpha2, nmax)
    if nmax - 8 >= 16:
        with pytest.raises(TruncationTooSmall):
            coherent_state(alpha1, alpha2, nmax - 8)


small_amplitudes = st.builds(
    lambda r, phi: r * np.exp(1j * phi), st.floats(0.0, 2.0), st.floats(0.0, 2 * np.pi)
)


def _converged_fock_series(protocol, alpha1, alpha2, nmax, times):
    """evolve_series of |alpha1, alpha2> at the first size nmax + 16k whose
    own top-shell weight stays below 1e-16 at every time, cut to nmax.

    At nmax itself the Fock path is not converged mid-rotation for strongly
    squeezing designs: the state spreads over the static-trap basis."""
    for size in range(nmax + 16, 97, 16):
        h = build_fock_hamiltonian(protocol.config, size)
        fock = evolve_series(coherent_state(alpha1, alpha2, size), h, times)
        if top_shell_weight(fock).max() < 1e-16:
            return fock[:, :nmax, :nmax]
    raise AssertionError("Fock reference not converged below nmax = 96")


@settings(deadline=None, max_examples=25)
@given(protocols(), small_amplitudes, small_amplitudes, fractions)
def test_coherent_series_matches_fock_evolution(protocol, alpha1, alpha2, fracs):
    """At coherent_nmax each row agrees with the converged Fock evolution up
    to one phase: equal populations, and unit overlap once both rows are
    normalized (the series is not, so its norm is below 1 by what the
    truncation lost)."""
    nmax = coherent_nmax(alpha1, alpha2)
    times = _times(protocol, fracs)
    fock = _converged_fock_series(protocol, alpha1, alpha2, nmax, times)
    exact = _coherent_series(alpha1, alpha2, protocol.config, nmax, times)
    assert exact.shape == fock.shape
    assert np.abs(np.abs(exact) ** 2 - np.abs(fock) ** 2).max() <= 1e-12
    overlap = np.abs(np.einsum("tij,tij->t", exact.conj(), fock))
    norms = np.linalg.norm(exact, axis=(1, 2)) * np.linalg.norm(fock, axis=(1, 2))
    assert np.abs(overlap / norms - 1).max() <= 1e-12


@settings(deadline=None)
@given(protocols())
def test_design_is_commensurate(protocol):
    o1, o2 = normal_frequencies(protocol.config)
    assert abs((o2 / o1) / (protocol.n2 / protocol.n1) - 1) <= REL
    assert abs(protocol.duration / (2 * np.pi * protocol.n1 / o1) - 1) <= REL


@settings(deadline=None)
@given(protocols(), points)
def test_normal_modes_symplectic_and_invertible(protocol, v):
    modes = normal_modes(protocol.config)
    s = modes.transform.s
    assert np.abs(s.T @ J @ s - J).max() < 1e-12
    back = from_normal_coords(to_normal_coords(v, modes), modes)
    assert np.abs(back.vector - v.vector).max() <= REL * max(1.0, np.abs(v.vector).max())


@st.composite
def near_isotropic_configs(draw):
    """Traps with omega2 = omega1 or omega2 = omega1 (1 + 10**u), u in
    [-12, 1], rotating at theta_dot / omega1 from 1e-12 up to 0.3."""
    omega1 = draw(st.floats(1e-3, 10.0))
    gap = draw(st.one_of(st.just(0.0), st.floats(-12.0, 1.0).map(lambda u: 10.0**u)))
    ratio = 10.0 ** draw(st.floats(-12.0, -0.5))
    return TrapConfig(omega1, omega1 * (1 + gap), omega1 * ratio)


@settings(deadline=None)
@given(near_isotropic_configs())
def test_slow_mode_fills_the_first_slot(config):
    """The diagonalized form reads (O1^2, O2^2)/2 in that order, however
    small the splitting of the coordinate block."""
    modes = normal_modes(config)
    o1, o2 = normal_frequencies(config)
    scale = np.abs(build_rotating_hamiltonian(config).a).max()
    diag = np.diag(modes.diag)[:2]
    assert np.abs(diag - np.array([o1**2, o2**2]) / 2).max() <= 1e-12 * scale


@settings(deadline=None)
@given(protocols(), points)
def test_designed_orbits_close(protocol, v0):
    trajectory = sample_trajectory(v0, protocol.config, [0.0, protocol.duration])
    assert_rel_close(trajectory.states[-1], trajectory.states[0], rel=1e-10)


@settings(deadline=None)
@given(
    st.sampled_from(COPRIME_PAIRS),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_kappa_raises_inside_the_excluded_band(pair, u):
    n1, n2 = pair
    low, high = np.pi * (n2 - n1), np.pi * (n2 + n1)
    theta_f = low + u * (high - low)
    assume(low < theta_f < high)
    with pytest.raises(InfeasibleDesign):
        kappa(n1, n2, theta_f)


@st.composite
def stacks(draw):
    """A random normalized state and a stack of them on the same truncation."""
    nmax = draw(st.integers(2, 8))
    lead = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (*lead, nmax, nmax)
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    c /= np.linalg.norm(c, axis=(-2, -1), keepdims=True)
    psi0 = rng.normal(size=(nmax, nmax)) + 1j * rng.normal(size=(nmax, nmax))
    return QuantumState(psi0 / np.linalg.norm(psi0)), c


@settings(deadline=None)
@given(stacks())
def test_stacked_observables_match_single_states(case):
    psi0, stack = case
    shell = top_shell_weight(stack)
    excitation = mean_excitation(stack)
    means = phase_space_expectations(stack)
    survival = survival_probability(psi0, stack)
    assert means.shape == (*stack.shape[:-2], 4)
    for k in np.ndindex(stack.shape[:-2]):
        state = QuantumState(stack[k])
        assert shell[k] == top_shell_weight(state)
        assert excitation[k] == mean_excitation(state)
        np.testing.assert_array_equal(means[k], phase_space_expectations(state))
        assert abs(survival[k] - survival_probability(psi0, state)) <= 1e-15
    other = np.zeros((1, psi0.nmax + 1, psi0.nmax + 1))
    with pytest.raises(ValueError, match="different truncations"):
        survival_probability(psi0, other)


@st.composite
def pairs(draw):
    """Two random normalized states on the same truncation."""
    nmax = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = rng.normal(size=(2, nmax, nmax)) + 1j * rng.normal(size=(2, nmax, nmax))
    c /= np.linalg.norm(c, axis=(-2, -1), keepdims=True)
    return QuantumState(c[0]), QuantumState(c[1])


@settings(deadline=None)
@given(pairs())
def test_revival_phase_is_the_phase_of_vdot(pair):
    a, b = pair
    overlap = np.vdot(a.vector, b.vector)
    assume(abs(overlap) >= 1e-6)
    want = overlap / abs(overlap)
    assert abs(revival_phase(a, b) - want) <= 1e-12
    assert abs(revival_phase(a, b.coeffs) - want) <= 1e-12
