"""Property tests over random feasible designs, time grids and states.

The vectorised orbit sampler is checked against the per-sample maps
(``flow_matrix``, ``_mode_rotation`` and ``lab_frame_state``).  It shares
the normal-mode rotation and the lab rotation with them, so this checks the
stacking only; the sampler's independent oracle is the RK4 integrator of
``test_classical.py::TestPropagateRotating::test_against_integrator``.  Each Fock
observable applied to a stack of states is checked against the same
observable applied to each state alone, and the revival phase against
``np.vdot``.  The Gaussian amplitudes of an evolving coherent state, its
closed-form track density, and the closed-form observables of the three
command-line states are checked against :func:`evolve_series` on the
truncated Hamiltonian, and the sector eigensolver behind it (its spectrum
and its evolution of random states) against the full dense matrix, with
the band storage of each sector rebuilt bit for bit.  The survival sweep,
which takes the Chebyshev moments of the initial state and evolves no state,
is checked against the survival of :func:`evolve_series` and against a
dense ``eigh``.  The parity-block
operator-conjugation oracle is checked against the residual on the whole
truncated basis, with U from the dense exponential.  The
vectorised velocity sweep of the normal frequencies is checked bit for bit
against the per-velocity loop.  The closed-form survival and overlap at
t = 0 are checked against the ground state's and 1 up to |alpha| = 1e150.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from rotor import (
    ClosedFormState,
    ConvergenceFailure,
    InfeasibleDesign,
    J,
    PhaseSpaceState,
    QuantumState,
    SymplecticTransform,
    TrapConfig,
    TruncationTooSmall,
    build_fock_hamiltonian,
    build_rotating_hamiltonian,
    coherent_nmax,
    coherent_state,
    coherent_track,
    commensurate_velocity,
    conjugation_check,
    design_protocol,
    entangled_state,
    fock_state,
    from_normal_coords,
    kappa,
    lab_frame_state,
    mean_excitation,
    normal_frequencies,
    normal_modes,
    revival_phase,
    sample_trajectory,
    stability_sweep,
    step_transforms,
    survival_probability,
    symplectic_generator,
    to_normal_coords,
    wavepacket_track,
)
from rotor.classical import _mode_rotation, flow_matrix
from rotor.quantum import (
    _chebyshev_start,
    _coherent_series,
    _gershgorin_interval,
    _lower_band,
    _parity_sectors,
    _propagator,
    eigenvalues,
    energy_variance,
    evolve_series,
    phase_space_expectations,
    phase_space_operators,
    top_shell_weight,
)
from rotor.symplectic import _expm, normal_frequency_sweep

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


@st.composite
def wide_protocols(draw):
    """Feasible designs with omega1 / 2 pi from 0.1 to 100 (kHz on the command line)."""
    n1, n2 = draw(st.sampled_from((*COPRIME_PAIRS, (1, 5))))
    omega1 = 2 * np.pi * 10 ** draw(st.floats(-1.0, 2.0))
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


# an absolute floor of a few subnormal units: from a subnormal v0 the sampler (S^-1 first)
# and the oracle (F = S R S^-1, then one product) keep fewer significant bits and round
# apart by one unit of 2**-1074, which a relative bound below that unit cannot hold
SUBNORMAL_FLOOR = 4 * np.finfo(float).smallest_subnormal


def assert_rel_close(got, want, rel=REL):
    assert np.abs(got - want).max() <= rel * np.abs(want).max() + SUBNORMAL_FLOOR


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
@given(st.floats(0.05, 150.0), st.floats(0.05, 150.0), st.integers(1, 500))
def test_frequency_sweep_is_the_per_velocity_loop(omega1, omega2, count):
    """Bit for bit, in either axis order: numpy's array ``**`` would round
    some squares apart from the scalar ``pow`` of the loop."""
    velocities = np.linspace(0.0, min(omega1, omega2), count, endpoint=False)
    loop = [normal_frequencies(TrapConfig(omega1, omega2, td)) for td in velocities]
    np.testing.assert_array_equal(np.transpose(normal_frequency_sweep(omega1, omega2, velocities)), loop)


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
# the ground state at 3 T, r t = 1600 at the size the reference converges:
# one Chebyshev series to that time lost 5e-13 of the norm
@example(design_protocol(1.0, 2.0, 2, 3), 0j, 0j, [3.0])
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


@settings(deadline=None, max_examples=10)
# a strongly squeezing design, whose Fock track needs nmax 40
@example(design_protocol(1.0, 7.2, 1, 4), 2.0, 0.5j)
@given(protocols(), small_amplitudes, small_amplitudes)
def test_gaussian_track_matches_fock_track(protocol, alpha1, alpha2):
    """The closed-form track density against the Fock track of
    coherent_state, grown by 16 from coherent_nmax + 16 until the top-shell
    weight at every quadrature time is below 1e-16."""
    steps, points = 200, 21
    try:
        exact = coherent_track(alpha1, alpha2, protocol, steps, points)
    except ConvergenceFailure:
        # the design moves too fast for this step count: no density to compare
        assume(False)
    for size in range(coherent_nmax(alpha1, alpha2) + 16, 97, 16):
        fock = wavepacket_track(coherent_state(alpha1, alpha2, size), protocol, steps, points)
        if fock.diagnostics["max_top_shell_weight"] < 1e-16:
            break
    else:
        raise AssertionError("Fock reference not converged below nmax = 96")
    # the Fock axes follow the centroid of the renormalized truncated state
    for got, want in ((exact.q1_axis, fock.q1_axis), (exact.q2_axis, fock.q2_axis)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert np.abs(exact.density - fock.density).max() <= 1e-9 * fock.density.max()


closed_form_states = st.one_of(
    st.just(ClosedFormState()),
    st.just(ClosedFormState(entangled=True)),
    st.builds(ClosedFormState, small_amplitudes, small_amplitudes),
)


def _fock_oracle(protocol, state, times):
    """``(psi0, h, stack)``: the state, its Hamiltonian and its evolve_series
    at the first size coherent_nmax + 16k whose top-shell weight stays below
    1e-16 at every time."""
    for size in range(coherent_nmax(state.alpha1, state.alpha2), 97, 16):
        if state.entangled:
            psi0 = entangled_state(size)
        else:
            psi0 = coherent_state(state.alpha1, state.alpha2, size)
        h = build_fock_hamiltonian(protocol.config, size)
        stack = evolve_series(psi0, h, times)
        if top_shell_weight(stack).max() < 1e-16:
            return psi0, h, stack
    raise AssertionError("Fock reference not converged below nmax = 96")


@settings(deadline=None, max_examples=40)
# arg det alpha' winds furthest over these two designs
@example(design_protocol(1.0, 7.2, 1, 4), ClosedFormState(entangled=True), [0.5, 1.0])
@example(design_protocol(1.0, 7.2, 1, 4), ClosedFormState(1, 0.5j), [0.3, 2.0])
@example(design_protocol(1.0, 1.0, 2, 3), ClosedFormState(entangled=True), [0.7, 1.5])
@example(design_protocol(1.0, 1.0, 2, 3), ClosedFormState(-0.5, 1j), [0.2, 1.0])
# at 3 T one Chebyshev series to the time lost up to 6e-13 of the norm
@example(design_protocol(1.0, 3.5, 1, 4), ClosedFormState(), [3.0])
@example(design_protocol(9.0, 3.875, 1, 4), ClosedFormState(1, 0), [3.0, 2.625])
@given(protocols(), closed_form_states, fractions)
def test_closed_forms_match_fock_evolution(protocol, state, fracs):
    """P(t), <N>(t), the energy variance and the complex overlap
    <psi0|psi(t)> (G0 on its branch), at T and at random times."""
    config = protocol.config
    times = _times(protocol, [*fracs, 1.0])
    psi0, h, stack = _fock_oracle(protocol, state, times)
    survival = survival_probability(psi0, stack)
    assert np.abs(state.survival(config, times) - survival).max() <= 1e-12
    excitation = mean_excitation(stack)
    scale = max(1.0, np.abs(excitation).max())
    assert np.abs(state.mean_excitation(config, times) - excitation).max() <= 1e-12 * scale
    # the oracle's <H^2> - <H>^2 cancels terms of size <H>^2
    variance = energy_variance(psi0, h)
    energy = np.vdot(psi0.vector, h.matrix @ psi0.vector).real
    assert abs(state.energy_variance(config) - variance) <= 1e-12 * (variance + energy**2)
    overlaps = np.einsum("ij,tij->t", psi0.coeffs.conj(), stack)
    closed = np.array([state.overlap(config, t) for t in times])
    assert np.abs(closed - overlaps).max() <= 1e-12


@settings(deadline=None)
# a relative gap of 7e-14, among the largest of a scan of 32 designs
@example(design_protocol(1.0, 0.4, 3, 4))
@given(st.one_of(protocols(), wide_protocols()))
def test_entangled_variance_matches_the_fock_variance_at_nmax_3(protocol):
    """The closed-form variance of A+|0> against the Fock one on the nmax = 3
    basis, which holds H A+|0>: H moves each n_i by at most 1.  The oracle's
    <H^2> - <H>^2 cancels terms of size <H>^2; over 3000 random designs the
    gap was at most 6.9e-16 <H>^2."""
    psi0 = entangled_state(3)
    h = build_fock_hamiltonian(protocol.config, 3)
    variance = energy_variance(psi0, h)
    energy = np.vdot(psi0.vector, h.matrix @ psi0.vector).real
    got = ClosedFormState(entangled=True).energy_variance(protocol.config)
    assert abs(got - variance) <= 16 * np.finfo(float).eps * energy**2


#: largest |overlap(kT + tau) - (-1)^(k(n1+n2)) overlap(tau)| /
#: (k eps (O1 + O2) T (<N> + 1)) over 20,000 random draws of the strategies
#: below was 1.3 (median 0.13); the bound leaves a factor of about 6
PERIOD_DRIFT_MARGIN = 8


@settings(deadline=None)
@example(design_protocol(1.0, 7.2, 1, 4), ClosedFormState(entangled=True), 10**4, 0.5)
@example(design_protocol(1.0, 1.0, 2, 3), ClosedFormState(-0.5, 1j), 10**4, 0.0)
@given(protocols(), closed_form_states, st.integers(0, 10**4), st.floats(0.0, 1.0, exclude_max=True))
def test_overlap_repeats_each_period_up_to_its_revival_sign(protocol, state, k, frac):
    """G0 is a closed form at any time, with no branch to follow from 0: the
    overlap k periods on is (-1)^(k(n1+n2)) times the overlap now, up to the
    rounding of kT + tau and of the mode angles, which grows as k eps O T."""
    config, period = protocol.config, protocol.duration
    tau = frac * period
    later, now = state.overlap(config, k * period + tau), state.overlap(config, tau)
    o1, o2 = normal_frequencies(config)
    occupation = abs(state.alpha1) ** 2 + abs(state.alpha2) ** 2 + state.entangled
    eps = np.finfo(float).eps
    bound = PERIOD_DRIFT_MARGIN * (k + 1) * eps * (o1 + o2) * period * (occupation + 1)
    assert abs(later - (-1) ** (k * (protocol.n1 + protocol.n2)) * now) <= bound
    # |overlap| is at most 1, up to the rounding it has at t = 0
    assert max(abs(later), abs(now)) <= 1 + 8 * eps


def _random_state(nmax, seed):
    """A random normalized complex state on an nmax x nmax truncation."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(nmax, nmax)) + 1j * rng.normal(size=(nmax, nmax))
    return QuantumState(c / np.linalg.norm(c))


@st.composite
def fock_cases(draw):
    """A feasible design, its Hamiltonian at a truncation of at most 12 and
    a random normalized complex state on that truncation."""
    protocol = draw(protocols())
    nmax = draw(st.integers(2, 12))
    h = build_fock_hamiltonian(protocol.config, nmax)
    return protocol, h, _random_state(nmax, draw(st.integers(0, 2**32 - 1)))


@settings(deadline=None)
@given(fock_cases())
def test_eigenvalues_match_the_dense_spectrum(case):
    _, h, _ = case
    np.testing.assert_allclose(eigenvalues(h), np.linalg.eigvalsh(h.dense()), rtol=1e-10, atol=0)


@settings(deadline=None)
@given(fock_cases(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4, unique=True))
def test_evolve_series_matches_the_dense_exponential(case, fracs):
    """Within one rotation, where |H| t stays below about 600 at nmax 12
    and both routes round to a few 1e-13."""
    protocol, h, psi = case
    times = _times(protocol, fracs)
    stack = evolve_series(psi, h, times)
    for t, got in zip(times, stack):
        want = expm(-1j * t * h.dense()) @ psi.vector
        assert np.abs(got.ravel() - want).max() <= 1e-12


@settings(deadline=None)
@given(fock_cases(), st.floats(0.0, 1.0))
def test_chebyshev_evolve_matches_evolve_and_the_dense_exponential(case, frac):
    """psi(t) of the truncation search, one time t in [0, T] as a block of
    its own, against the same time reached through blocks of a grid and
    against expm."""
    protocol, h, psi = case
    t = frac * protocol.duration
    (got,) = _propagator(psi, h)(t)
    assert got.shape == psi.coeffs.shape
    assert np.abs(got - evolve_series(psi, h, np.linspace(0.0, t, 50))[-1]).max() <= 1e-12
    want = expm(-1j * t * h.dense()) @ psi.vector
    assert np.abs(got.ravel() - want).max() <= 1e-12


@settings(deadline=None)
@given(fock_cases(), st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=8))
def test_evolve_series_takes_times_in_any_order_and_of_either_sign(case, fracs):
    """Unsorted, repeated and negative times, each row against expm."""
    protocol, h, psi = case
    times = np.asarray(fracs) * protocol.duration
    stack = evolve_series(psi, h, times)
    for t, got in zip(times, stack):
        want = expm(-1j * t * h.dense()) @ psi.vector
        assert np.abs(got.ravel() - want).max() <= 1e-12


@settings(deadline=None, max_examples=40)
@given(fock_cases(), st.integers(2, 400),
       st.lists(st.integers(1, 399), min_size=1, max_size=12, unique=True))
def test_chunked_calls_continue_one_series(case, count, cuts):
    """Increasing chunks of one uniform grid over a period, asked of one
    propagator one after another as the Fock track asks them, give each
    state of one call to 1e-13 of its unit norm, and both meet expm."""
    protocol, h, psi = case
    times = np.linspace(0.0, protocol.duration, count)
    whole = evolve_series(psi, h, times)
    propagate = _propagator(psi, h)
    chunked = np.concatenate([propagate(part) for part in np.split(times, sorted(cuts))])
    assert np.linalg.norm((chunked - whole).reshape(count, -1), axis=1).max() <= 1e-13
    for t, got in zip(times[:: max(1, count // 8)], whole[:: max(1, count // 8)]):
        want = expm(-1j * t * h.dense()) @ psi.vector
        assert np.abs(got.ravel() - want).max() <= 1e-12


@settings(deadline=None, max_examples=10)
@given(fock_cases(), st.integers(3, 6))
def test_norm_holds_over_many_periods(case, periods):
    """2000 or more uniform steps over several periods lose less than 1e-12
    of the norm, and end on the dense exponential."""
    protocol, h, psi = case
    times = np.linspace(0.0, periods * protocol.duration, 2000 * periods // 3 + 1)
    stack = evolve_series(psi, h, times)
    norms = np.linalg.norm(stack.reshape(times.size, -1), axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12
    want = expm(-1j * times[-1] * h.dense()) @ psi.vector
    assert np.abs(stack[-1].ravel() - want).max() <= 1e-11


sweep_states = st.one_of(
    st.integers(2, 12).map(lambda nmax: fock_state(0, 0, nmax)),
    st.integers(2, 12).map(entangled_state),
    st.builds(lambda a1, a2: coherent_state(a1, a2, coherent_nmax(a1, a2)), small_amplitudes, small_amplitudes),
    st.builds(_random_state, st.integers(2, 12), st.integers(0, 2**32 - 1)),
)


@settings(deadline=None)
@given(protocols(), sweep_states, st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=12))
def test_stability_sweep_matches_the_evolved_and_the_dense_survival(protocol, psi0, fracs):
    """P(T + eps) from the Chebyshev moments, at times T + eps of either sign
    up to 3 T, against the survival of the evolved states and, at nmax <= 12,
    against a dense eigh of the Hamiltonian; P(0) is 1 to rounding.

    eigh's eigenvalues are off by about eps |H|, a phase error that grows
    with t, so it solves H - tr(H) / dim, which changes only the phase of
    <psi0|psi(t)>: unshifted, the oracle itself missed the other two by up to
    9e-13 at 3 T on the entangled state, which they agree on to 1e-13."""
    period = protocol.duration
    epsilons = np.asarray([0.0, *fracs]) * period - period
    times = period + epsilons
    sweep = stability_sweep(psi0, protocol, epsilons)
    assert times[0] == 0.0 and abs(sweep.values[0] - 1.0) <= 8 * np.finfo(float).eps
    h = build_fock_hamiltonian(protocol.config, psi0.nmax)
    evolved = survival_probability(psi0, evolve_series(psi0, h, times))
    assert np.abs(sweep.values - evolved).max() <= 1e-12
    if psi0.nmax <= 12:
        matrix = h.dense()
        energies, vectors = np.linalg.eigh(matrix - np.trace(matrix).real / len(matrix) * np.eye(len(matrix)))
        weights = np.abs(vectors.conj().T @ psi0.vector) ** 2
        dense = np.abs(np.exp(-1j * np.outer(times, energies)) @ weights) ** 2
        assert np.abs(sweep.values - dense).max() <= 1e-12


@settings(deadline=None)
@example(TrapConfig(1.0, 1.7, 0.0), 12)
@given(protocols().map(lambda protocol: protocol.config), st.integers(2, 12))
def test_band_storage_rebuilds_each_real_sector(config, nmax):
    """Each sector is a band of half-width about nmax / 2 in row-major
    (n1, n2) order, and its lower band storage holds it bit for bit; the
    static trap's sectors are diagonal, a band of width 0."""
    rot = build_fock_hamiltonian(config, nmax).rotated
    for idx in _parity_sectors(nmax):
        block = rot[idx][:, idx].toarray()
        band = _lower_band(rot[idx][:, idx])
        assert band.shape[0] <= (nmax // 2 + 2 if config.theta_dot else 1)
        rebuilt = np.zeros_like(block)
        for d, row in enumerate(band):
            cols = np.arange(idx.size - d)
            rebuilt[cols + d, cols] = rebuilt[cols, cols + d] = row[: cols.size]
            assert not row[cols.size :].any()
        np.testing.assert_array_equal(rebuilt, block)


def _kron_hamiltonian(config, nmax):
    """H from the sparse q and p of phase_space_operators: the products of
    kron factors the closed-form band replaced, kept as its oracle."""
    q1, q2, p1, p2 = phase_space_operators(nmax)
    n1, n2 = np.divmod(np.arange(nmax**2), nmax)
    diagonal = sp.diags(config.omega1 * (n1 + 0.5) + config.omega2 * (n2 + 0.5))
    eta = config.eta
    return (diagonal - config.theta_dot * ((1 / eta) * (q1 @ p2) - eta * (p1 @ q2))).tocsr()


band_configs = st.one_of(
    protocols().map(lambda protocol: protocol.config),
    wide_protocols().map(lambda protocol: protocol.config),
    st.builds(TrapConfig, st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
)


@settings(deadline=None)
@example(TrapConfig(1.0, 1.7, 0.0), 48)
@example(design_protocol(1.0, 7.2, 1, 4).config, 2)
@given(band_configs, st.integers(2, 48))
def test_band_matches_the_rotated_kron_build(config, nmax):
    """The closed-form R = D* H D against H formed from the sparse q and p,
    to 1e-15 of its largest entry, through the derived complex matrix
    D R D*: the unit phases i**n1 multiply without rounding, so that bound
    is the bound on R.  A static trap stores no coupling, not even a zero."""
    h = build_fock_hamiltonian(config, nmax)
    kron = _kron_hamiltonian(config, nmax)
    assert abs(h.matrix - kron).max() <= 1e-15 * abs(kron).max()
    assert (h.rotated != h.rotated.T).nnz == 0
    if config.theta_dot == 0:
        assert h.rotated.nnz == nmax**2 and not (h.rotated - sp.diags(h.rotated.diagonal())).nnz


@settings(deadline=None)
@example(TrapConfig(1.0, 1.0, 0.0), 8)
@given(band_configs, st.integers(2, 24))
def test_chebyshev_turn_is_the_kron_build_bit_for_bit(config, nmax):
    """The scaled band [[0, 2 R'], [-2 R', 0]] of both Chebyshev series,
    filled from the CSR arrays of R, against ``sp.kron`` of the shifted R:
    the same index arrays and the same bits.  In the isotropic static trap
    the shift zeroes the diagonal entries of n1 + n2 = nmax - 1, which
    neither build stores."""
    h = build_fock_hamiltonian(config, nmax)
    *_, turn, _ = _chebyshev_start(fock_state(0, 0, nmax), h)
    centre, radius = _gershgorin_interval(h.rotated)
    shifted = h.rotated - centre * sp.eye(nmax * nmax, format="csr")
    kron = sp.kron([[0, 2 / radius], [-2 / radius, 0]], shifted, format="csr")
    for name in ("indptr", "indices", "data"):
        got, want = getattr(turn, name), getattr(kron, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@st.composite
def generator_cases(draw):
    """A random symmetric generator G of small norm, its transform
    S = exp(2 J G), a truncation nmax in 2..10 and a level count in 1..nmax."""
    g = _symmetric(draw(st.lists(st.floats(-0.3, 0.3), min_size=10, max_size=10)))
    nmax = draw(st.integers(2, 10))
    levels = draw(st.integers(1, nmax))
    return g, SymplecticTransform(expm(2 * J @ g)), nmax, levels


# a subnormal coupling leaves the odd sector of nmax 2 a multiple of the
# identity plus subnormal entries, on which scipy's expm_multiply took zero
# steps
_SUBNORMAL_G = np.array([[0.25, 0, 0, 0.25], [0, 0, 0.25, 0], [0, 0.25, 0, 5e-324],
                         [0.25, 0, 5e-324, 0]])
# a p2^2 coefficient of 1.8e-159 next to a q2 p2 coupling: the powers of its
# sectors underflow, and scipy's 1-norm estimate of them overflowed in a
# divide (Hypothesis seed 11)
_TINY_G = np.zeros((4, 4))
_TINY_G[2, 3] = _TINY_G[3, 2] = 0.28125
_TINY_G[3, 3] = 1.7598605e-159


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(deadline=None)
@given(generator_cases())
@example((_SUBNORMAL_G, SymplecticTransform(expm(2 * J @ _SUBNORMAL_G)), 2, 2))
@example((_TINY_G, SymplecticTransform(expm(2 * J @ _TINY_G)), 6, 5))
def test_conjugation_check_matches_the_full_space_residual(case):
    """The parity-block oracle against U from the dense exponential of
    the whole truncated basis, the residual on every kept row and column,
    and its full spectral norm."""
    g, transform, nmax, levels = case
    ops = phase_space_operators(nmax)
    quad = sum(g[j, k] * (ops[j] @ ops[k]) for j in range(4) for k in range(4))
    n1, n2 = np.divmod(np.arange(nmax**2), nmax)
    keep = np.flatnonzero((n1 < levels) & (n2 < levels))
    u = expm(1j * quad.toarray())[:, keep]
    s_inv = transform.inverse
    want = 0.0
    for j in range(4):
        target = sum(s_inv[j, k] * ops[k].toarray() for k in range(4))[np.ix_(keep, keep)]
        resid = u.conj().T @ ops[j].toarray() @ u - target
        want = max(want, np.linalg.norm(resid, 2))
    assert abs(conjugation_check(g, transform, nmax, levels) - want) <= 1e-12


def _symmetric(upper):
    """The symmetric 4x4 matrix with the 10 entries ``upper`` on and above
    its diagonal, row by row."""
    g = np.zeros((4, 4))
    g[np.triu_indices(4)] = upper
    return g + np.triu(g, 1).T


@st.composite
def principal_generators(draw):
    """A random symmetric G with entries in [-1/2, 1/2] whose 2 J G has its
    spectrum inside the principal strip, |Im| <= 3 < pi.  The bound on the
    entries keeps |exp(2 J G)| below about e^2.6, since the logarithm's
    condition grows as its square: at entries of +-1 the condition alone
    costs up to 1.4e-13 relative, and scipy's ``logm`` misses that G by
    1.0e-13."""
    g = _symmetric(draw(st.lists(st.floats(-0.5, 0.5), min_size=10, max_size=10)))
    assume(np.abs(np.linalg.eigvals(2 * J @ g).imag).max() <= 3.0)
    return g


# the paper's shear S1 and squeeze S2 of the (1, 2) pi/2 design: S1 - I is
# nilpotent and S2 diagonal, so each logarithm is exact in closed form
_S1, _S2 = step_transforms(design_protocol(1.0, np.pi / 2, 1, 2).config)[1:3]
_SHEAR_G = -J @ (_S1.s - np.eye(4)) / 2
_SQUEEZE_G = -J @ np.diag(np.log(np.diag(_S2.s))) / 2


@settings(deadline=None)
@given(principal_generators())
@example(_SHEAR_G)
@example(_SQUEEZE_G)
def test_symplectic_generator_recovers_the_generator(g):
    """The numpy-only logarithm returns G from scipy's exp(2 J G) to 1e-13
    of max(1, |G|); the worst of 59 thousand draws on the grid {-1/2, 0, 1/2}
    was 6.9e-15."""
    got = symplectic_generator(SymplecticTransform(expm(2 * J @ g)))
    assert np.abs(got - g).max() <= 1e-13 * max(1.0, np.abs(g).max())


@settings(deadline=None)
@given(principal_generators())
@example(_SHEAR_G)
@example(_SQUEEZE_G)
def test_generator_exponential_matches_scipy(g):
    """The generator's own exponential against ``scipy.linalg.expm`` to
    1e-13 of the largest entry; the worst of 59 thousand draws on the grid
    {-1/2, 0, 1/2} was 3.4e-14."""
    want = expm(2 * J @ g)
    assert np.abs(_expm(2 * J @ g) - want).max() <= 1e-13 * np.abs(want).max()


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
    a = build_rotating_hamiltonian(config).a
    s = modes.transform.s
    scale = np.abs(a).max()
    diag = np.diag(s.T @ a @ s)[:2]
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


#: largest |phase - (-1)^(n1+n2)| / ((n1 + n2) (<N> + 1) eps) of the
#: closed-form revival phase over 40,000 random draws of the strategies
#: below was 12.2 (median 1.5); the bound leaves a factor of about 2.6
PHASE_DRIFT_MARGIN = 32


large_amplitudes = st.builds(
    lambda log_r, phi: 10**log_r * np.exp(1j * phi), st.floats(-2.0, 7.0), st.floats(0.0, 2 * np.pi)
)


@settings(deadline=None, max_examples=200)
# simulate --omega1-khz 1 --state coherent:1e5,0 prints a phase off by 5e-6
@example(design_protocol(2 * np.pi, np.pi / 2, 1, 2), 1e5, 0)
@example(design_protocol(2 * np.pi, np.pi / 2, 1, 2), 0, 0)
@given(wide_protocols(), large_amplitudes, large_amplitudes)
def test_revival_phase_drift_grows_with_the_occupation(protocol, alpha1, alpha2):
    """The closed-form revival phase is (-1)^(n1+n2) up to a rounding error of
    order (n1 + n2) <N> eps: its overlap terms are formed at size |alpha|^2.
    The error does not grow with T."""
    n1, n2 = protocol.n1, protocol.n2
    phase = ClosedFormState(alpha1, alpha2).revival_phase(protocol)
    occupation = abs(alpha1) ** 2 + abs(alpha2) ** 2
    bound = PHASE_DRIFT_MARGIN * (n1 + n2) * (occupation + 1) * np.finfo(float).eps
    assert abs(phase - (-1) ** (n1 + n2)) <= bound


huge_amplitudes = st.builds(
    lambda log_r, phi: 10**log_r * np.exp(1j * phi), st.floats(-2.0, 150.0), st.floats(0.0, 2 * np.pi)
)


@settings(deadline=None, max_examples=200)
# 1 - P(0) of simulate --omega1-khz 1 --state coherent:1e12,0.5e12j read 1.9e-8 at 0.4.0
@example(design_protocol(2 * np.pi, np.pi / 2, 1, 2), 1e12, 0.5e12j)
@example(design_protocol(2 * np.pi, np.pi / 2, 1, 2), 1e150, 0)
@given(wide_protocols(), huge_amplitudes, huge_amplitudes)
def test_closed_forms_start_at_one_at_any_amplitude(protocol, alpha1, alpha2):
    """At t = 0 the offset alpha - alpha_t is exactly 0, so the closed-form
    survival and overlap there are the ground state's, bit for bit, up to
    |alpha| = 1e150.  Those miss 1 only by the rounding of F(0) = S S^-1 in
    det alpha': at most 5 eps (1.1e-15) over 20,000 draws of these designs."""
    config = protocol.config
    state, ground = ClosedFormState(alpha1, alpha2), ClosedFormState()
    survival, overlap = state.survival(config, [0.0])[0], state.overlap(config, 0.0)
    assert survival == ground.survival(config, [0.0])[0]
    assert overlap == ground.overlap(config, 0.0)
    eps = np.finfo(float).eps
    assert abs(survival - 1) <= 8 * eps and abs(overlap - 1) <= 8 * eps
