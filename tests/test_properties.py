"""Property tests over random feasible designs and random time grids.

The vectorised samplers are checked against the per-sample oracles
(``flow_matrix``, ``_mode_rotation``, ``lab_frame_state`` and
``hamiltonian_value``), which share none of their array code.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rotor import (
    InfeasibleDesign,
    PhaseSpaceState,
    TruncationTooSmall,
    build_rotating_hamiltonian,
    coherent_nmax,
    coherent_state,
    commensurate_velocity,
    design_protocol,
    hamiltonian_value,
    lab_frame_state,
    normal_frequencies,
    normal_modes,
    sample_trajectory,
)
from rotor.classical import _mode_rotation, flow_matrix, trajectory_energies

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
@given(protocols(), points, fractions)
def test_trajectory_energies_match_per_sample_value(protocol, v0, fracs):
    config = protocol.config
    trajectory = sample_trajectory(v0, config, _times(protocol, fracs))
    form = build_rotating_hamiltonian(config)
    expected = np.array(
        [hamiltonian_value(form, PhaseSpaceState.from_vector(v)) for v in trajectory.states]
    )
    assert_rel_close(trajectory_energies(trajectory, config), expected)


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
    lambda r, phi: r * np.exp(1j * phi), st.floats(0.0, 6.0), st.floats(0.0, 2 * np.pi)
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
