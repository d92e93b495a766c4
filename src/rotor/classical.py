"""Exact classical propagation in the rotating frame and lab-frame views.

Propagation never integrates differential equations: the time-t flow is the
exact composition S . blockrot(t) . S^-1, where blockrot rotates each
normal-mode plane (Q_j, P_j) at its frequency O_j.  The flow is therefore
symplectic and energy conserving to rounding error, and closed orbits of
commensurate designs close to the same accuracy.

``_mode_rotation`` is the one blockrot, of the single-time maps and of the
orbit sampler alike, and ``_rotate_pairs`` the one lab rotation R(theta)^-1.
The energy v^T A v lives in :func:`rotor.core.hamiltonian_value`.
"""

from dataclasses import dataclass

import numpy as np

from .core import PhaseSpaceState
from .symplectic import normal_modes


@dataclass(frozen=True)
class Trajectory:
    """Sampled phase-space history in one frame.

    ``states`` has one row (q1, q2, p1, p2) per entry of ``times``;
    ``frame`` tags the coordinate system ("rotating", "normal" or "lab").
    """

    times: np.ndarray
    states: np.ndarray
    frame: str = "rotating"

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if states.shape != (times.size, 4):
            raise ValueError("need one 4-component state per sample time")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("sample times must be strictly increasing")
        if self.frame not in ("rotating", "normal", "lab"):
            raise ValueError(f"unknown frame tag {self.frame!r}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)


def _mode_rotation(modes, t):
    """Exact normal-mode flow matrix at time t, acting on (Q1,Q2,P1,P2):
    4x4 for a scalar t, one 4x4 matrix per entry for an array of times."""
    t = np.asarray(t, dtype=float)
    m = np.zeros(t.shape + (4, 4))
    for j, omega in enumerate((modes.omega_cap1, modes.omega_cap2)):
        c, s = np.cos(omega * t), np.sin(omega * t)
        m[..., j, j] = c
        m[..., j, j + 2] = s / omega
        m[..., j + 2, j] = -omega * s
        m[..., j + 2, j + 2] = c
    return m


def flow_matrix(modes, t):
    """Time-t map of the rotating-frame dynamics, S . blockrot(t) . S^-1:
    4x4 for a scalar t, shape (T, 4, 4) for T times."""
    s = modes.transform.s
    return s @ _mode_rotation(modes, t) @ modes.transform.inverse


def propagate_normal(state_v, modes, t):
    """Evolve normal-mode coordinates for a time t >= 0.

    Each pair rotates independently:
    Q_j(t) = Q_j cos(O_j t) + (P_j/O_j) sin(O_j t),
    P_j(t) = P_j cos(O_j t) - O_j Q_j sin(O_j t).
    """
    if t < 0:
        raise ValueError("propagation time must be non-negative")
    return PhaseSpaceState.from_vector(_mode_rotation(modes, t) @ state_v.vector)


def propagate_rotating(state, config, t):
    """Evolve a rotating-frame point under the full coupled dynamics.

    Equivalent to transforming to normal modes, rotating each plane and
    transforming back.
    """
    return PhaseSpaceState.from_vector(flow_matrix(normal_modes(config), t) @ state.vector)


def _rotate_pairs(v, theta):
    """R(theta)^-1 on the pairs (q1, q2) and (p1, p2) of each row of v, with
    one angle per row (or one for a single point)."""
    c, s = np.cos(theta)[..., None], np.sin(theta)[..., None]
    first, second = v[..., 0::2], v[..., 1::2]
    out = np.empty_like(v)
    out[..., 0::2] = c * first - s * second
    out[..., 1::2] = s * first + c * second
    return out


def lab_frame_state(state, theta, config=None):
    """Rotate a rotating-frame point back to lab coordinates.

    Applies the inverse trap rotation R(theta)^-1 to the coordinate pair
    and to the momentum pair, the same rotation ``sample_trajectory``
    applies in its lab frame.  By default the dimensionless coordinates are
    rotated as they are; passing ``config`` first undoes the per-axis
    dimensionless scaling (hbar = m = 1), producing physical lab
    coordinates (x, y, p_x, p_y).
    """
    v = state.vector
    if config is not None:
        roots = np.sqrt([config.omega1, config.omega2])
        v = np.concatenate([v[:2] / roots, v[2:] * roots])
    return PhaseSpaceState.from_vector(_rotate_pairs(v, theta))


def sample_trajectory(state0, config, t_grid, frame="rotating"):
    """Sample the exact flow on a time grid.

    ``frame`` selects the returned coordinates: "rotating" (default),
    "normal" (decoupled coordinates) or "lab" (rotating each sample back
    by the accumulated trap angle theta_dot * t).  All samples are computed
    together: the normal-mode rotations of :func:`flow_matrix`, one per
    time, act on S^-1 . v0, one product with S maps them to the rotating
    frame, and the lab frame applies the R(theta_dot * t)^-1 of
    :func:`lab_frame_state` to each row.
    """
    modes = normal_modes(config)
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    states = _mode_rotation(modes, t_grid) @ (modes.transform.inverse @ state0.vector)
    if frame != "normal":
        states = states @ modes.transform.s.T
    if frame == "lab":
        states = _rotate_pairs(states, config.theta_dot * t_grid)
    return Trajectory(times=t_grid, states=states, frame=frame)
