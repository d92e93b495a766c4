"""Problem statement and quadratic Hamiltonian of a rotating anisotropic trap.

A particle sits in a 2D harmonic trap with axial angular frequencies
``omega1 <= omega2`` while the trap rotates about the perpendicular axis at
constant angular velocity ``theta_dot``.  In the co-rotating frame the
Hamiltonian is static but picks up an inertial coupling ``-theta_dot * L_z``.
Coordinates are made dimensionless with the per-axis oscillator length
(``q_j = sqrt(m*omega_j/hbar) * x_j``, ``p_j = p_x_j / sqrt(m*hbar*omega_j)``),
which turns the rotating-frame Hamiltonian into

    H = omega1/2 (p1^2 + q1^2) + omega2/2 (p2^2 + q2^2)
        - theta_dot * (q1 p2 / eta - eta q2 p1),        eta = sqrt(omega1/omega2)

or, in matrix form over the phase-space vector v = (q1, q2, p1, p2),
``H = v^T A v`` with the symmetric 4x4 matrix built by
:func:`build_rotating_hamiltonian`.
"""

from dataclasses import dataclass

import numpy as np

# Skew-symmetric metric of the canonical (q1, q2, p1, p2) ordering.
# J @ J = -I and J.T = -J = J^-1.
J = np.array(
    [
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ]
)
J.setflags(write=False)


@dataclass(frozen=True)
class TrapConfig:
    """Physical statement of a rotation problem.

    Parameters
    ----------
    omega1, omega2 : float
        Axial angular frequencies, any consistent unit (rad/s, rad/ms, or
        dimensionless).  Inputs with ``omega1 > omega2`` are normalized by
        relabeling the axes.
    theta_dot : float
        Constant rotation angular velocity, same unit.  ``theta_dot = 0``
        (static trap) is valid everywhere; the symplectic construction
        additionally needs ``theta_dot < omega1`` (see
        :func:`williamson_valid`), which is checked where required rather
        than at construction so near-critical sweeps stay representable.

    The Hamiltonian depends on these three values alone; the target angle
    belongs to the rotation protocol that drives the trap.
    """

    omega1: float
    omega2: float
    theta_dot: float = 0.0

    def __post_init__(self):
        for name in ("omega1", "omega2", "theta_dot"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.omega1 <= 0 or self.omega2 <= 0:
            raise ValueError("axial frequencies must be positive")
        if self.theta_dot < 0:
            raise ValueError("rotation velocity must be non-negative")
        if self.omega1 > self.omega2:
            w1, w2 = self.omega1, self.omega2
            object.__setattr__(self, "omega1", w2)
            object.__setattr__(self, "omega2", w1)

    @classmethod
    def from_frequency_hz(cls, f1, f2, f_dot):
        """Build a config from plain frequencies in Hz (multiplied by 2*pi)."""
        return cls(2 * np.pi * f1, 2 * np.pi * f2, 2 * np.pi * f_dot)

    @property
    def eta(self):
        """Anisotropy parameter sqrt(omega1/omega2), in (0, 1]."""
        return np.sqrt(self.omega1 / self.omega2)


@dataclass(frozen=True)
class PhaseSpaceState:
    """A point (q1, q2, p1, p2) in dimensionless phase space.

    The same type carries rotating-frame, normal-mode and lab-frame
    coordinates; functions document which frame they expect.
    """

    q1: float
    q2: float
    p1: float = 0.0
    p2: float = 0.0

    def __post_init__(self):
        if not all(np.isfinite(x) for x in (self.q1, self.q2, self.p1, self.p2)):
            raise ValueError("phase-space coordinates must be finite")

    @property
    def vector(self):
        return np.array([self.q1, self.q2, self.p1, self.p2])

    @classmethod
    def from_vector(cls, v):
        q1, q2, p1, p2 = np.asarray(v, dtype=float)
        return cls(q1, q2, p1, p2)

    @classmethod
    def from_amplitudes(cls, alpha1, alpha2):
        """The centroid sqrt(2) (Re alpha, Im alpha) of the coherent state |alpha1, alpha2>."""
        a = np.array([alpha1, alpha2], dtype=complex)
        return cls.from_vector(np.sqrt(2) * np.concatenate([a.real, a.imag]))


@dataclass(frozen=True)
class QuadraticForm:
    """Symmetric 4x4 matrix ``a`` of a quadratic Hamiltonian H = v^T a v."""

    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.shape != (4, 4):
            raise ValueError("quadratic form must be 4x4")
        if not np.array_equal(a, a.T):
            raise ValueError("quadratic form must be exactly symmetric")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "a", a)


def build_rotating_hamiltonian(config):
    """Quadratic-form matrix of the rotating-frame Hamiltonian.

    Returns
    -------
    QuadraticForm
        A with diagonal (omega1, omega2, omega1, omega2)/2 and couplings
        A[0,3] = -theta_dot/(2*eta), A[1,2] = eta*theta_dot/2, so that
        v^T A v reproduces the dimensionless rotating-frame energy.
    """
    w1, w2, td = config.omega1, config.omega2, config.theta_dot
    eta = config.eta
    a = np.zeros((4, 4))
    a[0, 0] = a[2, 2] = w1 / 2
    a[1, 1] = a[3, 3] = w2 / 2
    a[0, 3] = a[3, 0] = -td / (2 * eta)
    a[1, 2] = a[2, 1] = eta * td / 2
    return QuadraticForm(a)


def williamson_valid(config):
    """Whether the quadratic form admits a symplectic diagonalization.

    True iff theta_dot < min(omega1, omega2), which is equivalent to the
    matrix of :func:`build_rotating_hamiltonian` being positive definite.
    """
    return config.theta_dot < min(config.omega1, config.omega2)


def hamiltonian_value(form, state):
    """Evaluate the quadratic energy v^T a v at a phase-space point."""
    v = state.vector
    return float(v @ form.a @ v)
