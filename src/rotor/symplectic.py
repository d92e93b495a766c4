"""Symplectic decoupling of the rotating-frame Hamiltonian into normal modes.

The coupled quadratic form A is brought to the diagonal
``diag(O1^2, O2^2, 1, 1)/2`` by a product of four elementary symplectic
matrices:

* a coordinate/momentum swap that makes A block diagonal,
* a shear that diagonalizes the momentum block,
* a positive scaling that turns the momentum block into the identity,
* a simultaneous rotation of both blocks by an angle ``alpha`` that
  diagonalizes the remaining coordinate block, slow mode first; its
  closed form needs no branch test.

The transformation mixes coordinates with momenta, so it is canonical but
not a point transformation.  The normal frequencies O1 <= O2 also follow in
closed form from the trap parameters; they coincide with the moduli of the
imaginary eigenvalues of the linear dynamics matrix 2*J*A.

The module uses numpy alone.  :func:`symplectic_generator` takes its 4x4
logarithm and exponential by its own iterations of ``inv``, ``solve`` and
``@``, which stay in the calling thread: scipy's ``logm`` and ``expm`` of
a 4x4 wake its BLAS thread pool, which then spins for about 0.1 s of CPU
after each call.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import J, PhaseSpaceState, TrapConfig, build_rotating_hamiltonian, williamson_valid
from .errors import LogBranchFailure, WilliamsonViolation

SYMPLECTIC_TOL = 1e-12
#: accuracy :func:`symplectic_generator` demands of G and of exp(2 J G)
GENERATOR_TOL = 1e-10
#: 1-norm of X - I at or below which :func:`_logm` sums the atanh series
_LOG_SERIES_RADIUS = 0.25
#: most square roots, Denman-Beavers steps per root, or series terms that
#: :func:`_logm` and :func:`_expm` take; a spectrum within about 1e-10 of the
#: negative real axis leaves a square root unconverged after this many steps
_ITERATION_CAP = 40
#: the smallest normal double
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class SymplecticTransform:
    """A real 4x4 matrix S with S^T J S = J (checked at construction)."""

    s: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        if s.shape != (4, 4):
            raise ValueError("symplectic transform must be 4x4")
        resid = np.abs(s.T @ J @ s - J).max()
        if resid >= SYMPLECTIC_TOL:
            raise ValueError(f"matrix is not symplectic (residual {resid:.3e})")
        s = s.copy()
        s.setflags(write=False)
        object.__setattr__(self, "s", s)

    @property
    def inverse(self):
        """S^-1 computed as J^-1 S^T J (exact for symplectic S)."""
        return -J @ self.s.T @ J


@dataclass(frozen=True)
class NormalModes:
    """Decoupled description of the rotating-frame dynamics.

    Attributes
    ----------
    omega_cap1, omega_cap2 : float
        Normal-mode frequencies, 0 < omega_cap1 <= omega_cap2.
    alpha : float
        Block-rotation angle of the final diagonalization step, in
        (-pi/2, pi/2].
    transform : SymplecticTransform
        Composite S with S^T A S = diag(O1^2, O2^2, 1, 1)/2.
    diag : ndarray
        The diagonalized 4x4 form (kept for residual checks).
    """

    omega_cap1: float
    omega_cap2: float
    alpha: float
    transform: SymplecticTransform
    diag: np.ndarray


def _require_williamson(config):
    """Raise WilliamsonViolation unless :func:`williamson_valid` holds."""
    if not williamson_valid(config):
        raise WilliamsonViolation(
            f"theta_dot = {config.theta_dot} must be below omega1 = {config.omega1}"
        )


def normal_frequencies(config):
    """Closed-form normal-mode frequencies (O1, O2) of a valid config.

    Raises
    ------
    WilliamsonViolation
        If theta_dot >= omega1, where the slow mode turns complex.
    """
    _require_williamson(config)
    return _frequencies(config.omega1, config.omega2, config.theta_dot)


def normal_frequency_sweep(omega1, omega2, theta_dots):
    """:func:`normal_frequencies` of ``TrapConfig(omega1, omega2, td)`` for
    every velocity ``td`` of ``theta_dots``, as two arrays (O1, O2).

    One vector evaluation of the same formula, equal bit for bit to a loop
    over the velocities.  The trap is validated as :class:`TrapConfig` does
    at the smallest and largest velocity, which bound the others.

    Raises
    ------
    ValueError
        If :class:`TrapConfig` rejects the trap at either velocity.
    WilliamsonViolation
        If the largest velocity reaches omega1, the slower axis.
    """
    theta_dots = np.asarray(theta_dots, dtype=float)
    TrapConfig(omega1, omega2, theta_dots.min())
    config = TrapConfig(omega1, omega2, theta_dots.max())
    _require_williamson(config)
    return _frequencies(config.omega1, config.omega2, theta_dots)


def _frequencies(omega1, omega2, theta_dot):
    """(O1, O2) in closed form; elementwise over an array of velocities.

    Every square is ``np.float_power(x, 2)``, the C library's ``pow`` that
    ``x**2`` calls on a float scalar, so an array of velocities gives the
    bits of a loop over them; numpy's ``**`` on an array rounds some squares
    differently.

    Raises ValueError if the result is not finite, as when a square
    overflows, which trap frequencies from about 1e77 up can make happen;
    or if the fourth power of the slower trap frequency is below the
    smallest normal double, as below about 1e-77, where the radicand's
    products of squares lose their bits and O1 and O2 come out equal."""
    with np.errstate(over="ignore", invalid="ignore"):
        w1sq, w2sq, tdsq = (np.float_power(x, 2) for x in (omega1, omega2, theta_dot))
        if min(w1sq, w2sq) ** 2 < _TINY:
            raise ValueError(
                f"the normal frequencies of the trap ({omega1:.6g}, {omega2:.6g}) "
                "underflow double precision"
            )
        mean = tdsq + (w1sq + w2sq) / 2
        root = np.sqrt(8 * tdsq * (w1sq + w2sq) + np.float_power(w1sq - w2sq, 2)) / 2
        slow, fast = np.sqrt(mean - root), np.sqrt(mean + root)
    if not (np.isfinite(slow).all() and np.isfinite(fast).all()):
        raise ValueError(
            f"the normal frequencies of the trap ({omega1:.6g}, {omega2:.6g}) "
            "overflow double precision"
        )
    return slow, fast


def _rotation_angle(config):
    """Angle in (-pi/2, pi/2] that rotates O1^2 into the first slot.

    arctan2(num, den) / 2, with num = 2b and den = a - d from the block
    [[a, b], [b, d]] that S0 S1 S2 leave, puts the larger eigenvalue first
    whenever a != d or b != 0; a quarter turn always swaps it for the
    smaller one.  A degenerate block (num = den = 0) gives alpha = 0."""
    w1, w2, td = config.omega1, config.omega2, config.theta_dot
    num = 4 * td * np.sqrt(w1**2 - td**2)
    den = w1**2 - w2**2 - 4 * td**2
    if num == 0.0 and den == 0.0:
        return 0.0
    alpha = 0.5 * np.arctan2(num, den) + np.pi / 2
    if alpha > np.pi / 2:
        alpha -= np.pi
    return alpha


def _step_matrices(config, alpha):
    w1, w2, td = config.omega1, config.omega2, config.theta_dot
    delta = w1**2 - td**2
    s0 = np.array(
        [
            [0.0, 0.0, -1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    c = td / np.sqrt(w1 * w2)
    s1 = np.eye(4)
    s1[0, 1] = c
    s1[3, 2] = -c
    s2 = np.diag([np.sqrt(delta / w1), np.sqrt(w2), np.sqrt(w1 / delta), 1 / np.sqrt(w2)])
    s3 = _block_rotation(alpha)
    return s0, s1, s2, s3


def step_transforms(config):
    """The four elementary transforms (S0, S1, S2, S3) of the construction.

    S0 swaps (q1, p1) to block-diagonalize A, S1 shears the momentum block
    diagonal, S2 scales it to the identity and S3 rotates both blocks by
    the closed-form angle.  Each factor is individually symplectic.
    """
    _require_williamson(config)
    mats = _step_matrices(config, _rotation_angle(config))
    return tuple(SymplecticTransform(s) for s in mats)


def _block_rotation(alpha):
    ca, sa = np.cos(alpha), np.sin(alpha)
    r = np.array([[ca, -sa], [sa, ca]])
    out = np.zeros((4, 4))
    out[:2, :2] = r
    out[2:, 2:] = r
    return out


def normal_modes(config):
    """Construct the composite transform and normal frequencies of a config.

    The returned ``transform`` S satisfies S^T A S = diag(O1^2, O2^2, 1, 1)/2
    with off-diagonal residual below ``SYMPLECTIC_TOL`` relative to |A|_max.
    """
    o1, o2 = normal_frequencies(config)
    alpha = _rotation_angle(config)
    s0, s1, s2, s3 = _step_matrices(config, alpha)
    s = SymplecticTransform(s0 @ s1 @ s2 @ s3)
    a = build_rotating_hamiltonian(config).a
    diag = s.s.T @ a @ s.s
    return NormalModes(o1, o2, alpha, s, diag)


def to_normal_coords(state, modes):
    """Map a rotating-frame point v to normal-mode coordinates V = S^-1 v."""
    return PhaseSpaceState.from_vector(modes.transform.inverse @ state.vector)


def from_normal_coords(state, modes):
    """Map normal-mode coordinates V back to the rotating frame, v = S V."""
    return PhaseSpaceState.from_vector(modes.transform.s @ state.vector)


def normal_mode_energy(state_v, modes):
    """Energy of a normal-mode point: (P1^2 + P2^2 + O1^2 Q1^2 + O2^2 Q2^2)/2."""
    q1, q2, p1, p2 = state_v.vector
    return 0.5 * (
        p1**2 + p2**2 + modes.omega_cap1**2 * q1**2 + modes.omega_cap2**2 * q2**2
    )


def _norm1(x):
    """The 1-norm (largest column sum) of a matrix."""
    return np.abs(x).sum(axis=0).max()


def _sqrtm(x):
    """Principal square root by the Denman-Beavers iteration
    Y <- (Y + Z^-1) / 2, Z <- (Z + Y^-1) / 2 from Y = X, Z = I.

    The iteration converges quadratically, so the step that moves Y by at
    most 2**-30 of its norm leaves it at rounding.  Raises LogBranchFailure
    on a singular or non-finite iterate or after ``_ITERATION_CAP`` steps,
    which is how a spectrum on the closed negative real axis shows."""
    y, z = x, np.eye(len(x))
    for _ in range(_ITERATION_CAP):
        try:
            y_next, z = (y + np.linalg.inv(z)) / 2, (z + np.linalg.inv(y)) / 2
        except np.linalg.LinAlgError:
            raise LogBranchFailure("no principal logarithm: a square root met a singular iterate") from None
        if not np.isfinite(y_next).all():
            raise LogBranchFailure("no principal logarithm: a square root is not finite")
        step, y = _norm1(y_next - y), y_next
        if step <= 2.0**-30 * _norm1(y):
            return y
    raise LogBranchFailure(f"no principal logarithm: a square root did not converge in {_ITERATION_CAP} steps")


def _logm(x):
    """Principal real logarithm of a real square matrix, by inverse scaling
    and squaring (Higham, Functions of Matrices, SIAM 2008, ch. 11).

    k square roots (:func:`_sqrtm`) bring X^(1/2^k) within 1-norm
    ``_LOG_SERIES_RADIUS`` of I, and log X = 2^k 2 atanh(Z) with
    Z = (X^(1/2^k) - I)(X^(1/2^k) + I)^-1, summed as 2 sum_j Z^(2j+1) / (2j+1)
    until a term falls below 2**-53 of the sum.  Raises LogBranchFailure
    where :func:`_sqrtm` does, or if the roots or the series do not
    converge in ``_ITERATION_CAP`` steps."""
    eye = np.eye(len(x))
    roots = 0
    while _norm1(x - eye) > _LOG_SERIES_RADIUS:
        if roots == _ITERATION_CAP:
            raise LogBranchFailure(f"no principal logarithm within {_ITERATION_CAP} square roots")
        x, roots = _sqrtm(x), roots + 1
    z = np.linalg.solve(x + eye, x - eye)
    z_sq, term = z @ z, z
    total = z.copy()
    for j in range(1, _ITERATION_CAP):
        term = term @ z_sq
        size = _norm1(term) / (2 * j + 1)
        total += term / (2 * j + 1)
        if size <= 2.0**-53 * _norm1(total):
            return 2.0 ** (roots + 1) * total
    raise LogBranchFailure(f"the logarithm's series did not converge in {_ITERATION_CAP} terms")


def _expm(a):
    """exp(a) of a small dense matrix by scaling and squaring: the Taylor
    series of a / 2^s, with s taken from the binary exponent of |a|_1 so
    that |a / 2^s|_1 < 1/2, summed until a term falls below 2**-53 of the
    sum, then squared s times.  Kept apart from the conjugation oracle's own series,
    which checks a generator that this routine helped to make."""
    squarings = max(0, math.frexp(_norm1(a))[1] + 1)
    x = a * 2.0**-squarings
    term, total = np.eye(len(a)), np.eye(len(a))
    for k in range(1, _ITERATION_CAP):
        term = term @ x / k
        total += term
        if _norm1(term) <= 2.0**-53 * _norm1(total):
            break
    for _ in range(squarings):
        total = total @ total
    return total


def symplectic_generator(transform):
    """Extract the symmetric generator G with S = exp(2 J G).

    Uses the principal real matrix logarithm (:func:`_logm`), and checks
    the result with its own exponential (:func:`_expm`).  Both are numpy
    iterations of 4x4 ``inv``, ``solve`` and ``@``, which wake no BLAS
    thread pool: scipy's ``logm`` and ``expm`` do, and each call then costs
    about 0.1 s of spinning CPU.  The principal branch does not exist for
    every symplectic matrix (eigenvalues on the closed negative real axis),
    in which case the failure is reported instead of switching branches.

    Raises
    ------
    LogBranchFailure
        If the logarithm meets a singular or non-finite iterate or does not
        converge, the generator is not symmetric to ``GENERATOR_TOL``, or
        exp(2 J G) misses S by more than ``GENERATOR_TOL``.
    """
    s = transform.s
    with np.errstate(all="ignore"):
        log_s = _logm(s)
    g = 0.5 * (-J) @ log_s
    if np.abs(g - g.T).max() > GENERATOR_TOL:
        raise LogBranchFailure("extracted generator is not symmetric")
    g = (g + g.T) / 2
    recon = _expm(2 * J @ g)
    if np.abs(recon - s).max() > GENERATOR_TOL:
        raise LogBranchFailure("exp(2 J G) does not reconstruct the input matrix")
    return g
