"""Selection of rotation parameters that end a fast rotation excitation-free.

With normal frequencies locked to an integer ratio O2/O1 = n2/n1, every
orbit closes after the common period T = 2*pi*n1/O1, so a rotation lasting
exactly T returns any initial state (classical or quantum) to itself in the
rotating frame.  Requiring additionally T = theta_f/theta_dot fixes the
trap frequencies relative to the rotation velocity through two
dimensionless ratios kappa_minus = omega1/theta_dot and
kappa_plus = omega2/theta_dot that depend only on (n1, n2, theta_f).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import TrapConfig, williamson_valid
from .errors import InfeasibleDesign
from .symplectic import normal_frequencies


@dataclass(frozen=True)
class RotationProtocol:
    """A complete shortcut design for one rotation.

    ``omega1 = kappa_minus * theta_dot`` and ``omega2 = kappa_plus *
    theta_dot`` hold exactly by construction; ``duration`` is
    theta_f/theta_dot = 2*pi*n1/O1 in the time unit implied by omega1.
    """

    n1: int
    n2: int
    theta_f: float
    omega1: float
    kappa_minus: float
    kappa_plus: float
    theta_dot: float
    omega2: float
    duration: float

    @property
    def config(self):
        """The trap configuration realizing this protocol."""
        return TrapConfig(self.omega1, self.omega2, self.theta_dot)

    def normal_frequencies(self):
        return normal_frequencies(self.config)


def kappa(n1, n2, theta_f):
    """Closed-form ratios (kappa_minus, kappa_plus) for integers n1 < n2.

    Raises
    ------
    InfeasibleDesign
        When theta_f is not a finite number above 0, when the inner
        radicand turns negative, which happens exactly for
        theta_f in (pi*(n2 - n1), pi*(n2 + n1)), when kappa_minus <= 1
        (the rotation would need theta_dot >= omega1), or when theta_f is
        so far from 1 (about 1e-154 or 1e78) that the squares overflow.
    """
    if not (0 < n1 < n2):
        raise InfeasibleDesign(f"need integers 0 < n1 < n2, got ({n1}, {n2})")
    if not 0 < theta_f < np.inf:
        raise InfeasibleDesign(f"rotation angle theta_f must be finite and positive, got {theta_f}")
    d_plus = n1**2 + n2**2
    d_minus = n1**2 - n2**2
    # theta_f^2 and 1/theta_f^2 each overflow for an angle far enough from 1
    out_of_range = InfeasibleDesign(
        f"rotation angle theta_f = {theta_f:.6g} puts kappa out of double-precision range"
    )
    try:
        tf2 = theta_f**2
        radicand = np.pi**4 * d_minus**2 - 2 * np.pi**2 * d_plus * tf2 + tf2**2
        base = -1 + 2 * np.pi**2 * d_plus / tf2
    except (OverflowError, ZeroDivisionError):
        raise out_of_range from None
    if radicand < 0:
        raise InfeasibleDesign(
            f"no commensurate solution for theta_f = {theta_f:.6g}: angles in "
            f"(pi*{n2 - n1}, pi*{n2 + n1}) are excluded for (n1, n2) = ({n1}, {n2})"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        shift = 2 * np.sqrt(radicand) / tf2
        km_sq, kp_sq = base - shift, base + shift
    if not np.isfinite(kp_sq):
        raise out_of_range
    if km_sq <= 1:
        raise InfeasibleDesign(
            f"kappa_minus^2 = {km_sq:.6g} <= 1: rotation velocity would reach omega1"
        )
    return np.sqrt(km_sq), np.sqrt(kp_sq)


def design_protocol(omega1, theta_f, n1, n2):
    """Derive theta_dot, omega2 and the duration for a given omega1.

    ``omega1`` may be in any angular-frequency unit; the returned duration
    is in the matching time unit.  Pairs with gcd(n1, n2) > 1 are accepted
    but warn, once the design is known to be valid, since the reduced pair
    gives a shorter protocol with the same frequency ratio.
    """
    if omega1 <= 0:
        raise InfeasibleDesign("omega1 must be positive")
    km, kp = kappa(n1, n2, theta_f)
    theta_dot = omega1 / km
    omega2 = kp * theta_dot
    duration = km * theta_f / omega1
    protocol = RotationProtocol(
        n1=int(n1),
        n2=int(n2),
        theta_f=float(theta_f),
        omega1=float(omega1),
        kappa_minus=float(km),
        kappa_plus=float(kp),
        theta_dot=float(theta_dot),
        omega2=float(omega2),
        duration=float(duration),
    )
    if not williamson_valid(protocol.config):
        raise InfeasibleDesign(
            f"theta_dot = {theta_dot:.6g} is not below min(omega1, omega2): "
            "the design violates the Williamson bound"
        )
    if math.gcd(int(n1), int(n2)) > 1:
        g = math.gcd(int(n1), int(n2))
        warnings.warn(
            f"(n1, n2) = ({n1}, {n2}) share a factor {g}; "
            f"({n1 // g}, {n2 // g}) gives a shorter valid rotation",
            stacklevel=2,
        )
    return protocol


def minimal_time(omega1, theta_f):
    """Shortest possible excitation-free rotation time for a fixed omega1.

    This is the n1 = 1, n2 -> infinity limit of the designed durations:
    one full slow-mode oscillation in an infinitely narrow trap,
    sqrt(theta_f^2 + 4*pi^2)/omega1.
    """
    return np.sqrt(theta_f**2 + 4 * np.pi**2) / omega1


def commensurate_velocity(omega1, omega2, n1, n2):
    """Rotation velocity locking O2/O1 = n2/n1 for a *fixed* trap.

    The normal frequencies satisfy O1^2 + O2^2 = w1^2 + w2^2 + 2 u and
    O1^2 O2^2 = (w1^2 - u)(w2^2 - u) with u = theta_dot^2.  Setting
    O2^2 = k O1^2, k = (n2/n1)^2, and eliminating O1 leaves the quadratic

        (k - 1)^2 u^2 - s (k^2 + 6 k + 1) u + (k w1^2 - w2^2)(k w2^2 - w1^2) = 0,

    s = w1^2 + w2^2, whose smaller root is the solution; it is taken in
    the cancellation-free form 2c / (b + sqrt(b^2 - 4ac)).  Because the trap
    is fixed, only the discrete angle theta_f = theta_dot * 2*pi*n1/O1 can
    be reached; it is returned alongside theta_dot.

    Returns
    -------
    (theta_dot, theta_f) : tuple of float

    Raises
    ------
    InfeasibleDesign
        If n2/n1 <= omega2/omega1.  Equality is the degenerate boundary
        whose only solution is theta_dot = 0 (no rotation at all), which is
        reported rather than assigned meaning.  Also if the solution does
        not lie below the velocity bound omega1.
    """
    if omega1 <= 0 or omega2 <= 0 or omega2 < omega1:
        raise InfeasibleDesign("need 0 < omega1 <= omega2")
    target = n2 / n1
    start = omega2 / omega1
    if target == start:
        raise InfeasibleDesign(
            f"degenerate: O2/O1 already equals {n2}/{n1} at theta_dot = 0 "
            "(no rotation); choose a larger n2/n1"
        )
    if target < start:
        raise InfeasibleDesign(
            f"n2/n1 = {target:.6g} must exceed omega2/omega1 = {start:.6g}"
        )
    k = target**2
    w1sq, w2sq = omega1**2, omega2**2
    s = w1sq + w2sq
    a = (k - 1) ** 2
    b = s * (k**2 + 6 * k + 1)
    c = (k * w1sq - w2sq) * (k * w2sq - w1sq)
    u = 2 * c / (b + np.sqrt(b**2 - 4 * a * c))
    if u >= w1sq:
        raise InfeasibleDesign(
            f"ratio {target:.6g} not reachable below the velocity bound"
        )
    theta_dot = np.sqrt(u)
    o1 = np.sqrt((s + 2 * u) / (1 + k))
    theta_f = theta_dot * 2 * np.pi * n1 / o1
    return theta_dot, theta_f


def ground_state_sensitivity(protocol):
    """Closed-form timing sensitivity of the static-trap ground state.

    The survival of the ground state after a rotation lasting T + eps
    decays as 1 - delta_h_sq * eps^2 with
    delta_h_sq = theta_dot^2 (omega1 - omega2)^2 / (4 omega1 omega2),
    in the squared frequency unit of the protocol; returns delta_h_sq.
    """
    w1, w2, td = protocol.omega1, protocol.omega2, protocol.theta_dot
    return td**2 * (w1 - w2) ** 2 / (4 * w1 * w2)
