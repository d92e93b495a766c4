"""Truncated two-mode Fock-space simulation of the rotating-frame dynamics.

States live on the number basis |n1, n2> of the two static-trap
oscillators, truncated to 0 <= n_j < nmax and stored row-major as an
(nmax, nmax) coefficient array.  The Hamiltonian is time independent
during a constant-velocity rotation, so exp(-i H t) is applied by a
Chebyshev series in H rather than by time stepping; the propagator is then
exact to rounding on the truncated basis.

No Hamiltonian is factorized.  :func:`_propagator` makes, for one state,
the function of time that evolves it, one Chebyshev series of sparse
products per block of nearby times.  :func:`evolve_series` and
:func:`wavepacket_track` make one per call, :func:`converge_truncation` one
per size for psi(T).  :func:`stability_sweep` and
:func:`measure_sensitivity` need only the survival amplitude
<psi0|exp(-i H t)|psi0> and evolve no state: :func:`_autocorrelation` reads
the Chebyshev moments of psi0 from half as many of the same terms.  Both
series share one start, :func:`_chebyshev_start`, one recurrence,
:func:`_chebyshev_terms`, and one FFT weight table, :func:`_chebyshev_weights`;
``jv`` only counts the orders.  Each step of the recurrence is one sparse
product added in place into a preallocated table of terms, and the series
read the tables whole: the propagator multiplies its weights by its block's
one table, in panels that OpenBLAS runs in the calling thread, and the
survival sum takes its moments from row sums.
:func:`revival_phase` evolves nothing: it reads the phase from psi(T), the
state its caller has already evolved.  :func:`measure_sensitivity` refuses a
state with no energy variance, whose survival does not decay.

Each observable takes one :class:`QuantumState` or a (..., nmax, nmax)
coefficient stack, the shape :func:`evolve_series` returns, and gives one
value (four for :func:`phase_space_expectations`) per state.

The Fock path is the reference.  H is quadratic, so U(t) = exp(-i H t)
maps the ladder operators linearly through the classical flow F(t)
(:class:`_LadderFlow`, the one Gaussian layer over
:func:`rotor.classical.flow_matrix`), and the states the command line
starts from have exact routes with no Hamiltonian matrix, no truncation and
no eigendecomposition:

* :class:`ClosedFormState` evaluates the survival, <N>, the overlap
  <psi0|U(t)|psi0> (the zero-point factor G0 = det(alpha')^(-1/2) on its
  branch), the revival phase, the energy variance and the timing-error fit
  of a coherent state (the ground state at 0, 0) or of A+|0> in closed form.
  ``rotor simulate`` and ``rotor stability`` use it unless a run asks for a
  truncation.
* :func:`coherent_track` integrates the exact Gaussian position density
  of an evolving coherent state, N(F d0, (F F^T)[:2, :2] / 2), on its track
  grid, with no basis; :func:`wavepacket_track` keeps the Fock path for
  any state as the reference it is checked against.
* :func:`_coherent_series` gives the amplitudes of an evolving coherent
  state on the truncated basis by a recurrence; :func:`coherent_track`
  reads the truncation diagnostics of its run from it at a few times.

The tests check every closed form against :func:`evolve_series`.

Two structural facts keep the Fock layer cheap.  A quadratic two-mode
operator only connects states whose total occupation differs by 0 or 2,
so its matrix splits into an even and an odd parity sector, and in
row-major (n1, n2) order each sector is a band of half-width about
nmax / 2.  And the diagonal phase rotation ``i**n1`` turns every coupling
element of the Hamiltonian real, so each of its sectors is a real
symmetric matrix.  :func:`build_fock_hamiltonian` builds that rotated
matrix in closed form, as the band of a diagonal and four index shifts, and
is the one source of the :class:`FockHamiltonian` that holds it; the
complex matrix is derived from it on request, and no complex matrix is
turned back into a band.  Each reader computes
only what it needs from the real band: :func:`eigenvalues` reads each
sector into band storage and takes its spectrum from ``eigvals_banded``,
with no dense block and no eigenvectors; :func:`_chebyshev_terms` runs
the one recurrence of both series on the sparse band, with the real and
imaginary parts of the state side by side in real arithmetic; and
:func:`energy_variance` takes <H^2> - <H>^2 from one product of the band.
The tests check the band against H formed from the sparse q and p of
:func:`phase_space_operators`, and the readers against the full dense
matrix, by ``eigvalsh``, ``expm`` and ``eigh``.
:func:`conjugation_check` builds v^T G v from :func:`phase_space_operators`,
applies exp(i v^T G v) on each parity sector alone by its own Taylor series
(:func:`_expm_action`, sized from the exact 1-norm), splits the basis with
its own index arithmetic and shares no code with the builder or any reader.

scipy is imported inside the Fock functions that use it, not with the
module: sparse matrices, ``jv``, ``xlogy`` and ``eigvals_banded``.  The
closed forms and :func:`coherent_nmax`, whose Poisson tail
(:func:`_coherent_tail`) is summed with numpy and ``math``, need none of
it, so ``import rotor`` and the closed-form commands load no scipy.
"""

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .classical import Trajectory, _mode_rotation, flow_matrix, sample_trajectory
from .core import J, PhaseSpaceState, build_rotating_hamiltonian
from .errors import (
    ConvergenceFailure,
    DegenerateOverlap,
    LogBranchFailure,
    TruncationTooSmall,
)
from .symplectic import NormalModes, normal_modes

#: rms spread of the ground-state position density, the natural length for
#: "within one ground-state width" statements.
GROUND_STATE_WIDTH = 1 / np.sqrt(2)

_COHERENT_TAIL_TOL = 1e-10
#: largest |alpha|^2 whose truncation :func:`coherent_nmax` sizes: each tail
#: it tests sums about 9 sqrt(|alpha|^2) terms, 5-8 ms at 1e10
_COHERENT_MEAN_MAX = 1e10
#: most terms of the Poisson tail per numpy call; the first call takes 64
_TAIL_CHUNK = 4096
#: log of the smallest normal double, below which exp() underflows
_LOG_TINY = np.log(np.finfo(float).tiny)

#: :func:`converge_truncation` accepts a size n once its revival survival P(T)
#: differs from that of 2n by less than SURVIVAL_TOL and its own top-shell
#: weight is below SHELL_TOL
SURVIVAL_TOL = 1e-8
SHELL_TOL = 1e-8

#: padding of the track axes beyond the classical orbit, in ground-state widths
TRACK_PAD_WIDTHS = 3.0
#: largest relative L1 change of the track when the time step is halved
TRACK_QUAD_TOL = 0.01
#: bytes of per-time arrays one chunk of the track quadrature may hold
_TRACK_CHUNK_BYTES = 2e8
#: times per block of the Gaussian track density
_TRACK_BLOCK = 32
#: evenly spaced times on [0, T], ends included, at which the Gaussian track
#: samples its truncation diagnostics
_TRACK_TRUNCATION_TIMES = 21
#: bytes of the complex (times, 2 orders) FFT input and output that
#: :func:`_chebyshev_weights` holds for one chunk of a survival sweep
_SWEEP_CHUNK_BYTES = 2**24
#: half-width of the timing-error window of the sensitivity fit, as a fraction of T
SENSITIVITY_WINDOW = 0.01
#: the Chebyshev propagator keeps every order up to the first past r t at
#: which the Bessel coefficient J_k(r t) falls below this
_CHEBYSHEV_TAIL = 1e-17
#: largest r |t - t0| in a block of the Chebyshev propagator, with r the
#: half-width of the spectrum and t0 the time of the state it starts from
_CHEBYSHEV_SPAN = 32
#: most multiply-adds of one panel of the block product of :func:`_propagator`,
#: a size that OpenBLAS runs in the calling thread: its interface/gemm.c gives
#: a gemm floor(m n k / 2**18) threads, and a gemv (a block of one time) stayed
#: serial up to m n = 455000 under OpenBLAS 0.3.31.  The idle threads of a
#: woken pool spin for 0.1 s or more after the call
_SERIAL_PRODUCT = 2**18
#: most Taylor terms per step of :func:`_expm_action`, and the largest 1-norm
#: of a step's matrix at which that many keep the relative backward error of
#: the truncation below 2**-53 (Al-Mohy and Higham, SIAM J. Sci. Comput. 33,
#: 488 (2011), Table 3.1)
_TAYLOR_TERMS, _TAYLOR_THETA = 55, 9.9

# a = L v and v = K (a; a+) for the ladder operators a = (a1, a2) and the
# phase-space vector v = (q1, q2, p1, p2)
_L = np.hstack([np.eye(2), 1j * np.eye(2)]) / np.sqrt(2)
_K = np.block([[np.eye(2), np.eye(2)], [-1j * np.eye(2), 1j * np.eye(2)]]) / np.sqrt(2)


# ---------------------------------------------------------------------------
# basis utilities


def hermite_functions(nmax, x):
    """Orthonormal harmonic-oscillator eigenfunctions phi_0..phi_{nmax-1}.

    Evaluated on a point grid by the stable three-term recurrence on the
    normalized functions, which avoids the factorial overflow of the
    polynomial route for large n.

    Returns
    -------
    ndarray of shape (nmax, x.size)
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((nmax, x.size))
    out[0] = np.pi**-0.25 * np.exp(-(x**2) / 2)
    if nmax > 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for n in range(1, nmax - 1):
        out[n + 1] = np.sqrt(2.0 / (n + 1)) * x * out[n] - np.sqrt(n / (n + 1)) * out[n - 1]
    return out


def _index_grids(nmax):
    n1 = np.repeat(np.arange(nmax), nmax)
    n2 = np.tile(np.arange(nmax), nmax)
    return n1, n2


def phase_space_operators(nmax):
    """Sparse (q1, q2, p1, p2) on the two-mode truncated basis."""
    import scipy.sparse as sp

    a = np.diag(np.sqrt(np.arange(1, nmax)), 1)
    q = (a + a.T) / np.sqrt(2)
    p = (a - a.T) / (1j * np.sqrt(2))
    eye = sp.identity(nmax, format="csr")
    qs, ps = sp.csr_matrix(q), sp.csr_matrix(p)
    return (
        sp.kron(qs, eye, format="csr"),
        sp.kron(eye, qs, format="csr"),
        sp.kron(ps, eye, format="csr"),
        sp.kron(eye, ps, format="csr"),
    )


# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class QuantumState:
    """Normalized coefficients over the truncated |n1, n2> basis."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("coefficients must form a square (nmax, nmax) array")
        norm = np.linalg.norm(c)
        if not abs(norm - 1.0) <= 1e-10:
            raise ValueError(f"state must be normalized (|psi| = {norm:.12g})")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def nmax(self):
        return self.coeffs.shape[0]

    @property
    def vector(self):
        """Row-major flattening, index n1 * nmax + n2."""
        return self.coeffs.ravel()


def fock_state(n1, n2, nmax):
    """The basis state |n1, n2>."""
    if not (0 <= n1 < nmax and 0 <= n2 < nmax):
        raise TruncationTooSmall(f"|{n1},{n2}> does not fit below nmax = {nmax}")
    c = np.zeros((nmax, nmax), dtype=complex)
    c[n1, n2] = 1.0
    return QuantumState(c)


def entangled_state(nmax):
    """The one-quantum superposition (|0,1> + |1,0>)/sqrt(2); TruncationTooSmall below nmax 2."""
    if nmax < 2:
        raise TruncationTooSmall(f"|0,1> + |1,0> does not fit below nmax = {nmax}")
    c = np.zeros((nmax, nmax), dtype=complex)
    c[0, 1] = c[1, 0] = 1 / np.sqrt(2)
    return QuantumState(c)


def _coherent_coefficients(alpha, nmax):
    from scipy.special import xlogy

    n = np.arange(nmax)
    log_mag = (
        xlogy(n, abs(alpha))
        - 0.5 * np.array([math.lgamma(k + 1) for k in n])
        - abs(alpha) ** 2 / 2
    )
    return np.exp(log_mag) * np.exp(1j * n * np.angle(alpha))


def _coherent_mean(alpha):
    """|alpha|^2, the mean occupation of a coherent mode.

    Raises ValueError if it is not finite (nan, inf or an overflow).
    """
    with np.errstate(over="ignore"):
        mean = np.abs(np.complex128(alpha)) ** 2
    if not np.isfinite(mean):
        raise ValueError(f"coherent amplitude {alpha} has no finite |alpha|^2")
    return mean


def _stirling_error(k):
    """Loader's stirlerr(k) = log k! - log(sqrt(2 pi k) (k / e)^k) for an
    integer k >= 1: from lgamma up to 15, where its rounding stays below
    1e-14, else from the first five terms of the Stirling series, whose next
    is below 1e-17."""
    if k <= 15:
        return math.lgamma(k + 1) - (k + 0.5) * math.log(k) + k - 0.5 * math.log(2 * math.pi)
    inv = 1 / (k * k)
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - inv / 1188) * inv) * inv) * inv) / k


def _deviance(x, m):
    """Loader's bd0(x, m) = x log(x / m) + m - x >= 0, formed without its
    cancellation: for |x - m| <= (x + m) / 2 as (x - m) v + 2 x sum_j
    v^(2j+1) / (2j + 1) with v = (x - m) / (x + m), else with log x - log m,
    which cannot overflow at a subnormal m, as x / m can."""
    if abs(x - m) > 0.5 * (x + m):
        return x * (math.log(x) - math.log(m)) + m - x
    v = (x - m) / (x + m)
    total, power, j = (x - m) * v, 2 * x * v, 1
    while True:
        power *= v * v
        grown = total + power / (2 * j + 1)
        if grown == total:
            return total
        total, j = grown, j + 1


def _poisson_log_pmf(k, mean):
    """log P(N = k) for N ~ Poisson(``mean``), in the saddle-point form
    -stirlerr(k) - bd0(k, mean) - log(2 pi k) / 2 of C. Loader, "Fast and
    Accurate Computation of Binomial Probabilities" (2000), whose terms keep
    their relative accuracy at any mean."""
    if k == 0:
        return -mean
    return -_stirling_error(k) - _deviance(k, mean) - 0.5 * math.log(2 * math.pi * k)


def _coherent_tail(alpha, nmax):
    """Population of a coherent mode at n >= nmax: P(N >= nmax) for N ~
    Poisson(|alpha|^2), summed with numpy and math alone.

    Above the mean it sums the tail itself, below it the rest, 1 - P(N <
    nmax), so each sum starts at the term nearest the mean and its terms
    fall.  The sum walks away from that term by a cumulative sum of the log
    ratios of successive terms, in chunks of at most ``_TAIL_CHUNK``, and
    stops once a term is below 2**-60 of the sum.  The terms are relative to
    the first, whose log is :func:`_poisson_log_pmf`.
    """
    mean = float(_coherent_mean(alpha))
    if nmax <= 0 or mean == 0:
        return float(nmax <= 0)
    upper = nmax > mean
    first = nmax if upper else nmax - 1
    total, log_term, k, size = 1.0, 0.0, first, 64
    while True:
        steps = np.arange(k + 1, k + 1 + size) if upper else np.arange(k, max(k - size, 0), -1)
        if not steps.size:
            break
        # a ratio below the smallest double is a zero term, as it should be
        with np.errstate(divide="ignore"):
            logs = log_term + np.cumsum(np.log(mean / steps if upper else steps / mean))
        terms = np.exp(logs)
        total += terms.sum()
        log_term, k = logs[-1], k + size if upper else k - size
        size = min(2 * size, _TAIL_CHUNK)
        if terms[-1] < 2.0**-60 * total:
            break
    part = math.exp(_poisson_log_pmf(first, mean)) * total
    return part if upper else 1.0 - part


def coherent_nmax(alpha1, alpha2):
    """Smallest multiple of 8, at least 16, at which :func:`coherent_state`
    accepts the amplitudes (both tails below 1e-10).

    Only the larger amplitude, whose tail is the larger, is tested.  No
    size at or below its mean |alpha|^2 holds such a tail, so the search
    starts there and takes O(log |alpha|) tests.  Raises ValueError, before
    any tail is summed, if either |alpha|^2 is not finite or is above
    ``_COHERENT_MEAN_MAX``.
    """
    alpha = max((alpha1, alpha2), key=_coherent_mean)
    if _coherent_mean(alpha) > _COHERENT_MEAN_MAX:
        raise ValueError(
            f"|alpha|^2 = {_coherent_mean(alpha):.6g} is above {_COHERENT_MEAN_MAX:g}, "
            "the largest mean whose truncation is sized"
        )

    def fails(k):
        return _coherent_tail(alpha, 8 * k) >= _COHERENT_TAIL_TOL

    # 8 lo is below 16 or at most the mean, too small either way; the
    # stride doubles until 8 (lo + step) fits, then halves down to 1
    lo, step = max(1, int(_coherent_mean(alpha) // 8)), 1
    while fails(lo + step):
        lo, step = lo + step, 2 * step
    while step > 1:
        step //= 2
        lo += step if fails(lo + step) else 0
    return 8 * (lo + 1)


def coherent_state(alpha1, alpha2, nmax):
    """Two-mode coherent state |alpha1, alpha2>, renormalized after truncation.

    Raises
    ------
    TruncationTooSmall
        If either mode leaves more than 1e-10 of its population above the
        truncation (Poisson tail with mean |alpha|^2).
    ValueError
        If either |alpha|^2 is not finite.
    """
    for alpha in (alpha1, alpha2):
        tail = _coherent_tail(alpha, nmax)
        if tail >= _COHERENT_TAIL_TOL:
            raise TruncationTooSmall(
                f"|alpha|^2 = {_coherent_mean(alpha):.4g} leaves tail weight {tail:.3e} "
                f"above nmax = {nmax}"
            )
    c = np.outer(_coherent_coefficients(alpha1, nmax), _coherent_coefficients(alpha2, nmax))
    return QuantumState(c / np.linalg.norm(c))


def _coefficients(state):
    """The (..., nmax, nmax) coefficients of a state or of a stack of them."""
    return state.coeffs if isinstance(state, QuantumState) else np.asarray(state)


def _per_state(values):
    """A float for one state, the array of values for a stack."""
    return float(values) if np.ndim(values) == 0 else values


def top_shell_weight(state):
    """Population on the outermost shell (n1 = nmax-1 or n2 = nmax-1)."""
    c = _coefficients(state)
    return _per_state((abs(c[..., -1, :]) ** 2).sum(-1) + (abs(c[..., :-1, -1]) ** 2).sum(-1))


def mean_excitation(state):
    """Expected total occupation <a1+ a1 + a2+ a2>."""
    c = _coefficients(state)
    n = np.arange(c.shape[-1])
    return _per_state(np.sum(np.abs(c) ** 2 * (n[:, None] + n), axis=(-2, -1)))


def _overlap(psi0, psit):
    """<psi_t|psi_0> for a state or a stack ``psit`` on the truncation of ``psi0``.

    A product and numpy's pairwise sum over each state, in the calling
    thread: a ``tensordot`` of a stack is a BLAS gemv, which wakes the
    thread pool, and a bare ``einsum``, with no pairwise sum, errs about
    ten times as much."""
    c = _coefficients(psit)
    if c.shape[-2:] != psi0.coeffs.shape:
        raise ValueError("states live on different truncations")
    return (c.conj() * psi0.coeffs).sum(axis=(-2, -1))


def survival_probability(psi0, psit):
    """|<psi_t | psi_0>|^2 of a state, or of each state of a stack, against ``psi0``."""
    return _per_state(np.abs(_overlap(psi0, psit)) ** 2)


def phase_space_expectations(state):
    """(<q1>, <q2>, <p1>, <p2>) of a state, computed mode-wise; shape (..., 4)."""
    c = _coefficients(state)
    n = np.sqrt(np.arange(1, c.shape[-1]))
    a1 = np.sum(n[:, None] * np.conj(c[..., :-1, :]) * c[..., 1:, :], axis=(-2, -1))
    a2 = np.sum(n * np.conj(c[..., :-1]) * c[..., 1:], axis=(-2, -1))
    return np.sqrt(2) * np.stack([a1.real, a2.real, a1.imag, a2.imag], axis=-1)


# ---------------------------------------------------------------------------
# Hamiltonian and propagation


def _rotation_phases(nmax):
    """The diagonal i**n1 of D, whose rotation D* H D of the Fock Hamiltonian is real."""
    n1, _ = _index_grids(nmax)
    return (1j) ** (n1 % 4)


def _parity_sectors(nmax):
    """The indices of the basis states of even and of odd n1 + n2."""
    n1, n2 = _index_grids(nmax)
    return np.flatnonzero((n1 + n2) % 2 == 0), np.flatnonzero((n1 + n2) % 2 == 1)


@dataclass(frozen=True, eq=False)
class FockHamiltonian:
    """The rotating-frame Hamiltonian on the truncated basis, row-major
    ordering (n1, n2), held as its real symmetric rotation ``rotated`` =
    R = D* H D with D = diag(i**n1), stored sparse with each diagonal entry
    stored once (:func:`build_fock_hamiltonian` makes it so, and
    :func:`_chebyshev_start` checks it): every reader works on R, so none
    rotates it.  The complex H = D R D* is the derived :attr:`matrix`,
    formed anew on each access.  Nothing derived is kept, and Hamiltonians
    compare and hash by identity."""

    rotated: "scipy.sparse.csr_matrix"
    nmax: int

    @property
    def matrix(self):
        """The complex sparse H = D R D*."""
        import scipy.sparse as sp

        phases = _rotation_phases(self.nmax)
        return (sp.diags(phases) @ self.rotated @ sp.diags(np.conj(phases))).tocsr()

    def dense(self):
        return self.matrix.toarray()


def build_fock_hamiltonian(config, nmax):
    """Quantize the rotating-frame Hamiltonian on an nmax x nmax Fock grid.

    H = omega1 (a1+ a1 + 1/2) + omega2 (a2+ a2 + 1/2)
        - theta_dot (q1 p2 / eta - eta q2 p1)
    with q_j = (a_j + a_j+)/sqrt(2) and p_j = (a_j - a_j+)/(i sqrt(2)).

    Besides the diagonal, H holds only the a1+ a2 and a1 a2+ terms, with
    coefficient i theta_dot (1/eta + eta) / 2 and its conjugate, and the
    a1 a2 and a1+ a2+ terms, with -+ i theta_dot (1/eta - eta) / 2.  So
    R = D* H D is built in closed form as the real symmetric band it is:
    with c+- = theta_dot (1/eta +- eta) / 2 it couples (n1, n2) to
    (n1 + 1, n2 - 1) by c+ sqrt((n1 + 1) n2), at the index shift nmax - 1,
    and to (n1 + 1, n2 + 1) by -c- sqrt((n1 + 1) (n2 + 1)), at the shift
    nmax + 1, and each row holds the mirrors of the couplings into it.
    Each row's entries are stored in column order, and zero couplings (all
    of them in a static trap) are not stored.
    """
    import scipy.sparse as sp

    if nmax < 2:
        raise ValueError("nmax must be at least 2")
    td, eta = config.theta_dot, config.eta
    plus, minus = td * (1 / eta + eta) / 2, td * (1 / eta - eta) / 2
    n1, n2 = _index_grids(nmax)
    up1, up2 = n1 + 1 < nmax, n2 + 1 < nmax
    # the five shifts of each row, in column order, and the value and the
    # validity of each; the mirrors repeat the integer under each root
    shifts = np.array([-nmax - 1, -nmax + 1, 0, nmax - 1, nmax + 1])
    values = np.stack([
        -minus * np.sqrt(n1 * n2),
        plus * np.sqrt(n1 * (n2 + 1)),
        config.omega1 * (n1 + 0.5) + config.omega2 * (n2 + 0.5),
        plus * np.sqrt((n1 + 1) * n2),
        -minus * np.sqrt((n1 + 1) * (n2 + 1)),
    ], axis=1)
    down1, down2 = n1 > 0, n2 > 0
    valid = np.stack([down1 & down2, down1 & up2, np.ones_like(up1), up1 & down2, up1 & up2], axis=1)
    stored = valid & (values != 0)
    columns = np.arange(nmax * nmax)[:, None] + shifts
    indptr = np.concatenate([[0], np.cumsum(stored.sum(axis=1))])
    rotated = sp.csr_matrix((values[stored], columns[stored], indptr), shape=(nmax * nmax,) * 2)
    return FockHamiltonian(rotated, nmax)


def _lower_band(block):
    """LAPACK lower band storage of the real symmetric sparse ``block``:
    ``band[d, c] = block[c + d, c]`` for each subdiagonal d up to the last
    that holds a stored entry, read from the stored entries alone."""
    entries = block.tocoo()
    lower = entries.row >= entries.col
    offset, col = entries.row[lower] - entries.col[lower], entries.col[lower]
    band = np.zeros((offset.max(initial=0) + 1, block.shape[0]))
    band[offset, col] = entries.data[lower]
    return band


def eigenvalues(h):
    """Sorted eigenvalues of the truncated Hamiltonian.  Each real sector of
    n1 + n2 of :attr:`FockHamiltonian.rotated`, a band of half-width about
    nmax / 2, is read from the sparse matrix into band storage
    (:func:`_lower_band`) and solved by ``eigvals_banded``: no dense block
    and no eigenvectors are formed."""
    from scipy.linalg import eigvals_banded

    rot = h.rotated
    sectors = _parity_sectors(h.nmax)
    spectra = [eigvals_banded(_lower_band(rot[idx][:, idx]), lower=True) for idx in sectors]
    return np.sort(np.concatenate(spectra))


def _gershgorin_interval(rot):
    """``(centre, radius)`` of an interval that holds the spectrum of the
    real symmetric sparse ``rot``: the union of its Gershgorin discs, widened
    by a few ulps of its larger end."""
    diag = rot.diagonal()
    spread = np.asarray(abs(rot).sum(axis=1)).ravel() - np.abs(diag)
    low, high = (diag - spread).min(), (diag + spread).max()
    return (high + low) / 2, (high - low) / 2 + 4 * np.spacing(max(-low, high))


def _chebyshev_orders(top):
    """K, the number of Chebyshev orders a series keeps for |r t| <= ``top``:
    the first order past ``top`` at which |J_K(top)| is below
    ``_CHEBYSHEV_TAIL``.  Past top, |J_k(z)| falls with k and rises with |z|
    <= top, so every later order is below the tail at every such z.  Orders
    are searched 16 at a time."""
    from scipy.special import jv

    start = math.floor(top) + 1
    while True:
        (below,) = np.nonzero(np.abs(jv(np.arange(start, start + 16), top)) < _CHEBYSHEV_TAIL)
        if below.size:
            return start + below[0]
        start += 16


#: most rows of one table of :func:`_chebyshev_terms`: the orders of the
#: widest block of :func:`_propagator`, ``_chebyshev_orders(_CHEBYSHEV_SPAN)``
#: at r |t - t0| = ``_CHEBYSHEV_SPAN``, written out so no import calls ``jv``
_CHEBYSHEV_ROWS = 70


def _chebyshev_weights(z, orders):
    """The (len(z), ``orders``) table c_k(z) = (2 - delta_k0) (-i)^k J_k(z),
    the Chebyshev coefficients of exp(-i z x) (Jacobi-Anger): the K-point
    DCT-II of exp(-i z x_j) - 1 on the Gauss-Chebyshev nodes x_j =
    cos(pi (j + 1/2) / K) = sin(pi (K - 1 - 2 j) / (2 K)), plus delta_k0, as
    one FFT of length 2K of the samples and their mirror.  Orders past K
    alias in only below the series' tail.  The sine form is odd to the bit,
    and the rounding of pi moves its nodes less than the cosine form's; expm1
    makes the table exactly delta_k0 at z = 0."""
    k = np.arange(orders)
    nodes = np.sin(np.pi * (orders - 1 - 2 * k) / (2 * orders))
    table = np.empty((z.size, 2 * orders), dtype=complex)
    table[:, :orders] = np.expm1(np.outer(-1j * z, nodes))
    table[:, orders:] = table[:, orders - 1 :: -1]
    # rebound at once, so at most the FFT's input and output are held
    table = np.fft.fft(table)
    table = table[:, :orders] * (np.exp(-0.5j * np.pi * k / orders) / orders)
    table[:, 0] = table[:, 0] / 2 + 1
    return table


def _chebyshev_start(state, h):
    """``(phases, centre, radius, turn, x)`` that start a Chebyshev series for
    ``state`` under ``h``.  With c +- r the Gershgorin interval of R = D* H D
    (:attr:`FockHamiltonian.rotated`, D the diagonal ``phases``), R' =
    (R - c) / r has its spectrum in [-1, 1], where |T_k| <= 1; ``turn`` is the
    real [[0, 2 R'], [-2 R', 0]] and ``x`` is D* psi as the real [Re, Im].

    ``turn`` is filled from the CSR arrays of R: c is subtracted from the
    stored diagonal, the entries are scaled by 2 / r and mirrored with a
    minus sign.  An entry that the shift makes zero is not stored, as the
    sparse subtraction drops it, so ``turn`` is bit for bit the ``sp.kron``
    build of the same matrix.  Raises ValueError, before any product, if the
    truncations differ or if R does not store each diagonal entry once."""
    import scipy.sparse as sp

    if state.nmax != h.nmax:
        raise ValueError("state and Hamiltonian use different truncations")
    phases, rot = _rotation_phases(h.nmax), h.rotated
    centre, radius = _gershgorin_interval(rot)
    dim = phases.size
    rows = np.repeat(np.arange(dim), np.diff(rot.indptr))
    diagonal = rows == rot.indices
    if not np.array_equal(rows[diagonal], np.arange(dim)):
        raise ValueError("the rotated Hamiltonian does not store each diagonal entry once")
    shifted = rot.data.copy()
    shifted[diagonal] -= centre
    kept = shifted != 0
    scaled, columns = 2 / radius * shifted[kept], rot.indices[kept]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows[kept], minlength=dim))])
    turn = sp.csr_matrix(
        (np.concatenate([scaled, -scaled]), np.concatenate([columns + dim, columns]),
         np.concatenate([indptr, indptr[1:] + indptr[-1]])),
        shape=(2 * dim, 2 * dim),
    )
    x = np.conj(phases) * state.vector
    return phases, centre, radius, turn, np.concatenate([x.real, x.imag])


def _chebyshev_terms(turn, x, rows):
    """The first ``rows`` terms S_k = (-i)^k T_k(R') x, k = 0, 1, ..., each a
    real [Re, Im] like x, by S_(k+1) = -i 2 R' S_k + S_(k-1): ``turn``, the
    real [[0, 2 R'], [-2 R', 0]], maps [a, b] to -i 2 R' (a + i b).  The one
    recurrence of both series, from :func:`_chebyshev_start`.

    Each term is one sparse product added in place into a row of a table of
    at most ``_CHEBYSHEV_ROWS`` rows, the widest block of :func:`_propagator`;
    one term costs no product.  A longer series refills the same table:
    each later table starts with the last two rows of the one before, so
    every pair of consecutive terms lies within one table.  Read a table
    before asking for the next."""
    buffer = np.empty((min(rows, _CHEBYSHEV_ROWS), x.size))
    buffer[0] = x
    if len(buffer) > 1:
        buffer[1] = turn @ x / 2
    table, made = buffer, len(buffer)
    while True:
        for k in range(2, len(table)):
            np.add(turn @ table[k - 1], table[k - 2], out=table[k])
        yield table
        if made == rows:
            return
        fresh = min(rows - made, len(buffer) - 2)
        buffer[:2] = table[-2:]
        table, made = buffer[: fresh + 2], made + fresh


def _panel_product(weights, terms):
    """(weights @ terms).T for real 2-D arrays, computed in the calling thread
    as gemms of at most ``_SERIAL_PRODUCT`` multiply-adds.

    Each gemm takes a panel of columns of ``terms``; past 2**14 / k rows of
    ``weights``, k the shared dimension, the rows split into panels of equal
    height too.  The column panels share one width, a multiple of 16
    columns, and go to numpy as one stack, with a narrower last panel for
    the rest.  At nmax 96 one matmul call per panel cost a third more than
    the one product, and widths rounded to 2 columns instead of 16 up to
    11 % more; the stack costs about what the one product does.  Each
    entry is the same dot over k as in the one product, to the bit while
    the column count is a multiple of 8 (for the propagator, an even nmax);
    otherwise the edge kernel of OpenBLAS rounds the last columns of the one
    product apart."""
    (m, k), n = weights.shape, terms.shape[1]
    out = np.empty((n, m))
    # equal heights, so no row panel has one row (a gemv) unless every one has
    rows = math.ceil(m / math.ceil(m / (_SERIAL_PRODUCT // (16 * k))))
    width = _SERIAL_PRODUCT // (rows * k) // 16 * 16
    full = n - n % width
    for i in range(0, m, rows):
        part = weights[i : i + rows].T
        for cols, step in ((slice(0, full), width), (slice(full, n), max(1, n - full))):
            panels = terms[:, cols].T.reshape(-1, step, k)
            np.matmul(panels, part, out=out[cols, i : i + rows].reshape(-1, step, part.shape[1]))
    return out


def _finite_times(times):
    """``times`` as a 1-D float array; ValueError unless all are finite."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.isfinite(times).all():
        raise ValueError("evolution times must be finite")
    return times


def _propagator(state, h):
    """The function ``times -> (len(times), nmax, nmax)`` coefficients of
    exp(-i H t) |psi> for ``state`` under ``h``, at times in any order and
    of either sign, by Chebyshev series.

    With R', c and r of :func:`_chebyshev_start`, exp(-i R tau) =
    exp(-i c tau) sum_k (2 - delta_k0) J_k(r tau) (-i)^k T_k(R') (Tal-Ezer
    and Kosloff, J. Chem. Phys. 81, 3967 (1984)).  The function keeps the
    last state it computed and takes the times in increasing order, in
    blocks from that state: the times within ``_CHEBYSHEV_SPAN`` / r of it,
    after equal hops of at most that span towards a farther next time; the
    chunks of one grid continue one another.  A block is one real product of
    its weights, the real (2 - delta_k0) J_k(r tau) = i^k c_k(r tau) of
    :func:`_chebyshev_weights`, with its one table of terms from
    :func:`_chebyshev_terms`, over the orders of :func:`_chebyshev_orders`
    at its largest r tau: at most 70 within the span, ``_CHEBYSHEV_ROWS``,
    the most rows of a table.  :func:`_panel_product` takes that product as
    gemms small enough that OpenBLAS runs each in the calling thread.  At
    tau = 0 the weights are exactly delta_k0, so the last state comes back
    bit for bit, and alone with no product.

    Raises ValueError, before any product, if the truncations differ, and
    on a time that is not finite.
    """
    phases, centre, radius, turn, x = _chebyshev_start(state, h)
    dim = phases.size
    # the last state computed (as D* psi, the real [Re, Im]) and its time
    last = {"time": 0.0, "state": x}

    def block(times):
        """D* psi at the increasing ``times``, from the last state."""
        offsets = times - last["time"]
        z = radius * offsets
        orders = _chebyshev_orders(np.abs(z).max())
        weights = (_chebyshev_weights(z, orders) * 1j ** np.arange(orders)).real
        (terms,) = _chebyshev_terms(turn, last["state"], orders)
        series = _panel_product(weights, terms)
        states = np.exp(-1j * centre * offsets)[:, None] * (series[:dim].T + 1j * series[dim:].T)
        last.update(time=times[-1], state=np.concatenate([states[-1].real, states[-1].imag]))
        return states

    def coefficients(times):
        times = _finite_times(times)
        order = np.argsort(times, kind="stable")
        ordered = times[order]
        out = np.empty((times.size, dim), dtype=complex)
        start = 0
        while start < times.size:
            gap = ordered[start] - last["time"]
            # a far time is reached in equal hops of at most the span: one
            # series over r |gap| orders lets the norm drift by ~ (r gap)^2 eps
            hops = math.ceil(abs(gap) * radius / _CHEBYSHEV_SPAN)
            for _ in range(hops - 1):
                block(np.array([last["time"] + gap / hops]))
            stop = max(start + 1, int(np.searchsorted(ordered, last["time"] + _CHEBYSHEV_SPAN / radius, side="right")))
            out[order[start:stop]] = block(ordered[start:stop])
            start = stop
        return (out * phases).reshape(times.size, h.nmax, h.nmax)

    return coefficients


def _autocorrelation(psi0, h, times):
    """C(t) = <psi0| exp(-i H t) |psi0> at each of ``times``, of either sign,
    from the Chebyshev moments of psi0, with no evolved state.

    With R', c, r and x = D* psi0 of :func:`_chebyshev_start`, C(t) =
    exp(-i c t) sum_k (2 - delta_k0) (-i)^k J_k(r t) mu_k over the K orders
    of :func:`_chebyshev_orders` at max r |t|, with the real moments
    mu_k = <x|T_k(R')|x>.  R' is real symmetric, so T_2k = 2 T_k^2 - T_0 and
    T_2k+1 = 2 T_k+1 T_k - T_1 (Weisse, Wellein, Alvermann and Fehske, Rev.
    Mod. Phys. 78, 275 (2006)) give, from the propagator's own terms
    S_k = (-i)^k T_k(R') x of :func:`_chebyshev_terms`, mu_2k = 2 |S_k|^2 -
    mu_0 and mu_2k+1 = 2 Im <S_k+1|S_k> - mu_1: about K / 2 sparse products
    in one series, with no hops, since a scalar has no norm to drift.
    |S_k|^2 and Im <S_k+1|S_k> are row sums of each table of terms, numpy's
    pairwise sums along each row, so the series keeps only one table, at
    most ``_CHEBYSHEV_ROWS`` rows, whatever its length.  The
    weights c_k(r t) are the propagator's, from :func:`_chebyshev_weights`,
    which is exactly delta_k0 at t = 0, so C(0) is mu_0 = |psi0|^2 exactly.
    They are contracted with the moments by ``einsum`` in numpy's own loop,
    over chunks of times whose complex (times, 2K) FFT input and output hold
    at most ``_SWEEP_CHUNK_BYTES``, so a long sweep's memory is bounded and
    no BLAS call wakes a thread pool: a gemv of even the 25-offset sweep's
    table does, and its idle threads then spin for about 0.1 s of CPU.

    Raises ValueError, before any product, where :func:`_propagator` does.
    """
    times = _finite_times(times)
    phases, centre, radius, turn, x = _chebyshev_start(psi0, h)
    dim = phases.size
    orders = _chebyshev_orders(radius * np.abs(times).max(initial=0.0))
    # |S_k|^2 and, for b = S_k and a = S_k+1, Im <a|b> = a_re . b_im - a_im . b_re,
    # by row sums of each table; a table after the first repeats the last two
    # rows of the one before, whose sums are already taken
    terms = max(1, orders // 2) + 1
    squares, crossings = [], []
    for table in _chebyshev_terms(turn, x, terms):
        lead = 2 if squares else 0
        squares.append((table[lead:] * table[lead:]).sum(axis=1))
        a, b = table[max(lead, 1) :], table[max(lead, 1) - 1 : -1]
        crossings.append((a[:, :dim] * b[:, dim:]).sum(axis=1) - (a[:, dim:] * b[:, :dim]).sum(axis=1))
    overlaps = np.empty(2 * terms - 1)
    overlaps[0::2], overlaps[1::2] = np.concatenate(squares), np.concatenate(crossings)
    overlaps = overlaps[:orders]
    moments = 2 * overlaps - np.resize(overlaps[:2], orders)
    amplitudes = np.empty(times.size, dtype=complex)
    chunk = max(1, int(_SWEEP_CHUNK_BYTES // (64 * orders)))
    for start in range(0, times.size, chunk):
        part = times[start : start + chunk]
        # einsum runs numpy's own loop; a BLAS gemv here wakes its thread pool
        amplitudes[start : start + chunk] = np.einsum("tj,j->t", _chebyshev_weights(radius * part, orders), moments)
    return np.exp(-1j * centre * times) * amplitudes


def evolve_series(state, h, times):
    """Coefficients of exp(-i H t) |psi> for every t in ``times``, in any
    order and of either sign, from one :func:`_propagator`.

    Returns
    -------
    ndarray of shape (len(times), nmax, nmax)
    """
    return _propagator(state, h)(times)


def evolve(state, h, t):
    """Propagate a state for a time t under a time-independent Hamiltonian.

    Unitary to rounding: the returned state passes the normalization check
    without renormalizing.
    """
    return QuantumState(evolve_series(state, h, [float(t)])[0])


class _LadderFlow(NamedTuple):
    """The exact action of U(t) = exp(-i H t) at each of a list of times.

    H is quadratic, so U a U+ = L F(-t) K (a; a+) = alpha' a + beta' a+ with
    the classical flow ``flow`` = F(t) and F(-t) = -J F(t)^T J; ``alpha``
    and ``beta`` are the (times, 2, 2) blocks alpha' and beta'.  The evolved
    vacuum is U|0> = G0 exp(a+ B a+ / 2)|0> with ``b`` = B = -alpha'^-1 beta'
    and G0 = <0|U|0> = det(alpha')^(-1/2) (:meth:`g0`, branch included).  The
    zero-point energy is inside the determinant because H is Weyl-ordered.
    ``modes`` and ``times`` are those the flow was formed from.
    """

    flow: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    b: np.ndarray
    modes: NormalModes
    times: np.ndarray

    def mean(self, d0):
        """The evolved mean amplitudes alpha_t = L F(t) d0, shape (times, 2),
        of a state centred at the phase-space point ``d0``."""
        return (self.flow @ d0) @ _L.T

    def offset(self, d0):
        """alpha - alpha_t = L S (I - R(t)) S^-1 d0, shape (times, 2), of a
        state centred at ``d0``, from the normal-mode rotation R(t) rather
        than by subtracting :meth:`mean`: F(0) = S S^-1 is not I in doubles,
        while R(0) is, so the offset at t = 0 is exactly 0 at any amplitude."""
        s = self.modes.transform
        turn = np.eye(4) - _mode_rotation(self.modes, self.times)
        return (s.s @ turn @ (s.inverse @ d0)) @ _L.T

    def g0(self):
        """G0 = e^(-i phi/2) / sqrt(e^(-i phi) det alpha') at each time, phi = (O1 + O2) t.
        With the static vacuum exp(b+ Z b+ / 2)|0_b> in the normal-mode ladder, |Z| < 1,
        and E = diag(e^(-i O_j t)), e^(-i phi) det alpha' = det(I - Z* E Z E) / det(I - Z* Z)
        has its argument inside (-pi, pi): the principal root is continuous and 1 at 0."""
        phi = (self.modes.omega_cap1 + self.modes.omega_cap2) * self.times
        return np.exp(-0.5j * phi) / np.sqrt(np.exp(-1j * phi) * np.linalg.det(self.alpha))


def _ladder_flow(config, times):
    """The :class:`_LadderFlow` of ``config`` at ``times`` (a scalar counts as one)."""
    modes, times = normal_modes(config), _finite_times(times)
    flow = flow_matrix(modes, times)
    inverse = -J @ flow.transpose(0, 2, 1) @ J
    ladder = _L @ inverse @ _K
    alpha, beta = ladder[:, :, :2], ladder[:, :, 2:]
    return _LadderFlow(flow, alpha, beta, -np.linalg.solve(alpha, beta), modes, times)


def _coherent_series(alpha1, alpha2, config, nmax, times):
    """Coefficients of exp(-i H t) |alpha1, alpha2> for every t in ``times``,
    from the exact Gaussian form of the evolved state; no Hamiltonian matrix.

    With the :class:`_LadderFlow` of the times the evolved state is
    D(alpha_t) G0 exp(a+ B a+ / 2)|0>.  Its amplitudes obey
    sqrt(n_i + 1) c[n + e_i] = gamma_i c[n] + sum_j B_ij sqrt(n_j) c[n - e_j]
    with gamma = alpha_t - B alpha_t*, from
    |c[0, 0]| = det(I - B+ B)^(1/4) |exp(-|alpha_t|^2/2 + alpha_t*^T B alpha_t*/2)|.

    Each row equals the matching row of :func:`evolve_series` up to one
    unit-modulus factor, the phase of G0, which is not computed.  The
    amplitudes are those of the exact state on the truncated basis and are
    not renormalized: 1 - sum |c|^2 is the probability truncation loses.

    Returns
    -------
    ndarray of shape (len(times), nmax, nmax)

    Raises
    ------
    ValueError
        If |c[0, 0]| underflows at any time (|alpha_t| above about 37.6),
        which would zero every amplitude, before the recurrence.
    """
    ladder = _ladder_flow(config, times)
    b = ladder.b
    mean = ladder.mean(PhaseSpaceState.from_amplitudes(alpha1, alpha2).vector)
    gamma = mean - np.einsum("tij,tj->ti", b, mean.conj())
    vacuum = np.linalg.det(np.eye(2) - b.conj().transpose(0, 2, 1) @ b).real ** 0.25
    exponent = -0.5 * (np.abs(mean) ** 2).sum(-1) + 0.5 * np.einsum(
        "ti,tij,tj->t", mean.conj(), b, mean.conj()
    )

    if exponent.real.min() < _LOG_TINY:
        raise ValueError(
            f"vacuum amplitude exp({exponent.real.min():.4g}) underflows: "
            "the coherent amplitudes are too large for the Gaussian recurrence"
        )

    # root[0] = 0 drops the n - 1 terms of the first step, which read the
    # still-zero last row and column
    root = np.sqrt(np.arange(nmax))
    c = np.zeros((b.shape[0], nmax, nmax), dtype=complex)
    c[:, 0, 0] = vacuum * np.exp(exponent.real)
    for n in range(nmax - 1):
        c[:, 0, n + 1] = (
            gamma[:, 1] * c[:, 0, n] + b[:, 1, 1] * root[n] * c[:, 0, n - 1]
        ) / root[n + 1]
    for n in range(nmax - 1):
        row = gamma[:, 0, None] * c[:, n]
        row[:, 1:] += b[:, 0, 1, None] * root[1:] * c[:, n, :-1]
        row += b[:, 0, 0, None] * root[n] * c[:, n - 1]
        c[:, n + 1] = row / root[n + 1]
    return c


# ---------------------------------------------------------------------------
# observables over time


@dataclass(frozen=True)
class ObservableSeries:
    """A real observable sampled over time."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have matching shapes")


def revival_phase(psi0, psi_t):
    """Unit-modulus overlap <psi0|psi_t> / |<psi0|psi_t>|.

    ``psi_t`` is one state (a :class:`QuantumState` or its coefficients) on
    the truncation of ``psi0``, typically psi(T) after one period.  For a
    commensurate design the evolution multiplies every stationary component
    by the same sign, so the overlap phase is (-1)**(n1 + n2); the
    zero-point factor exp(-i (O1 + O2) T / 2) equals that same sign at
    t = T, so no further correction is applied.

    Raises
    ------
    DegenerateOverlap
        If |<psi0|psi_t>| < 1e-6, where the phase carries no information.
    """
    return _unit_phase(complex(np.conj(_overlap(psi0, psi_t))))


def _unit_phase(overlap):
    """overlap / |overlap|; DegenerateOverlap if |overlap| < 1e-6."""
    if abs(overlap) < 1e-6:
        raise DegenerateOverlap(f"|overlap| = {abs(overlap):.3e} too small for a phase")
    return overlap / abs(overlap)


# ---------------------------------------------------------------------------
# truncation convergence


def converge_truncation(protocol, make_state, nmax_start=16, nmax_cap=128):
    """Double nmax until the revival survival stabilizes.

    ``make_state(nmax)`` must return the initial state at a given
    truncation.  Doubling stops at the first size n whose survival P(T)
    differs from that of 2n by less than ``SURVIVAL_TOL`` and whose own
    top-shell weight (the larger of the initial and the final state's) is
    below ``SHELL_TOL``; n is returned, and both n and 2n are in the trace.
    Each size's Hamiltonian is built once, and a :func:`_propagator` gives
    psi(T) as a block of one time.

    Returns
    -------
    tuple
        ``(nmax, trace)``: the converged truncation and a list of per-step
        records (dicts with nmax, survival, shell_weight).

    Raises
    ------
    ConvergenceFailure
        If the probe at twice ``nmax_start`` is above ``nmax_cap``, before
        any state or Hamiltonian is built; or if no size agrees with its
        probe before the next probe is above the cap.
    """
    start = nmax = int(nmax_start)
    if 2 * start > nmax_cap:
        raise ConvergenceFailure(
            f"no truncation tried: the search would start at nmax = {start} and probe it at "
            f"nmax = {2 * start}, above the cap nmax = {nmax_cap}"
        )
    trace = []
    while nmax <= nmax_cap:
        psi0 = make_state(nmax)
        h = build_fock_hamiltonian(protocol.config, nmax)
        psi_t = _propagator(psi0, h)(protocol.duration)[0]
        p_final = survival_probability(psi0, psi_t)
        shell = max(top_shell_weight(psi0), top_shell_weight(psi_t))
        trace.append({"nmax": nmax, "survival": p_final, "shell_weight": shell})
        if len(trace) > 1:
            prev = trace[-2]
            if abs(p_final - prev["survival"]) < SURVIVAL_TOL and prev["shell_weight"] < SHELL_TOL:
                return prev["nmax"], trace
        nmax *= 2
    raise ConvergenceFailure(
        f"survival not converged: the search started at nmax = {start}, and the "
        f"next probe, nmax = {nmax}, is above the cap nmax = {nmax_cap}; trace = {trace}"
    )


# ---------------------------------------------------------------------------
# wavepacket track


@dataclass(frozen=True)
class TrackGrid:
    """Time-integrated probability density over a position grid.

    ``density[i, j]`` is the integral of |psi(q1_i, q2_j, t)|^2 dt over one
    rotation, so the full grid integrates to the duration T (up to grid and
    truncation loss).  ``trajectory`` is the centroid's classical orbit at the
    quadrature times.  ``diagnostics`` records quadrature convergence data.
    ``packet_width`` is a Gaussian packet's smallest position spread over
    those times (root of its covariance's smaller eigenvalue); None on Fock.
    """

    q1_axis: np.ndarray
    q2_axis: np.ndarray
    density: np.ndarray
    trajectory: Trajectory | None = field(default=None, compare=False)
    diagnostics: dict | None = field(default=None, compare=False)
    packet_width: float | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.density.shape != (self.q1_axis.size, self.q2_axis.size):
            raise ValueError("density shape must match the axes")
        if self.density.min() < 0:
            raise ValueError("density must be non-negative")

    def time_integral(self):
        dq1 = self.q1_axis[1] - self.q1_axis[0]
        dq2 = self.q2_axis[1] - self.q2_axis[0]
        return float(self.density.sum() * dq1 * dq2)


def _track_grid(protocol, centroid, grid_points, time_steps):
    """``(axes, orbit)``: the rotating-frame :class:`Trajectory` of ``centroid``
    at ``time_steps`` uniform steps over [0, T], and ``grid_points``-point q1
    and q2 axes over it plus ``TRACK_PAD_WIDTHS`` ground-state widths.

    Raises ValueError if ``grid_points`` is below 2, which leaves no
    spacing, or if ``time_steps`` is not a positive even count, which the
    halved-step check needs.
    """
    if grid_points < 2:
        raise ValueError(f"grid_points must be at least 2, got {grid_points}")
    if time_steps < 2 or time_steps % 2:
        raise ValueError(f"time_steps must be a positive even count, got {time_steps}")
    times = np.linspace(0.0, protocol.duration, time_steps + 1)
    orbit = sample_trajectory(PhaseSpaceState.from_vector(centroid), protocol.config, times)
    pad = TRACK_PAD_WIDTHS * GROUND_STATE_WIDTH
    low, high = orbit.states[:, :2].min(0) - pad, orbit.states[:, :2].max(0) + pad
    axes = tuple(np.linspace(low[k], high[k], grid_points) for k in (0, 1))
    return axes, orbit


def _truncation_loss(coeffs):
    """``(top shell, norm loss)``: the largest top-shell weight and the largest
    |1 - sum |c|^2| over a (times, nmax, nmax) coefficient stack."""
    # real and imaginary parts are views: the norms need no copy
    norm_sq = sum(np.einsum("tij,tij->t", part, part) for part in (coeffs.real, coeffs.imag))
    return float(top_shell_weight(coeffs).max()), float(np.abs(1.0 - norm_sq).max())


def _time_quadrature(axes, orbit, chunk, density, truncation):
    """The :class:`TrackGrid` of the trapezoidal time quadrature over the
    uniform times of the trajectory ``orbit``, which the grid carries.

    ``density(block)`` returns the (times, q1, q2) position density on
    ``axes`` at the times ``orbit.times[block]``, for slices of at most
    ``chunk`` times.  The full-step and halved-step weights of a block are
    applied by one matmul; the two must agree to ``TRACK_QUAD_TOL`` in
    relative L1.  ``truncation``, the diagnostics of the amplitudes, must be
    complete once ``density`` has seen every time.
    """
    times = orbit.times
    dt = times[1] - times[0]
    weights = np.zeros((2, times.size))
    weights[0] = dt
    weights[1, ::2] = 2 * dt
    weights[:, [0, -1]] /= 2
    cells = axes[0].size * axes[1].size
    full_half = np.zeros((2, cells))
    for start in range(0, times.size, chunk):
        block = slice(start, start + chunk)
        full_half += weights[:, block] @ density(block).reshape(-1, cells)

    full, half = full_half
    quad_err = float(np.abs(full - half).sum() / full.sum())
    # an all-zero density gives 0/0, which must fail too
    if not quad_err <= TRACK_QUAD_TOL:
        raise ConvergenceFailure(
            f"time quadrature not converged: halving changes the track by {quad_err:.3e}"
        )
    diagnostics = {"time_steps": times.size - 1, "quadrature_rel_change": quad_err, **truncation}
    return TrackGrid(*axes, full.reshape(axes[0].size, axes[1].size), orbit, diagnostics)


def _track_density(axes, orbit, nmax, amplitudes):
    """The :func:`_time_quadrature` of |psi(q1, q2, t)|^2 on ``axes``.

    ``amplitudes(times)`` returns the (len(times), nmax, nmax) coefficients
    of the state at those times, any phase per time; they are projected on
    the real Hermite functions of the axes in real arithmetic, the real and
    the imaginary part each by two real matmuls, and the density is the sum
    of their squares.  A complex product would cast the basis to complex
    and take four real multiplies where two suffice.  Times are taken in
    chunks whose per-time arrays (the complex coefficients, one part's
    half-projected (grid, nmax) stack and the two grid amplitudes) fit in
    ``_TRACK_CHUNK_BYTES``.  The diagnostics record the largest top-shell
    weight and norm loss over every time.
    """
    q1_axis, q2_axis = axes
    basis1 = hermite_functions(nmax, q1_axis)
    basis2 = hermite_functions(nmax, q2_axis)
    cells = q1_axis.size * q2_axis.size
    per_time = 16 * nmax**2 + 8 * q1_axis.size * nmax + 16 * cells
    truncation = {"max_top_shell_weight": 0.0, "max_norm_loss": 0.0, "nmax": nmax}

    def density(block):
        coeffs = amplitudes(orbit.times[block])
        shell, loss = _truncation_loss(coeffs)
        truncation["max_top_shell_weight"] = max(truncation["max_top_shell_weight"], shell)
        truncation["max_norm_loss"] = max(truncation["max_norm_loss"], loss)
        real, imag = (np.matmul(np.matmul(basis1.T, part), basis2) for part in (coeffs.real, coeffs.imag))
        real *= real
        imag *= imag
        real += imag
        return real

    chunk = max(1, int(_TRACK_CHUNK_BYTES // per_time))
    return _time_quadrature(axes, orbit, chunk, density, truncation)


def wavepacket_track(psi0, protocol, time_steps=2000, grid_points=201):
    """Accumulate the position density of an evolving state over one period.

    This is the Fock reference: ``psi0`` evolves under the truncated
    Hamiltonian by one :func:`_propagator`, each chunk of times going on
    from where the last ended, so any state can be tracked.
    :func:`coherent_track` gives the same density for a coherent state
    with no basis.

    The density is the trapezoidal time quadrature of |psi(q1, q2, t)|^2
    with ``time_steps`` uniform steps on [0, T]; a halved-step comparison
    must agree to ``TRACK_QUAD_TOL`` in L1 or the quadrature is deemed
    unconverged.  The ``grid_points`` x ``grid_points`` axes cover the
    classical orbit of the state's centroid plus ``TRACK_PAD_WIDTHS``
    ground-state widths.  The diagnostics record the largest top-shell
    weight and the largest norm loss |1 - sum |c_t|^2| over the sampled
    times.

    Raises
    ------
    ValueError
        If ``grid_points`` is below 2, which leaves no grid spacing, or
        ``time_steps`` is not a positive even count.
    ConvergenceFailure
        If halving the quadrature step changes the density by more than
        ``TRACK_QUAD_TOL`` relative L1.
    """
    axes, orbit = _track_grid(protocol, phase_space_expectations(psi0), grid_points, time_steps)
    h = build_fock_hamiltonian(protocol.config, psi0.nmax)
    return _track_density(axes, orbit, psi0.nmax, _propagator(psi0, h))


def coherent_track(alpha1, alpha2, protocol, time_steps=2000, grid_points=201):
    """Accumulate the position density of |alpha1, alpha2> over one period
    in closed form, with no basis, no Hamiltonian matrix and no
    eigendecomposition.

    H is quadratic, so the state stays Gaussian: at time t its position
    density is the normal N(m_t, (F F^T)[:2, :2] / 2) with the classical flow
    F = F(t), whose mean m_t is the classical orbit of the exact centroid
    :meth:`PhaseSpaceState.from_amplitudes`.  That orbit is sampled once, at
    the quadrature times; the axes cover it.  Quadrature, axes and errors
    are those of :func:`wavepacket_track`, and the cost is steps x grid
    points whatever the amplitude.

    The diagnostics give the truncation a Fock run of this state would
    need: ``nmax`` is :func:`coherent_nmax`, and ``max_top_shell_weight``
    and ``max_norm_loss`` are those of the :func:`_coherent_series`
    amplitudes on that basis at ``_TRACK_TRUNCATION_TIMES`` evenly spaced
    times on [0, T], ends included.

    Raises
    ------
    ValueError
        Where :func:`coherent_nmax` or :func:`_coherent_series` does, before
        the density is computed.
    """
    nmax = coherent_nmax(alpha1, alpha2)
    centroid = PhaseSpaceState.from_amplitudes(alpha1, alpha2).vector
    axes, orbit = _track_grid(protocol, centroid, grid_points, time_steps)
    sampled = np.linspace(0.0, protocol.duration, _TRACK_TRUNCATION_TIMES)
    # one (times, nmax, nmax) complex stack per chunk
    chunk = max(1, int(_TRACK_CHUNK_BYTES // (16 * nmax**2)))
    losses = [
        _truncation_loss(
            _coherent_series(alpha1, alpha2, protocol.config, nmax, sampled[i : i + chunk])
        )
        for i in range(0, sampled.size, chunk)
    ]
    truncation = {
        "max_top_shell_weight": max(shell for shell, _ in losses),
        "max_norm_loss": max(loss for _, loss in losses),
        "nmax": nmax,
    }

    # the position covariance S = (F F^T)[:2, :2] / 2 at every quadrature time
    flow_q = flow_matrix(normal_modes(protocol.config), orbit.times)[:, :2]
    cov = flow_q @ flow_q.transpose(0, 2, 1) / 2
    det = cov[:, 0, 0] * cov[:, 1, 1] - cov[:, 0, 1] ** 2
    # the exponent -(dx, dy) S^-1 (dx, dy) / 2 - log(2 pi sqrt(det S)) splits
    # into lx(dx) + ly(dy) + dx * b dy
    dx = axes[0] - orbit.states[:, :1]
    dy = axes[1] - orbit.states[:, 1:2]
    lx = -(cov[:, 1:2, 1] / (2 * det[:, None])) * dx**2 - np.log(2 * np.pi * np.sqrt(det))[:, None]
    ly = -(cov[:, 0:1, 0] / (2 * det[:, None])) * dy**2
    bdx = (cov[:, 0, 1] / det)[:, None] * dx

    def density(block):
        exponent = bdx[block, :, None] * dy[block, None, :]
        exponent += lx[block, :, None]
        exponent += ly[block, None, :]
        return np.exp(exponent, out=exponent)

    grid = _time_quadrature(axes, orbit, _TRACK_BLOCK, density, truncation)
    width = float(np.sqrt(np.linalg.eigvalsh(cov)[:, 0].min()))
    return replace(grid, packet_width=width)


# ---------------------------------------------------------------------------
# stability under timing errors


def stability_sweep(psi0, protocol, epsilons):
    """Survival probability P(T + eps) for each timing offset eps, from the
    Chebyshev moments of ``psi0`` (:func:`_autocorrelation`): no state is
    evolved.  A scalar offset gives a one-point series.  Raises ValueError,
    before any product of the series, if an offset is not finite."""
    h = build_fock_hamiltonian(protocol.config, psi0.nmax)
    return _survival_sweep(psi0, protocol, h, epsilons)


def _survival_sweep(psi0, protocol, h, epsilons):
    """:func:`stability_sweep` under the Hamiltonian ``h``: |C(T + eps)|^2
    from one :func:`_autocorrelation`, with no state evolved."""
    epsilons = _finite_times(epsilons)
    values = np.abs(_autocorrelation(psi0, h, protocol.duration + epsilons)) ** 2
    return ObservableSeries(epsilons, values)


def fit_quadratic_decay(series):
    """Least-squares curvature c of 1 - P = c * eps^2 over all offsets."""
    eps = series.times
    denom = np.sum(eps**4)
    if denom == 0:
        raise ValueError("need nonzero offsets to fit a curvature")
    return float(np.sum(eps**2 * (1.0 - series.values)) / denom)


def energy_variance(psi0, h):
    """<H^2> - <H>^2 of a state (exact on the truncated basis), as
    <x|R^2|x> - <x|R|x>^2 = |R x|^2 - <x|R x>^2 with x = D* psi and the
    real symmetric R = D* H D of :attr:`FockHamiltonian.rotated`.  Raises
    ValueError if the truncations differ."""
    if psi0.nmax != h.nmax:
        raise ValueError("state and Hamiltonian use different truncations")
    x = np.conj(_rotation_phases(h.nmax)) * psi0.vector
    rx = h.rotated @ x
    mean = np.vdot(x, rx).real
    return float(np.vdot(rx, rx).real - mean**2)


@dataclass(frozen=True)
class SensitivityReport:
    """Quadratic decay of the survival under timing errors.

    ``delta_h_sq`` is the energy variance of the initial state, the
    predicted curvature of 1 - P(T + eps) in eps; ``fitted_rate`` is the
    curvature fitted to a quantum sweep and ``relative_error`` their
    relative difference.
    """

    delta_h_sq: float
    fitted_rate: float
    relative_error: float


def measure_sensitivity(protocol, psi0=None, nmax=32):
    """Fit the quadratic survival decay and compare with the energy variance.

    The fit runs over 25 offsets with |eps| <= 0.01 T; the quartic term of
    1 - P(T + eps) inside that window biases it low, by 0.24 % to 3.1 % for
    the ground state of the pi/2 designs with n1 = 1 and n2 = 2 to 10.
    With no initial state the static-trap ground state at ``nmax`` is used,
    whose variance reduces to the closed form
    :func:`rotor.designer.ground_state_sensitivity`.  The Hamiltonian is
    built once, for the variance and the sweep; the sweep evolves no state,
    but sums the survival amplitude from one series of Chebyshev moments
    (:func:`_autocorrelation`), about r (T + 0.01 T) / 2 sparse products for
    a spectral half-width r.

    Raises
    ------
    ValueError
        If the state's energy variance is not above 0, before any sweep.
    """
    if psi0 is None:
        psi0 = fock_state(0, 0, nmax)
    h = build_fock_hamiltonian(protocol.config, psi0.nmax)
    return _fit_sensitivity(
        protocol, energy_variance(psi0, h), lambda eps: _survival_sweep(psi0, protocol, h, eps)
    )


def _fit_sensitivity(protocol, variance, sweep):
    """The :class:`SensitivityReport` of ``variance`` against the curvature
    fitted to ``sweep(eps)``, the survival series at T + eps over 25 offsets
    with |eps| <= 0.01 T.  Raises ValueError, before any sweep, if the
    variance is not above 0."""
    if not variance > 0:
        raise ValueError(f"energy variance {variance:.3e}: the survival does not decay")
    window = SENSITIVITY_WINDOW * protocol.duration
    fitted = fit_quadratic_decay(sweep(np.linspace(-window, window, 25)))
    return SensitivityReport(variance, fitted, abs(fitted - variance) / variance)


# ---------------------------------------------------------------------------
# closed forms


#: A+ = w . a+ creates the one quantum of the entangled state A+|0>
_W = np.array([1.0, 1.0]) / np.sqrt(2)


@dataclass(frozen=True)
class ClosedFormState:
    """The coherent state |alpha1, alpha2> (the ground state at 0, 0) or,
    when ``entangled``, the one-quantum state A+|0> of :func:`entangled_state`,
    evolved exactly through the :class:`_LadderFlow` of the protocol.

    No observable needs a truncation, an eigendecomposition or an iteration.
    With G0 (:meth:`_LadderFlow.g0`) the overlap <psi0|U|psi0> is G0 times
    exp(-i Im(d . alpha*) + d*^T B d* / 2 - |d|^2 / 2), d = alpha - alpha_t
    (:meth:`_LadderFlow.offset`, exactly 0 at t = 0), for a coherent state,
    and G0 (w^T alpha'* w + w^T beta'* B w) for A+|0>.
    Second moments follow the classical flow, Sigma(t) = F Sigma0 F^T.

    Raises ValueError if either |alpha|^2 is not finite, or if an entangled
    state is given amplitudes.
    """

    alpha1: complex = 0
    alpha2: complex = 0
    entangled: bool = False

    def __post_init__(self):
        if self.entangled and (self.alpha1 or self.alpha2):
            raise ValueError("the entangled state A+|0> takes no coherent amplitudes")
        for alpha in (self.alpha1, self.alpha2):
            _coherent_mean(alpha)

    @property
    def centroid(self):
        """The phase-space mean d0 = <v>."""
        return PhaseSpaceState.from_amplitudes(self.alpha1, self.alpha2).vector

    @property
    def covariance(self):
        """The symmetrized covariance Sigma0 of v: I/2, plus w w^T in the
        q and in the p block for A+|0>."""
        extra = np.kron(np.eye(2), np.outer(_W, _W)) if self.entangled else 0
        return np.eye(4) / 2 + extra

    def _reduced_overlap(self, ladder):
        """<psi0|U|psi0> / G0 at each time of the :class:`_LadderFlow` ``ladder``."""
        if self.entangled:
            # U A+ U+ = w (alpha'* a+ + beta'* a), and a U|0> = B a+ U|0>
            pairing = ladder.alpha.conj() + ladder.beta.conj() @ ladder.b
            return np.einsum("i,tij,j->t", _W, pairing, _W)
        alpha = np.array([self.alpha1, self.alpha2], dtype=complex)
        # Im(alpha_t . alpha*) = -Im(d . alpha*), since |alpha|^2 is real
        d = ladder.offset(self.centroid)
        return np.exp(
            -1j * (d @ alpha.conj()).imag
            + 0.5 * np.einsum("ti,tij,tj->t", d.conj(), ladder.b, d.conj())
            - 0.5 * (np.abs(d) ** 2).sum(-1)
        )

    def survival(self, config, times):
        """P(t) = |<psi0|U(t)|psi0>|^2 at each of ``times``; |G0|^2 = 1/|det alpha'|."""
        ladder = _ladder_flow(config, times)
        return np.abs(self._reduced_overlap(ladder)) ** 2 / np.abs(np.linalg.det(ladder.alpha))

    def mean_excitation(self, config, times):
        """<N>(t) = (tr F Sigma0 F^T + |F d0|^2 - 2) / 2 at each of ``times``."""
        flow = flow_matrix(normal_modes(config), _finite_times(times))
        spread = np.einsum("tij,jk,tik->t", flow, self.covariance, flow)
        return (spread + ((flow @ self.centroid) ** 2).sum(-1) - 2) / 2

    def overlap(self, config, t):
        """<psi0|U(t)|psi0>: G0 (:meth:`_LadderFlow.g0`) times the reduced
        overlap, from the one :class:`_LadderFlow` at t."""
        ladder = _ladder_flow(config, t)
        return complex(ladder.g0()[0] * self._reduced_overlap(ladder)[0])

    def revival_phase(self, protocol):
        """The unit-modulus <psi0|U(T)|psi0> / |<psi0|U(T)|psi0>|, as
        :func:`revival_phase` reads it on Fock; DegenerateOverlap below 1e-6."""
        return _unit_phase(self.overlap(protocol.config, protocol.duration))

    def energy_variance(self, config):
        """<H^2> - <H>^2 with H = v^T A v.

        Of a Gaussian state with covariance S and mean d it is
        2 tr(A S A S) + tr(A J A J) / 2 + 4 d^T A S A d; at S = I/2 that is
        tr(A (A + J A J)) / 2 + 2 |A d|^2, whose diagonal blocks of
        A + J A J cancel exactly, so a small variance keeps its relative
        accuracy.

        For A+|0> write H, with G = K^T A K, as a+ M a + C + C+ + const,
        with M = 2 G[2:, :2] and C = a+ P a+ / 2, P = 2 G[2:, 2:].  a+ M a
        keeps the one quantum, C+ annihilates it, and C commutes with A+,
        so (H - <H>) A+|0> = (M w - (w+ M w) w) . a+|0> + A+ C|0>, two
        orthogonal parts.  With [A, A+] = 1 and A C|0> = (P w) . a+|0>,
        the variance is |M w - (w+ M w) w|^2 + |P|_F^2 / 2 + |P w|^2: a sum
        of squares, with no cancellation.
        """
        a = build_rotating_hamiltonian(config).a
        if self.entangled:
            g = _K.T @ a @ _K
            m, p = 2 * g[2:, :2], 2 * g[2:, 2:]
            mw, pw = m @ _W, p @ _W
            spread = mw - (_W @ mw).real * _W
            return float(np.vdot(spread, spread).real + np.vdot(p, p).real / 2 + np.vdot(pw, pw).real)
        ad = a @ self.centroid
        return float(np.trace(a @ (a + J @ a @ J)) / 2 + 2 * ad @ ad)

    def sensitivity(self, protocol):
        """The :class:`SensitivityReport` of :func:`measure_sensitivity`,
        from the closed-form survival and energy variance."""
        config, duration = protocol.config, protocol.duration
        return _fit_sensitivity(
            protocol,
            self.energy_variance(config),
            lambda eps: ObservableSeries(eps, self.survival(config, duration + eps)),
        )


# ---------------------------------------------------------------------------
# operator-identity verification


def _expm_action(a, b):
    """exp(a) @ b for a square sparse or dense ``a`` and a 2-D dense ``b``.

    The truncated Taylor series of Al-Mohy and Higham with its parameters
    taken from the exact 1-norm of ``a``: s = ceil(|a|_1 / 9.9) steps of
    exp(a / s), each of at most 55 terms and stopped once two consecutive
    terms sum below 2**-53 of the partial sum (infinity norms).  No norm is
    estimated, so nothing random is drawn, and no multiple of the identity
    is split off ``a``.

    The partial sum's norm is taken only when the stop test can pass: the
    running sum of the terms' norms bounds it, so a test against 2**-52 of
    that bound fails whenever the exact test would.  The series stops at
    the same term, bit for bit, and forms the partial sum's norm about once
    per step instead of once per term.
    """
    steps = max(1, math.ceil(abs(a).sum(axis=0).max() / _TAYLOR_THETA))
    for _ in range(steps):
        term, total = b, np.array(b, dtype=np.result_type(a.dtype, b.dtype))
        size = bound = np.abs(term).sum(axis=1).max()
        for k in range(1, _TAYLOR_TERMS + 1):
            term = a @ term
            term *= 1.0 / (steps * k)
            prev, size = size, np.abs(term).sum(axis=1).max()
            total += term
            bound += size
            if prev + size <= 2.0**-52 * bound and prev + size <= 2.0**-53 * np.abs(total).sum(axis=1).max():
                break
        b = total
    return b


def conjugation_check(g, transform, nmax, levels=8):
    """Residual of the operator identity U+ v_j U = (S^-1 v)_j.

    ``g`` must generate ``transform`` through S = exp(2 J G); the unitary
    U = exp(i v^T G v) is built on the truncated basis and the identity is
    evaluated on the sub-block of states with n1, n2 < ``levels``, where
    truncation effects are negligible.  Only those columns of U are formed,
    by the Taylor series of :func:`_expm_action`, which also checks the
    branch exp(2 J G) = S; so the oracle shares no code with the Fock
    evolution.  U is not shifted by its trace, since a different phase on
    each sector would enter the residual's odd-even block.

    v^T G v is quadratic, so U keeps the parity of n1 + n2 and is formed on
    each parity's basis states alone, from that sector of v^T G v.  Every
    v_j flips the parity, and the residual R_j = U+ v_j U - (S^-1 v)_j on the
    kept states is Hermitian.  So R_j has zero even-even and odd-odd blocks
    and reads [[0, B_j+], [B_j, 0]] with B_j its odd-even block, whose
    spectral norm is that of R_j.  Only B_j is formed.  At ``levels`` = 1 no
    odd state is kept, B_j is empty and the residual is 0.

    No step wakes a BLAS thread pool: U+ (v_j U) is contracted by one real
    ``einsum`` of the stacked [Re, Im] blocks, in numpy's own loop, and the
    4 x 4 products and the SVD of B_j stay in the calling thread.  As a
    zgemm (50 x 288 x 50 at nmax 24) the contraction wakes the pool, whose
    threads then spin for about 0.1 s of CPU after each call; the real loop
    costs about 1.3 ms per product, the complex one 3 ms and one thread of
    zgemm 0.15 ms.  The targets (S^-1 v)_j are one ``einsum`` of S^-1 with
    the dense kept blocks of the four flips v_j, and the four spectral norms
    come from one batched SVD.

    Returns
    -------
    float: the largest spectral norm over j of the restricted residual.

    Raises
    ------
    ValueError
        If ``levels`` is below 1 or ``nmax`` below 2, before any work.
    LogBranchFailure
        If exp(2 J G) does not reproduce the transform to 1e-10.
    """
    if levels < 1:
        raise ValueError(f"levels must be at least 1, got {levels}")
    if nmax < 2:
        raise ValueError("nmax must be at least 2")
    if np.abs(_expm_action(2 * J @ g, np.eye(4)) - transform.s).max() > 1e-10:
        raise LogBranchFailure("generator does not reproduce the transform")
    s_inv = transform.inverse
    n1, n2 = _index_grids(nmax)
    kept = (n1 < levels) & (n2 < levels)
    even, odd = (np.flatnonzero((n1 + n2) % 2 == parity) for parity in (0, 1))
    # positions of the kept states within their own sector
    even_kept, odd_kept = np.flatnonzero(kept[even]), np.flatnonzero(kept[odd])
    # B_j is empty: no odd state is kept
    if not odd_kept.size:
        return 0.0
    ops = phase_space_operators(nmax)
    quad = sum(ops[j] @ sum(g[j, k] * ops[k] for k in range(4)) for j in range(4)).tocsr()

    def kept_columns(sector, columns):
        basis = np.zeros((sector.size, columns.size), dtype=complex)
        basis[columns, np.arange(columns.size)] = 1.0
        return _expm_action(1j * quad[sector][:, sector], basis)

    u_even, u_odd = kept_columns(even, even_kept), kept_columns(odd, odd_kept)
    flips = [op[odd][:, even] for op in ops]
    # the targets (S^-1 v)_j on the kept states, from the dense kept blocks of the flips
    targets = np.einsum("jk,kab->jab", s_inv, np.stack([f[odd_kept][:, even_kept].toarray() for f in flips]))
    # U_odd+ X = (A^T C + B^T D) + i (A^T D - B^T C) for U_odd = A + i B and
    # X = C + i D, read from the one real product [A, B]^T [C, D]
    rows, cols = odd_kept.size, even_kept.size
    stacked = np.hstack([u_odd.real, u_odd.imag])
    resid = np.empty_like(targets)
    for j, flip in enumerate(flips):
        moved = flip @ u_even
        # einsum runs numpy's own loop; a BLAS gemm here wakes its thread pool
        blocks = np.einsum("ij,ik->jk", stacked, np.hstack([moved.real, moved.imag]))
        a_c, a_d = blocks[:rows, :cols], blocks[:rows, cols:]
        b_c, b_d = blocks[rows:, :cols], blocks[rows:, cols:]
        resid[j] = (a_c + b_d) + 1j * (a_d - b_c) - targets[j]
    return float(np.linalg.svd(resid, compute_uv=False).max())
