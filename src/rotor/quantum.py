"""Truncated two-mode Fock-space simulation of the rotating-frame dynamics.

States live on the number basis |n1, n2> of the two static-trap
oscillators, truncated to 0 <= n_j < nmax and stored row-major as an
(nmax, nmax) coefficient array.  The Hamiltonian is time independent
during a constant-velocity rotation, so evolution uses one Hermitian
eigendecomposition per (config, nmax) rather than time stepping; the
propagator is then exact up to truncation.

The factorization is cached on the :class:`FockHamiltonian` that owns it
and lives no longer than that object.  Within one call or command each
(config, nmax) Hamiltonian is built and factorized once:
:func:`converge_truncation` hands back the Hamiltonian it built at the size
it returns, and :func:`stability_sweep` and :func:`measure_sensitivity`
accept a prebuilt one.
:func:`revival_phase` evolves nothing: it reads the phase from psi(T), the
state its caller has already evolved.  :func:`measure_sensitivity` refuses
a state with no energy variance, whose survival does not decay.

Each observable takes one :class:`QuantumState` or a (..., nmax, nmax)
coefficient stack, the shape :func:`evolve_series` returns, and gives one
value (four for :func:`phase_space_expectations`) per state.

The Fock path is the reference.  A coherent state has a cheaper exact
route: H is quadratic, so the state stays Gaussian, and its amplitudes on
the truncated basis follow from the classical flow by a recurrence with no
Hamiltonian matrix and no eigendecomposition.  :func:`coherent_track` uses
that route; :func:`wavepacket_track` keeps the Fock path for any state and
is the reference it is checked against.

Two structural facts keep the eigenproblem cheap.  A quadratic two-mode
operator only connects states whose total occupation differs by 0 or 2,
so its matrix splits into an even and an odd parity sector.  And the
diagonal phase rotation ``i**n1`` turns every coupling element of the
Hamiltonian real, so each of its sectors is a real symmetric matrix.
:func:`_sector_eigh` applies both reductions and is the one eigensolver
for every Fock-space operator: the Hamiltonian and the quadratic
generators of :func:`conjugation_check`, whose sectors may stay complex.
The tests check it against ``expm`` of the full dense matrix.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.special import gammainc, xlogy

from .classical import flow_matrix, sample_trajectory
from .core import J, PhaseSpaceState
from .errors import (
    ConvergenceFailure,
    DegenerateOverlap,
    LogBranchFailure,
    TruncationTooSmall,
)
from .symplectic import normal_modes

#: rms spread of the ground-state position density, the natural length for
#: "within one ground-state width" statements.
GROUND_STATE_WIDTH = 1 / np.sqrt(2)

_COHERENT_TAIL_TOL = 1e-10
#: log of the smallest normal double, below which exp() underflows
_LOG_TINY = np.log(np.finfo(float).tiny)

#: padding of the track axes beyond the classical orbit, in ground-state widths
TRACK_PAD_WIDTHS = 3.0
#: largest relative L1 change of the track when the time step is halved
TRACK_QUAD_TOL = 0.01
#: bytes of per-time arrays one chunk of the track quadrature may hold
_TRACK_CHUNK_BYTES = 2e8

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
        if abs(norm - 1.0) > 1e-10:
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
    """The one-quantum superposition (|0,1> + |1,0>)/sqrt(2)."""
    c = np.zeros((nmax, nmax), dtype=complex)
    c[0, 1] = c[1, 0] = 1 / np.sqrt(2)
    return QuantumState(c)


def _coherent_coefficients(alpha, nmax):
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


def _coherent_tail(alpha, nmax):
    """Population of a coherent mode at n >= nmax (Poisson tail, mean |alpha|^2)."""
    return float(gammainc(nmax, _coherent_mean(alpha)))


def coherent_nmax(alpha1, alpha2):
    """Smallest multiple of 8, at least 16, at which :func:`coherent_state`
    accepts the amplitudes (both tails below 1e-10).

    Only the larger amplitude, whose tail is the larger, is tested.  No
    size at or below its mean |alpha|^2 holds such a tail, so the search
    starts there and takes O(log |alpha|) tests.  Raises ValueError if
    either |alpha|^2 is not finite.
    """
    alpha = max((alpha1, alpha2), key=_coherent_mean)

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
    """<psi_t|psi_0> for a state or a stack ``psit`` on the truncation of ``psi0``."""
    c = _coefficients(psit)
    if c.shape[-2:] != psi0.coeffs.shape:
        raise ValueError("states live on different truncations")
    return np.tensordot(c.conj(), psi0.coeffs, axes=([-2, -1], [0, 1]))


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


@dataclass
class FockHamiltonian:
    """Hermitian matrix of the rotating-frame Hamiltonian on the truncated
    basis, row-major ordering (n1, n2).  ``matrix`` is stored sparse; the
    spectral factorization is built lazily and cached for reuse across
    evolution times."""

    matrix: sp.csr_matrix
    nmax: int
    config: object

    def dense(self):
        return self.matrix.toarray()

    @cached_property
    def _spectral(self):
        return _sector_eigh(self.matrix, self.nmax)


def build_fock_hamiltonian(config, nmax):
    """Quantize the rotating-frame Hamiltonian on an nmax x nmax Fock grid.

    H = omega1 (a1+ a1 + 1/2) + omega2 (a2+ a2 + 1/2)
        - theta_dot (q1 p2 / eta - eta q2 p1)
    with q_j = (a_j + a_j+)/sqrt(2) and p_j = (a_j - a_j+)/(i sqrt(2)).
    """
    if nmax < 2:
        raise ValueError("nmax must be at least 2")
    w1, w2, td = config.omega1, config.omega2, config.theta_dot
    eta = config.eta
    q1, q2, p1, p2 = phase_space_operators(nmax)
    n1, n2 = _index_grids(nmax)
    h = (
        sp.diags(w1 * (n1 + 0.5) + w2 * (n2 + 0.5))
        - td * ((1 / eta) * (q1 @ p2) - eta * (p1 @ q2))
    ).tocsr()
    herm = h - h.getH()
    resid = np.abs(herm.data).max() if herm.nnz else 0.0
    if resid > 1e-12 * np.abs(h.data).max():
        raise ValueError("constructed matrix is not Hermitian")
    return FockHamiltonian(matrix=h, nmax=nmax, config=config)


def _sector_eigh(matrix, nmax):
    """Eigen-factorization of a Hermitian two-mode operator by parity sector.

    After the rotation D = diag(i**n1), each sector of even or odd n1 + n2
    is factorized alone: as a real symmetric block when the rotation makes
    it real (every Hamiltonian built here), as a complex one otherwise.
    Returns (phases, sectors): the diagonal of D and one (indices,
    eigenvalues, eigenvector matrix) per sector.  Raises ValueError if the
    operator couples the two sectors, which no quadratic operator does.
    """
    n1, n2 = _index_grids(nmax)
    phases = (1j) ** (n1 % 4)
    rot = (sp.diags(np.conj(phases)) @ matrix @ sp.diags(phases)).tocsr()
    # magnitudes are read from ``.data``: abs() of a sparse ``.imag`` view
    # sorts index arrays it shares with its parent and corrupts the parent
    tol = 1e-12 * np.abs(matrix.data).max(initial=0.0)
    even = np.where((n1 + n2) % 2 == 0)[0]
    odd = np.where((n1 + n2) % 2 == 1)[0]
    if np.abs(rot[even][:, odd].data).max(initial=0.0) > tol:
        raise ValueError("operator couples the even and odd parity sectors of n1 + n2")
    sectors = []
    for idx in (even, odd):
        block = rot[idx][:, idx]
        if np.abs(block.data.imag).max(initial=0.0) <= tol:
            block = block.real
        w, v = np.linalg.eigh(block.toarray())
        sectors.append((idx, w, v))
    return phases, sectors


def eigenvalues(h):
    """Sorted eigenvalues of the truncated Hamiltonian."""
    _, sectors = h._spectral
    return np.sort(np.concatenate([w for _, w, _ in sectors]))


def evolve_series(state, h, times):
    """Coefficients of exp(-i H t) |psi> for every t in ``times``.

    Returns
    -------
    ndarray of shape (len(times), nmax, nmax)
    """
    if state.nmax != h.nmax:
        raise ValueError("state and Hamiltonian use different truncations")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    phases, sectors = h._spectral
    u = np.conj(phases) * state.vector
    out = np.empty((h.nmax**2, times.size), dtype=complex)
    for idx, w, v in sectors:
        y = v.conj().T @ u[idx]
        out[idx] = v @ (np.exp(-1j * np.outer(w, times)) * y[:, None])
    out *= phases[:, None]
    return np.ascontiguousarray(out.T).reshape(times.size, h.nmax, h.nmax)


def evolve(state, h, t):
    """Propagate a state for a time t under a time-independent Hamiltonian.

    Unitary by construction: the returned state passes the normalization
    check without renormalizing.
    """
    return QuantumState(evolve_series(state, h, [float(t)])[0])


def _coherent_series(alpha1, alpha2, config, nmax, times):
    """Coefficients of exp(-i H t) |alpha1, alpha2> for every t in ``times``,
    from the exact Gaussian form of the evolved state; no Hamiltonian matrix.

    H is quadratic, so U a U+ = L F(-t) K (a; a+) = alpha' a + beta' a+ with
    the classical flow F and F(-t) = -J F(t)^T J, and the evolved state is
    D(alpha_t) G exp(a+ B a+ / 2)|0> with B = -alpha'^-1 beta' and the
    evolved mean amplitude alpha_t = L F(t) d0.  Its amplitudes obey
    sqrt(n_i + 1) c[n + e_i] = gamma_i c[n] + sum_j B_ij sqrt(n_j) c[n - e_j]
    with gamma = alpha_t - B alpha_t*, from
    |c[0, 0]| = det(I - B+ B)^(1/4) |exp(-|alpha_t|^2/2 + alpha_t*^T B alpha_t*/2)|.

    Each row equals the matching row of :func:`evolve_series` up to one
    unit-modulus factor, the phase of G, which is not computed.  The
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
    times = np.atleast_1d(np.asarray(times, dtype=float))
    flow = flow_matrix(normal_modes(config), times)
    inverse = -J @ flow.transpose(0, 2, 1) @ J
    ladder = _L @ inverse @ _K
    b = -np.linalg.solve(ladder[:, :, :2], ladder[:, :, 2:])
    d0 = np.sqrt(2) * np.array([alpha1.real, alpha2.real, alpha1.imag, alpha2.imag])
    mean = (flow @ d0) @ _L.T
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
    c = np.zeros((times.size, nmax, nmax), dtype=complex)
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
    overlap = complex(np.conj(_overlap(psi0, psi_t)))
    if abs(overlap) < 1e-6:
        raise DegenerateOverlap(f"|overlap| = {abs(overlap):.3e} too small for a phase")
    return overlap / abs(overlap)


# ---------------------------------------------------------------------------
# truncation convergence


class Truncation(tuple):
    """The ``(nmax, trace)`` pair returned by :func:`converge_truncation`.

    ``hamiltonian`` holds the Hamiltonian built at ``nmax`` during the
    search, its factorization already cached, so the caller need not build
    and factorize it again.
    """

    def __new__(cls, nmax, trace, hamiltonian):
        result = super().__new__(cls, (nmax, trace))
        result.hamiltonian = hamiltonian
        return result


def converge_truncation(
    protocol,
    make_state,
    nmax_start=16,
    p_tol=1e-8,
    shell_tol=1e-8,
    nmax_cap=128,
):
    """Double nmax until the revival survival stabilizes.

    ``make_state(nmax)`` must return the initial state at a given
    truncation.  Doubling stops at the first size n whose survival P(T)
    differs from that of 2n by less than ``p_tol`` and whose own top-shell
    weight (the larger of the initial and the final state's) is below
    ``shell_tol``; n is returned, and both n and 2n are in the trace.  Each
    size's Hamiltonian is built and factorized once, and the one at n is
    handed back for reuse.

    Returns
    -------
    Truncation
        Unpacks as ``(nmax, trace)``: the converged truncation and a list
        of per-step records (dicts with nmax, survival, shell_weight).
        Its ``hamiltonian`` attribute is the Hamiltonian at ``nmax``.
    """
    trace = []
    prev_h = None
    nmax = int(nmax_start)
    while nmax <= nmax_cap:
        psi0 = make_state(nmax)
        h = build_fock_hamiltonian(protocol.config, nmax)
        psi_t = evolve(psi0, h, protocol.duration)
        p_final = survival_probability(psi0, psi_t)
        shell = max(top_shell_weight(psi0), top_shell_weight(psi_t))
        trace.append({"nmax": nmax, "survival": p_final, "shell_weight": shell})
        if prev_h is not None:
            prev = trace[-2]
            if abs(p_final - prev["survival"]) < p_tol and prev["shell_weight"] < shell_tol:
                return Truncation(prev["nmax"], trace, prev_h)
        prev_h = h
        nmax *= 2
    raise ConvergenceFailure(
        f"survival not converged below nmax = {nmax_cap}: trace = {trace}"
    )


# ---------------------------------------------------------------------------
# wavepacket track


@dataclass(frozen=True)
class TrackGrid:
    """Time-integrated probability density over a position grid.

    ``density[i, j]`` is the integral of |psi(q1_i, q2_j, t)|^2 dt over one
    rotation, so the full grid integrates to the duration T (up to grid and
    truncation loss).  ``diagnostics`` records quadrature convergence data.
    """

    q1_axis: np.ndarray
    q2_axis: np.ndarray
    density: np.ndarray
    diagnostics: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.density.shape != (self.q1_axis.size, self.q2_axis.size):
            raise ValueError("density shape must match the axes")
        if self.density.min() < 0:
            raise ValueError("density must be non-negative")

    def time_integral(self):
        dq1 = self.q1_axis[1] - self.q1_axis[0]
        dq2 = self.q2_axis[1] - self.q2_axis[0]
        return float(self.density.sum() * dq1 * dq2)


def classical_orbit(protocol, centroid, n_samples=1024):
    """Position samples (n, 2) of the classical orbit started at ``centroid``."""
    ts = np.linspace(0.0, protocol.duration, n_samples)
    start = PhaseSpaceState.from_vector(centroid)
    return sample_trajectory(start, protocol.config, ts).states[:, :2]


def _track_grid(protocol, centroid, grid_points, time_steps):
    """``(axes, times)`` of a track: the ``grid_points``-point q1 and q2
    axes over the classical orbit of ``centroid`` plus ``TRACK_PAD_WIDTHS``
    ground-state widths, and ``time_steps`` uniform steps over [0, T].

    Raises ValueError if ``grid_points`` is below 2, which leaves no
    spacing, or if ``time_steps`` is not a positive even count, which the
    halved-step check needs.
    """
    if grid_points < 2:
        raise ValueError(f"grid_points must be at least 2, got {grid_points}")
    if time_steps < 2 or time_steps % 2:
        raise ValueError(f"time_steps must be a positive even count, got {time_steps}")
    orbit = classical_orbit(protocol, centroid)
    pad = TRACK_PAD_WIDTHS * GROUND_STATE_WIDTH
    axes = tuple(
        np.linspace(orbit[:, k].min() - pad, orbit[:, k].max() + pad, grid_points)
        for k in (0, 1)
    )
    return axes, np.linspace(0.0, protocol.duration, time_steps + 1)


def _track_density(axes, times, nmax, amplitudes):
    """Trapezoidal time quadrature of |psi(q1, q2, t)|^2 on ``axes`` over
    the uniform ``times``.

    ``amplitudes(times)`` returns the (len(times), nmax, nmax) coefficients
    of the state at those times, any phase per time.  Times are taken in
    chunks whose per-time arrays (coefficients, the half-projected
    (grid, nmax) stack, the grid amplitudes and their probabilities) fit in
    ``_TRACK_CHUNK_BYTES``.
    """
    q1_axis, q2_axis = axes
    dt = times[1] - times[0]
    w_full = np.full(times.size, dt)
    w_full[0] = w_full[-1] = dt / 2
    w_half = np.zeros(times.size)
    w_half[::2] = 2 * dt
    w_half[0] = w_half[-1] = dt

    basis1 = hermite_functions(nmax, q1_axis)
    basis2 = hermite_functions(nmax, q2_axis)
    cells = q1_axis.size * q2_axis.size
    per_time = 16 * (nmax**2 + q1_axis.size * nmax + cells) + 8 * cells
    chunk = max(1, int(_TRACK_CHUNK_BYTES // per_time))
    dens_full = np.zeros((q1_axis.size, q2_axis.size))
    dens_half = np.zeros_like(dens_full)
    shell_max = norm_loss = 0.0
    for start in range(0, times.size, chunk):
        stop = min(start + chunk, times.size)
        coeffs = amplitudes(times[start:stop])
        shell_max = max(shell_max, float(top_shell_weight(coeffs).max()))
        # real and imaginary parts are views: the norms need no copy
        norm_sq = sum(np.einsum("tij,tij->t", part, part) for part in (coeffs.real, coeffs.imag))
        norm_loss = max(norm_loss, float(np.abs(1.0 - norm_sq).max()))
        amp = np.matmul(np.matmul(basis1.T[None], coeffs), basis2)
        prob = np.abs(amp)
        prob *= prob
        dens_full += np.einsum("t,txy->xy", w_full[start:stop], prob)
        dens_half += np.einsum("t,txy->xy", w_half[start:stop], prob)
        # free this chunk before the next one is computed
        del coeffs, amp, prob

    l1 = dens_full.sum()
    quad_err = float(np.abs(dens_full - dens_half).sum() / l1)
    # an all-zero density gives 0/0, which must fail too
    if not quad_err <= TRACK_QUAD_TOL:
        raise ConvergenceFailure(
            f"time quadrature not converged: halving changes the track by {quad_err:.3e}"
        )
    diagnostics = {
        "time_steps": times.size - 1,
        "quadrature_rel_change": quad_err,
        "max_top_shell_weight": shell_max,
        "max_norm_loss": norm_loss,
        "nmax": nmax,
    }
    return TrackGrid(q1_axis, q2_axis, dens_full, diagnostics)


def wavepacket_track(psi0, protocol, time_steps=2000, grid_points=201):
    """Accumulate the position density of an evolving state over one period.

    This is the Fock reference: ``psi0`` evolves by :func:`evolve_series`
    under the truncated Hamiltonian, so any state can be tracked, at the
    cost of one sector eigendecomposition.  :func:`coherent_track` gives the
    same density for a coherent state without one.

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
    axes, times = _track_grid(protocol, phase_space_expectations(psi0), grid_points, time_steps)
    h = build_fock_hamiltonian(protocol.config, psi0.nmax)
    return _track_density(axes, times, psi0.nmax, lambda t: evolve_series(psi0, h, t))


def coherent_track(alpha1, alpha2, protocol, nmax, time_steps=2000, grid_points=201):
    """Accumulate the position density of |alpha1, alpha2> over one period
    from its exact Gaussian amplitudes on the ``nmax`` truncation, with no
    Hamiltonian matrix and no eigendecomposition.

    Quadrature, axes, diagnostics and errors are those of
    :func:`wavepacket_track`; the axes follow the centroid of
    ``coherent_state(alpha1, alpha2, nmax)``, so both tracks of one state
    share a grid.  The amplitudes are not renormalized, so the diagnostic
    ``max_norm_loss`` is the probability the truncation lost.

    Raises
    ------
    TruncationTooSmall
        Where :func:`coherent_state` does, before any evolution.
    ValueError
        Where :func:`coherent_state` or :func:`_coherent_series` does.
    """
    psi0 = coherent_state(alpha1, alpha2, nmax)
    axes, times = _track_grid(protocol, phase_space_expectations(psi0), grid_points, time_steps)
    return _track_density(
        axes, times, nmax, lambda t: _coherent_series(alpha1, alpha2, protocol.config, nmax, t)
    )


# ---------------------------------------------------------------------------
# stability under timing errors


def stability_sweep(psi0, protocol, epsilons, h=None):
    """Survival probability P(T + eps) for each timing offset eps.

    ``h`` may pass the Hamiltonian of ``protocol.config`` at the state's
    truncation, whose cached factorization is then reused.
    """
    if h is None:
        h = build_fock_hamiltonian(protocol.config, psi0.nmax)
    elif h.nmax != psi0.nmax or h.config != protocol.config:
        raise ValueError("Hamiltonian does not match the state's truncation or the protocol")
    epsilons = np.asarray(epsilons, dtype=float)
    values = survival_probability(psi0, evolve_series(psi0, h, protocol.duration + epsilons))
    return ObservableSeries(epsilons, values)


def fit_quadratic_decay(series):
    """Least-squares curvature c of 1 - P = c * eps^2 over all offsets."""
    eps = series.times
    denom = np.sum(eps**4)
    if denom == 0:
        raise ValueError("need nonzero offsets to fit a curvature")
    return float(np.sum(eps**2 * (1.0 - series.values)) / denom)


def energy_variance(psi0, h):
    """<H^2> - <H>^2 of a state (exact on the truncated basis)."""
    v = psi0.vector
    hv = h.matrix @ v
    mean = np.vdot(v, hv).real
    return float(np.vdot(hv, hv).real - mean**2)


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


def measure_sensitivity(protocol, psi0=None, nmax=32, h=None):
    """Fit the quadratic survival decay and compare with the energy variance.

    The fit runs over 25 offsets with |eps| <= 0.01 T; the quartic term of
    1 - P(T + eps) inside that window biases it low, by 0.24 % to 3.1 % for
    the ground state of the pi/2 designs with n1 = 1 and n2 = 2 to 10.
    With no initial state the static-trap ground state at ``nmax`` is used,
    whose variance reduces to the closed form
    :func:`rotor.designer.ground_state_sensitivity`.  ``h`` may pass the
    Hamiltonian of ``protocol.config`` at the state's truncation, as for
    :func:`stability_sweep`.

    Raises
    ------
    ValueError
        If the state's energy variance is not above 0, before any sweep.
    """
    if psi0 is None:
        psi0 = fock_state(0, 0, nmax)
    if h is None:
        h = build_fock_hamiltonian(protocol.config, psi0.nmax)
    variance = energy_variance(psi0, h)
    if not variance > 0:
        raise ValueError(f"energy variance {variance:.3e}: the survival does not decay")
    window = 0.01 * protocol.duration
    sweep = stability_sweep(psi0, protocol, np.linspace(-window, window, 25), h)
    fitted = fit_quadratic_decay(sweep)
    return SensitivityReport(variance, fitted, abs(fitted - variance) / variance)


# ---------------------------------------------------------------------------
# operator-identity verification


def _quadratic_operator(g, nmax):
    """Sparse matrix of sum_jk g[j,k] v_j v_k on the truncated basis."""
    ops = phase_space_operators(nmax)
    return sum(ops[j] @ sum(g[j, k] * ops[k] for k in range(4)) for j in range(4)).tocsr()


def _unitary_columns(g, nmax, keep):
    """Columns ``keep`` of U = exp(i v^T g v) = D V e^{iw} V+ D+, with
    D, V and w from :func:`_sector_eigh`; each column stays in its sector."""
    phases, sectors = _sector_eigh(_quadratic_operator(g, nmax), nmax)
    out = np.zeros((nmax**2, keep.size), dtype=complex)
    for idx, w, v in sectors:
        cols = np.isin(keep, idx)
        vh_keep = v[np.searchsorted(idx, keep[cols])].conj().T
        out[np.ix_(idx, cols)] = v @ (np.exp(1j * w)[:, None] * vh_keep)
    return phases[:, None] * out * np.conj(phases[keep])


def conjugation_check(g, transform, nmax, levels=8):
    """Residual of the operator identity U+ v_j U = (S^-1 v)_j.

    ``g`` must generate ``transform`` through S = exp(2 J G); the unitary
    U = exp(i v^T G v) is built on the truncated basis and the identity is
    evaluated on the sub-block of states with n1, n2 < ``levels``, where
    truncation effects are negligible.  Only those columns of U are formed.

    Returns
    -------
    float: the largest spectral norm over j of the restricted residual.

    Raises
    ------
    LogBranchFailure
        If exp(2 J G) does not reproduce the transform to 1e-10.
    """
    s = transform.s
    if np.abs(expm(2 * J @ g) - s).max() > 1e-10:
        raise LogBranchFailure("generator does not reproduce the transform")
    s_inv = transform.inverse
    n1, n2 = _index_grids(nmax)
    keep = np.where((n1 < levels) & (n2 < levels))[0]
    u_keep = _unitary_columns(g, nmax, keep)
    ops = phase_space_operators(nmax)
    worst = 0.0
    for j in range(4):
        target = sum(s_inv[j, k] * ops[k] for k in range(4))[keep][:, keep].toarray()
        resid = u_keep.conj().T @ (ops[j] @ u_keep) - target
        worst = max(worst, float(np.linalg.norm(resid, 2)))
    return worst
