"""The benchmark's three workloads.

Each workload draws its inputs from the seed once, then offers one *pass*:
a fixed list of operations, each a ``rotor`` CLI command or a library call
group, paired with a check of its output.  The seed picks only the phases
of coherent amplitudes and which feasible designs are used; magnitudes,
truncation sizes, sample counts and grids are fixed, so every seed does the
same amount of work.  ``small=True`` gives the same operations at toy sizes,
used to warm a process up before timing.

Checks use oracles that do not go through the code they check: the
reference numbers of the acceptance suite, frequencies from a generic
eigen-solver of the 4x4 rotating-frame form, closed orbits, and the
analytic period of the reference design.
"""

import contextlib
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import rotor
import rotor.cli

#: Table 1 of the paper: omega1/2pi (kHz) -> (omega2/2pi, theta_dot/2pi, T in ms),
#: to the printed two decimals, for theta_f = pi/2 and (n1, n2) = (1, 2).
TABLE1 = {
    1.0: (1.79, 0.23, 1.08),
    2.0: (3.59, 0.46, 0.54),
    5.0: (8.96, 1.16, 0.22),
    10.0: (17.93, 2.32, 0.11),
}

#: Reference design used by the quantum workloads: 1 kHz, pi/2, (1, 2).  Its
#: period in ms is kappa_minus * theta_f / omega1 with kappa_minus^2 =
#: 39 - 2 sqrt(105) in closed form.
REFERENCE_ARGS = ["--omega1-khz", "1", "--theta-f", "pi/2", "--n1", "1", "--n2", "2"]
REFERENCE_PERIOD_MS = np.sqrt(39 - 2 * np.sqrt(105)) * (np.pi / 2) / (2 * np.pi)
REFERENCE_REVIVAL_PHASE = -1.0  # (-1)**(n1 + n2)

COPRIME_PAIRS = ((1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (2, 5), (3, 5))


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


@dataclass
class Op:
    """One timed operation and the check of its result (run untimed)."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    out_dir: Path | None = None


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _run_cli(argv):
    """Run ``rotor.cli.main`` and return its stdout; a nonzero exit fails."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = rotor.cli.main([str(a) for a in argv])
    _require(code == 0, f"rotor {argv[0]} exited with {code}")
    return out.getvalue()


def _read_csv(path):
    lines = [l for l in Path(path).read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
    return lines[0].split(","), np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def _stdout_float(text, label):
    match = re.search(re.escape(label) + r"\s*=\s*([-+0-9.eE]+)", text)
    _require(match is not None, f"no '{label}' in output")
    return float(match.group(1))


def _close(a, b, rel, what):
    scale = 1.0 + float(np.max(np.abs(b)))
    err = float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / scale
    _require(err <= rel, f"{what}: relative error {err:.3e} > {rel:g}")


def oracle_frequencies(omega1, omega2, theta_dot):
    """(O1, O2) as |Im| of the eigenvalues of 2 J A for the rotating-frame
    form A, by a generic eigen-solver; vectorised over ``theta_dot``."""
    td = np.atleast_1d(np.asarray(theta_dot, dtype=float))
    eta = np.sqrt(omega1 / omega2)
    a = np.zeros((td.size, 4, 4))
    a[:, 0, 0] = a[:, 2, 2] = omega1 / 2
    a[:, 1, 1] = a[:, 3, 3] = omega2 / 2
    a[:, 0, 3] = a[:, 3, 0] = -td / (2 * eta)
    a[:, 1, 2] = a[:, 2, 1] = eta * td / 2
    j = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    freqs = np.sort(np.abs(np.linalg.eigvals(2 * j @ a).imag), axis=1)
    return freqs[:, 1], freqs[:, 3]


def _rotate_pairs(v, theta):
    """The lab-frame image of a rotating-frame point at trap angle theta."""
    c, s = np.cos(theta), np.sin(theta)
    r = np.array([[c, -s], [s, c]])
    return np.concatenate([r @ v[:2], r @ v[2:]])


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir()) if p.is_file()}


def rerun_op(name, manifest_dir, out_dir):
    """``rotor rerun`` of a manifest; every file must match byte for byte."""

    def run():
        return _run_cli(["rerun", Path(manifest_dir) / "manifest.json", "--out-dir", out_dir])

    def check(_):
        before, after = _files(manifest_dir), _files(out_dir)
        _require(sorted(before) == sorted(after), "rerun wrote a different file set")
        differ = [n for n in before if before[n] != after[n]]
        _require(not differ, f"rerun output differs: {differ}")

    return Op(name, run, check, Path(out_dir))


class Workload:
    """Seeded inputs plus the operations of one pass."""

    name = ""
    #: the operations whose manifests ``rotor rerun`` must reproduce
    rerun_of = ()

    def __init__(self, seed, work_dir, small=False):
        self.rng = np.random.default_rng(seed)
        self.work_dir = Path(work_dir)
        self.small = small

    def out(self, name):
        return self.work_dir / name

    def ops(self):
        raise NotImplementedError

    def reruns(self):
        """The after-loop rerun checks."""
        return [
            rerun_op(f"rerun-{name}", self.out(name), self.out(f"rerun-{name}"))
            for name in self.rerun_of
        ]

    def phases(self, count):
        return self.rng.uniform(0.0, 2 * np.pi, count)


class DesignClassical(Workload):
    """Designer, normal modes and the exact classical flow; no Fock space.

    Not a workload of its own: its pure-Python operations swing up to 1.8x
    with the load other tenants put on a shared host, so ten runs of them
    alone spread past any useful bound.  ``Simulate`` runs them in its pass.
    """

    rerun_of = ("classical",)

    def __init__(self, seed, work_dir, small=False):
        super().__init__(seed, work_dir, small)
        self.sweep = 20 if small else 2000
        self.cli_samples = 11 if small else 5001
        self.lib_samples = 11 if small else 1001
        designs = 1 if small else 4
        self.designs = [self._feasible_design() for _ in range(designs)]
        phi = self.phases(2)
        # reference amplitudes of the paper's track figure, seeded phases
        self.alpha = (5.657 * np.exp(1j * phi[0]), 1.414 * np.exp(1j * phi[1]))

    def _feasible_design(self):
        """(omega1 in kHz, theta_f, n1, n2) that rotor can design."""
        while True:
            n1, n2 = COPRIME_PAIRS[self.rng.integers(len(COPRIME_PAIRS))]
            f1 = float(self.rng.uniform(0.5, 10.0))
            theta_f = float(self.rng.uniform(0.2, 0.95 * np.pi * (n2 - n1)))
            try:
                rotor.design_protocol(2 * np.pi * f1, theta_f, n1, n2)
            except rotor.InfeasibleDesign:
                continue
            return f1, theta_f, n1, n2

    def ops(self):
        f1, theta_f, n1, n2 = self.designs[0]
        design_args = ["--omega1-khz", repr(f1), "--theta-f", repr(theta_f),
                       "--n1", n1, "--n2", n2]
        f2 = rotor.design_protocol(2 * np.pi * f1, theta_f, n1, n2).omega2 / (2 * np.pi)
        ops = [
            Op("design", lambda: _run_cli(["design", "--table1", "--out-dir", self.out("design")]),
               lambda _: self._check_table1(), self.out("design")),
            Op("modes",
               lambda: _run_cli(["modes", "--omega1-khz", repr(f1), "--omega2-khz", repr(f2),
                                 "--sweep", self.sweep, "--out-dir", self.out("modes")]),
               lambda _: self._check_modes(f1, f2), self.out("modes")),
            Op("classical",
               lambda: _run_cli(["classical", *design_args, "--alpha1", self.alpha[0],
                                 "--alpha2", self.alpha[1], "--frame", "lab",
                                 "--samples", self.cli_samples, "--out-dir", self.out("classical")]),
               lambda _: self._check_lab_csv(theta_f), self.out("classical")),
        ]
        for k, design in enumerate(self.designs):
            ops.append(Op(f"library-{k}", lambda d=design: self._library(d), self._check_library))
        return ops

    def _check_table1(self):
        header, rows = _read_csv(self.out("design") / "design.csv")
        col = {name: i for i, name in enumerate(header)}
        _require(len(rows) == len(TABLE1), "design --table1 row count")
        for row in rows:
            w2, td, duration = TABLE1[round(row[col["omega1_2pi_khz"]], 6)]
            got = (row[col["omega2_2pi_khz"]], row[col["theta_dot_2pi_khz"]], row[col["duration_ms"]])
            _require(tuple(round(x, 2) for x in got) == (w2, td, duration),
                     f"Table 1 row {row[0]:g} kHz: got {got}")

    def _check_modes(self, f1, f2):
        _, rows = _read_csv(self.out("modes") / "modes.csv")
        _require(len(rows) == self.sweep, "modes --sweep row count")
        o1, o2 = oracle_frequencies(f1, f2, rows[:, 0])
        _close(rows[:, 1], o1, 1e-9, "slow normal frequency")
        _close(rows[:, 2], o2, 1e-9, "fast normal frequency")

    def _check_lab_csv(self, theta_f):
        _, rows = _read_csv(self.out("classical") / "trajectory_lab.csv")
        _require(len(rows) == self.cli_samples, "classical --samples row count")
        _close(rows[-1, 1:], _rotate_pairs(rows[0, 1:], theta_f), 1e-8, "lab-frame closure")

    def _library(self, design):
        f1, theta_f, n1, n2 = design
        protocol = rotor.design_protocol(2 * np.pi * f1, theta_f, n1, n2)
        velocity = rotor.commensurate_velocity(protocol.omega1, protocol.omega2, n1, n2)
        v0 = rotor.PhaseSpaceState(
            np.sqrt(2) * self.alpha[0].real, np.sqrt(2) * self.alpha[1].real,
            np.sqrt(2) * self.alpha[0].imag, np.sqrt(2) * self.alpha[1].imag,
        )
        times = np.linspace(0.0, protocol.duration, self.lib_samples)
        frames = {
            frame: rotor.sample_trajectory(v0, protocol.config, times, frame=frame)
            for frame in ("rotating", "normal", "lab")
        }
        return protocol, velocity, frames

    def _check_library(self, result):
        protocol, (theta_dot, theta_f), frames = result
        _close(theta_dot / protocol.theta_dot, 1.0, 1e-9, "commensurate velocity")
        _close(theta_f / protocol.theta_f, 1.0, 1e-8, "commensurate angle")
        o1, o2 = oracle_frequencies(protocol.omega1, protocol.omega2, theta_dot)
        _close(o2[0] / o1[0], protocol.n2 / protocol.n1, 1e-8, "commensurate ratio")
        for frame in ("rotating", "normal"):
            states = frames[frame].states
            _close(states[-1], states[0], 1e-8, f"{frame}-frame closure")
        lab = frames["lab"].states
        _close(lab[-1], _rotate_pairs(lab[0], protocol.theta_f), 1e-8, "lab-frame closure")


class Simulate(Workload):
    """Truncation convergence and Fock evolution for three states, plus the
    timing-error stability sweep, after the ``DesignClassical`` operations."""

    name = "simulate"
    rerun_of = ("coherent",)
    AMPLITUDES = (1.0, 0.5)

    def __init__(self, seed, work_dir, small=False):
        super().__init__(seed, work_dir, small)
        self.design = DesignClassical(seed, work_dir, small)
        phi = self.phases(2)
        self.alpha = tuple(m * np.exp(1j * p) for m, p in zip(self.AMPLITUDES, phi))
        self.samples = 5 if small else 201
        self.n2_list = "2" if small else "2,5,10"

    def _simulate(self, name, state, mean_n0, extra=()):
        size = ["--nmax", "16"] if self.small else []

        def run():
            return _run_cli(["simulate", *REFERENCE_ARGS, "--state", state,
                             "--samples", self.samples, *size, *extra,
                             "--out-dir", self.out(name)])

        def check(stdout):
            _, rows = _read_csv(self.out(name) / "observables.csv")
            t, n, p = rows[:, 0], rows[:, 1], rows[:, 2]
            _close(t[-1], REFERENCE_PERIOD_MS, 1e-10, "simulated duration")
            _require(abs(1.0 - p[-1]) <= 1e-8, f"1 - P(T) = {1 - p[-1]:.3e}")
            _require(abs(n[-1] - n[0]) <= 1e-8, f"<N(T)> - <N(0)> = {n[-1] - n[0]:.3e}")
            _require(abs(n[0] - mean_n0) <= 1e-6, f"<N(0)> = {n[0]:.9g}, expected {mean_n0:g}")
            phase = re.search(r"revival phase = ([-+][0-9.]+) ([-+][0-9.]+)j", stdout)
            _require(phase is not None, "no revival phase in output")
            got = complex(float(phase.group(1)), float(phase.group(2)))
            _require(abs(got - REFERENCE_REVIVAL_PHASE) <= 1e-4, f"revival phase {got}")
            if "--ehrenfest" in extra:
                drift = _stdout_float(stdout, "max |<v>(t) - classical v(t)|")
                _require(drift <= 1e-8, f"Ehrenfest drift {drift:.3e}")

        return Op(name, run, check, self.out(name))

    def ops(self):
        a1, a2 = self.alpha
        coherent = f"coherent:{a1},{a2}".replace("(", "").replace(")", "")
        return self.design.ops() + [
            self._simulate("ground", "ground", 0.0),
            self._simulate("entangled", "entangled", 1.0),
            self._simulate("coherent", coherent, abs(a1) ** 2 + abs(a2) ** 2, ("--ehrenfest",)),
            Op("stability",
               lambda: _run_cli(["stability", "--omega1-khz", "1", "--n2-list", self.n2_list,
                                 "--out-dir", self.out("stability")]),
               self._check_stability, self.out("stability")),
        ]

    def reruns(self):
        return self.design.reruns() + super().reruns()

    def _check_stability(self, stdout):
        n2s = [int(x) for x in self.n2_list.split(",")]
        curvatures = [float(x) for x in re.findall(r"fitted curvature = ([-+0-9.eE]+)", stdout)]
        _require(len(curvatures) == len(n2s), "stability printed a curvature per n2")
        _require(all(np.diff(curvatures) > 0), f"curvature not rising with n2: {curvatures}")
        for n2 in n2s:
            _, rows = _read_csv(self.out("stability") / f"stability_n2_{n2}.csv")
            p = rows[:, 1]
            _require(abs(1.0 - p[len(p) // 2]) <= 1e-8, f"n2 = {n2}: 1 - P(T) = {1 - p[len(p) // 2]:.3e}")
            _require(p.max() <= 1.0 + 1e-12, f"n2 = {n2}: survival above 1")


class Track(Workload):
    """One wavepacket track: a large Fock factorization, a long time series,
    the Hermite-grid projection and a large CSV write."""

    name = "track"
    #: the paper's |alpha1|^2 : |alpha2|^2 = 16 : 1, scaled to |alpha1|^2 = 12
    AMPLITUDES = (np.sqrt(12.0), np.sqrt(0.75))

    def __init__(self, seed, work_dir, small=False):
        super().__init__(seed, work_dir, small)
        phi = self.phases(2)
        scale = 0.2 if small else 1.0
        self.alpha = tuple(scale * m * np.exp(1j * p) for m, p in zip(self.AMPLITUDES, phi))
        self.grid = 11 if small else 101
        self.steps = 40 if small else 400

    def ops(self):
        def run():
            return _run_cli(["track", *REFERENCE_ARGS, "--alpha1", self.alpha[0],
                             "--alpha2", self.alpha[1], "--grid-points", self.grid,
                             "--steps", self.steps, "--out-dir", self.out("track")])

        return [Op("track", run, self._check, self.out("track"))]

    def _check(self, _):
        _, grid = _read_csv(self.out("track") / "track.csv")
        q1, q2 = np.unique(grid[:, 0]), np.unique(grid[:, 1])
        _require(q1.size == self.grid and q2.size == self.grid, "track grid size")
        integral = grid[:, 2].sum() * (q1[1] - q1[0]) * (q2[1] - q2[0]) / REFERENCE_PERIOD_MS
        _require(abs(integral - 1.0) <= 0.01, f"integral(track)/T = {integral:.6f}")
        manifest = json.loads((self.out("track") / "manifest.json").read_text(encoding="utf-8"))
        shell = manifest["nmax_trace"][0]["max_top_shell_weight"]
        _require(shell < 1e-8, f"max top-shell weight {shell:.3e}")
        _, traj = _read_csv(self.out("track") / "trajectory_rotating.csv")
        _require(len(traj) == self.steps + 1, "track trajectory row count")
        _close(traj[-1, 1:], traj[0, 1:], 1e-8, "centroid orbit closure")


class Verify(Workload):
    """The acceptance oracles as library calls: the dense operator-
    conjugation check, the truncated spectrum and the stability law."""

    name = "verify"

    def __init__(self, seed, work_dir, small=False):
        super().__init__(seed, work_dir, small)
        rows = sorted(TABLE1)
        self.spectrum_khz = rows[self.rng.integers(len(rows))]
        self.conj_nmax = 8 if small else 24
        self.spectrum_nmax = 8 if small else 40
        self.sensitivity_nmax = 8 if small else 16

    def ops(self):
        return [
            Op("conjugation-shear", lambda: self._conjugation(1, levels=10),
               lambda r: self._check_conjugation(r, 1e-6, "shear")),
            Op("conjugation-squeeze", lambda: self._conjugation(2, levels=8),
               lambda r: self._check_conjugation(r, 1e-4, "squeeze")),
            Op("spectrum", self._spectrum, self._check_spectrum),
            Op("sensitivity", self._sensitivity, self._check_sensitivity),
            Op("stability-law", self._stability_law, self._check_stability_law),
        ]

    def _conjugation(self, step, levels):
        protocol = rotor.design_protocol(1.0, np.pi / 2, 1, 2)
        transform = rotor.step_transforms(protocol.config)[step]
        g = rotor.symplectic_generator(transform)
        n = self.conj_nmax
        return [rotor.conjugation_check(g, transform, m, levels=levels) for m in (n, n // 2)]

    def _check_conjugation(self, residuals, bound, what):
        full, half = residuals
        _require(full < bound, f"{what} conjugation residual {full:.3e} >= {bound:g}")
        _require(full < half, f"{what} residual does not shrink with nmax: {residuals}")

    def _spectrum(self):
        protocol = rotor.design_protocol(2 * np.pi * self.spectrum_khz, np.pi / 2, 1, 2)
        h = rotor.build_fock_hamiltonian(protocol.config, self.spectrum_nmax)
        return protocol, rotor.quantum.eigenvalues(h)

    def _check_spectrum(self, result):
        protocol, spectrum = result
        o1, o2 = oracle_frequencies(protocol.omega1, protocol.omega2, protocol.theta_dot)
        for j in range(5):
            for k in range(5 - j):
                level = o1[0] * (j + 0.5) + o2[0] * (k + 0.5)
                err = np.abs(spectrum - level).min() / level
                _require(err < 1e-6, f"level ({j},{k}) off by {err:.3e}")

    def _sensitivity(self):
        reports = []
        for f in sorted(TABLE1):
            protocol = rotor.design_protocol(2 * np.pi * f, np.pi / 2, 1, 2)
            reports.append((protocol, rotor.measure_sensitivity(protocol, nmax=self.sensitivity_nmax)))
        return reports

    def _check_sensitivity(self, reports):
        for protocol, report in reports:
            w1, w2, td = protocol.omega1, protocol.omega2, protocol.theta_dot
            closed = td**2 * (w1 - w2) ** 2 / (4 * w1 * w2)
            _close(report.delta_h_sq / closed, 1.0, 1e-10, "energy variance")
            rel = abs(report.fitted_rate - closed) / closed
            _require(rel < 0.01, f"fitted decay off the closed form by {rel:.3e}")

    def _stability_law(self):
        curvatures, probes = [], []
        n = self.sensitivity_nmax
        for n2 in (2, 5, 10):
            protocol = rotor.design_protocol(1.0, np.pi / 2, 1, n2)
            curvatures.append(rotor.measure_sensitivity(protocol, nmax=n).fitted_rate)
            probe = 0.01 * rotor.design_protocol(1.0, np.pi / 2, 1, 2).duration
            sweep = rotor.stability_sweep(rotor.fock_state(0, 0, n), protocol, [probe])
            probes.append(sweep.values[0])
        return curvatures, probes

    def _check_stability_law(self, result):
        curvatures, probes = result
        _require(all(np.diff(curvatures) > 0), f"curvature not rising with n2: {curvatures}")
        _require(all(np.diff(probes) < 0), f"survival not falling with n2: {probes}")


WORKLOADS = {cls.name: cls for cls in (Simulate, Track, Verify)}
