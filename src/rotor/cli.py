"""Command-line front end: design, analyze, simulate, and sweep workflows.

Every run writes its data files plus a ``manifest.json`` capturing the
command, raw parameters, truncation trace and output list; ``rotor rerun
manifest.json`` reproduces the outputs from that record.  The command line
holds a run's only settings: rotor reads no environment variable.  CSV bodies
are deterministic (17 significant digits, no timestamps), and each file carries
the manifest hash in a leading ``#`` comment.

Each ``cmd_*`` handler takes ``(params)``, computes, and returns
``(tables, nmax_trace)`` where ``tables`` maps a file name to its columns,
an ordered ``{column name: 1-D values}`` dict.  No handler writes a file or
lays out a row: ``_record`` alone builds the manifest, hashes it and passes
each table to :func:`write_csv`, the one place values become CSV rows, then
writes ``manifest.json``.  ``rerun`` is one more call to ``_record`` with the
recorded command and parameters, once that command's own sub-parser has read
the parameters back unchanged.

Exit codes: 0 success, 1 usage error, 3 ConvergenceFailure or
TruncationTooSmall, 2 any other RotorError or an invalid value.
"""

import argparse
import functools
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .classical import sample_trajectory
from .core import PhaseSpaceState
from .designer import (
    design_protocol,
    ground_state_sensitivity,
    minimal_time,
)
from .errors import (
    ConvergenceFailure,
    InfeasibleDesign,
    RotorError,
    TruncationTooSmall,
    WilliamsonViolation,
)
from .quantum import (
    SENSITIVITY_WINDOW,
    ClosedFormState,
    _truncation_loss,
    build_fock_hamiltonian,
    coherent_nmax,
    coherent_state,
    coherent_track,
    converge_truncation,
    entangled_state,
    evolve_series,
    mean_excitation,
    phase_space_expectations,
    revival_phase,
    survival_probability,
)
from .symplectic import normal_frequency_sweep

#: 1 - P at the edge of the sensitivity fit window above which the survival
#: is no longer quadratic in the offset, so the fitted curvature means little
_FIT_EDGE_DECAY = 0.1


# ---------------------------------------------------------------------------
# manifest and file helpers


@dataclass
class RunManifest:
    """Reproducibility record written next to every run's outputs."""

    tool: str
    version: str
    command: str
    parameters: dict
    nmax_trace: list = field(default_factory=list)
    outputs: list = field(default_factory=list)

    def canonical_json(self):
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    def hash(self):
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def write(self, out_dir):
        path = Path(out_dir) / "manifest.json"
        path.write_text(self.canonical_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path):
        """Read a manifest of a command rotor can rerun, with parameters that
        command accepts; anything else, an unknown field included, raises
        ``ValueError``."""
        try:
            manifest = cls(**json.loads(Path(path).read_text(encoding="utf-8")))
            if manifest.command not in _HANDLERS:
                raise ValueError(f"unknown command {manifest.command!r}")
        except OSError as exc:
            raise ValueError(f"cannot read manifest: {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path} is not a rotor manifest: {exc}") from None
        _check_parameters(manifest.command, manifest.parameters)
        return manifest


def write_csv(path, columns, manifest_hash):
    """Deterministic CSV of the table ``columns``, an ordered ``{column name:
    1-D values}`` dict of equal lengths: '#' comment with the manifest hash,
    the names, then one row per index (each value as a float to 17
    significant digits)."""
    rows = np.column_stack([np.asarray(v, dtype=float) for v in columns.values()])
    # "%.17g" % x gives the bytes of f"{x:.17g}", nan and +-inf included
    template = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# manifest sha256: {manifest_hash}\n")
        fh.write(",".join(columns) + "\n")
        fh.write((template * len(rows)) % tuple(rows.ravel().tolist()))


def _record(command, params, out_dir):
    """Run one command and write its run record: the manifest is hashed with
    the outputs listed (bodies pending), then every table is written as a CSV
    carrying that hash, then ``manifest.json``."""
    tables, nmax_trace = _HANDLERS[command](params)
    manifest = RunManifest("rotor", __version__, command, params, nmax_trace, sorted(tables))
    digest = manifest.hash()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, columns in tables.items():
        write_csv(out_dir / name, columns, digest)
    manifest.write(out_dir)
    print(f"wrote {', '.join(manifest.outputs)} + manifest.json -> {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing helpers


class _UsageError(ValueError):
    def __init__(self, parser, message):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(self, message)


def _parameters(args):
    """The recorded parameters of parsed arguments."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "out_dir")}


def _check_parameters(command, params):
    """Raise ValueError unless ``command``'s sub-parser reads ``params`` back
    unchanged, so that no missing, unknown or rejected value reaches a handler."""
    if not isinstance(params, dict):
        raise ValueError("parameters must be a JSON object")
    argv = [command]
    for key, value in params.items():
        flag = "--" + key.replace("_", "-")
        if value is True and not "help".startswith(key):  # a bare --help would exit
            argv.append(flag)
        elif value is not None and value is not False:
            argv.append(f"{flag}={value}")
    try:
        reparsed = _parameters(build_parser().parse_args(argv))
    except _UsageError as exc:
        raise ValueError(f"recorded parameters rejected by rotor {command}: {exc}") from None
    if reparsed != params:
        raise ValueError(f"recorded parameters differ from rotor {command}'s parse: {reparsed}")


def _count(least, parity=None):
    """argparse type for a count: an integer of at least ``least`` and, when
    ``parity`` is ``"odd"`` or ``"even"``, of that parity; anything else is
    a usage error."""

    def count(text):
        value = int(text)
        if value < least or (parity and value % 2 != (parity == "odd")):
            kind = f"an {parity} count" if parity else "an integer"
            raise argparse.ArgumentTypeError(f"must be {kind} of at least {least}, got {value}")
        return value

    return count


def _positive_float(text):
    """argparse type for --eps-range: anything but a finite number above 0
    is a usage error."""
    value = float(text)
    if not 0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text}")
    return value


def _n2_list(text):
    """argparse type for --n2-list: comma-separated distinct integers.  The
    text itself is returned, so the manifest records it as given."""
    values = [int(x) for x in text.split(",")]
    if len(set(values)) != len(values):
        raise argparse.ArgumentTypeError(f"entries must be distinct, got {text}")
    return text


def parse_angle(text):
    """Angles in radians; accepts forms like 'pi', '2pi', 'pi/2', '3pi/4', '1.2'."""
    s = str(text).strip().lower().replace(" ", "")
    if "pi" in s:
        head, _, tail = s.partition("pi")
        value = float(head) if head not in ("", "+", "-") else float(head + "1")
        if tail.startswith("/") and float(tail[1:]) != 0:
            value /= float(tail[1:])
        elif tail:
            raise ValueError(f"cannot parse angle {text!r}")
        return value * np.pi
    return float(s)


def parse_complex(text):
    return complex(str(text).strip().replace(" ", ""))


def _add_frequency(parser, name, required=False):
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument(
        f"--{name}-khz",
        type=float,
        help=f"{name} as a plain frequency in kHz (times 2*pi internally)",
    )
    group.add_argument(
        f"--{name}-rad", type=float, help=f"{name} as a raw angular frequency"
    )


def resolve_frequency(params, name):
    """Angular frequency from raw parameters; kHz inputs give rad/ms units
    (durations in ms), raw inputs stay in the caller's units."""
    khz = params.get(f"{name}_khz")
    rad = params.get(f"{name}_rad")
    if khz is not None:
        return 2 * np.pi * float(khz), "khz"
    if rad is None:
        flag = name.replace("_", "-")
        raise InfeasibleDesign(f"missing --{flag}-khz or --{flag}-rad")
    return float(rad), "rad"


def _freq_label(unit):
    return "2pi_khz" if unit == "khz" else "rad"


def _time_label(unit):
    return "ms" if unit == "khz" else "inverse_omega1_units"


def _freq_out(value, unit):
    return value / (2 * np.pi) if unit == "khz" else value


def _protocol_from(params):
    omega1, _ = resolve_frequency(params, "omega1")
    theta_f = parse_angle(params["theta_f"])
    return design_protocol(omega1, theta_f, int(params["n1"]), int(params["n2"]))


def _initial_state(spec):
    """The :class:`ClosedFormState` a ``--state`` names: ``ground`` (the
    coherent state at 0, 0), ``entangled`` or ``coherent:a1,a2``."""
    spec = str(spec)
    if spec == "entangled":
        return ClosedFormState(entangled=True)
    if spec == "ground":
        return ClosedFormState()
    if spec.startswith("coherent:"):
        parts = spec[len("coherent:"):].split(",")
        if len(parts) != 2:
            raise InfeasibleDesign("coherent state spec must be coherent:a1,a2")
        return ClosedFormState(*(parse_complex(p) for p in parts))
    raise InfeasibleDesign(f"unknown state spec {spec!r}")


def _fock_states(state):
    """``make_state(nmax)``, the truncation of ``state`` on the Fock path."""
    if state.entangled:
        return entangled_state
    a1, a2 = state.alpha1, state.alpha2
    return lambda nmax: coherent_state(a1, a2, nmax)


# ---------------------------------------------------------------------------
# subcommands


def cmd_design(params):
    given = [f"--omega1-{u}" for u in ("khz", "rad") if params.get(f"omega1_{u}") is not None]
    if params.get("table1") and given:
        raise InfeasibleDesign(f"--table1, {given[0]}: the reference rows set their own frequencies")
    theta_f = parse_angle(params["theta_f"])
    n1, n2 = int(params["n1"]), int(params["n2"])
    if params.get("table1"):
        unit = "khz"
        freqs = [2 * np.pi * f for f in (1.0, 2.0, 5.0, 10.0)]
    else:
        omega1, unit = resolve_frequency(params, "omega1")
        freqs = [omega1]
    protocols = [design_protocol(omega1, theta_f, n1, n2) for omega1 in freqs]
    omega1, omega2, theta_dot, o1, o2, sensitivity = _freq_out(np.transpose(
        [(p.omega1, p.omega2, p.theta_dot, *p.normal_frequencies(), ground_state_sensitivity(p))
         for p in protocols]
    ), unit)
    duration, kappa_minus, kappa_plus, t_min = np.transpose(
        [(p.duration, p.kappa_minus, p.kappa_plus, minimal_time(p.omega1, theta_f))
         for p in protocols]
    )
    fl, tl = _freq_label(unit), _time_label(unit)
    columns = {
        f"omega1_{fl}": omega1,
        f"omega2_{fl}": omega2,
        f"theta_dot_{fl}": theta_dot,
        f"duration_{tl}": duration,
        "kappa_minus": kappa_minus,
        "kappa_plus": kappa_plus,
        f"omega_cap1_{fl}": o1,
        f"omega_cap2_{fl}": o2,
        "n1": np.full(len(protocols), n1),
        "n2": np.full(len(protocols), n2),
        "theta_f_rad": np.full(len(protocols), theta_f),
        f"minimal_time_{tl}": t_min,
        f"delta_h_sq_{fl}_sq": _freq_out(sensitivity, unit),
    }
    for i in range(len(protocols)):
        print(
            f"omega1 = {omega1[i]:.4f} ({fl}) -> omega2 = {omega2[i]:.4f}, "
            f"theta_dot = {theta_dot[i]:.4f}, T = {duration[i]:.4f} {tl} "
            f"(kappa- = {kappa_minus[i]:.4f}, kappa+ = {kappa_plus[i]:.4f})"
        )
    return {"design.csv": columns}, []


def cmd_modes(params):
    # the output is labelled in omega1's unit, so every frequency must share it
    given = ["--" + k.replace("_", "-") for k, v in params.items()
             if v is not None and k.endswith(("_khz", "_rad"))]
    if len({flag.rsplit("-", 1)[1] for flag in given}) > 1:
        raise InfeasibleDesign(f"{', '.join(given)}: give every frequency in kHz or every one raw")
    sweep = params.get("sweep")
    velocity = [flag for flag in given if flag.startswith("--theta-dot")]
    if sweep and velocity:
        raise InfeasibleDesign(f"--sweep, {velocity[0]}: a sweep sets its own velocities")
    omega1, unit = resolve_frequency(params, "omega1")
    omega2, _ = resolve_frequency(params, "omega2")
    fl = _freq_label(unit)
    # the slower axis bounds the velocity, whichever flag names it
    bound, name = min((omega1, "omega1"), (omega2, "omega2"))
    if sweep:
        velocities = np.linspace(0.0, bound, int(sweep), endpoint=False)
    else:
        td, _ = resolve_frequency(params, "theta_dot")
        if td >= bound:
            raise WilliamsonViolation(
                f"theta_dot at or beyond the maximum allowed rotation velocity "
                f"({name} = {_freq_out(bound, unit):.6g} {fl})"
            )
        velocities = np.array([td])
    o1, o2 = normal_frequency_sweep(omega1, omega2, velocities)
    columns = {
        f"theta_dot_{fl}": _freq_out(velocities, unit),
        f"omega_cap1_{fl}": _freq_out(o1, unit),
        f"omega_cap2_{fl}": _freq_out(o2, unit),
    }
    if not sweep:
        print(f"Omega1 = {columns[f'omega_cap1_{fl}'][0]:.6f}, "
              f"Omega2 = {columns[f'omega_cap2_{fl}'][0]:.6f} ({fl})")
    return {"modes.csv": columns}, []


def cmd_simulate(params):
    """Closed forms, unless ``--nmax`` or ``--ehrenfest`` asks for a Fock run."""
    protocol = _protocol_from(params)
    state = _initial_state(params["state"])
    observables = [o.strip().upper() for o in str(params["observables"]).split(",")]
    for o in observables:
        if o not in ("N", "P"):
            raise InfeasibleDesign(f"unknown observable {o!r} (use N,P)")

    times = np.linspace(0.0, protocol.duration, int(params["samples"]))
    if params.get("nmax") or params.get("ehrenfest"):
        make_state = _fock_states(state)
        if params.get("nmax"):
            nmax, trace = int(params["nmax"]), None
        else:
            # the search starts at coherent_nmax of the amplitudes, 16 for entangled (0, 0)
            start = coherent_nmax(state.alpha1, state.alpha2)
            nmax, trace = converge_truncation(
                protocol, make_state, nmax_start=start, nmax_cap=params["nmax_cap"]
            )
        psi0 = make_state(nmax)
        coeffs = evolve_series(psi0, build_fock_hamiltonian(protocol.config, nmax), times)
        shell, loss = _truncation_loss(coeffs)
        print(f"nmax = {nmax}; max top-shell weight = {shell:.3e}; max norm loss = {loss:.3e}")
        if trace is None:
            # --nmax runs no search: record the size it ran at instead
            trace = [{"nmax": nmax, "max_top_shell_weight": shell, "max_norm_loss": loss}]
        series = {"N": mean_excitation(coeffs), "P": survival_probability(psi0, coeffs)}
        phase, source = revival_phase(psi0, coeffs[-1]), f"nmax = {psi0.nmax}"
    else:
        series = {
            "N": state.mean_excitation(protocol.config, times),
            "P": state.survival(protocol.config, times),
        }
        phase, source, trace = state.revival_phase(protocol), "closed form", []
    columns = {"t": times}
    if "N" in observables:
        n_values = columns["mean_excitation"] = series["N"]
        print(f"<N(T)> - <N(0)> = {n_values[-1] - n_values[0]:.3e}")
    if "P" in observables:
        p_values = columns["survival"] = series["P"]
        print(f"1 - P(T) = {1.0 - p_values[-1]:.3e}")
    # + 0.0 turns a part that rounds to -0 into +0, so no sign rests on rounding
    real, imag = (round(part, 6) + 0.0 for part in (phase.real, phase.imag))
    print(f"revival phase = {real:+.6f} {imag:+.6f}j ({source})")

    if params.get("ehrenfest"):
        centroid0 = PhaseSpaceState.from_vector(phase_space_expectations(psi0))
        classical = sample_trajectory(centroid0, protocol.config, times)
        drift = np.abs(phase_space_expectations(coeffs) - classical.states).max()
        print(f"max |<v>(t) - classical v(t)| = {drift:.3e}")

    return {"observables.csv": columns}, trace


def _initial_point(params):
    alphas = [k for k in ("alpha1", "alpha2") if params.get(k) is not None]
    coords = [k for k in ("q1", "q2", "p1", "p2") if params.get(k) is not None]
    if alphas and coords:
        flags = ", ".join("--" + k for k in alphas + coords)
        raise InfeasibleDesign(f"{flags}: give coherent amplitudes or coordinates, not both")
    if alphas:
        a1, a2 = (parse_complex(params.get(k) or 0) for k in ("alpha1", "alpha2"))
        return PhaseSpaceState.from_amplitudes(a1, a2)
    return PhaseSpaceState.from_vector([params.get(k) or 0.0 for k in ("q1", "q2", "p1", "p2")])


def _trajectory_table(trajectory):
    q1, q2, p1, p2 = trajectory.states.T
    return {"t": trajectory.times, "q1": q1, "q2": q2, "p1": p1, "p2": p2}


def cmd_classical(params):
    state0 = _initial_point(params)
    protocol = _protocol_from(params)
    frame = params["frame"]
    times = np.linspace(0.0, protocol.duration, int(params["samples"]))
    trajectory = sample_trajectory(state0, protocol.config, times, frame=frame)
    closure = np.linalg.norm(trajectory.states[-1] - trajectory.states[0])
    if frame == "rotating":
        print(f"|v(T) - v(0)| = {closure:.3e} (closed orbit)")
    return {f"trajectory_{frame}.csv": _trajectory_table(trajectory)}, []


def cmd_track(params):
    protocol = _protocol_from(params)
    a1, a2 = parse_complex(params["alpha1"]), parse_complex(params["alpha2"])
    steps, points = int(params["steps"]), int(params["grid_points"])
    grid = coherent_track(a1, a2, protocol, time_steps=steps, grid_points=points)
    print(
        f"nmax = {grid.diagnostics['nmax']}; "
        f"integral(track)/T = {grid.time_integral() / protocol.duration:.6f}; "
        f"max top-shell weight = {grid.diagnostics['max_top_shell_weight']:.3e}; "
        f"max norm loss = {grid.diagnostics['max_norm_loss']:.3e}"
    )
    spacing = max(axis[1] - axis[0] for axis in (grid.q1_axis, grid.q2_axis))
    if spacing > grid.packet_width:
        print(f"warning: grid spacing {spacing:.3g} exceeds the packet's smallest width "
              f"{grid.packet_width:.3g}; the track cannot resolve the packet", file=sys.stderr)
    q1, q2 = np.meshgrid(grid.q1_axis, grid.q2_axis, indexing="ij")
    tables = {
        "track.csv": {"q1": q1.ravel(), "q2": q2.ravel(), "density": grid.density.ravel()},
        "trajectory_rotating.csv": _trajectory_table(grid.trajectory),
    }
    return tables, [grid.diagnostics]


def cmd_stability(params):
    n2_list = [int(x) for x in str(params["n2_list"]).split(",")]
    state = _initial_state(params["state"])
    eps_frac = params["eps_range"]

    # design every protocol first, so an infeasible entry fails before any run
    protocols = {n2: _protocol_from({**params, "n2": n2}) for n2 in n2_list}
    tables = {}
    for n2, protocol in protocols.items():
        eps = np.linspace(-eps_frac, eps_frac, params["eps_points"]) * protocol.duration
        survival = state.survival(protocol.config, protocol.duration + eps)
        # the CSV holds the user's grid; the curvature is fitted on the fixed one
        report = state.sensitivity(protocol)
        print(
            f"n2 = {n2}: fitted curvature = {report.fitted_rate:.6e}, "
            f"delta_h_sq = {report.delta_h_sq:.6e}, rel err = {report.relative_error:.3e}"
        )
        window = SENSITIVITY_WINDOW * protocol.duration
        edge = 1 - state.survival(protocol.config, protocol.duration + np.array([-window, window]))
        if edge.max() > _FIT_EDGE_DECAY:
            print(
                f"warning: n2 = {n2}: 1 - P = {edge.max():.3e} at the edge of the fit window "
                f"|eps| <= {SENSITIVITY_WINDOW:g} T, beyond the quadratic regime of the fit",
                file=sys.stderr,
            )
        tables[f"stability_n2_{n2}.csv"] = {"eps": eps, "survival": survival}
    return tables, []


_HANDLERS = {
    "design": cmd_design,
    "modes": cmd_modes,
    "simulate": cmd_simulate,
    "classical": cmd_classical,
    "track": cmd_track,
    "stability": cmd_stability,
}


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser():
    """The argparse tree of every command, built on the first call and
    shared by every later one: parsing leaves it unchanged, so ``main`` and
    ``rerun``'s parameter check reuse one tree per process."""
    parser = _Parser(
        prog="rotor",
        description="Design and verify excitation-free rotations of an "
        "anisotropic 2D trap.",
    )
    parser.add_argument("--version", action="version", version=f"rotor {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p, default_name):
        p.add_argument("--out-dir", default=f"rotor-out/{default_name}")

    def add_protocol(p, freq_required=True):
        _add_frequency(p, "omega1", required=freq_required)
        p.add_argument("--theta-f", default="pi/2", help="angle: pi/2, 2pi, 0.7 ...")
        p.add_argument("--n1", type=int, default=1)
        p.add_argument("--n2", type=int, default=2)

    p = sub.add_parser("design", help="derive a commensurate rotation protocol")
    add_protocol(p, freq_required=False)
    p.add_argument("--table1", action="store_true",
                   help="emit the reference rows omega1/2pi = 1, 2, 5, 10 kHz")
    add_out(p, "design")

    p = sub.add_parser("modes", help="normal-mode frequencies of a given trap")
    _add_frequency(p, "omega1", required=True)
    _add_frequency(p, "omega2", required=True)
    _add_frequency(p, "theta-dot")
    p.add_argument("--sweep", type=_count(1),
                   help="sample N velocities in [0, min(omega1, omega2))")
    add_out(p, "modes")

    p = sub.add_parser("simulate", help="quantum observables over one rotation")
    add_protocol(p)
    p.add_argument("--state", default="ground",
                   help="ground | entangled | coherent:a1,a2")
    p.add_argument("--observables", default="N,P")
    # samples run from t = 0 to t = T, where the period quantities are read
    p.add_argument("--samples", type=_count(2), default=600)
    p.add_argument("--nmax", type=_count(2),
                   help="run on the Fock basis at this fixed truncation (skips convergence)")
    p.add_argument("--nmax-cap", type=_count(1), default=128,
                   help="largest truncation the --ehrenfest convergence loop may try")
    p.add_argument("--ehrenfest", action="store_true",
                   help="compare the quantum centroid with the classical trajectory; runs on "
                   "the Fock basis at the converged nmax, since a closed-form centroid "
                   "would compare flow_matrix with itself")
    add_out(p, "simulate")

    p = sub.add_parser("classical", help="exact classical trajectory")
    add_protocol(p)
    p.add_argument("--q1", type=float)
    p.add_argument("--q2", type=float)
    p.add_argument("--p1", type=float)
    p.add_argument("--p2", type=float)
    p.add_argument("--alpha1", help="centroid from a coherent amplitude")
    p.add_argument("--alpha2")
    p.add_argument("--frame", choices=("rotating", "lab", "normal"), default="rotating")
    p.add_argument("--samples", type=_count(2), default=1001)
    add_out(p, "classical")

    p = sub.add_parser("track", help="time-integrated wavepacket density")
    add_protocol(p)
    p.add_argument("--alpha1", required=True)
    p.add_argument("--alpha2", required=True)
    # each axis needs a spacing; the halved-step check takes every other step
    p.add_argument("--grid-points", type=_count(2), default=201)
    p.add_argument("--steps", type=_count(2, "even"), default=2000)
    add_out(p, "track")

    p = sub.add_parser("stability", help="survival under timing offsets")
    _add_frequency(p, "omega1", required=True)
    p.add_argument("--theta-f", default="pi/2")
    p.add_argument("--n1", type=int, default=1)
    p.add_argument("--n2-list", type=_n2_list, default="2,5,10")
    p.add_argument("--state", default="ground")
    p.add_argument("--eps-range", type=_positive_float, default=0.05,
                   help="half width of the offset sweep as a fraction of T")
    # an odd count puts eps = 0 at the centre of the sweep from -r*T to r*T
    p.add_argument("--eps-points", type=_count(3, "odd"), default=101)
    add_out(p, "stability")

    p = sub.add_parser("rerun", help="reproduce a run from its manifest")
    p.add_argument("manifest")
    p.add_argument("--out-dir")
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    except _UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"{exc.parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    params = _parameters(args)
    try:
        if args.command != "rerun":
            return _record(args.command, params, args.out_dir)
        manifest = RunManifest.load(args.manifest)
        out_dir = args.out_dir or Path(args.manifest).parent
        return _record(manifest.command, manifest.parameters, out_dir)
    except (RotorError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, (ConvergenceFailure, TruncationTooSmall)) else 2


if __name__ == "__main__":
    raise SystemExit(main())
