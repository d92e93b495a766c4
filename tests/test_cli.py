import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import rotor.cli
import rotor.quantum
from rotor import (
    ConvergenceFailure,
    DegenerateOverlap,
    TrapConfig,
    converge_truncation,
    design_protocol,
    fock_state,
    normal_frequencies,
)
from rotor.cli import RunManifest, main, parse_angle, parse_complex, write_csv


# any double, with the values whose text is special drawn often
_CSV_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -1e-310, 1e16, 0.1]),
)
# (column count, rows): up to 5 columns and 30 rows, no rows included
_CSV_TABLES = st.integers(1, 5).flatmap(
    lambda ncols: st.tuples(
        st.just(ncols), st.lists(st.lists(_CSV_VALUES, min_size=ncols, max_size=ncols), max_size=30)
    )
)


# the design of ``simulate --omega1-khz 1``
_DEFAULT_DESIGN = design_protocol(2 * np.pi, np.pi / 2, 1, 2)


def _top_shell(nmax):
    # all of its weight on the top shell at every size, so no size converges
    return fock_state(nmax - 1, 0, nmax)


def read_body(path):
    """CSV content without '#' comment lines."""
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


def load_columns(path):
    lines = read_body(path)
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return {name: data[:, i] for i, name in enumerate(header)}


class TestParsing:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("pi", np.pi),
            ("2pi", 2 * np.pi),
            ("pi/2", np.pi / 2),
            ("3pi/4", 3 * np.pi / 4),
            ("-pi/2", -np.pi / 2),
            ("0.75", 0.75),
            ("1.5e-1", 0.15),
        ],
    )
    def test_angles(self, text, expected):
        assert parse_angle(text) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("text", ["pix2", "pi/0"])
    def test_bad_angle(self, text):
        with pytest.raises(ValueError):
            parse_angle(text)

    def test_complex(self):
        assert parse_complex("0.5") == 0.5
        assert parse_complex("0.5+0.5j") == 0.5 + 0.5j


REQUIRED_ARGS = {
    "modes": ["modes", "--omega1-khz", "1", "--omega2-khz", "2"],
    "simulate": ["simulate", "--omega1-khz", "1"],
    "classical": ["classical", "--omega1-khz", "1"],
    "track": ["track", "--omega1-khz", "1", "--alpha1", "1", "--alpha2", "0.5"],
    "stability": ["stability", "--omega1-khz", "1"],
}


COUNT_CASES = [
    ("simulate", "--samples", "0"),
    ("simulate", "--nmax", "0"),
    ("simulate", "--nmax-cap", "0"),
    ("classical", "--samples", "0"),
    ("track", "--steps", "0"),
    ("track", "--grid-points", "0"),
    ("modes", "--sweep", "0"),
    ("stability", "--eps-points", "0"),
    # stability runs on closed forms, with no truncation to cap
    ("stability", "--nmax-cap", "64"),
    # one sample would report period quantities at t = 0
    ("simulate", "--samples", "1"),
    ("classical", "--samples", "1"),
    # the Hamiltonian and the entangled state need two levels per mode
    ("simulate", "--nmax", "1"),
    # only an odd count puts eps = 0 at the centre of the sweep
    ("stability", "--eps-points", "1"),
    ("stability", "--eps-points", "2"),
    ("stability", "--eps-points", "4"),
    # the offset half width must be a finite number above 0
    ("stability", "--eps-range", "0"),
    ("stability", "--eps-range", "-0.05"),
    ("stability", "--eps-range", "nan"),
    ("stability", "--eps-range", "inf"),
    # a track axis needs a spacing
    ("track", "--grid-points", "1"),
    # the halved-step quadrature check needs an even step count
    ("track", "--steps", "41"),
    # each n2 runs once: repeated or non-integer entries are rejected
    ("stability", "--n2-list", "2,2"),
    ("stability", "--n2-list", "2,x"),
]


@pytest.mark.parametrize(
    "command, flag, value",
    COUNT_CASES,
    # the value-0 cases keep their "command-flag" ids
    ids=["-".join(case[:2] if case[2] == "0" else case) for case in COUNT_CASES],
)
def test_zero_count_is_usage_error(tmp_path, capsys, command, flag, value):
    argv = REQUIRED_ARGS[command] + [flag, value, "--out-dir", str(tmp_path)]
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["design", "--omega1-khz", "1e-160"],
        ["design", "--omega1-khz", "1e-100"],
        ["modes", "--omega1-khz", "1e-200", "--omega2-khz", "2e-200", "--sweep", "3"],
        ["classical", "--omega1-khz", "1e-170", "--q1", "1", "--samples", "5"],
    ],
    ids=["design", "design-1e-100", "modes", "classical"],
)
def test_underflowing_frequency_named(tmp_path, capsys, argv):
    # design wrote two equal normal frequencies, modes rows of 0,0, and
    # classical died with a ZeroDivisionError
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the normal frequencies of the trap (")
    assert captured.err.rstrip().endswith("underflow double precision")
    assert not (tmp_path / "out").exists()


class TestDesignCommand:
    def test_reference_row(self, tmp_path, capsys):
        code = main(
            [
                "design",
                "--omega1-khz", "1",
                "--theta-f", "pi/2",
                "--n1", "1",
                "--n2", "2",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        cols = load_columns(tmp_path / "design.csv")
        assert round(cols["omega2_2pi_khz"][0], 2) == 1.79
        assert round(cols["theta_dot_2pi_khz"][0], 2) == 0.23
        assert round(cols["duration_ms"][0], 2) == 1.08
        assert cols["delta_h_sq_2pi_khz_sq"][0] == pytest.approx(4.7379e-3, rel=1e-4)

    def test_table_mode(self, tmp_path):
        assert main(["design", "--table1", "--out-dir", str(tmp_path)]) == 0
        cols = load_columns(tmp_path / "design.csv")
        np.testing.assert_array_equal(cols["omega1_2pi_khz"], [1, 2, 5, 10])
        # durations scale as 1/omega1
        np.testing.assert_allclose(
            cols["duration_ms"] * cols["omega1_2pi_khz"],
            cols["duration_ms"][0],
            rtol=1e-12,
        )

    def test_infeasible_exit_code(self, tmp_path, capsys):
        code = main(
            ["design", "--omega1-khz", "1", "--theta-f", "2pi", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("angle", ["nan", "inf"])
    def test_non_finite_angle_named(self, tmp_path, capsys, angle):
        argv = ["design", "--omega1-khz", "1", "--theta-f", angle, "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: rotation angle theta_f must be finite")
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("angle", ["1e-300", "1e200"])
    def test_angle_beyond_double_range_named(self, tmp_path, capsys, angle):
        argv = ["design", "--omega1-khz", "1", "--theta-f", angle, "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: rotation angle theta_f = ")
        assert "Traceback" not in err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("omega1", ["1e100", "1e160"])
    def test_overflowing_frequency_named(self, tmp_path, capsys, omega1):
        # 1e100 gave nan normal frequencies and an inf delta_h_sq; 1e160 an OverflowError
        assert main(["design", "--omega1-khz", omega1, "--out-dir", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the normal frequencies of the trap (")
        assert captured.err.rstrip().endswith("overflow double precision")
        assert not (tmp_path / "out").exists()

    def test_usage_error_exit_code(self, capsys):
        assert main(["design", "--omega1-khz", "oops"]) == 1
        assert main(["no-such-command"]) == 1

    @pytest.mark.parametrize("flag", ["--omega1-khz", "--omega1-rad"])
    def test_frequency_next_to_table_rejected(self, tmp_path, capsys, flag):
        # the reference rows would silently replace the given frequency
        assert main(["design", "--table1", flag, "3", "--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --table1, {flag}:")
        assert not (tmp_path / "manifest.json").exists()

    def test_rerun_rejects_a_frequency_next_to_the_table(self, tmp_path, capsys):
        orig, redo = tmp_path / "orig", tmp_path / "redo"
        assert main(["design", "--table1", "--out-dir", str(orig)]) == 0
        manifest = json.loads((orig / "manifest.json").read_text())
        manifest["parameters"]["omega1_khz"] = 3.0
        (orig / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["rerun", str(orig / "manifest.json"), "--out-dir", str(redo)]) == 2
        assert capsys.readouterr().err.startswith("error: --table1, --omega1-khz:")
        assert not redo.exists()


class TestModesCommand:
    def test_static_point(self, tmp_path, capsys):
        code = main(
            [
                "modes",
                "--omega1-rad", "1.0",
                "--omega2-rad", "1.5",
                "--theta-dot-rad", "0.0",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        cols = load_columns(tmp_path / "modes.csv")
        assert cols["omega_cap1_rad"][0] == pytest.approx(1.0)
        assert cols["omega_cap2_rad"][0] == pytest.approx(1.5)

    def test_sweep_monotone(self, tmp_path):
        code = main(
            [
                "modes",
                "--omega1-rad", "1.0",
                "--omega2-rad", "1.5",
                "--sweep", "50",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        cols = load_columns(tmp_path / "modes.csv")
        assert np.all(np.diff(cols["omega_cap1_rad"]) < 0)
        assert np.all(np.diff(cols["omega_cap2_rad"]) > 0)

    def test_velocity_bound_flagged(self, tmp_path, capsys):
        code = main(
            [
                "modes",
                "--omega1-rad", "1.0",
                "--omega2-rad", "1.5",
                "--theta-dot-rad", "1.0",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2
        assert "maximum allowed" in capsys.readouterr().err

    def test_swapped_axes_sweep_below_the_slower_axis(self, tmp_path, capsys):
        argv = ["modes", "--omega1-rad", "2.0", "--omega2-rad", "1.0"]
        assert main(argv + ["--sweep", "10", "--out-dir", str(tmp_path / "sweep")]) == 0
        cols = load_columns(tmp_path / "sweep" / "modes.csv")
        assert cols["theta_dot_rad"].size == 10
        assert np.all(cols["theta_dot_rad"] < 1.0)
        point = argv + ["--theta-dot-rad", "1.5", "--out-dir", str(tmp_path / "point")]
        assert main(point) == 2
        assert "maximum allowed" in capsys.readouterr().err

    def test_missing_velocity_names_flag(self, tmp_path, capsys):
        code = main(
            ["modes", "--omega1-rad", "1.0", "--omega2-rad", "1.5", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "--theta-dot-khz" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--omega1-khz", "1", "--omega2-rad", "7"],
            ["--omega1-khz", "1", "--omega2-rad", "7", "--sweep", "5"],
            ["--omega1-khz", "1", "--omega2-khz", "2", "--theta-dot-rad", "0.5"],
        ],
    )
    def test_mixed_units_rejected(self, tmp_path, capsys, flags):
        # a raw value next to a kHz one would be labelled, and bounded, as kHz
        assert main(["modes", *flags, "--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        named = [flag for flag in flags if flag.startswith("--") and flag != "--sweep"]
        assert captured.err.startswith("error: " + ", ".join(named) + ":")
        assert not (tmp_path / "manifest.json").exists()

    def test_velocity_next_to_sweep_rejected(self, tmp_path, capsys):
        # the sweep's own velocities would silently replace --theta-dot-khz
        argv = REQUIRED_ARGS["modes"] + ["--sweep", "3", "--theta-dot-khz", "0.5"]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --sweep, --theta-dot-khz:")
        assert not (tmp_path / "manifest.json").exists()

    def test_overflowing_sweep_named(self, tmp_path, capsys):
        # the sweep wrote nan and inf rows for these frequencies
        argv = ["modes", "--omega1-khz", "1e100", "--omega2-khz", "2e100", "--sweep", "3"]
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the normal frequencies of the trap (")
        assert not (tmp_path / "out").exists()

    def test_sweep_is_a_per_velocity_loop_bit_for_bit(self, tmp_path):
        # the table does not depend on which flag names the slower axis
        for count in (50, 2000):
            bodies = []
            for axes in (("1", "1.8"), ("1.8", "1")):
                out = tmp_path / "-".join((str(count), *axes))
                argv = ["modes", "--omega1-khz", axes[0], "--omega2-khz", axes[1],
                        "--sweep", str(count)]
                assert main(argv + ["--out-dir", str(out)]) == 0
                w1, w2 = (2 * np.pi * float(f) for f in axes)
                velocities = np.linspace(0.0, min(w1, w2), count, endpoint=False)
                loop = np.array([normal_frequencies(TrapConfig(w1, w2, td)) for td in velocities])
                cols = load_columns(out / "modes.csv")
                np.testing.assert_array_equal(cols["theta_dot_2pi_khz"], velocities / (2 * np.pi))
                np.testing.assert_array_equal(cols["omega_cap1_2pi_khz"], loop[:, 0] / (2 * np.pi))
                np.testing.assert_array_equal(cols["omega_cap2_2pi_khz"], loop[:, 1] / (2 * np.pi))
                bodies.append(read_body(out / "modes.csv"))
            assert bodies[0] == bodies[1]


class TestSimulateCommand:
    def test_entangled_state_on_one_level_is_usage_error(self, tmp_path, capsys):
        argv = REQUIRED_ARGS["simulate"] + ["--state", "entangled", "--nmax", "1"]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "--nmax: must be an integer of at least 2, got 1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "manifest.json").exists()

    def test_ground_state_run(self, tmp_path, capsys):
        # closed forms by default, the Fock convergence loop with --ehrenfest
        for extra, source in (([], "(closed form)"), (["--ehrenfest"], "(nmax = 16)")):
            out_dir = tmp_path / (extra[0] if extra else "default")
            code = main(
                [
                    "simulate",
                    "--omega1-khz", "1",
                    "--state", "ground",
                    "--samples", "50",
                    *extra,
                    "--out-dir", str(out_dir),
                ]
            )
            assert code == 0
            out = capsys.readouterr().out
            # (-1)**(n1 + n2) for the default n1 = 1, n2 = 2, read at t = T
            assert "revival phase = -1.000000 " in out
            assert source in out
            cols = load_columns(out_dir / "observables.csv")
            assert abs(cols["survival"][-1] - 1.0) < 1e-6
            assert abs(cols["mean_excitation"][-1] - cols["mean_excitation"][0]) < 1e-6
            manifest = json.loads((out_dir / "manifest.json").read_text())
            assert manifest["outputs"] == ["observables.csv"]
            assert bool(manifest["nmax_trace"]) == bool(extra)

    def test_convergence_failure_exit(self):
        # the CLI's exit 3 for this error is test_cap_below_the_first_probe_refused's
        with pytest.raises(ConvergenceFailure):
            converge_truncation(_DEFAULT_DESIGN, _top_shell, nmax_cap=32)

    @pytest.mark.parametrize(
        "state, cap, start",
        [("coherent:2,0", "20", 24), ("coherent:1,0", "16", 16)],
        ids=["start-above-cap", "probe-above-cap"],
    )
    def test_cap_below_the_first_probe_refused(self, tmp_path, monkeypatch, capsys, state,
                                               cap, start):
        # no pair n, 2n fits below the cap: refused before any Hamiltonian is built
        def refuse(*args, **kwargs):
            raise AssertionError("a Hamiltonian was built")

        monkeypatch.setattr(rotor.quantum, "build_fock_hamiltonian", refuse)
        argv = ["simulate", "--omega1-khz", "1", "--state", state, "--nmax-cap", cap,
                "--ehrenfest", "--out-dir", str(tmp_path)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: no truncation tried: the search would start at nmax = {start} and probe "
            f"it at nmax = {2 * start}, above the cap nmax = {cap}\n"
        )
        assert not (tmp_path / "manifest.json").exists()

    def test_unconverged_search_names_the_probe_above_the_cap(self):
        with pytest.raises(ConvergenceFailure) as failure:
            converge_truncation(_DEFAULT_DESIGN, _top_shell, nmax_cap=32)
        message = str(failure.value)
        assert message.startswith(
            "survival not converged: the search started at nmax = 16, and the next "
            "probe, nmax = 64, is above the cap nmax = 32; trace = [{'nmax': 16, "
        )
        assert "{'nmax': 32, " in message

    def test_moderate_amplitude_converges_below_the_cap(self, tmp_path, capsys):
        # |alpha|^2 = 4 starts at coherent_nmax = 24, so 2 * 24 fits below 50
        argv = ["simulate", "--omega1-khz", "1", "--state", "coherent:2,0", "--samples", "5",
                "--ehrenfest"]
        searched, fixed = tmp_path / "searched", tmp_path / "fixed"
        assert main(argv + ["--nmax-cap", "50", "--out-dir", str(searched)]) == 0
        manifest = json.loads((searched / "manifest.json").read_text())
        assert [step["nmax"] for step in manifest["nmax_trace"]] == [24, 48]
        assert "(nmax = 24)" in capsys.readouterr().out
        # the size the search returns and the same size given by --nmax make
        # the state, build H and evolve alike
        assert main(argv + ["--nmax", "24", "--out-dir", str(fixed)]) == 0
        name = "observables.csv"
        assert read_body(searched / name) == read_body(fixed / name)

    @pytest.mark.parametrize(
        "flags, nmax, phase",
        [
            pytest.param(["--state", "ground"], "32", "-1", id="ground"),
            pytest.param(["--state", "entangled"], "32", "-1", id="entangled"),
            pytest.param(["--state", "coherent:0.7+0.3j,-0.5j"], "32", "-1",
                         id="coherent:0.7+0.3j,-0.5j"),
            # n1 + n2 = 4 is even
            pytest.param(["--n2", "3", "--state", "entangled"], "16", "+1", id="entangled-n2-3"),
        ],
    )
    def test_closed_form_matches_the_fock_run(self, tmp_path, capsys, flags, nmax, phase):
        argv = ["simulate", "--omega1-khz", "1", *flags, "--samples", "21"]
        assert main(argv + ["--out-dir", str(tmp_path / "closed")]) == 0
        assert main(argv + ["--nmax", nmax, "--out-dir", str(tmp_path / "fock")]) == 0
        out = capsys.readouterr().out
        # (-1)**(n1 + n2), read at t = T by both runs
        assert f"revival phase = {phase}.000000 +0.000000j (closed form)\n" in out
        assert f"revival phase = {phase}.000000 +0.000000j (nmax = {nmax})\n" in out
        closed = load_columns(tmp_path / "closed" / "observables.csv")
        fock = load_columns(tmp_path / "fock" / "observables.csv")
        assert list(closed) == list(fock)
        for name in closed:
            np.testing.assert_allclose(closed[name], fock[name], rtol=0, atol=1e-12)
        manifest = json.loads((tmp_path / "closed" / "manifest.json").read_text())
        assert manifest["nmax_trace"] == []

    def test_fixed_truncation_records_its_loss(self, tmp_path, capsys):
        # the squeezing design leaves 4.6e-10 on the top shell of nmax 24,
        # enough to move <N> by 1.4e-8 off the closed form
        argv = ["simulate", "--omega1-khz", "1", "--theta-f", "7.2", "--n1", "1", "--n2", "4",
                "--state", "coherent:2,0", "--samples", "401"]
        assert main(argv + ["--nmax", "24", "--out-dir", str(tmp_path / "fock")]) == 0
        out = capsys.readouterr().out
        (record,) = json.loads((tmp_path / "fock" / "manifest.json").read_text())["nmax_trace"]
        assert sorted(record) == ["max_norm_loss", "max_top_shell_weight", "nmax"]
        assert record["nmax"] == 24
        assert 1e-10 < record["max_top_shell_weight"] < 1e-9
        # the evolution is unitary on the truncated basis
        assert record["max_norm_loss"] < 1e-12
        assert (f"nmax = 24; max top-shell weight = {record['max_top_shell_weight']:.3e}; "
                f"max norm loss = {record['max_norm_loss']:.3e}\n") in out
        assert main(argv + ["--out-dir", str(tmp_path / "closed")]) == 0
        drift = np.abs(load_columns(tmp_path / "fock" / "observables.csv")["mean_excitation"]
                       - load_columns(tmp_path / "closed" / "observables.csv")["mean_excitation"])
        assert 1e-9 < drift.max() < 1e-7
        assert main(["rerun", str(tmp_path / "fock" / "manifest.json"),
                     "--out-dir", str(tmp_path / "again")]) == 0
        for name in ("manifest.json", "observables.csv"):
            again = (tmp_path / "again" / name).read_bytes()
            assert again == (tmp_path / "fock" / name).read_bytes()

    def test_amplitude_beyond_any_truncation_runs(self, tmp_path, capsys):
        # |alpha|^2 = 1e10: coherent_nmax far above the cap, no basis needed
        argv = ["simulate", "--omega1-khz", "1", "--state", "coherent:1e5,0", "--samples", "5"]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 0
        assert "revival phase = -1.0000" in capsys.readouterr().out
        cols = load_columns(tmp_path / "observables.csv")
        assert abs(cols["survival"][-1] - 1) < 1e-12
        assert abs(cols["mean_excitation"][0] / 1e10 - 1) < 1e-12

    def test_revival_phase_prints_no_negative_zero(self, tmp_path, monkeypatch, capsys):
        # an imaginary part of -1e-17 rounds to zero and prints as +0
        monkeypatch.setattr("rotor.cli.revival_phase", lambda *args: -1 - 1e-17j)
        argv = ["simulate", "--omega1-khz", "1", "--samples", "10", "--nmax", "8"]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 0
        assert "revival phase = -1.000000 +0.000000j" in capsys.readouterr().out

    def test_degenerate_overlap_exit(self, tmp_path, monkeypatch, capsys):
        def degenerate(*args, **kwargs):
            raise DegenerateOverlap("overlap too small")

        monkeypatch.setattr("rotor.cli.revival_phase", degenerate)
        code = main(
            [
                "simulate",
                "--omega1-khz", "1",
                "--samples", "10",
                "--nmax", "8",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2
        assert "error: overlap too small" in capsys.readouterr().err


class TestClassicalCommand:
    def test_closed_orbit_output(self, tmp_path, capsys):
        code = main(
            [
                "classical",
                "--omega1-khz", "1",
                "--alpha1", "5.65685424949238",
                "--alpha2", "1.4142135623730951",
                "--samples", "200",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        lines = read_body(tmp_path / "trajectory_rotating.csv")
        first = [float(x) for x in lines[1].split(",")]
        last = [float(x) for x in lines[-1].split(",")]
        assert first[1] == pytest.approx(8.0, abs=1e-7)
        assert np.abs(np.array(first[1:]) - np.array(last[1:])).max() < 1e-7

    def test_lab_frame_file_name(self, tmp_path):
        main(
            [
                "classical",
                "--omega1-khz", "1",
                "--q1", "1.0",
                "--frame", "lab",
                "--samples", "20",
                "--out-dir", str(tmp_path),
            ]
        )
        assert (tmp_path / "trajectory_lab.csv").exists()

    def test_amplitudes_and_coordinates_rejected(self, tmp_path, capsys):
        # the coherent amplitudes would silently replace q1
        argv = ["classical", "--omega1-khz", "1", "--q1", "3", "--alpha1", "1"]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --alpha1, --q1:")
        assert not (tmp_path / "manifest.json").exists()


class TestTrackCommand:
    def test_small_track(self, tmp_path, capsys):
        code = main(
            [
                "track",
                "--omega1-khz", "1",
                "--alpha1", "1.0",
                "--alpha2", "0.5",
                "--grid-points", "61",
                "--steps", "300",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "track.csv").exists()
        assert (tmp_path / "trajectory_rotating.csv").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["nmax_trace"][0]["nmax"] == 16
        # a spacing of 0.12 resolves the packet's smallest width, 0.69
        assert capsys.readouterr().err == ""

    def test_large_amplitude_without_eigh(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        argv = [
            "track", "--omega1-khz", "1", "--alpha1", "10", "--alpha2", "0",
            "--grid-points", "21", "--steps", "200", "--out-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("nmax = 176;")
        (trace,) = json.loads((tmp_path / "manifest.json").read_text())["nmax_trace"]
        assert trace["nmax"] == 176
        assert 0 < trace["max_norm_loss"] < 1e-10
        assert trace["max_top_shell_weight"] < 1e-10
        assert f"max norm loss = {trace['max_norm_loss']:.3e}" in out

    def test_amplitude_30_runs_in_closed_form(self, tmp_path, capsys):
        # the density costs steps x grid points whatever the amplitude; the
        # truncation a Fock run would need is sampled at 21 times
        argv = [
            "track", "--omega1-khz", "1", "--alpha1", "30", "--alpha2", "0",
            "--grid-points", "21", "--steps", "800",
        ]
        orig, redo = tmp_path / "orig", tmp_path / "redo"
        assert main(argv + ["--out-dir", str(orig)]) == 0
        # 21 points over an orbit of radius about 42 leave cells of 4.14
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("warning: grid spacing 4.14 exceeds the packet's smallest width 0.69")
        (trace,) = json.loads((orig / "manifest.json").read_text())["nmax_trace"]
        assert trace["nmax"] == 1104
        assert trace["max_norm_loss"] < 1e-10
        assert main(["rerun", str(orig / "manifest.json"), "--out-dir", str(redo)]) == 0
        for name in ("manifest.json", "track.csv", "trajectory_rotating.csv"):
            assert (orig / name).read_bytes() == (redo / name).read_bytes()

    def test_trajectory_is_the_classical_orbit_of_the_amplitudes(self, tmp_path):
        amplitudes = ["--omega1-khz", "1", "--alpha1", "3.4641", "--alpha2", "0.866j"]
        track = ["track", *amplitudes, "--grid-points", "21", "--steps", "40"]
        classical = ["classical", *amplitudes, "--frame", "rotating", "--samples", "41"]
        assert main(track + ["--out-dir", str(tmp_path / "track")]) == 0
        assert main(classical + ["--out-dir", str(tmp_path / "classical")]) == 0
        name = "trajectory_rotating.csv"
        assert read_body(tmp_path / "track" / name) == read_body(tmp_path / "classical" / name)

    def test_one_orbit_and_no_truncated_state(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the track built a truncated state or resampled its orbit")

        for name in ("coherent_state", "phase_space_expectations", "classical_orbit"):
            monkeypatch.setattr(rotor.quantum, name, refuse)
            monkeypatch.setattr(rotor.cli, name, refuse, raising=False)
        calls = []
        sample = rotor.quantum.sample_trajectory

        def counted(*args, **kwargs):
            calls.append(args)
            return sample(*args, **kwargs)

        monkeypatch.setattr(rotor.quantum, "sample_trajectory", counted)
        monkeypatch.setattr(rotor.cli, "sample_trajectory", counted)
        argv = REQUIRED_ARGS["track"] + ["--grid-points", "21", "--steps", "40"]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_underflow_refused_before_any_nmax_squared_array(self, tmp_path):
        # nmax is 3992 at |alpha| = 60: one nmax x nmax complex array is 255 MB
        argv = ["track", "--omega1-khz", "1", "--alpha1", "60", "--alpha2", "0",
                "--grid-points", "3", "--steps", "2", "--out-dir", str(tmp_path)]
        # a child measures its own child, so no other process counts
        script = (
            "import resource, subprocess, sys\n"
            "code = subprocess.call([sys.executable, '-m', 'rotor.cli', *sys.argv[1:]])\n"
            "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        run = subprocess.run([sys.executable, "-c", script, *argv],
                             capture_output=True, text=True, check=True)
        code, peak_kb = map(int, run.stdout.split())
        assert code == 2
        assert "error: vacuum amplitude" in run.stderr
        assert peak_kb < 200 * 1024
        assert not (tmp_path / "manifest.json").exists()

    def test_truncation_is_not_an_option(self, tmp_path, capsys):
        argv = REQUIRED_ARGS["track"] + ["--nmax", "16", "--out-dir", str(tmp_path)]
        assert main(argv) == 1
        assert "unrecognized arguments: --nmax 16" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_rerun_rejects_a_recorded_nmax(self, tmp_path, capsys):
        # a track manifest of version 0.1.0 records "nmax", null
        orig, redo = tmp_path / "orig", tmp_path / "redo"
        argv = REQUIRED_ARGS["track"] + ["--grid-points", "21", "--steps", "40"]
        assert main(argv + ["--out-dir", str(orig)]) == 0
        manifest = json.loads((orig / "manifest.json").read_text())
        manifest["parameters"]["nmax"] = None
        (orig / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["rerun", str(orig / "manifest.json"), "--out-dir", str(redo)]) == 2
        assert capsys.readouterr().err.startswith("error: recorded parameters differ")
        assert not redo.exists()


class TestStabilityCommand:
    def test_two_series(self, tmp_path, capsys):
        code = main(
            [
                "stability",
                "--omega1-khz", "1",
                "--n2-list", "2,5",
                "--eps-points", "21",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("rel err") == 2
        for n2 in (2, 5):
            cols = load_columns(tmp_path / f"stability_n2_{n2}.csv")
            mid = cols["survival"][np.argmin(np.abs(cols["eps"]))]
            assert mid == pytest.approx(1.0, abs=1e-6)

    @staticmethod
    def _curvature_lines(tmp_path, capsys, *args):
        argv = ["stability", "--omega1-khz", "1", "--n2-list", "2", *args]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        return [line for line in out.splitlines() if "fitted curvature" in line]

    def test_fit_independent_of_the_csv_grid(self, tmp_path, capsys):
        coarse = self._curvature_lines(tmp_path / "coarse", capsys, "--eps-points", "3")
        fine = self._curvature_lines(tmp_path / "fine", capsys, "--eps-points", "21")
        assert len(coarse) == 1
        assert coarse == fine

    def test_entangled_state_against_its_own_variance(self, tmp_path, capsys):
        (line,) = self._curvature_lines(tmp_path, capsys, "--state", "entangled")
        assert float(line.rsplit("rel err = ", 1)[1]) < 1e-2

    def test_rerun_rejects_a_repeated_n2(self, tmp_path, capsys):
        orig, redo = tmp_path / "orig", tmp_path / "redo"
        argv = ["stability", "--omega1-khz", "1", "--n2-list", "2", "--eps-points", "5"]
        assert main(argv + ["--out-dir", str(orig)]) == 0
        manifest = json.loads((orig / "manifest.json").read_text())
        assert manifest["parameters"]["n2_list"] == "2"
        manifest["parameters"]["n2_list"] = "2,2"
        (orig / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["rerun", str(orig / "manifest.json"), "--out-dir", str(redo)]) == 2
        assert "--n2-list" in capsys.readouterr().err
        assert not redo.exists()


    def test_rerun_rejects_a_recorded_nmax_cap(self, tmp_path, capsys):
        # a 0.2.0 manifest records the cap of the Fock loop stability no longer runs
        orig, redo = tmp_path / "orig", tmp_path / "redo"
        argv = ["stability", "--omega1-khz", "1", "--n2-list", "2", "--eps-points", "5"]
        assert main(argv + ["--out-dir", str(orig)]) == 0
        manifest = json.loads((orig / "manifest.json").read_text())
        assert "nmax_cap" not in manifest["parameters"]
        manifest["parameters"]["nmax_cap"] = 128
        (orig / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["rerun", str(orig / "manifest.json"), "--out-dir", str(redo)]) == 2
        assert "--nmax-cap" in capsys.readouterr().err
        assert not redo.exists()

    def test_decay_beyond_the_fit_window_warned(self, tmp_path, capsys):
        argv = ["stability", "--omega1-khz", "1", "--state", "coherent:1e5,1",
                "--n2-list", "2", "--eps-points", "5", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("warning: n2 = 2: 1 - P = ")
        assert float(line.split("1 - P = ")[1].split()[0]) > 0.1
        assert "fitted curvature" in captured.out and "warning" not in captured.out
        assert (tmp_path / "manifest.json").exists()

    def test_reference_fit_not_warned(self, tmp_path, capsys):
        argv = ["stability", "--omega1-khz", "1", "--n2-list", "2,5,10", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_infeasible_entry_fails_before_any_run(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("convergence loop ran")

        monkeypatch.setattr(rotor.cli, "converge_truncation", refuse)
        argv = ["stability", "--omega1-khz", "1", "--n2-list", "2,5,0", "--eps-points", "5"]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not (tmp_path / "manifest.json").exists()


class TestStateInputs:
    """Where the truncation convergence of a Fock run starts, and which
    amplitudes are refused before anything runs."""

    @pytest.mark.parametrize(
        "argv, start",
        [
            (["simulate", "--state", "coherent:3,1j", "--ehrenfest"], 40),
            (["simulate", "--state", "ground", "--ehrenfest"], 16),
            (["simulate", "--state", "entangled", "--ehrenfest"], 16),
        ],
        ids=lambda x: "-".join(x[:3:2]) if isinstance(x, list) else str(x),
    )
    def test_convergence_starts_at_coherent_nmax(self, tmp_path, monkeypatch, argv, start):
        starts = []

        def record(protocol, make_state, nmax_start, **kwargs):
            starts.append(nmax_start)
            raise ConvergenceFailure("stopped after the start was recorded")

        monkeypatch.setattr(rotor.cli, "converge_truncation", record)
        full = argv[:1] + ["--omega1-khz", "1"] + argv[1:] + ["--out-dir", str(tmp_path)]
        assert main(full) == 3
        assert starts == [start]

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--omega1-khz", "1", "--state", "coherent:1e200,0"],
            ["stability", "--omega1-khz", "1", "--state", "coherent:0,1e200"],
            ["simulate", "--omega1-khz", "1", "--state", "coherent:nan,0"],
            ["track", "--omega1-khz", "1", "--alpha1", "1e200", "--alpha2", "0"],
        ],
        ids=["simulate", "stability", "simulate-nan", "track"],
    )
    def test_non_finite_mean_rejected(self, tmp_path, capsys, argv):
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "finite |alpha|^2" in captured.err
        assert not (tmp_path / "manifest.json").exists()

    def test_underflowing_track_rejected(self, tmp_path, capsys):
        # every Gaussian amplitude would underflow to 0 and the track read 0
        argv = ["track", "--omega1-khz", "1", "--alpha1", "40", "--alpha2", "0",
                "--grid-points", "3", "--steps", "2", "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: vacuum amplitude")
        assert not (tmp_path / "manifest.json").exists()


class TestFactorizationCount:
    """No command factorizes a Hamiltonian: every Fock evolution is a
    Chebyshev series, and running a command again writes the same body."""

    @pytest.fixture()
    def factorized(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a Hamiltonian was factorized")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--omega1-khz", "1", "--state", "ground", "--samples", "20",
             "--ehrenfest"],
        ],
        ids=["simulate"],
    )
    def test_each_matrix_once_per_command(self, tmp_path, factorized, argv):
        for run in ("first", "second"):
            assert main(argv + ["--out-dir", str(tmp_path / run)]) == 0
        first, second = ((tmp_path / run / "observables.csv").read_bytes()
                         for run in ("first", "second"))
        assert first == second


class TestSearchFactorizesNothing:
    """The truncation search of ``--ehrenfest`` and the series at the size it
    returns are Chebyshev series: neither factorizes a Hamiltonian."""

    def test_simulate_factorizes_the_two_sectors_of_the_returned_size(self, tmp_path,
                                                                     monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a Hamiltonian was factorized")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        argv = ["simulate", "--omega1-khz", "1", "--state", "coherent:2,0", "--samples", "5",
                "--ehrenfest", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        assert "(nmax = 24)" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [step["nmax"] for step in manifest["nmax_trace"]] == [24, 48]

    def test_search_runs_with_no_eigensolver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the truncation search factorizes nothing")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        protocol = rotor.design_protocol(1.0, np.pi / 2, 1, 2)
        result = rotor.converge_truncation(
            protocol, lambda n: rotor.coherent_state(2, 0, n), nmax_start=24
        )
        assert result[0] == 24


class TestClosedFormRuns:
    """Default simulate and stability runs build no Fock Hamiltonian and
    factorize nothing."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--samples", "20"],
            ["simulate", "--state", "entangled", "--samples", "20"],
            ["simulate", "--state", "coherent:1,0.5j", "--samples", "20"],
            ["stability", "--n2-list", "2,5", "--eps-points", "21"],
            ["stability", "--state", "coherent:1,0.5j", "--n2-list", "2", "--eps-points", "5"],
        ],
        ids=["simulate", "simulate-entangled", "simulate-coherent", "stability",
             "stability-coherent"],
    )
    def test_no_fock_hamiltonian_and_no_eigh(self, tmp_path, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("the closed forms need no Fock space")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(rotor.quantum, "build_fock_hamiltonian", refuse)
        monkeypatch.setattr(rotor.cli, "build_fock_hamiltonian", refuse)
        full = argv[:1] + ["--omega1-khz", "1"] + argv[1:] + ["--out-dir", str(tmp_path)]
        assert main(full) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["nmax_trace"] == []


class TestReproducibility:
    def test_identical_runs_identical_bodies(self, tmp_path):
        args = ["design", "--table1"]
        main(args + ["--out-dir", str(tmp_path / "a")])
        main(args + ["--out-dir", str(tmp_path / "b")])
        assert (tmp_path / "a/design.csv").read_bytes() == (
            tmp_path / "b/design.csv"
        ).read_bytes()

    def test_rerun_from_manifest(self, tmp_path):
        main(
            [
                "simulate",
                "--omega1-khz", "1",
                "--state", "entangled",
                "--samples", "40",
                "--out-dir", str(tmp_path / "orig"),
            ]
        )
        code = main(
            [
                "rerun",
                str(tmp_path / "orig/manifest.json"),
                "--out-dir", str(tmp_path / "redo"),
            ]
        )
        assert code == 0
        assert (tmp_path / "orig/observables.csv").read_bytes() == (
            tmp_path / "redo/observables.csv"
        ).read_bytes()
        orig = json.loads((tmp_path / "orig/manifest.json").read_text())
        redo = json.loads((tmp_path / "redo/manifest.json").read_text())
        assert orig == redo

    @pytest.mark.parametrize(
        "argv, tried",
        [
            pytest.param(["design", "--omega1-khz", "1"], [], id="design"),
            pytest.param(["design", "--table1"], [], id="design-table1"),
            pytest.param(["modes", "--omega1-khz", "1", "--omega2-khz", "1.8", "--sweep", "20"],
                         [], id="modes"),
            pytest.param(["simulate", "--omega1-khz", "1", "--samples", "20", "--nmax", "8"],
                         [8], id="simulate"),
            # --nmax runs no search, even next to --ehrenfest
            pytest.param(["simulate", "--omega1-khz", "1", "--state", "coherent:0.7071,0.7071",
                          "--nmax", "16", "--samples", "21", "--ehrenfest"],
                         [16], id="simulate-nmax-ehrenfest"),
            # the search starts at coherent_nmax = 24, so 24 and 48 fit below the cap
            pytest.param(["simulate", "--omega1-khz", "1", "--state", "coherent:2,0",
                          "--nmax-cap", "50", "--samples", "5", "--ehrenfest"],
                         [24, 48], id="simulate-cap"),
            pytest.param(["simulate", "--omega1-khz", "1", "--state", "coherent:3,0",
                          "--samples", "21", "--ehrenfest"],
                         [40, 80], id="simulate-search"),
            pytest.param(["classical", "--omega1-khz", "1", "--q1", "1", "--frame", "lab",
                          "--samples", "20"],
                         [], id="classical"),
            pytest.param(["classical", "--omega1-khz", "1", "--alpha1", "1+1j", "--alpha2", "0.5",
                          "--frame", "normal"],
                         [], id="classical-normal"),
            pytest.param(["classical", "--omega1-khz", "1", "--alpha1", "1+1j", "--alpha2", "0.5",
                          "--frame", "rotating"],
                         [], id="classical-rotating"),
            pytest.param(["track", "--omega1-khz", "1", "--alpha1", "0.5", "--alpha2", "0.25",
                          "--grid-points", "21", "--steps", "40"],
                         [16], id="track"),
            # the README track at its default steps and grid, which resolves the packet
            pytest.param(["track", "--omega1-khz", "1", "--alpha1", "5.657", "--alpha2", "1.414"],
                         [80], id="track-readme"),
            pytest.param(["stability", "--omega1-khz", "1", "--n2-list", "2", "--eps-points", "21"],
                         [], id="stability"),
            pytest.param(["stability", "--omega1-khz", "1", "--n2-list", "2", "--state", "entangled",
                          "--eps-points", "3"],
                         [], id="stability-entangled"),
        ],
    )
    def test_rerun_reproduces_every_file(self, tmp_path, capsys, argv, tried):
        # ``tried``: the sizes of the run's nmax trace
        orig, redo = tmp_path / "orig", tmp_path / "redo"
        assert main(argv + ["--out-dir", str(orig)]) == 0
        assert capsys.readouterr().err == ""
        manifest = json.loads((orig / "manifest.json").read_text())
        assert [step["nmax"] for step in manifest["nmax_trace"]] == tried
        assert main(["rerun", str(orig / "manifest.json"), "--out-dir", str(redo)]) == 0
        names = sorted(p.name for p in orig.iterdir())
        assert "manifest.json" in names
        assert sorted(p.name for p in redo.iterdir()) == names
        for name in names:
            assert (orig / name).read_bytes() == (redo / name).read_bytes(), name

    @pytest.mark.parametrize(
        "tolerances",
        [
            {"convergence": 1e-8, "shell": 1e-8},
            [],
            {"convergence": "abc", "shell": 1e-8},
            {"convergence": None, "shell": 1e-8},
            {"convergence": -1, "shell": 1e-8},
            {"convergence": float("nan"), "shell": 1e-8},
            {"convergence": True, "shell": 1e-8},
            {"convergence": 1e-8, "shell": 1e-8, "unknown": 1e-8},
            {"convergence": 1e-8},
        ],
        ids=["version-0.4.0", "list", "text", "null", "negative", "nan", "bool", "unknown-key",
             "missing-key"],
    )
    def test_rerun_rejects_bad_tolerances(self, tmp_path, capsys, monkeypatch, tolerances):
        """A manifest has no tolerances field: one that carries any, as every
        0.4.0 manifest does, is refused before a handler runs."""
        orig, redo = tmp_path / "orig", tmp_path / "redo"
        argv = ["simulate", "--omega1-khz", "1", "--samples", "5"]
        assert main(argv + ["--out-dir", str(orig)]) == 0
        manifest = json.loads((orig / "manifest.json").read_text())
        manifest["tolerances"] = tolerances
        (orig / "manifest.json").write_text(json.dumps(manifest))
        for command in rotor.cli._HANDLERS:  # nothing may run
            monkeypatch.setitem(rotor.cli._HANDLERS, command, None)
        capsys.readouterr()
        assert main(["rerun", str(orig / "manifest.json"), "--out-dir", str(redo)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {orig / 'manifest.json'} is not a rotor manifest: ")
        assert "'tolerances'" in err
        assert not redo.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["design", "--omega1-khz", "1"],
            ["simulate", "--omega1-khz", "1", "--samples", "5", "--ehrenfest"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_tolerance_env_changes_nothing(self, tmp_path, monkeypatch, argv):
        # rotor reads no environment variable: a ROTOR_TOL left set changes no byte
        plain, env = tmp_path / "plain", tmp_path / "env"
        assert main(argv + ["--out-dir", str(plain)]) == 0
        monkeypatch.setenv("ROTOR_TOL", "nan")
        assert main(argv + ["--out-dir", str(env)]) == 0
        names = sorted(p.name for p in plain.iterdir())
        assert sorted(p.name for p in env.iterdir()) == names
        for name in names:
            assert (plain / name).read_bytes() == (env / name).read_bytes(), name

    def test_rerun_ignores_the_tolerance_env(self, tmp_path, monkeypatch):
        orig, redo = tmp_path / "orig", tmp_path / "redo"
        assert main(["design", "--omega1-khz", "1", "--out-dir", str(orig)]) == 0
        monkeypatch.setenv("ROTOR_TOL", "nan")
        assert main(["rerun", str(orig / "manifest.json"), "--out-dir", str(redo)]) == 0
        for name in ("design.csv", "manifest.json"):
            assert (orig / name).read_bytes() == (redo / name).read_bytes()

    def test_rerun_missing_manifest(self, tmp_path, capsys):
        assert main(["rerun", str(tmp_path / "missing.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("text", ["[1, 2]", '{"tool": "rotor"}', "not json"])
    def test_rerun_malformed_manifest(self, tmp_path, capsys, text):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        assert main(["rerun", str(path)]) == 2
        assert "is not a rotor manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rerun", "no-such-command"])
    def test_rerun_unknown_command(self, tmp_path, capsys, command):
        manifest = RunManifest("rotor", "0", command, {})
        path = tmp_path / "manifest.json"
        path.write_text(manifest.canonical_json())
        assert main(["rerun", str(path)]) == 2
        assert f"unknown command {command!r}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]

    def test_rerun_missing_parameters(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(RunManifest("rotor", "0", "design", {}).canonical_json())
        assert main(["rerun", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "theta_f" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]

    @pytest.mark.parametrize(
        "edit, message",
        [({"samples": 0}, "--samples"), ({"bogus": 1}, "--bogus")],
        ids=["zero-samples", "unknown-key"],
    )
    def test_rerun_rejects_edited_parameters(self, tmp_path, capsys, edit, message):
        orig, redo = tmp_path / "orig", tmp_path / "redo"
        argv = ["classical", "--omega1-khz", "1", "--q1", "1", "--samples", "20"]
        assert main(argv + ["--out-dir", str(orig)]) == 0
        manifest = json.loads((orig / "manifest.json").read_text())
        manifest["parameters"].update(edit)
        (orig / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["rerun", str(orig / "manifest.json"), "--out-dir", str(redo)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not redo.exists()

    def test_manifest_round_trip(self, tmp_path):
        main(["design", "--table1", "--out-dir", str(tmp_path)])
        manifest = RunManifest.load(tmp_path / "manifest.json")
        assert manifest.canonical_json() + "\n" == (
            tmp_path / "manifest.json"
        ).read_text()

    def test_csv_carries_manifest_hash(self, tmp_path):
        main(["design", "--table1", "--out-dir", str(tmp_path)])
        manifest = RunManifest.load(tmp_path / "manifest.json")
        first = (tmp_path / "design.csv").read_text().splitlines()[0]
        assert manifest.hash() in first


TRAJECTORY_HEADER = "t,q1,q2,p1,p2"


class TestOneParser:
    """One argparse tree, built on first use, serves every run of a process."""

    def test_repeated_runs_identical(self, tmp_path, capsys):
        argv = ["simulate", "--omega1-khz", "1", "--state", "coherent:1,0.5j", "--nmax", "16",
                "--samples", "11"]
        outs = []
        for name in ("a", "b"):
            assert main(argv + ["--out-dir", str(tmp_path / name)]) == 0
            outs.append(capsys.readouterr().out.replace(str(tmp_path / name), "<out>"))
        assert outs[0] == outs[1]
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == names
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--version"], 0),
            (["--help"], 0),
            (["simulate", "--help"], 0),
            (["simulate", "--omega1-khz", "1", "--samples", "1"], 1),
            (["nonsense"], 1),
        ],
        ids=["version", "help", "command-help", "usage-error", "unknown-command"],
    )
    def test_exits_repeat_on_the_shared_tree(self, capsys, argv, code):
        first = main(argv), capsys.readouterr()
        second = main(argv), capsys.readouterr()
        assert first == second
        assert first[0] == code
        assert first[1].out or first[1].err

    def test_one_build_across_runs_and_reruns(self, tmp_path, monkeypatch):
        builds = []

        class Spy(rotor.cli._Parser):
            def __init__(self, *args, **kwargs):
                # the top level; each sub-parser's prog is "rotor <command>"
                if kwargs.get("prog") == "rotor":
                    builds.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(rotor.cli, "_Parser", Spy)
        rotor.cli.build_parser.cache_clear()
        try:
            design, modes = tmp_path / "design", tmp_path / "modes"
            assert main(["design", "--table1", "--out-dir", str(design)]) == 0
            assert main(REQUIRED_ARGS["modes"] + ["--sweep", "5", "--out-dir", str(modes)]) == 0
            for run in (design, modes):
                redo = str(run) + "-redo"
                assert main(["rerun", str(run / "manifest.json"), "--out-dir", redo]) == 0
            assert main(["simulate", "--omega1-khz", "1", "--samples", "1"]) == 1
        finally:
            rotor.cli.build_parser.cache_clear()
        assert len(builds) == 1


class TestTableLayout:
    """Each command's CSV columns, in order, and the value format of every
    file."""

    @pytest.mark.parametrize(
        "argv, headers",
        [
            (
                ["design", "--omega1-khz", "1"],
                {"design.csv": "omega1_2pi_khz,omega2_2pi_khz,theta_dot_2pi_khz,duration_ms,"
                 "kappa_minus,kappa_plus,omega_cap1_2pi_khz,omega_cap2_2pi_khz,n1,n2,"
                 "theta_f_rad,minimal_time_ms,delta_h_sq_2pi_khz_sq"},
            ),
            (
                ["design", "--omega1-rad", "1.3", "--theta-f", "2pi", "--n1", "2", "--n2", "7"],
                {"design.csv": "omega1_rad,omega2_rad,theta_dot_rad,duration_inverse_omega1_units,"
                 "kappa_minus,kappa_plus,omega_cap1_rad,omega_cap2_rad,n1,n2,theta_f_rad,"
                 "minimal_time_inverse_omega1_units,delta_h_sq_rad_sq"},
            ),
            (
                ["modes", "--omega1-khz", "1", "--omega2-khz", "1.79", "--sweep", "5"],
                {"modes.csv": "theta_dot_2pi_khz,omega_cap1_2pi_khz,omega_cap2_2pi_khz"},
            ),
            (
                ["simulate", "--omega1-khz", "1", "--nmax", "8", "--samples", "5"],
                {"observables.csv": "t,mean_excitation,survival"},
            ),
            (
                ["simulate", "--omega1-khz", "1", "--nmax", "8", "--samples", "5",
                 "--observables", "P"],
                {"observables.csv": "t,survival"},
            ),
            (
                ["classical", "--omega1-khz", "1", "--q1", "1", "--samples", "5"],
                {"trajectory_rotating.csv": TRAJECTORY_HEADER},
            ),
            (
                ["track", "--omega1-khz", "1", "--alpha1", "1", "--alpha2", "0.5j",
                 "--grid-points", "21", "--steps", "40"],
                {"track.csv": "q1,q2,density", "trajectory_rotating.csv": TRAJECTORY_HEADER},
            ),
            (
                ["stability", "--omega1-khz", "1", "--n2-list", "2,5", "--eps-points", "3"],
                {"stability_n2_2.csv": "eps,survival", "stability_n2_5.csv": "eps,survival"},
            ),
        ],
        ids=["design-khz", "design-rad", "modes", "simulate", "simulate-P", "classical",
             "track", "stability"],
    )
    def test_header(self, tmp_path, argv, headers):
        assert main(argv + ["--out-dir", str(tmp_path)]) == 0
        found = {p.name: read_body(p)[0] for p in tmp_path.glob("*.csv")}
        assert found == headers

    def test_write_csv_text(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, {"z": [-0.0, 3, 1 / 3, 1e-300, 2.5e300], "a": np.arange(5)}, "abc")
        assert path.read_text() == (
            "# manifest sha256: abc\n"
            "z,a\n"
            "-0,0\n"
            "3,1\n"
            "0.33333333333333331,2\n"
            "1e-300,3\n"
            "2.5000000000000001e+300,4\n"
        )

    def test_write_csv_follows_the_per_value_rule(self, tmp_path):
        # every value is written as f"{x:.17g}", joined by commas
        values = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308, 3.0, -7.0, 1e16, 0.1]
        columns = {"x": values, "y": values[::-1], "z": np.arange(len(values))}
        path = tmp_path / "table.csv"
        write_csv(path, columns, "abc")
        rows = zip(*(np.asarray(v, dtype=float).tolist() for v in columns.values()))
        expected = "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in rows)
        assert path.read_text() == "# manifest sha256: abc\nx,y,z\n" + expected
        assert expected.startswith("nan,0.10000000000000001,0\ninf,10000000000000000,1\n")
        assert "\n-0,3,3\n" in expected and "\n4.9406564584124654e-324," in expected

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_CSV_TABLES)
    @example((3, []))
    @example((2, [[np.nan, -0.0], [np.inf, -np.inf], [5e-324, -1e-310]]))
    def test_write_csv_bytes_equal_the_per_row_reference(self, tmp_path, table):
        ncols, rows = table
        names = [f"c{j}" for j in range(ncols)]
        path = tmp_path / "table.csv"
        write_csv(path, {name: [row[j] for row in rows] for j, name in enumerate(names)}, "abc")
        body = "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in rows)
        header = "# manifest sha256: abc\n" + ",".join(names) + "\n"
        assert path.read_bytes() == (header + body).encode()


# read by regex: Python 3.10 has no tomllib
PYPROJECT = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")


def test_version_matches_pyproject():
    (version,) = re.findall(r'^version = "([^"]+)"$', PYPROJECT, flags=re.MULTILINE)
    assert version == rotor.__version__


def test_console_script_is_main():
    # the installed ``rotor`` runs the main that every test here calls
    (target,) = re.findall(r'^\[project\.scripts\]\nrotor = "([^"]+)"$', PYPROJECT,
                           flags=re.MULTILINE)
    assert target == "rotor.cli:main"
