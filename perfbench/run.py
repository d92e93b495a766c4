"""rotor's benchmark.

Usage, from the root of a rotor checkout:

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 30 --trace 0

Workloads: simulate, track, verify (see workloads.py and BENCHMARK.json for
what each exercises).  rotor runs from ``src/`` of the
checkout; nothing is installed.  Every measuring process is a fresh child
interpreter with the BLAS thread count pinned to the number of usable
cores through the environment.

``--trace 0`` reports the end-to-end metrics of untraced passes:

    setup_s      median over five processes of import plus warm-up
    wall_s       median wall time of one pass (a closed loop, one client)
    wall_s_hi    the pass time with exactly ten slower passes beyond it
                 (at least 11 passes run; the detail line states the count)
    cpu_s        median user+system CPU time of one pass, all threads
    peak_rss_mb  peak resident memory of the measuring process
    ok_frac      operations whose output passed its check, over those run

``--trace 1`` reports the per-layer metrics: span calls, self and
inclusive seconds and counters per pass from two processes that alternate
untraced and traced passes (the counts of every traced pass must agree
exactly), the traced-over-untraced pass time, and the one-thread over
all-thread ``eigh`` speed-up of the Fock factorization.

The last stdout line is the result object; the line before it is a detail
object with the environment, sample counts and every span.  The exit code
is nonzero, with no result line, when rotor cannot be run at all.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("simulate", "track", "verify")

#: a run never takes longer than this, whatever the program's speed
DEADLINE_S = 170.0
#: wall_s_hi is the pass time with this many slower passes beyond it
TAIL_SAMPLES = 10
MIN_PASSES = TAIL_SAMPLES + 1
SETUPS = 5
#: truncations whose sector eigh sets the thread speed-up
EIGH_NMAX = (32, 64, 80)


class ChildFailed(Exception):
    pass


class Run:
    """Starts the child processes of one benchmark run."""

    def __init__(self, args):
        self.args = args
        self.start = time.perf_counter()
        self.nproc = len(os.sched_getaffinity(0))
        self.work_dir = HERE / ".work" / f"{args.workload}-{os.getpid()}"

    def env(self, threads):
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        return env

    def child(self, mode, threads=None, **settings):
        threads = threads or self.nproc
        settings = {
            "mode": mode,
            "workload": self.args.workload,
            "seed": self.args.seed,
            "work_dir": str(self.work_dir / f"{mode}-{len(os.listdir(self.work_dir))}"),
            "threads": threads,
            "nproc": self.nproc,
            **settings,
        }
        Path(settings["work_dir"]).mkdir(parents=True)
        remaining = DEADLINE_S - (time.perf_counter() - self.start)
        if remaining <= 0:
            raise ChildFailed("out of time before starting a process")
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(settings)],
                cwd=ROOT, env=self.env(threads), stdout=subprocess.PIPE,
                text=True, timeout=remaining, check=False,
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{mode} process exceeded {remaining:.0f} s") from exc
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise ChildFailed(f"{mode} process exited with {done.returncode}")
        return json.loads(lines[-1])

    def measure(self, seconds, traced, min_passes):
        return self.child(
            "measure", seconds=seconds, traced=traced, min_passes=min_passes,
            max_seconds=max(seconds, DEADLINE_S / 2),
        )


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(run):
    setups = [run.child("setup")["setup_s"] for _ in range(SETUPS - 1)]
    main = run.measure(run.args.seconds, traced=False, min_passes=MIN_PASSES)
    setups.append(main["setup_s"])
    walls = sorted(p["wall"] for p in main["passes"])
    n = len(walls)
    hi_rank = max(n - 1 - TAIL_SAMPLES, 0)
    metrics = {
        "setup_s": (median(setups), "s"),
        "wall_s": (median(walls), "s"),
        "wall_s_hi": (walls[hi_rank], "s"),
        "cpu_s": (median([p["cpu"] for p in main["passes"]]), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        "ok_frac": ((main["attempted"] - main["failed"]) / main["attempted"], "frac"),
    }
    detail = {
        "env": main["env"],
        "passes": n,
        "wall_s_hi_percentile": round(100.0 * (hi_rank + 1) / n, 1),
        "setup_s_samples": setups,
        "op_wall_s": {
            op: median([p["ops"][op] for p in main["passes"]]) for op in main["passes"][0]["ops"]
        },
        "failures": main["failures"],
    }
    return metrics, detail, main["attempted"], main["failed"], []


def _pass_counts(record):
    """Every computed count of a traced pass: the ones that must repeat."""
    trace = record["trace"]
    counts = {f"{name}.calls": span["calls"] for name, span in trace["spans"].items()}
    counts.update(trace["counters"])
    counts["cli.bytes_written"] = record["bytes"]
    return counts


def per_layer(run):
    seconds = run.args.seconds
    traced = [run.measure(seconds / 2, traced=True, min_passes=4) for _ in range(2)]
    eigh = {
        threads: run.child("eigh", threads=threads, eigh_nmax=EIGH_NMAX)["eigh_s"]
        for threads in sorted({1, run.nproc})
    }

    problems = []
    records = [p for child in traced for p in child["passes"] if "trace" in p]
    untraced = [p for child in traced for p in child["passes"] if "trace" not in p]
    first = _pass_counts(records[0])
    for k, child in enumerate(traced):
        for i, record in enumerate(p for p in child["passes"] if "trace" in p):
            counts = _pass_counts(record)
            if counts != first:
                differ = sorted(
                    key for key in set(counts) | set(first) if counts.get(key) != first.get(key)
                )
                problems.append(f"traced process {k} pass {i}: counts differ in {differ[:8]}")

    def calls(name):
        return first.get(f"{name}.calls", 0)

    def seconds_of(name, key):
        return median([r["trace"]["spans"].get(name, {}).get(key, 0.0) for r in records])

    def ratio(num, den, empty):
        return num / den if den else empty

    metrics = {}
    for name in (
        "designer.design_protocol", "designer.commensurate_velocity",
        "symplectic.normal_modes", "symplectic.normal_frequencies",
        "classical.sample_trajectory", "quantum.eigh", "quantum.build_fock_hamiltonian",
        "quantum.evolve_series", "cli.write_csv",
    ):
        metrics[f"{name}.calls"] = (calls(name), "count")
        metrics[f"{name}.self_s"] = (seconds_of(name, "self_s"), "s")
    metrics["classical.sample_trajectory.samples"] = (
        first.get("classical.sample_trajectory.samples", 0), "count")
    metrics["classical.flow_matrix.calls"] = (calls("classical.flow_matrix"), "count")
    metrics["classical.trajectory_to_csv.self_s"] = (
        seconds_of("classical.trajectory_to_csv", "self_s"), "s")
    metrics["quantum.eigh.dim3_sum"] = (first.get("quantum.eigh.dim3_sum", 0), "count")
    metrics["quantum.eigh.max_dim"] = (first.get("quantum.eigh.max_dim", 0), "count")
    metrics["quantum.eigh.unique_ratio"] = (
        ratio(first.get("quantum.eigh.distinct", 0), calls("quantum.eigh"), 1.0), "ratio")
    one, many = sum(eigh[1].values()), sum(eigh[run.nproc].values())
    metrics["quantum.eigh.thread_speedup"] = (ratio(one, many, 1.0), "x")
    metrics["quantum.converge_truncation.calls"] = (calls("quantum.converge_truncation"), "count")
    metrics["quantum.converge_truncation.steps"] = (
        first.get("quantum.converge_truncation.steps", 0), "count")
    metrics["quantum.converge_truncation.s"] = (seconds_of("quantum.converge_truncation", "s"), "s")
    metrics["quantum.converge_truncation.overshoot"] = (
        ratio(first.get("quantum.converge_truncation.nmax_returned", 0),
              first.get("quantum.converge_truncation.nmax_sufficient", 0), 1.0), "ratio")
    metrics["quantum.max_nmax"] = (first.get("quantum.max_nmax", 0), "count")
    metrics["quantum.evolve_series.times"] = (first.get("quantum.evolve_series.times", 0), "count")
    metrics["quantum.wavepacket_track.self_s"] = (seconds_of("quantum.wavepacket_track", "self_s"), "s")
    metrics["quantum.revival_phase.s"] = (seconds_of("quantum.revival_phase", "s"), "s")
    metrics["quantum.stability_sweep.s"] = (seconds_of("quantum.stability_sweep", "s"), "s")
    metrics["quantum.conjugation_check.s"] = (seconds_of("quantum.conjugation_check", "s"), "s")
    metrics["quantum.conjugation_check.self_s"] = (
        seconds_of("quantum.conjugation_check", "self_s"), "s")
    metrics["cli.bytes_written"] = (first["cli.bytes_written"], "count")
    metrics["cli.main.self_s"] = (seconds_of("cli.main", "self_s"), "s")
    untraced_wall = median([p["wall"] for p in untraced])
    traced_wall = median([r["wall"] for r in records])
    metrics["trace_overhead_frac"] = (traced_wall / untraced_wall - 1.0, "frac")
    attempted = sum(c["attempted"] for c in traced)
    failed = sum(c["failed"] for c in traced)
    metrics["fail_frac"] = (failed / attempted, "frac")

    names = sorted({name for r in records for name in r["trace"]["spans"]})
    detail = {
        "env": traced[0]["env"],
        "passes": {"untraced": len(untraced), "traced": len(records)},
        "eigh_s_by_threads": eigh,
        "spans": {
            name: {
                "calls": calls(name),
                "s": seconds_of(name, "s"),
                "self_s": seconds_of(name, "self_s"),
            }
            for name in names
        },
        "hook_errors": first.get("trace.hook_errors", 0),
        "failures": [f for c in traced for f in c["failures"]],
    }
    return metrics, detail, attempted, failed, problems


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    # unwinding on SIGTERM lets subprocess.run kill and reap the running child
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "rotor" / "__init__.py").is_file():
        print(f"error: no rotor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = Run(args)
    run.work_dir.mkdir(parents=True, exist_ok=True)
    try:
        collect = per_layer if args.trace else end_to_end
        metrics, detail, attempted, failed, problems = collect(run)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work_dir, ignore_errors=True)
    for message in detail["failures"] + problems:
        print(f"check failed: {message}", file=sys.stderr)
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace)
    print(json.dumps({"detail": detail}))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
