"""One benchmark process: set up a workload, then measure it.

Started by ``run.py`` with its settings as one JSON argument; prints one
JSON object as its last stdout line.  Modes:

``setup``    import rotor, draw the inputs and warm up, then stop.
``measure``  set up, then run passes in a closed loop (each operation
             starts when the previous one ends) for ``seconds`` and at
             least ``min_passes`` passes, every second one traced if
             ``traced``, then run the workload's ``rotor rerun`` checks once.
``eigh``     time the ``numpy.linalg.eigh`` of one rotor Fock sector at
             several truncations, with whatever BLAS thread count the
             process was started with.

Set-up time runs from before numpy is imported to the end of the warm-up.
"""

import time

_START = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import rotor  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MAX_FAILURE_MESSAGES = 20


def environment(settings):
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "rotor": rotor.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": settings["threads"],
        "nproc": settings["nproc"],
        "seed": settings["seed"],
    }


class Runner:
    """Runs operations, times them, checks their output and keeps the tally."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def _fail(self, where, message):
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_MESSAGES:
            self.failures.append(f"{where}: {message}")

    def run(self, op, where):
        """(wall s, cpu s, bytes written) of one operation."""
        self.attempted += 1
        start, cpu = time.perf_counter(), time.process_time()
        try:
            result = op.run()
        except Exception:  # the program under test failed; record and go on
            wall, cpu = time.perf_counter() - start, time.process_time() - cpu
            self._fail(where, traceback.format_exc(limit=3).strip().splitlines()[-1])
            return wall, cpu, 0
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        try:
            op.check(result)
        except Exception as exc:  # a wrong or unreadable output is a failed op
            self._fail(where, f"{type(exc).__name__}: {exc}")
        written = 0
        if op.out_dir is not None and op.out_dir.is_dir():
            written = sum(p.stat().st_size for p in op.out_dir.iterdir() if p.is_file())
        return wall, cpu, written

    def run_pass(self, ops, where):
        record = {"wall": 0.0, "cpu": 0.0, "bytes": 0, "ops": {}}
        for op in ops:
            wall, cpu, written = self.run(op, f"{where} {op.name}")
            record["wall"] += wall
            record["cpu"] += cpu
            record["bytes"] += written
            record["ops"][op.name] = wall
        return record


def warm_up(cls, settings):
    """Run the workload's operations once at toy sizes, unchecked: their
    outputs are not meant to meet the bounds, and the timed passes check
    the same operations."""
    small = cls(settings["seed"], Path(settings["work_dir"]) / "warm", small=True)
    for op in small.ops():
        try:
            op.run()
        except Exception as exc:  # reported; the timed passes count failures
            print(f"warm-up {op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)


def set_up(settings):
    cls = WORKLOADS[settings["workload"]]
    workload = cls(settings["seed"], Path(settings["work_dir"]) / "run")
    ops = workload.ops()
    warm_up(cls, settings)
    return workload, ops, time.perf_counter() - _START


def measure(settings):
    workload, ops, setup_s = set_up(settings)
    runner = Runner()
    passes = []
    trace = tracer.Tracer() if settings["traced"] else None
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        enough = len(passes) >= settings["min_passes"] and elapsed >= settings["seconds"]
        if enough or (passes and elapsed >= settings["max_seconds"]):
            break
        # a traced run alternates untraced and traced passes, so both see
        # the same machine conditions when their times are compared
        traced = trace is not None and len(passes) % 2 == 1
        with tracer.installed(trace) if traced else contextlib.nullcontext():
            if traced:
                trace.reset()
            record = runner.run_pass(ops, f"pass {len(passes)}")
            if traced:
                record["trace"] = trace.snapshot()
        passes.append(record)
    for rerun in workload.reruns():
        runner.run(rerun, rerun.name)
    return {
        "setup_s": setup_s,
        "passes": passes,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(settings),
    }


def time_eigh(settings):
    """Seconds for one ``eigh`` of the sector matrix rotor factorizes first
    at each truncation (the reference design)."""
    config = rotor.design_protocol(2 * np.pi, np.pi / 2, 1, 2).config
    np.linalg.eigh(np.eye(64))
    rng = np.random.default_rng(settings["seed"])
    seconds = {}
    for nmax in settings["eigh_nmax"]:
        matrix = tracer.first_eigh_input(
            lambda: rotor.quantum.eigenvalues(rotor.build_fock_hamiltonian(config, nmax))
        )
        if matrix is None:  # rotor no longer calls eigh: time a same-sized one
            d = nmax * nmax // 2
            matrix = rng.standard_normal((d, d))
            matrix = matrix + matrix.T
        start = time.perf_counter()
        np.linalg.eigh(matrix)
        seconds[str(nmax)] = time.perf_counter() - start
    return {"eigh_s": seconds, "env": environment(settings)}


def main():
    settings = json.loads(sys.argv[1])
    mode = settings["mode"]
    if mode == "setup":
        result = {"setup_s": set_up(settings)[2]}
    elif mode == "measure":
        result = measure(settings)
    elif mode == "eigh":
        result = time_eigh(settings)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
