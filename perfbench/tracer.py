"""Spans and counters around rotor's layers, installed from outside the source.

The tracer wraps the public functions of ``rotor.designer``,
``rotor.symplectic``, ``rotor.classical`` and ``rotor.quantum``, plus
``rotor.cli.main`` and ``rotor.cli.write_csv``, and rebinds every name in
every loaded ``rotor.*`` namespace that refers to the original, so calls
made inside rotor go through the wrapper too.  The ``numpy.linalg.eigh``
calls rotor makes are caught by giving each rotor module a copy of the
numpy namespace whose ``linalg.eigh`` is wrapped; numpy itself is untouched.

A span's self time is its duration minus the time of its child spans.
Time spent in the tracer's own counting hooks is charged to no span.
"""

import functools
import hashlib
import sys
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = ("designer", "symplectic", "classical", "quantum")
CLI_FUNCTIONS = ("main", "write_csv")
EIGH_SPAN = "quantum.eigh"


class Tracer:
    """In-memory span statistics (calls, inclusive and self seconds) and
    per-span counters, reset between passes."""

    def __init__(self):
        self._stack = []
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.eigh_inputs = []

    def wrap(self, name, fn, hook=None):
        """Return ``fn`` recorded as span ``name``; ``hook(tracer, args,
        kwargs, result)`` runs after each call to update counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - children[0]
            if hook is not None:
                hook_start = time.perf_counter()
                try:
                    hook(self, args, kwargs, result)
                except (TypeError, KeyError, IndexError, ValueError):
                    # rotor changed a signature or result shape the hook reads
                    self.counters["trace.hook_errors"] += 1
                elapsed += time.perf_counter() - hook_start
            if self._stack:
                self._stack[-1][0] += elapsed
            return result

        return wrapper

    def snapshot(self):
        """Plain-dict copy of the statistics gathered since the last reset."""
        spans = {
            name: {
                "calls": self.calls[name],
                "s": self.total_s[name],
                "self_s": self.self_s[name],
            }
            for name in self.calls
        }
        distinct = len(set(self.eigh_inputs))
        counters = dict(self.counters)
        counters["quantum.eigh.distinct"] = distinct
        return {"spans": spans, "counters": counters}


# ---------------------------------------------------------------------------
# counting hooks: each reads arguments or results, never rotor internals


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_eigh(tracer, args, kwargs, result):
    a = np.ascontiguousarray(_arg(args, kwargs, 0, "a"))
    n = a.shape[-1]
    tracer.counters["quantum.eigh.dim3_sum"] += int(n) ** 3
    tracer.counters["quantum.eigh.max_dim"] = max(
        tracer.counters["quantum.eigh.max_dim"], n
    )
    tracer.eigh_inputs.append(hashlib.blake2b(a.tobytes(), digest_size=16).digest())


def _count_hamiltonian(tracer, args, kwargs, result):
    nmax = int(_arg(args, kwargs, 1, "nmax"))
    tracer.counters["quantum.max_nmax"] = max(tracer.counters["quantum.max_nmax"], nmax)


def _count_evolve(tracer, args, kwargs, result):
    times = np.atleast_1d(_arg(args, kwargs, 2, "times"))
    tracer.counters["quantum.evolve_series.times"] += times.size


def _count_samples(tracer, args, kwargs, result):
    grid = np.atleast_1d(_arg(args, kwargs, 2, "t_grid"))
    tracer.counters["classical.sample_trajectory.samples"] += grid.size


def _count_convergence(tracer, args, kwargs, result):
    """Steps taken, and the returned nmax over the smallest nmax in the
    trace that already met both tolerances against the final survival."""
    nmax, trace = result
    p_tol = kwargs.get("p_tol", 1e-8)
    shell_tol = kwargs.get("shell_tol", 1e-8)
    final = trace[-1]["survival"]
    sufficient = min(
        (
            step["nmax"]
            for step in trace
            if step["shell_weight"] < shell_tol and abs(step["survival"] - final) < p_tol
        ),
        default=nmax,
    )
    tracer.counters["quantum.converge_truncation.steps"] += len(trace)
    tracer.counters["quantum.converge_truncation.nmax_returned"] += nmax
    tracer.counters["quantum.converge_truncation.nmax_sufficient"] += sufficient


HOOKS = {
    "quantum.build_fock_hamiltonian": _count_hamiltonian,
    "quantum.evolve_series": _count_evolve,
    "quantum.converge_truncation": _count_convergence,
    "classical.sample_trajectory": _count_samples,
}


# ---------------------------------------------------------------------------
# installation


def _rotor_modules():
    return [m for name, m in sys.modules.items() if name.split(".")[0] == "rotor" and m]


def _targets():
    """(span name, module, attribute) for every function the tracer wraps."""
    import rotor.cli

    found = []
    for layer in LAYERS:
        module = sys.modules[f"rotor.{layer}"]
        for attr, value in vars(module).items():
            if (
                isinstance(value, types.FunctionType)
                and not attr.startswith("_")
                and value.__module__ == module.__name__
            ):
                found.append((f"{layer}.{attr}", module, attr))
    for attr in CLI_FUNCTIONS:
        found.append((f"cli.{attr}", rotor.cli, attr))
    return found


def _numpy_with_eigh(eigh):
    """A copy of the numpy namespace whose ``linalg.eigh`` is ``eigh``."""
    linalg = types.ModuleType("numpy.linalg")
    linalg.__dict__.update(np.linalg.__dict__)
    linalg.eigh = eigh
    proxy = types.ModuleType("numpy")
    proxy.__dict__.update(np.__dict__)
    proxy.linalg = linalg
    return proxy


class installed:
    """Context manager: route rotor's calls through ``tracer`` and restore
    every rebound name on exit."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._undo = []

    def _rebind(self, original, replacement):
        for module in _rotor_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def __enter__(self):
        for name, module, attr in _targets():
            original = getattr(module, attr)
            self._rebind(original, self.tracer.wrap(name, original, HOOKS.get(name)))
        proxy = _numpy_with_eigh(self.tracer.wrap(EIGH_SPAN, np.linalg.eigh, _count_eigh))
        self._rebind(np, proxy)
        return self.tracer

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()
        return False


class _Captured(Exception):
    def __init__(self, matrix):
        super().__init__("eigh input captured")
        self.matrix = matrix


def first_eigh_input(call):
    """The first matrix rotor passes to ``numpy.linalg.eigh`` while
    ``call()`` runs (the call is abandoned there), or None if it makes none."""

    def capture(a, *args, **kwargs):
        raise _Captured(np.array(a))

    undo = []
    proxy = _numpy_with_eigh(capture)
    for module in _rotor_modules():
        if vars(module).get("np") is np:
            module.np = proxy
            undo.append(module)
    try:
        call()
    except _Captured as caught:
        return caught.matrix
    finally:
        for module in undo:
            module.np = np
    return None
