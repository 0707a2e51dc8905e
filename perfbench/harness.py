"""Workloads, output checks and the measuring loop of the spinphase benchmark.

One process drives one operation at a time (a closed loop with one client).
Every call into spinphase goes through a module attribute, so the wrappers
that ``tracing`` installs see it.  States are generated, and outputs
checked against the ``sampling.direct_eval`` oracle, outside the timed
region of each operation.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import spinphase.angular as angular
import spinphase.cli as cli
import spinphase.fourier as fourier
import spinphase.gridfile as gridfile
import spinphase.kcache as kcache
import spinphase.parity as parity
import spinphase.sampling as sampling
import spinphase.states as states
from spinphase.angular import SpinDimension

from tracing import Tracer, coverage, layer_metrics, tracing

FAMILIES = ("random", "squeezed", "coherent", "ghz", "dicke")
SETUP_REPS = 5
CHECK_NODES = 4
TOLERANCE = 1e-9
TAIL_MIN_BEYOND = 10
IMPORT_PROBE = ("import time; t = time.perf_counter(); import spinphase.cli; "
                "print(time.perf_counter() - t)")


@dataclass(frozen=True)
class Spec:
    """One workload: what each operation runs, at which size."""

    name: str
    kind: str  # "c" and "d" run in process, "cli" spawns the command line
    d: int
    n: int
    s: float = 0.0


WORKLOADS = {
    "oneshot-c": Spec("oneshot-c", "c", d=320, n=1024),
    "sweep-d": Spec("sweep-d", "d", d=200, n=512),
    "cli-csv": Spec("cli-csv", "cli", d=64, n=512),
}

E2E_UNITS = {"grids_per_s": "1/s", "latency_p50_s": "s", "setup_s": "s",
             "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "angular.basis_s": "s",
    "parity.build_s": "s",
    "parity.transform_s": "s",
    "fourier.method_c_s": "s",
    "fourier.k_build_s": "s",
    "fourier.k_build_gflop": "Gflop",
    "fourier.k_build_gflop_per_s": "Gflop/s",
    "fourier.accumulate_s": "s",
    "fourier.accumulate_calls": "count",
    "kcache.precompute_s": "s",
    "kcache.bytes_written": "bytes",
    "kcache.method_d_s": "s",
    "kcache.read_s": "s",
    "kcache.records_read": "count",
    "kcache.bytes_read": "bytes",
    "kcache.read_gbps": "GB/s",
    "sampling.fft_s": "s",
    "sampling.oracle_s": "s",
    "sampling.oracle_err_max": "rel",
    "gridfile.write_csv_s": "s",
    "gridfile.write_bin_s": "s",
    "gridfile.bytes_out": "bytes",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "trace.overhead_frac": "frac",
    "trace.coverage": "frac",
}


class CheckError(Exception):
    """An operation's output disagrees with the oracle or is malformed."""


@dataclass(frozen=True)
class State:
    family: str
    params: tuple = ()

    def density(self, dim: SpinDimension) -> np.ndarray:
        p = dict(self.params)
        if self.family == "random":
            return states.random_density(dim, p["seed"])
        if self.family == "squeezed":
            return states.squeezed(dim, p["xi"])
        if self.family == "coherent":
            return states.coherent(dim, p["theta0"], p["phi0"])
        if self.family == "ghz":
            return states.ghz(dim)
        return states.dicke(dim, p["m"])

    def cli_args(self) -> list[str]:
        args = ["--state", self.family]
        for key, value in self.params:
            args += ["--param", f"{key}={value}"]
        return args


def state_cycle(dim: SpinDimension, seed: int):
    """Endless cycle through FAMILIES with parameters drawn from the seed."""
    rng = np.random.default_rng(seed)
    for i in itertools.count():
        family = FAMILIES[i % len(FAMILIES)]
        if family == "random":
            params = (("seed", int(rng.integers(2 ** 31))),)
        elif family == "squeezed":
            params = (("xi", float(rng.uniform(0.05, 1.5))),)
        elif family == "coherent":
            params = (("theta0", float(rng.uniform(0.0, math.pi))),
                      ("phi0", float(rng.uniform(0.0, 2.0 * math.pi))))
        elif family == "ghz":
            params = ()
        else:
            params = (("m", float(dim.j - int(rng.integers(dim.d)))),)
        yield State(family, params)


def check_values(values: np.ndarray, rho: np.ndarray, par, nodes) -> float:
    """Largest oracle error at the (k, l) nodes over max(1, peak |value|).

    Raises CheckError when it exceeds TOLERANCE.
    """
    n = values.shape[0]
    thetas, phis = sampling.grid_thetas(n), sampling.grid_phis(n)
    peak = max(1.0, float(np.abs(values).max()))
    err = max(abs(values[k, l] - sampling.direct_eval(rho, par, thetas[k], phis[l]))
              for k, l in nodes) / peak
    if not err <= TOLERANCE:
        raise CheckError(f"grid differs from direct_eval by {err:.3g} (relative)")
    return err


def _cold_basis() -> None:
    """Forget memoized spin eigenbases, as a fresh process would not have them."""
    clear = getattr(getattr(angular, "_cached_basis", None), "cache_clear", None)
    if clear is not None:
        clear()


class LibraryWorkload:
    """oneshot-c (method c, no disk) and sweep-d (method d from a K cache)."""

    def __init__(self, spec: Spec, workdir: Path):
        self.spec = spec
        self.dim = SpinDimension.from_d(spec.d)
        self.workdir = workdir
        self.grid_path = workdir / "grid.bin"
        self.cache = None

    def setup(self, rep: int) -> float:
        _cold_basis()
        if self.spec.kind == "c":
            start = time.perf_counter()
            angular.jy_eigenbasis(self.dim)
            parity.build_parity(self.dim, self.spec.s)
            return time.perf_counter() - start
        directory = self.workdir / f"kcache-{rep}"
        start = time.perf_counter()
        cache = kcache.precompute_cache(self.dim, self.spec.s, directory)
        elapsed = time.perf_counter() - start
        if self.cache is not None:
            shutil.rmtree(self.cache.directory)
        self.cache = cache
        return elapsed

    def op(self, state: State, rho: np.ndarray):
        spec = self.spec
        start = time.perf_counter()
        if spec.kind == "c":
            par = parity.build_parity(self.dim, spec.s)
            table = fourier.fourier_coefficients_method_c(rho, par)
            grid = sampling.sample_fft(table, spec.n, method="c")
        else:
            table = kcache.fourier_coefficients_method_d(rho, self.cache)
            grid = sampling.sample_fft(table, spec.n, method="d")
            gridfile.write_grid(self.grid_path, grid, state.family)
        return time.perf_counter() - start, grid

    def check(self, state: State, rho: np.ndarray, grid, rng) -> float:
        nodes = rng.integers(0, self.spec.n, size=(CHECK_NODES, 2))
        err = check_values(grid.values, rho, parity.build_parity(self.dim, self.spec.s), nodes)
        if self.spec.kind == "d":
            stored, _ = gridfile.read_grid(self.grid_path)
            if not np.array_equal(stored.values, grid.values):
                raise CheckError("binary grid file does not hold the computed grid")
        return err

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CliWorkload:
    """cli-csv: one ``python -m spinphase.cli compute`` child per operation."""

    def __init__(self, spec: Spec, workdir: Path, src: Path):
        self.spec = spec
        self.dim = SpinDimension.from_d(spec.d)
        self.out = workdir / "grid.csv"
        self.err = workdir / "child.err"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.env = env
        self.import_s: list[float] = []
        self.child_rss: list[float] = []

    def setup(self, rep: int) -> float:
        """One cold interpreter that imports the CLI: what every command pays first."""
        start = time.perf_counter()
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=self.env,
                               capture_output=True, text=True, timeout=120, check=True)
        elapsed = time.perf_counter() - start
        self.import_s.append(float(probe.stdout.strip().splitlines()[-1]))
        return elapsed

    def argv(self, state: State) -> list[str]:
        return ["compute", *state.cli_args(), "--dim", str(self.spec.d),
                "--n", str(self.spec.n), "--out", str(self.out)]

    def op(self, state: State, rho: np.ndarray):
        argv = [sys.executable, "-m", "spinphase.cli", *self.argv(state)]
        actions = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 2, str(self.err),
                    os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
        self.out.unlink(missing_ok=True)
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        elapsed = time.perf_counter() - start
        self.child_rss.append(usage.ru_maxrss / 1024.0)
        return elapsed, os.waitstatus_to_exitcode(status)

    def op_in_process(self, state: State, rho: np.ndarray):
        """The same command through ``cli.main`` in this process, for the traced run."""
        _cold_basis()
        self.out.unlink(missing_ok=True)
        with open(os.devnull, "w") as sink, redirect_stdout(sink):
            start = time.perf_counter()
            code = cli.main(self.argv(state))
            elapsed = time.perf_counter() - start
        return elapsed, code

    def check(self, state: State, rho: np.ndarray, exit_code: int, rng) -> float:
        if exit_code != 0:
            tail = self.err.read_text(errors="replace")[-300:] if self.err.exists() else ""
            raise CheckError(f"compute exited with {exit_code}: {tail}")
        n = self.spec.n
        lines = self.out.read_bytes().split(b"\n")
        if lines[0] != b"theta,phi,re,im":
            raise CheckError(f"bad CSV header {lines[0][:40]!r}")
        if lines[-1] != b"" or len(lines) - 2 != n * n:
            raise CheckError(f"CSV has {len(lines) - 2} rows, expected {n * n}")
        thetas, phis = sampling.grid_thetas(n), sampling.grid_phis(n)
        par = parity.build_parity(self.dim, self.spec.s)
        diffs, scale = [], 1.0
        for k, l in rng.integers(0, n, size=(CHECK_NODES, 2)):
            theta, phi, re, im = (float(x) for x in lines[1 + k * n + l].split(b","))
            if theta != thetas[k] or phi != phis[l]:
                raise CheckError(f"CSV row {k * n + l} has angles ({theta}, {phi})")
            value = complex(re, im)
            oracle = sampling.direct_eval(rho, par, theta, phi)
            diffs.append(abs(value - oracle))
            scale = max(scale, abs(value), abs(oracle))
        err = max(diffs) / scale
        if not err <= TOLERANCE:
            raise CheckError(f"CSV values differ from direct_eval by {err:.3g} (relative)")
        return err

    def peak_rss_mb(self) -> float:
        return statistics.median(self.child_rss) if self.child_rss else 0.0


def make_workload(spec: Spec, workdir: Path, src: Path):
    if spec.kind == "cli":
        return CliWorkload(spec, workdir, src)
    return LibraryWorkload(spec, workdir)


@dataclass
class OpLog:
    latencies: list = field(default_factory=list)  # of verified operations
    op_seconds: float = 0.0  # every attempted operation
    attempted: int = 0
    failed: int = 0
    err_max: float = 0.0
    errors: list = field(default_factory=list)


def run_ops(workload, op, states_iter, seconds: float, rng, log: OpLog,
            tracer: Tracer | None = None) -> list[float]:
    """Closed loop: run operations for ``seconds`` of wall time (at least one).

    An operation starts only if one more iteration, as long as the last
    one, still ends before the deadline.  Returns the latencies of this
    call's verified operations; failures are counted in ``log`` and never
    stop the loop.
    """
    latencies = []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        state = next(states_iter)
        rho = state.density(workload.dim)
        index = log.attempted
        log.attempted += 1
        try:
            with tracer.phase("op", index) if tracer else nullcontext():
                elapsed, output = op(state, rho)
            log.op_seconds += elapsed
            with tracer.phase("check", index) if tracer else nullcontext():
                err = workload.check(state, rho, output, rng)
        except Exception as exc:  # one failed operation must not end the run
            log.failed += 1
            log.errors.append(f"op {index} ({state.family}): {exc!r}\n"
                              + traceback.format_exc(limit=3))
        else:
            log.err_max = max(log.err_max, err)
            latencies.append(elapsed)
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break
    log.latencies += latencies
    return latencies


def tail_latency(latencies):
    """(percentile, value) of the highest percentile with TAIL_MIN_BEYOND samples above it."""
    n = len(latencies)
    if n < 2 * TAIL_MIN_BEYOND:
        return None
    ordered = sorted(latencies)
    return 100.0 * (n - TAIL_MIN_BEYOND) / n, ordered[n - TAIL_MIN_BEYOND - 1]


def _setup(workload, tracer: Tracer | None) -> list[float]:
    times = []
    for rep in range(SETUP_REPS):
        with tracer.phase("setup", rep) if tracer else nullcontext():
            times.append(workload.setup(rep))
    return times


@dataclass
class Measurement:
    metrics: dict
    log: OpLog
    details: dict


def measure(spec: Spec, seed: int, seconds: float, trace: bool, workdir: Path,
            src: Path) -> Measurement:
    """One benchmark run: set-up repetitions, then the timed or traced loop."""
    workload = make_workload(spec, workdir, src)
    states_iter = state_cycle(workload.dim, seed)
    rng = np.random.default_rng([seed, 1])
    log = OpLog()
    if not trace:
        setup_times = _setup(workload, None)
        run_ops(workload, workload.op, states_iter, seconds, rng, log)
        lat = log.latencies
        metrics = {
            "grids_per_s": len(lat) / log.op_seconds if log.op_seconds else 0.0,
            "latency_p50_s": statistics.median(lat) if lat else 0.0,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": workload.peak_rss_mb(),
        }
        return Measurement(metrics, log, {"tail": tail_latency(lat)})

    tracer = Tracer()
    with tracing(tracer):
        _setup(workload, tracer)
    op = workload.op_in_process if spec.kind == "cli" else workload.op
    # Untraced and traced operations alternate, so drift in machine speed
    # affects both sides of trace.overhead_frac alike.
    untraced, traced, n_traced = [], [], 0
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        untraced += run_ops(workload, op, states_iter, 0, rng, log)
        before = log.attempted
        with tracing(tracer):
            traced += run_ops(workload, op, states_iter, 0, rng, log, tracer)
        n_traced += log.attempted - before
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break
    metrics = layer_metrics(tracer, spec.d, SETUP_REPS, n_traced, len(traced))
    metrics["sampling.oracle_err_max"] = log.err_max
    is_cli = spec.kind == "cli"
    metrics["cli.import_s"] = statistics.median(workload.import_s) if is_cli else 0.0
    metrics["cli.main_s"] = statistics.mean(traced) if is_cli and traced else 0.0
    metrics["trace.overhead_frac"] = 0.0
    if untraced and traced:
        base = statistics.median(untraced)
        metrics["trace.overhead_frac"] = (statistics.median(traced) - base) / base
    metrics["trace.coverage"] = coverage(tracer, sum(traced))
    metrics = {name: metrics[name] for name in LAYER_UNITS if name in metrics}
    return Measurement(metrics, log, {"untraced_ops": len(untraced),
                                      "traced_ops": len(traced)})


def _blas_threads():
    """Thread counts read back from every OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if line.count(" ") >= 5}
    except OSError:
        return {}
    libs = sorted(p for p in paths if "openblas" in Path(p).name and ".so" in Path(p).name)
    counts = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.argtypes = []
                func.restype = ctypes.c_int
                counts[Path(path).name] = func()
                break
    return counts


def environment(thread_pin: dict) -> dict:
    """Machine, library versions, and whether ``thread_pin`` reached OpenBLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    counts = _blas_threads()
    if not counts:
        pin = "unverified"
    elif all(c == 1 for c in counts.values()):
        pin = "in effect"
    else:
        pin = "not in effect"
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} "
                f"({blas.get('openblas configuration', 'configuration unknown')})",
        "thread_pin": {var: os.environ.get(var) for var in thread_pin},
        "blas_threads_read_back": counts or "unverified",
        "thread_pin_status": pin,
        "client": "closed loop, one client, one operation at a time",
    }
