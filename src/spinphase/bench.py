"""Benchmark harness for the coefficient-computation methods.

Each (method, d) row reports the median wall time of the core coefficient
computation over at least three repetitions.  The FFT sampling step is
timed separately (it is asymptotically negligible and common to all
methods), and the tensor-operator baseline is timed cold, including all of
its coupling-coefficient work.  Absolute times are hardware-specific; the
interesting outputs are ratios and fitted log-log slopes.
"""

from __future__ import annotations

import os
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from .angular import SpinDimension, jy_eigenbasis
from .cgc import expansion_coefficients
from .cli import TABLE_ROUTES, CliError
from .fourier import fourier_coefficients_method_c
from .parity import build_parity
from .sampling import default_grid_size, sample_fft
from .states import random_density

__all__ = ["BenchRow", "BenchReport", "run_bench"]

SEED = 2047  # the random state every row is timed on


@dataclass
class BenchRow:
    method: str
    d: int
    time_s: float
    fft_s: float
    peak_mem_mb: float
    status: str = "ok"


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)
    slopes: dict = field(default_factory=dict)
    thread_pin: str = "unset"  # OPENBLAS_NUM_THREADS as the run saw it

    def to_csv(self, stream) -> None:
        stream.write("method,d,time_s,fft_s,peak_mem_mb,status\n")
        for row in self.rows:
            stream.write(f"{row.method},{row.d},{row.time_s:.9g},{row.fft_s:.9g},"
                         f"{row.peak_mem_mb:.6g},{row.status}\n")
        for method, slope in sorted(self.slopes.items()):
            stream.write(f"# loglog_slope {method} {slope:.4f}\n")
        stream.write(f"# thread_pin {self.thread_pin}\n")


def _median_time(func, repetitions: int) -> float:
    times = []
    for _ in range(repetitions):
        start = time.perf_counter()
        func()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _peak_mb(func) -> float:
    tracemalloc.start()
    try:
        func()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def run_bench(dims, methods=None, repetitions: int = 3, s: float = 0.0,
              cache_root=None, measure_memory: bool = True) -> BenchReport:
    """Time the coefficient computation for every (method, d) pair.

    ``methods`` names the cold method-b baseline ``b`` or any table route of
    ``cli.TABLE_ROUTES`` (default: every route).  A route that cannot be prepared (method d without
    a matching cache under ``cache_root``) marks its row ``skipped``, which
    is not fatal.
    """
    choices = ("b", *TABLE_ROUTES)
    methods = [m.lower() for m in (TABLE_ROUTES if methods is None else methods)]
    for m in methods:
        if m not in choices:
            raise ValueError(f"unknown method {m!r}; choose from {choices}")
    if repetitions < 3:
        raise ValueError("medians need at least 3 repetitions")

    report = BenchReport(thread_pin=os.environ.get("OPENBLAS_NUM_THREADS", "unset"))
    for d in dims:
        dim = SpinDimension.from_d(d)
        rho = random_density(dim, SEED)
        jy_eigenbasis(dim)  # built here so no timed call pays for it
        n = default_grid_size(dim)
        table = fourier_coefficients_method_c(rho, build_parity(dim, s))
        fft_s = _median_time(lambda: sample_fft(table, n), repetitions)

        for method in methods:
            if method == "b":
                work = lambda: expansion_coefficients(rho)
            else:
                try:
                    table_of = TABLE_ROUTES[method](dim, s, cache_root)
                except CliError:
                    report.rows.append(BenchRow(method, dim.d, float("nan"),
                                                fft_s, 0.0, "skipped"))
                    continue
                work = lambda: table_of(rho)
            time_s = _median_time(work, repetitions)
            peak = _peak_mb(work) if measure_memory else 0.0
            report.rows.append(BenchRow(method, dim.d, time_s, fft_s, peak))

    for method in methods:
        pts = [(row.d, row.time_s) for row in report.rows
               if row.method == method and row.status == "ok"]
        if len(pts) >= 2:
            log_d = np.log([p[0] for p in pts])
            log_t = np.log([p[1] for p in pts])
            report.slopes[method] = float(np.polyfit(log_d, log_t, 1)[0])
    return report
