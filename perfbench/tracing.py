"""Span recording around spinphase's public callables, from outside the package.

Tracing patches each target callable, at run time, in every loaded
``spinphase`` module namespace that holds it (``kcache`` and ``cli`` import
several of them by name), and restores the originals on exit.  No program
file is edited.  A target that no longer exists is skipped, so the metrics
built from it are simply absent.

Spans are recorded only while ``Tracer.context`` names a phase (set-up, an
operation or an output check), so state generation outside those phases is
never traced.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass


def _payload_bytes(args, kwargs, result):
    return int(result.nbytes)


def _written_file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _stream_bytes(args, kwargs, result):
    try:
        return int(args[0].tell())
    except (AttributeError, OSError, ValueError):
        return 0


def _cache_dir_bytes(args, kwargs, result):
    return sum(p.stat().st_size for p in result.directory.iterdir() if p.is_file())


# (module, attribute or Class.method, span name, byte counter or None)
TARGETS = (
    ("angular", "jy_eigenbasis", "angular.basis", None),
    ("parity", "build_parity", "parity.build", None),
    ("parity", "transform_parity", "parity.transform", None),
    ("fourier", "fourier_coefficients_method_c", "fourier.method_c", None),
    ("fourier", "accumulate_row", "fourier.accumulate", None),
    ("kcache", "precompute_cache", "kcache.precompute", _cache_dir_bytes),
    ("kcache", "fourier_coefficients_method_d", "kcache.method_d", None),
    ("kcache", "KCache.read_k", "kcache.read", _payload_bytes),
    ("sampling", "sample_fft", "sampling.fft", None),
    ("sampling", "direct_eval", "sampling.oracle", None),
    ("gridfile", "write_grid", "gridfile.write_bin", _written_file_bytes),
    ("gridfile", "write_grid_csv", "gridfile.write_csv", _stream_bytes),
)


@dataclass
class Span:
    name: str
    phase: str  # "setup", "op" or "check"
    op: int
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    nbytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.context: tuple[str, int] | None = None
        self._stack: list[int] = []
        self.installed: set[str] = set()

    @contextmanager
    def phase(self, name: str, op: int):
        previous = self.context
        self.context = (name, op)
        try:
            yield
        finally:
            self.context = previous

    def wrap(self, name, func, counter=None):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.context is None:
                return func(*args, **kwargs)
            phase, op = tracer.context
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, phase, op, parent)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                span.nbytes = counter(args, kwargs, result)
            return result

        return functools.wraps(func)(traced)


@contextmanager
def tracing(tracer: Tracer):
    """Patch every target for the duration of the block, then restore."""
    importlib.import_module("spinphase.cli")  # loads every module the CLI uses
    modules = [m for name, m in list(sys.modules.items()) if name.startswith("spinphase.")]
    restore = []
    try:
        for module_name, attr, span_name, counter in TARGETS:
            owner = sys.modules.get(f"spinphase.{module_name}")
            *class_path, leaf = attr.split(".")
            for part in class_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                continue
            wrapped = tracer.wrap(span_name, original, counter)
            if class_path:
                restore.append((owner, leaf, original))
                setattr(owner, leaf, wrapped)
            else:
                for module in modules:
                    if getattr(module, leaf, None) is original:
                        restore.append((module, leaf, original))
                        setattr(module, leaf, wrapped)
            tracer.installed.add(span_name)
        yield tracer
    finally:
        for owner, leaf, original in reversed(restore):
            setattr(owner, leaf, original)


def k_build_gflop(d: int) -> float:
    """Computed (not counted) flops of one method-c K build: 8 d^4 / 1e9.

    Summed over ell, the K products take about d^4 complex multiply-adds,
    each 8 real flops.
    """
    return 8.0 * d ** 4 / 1e9


def layer_metrics(tracer: Tracer, d: int, n_setups: int, n_ops: int,
                  n_checks: int) -> dict:
    """Per-layer values from the recorded spans.

    Operation-phase figures are per traced operation, set-up figures per
    set-up repetition and oracle figures per checked operation.  A metric
    whose span was not installed is left out.
    """
    children: dict[int, float] = {}
    for span in tracer.spans:
        if span.parent is not None:
            children[span.parent] = children.get(span.parent, 0.0) + span.duration

    def spans(name, phase):
        return [s for s in tracer.spans if s.name == name and s.phase == phase]

    def per(total, count):
        return total / count if count else 0.0

    def op_time(name):
        return per(sum(s.duration for s in spans(name, "op")), n_ops)

    def op_count(name):
        return per(len(spans(name, "op")), n_ops)

    def op_bytes(name):
        return per(sum(s.nbytes for s in spans(name, "op")), n_ops)

    out = {}
    have = tracer.installed
    if "angular.basis" in have:
        setup_basis = sum(s.duration for s in spans("angular.basis", "setup"))
        out["angular.basis_s"] = per(setup_basis, n_setups) + op_time("angular.basis")
    if "parity.build" in have:
        out["parity.build_s"] = op_time("parity.build")
    if "parity.transform" in have:
        out["parity.transform_s"] = op_time("parity.transform")
    if "fourier.method_c" in have:
        method_c = [(i, s) for i, s in enumerate(tracer.spans)
                    if s.name == "fourier.method_c" and s.phase == "op"]
        out["fourier.method_c_s"] = per(sum(s.duration for _, s in method_c), n_ops)
        k_build = per(sum(s.duration - children.get(i, 0.0) for i, s in method_c), n_ops)
        gflop = k_build_gflop(d) * per(len(method_c), n_ops)
        out["fourier.k_build_s"] = k_build
        out["fourier.k_build_gflop"] = gflop
        out["fourier.k_build_gflop_per_s"] = gflop / k_build if k_build > 0 else 0.0
    if "fourier.accumulate" in have:
        out["fourier.accumulate_s"] = op_time("fourier.accumulate")
        out["fourier.accumulate_calls"] = op_count("fourier.accumulate")
    if "kcache.precompute" in have:
        pre = spans("kcache.precompute", "setup")
        out["kcache.precompute_s"] = per(sum(s.duration for s in pre), n_setups)
        out["kcache.bytes_written"] = per(sum(s.nbytes for s in pre), n_setups)
    if "kcache.method_d" in have:
        out["kcache.method_d_s"] = op_time("kcache.method_d")
    if "kcache.read" in have:
        read_s = op_time("kcache.read")
        read_bytes = op_bytes("kcache.read")
        out["kcache.read_s"] = read_s
        out["kcache.records_read"] = op_count("kcache.read")
        out["kcache.bytes_read"] = read_bytes
        out["kcache.read_gbps"] = read_bytes / read_s / 1e9 if read_s > 0 else 0.0
    if "sampling.fft" in have:
        out["sampling.fft_s"] = op_time("sampling.fft")
    if "sampling.oracle" in have:
        oracle = spans("sampling.oracle", "check")
        out["sampling.oracle_s"] = per(sum(s.duration for s in oracle), n_checks)
    if "gridfile.write_csv" in have:
        out["gridfile.write_csv_s"] = op_time("gridfile.write_csv")
    if "gridfile.write_bin" in have:
        out["gridfile.write_bin_s"] = op_time("gridfile.write_bin")
    if have & {"gridfile.write_csv", "gridfile.write_bin"}:
        out["gridfile.bytes_out"] = (op_bytes("gridfile.write_csv")
                                     + op_bytes("gridfile.write_bin"))
    return out


def coverage(tracer: Tracer, op_seconds: float) -> float:
    """Share of traced operation time spent inside any top-level span."""
    covered = sum(s.duration for s in tracer.spans if s.phase == "op" and s.parent is None)
    return covered / op_seconds if op_seconds > 0 else 0.0
