"""Smoke test of the benchmark itself at tiny size (d = 8, n = 32).

Runs one operation of each workload, timed and traced, and checks that the
metric names match BENCHMARK.json, that nothing failed, and that the oracle
check rejects a perturbed grid.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import harness  # noqa: E402
import spinphase.fourier as fourier  # noqa: E402
from spinphase.angular import SpinDimension  # noqa: E402
from spinphase.parity import build_parity  # noqa: E402
from spinphase.sampling import sample_fft  # noqa: E402
from spinphase.states import random_density  # noqa: E402

TINY = {name: replace(spec, d=8, n=32) for name, spec in harness.WORKLOADS.items()}


def test_benchmark_json_matches_harness():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == harness.E2E_UNITS
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == harness.LAYER_UNITS


@pytest.mark.parametrize("name", sorted(TINY))
def test_one_operation_of_each_workload(name, tmp_path):
    spec = TINY[name]
    timed = harness.measure(spec, seed=3, seconds=0, trace=False, workdir=tmp_path, src=SRC)
    assert timed.log.attempted == 1 and timed.log.failed == 0, timed.log.errors
    assert set(timed.metrics) == set(harness.E2E_UNITS)
    assert all(value > 0 for value in timed.metrics.values())

    original = fourier.accumulate_row
    traced = harness.measure(spec, seed=3, seconds=0, trace=True, workdir=tmp_path, src=SRC)
    assert fourier.accumulate_row is original  # wrappers are removed again
    assert traced.log.failed == 0, traced.log.errors
    assert set(traced.metrics) == set(harness.LAYER_UNITS)
    assert traced.metrics["fourier.accumulate_calls"] > 0
    assert traced.metrics["sampling.fft_s"] > 0
    if spec.kind == "d":
        assert traced.metrics["kcache.records_read"] == 2 * spec.d - 1
    if spec.kind == "cli":
        assert traced.metrics["gridfile.write_csv_s"] > 0
        assert traced.metrics["cli.import_s"] > 0


def test_oracle_check_rejects_perturbed_grid():
    dim = SpinDimension.from_d(8)
    rho = random_density(dim, 5)
    par = build_parity(dim, 0.0)
    grid = sample_fft(fourier.fourier_coefficients_method_c(rho, par), 32)
    nodes = [(3, 7), (10, 20), (31, 0)]
    assert harness.check_values(grid.values, rho, par, nodes) <= harness.TOLERANCE
    with pytest.raises(harness.CheckError):
        harness.check_values(grid.values * (1 + 1e-6), rho, par, nodes)


def test_tail_latency_needs_ten_samples_beyond():
    assert harness.tail_latency([1.0] * 19) is None
    percentile, value = harness.tail_latency([float(i) for i in range(40)])
    assert percentile == 75.0 and value == 29.0
