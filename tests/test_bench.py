import io

import pytest

from spinphase.angular import SpinDimension
from spinphase.bench import default_grid_size, run_bench
from spinphase.kcache import cache_directory, precompute_cache


def test_default_grid_size_rule():
    assert default_grid_size(SpinDimension.from_d(10)) == 512
    assert default_grid_size(SpinDimension.from_d(300)) == 1024
    assert default_grid_size(SpinDimension.from_d(257)) == 1024


def test_run_bench_rows_and_slopes(tmp_path):
    for d in (6, 12):
        precompute_cache(SpinDimension.from_d(d), 0.0,
                         cache_directory(tmp_path, d, 0.0))
    report = run_bench([6, 12], methods=("b", "c", "d"), repetitions=3,
                       cache_root=tmp_path, measure_memory=True)
    assert len(report.rows) == 6
    for row in report.rows:
        assert row.status == "ok"
        assert row.time_s > 0 and row.fft_s > 0
        assert row.peak_mem_mb > 0
    assert set(report.slopes) == {"b", "c", "d"}
    buf = io.StringIO()
    report.to_csv(buf)
    text = buf.getvalue()
    assert text.startswith("method,d,time_s")
    assert "# loglog_slope" in text


def test_report_states_the_thread_pin(monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    unset = run_bench([6], methods=("c",), repetitions=3, measure_memory=False)
    assert unset.thread_pin == "unset"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    pinned = run_bench([6, 8], methods=("c",), repetitions=3, measure_memory=False)
    assert pinned.thread_pin == "1"
    buf = io.StringIO()
    pinned.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "method,d,time_s,fft_s,peak_mem_mb,status"
    assert lines[-2].startswith("# loglog_slope c ")
    assert lines[-1] == "# thread_pin 1"


def test_run_bench_skips_missing_cache(tmp_path):
    report = run_bench([6], methods=("d",), repetitions=3, cache_root=tmp_path)
    assert report.rows[0].status == "skipped"
    assert "d" not in report.slopes


def test_run_bench_validates_arguments():
    with pytest.raises(ValueError, match="repetitions"):
        run_bench([6], methods=("c",), repetitions=2)
    with pytest.raises(ValueError, match="unknown method"):
        run_bench([6], methods=("q",), repetitions=3)


def test_bench_medians_are_stable(tmp_path):
    # Harness sanity: medians of repeated runs agree within 50 percent.
    # A 0.17-0.2 s workload and 5 repetitions keep scheduler noise well below that.
    t1 = run_bench([24], methods=("b",), repetitions=5,
                   measure_memory=False).rows[0].time_s
    t2 = run_bench([24], methods=("b",), repetitions=5,
                   measure_memory=False).rows[0].time_s
    assert abs(t1 - t2) / min(t1, t2) < 0.5
