"""The perf guard and the benchmark timer, on synthetic inputs.

``benchmarks/check_perf_regression.py`` gates CI on the committed
``BENCH_*.json`` baselines and ``benchmarks/_timing.py`` takes every
timing in them; both are checked here on hand-made JSON and fake
clocks, so the file stays fast.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        name, BENCHMARKS / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


guard = _load("check_perf_regression")
timing = _load("_timing")


def _row(seconds: float, fft_size: int = 32, **extra) -> dict:
    return {"fft_size": fft_size, "seconds_per_estimate": seconds, **extra}


def _run(tmp_path: Path, baseline: dict, current: dict, *args: str) -> int:
    for side, payload in (("baseline", baseline), ("current", current)):
        directory = tmp_path / side
        directory.mkdir(exist_ok=True)
        (directory / "BENCH_x.json").write_text(json.dumps(payload))
    return guard.main(
        [
            "--baseline", str(tmp_path / "baseline"),
            "--current", str(tmp_path / "current"),
            *args,
        ]
    )


def _rows(factors: dict) -> dict:
    """Rows ``a``..``e`` at 1 ms, each scaled by its entry in *factors*."""
    return {name: _row(1e-3 * factors.get(name, 1.0)) for name in "abcde"}


class TestGuard:
    def test_default_tolerance_is_two(self, tmp_path):
        assert _run(tmp_path, _rows({}), _rows({"a": 1.9})) == 0
        assert _run(tmp_path, _rows({}), _rows({"a": 2.1})) == 1

    def test_one_row_slowed_1_6x_among_five_fails(self, tmp_path):
        slower = _rows({"c": 1.6})
        assert _run(tmp_path, _rows({}), slower, "--tolerance", "1.5") == 1

    def test_uniform_1_4x_slowdown_passes(self, tmp_path):
        slower = _rows({name: 1.4 for name in "abcde"})
        assert _run(tmp_path, _rows({}), slower, "--tolerance", "1.5") == 0

    def test_uniform_slowdown_is_normalised_by_the_median(self, tmp_path):
        slower = _rows({name: 1.6 for name in "abcde"})
        assert _run(tmp_path, _rows({}), slower, "--tolerance", "1.5") == 0
        assert (
            _run(tmp_path, _rows({}), slower, "--tolerance", "1.5",
                 "--calibrate", "none")
            == 1
        )

    def test_peak_bytes_compared_absolutely(self, tmp_path):
        baseline = {**_rows({}), "memory": {"peak_bytes": 1 << 20}}
        # Timings twice as fast (a faster host) must not make an
        # unchanged peak read 2x through the speed normalisation.
        faster = {
            **_rows({name: 0.5 for name in "abcde"}),
            "memory": {"peak_bytes": 1 << 20},
        }
        assert _run(tmp_path, baseline, faster, "--tolerance", "1.5") == 0
        grown = {**_rows({}), "memory": {"peak_bytes": int(1.6 * (1 << 20))}}
        assert _run(tmp_path, baseline, grown, "--tolerance", "1.5") == 1

    @pytest.mark.parametrize(
        "current",
        [
            # operating point changed
            {**_rows({}), "f": _row(1e-3, fft_size=64)},
            # retired entry
            _rows({}),
            # timing key absent from the current run
            {**_rows({}), "f": {"fft_size": 32}},
        ],
        ids=["operating-point", "retired", "key-absent"],
    )
    def test_skipped_row_fails_unless_full_only(
        self, tmp_path, current, capsys
    ):
        baseline = {**_rows({}), "f": _row(1e-3)}
        assert _run(tmp_path, baseline, current) == 1
        assert "UNCOMPARED" in capsys.readouterr().out
        baseline["f"]["full_only"] = True
        assert _run(tmp_path, baseline, current) == 0

    def test_new_entry_fails(self, tmp_path):
        assert _run(tmp_path, _rows({}), {**_rows({}), "f": _row(1e-3)}) == 1

    def test_file_on_one_side_only_fails(self, tmp_path):
        assert _run(tmp_path, _rows({}), _rows({})) == 0
        extra = tmp_path / "current" / "BENCH_y.json"
        extra.write_text(json.dumps(_rows({})))
        assert guard.main(
            ["--baseline", str(tmp_path / "baseline"),
             "--current", str(tmp_path / "current")]
        ) == 1


class _Host:
    """A fake host for the timer: ``perf_counter`` reads ``now``; a
    timed call advances it by ``step`` seconds and the n-th
    reference-kernel probe by ``ops[n % len(ops)]`` seconds, so a probe
    reads ``nominal_s / op`` (0.6 for the default 1 s); ``Meter.speed``
    reads 0.5, then 0.7."""

    nominal_s = 0.6

    def __init__(self, step: float, ops=(1.0,)):
        self.now = 0.0
        self.step = step
        self.ops = ops
        self.calls = 0
        self.probes = 0
        self.readings = [0.5, 0.7]

    def perf_counter(self) -> float:
        return self.now

    def work(self) -> None:
        self.calls += 1
        self.now += self.step

    def kernel(self) -> None:
        self.now += self.ops[self.probes % len(self.ops)]
        self.probes += 1

    def speed(self) -> float:
        return self.readings.pop(0)


@pytest.fixture
def fake_host(monkeypatch):
    """Install a :class:`_Host` (built with the given step and probe
    time) as the timer's clock and meter; the pin is a no-op."""
    monkeypatch.setattr(timing, "pin", lambda: None)

    def install(step: float, ops=(1.0,)) -> _Host:
        host = _Host(step, ops)
        monkeypatch.setattr(timing, "METER", host)
        monkeypatch.setattr(timing.time, "perf_counter", host.perf_counter)
        return host

    return install


class TestTimer:
    def test_min_calls_when_the_budget_is_spent_at_once(self, fake_host):
        host = fake_host(10.0)
        times = timing.call_seconds(host.work, budget=1.0)
        assert host.calls == timing.MIN_CALLS
        assert times.shape == (timing.MIN_CALLS, 1)
        # Calls longer than a slice: a probe either side of each.
        assert host.probes == timing.MIN_CALLS + 1

    def test_budget_when_calls_are_short(self, fake_host):
        host = fake_host(1e-3, ops=(1e-5,))
        timing.call_seconds(host.work, budget=1.0)
        assert host.calls == pytest.approx(1000, abs=5)
        assert host.probes == pytest.approx(timing.PROBES + 1, abs=2)

    def test_median_scaled_by_the_probed_host_speed(self, fake_host):
        host = fake_host(2.0)
        median = timing.median_seconds(host.work, budget=0.0)
        assert median == pytest.approx(1.2)

    def test_each_slice_scaled_by_its_own_probes(self, fake_host):
        # Probes read 0.6, 1.2, 0.4, 0.6: each call is scaled by the mean
        # of the two either side of it (0.9, 0.8, 0.5).
        host = fake_host(1.0, ops=(1.0, 0.5, 1.5))
        times = timing.call_seconds(host.work, budget=0.0)
        assert times.ravel().tolist() == pytest.approx([0.9, 0.8, 0.5])

    def test_functions_alternate_within_each_round(self, fake_host):
        order = []
        host = fake_host(1.0)
        times = timing.call_seconds(
            lambda: (order.append("a"), host.work()),
            lambda: (order.append("b"), host.work(), host.work()),
            setup=lambda: order.append("setup"),
            budget=0.0,
        )
        assert order == ["setup", "a", "b"] * timing.MIN_CALLS
        assert times.tolist() == [pytest.approx([0.6, 1.2])] * timing.MIN_CALLS

    def test_nominal_reads_the_host_around_the_run(self, fake_host):
        fake_host(1.0)
        result, factor = timing.nominal(lambda: "ran")
        assert (result, factor) == ("ran", pytest.approx(0.6))

    def test_scaled_multiplies_seconds_and_divides_rates(self):
        row = {
            "fft_size": 32,
            "p99_latency_seconds": 2.0,
            "requests_per_second": 10.0,
            "throughput_rps": 4.0,
        }
        assert timing.scaled(row, 0.5) == {
            "fft_size": 32,
            "p99_latency_seconds": 1.0,
            "requests_per_second": 20.0,
            "throughput_rps": 8.0,
        }

    def test_full_only_marks_every_row(self):
        section = {"a": {"x": {"seconds_per_estimate": 1.0}}, "b": _row(1.0)}
        timing.full_only(section)
        assert section["a"]["x"]["full_only"] and section["b"]["full_only"]
        assert "full_only" not in section and "full_only" not in section["a"]

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="no CPU affinity"
    )
    def test_pin_leaves_one_cpu_and_one_blas_thread(self):
        # all_cpus gives the block every CPU the process started with,
        # still on one BLAS thread, and pins one CPU again after it.
        script = (
            "import os, sys; sys.path.insert(0, sys.argv[1]);"
            "import _timing;"
            "from repro._compute import _openblas_thread_calls;"
            "calls = _openblas_thread_calls();"
            "threads = lambda: calls[1]() if calls else 1;"
            "cpus = lambda: len(os.sched_getaffinity(0));"
            "_timing.pin(); pinned = (cpus(), threads());"
            "ctx = _timing.all_cpus(); ctx.__enter__();"
            "spread = (cpus(), threads()); ctx.__exit__(None, None, None);"
            "print(*pinned, *spread, cpus(), _timing.CPUS)"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        output = subprocess.run(
            [sys.executable, "-c", script, str(BENCHMARKS)],
            capture_output=True, text=True, env=env, check=True,
        ).stdout
        host = str(len(os.sched_getaffinity(0)))
        assert output.split() == ["1", "1", host, "1", "1", host]
