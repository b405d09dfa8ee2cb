"""Checks of the benchmark itself: seeded inputs and a short smoke run.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from hostspeed import KERNELS, Meter  # noqa: E402
from inputs import serve_inputs, sweep_inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _lines(inputs) -> list[bytes]:
    return inputs.prefill_lines + [
        line for pool in inputs.chunk_lines for line in pool
    ]


@pytest.mark.parametrize("workload", ["hop-stream", "dwell-window"])
def test_same_seed_gives_byte_identical_request_lines(workload):
    first = _lines(serve_inputs(workload, seed=7))
    assert first == _lines(serve_inputs(workload, seed=7))
    assert first != _lines(serve_inputs(workload, seed=8))


def test_hop_stream_windows_follow_the_block_lattice():
    inputs = serve_inputs("hop-stream", seed=3)
    config = inputs.config
    stream = inputs.samples[0]
    # After the first steady-state chunk the session holds N blocks and
    # its window is the head of the stream.
    window = inputs.window(0, config.num_blocks, index=0)
    np.testing.assert_array_equal(window, stream[: config.samples_per_decision])
    line, index = inputs.chunk_line(0, 0)
    sent = json.loads(line)["samples"]
    hop = config.hop
    expected = stream[config.samples_per_decision - hop :][:hop]
    assert index * hop == config.samples_per_decision - hop
    np.testing.assert_array_equal(sent[0::2], expected.real)


def test_sweep_seed_permutes_but_keeps_the_trial_set():
    first, again, other = sweep_inputs(4), sweep_inputs(4), sweep_inputs(5)
    np.testing.assert_array_equal(first.noise, again.noise)
    assert first.snr_order == again.snr_order
    assert not np.array_equal(first.noise, other.noise)
    for snr, trials in first.h1.items():
        flat = np.sort_complex(trials.ravel())
        np.testing.assert_array_equal(flat, np.sort_complex(other.h1[snr].ravel()))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_workload_has_a_host_speed_kernel(workload):
    assert workload in KERNELS
    speed = Meter(workload).speed()
    assert 0.0 < speed < float("inf")


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct_and_reports_every_end_to_end_metric(workload):
    result = _run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["hop-stream", "pd-sweep"])
def test_traced_smoke_run_reports_every_per_layer_metric(workload):
    result = _run(workload, trace=1)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_refuses_to_run_without_the_repository(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    (bare / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for source in HERE.glob("*.py"):
        (bare / "perfbench" / source.name).write_text(source.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pd-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
