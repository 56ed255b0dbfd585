"""The workloads check their own outputs, and their counts repeat."""

import json
import shutil
from array import array
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from hostspeed import HostSpeed

SMALL = {"echo_chain3": 40, "stream_2net": 400, "churn_2net": 8}


def _small(name):
    workload = workloads.make(name)
    workload.ops_per_round = SMALL[name]
    return workload


@pytest.mark.parametrize("name", sorted(SMALL))
def test_a_round_passes_its_own_checks(name):
    done, _ = run.one_round(_small(name), seed=1, index=0)
    result = done.result
    assert result.errors == []
    assert result.attempted == SMALL[name]
    assert len(result.latency_ns) == SMALL[name]
    assert result.payload_bytes > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_and_wire_repeat_exactly_for_the_same_seed(name):
    first, wire1 = run.one_round(_small(name), seed=9, index=2, wire=True)
    second, wire2 = run.one_round(_small(name), seed=9, index=2, wire=True)
    assert first.counts == second.counts
    assert wire1 == wire2
    assert first.result.virtual_s == second.result.virtual_s


def test_inputs_follow_the_seed():
    workload = workloads.make("stream_2net")
    assert (workload.inputs(run.round_rng(4, 0))
            == workload.inputs(run.round_rng(4, 0)))
    assert (workload.inputs(run.round_rng(4, 0))
            != workload.inputs(run.round_rng(5, 0)))


def test_echo_chain3_wire_counts():
    done, _ = run.one_round(_small("echo_chain3"), seed=1, index=0)
    ops = done.result.attempted
    assert done.counts["net.frames_sent"] == 16 * ops
    assert list(done.result.virtual_s) == [pytest.approx(0.008)] * ops


def _arrivals(payloads, order=None):
    order = range(len(payloads)) if order is None else order
    return [(0, 0.0, "src", seq, payloads[seq]) for seq in order]


def test_stream_check_accepts_a_complete_in_order_delivery():
    sent = [bytes([i]) * (i + 1) for i in range(5)]
    assert workloads.check_stream(sent, _arrivals(sent)) == []


@pytest.mark.parametrize("order", [[0, 1, 3, 4], [0, 2, 1, 3, 4],
                                   [0, 1, 2, 3, 4, 4]])
def test_stream_check_catches_loss_reordering_and_duplicates(order):
    sent = [bytes([i]) * (i + 1) for i in range(5)]
    assert workloads.check_stream(sent, _arrivals(sent, order))


def test_stream_check_catches_corrupted_payloads():
    sent = [bytes([i]) * (i + 1) for i in range(5)]
    arrivals = _arrivals(sent)
    arrivals[2] = (0, 0.0, "src", 2, b"\xff" * 3)
    assert workloads.check_stream(sent, arrivals) == [
        "delivered payload digest differs from the sent one"]


def test_churn_check_catches_a_module_left_registered():
    workload = _small("churn_2net")
    session = workload.setup()
    module = session.bed.module("left.behind", "apollo1")
    errors = workloads.check_lifecycles(
        session.bed, [("left.behind", module.ali.uadd),
                      ("never.born", None)])
    assert errors == ["left.behind: still registered after its process died",
                      "never.born: never registered"]


def test_report_line_has_exactly_the_contract_keys(capsys):
    done, _ = run.one_round(_small("echo_chain3"), seed=1, index=0)
    metrics, errors = run.end_to_end([done])
    run.emit("echo_chain3", metrics, errors, [], done.result.attempted)
    lines = capsys.readouterr().out.strip().splitlines()
    for name in ("ops_per_s", "latency_us_p50", "latency_us_p99",
                 "virtual_ms_p50", "goodput_kB_per_s", "error_rate",
                 "setup_s", "peak_rss_mb"):
        assert any(line.split()[0] == name for line in lines[:-1]), name
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = json.loads(
        (Path(run.ROOT) / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    here = Path(run.__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "echo_chain3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_workload_names_agree_everywhere():
    declared = json.loads(
        (Path(run.ROOT) / "BENCHMARK.json").read_text())["workloads"]
    assert (set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
            == {w["name"] for w in declared})


def test_host_speed_helper_answers_and_stops():
    with HostSpeed() as host:
        assert 0 < host.slowdown() < 100
        proc = host._proc
    assert proc.poll() is not None


def _synthetic(ops, wall_s, slowdown, setup_s):
    result = workloads.RoundResult(
        attempted=ops, latency_ns=array("q", [int(wall_s * 1e9 / ops)] * ops),
        virtual_s=array("d", [0.001] * ops), wall_ns=int(wall_s * 1e9),
        payload_bytes=ops * 10, errors=[])
    done = run.Round(setup_s, result, {})
    done.slowdown = slowdown
    return done


def test_timed_metrics_are_at_reference_host_speed():
    # The same work measured at full speed and on a host twice as slow.
    fast = _synthetic(1000, 1.0, 1.0, 0.05)
    slow = _synthetic(1000, 2.0, 2.0, 0.10)
    metrics, _ = run.end_to_end([fast, slow])
    assert metrics["ops_per_s"][0] == pytest.approx(1000.0)
    assert metrics["goodput_kB_per_s"][0] == pytest.approx(10.0)
    assert metrics["latency_us_p50"][0] == pytest.approx(1000.0)
    assert metrics["setup_s"][0] == pytest.approx(0.05)
    assert metrics["ops_per_s"][2].startswith("raw 666.")
