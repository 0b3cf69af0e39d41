"""Tests of the pipeline benchmark itself, on a tiny grid.

Run from the repository root::

    python3 -m pytest pipebench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from clock import PassClock  # noqa: E402
from spans import Span, covered, self_times  # noqa: E402

bench.import_program()

TINY = {
    "tiny_avf": bench.AvfGrid(
        benchmarks=("vectoradd",), layouts=(("none", 1),), levels=("l1",),
        schemes=("parity",), widths=(1, 2),
    ),
    "tiny_inject": bench.Campaign(
        benchmarks=("vectoradd",), n_single=3, max_groups=1,
        widths=(2,),
    ),
}


@pytest.fixture
def tiny(monkeypatch):
    """Register the tiny workloads; set-up probes return a fixed time."""
    for name, spec in TINY.items():
        monkeypatch.setitem(bench.WORKLOADS, name, spec)
    monkeypatch.setattr(bench, "measure_setup", lambda w, s, n: [0.5] * n)


def _run(capsys, *argv):
    code = bench.main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1])


def test_benchmark_json_matches_emitted_names():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        bench.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_emitted_with_unit(tiny, capsys, workload, trace):
    code, result = _run(capsys, "--workload", workload, "--seed", "3",
                        "--seconds", "1", "--trace", trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    units = bench.PER_LAYER_UNITS if trace == "1" else bench.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_doctored_pins_fail_the_run(tiny, capsys, tmp_path, monkeypatch):
    pins = tmp_path / "pins.json"
    monkeypatch.setattr(bench, "PINS", pins)
    code = bench.main(["--workload", "tiny_avf", "--seed", "0",
                       "--write-pins"])
    assert code == 0
    capsys.readouterr()
    args = ("--workload", "tiny_avf", "--seed", "0", "--seconds", "1")
    code, good = _run(capsys, *args)
    assert code == 0 and good["correct"] and good["failed"] == 0

    data = json.loads(pins.read_text())
    entry = data["workloads"]["tiny_avf"]
    entry["digest"] = "0" * 64
    pins.write_text(json.dumps(data))
    code, bad = _run(capsys, *args)
    assert code == 1 and not bad["correct"]
    assert bad["failed"] == bad["attempted"]

    # One doctored AVF result (digest kept consistent) fails just that
    # result in every cold pass and warm repeat.
    recs = [json.loads(r) for r in entry["records"]]
    victim = next(r for r in recs if r["kind"] == "avf")
    victim["sdc"] += 1.0
    entry["records"] = [bench.canonical(r) for r in recs]
    entry["digest"] = bench.digest(recs)
    pins.write_text(json.dumps(data))
    code, bad = _run(capsys, *args)
    assert code == 1 and not bad["correct"]
    assert 0 < bad["failed"] < bad["attempted"]


def test_cold_pass_reuses_no_memo():
    spec = TINY["tiny_avf"]
    inputs = bench.build_inputs(spec, 3)
    first = bench.run_pass(spec, inputs, True, "a", calibrate=False)
    second = bench.run_pass(spec, inputs, True, "b", calibrate=False)
    a, b = first.layers, second.layers
    # A memo surviving from the first pass would add hits and skip
    # enumerations in the second.
    assert a["avf.batch_cache_hits"] == b["avf.batch_cache_hits"]
    assert a["avf.groups_enumerated"] == b["avf.groups_enumerated"] > 0
    assert a["core.avf.enumerate_s"] > 0 and b["core.avf.enumerate_s"] > 0
    assert b["workloads.run_calls"] == len(spec.benchmarks)
    # The warm repeat is served from the memo.
    assert b["avf.batch_cache_hits.warm"] > b["avf.batch_cache_hits"]
    assert first.records == second.records
    assert first.warm_records[0] == [
        r for r in first.records if r["kind"] != "sim"
    ]


def test_first_engine_call_of_a_cold_pass_hits_no_memo():
    from repro import obs

    spec = TINY["tiny_avf"]
    inputs = bench.build_inputs(spec, 3)
    bench.run_pass(spec, inputs, False, "a", calibrate=False)
    registry, _ = obs.enable()
    try:
        from repro.core.analysis import AvfStudy
        from repro.experiments import scaled_apu_kwargs
        from repro.workloads import run

        result = run("vectoradd", seed=3, apu_kwargs=scaled_apu_kwargs())
        study = AvfStudy(result.apu, result.output_ranges)
        _, style, factor, cfgs = inputs["grids"][0]
        study.cache_avf_batch("l1", cfgs[:1], style=style, factor=factor)
        hits = registry.snapshot()["counters"].get("avf.batch_cache_hits", 0)
    finally:
        obs.disable()
    assert hits == 0


def _timed(work: int) -> float:
    clock = PassClock(calibrate=True)
    clock.start()
    acc = 0
    for i in range(work):
        acc += (i * 7) % 13
    clock.stop()
    return clock.total


def test_calibrated_clock_keeps_a_fixed_slowdown():
    # Doubled fixed work must read about twice as long after calibration;
    # the runs are interleaved so both see the same host speed drift.
    single = double = 0.0
    for _ in range(3):
        single += _timed(4_000_000)
        double += _timed(8_000_000)
    assert 1.6 < double / single < 2.4


def test_self_time_and_unattributed():
    spans = [
        Span(0, None, "pass", 0.0, 10.0, "r", {}),
        Span(1, 0, "workloads.run", 1.0, 3.0, "r", {}),
        Span(2, 0, "core.avf.batch", 2.5, 6.0, "r", {}),
        Span(3, 2, "inner", 3.0, 4.0, "r", {}),
    ]
    assert covered([(1.0, 3.0), (2.5, 6.0)]) == pytest.approx(5.0)
    st = self_times(spans)
    assert st["pass"] == pytest.approx(5.0)  # the unattributed time
    assert st["core.avf.batch"] == pytest.approx(2.5)
    assert st["workloads.run"] == pytest.approx(2.0)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "vgpr_fig11",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
