#!/usr/bin/env python3
"""Cold, per-layer benchmark of the MB-AVF pipeline.

Run from the repository root::

    python3 pipebench/run.py --workload vgpr_fig11 --seed 0 --seconds 36 --trace 0

Each workload drives the public pipeline API (``repro.workloads.run``,
``AvfStudy``, its lifetime and ``*_avf_batch`` methods, and
``repro.faultinject.run_campaign``) in closed-loop passes: one client
runs a pass, then the next, until ``--seconds`` are used.  Every pass
is cold: it simulates its workloads afresh on a new ``Apu`` (modelled
caches start empty) and builds new studies, so no lifetimes, canonical
ids or engine memo survive from an earlier pass.  The warm repeat of a
pass's grid on the same studies is timed on its own (``warm_s``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, read from
spans this file records around each public call plus the spans and
counters the program already emits through ``repro.obs``.  The last
line of stdout is one JSON object; the exit code is non-zero when any
output is wrong.  See ``pipebench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".pipebench_out"
PINS = HERE / "pinned.json"
#: the seed whose outputs are pinned in ``pinned.json``
PIN_SEED = 0
#: fresh interpreters started per run to measure ``setup_s``
SETUP_PROBES = 5
#: host seconds of warm repeats per untraced pass
WARM_BUDGET_S = 2.0
#: Table III fault-mode widths (1x1 .. 8x1)
TABLE_III_WIDTHS = (1, 2, 3, 4, 5, 6, 7, 8)

sys.path.insert(0, str(HERE))

from clock import REFERENCE_PROBE_S, PassClock, probe  # noqa: E402
from spans import NullRecorder, SpanRecorder, export, self_times  # noqa: E402


# -- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class AvfGrid:
    """Simulate ``benchmarks`` and evaluate a (layout x scheme x mode) grid.

    ``levels`` empty means the stacked VGPR file, else the cache levels.
    """

    benchmarks: Tuple[str, ...]
    layouts: Tuple[Tuple[str, int], ...]
    levels: Tuple[str, ...] = ()
    schemes: Tuple[str, ...] = ("parity", "secded")
    widths: Tuple[int, ...] = TABLE_III_WIDTHS


@dataclass(frozen=True)
class Campaign:
    """The Table II injection procedure on ``benchmarks``."""

    benchmarks: Tuple[str, ...]
    n_single: int = 40
    max_groups: int = 2
    widths: Tuple[int, ...] = (2, 3, 4)
    #: a run past this many cycles is a hang (golden runs take < 3000)
    max_cycles: int = 100_000


WORKLOADS = {
    # Sec. VIII design grid: parity/SEC-DED x intra-thread x2 /
    # inter-thread x4 x Table III Mx1 modes, on two Fig. 11 kernels.
    "vgpr_fig11": AvfGrid(
        benchmarks=("matmul", "histogram"),
        layouts=(("intra_thread", 2), ("inter_thread", 4)),
    ),
    # L1 + L2 grid on three access patterns: scatter (histogram),
    # strided (transpose), butterfly (fastwalsh).
    "cache_sweep": AvfGrid(
        benchmarks=("histogram", "transpose", "fastwalsh"),
        layouts=(("none", 1), ("way", 4), ("logical", 2)),
        levels=("l1", "l2"),
    ),
    # Table II campaigns inline (jobs=0) with a journal.  A pooled twin
    # (jobs=2, spawn workers) spread 12% between runs on the 2-vCPU host
    # and is left out; see README.md.
    "inject_inline": Campaign(benchmarks=("transpose", "histogram")),
}


# -- program import ----------------------------------------------------------


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src``; exit 2 if absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"pipebench: no program sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"pipebench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def build_inputs(spec, seed: int) -> Dict:
    """Everything a pass needs besides the program: configs and paths."""
    import repro.core.analysis  # noqa: F401  (imported by every pass)
    import repro.experiments  # noqa: F401
    import repro.faultinject  # noqa: F401
    from repro.core import FaultMode, Interleaving
    from repro.core.avf import AvfConfig
    from repro.core.protection import SCHEMES

    if isinstance(spec, Campaign):
        OUT_DIR.mkdir(exist_ok=True)
        journal_dir = tempfile.mkdtemp(prefix="journal-", dir=OUT_DIR)
        return {"seed": seed, "journal_dir": journal_dir}
    grids = []
    for style_name, factor in spec.layouts:
        style = Interleaving(style_name)
        preempt = style is Interleaving.INTER_THREAD
        cfgs = [
            AvfConfig(FaultMode.linear(w), SCHEMES[s],
                      due_preempts_sdc=preempt)
            for s in spec.schemes for w in spec.widths
        ]
        grids.append((f"{style_name}x{factor}", style, factor, cfgs))
    return {"grids": grids, "seed": seed}


# -- one pass ----------------------------------------------------------------


class Pass:
    """Span recording plus a speed sample after each public call."""

    def __init__(self, rec, clock: PassClock) -> None:
        self.rec = rec
        self.clock = clock

    @contextmanager
    def layer(self, name: str, **attrs) -> Iterator[Dict]:
        with self.rec.span(name, **attrs) as a:
            yield a
        self.clock.mark()


def canonical(record: Dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _avf_record(bench: str, structure: str, layout: str, res) -> Dict:
    from repro.core.intervals import Outcome

    oc = res.outcome_cycles
    false_due = oc.get(Outcome.FALSE_DUE, 0.0)
    return {
        "kind": "avf", "benchmark": bench, "structure": structure,
        "layout": layout, "mode": res.mode.name, "scheme": res.scheme,
        "n_groups": res.n_groups, "window_cycles": res.window_cycles,
        "due": oc.get(Outcome.TRUE_DUE, 0.0) + false_due,
        "false_due": false_due, "sdc": oc.get(Outcome.SDC, 0.0),
    }


def _sim_record(bench: str, run) -> Dict:
    memsys = run.apu.memsys
    return {
        "kind": "sim", "benchmark": bench,
        "cycles": run.end_cycle, "instructions": run.total_instructions,
        "l1_hits": sum(c.hits for c in memsys.l1s),
        "l1_misses": sum(c.misses for c in memsys.l1s),
        "l2_hits": memsys.l2.hits, "l2_misses": memsys.l2.misses,
    }


def _grid_records(spec: AvfGrid, inputs: Dict, bench: str, study, p: Pass,
                  warm: bool) -> List[Dict]:
    """Evaluate the grid on one study through ``*_avf_batch``."""
    out = []
    for structure in spec.levels or ("vgpr",):
        for layout, style, factor, cfgs in inputs["grids"]:
            if structure == "vgpr":
                def call(c, style=style, factor=factor):
                    return study.vgpr_avf_batch(c, style=style, factor=factor)
            else:
                def call(c, lvl=structure, style=style, factor=factor):
                    return study.cache_avf_batch(
                        lvl, c, style=style, factor=factor
                    )
            if not warm:
                with p.layer("core.avf.canon", structure=structure,
                             layout=layout):
                    call([])
            name = "core.avf.warm_batch" if warm else "core.avf.batch"
            with p.layer(name, structure=structure, layout=layout,
                         configs=len(cfgs)):
                results = call(cfgs)
            out += [_avf_record(bench, structure, layout, r) for r in results]
    return out


def avf_pass(spec: AvfGrid, inputs: Dict, p: Pass):
    """Cold pass: simulate, liveness, lifetimes, canonical ids, grid."""
    from repro.core.analysis import AvfStudy
    from repro.experiments import scaled_apu_kwargs
    from repro.workloads import run

    records: List[Dict] = []
    studies = []
    for bench in spec.benchmarks:
        with p.layer("workloads.run", benchmark=bench):
            result = run(bench, seed=inputs["seed"],
                         apu_kwargs=scaled_apu_kwargs())
        records.append(_sim_record(bench, result))
        with p.layer("arch.liveness", records=len(result.apu.records)):
            study = AvfStudy(result.apu, result.output_ranges)
        if spec.levels:
            with p.layer("core.lifetime.cache") as a:
                lts = study.l1_lifetimes() + [study.l2_lifetime()]
                a["isets"] = sum(len(lt.byte_isets) for lt in lts)
        else:
            with p.layer("core.lifetime.vgpr") as a:
                lts = study.vgpr_lifetimes()
                a["isets"] = sum(len(lt.byte_isets) for lt in lts)
        records += _grid_records(spec, inputs, bench, study, p, warm=False)
        studies.append((bench, study))
    return records, studies


def avf_warm(spec: AvfGrid, inputs: Dict, studies, p: Pass) -> List[Dict]:
    """The same grid again on the already-built studies (memo path)."""
    out = []
    for bench, study in studies:
        out += _grid_records(spec, inputs, bench, study, p, warm=True)
    return out


def _campaign_record(c) -> Dict:
    return {
        "kind": "table2", "benchmark": c.benchmark,
        "single_outcomes": dict(sorted(c.single_outcomes.items())),
        "multibit": {str(m): list(v) for m, v in sorted(c.multibit.items())},
        "n_sdc_ace_bits": c.n_sdc_ace_bits,
        "model_sdc_avf": c.model_sdc_avf,
        "failures": dict(sorted(c.failures.items())),
    }


def _run_campaign(spec: Campaign, inputs: Dict, bench: str, journal: str):
    from repro.faultinject import run_campaign

    return run_campaign(
        bench, n_single=spec.n_single, modes=spec.widths,
        max_groups_per_mode=spec.max_groups, seed=inputs["seed"],
        jobs=0, journal=journal, max_cycles=spec.max_cycles,
    )


def campaign_pass(spec: Campaign, inputs: Dict, p: Pass):
    """Cold pass: each campaign starts from an empty journal."""
    records, journals = [], []
    for bench in spec.benchmarks:
        journal = os.path.join(inputs["journal_dir"], f"{bench}.jsonl")
        if os.path.exists(journal):
            os.unlink(journal)
        with p.layer("faultinject.run_campaign", benchmark=bench):
            camp = _run_campaign(spec, inputs, bench, journal)
        records.append(_campaign_record(camp))
        journals.append((bench, journal))
    return records, journals


def campaign_warm(spec: Campaign, inputs: Dict, journals, p: Pass):
    """The same campaigns again, resumed from their complete journals."""
    out = []
    for bench, journal in journals:
        with p.layer("faultinject.resume", benchmark=bench):
            camp = _run_campaign(spec, inputs, bench, journal)
        out.append(_campaign_record(camp))
    return out


# -- correctness -------------------------------------------------------------


def _key(rec: Dict) -> Tuple:
    fields = ("kind", "benchmark", "structure", "layout", "mode", "scheme")
    return tuple(rec.get(k) for k in fields)


def n_operations(rec: Dict) -> int:
    """AVF result: one operation; Table II record: one per verdict."""
    if rec["kind"] == "avf":
        return 1
    if rec["kind"] == "table2":
        return (sum(rec["single_outcomes"].values())
                + sum(v[0] for v in rec["multibit"].values())
                + sum(rec["failures"].values()))
    return 0


def _sane(rec: Dict) -> bool:
    """AVF outcome cycles lie within the group-cycle budget."""
    if rec["kind"] != "avf":
        return True
    cap = rec["n_groups"] * rec["window_cycles"]
    return (0 <= rec["false_due"] <= rec["due"] <= cap
            and 0 <= rec["sdc"] <= cap)


def failed_operations(records: Sequence[Dict],
                      expected: Optional[Sequence[Dict]]) -> int:
    """Operations of ``records`` that are wrong.

    A record is wrong when it is implausible or differs from the
    matching ``expected`` record (byte-for-byte, as canonical JSON); all
    its operations then fail.  A mismatched simulation record fails
    every AVF result of its benchmark.  Injections that ended in a
    runtime failure (timeout, worker death...) fail on their own.
    """
    want = None if expected is None else {_key(r): canonical(r)
                                          for r in expected}
    if want is not None and len(want) != len(records):
        return sum(n_operations(r) for r in records)

    def wrong(r: Dict) -> bool:
        return not _sane(r) or (
            want is not None and want.get(_key(r)) != canonical(r))

    bad_bench = {r["benchmark"] for r in records
                 if r["kind"] == "sim" and wrong(r)}
    failed = 0
    for r in records:
        if wrong(r) or r["benchmark"] in bad_bench:
            failed += n_operations(r)
        elif r["kind"] == "table2":
            failed += sum(r["failures"].values())
    return failed


def digest(records: Sequence[Dict]) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(canonical(r).encode())
        h.update(b"\n")
    return h.hexdigest()


def load_pins(path: Path, workload: str) -> Optional[List[Dict]]:
    """Pinned records of ``workload``; None if absent or inconsistent
    with their pinned digest."""
    try:
        with open(path) as fh:
            entry = json.load(fh).get("workloads", {}).get(workload)
    except FileNotFoundError:
        return None
    if entry is None:
        return None
    records = [json.loads(r) for r in entry["records"]]
    return records if digest(records) == entry["digest"] else None


def write_pins(path: Path, workload: str, records: Sequence[Dict]) -> None:
    try:
        with open(path) as fh:
            pins = json.load(fh)
    except FileNotFoundError:
        pins = {"seed": PIN_SEED, "workloads": {}}
    pins["workloads"][workload] = {
        "digest": digest(records),
        "records": [canonical(r) for r in records],
    }
    with open(path, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- per-layer metrics -------------------------------------------------------


PER_LAYER_UNITS = {
    "workloads.run_s": "s",
    "workloads.run_calls": "count",
    "arch.sim_instructions": "count",
    "arch.sim_cycles": "count",
    "arch.kinstr_per_s": "kinstr/s",
    "arch.liveness_s": "s",
    "arch.liveness_records": "count",
    "core.lifetime.vgpr_s": "s",
    "core.lifetime.cache_s": "s",
    "core.lifetime.isets": "count",
    "core.avf.canon_s": "s",
    "core.avf.batch_s": "s",
    "core.avf.configs": "count",
    "core.avf.ms_per_config": "ms",
    "core.avf.enumerate_s": "s",
    "core.avf.classify_s": "s",
    "core.avf.integrate_s": "s",
    "avf.groups_enumerated": "count",
    "avf.unique_signatures": "count",
    "avf.regions_classified": "count",
    "avf.signature_ratio": "ratio",
    "avf.batch_cache_hits": "count",
    "avf.batch_cache_hits.warm": "count",
    "core.avf.integrate_s.warm": "s",
    "faultinject.campaign_s": "s",
    "faultinject.golden_s": "s",
    "faultinject.model_s": "s",
    "faultinject.inject_s": "s",
    "faultinject.inject_p50_ms": "ms",
    "faultinject.inject_p90_ms": "ms",
    "faultinject.inject_samples": "count",
    "faultinject.injections": "count",
    "faultinject.sim_instructions": "count",
    "runtime.task_p50_ms": "ms",
    "runtime.tasks_completed": "count",
    "runtime.retries": "count",
    "runtime.journal_bytes": "bytes",
    "unattributed_s": "s",
    "obs.trace_overhead": "ratio",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "warm_s": "s",
    "peak_rss_mb": "MB",
}


def _pct(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def layer_metrics(spans, events, counters: Dict[str, int],
                  warm_events, warm_counters: Dict[str, int],
                  records: Sequence[Dict], journal_bytes: int) -> Dict:
    """Per-layer numbers of one traced pass.

    ``spans`` are this benchmark's spans (public-call boundaries);
    ``events``/``counters`` are what ``repro.obs`` collected during the
    cold pass, ``warm_*`` during the warm repeat.
    """
    mine = self_times(spans)

    def dur(name, **match):
        return sum(e.duration for e in events if e.name == name and all(
            e.args.get(k) in v for k, v in match.items()))

    kernels = [e for e in events if e.name == "kernel"]
    injects = [e for e in events if e.name == "inject"]
    inject_iv = sorted((e.start, e.start + e.duration) for e in injects)
    kernel_s = sum(e.duration for e in kernels)
    instr = sum(e.args.get("instructions", 0) for e in kernels)
    groups = counters.get("avf.groups_enumerated", 0)
    configs = sum(s.attrs.get("configs", 0) for s in spans
                  if s.name == "core.avf.batch")
    batch_s = mine.get("core.avf.batch", 0.0)
    tasks = [e.duration for e in events if e.name == "task"]
    inj_ms = [e.duration * 1e3 for e in injects]

    def inside_inject(e) -> bool:
        return any(lo <= e.start and e.start + e.duration <= hi
                   for lo, hi in inject_iv)

    return {
        "workloads.run_s": mine.get("workloads.run", 0.0),
        "workloads.run_calls": sum(1 for s in spans
                                   if s.name == "workloads.run"),
        "arch.sim_instructions": instr,
        "arch.sim_cycles": sum(e.args.get("cycles", 0) for e in kernels),
        "arch.kinstr_per_s": instr / kernel_s / 1e3 if kernel_s else 0.0,
        "arch.liveness_s": dur("liveness"),
        "arch.liveness_records": sum(e.args.get("records", 0)
                                     for e in events if e.name == "liveness"),
        "core.lifetime.vgpr_s": dur("lifetime", structure=("vgpr",)),
        "core.lifetime.cache_s": dur("lifetime", structure=("l1", "l2")),
        "core.lifetime.isets": sum(s.attrs.get("isets", 0) for s in spans),
        "core.avf.canon_s": mine.get("core.avf.canon", 0.0),
        "core.avf.batch_s": batch_s,
        "core.avf.configs": configs,
        "core.avf.ms_per_config": batch_s * 1e3 / configs if configs else 0.0,
        "core.avf.enumerate_s": dur("enumerate"),
        "core.avf.classify_s": dur("classify"),
        "core.avf.integrate_s": dur("integrate"),
        "avf.groups_enumerated": groups,
        "avf.unique_signatures": counters.get("avf.unique_signatures", 0),
        "avf.regions_classified": counters.get("avf.regions_classified", 0),
        "avf.signature_ratio": (counters.get("avf.unique_signatures", 0)
                                / groups if groups else 0.0),
        "avf.batch_cache_hits": counters.get("avf.batch_cache_hits", 0),
        "avf.batch_cache_hits.warm": warm_counters.get(
            "avf.batch_cache_hits", 0),
        "core.avf.integrate_s.warm": sum(
            e.duration for e in warm_events if e.name == "integrate"),
        "faultinject.campaign_s": mine.get("faultinject.run_campaign", 0.0),
        "faultinject.golden_s": dur("golden"),
        "faultinject.model_s": dur("model"),
        "faultinject.inject_s": dur("singles") + dur("multibit"),
        "faultinject.inject_p50_ms": _pct(inj_ms, 0.50),
        "faultinject.inject_p90_ms": _pct(inj_ms, 0.90),
        "faultinject.inject_samples": len(inj_ms),
        "faultinject.injections": sum(n_operations(r) for r in records
                                      if r["kind"] == "table2"),
        "faultinject.sim_instructions": sum(
            e.args.get("instructions", 0) for e in kernels
            if inside_inject(e)),
        "runtime.task_p50_ms": _pct(tasks, 0.50) * 1e3,
        "runtime.tasks_completed": counters.get("runtime.tasks_completed", 0),
        "runtime.retries": counters.get("runtime.retries", 0),
        "runtime.journal_bytes": journal_bytes,
        # the pass root's self time: what no layer span explains
        "unattributed_s": mine.get("pass", 0.0),
    }


# -- the run -----------------------------------------------------------------


@dataclass
class PassResult:
    wall: float       # calibrated (untraced) or plain (traced) seconds
    raw: float        # plain wall seconds
    warm: List[float]
    peak_mb: float
    records: List[Dict]
    warm_records: List[List[Dict]]
    layers: Optional[Dict] = None


def run_pass(spec, inputs: Dict, traced: bool, run_id: str,
             calibrate: bool, rec_sink: Optional[List] = None) -> PassResult:
    """One cold pass plus its warm repeats (one when traced)."""
    from repro import obs

    rec = SpanRecorder(run_id) if traced else NullRecorder()
    is_avf = isinstance(spec, AvfGrid)
    clock = PassClock(calibrate)
    p = Pass(rec, clock)
    if traced:
        registry, tracer = obs.enable()
    # Each timed stretch starts with no garbage left by the previous one;
    # collections the stretch itself triggers are still timed.
    gc.collect()
    clock.start()
    with rec.span("pass", run=run_id):
        if is_avf:
            records, state = avf_pass(spec, inputs, p)
        else:
            records, state = campaign_pass(spec, inputs, p)
    clock.stop()
    wall, raw = clock.total, clock.raw
    # the process's peak resident set so far (KiB on Linux)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cold_spans = list(rec.spans)
    journal_bytes = 0 if is_avf else sum(
        os.path.getsize(j) for _, j in state)
    if traced:
        events, counters = tracer.events, registry.snapshot()["counters"]
        registry, tracer = obs.enable()
    # Warm repeats run for WARM_BUDGET_S of host time (one if traced).
    warm, warm_records = [], []
    gc.collect()
    warm_start = time.perf_counter()
    while not warm or (
            not traced and time.perf_counter() - warm_start < WARM_BUDGET_S):
        i = len(warm)
        clock.start()
        with rec.span("warm", run=run_id, repeat=i):
            if is_avf:
                warm_records.append(avf_warm(spec, inputs, state, p))
            else:
                warm_records.append(campaign_warm(spec, inputs, state, p))
        clock.stop()
        warm.append(clock.total)
    layers = None
    if traced:
        layers = layer_metrics(
            cold_spans, events, counters, tracer.events,
            registry.snapshot()["counters"], records, journal_bytes,
        )
        obs.disable()
        if rec_sink is not None:
            rec_sink.extend(rec.spans)
    return PassResult(wall, raw, warm, peak_mb, records, warm_records,
                      layers)


def measure_setup(workload: str, seed: int, n: int) -> List[float]:
    """Seconds from interpreter launch to the first timed call, n times.

    Each launch starts a fresh interpreter that imports the program and
    builds the workload's inputs, then reports ready.  The launch times
    are scaled by the host speed of the whole measurement (the median of
    calibration probes run between launches): single launches are too
    short to calibrate one by one.
    """
    launches, probes = [], [probe()]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                cwd=str(ROOT))
        try:
            ready = proc.stdout.readline()
            launches.append(time.perf_counter() - t0)
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if ready.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code})")
        probes += [probe() for _ in range(3)]
    scale = REFERENCE_PROBE_S / statistics.median(probes)
    return [t * scale for t in launches]


def _median(v: Sequence[float]) -> float:
    return statistics.median(v) if v else 0.0


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=PIN_SEED)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-pins", action="store_true",
                    help="run one pass at the pinned seed and record it")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    spec = WORKLOADS[args.workload]

    import_program()
    inputs = build_inputs(spec, args.seed)
    try:
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.write_pins:
            if args.seed != PIN_SEED:
                ap.error(f"pins are recorded at --seed {PIN_SEED}")
            res = run_pass(spec, inputs, False, "pin", calibrate=False)
            write_pins(PINS, args.workload, res.records)
            print(f"pinned {len(res.records)} records of {args.workload}: "
                  f"{digest(res.records)}")
            return 0
        return _measure(args, spec, inputs)
    finally:
        if "journal_dir" in inputs:
            shutil.rmtree(inputs["journal_dir"], ignore_errors=True)


def _measure(args, spec, inputs) -> int:
    setup = ([] if args.trace
             else measure_setup(args.workload, args.seed, SETUP_PROBES))
    expected = (load_pins(PINS, args.workload)
                if args.seed == PIN_SEED else None)
    pinned_missing = args.seed == PIN_SEED and expected is None
    traced_passes: List[PassResult] = []
    untraced: List[PassResult] = []
    spans: List = []
    attempted = failed = 0
    # Every pass must reproduce the pinned outputs or, at other seeds,
    # the first pass's; every warm repeat must reproduce its cold pass.
    reference = expected
    first_digest = None
    deadline = time.perf_counter() + args.seconds
    n = 0
    while True:
        t0 = time.perf_counter()
        # A traced run alternates untraced and traced passes so that the
        # tracing overhead is measured under the same host conditions.
        traced = bool(args.trace) and n % 2 == 1
        res = run_pass(
            spec, inputs, traced, f"{args.workload}-{args.seed}-{n}",
            calibrate=not args.trace, rec_sink=spans,
        )
        n += 1
        (traced_passes if traced else untraced).append(res)
        if first_digest is None:
            first_digest = digest(res.records)
        failed += failed_operations(res.records, reference)
        warm_ref = [r for r in (reference or res.records)
                    if r["kind"] != "sim"]
        for recs in [res.records] + res.warm_records:
            attempted += sum(n_operations(r) for r in recs)
        for recs in res.warm_records:
            failed += failed_operations(recs, warm_ref)
        if reference is None and not pinned_missing:
            reference = res.records
        step = time.perf_counter() - t0
        if args.trace and not (traced_passes and untraced):
            continue
        if time.perf_counter() + step > deadline:
            break
    if pinned_missing:
        print(f"no valid pinned outputs for {args.workload} in {PINS}",
              file=sys.stderr)
        failed = attempted

    print(f"workload {args.workload} seed {args.seed}: {n} cold passes, "
          f"closed loop, 1 client; modelled caches start empty on a "
          f"fresh Apu every pass")
    print(f"digest {first_digest}"
          + ("" if expected is None else " (checked against pinned outputs)"))
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
        export(spans, str(path))
        print(f"spans written to {path.relative_to(ROOT)}")
        metrics = {}
        for name, unit in PER_LAYER_UNITS.items():
            if name == "obs.trace_overhead":
                value = (_median([r.raw for r in traced_passes])
                         / _median([r.raw for r in untraced]))
            else:
                value = _median([r.layers[name] for r in traced_passes])
            metrics[name] = {"value": value, "unit": unit}
    else:
        walls = sorted(r.wall for r in untraced)
        k = len(walls)
        tail = (f"p{100 * (k - 10) // k} {walls[k - 11]:.4f} s" if k > 10
                else "no percentile has >= 10 samples beyond it")
        print(f"wall_s median over n={k} passes; {tail}; raw wall median "
              f"{_median([r.raw for r in untraced]):.4f} s")
        values = {
            "setup_s": _median(setup),
            "wall_s": _median(walls),
            "warm_s": _median([w for r in untraced for w in r.warm]),
            # Read after the first pass of a fresh process: later passes
            # start from a heap the earlier ones fragmented.
            "peak_rss_mb": untraced[0].peak_mb,
        }
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
