"""Fault-injection campaigns: the Table II ACE-interference study.

The paper validates its SDC MB-AVF model (Sec. VII-A) by checking how often
*ACE interference* occurs — a multi-bit fault whose bits interact at program
level such that the group's outcome differs from what the single-bit
ACEness of its members predicts (e.g. two flips cancelling in an XOR).

The study proceeds exactly as in the paper:

1. random single-bit injections into the VGPR identify SDC ACE bits
   (injections whose corrupted output differs from the golden output);
2. multi-bit fault groups are formed from each SDC ACE bit plus physically
   adjacent bits, and injected as one simultaneous flip;
3. a group exhibits ACE interference when the multi-bit injection is
   *masked* even though it contains a known SDC ACE bit.

The paper finds 2 interfering groups out of 1730 SDC ACE bits (~0.1%),
concluding single-bit ACE analysis is a sound basis for SDC MB-AVF.

Each injection resumes from a golden snapshot instead of re-simulating
from cycle 0, and stops as soon as its state converges back to golden
(:mod:`repro.faultinject.checkpoint`; verdicts equal a full
re-simulation's).  Every injection runs through the fault-tolerant
campaign runtime (:mod:`repro.runtime`): with ``jobs >= 1`` each
simulation executes in an isolated worker process with a wall-clock
timeout and bounded retries, and with a ``journal`` every completed
injection is checkpointed so a killed campaign resumes from where it
died.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..obs import get_metrics, get_tracer
from ..runtime import (
    ChaosPolicy,
    Executor,
    Journal,
    RetryPolicy,
    Task,
    TaskOutcome,
    TaskResult,
)
from ..workloads.suite import OPENCL_SAMPLES, REGISTRY
from .checkpoint import GoldenRun, InjectionOutcome

__all__ = [
    "InjectionOutcome",
    "InjectionSpec",
    "BenchmarkCampaign",
    "run_campaign",
    "ace_interference_study",
]

#: cycle budget for one injected simulation before it counts as a hang
DEFAULT_MAX_CYCLES = 2_000_000


#: runtime taxonomy -> injection verdict for semantic failures
_TASK_TO_VERDICT = {
    TaskOutcome.SIM_CRASH: InjectionOutcome.CRASH,
    TaskOutcome.SIM_HANG: InjectionOutcome.HANG,
}


@dataclass(frozen=True)
class InjectionSpec:
    """One fault: flip ``bits`` of (wavefront, register, lane) at ``cycle``."""

    wf: int
    reg: int
    lane: int
    bits: Tuple[int, ...]
    cycle: int

    @property
    def bitmask(self) -> int:
        mask = 0
        for b in self.bits:
            mask |= 1 << (b & 31)
        return mask

    def to_dict(self) -> Dict:
        """JSON-safe form, journaled as task provenance."""
        return {
            "wf": self.wf, "reg": self.reg, "lane": self.lane,
            "bits": list(self.bits), "cycle": self.cycle,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "InjectionSpec":
        return cls(
            int(data["wf"]), int(data["reg"]), int(data["lane"]),
            tuple(int(b) for b in data["bits"]), int(data["cycle"]),
        )


@dataclass
class BenchmarkCampaign:
    """Results of the injection study for one benchmark."""

    benchmark: str
    n_single_injections: int = 0
    single_outcomes: Dict[str, int] = field(default_factory=dict)
    sdc_ace_bits: List[InjectionSpec] = field(default_factory=list)
    #: per fault mode width: (groups injected, groups with ACE interference)
    multibit: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    #: injections that exhausted their retries, by runtime outcome
    #: (``timeout``, ``worker_died``, ``infra_error``, ``poisoned``);
    #: these carry no verdict and are excluded from the single/multibit
    #: tallies above.
    failures: Dict[str, int] = field(default_factory=dict)
    #: ACE model context: the unprotected single-bit VGPR SDC AVF the
    #: injection outcomes are validated against (``None`` on records
    #: archived before this field existed)
    model_sdc_avf: Optional[float] = None

    @property
    def n_sdc_ace_bits(self) -> int:
        return len(self.sdc_ace_bits)

    @property
    def n_failed(self) -> int:
        return sum(self.failures.values())

    def interference_total(self) -> int:
        return sum(i for _, i in self.multibit.values())

    def to_dict(self) -> Dict:
        """JSON-safe form for archiving campaign results."""
        return {
            "benchmark": self.benchmark,
            "n_single_injections": self.n_single_injections,
            "single_outcomes": dict(self.single_outcomes),
            "sdc_ace_bits": [s.to_dict() for s in self.sdc_ace_bits],
            "multibit": {str(m): list(v) for m, v in self.multibit.items()},
            "failures": dict(self.failures),
            "model_sdc_avf": self.model_sdc_avf,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "BenchmarkCampaign":
        return cls(
            benchmark=data["benchmark"],
            n_single_injections=int(data["n_single_injections"]),
            single_outcomes=dict(data["single_outcomes"]),
            sdc_ace_bits=[
                InjectionSpec.from_dict(d) for d in data["sdc_ace_bits"]
            ],
            multibit={
                int(m): (int(v[0]), int(v[1]))
                for m, v in data["multibit"].items()
            },
            failures=dict(data.get("failures", {})),
            model_sdc_avf=data.get("model_sdc_avf"),
        )


class _Runner(GoldenRun):
    """Table II injections: register flips in one workload's VGPR."""

    def __init__(
        self, workload_cls, seed: int, n_cus: int,
        max_cycles: int = DEFAULT_MAX_CYCLES,
    ) -> None:
        super().__init__(workload_cls, seed, n_cus, max_cycles)
        recs = self.golden_run.apu.records
        # Injection targeting: wavefront activity windows + register counts.
        self.windows: Dict[int, Tuple[int, int]] = {}
        for r in recs:
            lo, hi = self.windows.get(r.wf, (r.t, r.t))
            self.windows[r.wf] = (min(lo, r.t), max(hi, r.t))
        self.n_vregs = {
            w: p.n_vregs for w, p in self.golden_run.apu.wf_programs.items()
        }

    def random_spec(self, rng: np.random.Generator, n_bits: int = 1) -> InjectionSpec:
        wf = int(rng.choice(sorted(self.windows)))
        lo, hi = self.windows[wf]
        reg = int(rng.integers(0, self.n_vregs[wf]))
        lane = int(rng.integers(0, 16))
        # Sample the group base from [0, 32 - n_bits] so all n_bits flips
        # stay in-word without collapsing into duplicates near bit 31.
        start = int(rng.integers(0, 33 - n_bits))
        spec = InjectionSpec(
            wf, reg, lane, tuple(range(start, start + n_bits)), cycle=int(
                rng.integers(lo, hi + 1)
            ),
        )
        assert len(spec.bits) == n_bits
        return spec

    def inject(self, spec: InjectionSpec) -> str:
        get_metrics().counter("campaign.injections").inc()
        return self.inject_at(
            spec.cycle,
            lambda apu: apu.inject_fault(
                spec.wf, spec.reg, spec.lane, spec.bitmask, spec.cycle
            ),
            wf=spec.wf, reg=spec.reg, bits=len(spec.bits),
        )


# -- worker-process entry points (must be module-level for spawn pickling) ----

_WORKER_RUNNER: Optional[_Runner] = None


def _init_injection_worker(
    benchmark: str, seed: int, n_cus: int, max_cycles: int
) -> None:
    """Build this worker's runner (golden run + targeting data) once."""
    global _WORKER_RUNNER
    _WORKER_RUNNER = _Runner(
        REGISTRY[benchmark], seed, n_cus, max_cycles=max_cycles
    )


def _injection_task(spec: InjectionSpec) -> str:
    return _WORKER_RUNNER.inject(spec)


def _make_executor(
    runner: _Runner,
    benchmark: str,
    seed: int,
    n_cus: int,
    max_cycles: int,
    jobs: int,
    timeout: Optional[float],
    retry: Optional[RetryPolicy],
    journal: Optional[Union[Journal, str]],
    progress: Union[bool, str] = False,
    chaos: Optional[ChaosPolicy] = None,
    fabric=None,
):
    if fabric is not None:
        # Distributed mode: shard injections across the fabric's worker
        # nodes.  The runner's inject is the local-fallback function, so
        # a dead or partitioned fleet degrades to inline execution
        # without a second golden run.  Executor-level chaos does not
        # apply here — the fabric has its own node-level chaos points
        # (ChaosSpec: node_kill, rpc_*, heartbeat_blackout) carried by
        # the worker processes and RPC clients.
        from ..runtime.fabric import FabricExecutor, injection_job

        return FabricExecutor(
            fabric,
            injection_job(
                benchmark, seed=seed, n_cus=n_cus, max_cycles=max_cycles
            ),
            local_fn=runner.inject,
            journal=journal,
            retry=retry,
            timeout=timeout,
            progress=progress,
        )
    if jobs < 0:
        raise ValueError("jobs must be >= 0 (0 = inline)")
    if jobs >= 1:
        return Executor(
            _injection_task,
            jobs=jobs,
            timeout=timeout,
            retry=retry,
            journal=journal,
            initializer=_init_injection_worker,
            initargs=(benchmark, seed, n_cus, max_cycles),
            progress=progress,
            chaos=chaos,
        )
    # Inline: reuse the parent's runner (one golden run total).
    return Executor(
        runner.inject, jobs=0, retry=retry, journal=journal,
        progress=progress, chaos=chaos,
    )


def _tally(
    campaign: BenchmarkCampaign, result: TaskResult
) -> Optional[str]:
    """Map a runtime result to an injection verdict; count failures."""
    if result.outcome == TaskOutcome.OK:
        return result.value
    verdict = _TASK_TO_VERDICT.get(result.outcome)
    if verdict is not None:
        return verdict
    campaign.failures[result.outcome] = (
        campaign.failures.get(result.outcome, 0) + 1
    )
    return None


def _model_sdc_avf(runner: _Runner) -> float:
    """ACE-model context for one benchmark: the unprotected single-bit
    VGPR SDC AVF that the campaign's injection verdicts validate.

    Runs the model side of the paper's comparison (liveness, VGPR
    lifetimes, group enumeration, outcome integration) on the golden
    run, so a traced campaign records the full methodology — simulate,
    lifetime, enumerate, integrate, inject — in one timeline.
    """
    from ..core.analysis import AvfStudy
    from ..core.faultmodes import FaultMode
    from ..core.protection import SCHEMES

    study = AvfStudy(runner.golden_run.apu, runner.golden_run.output_ranges)
    return study.vgpr_avf(FaultMode.linear(1), SCHEMES["none"]).sdc_avf


def run_campaign(
    benchmark: str,
    *,
    n_single: int = 60,
    modes: Sequence[int] = (2, 3, 4),
    max_groups_per_mode: int = 20,
    seed: int = 0,
    n_cus: int = 2,
    jobs: int = 0,
    timeout: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
    journal: Optional[Union[Journal, str]] = None,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    progress: Union[bool, str] = False,
    chaos: Optional[ChaosPolicy] = None,
    fabric=None,
    store=None,
) -> BenchmarkCampaign:
    """The Table II procedure for one benchmark.

    ``n_single`` random single-bit injections find SDC ACE bits; each SDC ACE
    bit seeds one multi-bit group per mode width (the bit plus its physical
    neighbours), capped at ``max_groups_per_mode`` groups per mode.

    ``jobs``, ``timeout``, ``retry`` and ``journal`` configure the campaign
    runtime: ``jobs >= 1`` runs injections in that many isolated worker
    processes, ``timeout`` bounds each simulation's wall-clock time,
    ``retry`` governs re-execution of infrastructure failures, and
    ``journal`` (a path or :class:`~repro.runtime.Journal`) checkpoints
    every injection so an interrupted campaign can be resumed by re-running
    the same call.  All task ids are derived from the seeded spec sequence,
    so a resumed campaign reproduces the uninterrupted result exactly.

    ``chaos`` (dev/test only) fault-injects the campaign runtime itself —
    worker crashes, hangs, corrupted journal writes — per a seeded
    :class:`~repro.runtime.ChaosPolicy`; resume such a campaign *without*
    the chaos policy or its write faults replay.

    ``fabric`` (a :class:`~repro.runtime.fabric.FabricCoordinator`)
    shards the injections across worker *nodes* instead of local worker
    processes: lease-based assignment, replicated shard journals, and
    graceful demotion to local execution if the fleet dies.  ``jobs``
    is ignored in fabric mode; the same journal resumes either mode.

    ``store`` (a :class:`~repro.store.ResultStore` or a path to one)
    persists the finished campaign: the Table II summary lands in the
    ``campaigns`` table and, when a ``journal`` was used, every journaled
    injection verdict lands in ``injections`` keyed by record identity —
    so re-running a resumed campaign (or re-ingesting the same journal
    through ``repro campaign merge --store``) adds nothing twice.
    """
    if benchmark not in REGISTRY:
        raise KeyError(f"unknown benchmark {benchmark!r}")
    tracer = get_tracer()
    with tracer.span("golden", benchmark=benchmark):
        runner = _Runner(
            REGISTRY[benchmark], seed, n_cus, max_cycles=max_cycles
        )
    rng = np.random.default_rng(seed + 0xFA117)
    out = BenchmarkCampaign(benchmark, n_single_injections=n_single)
    with tracer.span("model", benchmark=benchmark):
        out.model_sdc_avf = _model_sdc_avf(runner)
    singles = [runner.random_spec(rng) for _ in range(n_single)]
    with _make_executor(
        runner, benchmark, seed, n_cus, max_cycles,
        jobs, timeout, retry, journal, progress, chaos, fabric,
    ) as executor:
        single_tasks = [
            Task(
                id=f"{benchmark}/single/{i:05d}",
                payload=spec,
                meta=spec.to_dict(),
            )
            for i, spec in enumerate(singles)
        ]
        with tracer.span("singles", benchmark=benchmark, n=len(single_tasks)):
            results = executor.run(single_tasks)
        for task, spec in zip(single_tasks, singles):
            verdict = _tally(out, results[task.id])
            if verdict is None:
                continue
            out.single_outcomes[verdict] = (
                out.single_outcomes.get(verdict, 0) + 1
            )
            if verdict == InjectionOutcome.SDC:
                out.sdc_ace_bits.append(spec)
        get_metrics().counter("campaign.sdc_ace_bits").inc(
            len(out.sdc_ace_bits)
        )
        # All mode widths go through one executor pass so process-mode
        # workers (each paying a golden-run initialisation) spawn once.
        bases = out.sdc_ace_bits[:max_groups_per_mode]
        group_tasks: List[Tuple[int, Task]] = []
        for m in modes:
            for j, base in enumerate(bases):
                start = min(base.bits[0], 32 - m)
                g = InjectionSpec(
                    base.wf, base.reg, base.lane,
                    tuple(range(start, start + m)), base.cycle,
                )
                group_tasks.append((m, Task(
                    id=f"{benchmark}/multi/{m}/{j:05d}",
                    payload=g,
                    meta=g.to_dict(),
                )))
        with tracer.span("multibit", benchmark=benchmark, n=len(group_tasks)):
            results = executor.run(t for _, t in group_tasks)
        tallies = {m: [0, 0] for m in modes}
        for m, task in group_tasks:
            verdict = _tally(out, results[task.id])
            if verdict is None:
                continue
            tallies[m][0] += 1
            # The group contains a proven SDC ACE bit; a masked outcome
            # means the extra flips cancelled the corruption: ACE
            # interference.
            if verdict == InjectionOutcome.MASKED:
                tallies[m][1] += 1
        for m in modes:
            out.multibit[m] = tuple(tallies[m])
    if store is not None:
        # Lazy import: campaigns must not drag sqlite machinery in
        # unless a sink was actually requested.
        from ..store import ingest_campaign, ingest_journal, open_store

        with open_store(store) as sink:
            ingest_campaign(sink, out, seed=seed, n_cus=n_cus)
            if journal is not None:
                path = journal.path if isinstance(journal, Journal) \
                    else journal
                ingest_journal(sink, path, seed=seed)
    return out


def ace_interference_study(
    benchmarks: Optional[Sequence[str]] = None, **kwargs
) -> List[BenchmarkCampaign]:
    """Run the Table II study over the AMD OpenCL sample suite.

    Runtime options (``jobs``, ``timeout``, ``retry``, ``journal``) pass
    through to :func:`run_campaign`; a single shared journal covers the
    whole study because task ids are namespaced per benchmark.
    """
    names = benchmarks if benchmarks is not None else OPENCL_SAMPLES
    journal = kwargs.pop("journal", None)
    if journal is not None and not isinstance(journal, Journal):
        journal = Journal(journal)
    return [run_campaign(b, journal=journal, **kwargs) for b in names]
