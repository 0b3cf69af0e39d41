"""SIMT GPU / APU performance simulator.

Executes :class:`~repro.arch.isa.Program` kernels on a model with ``n_cus``
compute units, 16-lane wavefronts, per-CU L1 caches and a shared L2
(:mod:`repro.arch.cache`).  Every vector instruction is recorded as an
:class:`~repro.arch.trace.InstrRecord` for the downstream liveness and
lifetime (ACE) analyses — the "event-tracking phase" of the paper's AVF
methodology.

The timing model is deliberately simple but produces the behaviour the
paper's results depend on: one instruction per CU per cycle, round-robin
wavefront scheduling, blocking loads with hit/miss latencies, buffered
stores, and latency hiding across wavefronts.

A device built with ``snapshots=True`` also keeps a bounded set of
read-only golden :class:`Snapshot` s of its full state, and
:meth:`Apu.restore` loads one into a fresh device; fault-injection runs
resume from them (:mod:`repro.faultinject.checkpoint`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_metrics, get_tracer
from .cache import L1_CONFIG, L2_CONFIG, CacheConfig, MemSystem
from .isa import WAVEFRONT_LANES, Instr, Program
from .memory import GlobalMemory, Lds
from .trace import InstrRecord

__all__ = ["Wavefront", "ComputeUnit", "Apu", "LaunchStats", "Snapshot"]

M32 = 0xFFFFFFFF
_LANES = np.arange(WAVEFRONT_LANES)

#: most golden snapshots one device keeps; when a capture would exceed
#: it, every other snapshot is dropped and the spacing doubles
SNAPSHOT_CAP = 16
#: cycles between golden snapshots before the first thinning
SNAPSHOT_INTERVAL = 64
#: "no checkpoint due" sentinel for the scheduler loop
_NEVER = 1 << 62


def _readonly(a: np.ndarray) -> np.ndarray:
    out = a.copy()
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _zero_lds(size: int) -> np.ndarray:
    """One shared read-only image for every all-zero frozen LDS."""
    return _readonly(np.zeros(size, dtype=np.uint8))


@dataclass
class LaunchStats:
    """Summary of one kernel launch."""

    name: str
    n_threads: int
    n_wavefronts: int
    instructions: int = 0
    start_cycle: int = 0
    end_cycle: int = 0
    #: what the host passed to :meth:`Apu.launch`, so the launch can be
    #: replayed without re-running the workload's host code
    program: Optional[Program] = field(default=None, repr=False, compare=False)
    args: Tuple[int, ...] = ()

    @property
    def cycles(self) -> int:
        return self.end_cycle - self.start_cycle


class Wavefront:
    """Architectural state of one 16-lane wavefront."""

    __slots__ = (
        "id", "pc", "vregs", "sregs", "vcc", "scc", "exec_mask",
        "ready", "done", "lds", "program",
    )

    def __init__(
        self,
        wf_id: int,
        program: Program,
        exec_mask: np.ndarray,
        sregs: List[int],
        lds: Lds,
    ) -> None:
        self.id = wf_id
        self.pc = 0
        self.program = program
        self.vregs = np.zeros((program.n_vregs, WAVEFRONT_LANES), dtype=np.uint32)
        self.sregs = sregs + [0] * max(0, program.n_sregs - len(sregs))
        self.vcc = np.zeros(WAVEFRONT_LANES, dtype=bool)
        self.scc = False
        self.exec_mask = exec_mask
        self.ready = 0
        self.done = False
        self.lds = lds

    def _with(self, vregs, sregs, vcc, exec_mask, lds: Lds) -> "Wavefront":
        wf = Wavefront.__new__(Wavefront)
        wf.id, wf.pc, wf.program = self.id, self.pc, self.program
        wf.scc, wf.ready, wf.done = self.scc, self.ready, self.done
        wf.vregs, wf.sregs, wf.vcc = vregs, sregs, vcc
        wf.exec_mask, wf.lds = exec_mask, lds
        return wf

    def freeze(self) -> "Wavefront":
        """A read-only copy for a golden snapshot."""
        data = self.lds.data
        lds = Lds(
            self.lds.size,
            _readonly(data) if data.any() else _zero_lds(self.lds.size),
        )
        return self._with(
            _readonly(self.vregs), tuple(self.sregs), _readonly(self.vcc),
            _readonly(self.exec_mask), lds,
        )

    def thaw(self) -> "Wavefront":
        """A live copy of a frozen wavefront (explicit array copies)."""
        # exec_mask is never written after launch: share the frozen one.
        return self._with(
            self.vregs.copy(), list(self.sregs), self.vcc.copy(),
            self.exec_mask, Lds(self.lds.size, self.lds.data.copy()),
        )

    def same_state(self, frozen: "Wavefront") -> bool:
        """True when this wavefront's state equals a frozen one's."""
        return (
            self.id == frozen.id and self.pc == frozen.pc
            and self.ready == frozen.ready and self.done == frozen.done
            and self.scc == frozen.scc and self.program is frozen.program
            and tuple(self.sregs) == frozen.sregs
            and np.array_equal(self.vregs, frozen.vregs)
            and np.array_equal(self.vcc, frozen.vcc)
            and np.array_equal(self.exec_mask, frozen.exec_mask)
            and np.array_equal(self.lds.data, frozen.lds.data)
        )


#: one CU in a snapshot: (round-robin pointer, resident, pending)
CuState = Tuple[int, Tuple[Wavefront, ...], Tuple[Wavefront, ...]]


@dataclass(frozen=True)
class Snapshot:
    """Read-only device state at the top of one scheduler iteration.

    It holds everything that decides the rest of a run: the memory
    image, every CU's wavefronts and round-robin pointer, and the cache
    tags, LRU and dirty state.  Trace records, cache events and hit
    counters describe the past and are left out.  Memory past
    ``len(memory)`` was all zero when the snapshot was taken.
    """

    cycle: int
    #: index of the launch that was running
    launch: int
    #: wavefront ids handed out so far
    wf_seq: int
    memory: np.ndarray
    cus: Tuple[CuState, ...]
    #: :meth:`~repro.arch.cache.Cache.state` of every L1, then the L2
    caches: Tuple[Tuple, ...]


class ComputeUnit:
    """One compute unit: issues one instruction per cycle, round-robin."""

    def __init__(self, cu_id: int, apu: "Apu", max_resident: int = 8) -> None:
        self.id = cu_id
        self.apu = apu
        self.max_resident = max_resident
        self.resident: List[Wavefront] = []
        self.pending: deque = deque()
        self._rr = 0

    def busy(self) -> bool:
        return bool(self.resident) or bool(self.pending)

    def _admit(self, cycle: int) -> None:
        while self.pending and len(self.resident) < self.max_resident:
            wf = self.pending.popleft()
            wf.ready = cycle
            self.resident.append(wf)

    def step(self, cycle: int) -> Optional[int]:
        """Issue at most one instruction; returns the next interesting cycle.

        Returns the cycle at which this CU could issue next (``cycle + 1``
        if it issued, the earliest wavefront-ready time if all are stalled,
        or None if the CU has nothing left to run).
        """
        self._admit(cycle)
        if not self.resident:
            return None
        n = len(self.resident)
        for k in range(n):
            wf = self.resident[(self._rr + k) % n]
            if wf.ready <= cycle:
                self._rr = (self._rr + k + 1) % n
                self.apu._execute(self, wf, cycle)
                if wf.done:
                    self.resident.remove(wf)
                    self._admit(cycle)
                return cycle + 1
        return min(wf.ready for wf in self.resident)


class Apu:
    """The simulated APU: GPU compute units + cache hierarchy + memory.

    With ``snapshots=True`` the device captures golden :class:`Snapshot` s
    into :attr:`snapshots` while it runs: one every
    :data:`SNAPSHOT_INTERVAL` cycles from cycle 0, thinned to at most
    :data:`SNAPSHOT_CAP` (the cycle-0 snapshot is always kept).
    """

    def __init__(
        self,
        n_cus: int = 4,
        memory: Optional[GlobalMemory] = None,
        l1_config: CacheConfig = L1_CONFIG,
        l2_config: CacheConfig = L2_CONFIG,
        max_resident_wavefronts: int = 8,
        lds_bytes: int = 4096,
        max_cycles: int = 50_000_000,
        snapshots: bool = False,
    ) -> None:
        self.memory = memory if memory is not None else GlobalMemory()
        self.memsys = MemSystem(n_cus, l1_config, l2_config)
        self.cus = [ComputeUnit(i, self, max_resident_wavefronts) for i in range(n_cus)]
        self.lds_bytes = lds_bytes
        self.max_cycles = max_cycles
        self.cycle = 0
        self.records: List[InstrRecord] = []
        self.launches: List[LaunchStats] = []
        self.wf_programs: Dict[int, Program] = {}
        self._uid = 0
        self._wf_seq = 0
        self._finished = False
        self._injections: Dict[int, List[Tuple[int, int, int, int]]] = {}
        self._mem_injections: List[Tuple[int, int, int]] = []
        #: launches started so far; the running one is ``_launched - 1``
        self._launched = 0
        #: golden snapshots taken so far (``snapshots=True`` only)
        self.snapshots: List[Snapshot] = []
        self._snapshot_every = SNAPSHOT_INTERVAL
        self._frozen_pending: Dict[int, Wavefront] = {}
        #: golden snapshots a restored run is compared against
        self._golden: Sequence[Snapshot] = ()
        self._golden_cycles: List[int] = []
        #: set when a restored run's state equals golden's (see restore)
        self.converged = False
        #: cycle of the next snapshot capture or convergence check
        self._checkpoint_at = 0 if snapshots else _NEVER

    def inject_memory_fault(self, addr: int, bitmask: int, cycle: int) -> None:
        """Schedule a transient fault in the memory/cache data image.

        Flips ``bitmask`` bits of the byte at ``addr`` once the global clock
        reaches ``cycle``.  Because the hierarchy is modelled as coherent
        (functional data lives in one image), this represents a fault in
        whichever copy of the byte is current at that time.
        """
        self._mem_injections.append((cycle, addr, bitmask & 0xFF))
        self._mem_injections.sort()

    def _apply_mem_injections(self) -> None:
        while self._mem_injections and self._mem_injections[0][0] <= self.cycle:
            _, addr, bitmask = self._mem_injections.pop(0)
            if 0 <= addr < self.memory.size:
                self.memory.flip(addr, bitmask)

    def inject_fault(
        self, wf_id: int, reg: int, lane: int, bitmask: int, cycle: int
    ) -> None:
        """Schedule a transient fault: flip ``bitmask`` bits of a register.

        The flip is applied to wavefront ``wf_id``'s ``reg`` at ``lane`` the
        next time the wavefront issues an instruction at or after ``cycle``
        (the fault persists until then, as a real SRAM flip would).  Used by
        the fault-injection campaigns (:mod:`repro.faultinject`).
        """
        self._injections.setdefault(wf_id, []).append(
            (cycle, reg, lane, bitmask & M32)
        )

    def _apply_injections(self, wf: Wavefront, t: int) -> None:
        pending = self._injections.get(wf.id)
        if not pending:
            return
        rest = []
        for cycle, reg, lane, bitmask in pending:
            if cycle <= t:
                if reg < wf.vregs.shape[0]:
                    wf.vregs[reg][lane] ^= np.uint32(bitmask)
            else:
                rest.append((cycle, reg, lane, bitmask))
        if rest:
            self._injections[wf.id] = rest
        else:
            del self._injections[wf.id]

    @property
    def finished(self) -> bool:
        return self._finished

    # -- kernel launch -----------------------------------------------------

    def launch(
        self,
        program: Program,
        n_threads: int,
        args: Sequence[int] = (),
        name: str = "kernel",
    ) -> LaunchStats:
        """Run a kernel to completion over ``n_threads`` work-items.

        Wavefronts are distributed round-robin over the compute units; the
        global clock keeps advancing across launches so multi-pass workloads
        share one AVF analysis window.
        """
        if self._finished:
            raise RuntimeError("device already finished; create a new Apu")
        if n_threads <= 0:
            raise ValueError("kernel needs at least one thread")
        n_wfs = (n_threads + WAVEFRONT_LANES - 1) // WAVEFRONT_LANES
        stats = LaunchStats(
            name, n_threads, n_wfs, start_cycle=self.cycle,
            program=program, args=tuple(int(a) for a in args),
        )
        for i in range(n_wfs):
            wf_id = self._wf_seq
            self._wf_seq += 1
            base = i * WAVEFRONT_LANES
            exec_mask = (base + _LANES) < n_threads
            sregs = [i, wf_id] + [int(a) & M32 for a in args]
            wf = Wavefront(wf_id, program, exec_mask, sregs, Lds(self.lds_bytes))
            self.wf_programs[wf_id] = program
            wf.vregs[0] = (base + _LANES).astype(np.uint32)  # v0 = global tid
            wf.vregs[1] = _LANES.astype(np.uint32)           # v1 = lane id
            self.cus[i % len(self.cus)].pending.append(wf)
        self._launched += 1
        return self._run_launch(stats)

    def resume(self, launch: LaunchStats) -> LaunchStats:
        """Finish ``launch``, the golden launch a restored snapshot was
        taken in; the returned stats cover only the part run here."""
        if self._finished:
            raise RuntimeError("device already finished; create a new Apu")
        stats = LaunchStats(
            launch.name, launch.n_threads, launch.n_wavefronts,
            start_cycle=self.cycle, program=launch.program, args=launch.args,
        )
        return self._run_launch(stats)

    def _run_launch(self, stats: LaunchStats) -> LaunchStats:
        n_before = len(self.records)
        with get_tracer().span(
            "kernel", kernel=stats.name, wavefronts=stats.n_wavefronts
        ) as sp:
            self._run()
        stats.instructions = len(self.records) - n_before
        stats.end_cycle = self.cycle
        # The span's args dict is shared with the recorded event, so the
        # counts become visible in the exported trace.
        sp.set(instructions=stats.instructions, cycles=stats.cycles)
        mx = get_metrics()
        if mx:
            mx.counter("sim.kernel_launches").inc()
            mx.counter("sim.instructions").inc(stats.instructions)
            mx.counter("sim.cycles").inc(stats.cycles)
        self.launches.append(stats)
        return stats

    def stats(self) -> Dict[str, object]:
        """Summary statistics of everything executed so far.

        Returns instruction/cycle counts, aggregate IPC, and per-level cache
        hit rates — the quick sanity panel for a workload's behaviour.
        """
        total_instr = len(self.records)
        cycles = max(self.cycle, 1)
        l1_hits = sum(l1.hits for l1 in self.memsys.l1s)
        l1_misses = sum(l1.misses for l1 in self.memsys.l1s)
        l2 = self.memsys.l2
        def _rate(h: int, m: int) -> float:
            return h / (h + m) if (h + m) else 0.0
        return {
            "instructions": total_instr,
            "cycles": self.cycle,
            "ipc": total_instr / cycles,
            "wavefronts": self._wf_seq,
            "launches": len(self.launches),
            "l1_hit_rate": _rate(l1_hits, l1_misses),
            "l1_accesses": l1_hits + l1_misses,
            "l2_hit_rate": _rate(l2.hits, l2.misses),
            "l2_accesses": l2.hits + l2.misses,
        }

    def finish(self) -> int:
        """Flush the cache hierarchy (host readback); returns the end cycle.

        Must be called exactly once, after the last kernel launch, before
        running the AVF analyses.
        """
        if self._finished:
            raise RuntimeError("finish() already called")
        self.memsys.flush(self.cycle)
        self.cycle += 1
        self._finished = True
        # Memory faults due after the last instruction still corrupt the
        # data the host reads back.
        self._apply_mem_injections()
        mx = get_metrics()
        if mx:
            mx.counter("sim.l1_hits").inc(sum(c.hits for c in self.memsys.l1s))
            mx.counter("sim.l1_misses").inc(
                sum(c.misses for c in self.memsys.l1s)
            )
            mx.counter("sim.l2_hits").inc(self.memsys.l2.hits)
            mx.counter("sim.l2_misses").inc(self.memsys.l2.misses)
        return self.cycle

    # -- golden snapshots ----------------------------------------------------

    def restore(self, snap: Snapshot, watch: Sequence[Snapshot] = ()) -> None:
        """Load ``snap`` into this fresh device.

        Call :meth:`resume` with the snapshot's launch next.  With
        ``watch`` (golden snapshots of the same run), the scheduler
        stops at the top of any iteration whose full state equals the
        golden snapshot of that cycle while no injection is pending, and
        sets :attr:`converged`: the simulator is deterministic, so the
        rest of the run would repeat golden's.
        """
        if self.cycle or self._launched:
            raise RuntimeError("restore needs a fresh device")
        self.memory.load_image(snap.memory)
        for cache, state in zip(self.memsys.caches, snap.caches):
            cache.set_state(state)
        for cu, (rr, resident, pending) in zip(self.cus, snap.cus):
            cu._rr = rr
            cu.resident = [wf.thaw() for wf in resident]
            cu.pending = deque(wf.thaw() for wf in pending)
        self.cycle = snap.cycle
        self._launched = snap.launch + 1
        self._wf_seq = snap.wf_seq
        self._golden = watch
        self._golden_cycles = [g.cycle for g in watch]
        i = bisect_left(self._golden_cycles, self.cycle)
        self._checkpoint_at = (
            self._golden_cycles[i] if i < len(watch) else _NEVER
        )

    def _checkpoint(self) -> bool:
        """Top-of-iteration hook: capture a golden snapshot, or (on a
        restored device) report convergence to golden."""
        if not self._golden:
            self._capture()
            return False
        cycles = self._golden_cycles
        i = bisect_left(cycles, self.cycle)
        hit = (
            i < len(cycles) and cycles[i] == self.cycle
            and not self._injections and not self._mem_injections
            and self._matches(self._golden[i])
        )
        j = bisect_right(cycles, self.cycle)
        self._checkpoint_at = cycles[j] if j < len(cycles) else _NEVER
        return hit

    def _capture(self) -> None:
        # A pending wavefront has not issued, so its frozen copy stays
        # valid (and shared) across snapshots until it is admitted.
        frozen = {
            wf.id: self._frozen_pending.get(wf.id) or wf.freeze()
            for cu in self.cus for wf in cu.pending
        }
        self._frozen_pending = frozen
        self.snapshots.append(Snapshot(
            cycle=self.cycle,
            launch=self._launched - 1,
            wf_seq=self._wf_seq,
            memory=self.memory.image(),
            cus=tuple(
                (
                    cu._rr,
                    tuple(wf.freeze() for wf in cu.resident),
                    tuple(frozen[wf.id] for wf in cu.pending),
                )
                for cu in self.cus
            ),
            caches=tuple(c.state() for c in self.memsys.caches),
        ))
        if len(self.snapshots) > SNAPSHOT_CAP:
            del self.snapshots[1::2]
            self._snapshot_every *= 2
        self._checkpoint_at = self.cycle + self._snapshot_every

    def _matches(self, g: Snapshot) -> bool:
        """Full-state equality with golden snapshot ``g`` of this cycle."""
        if self._launched - 1 != g.launch:
            return False
        for cu, (rr, resident, pending) in zip(self.cus, g.cus):
            # Pending wavefronts have not issued: their state is fixed by
            # their launch and id, so equal ids mean equal state.
            if (
                cu._rr != rr or len(cu.resident) != len(resident)
                or [wf.id for wf in cu.pending] != [wf.id for wf in pending]
                or not all(
                    a.same_state(b) for a, b in zip(cu.resident, resident)
                )
            ):
                return False
        mem = self.memory
        n = len(g.memory)
        return (
            np.array_equal(mem.data[:n], g.memory)
            and all(
                c.has_state(st) for c, st in zip(self.memsys.caches, g.caches)
            )
            and (mem.high_water <= n or not mem.data[n:].any())
        )

    def _run(self) -> None:
        while any(cu.busy() for cu in self.cus):
            if self.cycle >= self._checkpoint_at and self._checkpoint():
                self.converged = True
                return
            if self._mem_injections:
                self._apply_mem_injections()
            nxt: List[int] = []
            for cu in self.cus:
                r = cu.step(self.cycle)
                if r is not None:
                    nxt.append(r)
            if not nxt:
                break
            self.cycle = max(self.cycle + 1, min(nxt))
            if self.cycle > self.max_cycles:
                raise RuntimeError("simulation exceeded max_cycles (runaway kernel?)")

    # -- operand access ----------------------------------------------------

    def _fetch_v(self, wf: Wavefront, op) -> np.ndarray:
        kind, x = op
        if kind == "v":
            return wf.vregs[x]
        if kind == "s":
            return np.full(WAVEFRONT_LANES, wf.sregs[x] & M32, dtype=np.uint32)
        return np.full(WAVEFRONT_LANES, x & M32, dtype=np.uint32)

    def _fetch_s(self, wf: Wavefront, op) -> int:
        kind, x = op
        if kind == "s":
            return wf.sregs[x]
        if kind == "imm":
            return x & M32
        raise ValueError("scalar instructions cannot read vector registers")

    @staticmethod
    def _write_v(wf: Wavefront, dst, value: np.ndarray, mask: np.ndarray) -> None:
        reg = wf.vregs[dst[1]]
        reg[mask] = value.astype(np.uint32)[mask]

    # -- execution ---------------------------------------------------------

    def _record(self, wf: Wavefront, ins: Instr, t: int, **kw) -> InstrRecord:
        rec = InstrRecord(
            self._uid, t, wf.id, ins.op, ins.dst, ins.srcs,
            wf.exec_mask.copy(), **kw
        )
        self._uid += 1
        self.records.append(rec)
        return rec

    def _execute(self, cu: ComputeUnit, wf: Wavefront, t: int) -> None:
        if self._injections:
            self._apply_injections(wf, t)
        ins = wf.program.instrs[wf.pc]
        op = ins.op
        next_pc = wf.pc + 1
        wf.ready = t + 1

        if op == "s_endpgm":
            wf.done = True
            return
        if op == "s_branch":
            wf.pc = wf.program.target_pc(ins.target)
            return
        if op == "s_cbranch":
            want = bool(ins.srcs[0][1])
            wf.pc = wf.program.target_pc(ins.target) if wf.scc == want else next_pc
            return
        if op == "s_cmp":
            a = _signed(self._fetch_s(wf, ins.srcs[0]))
            b = _signed(self._fetch_s(wf, ins.srcs[1]))
            wf.scc = _compare_scalar(ins.cond, a, b)
            wf.pc = next_pc
            return
        if op in ("s_mov", "s_add", "s_sub", "s_mul", "s_shl", "s_shr"):
            srcs = [self._fetch_s(wf, x) for x in ins.srcs]
            if op == "s_mov":
                val = srcs[0]
            elif op == "s_add":
                val = srcs[0] + srcs[1]
            elif op == "s_sub":
                val = srcs[0] - srcs[1]
            elif op == "s_mul":
                val = srcs[0] * srcs[1]
            elif op == "s_shl":
                val = srcs[0] << (srcs[1] & 31)
            else:
                val = (srcs[0] & M32) >> (srcs[1] & 31)
            wf.sregs[ins.dst[1]] = val & M32
            wf.pc = next_pc
            return
        if op == "v_readlane":
            lane = int(ins.srcs[1][1])
            src = self._fetch_v(wf, ins.srcs[0])
            wf.sregs[ins.dst[1]] = int(src[lane])
            self._record(wf, ins, t)
            wf.pc = next_pc
            return

        if op in ("v_load", "v_store", "v_load_u8", "v_store_u8",
                  "lds_load", "lds_store"):
            self._exec_memory(cu, wf, ins, t)
            wf.pc = next_pc
            return

        # Vector ALU.
        self._exec_valu(wf, ins, t)
        wf.pc = next_pc

    def _exec_valu(self, wf: Wavefront, ins: Instr, t: int) -> None:
        op = ins.op
        mask = wf.exec_mask
        if op in ("v_cndmask",):
            rec = self._record(wf, ins, t, vcc_snap=wf.vcc.copy())
        else:
            rec = self._record(wf, ins, t)
        srcs = [self._fetch_v(wf, x) for x in ins.srcs]

        if op == "v_mov":
            res = srcs[0].copy()
        elif op == "v_add":
            res = srcs[0] + srcs[1]
        elif op == "v_sub":
            res = srcs[0] - srcs[1]
        elif op == "v_mul":
            res = srcs[0] * srcs[1]
        elif op == "v_and":
            res = srcs[0] & srcs[1]
        elif op == "v_or":
            res = srcs[0] | srcs[1]
        elif op == "v_xor":
            res = srcs[0] ^ srcs[1]
        elif op == "v_not":
            res = ~srcs[0]
        elif op == "v_shl":
            res = srcs[0] << (srcs[1] & np.uint32(31))
        elif op == "v_shr":
            res = srcs[0] >> (srcs[1] & np.uint32(31))
        elif op == "v_ashr":
            res = (srcs[0].view(np.int32) >> (srcs[1] & np.uint32(31)).view(np.int32)).view(np.uint32)
        elif op == "v_min":
            res = np.minimum(srcs[0].view(np.int32), srcs[1].view(np.int32)).view(np.uint32)
        elif op == "v_max":
            res = np.maximum(srcs[0].view(np.int32), srcs[1].view(np.int32)).view(np.uint32)
        elif op == "v_abs":
            res = np.abs(srcs[0].view(np.int32)).view(np.uint32)
        elif op in ("v_cmp", "v_fcmp"):
            if op == "v_cmp":
                a, b = srcs[0].view(np.int32), srcs[1].view(np.int32)
            else:
                a, b = srcs[0].view(np.float32), srcs[1].view(np.float32)
            res_b = _compare_vector(ins.cond, a, b)
            wf.vcc = np.where(mask, res_b, wf.vcc)
            return
        elif op == "v_cndmask":
            res = np.where(wf.vcc, srcs[0], srcs[1])
        elif op == "v_shuffle_up":
            delta = int(ins.srcs[1][1])
            res = np.zeros(WAVEFRONT_LANES, dtype=np.uint32)
            if delta < WAVEFRONT_LANES:
                res[delta:] = srcs[0][: WAVEFRONT_LANES - delta]
        elif op == "v_shuffle_xor":
            xm = int(ins.srcs[1][1])
            res = srcs[0][_LANES ^ xm].astype(np.uint32)
        elif op in ("v_cvt_i2f",):
            res = srcs[0].view(np.int32).astype(np.float32).view(np.uint32)
        elif op in ("v_cvt_f2i",):
            with np.errstate(invalid="ignore"):
                f = srcs[0].view(np.float32)
                res = np.where(
                    np.isfinite(f), f, 0.0
                ).astype(np.int32).view(np.uint32)
        else:
            res = self._exec_float(op, srcs)
        self._write_v(wf, ins.dst, res, mask)

    @staticmethod
    def _exec_float(op: str, srcs: List[np.ndarray]) -> np.ndarray:
        fs = [x.view(np.float32) for x in srcs]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                         under="ignore"):
            if op == "v_fadd":
                out = fs[0] + fs[1]
            elif op == "v_fsub":
                out = fs[0] - fs[1]
            elif op == "v_fmul":
                out = fs[0] * fs[1]
            elif op == "v_fmac":
                out = fs[2] + fs[0] * fs[1]
            elif op == "v_frcp":
                out = np.float32(1.0) / fs[0]
            elif op == "v_fsqrt":
                out = np.sqrt(fs[0])
            elif op == "v_fexp":
                out = np.exp(fs[0])
            elif op == "v_flog":
                out = np.log(np.abs(fs[0]))
            elif op == "v_fmin":
                out = np.minimum(fs[0], fs[1])
            elif op == "v_fmax":
                out = np.maximum(fs[0], fs[1])
            elif op == "v_fabs":
                out = np.abs(fs[0])
            else:  # pragma: no cover - guarded by ISA validation
                raise ValueError(f"unhandled op {op}")
        return np.nan_to_num(out.astype(np.float32), nan=0.0).view(np.uint32)

    def _exec_memory(self, cu: ComputeUnit, wf: Wavefront, ins: Instr, t: int) -> None:
        op = ins.op
        is_store = op.endswith("store") or "store" in op
        is_lds = op.startswith("lds")
        nbytes = 1 if op.endswith("_u8") else 4
        addr_src = ins.srcs[1] if is_store else ins.srcs[0]
        addrs = (self._fetch_v(wf, addr_src) + np.uint32(ins.offset)).astype(np.uint32)
        active = wf.exec_mask & (wf.vcc if ins.predicated else True)
        rec = self._record(
            wf, ins, t,
            addrs=addrs.copy(), nbytes=nbytes, acc_mask=active.copy(),
            vcc_snap=wf.vcc.copy() if ins.predicated else None,
            space="lds" if is_lds else "global",
        )
        lat = 2 if is_lds else 1
        if active.any():
            aa = addrs[active]
            if is_lds:
                store_fn = wf.lds.store32
                if is_store:
                    vals = self._fetch_v(wf, ins.srcs[0])[active]
                    if nbytes == 1:
                        wf.lds.data[aa] = (vals & 0xFF).astype(np.uint8)
                    else:
                        store_fn(aa, vals)
                else:
                    vals = (
                        wf.lds.data[aa].astype(np.uint32)
                        if nbytes == 1 else wf.lds.load32(aa)
                    )
                    out = self._fetch_v(wf, ins.dst).copy()
                    out[active] = vals
                    self._write_v(wf, ins.dst, out, active)
            else:
                if is_store:
                    vals = self._fetch_v(wf, ins.srcs[0])[active]
                    if nbytes == 1:
                        self.memory.store8(aa, vals)
                    else:
                        self.memory.store32(aa, vals)
                    lat = self.memsys.store(cu.id, aa, nbytes, t, rec.uid)
                else:
                    vals = (
                        self.memory.load8(aa) if nbytes == 1
                        else self.memory.load32(aa)
                    )
                    out = self._fetch_v(wf, ins.dst).copy()
                    out[active] = vals
                    self._write_v(wf, ins.dst, out, active)
                    lat = self.memsys.load(cu.id, aa, nbytes, t, rec.uid)
        wf.ready = t + lat


def _signed(x: int) -> int:
    x &= M32
    return x - (1 << 32) if x & 0x80000000 else x


def _compare_scalar(cond: str, a: int, b: int) -> bool:
    if cond == "lt":
        return a < b
    if cond == "le":
        return a <= b
    if cond == "eq":
        return a == b
    if cond == "ne":
        return a != b
    if cond == "gt":
        return a > b
    return a >= b


def _compare_vector(cond: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if cond == "lt":
        return a < b
    if cond == "le":
        return a <= b
    if cond == "eq":
        return a == b
    if cond == "ne":
        return a != b
    if cond == "gt":
        return a > b
    return a >= b
