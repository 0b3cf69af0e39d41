"""Per-byte lifetime builders: the slow oracle for the CSR builders.

These are the original builders of :mod:`repro.core.lifetime` and the
original canonical-id pass of :mod:`repro.core.avf`, with the original
per-address list index :class:`MemoryConsumption`.  Each builder owns
one :class:`IntervalSet` per tracked byte and appends to it one interval
at a time; canonical ids intern every set by its byte encoding.  The
tests pin the production builders and canonical ids to them array for
array, and ``benchmarks/test_perf_engine.py`` times against them.

The builders return ``StructureLifetimes`` converted once from their
per-byte sets.  Tag lifetimes take the event-at-a-time
``sweep_max_ref`` of :mod:`repro.core._reference`, so they do not share
the production union kernel.
"""

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.cache import Cache
from repro.arch.isa import WAVEFRONT_LANES
from repro.arch.trace import EvictEvent, FillEvent, InstrRecord, ReadEvent, WriteEvent
from repro.core.avf import StructureLifetimes
from repro.core._reference import sweep_max_ref
from repro.core.intervals import AceClass, IntervalSet

_ACE = int(AceClass.ACE)
_DEAD = int(AceClass.READ_DEAD)


class MemoryConsumption:
    """Per-byte consumption index over global memory.

    Answers, for a byte written back to memory at cycle ``t``: will that
    value ever be consumed?  Consumption is a later live load before the
    next store, or membership in a program output buffer with no later
    store (the host reads outputs after the workload).
    """

    def __init__(
        self,
        records: Sequence[InstrRecord],
        mem_size: int,
        output_ranges: Sequence[Tuple[int, int]],
    ) -> None:
        self._stores: Dict[int, List[int]] = {}
        self._loads: Dict[int, Tuple[List[int], List[bool]]] = {}
        self._is_output = np.zeros(mem_size, dtype=bool)
        for base, size in output_ranges:
            self._is_output[base : base + size] = True
        stored = np.zeros(mem_size, dtype=bool)
        for rec in records:
            if rec.space != "global" or rec.op not in ("v_store", "v_store_u8"):
                continue
            for lane in np.where(rec.acc_mask)[0]:
                a = int(rec.addrs[lane])
                for b in range(rec.nbytes):
                    stored[a + b] = True
                    self._stores.setdefault(a + b, []).append(rec.t)
        for rec in records:
            if rec.space != "global" or rec.op not in ("v_load", "v_load_u8"):
                continue
            needed = rec.load_needed
            for lane in np.where(rec.acc_mask)[0]:
                a = int(rec.addrs[lane])
                m = int(needed[lane]) if needed is not None else 0xFFFFFFFF
                for b in range(rec.nbytes):
                    addr = a + b
                    if not stored[addr]:
                        continue
                    live = bool(m & (0xFF << (8 * b)))
                    ts, ls = self._loads.setdefault(addr, ([], []))
                    ts.append(rec.t)
                    ls.append(live)

    def _next_store_after(self, addr: int, t: int) -> float:
        ts = self._stores.get(addr)
        if not ts:
            return float("inf")
        i = bisect.bisect_right(ts, t)
        return ts[i] if i < len(ts) else float("inf")

    def live_after(self, addr: int, t: int) -> bool:
        """True if the value at ``addr`` as of cycle ``t`` is ever consumed."""
        horizon = self._next_store_after(addr, t)
        loads = self._loads.get(addr)
        if loads is not None:
            ts, ls = loads
            i = bisect.bisect_left(ts, t)
            while i < len(ts) and ts[i] <= horizon:
                if ls[i]:
                    return True
                i += 1
        return bool(self._is_output[addr]) and horizon == float("inf")

    def read_after(self, addr: int, t: int) -> bool:
        """True if the value at ``addr`` as of ``t`` is ever read (even dead)."""
        horizon = self._next_store_after(addr, t)
        loads = self._loads.get(addr)
        if loads is not None:
            ts, _ = loads
            i = bisect.bisect_left(ts, t)
            if i < len(ts) and ts[i] <= horizon:
                return True
        return bool(self._is_output[addr]) and horizon == float("inf")


class _ByteTracker:
    """Per-byte segment state machine shared by cache and VGPR analyses."""

    def __init__(self, n_bytes: int) -> None:
        self.n_bytes = n_bytes
        self.seg_start = np.full(n_bytes, -1, dtype=np.int64)
        self.last_live = np.zeros(n_bytes, dtype=np.int64)
        self.last_any = np.zeros(n_bytes, dtype=np.int64)
        self.isets: List[IntervalSet] = [IntervalSet() for _ in range(n_bytes)]

    def open(self, b: int, t: int) -> None:
        self.seg_start[b] = t
        self.last_live[b] = t
        self.last_any[b] = t

    def close(self, b: int) -> None:
        s = self.seg_start[b]
        if s < 0:
            return
        tl = int(self.last_live[b])
        ta = int(self.last_any[b])
        iset = self.isets[b]
        if tl > s:
            iset.append(int(s), tl, _ACE)
        if ta > max(tl, s):
            iset.append(max(tl, int(s)), ta, _DEAD)
        self.seg_start[b] = -1

    def read(self, b: int, t: int, live: bool) -> None:
        if self.seg_start[b] < 0:
            return
        self.last_any[b] = max(self.last_any[b], t)
        if live:
            self.last_live[b] = max(self.last_live[b], t)

    def close_all(self) -> None:
        for b in np.where(self.seg_start >= 0)[0]:
            self.close(int(b))


def analyze_cache(
    cache: Cache,
    records_by_uid: Dict[int, InstrRecord],
    end_cycle: int,
    *,
    memcons: Optional[MemoryConsumption] = None,
    upstream_fills: Optional[Dict[int, Tuple[np.ndarray, np.ndarray]]] = None,
    name: Optional[str] = None,
) -> Tuple[StructureLifetimes, Dict[int, Tuple[np.ndarray, np.ndarray]]]:
    """Resolve one cache's event stream into per-byte ACE lifetimes.

    Returns ``(lifetimes, fills)`` where ``fills`` maps each of this cache's
    fill ids to ``(read_mask, live_mask)`` over the line's bytes — the
    transitive read/liveness verdicts that the *lower* level's analysis
    consumes for its ``'fill'``-kind read events.  Analyze the hierarchy top
    down: L1s first, then the L2 with ``upstream_fills`` set to the merged
    L1 verdicts and ``memcons`` set for write-back liveness.
    """
    cfg = cache.config
    lb = cfg.line_bytes
    n_bytes = cfg.n_sets * cfg.n_ways * lb
    trk = _ByteTracker(n_bytes)
    origin_fill = np.full(n_bytes, -1, dtype=np.int64)
    fills: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def slot_base(s: int, w: int) -> int:
        return (s * cfg.n_ways + w) * lb

    def note_fill_usage(b: int, off: int, live: bool) -> None:
        fid = origin_fill[b]
        if fid >= 0:
            read_mask, live_mask = fills[int(fid)]
            read_mask[off] = True
            if live:
                live_mask[off] = True

    for ev in cache.events:
        if isinstance(ev, FillEvent):
            base = slot_base(ev.set, ev.way)
            fills[ev.fill_id] = (np.zeros(lb, dtype=bool), np.zeros(lb, dtype=bool))
            for o in range(lb):
                trk.open(base + o, ev.t)
                origin_fill[base + o] = ev.fill_id
        elif isinstance(ev, WriteEvent):
            rec = records_by_uid[ev.uid]
            base = slot_base(ev.set, ev.way)
            for lane in np.where(rec.acc_mask)[0]:
                a = int(rec.addrs[lane])
                if a - a % lb != ev.line_addr:
                    continue
                for bofs in range(rec.nbytes):
                    b = base + (a % lb) + bofs
                    trk.close(b)
                    trk.open(b, ev.t)
                    origin_fill[b] = -1
        elif isinstance(ev, ReadEvent):
            base = slot_base(ev.set, ev.way)
            if ev.kind == "demand":
                rec = records_by_uid[ev.uid]
                needed = rec.load_needed
                for lane in np.where(rec.acc_mask)[0]:
                    a = int(rec.addrs[lane])
                    if a - a % lb != ev.line_addr:
                        continue
                    m = int(needed[lane]) if needed is not None else 0xFFFFFFFF
                    for bofs in range(rec.nbytes):
                        off = (a % lb) + bofs
                        live = bool(m & (0xFF << (8 * bofs)))
                        trk.read(base + off, ev.t, live)
                        note_fill_usage(base + off, off, live)
            elif ev.kind == "fill":
                if upstream_fills is None or ev.link not in upstream_fills:
                    # No upstream analysis: conservatively fully live.
                    up_read = up_live = np.ones(lb, dtype=bool)
                else:
                    up_read, up_live = upstream_fills[ev.link]
                for o in range(lb):
                    live = bool(up_live[o])
                    trk.read(base + o, ev.t, live)
                    note_fill_usage(base + o, o, live)
            else:  # writeback
                dirty = ev.byte_mask
                for o in range(lb):
                    if dirty is not None and dirty[o]:
                        live = (
                            memcons.live_after(ev.line_addr + o, ev.t)
                            if memcons is not None else True
                        )
                    else:
                        live = False  # clean bytes are checked, not written
                    trk.read(base + o, ev.t, live)
                    note_fill_usage(base + o, o, live)
        elif isinstance(ev, EvictEvent):
            base = slot_base(ev.set, ev.way)
            for o in range(lb):
                trk.close(base + o)
                origin_fill[base + o] = -1
    trk.close_all()
    lifetimes = StructureLifetimes(name or cache.name, trk.isets, 0, end_cycle)
    return lifetimes, fills


def analyze_memory(
    records: Sequence[InstrRecord],
    region: Tuple[int, int],
    output_ranges: Sequence[Tuple[int, int]],
    end_cycle: int,
    *,
    name: str = "memory",
) -> StructureLifetimes:
    """Architectural lifetimes of a flat memory region.

    A memory byte's value is ACE from its creation (host initialisation at
    cycle 0, or a store) until its last live load; dead loads extend a
    READ_DEAD interval; bytes in program output buffers stay ACE until the
    end of the run unless overwritten.  This is the ground-truth model the
    cache analyses bottom out in, and the reference that fault-injection
    validation campaigns compare against.
    """
    base, size = region
    is_output = np.zeros(size, dtype=bool)
    for obase, osize in output_ranges:
        lo = max(obase, base)
        hi = min(obase + osize, base + size)
        if lo < hi:
            is_output[lo - base : hi - base] = True
    # Per-byte event lists: (t, kind) with kind 0=store, 1=dead load,
    # 2=live load, gathered in time order.
    events: List[List[Tuple[int, int]]] = [[] for _ in range(size)]
    for rec in records:
        if rec.space != "global" or rec.addrs is None:
            continue
        is_store = rec.op in ("v_store", "v_store_u8")
        is_load = rec.op in ("v_load", "v_load_u8")
        if not (is_store or is_load):
            continue
        needed = rec.mem_needed if is_store else rec.load_needed
        for lane in np.where(rec.acc_mask)[0]:
            a = int(rec.addrs[lane])
            m = int(needed[lane]) if needed is not None else 0xFFFFFFFF
            for b in range(rec.nbytes):
                addr = a + b
                if not base <= addr < base + size:
                    continue
                if is_store:
                    events[addr - base].append((rec.t, 0))
                else:
                    live = bool(m & (0xFF << (8 * b)))
                    events[addr - base].append((rec.t, 2 if live else 1))
    isets: List[IntervalSet] = []
    for off in range(size):
        iset = IntervalSet()
        seg_start = 0
        last_live = 0
        last_any = 0

        def close(upto_live: int, upto_any: int, start: int) -> None:
            if upto_live > start:
                iset.append(start, upto_live, _ACE)
            if upto_any > max(upto_live, start):
                iset.append(max(upto_live, start), upto_any, _DEAD)

        for t, kind in events[off]:
            if kind == 0:
                close(last_live, last_any, seg_start)
                seg_start = t
                last_live = t
                last_any = t
            else:
                last_any = max(last_any, t)
                if kind == 2:
                    last_live = max(last_live, t)
        if is_output[off]:
            close(end_cycle, end_cycle, seg_start)
        else:
            close(last_live, last_any, seg_start)
        isets.append(iset)
    return StructureLifetimes(name, isets, 0, end_cycle)


def derive_tag_lifetimes(
    data_lifetimes: StructureLifetimes,
    line_bytes: int,
    *,
    tag_bytes: int = 3,
    name: Optional[str] = None,
) -> StructureLifetimes:
    """Tag-array lifetimes derived from the data array's (conservative).

    An address tag is architecturally required exactly while its line holds
    data that matters: a corrupted tag loses (or mis-homes) that data, so a
    tag entry inherits the union of its line's per-byte classifications —
    ACE while any data byte is ACE, READ_DEAD while the line is only ever
    dead-read (a tag-parity trip then raises a false DUE).  This is the
    conservative address-based-structure model of Biswas et al. (the
    paper's ref [7]); clean-line refetch masking would only lower it.

    ``data_lifetimes`` must come from :func:`analyze_cache` (byte ids laid
    out line-contiguously); the result indexes tag entries per line with
    ``tag_bytes`` bytes each, matching
    :func:`repro.core.layout.build_tag_array`.
    """
    n_bytes = len(data_lifetimes.byte_isets)
    if n_bytes % line_bytes:
        raise ValueError("data lifetimes are not a whole number of lines")
    n_lines = n_bytes // line_bytes
    isets: List[IntervalSet] = []
    for line in range(n_lines):
        merged = sweep_max_ref(
            data_lifetimes.byte_isets[line * line_bytes : (line + 1) * line_bytes]
        )
        isets.extend([merged] * tag_bytes)
    return StructureLifetimes(
        name or f"{data_lifetimes.name}.tags",
        isets,
        data_lifetimes.start_cycle,
        data_lifetimes.end_cycle,
    )


_BYTE_SHIFTS = np.uint32(8) * np.arange(4, dtype=np.uint32)


def analyze_vgpr(
    records: Sequence[InstrRecord],
    wf_id: int,
    n_vregs: int,
    end_cycle: int,
    *,
    name: Optional[str] = None,
) -> StructureLifetimes:
    """Per-byte ACE lifetimes of one wavefront's vector register file.

    The VGPR is physically read row-at-a-time (all 16 lanes of a register at
    once — the Sec. VIII simultaneous-read property), so a read of ``vN``
    touches every lane's copy; liveness applies only to the lanes/bytes whose
    needed-bit masks are non-zero.

    Byte ids follow :func:`repro.core.layout.regfile_byte_index` with
    ``thread = lane``: ``(lane * n_vregs + reg) * 4 + byte``.
    """
    n_bytes = WAVEFRONT_LANES * n_vregs * 4
    parts: List[List] = [[] for _ in range(n_bytes)]
    mine = [r for r in records if r.wf == wf_id]
    if not mine:
        return StructureLifetimes(
            name or f"vgpr.wf{wf_id}",
            [IntervalSet() for _ in range(n_bytes)],
            0, end_cycle,
        )
    start = mine[0].t
    # Byte ids of register r across lanes: shape (16, 4).
    lane_base = (np.arange(WAVEFRONT_LANES) * n_vregs)[:, None] * 4
    reg_idx = [
        (lane_base + r * 4 + np.arange(4)[None, :]).ravel()
        for r in range(n_vregs)
    ]
    seg_start = np.full(n_bytes, start, dtype=np.int64)
    last_live = np.full(n_bytes, start, dtype=np.int64)
    last_any = np.full(n_bytes, start, dtype=np.int64)

    def close_bytes(idx: np.ndarray, t: int) -> None:
        s = seg_start[idx]
        tl = last_live[idx]
        ta = last_any[idx]
        emit = np.where((tl > s) | (ta > np.maximum(tl, s)))[0]
        for k in emit.tolist():
            b = int(idx[k])
            bs, btl, bta = int(s[k]), int(tl[k]), int(ta[k])
            if btl > bs:
                parts[b].append((bs, btl, _ACE))
            if bta > max(btl, bs):
                parts[b].append((max(btl, bs), bta, _DEAD))
        seg_start[idx] = t
        last_live[idx] = t
        last_any[idx] = t

    for rec in mine:
        t = rec.t
        if rec.src_needed is not None:
            for src, mask in zip(rec.srcs, rec.src_needed):
                if src[0] != "v" or src[1] >= n_vregs:
                    continue
                idx = reg_idx[src[1]]
                last_any[idx] = t
                if mask is not None:
                    live = ((mask[:, None] >> _BYTE_SHIFTS) & np.uint32(0xFF)) != 0
                    last_live[idx[live.ravel()]] = t
        if rec.dst is not None and rec.dst[0] == "v" and rec.dst[1] < n_vregs:
            lanes = rec.acc_mask if rec.acc_mask is not None else rec.exec_mask
            idx = reg_idx[rec.dst[1]].reshape(WAVEFRONT_LANES, 4)[lanes].ravel()
            close_bytes(idx, t)
    close_bytes(np.arange(n_bytes), mine[-1].t)
    isets = [IntervalSet(p) if p else IntervalSet() for p in parts]
    return StructureLifetimes(name or f"vgpr.wf{wf_id}", isets, 0, end_cycle)


def stack(
    name: str, parts: Sequence[StructureLifetimes], end_cycle: int
) -> StructureLifetimes:
    """The per-wavefront lifetimes stacked byte after byte."""
    isets = [iset for lt in parts for iset in lt.byte_isets]
    return StructureLifetimes(name, isets, 0, end_cycle)


def canonical_ids(
    isets: Sequence[IntervalSet],
) -> Tuple[np.ndarray, List[IntervalSet]]:
    """``byte2iid`` and the unique sets (id 0 = the empty set), interned by
    the sets' canonical byte encoding in first-occurrence byte order."""
    table: Dict[bytes, int] = {b"": 0}
    unique: List[IntervalSet] = [IntervalSet()]
    byte2iid = np.zeros(len(isets), dtype=np.int32)
    for b, iset in enumerate(isets):
        key = b"".join(a.tobytes() for a in iset._arrays())
        iid = table.get(key)
        if iid is None:
            iid = len(unique)
            table[key] = iid
            unique.append(iset)
        byte2iid[b] = iid
    return byte2iid, unique
