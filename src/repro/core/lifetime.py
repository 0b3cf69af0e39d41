"""Lifetime analysis: simulator events -> per-byte classed ACE intervals.

This is the "analysis phase" of the paper's two-phase AVF measurement
(Sec. VI-A).  It consumes the event streams produced by the simulator and
the annotations produced by the liveness pass, and emits
:class:`~repro.core.avf.StructureLifetimes` for each tracked structure.

Classification rules (per byte, per value segment):

* time from value creation (fill/write) to its **last live read** is ACE —
  a fault there corrupts a consumed value;
* time from the last live read to the **last read of any kind** is
  READ_DEAD — a fault there is observed (so a detector fires: false DUE)
  but the data is dynamically dead;
* everything else is unACE.

Reads come in three flavours: architectural loads (liveness from the
backward dataflow pass), line read-outs that fill the next cache level up
(liveness resolved *transitively* from how the filled copy was used), and
dirty write-backs (liveness from whether the written-back memory bytes are
later consumed or belong to a program output buffer).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..arch.cache import Cache
from ..arch.isa import WAVEFRONT_LANES
from ..arch.trace import EvictEvent, FillEvent, InstrRecord, ReadEvent, WriteEvent
from .avf import StructureLifetimes
from .intervals import AceClass, csr_from_intervals, csr_sweep_max, csr_take

__all__ = [
    "MemoryConsumption",
    "analyze_cache",
    "analyze_vgpr",
    "analyze_memory",
    "derive_tag_lifetimes",
]

_ACE = int(AceClass.ACE)
_DEAD = int(AceClass.READ_DEAD)
_EMPTY = np.zeros(0, dtype=np.int64)
_STORES = ("v_store", "v_store_u8")


def _lane_bytes(
    rec: InstrRecord, lanes: np.ndarray, needed: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Addresses ``(lanes, nbytes)`` the lanes access and which are live."""
    addr = rec.addrs[lanes].astype(np.int64)[:, None] + np.arange(rec.nbytes)
    if needed is None:
        return addr, np.ones(addr.shape, dtype=bool)
    m = needed[lanes].astype(np.int64)[:, None]
    return addr, ((m >> (8 * np.arange(rec.nbytes))) & 0xFF) != 0


def _global_accesses(
    records: Sequence[InstrRecord],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every byte access of the global loads and stores, in record order:
    ``(addr, t, is_store, live)`` (a store's bytes count as live)."""
    parts = []
    for rec in records:
        if rec.space == "global" and rec.op in _STORES + ("v_load", "v_load_u8"):
            store = rec.op in _STORES
            addr, live = _lane_bytes(
                rec, np.flatnonzero(rec.acc_mask), None if store else rec.load_needed
            )
            n = addr.size
            parts.append((addr.ravel(), np.full(n, rec.t), np.full(n, store), live.ravel()))
    addr, t, store, live = (
        np.concatenate([p[i] for p in parts] or [_EMPTY]) for i in range(4)
    )
    return addr, t, store.astype(bool), live.astype(bool)


def _output_mask(
    base: int, size: int, output_ranges: Sequence[Tuple[int, int]]
) -> np.ndarray:
    """Which bytes of ``[base, base + size)`` lie in a program output buffer."""
    mask = np.zeros(size, dtype=bool)
    for obase, osize in output_ranges:
        mask[max(obase - base, 0) : max(obase + osize - base, 0)] = True
    return mask


class MemoryConsumption:
    """Per-byte consumption index over global memory.

    Answers, for a byte written back to memory at cycle ``t``: will that
    value ever be consumed?  Consumption is a later live load before the
    next store, or membership in a program output buffer with no later
    store (the host reads outputs after the workload).

    Stores and loads (of stored bytes only) are kept sorted by the key
    ``addr * span + t``, so each query is a few binary searches.
    """

    def __init__(
        self,
        records: Sequence[InstrRecord],
        mem_size: int,
        output_ranges: Sequence[Tuple[int, int]],
    ) -> None:
        self._is_output = _output_mask(0, mem_size, output_ranges)
        addr, t, store, live = _global_accesses(records)
        self._span = int(t.max(initial=0)) + 1
        # The sentinel past the last store key ends every byte's range.
        self._stores = np.append(
            np.sort(addr[store] * self._span + t[store]), np.iinfo(np.int64).max
        )
        load = ~store & np.isin(addr, addr[store])
        key = addr[load] * self._span + t[load]
        order = np.argsort(key, kind="stable")
        self._loads = key[order]
        self._live = np.concatenate([[0], np.cumsum(live[load][order])])

    def _window(
        self, addr: np.ndarray, t: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Loads ``[i, j)`` of each byte of ``addr`` from ``t`` through its
        next store, and whether no store follows.  A ``t`` past every event
        keys past the byte's range, where it finds no load (``j <= i``)."""
        k = addr * self._span + t
        end = (addr + 1) * self._span
        nxt = self._stores[np.searchsorted(self._stores, k, side="right")]
        last = nxt >= end
        i = np.searchsorted(self._loads, k, side="left")
        j = np.searchsorted(self._loads, np.where(last, end - 1, nxt), side="right")
        return i, j, last

    def consumed(self, addr: np.ndarray, t: int) -> np.ndarray:
        """:meth:`live_after` of every byte of ``addr`` at once."""
        i, j, last = self._window(addr, t)
        return (self._live[j] > self._live[i]) | (self._is_output[addr] & last)

    def live_after(self, addr: int, t: int) -> bool:
        """True if the value at ``addr`` as of cycle ``t`` is ever consumed."""
        return bool(self.consumed(np.array([addr]), t)[0])

    def read_after(self, addr: int, t: int) -> bool:
        """True if the value at ``addr`` as of ``t`` is ever read (even dead)."""
        i, j, last = self._window(np.array([addr]), t)
        return bool(j[0] > i[0] or (self._is_output[addr] and last[0]))


_Part = Tuple[np.ndarray, np.ndarray, np.ndarray, int]


def _segments(b: np.ndarray, s: np.ndarray, tl: np.ndarray, ta: np.ndarray) -> List[_Part]:
    """Intervals of value segments of bytes ``b`` opened at ``s``, last read
    live at ``tl`` and last read at ``ta``: ACE ``[s, tl)`` and READ_DEAD
    ``[max(tl, s), ta)``, empty ones dropped."""
    lo = np.maximum(tl, s)
    return [
        (b[keep], start[keep], end[keep], cls)
        for keep, start, end, cls in ((tl > s, s, tl, _ACE), (ta > lo, lo, ta, _DEAD))
        if keep.any()
    ]


def _lifetimes(
    name: str, n_bytes: int, end_cycle: int, parts: List[_Part]
) -> StructureLifetimes:
    """The lifetimes of all emitted intervals, as one CSR table."""
    columns = [np.concatenate([p[i] for p in parts] or [_EMPTY]) for i in range(3)]
    cls = np.repeat([p[3] for p in parts], [len(p[0]) for p in parts])
    table = csr_from_intervals(n_bytes, *columns, cls)
    return StructureLifetimes.from_csr(name, table, 0, end_cycle)


class _ByteTracker:
    """Per-byte segment state machine of a cache's data array.

    Every operation takes an array of distinct byte ids.
    """

    def __init__(self, n_bytes: int) -> None:
        self.seg_start = np.full(n_bytes, -1, dtype=np.int64)
        self.last_live = np.zeros(n_bytes, dtype=np.int64)
        self.last_any = np.zeros(n_bytes, dtype=np.int64)
        self.parts: List[_Part] = []

    def open(self, b: np.ndarray, t: int) -> None:
        self.seg_start[b] = self.last_live[b] = self.last_any[b] = t

    def close(self, b: np.ndarray) -> None:
        b = b[self.seg_start[b] >= 0]
        self.parts += _segments(b, self.seg_start[b], self.last_live[b], self.last_any[b])
        self.seg_start[b] = -1

    def read(self, b: np.ndarray, t: int, live: np.ndarray) -> None:
        open_ = self.seg_start[b] >= 0
        b, live = b[open_], live[open_]
        self.last_any[b] = np.maximum(self.last_any[b], t)
        b = b[live]
        self.last_live[b] = np.maximum(self.last_live[b], t)


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
    line = np.arange(lb)
    all_live = np.ones(lb, dtype=bool)

    def slot(ev) -> np.ndarray:
        return (ev.set * cfg.n_ways + ev.way) * lb + line

    def read(b: np.ndarray, off: np.ndarray, t: int, live: np.ndarray) -> None:
        """A read of bytes ``b`` (line offsets ``off``); also marks the
        usage on the fill each byte's value came from."""
        trk.read(b, t, live)
        fid = origin_fill[b]
        for f in np.unique(fid[fid >= 0]).tolist():
            read_mask, live_mask = fills[f]
            mine = fid == f
            read_mask[off[mine]] = True
            live_mask[off[mine & live]] = True

    for ev in cache.events:
        if isinstance(ev, FillEvent):
            b = slot(ev)
            fills[ev.fill_id] = (np.zeros(lb, dtype=bool), np.zeros(lb, dtype=bool))
            trk.open(b, ev.t)
            origin_fill[b] = ev.fill_id
        elif isinstance(ev, WriteEvent):
            rec = records_by_uid[ev.uid]
            lanes = np.flatnonzero(rec.acc_mask)
            addr, _ = _lane_bytes(rec, lanes, None)
            addr = addr[addr[:, 0] - addr[:, 0] % lb == ev.line_addr]
            b = slot(ev)[0] + np.unique(addr - ev.line_addr)
            trk.close(b)
            trk.open(b, ev.t)
            origin_fill[b] = -1
        elif isinstance(ev, ReadEvent):
            b = slot(ev)
            if ev.kind == "demand":
                rec = records_by_uid[ev.uid]
                lanes = np.flatnonzero(rec.acc_mask)
                addr, live = _lane_bytes(rec, lanes, rec.load_needed)
                mine = addr[:, 0] - addr[:, 0] % lb == ev.line_addr
                off = (addr[mine] - ev.line_addr).ravel()
                read(b[0] + off, off, ev.t, live[mine].ravel())
            elif ev.kind == "fill":
                if upstream_fills is None or ev.link not in upstream_fills:
                    # No upstream analysis: conservatively fully live.
                    up_live = all_live
                else:
                    up_live = upstream_fills[ev.link][1]
                read(b, line, ev.t, up_live)
            else:  # writeback
                live = np.zeros(lb, dtype=bool)  # clean bytes are checked, not written
                if ev.byte_mask is not None:
                    o = np.flatnonzero(ev.byte_mask)
                    live[o] = True if memcons is None else memcons.consumed(ev.line_addr + o, ev.t)
                read(b, line, ev.t, live)
        elif isinstance(ev, EvictEvent):
            b = slot(ev)
            trk.close(b)
            origin_fill[b] = -1
    trk.close(np.arange(n_bytes))
    return _lifetimes(name or cache.name, n_bytes, end_cycle, trk.parts), fills


def merge_fill_maps(
    maps: Sequence[Dict[int, Tuple[np.ndarray, np.ndarray]]],
) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """Union per-fill verdicts from several upper-level caches (the L1s)."""
    out: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    for m in maps:
        for fid, (r, l) in m.items():
            if fid in out:
                out[fid][0][:] |= r
                out[fid][1][:] |= l
            else:
                out[fid] = (r.copy(), l.copy())
    return out


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
    is_output = _output_mask(base, size, output_ranges)
    # Per-byte events (offset, t, kind) in record order, kind 0 = store,
    # 1 = dead load, 2 = live load, after one cycle-0 store per byte (the
    # host initialisation).
    addr, t, store, live = _global_accesses(records)
    inside = (addr >= base) & (addr < base + size)
    zeros = np.zeros(size, dtype=np.int64)
    off = np.concatenate([np.arange(size, dtype=np.int64), addr[inside] - base])
    t = np.concatenate([zeros, t[inside]])
    kind = np.concatenate([zeros, np.where(store, 0, 1 + live)[inside]])
    order = np.argsort(off, kind="stable")
    off, t, kind = off[order], t[order], kind[order]
    # Every store opens a value segment; segment ids follow event order.
    store = kind == 0
    seg = np.cumsum(store) - 1
    seg_byte, seg_start = off[store], t[store]
    last_live = seg_start.copy()
    np.maximum.at(last_live, seg[kind == 2], t[kind == 2])
    last_any = seg_start.copy()
    np.maximum.at(last_any, seg[~store], t[~store])
    # A byte's last segment in an output buffer is ACE to the end.
    last = np.ones(len(seg_byte), dtype=bool)
    last[:-1] = seg_byte[1:] != seg_byte[:-1]
    held = last & is_output[seg_byte]
    last_live[held] = last_any[held] = end_cycle
    parts = _segments(seg_byte, seg_start, last_live, last_any)
    return _lifetimes(name, size, end_cycle, parts)


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

    Each line's union is the :func:`~repro.core.intervals.sweep_max` of
    its bytes, for all lines at once (:func:`csr_sweep_max`).
    """
    lt = data_lifetimes
    n_bytes = lt.n_bytes
    if n_bytes % line_bytes:
        raise ValueError("data lifetimes are not a whole number of lines")
    n_lines = n_bytes // line_bytes
    line = np.repeat(np.arange(n_bytes) // line_bytes, np.diff(lt.offsets))
    lines = csr_sweep_max(n_lines, line, lt.starts, lt.ends, lt.classes)
    offsets, idx = csr_take(lines[0], np.repeat(np.arange(n_lines), tag_bytes))
    return StructureLifetimes.from_csr(
        name or f"{lt.name}.tags",
        (offsets, lines[1][idx], lines[2][idx], lines[3][idx]),
        lt.start_cycle,
        lt.end_cycle,
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
    parts: List[_Part] = []
    mine = [r for r in records if r.wf == wf_id]
    if mine:
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
            parts.extend(_segments(idx, seg_start[idx], last_live[idx], last_any[idx]))
            seg_start[idx] = last_live[idx] = last_any[idx] = t

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
    return _lifetimes(name or f"vgpr.wf{wf_id}", n_bytes, end_cycle, parts)
