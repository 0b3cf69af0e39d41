"""MB-AVF computation engine (Sec. IV, V and VII of the paper).

Given

* a physical layout (:class:`~repro.core.layout.SramArray`),
* per-byte classed ACE lifetimes (:class:`StructureLifetimes`),
* a fault mode (:class:`~repro.core.faultmodes.FaultMode`) and
* a protection scheme (:class:`~repro.core.protection.ProtectionScheme`),

the engine enumerates every fault group of the mode in the structure,
splits each group into overlapped regions (one per protection domain it
touches), classifies each region through the scheme's reaction, combines the
regions with the SDC/DUE precedence rules, and integrates the resulting
outcome intervals into DUE and SDC MB-AVF values (eq. 2, 4-7).

Groups whose classification is identical — same domain-equality pattern
and same member lifetimes — are deduplicated, which makes the enumeration
of the ~1e5 groups of a real cache array cheap.  Enumeration is fully
vectorized: every mode geometry (contiguous Mx1 wordline faults and 2-D
``HxW`` rectangles alike) gathers the keys of the live placements in each
distinct block of ``H`` layout rows, weights them by the block's copies
and buckets them with a single lexsort.  Classification
and integration are one array sweep per config over all deduplicated key
rows at once (see :func:`_classify`).

Cross-configuration reuse
-------------------------
A sweep evaluates dozens of (mode, scheme, interleaving) configurations
over the *same* lifetimes, so the shared intermediates are cached where
they can be shared:

* canonical lifetime ids, with a read-only CSR interval table over the
  unique lifetimes, are computed once per :class:`StructureLifetimes` and
  cached on it,
* deduplicated fault-group key rows are memoized per
  ``(array, mode, lifetimes)`` on the array, beside one table of layout
  row ids per ``(array, lifetimes)`` that every mode shares,
* each config's outcome totals and series are memoized beside its key
  rows, keyed by the frozen :class:`AvfConfig`; every call still returns
  fresh ``outcome_cycles`` and ``series`` objects.

:func:`compute_mb_avf_batch` exposes this directly: hand it a list of
:class:`AvfConfig` and it shares every cache across the whole batch; the
single-config :func:`compute_mb_avf` is a thin wrapper.  Cache traffic is
observable via the ``avf.batch_cache_hits`` and ``avf.batch_cache_misses``
counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_metrics, get_tracer
from .faultmodes import FaultMode
from .intervals import (
    AceClass,
    Csr,
    IntervalSet,
    Outcome,
    csr_sweep_max,
    csr_take,
    intersection_duration,
)
from .layout import SramArray
from .protection import ProtectionScheme, region_outcomes

__all__ = [
    "StructureLifetimes",
    "AvfConfig",
    "MbAvfResult",
    "compute_mb_avf",
    "compute_mb_avf_batch",
    "compute_sb_avf",
    "merge_results",
    "ace_locality",
    "intersection_duration",
]

_EMPTY = np.zeros(0, dtype=np.int64)


class StructureLifetimes:
    """Per-byte classed ACE intervals for one hardware structure.

    One read-only int64 CSR table: tracked byte ``b`` owns intervals
    ``offsets[b]:offsets[b + 1]`` of ``starts``, ``ends`` and ``classes``,
    sorted and coalesced like an :class:`IntervalSet` (all 8 bits of a
    byte share one classification; bit-level liveness refinements are
    already folded in by the lifetime builder).  The analysis window is
    ``[start_cycle, end_cycle)``; intervals must lie inside it, and every
    class must be :attr:`AceClass.READ_DEAD` or :attr:`AceClass.ACE` (the
    engine raises ``ValueError`` otherwise).

    The constructor converts per-byte :class:`IntervalSet` once; builders
    hand over their table with :meth:`from_csr`.  ``byte_isets`` is a
    read-only view, and the engine caches canonical ids on the instance.
    """

    def __init__(
        self, name: str, byte_isets: Sequence[IntervalSet],
        start_cycle: int, end_cycle: int,
    ) -> None:
        arrays = [iset._arrays() for iset in byte_isets]
        offsets = np.cumsum([0] + [len(a[0]) for a in arrays])
        s, e, c = (np.concatenate([a[i] for a in arrays] or [_EMPTY]) for i in range(3))
        self._set(name, (offsets, s, e, c), start_cycle, end_cycle)

    @classmethod
    def from_csr(
        cls, name: str, table: Csr, start_cycle: int, end_cycle: int
    ) -> "StructureLifetimes":
        """Lifetimes over a CSR ``(offsets, starts, ends, classes)`` table."""
        obj = cls.__new__(cls)
        obj._set(name, table, start_cycle, end_cycle)
        return obj

    def _set(self, name: str, table: Csr, start_cycle: int, end_cycle: int) -> None:
        arrays = [np.ascontiguousarray(a, dtype=np.int64) for a in table]
        if not len(arrays[1]) == len(arrays[2]) == len(arrays[3]) == arrays[0][-1]:
            raise ValueError("CSR offsets and interval columns disagree")
        for arr in arrays:
            arr.flags.writeable = False
        self.offsets, self.starts, self.ends, self.classes = arrays
        self.name, self.start_cycle, self.end_cycle = name, start_cycle, end_cycle
        #: engine cache, filled by _canonical_iset_ids on first AVF computation
        self._canon_cache: Optional[_CanonicalIds] = None

    @property
    def n_bytes(self) -> int:
        return len(self.offsets) - 1

    @property
    def byte_isets(self) -> "_ByteIsets":
        return _ByteIsets(self)

    @property
    def window_cycles(self) -> int:
        return self.end_cycle - self.start_cycle

    def sb_ace_fraction(self) -> float:
        """Plain single-bit AVF with no protection (fraction of ACE bit-cycles)."""
        ace = self.classes == int(AceClass.ACE)
        total = int((self.ends[ace] - self.starts[ace]).sum())
        return total / (self.n_bytes * self.window_cycles)


class _ByteIsets(Sequence[IntervalSet]):
    """Read-only per-byte :class:`IntervalSet` view of a lifetimes table;
    items are built on access, over slices of the table."""

    def __init__(self, lifetimes: StructureLifetimes) -> None:
        self._lt = lifetimes

    def __len__(self) -> int:
        return self._lt.n_bytes

    def __getitem__(self, i: Any) -> Any:
        if isinstance(i, slice):
            return [self[b] for b in range(*i.indices(len(self)))]
        b = range(len(self))[i]
        return self._set(*self._lt.offsets[b:b + 2].tolist())

    def __iter__(self) -> Iterator[IntervalSet]:
        bounds = self._lt.offsets.tolist()
        return map(self._set, bounds[:-1], bounds[1:])

    def _set(self, lo: int, hi: int) -> IntervalSet:
        lt = self._lt
        return IntervalSet._from_arrays(lt.starts[lo:hi], lt.ends[lo:hi], lt.classes[lo:hi])


@dataclass(frozen=True)
class AvfConfig:
    """One (fault mode, protection scheme) engine configuration.

    ``series_edges`` must be a tuple (the config is hashable so batches can
    deduplicate); :func:`compute_mb_avf` converts sequences for you.
    """

    mode: FaultMode
    scheme: ProtectionScheme
    due_preempts_sdc: bool = False
    miscorrect_corrupts: bool = False
    series_edges: Optional[Tuple[int, ...]] = None


@dataclass
class MbAvfResult:
    """Result of one MB-AVF computation for a (structure, mode, scheme)."""

    structure: str
    mode: FaultMode
    scheme: str
    n_groups: int
    window_cycles: int
    #: summed group-cycles per outcome class (indexed by ``Outcome``)
    outcome_cycles: Dict[Outcome, float] = field(default_factory=dict)
    #: optional time series: bucket edges and per-bucket outcome group-cycles
    series_edges: Optional[np.ndarray] = None
    series: Optional[np.ndarray] = None  # (buckets, 4)

    def _avf(self, *outcomes: Outcome) -> float:
        denom = self.n_groups * self.window_cycles
        if denom == 0:
            return 0.0
        return sum(self.outcome_cycles.get(o, 0.0) for o in outcomes) / denom

    @property
    def due_avf(self) -> float:
        """DUE MB-AVF: true + false detected-uncorrected error AVF."""
        return self._avf(Outcome.TRUE_DUE, Outcome.FALSE_DUE)

    @property
    def true_due_avf(self) -> float:
        return self._avf(Outcome.TRUE_DUE)

    @property
    def false_due_avf(self) -> float:
        return self._avf(Outcome.FALSE_DUE)

    @property
    def sdc_avf(self) -> float:
        """SDC MB-AVF: silent-data-corruption AVF."""
        return self._avf(Outcome.SDC)

    @property
    def total_avf(self) -> float:
        """Any-error AVF (SDC + DUE)."""
        return self._avf(Outcome.SDC, Outcome.TRUE_DUE, Outcome.FALSE_DUE)

    def series_avf(self, outcome: Outcome) -> np.ndarray:
        """Per-bucket AVF time series for one outcome class."""
        if self.series is None or self.series_edges is None:
            raise ValueError("result was computed without a time series")
        widths = np.diff(self.series_edges).astype(np.float64, copy=False)
        denom = widths * self.n_groups
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(denom > 0, self.series[:, int(outcome)] / denom, 0.0)
        return out

    def quantized_avf(
        self, *outcomes: Outcome, reduce: str = "max"
    ) -> float:
        """Quantized AVF: worst (or percentile) windowed AVF over the run.

        Whole-run AVFs average away vulnerability spikes; quantized AVF
        (Biswas et al., the paper's ref [9]) reports the AVF of the worst
        small window instead, which is what burst-error budgeting needs.
        Requires the result to have been computed with ``series_edges``.
        ``reduce`` is ``'max'`` or ``'p<NN>'`` (e.g. ``'p95'``).
        """
        if not outcomes:
            outcomes = (Outcome.TRUE_DUE, Outcome.FALSE_DUE, Outcome.SDC)
        total = sum(self.series_avf(o) for o in outcomes)
        if reduce == "max":
            return float(total.max())
        if reduce.startswith("p"):
            return float(np.percentile(total, float(reduce[1:])))
        raise ValueError(f"unknown reduction {reduce!r}")


class _CanonicalIds(StructureLifetimes):
    """Canonical lifetime-id table of one :class:`StructureLifetimes`.

    ``byte2iid`` maps byte ids to canonical lifetime ids (0 = the empty
    set), numbered in the order of each lifetime's first byte.  The table
    itself holds the unique lifetimes: lifetime ``iid`` owns intervals
    ``offsets[iid]:offsets[iid + 1]``, which is what the engine's sweep
    gathers from.
    """

    def __init__(self, lifetimes: StructureLifetimes) -> None:
        lt = lifetimes
        self.byte2iid, first_byte = _canonical_ids(lt)
        offsets, idx = csr_take(lt.offsets, first_byte)
        table = (np.append(0, offsets), lt.starts[idx], lt.ends[idx], lt.classes[idx])
        self._set(lt.name, table, lt.start_cycle, lt.end_cycle)
        # The sweep maps classes before taking the max over a region, which
        # is exact only for AceClass labels (see _classify).
        bad = (self.classes != int(AceClass.READ_DEAD)) & (self.classes != int(AceClass.ACE))
        if bad.any():
            raise ValueError(
                f"lifetime class {int(self.classes[bad][0])} is not an AceClass "
                "(READ_DEAD or ACE)"
            )


def _canonical_ids(lifetimes: StructureLifetimes) -> Tuple[np.ndarray, np.ndarray]:
    """``byte2iid`` and the first byte of lifetimes ``1..n`` (exact dedup).

    Runs of equal length are compared as whole ``(starts, ends, classes)``
    rows, one ``np.unique`` over a void view per distinct length; ids are
    then numbered in first-occurrence byte order.
    """
    lt = lifetimes
    lengths = np.diff(lt.offsets)
    ids = np.zeros(len(lengths), dtype=np.int64)  # 1 + index into firsts
    firsts: List[np.ndarray] = [_EMPTY]
    for n in np.unique(lengths[lengths > 0]).tolist():
        rows = np.flatnonzero(lengths == n)
        at = lt.offsets[rows][:, None] + np.arange(n, dtype=np.int64)
        runs = np.concatenate([lt.starts[at], lt.ends[at], lt.classes[at]], axis=1)
        _, first, inverse = np.unique(
            runs.view(np.dtype((np.void, runs.itemsize * 3 * n))).ravel(),
            return_index=True, return_inverse=True,
        )
        ids[rows] = inverse.ravel() + sum(map(len, firsts)) + 1
        firsts.append(rows[first])
    first_byte = np.concatenate(firsts)
    order = np.argsort(first_byte)
    rank = np.zeros(len(order) + 1, dtype=np.int32)
    rank[order + 1] = np.arange(1, len(order) + 1, dtype=np.int32)
    return rank[ids], first_byte[order]


def _canonical_iset_ids(lifetimes: StructureLifetimes) -> _CanonicalIds:
    """Canonical lifetime ids for ``lifetimes``, computed once and cached.

    Bytes whose lifetimes are interval-for-interval equal share one id, so
    all downstream caches collapse identical lifetimes.
    """
    canon = lifetimes._canon_cache
    metrics = get_metrics()
    if canon is not None:
        if metrics:
            metrics.counter("avf.batch_cache_hits").inc()
        return canon
    if metrics:
        metrics.counter("avf.batch_cache_misses").inc()
    with get_tracer().span("canon", structure=lifetimes.name) as span:
        canon = _CanonicalIds(lifetimes)
        span.set(isets=canon.n_bytes, intervals=len(canon.starts))
    lifetimes._canon_cache = canon
    return canon


def _unique_rows(
    a: np.ndarray, weights: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """(unique rows, counts) via lexsort — much faster than unique(axis=0).

    A row's count is its number of copies, or the sum of their ``weights``.
    """
    if not len(a):
        return a[:0], np.zeros(0, dtype=np.int64)
    order = np.lexsort(a.T[::-1])
    b = a[order]
    change = np.empty(len(b), dtype=bool)
    change[0] = True
    np.any(b[1:] != b[:-1], axis=1, out=change[1:])
    starts = np.flatnonzero(change)
    w = np.ones(len(b), dtype=np.int64) if weights is None else weights[order]
    return b[starts], np.add.reduceat(w, starts)


def _row_ids(a: np.ndarray) -> np.ndarray:
    """Ids of the rows of 2-D ``a``, equal rows alike (exact, by bytes)."""
    seen: Dict[bytes, int] = {}
    ids = [seen.setdefault(row.tobytes(), len(seen)) for row in a]
    return np.array(ids, dtype=np.int64)


#: (row id, row holds a lifetime) per layout row; see :func:`_row_table`.
_RowTable = Tuple[np.ndarray, np.ndarray]


def _row_table(array: SramArray, canon: _CanonicalIds) -> _RowTable:
    """Ids and liveness of the rows of the lifetime plane, shared by modes.

    Rows share an id when their ``(domain_of - the row's first domain,
    lifetime id)`` contents are equal.
    """
    dom = array.domain_of
    iid_of = canon.byte2iid[array.byte_of]
    content = np.concatenate([dom - dom[:, :1], iid_of], axis=1)
    return _row_ids(content), (iid_of != 0).any(axis=1)


def _enumerate_signatures(
    array: SramArray, canon: _CanonicalIds, table: _RowTable, mode: FaultMode
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """Deduplicated fault-group keys of ``mode`` and their group counts.

    Every placement of the mode's ``HxW`` bounding box is keyed by the
    vector of (domain id relative to the first offset's domain, lifetime
    id) per position, ``2k`` int32 columns for a ``k``-bit mode.  Equal
    keys imply an identical domain-equality pattern and identical member
    lifetimes, hence an identical classification; one lexsort buckets
    them.  Placements whose members are all lifetime-empty classify to
    nothing and are never gathered (they still count in the denominator
    via ``n_groups``).

    Placements starting in equal blocks of ``H`` rows have equal keys.
    Blocks compare as ``2H - 1`` ids, their rows' ``table`` ids
    (:func:`_row_table`) and the spacing of their rows' first domains;
    keys are gathered in one copy of each distinct live block, weighted
    by its copies.  Also returns the numbers of live and distinct blocks.
    """
    h, w, k, cols = mode.height, mode.width, mode.n_bits, array.cols
    nr, nc = array.rows - h + 1, cols - w + 1
    if nr < 1 or nc < 1:  # a mode larger than the array has no placements
        nr = nc = 0
    row_id, row_live = table
    dom0 = array.domain_of[:, 0]
    blocks = np.empty((nr, 2 * h - 1), dtype=np.int64)
    live_block = np.zeros(nr, dtype=bool)
    for j in range(h):
        blocks[:, j] = row_id[j:j + nr]
        live_block |= row_live[j:j + nr]
    for j in range(1, h):
        blocks[:, h - 1 + j] = dom0[j:j + nr] - dom0[:nr]
    live_starts = np.flatnonzero(live_block)
    _, seen_at, copies = np.unique(
        _row_ids(blocks[live_starts]), return_index=True, return_counts=True
    )
    starts = live_starts[seen_at]
    # Bit (dr, c) of distinct block b sits at b * h * cols + dr * cols + c.
    rows = starts[:, None] + np.arange(h, dtype=np.int64)
    dom_flat = array.domain_of[rows].ravel()
    iid_of = canon.byte2iid[array.byte_of[rows]]
    active = np.zeros((len(starts), nc), dtype=bool)
    for dr, dc in mode.offsets:
        active |= iid_of[:, dr, dc:dc + nc] != 0
    block, c0 = np.nonzero(active)
    first = block * (h * cols) + c0
    iid_flat = iid_of.ravel()
    keys = np.empty((len(first), 2 * k), dtype=np.int32)
    for p, (dr, dc) in enumerate(mode.offsets):
        at = first + (dr * cols + dc)
        keys[:, p] = dom_flat[at]
        keys[:, k + p] = iid_flat[at]
    keys[:, 1:k] -= keys[:, :1]
    keys[:, 0] = 0
    uniq, counts = _unique_rows(keys, copies[block])
    return uniq, counts, len(live_starts), len(starts)


#: Group-cycles per outcome class and the optional (read-only) series.
_Result = Tuple[Dict[Outcome, float], Optional[np.ndarray]]


class _Groups:
    """Deduplicated fault groups of one (array, mode, lifetimes) entry.

    ``keys``/``counts`` come from :func:`_enumerate_signatures`;
    ``results`` memoizes each :class:`AvfConfig` evaluated on them.  The
    memo lives here rather than on the canonical table because a result
    depends on the layout as well as on the lifetimes.
    """

    __slots__ = ("keys", "counts", "results")

    def __init__(self, keys: np.ndarray, counts: np.ndarray) -> None:
        self.keys = keys
        self.counts = counts
        self.results: Dict[AvfConfig, _Result] = {}


def _groups_for(
    array: SramArray,
    canon: _CanonicalIds,
    mode: FaultMode,
    lifetimes: StructureLifetimes,
) -> _Groups:
    """Enumeration memo: key rows per (array, mode, canonical lifetimes)."""
    memo = array._sig_memo
    if memo is None:
        memo = array._sig_memo = {}
    key = (mode, canon)
    groups = memo.get(key)
    metrics = get_metrics()
    if groups is not None:
        if metrics:
            metrics.counter("avf.batch_cache_hits").inc()
        return groups
    if metrics:
        metrics.counter("avf.batch_cache_misses").inc()
    with get_tracer().span(
        "enumerate", structure=lifetimes.name, mode=mode.name
    ) as span:
        table = memo.get(canon)
        if table is None:
            table = memo[canon] = _row_table(array, canon)
        keys, counts, blocks, unique = _enumerate_signatures(array, canon, table, mode)
        groups = _Groups(keys, counts)
        span.set(signatures=len(keys), blocks=blocks, unique_blocks=unique)
    memo[key] = groups
    return groups


#: Per-instant coverage of the outcome classes FALSE_DUE, TRUE_DUE and SDC
#: is packed into one int64, 16 bits per class.  A field counts the open
#: intervals of its class in one row: a row has at most ``k`` members, a
#: member's intervals never overlap and an end never precedes its own
#: start, so a field stays within ``[0, 2k]`` and never borrows from or
#: carries into its neighbour.
_PACK = np.array([0, 1, 1 << 16, 1 << 32], dtype=np.int64)
_DUE_FIELDS = (1 << 32) - 1


def _classify(
    canon: _CanonicalIds, keys: np.ndarray, k: int, cfg: AvfConfig
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Outcome segments of every key row of one config, in one sweep.

    A region's outcome is its reaction's table applied to the max-class
    union of its members (eq. 5-6), and a group's outcome is the max over
    its regions (Sec. VII-B).  Every reaction table is non-decreasing in
    AceClass, so mapping each member interval through its region's table
    first and taking one max over the whole row is the same thing.  The
    mapped member intervals of all rows become +/- coverage events, sorted
    once by (row, time); each row's deltas sum to zero, so one global
    cumsum gives every row's coverage.  With ``due_preempts_sdc`` (Sec.
    VIII) SDC becomes a true DUE wherever DUE coverage is also present;
    only DETECTED regions yield DUE outcomes.

    Returns ``(row, start, end, outcome)`` of the non-empty segments.
    """
    lut = np.array(
        [
            region_outcomes(
                cfg.scheme.react(n), miscorrect_corrupts=cfg.miscorrect_corrupts
            )
            for n in range(k + 1)
        ],
        dtype=np.int64,
    )
    dom, iid = keys[:, :k], keys[:, k:]
    # A position's region size: the positions of its row in its domain.
    size = np.empty(dom.shape, dtype=np.intp)
    for p in range(k):
        size[:, p] = (dom == dom[:, p:p + 1]).sum(axis=1)
    rows, pos = np.nonzero((iid != 0) & lut.any(axis=1)[size])
    bounds, ival = csr_take(canon.offsets, iid[rows, pos])
    lengths = np.diff(bounds)
    cls = lut[np.repeat(size[rows, pos], lengths), canon.classes[ival]]
    keep = cls > 0
    ival = ival[keep]
    ev_row = np.repeat(rows, lengths)[keep]
    weight = _PACK[cls[keep]]
    t = np.concatenate([canon.starts[ival], canon.ends[ival]])
    row = np.concatenate([ev_row, ev_row])
    order = np.lexsort((t, row))
    t, row = t[order], row[order]
    cov = np.cumsum(np.concatenate([weight, -weight])[order])
    seg = (cov > 0).astype(np.int8, copy=False)
    seg += cov >= _PACK[2]
    seg += cov >= _PACK[3]
    if cfg.due_preempts_sdc:
        seg[(seg == int(Outcome.SDC)) & ((cov & _DUE_FIELDS) > 0)] = int(
            Outcome.TRUE_DUE
        )
    # Segment i spans [t[i], t[i + 1]); a row's last event leaves zero
    # coverage, so a classed segment never straddles two rows.
    idx = np.flatnonzero((seg[:-1] > 0) & (t[1:] > t[:-1]))
    return row[idx], t[idx], t[idx + 1], seg[idx]


def _bucket_series(
    edges: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    weight: np.ndarray,
    cls: np.ndarray,
) -> np.ndarray:
    """Weighted per-class overlap of segments with each bucket of ``edges``."""
    nb = len(edges) - 1
    out = np.zeros((nb, 4), dtype=np.int64)
    lo = np.maximum(start, edges[0])
    hi = np.minimum(end, edges[-1])
    m = lo < hi
    lo, hi, weight, cls = lo[m], hi[m], weight[m], cls[m]
    b0 = np.searchsorted(edges, lo, side="right") - 1
    b1 = np.searchsorted(edges, hi, side="left") - 1
    np.add.at(out, (b0, cls), weight * (np.minimum(hi, edges[b0 + 1]) - lo))
    x = b1 > b0
    b0, b1, hi, weight, cls = b0[x], b1[x], hi[x], weight[x], cls[x]
    np.add.at(out, (b1, cls), weight * (hi - edges[b1]))
    # Buckets strictly between b0 and b1 are covered whole.
    full = np.zeros((nb + 1, 4), dtype=np.int64)
    np.add.at(full, (b0 + 1, cls), weight)
    np.add.at(full, (b1, cls), -weight)
    out += np.cumsum(full[:-1], axis=0) * np.diff(edges)[:, None]
    return out


def _integrate(
    groups: _Groups,
    segments: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    edges: Optional[np.ndarray],
) -> _Result:
    """Group-cycles per outcome class and the series, summed in int64.

    Every term is an integer, so the float totals are exact and equal the
    reference's bit for bit.
    """
    row, start, end, cls = segments
    weight = groups.counts[row]
    mass = (end - start) * weight
    cycles = {
        o: float(mass[cls == o].sum())
        for o in (Outcome.FALSE_DUE, Outcome.TRUE_DUE, Outcome.SDC)
    }
    series = None
    if edges is not None:
        series = _bucket_series(edges, start, end, weight, cls).astype(
            np.float64, copy=False
        )
        series.flags.writeable = False
    return cycles, series


def compute_mb_avf_batch(
    array: SramArray,
    lifetimes: StructureLifetimes,
    configs: Sequence[AvfConfig],
) -> List[MbAvfResult]:
    """Compute MB-AVFs for many engine configurations in one pass.

    Canonical lifetime ids are resolved once; fault-group enumeration is
    memoized per mode; each config is classified and integrated by one
    array sweep over all its key rows, and its result is memoized per
    config.  Use this instead of looping over :func:`compute_mb_avf`
    whenever several (mode, scheme) pairs are evaluated on the same
    structure — sweeps, design-space studies, the perf benches.
    """
    tracer = get_tracer()
    metrics = get_metrics()
    results: List[MbAvfResult] = []
    with tracer.span(
        "batch", structure=lifetimes.name, configs=len(configs)
    ):
        canon = _canonical_iset_ids(lifetimes)
        for cfg in configs:
            mode, scheme = cfg.mode, cfg.scheme
            groups = _groups_for(array, canon, mode, lifetimes)
            n_groups = array.n_groups(mode.height, mode.width)
            n_rows = len(groups.keys)
            if metrics:
                # The dedup hit-rate is 1 - signatures/groups: every group
                # beyond its key row's first is classified for free.
                metrics.counter("avf.computations").inc()
                metrics.counter("avf.groups_enumerated").inc(n_groups)
                metrics.counter("avf.unique_signatures").inc(n_rows)
            edges = None
            if cfg.series_edges is not None:
                edges = np.asarray(cfg.series_edges, dtype=np.int64)
            result = groups.results.get(cfg)
            if result is not None:
                if metrics:
                    metrics.counter("avf.batch_cache_hits").inc()
            else:
                if metrics:
                    metrics.counter("avf.batch_cache_misses").inc()
                with tracer.span(
                    "classify", signatures=n_rows, scheme=scheme.name
                ):
                    segments = _classify(canon, groups.keys, mode.n_bits, cfg)
                with tracer.span("integrate", signatures=n_rows):
                    result = _integrate(groups, segments, edges)
                groups.results[cfg] = result
                if metrics:
                    metrics.counter("avf.regions_classified").inc(n_rows)
            cycles, series = result
            results.append(
                MbAvfResult(
                    structure=lifetimes.name,
                    mode=mode,
                    scheme=scheme.name,
                    n_groups=n_groups,
                    window_cycles=lifetimes.window_cycles,
                    outcome_cycles=dict(cycles),
                    series_edges=edges,
                    series=None if series is None else series.copy(),
                )
            )
    return results


def compute_mb_avf(
    array: SramArray,
    lifetimes: StructureLifetimes,
    mode: FaultMode,
    scheme: ProtectionScheme,
    *,
    due_preempts_sdc: bool = False,
    miscorrect_corrupts: bool = False,
    series_edges: Optional[Sequence[int]] = None,
) -> MbAvfResult:
    """Compute the DUE and SDC MB-AVF of ``array`` for one fault mode.

    ``due_preempts_sdc`` enables the Sec. VIII simultaneous-read rule (a
    detected region fires before an undetected region's data can propagate,
    e.g. inter-thread interleaving within one GPU wavefront read).

    ``series_edges`` optionally requests an AVF-over-time series with the
    given bucket boundaries (used for the paper's phase plots, Fig. 5/8).

    Repeated calls on the same ``(array, lifetimes)`` reuse the cached
    enumeration and, for an equal config, the memoized result; see
    :func:`compute_mb_avf_batch`.
    """
    cfg = AvfConfig(
        mode=mode,
        scheme=scheme,
        due_preempts_sdc=due_preempts_sdc,
        miscorrect_corrupts=miscorrect_corrupts,
        series_edges=tuple(series_edges) if series_edges is not None else None,
    )
    return compute_mb_avf_batch(array, lifetimes, [cfg])[0]


def compute_sb_avf(
    array: SramArray,
    lifetimes: StructureLifetimes,
    scheme: ProtectionScheme,
    *,
    series_edges: Optional[Sequence[int]] = None,
) -> MbAvfResult:
    """Single-bit AVF: MB-AVF of the degenerate 1x1 fault mode."""
    return compute_mb_avf(
        array, lifetimes, FaultMode.linear(1), scheme, series_edges=series_edges
    )


def merge_results(results: Sequence[MbAvfResult]) -> MbAvfResult:
    """Aggregate MB-AVF results over replicated structures.

    Used to combine the per-CU L1 caches, or the per-wavefront register
    files, into one structure-level AVF: outcome group-cycles and group
    counts add; all inputs must share the fault mode, scheme and analysis
    window.
    """
    if not results:
        raise ValueError("nothing to merge")
    first = results[0]
    outcome: Dict[Outcome, float] = {}
    n_groups = 0
    series = None
    for r in results:
        if r.mode != first.mode or r.scheme != first.scheme:
            raise ValueError("cannot merge results of different configurations")
        if r.window_cycles != first.window_cycles:
            raise ValueError("cannot merge results with different windows")
        n_groups += r.n_groups
        for o, cyc in r.outcome_cycles.items():
            outcome[o] = outcome.get(o, 0.0) + cyc
        if r.series is not None:
            series = r.series.copy() if series is None else series + r.series
    return MbAvfResult(
        structure=first.structure,
        mode=first.mode,
        scheme=first.scheme,
        n_groups=n_groups,
        window_cycles=first.window_cycles,
        outcome_cycles=outcome,
        series_edges=first.series_edges,
        series=series,
    )


def ace_locality(array: SramArray, lifetimes: StructureLifetimes) -> float:
    """ACE locality: tendency of physically adjacent bits to be ACE together.

    Defined as the aggregate Jaccard overlap of ACE time between horizontally
    adjacent bit pairs::

        locality = sum_pairs |ACE_i ∩ ACE_j| / sum_pairs |ACE_i ∪ ACE_j|

    1.0 means neighbours are always ACE at exactly the same cycles (the MB-AVF
    of a fault covering them collapses to the SB-AVF); 0.0 means ACE time
    never overlaps (MB-AVF approaches M times SB-AVF).  Structures with high
    ACE locality have lower MB-AVF (Sec. VI-B).

    All adjacent pairs of the whole array are bucketed with one lexsort
    (instead of one ``np.unique`` per row); each distinct (lifetime id,
    lifetime id) pair becomes one row holding both members' ACE
    intervals, whose union length (:func:`csr_sweep_max`) gives
    ``|ACE_i u ACE_j|`` and ``|ACE_i n ACE_j| = |ACE_i| + |ACE_j| -`` that.
    """
    canon = _canonical_iset_ids(lifetimes)
    iid_of = canon.byte2iid[array.byte_of]
    pairs = np.stack(
        [iid_of[:, :-1].ravel(), iid_of[:, 1:].ravel()], axis=1
    )
    uniq, counts = _unique_rows(pairs)
    n = len(uniq)
    bounds, idx = csr_take(canon.offsets, uniq.T.ravel())
    row = np.repeat(np.tile(np.arange(n, dtype=np.int64), 2), np.diff(bounds))
    ace = canon.classes[idx] == int(AceClass.ACE)
    row, starts, ends = row[ace], canon.starts[idx[ace]], canon.ends[idx[ace]]
    union = csr_sweep_max(n, row, starts, ends, np.ones(len(row), dtype=np.int64))
    u_row = np.repeat(np.arange(n, dtype=np.int64), np.diff(union[0]))
    union_len = np.bincount(u_row, weights=union[2] - union[1], minlength=n)
    both_len = np.bincount(row, weights=ends - starts, minlength=n)
    inter = float((counts * (both_len - union_len).astype(np.int64, copy=False)).sum())
    total = float((counts * union_len.astype(np.int64, copy=False)).sum())
    return inter / total if total else 1.0
