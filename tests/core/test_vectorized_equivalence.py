"""Equivalence suite: vectorized engine vs the pure-Python reference.

The numpy interval kernels, the windowed 2-D enumerator and the batch API
must be *bit-for-bit* interchangeable with the reference implementations
preserved in :mod:`repro.core._reference` — same intervals, same signature
multisets, same outcome cycles, same series arrays.  Randomized inputs are
seeded (hypothesis + a fixed-seed numpy generator) so failures replay.

Every kernel is exercised on both dispatch paths: the tiny-input Python
path and the numpy path, by pinning ``SMALL_KERNEL_CUTOFF`` to 0 (always
numpy) and to a huge value (always Python) and comparing against the
reference either way.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import _reference as ref
from repro.core import intervals as iv
from repro.core.avf import (
    AvfConfig,
    StructureLifetimes,
    _canonical_iset_ids,
    _enumerate_signatures,
    _unique_rows,
    ace_locality,
    compute_mb_avf,
    compute_mb_avf_batch,
)
from repro.core.faultmodes import FaultMode
from repro.core.intervals import (
    IntervalSet,
    intersection_duration,
    sweep_max,
)
from repro.core.layout import Interleaving, build_cache_array
from repro.core.protection import SCHEMES


CUTOFFS = [0, 10**9]  # always-numpy / always-python dispatch


@contextmanager
def kernel_cutoff(value):
    """Force every kernel through one dispatch path within the block."""
    saved = iv.SMALL_KERNEL_CUTOFF
    iv.SMALL_KERNEL_CUTOFF = value
    try:
        yield
    finally:
        iv.SMALL_KERNEL_CUTOFF = saved


# -- strategies ---------------------------------------------------------------


@st.composite
def interval_sets(draw, max_cls=3, max_ivals=12, horizon=200):
    """A valid IntervalSet: sorted, non-overlapping, classes 1..max_cls."""
    n = draw(st.integers(0, max_ivals))
    cuts = draw(
        st.lists(
            st.integers(0, horizon), min_size=2 * n, max_size=2 * n, unique=True
        )
    )
    cuts.sort()
    out = IntervalSet()
    for i in range(n):
        out.append(cuts[2 * i], cuts[2 * i + 1], draw(st.integers(1, max_cls)))
    return out


set_lists = st.lists(interval_sets(), min_size=0, max_size=6)


def as_tuples(iset):
    return list(iset)


# -- interval kernels ---------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(sets=set_lists)
@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_sweep_max_matches_reference(sets, cutoff):
    with kernel_cutoff(cutoff):
        got = as_tuples(sweep_max(sets))
    assert got == as_tuples(ref.sweep_max_ref(sets))


@settings(max_examples=60, deadline=None)
@given(sets=set_lists, due=st.booleans())
@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_combine_outcomes_matches_reference(sets, due, cutoff):
    with kernel_cutoff(cutoff):
        got = iv.combine_outcomes(sets, due_preempts_sdc=due)
    want = ref.combine_outcomes_ref(sets, due_preempts_sdc=due)
    assert as_tuples(got) == as_tuples(want)


@settings(max_examples=60, deadline=None)
@given(iset=interval_sets(), lo=st.integers(0, 200), span=st.integers(0, 200))
@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_clip_matches_reference(iset, lo, span, cutoff):
    with kernel_cutoff(cutoff):
        got = iset.clip(lo, lo + span)
    assert as_tuples(got) == as_tuples(ref.clip_ref(iset, lo, lo + span))


@pytest.mark.parametrize("cutoff", CUTOFFS)
@pytest.mark.parametrize("window", [
    (1, 1), (3, 3), (7, 7),              # empty, inside an interval
    (0, 0), (2, 2), (5, 5), (9, 9),      # empty, on edges / in a gap
    (1, 0), (8, 7), (3, 1), (10, 0),     # inverted
])
def test_clip_empty_or_inverted_window_is_empty(window, cutoff):
    """Regression: the numpy path returned a zero-length interval for
    ``[(0, 2, 1)].clip(1, 1)`` where the reference returns nothing."""
    for iset in (
        IntervalSet([(0, 2, 1)]),
        IntervalSet([(0, 2, 1), (2, 4, 2), (6, 9, 3)]),
    ):
        with kernel_cutoff(cutoff):
            got = iset.clip(*window)
        assert as_tuples(got) == as_tuples(ref.clip_ref(iset, *window)) == []


@settings(max_examples=60, deadline=None)
@given(iset=interval_sets(), mapping=st.lists(st.integers(0, 3), min_size=4, max_size=4))
@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_map_class_matches_reference(iset, mapping, cutoff):
    with kernel_cutoff(cutoff):
        got = iset.map_class(lambda c: mapping[c])
    want = ref.map_class_ref(iset, lambda c: mapping[c])
    assert as_tuples(got) == as_tuples(want)


@settings(max_examples=60, deadline=None)
@given(iset=interval_sets(), klass=st.integers(1, 4))
@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_totals_match_reference(iset, klass, cutoff):
    with kernel_cutoff(cutoff):
        total = iset.total(klass)
        at_least = iset.total_at_least(klass)
    assert total == ref.total_ref(iset, klass)
    assert at_least == ref.total_at_least_ref(iset, klass)


@settings(max_examples=60, deadline=None)
@given(a=interval_sets(), b=interval_sets(), klass=st.integers(1, 3))
@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_intersection_duration_matches_reference(a, b, klass, cutoff):
    with kernel_cutoff(cutoff):
        got = intersection_duration(a, b, klass)
    assert got == ref.intersection_duration_ref(a, b, klass)


@settings(max_examples=40, deadline=None)
@given(
    iset=interval_sets(),
    edges=st.lists(st.integers(0, 220), min_size=2, max_size=8, unique=True),
)
@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_bucket_accumulate_matches_reference(iset, edges, cutoff):
    edges = np.asarray(sorted(edges), dtype=np.int64)
    got = np.zeros((len(edges) - 1, 4), dtype=np.float64)
    want = np.zeros_like(got)
    with kernel_cutoff(cutoff):
        iset.bucket_accumulate(edges, got)
    ref.bucket_accumulate_ref(iset, edges, want)
    np.testing.assert_array_equal(got, want)


# -- _unique_rows (satellite: empty-input fix) --------------------------------


def test_unique_rows_empty_input():
    empty = np.empty((0, 4), dtype=np.int32)
    uniq, counts = _unique_rows(empty)
    assert uniq.shape == (0, 4)
    assert counts.shape == (0,)


def test_unique_rows_counts():
    a = np.array([[1, 2], [0, 1], [1, 2], [1, 2], [0, 1]], dtype=np.int32)
    uniq, counts = _unique_rows(a)
    got = {tuple(r): c for r, c in zip(uniq.tolist(), counts.tolist())}
    assert got == {(0, 1): 2, (1, 2): 3}
    assert counts.sum() == len(a)


# -- enumeration + full engine -----------------------------------------------


def _random_lifetimes(rng, n_bytes, end_cycle=120, share=0.3):
    """Random classed lifetimes with deliberate duplicate interval sets."""
    pool = []
    for _ in range(max(2, n_bytes // 3)):
        s = IntervalSet()
        t = 0
        while t < end_cycle - 2 and len(s) < 5:
            t += int(rng.integers(1, 25))
            d = int(rng.integers(1, 20))
            if t + d >= end_cycle:
                break
            s.append(t, t + d, int(rng.integers(1, 4)))
            t += d
        pool.append(s)
    isets = [
        IntervalSet() if rng.random() < share
        else pool[int(rng.integers(0, len(pool)))]
        for _ in range(n_bytes)
    ]
    return StructureLifetimes("t", isets, 0, end_cycle)


MODES = [
    FaultMode.linear(1),
    FaultMode.linear(2),
    FaultMode.linear(4),
    FaultMode.rect(2, 2),
    FaultMode.rect(2, 3),
    FaultMode.rect(4, 4),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("mode", MODES, ids=[m.name for m in MODES])
def test_enumerator_matches_reference(seed, mode):
    rng = np.random.default_rng(seed)
    array = build_cache_array(
        4, 2, 16, domain_bytes=4,
        style=Interleaving.WAY_PHYSICAL, factor=2, name="t",
    )
    lts = _random_lifetimes(rng, array.n_bytes)
    canon = _canonical_iset_ids(lts)
    got = _enumerate_signatures(array, canon.byte2iid, mode)
    want = ref.enumerate_signatures_ref(array, canon.byte2iid, mode)
    # The production enumerator drops all-lifetime-empty placements (they
    # classify to nothing); the reference emits their signature.  Outcomes
    # are unaffected — compare after dropping empty signatures.
    want = {
        sig: n for sig, n in want.items() if any(ids for _, ids in sig)
    }
    assert got == want


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("scheme", ["none", "parity", "secded"])
@pytest.mark.parametrize("due", [False, True])
@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_engine_outcomes_match_reference(seed, scheme, due, cutoff):
    rng = np.random.default_rng(seed)
    array = build_cache_array(
        4, 2, 16, domain_bytes=4,
        style=Interleaving.NONE, factor=1, name="t",
    )
    mode = FaultMode.rect(2, 2) if seed else FaultMode.linear(3)
    edges = (0, 30, 60, 90, 120)
    lts = _random_lifetimes(rng, array.n_bytes)
    with kernel_cutoff(cutoff):
        res = compute_mb_avf(
            array, lts, mode, SCHEMES[scheme],
            due_preempts_sdc=due, series_edges=edges,
        )
    want_cycles, want_series = ref.compute_outcome_cycles_ref(
        array, lts, mode, SCHEMES[scheme],
        due_preempts_sdc=due, series_edges=edges,
    )
    assert res.outcome_cycles == want_cycles
    np.testing.assert_array_equal(res.series, want_series)


@pytest.mark.parametrize("seed", [0, 3])
def test_batch_matches_singles(seed):
    rng = np.random.default_rng(seed)
    array = build_cache_array(
        4, 2, 16, domain_bytes=4,
        style=Interleaving.WAY_PHYSICAL, factor=2, name="t",
    )
    configs = [
        AvfConfig(mode=m, scheme=SCHEMES[s], due_preempts_sdc=d)
        for m in (FaultMode.linear(2), FaultMode.rect(2, 2))
        for s in ("parity", "secded")
        for d in (False, True)
    ]
    lts_batch = _random_lifetimes(rng, array.n_bytes)
    batch = compute_mb_avf_batch(array, lts_batch, configs)
    # Fresh lifetimes (and a fresh array memo) for the single-call runs so
    # the comparison does not share state with the batch.
    rng = np.random.default_rng(seed)
    array2 = build_cache_array(
        4, 2, 16, domain_bytes=4,
        style=Interleaving.WAY_PHYSICAL, factor=2, name="t",
    )
    lts_single = _random_lifetimes(rng, array2.n_bytes)
    for cfg, got in zip(configs, batch):
        want = compute_mb_avf(
            array2, lts_single, cfg.mode, cfg.scheme,
            due_preempts_sdc=cfg.due_preempts_sdc,
        )
        assert got.outcome_cycles == want.outcome_cycles
        assert got.n_groups == want.n_groups
        assert got.due_avf == want.due_avf
        assert got.sdc_avf == want.sdc_avf


def test_batch_reuses_caches(monkeypatch):
    from repro import obs

    rng = np.random.default_rng(7)
    array = build_cache_array(4, 2, 16, domain_bytes=4, name="t")
    lts = _random_lifetimes(rng, array.n_bytes)
    configs = [
        AvfConfig(mode=FaultMode.linear(2), scheme=SCHEMES["parity"]),
        AvfConfig(mode=FaultMode.linear(2), scheme=SCHEMES["secded"]),
        AvfConfig(mode=FaultMode.linear(2), scheme=SCHEMES["parity"]),
    ]
    obs.enable()
    try:
        obs.get_metrics().reset()
        compute_mb_avf_batch(array, lts, configs)
        snap = obs.get_metrics().snapshot()
        # config 2 re-enumerates nothing and re-classifies nothing: the
        # memoized enumeration and the combined-outcome cache both hit.
        assert snap["counters"]["avf.batch_cache_hits"] > 0
        assert snap["counters"]["avf.computations"] == 3
    finally:
        obs.disable()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ace_locality_matches_reference(seed):
    rng = np.random.default_rng(seed)
    array = build_cache_array(
        4, 2, 16, domain_bytes=4,
        style=Interleaving.WAY_PHYSICAL, factor=2, name="t",
    )
    lts = _random_lifetimes(rng, array.n_bytes)
    got = ace_locality(array, lts)
    rng = np.random.default_rng(seed)
    lts2 = _random_lifetimes(rng, array.n_bytes)
    want = ref.ace_locality_ref(array, lts2)
    assert got == want
