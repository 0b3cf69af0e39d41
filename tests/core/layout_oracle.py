"""Per-bit layout builders: the slow oracle for the broadcast layouts.

These are the original row-list builders of :mod:`repro.core.layout`.
Each one spells every row out as nested lists of interleave clusters and
fills the physical maps one bit at a time, which makes the mapping easy
to read and slow to run.  The tests pin the production builders to them
bit for bit, and ``benchmarks/test_perf_engine.py`` times against them.
"""

from typing import List, Sequence

import numpy as np

from repro.core.layout import Interleaving, SramArray, cache_byte_index


def assemble(
    name: str,
    rows_of_clusters: Sequence[Sequence[Sequence[int]]],
    domain_bytes: int,
    factor: int,
    style: Interleaving,
) -> SramArray:
    """Build an :class:`SramArray` from per-row lists of interleave clusters.

    Each cluster is a list of ``I`` domain ids whose bits are bit-interleaved
    across ``I * domain_bits`` physical columns: physical position ``q``
    inside the cluster holds bit ``q // I`` of domain ``cluster[q % I]``.
    """
    domain_bits = domain_bytes * 8
    width = len(rows_of_clusters[0]) * len(rows_of_clusters[0][0]) * domain_bits
    byte_of = np.empty((len(rows_of_clusters), width), dtype=np.int32)
    domain_of = np.empty_like(byte_of)
    for r, clusters in enumerate(rows_of_clusters):
        col = 0
        for cluster in clusters:
            ilv = len(cluster)
            for q in range(ilv * domain_bits):
                dom = cluster[q % ilv]
                bit = q // ilv
                domain_of[r, col] = dom
                byte_of[r, col] = dom * domain_bytes + bit // 8
                col += 1
        if col != width:
            raise ValueError("rows must all have the same physical width")
    return SramArray(name, byte_of, domain_of, domain_bytes, factor, style)


def build_cache_array(
    n_sets: int,
    n_ways: int,
    line_bytes: int,
    *,
    domain_bytes: int = 4,
    style: Interleaving = Interleaving.NONE,
    factor: int = 1,
    name: str = "cache",
) -> SramArray:
    """Row-list twin of :func:`repro.core.layout.build_cache_array`."""
    if factor < 1:
        raise ValueError("interleave factor must be >= 1")
    if style is Interleaving.NONE:
        factor = 1
    if line_bytes % domain_bytes:
        raise ValueError("line size must be a multiple of the domain size")
    domains_per_line = line_bytes // domain_bytes

    def line_domain(set_idx: int, way: int, k: int) -> int:
        return (
            cache_byte_index(set_idx, way, 0, n_ways, line_bytes) // domain_bytes + k
        )

    rows: List[List[List[int]]] = []
    if style in (Interleaving.NONE, Interleaving.LOGICAL):
        if domains_per_line % factor:
            raise ValueError("logical interleaving factor must divide domains/line")
        for s in range(n_sets):
            for w in range(n_ways):
                rows.append(
                    [
                        [line_domain(s, w, g * factor + i) for i in range(factor)]
                        for g in range(domains_per_line // factor)
                    ]
                )
    elif style is Interleaving.WAY_PHYSICAL:
        if n_ways % factor:
            raise ValueError("way interleaving factor must divide associativity")
        for s in range(n_sets):
            for wg in range(n_ways // factor):
                rows.append(
                    [
                        [line_domain(s, wg * factor + i, k) for i in range(factor)]
                        for k in range(domains_per_line)
                    ]
                )
    elif style is Interleaving.INDEX_PHYSICAL:
        if n_sets % factor:
            raise ValueError("index interleaving factor must divide set count")
        for sg in range(n_sets // factor):
            for w in range(n_ways):
                rows.append(
                    [
                        [line_domain(sg * factor + i, w, k) for i in range(factor)]
                        for k in range(domains_per_line)
                    ]
                )
    else:
        raise ValueError(f"{style} is not a cache interleaving style")
    return assemble(name, rows, domain_bytes, factor, style)


def build_tag_array(
    n_sets: int,
    n_ways: int,
    *,
    tag_bytes: int = 3,
    factor: int = 1,
    name: str = "tags",
) -> SramArray:
    """Row-list twin of :func:`repro.core.layout.build_tag_array`."""
    if factor < 1 or n_ways % factor:
        raise ValueError("interleave factor must divide the way count")
    rows: List[List[List[int]]] = []
    for s in range(n_sets):
        rows.append(
            [
                [s * n_ways + wg * factor + i for i in range(factor)]
                for wg in range(n_ways // factor)
            ]
        )
    style = Interleaving.NONE if factor == 1 else Interleaving.WAY_PHYSICAL
    return assemble(name, rows, tag_bytes, factor, style)


def build_regfile_array(
    n_threads: int,
    n_regs: int,
    *,
    reg_bytes: int = 4,
    style: Interleaving = Interleaving.INTRA_THREAD,
    factor: int = 1,
    name: str = "vgpr",
) -> SramArray:
    """Row-list twin of :func:`repro.core.layout.build_regfile_array`."""
    if factor < 1:
        raise ValueError("interleave factor must be >= 1")

    def reg_domain(thread: int, reg: int) -> int:
        return thread * n_regs + reg

    rows: List[List[List[int]]] = []
    if style in (Interleaving.NONE, Interleaving.INTRA_THREAD):
        if style is Interleaving.NONE:
            factor = 1
        if n_regs % factor:
            raise ValueError("intra-thread factor must divide register count")
        for t in range(n_threads):
            rows.append(
                [
                    [reg_domain(t, g * factor + i) for i in range(factor)]
                    for g in range(n_regs // factor)
                ]
            )
    elif style is Interleaving.INTER_THREAD:
        if n_threads % factor:
            raise ValueError("inter-thread factor must divide thread count")
        for tg in range(n_threads // factor):
            rows.append(
                [
                    [reg_domain(tg * factor + i, r) for i in range(factor)]
                    for r in range(n_regs)
                ]
            )
    else:
        raise ValueError(f"{style} is not a register-file interleaving style")
    return assemble(name, rows, reg_bytes, factor, style)
