"""SPECrate 2017 surrogate workloads (Fig 14).

Fig 14's purpose is narrow: SVR must not hurt *regular* code — code whose
loads either hit the cache, are covered by the stride prefetcher, or feed
no profitable indirect chain.  We substitute 23 small regular kernels, one
per SPECrate 2017 component the paper plots, drawn from a handful of
archetypes that exercise exactly SVR's could-go-wrong paths:

* ``stream``    — sequential reduction: SVR triggers, prefetches are
  accurate but redundant with the stride prefetcher (pure issue overhead);
* ``copy``      — load+store streaming;
* ``stencil``   — multi-stream striding reads;
* ``compute``   — register-resident arithmetic, few loads;
* ``cached``    — indirect gather inside an L1-resident table (accurate,
  pointless prefetches);
* ``short``     — striding loops with tiny trip counts and frequent
  discontinuities, SVR's worst case for over-fetch (wrf's -3% in Fig 14).

Each name gets its own size/mix parameters so the bars are not copies.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.isa.program import ProgramBuilder
from repro.memory.main_memory import MainMemory
from repro.workloads.base import (
    Workload,
    emit_word_index_load,
    emit_word_index_store,
)

SPEC_NAMES = (
    "perlbench", "gcc", "bwaves", "mcf", "cactuBSSN", "namd", "parest",
    "povray", "lbm", "omnetpp", "wrf", "xalancbmk", "x264", "blender",
    "cam4", "deepsjeng", "imagick", "leela", "nab", "exchange2",
    "fotonik3d", "roms", "xz",
)

# name -> (archetype, size_words, extra)
_SPEC_RECIPES: dict[str, tuple[str, int, int]] = {
    "perlbench": ("cached", 1 << 11, 3),
    "gcc": ("cached", 1 << 11, 5),
    "bwaves": ("stream", 1 << 15, 2),
    "mcf": ("cached", 1 << 12, 2),
    "cactuBSSN": ("stencil", 1 << 15, 3),
    "namd": ("compute", 1 << 10, 6),
    "parest": ("stencil", 1 << 14, 2),
    "povray": ("compute", 1 << 10, 8),
    "lbm": ("copy", 1 << 15, 1),
    "omnetpp": ("cached", 1 << 12, 4),
    "wrf": ("short", 1 << 14, 3),
    "xalancbmk": ("cached", 1 << 11, 2),
    "x264": ("copy", 1 << 14, 2),
    "blender": ("compute", 1 << 10, 5),
    "cam4": ("stencil", 1 << 14, 4),
    "deepsjeng": ("cached", 1 << 11, 6),
    "imagick": ("stream", 1 << 14, 3),
    "leela": ("cached", 1 << 10, 4),
    "nab": ("compute", 1 << 10, 7),
    "exchange2": ("compute", 1 << 9, 9),
    "fotonik3d": ("stream", 1 << 15, 2),
    "roms": ("stencil", 1 << 15, 2),
    "xz": ("short", 1 << 13, 4),
}


def _emit_repeat_header(b: ProgramBuilder, repeats: int) -> None:
    b.li("a5", repeats)
    b.li("s0", 0)
    b.label("repeat")


def _emit_repeat_footer(b: ProgramBuilder) -> None:
    b.addi("s0", "s0", 1)
    b.cmp_lt("t6", "s0", "a5")
    b.bnez("t6", "repeat")
    b.halt()


def _stream_kernel(b: ProgramBuilder, base: int, n: int) -> None:
    """sum += A[i] over a long sequential array."""
    b.li("a0", base)
    b.li("a1", n)
    b.li("t5", 0)
    b.li("t0", 0)
    b.label("loop")
    emit_word_index_load(b, "t2", "a0", "t0", "t1")
    b.add("t5", "t5", "t2")
    b.addi("t0", "t0", 1)
    b.cmp_lt("t3", "t0", "a1")
    b.bnez("t3", "loop")


def _copy_kernel(b: ProgramBuilder, src: int, dst: int, n: int) -> None:
    b.li("a0", src)
    b.li("a1", dst)
    b.li("a2", n)
    b.li("t0", 0)
    b.label("loop")
    emit_word_index_load(b, "t2", "a0", "t0", "t1")
    b.addi("t2", "t2", 1)
    emit_word_index_store(b, "t2", "a1", "t0", "t1")
    b.addi("t0", "t0", 1)
    b.cmp_lt("t3", "t0", "a2")
    b.bnez("t3", "loop")


def _stencil_kernel(b: ProgramBuilder, src: int, dst: int, n: int) -> None:
    """dst[i] = src[i-1] + src[i] + src[i+1]: three striding streams."""
    b.li("a0", src)
    b.li("a1", dst)
    b.li("a2", n - 1)
    b.li("t0", 1)
    b.label("loop")
    b.slli("t1", "t0", 3)
    b.add("t1", "a0", "t1")
    b.ld("t2", "t1", -8)
    b.ld("t3", "t1", 0)
    b.ld("t4", "t1", 8)
    b.add("t2", "t2", "t3")
    b.add("t2", "t2", "t4")
    emit_word_index_store(b, "t2", "a1", "t0", "t1")
    b.addi("t0", "t0", 1)
    b.cmp_lt("t3", "t0", "a2")
    b.bnez("t3", "loop")


def _compute_kernel(b: ProgramBuilder, base: int, n: int, depth: int) -> None:
    """ALU-dense loop: a striding load feeds one add; the bulk of the work
    is register-resident arithmetic (real compute-bound SPEC hot loops
    carry their state in registers, not through a load-to-ALU chain)."""
    b.li("a0", base)
    b.li("a1", n)
    b.li("t5", 1)
    b.li("t4", 0x1234567)
    b.li("t0", 0)
    b.label("loop")
    emit_word_index_load(b, "t2", "a0", "t0", "t1")
    b.add("t5", "t5", "t2")          # the only tainted consumer
    for i in range(depth):
        b.muli("t4", "t4", 3 + i)    # untainted register chain
        b.xori("t4", "t4", 0x5A5A)
        b.srli("t3", "t4", 7)
        b.add("t4", "t4", "t3")
    b.addi("t0", "t0", 1)
    b.cmp_lt("t3", "t0", "a1")
    b.bnez("t3", "loop")


def _cached_kernel(b: ProgramBuilder, table_base: int,
                   n: int, mask: int) -> None:
    """L1-resident table lookups with *computed* (xorshift) indices — the
    pointer-chasing-integer-code shape of perlbench/gcc/omnetpp.  There is
    no striding load to piggyback on, so SVR stays idle, as it does on the
    real binaries."""
    b.li("a1", table_base)
    b.li("a2", n)
    b.li("a3", mask)
    b.li("t5", 0)
    b.li("t2", 0x9E3779B9)           # xorshift state
    b.li("t0", 0)
    b.label("loop")
    b.srli("t3", "t2", 7)            # xorshift index generator
    b.xor("t2", "t2", "t3")
    b.slli("t3", "t2", 9)
    b.xor("t2", "t2", "t3")
    b.and_("t4", "t2", "a3")
    emit_word_index_load(b, "t4", "a1", "t4", "t1")   # table[idx] (in-L1)
    b.add("t5", "t5", "t4")
    b.addi("t0", "t0", 1)
    b.cmp_lt("t3", "t0", "a2")
    b.bnez("t3", "loop")


def _short_kernel(b: ProgramBuilder, base: int, rows: int, trip: int) -> None:
    """Many tiny striding loops with discontinuities between them — the
    over-fetch stress case (wrf)."""
    b.li("a0", base)
    b.li("a1", rows)
    b.li("a2", trip)
    b.li("t5", 0)
    b.li("t0", 0)                    # row
    b.label("rows")
    b.muli("t1", "t0", 17)           # scatter row starts
    b.andi("t1", "t1", (1 << 13) - 1)
    b.li("t2", 0)                    # j
    b.label("inner")
    b.add("t3", "t1", "t2")
    emit_word_index_load(b, "t4", "a0", "t3", "t6")
    b.add("t5", "t5", "t4")
    b.addi("t2", "t2", 1)
    b.cmp_lt("t6", "t2", "a2")
    b.bnez("t6", "inner")
    b.addi("t0", "t0", 1)
    b.cmp_lt("t6", "t0", "a1")
    b.bnez("t6", "rows")


def build_spec(name: str, memory: MainMemory | None = None,
               repeats: int = 4) -> Workload:
    """Build one SPEC surrogate by component name (Fig 14 x-axis)."""
    if name not in _SPEC_RECIPES:
        raise ValueError(f"unknown SPEC surrogate: {name!r}")
    archetype, size, extra = _SPEC_RECIPES[name]
    memory = memory or MainMemory()
    # A stable digest of the name: str hashes are salted per interpreter.
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    b = ProgramBuilder(f"spec-{name}")
    _emit_repeat_header(b, repeats)

    if archetype == "stream":
        base = memory.alloc_array(
            rng.integers(0, 1 << 20, size=size, dtype=np.int64), name="A")
        _stream_kernel(b, base, size)
    elif archetype == "copy":
        src = memory.alloc_array(
            rng.integers(0, 1 << 20, size=size, dtype=np.int64), name="A")
        dst = memory.alloc_zeros(size, name="B")
        _copy_kernel(b, src, dst, size)
    elif archetype == "stencil":
        src = memory.alloc_array(
            rng.integers(0, 1 << 20, size=size, dtype=np.int64), name="A")
        dst = memory.alloc_zeros(size, name="B")
        _stencil_kernel(b, src, dst, size)
    elif archetype == "compute":
        base = memory.alloc_array(
            rng.integers(1, 1 << 20, size=size, dtype=np.int64), name="A")
        _compute_kernel(b, base, size, depth=extra)
    elif archetype == "cached":
        table_words = 1 << 10        # 8 KiB: comfortably L1-resident
        # Seed index array stays resident to keep the memory image shape;
        # the kernel itself generates indices with xorshift.
        memory.alloc_array(
            rng.integers(0, table_words, size=size, dtype=np.int64),
            name="idx")
        table = memory.alloc_array(
            rng.integers(0, 1 << 20, size=table_words, dtype=np.int64),
            name="table")
        _cached_kernel(b, table, size, table_words - 1)
    elif archetype == "short":
        base = memory.alloc_array(
            rng.integers(0, 1 << 20, size=1 << 14, dtype=np.int64), name="A")
        _short_kernel(b, base, rows=size // extra, trip=extra)
    else:  # pragma: no cover - recipes are validated above
        raise AssertionError(archetype)

    _emit_repeat_footer(b)
    return Workload(name, "spec", b.build(), memory,
                    meta={"archetype": archetype, "size": size,
                          "extra": extra})
