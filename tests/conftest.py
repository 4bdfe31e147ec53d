"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.cores.base import CoreConfig
from repro.cores.inorder import InOrderCore
from repro.cores.ooo import OutOfOrderCore
from repro.isa.program import ProgramBuilder
from repro.memory.hierarchy import MemoryConfig, MemoryHierarchy
from repro.memory.main_memory import MainMemory
from repro.svr.config import SVRConfig
from repro.svr.unit import ScalarVectorUnit


# A deep fuzz budget for CI (``--hypothesis-profile=deep``); tier-1 keeps
# hypothesis' default budget.
settings.register_profile("deep", max_examples=2000, deadline=None)


def make_memory(capacity: int = 1 << 22) -> MainMemory:
    return MainMemory(capacity_bytes=capacity)


def make_inorder(program, memory, *, svr: SVRConfig | None = None,
                 mem_cfg: MemoryConfig | None = None,
                 core_cfg: CoreConfig | None = None):
    """Wire an in-order core (optionally with SVR) over fresh caches."""
    hierarchy = MemoryHierarchy(
        memory, mem_cfg or MemoryConfig(stride_prefetcher=False))
    unit = ScalarVectorUnit(svr) if svr is not None else None
    core = InOrderCore(program, memory, hierarchy, core_cfg, svr=unit)
    return core, hierarchy, unit


def make_ooo(program, memory, *, mem_cfg: MemoryConfig | None = None,
             core_cfg: CoreConfig | None = None):
    hierarchy = MemoryHierarchy(
        memory, mem_cfg or MemoryConfig(stride_prefetcher=False))
    core = OutOfOrderCore(program, memory, hierarchy, core_cfg)
    return core, hierarchy


def gather_program(array_base: int, index_base: int, count: int):
    """The canonical SVR target: striding index load + indirect gather.

    for i in 0..count: sum += data[idx[i]]   (data is 64 B-striped)
    """
    b = ProgramBuilder("gather")
    b.li("a0", index_base)
    b.li("a1", array_base)
    b.li("a2", count)
    b.li("t5", 0)
    b.li("t0", 0)
    b.label("loop")
    b.slli("t1", "t0", 3)
    b.add("t1", "a0", "t1")
    b.ld("t2", "t1", 0)          # idx[i]        (striding)
    b.slli("t3", "t2", 6)
    b.add("t3", "a1", "t3")
    b.ld("t4", "t3", 0)          # data[idx[i]]  (indirect)
    b.add("t5", "t5", "t4")
    b.addi("t0", "t0", 1)
    b.cmp_lt("t6", "t0", "a2")
    b.bnez("t6", "loop")
    b.halt()
    return b.build()


def build_gather_workload(count: int = 256, table: int = 4096, seed: int = 9):
    """Memory + program for the gather kernel; returns (program, memory)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    memory = make_memory()
    indices = rng.integers(0, table, size=count, dtype=np.int64)
    index_base = memory.alloc_array(indices, name="idx")
    array_base = memory.alloc(table << 6, name="data")
    for i in range(table):
        memory.write_word(array_base + (i << 6), i + 1)
    program = gather_program(array_base, index_base, count)
    return program, memory


@pytest.fixture
def gather():
    return build_gather_workload()
