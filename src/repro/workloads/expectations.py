"""Recorded static-analysis expectations for the GAP kernels.

These are the reference classifications produced by
:mod:`repro.analysis` over the five GAP kernels, recorded so that
``tests/test_lint_workloads.py`` locks them in: any change to a kernel
builder or to the analyses that shifts a load's class, a stride, or a
chain shape fails loudly instead of silently.

The numbers are independent of the graph input — every ``KERNEL_*``
variant shares the same program shape, only ``li`` immediates (array
bases and sizes) differ — so they are keyed by bare kernel name.

Fields per kernel:

* ``striding`` / ``indirect`` — number of loads in each class
  (:class:`~repro.analysis.LoadClass`); GAP kernels have no irregular
  or loop-invariant loads;
* ``strides`` — the set of byte strides over all striding loads
  (8 = one 64-bit word per iteration; CC's 64 is its degree-8 edge
  blocks; BC's -8 is the reverse dependency-accumulation sweep);
* ``chains`` — ``(seed_pc, chain_length, srf_pressure)`` per striding
  seed that anchors a static SVR chain, sorted by seed pc.
"""

from __future__ import annotations

GAP_EXPECTATIONS: dict[str, dict] = {
    "BC": {
        "striding": 4,
        "indirect": 10,
        "strides": {-8, 8},
        "chains": ((12, 26, 11), (26, 10, 4), (47, 33, 12), (63, 10, 5)),
    },
    "BFS": {
        "striding": 2,
        "indirect": 3,
        "strides": {8},
        "chains": ((11, 20, 9), (21, 10, 4)),
    },
    "CC": {
        "striding": 4,
        "indirect": 1,
        "strides": {8, 64},
        "chains": ((9, 14, 7), (10, 5, 2), (13, 2, 1), (18, 4, 4)),
    },
    "PR": {
        "striding": 3,
        "indirect": 1,
        "strides": {8},
        "chains": ((10, 14, 7), (11, 5, 2), (17, 4, 4)),
    },
    "SSSP": {
        "striding": 3,
        "indirect": 4,
        "strides": {8},
        "chains": ((12, 30, 12), (25, 11, 4), (28, 5, 2)),
    },
}


# -- Vectorization-legality plans (repro.analysis.vectorplan) ---------------
#
# One entry per registered workload: the scale- and graph-invariant
# ``VectorizationPlan.summary`` — ``(header, verdict, guard kinds, reason
# kinds)`` per natural loop, sorted by header.  GAP kernels are keyed by
# bare kernel name (every graph variant shares the program shape, exactly
# as for GAP_EXPECTATIONS); HPC and SPEC workloads by their full name.
#
# ``tests/test_vectorplan.py`` and the CI ``analyze-oracle`` job pin these:
# any analysis or kernel change that flips a loop's batching verdict, adds
# or drops a guard, or changes why a loop is scalar-only fails loudly.

LoopSummary = tuple[int, str, tuple[str, ...], tuple[str, ...]]

PLAN_EXPECTATIONS: dict[str, tuple[LoopSummary, ...]] = {
    "BC": (
        (8, "BATCHABLE_WITH_GUARD",
         ("lane-mask", "may-alias", "transient-store"), ()),
        (22, "BATCHABLE_WITH_GUARD",
         ("lane-mask", "may-alias", "transient-store"), ()),
        (42, "BATCHABLE_WITH_GUARD",
         ("lane-mask", "may-alias", "transient-store"), ()),
        (59, "BATCHABLE_WITH_GUARD", ("lane-mask",), ()),
    ),
    "BFS": (
        (7, "BATCHABLE_WITH_GUARD",
         ("lane-mask", "may-alias", "transient-store"), ()),
        (17, "BATCHABLE_WITH_GUARD",
         ("lane-mask", "may-alias", "transient-store"), ()),
    ),
    "CC": (
        (6, "SCALAR_ONLY", ("lane-mask",),
         ("irregular-load", "irregular-store", "no-striding-seed")),
        (7, "BATCHABLE_WITH_GUARD", ("lane-mask", "may-alias"), ()),
        (16, "BATCHABLE", (), ()),
    ),
    "PR": (
        (7, "SCALAR_ONLY", ("lane-mask",),
         ("irregular-load", "irregular-store", "no-striding-seed")),
        (8, "BATCHABLE_WITH_GUARD", ("lane-mask",), ()),
        (15, "BATCHABLE", (), ()),
    ),
    "SSSP": (
        (8, "BATCHABLE_WITH_GUARD",
         ("lane-mask", "may-alias", "transient-store"), ()),
        (21, "BATCHABLE_WITH_GUARD",
         ("lane-mask", "may-alias", "transient-store"), ()),
    ),
    "Camel": (
        (7, "SCALAR_ONLY", (), ("irregular-load", "no-striding-seed")),
        (8, "BATCHABLE", (), ()),
    ),
    "G500": (
        (6, "SCALAR_ONLY", ("lane-mask", "may-alias", "transient-store"),
         ("irregular-load", "no-striding-seed")),
        (8, "BATCHABLE_WITH_GUARD",
         ("lane-mask", "may-alias", "transient-store"), ()),
        (18, "BATCHABLE_WITH_GUARD",
         ("lane-mask", "may-alias", "transient-store"), ()),
    ),
    "HJ2": (
        (8, "BATCHABLE_WITH_GUARD", ("lane-mask",), ()),
        (16, "BATCHABLE_WITH_GUARD", ("lane-mask",), ()),
    ),
    "HJ8": (
        (8, "BATCHABLE_WITH_GUARD", ("lane-mask",), ()),
        (16, "BATCHABLE_WITH_GUARD", ("lane-mask",), ()),
    ),
    "Kangr": (
        (6, "SCALAR_ONLY", ("may-alias", "transient-store"),
         ("irregular-load", "no-striding-seed")),
        (7, "BATCHABLE_WITH_GUARD", ("may-alias", "transient-store"), ()),
    ),
    "NAS-CG": (
        (8, "SCALAR_ONLY", ("lane-mask",),
         ("irregular-load", "irregular-store", "no-striding-seed")),
        (9, "BATCHABLE_WITH_GUARD", ("lane-mask",), ()),
        (16, "BATCHABLE", (), ()),
    ),
    "NAS-IS": (
        (5, "SCALAR_ONLY", ("may-alias", "transient-store"),
         ("irregular-load", "no-striding-seed")),
        (6, "BATCHABLE_WITH_GUARD", ("may-alias", "transient-store"), ()),
    ),
    "Randacc": (
        (6, "SCALAR_ONLY", ("may-alias", "transient-store"),
         ("irregular-load", "no-striding-seed")),
        (7, "BATCHABLE_WITH_GUARD", ("may-alias", "transient-store"), ()),
    ),
    "perlbench": (
        (2, "SCALAR_ONLY", (), ("irregular-load", "no-striding-seed")),
        (8, "SCALAR_ONLY", (), ("irregular-load", "no-striding-seed")),
    ),
    "gcc": (
        (2, "SCALAR_ONLY", (), ("irregular-load", "no-striding-seed")),
        (8, "SCALAR_ONLY", (), ("irregular-load", "no-striding-seed")),
    ),
    "bwaves": (
        (2, "SCALAR_ONLY", (), ("irregular-load", "no-striding-seed")),
        (6, "BATCHABLE", (), ()),
    ),
    "mcf": (
        (2, "SCALAR_ONLY", (), ("irregular-load", "no-striding-seed")),
        (8, "SCALAR_ONLY", (), ("irregular-load", "no-striding-seed")),
    ),
    "cactuBSSN": (
        (2, "SCALAR_ONLY", (),
         ("irregular-load", "irregular-store", "no-striding-seed")),
        (6, "BATCHABLE_WITH_GUARD", ("lane-mask",), ()),
    ),
    "namd": (
        (2, "SCALAR_ONLY", (), ("irregular-load", "no-striding-seed")),
        (7, "BATCHABLE", (), ()),
    ),
    "parest": (
        (2, "SCALAR_ONLY", (),
         ("irregular-load", "irregular-store", "no-striding-seed")),
        (6, "BATCHABLE_WITH_GUARD", ("lane-mask",), ()),
    ),
    "povray": (
        (2, "SCALAR_ONLY", (), ("irregular-load", "no-striding-seed")),
        (7, "BATCHABLE", (), ()),
    ),
    "lbm": (
        (2, "SCALAR_ONLY", (),
         ("irregular-load", "irregular-store", "no-striding-seed")),
        (6, "BATCHABLE", (), ()),
    ),
    "omnetpp": (
        (2, "SCALAR_ONLY", (), ("irregular-load", "no-striding-seed")),
        (8, "SCALAR_ONLY", (), ("irregular-load", "no-striding-seed")),
    ),
    "wrf": (
        (2, "SCALAR_ONLY", (), ("irregular-load", "no-striding-seed")),
        (7, "SCALAR_ONLY", (), ("irregular-load", "no-striding-seed")),
        (10, "BATCHABLE", (), ()),
    ),
    "xalancbmk": (
        (2, "SCALAR_ONLY", (), ("irregular-load", "no-striding-seed")),
        (8, "SCALAR_ONLY", (), ("irregular-load", "no-striding-seed")),
    ),
    "x264": (
        (2, "SCALAR_ONLY", (),
         ("irregular-load", "irregular-store", "no-striding-seed")),
        (6, "BATCHABLE", (), ()),
    ),
    "blender": (
        (2, "SCALAR_ONLY", (), ("irregular-load", "no-striding-seed")),
        (7, "BATCHABLE", (), ()),
    ),
    "cam4": (
        (2, "SCALAR_ONLY", (),
         ("irregular-load", "irregular-store", "no-striding-seed")),
        (6, "BATCHABLE_WITH_GUARD", ("lane-mask",), ()),
    ),
    "deepsjeng": (
        (2, "SCALAR_ONLY", (), ("irregular-load", "no-striding-seed")),
        (8, "SCALAR_ONLY", (), ("irregular-load", "no-striding-seed")),
    ),
    "imagick": (
        (2, "SCALAR_ONLY", (), ("irregular-load", "no-striding-seed")),
        (6, "BATCHABLE", (), ()),
    ),
    "leela": (
        (2, "SCALAR_ONLY", (), ("irregular-load", "no-striding-seed")),
        (8, "SCALAR_ONLY", (), ("irregular-load", "no-striding-seed")),
    ),
    "nab": (
        (2, "SCALAR_ONLY", (), ("irregular-load", "no-striding-seed")),
        (7, "BATCHABLE", (), ()),
    ),
    "exchange2": (
        (2, "SCALAR_ONLY", (), ("irregular-load", "no-striding-seed")),
        (7, "BATCHABLE", (), ()),
    ),
    "fotonik3d": (
        (2, "SCALAR_ONLY", (), ("irregular-load", "no-striding-seed")),
        (6, "BATCHABLE", (), ()),
    ),
    "roms": (
        (2, "SCALAR_ONLY", (),
         ("irregular-load", "irregular-store", "no-striding-seed")),
        (6, "BATCHABLE_WITH_GUARD", ("lane-mask",), ()),
    ),
    "xz": (
        (2, "SCALAR_ONLY", (), ("irregular-load", "no-striding-seed")),
        (7, "SCALAR_ONLY", (), ("irregular-load", "no-striding-seed")),
        (10, "BATCHABLE", (), ()),
    ),
}

_GAP_KERNEL_PREFIXES = ("BC", "BFS", "CC", "PR", "SSSP")


def plan_expectation(name: str) -> tuple[LoopSummary, ...] | None:
    """Pinned plan summary for workload *name* (GAP variants collapse to
    their bare kernel key), or ``None`` if the name is not pinned."""
    key = name
    if "_" in name and name.split("_")[0] in _GAP_KERNEL_PREFIXES:
        key = name.split("_")[0]
    return PLAN_EXPECTATIONS.get(key)
