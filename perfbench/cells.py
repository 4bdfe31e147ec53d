"""The benchmark's three workloads: which cells run, and how.

A workload is a list of :class:`repro.exec.RunSpec` cells plus the
:class:`repro.exec.ExecConfig` that :func:`repro.exec.run_cells` runs them
under.  ``--seed`` picks the slice of inputs and shuffles the cell order;
the program only ever receives the resulting ``RunSpec``s.

Slices are drawn from fixed blocks rather than freely from the registry.
The host time of one input's cells differs by up to 1.7x across the 33
irregular inputs and 1.6x across the SPEC surrogates, so a free draw of
two or three inputs moves ``sim_ips`` by ~10% from seed to seed, more than
the change the benchmark has to resolve.  Each block was drawn under the
constraints stated below and kept only if, on the commit that introduced
the benchmark, its summed host time lay within 1.5% of the median block
(and, for fig1-bench, whose inputs differ in footprint, its peak RSS over
three cell orders within 4.5%), so a seed changes which inputs run but
not how much work a run measures.
"""

from __future__ import annotations

import random

WORKLOADS = ("fig1-bench", "spec-bench", "sweep-tiny-isolated")

# Fig 1: one HPC kernel and one GAP input, under all eight techniques at
# bench scale.  HJ8 is left out: its eight cells cost half again as much
# as the median input's, so no two-input block holding it matches the
# others (sweep-tiny-isolated still runs it).
FIG1_BLOCKS = (
    ("Camel", "BC_TW"),
    ("Camel", "BFS_ORK"),
    ("G500", "BC_ORK"),
    ("HJ2", "CC_KR"),
    ("Kangr", "PR_ORK"),
    ("NAS-IS", "SSSP_TW"),
    ("Randacc", "CC_TW"),
)

# Fig 14: eight SPEC surrogates, at least one of each of the six
# archetypes in repro.workloads.spec, under the three Fig 14 techniques.
SPEC_BLOCKS = (
    ("perlbench", "bwaves", "cactuBSSN", "povray",
     "lbm", "wrf", "deepsjeng", "nab"),
    ("mcf", "parest", "x264", "blender",
     "imagick", "exchange2", "roms", "xz"),
    ("gcc", "namd", "wrf", "x264",
     "cam4", "leela", "fotonik3d", "roms"),
    ("namd", "parest", "lbm", "omnetpp",
     "xalancbmk", "imagick", "fotonik3d", "xz"),
    ("perlbench", "bwaves", "cactuBSSN", "wrf",
     "x264", "blender", "nab", "exchange2"),
    ("bwaves", "povray", "lbm", "cam4",
     "deepsjeng", "leela", "roms", "xz"),
    ("gcc", "cactuBSSN", "povray", "lbm",
     "omnetpp", "xalancbmk", "imagick", "xz"),
    ("mcf", "namd", "parest", "wrf",
     "xalancbmk", "x264", "cam4", "fotonik3d"),
    ("perlbench", "gcc", "bwaves", "cactuBSSN",
     "lbm", "wrf", "blender", "nab"),
    ("mcf", "parest", "omnetpp", "x264",
     "imagick", "exchange2", "roms", "xz"),
    ("namd", "parest", "lbm", "wrf",
     "cam4", "deepsjeng", "leela", "fotonik3d"),
    ("perlbench", "bwaves", "cactuBSSN", "povray",
     "x264", "deepsjeng", "exchange2", "xz"),
)
SPEC_TECHNIQUES = ("inorder", "ooo", "svr16")

# The resilient CLI sweep: every irregular input, no slicing.
TINY_TECHNIQUES = ("inorder", "svr16")
# A timeout fence is what makes run_cells fork one worker per cell; tiny
# cells take ~0.1 s, so the fence itself never fires.
TINY_TIMEOUT_S = 60.0


def build(workload: str, seed: int, sweep: int = 0) -> tuple[list, object]:
    """The cells of *workload* for *seed*, in the run order of timed sweep
    number *sweep* (a list of :class:`repro.exec.RunSpec`), and their
    :class:`repro.exec.ExecConfig`.

    Peak RSS depends on the cell order (a cell's garbage may still be
    alive when the next one allocates), so each sweep of a run shuffles
    the same slice differently and the run reports medians over orders.
    """
    from repro.exec import ExecConfig, RunSpec, TelemetryConfig
    from repro.harness.runner import MAIN_TECHNIQUES
    from repro.workloads.registry import IRREGULAR_WORKLOADS

    rng = random.Random(f"{workload}/{seed}")
    if workload == "fig1-bench":
        inputs = rng.choice(FIG1_BLOCKS)
        specs = [RunSpec.make(w, t, "bench")
                 for w in inputs for t in MAIN_TECHNIQUES]
        config = ExecConfig()
    elif workload == "spec-bench":
        inputs = rng.choice(SPEC_BLOCKS)
        specs = [RunSpec.make(w, t, "bench")
                 for w in inputs for t in SPEC_TECHNIQUES]
        config = ExecConfig()
    elif workload == "sweep-tiny-isolated":
        specs = [RunSpec.make(w, t, "tiny")
                 for w in IRREGULAR_WORKLOADS for t in TINY_TECHNIQUES]
        config = ExecConfig(timeout_s=TINY_TIMEOUT_S,
                            telemetry=TelemetryConfig())
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    random.Random(f"{workload}/{seed}/{sweep}").shuffle(specs)
    return specs, config
