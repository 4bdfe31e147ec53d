"""Dynamic oracle: cross-validate static vectorization claims at runtime.

The static analyses make three kinds of checkable claims:

* *assumed independence* — two accesses touch distinct base regions
  (:class:`~repro.analysis.memdep.DepEdge` with ``basis == "assumed"``);
  regions-are-disjoint means their observed address ranges never overlap;
* *seed strides* — a striding seed advances by its static byte stride;
  every dynamic PRM round generated from that seed must use that stride;
* *divergence containment* — lane masking only ever happens at branches
  the plan marked divergent (or, for seeds that joined the round as
  unrolled chains, branches inside the seed's static taint chain).  In
  particular a loop the plan declares ``BATCHABLE`` must never mask a
  lane inside its body.

:class:`OracleRecorder` is an opt-in hook on
:class:`~repro.svr.unit.ScalarVectorUnit` (``unit.oracle = recorder``);
when absent the unit pays a single ``is not None`` test per committed
instruction, keeping the simulator hot path clean.  The recorder captures
the real-path address stream per pc, every per-lane SVI address, the
strides every seed's PRM rounds used (``round_strides``), every pc that
read a tainted register in PRM (``dependents``, the dynamic chain), and
every branch-divergence masking event tagged with the seeds active in
that round.  :func:`validate_plan` then
checks every claim and returns an :class:`OracleReport`; a non-empty
``violations`` list means the static analysis was unsound for this run —
CI fails loudly on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cfg import build_cfg
from repro.analysis.taint import taint_chain
from repro.analysis.vectorplan import BATCHABLE, VectorizationPlan
from repro.isa.executor import ExecResult
from repro.isa.instructions import Instruction
from repro.isa.program import Program
from repro.memory.main_memory import MainMemory
from repro.svr.config import SVRConfig

ORACLE_SCHEMA = 1

# Bounded capture so long runs cannot grow memory without limit.
_MAX_SAMPLES = 32768          # exact addresses kept per stream
_MAX_DELTAS = 64              # distinct per-pc address deltas tracked
_MAX_MASK_SITES = 1024        # distinct (pc, seeds) masking sites


@dataclass
class AccessStream:
    """Observed address stream of one static load/store instruction."""

    pc: int
    is_store: bool
    count: int = 0
    min_addr: int = 0
    max_addr: int = 0
    last_addr: int | None = None
    truncated: bool = False
    samples: set[int] = field(default_factory=set)
    deltas: dict[int, int] = field(default_factory=dict)

    def observe(self, addr: int) -> None:
        if self.count == 0:
            self.min_addr = self.max_addr = addr
        else:
            if addr < self.min_addr:
                self.min_addr = addr
            if addr > self.max_addr:
                self.max_addr = addr
            assert self.last_addr is not None
            delta = addr - self.last_addr
            if delta in self.deltas:
                self.deltas[delta] += 1
            elif len(self.deltas) < _MAX_DELTAS:
                self.deltas[delta] = 1
        self.count += 1
        self.last_addr = addr
        if len(self.samples) < _MAX_SAMPLES:
            self.samples.add(addr)
        else:
            self.truncated = True

    def to_dict(self) -> dict:
        return {
            "pc": self.pc,
            "access": "store" if self.is_store else "load",
            "count": self.count,
            "min_addr": self.min_addr,
            "max_addr": self.max_addr,
            "distinct_addrs": len(self.samples),
            "truncated": self.truncated,
        }


class OracleRecorder:
    """Per-run capture of real and speculative address/branch behaviour."""

    def __init__(self) -> None:
        self.real: dict[int, AccessStream] = {}
        self.svi: dict[int, AccessStream] = {}
        self.round_strides: dict[int, set[int]] = {}
        self.dependents: set[int] = set()
        self.mask_sites: dict[tuple[int, tuple[int, ...]], int] = {}
        self.mask_sites_truncated = False
        self.rounds = 0
        self.commits = 0
        self._round_seeds: set[int] = set()

    # -- hooks called by ScalarVectorUnit (all opt-in) ----------------------

    def on_round_start(self, seed_pc: int) -> None:
        self.rounds += 1
        self._round_seeds = {seed_pc}

    def on_round_join(self, seed_pc: int) -> None:
        self._round_seeds.add(seed_pc)

    def on_round_end(self) -> None:
        self._round_seeds = set()

    def observe_commit(self, pc: int, inst: Instruction,
                       result: ExecResult) -> None:
        self.commits += 1
        if inst.is_mem and result.address is not None:
            stream = self.real.get(pc)
            if stream is None:
                stream = AccessStream(pc, inst.is_store)
                self.real[pc] = stream
            stream.observe(result.address)

    def observe_svi(self, pc: int, addr: int, *, is_store: bool) -> None:
        stream = self.svi.get(pc)
        if stream is None:
            stream = AccessStream(pc, is_store)
            self.svi[pc] = stream
        stream.observe(addr)

    def observe_stride_round(self, seed_pc: int, stride: int) -> None:
        self.round_strides.setdefault(seed_pc, set()).add(stride)

    def observe_dependent(self, pc: int) -> None:
        self.dependents.add(pc)

    def observe_mask(self, pc: int) -> None:
        key = (pc, tuple(sorted(self._round_seeds)))
        if key in self.mask_sites:
            self.mask_sites[key] += 1
        elif len(self.mask_sites) < _MAX_MASK_SITES:
            self.mask_sites[key] = 1
        else:
            self.mask_sites_truncated = True

    # -- derived views ------------------------------------------------------

    def real_range(self, pc: int) -> tuple[int, int] | None:
        """[min, max] architectural address range of *pc*.

        Dependence claims are validated against the *real* stream only:
        speculative lane addresses legitimately overrun an array's end by
        up to ``vector_length * stride`` bytes into the next allocation,
        and transient SVIs never write, so they cannot witness an actual
        dependence.
        """
        stream = self.real.get(pc)
        if stream is None or stream.count == 0:
            return None
        return stream.min_addr, stream.max_addr

    def real_samples(self, pc: int) -> tuple[set[int], bool]:
        """Captured architectural addresses of *pc* plus truncation flag."""
        stream = self.real.get(pc)
        if stream is None:
            return set(), False
        return set(stream.samples), stream.truncated

    def to_dict(self) -> dict:
        return {
            "schema": ORACLE_SCHEMA,
            "commits": self.commits,
            "rounds": self.rounds,
            "real_streams": [self.real[pc].to_dict()
                             for pc in sorted(self.real)],
            "svi_streams": [self.svi[pc].to_dict()
                            for pc in sorted(self.svi)],
            "round_strides": {str(pc): sorted(strides)
                              for pc, strides in
                              sorted(self.round_strides.items())},
            "mask_sites": [
                {"pc": pc, "seeds": list(seeds), "events": count}
                for (pc, seeds), count in sorted(self.mask_sites.items())],
        }


@dataclass(frozen=True)
class Violation:
    """One unsound static claim, with the dynamic evidence against it."""

    kind: str               # "independence" | "stride" | "divergence" |
    #                         "unsound-batchable"
    pcs: tuple[int, ...]
    detail: str

    def to_dict(self) -> dict:
        return {"kind": self.kind, "pcs": list(self.pcs),
                "detail": self.detail}

    def __str__(self) -> str:
        where = ",".join(str(p) for p in self.pcs)
        return f"{self.kind} @ pc {where}: {self.detail}"


@dataclass(frozen=True)
class OracleReport:
    """Outcome of validating one plan against one recorded run."""

    name: str
    violations: tuple[Violation, ...]
    checks: int
    rounds: int
    commits: int
    mask_events: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "schema": ORACLE_SCHEMA,
            "name": self.name,
            "ok": self.ok,
            "checks": self.checks,
            "rounds": self.rounds,
            "commits": self.commits,
            "mask_events": self.mask_events,
            "violations": [v.to_dict() for v in self.violations],
        }


def validate_plan(program: Program, plan: VectorizationPlan,
                  recorder: OracleRecorder) -> OracleReport:
    """Check every static claim in *plan* against *recorder*'s trace."""
    cfg = build_cfg(program)
    violations: list[Violation] = []
    checks = 0

    # 1. Independence claims: assumed-disjoint regions must have disjoint
    #    observed ranges; proved interleavings must never share an address.
    for lp in plan.loops:
        for edge in lp.deps.edges:
            if edge.verdict != "independent":
                continue
            range_a = recorder.real_range(edge.src_pc)
            range_b = recorder.real_range(edge.dst_pc)
            if range_a is None or range_b is None:
                continue
            checks += 1
            if edge.basis == "assumed":
                if range_a[0] <= range_b[1] and range_b[0] <= range_a[1]:
                    violations.append(Violation(
                        "independence", (edge.src_pc, edge.dst_pc),
                        f"regions assumed disjoint but ranges overlap: "
                        f"[{range_a[0]:#x},{range_a[1]:#x}] vs "
                        f"[{range_b[0]:#x},{range_b[1]:#x}] "
                        f"(loop {lp.header}, {edge.reason})"))
            else:
                addrs_a, trunc_a = recorder.real_samples(edge.src_pc)
                addrs_b, trunc_b = recorder.real_samples(edge.dst_pc)
                if trunc_a or trunc_b:
                    continue
                shared = addrs_a & addrs_b
                if shared:
                    violations.append(Violation(
                        "independence", (edge.src_pc, edge.dst_pc),
                        f"proved independent ({edge.reason}) but "
                        f"{len(shared)} shared address(es), e.g. "
                        f"{min(shared):#x} (loop {lp.header})"))

    # 2. Stride claims: every PRM round generated from a seed must use the
    #    statically derived byte stride.
    static_strides = {pc: stride for lp in plan.loops
                      for pc, stride in lp.seeds}
    for seed_pc, observed in sorted(recorder.round_strides.items()):
        expect = static_strides.get(seed_pc)
        if expect is None:
            continue
        checks += 1
        wrong = sorted(s for s in observed if s != expect)
        if wrong:
            violations.append(Violation(
                "stride", (seed_pc,),
                f"static stride {expect} but dynamic rounds used "
                f"stride(s) {wrong}"))

    # 3. Divergence containment: a masking event is only legal at a branch
    #    the plan marked divergent for one of the round's seeds, inside that
    #    seed's static taint chain, or at the seed loop's own trip branch
    #    (loop-bound tail masking — the vector-epilogue case, where lanes
    #    past the trip count are cut off, not data divergence).
    allowed: dict[int, frozenset[int]] = {}
    trip_allowed: dict[int, frozenset[int]] = {}
    for lp in plan.loops:
        for seed_pc, _ in lp.seeds:
            chain = taint_chain(cfg, seed_pc)
            branch_pcs = frozenset(
                pc for pc in chain.chain_pcs if program[pc].is_branch)
            allowed[seed_pc] = (branch_pcs
                                | frozenset(lp.divergent_branch_pcs)
                                | frozenset(lp.trip_branch_pcs))
            trip_allowed[seed_pc] = frozenset(lp.trip_branch_pcs)
    mask_events = 0
    for (pc, seeds), count in sorted(recorder.mask_sites.items()):
        mask_events += count
        checks += 1
        legal = any(pc in allowed.get(seed, frozenset()) for seed in seeds)
        if not legal:
            violations.append(Violation(
                "divergence", (pc,),
                f"{count} masking event(s) at a branch no plan marked "
                f"divergent (round seeds {list(seeds)})"))
        # The BATCHABLE claim is per-round: a round seeded at a BATCHABLE
        # loop's seed must never mask a lane for a data-dependent reason.
        # Masking at the same pc in a round seeded elsewhere (e.g. the
        # outer loop, whose plan carries the lane-mask guard) does not
        # contradict it, and neither does tail masking at the seed loop's
        # own trip branch.
        for seed in seeds:
            lp = plan.plan_for_seed(seed)
            if (lp is not None and lp.verdict == BATCHABLE
                    and pc not in trip_allowed.get(seed, frozenset())):
                violations.append(Violation(
                    "unsound-batchable", (pc,),
                    f"loop {lp.header} is BATCHABLE but a round seeded at "
                    f"pc {seed} masked lanes at pc {pc} "
                    f"({count} event(s))"))

    return OracleReport(
        name=plan.name,
        violations=tuple(violations),
        checks=checks,
        rounds=recorder.rounds,
        commits=recorder.commits,
        mask_events=mask_events,
    )


def collect_trace(program: Program, memory: MainMemory, *,
                  svr: SVRConfig | None = None,
                  max_steps: int = 200_000) -> OracleRecorder:
    """Run *program* on an in-order core with SVR and record the oracle.

    Mirrors the standard test harness wiring (no hardware stride
    prefetcher, default core config) so oracle runs are deterministic and
    comparable across sessions.
    """
    from repro.cores.inorder import InOrderCore
    from repro.memory.hierarchy import MemoryConfig, MemoryHierarchy
    from repro.svr.unit import ScalarVectorUnit

    hierarchy = MemoryHierarchy(memory,
                                MemoryConfig(stride_prefetcher=False))
    unit = ScalarVectorUnit(svr or SVRConfig())
    recorder = OracleRecorder()
    unit.oracle = recorder
    core = InOrderCore(program, memory, hierarchy, None, svr=unit)
    core.run(max_steps)
    return recorder


def oracle_check(program: Program, memory: MainMemory,
                 plan: VectorizationPlan, *,
                 svr: SVRConfig | None = None,
                 max_steps: int = 200_000) -> OracleReport:
    """Collect a trace and validate *plan* against it in one call."""
    recorder = collect_trace(program, memory, svr=svr, max_steps=max_steps)
    return validate_plan(program, plan, recorder)
