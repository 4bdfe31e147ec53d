"""Vectorization-legality plans for SVR lane batching.

The ROADMAP's structure-of-arrays executor wants to run all SVR lanes as
batched vector operations.  That is only sound where lanes (= consecutive
loop iterations) cannot communicate.  :func:`build_plan` turns the
dependence facts of :mod:`repro.analysis.memdep` plus the taint chains of
:mod:`repro.analysis.taint` into one verdict per natural loop:

``BATCHABLE``
    No in-loop branch can diverge per lane, no store needs suppression,
    and no store↔load pair can carry a value between iterations closer
    than the vector length.  Lanes are provably independent.

``BATCHABLE_WITH_GUARD``
    Batching is sound only under runtime guards SVR already implements:
    ``lane-mask`` (mask lanes at a divergent branch), ``transient-store``
    (suppress scatter stores — SVR stores only prefetch, never write),
    ``may-alias`` (a store↔load pair whose distance is unknown; lanes may
    read stale values, acceptable for prefetching, not for architectural
    state).

``SCALAR_ONLY``
    Batching is pointless or wrong: no striding seed to vectorize from,
    a statically unknown address defeats the dependence argument, or a
    provable loop-carried flow distance shorter than the vector length
    serialises the lanes.

Plans serialize deterministically (:meth:`VectorizationPlan.to_dict`,
:meth:`VectorizationPlan.fingerprint`) so they can be pinned in
``workloads/expectations.py`` and diffed in CI; the dynamic oracle
(:mod:`repro.analysis.oracle`) checks every claim against observed
behaviour.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.analysis.cfg import CFG, Loop, build_cfg
from repro.analysis.induction import LoadClass, LoadInfo, StrideAnalysis
from repro.analysis.memdep import LoopDependences, MemDepAnalysis
from repro.analysis.taint import StaticChain, taint_chain
from repro.isa.program import Program

PLAN_SCHEMA = 1

BATCHABLE = "BATCHABLE"
BATCHABLE_WITH_GUARD = "BATCHABLE_WITH_GUARD"
SCALAR_ONLY = "SCALAR_ONLY"


@dataclass(frozen=True)
class GuardSpec:
    """One runtime guard batching depends on.

    ``kind`` is ``lane-mask`` | ``transient-store`` | ``may-alias``;
    ``pcs`` names the instruction(s) the guard covers.
    """

    kind: str
    pcs: tuple[int, ...]

    def to_dict(self) -> dict:
        return {"kind": self.kind, "pcs": list(self.pcs)}

    def __str__(self) -> str:
        return f"{self.kind}({','.join(str(p) for p in self.pcs)})"


@dataclass(frozen=True)
class PlanReason:
    """One reason a loop is SCALAR_ONLY."""

    kind: str
    detail: str
    pcs: tuple[int, ...] = ()

    def to_dict(self) -> dict:
        return {"kind": self.kind, "detail": self.detail, "pcs": list(self.pcs)}

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


@dataclass(frozen=True)
class LoopPlan:
    """Verdict plus supporting evidence for one natural loop."""

    header: int
    verdict: str
    seeds: tuple[tuple[int, int], ...]        # (pc, byte stride) per seed
    guards: tuple[GuardSpec, ...]
    reasons: tuple[PlanReason, ...]
    divergent_branch_pcs: tuple[int, ...]
    trip_branch_pcs: tuple[int, ...]
    deps: LoopDependences

    def to_dict(self) -> dict:
        return {
            "header": self.header,
            "verdict": self.verdict,
            "seeds": [list(s) for s in self.seeds],
            "guards": [g.to_dict() for g in self.guards],
            "reasons": [r.to_dict() for r in self.reasons],
            "divergent_branch_pcs": list(self.divergent_branch_pcs),
            "trip_branch_pcs": list(self.trip_branch_pcs),
            "accesses": [a.to_dict() for a in self.deps.accesses],
            "edges": [e.to_dict() for e in self.deps.edges],
        }

    @property
    def summary(self) -> tuple[int, str, tuple[str, ...], tuple[str, ...]]:
        """Scale-invariant shape used for pinned expectations."""
        return (self.header, self.verdict,
                tuple(sorted({g.kind for g in self.guards})),
                tuple(sorted({r.kind for r in self.reasons})))


@dataclass(frozen=True)
class VectorizationPlan:
    """The full per-workload plan, deterministic and serializable."""

    name: str
    vector_length: int
    loops: tuple[LoopPlan, ...]
    schema: int = PLAN_SCHEMA

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "name": self.name,
            "vector_length": self.vector_length,
            "loops": [lp.to_dict() for lp in self.loops],
        }

    def fingerprint(self) -> str:
        """sha256 of the canonical JSON form (stable across runs)."""
        blob = json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    @property
    def summary(self) -> tuple[tuple[int, str, tuple[str, ...],
                                     tuple[str, ...]], ...]:
        return tuple(lp.summary for lp in self.loops)

    def plan_for_seed(self, seed_pc: int) -> LoopPlan | None:
        """The loop plan that lists *seed_pc* as a striding seed."""
        for lp in self.loops:
            if any(pc == seed_pc for pc, _ in lp.seeds):
                return lp
        return None


def _plan_loop(loop: Loop, cfg: CFG, memdep: MemDepAnalysis,
               seeds: list[LoadInfo], chains: dict[int, StaticChain],
               vector_length: int) -> LoopPlan:
    deps = memdep.loop_dependences(loop)
    body_pcs = frozenset(cfg.loop_pcs(loop))

    # Branch divergence: the address-lattice view, widened by the static
    # taint chains of this loop's seeds.  Dynamic lane masking only happens
    # at branches reading registers tainted by a seed, and every such
    # branch is in the seed's static chain (the containment invariant), so
    # a loop whose body has no chain branch can never mask a lane.
    divergent = {b.pc for b in deps.branches if b.cls == "divergent"}
    for info in seeds:
        for pc in chains[info.pc].chain_pcs:
            if pc in body_pcs and cfg.program[pc].is_branch:
                divergent.add(pc)
    trip = tuple(sorted(b.pc for b in deps.branches
                        if b.cls == "trip" and b.pc not in divergent))

    reasons: list[PlanReason] = []
    guards: list[GuardSpec] = []

    if not seeds:
        reasons.append(PlanReason(
            "no-striding-seed",
            "no confidently striding load anchors an SVR chain here"))

    # The reading classify_load gives IRREGULAR: varying and fed by no
    # in-loop load (a load-fed varying address is INDIRECT on its seed).
    irregular_loads = tuple(a.pc for a in deps.accesses
                            if not a.is_store and a.expr.kind == "varying"
                            and not a.expr.loads)
    if irregular_loads:
        reasons.append(PlanReason(
            "irregular-load",
            "load address is loop-variant but neither affine nor "
            "load-derived; per-lane addresses cannot be formed",
            irregular_loads))
    irregular_stores = tuple(a.pc for a in deps.accesses
                             if a.is_store and a.expr.kind == "varying")
    if irregular_stores:
        reasons.append(PlanReason(
            "irregular-store",
            "store address is statically unknown; dependence analysis "
            "cannot bound its effect", irregular_stores))

    short_edges = [
        e for e in deps.edges
        if e.kind == "store-load" and e.verdict == "distance"
        and e.distance is not None and 0 < abs(e.distance) < vector_length]
    if short_edges:
        pcs = tuple(sorted({pc for e in short_edges
                            for pc in (e.src_pc, e.dst_pc)}))
        nearest = min(abs(e.distance) for e in short_edges
                      if e.distance is not None)
        reasons.append(PlanReason(
            "short-flow",
            f"store feeds a load {nearest} iteration(s) later "
            f"(< vector length {vector_length}); lanes would consume "
            "values other lanes produce", pcs))

    recurrences = tuple(
        (e.src_pc, e.dst_pc) for e in deps.edges
        if e.kind == "store-load" and e.reason == "invariant-address")
    if recurrences:
        pcs = tuple(sorted({pc for pair in recurrences for pc in pair}))
        reasons.append(PlanReason(
            "memory-recurrence",
            "a loop-invariant address is stored and reloaded every "
            "iteration; the loop is a serial reduction through memory",
            pcs))

    if divergent:
        guards.append(GuardSpec("lane-mask", tuple(sorted(divergent))))

    scatter = tuple(a.pc for a in deps.accesses
                    if a.is_store and a.expr.kind == "loaddep")
    invariant_stores = tuple(
        a.pc for a in deps.accesses
        if a.is_store and a.expr.kind == "invariant"
        and any(e.reason == "invariant-address" and e.kind == "store-store"
                for e in deps.edges if a.pc in (e.src_pc, e.dst_pc)))
    if scatter or invariant_stores:
        guards.append(GuardSpec(
            "transient-store", tuple(sorted(set(scatter + invariant_stores)))))

    may_alias = tuple(sorted({
        pc for e in deps.edges if e.verdict == "may-alias"
        and e.reason in ("same-region", "unknown-region")
        for pc in (e.src_pc, e.dst_pc)}))
    if may_alias:
        guards.append(GuardSpec("may-alias", may_alias))

    if reasons:
        verdict = SCALAR_ONLY
    elif guards:
        verdict = BATCHABLE_WITH_GUARD
    else:
        verdict = BATCHABLE
    return LoopPlan(
        header=loop.header,
        verdict=verdict,
        seeds=tuple((info.pc, info.stride or 0) for info in seeds),
        guards=tuple(guards),
        reasons=tuple(reasons),
        divergent_branch_pcs=tuple(sorted(divergent)),
        trip_branch_pcs=trip,
        deps=deps,
    )


def build_plan(program: Program, name: str | None = None,
               vector_length: int = 16) -> VectorizationPlan:
    """Compute the :class:`VectorizationPlan` for *program*."""
    cfg = build_cfg(program)
    memdep = MemDepAnalysis(cfg)
    loads = StrideAnalysis(cfg, memdep).loads()
    seeds_by_loop: dict[int, list[LoadInfo]] = {}
    chains: dict[int, StaticChain] = {}
    for info in loads:
        if info.load_class is LoadClass.STRIDING:
            assert info.loop_header is not None
            seeds_by_loop.setdefault(info.loop_header, []).append(info)
            chains[info.pc] = taint_chain(cfg, info.pc)
    plans = [
        _plan_loop(loop, cfg, memdep, seeds_by_loop.get(loop.header, []),
                   chains, vector_length)
        for loop in sorted(cfg.loops, key=lambda lp: lp.header)
    ]
    return VectorizationPlan(name=name or program.name,
                             vector_length=vector_length,
                             loops=tuple(plans))


# Cache attribute stashed on Program objects by plan_for_program: plans
# are pure functions of the instruction list, so tying the cache to the
# program's lifetime is both correct and leak-free.
_PLAN_CACHE_ATTR = "_vectorplan_cache"


def plan_for_program(program: Program,
                     vector_length: int = 16) -> VectorizationPlan:
    """The (cached) :class:`VectorizationPlan` for *program*.

    The first call per ``(program, vector_length)`` runs the full CFG /
    dependence / taint analysis; repeat lookups are a dict hit.  The
    cache lives on the program object itself, so rebuilt workloads (new
    Program) are re-analysed and mutated programs cannot serve stale
    plans.
    """
    cache: dict[int, VectorizationPlan] | None = getattr(
        program, _PLAN_CACHE_ATTR, None)
    if cache is None:
        cache = {}
        setattr(program, _PLAN_CACHE_ATTR, cache)
    plan = cache.get(vector_length)
    if plan is None:
        plan = build_plan(program, vector_length=vector_length)
        cache[vector_length] = plan
    return plan
