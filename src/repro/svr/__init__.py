"""Scalar Vector Runahead — the paper's contribution (Section IV).

The :class:`~repro.svr.unit.ScalarVectorUnit` attaches to the in-order core
and implements piggyback runahead mode: stride detection, taint tracking,
speculative-register-file management, SVI generation with lockstep issue,
control-flow masking, loop-bound prediction (EWMA / LBD / CV-scavenging /
tournament), waiting mode, multi-chain handling and the accuracy monitor.
"""

from repro.svr.config import LoopBoundPolicy, RecyclingPolicy, SVRConfig
from repro.svr.stride_detector import StrideDetector, StrideEntry
from repro.svr.taint_tracker import TaintTracker
from repro.svr.srf import SpeculativeRegisterFile
from repro.svr.loop_bound import LoopBoundUnit
from repro.svr.accuracy import AccuracyMonitor
from repro.svr.unit import ScalarVectorUnit
from repro.svr.overhead import feature_matrix, overhead_bits, overhead_kib

__all__ = [
    "AccuracyMonitor",
    "LoopBoundPolicy",
    "LoopBoundUnit",
    "RecyclingPolicy",
    "SVRConfig",
    "ScalarVectorUnit",
    "SpeculativeRegisterFile",
    "StrideDetector",
    "StrideEntry",
    "TaintTracker",
    "feature_matrix",
    "overhead_bits",
    "overhead_kib",
]
