"""Graph rewriting framework and transformation passes (Section 5 of the paper)."""

from .framework import RewritePass, PassManager, PassReport
from .rescale import WaterlineRescalePass
from .modswitch import LazyModSwitchPass, EagerModSwitchPass
from .matchscale import MatchScalePass
from .relinearize import RelinearizePass
from .kernel_alignment import ChetKernelAlignmentPass
from .lowering import ExpandSumPass, RemoveCopyPass
from .lane import LaneLoweringPass
from .hoisting import RotationHoistingPass
from .bsgs import BsgsRotationPass
from .folding import ConstantFoldingPass, CommonSubexpressionEliminationPass, DeadCodeEliminationPass

__all__ = [
    "RewritePass",
    "PassManager",
    "PassReport",
    "WaterlineRescalePass",
    "LazyModSwitchPass",
    "EagerModSwitchPass",
    "MatchScalePass",
    "RelinearizePass",
    "ChetKernelAlignmentPass",
    "ExpandSumPass",
    "RemoveCopyPass",
    "LaneLoweringPass",
    "RotationHoistingPass",
    "BsgsRotationPass",
    "ConstantFoldingPass",
    "CommonSubexpressionEliminationPass",
    "DeadCodeEliminationPass",
]
