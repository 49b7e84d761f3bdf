"""Graph traversal framework and analysis passes (Section 6 of the paper)."""

from .traversal import forward_traversal, backward_traversal
from .scales import compute_scales
from .levels import compute_levels, compute_rescale_chains
from .validation import validate
from .parameters import EncryptionParameters, select_parameters
from .rotations import normalize_step, select_rotation_steps

__all__ = [
    "normalize_step",
    "forward_traversal",
    "backward_traversal",
    "compute_scales",
    "compute_levels",
    "compute_rescale_chains",
    "validate",
    "EncryptionParameters",
    "select_parameters",
    "select_rotation_steps",
]
