"""Data layouts for packing image tensors into ciphertext slots.

CHET (and this reproduction) packs one image channel per ciphertext in
row-major CHW order.  Strided convolutions and pooling do not physically
compact their outputs (that would need expensive data movement under
encryption); instead the *layout* records a ``gap`` — the dilation between
logically adjacent elements — and subsequent kernels scale their rotation
offsets by it.  This is CHET's strided/gapped layout selection, specialised to
the CHW layout the paper's evaluation uses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class TensorLayout:
    """Physical layout of one channel of an activation tensor.

    Attributes
    ----------
    height, width:
        Logical spatial dimensions of the tensor.
    base_width:
        Width of the physical row-major grid the data was originally packed
        into (never changes as strides accumulate).
    gap:
        Physical distance between logically adjacent elements along either
        spatial axis (1 for a freshly packed image; doubled by each stride-2
        layer).
    """

    height: int
    width: int
    base_width: int
    gap: int = 1

    def physical_index(self, row: int, col: int) -> int:
        """Slot index of logical element (row, col)."""
        return (row * self.gap) * self.base_width + (col * self.gap)

    def required_slots(self) -> int:
        """Minimum number of slots needed to address every element."""
        if self.height == 0 or self.width == 0:
            return 0
        return self.physical_index(self.height - 1, self.width - 1) + 1

    def offset(self, delta_row: int, delta_col: int) -> int:
        """Physical rotation offset corresponding to a logical displacement."""
        return self.gap * (delta_row * self.base_width + delta_col)

    def after_conv(self, kernel: int, stride: int, padding: str) -> "TensorLayout":
        """Layout of the output of a convolution/pooling with these parameters."""
        if padding == "same":
            out_h = (self.height + stride - 1) // stride
            out_w = (self.width + stride - 1) // stride
        elif padding == "valid":
            out_h = (self.height - kernel) // stride + 1
            out_w = (self.width - kernel) // stride + 1
        else:
            raise ValueError(f"unknown padding mode {padding!r}")
        return replace(self, height=out_h, width=out_w, gap=self.gap * stride)

    @classmethod
    def packed(cls, height: int, width: int) -> "TensorLayout":
        """Layout of a freshly packed (dense, gap-1) image."""
        return cls(height=height, width=width, base_width=width, gap=1)
