"""Bit-packed weight codes: the storage format of a deployed checkpoint.

The quantizers emit signed integer *codes* per weight (Eq. 3-5).  A
deployed BMPQ model should store each layer at its assigned precision, so
:func:`pack_codes` stores the code *indices* (``code + offset``) of one
layer row-wise in ``uint8`` planes, bit-packed at the smallest width the
alphabet needs: 2 bits per code for ternary (2-bit) rows, 4-bit nibbles
for 3/4-bit rows, one byte for 5..8-bit rows.  A 2-bit ResNet layer really
occupies 2 bits per weight.

Packing is lossless: ``unpack_codes(pack_codes(codes, bits))`` is bitwise
identical to the (rounded) input codes, which ``tests/quant/test_packing.py``
pins across widths, odd shapes, real layers and the randomized parity
generator's mixed per-layer bit assignments.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["PackedCodes", "pack_codes", "unpack_codes", "packable_bits"]

# Smallest plane width (bits per stored index) that fits each alphabet.
# K = 2*offset + 1 codewords need indices 0..K-1: ternary fits in 2 bits,
# 3/4-bit codes (K <= 15) in a nibble, 5..8-bit codes (K <= 255) in a byte.
_WIDTH_FOR_BITS = {2: 2, 3: 4, 4: 4, 5: 8, 6: 8, 7: 8, 8: 8}


def packable_bits(bits: int) -> bool:
    """True when ``bits`` has a packed representation (2..8)."""
    return int(bits) in _WIDTH_FOR_BITS


class PackedCodes:
    """One layer's weight codes, bit-packed row-wise.

    ``planes`` is ``(rows, ceil(F/per))`` ``uint8`` where ``per = 8//width``
    indices live in each byte (little-endian within the byte); ``rows`` is
    the output-channel count and ``F`` the per-channel fan-in
    (``ic*kh*kw`` for convolutions, ``in_features`` for linear layers).
    """

    __slots__ = (
        "planes",
        "bits",
        "width",
        "rows",
        "num_codes",
        "offset",
        "_indices",
    )

    def __init__(
        self, planes: np.ndarray, bits: int, width: int, rows: int, num_codes: int, offset: int
    ) -> None:
        self.planes = planes
        self.bits = int(bits)
        self.width = int(width)
        self.rows = int(rows)
        self.num_codes = int(num_codes)  # F: unpacked codes per row
        self.offset = int(offset)
        self._indices: Optional[np.ndarray] = None

    @property
    def num_codewords(self) -> int:
        """Alphabet size K (indices run 0..K-1, code 0 sits at ``offset``)."""
        return 2 * self.offset + 1

    @property
    def nbytes(self) -> int:
        """Packed storage size — the honest deployment footprint."""
        return int(self.planes.nbytes)

    def indices(self) -> np.ndarray:
        """Unpacked ``(rows, F)`` uint8 code indices (cached)."""
        if self._indices is None:
            per = 8 // self.width
            mask = (1 << self.width) - 1
            idx = np.empty((self.rows, self.planes.shape[1] * per), dtype=np.uint8)
            for s in range(per):
                idx[:, s::per] = (self.planes >> (s * self.width)) & mask
            self._indices = np.ascontiguousarray(idx[:, : self.num_codes])
        return self._indices

    def signed_codes(self) -> np.ndarray:
        """The original signed codes as float32 (``indices - offset``)."""
        return self.indices().astype(np.float32) - np.float32(self.offset)

    def __repr__(self) -> str:
        return (
            f"PackedCodes(rows={self.rows}, codes={self.num_codes}, bits={self.bits}, "
            f"width={self.width}, bytes={self.nbytes})"
        )


def pack_codes(codes: np.ndarray, bits: int) -> PackedCodes:
    """Bit-pack a layer's signed integer codes row-wise.

    ``codes`` is ``(rows, ...)`` — any trailing shape; each row is flattened
    to its fan-in.  Values must be integral and lie in the signed alphabet
    of ``bits`` (``{-1, 0, 1}`` for ternary, ``[-qmax, qmax]`` otherwise).
    """
    bits = int(bits)
    width = _WIDTH_FOR_BITS.get(bits)
    if width is None:
        raise ValueError(f"no packed representation for {bits}-bit codes (supported: 2..8)")
    offset = 1 if bits == 2 else 2 ** (bits - 1) - 1
    codes = np.asarray(codes)
    rows = codes.shape[0]
    flat = codes.reshape(rows, -1)
    idx = np.rint(flat).astype(np.int64) + offset
    if (idx < 0).any() or (idx > 2 * offset).any():
        raise ValueError(
            f"codes out of range for {bits}-bit packing "
            f"(expected [-{offset}, {offset}], got "
            f"[{float(flat.min())}, {float(flat.max())}])"
        )
    per = 8 // width
    num_codes = flat.shape[1]
    padded_len = -(-num_codes // per) * per
    padded = np.zeros((rows, padded_len), dtype=np.uint16)
    padded[:, :num_codes] = idx
    acc = np.zeros((rows, padded_len // per), dtype=np.uint16)
    for s in range(per):
        acc |= padded[:, s::per] << (s * width)
    return PackedCodes(acc.astype(np.uint8), bits, width, rows, num_codes, offset)


def unpack_codes(packed: PackedCodes) -> np.ndarray:
    """Recover the signed codes as float32 — the pack round-trip inverse."""
    return packed.signed_codes()
