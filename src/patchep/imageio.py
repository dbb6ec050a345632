"""Image file I/O.

Two raster formats are supported:

* binary PGM (``P5``, maxval 255 or 65535) for integer-quantized images, and
* a raw little-endian float32 format with a 16-byte header
  ``{magic "PEPF", u32 width, u32 height, u32 reserved}`` for exact
  floating-point rasters (restored means, variance maps).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Image",
    "read_pgm",
    "write_pgm",
    "read_float_raster",
    "write_float_raster",
]

FLOAT_MAGIC = b"PEPF"


@dataclass(frozen=True)
class Image:
    """A grayscale image: real intensities in row-major order."""

    width: int
    height: int
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float).ravel()
        if data.size != self.width * self.height:
            raise ValueError("data length must equal width*height")
        if not np.all(np.isfinite(data)):
            raise ValueError("image intensities must be finite")
        object.__setattr__(self, "data", data)

    @property
    def n_pixels(self) -> int:
        return self.width * self.height

    def as_array(self) -> np.ndarray:
        return self.data.reshape(self.height, self.width)

    @classmethod
    def from_array(cls, array: np.ndarray) -> "Image":
        array = np.asarray(array, dtype=float)
        if array.ndim != 2:
            raise ValueError("expected a 2D array")
        return cls(width=array.shape[1], height=array.shape[0], data=array.ravel())


def _read_pgm_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comment lines
    while pos < len(buf):
        c = buf[pos:pos + 1]
        if c == b"#":
            while pos < len(buf) and buf[pos:pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < len(buf) and not buf[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ValueError("truncated PGM header")
    return buf[start:pos], pos


def read_pgm(path) -> Image:
    """Read a binary (P5) PGM file; intensities are returned unscaled."""
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, pos = _read_pgm_token(buf, 0)
    if magic != b"P5":
        raise ValueError(f"not a binary PGM file: magic {magic!r}")
    fields = []
    for _ in range(3):
        tok, pos = _read_pgm_token(buf, pos)
        fields.append(int(tok))
    width, height, maxval = fields
    if maxval not in (255, 65535):
        raise ValueError(f"unsupported PGM maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    dtype = np.dtype(">u2") if maxval == 65535 else np.dtype("u1")
    count = width * height
    raw = np.frombuffer(buf, dtype=dtype, count=count, offset=pos)
    if raw.size != count:
        raise ValueError("truncated PGM pixel data")
    return Image(width=width, height=height, data=raw.astype(float))


def write_pgm(path, image: Image, maxval: int = 255) -> None:
    """Write a binary PGM; intensities are clipped and rounded to [0, maxval]."""
    if maxval not in (255, 65535):
        raise ValueError(f"unsupported PGM maxval {maxval}")
    quantized = np.clip(np.rint(image.data), 0, maxval)
    dtype = np.dtype(">u2") if maxval == 65535 else np.dtype("u1")
    header = f"P5\n{image.width} {image.height}\n{maxval}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(quantized.astype(dtype).tobytes())


def read_float_raster(path) -> Image:
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16:
            raise ValueError("truncated float raster header")
        magic = header[:4]
        if magic != FLOAT_MAGIC:
            raise ValueError(f"bad float raster magic {magic!r}")
        width, height, _reserved = struct.unpack("<III", header[4:])
        data = np.frombuffer(fh.read(), dtype="<f4")
    if data.size != width * height:
        raise ValueError("truncated float raster pixel data")
    return Image(width=width, height=height, data=data.astype(float))


def write_float_raster(path, image: Image) -> None:
    with open(path, "wb") as fh:
        fh.write(FLOAT_MAGIC)
        fh.write(struct.pack("<III", image.width, image.height, 0))
        fh.write(image.data.astype("<f4").tobytes())

