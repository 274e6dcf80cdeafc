"""Binary PPM (P6) and PGM (P5) rasters, 8 bits per sample."""

from __future__ import annotations

import os

import numpy as np

from .errors import ManifestError


def overwrite(path, data: bytes) -> None:
    """Make ``path`` hold exactly ``data``, written over the old bytes and then cut to
    length: no truncate to zero, which on ext4 forces writeback on close.  A new file gets
    the mode ``open(path, "wb")`` gives it; like that call, this is not crash-safe."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        fh.truncate()


def write_ppm(path, image: np.ndarray) -> None:
    """Write a (3, H, W) uint8 array as a binary P6 file."""
    if image.ndim != 3 or image.shape[0] != 3 or image.dtype != np.uint8:
        raise ValueError(f"write_ppm expects (3,H,W) uint8, got {image.shape} {image.dtype}")
    _, h, w = image.shape
    overwrite(path, f"P6\n{w} {h}\n255\n".encode("ascii") + image.transpose(1, 2, 0).tobytes())


def write_pgm(path, gray: np.ndarray) -> None:
    """Write an (H, W) uint8 array as a binary P5 file."""
    if gray.ndim != 2 or gray.dtype != np.uint8:
        raise ValueError(f"write_pgm expects (H,W) uint8, got {gray.shape} {gray.dtype}")
    h, w = gray.shape
    overwrite(path, f"P5\n{w} {h}\n255\n".encode("ascii") + gray.tobytes())


def read_ppm(path) -> np.ndarray:
    """Read a binary P6 file into a (3, H, W) uint8 array."""
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, w, h, maxval, offset = _parse_header(path, raw)
    if magic != b"P6":
        raise ManifestError(0, f"{path}: expected P6, got {magic!r}")
    if maxval != 255:
        raise ManifestError(0, f"{path}: only maxval 255 is supported, got {maxval}")
    body = raw[offset:offset + 3 * w * h]
    if len(body) != 3 * w * h:
        raise ManifestError(0, f"{path}: truncated pixel data")
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w, 3).transpose(2, 0, 1).copy()


def _parse_header(path, raw: bytes):
    # Header is three whitespace-separated fields after the magic; '#' comments allowed.
    fields = []
    i = 2
    magic = raw[:2]
    while len(fields) < 3 and i < len(raw):
        ch = raw[i:i + 1]
        if ch == b"#":
            while i < len(raw) and raw[i:i + 1] != b"\n":
                i += 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < len(raw) and not raw[j:j + 1].isspace():
                j += 1
            fields.append(raw[i:j])
            i = j
    if len(fields) < 3:
        raise ManifestError(0, f"{path}: truncated header")
    try:
        w, h, maxval = (int(f) for f in fields)
    except ValueError:
        raise ManifestError(0, f"{path}: non-numeric header fields {fields}") from None
    if w < 1 or h < 1:
        raise ManifestError(0, f"{path}: image size {w}x{h} is not positive")
    return magic, w, h, maxval, i + 1
