"""The binary container behind prepared datasets (EEGW) and checkpoints (EEGC).

Layout, little-endian throughout: 4-byte magic, u16 version, the format's
fixed fields, u32 header length, UTF-8 JSON header, then the arrays back to
back with no padding.
"""

from __future__ import annotations

import json
import math
import os
import secrets
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Format:
    """One file format: its name in messages, magic, version, the struct
    codes of its fixed fields, and the errors its reader raises."""

    name: str
    magic: bytes
    version: int
    fixed: str
    format_error: type
    version_error: type
    truncated_error: type

    @property
    def prefix(self) -> struct.Struct:
        return struct.Struct(f"<H{self.fixed}I")


def write(path, fmt: Format, fixed: tuple, header: dict, arrays) -> None:
    """Write `arrays` (an iterable of numpy arrays, stored in C order with
    little-endian items) after the header.  The bytes go to a temporary file
    beside the target, which then replaces it, so a failed write leaves an
    existing file untouched."""
    path = Path(path)
    blob = json.dumps(header).encode("utf-8")
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(fmt.magic + fmt.prefix.pack(fmt.version, *fixed, len(blob)) + blob)
            for arr in arrays:
                arr = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
                fh.write(arr.reshape(-1).view(np.uint8))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def read(path, fmt: Format):
    """Open a container and yield ``(fixed, header, read_array)``, where
    ``read_array(dtype, shape, what)`` reads the next array into a fresh
    native-order array.

    Every length is checked against the bytes left in the file before it is
    read, so a damaged length raises the truncated error, never a huge
    allocation.  A wrong magic, a header that is not UTF-8 JSON, or bytes
    left after the caller's last array when its block exits raise the
    format error, an unknown version the version error.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read_bytes(n: int, what: str) -> bytes:
            if not 0 <= n <= size - fh.tell():
                raise fmt.truncated_error(f"{fmt.name} truncated while reading {what}")
            return fh.read(n)

        magic = fh.read(len(fmt.magic))
        if magic != fmt.magic:
            raise fmt.format_error(
                f"not a {fmt.name}: expected magic {fmt.magic!r}, got {magic!r}"
            )
        version, *fixed, header_len = fmt.prefix.unpack(read_bytes(fmt.prefix.size, "header"))
        if version != fmt.version:
            raise fmt.version_error(
                f"unsupported {fmt.name} version {version}, expected {fmt.version}"
            )
        try:
            header = json.loads(read_bytes(header_len, "metadata").decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
            raise fmt.format_error(f"corrupt {fmt.name} header: {exc}") from exc

        def read_array(dtype, shape, what: str) -> np.ndarray:
            dtype = np.dtype(dtype).newbyteorder("<")
            n_bytes = math.prod(shape) * dtype.itemsize if min(shape, default=0) >= 0 else -1
            arr = np.frombuffer(read_bytes(n_bytes, what), dtype=dtype)
            return arr.astype(dtype.newbyteorder("="), copy=True).reshape(shape)

        yield tuple(fixed), header, read_array
        extra = size - fh.tell()
        if extra:
            raise fmt.format_error(f"{fmt.name} has {extra} bytes after its last array")
