"""The binary container behind prepared datasets (EEGW) and checkpoints (EEGC).

Layout, little-endian throughout: 4-byte magic, u16 version, the format's
fixed fields, u32 header length, UTF-8 JSON header, then the arrays back to
back with no padding.  :func:`from_json` and :func:`json_fields` read the
JSON documents: checkpoint headers, manifests, run configs and synth specs.
:func:`replacing` writes the containers, and the manifest, training
history, echoed run config and eval report, atomically.
"""

from __future__ import annotations

import functools
import json
import math
import os
import secrets
import struct
import sys
import typing
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, is_dataclass
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


@contextmanager
def replacing(path, mode: str = "b", **open_args):
    """Yield a file opened (``"b"`` binary or ``"t"`` text `mode`, with
    `open_args`) on a fresh temporary file beside `path`, which replaces
    `path` once the block exits cleanly.  On an error the temporary file is
    removed, so an existing file at `path` is left untouched, and an
    errno-style OSError that named no file, or the temporary one, names
    `path`.  A `path` that exists and is no regular file (a pipe,
    ``/dev/stdout``) cannot be replaced, so it is written in place."""
    path = Path(path)
    if path.exists() and not path.is_file():
        with open(path, "w" + mode, **open_args) as fh:
            yield fh
        return
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, "x" + mode, **open_args) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if (isinstance(exc, OSError) and exc.strerror and not exc.filename2
                and exc.filename in (None, str(tmp))):
            exc.filename = str(path)  # the file the caller asked for, not the temporary one
        raise


def write(path, fmt: Format, fixed: tuple, header: dict, arrays) -> None:
    """Write `arrays` (an iterable of numpy arrays, stored in C order with
    little-endian items) after the header, by :func:`replacing`, so a failed
    write leaves an existing file untouched."""
    blob = json.dumps(header).encode("utf-8")
    with replacing(path) as fh:
        fh.write(fmt.magic + fmt.prefix.pack(fmt.version, *fixed, len(blob)) + blob)
        for arr in arrays:
            arr = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
            fh.write(arr.reshape(-1).view(np.uint8))


class _Arrays:
    """The arrays after a container's header, in file order, as :func:`read`
    yields them.  Calling it, ``read_array(dtype, shape, what)``, reads the
    next array straight into a fresh native-order array: one allocation,
    filled by ``readinto``, and byte-swapped in place only on a big-endian
    host.  :meth:`skip` moves past the next array without reading it.
    ``stat`` is the ``os.fstat`` of the open file."""

    def __init__(self, fh, fmt: Format):
        self._fh, self._fmt = fh, fmt
        self.stat = os.fstat(fh.fileno())

    def _truncated(self, what: str) -> Exception:
        return self._fmt.truncated_error(f"{self._fmt.name} truncated while reading {what}")

    def _length(self, dtype: np.dtype, shape, what: str) -> int:
        """The byte length of the next array, checked against the bytes left
        in the file before anything is allocated or skipped."""
        n_bytes = math.prod(shape) * dtype.itemsize if min(shape, default=0) >= 0 else -1
        if 0 <= n_bytes <= self.stat.st_size - self._fh.tell():
            return n_bytes
        raise self._truncated(what)

    def __call__(self, dtype, shape, what: str) -> np.ndarray:
        dtype = np.dtype(dtype).newbyteorder("=")
        n_bytes = self._length(dtype, shape, what)
        arr = np.empty(shape, dtype)
        if self._fh.readinto(arr.reshape(-1).view(np.uint8)) != n_bytes:
            raise self._truncated(what)
        if sys.byteorder == "big":  # the stored items are little-endian
            arr.byteswap(inplace=True)
        return arr

    def skip(self, dtype, shape, what: str) -> None:
        """Move past the next array, having checked its length as a read
        does, and read its last byte, so a file that shrank since it was
        opened fails here as it would in a read."""
        n_bytes = self._length(np.dtype(dtype), shape, what)
        if n_bytes:
            self._fh.seek(n_bytes - 1, os.SEEK_CUR)
            if len(self._fh.read(1)) != 1:
                raise self._truncated(what)


@contextmanager
def read(path, fmt: Format):
    """Open a container and yield ``(fixed, header, read_array)``, where
    ``read_array`` reads, or skips, the arrays that follow the header: see
    :class:`_Arrays`.

    Every length is checked against the bytes left in the file before it is
    read or skipped, so a damaged length raises the truncated error, never a
    huge allocation; so does a read or skip that comes up short of a checked
    length (the file shrank after it was opened).  A wrong magic, a header
    that is not UTF-8 JSON, or bytes left after the caller's last array when
    its block exits raise the format error, an unknown version the version
    error.
    """
    with open(path, "rb") as fh:
        read_array = _Arrays(fh, fmt)

        def read_bytes(n: int, what: str) -> bytes:
            return read_array(np.uint8, (n,), what).tobytes()

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

        yield tuple(fixed), header, read_array
        extra = read_array.stat.st_size - fh.tell()
        if extra:
            raise fmt.format_error(f"{fmt.name} has {extra} bytes after its last array")


# how an error names each plain annotation of a field, and the JSON types it
# admits: exactly these, so true is no int; a tuple is a list of ints
_KINDS = {
    bool: ("a bool", (bool,)),
    int: ("an int", (int,)),
    float: ("a real number", (int, float)),
    str: ("a string", (str,)),
    dict: ("an object", (dict,)),
    list: ("a list", (list,)),
    tuple: ("a list of ints", (list,)),
}
_hints = functools.cache(typing.get_type_hints)  # evaluates string annotations once per class


def _checked(hint, value, where: str, or_none: str = ""):
    """`value` as a field annotated `hint` (a kind, dataclass, list or optional) holds it."""
    args = typing.get_args(hint)
    if type(None) in args:
        return None if value is None else _checked(args[0], value, where, " or None")
    if is_dataclass(hint):
        return from_json(hint, value, where)
    kind = typing.get_origin(hint) or hint
    wanted, types = _KINDS[kind]
    if type(value) not in types or kind is tuple and any(type(v) is not int for v in value):
        raise TypeError(f"{where} must be {wanted}{or_none}, got {value!r}")
    if kind is list and args:
        return [_checked(args[0], v, f"{where}[{i}]") for i, v in enumerate(value)]
    return tuple(value) if kind is tuple else value


def json_fields(doc, where: str, hints: dict) -> dict:
    """The JSON object `doc`, each value checked against its key's annotation
    in `hints` and never coerced.  An unknown key or a mistyped value raises
    TypeError naming where it sits (``manifest.recordings[2].label``)."""
    if not isinstance(doc, dict):
        raise TypeError(f"{where} must be a JSON object, got {doc!r}")
    unknown = sorted(set(doc) - set(hints))
    if unknown:
        raise TypeError(f"unknown {where} field(s): {', '.join(unknown)}")
    return {key: _checked(hints[key], value, f"{where}.{key}") for key, value in doc.items()}


def from_json(cls, doc, where: str):
    """The dataclass `cls` built from `doc` by :func:`json_fields`; a field
    without a default that `doc` lacks raises KeyError."""
    values = json_fields(doc, where, _hints(cls))
    missing = [f.name for f in fields(cls) if f.name not in values
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise KeyError(f"{where} lacks field(s): {', '.join(missing)}")
    return cls(**values)
