"""Persist module state dicts as flat, checksummed checkpoint files.

Layout of a checkpoint (the repo's model format)::

    _MAGIC                      10 bytes
    header length               8-byte little-endian unsigned integer
    header                      UTF-8 JSON: {"arrays": [[name, dtype, shape],
                                ...], "body_bytes": N, "crc32": C}
    body                        every array's C-order bytes, back to back in
                                header order; N bytes with CRC-32 C

Only numeric arrays (dtype kinds ``b i u f c``) are stored, so a load never
unpickles anything.  Files keep the ``.npz`` suffix, and zip archives
written by ``np.savez`` (the earlier format) still load.

Writes are **atomic**: the checkpoint is first written to a temporary file
in the destination directory and then ``os.replace``d over the final path,
so a process killed mid-save (e.g. a tuning-service worker) can never leave
a truncated checkpoint behind — readers either see the old complete file or
the new complete file.

A load reads each array into its own buffer, so every loaded array owns
its memory.  Reading the body into one buffer and copying or viewing the
arrays out of it raised the tuning service's peak RSS more (DESIGN.md,
service notes).
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
import zipfile
import zlib
from typing import Dict

import numpy as np

from .module import Module

__all__ = ["save_state", "load_state", "save_module", "load_module"]

_MAGIC = b"REPROCKPT1"
_ZIP_MAGIC = b"PK\x03\x04"
_LENGTH = struct.Struct("<Q")
_NUMERIC_KINDS = "biufc"


def _final_path(path: str | os.PathLike) -> str:
    """The path a checkpoint is written to: ``.npz`` is appended if absent."""
    path = os.fspath(path)
    return path if path.endswith(".npz") else path + ".npz"


def _bytes_view(array: np.ndarray) -> np.ndarray:
    """A flat ``uint8`` view of a C-contiguous array's memory (no copy)."""
    return array.reshape(-1).view(np.uint8)


def save_state(state: Dict[str, np.ndarray], path: str | os.PathLike) -> None:
    """Atomically write a flat name→array mapping as a checkpoint file.

    Raises ``TypeError`` for an array that is not numeric (an object array,
    for example), before any file is created.
    """
    entries, views, crc = [], [], 0
    for name, value in state.items():
        array = np.asarray(value)
        if array.dtype.kind not in _NUMERIC_KINDS:
            raise TypeError(f"cannot checkpoint {name!r}: dtype "
                            f"{array.dtype} is not numeric")
        if not array.flags.c_contiguous:
            array = array.copy(order="C")
        view = _bytes_view(array)
        crc = zlib.crc32(view, crc)
        entries.append([name, array.dtype.str, list(array.shape)])
        views.append(view)
    header = json.dumps({"arrays": entries,
                         "body_bytes": sum(view.nbytes for view in views),
                         "crc32": crc}).encode("utf-8")
    final = _final_path(path)
    directory = os.path.dirname(final) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                               suffix=".npz")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(_MAGIC + _LENGTH.pack(len(header)) + header)
            for view in views:
                handle.write(view)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, final)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _parse_header(raw: bytes, body_bytes: int) -> tuple:
    """Validated ``(entries, crc)`` of a header; ``ValueError`` if invalid.

    Runs before any array is allocated: every dtype must be numeric (so
    ``readinto`` can never write object pointers), every shape
    non-negative, and the array sizes must add up to the header's body
    length, which must equal the ``body_bytes`` the file actually holds.
    """
    header = json.loads(raw.decode("utf-8"))
    entries = []
    total = 0
    for name, dtype_str, shape in header["arrays"]:
        dtype = np.dtype(dtype_str)
        if not isinstance(name, str) or dtype.kind not in _NUMERIC_KINDS:
            raise ValueError(f"array {name!r} has non-numeric dtype {dtype}")
        shape = tuple(shape)
        if not all(type(dim) is int and dim >= 0 for dim in shape):
            raise ValueError(f"array {name!r} has invalid shape {shape}")
        total += math.prod(shape) * dtype.itemsize
        entries.append((name, dtype, shape))
    if total != header["body_bytes"] or total != body_bytes:
        raise ValueError(f"arrays need {total} bytes, header says "
                         f"{header['body_bytes']}, file holds {body_bytes}")
    crc = header["crc32"]
    if type(crc) is not int:
        raise ValueError("missing CRC-32")
    return entries, crc


def _load_npz(path: str) -> Dict[str, np.ndarray]:
    """Read a checkpoint in the earlier ``np.savez`` zip layout."""
    try:
        with np.load(path) as archive:
            return {name: archive[name].copy() for name in archive.files}
    except (zipfile.BadZipFile, EOFError, ValueError) as error:
        raise _corrupt(path, error) from error


def _corrupt(path: str, detail: object) -> OSError:
    return OSError(f"corrupt or truncated checkpoint {path!r}: {detail}")


def load_state(path: str | os.PathLike) -> Dict[str, np.ndarray]:
    """Read a state dict previously written by :func:`save_state`.

    Every returned array owns its memory.  A damaged file raises
    ``OSError("corrupt or truncated checkpoint ...")``.
    """
    path = os.fspath(path)
    with open(path, "rb") as handle:
        lead = handle.read(len(_MAGIC) + _LENGTH.size)
        if lead.startswith(_ZIP_MAGIC):
            return _load_npz(path)
        if len(lead) < len(_MAGIC) + _LENGTH.size or (
                not lead.startswith(_MAGIC)):
            raise _corrupt(path, "not a checkpoint file")
        (header_bytes,) = _LENGTH.unpack_from(lead, len(_MAGIC))
        remaining = os.fstat(handle.fileno()).st_size - len(lead)
        if header_bytes > remaining:
            raise _corrupt(path, "header runs past the end of the file")
        try:
            entries, expected_crc = _parse_header(
                handle.read(header_bytes), remaining - header_bytes)
        except (ValueError, TypeError, KeyError) as error:
            raise _corrupt(path, error) from error
        state: Dict[str, np.ndarray] = {}
        crc = 0
        for name, dtype, shape in entries:
            try:
                array = np.empty(shape, dtype)
            except ValueError as error:  # a dimension past numpy's limit
                raise _corrupt(path, error) from error
            view = _bytes_view(array)
            if handle.readinto(view) != view.nbytes:
                raise _corrupt(path, f"body ends inside {name!r}")
            crc = zlib.crc32(view, crc)
            state[name] = array
    if crc != expected_crc:
        raise _corrupt(path, "CRC-32 mismatch")
    return state


def save_module(module: Module, path: str | os.PathLike) -> None:
    """Persist a module's full state dict to ``path`` (.npz)."""
    save_state(module.state_dict(), path)


def load_module(module: Module, path: str | os.PathLike) -> Module:
    """Load a state dict saved by :func:`save_module` into ``module``."""
    module.load_state_dict(load_state(path))
    return module
