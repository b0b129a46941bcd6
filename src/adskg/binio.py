"""Versioned binary blobs and CSV helpers shared by the command line tools.

Blob layout (all integers little-endian):

    bytes 0..15    magic  b"ADSKGBIN\\0\\0\\0\\0\\0\\0\\0\\0"
    bytes 16..19   format version (uint32)
    bytes 20..23   header length H (uint32)
    bytes 24..24+H JSON header (utf-8)
    remainder      raw array payload, concatenated in header order

The JSON header carries a free-form "meta" mapping plus an "arrays" list of
{name, dtype, shape} records.  Arrays are real: stored C-contiguous as
little-endian float64 ("<f8") or int64 ("<i8").
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct

import numpy as np

MAGIC = b"ADSKGBIN" + b"\x00" * 8
VERSION = 1

_ALLOWED_DTYPES = ("<f8", "<i8")  # a tuple: an unhashable dtype entry is refused, not a TypeError

__all__ = ["MAGIC", "VERSION", "write_blob", "read_blob", "malformed", "write_csv", "fmt_float"]


def write_blob(path: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write named real arrays plus a JSON meta block to a versioned binary
    file; integer arrays are stored as int64, all others as float64."""
    records = []
    payload = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        if np.iscomplexobj(arr):
            raise ValueError(f"array {name!r} is complex; blobs store real arrays only")
        dtype = "<i8" if np.issubdtype(arr.dtype, np.integer) else "<f8"
        arr = arr.astype(dtype)
        records.append({"name": name, "dtype": dtype, "shape": list(arr.shape)})
        payload.append(arr.tobytes())
    header = json.dumps({"meta": meta, "arrays": records}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(header)))
        fh.write(header)
        for chunk in payload:
            fh.write(chunk)


def read_blob(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a blob written by :func:`write_blob`; returns (meta, arrays).  A
    malformed file raises ``ValueError`` naming the path and the bad part."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(16)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}; not an adskg blob")
        sizes = fh.read(8)
        if len(sizes) != 8:
            raise ValueError(f"{path}: truncated before the version and header length")
        version, hlen = struct.unpack("<II", sizes)
        if version != VERSION:
            raise ValueError(f"{path}: unsupported blob version {version}")
        if hlen > size - fh.tell():  # checked before the read, which would allocate hlen bytes
            raise ValueError(f"{path}: truncated header of {hlen} bytes")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
            raise ValueError(f"{path}: header is not JSON: {exc}") from None
        if not (isinstance(header, dict) and isinstance(header.get("meta"), dict)
                and isinstance(header.get("arrays"), list)):
            raise ValueError(f"{path}: header is not an object with a 'meta' object and an 'arrays' list")
        arrays = {}
        for i, rec in enumerate(header["arrays"]):
            if not (isinstance(rec, dict) and isinstance(rec.get("name"), str) and isinstance(rec.get("shape"), list)
                    and all(type(n) is int and n >= 0 for n in rec["shape"])):
                raise ValueError(f"{path}: array record {i} needs a string name and a shape of nonnegative integers")
            if rec.get("dtype") not in _ALLOWED_DTYPES:
                raise ValueError(f"{path}: disallowed dtype {rec.get('dtype')!r}")
            dt = np.dtype(rec["dtype"])
            nbytes = math.prod(rec["shape"]) * dt.itemsize
            if nbytes > size - fh.tell():
                raise ValueError(f"{path}: truncated payload for array {rec['name']!r}")
            arrays[rec["name"]] = np.frombuffer(fh.read(nbytes), dtype=dt).reshape(rec["shape"]).copy()
    return header["meta"], arrays


def malformed(path: str, exc: KeyError | TypeError) -> ValueError:
    """The error for a blob whose record lacks a key (``KeyError``) or holds a
    value of the wrong type (``TypeError``), naming the blob."""
    what = f"lacks {exc.args[0]!r}" if isinstance(exc, KeyError) else f"is malformed ({exc})"
    return ValueError(f"{path}: the blob's record {what}")


def fmt_float(value) -> str:
    """Shortest decimal representation that round-trips a float64."""
    return repr(float(value))


def write_csv(path: str, columns: list[str], rows) -> None:
    """Write rows of numbers/strings as RFC-4180 CSV with a header line."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                [fmt_float(v) if isinstance(v, (float, np.floating)) else v for v in row]
            )
