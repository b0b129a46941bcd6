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
import struct

import numpy as np

MAGIC = b"ADSKGBIN" + b"\x00" * 8
VERSION = 1

_ALLOWED_DTYPES = {"<f8", "<i8"}

__all__ = ["MAGIC", "VERSION", "write_blob", "read_blob", "write_csv", "fmt_float"]


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
    """Read a blob written by :func:`write_blob`; returns (meta, arrays)."""
    with open(path, "rb") as fh:
        magic = fh.read(16)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}; not an adskg blob")
        version, hlen = struct.unpack("<II", fh.read(8))
        if version != VERSION:
            raise ValueError(f"{path}: unsupported blob version {version}")
        header = json.loads(fh.read(hlen).decode("utf-8"))
        arrays = {}
        for rec in header["arrays"]:
            if rec["dtype"] not in _ALLOWED_DTYPES:
                raise ValueError(f"{path}: disallowed dtype {rec['dtype']!r}")
            count = int(np.prod(rec["shape"])) if rec["shape"] else 1
            dt = np.dtype(rec["dtype"])
            buf = fh.read(count * dt.itemsize)
            if len(buf) != count * dt.itemsize:
                raise ValueError(f"{path}: truncated payload for array {rec['name']!r}")
            arrays[rec["name"]] = np.frombuffer(buf, dtype=dt).reshape(rec["shape"]).copy()
    return header["meta"], arrays


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
