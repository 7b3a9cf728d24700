"""Flat binary tensor files: one JSON header line, then raw f64 bytes.

The one binary format of the package: log-Mel grams (``.gram``),
quanvolution maps (``.fmap``) and checkpoints (layout ``params``) all use
it. The header holds ``dims``, ``dtype`` and ``layout``, then any extra
keys the writer passes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def save_tensor(path: str | Path, array: np.ndarray, layout: str, **extra) -> None:
    arr = np.ascontiguousarray(array, dtype=np.float64)
    header = {"dims": list(arr.shape), "dtype": "f64", "layout": layout, **extra}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        fh.write(arr.tobytes())


def load_tensor(path: str | Path, expect_layout: str) -> tuple[np.ndarray, dict]:
    """The array of a tensor file and its header. A payload longer or
    shorter than the header's ``dims`` is an ``IOError``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        if header.get("dtype") != "f64":
            raise ValueError(f"{path}: unsupported tensor header {header}")
        if header.get("layout") != expect_layout:
            raise ValueError(
                f"{path}: expected layout {expect_layout}, found {header.get('layout')}"
            )
        raw = fh.read()
    dims = tuple(header["dims"])
    count = int(np.prod(dims))
    if len(raw) != 8 * count:
        raise IOError(f"{path}: {len(raw)} payload bytes, expected {8 * count} for dims {dims}")
    return np.frombuffer(raw, dtype=np.float64).reshape(dims).copy(), header
