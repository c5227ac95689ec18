"""On-disk formats: WMAT matrix container, IDX reader, PGM writer, CSV writer.

WMAT layout (little-endian): magic ``WMAT``, u32 version = 1, u64 rows,
u64 cols, then rows*cols float64 values in row-major order.  The header is
exactly 24 bytes.
"""

import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

WMAT_MAGIC = b"WMAT"
WMAT_VERSION = 1
WMAT_HEADER = struct.Struct("<4sIQQ")

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


def save_matrix(path, matrix) -> None:
    """Write a WMAT matrix; FormatError, before the file is opened, for
    another rank or a non-finite entry, which ``load_matrix`` would refuse."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise FormatError(f"WMAT stores 2-D matrices, got ndim={matrix.ndim}")
    _require_finite(matrix, Path(path).name)
    rows, cols = matrix.shape
    with open(path, "wb") as handle:
        handle.write(WMAT_HEADER.pack(WMAT_MAGIC, WMAT_VERSION, rows, cols))
        handle.write(np.ascontiguousarray(matrix).astype("<f8").tobytes())


def load_matrix(path) -> np.ndarray:
    """Read a WMAT matrix; FormatError, naming the file, for a short or
    foreign header, a payload of the wrong length or a non-finite entry."""
    name = Path(path).name
    with open(path, "rb") as handle:
        header = handle.read(WMAT_HEADER.size)
        if len(header) < WMAT_HEADER.size:
            raise FormatError(
                f"{name}: truncated WMAT header: expected {WMAT_HEADER.size} bytes, "
                f"got {len(header)} (offset 0)"
            )
        magic, version, rows, cols = WMAT_HEADER.unpack(header)
        if magic != WMAT_MAGIC:
            raise FormatError(f"{name}: bad WMAT magic {magic!r} at offset 0")
        if version != WMAT_VERSION:
            raise FormatError(f"{name}: unsupported WMAT version {version} at offset 4")
        payload = handle.read()
    expected = rows * cols * 8
    if len(payload) != expected:
        raise FormatError(
            f"{name}: WMAT payload length {len(payload)} != expected {expected} "
            f"(offset {WMAT_HEADER.size})"
        )
    matrix = np.frombuffer(payload, dtype="<f8").reshape(rows, cols).astype(np.float64)
    _require_finite(matrix, name)
    return matrix


def _require_finite(matrix: np.ndarray, name: str) -> None:
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise FormatError(f"{name} row {bad[0]}: holds a non-finite entry")


# ---------------------------------------------------------------------------
# IDX (MNIST-style) files


def read_idx(path) -> np.ndarray:
    """Read an IDX file of unsigned bytes into an ndarray."""
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise FormatError(f"truncated IDX header in {path} (offset 0)")
    magic = int.from_bytes(raw[0:4], "big")
    if raw[0] != 0 or raw[1] != 0:
        raise FormatError(f"bad IDX magic {magic:#010x} at offset 0")
    dtype_code, ndim = raw[2], raw[3]
    if dtype_code != 0x08:
        raise FormatError(f"unsupported IDX dtype {dtype_code:#04x} at offset 2")
    header_len = 4 + 4 * ndim
    if len(raw) < header_len:
        raise FormatError(f"truncated IDX dimension list (offset {len(raw)})")
    shape = tuple(int.from_bytes(raw[4 + 4 * i : 8 + 4 * i], "big") for i in range(ndim))
    expected = int(np.prod(shape)) if shape else 0
    payload = raw[header_len:]
    if len(payload) != expected:
        raise FormatError(
            f"IDX payload length {len(payload)} != expected {expected} "
            f"(offset {header_len})"
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(shape)


# ---------------------------------------------------------------------------
# PGM (P5) images


def write_pgm(path, image) -> None:
    """Write a 2-D uint8 array as a binary (P5) PGM with maxval 255;
    FormatError, before the file is opened, for a value outside [0, 255] or NaN."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise FormatError("PGM writer expects a 2-D array")
    if image.dtype != np.uint8:
        if not ((image >= 0) & (image <= 255)).all():
            raise FormatError("PGM values must lie in [0, 255]")
        image = image.astype(np.uint8)
    with open(path, "wb") as handle:
        handle.write(f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii"))
        handle.write(image.tobytes())


# ---------------------------------------------------------------------------
# CSV


def write_csv(path, header, rows) -> None:
    """Plain comma-separated output, '.' decimal, repr-formatted floats, a
    tuple's entries separated by spaces.

    repr keeps the shortest round-trip representation, so identical runs
    produce byte-identical files.  Cells are not quoted, so FormatError,
    before the file is opened, for a cell holding a comma, a double quote
    or a line break.
    """
    table = [list(header)] + [[_format_cell(cell) for cell in row] for row in rows]
    for cells in table:
        for text in cells:
            if any(mark in text for mark in ',"\r\n'):
                raise FormatError(f"CSV cell {text!r} holds a comma, a quote or a line break")
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.writelines(",".join(cells) + "\n" for cells in table)


def _format_cell(cell) -> str:
    if isinstance(cell, tuple):
        return " ".join(_format_cell(entry) for entry in cell)
    if isinstance(cell, (bool, np.bool_)):
        return str(bool(cell))
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    if isinstance(cell, (float, np.floating)):
        return repr(float(cell))
    return str(cell)

