"""Readers for the CSV and PGM files the package writes, for the tests
that check those files' contents."""

from pathlib import Path

import numpy as np

from warpcode.errors import FormatError


def read_csv(path):
    """Inverse of ``storage.write_csv``: returns (header, list of string rows)."""
    text = Path(path).read_text(encoding="ascii")
    lines = [line for line in text.split("\n") if line]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def read_pgm(path) -> np.ndarray:
    """Inverse of ``storage.write_pgm``: a binary (P5) PGM with maxval 255."""
    raw = Path(path).read_bytes()
    if not raw.startswith(b"P5"):
        raise FormatError(f"not a binary PGM: {path}")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        fields.append(int(raw[start:pos]))
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if maxval != 255:
        raise FormatError(f"unsupported PGM maxval {maxval}")
    data = np.frombuffer(raw[pos : pos + width * height], dtype=np.uint8)
    if data.size != width * height:
        raise FormatError(f"truncated PGM payload in {path}")
    return data.reshape(height, width)
