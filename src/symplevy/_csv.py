"""Shared CSV helpers: fixed float formatting and atomic writes."""

import os
import tempfile

import numpy as np


def fmt(x):
    """Format a float with 17 significant digits (round-trip safe)."""
    return format(float(x), ".17g")


def fmt_rows(array):
    """Each row of a 2-D float array as one CSV line of ``fmt``-formatted values."""
    array = np.asarray(array, dtype=float)
    template = ",".join(["%.17g"] * array.shape[1])
    return [template % tuple(row) for row in array.tolist()]


def atomic_write_text(file_path, text):
    """Write text to file_path via a temporary file in the same directory.

    The rename at the end is atomic on POSIX, so readers never observe a
    half-written file and re-runs overwrite cleanly.
    """
    directory = os.path.dirname(os.path.abspath(file_path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, file_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(file_path, header, lines, trailer=None):
    """Write a header line, formatted data lines, and an optional trailer."""
    lines = [header, *lines]
    if trailer is not None:
        lines.append(trailer)
    atomic_write_text(file_path, "\n".join(lines) + "\n")
