"""Plain-text serialization shared by the CLI and the test fixtures.

Every file starts with a version header line ``statelift/<kind> v1`` followed
by a size line and one entry per line.  Complex entries are written as
``re im`` pairs; all floats use 17 significant digits, which round-trips IEEE
doubles bit-exactly.  Writes are atomic (temp file + rename).
"""

from __future__ import annotations

import os
import tempfile
import warnings
from contextlib import contextmanager

import numpy as np

from .errors import FormatError

# entries are written this many lines at a time, which bounds the memory
# their token strings take
_BLOCK = 2**12


def _atomic_write(path: str, header: list, values: np.ndarray, per_line: int = 1) -> None:
    """Write the header lines and then the float64 ``values``, ``per_line`` to
    a line with 17 significant digits each, to a temp file renamed over
    ``path``.  Each block of ``_BLOCK`` lines is formatted by one %-format."""
    rows = np.asarray(values, dtype=np.float64).reshape(-1, per_line)
    line = " ".join(["%.17g"] * per_line) + "\n"
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".statelift-")
        with os.fdopen(fd, "w") as handle:
            handle.write("".join(h + "\n" for h in header))
            for start in range(0, len(rows), _BLOCK):
                block = rows[start : start + _BLOCK]
                handle.write(line * len(block) % tuple(block.ravel().tolist()))
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise FormatError(f"{path}: {exc}") from exc
        raise


def _complex_parts(m) -> np.ndarray:
    """The ``re im`` float pairs of a complex array, in C order."""
    return np.ascontiguousarray(m, dtype=np.complex128).reshape(-1).view(np.float64)


class _Reader:
    """The lines of an open file, read in order; blank lines are skipped."""

    def __init__(self, path: str, handle):
        self.path = path
        self.handle = handle
        self.lines = 0  # physical lines read so far

    def next(self, what: str) -> str:
        for line in iter(self.handle.readline, ""):
            self.lines += 1
            line = line.strip()
            if line:
                return line
        raise FormatError(f"{self.path}: unexpected end of file, expected {what}")

    def field(self, name: str, count: int = 1):
        parts = self.next(f"field '{name}'").split()
        if parts[0] != name or len(parts) != count + 1:
            raise FormatError(f"{self.path}: expected '{name}' with {count} value(s)")
        try:
            values = [int(p) for p in parts[1:]]
        except ValueError as exc:
            raise FormatError(f"{self.path}: non-integer in field '{name}'") from exc
        if min(values) < 1:
            raise FormatError(f"{self.path}: {name} must be positive")
        return values

    def entries(self, n: int, per_line: int) -> np.ndarray:
        """The rest of the file as n lines of per_line floats, shape (n, per_line).

        numpy's C reader, given the path and the lines read so far, reads in
        blocks and converts with the dtoa of float(), so the bits are float()'s.
        A file it does not read as exactly n such lines, that makes it warn or
        that it would decompress is scanned line by line instead: the scan
        names the first bad entry, and reads what only float() reads, e.g. 1_0.
        """
        path = os.path.abspath(self.path)  # numpy would fetch a relative "scheme://host/..." path
        if not path.endswith((".gz", ".bz2", ".xz", ".lzma")):  # numpy decompresses these
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    values = np.loadtxt(path, dtype=np.float64, comments=None, ndmin=2,
                                        skiprows=self.lines, encoding="utf-8")
                if values.shape == (n, per_line):
                    return values
            except (ValueError, Warning):
                pass
        return self._scan(n, per_line)

    def _scan(self, n: int, per_line: int) -> np.ndarray:
        """``entries`` read a line at a time with float()."""
        values = []
        for i in range(1, n + 1):
            line = self.next(f"entry {i}/{n}")
            parts = line.split() if per_line > 1 else [line]
            if len(parts) != per_line:
                raise FormatError(f"{self.path}: entry {i} is not a 're im' pair")
            try:
                values.extend(map(float, parts))
            except ValueError as exc:
                raise FormatError(f"{self.path}: non-numeric entry {i}") from exc
        if any(map(str.strip, self.handle)):
            raise FormatError(f"{self.path}: trailing data after entry list")
        return np.array(values).reshape(n, per_line)


@contextmanager
def _reading(path: str, kind: str):
    """A reader of the file at ``path``, past its ``statelift/<kind> v1`` header.

    Bytes that are not UTF-8, wherever the read meets them, are a FormatError."""
    try:
        handle = open(path, encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    with handle:
        r = _Reader(path, handle)
        try:
            header = r.next(f"header 'statelift/{kind} v1'")
            if header != f"statelift/{kind} v1":
                raise FormatError(f"{path}: bad header {header!r}, expected statelift/{kind} v1")
            yield r
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def write_matrix(path: str, m: np.ndarray) -> None:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise FormatError(f"matrix files hold square matrices, got shape {m.shape}")
    _atomic_write(path, ["statelift/matrix v1", f"dim {m.shape[0]}"], _complex_parts(m), 2)


def read_matrix(path: str) -> np.ndarray:
    with _reading(path, "matrix") as r:
        (dim,) = r.field("dim")
        entries = r.entries(dim * dim, 2)
    return entries.view(np.complex128).reshape(dim, dim)


def write_vector(path: str, v: np.ndarray) -> None:
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    _atomic_write(path, ["statelift/vector v1", f"dim {v.size}"], _complex_parts(v), 2)


# The lifting format: dims ds de, then (ds de)^2 ds^2 complex entries.
def write_lifting(path: str, f) -> None:
    header = ["statelift/lifting v1", f"dims {f.ds} {f.de}"]
    _atomic_write(path, header, _complex_parts(f.matrix), 2)


def read_lifting(path: str):
    from .liftings import Lifting

    with _reading(path, "lifting") as r:
        ds, de = r.field("dims", 2)
        entries = r.entries(ds**2 * (ds * de) ** 2, 2)
    return Lifting(ds, de, entries.view(np.complex128).reshape((ds * de) ** 2, ds * ds))


def read_measure(path: str) -> np.ndarray:
    with _reading(path, "measure") as r:
        (support,) = r.field("support")
        entries = r.entries(support, 1)
    return entries.reshape(support)


def write_product_measure(path: str, mu: np.ndarray) -> None:
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 2:
        raise FormatError(f"product measures are 2-d, got shape {mu.shape}")
    _atomic_write(path, ["statelift/measure2 v1", f"shape {mu.shape[0]} {mu.shape[1]}"], mu)


def read_lift_table(path: str) -> np.ndarray:
    with _reading(path, "table") as r:
        nq, np_ = r.field("shape", 2)
        entries = r.entries(nq * nq * np_, 1)
    return entries.reshape(nq, nq, np_)
