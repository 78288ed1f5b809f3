"""Plain-text serialization shared by the CLI and the test fixtures.

Every file starts with a version header line ``statelift/<kind> v1`` followed
by a size line and one entry per line.  Complex entries are written as
``re im`` pairs; all floats use 17 significant digits, which round-trips IEEE
doubles bit-exactly.  Writes are atomic (temp file + rename).
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .errors import FormatError

_FLOAT = "{:.17g}"
# complex entries are converted this many lines at a time, which bounds the
# memory their token strings take
_BLOCK = 2**12


def _fmt_complex(z: complex) -> str:
    return f"{_FLOAT.format(z.real)} {_FLOAT.format(z.imag)}"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".statelift-")
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise FormatError(f"{path}: {exc}") from exc
        raise


class _Reader:
    def __init__(self, path: str, kind: str):
        self.path = path
        try:
            with open(path) as handle:
                self.lines = [ln for ln in map(str.strip, handle) if ln]
        except OSError as exc:
            raise FormatError(f"{path}: {exc}") from exc
        self.pos = 0
        header = self.next(f"header 'statelift/{kind} v1'")
        if header != f"statelift/{kind} v1":
            raise FormatError(f"{path}: bad header {header!r}, expected statelift/{kind} v1")

    def next(self, what: str) -> str:
        if self.pos >= len(self.lines):
            raise FormatError(f"{self.path}: unexpected end of file, expected {what}")
        line = self.lines[self.pos]
        self.pos += 1
        return line

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

    def complex_entries(self, n: int) -> np.ndarray:
        """n 're im' lines, each number read by float().

        A block of lines is joined with " | " between lines and split into
        tokens, and every third token is dropped.  As "|" is no number, the
        rest converts exactly when the tokens ran re, im, "|", re, im, ...,
        that is, when every line is a pair: otherwise a "|" stays among them.
        A block that does not convert is scanned line by line, which names
        the first bad entry.
        """
        out = np.empty(n, dtype=np.complex128)
        for start in range(0, n, _BLOCK):
            stop = min(start + _BLOCK, n)
            lines = self.lines[self.pos : self.pos + stop - start]
            tokens = " | ".join(lines).split()
            count = len(lines)
            if count == stop - start and len(tokens) == 3 * count - 1:
                del tokens[2::3]
                try:
                    values = np.fromiter(map(float, tokens), np.float64, 2 * count)
                except ValueError:
                    pass
                else:
                    out.view(np.float64)[2 * start : 2 * stop] = values
                    self.pos += count
                    continue
            for i in range(start, stop):
                parts = self.next(f"entry {i + 1}/{n}").split()
                if len(parts) != 2:
                    raise FormatError(f"{self.path}: entry {i + 1} is not a 're im' pair")
                try:
                    out[i] = complex(float(parts[0]), float(parts[1]))
                except ValueError as exc:
                    raise FormatError(f"{self.path}: non-numeric entry {i + 1}") from exc
        return out

    def real_entries(self, n: int) -> np.ndarray:
        out = np.empty(n, dtype=float)
        for i in range(n):
            line = self.next(f"entry {i + 1}/{n}")
            try:
                out[i] = float(line)
            except ValueError as exc:
                raise FormatError(f"{self.path}: non-numeric entry {i + 1}") from exc
        return out

    def done(self) -> None:
        if self.pos != len(self.lines):
            raise FormatError(f"{self.path}: trailing data after entry list")


def write_matrix(path: str, m: np.ndarray) -> None:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise FormatError(f"matrix files hold square matrices, got shape {m.shape}")
    lines = ["statelift/matrix v1", f"dim {m.shape[0]}"]
    lines += [_fmt_complex(z) for z in m.reshape(-1)]
    _atomic_write(path, "\n".join(lines) + "\n")


def read_matrix(path: str) -> np.ndarray:
    r = _Reader(path, "matrix")
    (dim,) = r.field("dim")
    entries = r.complex_entries(dim * dim)
    r.done()
    return entries.reshape(dim, dim)


def write_vector(path: str, v: np.ndarray) -> None:
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    lines = ["statelift/vector v1", f"dim {v.size}"]
    lines += [_fmt_complex(z) for z in v]
    _atomic_write(path, "\n".join(lines) + "\n")


def read_vector(path: str) -> np.ndarray:
    r = _Reader(path, "vector")
    (dim,) = r.field("dim")
    entries = r.complex_entries(dim)
    r.done()
    return entries


def write_lifting(path: str, f) -> None:
    lines = ["statelift/lifting v1", f"dims {f.ds} {f.de}"]
    lines += [_fmt_complex(z) for z in np.asarray(f.matrix).reshape(-1)]
    _atomic_write(path, "\n".join(lines) + "\n")


def read_lifting(path: str):
    from .liftings import Lifting

    r = _Reader(path, "lifting")
    ds, de = r.field("dims", 2)
    rows, cols = (ds * de) ** 2, ds * ds
    entries = r.complex_entries(rows * cols)
    r.done()
    return Lifting(ds, de, entries.reshape(rows, cols))


def write_reduction(path: str, m) -> None:
    lines = ["statelift/reduction v1", f"dims {m.ds} {m.de}"]
    lines += [_fmt_complex(z) for z in np.asarray(m.matrix).reshape(-1)]
    _atomic_write(path, "\n".join(lines) + "\n")


def read_reduction(path: str):
    from .observables import ReductionMap

    r = _Reader(path, "reduction")
    ds, de = r.field("dims", 2)
    rows, cols = ds * ds, (ds * de) ** 2
    entries = r.complex_entries(rows * cols)
    r.done()
    return ReductionMap(ds, de, entries.reshape(rows, cols))


def write_measure(path: str, weights: np.ndarray) -> None:
    weights = np.asarray(weights, dtype=float).reshape(-1)
    lines = ["statelift/measure v1", f"support {weights.size}"]
    lines += [_FLOAT.format(w) for w in weights]
    _atomic_write(path, "\n".join(lines) + "\n")


def read_measure(path: str) -> np.ndarray:
    r = _Reader(path, "measure")
    (support,) = r.field("support")
    entries = r.real_entries(support)
    r.done()
    return entries


def write_product_measure(path: str, mu: np.ndarray) -> None:
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 2:
        raise FormatError(f"product measures are 2-d, got shape {mu.shape}")
    lines = ["statelift/measure2 v1", f"shape {mu.shape[0]} {mu.shape[1]}"]
    lines += [_FLOAT.format(w) for w in mu.reshape(-1)]
    _atomic_write(path, "\n".join(lines) + "\n")


def read_product_measure(path: str) -> np.ndarray:
    r = _Reader(path, "measure2")
    nq, np_ = r.field("shape", 2)
    entries = r.real_entries(nq * np_)
    r.done()
    return entries.reshape(nq, np_)


def write_lift_table(path: str, table: np.ndarray) -> None:
    table = np.asarray(table, dtype=float)
    if table.ndim != 3 or table.shape[0] != table.shape[1]:
        raise FormatError(f"lift tables have shape (q, q, p), got {table.shape}")
    lines = ["statelift/table v1", f"shape {table.shape[0]} {table.shape[2]}"]
    lines += [_FLOAT.format(w) for w in table.reshape(-1)]
    _atomic_write(path, "\n".join(lines) + "\n")


def read_lift_table(path: str) -> np.ndarray:
    r = _Reader(path, "table")
    nq, np_ = r.field("shape", 2)
    entries = r.real_entries(nq * nq * np_)
    r.done()
    return entries.reshape(nq, nq, np_)
