"""Plain-text serialization shared by the CLI and the test fixtures.

Every file starts with a version header line ``statelift/<kind> v1`` followed
by a size line and one entry per line.  Complex entries are written as
``re im`` pairs; all floats use 17 significant digits, which round-trips IEEE
doubles bit-exactly, in the bytes of ``"%.17g" % v`` (numpy formats full
blocks of lines).  Writes are atomic (temp file + rename), and a written
file's mode follows the umask.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager

import numpy as np

from .errors import FormatError

# entries are written this many lines at a time, which bounds the memory
# their token strings take
_BLOCK = 2**12
# a block of this many values or more is formatted by _format17, and a shorter
# one by one %-format, which is faster there: _format17 costs about 70-100 us a
# call whatever its size
_FORMAT17_MIN = 2**10

# 10^0 .. 10^22, each exact as a double
_POW10 = np.array([float(10**k) for k in range(23)])


def _digit_tables():
    """The four decimal digits of each 4-digit group value 0 .. 9999 in ASCII,
    each followed by a 0xFF that keeps a point slot, as one 8-byte word; and
    how many of them precede the trailing zeros."""
    digits = np.arange(10**4, dtype=np.int16)[:, None] // np.int16([1000, 100, 10, 1]) % 10
    words = np.full((10**4, 8), 0xFF, np.uint8)
    words[:, ::2] = digits + 48
    sig = np.max(np.where(digits > 0, np.arange(1, 5, dtype=np.int8), np.int8(0)), axis=1)
    return words.view(np.uint64)[:, 0], sig


_DIGITS8, _SIG4 = _digit_tables()


def _layouts() -> np.ndarray:
    """The 48-byte row of each token shape: exponent X in [-28, 16], digits s
    before the trailing zeros in [1, 17], and sign, at row
    ((X + 28) 17 + s - 1) 2 + sign.  Its columns are the sign, the "0.000" of
    -4 <= X <= -1, the 17 digits each followed by a point slot (the last 16 in
    the four words 1 to 4), "e-XX" and the separator.  0 marks a byte the
    token leaves out, and 0xFF one that takes a digit or the separator."""
    grid = np.meshgrid(np.arange(-28, 17), np.arange(1, 18), [0, 1], indexing="ij")
    X, s, neg = (g.ravel() for g in grid)
    fixed, expo = X >= 0, X < -4
    m = np.where(fixed, np.maximum(s, X + 1), s)  # the digits printed
    q = np.where(fixed, X, np.where(expo, 0, 17))  # the point follows digit q ...
    q[s <= q + 1] = 17  # ... if a digit follows it
    pre = np.where(fixed | expo, 0, 1 - X)  # the length of "0.000"
    rows = np.zeros((len(X), 48), np.uint8)
    rows[:, 0] = neg * ord("-")
    rows[:, 1:6] = np.where(np.arange(5) < pre[:, None], np.frombuffer(b"0.000", np.uint8), 0)
    rows[:, 6:40:2][np.arange(17) < m[:, None]] = 0xFF
    rows[:, 7:40:2][np.arange(17) == q[:, None]] = ord(".")
    rows[:, 40:42] = np.where(expo[:, None], np.frombuffer(b"e-", np.uint8), 0)
    rows[:, 42:44] = np.where(expo[:, None], np.stack(np.divmod(-X, 10), axis=1) + 48, 0)
    rows[:, 44] = 0xFF
    return rows


_LAYOUTS = _layouts().view(np.uint64)


def _two_product(a, b):
    """(p, e) with p = fl(a b) and a b = p + e exactly (Dekker, 1971), for
    products far from overflow and underflow."""
    p = a * b
    s = 134217729.0 * a  # 2^27 + 1: Veltkamp's split into halves of 26 and 27 bits
    ah = s - (s - a)
    s = 134217729.0 * b
    bh = s - (s - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _scaled(a, p):
    """a 10^p as a double P and a remainder e, a 10^p = P + e: exact for
    p <= 22, and within 2^-48 for 22 < p <= 44 where a 10^p < 10^17, since
    10^p is applied as 10^22 and then 10^(p - 22)."""
    P, e = _two_product(a, _POW10[np.minimum(p, 22)])
    if (p > 22).any():
        c = _POW10[np.maximum(p - 22, 0)]
        P, e2 = _two_product(P, c)
        e = e2 + e * c
    return P, e


def _decimal17(a):
    """The 17 significant digits N, an int64 in [10^16, 10^17), and the
    decimal exponent X of each a in [1e-28, 1e17), a = N 10^(X - 16) rounded
    half to even as dtoa rounds; and whether they are certain, which they are
    but for X < -28 and for a product within 2^-40 of a tie past 10^22."""
    X = np.clip(np.floor(np.log10(a)), -28, 16).astype(np.int64)
    P, e = _scaled(a, 16 - X)
    # X is the exponent of the unrounded product: 1e-7's double, just below
    # 10^-7, has X = -8 and the digits 99999999999999995.  log10 misses it by
    # at most one, next to a power of ten, so one step corrects it
    up = (P > 1e17) | (P == 1e17) & (e >= 0)
    down = (P < 1e16) | (P == 1e16) & (e < 0)
    if up.any() or down.any():
        X += up
        X -= down
        P, e = _scaled(a, 16 - np.maximum(X, -28))
    # P >= 10^16 > 2^53 is an even integer, so P + rint(e) rounds half to even
    N = P.astype(np.int64) + np.rint(e).astype(np.int64)
    tie = (X < -6) & (np.abs(e - np.floor(e) - 0.5) < 2.0**-40)
    carry = N == 10**17
    N[carry] = 10**16
    X += carry
    return N, X, (X >= -28) & ~tie


def _format17(values, seps: bytes) -> bytes:
    """The bytes of ``"%.17g" % v`` for each float64 v of ``values``, each
    followed by its separator ``seps[i % len(seps)]``.

    A normal v with 1e-28 <= |v| < 1e17 takes its digits from ``_decimal17``
    and its token from its row of ``_LAYOUTS``, the digits ANDed in and the
    zero bytes dropped.  A zero is "0" or "-0".  Every other value, and one
    whose digits are uncertain, is %-formatted and spliced in place."""
    n = values.size
    sep = np.frombuffer(seps * (n // len(seps) + 1), np.uint8)[:n]
    neg = np.signbit(values)
    a = np.abs(values)
    i = np.flatnonzero((a >= 1e-28) & (a < 1e17))
    N, X, fast = _decimal17(a[i])
    i, N, X = i[fast], N[fast], X[fast]

    h, l = np.divmod(N, 10**8)
    d0, h = np.divmod(h, 10**8)
    hl = np.stack([h, l])
    groups = np.empty((4, len(N)), np.int64)  # the 4-digit groups after d0
    groups[::2] = hl // 10**4
    groups[1::2] = hl - groups[::2] * 10**4
    sig = _SIG4[groups]
    s = np.maximum.reduce(np.where(sig > 0, sig + np.arange(1, 17, 4)[:, None], 1))
    words = np.take(_LAYOUTS, ((X + 28) * 17 + s - 1) * 2 + neg[i], axis=0)
    for j, group in enumerate(_DIGITS8[groups]):
        words[:, 1 + j] &= group
    body = words.view(np.uint8)
    body[:, 6] &= (48 + d0).astype(np.uint8)
    body[:, 44] = sep[i]
    tokens = body.tobytes().translate(None, b"\0")
    if len(i) == n:
        return tokens

    # splice in the zeros, which are most entries of a product lifting and so
    # take no row, and the %-formatted values, by the kind of token that owns
    # each output byte
    kind = np.full(n, 2, np.int8)
    lengths = np.empty(n, np.int64)
    zero = np.flatnonzero(values == 0)
    kind[zero] = 1
    lengths[zero] = 2 + neg[zero]
    kind[i] = 0
    lengths[i] = np.count_nonzero(body, axis=1)
    rest = np.flatnonzero(kind == 2)
    text = ["%.17g%c" % vs for vs in zip(values[rest].tolist(), sep[rest].tolist())]
    lengths[rest] = [len(t) for t in text]
    owner = np.repeat(kind, lengths)
    out = np.empty(owner.size, np.uint8)
    out[owner == 0] = np.frombuffer(tokens, np.uint8)
    zeros = np.zeros((len(zero), 3), np.uint8)
    zeros[:, 0] = neg[zero] * ord("-")
    zeros[:, 1] = ord("0")
    zeros[:, 2] = sep[zero]
    out[owner == 1] = np.frombuffer(zeros.tobytes().translate(None, b"\0"), np.uint8)
    out[owner == 2] = np.frombuffer("".join(text).encode(), np.uint8)
    return out.tobytes()


def _atomic_write(path: str, header: list, values: np.ndarray, per_line: int = 1) -> None:
    """Write the header lines and then the float64 ``values``, ``per_line`` to
    a line with 17 significant digits each, to a temp file renamed over
    ``path``.  Each block of ``_BLOCK`` lines, or the shorter last one, is
    formatted by ``_format17`` if it holds at least ``_FORMAT17_MIN`` values
    and else by one %-format: the same bytes."""
    rows = np.asarray(values, dtype=np.float64).reshape(-1, per_line)
    line = " ".join(["%.17g"] * per_line) + "\n"
    seps = b" " * (per_line - 1) + b"\n"
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        name = os.path.join(directory, ".statelift-" + os.urandom(8).hex())
        # created as open() creates a file, so that its mode follows the umask
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = name
        with os.fdopen(fd, "wb") as handle:
            handle.write("".join(h + "\n" for h in header).encode("ascii"))
            for start in range(0, len(rows), _BLOCK):
                block = rows[start : start + _BLOCK]
                if block.size >= _FORMAT17_MIN:
                    handle.write(_format17(block.ravel(), seps))
                else:
                    text = line * len(block) % tuple(block.ravel().tolist())
                    handle.write(text.encode("ascii"))
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
