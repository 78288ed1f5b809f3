import tracemalloc
import warnings

import numpy as np
import pytest

from statelift import FormatError, Lifting, product_lifting, random_density
from statelift.liftings import perturbed_product_lifting
from statelift.fileio import (
    _BLOCK,
    read_lift_table,
    read_lifting,
    read_matrix,
    read_measure,
    read_product_measure,
    read_reduction,
    read_vector,
    write_lift_table,
    write_lifting,
    write_matrix,
    write_measure,
    write_product_measure,
    write_reduction,
    write_vector,
)
from statelift.observables import adjoint_lifting
from statelift.rng import philox_rng

from oracles import FILE_KINDS, file_text_per_entry, read_file_per_line


def test_matrix_roundtrip_bit_exact(tmp_path):
    rng = philox_rng(1)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m *= 1e-7  # exercise exponents
    path = tmp_path / "m.mat"
    write_matrix(path, m)
    assert np.array_equal(read_matrix(path), m)


def test_matrix_header_and_dim(tmp_path):
    path = tmp_path / "m.mat"
    write_matrix(path, np.eye(2, dtype=complex))
    text = path.read_text().splitlines()
    assert text[0] == "statelift/matrix v1"
    assert text[1] == "dim 2"
    assert len(text) == 2 + 4


def test_vector_roundtrip(tmp_path):
    v = np.array([1.5, -2.25j, 3e-17], dtype=complex)
    path = tmp_path / "v.vec"
    write_vector(path, v)
    assert np.array_equal(read_vector(path), v)


def test_lifting_roundtrip(tmp_path):
    f = product_lifting(random_density(2, seed=2), 3)
    path = tmp_path / "f.lift"
    write_lifting(path, f)
    back = read_lifting(path)
    assert (back.ds, back.de) == (3, 2)
    assert np.array_equal(back.matrix, f.matrix)


def test_reduction_roundtrip(tmp_path):
    r = adjoint_lifting(product_lifting(random_density(2, seed=3), 2))
    path = tmp_path / "r.red"
    write_reduction(path, r)
    back = read_reduction(path)
    assert (back.ds, back.de) == (2, 2)
    assert np.array_equal(back.matrix, r.matrix)


def test_measure_roundtrips(tmp_path):
    w = np.array([0.25, 0.75, -0.125])
    path = tmp_path / "u.measure"
    write_measure(path, w)
    assert np.array_equal(read_measure(path), w)

    mu = np.array([[0.5, 0.0], [0.0, 0.5]])
    path2 = tmp_path / "mu.m2"
    write_product_measure(path2, mu)
    assert np.array_equal(read_product_measure(path2), mu)

    table = np.zeros((2, 2, 2))
    table[0, 0, 0] = 1.0
    table[1, 1, 1] = 1.0
    path3 = tmp_path / "f.tbl"
    write_lift_table(path3, table)
    assert np.array_equal(read_lift_table(path3), table)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("statelift/matrix v2\ndim 1\n0 0\n")
    with pytest.raises(FormatError, match="header"):
        read_matrix(path)


def _matrix_file(path, dim, entries):
    path.write_text(f"statelift/matrix v1\ndim {dim}\n" + "".join(f"{e}\n" for e in entries))
    return path


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "short.mat"
    path.write_text("statelift/matrix v1\ndim 2\n1 0\n")
    with pytest.raises(FormatError, match="end of file"):
        read_matrix(path)
    # 4899 of 4900 entries: the shortfall lies past the first block of lines
    _matrix_file(path, 70, ["1 0"] * 4899)
    with pytest.raises(FormatError, match="end of file, expected entry 4900/4900"):
        read_matrix(path)


def test_non_numeric_entry_rejected(tmp_path):
    path = tmp_path / "junk.mat"
    path.write_text("statelift/matrix v1\ndim 1\nx y\n")
    with pytest.raises(FormatError, match="non-numeric"):
        read_matrix(path)
    # '#' starts no comment; a bad entry deep in a file is named
    for bad, number in (("1.5 #2", 1), ("# 1", 3), ("0x10 0", 4500), ("1 2j", 4900)):
        entries = ["1 0"] * 4900
        entries[number - 1] = bad
        _matrix_file(path, 70, entries)
        with pytest.raises(FormatError, match=f"non-numeric entry {number}$"):
            read_matrix(path)


def test_entry_not_a_pair_rejected(tmp_path):
    path = tmp_path / "pairs.mat"
    for bad, number in (("1 0 0", 2), ("1", 4097), ("1 0 2 0", 4900)):
        entries = ["1 0"] * 4900
        entries[number - 1] = bad
        _matrix_file(path, 70, entries)
        with pytest.raises(FormatError, match=f"entry {number} is not a 're im' pair"):
            read_matrix(path)
    # a 3-token line and a 1-token line hold as many tokens as two pairs
    _matrix_file(path, 2, ["1 0", "1 0 0", "1", "1 0"])
    with pytest.raises(FormatError, match="entry 2 is not a 're im' pair"):
        read_matrix(path)


def test_reader_whitespace_and_float_syntax(tmp_path):
    path = tmp_path / "ws.mat"
    text = ("statelift/matrix v1\r\n\r\ndim 2\r\n1_0\t-0.0\r\n\n  2   3e-1  \n\t\n"
            "-inf nan\r\n\n4\t\t 5\n")
    path.write_bytes(text.encode())
    got = read_matrix(path)
    want = np.array([[10.0 - 0.0j, 2 + 0.3j], [complex(-np.inf, np.nan), 4 + 5j]])
    assert np.array_equal(got, want, equal_nan=True)
    assert np.signbit(got[0, 0].imag)


def test_trailing_data_rejected(tmp_path):
    path = tmp_path / "long.mat"
    path.write_text("statelift/matrix v1\ndim 1\n1 0\n2 0\n")
    with pytest.raises(FormatError, match="trailing"):
        read_matrix(path)
    _matrix_file(path, 70, ["1 0"] * 4901)
    with pytest.raises(FormatError, match="trailing"):
        read_matrix(path)


def test_nonpositive_dims_rejected(tmp_path):
    for kind, reader in (("lifting", read_lifting), ("reduction", read_reduction)):
        for dims in ("0 3", "-2 -2", "2 0"):
            path = tmp_path / f"{kind}.txt"
            path.write_text(f"statelift/{kind} v1\ndims {dims}\n")
            with pytest.raises(FormatError, match="dims must be positive"):
                reader(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(FormatError):
        read_matrix(tmp_path / "nope.mat")


def test_write_is_deterministic(tmp_path):
    m = random_density(3, seed=4)
    p1, p2 = tmp_path / "a.mat", tmp_path / "b.mat"
    write_matrix(p1, m)
    write_matrix(p2, m)
    assert p1.read_bytes() == p2.read_bytes()


_SPECIAL = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e308, -1e308, 1 / 3, 1e16, 1e17]


def test_block_writers_match_per_entry_text(tmp_path):
    # more than two blocks of entries, and a count that is no multiple of _BLOCK
    rng = philox_rng(5)
    n = 2 * _BLOCK + 7
    values = rng.standard_normal(2 * n) * 10.0 ** rng.integers(-300, 300, 2 * n)
    values[: 2 * len(_SPECIAL)] = np.repeat(_SPECIAL, 2)
    values[2 * len(_SPECIAL) : 4 * len(_SPECIAL)] = np.tile(_SPECIAL, 2)
    v = values.view(np.complex128)
    write_vector(tmp_path / "v.vec", v)
    want = file_text_per_entry(["statelift/vector v1", f"dim {n}"], v)
    assert (tmp_path / "v.vec").read_bytes() == want.encode()

    m = v[: 65 * 65].reshape(65, 65)
    write_matrix(tmp_path / "m.mat", m)
    want = file_text_per_entry(["statelift/matrix v1", "dim 65"], m.reshape(-1))
    assert (tmp_path / "m.mat").read_bytes() == want.encode()

    f = product_lifting(random_density(4, seed=6), 4)
    write_lifting(tmp_path / "f.lift", f)
    want = file_text_per_entry(["statelift/lifting v1", "dims 4 4"], f.matrix.reshape(-1))
    assert (tmp_path / "f.lift").read_bytes() == want.encode()

    write_measure(tmp_path / "u.measure", values[:n])
    want = file_text_per_entry(["statelift/measure v1", f"support {n}"], values[:n])
    assert (tmp_path / "u.measure").read_bytes() == want.encode()


def test_oversized_size_field_rejected_without_allocating(tmp_path):
    # the size fields ask for 10^18 and 9*10^12 entries; the files hold one
    cases = (("lifting", "dims 1000 1000", read_lifting, 10**18),
             ("matrix", "dim 3000000", read_matrix, 9 * 10**12))
    for kind, size, reader, n in cases:
        path = tmp_path / f"big.{kind}"
        path.write_text(f"statelift/{kind} v1\n{size}\n1 0\n")
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=f"end of file, expected entry 2/{n}$"):
                reader(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_empty_entry_list_rejected_without_warning(tmp_path):
    path = tmp_path / "empty.mat"
    for body in ("", "\n\n", " \t\n\r\n"):
        path.write_text("statelift/matrix v1\ndim 2\n" + body)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(FormatError, match="end of file, expected entry 1/4$"):
                read_matrix(path)
        assert not caught


def test_read_lifting_memory(tmp_path):
    f = perturbed_product_lifting(random_density(8, seed=7), 8, 1e-3, 8)
    path = tmp_path / "f.lift"
    write_lifting(path, f)
    tracemalloc.start()
    try:
        back = read_lifting(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.matrix, f.matrix)
    assert peak < 2 * f.matrix.nbytes


# the library's reader of each kind, giving its float64 entries in file order
_READERS = {
    "matrix": read_matrix,
    "vector": read_vector,
    "lifting": lambda path: read_lifting(path).matrix,
    "reduction": lambda path: read_reduction(path).matrix,
    "measure": read_measure,
    "measure2": read_product_measure,
    "table": read_lift_table,
}
_FORMATS = ("%.17g", "%.16g", "%.15g", "%.3g", "%r", "%.20e", "%.25f")
_SPACES = (" ", "  ", "\t", " \t ", "\x0c")
_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
          2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]


def _random_doubles(rng, n):
    """n doubles from random bit patterns: about a quarter subnormal or zero
    and a sixteenth inf or nan, led by the edge cases."""
    bits = rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True)
    exponent = np.uint64(0x7FF << 52)
    pick = rng.random(n)
    bits[pick < 0.25] &= ~exponent
    bits[pick > 15 / 16] |= exponent
    values = bits.view(np.float64)
    values[: len(_EDGES)] = _EDGES[:n]
    return values


def _random_file(rng, kind, *, messy):
    """The text of a random ``kind`` file, each number in a format drawn
    from _FORMATS.  A messy file also has blank
    lines, leading, trailing and inner runs of whitespace, CRLF line ends,
    and two numbers written with an underscore."""
    name, count, size, per_line = FILE_KINDS[kind]
    fields = [int(v) for v in rng.integers(1, 4 if count == 2 else 40, count)]
    values = _random_doubles(rng, per_line * size(*fields))
    if kind == "lifting":
        # liftings hold finite entries only, also once %.3g rounds them
        values[~(np.abs(values) < 1e300)] = 0.0
    formats = rng.integers(0, len(_FORMATS), values.size)
    numbers = [_FORMATS[i] % v for i, v in zip(formats, values.tolist())]
    if messy:
        for i in rng.integers(0, len(numbers), 2):
            numbers[i] = "1_0" if rng.random() < 0.5 else "-2_5e-1_0"

    def space():
        return _SPACES[rng.integers(len(_SPACES))] if messy else " "

    lines = [f"statelift/{kind} v1", " ".join(map(str, [name, *fields]))]
    for i in range(0, len(numbers), per_line):
        line = space().join(numbers[i : i + per_line])
        if messy and rng.random() < 0.3:
            line = space() + line + space()
        lines.append(line)
        if messy and rng.random() < 0.1:
            lines.append(["", " ", "\t", "  \t "][rng.integers(4)])
    end = "\r\n" if messy and rng.random() < 0.5 else "\n"
    return end.join(lines) + end


def _read_both(path, kind):
    """The entries that the library's reader and the float() oracle read, as
    uint64 bit patterns, or the FormatError message of each."""
    outcomes = []
    for read in (_READERS[kind], lambda p: read_file_per_line(p, kind)[1]):
        try:
            outcomes.append(np.asarray(read(path)).view(np.float64).reshape(-1).view(np.uint64))
        except FormatError as exc:
            outcomes.append(str(exc))
    return outcomes


def _damaged(rng, text):
    """``text`` with one of its entry lines damaged, or a line added or cut."""
    lines = text.splitlines(keepends=True)
    i = int(rng.integers(2, len(lines)))
    how = rng.integers(6)
    if how == 0:
        lines[i] = "x " + lines[i]
    elif how == 1:
        lines[i] = lines[i].rstrip() + " 0\n"
    elif how == 2:
        lines[i] = lines[i].split()[0] + "\n" if lines[i].split() else "1 2 3\n"
    elif how == 3:
        lines[i] = lines[i].replace("e", "e+e", 1).replace(".", "..", 1)
    elif how == 4:
        del lines[i:]
    else:
        lines.append("0 0\n")
    return "".join(lines)


@pytest.mark.parametrize("kind", sorted(FILE_KINDS))
def test_reader_matches_float_oracle(tmp_path, kind):
    rng = philox_rng(91 + sorted(FILE_KINDS).index(kind))
    path = tmp_path / f"corpus.{kind}"
    for trial in range(16):
        text = _random_file(rng, kind, messy=trial % 2 == 1)
        path.write_bytes(text.encode())
        mine, oracle = _read_both(path, kind)
        assert not isinstance(oracle, str), oracle
        assert np.array_equal(mine, oracle)
        if trial % 2 == 0:
            # a tidy file holds no underscore, so the oracle reads each
            # number as float() reads its text
            texts = text.split()[3 + FILE_KINDS[kind][1] :]
            assert np.array_equal(oracle, np.array([float(t) for t in texts]).view(np.uint64))
        for _ in range(4):
            path.write_bytes(_damaged(rng, text).encode())
            mine, oracle = _read_both(path, kind)
            assert isinstance(mine, str) == isinstance(oracle, str)
            assert np.array_equal(mine, oracle) if isinstance(mine, np.ndarray) else mine == oracle
