import json
import math
from fractions import Fraction

import numpy as np
import pytest

from edspec import serialize
from edspec.serialize import (
    format_float,
    json_dumps,
    write_csv,
    write_matrix,
)


def test_float_format_is_fixed_width():
    assert format_float(1.0) == "1.0000000000000000e+00"
    assert format_float(-0.5) == "-5.0000000000000000e-01"
    # 17 significant digits round-trip exactly
    value = 0.1 + 0.2
    assert float(format_float(value)) == value
    with pytest.raises(ValueError):
        format_float(float("inf"))


def test_json_keys_sorted_and_typed():
    text = json_dumps({"b": 1, "a": [True, None, 2.0], "c": "x\"y"})
    assert text.index("\"a\"") < text.index("\"b\"") < text.index("\"c\"")
    assert "2.0000000000000000e+00" in text
    assert "true" in text and "null" in text
    assert "\\\"" in text


def test_json_accepts_numpy_scalars():
    text = json_dumps({"i": np.int64(3), "x": np.float64(0.5), "f": np.bool_(False)})
    assert "3" in text and "5.0000000000000000e-01" in text and "false" in text
    assert "nan" in json_dumps({"x": float("nan")})


def test_json_strings_round_trip_control_characters():
    text = "".join(map(chr, range(0x20))) + "\"\\\x7f\u00e9\u2028\U0001f600"
    raw = json_dumps({text: [text]})
    assert json.loads(raw) == {text: [text]}
    # U+0008 and U+000C take their short escapes; other controls are \u-escaped
    assert "\\b" in raw and "\\f" in raw and "\\u001f" in raw
    assert "\u00e9" in raw


def test_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    # one array per column; an integer 1 and a bool True both write 1
    for first in ([1, 1], [True, True]):
        write_csv(path, ["a", "b"], [first, [2.0, -1.0]])
        raw = path.read_bytes().decode()
        assert raw == "a,b\n1,2.0000000000000000e+00\n1,-1.0000000000000000e+00\n"
        assert "\r" not in raw


def _near_ties(offsets) -> list[float]:
    """Doubles x in [1, 2) with x * 1e16 = an integer + 1/2 + r / 2**36, one per offset r.

    x = M / 2**52 gives x * 1e16 = M * 5**16 / 2**36, so M * 5**16 = 2**35 + r
    (mod 2**36) sets the fraction; |r| = 68 lies inside the kernel's tie margin
    (9.9e-10) and |r| = 69 just outside (1.004e-9).
    """
    inverse = pow(5 ** 16, -1, 2 ** 36)
    values = [(2 ** 52 + (2 ** 35 + r) * inverse % 2 ** 36) / 2 ** 52 for r in offsets]
    for r, x in zip(offsets, values):
        scaled = Fraction(x) * 10 ** 16
        assert scaled - math.floor(scaled) == Fraction(1, 2) + Fraction(r, 2 ** 36)
    return values


def test_csv_tokens_match_format_float(tmp_path):
    ties = _near_ties([0, 1, -1, 68, -68, 69, -69, 70, -70, 2 ** 20, -2 ** 20])
    floats = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-300,
                       -1e-300, 1e300, -1e300, 1e-280, 1e280, np.finfo(float).max,
                       *ties, *(-np.array(ties)), *(np.array(ties) * 1e-10)])
    count = len(floats)
    integers = np.arange(count) * 10 ** 15 - 3 * 10 ** 16
    flags = np.arange(count) % 3 == 0
    path = tmp_path / "t.csv"
    write_csv(path, ["x", "n", "flag", "y"], [floats, integers, flags, floats[::-1]])
    lines = [f"{format_float(x)},{n},{int(flag)},{format_float(y)}"
             for x, n, flag, y in zip(floats.tolist(), integers.tolist(), flags.tolist(),
                                      floats[::-1].tolist())]
    assert path.read_bytes() == ("\n".join(["x,n,flag,y"] + lines) + "\n").encode()
    # no rows: the header line alone
    write_csv(path, ["n", "E"], [[], []])
    assert path.read_bytes() == b"n,E\n"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_csv_refuses_non_finite_floats(tmp_path, bad):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="non-finite"):
        write_csv(path, ["n", "x"], [[0, 1, 2], [1.0, bad, 2.0]])
    assert not path.exists()


def test_tables_match_the_joined_byte_strings():
    # the word tables as the bytes of %-formatted integers, joined
    ks = range(serialize._K_MIN, serialize._K_MAX + 1)
    joined = {
        "lead": b"".join(b"\0%d.%d" % divmod(i, 10) for i in range(100)),
        "digits": b"".join(b"%04d" % i for i in range(10000)),
        "last": b"".join(b"%03de" % i for i in range(1000)),
        "exponent": b"".join(text[:1] + text[1:].rjust(3, b"\0")
                             for text in (b"%+03d" % k for k in ks)),
    }
    tables = serialize._tables()
    for name, text in joined.items():
        table = getattr(tables, name)
        assert table.dtype == serialize._WORD and not table.flags.writeable
        assert table.tobytes() == text, name


def test_matrix_dump_round_trips(tmp_path):
    path = tmp_path / "m.txt"
    matrix = np.array([[1.0, -0.5], [-0.0, 3.25]])
    write_matrix(path, matrix)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "2 2"
    assert lines[1] == "1.0000000000000000e+00 -5.0000000000000000e-01"
    parsed = np.array([[float(tok) for tok in line.split(" ")] for line in lines[1:]])
    np.testing.assert_array_equal(parsed, matrix)
    np.testing.assert_array_equal(np.signbit(parsed), np.signbit(matrix))


def _reference_dump(matrix) -> bytes:
    """The dump built token by token from ``format_float``."""
    n, m = matrix.shape
    rows = [" ".join(format_float(value) for value in row)
            for row in matrix.tolist()]
    return ("\n".join([f"{n} {m}"] + rows) + "\n").encode()


@pytest.mark.parametrize("matrix", [
    np.array([[0.0, -0.0], [-0.0, 0.0]]),
    np.array([[5e-324, 1e308, -1e308], [-5e-324, -1e308, 5e-324]]),
    np.array([[0.0, -0.0, 5e-324], [-5e-324, 1e308, -1e308]]),     # 2 x 3
    np.array([[-0.0]]),                                             # 1 x 1
    np.random.default_rng(0).standard_normal((4, 4)),
], ids=["signed-zeros", "extremes", "real-2x3", "1x1", "random"])
def test_matrix_dump_bytes_match_tokens(tmp_path, matrix):
    path = tmp_path / "m.txt"
    write_matrix(path, matrix)
    assert path.read_bytes() == _reference_dump(matrix)


@pytest.mark.parametrize("bad", [
    complex(float("nan"), 0.0), complex(float("inf"), 1.0),
    complex(1.0, float("nan")), complex(0.0, -float("inf")),
])
def test_non_finite_parts_rejected(tmp_path, bad):
    # a complex matrix is refused whatever it holds, and its non-finite part
    # is refused as a real entry
    part = bad.imag if math.isfinite(bad.real) else bad.real
    with pytest.raises(ValueError):
        format_float(part)
    path = tmp_path / "m.txt"
    for matrix, entry in ((np.eye(2, dtype=complex), bad), (np.eye(2), part)):
        matrix[1, 0] = entry
        with pytest.raises(ValueError):
            write_matrix(path, matrix)
        assert not path.exists()


# complex with every imaginary part +0.0, and the same with one -0.0
_PLUS_ZERO_IMAG = np.random.default_rng(2).standard_normal((3, 4)).astype(complex)
_ONE_MINUS_ZERO_IMAG = _PLUS_ZERO_IMAG.copy()
_ONE_MINUS_ZERO_IMAG[1, 2] = complex(_ONE_MINUS_ZERO_IMAG[1, 2].real, -0.0)


@pytest.mark.parametrize("matrix", [
    np.array([[1.0 + 2.0j, -0.5], [0.0, 3.25 - 1.0j]]),
    _PLUS_ZERO_IMAG,
    _ONE_MINUS_ZERO_IMAG,
    np.zeros((serialize._BLOCK_TOKENS + 5, 1), dtype=np.complex64),
], ids=["complex", "plus-zero-imag", "one-minus-zero-imag", "complex64-past-a-block"])
def test_complex_matrix_refused(tmp_path, matrix):
    # dumps are real: a complex dtype is refused even when every imaginary part is zero
    path = tmp_path / "m.txt"
    with pytest.raises(ValueError, match="complex"):
        write_matrix(path, matrix)
    assert not path.exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_real_matrix_rejected(tmp_path, bad):
    path = tmp_path / "m.txt"
    with pytest.raises(ValueError):
        write_matrix(path, np.array([[1.0, 2.0], [bad, 3.0]]))
    assert not path.exists()


def _hard_values() -> np.ndarray:
    """Doubles that stress the dump kernel, and their negatives.

    Among them are entries the kernel leaves to ``%`` formatting: zeros,
    subnormals and magnitudes outside its range, exact decimal ties, which
    round half to even (1250000000000000.25 down to ...02e+15,
    1250000000000000.75 up to ...08e+15), and neighbours of powers of ten,
    where log10 can pick the exponent off by one.
    """
    rng = np.random.default_rng(17)
    powers = np.array([float(f"1e{p}") for p in range(-300, 301)])
    ties = [float(f"{digits}5e{p}")
            for digits, p in zip(rng.integers(10 ** 16, 10 ** 17, 4000).tolist(),
                                 rng.integers(-310, 290, 4000).tolist())]
    values = np.concatenate([
        [0.0, 5e-324, np.finfo(float).max, 1250000000000000.25, 1250000000000000.75],
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        np.ldexp(1.0, np.arange(-1000, 1001)),
        np.arange(1, 2001), 2.0 ** 53 - np.arange(1000),
        rng.integers(0, 2 ** 53, 2000).astype(float),
        ties,
    ])
    return np.concatenate([values, -values])


#: Columns of the wide test dumps, and the kernel's rows per block at that width.
_WIDE = 1000
_BLOCK_ROWS = serialize._BLOCK_TOKENS // _WIDE


def _random_bit_patterns(count: int, seed: int) -> np.ndarray:
    """``count`` finite doubles from uniform 64-bit patterns: every exponent, either sign."""
    bits = np.random.default_rng(seed).integers(0, 2 ** 64, size=count + count // 100,
                                                dtype=np.uint64)
    values = bits.view(np.float64)
    return values[np.isfinite(values)][:count]


def test_kernel_matches_format_on_hard_values(tmp_path):
    hard = _hard_values()
    # 100 000 random patterns in each wide matrix, on a row count one past a whole block
    rows = -(-(hard.size + 100_000) // (_WIDE * _BLOCK_ROWS)) * _BLOCK_ROWS + 1
    random = rows * _WIDE - hard.size
    first = np.concatenate([hard, _random_bit_patterns(random, 1)])
    second = np.concatenate([np.random.default_rng(2).permutation(hard),
                             _random_bit_patterns(random, 3)])
    path = tmp_path / "m.txt"
    for matrix in (first.reshape(rows, _WIDE), second.reshape(rows, _WIDE),
                   hard.reshape(-1, 2)):
        write_matrix(path, matrix)
        assert path.read_bytes() == _reference_dump(matrix)


@pytest.mark.parametrize("shape", [(1, 1), (1, serialize._BLOCK_TOKENS + 5),
                                   (serialize._BLOCK_TOKENS + 5, 1), (2 * _BLOCK_ROWS + 1, _WIDE)])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_kernel_matches_format_on_every_shape(tmp_path, shape, kind):
    rng = np.random.default_rng(3)
    matrix = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    # the complex kind's real and imaginary parts dump as two real matrices
    parts = [matrix, rng.standard_normal(shape)] if kind == "complex" else [matrix]
    path = tmp_path / "m.txt"
    for part in parts:
        write_matrix(path, part)
        assert path.read_bytes() == _reference_dump(part)


def test_kernel_matches_format_on_signed_zeros(tmp_path):
    # mostly zeros of either sign, with a few subnormals left to %
    rng = np.random.default_rng(5)
    parts = np.where(rng.random((2, 300, 40)) < 0.5, 0.0, -0.0)
    parts[:, ::37, ::7] = 5e-324
    path = tmp_path / "m.txt"
    for matrix in parts:
        write_matrix(path, matrix)
        assert path.read_bytes() == _reference_dump(matrix)
