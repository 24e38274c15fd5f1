"""Deterministic report formatting: fixed-width floats, ordered JSON, CSV.

Identical inputs must produce byte-identical files, so floats are always
rendered with 17 significant digits in scientific notation and JSON objects
are emitted with lexicographically sorted keys.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np


def format_float(value: float) -> str:
    """17 significant digits, scientific notation (round-trip exact)."""
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite float {value!r}")
    return f"{value:.16e}"


#: A JSON string, non-ASCII characters kept as they are (``json.dumps(text,
#: ensure_ascii=False)`` without building an encoder per call).
_json_string = json.JSONEncoder(ensure_ascii=False).encode


def json_dumps(obj, indent: int = 0) -> str:
    """JSON with sorted keys and fixed float formatting."""
    pad = " " * indent
    child = indent + 2
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return _json_string(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        # diagnostics of failing runs may carry inf/nan; JSON has no literal
        # for them, so they are emitted as quoted strings
        if not math.isfinite(obj):
            return json_dumps(str(float(obj)))
        return format_float(float(obj))
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            items.append(f"{' ' * child}{json_dumps(key)}: {json_dumps(obj[key], child)}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{' ' * child}{json_dumps(item, child)}" for item in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(path: Path, obj: dict) -> None:
    Path(path).write_text(json_dumps(obj) + "\n", encoding="utf-8", newline="\n")


def write_csv(path: Path, header: list[str], columns) -> None:
    """Comma-separated, header row, LF endings; one array per column.

    A float column's tokens are those of ``format_float``, formatted by
    ``_format_values``; a bool column writes 1 and 0, an integer column its
    digits.  A non-finite float raises ValueError before the file is touched.
    """
    cells = [_column_bytes(np.asarray(column)) for column in columns]
    if len(cells) != len(header) or len({len(cell) for cell in cells}) > 1:
        raise ValueError(f"{len(header)} header names need as many columns of one length")
    rows = len(cells[0]) if cells else 0
    line = np.zeros((rows, sum(cell.shape[1] + 1 for cell in cells)), dtype=np.uint8)
    end = 0
    for cell in cells:
        line[:, end:end + cell.shape[1]] = cell
        end += cell.shape[1] + 1
        line[:, end - 1] = ord(",")
    line[:, -1:] = ord("\n")
    with open(path, "wb") as out:
        out.write((",".join(header) + "\n").encode())
        out.write(line.tobytes().translate(None, b"\0"))


def _column_bytes(column: np.ndarray) -> np.ndarray:
    """The CSV cells of a 1-D column, one row of NUL-padded bytes per cell."""
    if column.dtype == bool:
        return (column + np.uint8(ord("0")))[:, None]
    if column.dtype.kind in "iu":
        # at most 20 characters: the digits of an int64 or a uint64, and a sign
        return column.astype("S20").view(np.uint8).reshape(len(column), 20)
    if column.dtype.kind == "f":
        if not np.isfinite(column).all():
            raise ValueError("cannot serialize a column with non-finite entries")
        words = _format_values(column.astype(np.float64, copy=False))
        return words.view(np.uint8).reshape(len(column), _SLOT * _WORD.itemsize)
    raise TypeError(f"cannot serialize a column of dtype {column.dtype}")


#: Words of one formatted value, 4 bytes each (little-endian uint32): the
#: sign or a pad, the leading digit, '.' and the next digit; 12 digits; 3
#: digits and 'e'; the exponent's sign, its hundreds digit or a pad, its
#: last two digits.  A positive value's sign and a 2-digit exponent's
#: hundreds are NUL pad bytes, which joining drops.
_SLOT = 6
#: One dump token and its separator: a slot, then [' ', pad, pad, pad], with
#: ' ' a pad too after a row's last token.
_TOKEN = _SLOT + 1
_WORD = np.dtype("<u4")
#: Tokens formatted per block of rows, so the work buffers stay a few MB.
_BLOCK_TOKENS = 1 << 13
#: Where the kernel proves its digits: the double-double powers of ten
#: 10**(16 - k) stay normal, and the scaling cannot overflow.
_RANGE = (1e-280, 1e280)
#: Exponents k = floor(log10 |x|) the tables cover, with a margin of one
#: for log10 rounding at the ends of ``_RANGE``.
_K_MIN, _K_MAX = -281, 281
#: A rounding fraction this close to one half is left to ``%`` formatting.
_TIE_MARGIN = 1e-9
#: Veltkamp's splitter for float64, 2**27 + 1.
_SPLIT = 134217729.0


class _Tables(NamedTuple):
    hi: np.ndarray          # 10**(16 - k) correctly rounded, by k - _K_MIN
    lo: np.ndarray          # 10**(16 - k) - hi correctly rounded
    lead: np.ndarray        # words [pad, a, '.', b] of the digits ab = 00..99
    digits: np.ndarray      # words '0000'..'9999'
    last: np.ndarray        # words '000e'..'999e'
    exponent: np.ndarray    # words [sign, hundreds or pad, tens, units], by k - _K_MIN


@functools.cache
def _tables() -> _Tables:
    """The kernel's tables, built from exact integers on the first dump or CSV.

    Python's int true division rounds correctly, so hi + lo is 10**(16 - k)
    to a relative 2**-106.
    """
    ks = np.arange(_K_MIN, _K_MAX + 1, dtype=np.int16)
    hi = np.empty(len(ks))
    lo = np.empty_like(hi)
    for i, k in enumerate(ks.tolist()):
        num, den = 10 ** max(16 - k, 0), 10 ** max(k - 16, 0)
        hi[i] = num / den
        h_num, h_den = hi[i].as_integer_ratio()
        lo[i] = (num * h_den - h_num * den) / (den * h_den)
    hi.flags.writeable = lo.flags.writeable = False
    # the word tables by digit arithmetic on small-integer arrays, so that
    # building them holds about 0.2 MB and no per-entry Python objects
    pad, point, e = np.uint8(0), np.uint8(ord(".")), np.uint8(ord("e"))
    lead = _digits(np.arange(100, dtype=np.int16), 2)
    exponent = _digits(np.abs(ks), 3)
    exponent[np.abs(ks) < 100, 0] = pad
    sign = np.where(ks < 0, np.uint8(ord("-")), np.uint8(ord("+")))
    return _Tables(hi, lo,
                   _words(pad, lead[:, 0], point, lead[:, 1]),
                   _words(*_digits(np.arange(10000, dtype=np.int16), 4).T),
                   _words(*_digits(np.arange(1000, dtype=np.int16), 3).T, e),
                   _words(sign, *exponent.T))


def _digits(values: np.ndarray, places: int) -> np.ndarray:
    """ASCII digits of small non-negative integers, zero-padded to ``places`` columns."""
    powers = 10 ** np.arange(places - 1, -1, -1, dtype=values.dtype)
    return (values[:, None] // powers % 10).astype(np.uint8) + np.uint8(ord("0"))


def _words(*columns) -> np.ndarray:
    """Read-only words of four bytes, byte n from column n (uint8 arrays or scalars)."""
    table = np.stack(np.broadcast_arrays(*columns), axis=-1).view(_WORD)[:, 0]
    table.flags.writeable = False
    return table


def _format_values(values: np.ndarray) -> np.ndarray:
    """The bytes of ``"%.16e"`` of float64 values, as ``format_float`` gives them.

    Returns the slots (see ``_SLOT``) as words of shape values.shape + (_SLOT,).

    Why the bytes are those of ``%`` formatting, which rounds the exact value
    of x to 17 significant digits, half to even: with k = floor(log10 |x|),
    the digits are D = round(|x| * 10**(16 - k)), an integer in
    [10**16, 10**17] (D = 10**17 carries into k + 1).  The product
    y = |x| * 10**(16 - k) is formed as an unevaluated sum prod + tail:
    prod = fl(|x| * hi) and its rounding error are exact (Dekker's
    two-product on Veltkamp halves), and tail adds fl(|x| * lo).  For |x| in
    ``_RANGE`` nothing overflows or underflows, so prod + tail errs against
    the exact y by at most that of hi + lo (2**-106 y), of fl(|x| * lo)
    (2**-106 y) and of the rounded tail (2**-53 |tail|, |tail| < 24): under
    1e-14 for y < 1.2e17.  Where the integer part prod + floor(tail) lies in
    [10**16, 10**17), prod >= 2**53 is an integer, so that is the integer
    part of y and tail - floor(tail) its fraction, each within 1e-14.
    A zero has the digits 0 and the exponent +00, which the tables give it
    directly.  Every other element whose digits this does not prove is
    formatted by ``%`` instead: |x| outside ``_RANGE`` (subnormals among
    them), an integer part below 10**16 or a rounded D of 10**17 or more
    (log10 off by one, or a carry), and a fraction within ``_TIE_MARGIN`` of
    one half, where an error of 1e-14 could decide the rounding (exact ties
    among them).  Elsewhere the rounding is decided correctly, so every token is
    that of ``%`` formatting, by proof or by construction.  Only IEEE
    float64 and int64 arithmetic is used (no extended precision, no fused
    multiply-add), so the bytes do not depend on the platform; ``log10``
    only picks k, and the range check catches it when it picks wrong.
    """
    tables = _tables()
    ax = np.abs(values)
    zero = ax == 0.0
    fast = (ax >= _RANGE[0]) & (ax <= _RANGE[1])
    ax = np.where(fast, ax, 1.0)
    k = np.floor(np.log10(ax)).astype(np.int64) - _K_MIN
    hi, lo = tables.hi[k], tables.lo[k]
    # Dekker's two-product: prod + err == ax * hi exactly
    prod = ax * hi
    c = _SPLIT * ax
    a_hi = c - (c - ax)
    a_lo = ax - a_hi
    c = _SPLIT * hi
    b_hi = c - (c - hi)
    b_lo = hi - b_hi
    err = ((a_hi * b_hi - prod) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    tail = err + ax * lo
    whole = np.floor(tail)
    fraction = tail - whole
    digits = prod.astype(np.int64) + whole.astype(np.int64)
    fast &= (digits >= 10 ** 16) & (np.abs(fraction - 0.5) >= _TIE_MARGIN)
    digits += fraction > 0.5
    fast &= digits < 10 ** 17
    # 10**16 stands in for the digits of the elements left to %; a zero's
    # exponent is +00, from ax = 1.0 above
    digits[~fast] = 10 ** 16
    digits[zero] = 0

    words = np.empty(values.shape + (_SLOT,), dtype=_WORD)
    lead, rest = np.divmod(digits, 10 ** 15)
    sign = np.signbit(values) * _WORD.type(ord("-"))
    np.bitwise_or(tables.lead[lead], sign, out=words[..., 0])
    upper, lower = np.divmod(rest, 10 ** 7)
    first, second = np.divmod(upper, 10 ** 4)
    third, last = np.divmod(lower, 10 ** 3)
    words[..., 1] = tables.digits[first]
    words[..., 2] = tables.digits[second]
    words[..., 3] = tables.digits[third]
    words[..., 4] = tables.last[last]
    words[..., 5] = tables.exponent[k]
    # the rest by one % on all of them, each left-justified in its slot with
    # blanks, which become pad bytes
    slow = np.flatnonzero(~(fast | zero))
    if slow.size:
        fmt = f"%-{_SLOT * _WORD.itemsize}.16e" * slow.size
        text = (fmt % tuple(values.ravel()[slow].tolist())).encode().replace(b" ", b"\0")
        words.reshape(-1, _SLOT)[slow] = np.frombuffer(text, dtype=_WORD).reshape(-1, _SLOT)
    return words


def _format_rows(rows: np.ndarray) -> bytes:
    """Dump lines of a block of rows: ' '-separated tokens, LF-ended."""
    count, m = rows.shape
    buffer = np.zeros((count, m * _TOKEN + 1), dtype=_WORD)
    tokens = buffer[:, :-1].reshape(count, m, _TOKEN)
    tokens[..., :_SLOT] = _format_values(np.asarray(rows, dtype=np.float64))
    tokens[:, :-1, -1] = ord(" ")
    buffer[:, -1] = ord("\n")
    return buffer.tobytes().translate(None, b"\0")


def write_matrix(path: Path, matrix) -> None:
    """Plain-text dense dump of a real matrix: first line 'N M', then rows of tokens.

    Tokens are those of ``format_float``, byte for byte; a complex matrix or a
    non-finite entry raises ValueError before the file is touched.  The
    tokens are formatted by ``_format_values`` a block of rows at a time.
    """
    matrix = np.asarray(matrix)
    n, m = matrix.shape
    if np.iscomplexobj(matrix):
        raise ValueError("cannot serialize a complex matrix; dumps are real")
    if not np.isfinite(matrix).all():
        raise ValueError("cannot serialize a matrix with non-finite entries")
    block = max(1, _BLOCK_TOKENS // max(m, 1))
    with open(path, "wb") as out:
        out.write(f"{n} {m}\n".encode())
        for start in range(0, n, block):
            out.write(_format_rows(matrix[start:start + block]))
