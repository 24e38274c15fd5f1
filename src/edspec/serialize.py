"""Deterministic report formatting: fixed-width floats, ordered JSON, CSV.

Identical inputs must produce byte-identical files, so floats are always
rendered with 17 significant digits in scientific notation and JSON objects
are emitted with lexicographically sorted keys.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np


def format_float(value: float) -> str:
    """17 significant digits, scientific notation (round-trip exact)."""
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite float {value!r}")
    return f"{value:.16e}"


#: Dense-dump token 're+imj': both parts as in ``format_float``, the
#: imaginary one with an explicit sign.
_COMPLEX_TOKEN = "%.16e%+.16ej"
#: The same token for an imaginary part of +0.0.
_REAL_TOKEN = "%.16e+0.0000000000000000e+00j"


def format_complex(value: complex) -> str:
    """Dense-dump token 're+imj' with fixed-width parts."""
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"cannot serialize non-finite complex {value!r}")
    return _COMPLEX_TOKEN % (value.real, value.imag)


def _escape(text: str) -> str:
    out = ["\""]
    for ch in text:
        if ch == "\"":
            out.append("\\\"")
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append("\"")
    return "".join(out)


def json_dumps(obj, indent: int = 0) -> str:
    """JSON with sorted keys and fixed float formatting."""
    pad = " " * indent
    child = indent + 2
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        # diagnostics of failing runs may carry inf/nan; JSON has no literal
        # for them, so they are emitted as quoted strings
        if not math.isfinite(obj):
            return _escape(str(float(obj)))
        return format_float(float(obj))
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            items.append(f"{' ' * child}{_escape(key)}: {json_dumps(obj[key], child)}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{' ' * child}{json_dumps(item, child)}" for item in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(path: Path, obj: dict) -> None:
    Path(path).write_text(json_dumps(obj) + "\n", encoding="utf-8", newline="\n")


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Comma-separated, header row, LF endings; floats in fixed format."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, bool):
                cells.append("1" if cell else "0")
            elif isinstance(cell, float):
                cells.append(format_float(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_matrix(path: Path, matrix) -> None:
    """Plain-text dense dump: first line 'N M', then rows of re+imj tokens.

    Tokens are those of ``format_complex``; a non-finite part anywhere
    raises ValueError before the file is touched.
    """
    matrix = np.asarray(matrix)
    n, m = matrix.shape
    if not np.isfinite(matrix).all():
        raise ValueError("cannot serialize a matrix with non-finite entries")
    # each row formatted in one operation: the real parts alone when every
    # imaginary part is +0.0 (-0.0 prints differently), else re, im, re, ...
    if np.iscomplexobj(matrix) and (matrix.imag.any() or np.signbit(matrix.imag).any()):
        parts = np.ascontiguousarray(matrix, dtype=complex).view(float).reshape(n, 2 * m)
        token = _COMPLEX_TOKEN
    else:
        parts = matrix.real
        token = _REAL_TOKEN
    row = " ".join([token] * m)
    lines = [f"{n} {m}"]
    lines.extend(row % tuple(values) for values in parts.tolist())
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
