#!/usr/bin/env python
"""Write the constants of ``_gauss.c``'s vector ``sincos``.

The AVX-512 body of ``gauss_finish`` (``src/repro/rng/_gauss.c``)
reduces an angle by ``k pi / 2`` and then by ``j / 64``, and evaluates
``sin`` / ``cos`` of the remainder around a table entry.  Its constants
are computed here with stdlib :mod:`decimal` only (``pi`` by its
series, ``sin`` / ``cos`` by Taylor series, all at 60 digits) and
written as C99 hex floats between the two marker lines in the C file:

* ``pi / 2`` as three 33-bit pieces plus a tail: ``k * piece`` is exact
  for the quadrants ``k <= 4`` a Box-Muller angle can have;
* ``2 / pi``, rounded, to pick ``k``;
* ``sin(j / 64)`` and ``cos(j / 64)`` for ``j = -51 .. 51`` as
  ``hi + lo`` pairs, ``hi`` the nearest double and ``lo`` the nearest
  double to what is left (~106 good bits).

Usage: ``python tools/gen_sincos_table.py`` rewrites the block in
place.  The tier-1 suite (``tests/test_native_kernel.py``) renders it
afresh and requires the committed text to be identical.
"""

from __future__ import annotations

import math
import pathlib
from decimal import Decimal, localcontext

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro" / "rng" / "_gauss.c"
BEGIN = "/* BEGIN generated by tools/gen_sincos_table.py: do not edit */"
END = "/* END generated by tools/gen_sincos_table.py */"
DIGITS = 60
#: Table entries j / 64 for |j| <= J_MAX: the reduced angle is at most
#: pi / 4 < 51 / 64 (plus the rounding of k), so j = nearest(64 r) fits.
J_MAX = 51
PIECE_BITS = 33


def _pi() -> Decimal:
    """pi to the context's precision (the :mod:`decimal` docs' series)."""
    three = Decimal(3)
    last, t, total, n, na, d, da = 0, three, three, 1, 0, 0, 24
    while total != last:
        last = total
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        total += t
    return total


def _taylor(x: Decimal, first_power: int) -> Decimal:
    """sum_n (-1)^n x^(2n + p) / (2n + p)!, p = ``first_power``: sin (1)
    or cos (0) of ``x``, to the context's precision."""
    term = x if first_power else Decimal(1)
    total, power = Decimal(0), first_power
    while term:
        total += term
        term = -term * x * x / ((power + 1) * (power + 2))
        power += 2
    return total


def _split(value: Decimal) -> tuple:
    """``(hi, lo)``: the nearest double, and the nearest to the rest."""
    hi = float(value)
    return hi, float(value - Decimal(hi))


def _round_bits(value: Decimal, bits: int) -> float:
    """``value`` rounded to ``bits`` significant bits (exact in float64)."""
    exponent = math.frexp(float(value))[1]
    scaled = (value * Decimal(2) ** (bits - exponent)).to_integral_value()
    return math.ldexp(int(scaled), exponent - bits)


def render() -> str:
    """The generated block, markers included."""
    with localcontext() as context:
        context.prec = DIGITS
        half_pi = _pi() / 2
        pieces, rest = [], half_pi
        for _ in range(3):
            pieces.append(_round_bits(rest, PIECE_BITS))
            rest -= Decimal(pieces[-1])
        pieces.append(float(rest))
        two_over_pi = float(1 / half_pi)
        rows = []
        for j in range(-J_MAX, J_MAX + 1):
            x = Decimal(j) / 64
            entry = (*_split(_taylor(x, 1)), *_split(_taylor(x, 0)))
            cells = ", ".join(value.hex() for value in entry)
            rows.append(f"    {{{cells}}}, /* {j} */")
    lines = [
        BEGIN,
        "/* pi / 2 = PIO2_1 + PIO2_2 + PIO2_3 + PIO2_4: three 33-bit pieces",
        " * (k * piece is exact for k <= 4) and the tail. */",
        *(f"#define PIO2_{i} {piece.hex()}" for i, piece in enumerate(pieces, 1)),
        f"#define TWO_OVER_PI {two_over_pi.hex()}",
        f"#define SINCOS_J_MAX {J_MAX}",
        "/* {sin hi, sin lo, cos hi, cos lo} of j / 64, j = -SINCOS_J_MAX .. SINCOS_J_MAX. */",
        f"static const double SINCOS_J64[{2 * J_MAX + 1}][4] = {{",
        *rows,
        "};",
        END,
    ]
    return "\n".join(lines)


def committed(text: str) -> str:
    """The block between (and including) the markers in ``text``."""
    start, stop = text.index(BEGIN), text.index(END) + len(END)
    return text[start:stop]


def main() -> int:
    text = SOURCE.read_text()
    SOURCE.write_text(text.replace(committed(text), render()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
