"""A fixed pure-Python computation that measures how fast the host runs now.

Usage: python3 reference.py

run.py runs it in a fresh interpreter after every timed command and scales
its timings by the reference's time, so that a slow spell of a shared host
moves the program's time and the reference's together and cancels.  It uses
none of superfrob, so no change to the program can change its time.  The
work is the kind the program spends its time on: Gauss-Jordan elimination
over Fraction and products of sparse polynomials kept as dicts from exponent
tuples to Fraction coefficients.  Inputs are fixed; the exit code is 0 when
the results check out and 1 otherwise.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

ROUNDS = 3
SIZE = 20
POLY_TERMS = 60
POLY_POWER = 4
MAX_DEGREE = 12


def inverse(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(matrix)
    rows = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) < MAX_DEGREE:
                out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def one_round(rng: random.Random) -> bool:
    matrix = [[Fraction(rng.randint(-9, 9)) for _ in range(SIZE)] for _ in range(SIZE)]
    inv = inverse(matrix)
    identity = all(
        sum(matrix[i][k] * inv[k][j] for k in range(SIZE)) == (i == j)
        for i in range(SIZE)
        for j in range(SIZE)
    )
    poly = {
        (i % 3, i % 5, i % 7): Fraction(rng.randint(1, 5), rng.randint(1, 4))
        for i in range(POLY_TERMS)
    }
    power = poly
    for _ in range(POLY_POWER - 1):
        power = poly_mul(power, poly)
    # all coefficients are positive, so nothing cancels and every monomial of
    # degree below MAX_DEGREE that the product can reach is present
    return identity and bool(power) and all(c > 0 for c in power.values())


def main() -> int:
    rng = random.Random(1)
    return 0 if all([one_round(rng) for _ in range(ROUNDS)]) else 1


if __name__ == "__main__":
    sys.exit(main())
