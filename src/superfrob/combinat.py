"""Partitions, multipartitions, hook conditions, tableaux and wreath-product bookkeeping.

Partitions are tuples of weakly decreasing positive integers; a multipartition
is an m-tuple of partitions.  All enumeration orders are total, deterministic
and fixed once here: partitions in reverse-lexicographic order, compositions
with the first entry decreasing, multipartitions by size split then
componentwise.  Character-table row/column order everywhere in the package is
inherited from these choices, so they must never change.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

Partition = tuple[int, ...]
Multipartition = tuple[Partition, ...]


@lru_cache(maxsize=None)
def partitions(n: int, max_part: int | None = None) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    if max_part is None:
        max_part = n
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def compositions(n: int, length: int) -> tuple[tuple[int, ...], ...]:
    """All length-`length` vectors of nonnegative integers summing to n, first entry decreasing."""
    if length == 0:
        return ((),) if n == 0 else ()
    if length == 1:
        return ((n,),)
    out = []
    for first in range(n, -1, -1):
        for rest in compositions(n - first, length - 1):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def multipartitions(m: int, n: int) -> tuple[Multipartition, ...]:
    """All of P_{m,n}, ordered by size split then componentwise partition order."""
    if m < 1:
        raise ValueError("need at least one component")
    out = []
    for split in compositions(n, m):
        for combo in itertools.product(*(partitions(size) for size in split)):
            out.append(tuple(combo))
    return tuple(out)


def conjugate(shape: Partition) -> Partition:
    if not shape:
        return ()
    return tuple(sum(1 for p in shape if p > i) for i in range(shape[0]))


def contains(outer: Partition, inner: Partition) -> bool:
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def sub_partitions(shape: Partition) -> Iterator[Partition]:
    """All partitions mu contained in shape (the empty partition last)."""
    if not shape:
        yield ()
        return
    for first in range(shape[0], 0, -1):
        inner = tuple(min(p, first) for p in shape[1:])
        for rest in sub_partitions(inner):
            yield (first,) + rest
    yield ()


def is_hook(shape: Partition, k: int, ell: int) -> bool:
    """True iff shape fits in the (k, ell)-hook, i.e. its (k+1)-th part is at most ell."""
    if len(shape) <= k:
        return True
    return shape[k] <= ell


class _HookBlocks(NamedTuple):
    bk: tuple[int, ...]
    bl: tuple[int, ...]


class HookProfile(_HookBlocks):
    """Block sizes (k_1..k_m), (l_1..l_m) of the variable sets, with derived layout data.

    The global basis index 1..k+l runs color-major: for color i first the k_i
    even slots, then the l_i odd slots, so block i occupies (d_{i-1}, d_i]
    with d_i the running total of k_j + l_j.  An immutable record, validated
    on construction; equal profiles hash alike, so a profile can key a cache.
    """

    __slots__ = ()

    def __new__(cls, bk: tuple[int, ...], bl: tuple[int, ...]):
        if len(bk) != len(bl):
            raise ValueError("bk and bl must have one entry per color")
        if any(v < 0 for v in bk + bl):
            raise ValueError("block sizes must be nonnegative")
        if sum(bk) + sum(bl) == 0:
            raise ValueError("profile must have at least one variable")
        return super().__new__(cls, bk, bl)

    @property
    def m(self) -> int:
        return len(self.bk)

    @property
    def k(self) -> int:
        return sum(self.bk)

    @property
    def l(self) -> int:
        return sum(self.bl)

    @property
    def dims(self) -> tuple[int, ...]:
        """Running block boundaries d_i = sum_{j<=i} (k_j + l_j)."""
        out = []
        total = 0
        for ki, li in zip(self.bk, self.bl):
            total += ki + li
            out.append(total)
        return tuple(out)

    def color_of(self, index: int) -> int:
        """Color (1-based) of global basis index (1-based)."""
        for i, d in enumerate(self.dims, start=1):
            if index <= d:
                return i
        raise ValueError(f"index {index} out of range 1..{self.k + self.l}")

    def parity_of(self, index: int) -> int:
        """0 for even (x-type) indices, 1 for odd (y-type)."""
        color = self.color_of(index)
        start = self.dims[color - 1] - self.bk[color - 1] - self.bl[color - 1]
        return 0 if index - start <= self.bk[color - 1] else 1

    def symbol_of(self, index: int) -> tuple[str, int, int]:
        """('x'|'y', color, position-within-block) for a global basis index."""
        color = self.color_of(index)
        start = self.dims[color - 1] - self.bk[color - 1] - self.bl[color - 1]
        offset = index - start
        if offset <= self.bk[color - 1]:
            return ("x", color, offset)
        return ("y", color, offset - self.bk[color - 1])

    def global_index(self, kind: str, color: int, position: int) -> int:
        start = self.dims[color - 1] - self.bk[color - 1] - self.bl[color - 1]
        if kind == "x":
            return start + position
        return start + self.bk[color - 1] + position

    def weight(self, tup: Sequence[int]) -> tuple[int, ...]:
        """Multiplicity vector over global indices (an element of C(n;k|l))."""
        counts = [0] * (self.k + self.l)
        for i in tup:
            counts[i - 1] += 1
        return tuple(counts)

    def alpha_beta(self, weight: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Split a global weight vector into x-multiplicities and y-multiplicities."""
        alpha, beta = [], []
        for idx, count in enumerate(weight, start=1):
            (alpha if self.parity_of(idx) == 0 else beta).append(count)
        return tuple(alpha), tuple(beta)


def is_hook_multi(bshape: Multipartition, profile: HookProfile) -> bool:
    if len(bshape) != profile.m:
        raise ValueError("component count does not match profile")
    return all(
        is_hook(shape, profile.bk[i], profile.bl[i]) for i, shape in enumerate(bshape)
    )


# -- counting ----------------------------------------------------------------


def centralizer_order_sym(mu: Partition) -> int:
    """Z_mu = prod_j j^{m_j} m_j! over part multiplicities, in the symmetric group."""
    order = 1
    for part in set(mu):
        mult = mu.count(part)
        order *= part**mult * math.factorial(mult)
    return order


def centralizer_order_wreath(bmu: Multipartition, m: int) -> int:
    """Centralizer order of a class representative of type bmu in W_{m,n}."""
    order = 1
    for component in bmu:
        for part in set(component):
            mult = component.count(part)
            order *= (part * m) ** mult * math.factorial(mult)
    return order


def hook_length_count(shape: Partition) -> int:
    """Number of standard Young tableaux of the shape, by the hook length formula."""
    n = sum(shape)
    conj = conjugate(shape)
    count = math.factorial(n)
    for i, row in enumerate(shape):
        for j in range(row):
            hook = row - j + conj[j] - i - 1
            count //= hook
    return count


def standard_multitableaux_count(bshape: Multipartition) -> int:
    """dim S^{b-shape}: multinomial over component sizes times hook-length counts."""
    n = sum(sum(c) for c in bshape)
    count = math.factorial(n)
    for component in bshape:
        count //= math.factorial(sum(component))
    for component in bshape:
        count *= hook_length_count(component)
    return count


# -- super tableaux -----------------------------------------------------------


def super_tableaux(shape: Partition, k: int, ell: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All (k, ell)-semistandard super tableaux of a partition shape, as row tuples.

    Values 1..k stand for x_1..x_k and k+1..k+ell for y_1..y_ell.  Rows and
    columns weakly increase, no x repeats in a column and no y in a row: a
    box's least value is max(left + [left > k], above + [above <= k]).
    """
    rows: list[list[int]] = [[] for _ in shape]
    boxes = [(i, j) for i, row in enumerate(shape) for j in range(row)]

    def fill(cell: int):
        if cell == len(boxes):
            yield tuple(tuple(r) for r in rows)
            return
        i, j = boxes[cell]
        lo = 1
        if j > 0:
            left = rows[i][j - 1]
            lo = max(lo, left + (left > k))
        if i > 0:
            above = rows[i - 1][j]
            lo = max(lo, above + (above <= k))
        for v in range(lo, k + ell + 1):
            rows[i].append(v)
            yield from fill(cell + 1)
            rows[i].pop()

    yield from fill(0)


@lru_cache(maxsize=None)
def count_super_tableaux(shape: Partition, k: int, ell: int) -> int:
    return sum(1 for _ in super_tableaux(shape, k, ell))


def count_super_tableaux_multi(bshape: Multipartition, profile: HookProfile) -> int:
    total = 1
    for i, shape in enumerate(bshape):
        total *= count_super_tableaux(shape, profile.bk[i], profile.bl[i])
    return total


# -- W_{m,n} as pairs (color vector, permutation) ------------------------------
#
# Needed only for class representatives and the brute-force oracles of the
# tests, never on hot paths.  An element
# t_1^{c_1}...t_n^{c_n} sigma is stored as (c, sigma) with sigma a tuple of
# 0-based images; the product rule comes from sigma t_j sigma^{-1} = t_{sigma(j)}.


WreathElement = tuple[tuple[int, ...], tuple[int, ...]]


def wreath_identity(n: int) -> WreathElement:
    return ((0,) * n, tuple(range(n)))


def wreath_mul(m: int, a: WreathElement, b: WreathElement) -> WreathElement:
    ca, sa = a
    cb, sb = b
    moved = [0] * len(ca)
    for j, c in enumerate(cb):
        moved[sa[j]] = c
    colors = tuple((x + y) % m for x, y in zip(ca, moved))
    perm = tuple(sa[sb[i]] for i in range(len(sb)))
    return (colors, perm)


def wreath_t(n: int, j: int, power: int, m: int) -> WreathElement:
    colors = [0] * n
    colors[j - 1] = power % m
    return (tuple(colors), tuple(range(n)))


def wreath_s(n: int, a: int) -> WreathElement:
    """The transposition s_a = (a-1, a) for 2 <= a <= n."""
    perm = list(range(n))
    perm[a - 2], perm[a - 1] = perm[a - 1], perm[a - 2]
    return ((0,) * n, tuple(perm))


def standard_representative(bmu: Multipartition, m: int, n: int) -> WreathElement:
    """The class representative w(bmu), built blockwise as t_{s+a}^i s_{s+a}...s_{s+2}."""
    if sum(sum(c) for c in bmu) != n:
        raise ValueError("multipartition size does not match n")
    w = wreath_identity(n)
    offset = 0
    for color, component in enumerate(bmu, start=1):
        for part in component:
            block = wreath_t(n, offset + part, color, m)
            for a in range(offset + part, offset + 1, -1):
                block = wreath_mul(m, block, wreath_s(n, a))
            w = wreath_mul(m, w, block)
            offset += part
    return w
