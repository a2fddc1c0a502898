"""Brute-force trace oracle: the explicit Hecke-algebra action on tensor superspace.

Basis vectors of V^(tensor n) are index tuples (i_1..i_n) with entries in the
color-major global layout of a :class:`HookProfile`; a sparse vector is a
dict from tuples to polynomial coefficients.  Operators are applied lazily to
one basis vector at a time and never materialised as matrices: traces only
need per-column results and columns are independent.

The classical (q = 1) oracle is a separate tiny code path acting by signed
permutations and root-of-unity scalings, deliberately independent of the
T-operator path so that cross-checks between the two have teeth.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from superfrob.combinat import Multipartition, WreathElement
from superfrob.exact import CyclotomicNumber, Poly
from superfrob.symfunc import BlockVariables

TensorVector = dict[tuple[int, ...], Poly]

OperatorAtom = tuple
OperatorWord = tuple[OperatorAtom, ...]


class TensorContext:
    """Precomputed per-profile data for operator application."""

    def __init__(self, block: BlockVariables, n: int):
        self.block = block
        self.profile = block.profile
        self.n = n
        self.registry = block.registry
        size = self.profile.k + self.profile.l
        self.size = size
        self.parity = [0] + [self.profile.parity_of(i) for i in range(1, size + 1)]
        self.color = [0] + [self.profile.color_of(i) for i in range(1, size + 1)]
        self.diag = [None] + [block.diagonal_weight(i) for i in range(1, size + 1)]
        self.one = Poly.one(self.registry)
        self.q = block.q
        self.q_inv = block.q_inv
        self.q_minus_q_inv = block.q_minus_q_inv
        self.Q = [None] + [block.Q(i) for i in range(1, self.profile.m + 1)]
        self._Q_powers: dict[tuple[int, int], Poly] = {}
        # equal-index action of T_a per parity (q even, -q^-1 odd), checked once
        # against the unsimplified three-case formula: q and q^-1 are fixed here
        self.t_diagonal = (self.q, -self.q_inv)
        half = Fraction(1, 2)
        for parity, sign in ((0, 1), (1, -1)):
            unsimplified = half * self.q_minus_q_inv + (sign * half) * (self.q + self.q_inv)
            if unsimplified != self.t_diagonal[parity]:
                raise ArithmeticError(
                    "diagonal T action disagrees with the three-case formula"
                )

    def Q_power(self, color: int, power: int) -> Poly:
        """Q_color^power, computed on first use and then read from a table."""
        key = (color, power)
        value = self._Q_powers.get(key)
        if value is None:
            value = self._Q_powers[key] = self.Q[color] ** power
        return value

    def basis(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(range(1, self.size + 1), repeat=self.n)

    def basis_vector(self, tup: Sequence[int]) -> TensorVector:
        return {tuple(tup): self.one}


def _accumulate(acc: TensorVector, key: tuple[int, ...], value: Poly):
    current = acc.get(key)
    total = value if current is None else current + value
    if total.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = total


def vec_add(a: TensorVector, b: TensorVector) -> TensorVector:
    out = dict(a)
    for key, value in b.items():
        _accumulate(out, key, value)
    return out


def vec_scale(vec: TensorVector, scale: Poly) -> TensorVector:
    out: TensorVector = {}
    for key, value in vec.items():
        product = value * scale
        if not product.is_zero():
            out[key] = product
    return out


def vec_equal(a: TensorVector, b: TensorVector) -> bool:
    if set(a) != set(b):
        return False
    return all(a[key] == b[key] for key in a)


def _phi_s_on_tuple(ctx: TensorContext, a: int, tup: tuple[int, ...]):
    """(new tuple, integer sign) for the signed place permutation at positions a-1, a."""
    left, right = tup[a - 2], tup[a - 1]
    if left == right:
        return tup, (-1 if ctx.parity[left] else 1)
    sign = -1 if ctx.parity[left] and ctx.parity[right] else 1
    swapped = tup[: a - 2] + (right, left) + tup[a:]
    return swapped, sign


def apply_phi_s(ctx: TensorContext, a: int, vec: TensorVector) -> TensorVector:
    if not 2 <= a <= ctx.n:
        raise IndexError(f"phi(s_a) index {a} out of range 2..{ctx.n}")
    out: TensorVector = {}
    for tup, coeff in vec.items():
        new, sign = _phi_s_on_tuple(ctx, a, tup)
        _accumulate(out, new, coeff if sign == 1 else -coeff)
    return out


def apply_T(ctx: TensorContext, a: int, vec: TensorVector) -> TensorVector:
    """The three-case action of T_a; equal indices collapse to q or -q^-1."""
    if not 2 <= a <= ctx.n:
        raise IndexError(f"T index {a} out of range 2..{ctx.n}")
    out: TensorVector = {}
    for tup, coeff in vec.items():
        left, right = tup[a - 2], tup[a - 1]
        if left == right:
            _accumulate(out, tup, coeff * ctx.t_diagonal[ctx.parity[left]])
        elif left < right:
            new, sign = _phi_s_on_tuple(ctx, a, tup)
            _accumulate(out, tup, coeff * ctx.q_minus_q_inv)
            _accumulate(out, new, coeff if sign == 1 else -coeff)
        else:
            new, sign = _phi_s_on_tuple(ctx, a, tup)
            _accumulate(out, new, coeff if sign == 1 else -coeff)
    return out


def apply_T_inv(ctx: TensorContext, a: int, vec: TensorVector) -> TensorVector:
    """T_a^-1 = T_a - (q - q^-1), from the quadratic relation."""
    out = apply_T(ctx, a, vec)
    for tup, coeff in vec.items():
        _accumulate(out, tup, -(coeff * ctx.q_minus_q_inv))
    return out


def apply_S(ctx: TensorContext, a: int, vec: TensorVector) -> TensorVector:
    """S_a acts as T_a on same-color neighbours and as phi(s_a) across colors."""
    if not 2 <= a <= ctx.n:
        raise IndexError(f"S index {a} out of range 2..{ctx.n}")
    out: TensorVector = {}
    for tup, coeff in vec.items():
        left, right = tup[a - 2], tup[a - 1]
        if ctx.color[left] == ctx.color[right]:
            for key, value in apply_T(ctx, a, {tup: coeff}).items():
                _accumulate(out, key, value)
        else:
            new, sign = _phi_s_on_tuple(ctx, a, tup)
            _accumulate(out, new, coeff if sign == 1 else -coeff)
    return out


def apply_Omega(ctx: TensorContext, j: int, power: int, vec: TensorVector) -> TensorVector:
    """Omega_j^power scales each basis tuple by Q_{c_j}^power."""
    if not 1 <= j <= ctx.n:
        raise IndexError(f"Omega index {j} out of range 1..{ctx.n}")
    if power < 0:
        raise IndexError("Omega powers must be nonnegative")
    if power == 0:
        return dict(vec)
    out: TensorVector = {}
    for tup, coeff in vec.items():
        scale = ctx.Q_power(ctx.color[tup[j - 1]], power)
        _accumulate(out, tup, coeff * scale)
    return out


def apply_T1(ctx: TensorContext, vec: TensorVector) -> TensorVector:
    """T_1 = T_2^-1 ... T_n^-1 S_n ... S_2 Omega_1, applied atomically."""
    out = apply_Omega(ctx, 1, 1, vec)
    for a in range(2, ctx.n + 1):
        out = apply_S(ctx, a, out)
    for a in range(ctx.n, 1, -1):
        out = apply_T_inv(ctx, a, out)
    return out


def _d_weighted(ctx: TensorContext, tup: tuple[int, ...], coeff: Poly) -> Poly:
    """coeff times the D eigenvalue of basis tuple tup: the product of x / -y weights."""
    for i in tup:
        coeff = coeff * ctx.diag[i]
    return coeff


def apply_D(ctx: TensorContext, vec: TensorVector) -> TensorVector:
    """Diagonal operator: tuple bi is scaled by the product of x / -y weights."""
    out: TensorVector = {}
    for tup, coeff in vec.items():
        _accumulate(out, tup, _d_weighted(ctx, tup, coeff))
    return out


def apply_atom(ctx: TensorContext, atom: OperatorAtom, vec: TensorVector) -> TensorVector:
    kind = atom[0]
    if kind == "T":
        return apply_T(ctx, atom[1], vec)
    if kind == "Tinv":
        return apply_T_inv(ctx, atom[1], vec)
    if kind == "S":
        return apply_S(ctx, atom[1], vec)
    if kind == "phis":
        return apply_phi_s(ctx, atom[1], vec)
    if kind == "omega":
        return apply_Omega(ctx, atom[1], atom[2], vec)
    if kind == "T1":
        return apply_T1(ctx, vec)
    if kind == "D":
        return apply_D(ctx, vec)
    raise ValueError(f"unknown operator atom {atom!r}")


def apply_word(ctx: TensorContext, word: Sequence[OperatorAtom], vec: TensorVector) -> TensorVector:
    """Apply a word of atoms right-to-left (the rightmost atom acts first)."""
    for atom in reversed(word):
        vec = apply_atom(ctx, atom, vec)
        if not vec:
            return vec
    return vec


def standard_word(bmu: Multipartition, n: int) -> OperatorWord:
    """Operator word of the standard element of type bmu.

    Each part p of color i occupying positions (s, s+p] contributes
    Omega_{s+p}^i T_{s+p} ... T_{s+2}; blocks are laid out left to right with
    colors ascending and parts in partition order.
    """
    if sum(sum(c) for c in bmu) != n:
        raise ValueError("multipartition size does not match n")
    word: list[OperatorAtom] = []
    offset = 0
    for color, component in enumerate(bmu, start=1):
        for part in component:
            word.append(("omega", offset + part, color))
            for a in range(offset + part, offset + 1, -1):
                word.append(("T", a))
            offset += part
    return tuple(word)


def omega_t_word(exponents: Sequence[int], n: int) -> OperatorWord:
    """The word Omega_1^{c_1} ... Omega_n^{c_n} T_n ... T_2 of the trace lemma."""
    word: list[OperatorAtom] = [
        ("omega", j, e) for j, e in enumerate(exponents, start=1) if e
    ]
    word += [("T", a) for a in range(n, 1, -1)]
    return tuple(word)


def _trace_D(ctx: TensorContext, action: Callable[[TensorVector], TensorVector]) -> Poly:
    """Trace of D composed with an operator, summed column by column.

    The D eigenvalue of a basis tuple depends only on its weight, so diagonal
    coefficients are summed per weight space, keyed by the sorted tuple (the
    weight's canonical representative), and the D weight is multiplied in once
    per weight space.  Only the column loop is shared: each caller brings its
    own action, so the T-operator oracle and the classical signed-permutation
    oracle stay independent.
    """
    by_weight: TensorVector = {}
    for tup in ctx.basis():
        coeff = action(ctx.basis_vector(tup)).get(tup)
        if coeff is not None:
            _accumulate(by_weight, tuple(sorted(tup)), coeff)
    total = Poly.zero(ctx.registry)
    for key, coeff in by_weight.items():
        total = total + _d_weighted(ctx, key, coeff)
    return total


def trace_D_word(ctx: TensorContext, word: Sequence[OperatorAtom]) -> Poly:
    """Trace of D composed with the word, summed column by column."""
    return _trace_D(ctx, lambda vec: apply_word(ctx, word, vec))


# -- classical (q = 1) oracle ---------------------------------------------------
#
# Signed permutation action of W_{m,n} with t_j scaling by the inverse root
# zeta^(-color).  The inverse is forced jointly by the zeta^(-ij) convention in
# the colored power sums and the Q_i -> zeta^i specialization labeling; with it,
# Trace(D w(bmu)) reproduces P_bmu exactly (sensitive only for m >= 3).


def classical_apply(
    ctx: TensorContext, element: WreathElement, vec: TensorVector, m: int
) -> TensorVector:
    colors, perm = element
    n = ctx.n
    out: TensorVector = {}
    for tup, coeff in vec.items():
        # permutation part: positions permute by sigma, signs from odd crossings
        permuted = [0] * n
        for src in range(n):
            permuted[perm[src]] = tup[src]
        sign = 1
        # parity of the permutation restricted to odd entries: count inversions
        odd_positions = [src for src in range(n) if ctx.parity[tup[src]]]
        for i1 in range(len(odd_positions)):
            for i2 in range(i1 + 1, len(odd_positions)):
                if perm[odd_positions[i1]] > perm[odd_positions[i2]]:
                    sign = -sign
        scale = CyclotomicNumber.from_rational(m, sign)
        for j in range(n):
            c = colors[j]
            if c:
                scale = scale * CyclotomicNumber.zeta(m, (-c * ctx.color[permuted[j]]) % m)
        _accumulate(out, tuple(permuted), coeff * scale)
    return out


def classical_trace_D(ctx: TensorContext, element: WreathElement, m: int) -> Poly:
    return _trace_D(ctx, lambda vec: classical_apply(ctx, element, vec, m))
