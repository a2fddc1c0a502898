"""Brute-force trace oracle: the explicit Hecke-algebra action on tensor superspace.

Basis vectors of V^(tensor n) are index tuples (i_1..i_n) with entries in the
color-major global layout of a :class:`HookProfile`.  Operators are applied
lazily to sparse vectors and never materialised as matrices.  A trace applies
its word once per weight space (the set of tuples with the same multiset of
indices, which every operator preserves), to the generating vector
``sum_j c^j e_j`` of the space's columns, ``c`` a formal scalar no operator
touches: by linearity the part of the image tagged ``c^j`` is column j's
image, so each image entry names its source column and no symmetry between
columns is assumed.  A trace reads only the entries that end on their own
column, so its T and S steps drop, as they make it, every entry that differs
from its column at a position no later atom of the word moves: each operator
maps a tuple only to itself or to its swap at the positions its atom moves,
so such an entry can never return.  An Omega atom at a position that no
later atom moves is not applied: on the diagonal the index there is the
column's own, so :func:`trace_D_word` scales each column's diagonal entry by
Q_{color(home[position])}^power as it reads it.  What is left of the word
is its T-part, and the context keeps each T-part's diagonal, so words that
share one run its action once (:meth:`TensorContext.traced_diagonal`).
``apply_word`` never prunes or folds; it runs each atom's kernel, checked and
built once per context (:meth:`TensorContext.kernel`).  The rows of T_1 are
built per weight space, from one tagged generating vector of the space's
distinct orderings (:meth:`TensorContext.T1_row`).

Every operator acts on the flat form of a vector: a sparse integer (or, on
the classical path, cyclotomic) combination of basis pairs (index tuple,
monomial), where the monomial is the int key of its exponent vector under the
block registry's linear codec (:meth:`VariableRegistry.encode`), the same key
under which :class:`Poly` stores its terms.  Each scalar an operator applies
is a term of a :class:`TensorContext` constant, kept encoded next to the
constant, so it acts on a pair as one int addition times an integer.
``apply_word`` takes and returns this form too, so there is no public
``{tuple: Poly}`` boundary: a ``Poly`` is formed only once per trace.

The classical (q = 1) oracle is a separate tiny code path acting by signed
permutations and root-of-unity scalings, deliberately independent of the
T-operator path so that cross-checks between the two have teeth.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial
from typing import Callable, Iterator, Sequence

from superfrob.combinat import Multipartition, WreathElement
from superfrob.exact import CyclotomicNumber, Poly
from superfrob.symfunc import BlockVariables

# flat form: (index tuple, monomial key) -> nonzero int or cyclotomic coefficient
FlatVector = dict[tuple[tuple[int, ...], int], object]
# a constant's terms as (monomial key, coefficient) pairs
EncodedTerms = tuple[tuple[int, object], ...]
Kernel = Callable[[FlatVector], FlatVector]
# per color pattern of the columns: the D-weighted sum of their diagonal entries
Diagonal = tuple[tuple[tuple[int, ...], EncodedTerms], ...]

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
        self._omega_scales: dict[int, tuple] = {}
        # the D kernel's table: each tuple's eigenvalue terms, read without a sort
        self._d_terms: dict[tuple[int, ...], EncodedTerms] = {}
        self._T1_rows: dict[tuple[int, ...], tuple] = {}
        # per atom, its checked flat kernel as apply_word runs it
        self._kernels: dict[OperatorAtom, Kernel] = {}
        self._weight_spaces: tuple | None = None
        self._tagged_spaces: tuple | None = None
        # per tag, the colors of its home column's indices, built with the homes
        self._home_colors: tuple[tuple[int, ...], ...] = ()
        # per T-part (a word without its folded Omegas), its traced diagonal
        self._diagonals: dict[OperatorWord, Diagonal] = {}
        # equal-index action of T_a per parity (q even, -q^-1 odd) and of
        # T_a^-1 (q^-1 even, -q odd), checked once against the unsimplified
        # three-case formula and T_a^-1 = T_a - (q - q^-1): q and q^-1 are fixed here
        self.t_diagonal = (self.q, -self.q_inv)
        self.t_inv_diagonal = (self.q_inv, -self.q)
        half = Fraction(1, 2)
        for parity, sign in ((0, 1), (1, -1)):
            unsimplified = half * self.q_minus_q_inv + (sign * half) * (self.q + self.q_inv)
            if unsimplified != self.t_diagonal[parity]:
                raise ArithmeticError(
                    "diagonal T action disagrees with the three-case formula"
                )
            if unsimplified - self.q_minus_q_inv != self.t_inv_diagonal[parity]:
                raise ArithmeticError(
                    "diagonal T^-1 action disagrees with T - (q - q^-1)"
                )
        # the kernels apply these encoded terms, read from the checked constants
        self.t_diagonal_terms = tuple(tuple(c.terms.items()) for c in self.t_diagonal)
        self.t_inv_diagonal_terms = tuple(tuple(c.terms.items()) for c in self.t_inv_diagonal)
        self.q_minus_q_inv_terms = tuple(self.q_minus_q_inv.terms.items())

    def omega_scales(self, power: int) -> tuple:
        """Per color c, the one encoded term (shift, scalar) of Q_c^power,
        computed once per power and then read from a table."""
        scales = self._omega_scales.get(power)
        if scales is None:
            by_color = [None]
            for color in range(1, self.profile.m + 1):
                ((shift, scalar),) = (self.Q[color] ** power).terms.items()
                by_color.append((shift, scalar))
            scales = self._omega_scales[power] = tuple(by_color)
        return scales

    def d_terms(self, tup: tuple[int, ...]) -> EncodedTerms:
        """The encoded terms of tup's D eigenvalue (the product of its x / -y
        weights), computed once per weight, under its sorted tuple, and then
        read per tuple from the D kernel's table."""
        weight = tuple(sorted(tup))
        terms = self._d_terms.get(weight)
        if terms is None:
            value = self.one
            for i in weight:
                value = value * self.diag[i]
            terms = self._d_terms[weight] = tuple(value.terms.items())
        self._d_terms[tup] = terms
        return terms

    def T1_row(self, tup: tuple[int, ...]) -> tuple:
        """The flat image of the basis pair (tup, 1) under T_1 = T_2^-1 ... T_n^-1
        S_n ... S_2 Omega_1, then read from a table.

        On a miss the rows of tup's whole weight space are built at once:
        those kernels run on the space's generating vector sum_j c^j e_j over
        its distinct orderings, c^j a tag digit that no kernel shift reaches
        (:meth:`VariableRegistry.tag_codec`), so by linearity the tag-j part
        of the image is column j's row.
        """
        row = self._T1_rows.get(tup)
        if row is None:
            shift, bias = self.registry.tag_codec()
            columns = tuple(_arrangements(sorted(tup)))
            tags = [j << shift for j in range(len(columns))]
            image = {(column, tag): 1 for column, tag in zip(columns, tags)}
            image = _Omega_kernel(self, 1, 1, image)
            for a in range(2, self.n + 1):
                image = _S_kernel(self, a, image)
            for a in range(self.n, 1, -1):
                image = _T_inv_kernel(self, a, image)
            rows: list[list] = [[] for _ in columns]
            for (image_tup, tagged), coeff in image.items():
                j = (tagged + bias) >> shift
                rows[j].append(((image_tup, tagged - tags[j]), coeff))
            for column, entries in zip(columns, rows):
                self._T1_rows[column] = tuple(entries)
            row = self._T1_rows[tup]
        return row

    def kernel(self, atom: OperatorAtom) -> Kernel:
        """The flat kernel of one atom, checked by :func:`_moves` and built on
        first use, then read from a table."""
        atom = tuple(atom)
        kernel = self._kernels.get(atom)
        if kernel is None:
            _moves(self, atom)
            kernel = self._kernels[atom] = _kernel(self, atom)
        return kernel

    def basis(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(range(1, self.size + 1), repeat=self.n)

    def weight_spaces(self) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]:
        """The basis split into weight spaces, computed once: per weight, its
        sorted tuple (the canonical representative) and its columns in basis
        order."""
        if self._weight_spaces is None:
            spaces: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
            for tup in self.basis():
                spaces.setdefault(tuple(sorted(tup)), []).append(tup)
            self._weight_spaces = tuple(
                (weight, tuple(columns)) for weight, columns in spaces.items()
            )
        return self._weight_spaces

    def tagged_spaces(self) -> tuple[tuple, tuple]:
        """The inputs of a trace, built once: the home table, which holds each
        column's tuple at its tag (its index in weight-space order), and per
        weight space its sorted tuple and its generating vector sum_j c^j e_j,
        c^j held as a tag digit above the registry's last
        (:meth:`VariableRegistry.tag_codec`)."""
        if self._tagged_spaces is None:
            shift, _ = self.registry.tag_codec()
            homes: list[tuple[int, ...]] = []
            spaces = []
            for weight, columns in self.weight_spaces():
                generating: FlatVector = {}
                for tup in columns:
                    # the monomial 1 has key 0, so the column enters with key tag << shift
                    generating[tup, len(homes) << shift] = 1
                    homes.append(tup)
                spaces.append((weight, generating))
            self._tagged_spaces = (tuple(homes), tuple(spaces))
            self._home_colors = tuple(tuple(self.color[i] for i in tup) for tup in homes)
        return self._tagged_spaces

    def traced_diagonal(self, t_part: OperatorWord) -> Diagonal:
        """The diagonal of a T-part's traced action (:func:`_diagonal`),
        computed on first use and then read from a table."""
        diagonal = self._diagonals.get(t_part)
        if diagonal is None:
            diagonal = self._diagonals[t_part] = _diagonal(
                self, _word_kernel(self, t_part)
            )
        return diagonal


def _arrangements(weight: list[int]) -> Iterator[tuple[int, ...]]:
    """The distinct orderings of a sorted list, in lexicographic order (next
    permutation: raise the last ascent, then sort the tail)."""
    items = list(weight)
    while True:
        yield tuple(items)
        i = len(items) - 2
        while i >= 0 and items[i] >= items[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(items) - 1
        while items[j] <= items[i]:
            j -= 1
        items[i], items[j] = items[j], items[i]
        items[i + 1 :] = reversed(items[i + 1 :])


def _accumulate(acc: dict, key, value):
    """acc[key] += value, dropping the entry when the sum vanishes."""
    current = acc.get(key)
    total = value if current is None else current + value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


# -- kernels: one per operator, on the flat form -----------------------------------
#
# Each kernel reads its per-call constants once, before the entry loop, and
# accumulates in place; a sum that cancels is dropped once, on return
# (:func:`_nonzero`).


def _nonzero(out: FlatVector) -> FlatVector:
    """out without the entries whose sums cancelled, rebuilt only when one did."""
    return out if all(out.values()) else {entry: value for entry, value in out.items() if value}


def _phi_s_kernel(ctx: TensorContext, a: int, vec: FlatVector) -> FlatVector:
    """The signed place permutation at positions a-1, a: a bijection on tuples,
    so no two entries meet."""
    parity = ctx.parity
    i, j = a - 2, a - 1
    out: FlatVector = {}
    for (tup, key), coeff in vec.items():
        left, right = tup[i], tup[j]
        if left == right:
            out[tup, key] = -coeff if parity[left] else coeff
        else:
            swapped = tup[:i] + (right, left) + tup[a:]
            out[swapped, key] = -coeff if parity[left] and parity[right] else coeff
    return out


def _T_kernel(
    ctx: TensorContext,
    a: int,
    vec: FlatVector,
    by_color: bool = False,
    last: tuple[bool, bool] = (False, False),
) -> FlatVector:
    """The three-case action of T_a; equal indices collapse to q or -q^-1.

    With ``by_color`` this is S_a, which acts as T_a on same-color neighbours
    and as the signed swap phi(s_a) across colors.

    Inside a trace, ``last`` flags which of positions a-1, a no later atom of
    the word moves.  An output entry whose tuple differs from its home column
    (read from its tag, :meth:`TensorContext.tagged_spaces`) at such a
    position can never reach the diagonal, so it is not emitted.
    """
    parity, color = ctx.parity, ctx.color
    diagonal, mixed = ctx.t_diagonal_terms, ctx.q_minus_q_inv_terms
    i, j = a - 2, a - 1
    last_left, last_right = last
    pruning = last_left or last_right
    if pruning:
        homes = ctx.tagged_spaces()[0]
        tag_shift, tag_bias = ctx.registry.tag_codec()
    out: FlatVector = {}
    get = out.get
    for (tup, key), coeff in vec.items():
        left, right = tup[i], tup[j]
        stays = swaps = True
        if pruning:
            home = homes[(key + tag_bias) >> tag_shift]
            if last_left:
                stays, swaps = left == home[i], right == home[i]
            if last_right:
                stays, swaps = stays and right == home[j], swaps and left == home[j]
        if left == right:
            if stays:
                for shift, scalar in diagonal[parity[left]]:
                    entry = (tup, key + shift)
                    out[entry] = get(entry, 0) + coeff * scalar
            continue
        if swaps:
            entry = (tup[:i] + (right, left) + tup[a:], key)
            out[entry] = get(entry, 0) + (-coeff if parity[left] and parity[right] else coeff)
        if stays and left < right and not (by_color and color[left] != color[right]):
            for shift, scalar in mixed:
                entry = (tup, key + shift)
                out[entry] = get(entry, 0) + coeff * scalar
    return _nonzero(out)


def _S_kernel(
    ctx: TensorContext, a: int, vec: FlatVector, last: tuple[bool, bool] = (False, False)
) -> FlatVector:
    return _T_kernel(ctx, a, vec, True, last)


def _T_inv_kernel(ctx: TensorContext, a: int, vec: FlatVector) -> FlatVector:
    """T_a^-1 = T_a - (q - q^-1) in three cases: q^-1 or -q on equal indices,
    the signed swap on an increasing pair, and the signed swap minus
    (q - q^-1) on a decreasing one."""
    parity = ctx.parity
    diagonal, mixed = ctx.t_inv_diagonal_terms, ctx.q_minus_q_inv_terms
    i, j = a - 2, a - 1
    out: FlatVector = {}
    get = out.get
    for (tup, key), coeff in vec.items():
        left, right = tup[i], tup[j]
        if left == right:
            for shift, scalar in diagonal[parity[left]]:
                entry = (tup, key + shift)
                out[entry] = get(entry, 0) + coeff * scalar
            continue
        entry = (tup[:i] + (right, left) + tup[a:], key)
        out[entry] = get(entry, 0) + (-coeff if parity[left] and parity[right] else coeff)
        if left > right:
            for shift, scalar in mixed:
                entry = (tup, key + shift)
                out[entry] = get(entry, 0) - coeff * scalar
    return _nonzero(out)


def _Omega_kernel(ctx: TensorContext, j: int, power: int, vec: FlatVector) -> FlatVector:
    """Omega_j^power scales each basis tuple by Q_{c_j}^power, a monomial, so no
    two entries meet."""
    if power == 0:
        return vec
    scales = ctx.omega_scales(power)
    color = ctx.color
    position = j - 1
    out: FlatVector = {}
    for (tup, key), coeff in vec.items():
        shift, scalar = scales[color[tup[position]]]
        out[tup, key + shift] = coeff * scalar
    return out


def _T1_kernel(ctx: TensorContext, vec: FlatVector) -> FlatVector:
    """T_1, applied atomically: each entry reads its tuple's row and shifts it."""
    rows = ctx._T1_rows
    out: FlatVector = {}
    get = out.get
    for (tup, key), coeff in vec.items():
        row = rows.get(tup)
        if row is None:
            row = ctx.T1_row(tup)
        for (image, shift), scalar in row:
            entry = (image, key + shift)
            out[entry] = get(entry, 0) + coeff * scalar
    return _nonzero(out)


def _D_kernel(ctx: TensorContext, vec: FlatVector) -> FlatVector:
    """Diagonal operator: tuple bi is scaled by the product of x / -y weights."""
    d_terms = ctx._d_terms
    out: FlatVector = {}
    get = out.get
    for (tup, key), coeff in vec.items():
        terms = d_terms.get(tup)
        if terms is None:
            terms = ctx.d_terms(tup)
        for shift, scalar in terms:
            entry = (tup, key + shift)
            out[entry] = get(entry, 0) + coeff * scalar
    return _nonzero(out)


_GENERATORS = {
    "T": ("T", _T_kernel),
    "Tinv": ("T", _T_inv_kernel),
    "S": ("S", _S_kernel),
    "phis": ("phi(s_a)", _phi_s_kernel),
}


def _moves(ctx: TensorContext, atom: OperatorAtom) -> Sequence[int]:
    """The 0-based positions an atom moves, with its indices checked: T, T^-1,
    S and phi(s_a) at a move positions a-1 and a, T_1 moves every position,
    and Omega and D move none."""
    kind = atom[0]
    if kind in _GENERATORS:
        a = atom[1]
        if not 2 <= a <= ctx.n:
            raise IndexError(f"{_GENERATORS[kind][0]} index {a} out of range 2..{ctx.n}")
        return (a - 2, a - 1)
    if kind == "omega":
        _, j, power = atom
        if not 1 <= j <= ctx.n:
            raise IndexError(f"Omega index {j} out of range 1..{ctx.n}")
        if power < 0:
            raise IndexError("Omega powers must be nonnegative")
        return ()
    if kind == "T1":
        return range(ctx.n)
    if kind == "D":
        return ()
    raise ValueError(f"unknown operator atom {atom!r}")


def _kernel(ctx: TensorContext, atom: OperatorAtom, later: set[int] | None = None) -> Kernel:
    """The flat kernel of one atom whose indices :func:`_moves` has checked.

    Inside a trace, ``later`` holds the 0-based positions that the atoms
    acting after this one move; a T or S kernel prunes at the positions it
    moves for the last time (see :func:`_T_kernel`).
    """
    kind = atom[0]
    if kind in _GENERATORS:
        kernel = _GENERATORS[kind][1]
        a = atom[1]
        if later is not None and kind in ("T", "S"):
            last = (a - 2 not in later, a - 1 not in later)
            if any(last):
                return partial(kernel, ctx, a, last=last)
        return partial(kernel, ctx, a)
    if kind == "omega":
        return partial(_Omega_kernel, ctx, atom[1], atom[2])
    if kind == "T1":
        return partial(_T1_kernel, ctx)
    return partial(_D_kernel, ctx)


def _word_kernel(ctx: TensorContext, word: Sequence[OperatorAtom]) -> Kernel:
    """The action a trace runs on tagged generating vectors, right-to-left (the
    rightmost atom acts first): each T and S step prunes at the positions that
    no atom acting after it moves (:func:`_moves`).
    """
    steps = []
    # the atoms left of an atom act after it
    later: set[int] = set()
    for atom in word:
        moved = _moves(ctx, atom)
        steps.append(_kernel(ctx, atom, later))
        later.update(moved)
    steps.reverse()

    def run(vec: FlatVector) -> FlatVector:
        for step in steps:
            if not vec:
                break
            vec = step(vec)
        return vec

    return run


def apply_word(ctx: TensorContext, word: Sequence[OperatorAtom], vec: FlatVector) -> FlatVector:
    """Apply a word of atoms to a flat vector, right-to-left (the rightmost atom
    acts first); one atom is a one-atom word, e.g. (("T", 2),).  Every atom is
    checked before any acts, and each runs its context's kept kernel
    (:meth:`TensorContext.kernel`)."""
    steps = [ctx.kernel(atom) for atom in word]
    for step in reversed(steps):
        if not vec:
            break
        vec = step(vec)
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


def _diagonal(ctx: TensorContext, action: Kernel) -> Diagonal:
    """D times the diagonal of an operator, summed per color pattern: per
    tuple of colors that some column's indices carry, the sum over those
    columns of the D eigenvalue times the column's diagonal entry.

    Column j is tagged with c^j, c held as one int digit above the registry's
    last (:meth:`VariableRegistry.tag_codec`), which no kernel shift reaches;
    j is the column's index in weight-space order, so the context's home
    table reads any entry's column from its tag.  The action runs once on
    each space's generating vector sum_j c^j e_j, built once per context
    (:meth:`TensorContext.tagged_spaces`); of its image only the entries that
    sit on their own column (tuple equal to the home of tag j) are kept,
    untagged, weighted by their tuple's D eigenvalue (read once per weight
    space: it depends only on the weight) and summed per color pattern.

    The T-operator action prunes on the way (:func:`_word_kernel`):
    a T or S step drops an output entry whose tuple differs from its home at
    a position that no later atom moves.  This is exact because every kernel
    maps a tuple only to itself or to its swap at the positions its atom
    moves, so such an entry never returns to its column; every kept column's
    diagonal entry is still computed by the same kernel arithmetic, and no
    symmetry between columns is assumed.
    """
    shift, bias = ctx.registry.tag_codec()
    homes, spaces = ctx.tagged_spaces()
    home_colors = ctx._home_colors
    patterns: dict[tuple[int, ...], dict[int, object]] = {}
    for weight, generating in spaces:
        eigenvalue = ctx.d_terms(weight)
        for (image, tagged), coeff in action(generating).items():
            j = (tagged + bias) >> shift
            if image == homes[j]:
                sums = patterns.get(home_colors[j])
                if sums is None:
                    sums = patterns[home_colors[j]] = {}
                untagged = tagged - (j << shift)
                for step, scalar in eigenvalue:
                    sums[untagged + step] = sums.get(untagged + step, 0) + coeff * scalar
    return tuple(
        (pattern, tuple((key, coeff) for key, coeff in sums.items() if coeff))
        for pattern, sums in patterns.items()
    )


def _trace_D(
    ctx: TensorContext, diagonal: Diagonal, omegas: Sequence[tuple[int, int]] = ()
) -> Poly:
    """Trace of D composed with Omegas and an operator, read on the operator's
    D-weighted diagonal (:func:`_diagonal`).

    ``omegas`` are (position, power) pairs of Omega atoms that act, in the
    word, at positions no later atom moves.  Each scales a column's diagonal
    entry by Q_{color(home[position])}^power, read from
    :meth:`TensorContext.omega_scales` at the column's color pattern.  This
    is exact.  Omega multiplies a tuple by a monomial of the index at its
    position, and no later atom changes the index there, so every image
    entry that a diagonal entry comes from already held its column's index
    at that position; moving the scale to the diagonal read changes no
    diagonal value, and the scale depends on the column only through its
    colors, so it scales each pattern's sum as it scales each of its columns.
    Omega moves no position, so it sets none of the remaining atoms' pruning
    flags, and those atoms' kernels compute every column's diagonal entry as
    they do with the Omegas in place; no symmetry between columns or weight
    spaces is assumed.

    Only this read is shared: each caller brings its own diagonal, so the
    T-operator oracle and the classical signed-permutation oracle stay
    independent.
    """
    folded = [(position, ctx.omega_scales(power)) for position, power in omegas]
    total: dict[int, object] = {}
    get = total.get
    for pattern, terms in diagonal:
        shift, scalar = 0, 1
        for position, scales in folded:
            step, factor = scales[pattern[position]]
            shift += step
            scalar *= factor
        for key, coeff in terms:
            total[key + shift] = get(key + shift, 0) + coeff * scalar
    return Poly._raw(ctx.registry, {key: coeff for key, coeff in total.items() if coeff})


def trace_D_word(ctx: TensorContext, word: Sequence[OperatorAtom]) -> Poly:
    """Trace of D composed with the word.

    Each Omega atom at a position that no later atom moves is read on the
    diagonal instead of applied (:func:`_trace_D` says why that is exact);
    its index and power are checked as :func:`apply_word` checks them.  The
    remaining atoms, in order, are the word's T-part.  The T-part runs once
    per weight space, only on the entries that can still return to their
    column, and its diagonal is kept by the context
    (:meth:`TensorContext.traced_diagonal`): Omega moves no position, so
    the T-part's kernels and pruning flags are the same in every word that
    shares it, and the kept diagonal is exactly what each such word computes.
    """
    later: set[int] = set()
    t_part: list[OperatorAtom] = []
    omegas: list[tuple[int, int]] = []
    for atom in word:
        moved = _moves(ctx, atom)
        if atom[0] == "omega" and atom[1] - 1 not in later:
            if atom[2]:
                omegas.append((atom[1] - 1, atom[2]))
            continue
        # the T-part keys the context's table, so each atom is held as a tuple
        t_part.append(tuple(atom))
        later.update(moved)
    return _trace_D(ctx, ctx.traced_diagonal(tuple(t_part)), omegas)


# -- classical (q = 1) oracle ---------------------------------------------------
#
# Signed permutation action of W_{m,n} with t_j scaling by the inverse root
# zeta^(-color).  The inverse is forced jointly by the zeta^(-ij) convention in
# the colored power sums and the Q_i -> zeta^i specialization labeling; with it,
# Trace(D w(bmu)) reproduces P_bmu exactly (sensitive only for m >= 3).


def _classical_kernel(
    ctx: TensorContext, element: WreathElement, m: int, vec: FlatVector
) -> FlatVector:
    colors, perm = element
    n = ctx.n
    out: FlatVector = {}
    for (tup, key), coeff in vec.items():
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
        power = sum(-c * ctx.color[permuted[j]] for j, c in enumerate(colors) if c)
        scale = CyclotomicNumber.zeta(m, power) * coeff
        _accumulate(out, (tuple(permuted), key), scale if sign == 1 else -scale)
    return out


def classical_trace_D(ctx: TensorContext, element: WreathElement, m: int) -> Poly:
    return _trace_D(ctx, _diagonal(ctx, partial(_classical_kernel, ctx, element, m)))
