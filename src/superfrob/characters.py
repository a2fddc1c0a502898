"""Character computations for S_n, H_{m,n}(q,Q) and W_{m,n}.

The Hecke table is obtained by expanding the trace identity in supersymmetric
functions on the solve profile k_i = n, l_i = 0: there every multipartition is
a hook, the super Schur functions degenerate to products of ordinary Schur
polynomials with integer monomial coordinates, and the character values drop
out of one exact linear solve.  Both sides are symmetric within each color, so
the solve keeps one row per multipartition (its dominant monomial); the matrix
is then square, a product of Kostka matrices.  Both sides are products of
leaves, each written from a closed form whose coefficients depend only on
the per-color sorted exponents, so symmetric within each color by
construction; each leaf and each partial product is kept at one dominant
monomial per orbit, and the products are multiplied there
(:func:`superfrob.symfunc._orbit_product`).  The identity audits rebuild
both sides on full blocks by the series and strip paths, which checks the
closed forms.
Specializing q -> 1, Q_i -> zeta^i turns the result into the character table
of the wreath product W_{m,n}.

The same wreath table is recomputed independently by expanding the colored
power sums over the super Schur functions; agreement of the two routes is one
of the package's cross-checks.  Both routes read their products on the
dominant monomials alone and solve against the same integer matrix in one
exact elimination (:func:`_express`), which refuses a character value that is
not integral.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import NamedTuple

from superfrob.combinat import (
    HookProfile,
    Multipartition,
    Partition,
    centralizer_order_wreath,
    multipartitions,
    standard_multitableaux_count,
)
from superfrob.exact import (
    CyclotomicNumber,
    DomainError,
    Poly,
    _coefficient_vector,
    _cyclo_galois,
    _cyclo_reduce,
    _product_slots,
    _product_sum,
    euler_phi,
    solve_linear_exact,
    transport,
)
from superfrob.symfunc import (
    BlockVariables,
    ConsistencyError,
    colored_power_sum_product,
    coordinates_on_degree,
    q_bmu,
    super_schur,
)

# -- Murnaghan-Nakayama --------------------------------------------------------


@lru_cache(maxsize=None)
def mn_character(lam: Partition, mu: Partition) -> int:
    """Irreducible S_n character chi^lam at cycle type mu, by border-strip recursion."""
    if sum(lam) != sum(mu):
        raise ValueError("partition sizes differ")
    if not mu:
        return 1
    strip = mu[0]
    rest = tuple(mu[1:])
    length = len(lam)
    # first-column hook lengths ("beta numbers"); strips of size `strip`
    # correspond to moves b -> b - strip landing on a free value
    beta = [lam[i] + (length - 1 - i) for i in range(length)]
    occupied = set(beta)
    total = 0
    for b in beta:
        target = b - strip
        if target < 0 or target in occupied:
            continue
        height = sum(1 for x in beta if target < x < b)
        new_beta = sorted((occupied - {b}) | {target}, reverse=True)
        new_lam = tuple(
            x - (length - 1 - i) for i, x in enumerate(new_beta)
        )
        new_lam = tuple(p for p in new_lam if p > 0)
        value = mn_character(new_lam, rest)
        total += -value if height % 2 else value
    return total


def mn_table(n: int) -> list[list[int]]:
    """Full S_n character table, rows and columns in partition order."""
    parts = [p[0] for p in multipartitions(1, n)]
    return [[mn_character(lam, mu) for mu in parts] for lam in parts]


# -- character tables -----------------------------------------------------------


class CharacterTable(NamedTuple):
    """Square table of character values, rows bl and columns bmu in canonical order.

    Generic entries are Laurent polynomials in q with coefficients polynomial
    in Q_1..Q_m; specialized entries are cyclotomic numbers.  The observed
    trivial row (all ones after specialization) is recorded because the paper
    fixes the labeling only through the super Schur functions.
    """

    m: int
    n: int
    rows: tuple[Multipartition, ...]
    cols: tuple[Multipartition, ...]
    entries: list
    solve_profile: HookProfile
    specialized: bool
    trivial_row_index: int | None

    def row_index(self, bshape: Multipartition) -> int:
        return self._label_index(self.rows, bshape, "row")

    def col_index(self, bmu: Multipartition) -> int:
        return self._label_index(self.cols, bmu, "column")

    def _label_index(self, labels: tuple, label: Multipartition, kind: str) -> int:
        try:
            return labels.index(label)
        except ValueError:
            raise ValueError(
                f"{label} is not a {kind} label of the (m, n) = ({self.m}, {self.n}) table"
            ) from None

    def entry(self, bshape: Multipartition, bmu: Multipartition):
        return self.entries[self.row_index(bshape)][self.col_index(bmu)]

    def identity_column_index(self) -> int:
        """Column of the identity element: all parts 1 in the last component."""
        identity_type = ((),) * (self.m - 1) + (((1,) * self.n) if self.n else (),)
        return self.cols.index(identity_type)


def solve_block(m: int, n: int) -> BlockVariables:
    """The solve-profile block: k_i = n, l_i = 0 for every color."""
    return BlockVariables(HookProfile((n,) * m, (0,) * m))


def _table_block(m: int, n: int) -> BlockVariables:
    """The block the tables build on: the solve profile, with dominant degree n.

    Its products of labels of size n are multiplied on orbit
    representatives, from leaves written once each from their closed forms
    (:func:`superfrob.symfunc._orbit_product`), and hold the dominant
    monomials of x-degree n alone.
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    return BlockVariables(HookProfile((n,) * m, (0,) * m), dominant_degree=n)


def _express(targets: dict, basis: dict, block: BlockVariables) -> list[list[Poly]]:
    """Each target's coefficients over the basis, from the table's one exact solve.

    ``targets`` and ``basis`` map labels to products on :func:`_table_block`,
    read on its dominant monomials (:func:`superfrob.symfunc.coordinates_on_degree`):
    int scalars for the basis, polynomials in (q, Q) for a target.  The solve
    takes one scalar right-hand side per target and (q, Q) monomial of its
    coordinates.  A target coordinate in Q(zeta_m) is split into its
    euler_phi(m) coefficients over 1, zeta_m, ..., one right-hand side each:
    the basis matrix is integral and the solve linear over Q, so each
    coefficient is solved slot by slot and the system stays over Z.  Each
    coefficient is rebuilt as a polynomial from its target's solutions.  The
    coefficients are character values, so a solved value that is not an int
    raises ConsistencyError.
    """
    n = block.dominant_degree
    columns = [
        [c.constant_value() for c in coordinates_on_degree(f, n, block)] for f in basis.values()
    ]
    coordinates = [coordinates_on_degree(f, n, block) for f in targets.values()]
    monomials = [list(dict.fromkeys(e for c in coords for e in c.terms)) for coords in coordinates]
    # the targets' coefficients: int, or Z[zeta_m] for the colored power sums at m >= 3
    m = block.m
    cyclotomic = CyclotomicNumber in {
        type(value) for coords in coordinates for c in coords for value in c.terms.values()
    }
    if cyclotomic:
        width = euler_phi(m)
        rhs = [
            column
            for coords, exps in zip(coordinates, monomials)
            for e in exps
            for column in zip(*(_coefficient_vector(c.terms.get(e, 0), m) for c in coords))
        ]
    else:
        width = 1
        rhs = [
            [c.terms.get(e, 0) for c in coords]
            for coords, exps in zip(coordinates, monomials)
            for e in exps
        ]
    solved = iter(solve_linear_exact([list(row) for row in zip(*columns)], rhs))
    labels = list(basis)
    integral = {int}.issuperset
    expressed = []
    for target, exps in zip(targets, monomials):
        parts = []
        for _ in exps:
            slots = list(islice(solved, width))
            for vector in slots:
                if not integral(map(type, vector)):
                    r = next(r for r, value in enumerate(vector) if type(value) is not int)
                    value = (
                        CyclotomicNumber._raw(m, tuple(s[r] for s in slots))
                        if cyclotomic
                        else vector[r]
                    )
                    raise ConsistencyError(
                        f"non-integer character value for {labels[r]} in the expansion of "
                        f"{target}: {value!r}"
                    )
            parts.append(
                [CyclotomicNumber._raw(m, v) for v in zip(*slots)] if cyclotomic else slots[0]
            )
        expressed.append(
            [
                Poly._raw(block.registry, {e: part[r] for e, part in zip(exps, parts) if part[r]})
                for r in range(len(basis))
            ]
        )
    return expressed


def _character_table(block: BlockVariables, entries: list, specialized: bool) -> CharacterTable:
    """The table of ``block``'s (m, n) with these entries, rows bl and columns bmu.

    The trivial row is found on specialized values; generic entries are
    specialized one at a time, leaving each row at its first value != 1.
    """
    m, n = len(block.profile.bk), block.dominant_degree
    labels = multipartitions(m, n)
    specialize = _specializer(m)
    values = entries if specialized else ((specialize(v) for v in row) for row in entries)
    one = CyclotomicNumber.from_rational(m, 1)
    return CharacterTable(
        m=m,
        n=n,
        rows=labels,
        cols=labels,
        entries=entries,
        solve_profile=block.profile,
        specialized=specialized,
        trivial_row_index=next(
            (i for i, row in enumerate(values) if all(value == one for value in row)), None
        ),
    )


@lru_cache(maxsize=None)
def hecke_character_table(m: int, n: int) -> CharacterTable:
    """Character table of H_{m,n}(q,Q) on the standard elements g(bmu).

    chi^bl(g(bmu)) is the coefficient of S_bl in q_bmu (:func:`_express`).
    Both are products of leaves, q_d^(i) and the one-color Schur factors,
    each symmetric within each color by construction; so are the full
    products, which makes the dominant rows equivalent to all monomial
    rows.  Entries are integer Laurent polynomials.
    """
    block = _table_block(m, n)
    labels = multipartitions(m, n)
    columns = _express(
        {bmu: q_bmu(bmu, block) for bmu in labels},
        {bshape: super_schur(bshape, block) for bshape in labels},
        block,
    )
    return _character_table(block, [list(row) for row in zip(*columns)], False)


def frobenius_sums(table: CharacterTable, block: BlockVariables) -> list[Poly]:
    """sum_bl chi^bl(g(bmu)) S_bl in the variables of `block`, one per column bmu.

    The right side of the Frobenius formula; generic entries are moved into
    the block's registry (:func:`superfrob.exact.transport`).  Each column's
    products are summed in one accumulator over int keys, each factor held
    to the int32 rule of a product, and a sum that cancels is dropped once.
    """
    registry = block.registry
    schur_terms = []
    for bshape in table.rows:
        schur = super_schur(bshape, block)
        schur._check_int32()
        schur_terms.append(schur.terms.items())
    sums = []
    for column in range(len(table.cols)):
        total: dict = {}
        get = total.get
        for row, right in zip(table.entries, schur_terms):
            entry = transport(row[column], registry)
            entry._check_int32()
            for k1, c1 in entry.terms.items():
                for k2, c2 in right:
                    total[k1 + k2] = get(k1 + k2, 0) + c1 * c2
        sums.append(Poly._raw(registry, {key: c for key, c in total.items() if c}))
    return sums


def hecke_identity_violations(table: CharacterTable) -> list[Multipartition]:
    """Columns bmu where q_bmu != sum_bl chi^bl(g(bmu)) S_bl on the solve block.

    Audit of :func:`hecke_character_table` against the identity it was solved
    from.  A polynomial equality holds exactly when every monomial row holds,
    so no symmetry within colors is assumed.
    """
    block = solve_block(table.m, table.n)
    return [
        bmu
        for bmu, total in zip(table.cols, frobenius_sums(table, block))
        if q_bmu(bmu, block) != total
    ]


def _specializer(m: int):
    """Entrywise q -> 1, Q_i -> zeta^i for polynomials in q and Q_1..Q_m.

    Relies on the solve-block layout q, Q_1..Q_m first: each coefficient lands
    in the slot (sum_i i * e_{Q_i}) mod m of the power of zeta it multiplies.
    Each key's slot is decoded once and kept in a dict per registry, looked
    up once per entry; a key with an exponent past Q_m is never kept, so it
    is refused in every entry that holds it.
    """
    slot_memos: dict = {}

    def specialize(entry: Poly) -> CyclotomicNumber:
        registry = entry.registry
        slot_of = slot_memos.setdefault(registry, {})
        slots = [0] * m
        for key, coeff in entry.terms.items():
            slot = slot_of.get(key)
            if slot is None:
                exps = registry.decode(key)
                if any(exps[m + 1 :]):
                    raise DomainError(f"character entry {entry!r} is not in q and Q only")
                slot = slot_of[key] = sum(i * e for i, e in enumerate(exps[1 : m + 1], 1)) % m
            slots[slot] += coeff
        return CyclotomicNumber._raw(m, _cyclo_reduce(m, slots))

    return specialize


def specialize_table(table: CharacterTable) -> CharacterTable:
    """Entrywise q -> 1, Q_i -> zeta^i: the character table of W_{m,n}.

    The trivial row was already located when the generic table was built, so
    its index carries over.
    """
    if table.specialized:
        return table
    specialize = _specializer(table.m)
    return table._replace(
        entries=[[specialize(value) for value in row] for row in table.entries], specialized=True
    )


@lru_cache(maxsize=None)
def wreath_character_table(m: int, n: int) -> CharacterTable:
    """W_{m,n} character table from the colored power sum expansion.

    P_bmu = sum_bl conj(chi^bl(bmu)) S_bl, by the orthogonality of the
    characters, with P_a^(i) = sum_j zeta^(-ij) p_a(x^(j)) as in
    :func:`superfrob.symfunc.colored_power_sum`, the conjugate of what q_a^(i)
    becomes at q = 1 and Q_j = zeta^j.  So conj(chi^bl(bmu)) is the
    coefficient of S_bl in P_bmu (:func:`_express`), solved against the same
    integer matrix of super Schur coordinates as the Hecke table, one
    Z[zeta_m] coefficient at a time.  Both sides are products of leaves,
    P_a^(i) and the one-color Schur factors, each symmetric within each color
    by construction.
    """
    block = _table_block(m, n)
    labels = multipartitions(m, n)
    columns = _express(
        {bmu: colored_power_sum_product(bmu, block) for bmu in labels},
        {bshape: super_schur(bshape, block) for bshape in labels},
        block,
    )
    entries = [
        [_as_cyclotomic(f.constant_value(), m).conjugate() for f in row] for row in zip(*columns)
    ]
    return _character_table(block, entries, True)


def wreath_identity_violations(table: CharacterTable) -> list[Multipartition]:
    """Rows bl where S_bl != sum_bmu chi^bl(bmu) Z_bmu^-1 P_bmu on the solve block.

    Audit of :func:`wreath_character_table` against the inverse of the
    expansion it was solved from (each P_bmu over the S_bl), as an exact
    polynomial equality: every monomial row is checked and no symmetry
    within colors is assumed.  Both sides are multiplied by
    ``common = lcm(Z_bmu)``, so the weights ``common // Z_bmu`` are integers.
    The sums run per monomial key on Z[zeta_m] coefficient vectors, as in
    the orthogonality audits: each key's column of weighted power-sum
    coefficients is laid out once by :func:`_product_slots`, and each row's
    sum is one :func:`_product_sum` of the row's flat coefficients with it.
    """
    m = table.m
    block = solve_block(m, table.n)
    orders = [centralizer_order_wreath(bmu, m) for bmu in table.cols]
    common = math.lcm(*orders)
    zero = (0,) * euler_phi(m)
    # per monomial key, the coefficient vector of (common // Z_bmu) P_bmu per column
    weighted: dict[int, list] = {}
    for k, (bmu, order) in enumerate(zip(table.cols, orders)):
        weight = common // order
        for key, coeff in colored_power_sum_product(bmu, block).terms.items():
            column = weighted.get(key)
            if column is None:
                column = weighted[key] = [zero] * len(orders)
            column[k] = tuple(weight * c for c in _coefficient_vector(coeff, m))
    slots = {key: _product_slots(m, column) for key, column in weighted.items()}
    violations = []
    for bshape, row in zip(table.rows, table.entries):
        flat = [c for value in row for c in _coefficient_vector(value, m)]
        expected = {
            key: _coefficient_vector(common * coeff, m)
            for key, coeff in super_schur(bshape, block).terms.items()
        }
        if not expected.keys() <= slots.keys() or any(
            _product_sum(m, flat, layout) != expected.get(key, zero)
            for key, layout in slots.items()
        ):
            violations.append(bshape)
    return violations


def _as_cyclotomic(value, m: int) -> CyclotomicNumber:
    if isinstance(value, CyclotomicNumber):
        return value
    return CyclotomicNumber.from_rational(m, value)


def wreath_character(bshape: Multipartition, bmu: Multipartition, m: int) -> CyclotomicNumber:
    n = sum(sum(c) for c in bshape)
    if sum(sum(c) for c in bmu) != n:
        raise ValueError("partition sizes differ")
    table = wreath_character_table(m, n)
    return table.entry(bshape, bmu)


# -- orthogonality audits --------------------------------------------------------


class OrthogonalityReport(NamedTuple):
    passed: bool
    pairs_checked: int
    violations: list


def _audit_pairs(
    m: int, labels, vectors, weights, diagonal, scale: int = 1
) -> OrthogonalityReport:
    """Check sum_k weights[k] * u[k] * conj(v[k]) == delta(u, v) * diagonal[u] for all pairs.

    Each v is conjugated (zeta -> zeta^(m-1)) and weighted once, and its
    column of weights[k] * conj(v[k]) is laid out once by
    :func:`_product_slots`; a pair's sum is then one :func:`_product_sum`
    of u's flat coefficients with that layout, compared exactly.  ``scale``
    is a nonzero integer the caller multiplied into the weights and the
    diagonal; a violating total is reported divided by it.
    """
    columns = [[_coefficient_vector(value, m) for value in vector] for vector in vectors]
    flats = [[c for w in column for c in w] for column in columns]
    layouts = [
        _product_slots(
            m,
            [
                tuple(weight * c for c in _cyclo_galois(m, w, m - 1))
                for w, weight in zip(column, weights)
            ],
        )
        for column in columns
    ]
    zeros = (0,) * (euler_phi(m) - 1)
    violations = []
    for i, flat in enumerate(flats):
        for j, layout in enumerate(layouts):
            total = _product_sum(m, flat, layout)
            if total != ((diagonal[i] if i == j else 0),) + zeros:
                value = CyclotomicNumber._raw(m, total)
                if scale != 1:
                    value = value * Fraction(1, scale)
                violations.append((labels[i], labels[j], value))
    return OrthogonalityReport(not violations, len(vectors) ** 2, violations)


def _centralizer_orders(table: CharacterTable) -> list[int]:
    if not table.specialized:
        raise ValueError("orthogonality is audited on the specialized table")
    return [centralizer_order_wreath(bmu, table.m) for bmu in table.cols]


def verify_orthogonality(table: CharacterTable) -> OrthogonalityReport:
    """First (row) orthogonality with weights 1/Z_bmu and conjugated second factor.

    The identity is checked multiplied by ``common = lcm(Z_bmu)``: integer
    weights ``common // Z_bmu`` and ``common`` on the diagonal.
    """
    orders = _centralizer_orders(table)
    common = math.lcm(*orders)
    return _audit_pairs(
        table.m,
        table.rows,
        table.entries,
        [common // order for order in orders],
        [common] * len(table.rows),
        scale=common,
    )


def verify_column_orthogonality(table: CharacterTable) -> OrthogonalityReport:
    """Second orthogonality: column sums equal delta times the centralizer order."""
    orders = _centralizer_orders(table)
    return _audit_pairs(
        table.m,
        table.cols,
        list(zip(*table.entries)),
        [1] * len(table.rows),
        orders,
    )


def character_degrees(table: CharacterTable) -> list:
    """The identity-column entries (character degrees once specialized)."""
    column = table.identity_column_index()
    return [row[column] for row in table.entries]


def degrees_match_counts(table: CharacterTable) -> bool:
    degrees = character_degrees(table)
    for bshape, degree in zip(table.rows, degrees):
        expected = standard_multitableaux_count(bshape)
        if degree != expected:
            return False
    return True
