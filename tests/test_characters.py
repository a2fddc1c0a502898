"""Tests for character computations and consistency checks."""

import hashlib
from fractions import Fraction

import pytest

from superfrob.combinat import (
    HookProfile,
    centralizer_order_sym,
    centralizer_order_wreath,
    compositions,
    hook_length_count,
    multipartitions,
    partitions,
    standard_multitableaux_count,
)
from superfrob.exact import CyclotomicNumber, DomainError, Poly, transport
from superfrob.characters import (
    CharacterTable,
    _table_block,
    character_degrees,
    degrees_match_counts,
    frobenius_sums,
    hecke_character_table,
    hecke_identity_violations,
    mn_character,
    mn_table,
    solve_block,
    specialize_table,
    verify_column_orthogonality,
    verify_orthogonality,
    wreath_character,
    wreath_character_table,
    wreath_identity_violations,
)
from superfrob.serialize import json_text, table_payload
from superfrob.symfunc import (
    BlockVariables,
    ConsistencyError,
    colored_power_sum_product,
    coordinates_on_degree,
    q_bmu,
    super_power_sum_product,
    super_schur,
)
from superfrob.tensorrep import TensorContext, standard_word, trace_D_word


def test_mn_character_examples():
    for n in range(1, 6):
        for mu in partitions(n):
            assert mn_character((n,), mu) == 1
    assert mn_character((1, 1, 1), (2, 1)) == -1
    assert mn_character((2, 1), (1, 1, 1)) == 2


def test_mn_character_dimension_column_is_hook_length_count():
    for n in range(1, 7):
        ones = (1,) * n
        for lam in partitions(n):
            assert mn_character(lam, ones) == hook_length_count(lam)


def test_mn_character_sign_column():
    # sign character: (-1)^(n - number of cycles)
    for n in range(1, 6):
        sign_label = (1,) * n
        for mu in partitions(n):
            expected = (-1) ** (n - len(mu))
            assert mn_character(sign_label, mu) == expected


def test_mn_table_orthogonality():
    for n in range(1, 6):
        parts = [p[0] for p in multipartitions(1, n)]
        table = mn_table(n)
        for r1, lam1 in enumerate(parts):
            for r2, lam2 in enumerate(parts):
                total = sum(
                    Fraction(table[r1][c] * table[r2][c], centralizer_order_sym(mu))
                    for c, mu in enumerate(parts)
                )
                assert total == (1 if r1 == r2 else 0)


def test_hecke_table_m1_n2():
    table = hecke_character_table(1, 2)
    assert table.rows == (((2,),), ((1, 1),))
    reg = table.entries[0][0].registry
    q = Poly.var(reg, "q")
    q_inv = Poly.var(reg, "q", -1)
    Q1 = Poly.var(reg, "Q1")
    # the standard element of type mu carries xi factors, hence Q_1^(number of parts);
    # at the type-A point Q_1 = 1 the classic {q, -q^-1} / {1, 1} columns appear
    assert table.entry(((2,),), ((2,),)) == q * Q1
    assert table.entry(((1, 1),), ((2,),)) == -q_inv * Q1
    assert table.entry(((2,),), ((1, 1),)) == Q1**2
    assert table.entry(((1, 1),), ((1, 1),)) == Q1**2
    at_unit = [
        [entry.substitute({"Q1": 1}) for entry in row] for row in table.entries
    ]
    assert at_unit[0] == [q, Poly.one(reg)]
    assert at_unit[1] == [-q_inv, Poly.one(reg)]


def test_hecke_table_m2_n1():
    table = hecke_character_table(2, 1)
    reg = table.entries[0][0].registry
    Q1 = Poly.var(reg, "Q1")
    Q2 = Poly.var(reg, "Q2")
    assert table.rows == (((1,), ()), ((), (1,)))
    assert table.entries[0] == [Q1, Q1**2]
    assert table.entries[1] == [Q2, Q2**2]


def test_specialized_m2_n1():
    table = specialize_table(hecke_character_table(2, 1))
    minus_one = CyclotomicNumber.from_rational(2, -1)
    one = CyclotomicNumber.from_rational(2, 1)
    assert table.entries[0] == [minus_one, one]
    assert table.entries[1] == [one, one]
    assert table.trivial_row_index == 1


def test_hecke_table_finds_trivial_row_without_specializing_the_table(monkeypatch):
    from superfrob import characters

    def refuse(table):
        raise AssertionError("whole-table specialization during the solve")

    tables = {}
    hecke_character_table.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(characters, "specialize_table", refuse)
        for m, n in [(2, 2), (3, 2)]:
            tables[m, n] = hecke_character_table(m, n)
    for (m, n), table in tables.items():
        specialized = specialize_table(table)
        assert table.trivial_row_index is not None
        one = CyclotomicNumber.from_rational(m, 1)
        assert all(v == one for v in specialized.entries[table.trivial_row_index])
        assert specialized.trivial_row_index == table.trivial_row_index


def _bump_one_entry(table: CharacterTable, row: int, col: int, by=1) -> CharacterTable:
    """A copy of the table with entry (row, col) increased by `by`."""
    entries = [list(values) for values in table.entries]
    entries[row][col] = entries[row][col] + by
    return table._replace(entries=entries)


def _frobenius_sums_per_entry(table: CharacterTable, block: BlockVariables) -> list[Poly]:
    """The Frobenius side as a sum of Poly products per column, each entry
    rebuilt in the block's registry by variable name."""
    registry = block.registry
    schur_values = [super_schur(bshape, block) for bshape in table.rows]
    sums = []
    for column in range(len(table.cols)):
        total = Poly.zero(registry)
        for row, schur in zip(table.entries, schur_values):
            entry = row[column]
            terms = {}
            for exps, coeff in entry.decoded_terms().items():
                by_name = dict(zip(entry.registry.names(), exps))
                terms[tuple(by_name.get(name, 0) for name in registry.names())] = coeff
            total = total + Poly(registry, terms) * schur
        sums.append(total)
    return sums


@pytest.mark.parametrize(
    "m,n,bk,bl",
    [
        (1, 4, (1,), (1,)),
        (2, 3, (1, 1), (1, 0)),
        (2, 2, (0, 1), (1, 1)),
        (3, 2, (1, 0, 1), (0, 1, 0)),
    ],
)
def test_frobenius_sums_equal_the_per_entry_sums(m, n, bk, bl):
    # odd variables in every profile; the table is solved on another block
    table = hecke_character_table(m, n)
    block = BlockVariables(HookProfile(bk, bl))
    q_inv = Poly.var(table.entries[0][0].registry, "q", -1)
    row, col = len(table.rows) - 1, len(table.cols) // 2
    # a column S_bl0 - S_bl1, whose shared monomials cancel
    difference = [[0] * len(table.cols) for _ in table.rows]
    difference[0][col], difference[1][col] = 1, -1
    tables = [
        table,
        _bump_one_entry(table, row, col, q_inv),
        # an entry bumped to 0, so its products leave the column's sum
        _bump_one_entry(table, 0, col, -table.entries[0][col]),
        table._replace(
            entries=[[Poly.const(q_inv.registry, v) for v in values] for values in difference]
        ),
    ]
    for candidate in tables:
        assert frobenius_sums(candidate, block) == _frobenius_sums_per_entry(candidate, block)


@pytest.mark.parametrize(
    "m,n", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2), (4, 2), (5, 1), (6, 1)]
)
def test_identity_audits_pass_and_name_a_perturbed_label(m, n):
    # each route's table satisfies the identity it was solved from on every
    # monomial row, and one wrong entry fails it at that entry's label
    hecke = hecke_character_table(m, n)
    wreath = wreath_character_table(m, n)
    assert hecke_identity_violations(hecke) == []
    assert wreath_identity_violations(wreath) == []
    row, col = len(hecke.rows) - 1, len(hecke.cols) // 2
    # the Hecke identity holds per column bmu, the wreath identity per row bl
    assert hecke_identity_violations(_bump_one_entry(hecke, row, col)) == [hecke.cols[col]]
    assert wreath_identity_violations(_bump_one_entry(wreath, row, col)) == [wreath.rows[row]]
    # the audit clears the 1/Z_bmu weights by their lcm; a perturbation of
    # exactly 1/Z_bmu, the size that clearing scales, is still named
    fraction = Fraction(1, centralizer_order_wreath(wreath.cols[col], m))
    assert wreath_identity_violations(_bump_one_entry(wreath, row, col, fraction)) == [
        wreath.rows[row]
    ]
    if m >= 3:
        # a non-rational error is named too: it reaches the zeta slots of the sums
        zeta = CyclotomicNumber.zeta(m, 1)
        assert wreath_identity_violations(_bump_one_entry(wreath, row, col, zeta)) == [
            wreath.rows[row]
        ]


@pytest.fixture
def uncached_tables():
    """Both tables uncached around the test, so that no table built on a corrupted leaf leaks."""
    hecke_character_table.cache_clear()
    wreath_character_table.cache_clear()
    yield
    hecke_character_table.cache_clear()
    wreath_character_table.cache_clear()


@pytest.mark.parametrize(
    "m,n,shape,content",
    [(1, 3, (2, 1), (1, 1, 1)), (2, 2, (2,), (1, 1)), (3, 2, (2,), (1, 1))],
)
def test_a_wrong_kostka_count_fails_audits_and_orthogonality(
    monkeypatch, uncached_tables, m, n, shape, content
):
    # K_{shape, content} lies below the diagonal of the unitriangular Kostka
    # matrix, so one more keeps every solved value an integer; |shape| = n,
    # so no other count of the table peels down to it
    from superfrob import symfunc
    from superfrob.suites import SuiteConfig, suite_orthogonality

    original = symfunc._kostka
    monkeypatch.setattr(
        symfunc, "_kostka", lambda s, c: original(s, c) + ((s, c) == (shape, content))
    )
    try:
        # both routes read the count in their basis S_bl: the wreath audit,
        # per row bl, names the rows of the dominant monomial `content`
        wreath = wreath_character_table(m, n)
        assert wreath_identity_violations(wreath) == [bl for bl in wreath.rows if content in bl]
        assert hecke_identity_violations(hecke_character_table(m, n))
        results = suite_orthogonality(SuiteConfig(m, n, (1,) * m, (0,) * m))
        failed = {r.name for r in results if not r.passed}
        # dual-path cannot see a wrong K: both routes divide by it, and
        # spec(Q) K^-1 equals conj(P) K^-1 for any K when spec(Q) = conj(P);
        # the identity audits, frobenius/main-theorem and these three still see it
        assert {"row-orthogonality", "column-orthogonality", "degree-column"} <= failed
    finally:
        original.cache_clear()


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (3, 2), (2, 3)])
def test_a_wrong_q_coefficient_fails_the_hecke_audit_at_its_column(
    monkeypatch, uncached_tables, m, n
):
    # one more q^(n-1) Q_1 at x1_1^(n-1) x1_2 in q_n^(1), a leaf that only
    # the column ((n,), (), ...) multiplies
    from superfrob import symfunc

    original = symfunc._q_leaf

    def corrupted(d, i, block):
        leaf = original(d, i, block)
        if (d, i) == (n, 1):
            (x,) = Poly.monomial(block.registry, {"x1_1": n - 1, "x1_2": 1}).terms
            (rest,) = (block.q ** (n - 1) * block.Q(1)).terms
            leaf = {**leaf, x: {**leaf[x], rest: leaf[x][rest] + 1}}
        return leaf

    monkeypatch.setattr(symfunc, "_q_leaf", corrupted)
    table = hecke_character_table(m, n)
    assert hecke_identity_violations(table) == [((n,),) + ((),) * (m - 1)]


@pytest.mark.parametrize("m,n", [(3, 2), (4, 2), (3, 3)])
def test_a_wrong_root_fails_the_wreath_audit(monkeypatch, uncached_tables, m, n):
    # the root of color 1 in each P_a^(1) written zeta^(+ij) = zeta: wrong
    # targets of the wreath solve, so the rows that read them come out wrong
    from superfrob import symfunc
    from superfrob.suites import SuiteConfig, suite_orthogonality

    clean = wreath_character_table(m, n)
    wreath_character_table.cache_clear()
    original = symfunc._power_leaf

    def corrupted(a, i, block):
        leaf = original(a, i, block)
        if i == 1:
            color_one = {
                key for p in range(1, n + 1) for key in Poly.var(block.registry, f"x1_{p}", a).terms
            }
            root = {0: CyclotomicNumber.zeta(m, 1)}
            leaf = {x: root if x in color_one else rest for x, rest in leaf.items()}
        return leaf

    monkeypatch.setattr(symfunc, "_power_leaf", corrupted)
    table = wreath_character_table(m, n)
    changed = [
        bl for bl, row, clean_row in zip(table.rows, table.entries, clean.entries) if row != clean_row
    ]
    assert changed
    assert wreath_identity_violations(table) == changed
    results = suite_orthogonality(SuiteConfig(m, n, (1,) * m, (0,) * m))
    assert "dual-path" in {r.name for r in results if not r.passed}


# the series, strip and power-sum leaves that each product multiplies on a
# full block; the table block writes its leaves from closed forms instead
LEAF_BUILDERS = {
    "q_bmu": "q_n_i",
    "super_schur": "super_schur_component",
    "colored_power_sum_product": "colored_power_sum",
}


def _break_color_symmetry(monkeypatch, name, variable):
    """Add variable^d, without its permutations, to every leaf of degree d of product `name`."""
    from superfrob import symfunc

    original = getattr(symfunc, LEAF_BUILDERS[name])

    def asymmetric(first, *rest):
        # q_n_i(n, i, block), colored_power_sum(a, i, block) or
        # super_schur_component(shape, block, color, algorithm)
        degree = first if isinstance(first, int) else sum(first)
        block = next(arg for arg in rest if isinstance(arg, BlockVariables))
        return original(first, *rest) + Poly.var(block.registry, variable, degree)

    monkeypatch.setattr(symfunc, LEAF_BUILDERS[name], asymmetric)


def _assert_certificate_rejects(monkeypatch, table, audit, labels, name, m, n):
    """`audit` names the labels of `table` whose full-block products read `name`'s broken leaves.

    The table block never calls the full-block leaf builders, so the table is
    the one built from the unbroken leaves; the identity audit rebuilds both
    sides on the full solve block, where x1_1^n (dominant) or x1_2^n (not)
    gets a coefficient that the rest of its orbit does not.
    """
    expected = table(m, n)
    for variable in ("x1_1", "x1_2"):
        table.cache_clear()
        with monkeypatch.context() as patch:
            _break_color_symmetry(patch, name, variable)
            built = table(m, n)
            assert built.entries == expected.entries
            assert audit(built) == labels(built)


def _all_columns(table):
    return list(table.cols)


def _all_rows(table):
    return list(table.rows)


def _rows_with_a_last_color(table):
    # variable^a added to every P_a^(i) is one more variable of root
    # zeta^0 = 1, so the sums read S_bl on the last color's alphabet with it
    # joined: only the rows with a nonempty last partition change
    return [bl for bl in table.rows if bl[-1]]


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (3, 2)])
def test_hecke_certificate_rejects_asymmetric_q_bmu(monkeypatch, uncached_tables, m, n):
    _assert_certificate_rejects(
        monkeypatch,
        hecke_character_table,
        hecke_identity_violations,
        _all_columns,
        "q_bmu",
        m,
        n,
    )


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (3, 2)])
def test_hecke_certificate_rejects_asymmetric_super_schur(monkeypatch, uncached_tables, m, n):
    _assert_certificate_rejects(
        monkeypatch,
        hecke_character_table,
        hecke_identity_violations,
        _all_columns,
        "super_schur",
        m,
        n,
    )


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (3, 2)])
def test_wreath_certificate_rejects_asymmetric_super_schur(monkeypatch, uncached_tables, m, n):
    _assert_certificate_rejects(
        monkeypatch,
        wreath_character_table,
        wreath_identity_violations,
        _all_rows,
        "super_schur",
        m,
        n,
    )


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (3, 2)])
def test_wreath_certificate_rejects_asymmetric_power_sums(monkeypatch, uncached_tables, m, n):
    _assert_certificate_rejects(
        monkeypatch,
        wreath_character_table,
        wreath_identity_violations,
        _rows_with_a_last_color,
        "colored_power_sum_product",
        m,
        n,
    )


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (3, 2)])
def test_hecke_table_rejects_non_integer_character_values(monkeypatch, m, n):
    # halving every q_bmu halves every character value, so some coefficient
    # of the solve is not an integer
    from superfrob import characters

    original = characters.q_bmu

    def halved(bmu, block):
        return Fraction(1, 2) * original(bmu, block)

    monkeypatch.setattr(characters, "q_bmu", halved)
    hecke_character_table.cache_clear()
    try:
        with pytest.raises(ConsistencyError, match="non-integer character value"):
            hecke_character_table(m, n)
    finally:
        hecke_character_table.cache_clear()


def _scaled_power_sums(monkeypatch, factor):
    """Every P_bmu of the wreath table multiplied by ``factor``, the table uncached."""
    from superfrob import characters

    original = characters.colored_power_sum_product

    def scaled(bmu, block):
        return factor * original(bmu, block)

    monkeypatch.setattr(characters, "colored_power_sum_product", scaled)
    wreath_character_table.cache_clear()


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2)])
def test_wreath_table_rejects_non_integer_character_values(monkeypatch, m, n):
    # halving every P_bmu halves every character value; over Q(zeta_3) too
    _scaled_power_sums(monkeypatch, Fraction(1, 2))
    try:
        with pytest.raises(ConsistencyError, match="non-integer character value"):
            wreath_character_table(m, n)
    finally:
        wreath_character_table.cache_clear()


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2)])
def test_a_doubled_wreath_table_fails_degrees_and_orthogonality(monkeypatch, m, n):
    # doubling every P_bmu doubles every value, still integral: the degree
    # column and both orthogonality audits refuse the table
    _scaled_power_sums(monkeypatch, 2)
    try:
        table = wreath_character_table(m, n)
        assert not degrees_match_counts(table)
        assert not verify_orthogonality(table).passed
        assert not verify_column_orthogonality(table).passed
    finally:
        wreath_character_table.cache_clear()


@pytest.mark.parametrize("table", [hecke_character_table, wreath_character_table])
@pytest.mark.parametrize("m,n", [(1, 3), (2, 2), (3, 2)])
def test_each_table_makes_one_exact_solve(monkeypatch, table, m, n):
    from superfrob import characters

    calls = []
    original = characters.solve_linear_exact

    def counted(A, rhs_columns):
        calls.append(len(A))
        return original(A, rhs_columns)

    monkeypatch.setattr(characters, "solve_linear_exact", counted)
    table.cache_clear()
    try:
        table(m, n)
    finally:
        table.cache_clear()
    assert calls == [len(multipartitions(m, n))]


# -- the table block's products against the all-row check ----------------------


def _color_sorted(mono, m, n):
    return sum((tuple(sorted(mono[i * n : (i + 1) * n], reverse=True)) for i in range(m)), ())


def _all_row_coordinates(f, block, n):
    """The all-row check of a full product's symmetry, a reference for the table block's reads.

    Every group of f's terms on the x variables must be a monomial of degree
    n, and every monomial row must equal the row of its per-color-sorted
    monomial; the dominant rows are then returned in multipartitions order.
    """
    m, lo = block.m, 1 + block.m  # solve-block layout: q, Q_1..Q_m, then the x variables
    monomials = compositions(n, m * n)
    grouped = {}
    for exps, coeff in f.decoded_terms().items():
        grouped.setdefault(exps[lo:], {})[exps[:lo] + (0,) * (m * n)] = coeff
    if not grouped.keys() <= set(monomials):
        raise ConsistencyError("non-homogeneous term")
    grouped = {mono: Poly(block.registry, rest) for mono, rest in grouped.items()}
    zero = Poly.zero(block.registry)
    for mono in monomials:
        if grouped.get(mono, zero) != grouped.get(_color_sorted(mono, m, n), zero):
            raise ConsistencyError(f"not symmetric within each color at {mono}")
    return [
        grouped.get(sum((part + (0,) * (n - len(part)) for part in bl), ()), zero)
        for bl in multipartitions(m, n)
    ]


@pytest.mark.parametrize("m,n", [(1, 4), (2, 3), (3, 2), (2, 2)])
def test_table_block_reads_the_certified_coordinates_of_the_full_block(m, n):
    # the pruned products hold exactly the certified dominant coordinates of the full ones
    pruned, full = _table_block(m, n), solve_block(m, n)
    for label in multipartitions(m, n):
        for product in (q_bmu, super_schur, colored_power_sum_product):
            assert coordinates_on_degree(product(label, pruned), n, pruned) == (
                _all_row_coordinates(product(label, full), full, n)
            ), (product.__name__, label)


def test_table_block_read_refuses_a_term_off_the_dominant_monomials():
    m, n = 2, 3
    block = _table_block(m, n)
    f = q_bmu(((2,), (1,)), block)
    assert len(coordinates_on_degree(f, n, block)) == len(multipartitions(m, n))
    # degree 3, but x1_2^2 is not decreasing in color 1
    stray = Poly.monomial(block.registry, {"x1_2": 2, "x2_1": 1})
    with pytest.raises(ConsistencyError, match="off-table term"):
        coordinates_on_degree(f + stray, n, block)
    with pytest.raises(ConsistencyError, match="non-homogeneous"):
        coordinates_on_degree(f + Poly.var(block.registry, "x1_1"), n, block)


def test_specialization_matches_substitution():
    for m, n in [(1, 3), (2, 3), (3, 2), (4, 1)]:
        table = hecke_character_table(m, n)
        assignment = {"q": 1}
        assignment.update({f"Q{i}": CyclotomicNumber.zeta(m, i) for i in range(1, m + 1)})
        for row, specialized_row in zip(table.entries, specialize_table(table).entries):
            for entry, value in zip(row, specialized_row):
                expected = entry.substitute(assignment).constant_value()
                assert value == CyclotomicNumber.from_rational(m, 0) + expected
                assert value.order == m


def test_specialization_rejects_block_variables():
    table = hecke_character_table(2, 1)
    reg = table.entries[0][0].registry
    stray = CharacterTable(
        m=2,
        n=1,
        rows=table.rows,
        cols=table.cols,
        entries=[[Poly.var(reg, "x1_1"), table.entries[0][1]], table.entries[1]],
        solve_profile=table.solve_profile,
        specialized=False,
        trivial_row_index=None,
    )
    with pytest.raises(DomainError):
        specialize_table(stray)


def test_specialization_rejects_a_stray_term_after_clean_entries_with_its_keys():
    # the specialiser keeps each key's zeta slot; the entry with x terms comes
    # last, after the clean entries whose (q, Q) monomials its x terms carry
    table = hecke_character_table(2, 2)
    reg = table.entries[0][0].registry
    entries = [list(row) for row in table.entries]
    entries[-1][-1] = entries[-1][0] + entries[0][0] * Poly.var(reg, "x1_1")
    stray = table._replace(entries=entries)
    with pytest.raises(DomainError, match="not in q and Q only"):
        specialize_table(stray)
    # a refused key is never kept: one specialiser refuses it every time
    from superfrob import characters

    specialize = characters._specializer(2)
    specialize(entries[0][0])
    for _ in range(2):
        with pytest.raises(DomainError, match="not in q and Q only"):
            specialize(entries[-1][-1])
    assert specialize_table(table).entries[0][0] == specialize(entries[0][0])


def test_entry_integrality():
    for m, n in [(1, 3), (2, 2), (3, 1)]:
        table = hecke_character_table(m, n)
        for row in table.entries:
            for entry in row:
                for coeff in entry.terms.values():
                    assert type(coeff) is int


def test_m1_degeneration_matches_mn():
    for n in range(1, 5):
        specialized = specialize_table(hecke_character_table(1, n))
        reference = mn_table(n)
        for r, row in enumerate(specialized.entries):
            for c, value in enumerate(row):
                assert value == reference[r][c]


def test_degree_column_is_identity_class():
    # degrees sit at the class of the identity element, all parts 1 of color m
    for m, n in [(1, 3), (2, 2), (3, 1)]:
        table = specialize_table(hecke_character_table(m, n))
        identity = ((),) * (m - 1) + ((1,) * n,)
        assert table.cols[table.identity_column_index()] == identity
        assert degrees_match_counts(table)
        for bshape, degree in zip(table.rows, character_degrees(table)):
            assert degree == standard_multitableaux_count(bshape)


def test_orthogonality_reports():
    for m, n in [(1, 3), (2, 1), (2, 2)]:
        table = specialize_table(hecke_character_table(m, n))
        report = verify_orthogonality(table)
        assert report.passed and report.pairs_checked == len(table.rows) ** 2
        report2 = verify_column_orthogonality(table)
        assert report2.passed


def _violations_in_rationals(m, labels, vectors, weights, diagonal):
    """(u, v, total) for every pair whose rationally weighted sum misses delta * diagonal."""
    violations = []
    for i, u in enumerate(vectors):
        for j, v in enumerate(vectors):
            total = CyclotomicNumber.from_rational(m, 0)
            for a, b, weight in zip(u, v, weights):
                total = total + weight * a * b.conjugate()
            if total != (diagonal[i] if i == j else 0):
                violations.append((labels[i], labels[j], total))
    return violations


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (4, 2), (5, 1), (6, 1), (8, 1), (12, 1)])
def test_orthogonality_audits_name_a_bumped_entry(m, n):
    # one wrong entry breaks row and column orthogonality, on and off the
    # diagonal; each audit names exactly the pairs that a sum in rational
    # weights 1/Z_bmu names, and reports that unscaled sum; from m = 3 on
    # phi(m) > 1 and conjugation permutes the coefficient slots, and at the
    # composite orders 6, 8 and 12 the product's 2*phi(m) - 1 slots are
    # fewer than m
    table = wreath_character_table(m, n)
    row, col = len(table.rows) - 1, len(table.cols) // 2
    bumped = _bump_one_entry(table, row, col)
    orders = [centralizer_order_wreath(bmu, m) for bmu in table.cols]
    size = len(table.rows)

    rows = verify_orthogonality(bumped)
    expected = _violations_in_rationals(
        m, table.rows, bumped.entries, [Fraction(1, z) for z in orders], [1] * size
    )
    assert rows.violations == expected and rows.pairs_checked == size**2
    assert all(table.rows[row] in pair[:2] for pair in expected)
    assert any(left != right for left, right, _ in expected)

    columns = verify_column_orthogonality(bumped)
    expected = _violations_in_rationals(
        m, table.cols, list(zip(*bumped.entries)), [1] * size, orders
    )
    assert columns.violations == expected and columns.pairs_checked == size**2
    assert all(table.cols[col] in pair[:2] for pair in expected)
    assert any(left != right for left, right, _ in expected)


def test_orthogonality_requires_specialized():
    with pytest.raises(ValueError):
        verify_orthogonality(hecke_character_table(1, 2))


def test_wreath_table_m1_matches_mn():
    for n in range(1, 5):
        table = wreath_character_table(1, n)
        reference = mn_table(n)
        for r, row in enumerate(table.entries):
            for c, value in enumerate(row):
                assert value == reference[r][c]


@pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (3, 1), (2, 3), (4, 2), (5, 2), (6, 2)])
def test_wreath_table_matches_specialized_hecke(m, n):
    via_power_sums = wreath_character_table(m, n)
    via_specialization = specialize_table(hecke_character_table(m, n))
    assert via_power_sums.rows == via_specialization.rows
    for r in range(len(via_power_sums.rows)):
        for c in range(len(via_power_sums.cols)):
            assert via_power_sums.entries[r][c] == via_specialization.entries[r][c]


@pytest.mark.parametrize("m,n", [(3, 2), (4, 2), (3, 3)])
def test_power_sums_expand_over_the_conjugated_characters(m, n):
    # with P_a^(i) = sum_j zeta^(-ij) p_a(x^(j)), P_bmu = sum_bl conj(chi^bl(bmu)) S_bl;
    # the unconjugated sum differs, so a table that keeps its solved values
    # without conjugating them fails this
    block = _table_block(m, n)
    table = wreath_character_table(m, n)

    def read(f):
        return [c.constant_value() for c in coordinates_on_degree(f, n, block)]

    schur = [read(super_schur(bl, block)) for bl in table.rows]

    def expansion(coefficients):
        # the coordinates of sum_bl coefficients[bl] S_bl
        return [sum(v * s[k] for v, s in zip(coefficients, schur)) for k in range(len(schur))]

    unconjugated = []
    for c, bmu in enumerate(table.cols):
        values = [row[c] for row in table.entries]
        power = read(colored_power_sum_product(bmu, block))
        assert power == expansion([v.conjugate() for v in values])
        unconjugated.append(power == expansion(values))
    assert not all(unconjugated)


def test_wreath_character_single_values():
    # n = 1, m = 2: value at the one-box classes matches the specialize path
    table = specialize_table(hecke_character_table(2, 1))
    for bshape in table.rows:
        for bmu in table.cols:
            assert wreath_character(bshape, bmu, 2) == table.entry(bshape, bmu)


def test_an_unknown_label_names_itself_and_the_table():
    with pytest.raises(ValueError) as raised:
        wreath_character(((1,),), ((1,), ()), 2)
    assert str(raised.value) == "((1,),) is not a row label of the (m, n) = (2, 1) table"
    with pytest.raises(ValueError) as raised:
        wreath_character(((1,), ()), ((), (), (1,)), 2)
    assert str(raised.value) == "((), (), (1,)) is not a column label of the (m, n) = (2, 1) table"


def test_wreath_degrees():
    table = wreath_character_table(2, 3)
    assert degrees_match_counts(table)


def test_wreath_entries_keep_integral_coefficients_as_ints():
    # character values lie in Z[zeta], so no denominator-1 Fraction survives the solve
    table = wreath_character_table(3, 2)
    assert {type(c) for row in table.entries for value in row for c in value.coeffs} == {int}


# sha256 of json_text(table_payload(...)) of the wreath tables, as computed
# by the Gauss-Jordan solve over Fraction coefficients that preceded the
# fraction-free one
WREATH_PAYLOAD_SHA256 = {
    (3, 2): "295a9ef8c95f1846063dcde1aa431cb57a4e9152cfaa6c77e77a63fe38487e17",
    (4, 2): "1479900afcf4f63f7f12bffba9463e477d8db74b103e87836e13e94de62c7d5e",
    (2, 3): "4152af93120250301db84c647b76d0e2d141bd31d711d0f83201ffc857319bae",
    (3, 3): "fa4dba953766176d068e2a016fb63986b90db95953a18c35cdc793d88d94087e",
    (5, 2): "5aadf38020e58cd331d771aa272adaae07cdd31178c3546707302182145fe9de",
    # taken with the all-row symmetry certificate that preceded the one-pass one
    (2, 5): "ee8b4c6d9bfd9a43f61bcde4c0ee1e421b267e682bc51314ef24b7f3a58b8840",
    # taken with the full products that preceded the pruned ones
    (3, 4): "6a3fee9bce16184f2ad6d23a80c70815d3eaab3f181cc10fa61c63a5554bf7a6",
    (4, 3): "323c1691f78278629ce363307c681353197a070cc899706785bb3a2ef47d7f98",
}


@pytest.mark.parametrize("m,n", sorted(WREATH_PAYLOAD_SHA256))
def test_wreath_table_payloads_are_pinned(m, n):
    text = json_text(table_payload(wreath_character_table(m, n)))
    assert hashlib.sha256(text.encode()).hexdigest() == WREATH_PAYLOAD_SHA256[(m, n)]


# sha256 of json_text(table_payload(...)) of the generic Hecke tables, as
# computed by the solve that carried polynomial right-hand sides through the
# elimination
HECKE_PAYLOAD_SHA256 = {
    (1, 6): "0b2354e2c79be6dc3933f7ee4842b225674c437dc6a34d22b4cd2bf1524cb2f8",
    (2, 4): "bc59d306821c6dd6d485a6ed23da440a05d54d29c60a1a8a68a7955a8b77fae6",
    (3, 3): "8cbfd0ee38df732ea1d0331fcfd95032613ca9309cb7a12a04e472669c7d261a",
    (4, 2): "a17c8ac72dc55a61307736d2181ed56b57b74fe914433869417a27f65180a6ea",
    # taken with the all-row symmetry certificate that preceded the one-pass one
    (1, 7): "e9a570a9967dd2c58acf9a6d7e4d69bccc7e69e04a481fa1ff0d7e4b05d52915",
    # taken with the full products that preceded the pruned ones
    (2, 5): "7c74888bafc8e557ec5c2777deead231708f1648d09771a06ffba94e9da4ad61",
    (3, 4): "8358194391c7492f417eaa0900a42d5e047f3b1b80413b8c4498ade5a3dfec52",
    (4, 3): "4c2dba24ade8b07d66d6ad5d82617ffba1bb991b303d7a9f65a13602fa14b749",
    (1, 8): "9c6e0646685f2de02b5e036d0ca271751b79efef9ab70795b38e00660a8fc8d7",
}


@pytest.mark.parametrize("m,n", sorted(HECKE_PAYLOAD_SHA256))
def test_hecke_table_payloads_are_pinned(m, n):
    text = json_text(table_payload(hecke_character_table(m, n)))
    assert hashlib.sha256(text.encode()).hexdigest() == HECKE_PAYLOAD_SHA256[(m, n)]


def test_king_expansion():
    # S_lam(x/y) = sum_mu Z_mu^-1 chi^lam(mu) p_mu(x/y) on a genuinely super profile
    block = BlockVariables(HookProfile((2,), (2,)))
    xs, ys = block.x_polys(1), block.y_polys(1)
    reg = block.registry
    for n in range(1, 5):
        for lam in partitions(n):
            rhs = Poly.zero(reg)
            for mu in partitions(n):
                weight = Fraction(mn_character(lam, mu), centralizer_order_sym(mu))
                rhs = rhs + weight * super_power_sum_product(mu, xs, ys, reg)
            assert super_schur((lam,), block) == rhs


def test_main_theorem_on_independent_profile_small():
    # table solved at (k_i = n, l_i = 0); identity checked at k_i = l_i = 1
    for m, n in [(1, 2), (2, 1), (2, 2)]:
        table = hecke_character_table(m, n)
        verification = BlockVariables(HookProfile((1,) * m, (1,) * m))
        ctx = TensorContext(verification, n)
        for bmu in table.cols:
            trace = trace_D_word(ctx, standard_word(bmu, n))
            total = Poly.zero(verification.registry)
            for bshape in table.rows:
                # character entries live in the solve registry; move them over
                moved = transport(table.entry(bshape, bmu), verification.registry)
                total = total + moved * super_schur(bshape, verification)
            assert trace == total


def test_super_schur_power_expansion_reconstructs():
    # S_bl(x/y) = sum_bmu Z_bmu^-1 chi^bl(bmu) P_bmu(x/y) with the solved characters
    from superfrob.combinat import centralizer_order_wreath
    from superfrob.symfunc import colored_power_sum_product

    for m, n in [(2, 2), (2, 3), (3, 2)]:
        table = wreath_character_table(m, n)
        block = BlockVariables(HookProfile((1,) * m, (1,) * m))
        power_sums = {
            bmu: colored_power_sum_product(bmu, block) for bmu in table.cols
        }
        for bshape in table.rows:
            expected = super_schur(bshape, block)
            total = Poly.zero(block.registry)
            for bmu in table.cols:
                weight = Fraction(1, centralizer_order_wreath(bmu, m))
                total = total + (weight * table.entry(bshape, bmu)) * power_sums[bmu]
            assert total == expected, (m, n, bshape)
