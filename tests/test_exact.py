"""Tests for the exact arithmetic core."""

import cmath
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from superfrob import exact
from superfrob.exact import (
    CyclotomicNumber,
    DomainError,
    Poly,
    SingularMatrixError,
    StructuralError,
    Variable,
    VariableRegistry,
    Z_REGISTRY,
    cyclotomic_phi,
    euler_phi,
    solve_linear_exact,
    transport,
)

REG = VariableRegistry(
    [
        Variable("q", invertible=True),
        Variable("Q1"),
        Variable("x1"),
        Variable("x2"),
    ]
)

q = Poly.var(REG, "q")
qinv = Poly.var(REG, "q", -1)
Q1 = Poly.var(REG, "Q1")
x1 = Poly.var(REG, "x1")
x2 = Poly.var(REG, "x2")


def test_inverse_pair_cancels():
    assert q * qinv == Poly.one(REG)


def test_difference_of_squares():
    assert (q - qinv) * (q + qinv) == q**2 - qinv**2


def test_binomial_square():
    assert (x1 + x2) ** 2 == x1**2 + 2 * x1 * x2 + x2**2


def test_negative_exponent_rejected_for_plain_variable():
    with pytest.raises(DomainError):
        Poly.var(REG, "x1", -1)


def test_registry_mismatch_is_structural_error():
    other = VariableRegistry([Variable("q", invertible=True)])
    with pytest.raises(StructuralError):
        q * Poly.var(other, "q")


def test_substitute_q_to_one():
    assert (q - qinv).substitute({"q": 1}).is_zero()


def test_substitute_cyclotomic_square():
    # Q1^2 at Q1 -> zeta_4 reduces modulo Phi_4(z) = z^2 + 1 to -1
    phi4 = cyclotomic_phi(4)
    assert phi4 == Poly.monomial(Z_REGISTRY, {"z": 2}) + 1
    value = (Q1**2).substitute({"Q1": CyclotomicNumber.zeta(4)})
    assert value.constant_value() == CyclotomicNumber.from_rational(4, -1)


def test_substitute_annihilates():
    assert (x1 * x2).substitute({"x1": 0}).is_zero()


def test_substitute_zero_into_invertible_rejected():
    with pytest.raises(DomainError):
        q.substitute({"q": 0})


def test_substitute_keeps_unassigned_variables():
    f = q * x1 + Q1
    assert f.substitute({"q": 1}) == x1 + Q1


def test_cyclotomic_phi_small_orders():
    z = Poly.var(Z_REGISTRY, "z")
    assert cyclotomic_phi(1) == z - 1
    assert cyclotomic_phi(2) == z + 1
    assert cyclotomic_phi(6) == z**2 - z + 1


def test_cyclotomic_phi_against_floating_roots():
    # brute-force oracle: multiply (z - root) over primitive m-th roots of unity
    import math

    for m in range(1, 25):
        coeffs = [complex(1.0)]
        for j in range(1, m + 1):
            if math.gcd(j, m) != 1:
                continue
            root = cmath.exp(2j * cmath.pi * j / m)
            coeffs = [complex(0.0)] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= root * coeffs[i + 1]
        expected = {}
        for i, c in enumerate(coeffs):
            r = round(c.real)
            assert abs(c.imag) < 1e-6 and abs(c.real - r) < 1e-6
            if r:
                expected[(i,)] = Fraction(r)
        assert cyclotomic_phi(m).decoded_terms() == expected


def test_phi_divisor_product_identity():
    z = Poly.var(Z_REGISTRY, "z")
    for m in range(1, 61):
        product = Poly.one(Z_REGISTRY)
        for d in range(1, m + 1):
            if m % d == 0:
                product = product * cyclotomic_phi(d)
        assert product == z**m - 1


def test_phi_refuses_a_divisor_that_leaves_a_remainder(monkeypatch):
    # each division of z^m - 1 by a Phi_d is checked exact: a wrong monic
    # Phi_2 = z + 2 stops Phi_6 instead of giving a polynomial
    from superfrob import exact

    original = exact._phi_dense
    monkeypatch.setattr(exact, "_phi_dense", lambda d: (2, 1) if d == 2 else original(d))
    with pytest.raises(DomainError, match="remainder at m=6"):
        original.__wrapped__(6)


def test_solve_identity():
    rhs = [3, Fraction(-1, 2), 7]
    eye = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert solve_linear_exact(eye, [rhs]) == [rhs]


def test_solve_diagonal():
    A = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(4)]]
    sol = solve_linear_exact(A, [[3, 5]])
    assert sol == [[Fraction(3, 2), Fraction(5, 4)]]


def test_solve_singular():
    A = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
    with pytest.raises(SingularMatrixError):
        solve_linear_exact(A, [[1, 2]])


def test_solve_rejects_non_square():
    # overdetermined, underdetermined and ragged matrices are structural errors
    for A in (
        [[Fraction(1)], [Fraction(2)]],
        [[Fraction(1), Fraction(2)]],
        [[Fraction(1), Fraction(0)], [Fraction(1)]],
    ):
        with pytest.raises(StructuralError):
            solve_linear_exact(A, [[1] * len(A)])
    with pytest.raises(StructuralError):
        solve_linear_exact([[Fraction(1)]], [[1, 2]])


def test_solve_refuses_non_rational_entries():
    # entries are int or Fraction; a polynomial or a cyclotomic number is
    # refused, a rational one included, in A and in a right-hand side alike
    refused = (
        q,
        Poly.const(REG, 2),
        Poly.zero(REG),
        CyclotomicNumber.zeta(3),
        CyclotomicNumber.from_rational(1, 7),
    )
    for value in refused:
        with pytest.raises(StructuralError, match="unsupported coefficient"):
            solve_linear_exact([[Fraction(1)]], [[value]])
        with pytest.raises(StructuralError, match="unsupported coefficient"):
            solve_linear_exact([[2, 0], [0, value]], [[4, 1]])
    with pytest.raises(StructuralError, match="unsupported coefficient"):
        solve_linear_exact([[2, 0], [0, 1]], [[4, 1], [6 * q, x1]])


def test_solve_returns_ints_where_integral():
    assert solve_linear_exact([[2]], [[4]]) == [[2]]
    assert type(solve_linear_exact([[2]], [[4]])[0][0]) is int
    [[whole], [part]] = solve_linear_exact([[3]], [[6], [2]])
    assert (whole, part) == (2, Fraction(2, 3))
    assert (type(whole), type(part)) == (int, Fraction)


def test_range_digits_splits_a_contiguous_range():
    bias, shift, mask, restore = REG.range_digits(["x1", "x2"])
    key = REG.encode((-1, 2, 3, -4))
    part = ((key + bias) >> shift) & mask
    # each digit of the range, biased by 2^63
    assert part == (3 + 2**63) + ((-4 + 2**63) << 64)
    assert key + restore - (part << shift) == REG.encode((-1, 2, 0, 0))
    for names in (["x2", "x1"], ["Q1", "x2"]):
        with pytest.raises(StructuralError):
            REG.range_digits(names)


def test_constant_polys_hash_as_their_value():
    for value in (0, 3, -1, Fraction(2, 3), CyclotomicNumber.from_rational(5, 1)):
        constant = Poly.const(REG, value)
        assert constant == value and hash(constant) == hash(value)
    assert len({Poly.const(REG, 3), 3, Fraction(3)}) == 1
    assert hash(q - qinv) == hash(Poly.var(REG, "q") - Poly.var(REG, "q", -1))


def test_cyclotomic_inverse_and_conjugate():
    z = CyclotomicNumber.zeta(5)
    for power in range(5):
        v = z**power
        assert v * v.inverse() == 1
        assert v.conjugate() == z ** ((5 - power) % 5)
    # conjugation fixes rationals
    assert CyclotomicNumber.from_rational(5, Fraction(3, 7)).conjugate() == Fraction(3, 7)


def test_cyclotomic_geometric_sum():
    # 1 + zeta + ... + zeta^(m-1) = 0 for m > 1
    for m in (2, 3, 4, 6, 12):
        acc = CyclotomicNumber.from_rational(m, 0)
        for j in range(m):
            acc = acc + CyclotomicNumber.zeta(m, j)
        assert acc.is_zero()


def test_cyclotomic_cross_order_equality_is_false_but_arithmetic_raises():
    z3, z4 = CyclotomicNumber.zeta(3), CyclotomicNumber.zeta(4)
    assert not (z3 == z4)
    assert z3 != z4
    assert z3 not in [z4]
    with pytest.raises(StructuralError):
        z3 + z4
    with pytest.raises(StructuralError):
        z3 * z4
    with pytest.raises(StructuralError):
        z3 / z4
    # rational values still compare across orders
    assert CyclotomicNumber.from_rational(3, 2) == CyclotomicNumber.from_rational(4, 2)
    assert z4 * z4 == CyclotomicNumber.from_rational(3, -1)


def test_euler_phi_values():
    assert [euler_phi(m) for m in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_rejects_floats():
    with pytest.raises(StructuralError):
        CyclotomicNumber(3, [0.1, 0])
    with pytest.raises(StructuralError):
        CyclotomicNumber.from_rational(3, 0.1)


def test_cyclotomic_zeta_powers_and_exact_inverse():
    for m in range(1, 13):
        z = CyclotomicNumber.zeta(m, 1)
        for k in range(-m, 2 * m):
            assert CyclotomicNumber.zeta(m, k) == z**k
        # units of Z[zeta] keep integer coefficients under inversion
        assert all(type(c) is int for c in z.inverse().coeffs)
    half = CyclotomicNumber.from_rational(3, 2).inverse()
    assert half.coeffs == (Fraction(1, 2), 0)


# -- randomized algebraic properties ----------------------------------------


@st.composite
def small_polys(draw):
    n_terms = draw(st.integers(min_value=0, max_value=8))
    terms = {}
    for _ in range(n_terms):
        exps = (
            draw(st.integers(min_value=-3, max_value=3)),
            draw(st.integers(min_value=0, max_value=3)),
            draw(st.integers(min_value=0, max_value=3)),
            draw(st.integers(min_value=0, max_value=3)),
        )
        coeff = Fraction(
            draw(st.integers(min_value=-9, max_value=9)),
            draw(st.integers(min_value=1, max_value=5)),
        )
        if coeff:
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return Poly(REG, {e: c for e, c in terms.items() if c})


@st.composite
def cyclotomic_triples(draw):
    m = draw(st.integers(min_value=1, max_value=12))
    rationals = st.builds(
        Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=5)
    )
    width = euler_phi(m)
    return tuple(
        CyclotomicNumber(m, draw(st.lists(rationals, min_size=width, max_size=width)))
        for _ in range(3)
    )


def _embed(v: CyclotomicNumber) -> complex:
    root = cmath.exp(2j * cmath.pi / v.order)
    return sum(complex(c) * root**i for i, c in enumerate(v.coeffs))


@settings(max_examples=80, deadline=None)
@given(cyclotomic_triples())
def test_cyclotomic_field_laws(triple):
    u, v, w = triple
    if v:
        assert v * v.inverse() == 1
        assert (u / v) * v == u
    assert v.conjugate().conjugate() == v
    assert (u * w).conjugate() == u.conjugate() * w.conjugate()
    assert (u * v) * w == u * (v * w)
    assert u * (v + w) == u * v + u * w
    # the complex embedding is a ring homomorphism that commutes with conjugation
    assert abs(_embed(u * v) - _embed(u) * _embed(v)) < 1e-6
    assert abs(_embed(v.conjugate()) - _embed(v).conjugate()) < 1e-6


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys())
def test_substitution_is_homomorphism(f, g):
    assignment = {"q": Fraction(2), "x1": Fraction(-1, 3)}
    assert (f * g).substitute(assignment) == f.substitute(assignment) * g.substitute(assignment)
    assert (f + g).substitute(assignment) == f.substitute(assignment) + g.substitute(assignment)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_solver_residuals_vanish(rows):
    A = [[Fraction(v) for v in row] for row in rows]
    b = [Fraction(3 * i + 1, i + 2) for i in range(len(A))]
    try:
        [x] = solve_linear_exact(A, [b])
    except SingularMatrixError:
        return
    for row, rhs in zip(A, b):
        total = 0
        for coeff, value in zip(row, x):
            total = total + coeff * value
        assert total == rhs


def _solve_or_error(A, columns):
    try:
        return solve_linear_exact(A, columns)
    except SingularMatrixError as err:
        return err


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    ),
    st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3),
        min_size=1,
        max_size=3,
    ),
    st.one_of(st.none(), st.tuples(st.integers(0, 2), st.integers(0, 2))),
)
def test_joint_solve_matches_columnwise(rows, solutions, perturb):
    A = [[Fraction(v) for v in row] for row in rows]
    # each column is A times a known solution, optionally perturbed in one row
    columns = []
    for values in solutions:
        x = [Fraction(v, c + 1) for c, v in enumerate(values)]
        column = [0] * len(A)
        for r, row in enumerate(A):
            for coeff, value in zip(row, x):
                column[r] = column[r] + coeff * value
        columns.append(column)
    if perturb is not None:
        col, row = perturb[0] % len(columns), perturb[1] % len(A)
        columns[col][row] = columns[col][row] + 1

    alone = [_solve_or_error(A, [column]) for column in columns]
    joint = _solve_or_error(A, columns)
    if isinstance(joint, SingularMatrixError):
        assert all(isinstance(result, SingularMatrixError) for result in alone)
    else:
        assert joint == [result[0] for result in alone]
        if perturb is None:
            for values, x in zip(solutions, joint):
                assert x == [Fraction(v, c + 1) for c, v in enumerate(values)]



def _counting_quotients():
    """Patch the solve's checked division to record each divisor it is given."""
    divisors = []
    checked = exact._exact_quotient

    def record(value, divisor):
        divisors.append(divisor)
        return checked(value, divisor)

    return mock.patch.object(exact, "_exact_quotient", record), divisors


@st.composite
def unitriangular_systems(draw):
    """A unit upper-triangular integer matrix under a row permutation, with 10+ right sides."""
    size = draw(st.integers(1, 8))
    upper = [
        [int(i == j) if j <= i else draw(st.integers(-5, 5)) for j in range(size)]
        for i in range(size)
    ]
    order = draw(st.permutations(range(size)))
    # integer right sides, as the tables' monomial coordinates are
    values = st.integers(-(2**70), 2**70)
    column = st.lists(values, min_size=size, max_size=size)
    columns = draw(st.lists(column, min_size=10, max_size=14))
    return upper, order, columns


@settings(max_examples=100, deadline=None)
@given(unitriangular_systems())
def test_unitriangular_solve_matches_back_substitution(system):
    # the Kostka shape of every table solve: each divisor is 1, so no checked
    # division runs, and the values are those of back-substitution over Q
    upper, order, columns = system
    A = [upper[i] for i in order]
    patch, divisors = _counting_quotients()
    with patch:
        solved = solve_linear_exact(A, columns)
    assert divisors == []
    for column, x in zip(columns, solved):
        # row r of A is row order[r] of the triangle
        b = [0] * len(A)
        for r, i in enumerate(order):
            b[i] = Fraction(column[r])
        expected = [Fraction(0)] * len(A)
        for i in reversed(range(len(A))):
            expected[i] = b[i] - sum(upper[i][j] * expected[j] for j in range(i + 1, len(A)))
        assert x == expected
        assert all(type(v) is int for v in x)


def test_a_solve_mixing_unit_and_non_unit_pivots_checks_only_the_non_unit_divisions():
    # pivots 1, -4, then rows changed at the -4 step are divided by it exactly
    A = [[1, 2, 0], [3, 2, 1], [0, 1, 1]]
    x = [Fraction(1, 3), -2, 5]
    b = [sum(a * v for a, v in zip(row, x)) for row in A]
    patch, divisors = _counting_quotients()
    with patch:
        assert solve_linear_exact(A, [b, [1, 0, 0]])[0] == x
    assert divisors and 1 not in divisors


def test_an_inexact_division_is_refused():
    assert exact._exact_quotient(-12, 4) == -3
    with pytest.raises(DomainError, match="nonzero remainder"):
        exact._exact_quotient(7, 2)


# -- the registry codec and the general product ------------------------------

INT32 = (-(2**31), 2**31 - 1)


def _exponents(invertible: bool):
    # small values and values at both ends of the signed 32-bit range
    low = INT32[0] if invertible else 0
    return st.one_of(
        st.integers(min_value=low, max_value=3),
        st.integers(min_value=INT32[1] - 3, max_value=INT32[1]),
        st.integers(min_value=low, max_value=low + 3),
    )


@st.composite
def registries_with_vectors(draw):
    width = draw(st.integers(min_value=1, max_value=12))
    registry = VariableRegistry(
        [Variable("q", invertible=True)] + [Variable(f"x{i}") for i in range(1, width)]
    )
    vector = st.tuples(_exponents(True), *[_exponents(False)] * (width - 1))
    return registry, draw(st.lists(vector, min_size=1, max_size=4))


@settings(max_examples=200, deadline=None)
@given(registries_with_vectors())
def test_registry_codec_round_trips_and_is_linear(case):
    registry, vectors = case
    keys = [registry.encode(v) for v in vectors]
    for vector, key in zip(vectors, keys):
        assert registry.decode(key) == vector
    # a sum of keys decodes to the sum of the vectors, also outside the int32 range
    total = tuple(map(sum, zip(*vectors)))
    assert registry.decode(sum(keys)) == total
    if all(INT32[0] <= e <= INT32[1] for e in total):
        assert registry.encode(total) == sum(keys)


def test_registry_codec_refuses_exponents_outside_int32():
    for exps in [(0, 0, 2**31, 0), (-(2**31) - 1, 0, 0, 0)]:
        with pytest.raises(DomainError):
            REG.encode(exps)
    big = Poly.var(REG, "x1", 2**31) + 1
    with pytest.raises(DomainError):
        big * (x1 + 1)
    # at the edge of the range the product is exact
    edge = (Poly.var(REG, "x1", 2**31 - 1) + 1) * (Poly.var(REG, "x1", 2**31 - 1) - 1)
    assert edge == Poly.var(REG, "x1", 2**32 - 2) - 1


def _tuple_product(f: Poly, g: Poly) -> dict:
    """The product's terms by a tuple-add double loop, dropping cancelled keys."""
    terms = {}
    for e1, c1 in f.decoded_terms().items():
        for e2, c2 in g.decoded_terms().items():
            key = tuple(a + b for a, b in zip(e1, e2))
            terms[key] = terms.get(key, 0) + c1 * c2
    return {key: c for key, c in terms.items() if c}


def _coefficients(kind: str):
    small = st.integers(min_value=-4, max_value=4).filter(bool)
    if kind == "int":
        return small
    if kind == "Fraction":
        return st.builds(Fraction, small, st.integers(min_value=1, max_value=4))
    return st.builds(
        lambda a, b: CyclotomicNumber(3, (a, b)), small, st.integers(min_value=-4, max_value=4)
    )


@st.composite
def product_pairs(draw):
    coeff = _coefficients(draw(st.sampled_from(["int", "Fraction", "CyclotomicNumber"])))
    exps = st.tuples(
        st.integers(min_value=-2, max_value=2), *[st.integers(min_value=0, max_value=2)] * 3
    )
    f = Poly(REG, draw(st.dictionaries(exps, coeff, min_size=2, max_size=6)))
    shape = draw(st.sampled_from(["random", "sign-flip", "monomial", "zero"]))
    if shape == "random":
        g = Poly(REG, draw(st.dictionaries(exps, coeff, min_size=2, max_size=6)))
    elif shape == "sign-flip":
        # f with some signs flipped: the cross terms of (a + b)(a - b) cancel
        terms = f.decoded_terms()
        flips = draw(st.lists(st.booleans(), min_size=len(terms), max_size=len(terms)))
        g = Poly(REG, {e: -c if flip else c for (e, c), flip in zip(terms.items(), flips)})
    elif shape == "monomial":
        g = Poly(REG, draw(st.dictionaries(exps, coeff, min_size=1, max_size=1)))
    else:
        g = Poly.zero(REG)
    return f, g


@settings(max_examples=150, deadline=None)
@given(product_pairs())
def test_product_matches_a_tuple_add_double_loop(pair):
    f, g = pair
    assert (f * g).decoded_terms() == _tuple_product(f, g)
    assert (g * f).decoded_terms() == _tuple_product(g, f)


# -- int-keyed terms against tuple-keyed references ----------------------------
#
# Poly stores each monomial as its int key; every reference below is built
# from the decoded (exponent tuple) terms alone.

WIDE = VariableRegistry(
    [Variable("q", invertible=True)] + [Variable(f"x{i}") for i in range(1, 6)]
)


@st.composite
def wide_polys(draw):
    """A polynomial over WIDE whose exponents reach both int32 ends."""
    low, high = INT32
    q_exps = st.one_of(
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=low, max_value=low + 3),
        st.integers(min_value=high - 3, max_value=high),
    )
    x_exps = st.one_of(
        st.integers(min_value=0, max_value=3), st.integers(min_value=high - 3, max_value=high)
    )
    exps = st.tuples(q_exps, *[x_exps] * (len(WIDE) - 1))
    return Poly(WIDE, draw(st.dictionaries(exps, _coefficients("int"), min_size=1, max_size=8)))


MOVED = VariableRegistry(
    [Variable("x2"), Variable("extra"), Variable("q", invertible=True)]
    + [Variable(f"x{i}") for i in (1, 3, 4, 5)]
)
# shares q, x1, x2 with WIDE, then puts the other names elsewhere
SHARED = VariableRegistry(
    [Variable("q", invertible=True), Variable("x1"), Variable("x2"), Variable("extra")]
    + [Variable(f"x{i}") for i in (5, 3, 4)]
)


def _rebuilt_by_name(f, registry):
    expected = {}
    for exps, coeff in f.decoded_terms().items():
        by_name = dict(zip(f.registry.names(), exps))
        expected[tuple(by_name.get(name, 0) for name in registry.names())] = coeff
    return expected


@st.composite
def prefix_polys(draw):
    """A polynomial over WIDE in q, x1 and x2 alone, its exponents reaching both int32 ends."""
    low, high = INT32
    q_exps = st.one_of(
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=low, max_value=low + 3),
        st.integers(min_value=high - 3, max_value=high),
    )
    x_exps = st.one_of(
        st.integers(min_value=0, max_value=3), st.integers(min_value=high - 3, max_value=high)
    )
    exps = st.tuples(q_exps, x_exps, x_exps, *[st.just(0)] * (len(WIDE) - 3))
    return Poly(WIDE, draw(st.dictionaries(exps, _coefficients("int"), min_size=1, max_size=8)))


@settings(max_examples=100, deadline=None)
@given(wide_polys(), prefix_polys())
def test_transport_matches_a_rebuild_by_name(f, g):
    moved = transport(f, MOVED)
    assert moved.registry == MOVED
    assert moved.decoded_terms() == _rebuilt_by_name(f, MOVED)
    assert transport(moved, WIDE) == f
    # a term with an exponent past the shared q, x1, x2 is rebuilt by name
    shared = transport(f, SHARED)
    assert shared.registry == SHARED
    assert shared.decoded_terms() == _rebuilt_by_name(f, SHARED)
    assert transport(shared, WIDE) == f
    # within the shared names the int keys carry over as they are
    carried = transport(g, SHARED)
    assert carried.registry == SHARED
    assert carried.terms == g.terms
    assert carried.decoded_terms() == _rebuilt_by_name(g, SHARED)
    assert transport(carried, WIDE) == g


def test_transport_shares_a_variable_only_with_its_invertibility():
    # q is not invertible here, so no key carries over and q^-1 has no place
    target = VariableRegistry([Variable("q")] + list(WIDE.variables[1:]))
    f = Poly.var(WIDE, "q", 2) * Poly.var(WIDE, "x1")
    assert transport(f, target).decoded_terms() == {(2, 1, 0, 0, 0, 0): 1}
    with pytest.raises(DomainError):
        transport(Poly.var(WIDE, "q", -1), target)
    # a variable the target lacks is refused by name
    with pytest.raises(StructuralError):
        transport(Poly.var(WIDE, "x5"), VariableRegistry(WIDE.variables[:5]))
    assert transport(Poly.const(WIDE, 3), target) == Poly.const(target, 3)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.integers(min_value=-3, max_value=3).filter(bool),
        st.sampled_from([INT32[0] + 1, INT32[1]]),
    ),
    st.integers(min_value=1, max_value=4),
    _coefficients("Fraction"),
)
def test_negative_powers_of_q_negate_the_exponent(a, k, coeff):
    assume(abs(a) * k <= INT32[1])
    monomial = coeff * Poly.var(REG, "q", a)
    inverse = monomial ** (-k)
    assert inverse.decoded_terms() == {(-a * k, 0, 0, 0): 1 / Fraction(coeff) ** k}
    assert inverse * monomial**k == Poly.one(REG)
    with pytest.raises(DomainError):
        (coeff * x1) ** -1


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["q", "Q1", "x1", "x2"]),
    st.integers(min_value=2**31, max_value=2**31 + 3),
    product_pairs(),
)
def test_products_refuse_a_factor_outside_int32(name, e, pair):
    f, _ = pair
    big = Poly.var(REG, name, e)
    for factor in (f, x1, Poly.one(REG)):
        with pytest.raises(DomainError):
            big * factor
        with pytest.raises(DomainError):
            factor * (big + factor)
    with pytest.raises(DomainError):
        big**2
    if name == "q":
        with pytest.raises(DomainError):
            Poly.var(REG, "q", -e - 1) * f
    # squaring from inside the range leaves it, and a further square would wrap
    half = Poly.var(REG, name, 2**30)
    assert half**2 == Poly.var(REG, name, 2**31)
    with pytest.raises(DomainError):
        half**4
