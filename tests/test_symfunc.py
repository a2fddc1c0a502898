"""Tests for symmetric and supersymmetric function expansions."""

import collections
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from superfrob import symfunc
from superfrob.combinat import (
    HookProfile,
    compositions,
    conjugate,
    is_hook_multi,
    multipartitions,
    partitions,
    sub_partitions,
    super_tableaux,
)
from superfrob.exact import CyclotomicNumber, Poly, StructuralError
from superfrob.symfunc import (
    BlockVariables,
    ConsistencyError,
    ShapeError,
    colored_power_sum,
    colored_power_sum_product,
    complete_homogeneous,
    coordinates_on_degree,
    power_sum,
    q_bmu,
    q_n_i,
    q_tilde,
    reversed_in_variable,
    schur,
    skew_schur,
    super_hall_littlewood_q,
    super_hall_littlewood_q_via_decomposition,
    super_power_sum,
    super_power_sum_product,
    super_schur,
    super_schur_component,
)


def make_block(bk, bl, extra=()):
    return BlockVariables(HookProfile(bk, bl), extra=extra)


def poly_vars(block, names):
    return [Poly.var(block.registry, n) for n in names]


def test_schur_examples():
    block = make_block((3,), (0,))
    x1, x2, x3 = block.x_polys(1)
    assert schur((1,), [x1, x2, x3]) == x1 + x2 + x3
    assert schur((1, 1), [x1, x2]) == x1 * x2
    assert schur((2, 1), [x1, x2]) == x1**2 * x2 + x1 * x2**2
    assert schur((1, 1, 1), [x1, x2]).is_zero()
    assert schur((), [x1]) == Poly.one(block.registry)


def test_schur_rejects_entries_that_are_not_single_variables():
    block = make_block((2,), (1,))
    x1, x2 = block.x_polys(1)
    (y1,) = block.y_polys(1)
    for variables in ([2 * x1, x2], [x1 * x2, x2], [x1 + x2]):
        with pytest.raises(StructuralError):
            schur((1,), variables)
    with pytest.raises(StructuralError):
        skew_schur((2, 1), (1,), [2 * y1])
    with pytest.raises(StructuralError):
        skew_schur((1,), (), [])


def _schur_by_tableaux(shape, variables):
    """The semistandard-tableau sum, the reference for the branching rule."""
    registry = variables[0].registry
    total = Poly.zero(registry)
    for tableau in super_tableaux(shape, len(variables), 0):
        term = Poly.one(registry)
        for row in tableau:
            for value in row:
                term = term * variables[value - 1]
        total = total + term
    return total


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 6).flatmap(lambda size: st.sampled_from(partitions(size))),
    st.lists(st.integers(0, 5), min_size=1, max_size=6),
)
def test_branching_schur_equals_the_tableau_sum(shape, picks):
    # any order of the variables, repeats allowed: the rule must not rely on
    # them being distinct or in registry order
    block = make_block((6,), (0,))
    xs = block.x_polys(1)
    variables = [xs[i] for i in picks]
    assert schur(shape, variables) == _schur_by_tableaux(shape, variables)


def test_skew_schur_example():
    block = make_block((0,), (2,))
    y1, y2 = block.y_polys(1)
    expected = y1**2 + 2 * y1 * y2 + y2**2
    assert skew_schur((2, 1), (1,), [y1, y2]) == expected


def test_skew_schur_shape_error():
    block = make_block((2,), (0,))
    with pytest.raises(ShapeError):
        skew_schur((1,), (2,), block.x_polys(1))
    with pytest.raises(ShapeError):
        skew_schur((1,), (2,), [], block.registry)


@st.composite
def _skew_shapes(draw):
    eta = draw(st.integers(0, 6).flatmap(lambda size: st.sampled_from(partitions(size))))
    theta = draw(st.sampled_from(list(sub_partitions(eta))))
    return eta, theta


@settings(max_examples=80, deadline=None)
@given(_skew_shapes(), st.lists(st.integers(0, 3), max_size=4))
def test_skew_schur_against_direct_skew_ssyt(shapes, picks):
    # independent oracle: enumerate skew semistandard fillings directly, in
    # x and y variables of one block, any order, repeats allowed
    eta, theta = shapes
    block = make_block((2,), (2,))
    pool = block.x_polys(1) + block.y_polys(1)
    variables = [pool[i] for i in picks]
    expected = Poly.zero(block.registry)
    inner = tuple(theta) + (0,) * (len(eta) - len(theta))
    for filling in _skew_ssyt(eta, inner, len(variables)):
        term = Poly.one(block.registry)
        for value in filling:
            term = term * variables[value - 1]
        expected = expected + term
    value = skew_schur(eta, theta, variables, block.registry)
    assert value == expected
    if not variables:
        assert value == (Poly.one(block.registry) if eta == theta else Poly.zero(block.registry))


def _skew_ssyt(eta, inner, n_values):
    boxes = [(i, j) for i, row in enumerate(eta) for j in range(inner[i], row)]
    grid = {}

    def fill(cell):
        if cell == len(boxes):
            yield [grid[b] for b in boxes]
            return
        i, j = boxes[cell]
        lo = 1
        if (i, j - 1) in grid:
            lo = max(lo, grid[(i, j - 1)])
        if (i - 1, j) in grid:
            lo = max(lo, grid[(i - 1, j)] + 1)
        for v in range(lo, n_values + 1):
            grid[(i, j)] = v
            yield from fill(cell + 1)
            del grid[(i, j)]

    yield from fill(0)


def test_power_sums():
    block = make_block((1,), (1,))
    (x,) = block.x_polys(1)
    (y,) = block.y_polys(1)
    reg = block.registry
    assert super_power_sum(0, [x], [y], reg) == Poly.one(reg)
    assert super_power_sum(1, [x], [y], reg) == x - y
    assert super_power_sum_product((2, 1), [x], [y], reg) == (x**2 - y**2) * (x - y)
    assert power_sum(3, [x, y]) == x**3 + y**3


def test_hall_littlewood_base_cases():
    block = make_block((2,), (0,), extra=("t",))
    xs = block.x_polys(1)
    t = Poly.var(block.registry, "t")
    one = Poly.one(block.registry)
    assert super_hall_littlewood_q(0, xs, [], t) == one
    assert super_hall_littlewood_q(1, xs, [], t) == (one - t) * (xs[0] + xs[1])


def test_hall_littlewood_t_zero_degenerates_to_h():
    block = make_block((3,), (0,), extra=("t",))
    xs = block.x_polys(1)
    t = Poly.var(block.registry, "t")
    for a in range(5):
        specialized = super_hall_littlewood_q(a, xs, [], t).substitute({"t": 0})
        assert specialized == complete_homogeneous(a, xs)


def test_hall_littlewood_matches_rational_formula():
    # the closed form (1-t) sum_i x_i^a prod_{j!=i} (x_i - t x_j)/(x_i - x_j)
    block = make_block((3,), (0,), extra=("t",))
    xs = block.x_polys(1)
    t = Poly.var(block.registry, "t")
    points = [Fraction(2), Fraction(3), Fraction(5, 2)]
    t_val = Fraction(7, 3)
    for a in range(1, 5):
        poly = super_hall_littlewood_q(a, xs, [], t)
        value = poly.substitute(
            {"x1_1": points[0], "x1_2": points[1], "x1_3": points[2], "t": t_val}
        ).constant_value()
        expected = Fraction(0)
        for i in range(3):
            term = (1 - t_val) * points[i] ** a
            for j in range(3):
                if j != i:
                    term *= (points[i] - t_val * points[j]) / (points[i] - points[j])
            expected += term
        assert value == expected


def test_super_hall_littlewood_base_cases():
    block = make_block((2,), (1,), extra=("t",))
    xs = block.x_polys(1)
    ys = block.y_polys(1)
    t = Poly.var(block.registry, "t")
    one = Poly.one(block.registry)
    assert super_hall_littlewood_q(0, xs, ys, t) == one
    expected = (one - t) * (xs[0] + xs[1] - ys[0])
    assert super_hall_littlewood_q(1, xs, ys, t) == expected


def test_super_hall_littlewood_reduces_to_plain():
    # y -> 0 turns every odd factor (1 - y u)/(1 - y t u) into 1
    block = make_block((2,), (2,), extra=("t",))
    xs = block.x_polys(1)
    ys = block.y_polys(1)
    t = Poly.var(block.registry, "t")
    for a in range(4):
        restricted = super_hall_littlewood_q(a, xs, ys, t).substitute({"y1_1": 0, "y1_2": 0})
        assert restricted == super_hall_littlewood_q(a, xs, [], t)


def test_super_hall_littlewood_decomposition():
    block = make_block((2,), (2,), extra=("t",))
    xs = block.x_polys(1)
    ys = block.y_polys(1)
    t = Poly.var(block.registry, "t")
    for a in range(5):
        direct = super_hall_littlewood_q(a, xs, ys, t)
        decomposed = super_hall_littlewood_q_via_decomposition(
            a, xs, ys, "t", block.registry
        )
        assert direct == decomposed


def test_reversed_in_variable():
    block = make_block((1,), (0,), extra=("t",))
    t = Poly.var(block.registry, "t")
    (x,) = block.x_polys(1)
    f = 1 + 2 * t + x * t**2
    assert reversed_in_variable(f, "t", 2) == t**2 + 2 * t + x


def test_super_schur_single_box_is_power_sum():
    for bk, bl in [((1,), (1,)), ((2,), (1,)), ((2,), (2,))]:
        block = make_block(bk, bl)
        expected = super_power_sum(
            1, block.x_polys(1), block.y_polys(1), block.registry
        )
        for algorithm in ("branching", "tableau"):
            assert super_schur(((1,),), block, algorithm) == expected


def test_super_schur_row_two_example():
    block = make_block((1,), (1,))
    (x,) = block.x_polys(1)
    (y,) = block.y_polys(1)
    for algorithm in ("branching", "tableau"):
        assert super_schur(((2,),), block, algorithm) == x**2 - x * y
        assert super_schur(((1, 1),), block, algorithm) == y**2 - x * y


def test_super_schur_vanishes_off_hook():
    block = make_block((1,), (1,))
    for algorithm in ("branching", "tableau"):
        assert super_schur(((2, 2),), block, algorithm).is_zero()


def test_super_schur_dual_algorithms_small_sweep():
    for bk, bl in [((1,), (1,)), ((2,), (1,)), ((1, 1), (1, 1))]:
        block = make_block(bk, bl)
        m = block.m
        for n in range(4):
            for bshape in multipartitions(m, n):
                a = super_schur(bshape, block, "branching")
                b = super_schur(bshape, block, "tableau")
                assert a == b
                assert a.is_zero() == (not is_hook_multi(bshape, block.profile))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 6).flatmap(lambda size: st.sampled_from(partitions(size))),
    st.integers(1, 3),
)
def test_odd_strips_alone_are_the_omega_image(shape, ell):
    # S_lam(/y) = (-1)^|lam| s_lam'(y): the vertical strips of the y's against
    # the horizontal strips of the conjugate shape, with no even variable
    block = make_block((0,), (ell,))
    expected = (-1) ** sum(shape) * schur(conjugate(shape), block.y_polys(1))
    assert super_schur((shape,), block) == expected


def test_block_symmetry_under_transpositions():
    # swap x1_1 <-> x1_2 and y1_1 <-> y1_2 within the color
    block = make_block((2, 1), (2, 0))
    swap_x = {"x1_1": Poly.var(block.registry, "x1_2"), "x1_2": Poly.var(block.registry, "x1_1")}
    swap_y = {"y1_1": Poly.var(block.registry, "y1_2"), "y1_2": Poly.var(block.registry, "y1_1")}
    candidates = [
        super_schur(((2,), (1,)), block),
        super_schur(((1, 1), ()), block),
        colored_power_sum(2, 1, block),
        q_n_i(2, 1, block),
        q_bmu(((1,), (1,)), block),
    ]
    for f in candidates:
        assert f.substitute(swap_x) == f
        assert f.substitute(swap_y) == f


def test_supersymmetric_cancellation():
    # substituting the last x and last y of a color by one fresh u kills u
    block = make_block((1, 1), (1, 1), extra=("u",))
    u = Poly.var(block.registry, "u")
    swap = {"x1_1": u, "y1_1": u}
    candidates = [
        super_power_sum_product((2, 1), block.x_polys(1), block.y_polys(1), block.registry),
        super_schur(((2,), (1,)), block),
        super_schur(((1, 1), ()), block),
        colored_power_sum_product(((2,), (1,)), block),
        colored_power_sum_product(((1, 1), (1,)), block),
    ]
    pos = block.registry.index("u")
    for f in candidates:
        g = f.substitute(swap)
        assert all(exps[pos] == 0 for exps in g.decoded_terms()), f"u survived in {g!r}"


def test_colored_power_sum_degenerations():
    block1 = make_block((1,), (1,))
    p = super_power_sum(2, block1.x_polys(1), block1.y_polys(1), block1.registry)
    assert colored_power_sum(2, 1, block1) == p

    block2 = make_block((1, 1), (0, 0))
    (x1,) = block2.x_polys(1)
    (x2,) = block2.x_polys(2)
    # m = 2: zeta = -1, so P_a^(2) has both signs positive, P_a^(1) alternates
    assert colored_power_sum(1, 2, block2) == x1 + x2
    assert colored_power_sum(1, 1, block2) == x2 - x1


@pytest.mark.parametrize("bk,bl", [((2,), (1,)), ((1, 1), (1, 1)), ((2, 1), (0, 1))])
def test_colored_power_sums_have_int_coefficients_at_m_le_2(bk, bl):
    # every zeta_m^k is +-1 at m <= 2; the sums equal the ones built with
    # cyclotomic roots, as in the definition
    block = make_block(bk, bl)
    m = block.m
    for bmu in multipartitions(m, 3):
        value = colored_power_sum_product(bmu, block)
        assert {type(c) for c in value.terms.values()} == {int}
        expected = Poly.one(block.registry)
        for i, component in enumerate(bmu, start=1):
            for part in component:
                factor = Poly.zero(block.registry)
                for j in range(1, m + 1):
                    factor = factor + CyclotomicNumber.zeta(m, -i * j) * super_power_sum(
                        part, block.x_polys(j), block.y_polys(j), block.registry
                    )
                expected = expected * factor
        assert value == expected, bmu


def _hl_series_two_products(x_vars, y_vars, t, order, registry):
    """prod (1-x t u)/(1-x u) * prod (1-y u)/(1-y t u) with two series
    products per variable, a binomial and a geometric series: the reference
    for hl_series."""

    def times(a, b):
        out = [Poly.zero(registry)] * (order + 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b[: order + 1 - i]):
                out[i + j] = out[i + j] + ai * bj
        return out

    one = Poly.one(registry)
    series = [one] + [Poly.zero(registry)] * order
    for x in x_vars:
        series = times(series, [one, -(x * t)])
        series = times(series, [x**k for k in range(order + 1)])
    for y in y_vars:
        series = times(series, [one, -y])
        series = times(series, [(y * t) ** k for k in range(order + 1)])
    return series


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 5), st.booleans())
def test_hl_series_equals_the_two_product_expansion(k, l, order, symbolic):
    block = make_block((max(k, 1),), (l,), extra=("t",))
    registry = block.registry
    x_vars = block.x_polys(1)[:k]
    t = Poly.var(registry, "t") if symbolic else Poly.var(registry, "q", -2)
    expected = _hl_series_two_products(x_vars, block.y_polys(1), t, order, registry)
    assert symfunc.hl_series(x_vars, block.y_polys(1), t, order, registry) == expected


def test_q_tilde_examples():
    block = make_block((2,), (1,))
    x1, x2 = block.x_polys(1)
    (y1,) = block.y_polys(1)
    q = block.q
    assert q_tilde((1, 0), (0,), block) == x1
    assert q_tilde((0, 0), (1,), block) == -y1
    assert q_tilde((1, 1), (0,), block) == block.q_minus_q_inv * x1 * x2
    assert q_tilde((2, 0), (0,), block) == q * x1**2
    with pytest.raises(ShapeError):
        q_tilde((0, 0), (0,), block)


def test_q_n_i_single_box():
    block = make_block((1,), (1,))
    (x,) = block.x_polys(1)
    (y,) = block.y_polys(1)
    for i in (1, 2, 3):
        assert q_n_i(1, i, block) == block.Q(1, i) * (x - y)


def test_q_bmu_single_part():
    block = make_block((1, 1), (1, 1))
    assert q_bmu(((1,), ()), block) == q_n_i(1, 1, block)
    assert q_bmu(((), (1,)), block) == q_n_i(1, 2, block)
    assert q_bmu(((1,), (1,)), block) == q_n_i(1, 1, block) * q_n_i(1, 2, block)


def test_q_q_identity_small():
    # sum of q_tilde over C(n;k|l) times (q - q^-1) equals q^n q_n(x/y; q^-2)
    for bk, bl in [((1,), (1,)), ((2,), (1,))]:
        block = make_block(bk, bl)
        profile = block.profile
        t = Poly.var(block.registry, "q", -2)
        for n in range(1, 4):
            total = Poly.zero(block.registry)
            for weight in compositions(n, profile.k + profile.l):
                alpha, beta = profile.alpha_beta(weight)
                total = total + q_tilde(alpha, beta, block)
            lhs = total * block.q_minus_q_inv
            rhs = Poly.var(block.registry, "q", n) * super_hall_littlewood_q(
                n, block.x_polys(1), block.y_polys(1), t, block.registry
            )
            assert lhs == rhs


def test_q_n_i_matches_q_tilde_split_by_color():
    # per-composition consistency of the largest-color rule, m = 2 mixed case
    block = make_block((1, 0), (0, 1))
    (x,) = block.x_polys(1)
    (y,) = block.y_polys(2)
    q = block.q
    qmqi = block.q_minus_q_inv
    expected = (
        block.Q(1, 1) * q * x**2
        - block.Q(2, 1) * qmqi * x * y
        - block.Q(2, 1) * Poly.var(block.registry, "q", -1) * y**2
    )
    assert q_n_i(2, 1, block) == expected


def test_q_n_i_pieces_survive_out_of_order_degrees():
    # the kept series must grow when a later request needs a higher order
    profiles = [
        ((2, 1), (0, 0)),  # x only
        ((0, 0), (2, 1)),  # y only
        ((1, 2, 1), (1, 1, 2)),  # mixed
        ((1, 0, 2), (1, 0, 0)),  # an empty color
    ]
    for bk, bl in profiles:
        block = make_block(bk, bl)
        registry = block.registry
        t = Poly.var(registry, "q", -2)
        for n in (3, 1, 4, 2):
            for i in range(1, block.m + 1):
                literal = Poly.zero(registry)
                for bc in compositions(n, block.m):
                    term = Poly.var(registry, "q", n)
                    largest = 0
                    for j, c in enumerate(bc, start=1):
                        if c:
                            term = term * super_hall_littlewood_q(
                                c, block.x_polys(j), block.y_polys(j), t, registry
                            )
                            largest = j
                    literal = literal + block.Q(largest, i) * term
                assert q_n_i(n, i, block) * block.q_minus_q_inv == literal, (bk, bl, n, i)


def test_q_bmu_builds_one_series_per_color(monkeypatch):
    # one quotient series G per color, and H = 1 + (1 - t) G only below the
    # last color, the only colors whose H a q_n^(i) reads
    hl_quotient_series = symfunc.hl_quotient_series
    series_from_quotient = symfunc._series_from_quotient
    calls, h_builds = [], []

    def counted(*args):
        calls.append(args[3])  # the order
        return hl_quotient_series(*args)

    def counted_h(quotient, t):
        h_builds.append(len(quotient) - 1)  # the order
        return series_from_quotient(quotient, t)

    monkeypatch.setattr(symfunc, "hl_quotient_series", counted)
    monkeypatch.setattr(symfunc, "_series_from_quotient", counted_h)
    for m, n in [(2, 3), (1, 3), (3, 2)]:
        calls.clear()
        h_builds.clear()
        block = make_block((n,) * m, (0,) * m)
        for bmu in multipartitions(m, n):
            q_bmu(bmu, block)
        assert calls == [n] * m, (m, n)
        assert h_builds == [n] * (m - 1), (m, n)


# -- products on orbit representatives -------------------------------------------


def table_block(m, n):
    return BlockVariables(HookProfile((n,) * m, (0,) * m), dominant_degree=n)


def at_representatives(f, degree, block):
    """f at the x-monomials of ``degree`` decreasing within each color, as ``{nu: {rest: c}}``.

    The rest is the key with its x digits 0; f must be homogeneous of that
    x-degree.
    """
    m, n = block.m, block.dominant_degree
    encode = block.registry.encode
    read = {}
    for exps, coeff in f.decoded_terms().items():
        front, x = exps[: 1 + m], exps[1 + m :]  # block layout: q, Q_1..Q_m, then the x's
        assert sum(x) == degree, exps
        colors = [x[c * n : (c + 1) * n] for c in range(m)]
        if all(list(a) == sorted(a, reverse=True) for a in colors):
            nu = tuple(tuple(filter(None, a)) for a in colors)
            read.setdefault(nu, {})[encode(front + (0,) * len(x))] = coeff
    return read


def full_leaf(factor, block):
    """The leaf ``(kind, degree, color, shape)`` built by its series, strip or power-sum path."""
    kind, degree, color, shape = factor
    if kind == "q":
        return q_n_i(degree, color, block)
    if kind == "schur":
        return super_schur_component(shape, block, color)
    return colored_power_sum(degree, color, block)


def representative_and_full(m, n, factors):
    """The representative product of the full leaves, and the full product read likewise."""
    block, full = table_block(m, n), make_block((n,) * m, (0,) * m)
    leaves = [(factor[1], full_leaf(factor, full)) for factor in factors]
    product = Poly.one(full.registry)
    for _, leaf in leaves:
        product = product * leaf
    representative = symfunc._orbit_product(
        [(d, at_representatives(leaf, d, block)) for d, leaf in leaves], block
    )
    return representative, at_representatives(product, sum(d for d, _ in leaves), block)


def test_coordinates_on_degree():
    block = table_block(1, 2)
    x1, x2 = block.x_polys(1)
    # the dominant monomials of degree 2 in multipartitions order: x1^2, then x1 x2
    f = block.q * x1**2 + 3 * x1 * x2
    assert coordinates_on_degree(f, 2, block) == [block.q, Poly.const(block.registry, 3)]
    assert coordinates_on_degree(3 * x1 * x2, 2, block)[0].is_zero()
    with pytest.raises(ConsistencyError, match="off-table term"):
        coordinates_on_degree(f + x2**2, 2, block)
    with pytest.raises(ConsistencyError, match="non-homogeneous"):
        coordinates_on_degree(x1 + x1**2, 2, block)
    # degree 2, but x2 has exponent -1
    negative = Poly._raw(block.registry, {block.registry.encode((0, 0, 3, -1)): 1})
    with pytest.raises(ConsistencyError, match="non-homogeneous"):
        coordinates_on_degree(negative, 2, block)
    with pytest.raises(StructuralError):
        coordinates_on_degree(f, 2, make_block((2,), (0,)))


@st.composite
def representative_factors(draw):
    """m <= 3, n <= 5 and one to four leaves (kind, degree, color, shape) of total degree <= n."""
    m = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=5))
    factors, budget = [], n
    while budget and len(factors) < 4:
        degree = draw(st.integers(min_value=1, max_value=budget))
        color = draw(st.integers(min_value=1, max_value=m))
        kind = draw(st.sampled_from(["q", "schur", "power"]))
        shape = draw(st.sampled_from(partitions(degree))) if kind == "schur" else None
        factors.append((kind, degree, color, shape))
        budget -= degree
        if not draw(st.booleans()):
            break
    return m, n, factors


@settings(max_examples=60, deadline=None)
@given(representative_factors())
def test_representative_product_is_the_full_product_at_every_representative(case):
    representative, full = representative_and_full(*case)
    assert representative == full


@pytest.mark.parametrize("m,n", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)])
def test_a_mult_counting_each_unordered_split_once_fails_the_comparison(monkeypatch, m, n):
    # the q leaves of every label bmu of P_{m,n}, the factors of q_bmu
    labels = [
        [("q", part, i, None) for i, component in enumerate(bmu, start=1) for part in component]
        for bmu in multipartitions(m, n)
    ]
    assert all(a == b for a, b in (representative_and_full(m, n, f) for f in labels))
    original = symfunc._mult
    monkeypatch.setattr(symfunc, "_mult", lambda nu, d: dict.fromkeys(original(nu, d), 1))
    assert not all(a == b for a, b in (representative_and_full(m, n, f) for f in labels))


def test_a_table_block_multiplies_labels_of_its_size_only():
    block = table_block(2, 3)
    for bmu in [((2,), ()), ((2,), (1, 1))]:
        with pytest.raises(StructuralError):
            q_bmu(bmu, block)
        with pytest.raises(StructuralError):
            super_schur(bmu, block)
        with pytest.raises(StructuralError):
            colored_power_sum_product(bmu, block)


@st.composite
def closed_form_leaves(draw):
    """A leaf kind, m <= 3, n <= 4, a part size d <= n, a color and, for a Schur leaf, a shape."""
    m = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=4))
    d = draw(st.integers(min_value=1, max_value=n))
    color = draw(st.integers(min_value=1, max_value=m))
    kind = draw(st.sampled_from(["q", "schur", "power"]))
    shape = draw(st.sampled_from(partitions(d))) if kind == "schur" else None
    return kind, m, n, d, color, shape


@settings(max_examples=80, deadline=None)
@given(closed_form_leaves())
# at m = 3, P_1^(1) has root zeta^(-2) = zeta at color 2: a root written zeta^(+ij) fails here
@example(("power", 3, 2, 1, 1, None))
def test_each_closed_form_leaf_is_its_series_or_strip_leaf_on_the_monomials_that_fit(case):
    kind, m, n, d, color, shape = case
    block = table_block(m, n)
    full = make_block((n,) * m, (0,) * m)
    if kind == "q":
        written = symfunc._q_leaf(d, color, block)
    elif kind == "schur":
        written = symfunc._schur_leaf(shape, color, block)
        # the Kostka count equals the number of semistandard fillings of each content
        fillings = collections.Counter(
            tuple(sum(row.count(v) for row in tableau) for v in range(1, n + 1))
            for tableau in super_tableaux(shape, n, 0)
        )
        for content, count in fillings.items():
            partition = tuple(sorted(filter(None, content), reverse=True))
            assert symfunc._kostka(shape, partition) == count, (shape, content)
    else:
        written = symfunc._power_leaf(d, color, block)
    built = full_leaf((kind, d, color, shape), full)
    assert written == at_representatives(built, d, block)


def test_pruning_blocks_need_an_all_even_profile():
    with pytest.raises(StructuralError):
        BlockVariables(HookProfile((2,), (1,)), dominant_degree=3)


def test_table_blocks_need_every_k_i_at_least_their_degree():
    # with k_1 = 2 the multipartition ((1, 1, 1),) of 3 has no dominant monomial
    with pytest.raises(StructuralError):
        BlockVariables(HookProfile((2,), (0,)), dominant_degree=3)
    with pytest.raises(StructuralError):
        BlockVariables(HookProfile((3, 2), (0, 0)), dominant_degree=3)
    block = BlockVariables(HookProfile((3, 4), (0, 0)), dominant_degree=3)
    assert block.dominant_degree == 3
