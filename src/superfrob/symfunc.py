"""Symmetric and supersymmetric function expansions.

Everything here expands into exact sparse polynomials over a block-variable
registry: per color i there are k_i even variables x{i}_a and l_i odd
variables y{i}_b, plus the Hecke parameters q (invertible) and Q_1..Q_m.
Colored power sums carry cyclotomic coefficients.

Straight, skew and super Schur polynomials come from one branching
recursion, one strip per variable (:func:`_strips`): an even variable x
removes a horizontal strip with weight x, an odd variable y a vertical strip
with weight -y.  The super tableaux of :mod:`superfrob.combinat` give the
independent second algorithm for super Schur functions.  Hall-Littlewood
functions are computed by one mechanism only: truncated power series in an
auxiliary expansion variable u (represented as coefficient lists, never as a
registered variable), exactly following their generating functions, with one
series product per variable.  The recursion builds the quotient
G = (H - 1)/(1 - t) of the series H, so the (q - q^-1) of q_n^(i) cancels
with no division at t = q^-2.  The deformation parameter t is passed in as
a first-class polynomial, so callers can keep it symbolic or set it to q^-2.
A block keeps what ``q_n_i`` builds from them: each color's G and H, and
each q_n^(i).

The products ``q_bmu``, ``super_schur`` and ``colored_power_sum_product``
multiply leaves that are each symmetric within each color: q_d^(i), the
one-color super Schur factors and P_a^(i).  On any block but one with a
dominant degree the leaves are built by the paths above and the product is
the full one.  On a block with dominant degree n (the block the character
tables build on, all-even) each leaf is written once from its closed form,
whose coefficients depend only on the per-color sorted exponents, at one
representative per orbit: the multipartition nu of its dominant monomial.
The products are multiplied on those representatives, counting the splits
of each nu (:func:`_orbit_product`), and a label of size n gives exactly
the dominant monomials of degree n.  The closed forms are
q^(d-1) Q_L^i (1 - q^-2)^(N-1) for q_d^(i) (:func:`_q_leaf`), Kostka numbers
counted strip by strip for the Schur factors (:func:`_kostka`) and the
roots of P_a^(i) (:func:`_power_leaf`); the full-block paths stay as their
independent cross-checks.
"""

from __future__ import annotations

import collections
import itertools
import math
from functools import lru_cache, partial

from superfrob.combinat import (
    HookProfile,
    Multipartition,
    Partition,
    compositions,
    contains,
    multipartitions,
    partitions,
    super_tableaux,
)
from superfrob.exact import (
    CyclotomicNumber,
    DomainError,
    Poly,
    StructuralError,
    Variable,
    VariableRegistry,
)


class ConsistencyError(ArithmeticError):
    """An identity that must hold symbolically failed to hold."""


class ShapeError(ValueError):
    """A (skew) shape constraint was violated."""


class BlockVariables:
    """Registered block variables for a hook profile.

    Registry layout (fixes exponent vectors and the canonical term order):
    q, Q_1..Q_m, all x variables color-major, all y variables color-major,
    then any extra names (e.g. the Hall-Littlewood parameter ``t``).

    The block also keeps the closed-form pieces of ``q_n_i`` once built: per
    color the Hall-Littlewood quotient series G = (H - 1)/(1 - t) in
    ``t = q^-2`` and, below the last color, the series H = 1 + (1 - t) G
    read off it; per degree n the sums ``R_{n,L}`` that ``q_n_i`` combines
    (see :func:`_q_n_pieces`); and each ``q_n^(i)``.

    With ``dominant_degree`` n (all-even profiles with every k_i >= n only,
    so that each multipartition of n is a dominant monomial), the block's
    products take labels of size n only and are multiplied on orbit
    representatives (:func:`_orbit_product`), each returned on the dominant
    monomials of x-degree n; the block then also keeps each leaf, written
    from its closed form at one multipartition per orbit
    (:func:`_leaf_product`).
    """

    def __init__(
        self,
        profile: HookProfile,
        extra: tuple[str, ...] = (),
        dominant_degree: int | None = None,
    ):
        if dominant_degree is not None and profile.l:
            raise StructuralError("a block with a dominant degree needs an all-even profile")
        if dominant_degree is not None and min(profile.bk) < dominant_degree:
            raise StructuralError(
                f"a block with dominant degree {dominant_degree} needs each k_i at least that"
            )
        self.profile = profile
        self.dominant_degree = dominant_degree
        m = profile.m
        variables = [Variable("q", invertible=True)]
        variables += [Variable(f"Q{i}") for i in range(1, m + 1)]
        for i in range(1, m + 1):
            variables += [Variable(f"x{i}_{a}") for a in range(1, profile.bk[i - 1] + 1)]
        for i in range(1, m + 1):
            variables += [Variable(f"y{i}_{b}") for b in range(1, profile.bl[i - 1] + 1)]
        variables += [Variable(name) for name in extra]
        self.registry = VariableRegistry(variables)
        self.q = Poly.var(self.registry, "q")
        self.q_inv = Poly.var(self.registry, "q", -1)
        self.q_minus_q_inv = self.q - self.q_inv
        self._hl_by_color: dict[int, tuple[list[Poly], list[Poly] | None]] = {}
        self._q_n_by_degree: dict[int, dict[int, Poly]] = {}
        self._q_n_i: dict[tuple[int, int], Poly] = {}
        self._leaves: dict[tuple, dict[Multipartition, dict[int, object]]] = {}

    @property
    def m(self) -> int:
        return self.profile.m

    def Q(self, i: int, power: int = 1) -> Poly:
        return Poly.var(self.registry, f"Q{i}", power)

    def x_polys(self, color: int) -> list[Poly]:
        return [
            Poly.var(self.registry, f"x{color}_{a}")
            for a in range(1, self.profile.bk[color - 1] + 1)
        ]

    def y_polys(self, color: int) -> list[Poly]:
        return [
            Poly.var(self.registry, f"y{color}_{b}")
            for b in range(1, self.profile.bl[color - 1] + 1)
        ]

    def x_names(self) -> list[str]:
        return [
            f"x{i}_{a}"
            for i in range(1, self.m + 1)
            for a in range(1, self.profile.bk[i - 1] + 1)
        ]

    def y_names(self) -> list[str]:
        return [
            f"y{i}_{b}"
            for i in range(1, self.m + 1)
            for b in range(1, self.profile.bl[i - 1] + 1)
        ]

    def diagonal_weight(self, index: int) -> Poly:
        """x for even indices, -y for odd ones (the z -> x / -y replacement)."""
        kind, color, pos = self.profile.symbol_of(index)
        var = Poly.var(self.registry, f"{kind}{color}_{pos}")
        return var if kind == "x" else -var


# -- classical bases ----------------------------------------------------------


def _variable_key(v: Poly, registry: VariableRegistry) -> int:
    """The int key of v, which must be one registered variable to the first power."""
    if isinstance(v, Poly) and (v.registry is registry or v.registry == registry):
        if len(v.terms) == 1:
            ((key, coeff),) = v.terms.items()
            # x_p itself has key 2^(64 p): one set bit, at the bottom of a digit
            if coeff == 1 and key > 0 and not key & (key - 1) and key.bit_length() % 64 == 1:
                return key
    raise StructuralError(f"schur needs single variables with coefficient 1, got {v!r}")


def schur(shape: Partition, variables: list[Poly]) -> Poly:
    """Schur polynomial s_shape(variables), the straight case of :func:`skew_schur`.

    Each entry of ``variables`` must be one registered variable to the first
    power with coefficient 1.
    """
    if not variables:
        raise StructuralError(
            "schur needs at least one variable; pass a registry to skew_schur for an empty block"
        )
    return skew_schur(shape, (), variables)


def skew_schur(eta: Partition, theta: Partition, variables: list[Poly], registry=None) -> Poly:
    """Skew Schur polynomial s_{eta/theta} by the branching rule; zero when too tall.

    One horizontal strip per variable (:func:`_strips` with no odd variable).
    Each entry of ``variables`` must be one registered variable to the first
    power with coefficient 1; with none, ``registry`` is required.
    """
    if not contains(eta, theta):
        raise ShapeError(f"{theta} is not contained in {eta}")
    if registry is None:
        if not variables:
            raise StructuralError("skew_schur with no variables needs an explicit registry")
        registry = variables[0].registry
    keys = [_variable_key(v, registry) for v in variables]
    return _strips(tuple(eta), tuple(theta), keys, len(keys), registry)


def _strips(eta: Partition, theta: Partition, keys: list[int], even: int, registry) -> Poly:
    """S_{eta/theta}(x/y) by peeling one strip per variable, the last variable first.

    The first ``even`` keys are even variables x, the rest odd variables y.
    S_{lam/theta} = sum_mu S_{mu/theta}(one variable fewer) w^(|lam| - |mu|)
    over the mu containing theta that leave a strip lam/mu: an x leaves a
    horizontal strip (max(lam_{i+1}, theta_i) <= mu_i <= lam_i) with w = x,
    a y a vertical strip (mu_i in {lam_i - 1, lam_i}, mu a partition) with
    w = -y.  Memoised per (mu, j) within the call.
    """
    inner_size = sum(theta)
    memo: dict[tuple[Partition, int], dict[int, int]] = {}

    def expand(lam: Partition, j: int) -> dict[int, int]:
        # every lam reached contains theta, so equal sizes mean lam == theta
        size = sum(lam)
        if size == inner_size:
            return {0: 1}
        # the x's left fill the first column of what stays below theta with
        # distinct values, so each row below len(theta) + (x's left) must go
        # whole to the y's left, at most one box per y
        odd = max(j - even, 0)
        row = len(theta) + j - odd
        if j == 0 or (row < len(lam) and lam[row] > odd):
            return {}
        terms = memo.get((lam, j))
        if terms is None:
            terms = {}
            key = keys[j - 1]
            lows = [p - 1 for p in lam] if odd else lam[1:] + (0,)
            floor = theta + (0,) * (len(lam) - len(theta))
            ranges = (range(max(b, t), p + 1) for b, t, p in zip(lows, floor, lam))
            for mu in itertools.product(*ranges):
                if odd and any(a < b for a, b in zip(mu, mu[1:])):
                    continue
                mu = tuple(p for p in mu if p)
                degree = size - sum(mu)
                shift = degree * key
                sign = -1 if odd and degree % 2 else 1
                for k, c in expand(mu, j - 1).items():
                    terms[k + shift] = terms.get(k + shift, 0) + sign * c
            memo[lam, j] = terms
        return terms

    return Poly._raw(registry, expand(eta, len(keys)))


def power_sum(a: int, variables: list[Poly], registry=None) -> Poly:
    if registry is None:
        registry = variables[0].registry
    if a == 0:
        return Poly.one(registry)
    total = Poly.zero(registry)
    for v in variables:
        total = total + v**a
    return total


def super_power_sum(a: int, x_vars: list[Poly], y_vars: list[Poly], registry) -> Poly:
    """p_a(x/y) = p_a(x) - p_a(y) for a >= 1, and p_0 = 1."""
    if a == 0:
        return Poly.one(registry)
    return power_sum(a, x_vars, registry) - power_sum(a, y_vars, registry)


def super_power_sum_product(shape: Partition, x_vars, y_vars, registry) -> Poly:
    total = Poly.one(registry)
    for part in shape:
        total = total * super_power_sum(part, x_vars, y_vars, registry)
    return total


def complete_homogeneous(a: int, variables: list[Poly], registry=None) -> Poly:
    """h_a by monomial enumeration (used as an independent degeneration check)."""
    if registry is None:
        registry = variables[0].registry
    if a == 0:
        return Poly.one(registry)
    total = Poly.zero(registry)
    for combo in itertools.combinations_with_replacement(variables, a):
        term = Poly.one(registry)
        for v in combo:
            term = term * v
        total = total + term
    return total


# -- Hall-Littlewood via generating series ------------------------------------


def _series_mul(a: list[Poly], b: list[Poly], order: int, registry) -> list[Poly]:
    out = [Poly.zero(registry) for _ in range(order + 1)]
    for i, ai in enumerate(a):
        if i > order or ai.is_zero():
            continue
        for j, bj in enumerate(b):
            if i + j > order:
                break
            if bj.is_zero():
                continue
            out[i + j] = out[i + j] + ai * bj
    return out


def hl_quotient_series(
    x_vars: list[Poly], y_vars: list[Poly], t: Poly, order: int, registry
) -> list[Poly]:
    """Coefficients of u^0..u^order of G = (H - 1)/(1 - t), H the series of :func:`hl_series`.

    Each variable's factor of H is f = 1 + (1-t) a: a = A_x = sum_k x^k u^k
    gives (1-txu)/(1-xu), and a = -B_y, B_y = sum_k t^(k-1) y^k u^k, gives
    (1-yu)/(1-ytu).  As H = 1 + (1-t) G, H f = 1 + (1-t) (G f + a), so G
    starts at 0 and becomes G f + a per variable: one series product each,
    and no division.
    """
    zero, one = Poly.zero(registry), Poly.one(registry)
    s = 1 - t
    series = [zero] * (order + 1)
    for first, ratio in [(x, x) for x in x_vars] + [(-y, y * t) for y in y_vars]:
        a = [zero, first]
        while len(a) <= order:
            a.append(a[-1] * ratio)
        series = _series_mul(series, [one] + [s * c for c in a[1:]], order, registry)
        series = [g + c for g, c in zip(series, a)]
    return series


def hl_series(
    x_vars: list[Poly], y_vars: list[Poly], t: Poly, order: int, registry
) -> list[Poly]:
    """Coefficients of u^0..u^order of H = prod (1-x t u)/(1-x u) * prod (1-y u)/(1-y t u).

    H = 1 + (1-t) G, with G from :func:`hl_quotient_series`.
    """
    return _series_from_quotient(hl_quotient_series(x_vars, y_vars, t, order, registry), t)


def _series_from_quotient(quotient: list[Poly], t: Poly) -> list[Poly]:
    """H = 1 + (1-t) G, coefficientwise, from the quotient G of :func:`hl_quotient_series`."""
    return [Poly.one(t.registry)] + [(1 - t) * g for g in quotient[1:]]


def super_hall_littlewood_q(
    a: int, x_vars: list[Poly], y_vars: list[Poly], t: Poly, registry=None
) -> Poly:
    """q_a(x/y;t): coefficient of u^a in the mixed product generating function.

    With ``y_vars = []`` this is the ordinary q_a(x;t), the coefficient of u^a
    in prod_i (1-x_i t u)/(1-x_i u).
    """
    if registry is None:
        registry = t.registry if isinstance(t, Poly) else (x_vars + y_vars)[0].registry
    if not isinstance(t, Poly):
        t = Poly.const(registry, t)
    if a == 0:
        return Poly.one(registry)
    return (1 - t) * hl_quotient_series(x_vars, y_vars, t, a, registry)[a]


def reversed_in_variable(f: Poly, name: str, degree: int) -> Poly:
    """Substitute t -> t^-1 and multiply through by t^degree, as exponent reversal.

    Requires deg_t(f) <= degree; used to state the super Hall-Littlewood
    decomposition without Laurent exponents in t.
    """
    pos = f.registry.index(name)
    terms = {}
    for exps, coeff in f.decoded_terms().items():
        if exps[pos] > degree:
            raise DomainError(f"degree in {name} exceeds reversal degree {degree}")
        new = list(exps)
        new[pos] = degree - exps[pos]
        terms[tuple(new)] = coeff
    return Poly(f.registry, terms)


def super_hall_littlewood_q_via_decomposition(
    a: int, x_vars: list[Poly], y_vars: list[Poly], t_name: str, registry
) -> Poly:
    """The displayed decomposition sum_i t^(a-i) q_i(x;t) q_{a-i}(y;t^-1).

    Each factor t^(a-i) q_{a-i}(y;t^-1) is realised as the exponent reversal of
    q_{a-i}(y;t), which multiplies the identity through by a sufficient power
    of t; the result is polynomial in t and must equal the generating-series
    value.
    """
    t = Poly.var(registry, t_name)
    total = Poly.zero(registry)
    for i in range(a + 1):
        qx = super_hall_littlewood_q(i, x_vars, [], t, registry)
        qy = super_hall_littlewood_q(a - i, y_vars, [], t, registry)
        total = total + qx * reversed_in_variable(qy, t_name, a - i)
    return total


# -- supersymmetric Schur functions -------------------------------------------


def super_schur_component(
    shape: Partition, block: BlockVariables, color: int, algorithm: str = "branching"
) -> Poly:
    """S_shape(x^(color)/y^(color)) by one of the two independent algorithms.

    "branching": the strip recursion of :func:`skew_schur` over x^(color)
    and then y^(color), each y peeling a vertical strip with weight -y.
    "tableau": sum of the weights of the :func:`super_tableaux` fillings,
    value a <= k read as x_a and k + b as -y_b, sharing no code with it.
    Both vanish exactly off the (k_color, l_color) hook.
    """
    registry = block.registry
    k, ell = block.profile.bk[color - 1], block.profile.bl[color - 1]
    if algorithm == "branching":
        variables = block.x_polys(color) + block.y_polys(color)
        keys = [_variable_key(v, registry) for v in variables]
        return _strips(tuple(shape), (), keys, k, registry)
    if algorithm == "tableau":
        positions = [registry.index(f"x{color}_{a}") for a in range(1, k + 1)]
        positions += [registry.index(f"y{color}_{b}") for b in range(1, ell + 1)]
        terms: dict[tuple[int, ...], int] = {}
        for tab in super_tableaux(shape, k, ell):
            exps = [0] * len(registry)
            for row in tab:
                for value in row:
                    exps[positions[value - 1]] += 1
            key = tuple(exps)
            sign = (-1) ** sum(value > k for row in tab for value in row)
            terms[key] = terms.get(key, 0) + sign
        return Poly(registry, {e: c for e, c in terms.items() if c})
    raise ValueError(f"unknown algorithm {algorithm!r}")


def super_schur(
    bshape: Multipartition, block: BlockVariables, algorithm: str = "branching"
) -> Poly:
    """S_bshape(x/y) as the product of per-color supersymmetric Schur functions."""
    if len(bshape) != block.m:
        raise ShapeError("component count does not match the block profile")
    return _leaf_product(
        [
            (
                ("s", shape, color),
                sum(shape),
                partial(super_schur_component, shape, block, color, algorithm),
                partial(_schur_leaf, shape, color, block),
            )
            for color, shape in enumerate(bshape, start=1)
            if shape
        ],
        block,
    )


# -- colored power sums ---------------------------------------------------------


def colored_power_sum(a: int, i: int, block: BlockVariables) -> Poly:
    """P_a^(i) = sum_j zeta^(-ij) p_a(x^(j)/y^(j)), with exact cyclotomic coefficients.

    At m <= 2 every zeta_m^k is +-1, so the roots and coefficients are ints.
    """
    m = block.m
    if not 1 <= i <= m:
        raise ValueError(f"color {i} out of range 1..{m}")
    registry = block.registry
    total = Poly.zero(registry)
    for j in range(1, m + 1):
        power = (-i * j) % m
        root = (-1) ** power if m <= 2 else CyclotomicNumber.zeta(m, power)
        total = total + root * super_power_sum(
            a, block.x_polys(j), block.y_polys(j), registry
        )
    return total


def colored_power_sum_product(bmu: Multipartition, block: BlockVariables) -> Poly:
    """P_bmu = prod_i prod_j P^(i)_{mu^(i)_j}."""
    return _leaf_product(
        [
            (
                ("p", part, i),
                part,
                partial(colored_power_sum, part, i, block),
                partial(_power_leaf, part, i, block),
            )
            for i, component in enumerate(bmu, start=1)
            for part in component
        ],
        block,
    )


# -- the Hecke-side weight functions -------------------------------------------


def q_tilde(alpha: tuple[int, ...], beta: tuple[int, ...], block: BlockVariables) -> Poly:
    """The monomial weight attached to a sorted basis tuple of type (alpha; beta)."""
    profile = block.profile
    if len(alpha) != profile.k or len(beta) != profile.l:
        raise ShapeError("alpha/beta lengths must match the profile")
    registry = block.registry
    x_names = block.x_names()
    y_names = block.y_names()
    weight = sum(alpha) + sum(beta)
    len_alpha = sum(1 for v in alpha if v)
    len_beta = sum(1 for v in beta if v)
    len_both = len_alpha + len_beta
    if len_both == 0:
        raise ShapeError("q_tilde needs a nonempty composition")
    powers = {}
    for name, e in zip(x_names, alpha):
        if e:
            powers[name] = e
    for name, e in zip(y_names, beta):
        if e:
            powers[name] = e
    # the (-1)^(|beta|-l(beta)) prefactor and the signs of (-y)^beta combine
    sign = (-1) ** len_beta
    q_power = sum(alpha) - len_alpha + len_beta - sum(beta)
    mono = Poly.monomial(registry, powers, sign)
    q_part = Poly.var(registry, "q", q_power) if q_power else Poly.one(registry)
    return mono * q_part * block.q_minus_q_inv ** (len_both - 1)


def _q_n_pieces(n: int, block: BlockVariables) -> dict[int, Poly]:
    """The sums R_{n,L} of q_n^(i) = sum_L Q_L^i R_{n,L}, by L, built once per block.

    R_{n,L} = q^n/(q-q^-1) sum_c prod_j q_{c_j}(x^(j)/y^(j); q^-2) over the
    compositions c in C(n;m) whose largest color with a positive part is L.
    Per color, one quotient series G = (H - 1)/(1 - t) at t = q^-2
    (:func:`hl_quotient_series`) gives both q_a = H_a = (1 - t) G_a and,
    since q - q^-1 = q (1 - t), q_a/(q - q^-1) = q^-1 G_a for a >= 1; it is
    rebuilt only when a higher order is needed, and truncations agree on
    every coefficient they share.  So color L contributes q^(n-1) G_{c_L}
    and every color below L its H_{c_j}, with no division; H is read only
    below the largest color L, so it is built only for colors below m.
    """
    sums = block._q_n_by_degree.get(n)
    if sums is not None:
        return sums
    registry = block.registry
    t = Poly.var(registry, "q", -2)
    quotients, series = [], []
    for color in range(1, block.m + 1):
        kept = block._hl_by_color.get(color)
        if kept is None or len(kept[0]) <= n:
            g = hl_quotient_series(block.x_polys(color), block.y_polys(color), t, n, registry)
            h = _series_from_quotient(g, t) if color < block.m else None
            kept = block._hl_by_color[color] = g, h
        quotients.append(kept[0])
        series.append(kept[1])
    q_power = Poly.var(registry, "q", n - 1)
    sums = {}
    for bc in compositions(n, block.m):
        largest = max(j for j, c in enumerate(bc, start=1) if c)
        term = q_power
        for j, c in enumerate(bc[: largest - 1], start=1):
            if c:
                term = term * series[j - 1][c]
        term = term * quotients[largest - 1][bc[largest - 1]]
        sums[largest] = sums[largest] + term if largest in sums else term
    block._q_n_by_degree[n] = sums
    return sums


def q_n_i(n: int, i: int, block: BlockVariables) -> Poly:
    """Trace of D T(n,i) in closed form, with the (q - q^-1) prefactor cancelled.

    q_n^(i) = q^n/(q-q^-1) sum_{c in C(n;m)} Q_c^i prod_j q_{c_j}(x^(j)/y^(j); q^-2),
    where Q_c is the Q of the largest color with a positive part.  The terms
    depend on i only through Q_c^i, so they are summed once per largest color
    (:func:`_q_n_pieces`) and each sum is weighted by Q_L^i here.  The block
    keeps each q_n^(i) once built.
    """
    if n < 1:
        raise ValueError("q_n_i needs n >= 1")
    total = block._q_n_i.get((n, i))
    if total is None:
        total = Poly.zero(block.registry)
        for largest, piece in _q_n_pieces(n, block).items():
            total = total + block.Q(largest, i) * piece
        block._q_n_i[n, i] = total
    return total


def q_bmu(bmu: Multipartition, block: BlockVariables) -> Poly:
    """q_bmu = prod_i prod_j q^(i)_{mu^(i)_j}."""
    if len(bmu) != block.m:
        raise ShapeError("component count does not match the block profile")
    return _leaf_product(
        [
            (
                ("q", part, i),
                part,
                partial(q_n_i, part, i, block),
                partial(_q_leaf, part, i, block),
            )
            for i, component in enumerate(bmu, start=1)
            for part in component
        ],
        block,
    )


# -- products on orbit representatives of a table block ---------------------------


@lru_cache(maxsize=None)
def _dominant_keys(profile: HookProfile, degree: int) -> dict[Multipartition, int]:
    """The key of each dominant x-monomial of ``degree``, by its multipartition.

    A dominant monomial's exponents decrease within each color: one per
    multipartition of ``degree`` whose color-i partition has at most k_i
    parts, each color's partition padded to k_i, in ``multipartitions``
    order.  The profile must be all-even.
    """
    encode = BlockVariables(profile).registry.encode
    front = (0,) * (1 + profile.m)  # block layout: q, Q_1..Q_m, then the x variables
    return {
        bl: encode(front + sum((p + (0,) * (k - len(p)) for p, k in zip(bl, profile.bk)), ()))
        for bl in multipartitions(profile.m, degree)
        if all(len(p) <= k for p, k in zip(bl, profile.bk))
    }


def _refused(x: int, degree: int, block: BlockVariables) -> ConsistencyError:
    exps = block.registry.decode(x)[1 + block.m :][: block.profile.k]
    kind = "off-table" if sum(exps) == degree and min(exps, default=0) >= 0 else "non-homogeneous"
    return ConsistencyError(f"{kind} term with exponents {exps} (expected degree {degree})")


def coordinates_on_degree(f: Poly, degree: int, block: BlockVariables) -> list[Poly]:
    """f's coordinate at each dominant x-monomial of ``degree``, refusing any other term.

    The final read of a product on a block with a dominant degree.  Entries
    are polynomials in the variables other than x, one per dominant monomial
    (decreasing within each color), in ``multipartitions`` order.  One pass
    over ``f.terms`` groups them by x part (the key with every digit but the
    x variables' 0); each dominant key then takes its row by one dict
    lookup.  A row left over is refused with ConsistencyError: as
    non-homogeneous if its x-degree is another (the solver operates on
    homogeneous expansions only), as off-table if it is of that degree but
    not dominant.
    """
    if block.dominant_degree is None:
        raise StructuralError("coordinates_on_degree needs a block with a dominant degree")
    bias, shift, mask, restore = block.registry.range_digits(block.x_names())
    rows: dict[int, dict] = {}
    for key, coeff in f.terms.items():
        x = ((((key + bias) >> shift) & mask) << shift) - restore
        rows.setdefault(x, {})[key - x] = coeff
    coordinates = [
        Poly._raw(block.registry, rows.pop(x, {}), f._in_int32)
        for x in _dominant_keys(block.profile, degree).values()
    ]
    for x in rows:
        raise _refused(x, degree, block)
    return coordinates


@lru_cache(maxsize=None)
def _color_splits(partition: Partition) -> dict[tuple[Partition, Partition], int]:
    """How many vectors 0 <= beta <= ``partition`` give each pair (b, r).

    b = sort(beta) and r = sort(partition - beta), each decreasing with its
    zeros dropped.  Over the k equal parts a of the partition, beta takes
    each multiset of k values in 0..a as many times as its multinomial
    coefficient.
    """
    splits = {((), ()): 1}
    for a, k in collections.Counter(partition).items():
        grown: dict[tuple[Partition, Partition], int] = {}
        for values in itertools.combinations_with_replacement(range(a + 1), k):
            ways = math.factorial(k)
            for repeats in collections.Counter(values).values():
                ways //= math.factorial(repeats)
            taken = tuple(v for v in values if v)
            left = tuple(a - v for v in values if v < a)
            for (b, r), count in splits.items():
                pair = (
                    tuple(sorted(b + taken, reverse=True)),
                    tuple(sorted(r + left, reverse=True)),
                )
                grown[pair] = grown.get(pair, 0) + count * ways
        splits = grown
    return splits


@lru_cache(maxsize=None)
def _mult(nu: Multipartition, d: int) -> dict[tuple[Multipartition, Multipartition], int]:
    """mult(nu; b, r) of :func:`_orbit_product`, for each pair (b, r) it leaves nonzero.

    The number of vectors beta <= nu (nu's exponents, zero past its parts)
    with |beta| = d, sort(beta) = b and sort(nu - beta) = r, sorting within
    each color: the per-color counts of :func:`_color_splits`, multiplied.
    """
    splits = {((), (), 0): 1}  # (b, r) of the colors so far, with |b|
    for partition in nu:
        splits = {
            (b + (cb,), r + (cr,), size + sum(cb)): count * ways
            for (b, r, size), count in splits.items()
            for (cb, cr), ways in _color_splits(partition).items()
            if size + sum(cb) <= d
        }
    return {(b, r): count for (b, r, size), count in splits.items() if size == d}


def _orbit_product(leaves: list[tuple[int, dict]], block: BlockVariables) -> dict:
    """The product of ``leaves``, each ``(degree, leaf)``, on orbit representatives.

    A leaf or product of x-degree d is ``{nu: {rest: coefficient}}`` over
    the multipartitions nu of d, its coefficient at the dominant monomial
    x^nu, the rest a key with its x digits 0.  As it is symmetric within
    each color, that fixes its coefficient at every monomial of nu's orbit
    (the monomials whose exponents sort to nu within each color).
    Multiplying a product P by a leaf L of degree d gives, at each nu of the
    new degree,

        (P L)[nu] = sum over (b, r) of mult(nu; b, r) L[b] P[r],

    summing L[beta] P[nu - beta] over the beta <= nu of |beta| = d by
    orbits (:func:`_mult`); the product is symmetric within each color
    again.  A multiplicity of 1 is not multiplied in.
    """
    (degree, product), *rest = leaves
    for d, leaf in rest:
        degree += d
        out: dict[Multipartition, dict[int, object]] = {}
        for nu in _dominant_keys(block.profile, degree):
            acc: dict[int, object] = {}
            get = acc.get
            for (b, r), count in _mult(nu, d).items():
                left, right = leaf.get(b), product.get(r)
                if left is None or right is None:
                    continue
                for r1, c1 in left.items():
                    if count != 1:
                        c1 = count * c1
                    for r2, c2 in right.items():
                        key = r1 + r2
                        value = get(key)
                        acc[key] = c1 * c2 if value is None else value + c1 * c2
            acc = {key: c for key, c in acc.items() if c}
            if acc:
                out[nu] = acc
        product = out
    return product


# -- closed-form leaves of a table block ------------------------------------------


@lru_cache(maxsize=None)
def _kostka(shape: Partition, content: Partition) -> int:
    """The Kostka number K_{shape, content}, for a partition ``content``.

    The largest value of a semistandard tableau of that content fills a
    horizontal strip of content[-1] boxes, so K is the sum of
    K_{mu, content[:-1]} over the mu that leave one (shape_{i+1} <= mu_i <=
    shape_i); a column holds distinct values, so K is 0 when the shape has
    more rows than the content has parts.
    """
    if len(shape) > len(content):
        return 0
    if not content:
        return 1
    size = sum(shape) - content[-1]
    ranges = (range(b, p + 1) for b, p in zip(shape[1:] + (0,), shape))
    return sum(
        _kostka(tuple(p for p in mu if p), content[:-1])
        for mu in itertools.product(*ranges)
        if sum(mu) == size
    )


def _one_color(partition: Partition, color: int, m: int) -> Multipartition:
    """The multipartition with ``partition`` at ``color`` and every other color empty."""
    return ((),) * (color - 1) + (partition,) + ((),) * (m - color)


def _q_leaf(d: int, i: int, block: BlockVariables) -> dict[Multipartition, dict[int, int]]:
    """q_d^(i) on orbit representatives, in the form :func:`_orbit_product` reads.

    On an all-even profile each color's q_a(x; t) = H_a is
    sum_{lam |- a} (1 - t)^l(lam) m_lam, and q - q^-1 = q (1 - t) at
    t = q^-2, so by the formula of :func:`q_n_i` the coefficient of x^nu
    is q^(d-1) Q_L^i (1 - q^-2)^(N-1): N counts the parts of nu, and L is
    the largest color that has parts.
    """
    rests: dict[tuple[int, int], dict[int, int]] = {}
    leaf = {}
    for nu in multipartitions(block.m, d):
        count = sum(map(len, nu))
        largest = max(c for c, p in enumerate(nu, start=1) if p)
        rest = rests.get((count, largest))
        if rest is None:
            # (1 - q^-2)^(N-1) = sum_j binom(N-1, j) (-1)^j q^(-2j)
            rest = rests[count, largest] = {
                d - 1 - 2 * j + (i << (64 * largest)): (-1) ** j * math.comb(count - 1, j)
                for j in range(count)
            }
        leaf[nu] = rest
    return leaf


def _schur_leaf(shape: Partition, color: int, block: BlockVariables) -> dict[Multipartition, dict]:
    """S_shape(x^(color)) on orbit representatives, in the form :func:`_orbit_product` reads.

    The coefficient of x^nu is the Kostka number K_{shape, nu^(color)}
    (:func:`_kostka`) when every other color of nu is empty.
    """
    leaf = {}
    for content in partitions(sum(shape)):
        count = _kostka(shape, content)
        if count:
            leaf[_one_color(content, color, block.m)] = {0: count}
    return leaf


def _power_leaf(a: int, i: int, block: BlockVariables) -> dict[Multipartition, dict]:
    """P_a^(i) on orbit representatives, in the form :func:`_orbit_product` reads.

    The convention is P_a^(i) = sum_j zeta^(-ij) p_a(x^(j)), as in
    :func:`colored_power_sum`: its terms are the x_v^a, and those of color j
    form one orbit, the single part a in color j, with coefficient
    zeta^(-ij), +-1 at m <= 2.  That is
    the conjugate of what q_a^(i) becomes at q = 1 and Q_j = zeta^j,
    sum_j zeta^(ij) p_a(x^(j)).
    """
    m = block.m
    leaf = {}
    for j in range(1, m + 1):
        power = (-i * j) % m
        root = (-1) ** power if m <= 2 else CyclotomicNumber.zeta(m, power)
        leaf[_one_color((a,), j, m)] = {0: root}
    return leaf


def _leaf_product(factors: list, block: BlockVariables) -> Poly:
    """The product of ``factors``, each ``(key, degree, build, write)``.

    On a full block each leaf is built by ``build()`` and the product is
    formed in full.  On a block with dominant degree n each leaf is written
    once from its closed form by ``write()`` and kept on the block under
    ``key``; the degrees must add up to n, and the product is
    :func:`_orbit_product`, returned on the dominant monomials of degree n.
    Those are all of its terms that a table reads: a product of x-degree n
    symmetric within each color is fixed by them.
    """
    if block.dominant_degree is None:
        total = Poly.one(block.registry)
        for _, _, build, _ in factors:
            total = total * build()
            if total.is_zero():
                break
        return total
    n = block.dominant_degree
    if sum(degree for _, degree, _, _ in factors) != n:
        raise StructuralError(f"a block with dominant degree {n} takes labels of size {n} only")
    leaves = []
    for key, degree, _, write in factors:
        leaf = block._leaves.get(key)
        if leaf is None:
            leaf = block._leaves[key] = write()
        leaves.append((degree, leaf))
    keys = _dominant_keys(block.profile, n)
    product = _orbit_product(leaves, block)
    return Poly._raw(
        block.registry, {keys[nu] + r: c for nu, rest in product.items() for r, c in rest.items()}
    )
