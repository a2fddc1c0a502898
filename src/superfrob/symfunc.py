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
the full one.  On a block with a dominant degree (the block the character
tables build on, all-even) each leaf is written once from its closed form,
whose coefficients depend only on the per-color sorted exponents, on the
monomials that can still reach a dominant monomial of that degree, and the
product keeps only those (:func:`pruned_product`).  The closed forms are
q^(d-1) Q_L^i (1 - q^-2)^(N-1) for q_d^(i) (:func:`_q_leaf`), Kostka numbers
counted strip by strip for the Schur factors (:func:`_kostka`) and the
roots of P_a^(i) (:func:`_power_leaf`); the full-block paths stay as their
independent cross-checks.
"""

from __future__ import annotations

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

    With ``dominant_degree`` n (all-even profiles only), the block's products
    keep only the monomials that can still reach a dominant monomial of
    x-degree n (:func:`pruned_product`); the block then also keeps each leaf,
    written from its closed form on those monomials (:func:`_leaf_product`),
    and its x-part map (:func:`_x_part`).
    """

    def __init__(
        self,
        profile: HookProfile,
        extra: tuple[str, ...] = (),
        dominant_degree: int | None = None,
    ):
        if dominant_degree is not None and profile.l:
            raise StructuralError("a block with a dominant degree needs an all-even profile")
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
        self._leaves: dict[tuple, dict[int, dict[int, object]]] = {}
        self._x_parts: dict[int, tuple] = {}

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
            (("q", part, i), partial(q_n_i, part, i, block), partial(_q_leaf, part, i, block))
            for i, component in enumerate(bmu, start=1)
            for part in component
        ],
        block,
    )


# -- the x-part map of a table block ---------------------------------------------


@lru_cache(maxsize=None)
def _dominant_keys(profile: HookProfile, degree: int) -> list[int]:
    """The x-part keys of the x-monomials of ``degree`` decreasing within each color.

    One per multipartition of ``degree`` whose color-i partition has at most
    k_i parts, each color's partition padded to k_i, in ``multipartitions``
    order.  The profile must be all-even.
    """
    registry = BlockVariables(profile).registry
    front = (0,) * (1 + profile.m)  # block layout: q, Q_1..Q_m, then the x variables
    return [
        registry.encode(front + sum((p + (0,) * (k - len(p)) for p, k in zip(bl, profile.bk)), ()))
        for bl in multipartitions(profile.m, degree)
        if all(len(p) <= k for p, k in zip(bl, profile.bk))
    ]


@lru_cache(maxsize=None)
def _color_part(exps: tuple[int, ...]) -> tuple[int, int, int]:
    """``(degree, delta, hull)`` of one color's exponent block, all exponents >= 0.

    delta is the key difference, on the block's own digits (digit j worth
    2^(64 j)), from the block to its decreasing sort; the hull is
    sum_i max_{j >= i} a_j.
    """
    hull = top = 0
    for a in reversed(exps):
        if a > top:
            top = a
        hull += top
    delta = sum(
        (r - a) << (64 * j) for j, (r, a) in enumerate(zip(sorted(exps, reverse=True), exps))
    )
    return sum(exps), delta, hull


def _x_part(x: int, block: BlockVariables) -> tuple:
    """The entry of x-part key ``x`` in the block's x-part map, computed and kept on a miss.

    The x part of a term is its key with every digit but the x variables' 0.
    Its entry is ``(degree, delta, fits)``: its x-degree (None when an
    exponent is negative, so that it has no degree); the key difference that
    takes it to its per-color-sorted representative (each color's exponent
    block sorted decreasingly; 0 for a representative, and adding it changes
    no other digit); and whether it fits, its per-color hulls
    h_i = max_{j >= i} a_j summing to at most the block's dominant degree.
    Each is a sum over the colors of :func:`_color_part`.
    """
    exps = block.registry.decode(x)
    if min(exps) < 0:  # only the x digits of an x part can be nonzero
        entry = (None, 0, False)
    else:
        lo = 1 + block.m  # block layout: q, Q_1..Q_m, then the x variables color-major
        degree = delta = hull = 0
        for k in block.profile.bk:
            d, local, h = _color_part(exps[lo : lo + k])
            degree += d
            delta += local << (64 * lo)
            hull += h
            lo += k
        entry = (degree, delta, hull <= block.dominant_degree)
    block._x_parts[x] = entry
    return entry


def _x_digits(block: BlockVariables) -> tuple[int, int, int, int]:
    """:meth:`VariableRegistry.range_digits` of the x variables of a block with a dominant degree.

    ``x = ((((key + bias) >> shift) & mask) << shift) - restore`` is a key's
    x part, and ``key - x`` the rest, the key with its x digits 0.
    """
    if block.dominant_degree is None:
        raise StructuralError("the x-part map needs a block with a dominant degree")
    return block.registry.range_digits(block.x_names())


def _refused(x: int, degree: int, block: BlockVariables) -> ConsistencyError:
    exps = block.registry.decode(x)[1 + block.m :][: block.profile.k]
    kind = "off-table" if sum(exps) == degree and min(exps, default=0) >= 0 else "non-homogeneous"
    return ConsistencyError(f"{kind} term with exponents {exps} (expected degree {degree})")


def coordinates_on_degree(f: Poly, degree: int, block: BlockVariables) -> list[Poly]:
    """f's coordinate at each dominant x-monomial of ``degree``, refusing any other term.

    The final read of a :func:`pruned_product` on a block with a dominant
    degree.  Entries are polynomials in the variables other than x, one per
    dominant monomial (decreasing within each color), in ``multipartitions``
    order.  One pass over ``f.terms`` with the block's x-part map
    (:func:`_x_part`) reads them: a term of another x-degree is refused as
    non-homogeneous (the solver operates on homogeneous expansions only),
    and one of that degree off the dominant monomials as off-table, both
    with ConsistencyError.
    """
    bias, shift, mask, restore = _x_digits(block)
    entry_of = block._x_parts.get
    rows: dict[int, dict] = {}
    for key, coeff in f.terms.items():
        x = ((((key + bias) >> shift) & mask) << shift) - restore
        entry = entry_of(x) or _x_part(x, block)
        if entry[0] != degree or entry[1]:
            raise _refused(x, degree, block)
        rows.setdefault(x, {})[key - x] = coeff
    return [
        Poly._raw(block.registry, rows.get(x, {}), f._in_int32)
        for x in _dominant_keys(block.profile, degree)
    ]




# -- closed-form leaves of a table block ------------------------------------------


@lru_cache(maxsize=None)
def _fitting_blocks(k: int, degree: int, budget: int) -> tuple[tuple[tuple, int, int], ...]:
    """``(exponents, key, hull)`` of each block of k exponents >= 0 of ``degree``, hull <= budget.

    The hull is sum_i max_{j >= i} a_j, and the key sum_j a_j 2^(64 j), on
    the block's own digits.  The block is filled from its last position.
    With suffix maximum s so far, each of the p positions left adds at least
    max(s, its own exponent) to the hull, so at least max(p s, degree left)
    in all: a branch stops as soon as the hull so far plus that passes the
    budget.  From the suffix maximum on, a larger exponent only raises that
    bound, so the loop over the exponent ends there.
    """
    blocks = []

    def fill(p: int, left: int, top: int, hull: int, tail: tuple[int, ...]):
        if p == 0:
            if not left:
                blocks.append((tail, sum(a << (64 * j) for j, a in enumerate(tail)), hull))
            return
        for a in range(left + 1) if p > 1 else (left,):
            s = max(top, a)
            if hull + s + max((p - 1) * s, left - a) > budget:
                if a >= top:
                    break
                continue
            fill(p - 1, left - a, s, hull + s, (a,) + tail)

    fill(k, degree, 0, 0, ())
    return tuple(blocks)


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


def _x_offsets(block: BlockVariables) -> list[int]:
    """The registry index of each color's first x variable."""
    # block layout: q, Q_1..Q_m, then the x variables color-major
    return list(itertools.accumulate(block.profile.bk[:-1], initial=1 + block.m))


def _q_leaf(d: int, i: int, block: BlockVariables) -> dict[int, dict[int, int]]:
    """q_d^(i) on the monomials that fit, in the form :func:`pruned_product` reads.

    On an all-even profile each color's q_a(x; t) = H_a is
    sum_{lam |- a} (1 - t)^l(lam) m_lam, and q - q^-1 = q (1 - t) at
    t = q^-2, so by the formula of :func:`q_n_i` the coefficient of x^alpha
    is q^(d-1) Q_L^i (1 - q^-2)^(N-1): N counts the nonzero exponents of
    alpha, and L is the largest color they touch.  For each split of d over
    the colors the monomials are built color by color, each color's blocks
    fitting in what the colors before it left of the hull budget.
    """
    n, colors = block.dominant_degree, list(zip(block.profile.bk, _x_offsets(block)))
    rests: dict[tuple[int, int], dict[int, int]] = {}
    leaf = {}
    for degrees in compositions(d, block.m):
        largest = max(c for c, a in enumerate(degrees, start=1) if a)
        parts = [(0, 0, 0)]  # (x part, hull, nonzero exponents) of the colors so far
        for a, (k, lo) in zip(degrees, colors):
            parts = [
                (x + (key << (64 * lo)), hull + h, count + k - exps.count(0))
                for x, hull, count in parts
                for exps, key, h in _fitting_blocks(k, a, n - hull)
            ]
        for x, _, count in parts:
            rest = rests.get((count, largest))
            if rest is None:
                # (1 - q^-2)^(N-1) = sum_j binom(N-1, j) (-1)^j q^(-2j)
                rest = rests[count, largest] = {
                    d - 1 - 2 * j + (i << (64 * largest)): (-1) ** j * math.comb(count - 1, j)
                    for j in range(count)
                }
            leaf[x] = rest
    return leaf


def _schur_leaf(shape: Partition, color: int, block: BlockVariables) -> dict[int, dict[int, int]]:
    """S_shape(x^(color)) on the monomials that fit, in the form :func:`pruned_product` reads.

    The coefficient of x^alpha is the Kostka number K_{shape, sort(alpha)}
    (:func:`_kostka`, alpha sorted decreasingly without its zeros).
    """
    lo = _x_offsets(block)[color - 1]
    leaf = {}
    for exps, key, _ in _fitting_blocks(
        block.profile.bk[color - 1], sum(shape), block.dominant_degree
    ):
        count = _kostka(shape, tuple(sorted(filter(None, exps), reverse=True)))
        if count:
            leaf[key << (64 * lo)] = {0: count}
    return leaf


def _power_leaf(a: int, i: int, block: BlockVariables) -> dict[int, dict[int, object]]:
    """P_a^(i) on the monomials that fit, in the form :func:`pruned_product` reads.

    The convention is P_a^(i) = sum_j zeta^(-ij) p_a(x^(j)), as in
    :func:`colored_power_sum`: its terms are the x_v^a, each with
    coefficient zeta^(-i color(v)), +-1 at m <= 2.  That is the conjugate of
    what q_a^(i) becomes at q = 1 and Q_j = zeta^j, sum_j zeta^(ij) p_a(x^(j)).
    At position p of its color x_v^a has hull a p, so it fits iff a p <= n.
    """
    n, m = block.dominant_degree, block.m
    leaf = {}
    for j, (k, lo) in enumerate(zip(block.profile.bk, _x_offsets(block)), start=1):
        power = (-i * j) % m
        rest = {0: (-1) ** power if m <= 2 else CyclotomicNumber.zeta(m, power)}
        for p in range(min(k, n // a)):
            leaf[a << (64 * (lo + p))] = rest
    return leaf


# -- pruned products of closed-form leaves --------------------------------------


def _leaf_product(factors: list, block: BlockVariables) -> Poly:
    """The product of ``factors``, each ``(key, build, write)``.

    On a full block each leaf is built by ``build()`` and the product is
    formed in full.  On a block with a dominant degree each leaf is written
    once from its closed form by ``write()``, on the monomials that fit, and
    kept on the block under ``key``; the product is :func:`pruned_product`.
    """
    if block.dominant_degree is None:
        total = Poly.one(block.registry)
        for _, build, _ in factors:
            total = total * build()
            if total.is_zero():
                break
        return total
    leaves = []
    for key, _, write in factors:
        leaf = block._leaves.get(key)
        if leaf is None:
            leaf = block._leaves[key] = write()
        leaves.append(leaf)
    return pruned_product(leaves, block)


def pruned_product(leaves: list[dict], block: BlockVariables) -> Poly:
    """The product of closed-form leaves, keeping only the monomials that fit.

    Each leaf is ``{x part: {rest: coefficient}}`` over its terms that fit:
    the x part is the key with every other digit 0, the rest the key with
    the x digits 0, both int keys under the registry's linear codec, and
    each term's key is their sum (:func:`_q_leaf`, :func:`_schur_leaf`,
    :func:`_power_leaf`).  With n the block's dominant degree, a monomial
    fits when its per-color hulls h_i = max_{j >= i} a_j (a the color's
    exponent block) sum over the colors to at most n (the verdict of the
    block's x-part map, :func:`_x_part`).  The leaves are multiplied one at
    a time, x part by x part, and a pair whose x parts add up to one that
    does not fit is skipped before its rests are multiplied.  Why the result
    is exact and its dominant terms fix the full product:

    - Adding nonnegative exponents only grows each hull, so every factor
      monomial of a monomial that fits fits too.  Dropping what does not
      fit, in each leaf and after each step, thus drops no pair that could
      still form a monomial that fits: the result is the full product of the
      full leaves, restricted to the monomials that fit.
    - At x-degree n, a monomial fits exactly when it is dominant (decreasing
      within each color): each hull bounds its block entrywise, so the
      hulls sum to at least n, with equality only when every block is its
      own hull.
    - Every leaf is homogeneous and symmetric within each color by
      construction: each closed-form coefficient depends only on the
      per-color sorted exponents.  Sums and products of polynomials
      symmetric within each color are so too.  So the full product is, its
      x-degree is the sum of the leaves' degrees, and at x-degree n its
      coordinates at the dominant monomials, which are exactly the terms of
      the result, fix every monomial coordinate.

    Reading the result with :func:`coordinates_on_degree`, which refuses any
    term that is not a dominant monomial of that degree, is therefore as
    strong as checking the full product's symmetry and reading it.
    """
    if not leaves:
        return Poly.one(block.registry)
    entry_of = block._x_parts.get
    product = leaves[0]
    for leaf in leaves[1:]:
        out: dict[int, dict[int, object]] = {}
        for x1, rest1 in product.items():
            for x2, rest2 in leaf.items():
                x = x1 + x2
                if not (entry_of(x) or _x_part(x, block))[2]:
                    continue
                acc = out.get(x)
                if acc is None:
                    acc = out[x] = {}
                get = acc.get
                for r1, c1 in rest1.items():
                    for r2, c2 in rest2.items():
                        r = r1 + r2
                        value = get(r)
                        if value is None:
                            acc[r] = c1 * c2
                        else:
                            value += c1 * c2
                            if value:
                                acc[r] = value
                            else:
                                del acc[r]
        product = {x: acc for x, acc in out.items() if acc}
    return Poly._raw(
        block.registry, {x + r: c for x, rest in product.items() for r, c in rest.items()}
    )
