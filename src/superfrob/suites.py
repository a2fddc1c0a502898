"""Named verification suites behind `superfrob verify`.

Each check re-derives one link of the chain connecting the operator algebra,
the symmetric-function identities and the solved character tables, at the
sizes given in the run configuration.  Checks return results instead of
raising, so a report can enumerate every failure with the offending shape or
profile.
"""

from __future__ import annotations

import math
import time
from functools import cache, partial
from fractions import Fraction
from typing import NamedTuple

from superfrob.combinat import (
    HookProfile,
    compositions,
    centralizer_order_sym,
    is_hook_multi,
    multipartitions,
    partitions,
)
from superfrob.exact import Poly
from superfrob.characters import (
    degrees_match_counts,
    frobenius_sums,
    hecke_character_table,
    hecke_identity_violations,
    mn_character,
    specialize_table,
    verify_column_orthogonality,
    verify_orthogonality,
    wreath_character_table,
    wreath_identity_violations,
)
from superfrob.symfunc import (
    BlockVariables,
    colored_power_sum_product,
    complete_homogeneous,
    q_bmu,
    q_tilde,
    super_hall_littlewood_q,
    super_hall_littlewood_q_via_decomposition,
    super_power_sum_product,
    super_schur,
)
from superfrob.tensorrep import (
    FlatVector,
    OperatorWord,
    TensorContext,
    _nonzero,
    apply_word,
    standard_word,
    trace_D_word,
)

SUITE_NAMES = ("relations", "frobenius", "orthogonality", "identities", "all")


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    seconds: float


class SuiteConfig(NamedTuple):
    m: int
    n: int
    bk: tuple[int, ...]
    bl: tuple[int, ...]

    @property
    def profile(self) -> HookProfile:
        return HookProfile(self.bk, self.bl)


def _timed(name: str, fn) -> CheckResult:
    start = time.perf_counter()
    passed, detail = fn()
    return CheckResult(name, passed, detail, time.perf_counter() - start)


# -- relations -----------------------------------------------------------------


def _combine(*pairs: tuple[Poly, FlatVector]) -> FlatVector:
    """The sum of scalar * vec over (scalar, flat vector) pairs, each scalar term
    acting as a key shift times an integer, as in the kernels."""
    out: FlatVector = {}
    get = out.get
    for scalar, vec in pairs:
        for shift, factor in scalar.terms.items():
            for (tup, key), coeff in vec.items():
                entry = (tup, key + shift)
                out[entry] = get(entry, 0) + coeff * factor
    return _nonzero(out)


def _first_failure(
    ctx: TensorContext, entries, first: tuple[int, ...] | None
) -> tuple[int, ...] | None:
    """The earliest, in ``ctx.basis()`` order, of ``first`` and the columns
    that a relation's residual ``entries`` name.

    The residual is taken on v = sum_j c^j e_j, the tagged generating vector
    of one weight space's columns (:meth:`TensorContext.tagged_spaces`).  No
    operator touches the tag, so by linearity the tag-j part of the residual
    is the difference on column j, and column j fails when that part is
    nonzero; each entry reads its column from its tag,
    ``homes[(key + bias) >> shift]``, as in :func:`tensorrep._diagonal`.
    ``ctx.basis()`` runs through the tuples in lexicographic order, so the
    earlier of two tuples is the smaller.
    """
    shift, bias = ctx.registry.tag_codec()
    homes = ctx.tagged_spaces()[0]
    for _, key in entries:
        tup = homes[(key + bias) >> shift]
        if first is None or tup < first:
            first = tup
    return first


def _image(ctx: TensorContext, memo: dict, word: OperatorWord) -> FlatVector:
    """The image of one weight space's generating vector ``memo[()]`` under a
    word: its leftmost atom applied, through ``apply_word``, to the image of
    the rest, so each sub-word's image is computed once and kept in ``memo``."""
    image = memo.get(word)
    if image is None:
        image = memo[word] = apply_word(ctx, word[:1], _image(ctx, memo, word[1:]))
    return image


def suite_relations(config: SuiteConfig) -> list[CheckResult]:
    """Every relation is checked on each basis vector, through the tagged
    generating vector of its weight space, on flat vectors from end to end.

    The weight spaces are walked once.  Each space keeps the images of its
    generating vector by sub-word (:func:`_image`) until the next space, so
    T_a v, T_1 v, D v and shared suffixes such as T_1 T_2 v are computed once
    per space and read by every relation of every check; no two spaces' images
    are held at once.

    Each check lists its relations as (failure template, sides) pairs.  The
    sides of a relation read the space's images and return its two flat
    sides, which are compared as dicts; only on a mismatch is their flat
    difference formed, to find the failing columns.  The first failing
    relation names its first failing basis tuple in the template, and a check
    with no failure reports its pass detail.  A check's seconds are the time
    it spent on each space, so an image counts in the first check that reads
    it.
    """
    ctx = TensorContext(BlockVariables(config.profile), config.n)
    n = config.n
    one, minus_one = ctx.one, -ctx.one
    # T[1] is the type-B generator T_1, T[a] for a >= 2 the Hecke generator T_a
    T = [None, ("T1",)] + [("T", a) for a in range(2, n + 1)]
    D = ("D",)

    def agree(label, word_a, word_b):
        return label + "mismatch on basis vector {}", lambda image: (image(word_a), image(word_b))

    def quadratic(a):
        def sides(image):
            return image((T[a], T[a])), _combine(
                (ctx.q_minus_q_inv, image((T[a],))), (one, image(()))
            )

        return f"T_{a}^2 != (q-q^-1)T_{a} + 1 on {{}}", sides

    def cyclotomic(image):
        # prod (T_1 - Q_i) v = 0 as T_1 w = Q_m w, w the product of the other
        # factors on v, taken one at a time; the first reads the shared T_1 v
        w, T1_w = image(()), image((T[1],))
        for i in range(1, config.m):
            w = _combine((one, T1_w), (-ctx.Q[i], w))
            T1_w = apply_word(ctx, (T[1],), w)
        return T1_w, _combine((ctx.Q[config.m], w))

    checks = {
        "quadratic": ([quadratic(a) for a in range(2, n + 1)], f"T_a quadratic for a=2..{n}"),
        "braid": (
            [
                agree(f"braid T_{a} T_{b}: ", (T[a], T[b], T[a]), (T[b], T[a], T[b]))
                for a, b in zip(range(2, n), range(3, n + 1))
            ],
            f"braid relations for a=2..{n - 1}",
        ),
        "commutation": (
            [
                agree(f"[T_{a}, T_{b}] != 0: ", (T[a], T[b]), (T[b], T[a]))
                for a in range(2, n + 1)
                for b in range(a + 2, n + 1)
            ],
            "distant generators commute",
        ),
        "type-b-braid": (
            [agree("", (T[1], T[2], T[1], T[2]), (T[2], T[1], T[2], T[1]))],
            "T_1 T_2 T_1 T_2 = T_2 T_1 T_2 T_1",
        )
        if n >= 2
        else ([], "skipped for n < 2"),
        "cyclotomic": (
            [("prod (T_1 - Q_i) nonzero on {}", cyclotomic)],
            f"prod_(i=1..{config.m}) (T_1 - Q_i) = 0",
        ),
        "d-commutation": (
            [agree(f"[D, T_{a}] != 0: ", (D, T[a]), (T[a], D)) for a in range(1, n + 1)],
            "D commutes with T_1 and all T_a",
        ),
    }

    clock = time.perf_counter
    seconds = dict.fromkeys(checks, 0.0)
    # per check, per relation: its first failing basis tuple so far
    failures = {name: [None] * len(relations) for name, (relations, _) in checks.items()}
    for _, generating in ctx.tagged_spaces()[1]:
        image = partial(_image, ctx, {(): generating})
        for name, (relations, _) in checks.items():
            start = clock()
            first = failures[name]
            for r, (_, sides) in enumerate(relations):
                lhs, rhs = sides(image)
                if lhs != rhs:
                    residual = _combine((one, lhs), (minus_one, rhs))
                    first[r] = _first_failure(ctx, residual, first[r])
            seconds[name] += clock() - start

    results = []
    for name, (relations, passed) in checks.items():
        details = [
            template.format(tup)
            for (template, _), tup in zip(relations, failures[name])
            if tup is not None
        ]
        detail = details[0] if details else passed
        results.append(CheckResult(name, not details, detail, seconds[name]))
    return results


# -- frobenius -----------------------------------------------------------------


def suite_frobenius(config: SuiteConfig) -> list[CheckResult]:
    block = BlockVariables(config.profile)
    ctx = TensorContext(block, config.n)
    labels = multipartitions(config.m, config.n)
    checks: list[CheckResult] = []

    @cache
    def trace_of(bmu):
        """Trace(D T(bmu)), computed once and compared by both checks."""
        return trace_D_word(ctx, standard_word(bmu, config.n))

    def trace_oracle():
        for bmu in labels:
            lhs = trace_of(bmu)
            rhs = q_bmu(bmu, block)
            if lhs != rhs:
                return False, f"Trace(D T(bmu)) != q_bmu at {bmu}"
        return True, f"{len(labels)} standard words against closed forms"

    checks.append(_timed("trace-oracle", trace_oracle))

    def main_theorem():
        table = hecke_character_table(config.m, config.n)
        for bmu, total in zip(table.cols, frobenius_sums(table, block)):
            if trace_of(bmu) != total:
                return False, f"Frobenius identity fails at {bmu}"
        return True, f"identity on independent profile {config.bk}|{config.bl}"

    checks.append(_timed("main-theorem", main_theorem))
    return checks


# -- orthogonality ---------------------------------------------------------------


def suite_orthogonality(config: SuiteConfig) -> list[CheckResult]:
    checks: list[CheckResult] = []
    specialized = specialize_table(hecke_character_table(config.m, config.n))

    def dual_path():
        wreath = wreath_character_table(config.m, config.n)
        for r in range(len(specialized.rows)):
            for c in range(len(specialized.cols)):
                if wreath.entries[r][c] != specialized.entries[r][c]:
                    return False, (
                        f"specialize vs power-sum solve differ at "
                        f"{specialized.rows[r]}, {specialized.cols[c]}"
                    )
        return True, "specialized table equals the power-sum solve"

    checks.append(_timed("dual-path", dual_path))

    def rows():
        report = verify_orthogonality(specialized)
        if not report.passed:
            return False, f"{len(report.violations)} violating row pairs"
        return True, f"{report.pairs_checked} row pairs"

    checks.append(_timed("row-orthogonality", rows))

    def columns():
        report = verify_column_orthogonality(specialized)
        if not report.passed:
            return False, f"{len(report.violations)} violating column pairs"
        return True, f"{report.pairs_checked} column pairs"

    checks.append(_timed("column-orthogonality", columns))

    def degrees():
        if not degrees_match_counts(specialized):
            return False, "identity column does not match multitableaux counts"
        return True, "degree column equals standard multitableaux counts"

    checks.append(_timed("degree-column", degrees))
    return checks


# -- identities -------------------------------------------------------------------


def suite_identities(config: SuiteConfig) -> list[CheckResult]:
    checks: list[CheckResult] = []
    profile = config.profile

    def eq_qq():
        cases = 0
        for color in range(1, config.m + 1):
            k_i, l_i = config.bk[color - 1], config.bl[color - 1]
            if k_i + l_i == 0:
                continue
            block = BlockVariables(HookProfile((k_i,), (l_i,)))
            sub = block.profile
            t = Poly.var(block.registry, "q", -2)
            for size in range(1, config.n + 1):
                total = Poly.zero(block.registry)
                for weight in compositions(size, sub.k + sub.l):
                    alpha, beta = sub.alpha_beta(weight)
                    total = total + q_tilde(alpha, beta, block)
                lhs = total * block.q_minus_q_inv
                rhs = Poly.var(block.registry, "q", size) * super_hall_littlewood_q(
                    size, block.x_polys(1), block.y_polys(1), t, block.registry
                )
                if lhs != rhs:
                    return False, f"Eq(q-q) fails at color {color}, size {size}"
                cases += 1
        return True, f"{cases} (color, size) cases"

    checks.append(_timed("eq-qq", eq_qq))

    def super_schur_dual():
        block = BlockVariables(profile)
        cases = 0
        for size in range(config.n + 1):
            for bshape in multipartitions(config.m, size):
                branching = super_schur(bshape, block, "branching")
                tableau = super_schur(bshape, block, "tableau")
                if branching != tableau:
                    return False, f"algorithms disagree at {bshape}"
                if branching.is_zero() != (not is_hook_multi(bshape, profile)):
                    return False, f"hook vanishing wrong at {bshape}"
                cases += 1
        return True, f"{cases} multipartitions"

    checks.append(_timed("super-schur-dual", super_schur_dual))

    def king():
        k_1, l_1 = config.bk[0], config.bl[0]
        if k_1 + l_1 == 0:
            return True, "skipped: empty leading color block"
        block = BlockVariables(HookProfile((k_1,), (l_1,)))
        xs, ys = block.x_polys(1), block.y_polys(1)
        cases = 0
        for size in range(1, config.n + 1):
            for lam in partitions(size):
                rhs = Poly.zero(block.registry)
                for mu in partitions(size):
                    weight = Fraction(mn_character(lam, mu), centralizer_order_sym(mu))
                    rhs = rhs + weight * super_power_sum_product(mu, xs, ys, block.registry)
                if super_schur((lam,), block) != rhs:
                    return False, f"King expansion fails at {lam}"
                cases += 1
        return True, f"{cases} partitions"

    checks.append(_timed("king", king))

    def hl_degeneration():
        k_1 = config.bk[0]
        if k_1 == 0:
            return True, "skipped: no x variables in color 1"
        block = BlockVariables(HookProfile((k_1,), (0,)), extra=("t",))
        xs = block.x_polys(1)
        t = Poly.var(block.registry, "t")
        for a in range(config.n + 1):
            if super_hall_littlewood_q(a, xs, [], t).substitute({"t": 0}) != complete_homogeneous(
                a, xs, block.registry
            ):
                return False, f"q_a(x;0) != h_a at a={a}"
        return True, f"t -> 0 degeneration for a <= {config.n}"

    checks.append(_timed("hl-degeneration", hl_degeneration))

    def hl_decomposition():
        k_1, l_1 = config.bk[0], config.bl[0]
        if k_1 + l_1 == 0:
            return True, "skipped: empty leading color block"
        block = BlockVariables(HookProfile((k_1,), (l_1,)), extra=("t",))
        xs, ys = block.x_polys(1), block.y_polys(1)
        t = Poly.var(block.registry, "t")
        for a in range(config.n + 1):
            direct = super_hall_littlewood_q(a, xs, ys, t, block.registry)
            decomposed = super_hall_littlewood_q_via_decomposition(
                a, xs, ys, "t", block.registry
            )
            if direct != decomposed:
                return False, f"decomposition fails at a={a}"
        return True, f"decomposition sum for a <= {config.n}"

    checks.append(_timed("hl-decomposition", hl_decomposition))

    def cancellation():
        colors = [
            i
            for i in range(1, config.m + 1)
            if config.bk[i - 1] >= 1 and config.bl[i - 1] >= 1
        ]
        if not colors:
            return True, "skipped: no color has both x and y variables"
        block = BlockVariables(profile, extra=("u",))
        u = Poly.var(block.registry, "u")
        pos = block.registry.index("u")
        size = min(config.n, 3)
        cases = 0
        for color in colors:
            swap = {
                f"x{color}_{config.bk[color - 1]}": u,
                f"y{color}_{config.bl[color - 1]}": u,
            }
            for bshape in multipartitions(config.m, size):
                for f in (
                    super_schur(bshape, block),
                    colored_power_sum_product(bshape, block),
                ):
                    g = f.substitute(swap)
                    if any(exps[pos] != 0 for exps in g.decoded_terms()):
                        return False, f"u survives for {bshape} in color {color}"
                    cases += 1
        return True, f"{cases} substitutions checked"

    checks.append(_timed("cancellation", cancellation))

    def all_monomial_rows():
        # each route's table against the identity it was solved from, as a
        # polynomial equality: every monomial row, not only the dominant ones
        m, n = config.m, config.n
        for route, failures in (
            ("Hecke", hecke_identity_violations(hecke_character_table(m, n))),
            ("wreath", wreath_identity_violations(wreath_character_table(m, n))),
        ):
            if failures:
                return False, f"{route} identity fails at {failures[0]}"
        rows = math.comb(m * n + n - 1, n)
        return True, f"both routes' identities hold on all {rows} monomial rows"

    checks.append(_timed("all-monomial-rows", all_monomial_rows))
    return checks


def run_suite(name: str, config: SuiteConfig) -> list[CheckResult]:
    if name == "relations":
        return suite_relations(config)
    if name == "frobenius":
        return suite_frobenius(config)
    if name == "orthogonality":
        return suite_orthogonality(config)
    if name == "identities":
        return suite_identities(config)
    if name == "all":
        results = []
        for sub in ("relations", "frobenius", "orthogonality", "identities"):
            results += [r._replace(name=f"{sub}/{r.name}") for r in run_suite(sub, config)]
        return results
    raise ValueError(f"unknown suite {name!r}")
