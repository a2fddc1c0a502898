"""Tests for the tensor-superspace trace oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superfrob.combinat import (
    HookProfile,
    compositions,
    multipartitions,
    standard_representative,
    wreath_mul,
    wreath_s,
    wreath_t,
)
from superfrob import tensorrep
from superfrob.exact import Poly
from superfrob.symfunc import (
    BlockVariables,
    colored_power_sum_product,
    q_bmu,
    q_n_i,
    q_tilde,
    super_power_sum,
)
from superfrob.tensorrep import TensorContext, classical_trace_D, standard_word, trace_D_word
from tensor_vectors import apply_word, basis_vector, classical_apply


def make_ctx(bk, bl, n):
    return TensorContext(BlockVariables(HookProfile(bk, bl)), n)


def vec_equal(a, b):
    keys = set(a) | set(b)
    for k in keys:
        va, vb = a.get(k), b.get(k)
        if va is None:
            if not vb.is_zero():
                return False
        elif vb is None:
            if not va.is_zero():
                return False
        elif va != vb:
            return False
    return True


def test_phi_s_cases():
    ctx = make_ctx((1,), (1,), 2)
    one = ctx.one
    # equal even entries: fixed with sign +1
    assert apply_word(ctx, (("phis", 2),), {(1, 1): one}) == {(1, 1): one}
    # equal odd entries: sign -1
    assert apply_word(ctx, (("phis", 2),), {(2, 2): one}) == {(2, 2): -one}
    # mixed parities swap with sign (+1)^(0*1)
    assert apply_word(ctx, (("phis", 2),), {(1, 2): one}) == {(2, 1): one}
    with pytest.raises(IndexError):
        apply_word(ctx, (("phis", 3),), {(1, 1): one})


def test_T_action_cases():
    ctx = make_ctx((1,), (1,), 2)
    one = ctx.one
    q, q_inv, qmqi = ctx.q, ctx.q_inv, ctx.q_minus_q_inv
    assert apply_word(ctx, (("T", 2),), {(1, 1): one}) == {(1, 1): q}
    assert apply_word(ctx, (("T", 2),), {(2, 2): one}) == {(2, 2): -q_inv}
    assert apply_word(ctx, (("T", 2),), {(1, 2): one}) == {(1, 2): qmqi, (2, 1): one}
    assert apply_word(ctx, (("T", 2),), {(2, 1): one}) == {(1, 2): one}


def test_T_diagonal_verification_flag():
    # every context checks its equal-index diagonal against the three-case formula
    for bk, bl in [((1,), (1,)), ((2,), (0,)), ((0, 1), (1, 0))]:
        ctx = make_ctx(bk, bl, 2)
        assert ctx.t_diagonal == (ctx.q, -ctx.q_inv)
    ctx = make_ctx((1,), (1,), 2)
    one = ctx.one
    assert apply_word(ctx, (("T", 2),), {(1, 1): one}) == {(1, 1): ctx.q}
    assert apply_word(ctx, (("T", 2),), {(2, 2): one}) == {(2, 2): -ctx.q_inv}


def test_T_diagonal_check_rejects_corrupted_q_inv():
    block = BlockVariables(HookProfile((1,), (1,)))
    block.q_inv = Poly.var(block.registry, "q", -2)
    with pytest.raises(ArithmeticError):
        TensorContext(block, 2)


def test_T_inv_is_inverse():
    ctx = make_ctx((1, 1), (1, 1), 2)
    for tup in ctx.basis():
        v = basis_vector(ctx, tup)
        assert vec_equal(apply_word(ctx, (("Tinv", 2),), apply_word(ctx, (("T", 2),), v)), v)
        assert vec_equal(apply_word(ctx, (("T", 2),), apply_word(ctx, (("Tinv", 2),), v)), v)


def test_S_matches_T_for_single_color():
    ctx = make_ctx((1,), (1,), 2)
    for tup in ctx.basis():
        v = basis_vector(ctx, tup)
        assert vec_equal(apply_word(ctx, (("S", 2),), v), apply_word(ctx, (("T", 2),), v))


def test_S_dispatches_on_color():
    ctx = make_ctx((1, 1), (0, 0), 2)
    one = ctx.one
    # different colors: plain signed swap
    assert apply_word(ctx, (("S", 2),), {(1, 2): one}) == {(2, 1): one}
    # same color: Hecke action
    assert apply_word(ctx, (("S", 2),), {(1, 1): one}) == {(1, 1): ctx.q}


def test_Omega_examples():
    ctx = make_ctx((1, 1), (0, 0), 2)
    one = ctx.one
    assert apply_word(ctx, (("omega", 1, 1),), {(2, 1): one}) == {(2, 1): ctx.Q[2]}
    assert apply_word(ctx, (("omega", 1, 0),), {(2, 1): one}) == {(2, 1): one}
    assert apply_word(ctx, (("omega", 2, 3),), {(2, 1): one}) == {(2, 1): ctx.Q[1] ** 3}
    # same power, other color: a second entry of the context's power table
    assert apply_word(ctx, (("omega", 1, 3),), {(2, 1): one}) == {(2, 1): ctx.Q[2] ** 3}


def test_T1_collapses_for_single_color():
    # m = 1: every S_a is T_a, so the word contracts to Omega_1 = Q_1
    ctx = make_ctx((1,), (1,), 3)
    for tup in ctx.basis():
        v = basis_vector(ctx, tup)
        assert vec_equal(apply_word(ctx, (("T1",),), v), {tup: ctx.Q[1]})


def test_T1_n1_equals_Omega1():
    ctx = make_ctx((1, 1), (1, 1), 1)
    for tup in ctx.basis():
        v = basis_vector(ctx, tup)
        assert vec_equal(apply_word(ctx, (("T1",),), v), apply_word(ctx, (("omega", 1, 1),), v))


@pytest.mark.parametrize("bk,bl,n", [((1, 1), (1, 0), 3), ((1, 0, 1), (0, 1, 0), 2)])
def test_T1_rows_built_per_weight_space_equal_the_one_tuple_chain(bk, bl, n):
    def one_tuple_chain(ctx, tup):
        # Omega_1, then S_2 .. S_n, then T_n^-1 .. T_2^-1 on the one basis pair
        image = tensorrep._Omega_kernel(ctx, 1, 1, {(tup, 0): 1})
        for a in range(2, ctx.n + 1):
            image = tensorrep._S_kernel(ctx, a, image)
        for a in range(ctx.n, 1, -1):
            image = tensorrep._T_inv_kernel(ctx, a, image)
        return image

    ctx = make_ctx(bk, bl, n)
    for tup in ctx.basis():
        assert dict(ctx.T1_row(tup)) == one_tuple_chain(ctx, tup), tup
    # a miss on a fresh context builds the rows of that tuple's weight space only
    for tup in ctx.basis():
        fresh = make_ctx(bk, bl, n)
        fresh.T1_row(tup)
        space = {other for other in ctx.basis() if sorted(other) == sorted(tup)}
        assert set(fresh._T1_rows) == space, tup


def test_cyclotomic_relation_annihilates():
    # (T_1 - Q_1)(T_1 - Q_2) = 0 on every basis vector, m = 2, n = 2
    ctx = make_ctx((1, 1), (1, 1), 2)
    for tup in ctx.basis():
        acc = basis_vector(ctx, tup)
        for i in (1, 2):
            image = apply_word(ctx, (("T1",),), acc)
            for key, value in acc.items():
                image[key] = image.get(key, Poly.zero(ctx.registry)) - value * ctx.Q[i]
            acc = {k: v for k, v in image.items() if not v.is_zero()}
        assert acc == {}


def test_D_diagonal_weights():
    ctx = make_ctx((1,), (1,), 1)
    one = ctx.one
    x = Poly.var(ctx.registry, "x1_1")
    y = Poly.var(ctx.registry, "y1_1")
    assert apply_word(ctx, (("D",),), {(1,): one}) == {(1,): x}
    assert apply_word(ctx, (("D",),), {(2,): one}) == {(2,): -y}
    assert apply_word(ctx, (("D",),), {}) == {}


def test_D_commutes_with_T():
    ctx = make_ctx((1, 1), (1, 1), 2)
    for tup in ctx.basis():
        v = basis_vector(ctx, tup)
        assert vec_equal(
            apply_word(ctx, (("D",),), apply_word(ctx, (("T", 2),), v)),
            apply_word(ctx, (("T", 2),), apply_word(ctx, (("D",),), v)),
        )


def test_trace_identity_word_is_power_sum():
    ctx = make_ctx((1,), (1,), 1)
    block = ctx.block
    expected = super_power_sum(1, block.x_polys(1), block.y_polys(1), ctx.registry)
    assert trace_D_word(ctx, ()) == expected


def test_standard_word_examples():
    assert standard_word(((1,), ()), 1) == (("omega", 1, 1),)
    assert standard_word(((2,),), 2) == (("omega", 2, 1), ("T", 2))
    assert standard_word(((1,), (1,)), 2) == (("omega", 1, 1), ("omega", 2, 2))
    assert standard_word(((2, 1), (1,)), 4) == (
        ("omega", 2, 1),
        ("T", 2),
        ("omega", 3, 1),
        ("omega", 4, 2),
    )
    with pytest.raises(ValueError):
        standard_word(((1,),), 2)


def test_trace_lemma_coxeter_word_m1():
    # Trace(D T_n...T_2) equals the q_tilde sum with unit Q factors
    ctx = make_ctx((1,), (1,), 2)
    block = ctx.block
    profile = ctx.profile
    total = Poly.zero(ctx.registry)
    for weight in compositions(2, profile.k + profile.l):
        alpha, beta = profile.alpha_beta(weight)
        total = total + q_tilde(alpha, beta, block)
    assert trace_D_word(ctx, (("T", 2),)) == total


def omega_t_word(exponents, n):
    """The word Omega_1^{c_1} ... Omega_n^{c_n} T_n ... T_2 of the trace lemma."""
    word = [("omega", j, e) for j, e in enumerate(exponents, start=1) if e]
    word += [("T", a) for a in range(n, 1, -1)]
    return tuple(word)


@pytest.mark.parametrize(
    "bk,bl,n",
    [((1,), (1,), 2), ((1, 1), (1, 1), 2), ((1, 1), (1, 1), 3), ((1, 0), (0, 1), 3)],
)
def test_trace_lemma_with_omega_exponents(bk, bl, n):
    # Trace(D Omega_1^{c_1}..Omega_n^{c_n} T_n..T_2) = sum Q^c_(a;b) q_tilde_(a;b)
    ctx = make_ctx(bk, bl, n)
    block = ctx.block
    profile = ctx.profile
    m = profile.m
    rng = random.Random(20200 + n)
    for _ in range(4):
        exponents = tuple(rng.randrange(0, m + 1) for _ in range(n))
        lhs = trace_D_word(ctx, omega_t_word(exponents, n))
        rhs = Poly.zero(ctx.registry)
        for weight in compositions(n, profile.k + profile.l):
            alpha, beta = profile.alpha_beta(weight)
            # the sorted tuple of this weight, to read off per-position colors
            sorted_tuple = tuple(
                idx
                for idx, count in enumerate(weight, start=1)
                for _ in range(count)
            )
            q_factor = Poly.one(ctx.registry)
            for position, exponent in enumerate(exponents):
                if exponent:
                    color = profile.color_of(sorted_tuple[position])
                    q_factor = q_factor * block.Q(color, exponent)
            rhs = rhs + q_factor * q_tilde(alpha, beta, block)
        assert lhs == rhs


@pytest.mark.parametrize("m", [1, 2, 3])
def test_trace_equals_q_n_i(m):
    # Trace(D T(n,i)) against the closed super Hall-Littlewood form
    bk = (1,) * m
    bl = (1,) * m
    for n in (1, 2, 3):
        ctx = make_ctx(bk, bl, n)
        for i in range(1, m + 1):
            bmu = tuple((n,) if c == i else () for c in range(1, m + 1))
            word = standard_word(bmu, n)
            assert trace_D_word(ctx, word) == q_n_i(n, i, ctx.block)


def test_trace_equals_q_bmu_small():
    for m, n in [(1, 2), (2, 2)]:
        ctx = make_ctx((1,) * m, (1,) * m, n)
        for bmu in multipartitions(m, n):
            word = standard_word(bmu, n)
            assert trace_D_word(ctx, word) == q_bmu(bmu, ctx.block)


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (3, 2), (2, 3), (3, 3)])
def test_classical_trace_equals_colored_power_sum(m, n):
    # q = 1 oracle: Trace(D w(bmu)) = P_bmu with cyclotomic coefficients
    ctx = make_ctx((1,) * m, (1,) * m, n)
    block = ctx.block
    for bmu in multipartitions(m, n):
        w = standard_representative(bmu, m, n)
        assert classical_trace_D(ctx, w, m) == colored_power_sum_product(bmu, block)


def test_apply_word_composition_order():
    ctx = make_ctx((1,), (1,), 2)
    v = basis_vector(ctx, (1, 2))
    # word (D, T2) applies T2 first, then D
    direct = apply_word(ctx, (("D",),), apply_word(ctx, (("T", 2),), v))
    assert vec_equal(apply_word(ctx, (("D",), ("T", 2)), v), direct)


def test_apply_word_acts_on_flat_vectors():
    # (index tuple, monomial key) -> coefficient in, the same form out
    ctx = make_ctx((1,), (1,), 2)
    q_key = next(iter(ctx.q.terms))
    assert tensorrep.apply_word(ctx, (("T", 2),), {((2, 1), 0): 3}) == {((1, 2), 0): 3}
    assert tensorrep.apply_word(ctx, (("T", 2),), {((1, 1), q_key): 1}) == {((1, 1), 2 * q_key): 1}
    assert tensorrep.apply_word(ctx, (("D",), ("T", 2)), {}) == {}


def test_type_a_relations_at_n4():
    # quadratic, braid and distant commutation on every basis vector at n = 4
    from tensor_vectors import vec_add, vec_equal, vec_scale

    for bk, bl in [((2,), (2,)), ((1, 1), (1, 0))]:
        ctx = make_ctx(bk, bl, 4)
        for tup in ctx.basis():
            v = basis_vector(ctx, tup)
            for a in range(2, 5):
                Tv = apply_word(ctx, (("T", a),), v)
                lhs = apply_word(ctx, (("T", a),), Tv)
                rhs = vec_add(vec_scale(Tv, ctx.q_minus_q_inv), v)
                assert vec_equal(lhs, rhs), (bk, bl, a, tup)
            for a in (2, 3):
                braid_lhs = apply_word(ctx, (("T", a), ("T", a + 1), ("T", a)), v)
                braid_rhs = apply_word(ctx, (("T", a + 1), ("T", a), ("T", a + 1)), v)
                assert vec_equal(braid_lhs, braid_rhs), (bk, bl, a, tup)
            far_lhs = apply_word(ctx, (("T", 2), ("T", 4)), v)
            far_rhs = apply_word(ctx, (("T", 4), ("T", 2)), v)
            assert vec_equal(far_lhs, far_rhs), (bk, bl, tup)


def column_by_column_trace(ctx, action):
    # the definition: for every basis tuple in ctx.basis() order, the e_tup
    # coefficient of action(e_tup), weighted by the tuple's D eigenvalue (the
    # test-local _ref_D below)
    total = Poly.zero(ctx.registry)
    for tup in ctx.basis():
        coeff = action(basis_vector(ctx, tup)).get(tup)
        if coeff is not None:
            total = total + _ref_D(ctx, {tup: coeff})[tup]
    return total


@pytest.mark.parametrize(
    "bk,bl,n",
    [((1, 0, 1), (0, 1, 1), 2), ((1, 1, 0), (0, 1, 1), 3), ((1, 1), (1, 1), 3)],
)
def test_weight_space_trace_equals_column_by_column_sum(bk, bl, n):
    # odd variables throughout; m = 3 in the first two profiles
    ctx = make_ctx(bk, bl, n)
    m = ctx.profile.m
    words = [
        (("Tinv", 2), ("omega", 1, 2), ("T1",)),
        (("T1",), ("omega", n, m), ("T", n), ("Tinv", 2)),
        (("S", n), ("phis", 2), ("omega", 2, m + 1), ("T1",), ("T1",)),
    ]
    for word in words:
        expected = column_by_column_trace(ctx, lambda vec: apply_word(ctx, word, vec))
        assert trace_D_word(ctx, word) == expected, word


@pytest.mark.parametrize("bk,bl", [((1, 1), (1, 1)), ((1, 0, 1), (0, 1, 1))])
def test_pruned_trace_follows_entries_that_move_back(bk, bl):
    # a later atom moves a swapped position back, so no step before that
    # atom may drop the entry; the movers are T, Tinv, phis, S and T1
    ctx = make_ctx(bk, bl, 3)
    words = [
        (("T", 2), ("T", 2)),
        (("T", 2), ("T", 3), ("T", 2)),
        (("Tinv", 2), ("T", 2)),
        (("T", 2), ("T1",), ("T", 2)),
        (("T1",), ("T", 2)),
        (("phis", 2), ("T", 2)),
        (("S", 3), ("omega", 3, 1), ("T", 3)),
    ]
    for word in words:
        expected = column_by_column_trace(ctx, lambda vec: apply_word(ctx, word, vec))
        assert trace_D_word(ctx, word) == expected, word


@pytest.mark.parametrize(
    "bk,bl,bmu",
    [
        ((2,), (1,), ((4,),)),
        ((1,), (1,), ((5,),)),
        ((1, 1), (1, 0), ((1,), (4,))),
        ((0, 1), (1, 1), ((4,), (1,))),
    ],
)
def test_pruned_trace_of_a_long_cycle_equals_column_by_column_sum(bk, bl, bmu):
    # one long part: every T step of its cycle prunes
    n = sum(sum(component) for component in bmu)
    ctx = make_ctx(bk, bl, n)
    word = standard_word(bmu, n)
    expected = column_by_column_trace(ctx, lambda vec: apply_word(ctx, word, vec))
    assert trace_D_word(ctx, word) == expected


@pytest.mark.parametrize("bk,bl,n", [((1, 0, 1), (0, 1, 1), 2), ((1, 1, 0), (0, 1, 1), 3)])
def test_weight_space_classical_trace_equals_column_by_column_sum(bk, bl, n):
    ctx = make_ctx(bk, bl, n)
    m = ctx.profile.m
    elements = [
        wreath_t(n, 1, 2, m),
        wreath_s(n, 2),
        wreath_mul(m, wreath_t(n, n, 1, m), wreath_s(n, n)),
    ] + [standard_representative(bmu, m, n) for bmu in multipartitions(m, n)]
    for element in elements:
        expected = column_by_column_trace(
            ctx, lambda vec: classical_apply(ctx, element, vec, m)
        )
        assert classical_trace_D(ctx, element, m) == expected, element


# -- Omegas read on the diagonal, one traced action per T-part -------------------
#
# trace_D_word reads each Omega at a position that no later atom moves on the
# diagonal, and the context keeps the traced action of the remaining atoms
# (the T-part) for every word that shares it.

# on (1,0,1)|(0,1,1) at n = 3: a T-part and words around it, by Omega colors,
# powers and positions; then T-parts that differ from it in one atom
SHARED_T_PART = (("T", 3), ("T", 2))
WORDS_AROUND_ONE_T_PART = [
    (("omega", 3, 1),) + SHARED_T_PART,
    (("omega", 3, 2),) + SHARED_T_PART,
    (("omega", 3, 4),) + SHARED_T_PART,
    (("omega", 3, 3), ("omega", 1, 1)) + SHARED_T_PART,
    (("omega", 2, 0),) + SHARED_T_PART,
    # an Omega between the T steps, at a position the later T_3 does not move
    (("T", 3), ("omega", 1, 2), ("T", 2)),
    SHARED_T_PART,
    # Omegas at positions that a later atom moves: kernel steps, not reads
    SHARED_T_PART + (("omega", 2, 1),),
    (("T", 3), ("omega", 2, 3), ("T", 2)),
    (("T1",), ("omega", 3, 2), ("T", 2)),
    (("omega", 3, 2), ("T1",), ("T", 2)),
    # a D atom, and T-parts one atom away from the shared one
    (("D",), ("omega", 3, 1)) + SHARED_T_PART,
    (("omega", 3, 1), ("T", 2), ("T", 2)),
    (("omega", 3, 1), ("T", 3)),
    (("omega", 3, 2), ("S", 3), ("T", 2)),
]


def test_words_sharing_a_T_part_share_one_traced_action():
    ctx = make_ctx((1, 0, 1), (0, 1, 1), 3)
    expected = {
        word: column_by_column_trace(ctx, lambda vec: apply_word(ctx, word, vec))
        for word in WORDS_AROUND_ONE_T_PART
    }
    # in both orders on one context, so each word meets the kept actions of the others
    for words in (WORDS_AROUND_ONE_T_PART, WORDS_AROUND_ONE_T_PART[::-1]):
        ctx = make_ctx((1, 0, 1), (0, 1, 1), 3)
        for word in words:
            assert trace_D_word(ctx, word) == expected[word], word
        # the first seven words share one T-part, the next eight have one each
        assert len(ctx._diagonals) == 1 + 8
    # atoms given as lists key the same T-part
    word = WORDS_AROUND_ONE_T_PART[3]
    assert trace_D_word(ctx, [list(atom) for atom in word]) == expected[word]
    assert len(ctx._diagonals) == 1 + 8


def test_Omega_read_on_the_diagonal_never_applies_its_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("Omega applied as a kernel step")

    monkeypatch.setattr(tensorrep, "_Omega_kernel", refuse)
    ctx = make_ctx((1, 1), (1, 0), 4)
    for bmu in multipartitions(2, 4):
        assert trace_D_word(ctx, standard_word(bmu, 4)) == q_bmu(bmu, ctx.block), bmu
    with pytest.raises(AssertionError, match="kernel step"):
        trace_D_word(ctx, SHARED_T_PART + (("omega", 2, 1),))


@pytest.mark.parametrize(
    "bk,bl,n,t_parts",
    [((1, 1), (1, 0), 4, 8), ((1, 0, 1), (0, 1, 0), 3, 4), ((1,), (1,), 4, 5)],
)
def test_standard_words_run_one_traced_action_per_T_part(bk, bl, n, t_parts):
    # m = 2: 20 words over 8 T-parts; m = 3: 22 words over 4; at m = 1 every
    # word has its own
    ctx = make_ctx(bk, bl, n)
    labels = multipartitions(ctx.profile.m, n)
    for bmu in labels[::-1]:
        assert trace_D_word(ctx, standard_word(bmu, n)) == q_bmu(bmu, ctx.block), bmu
    assert len(ctx._diagonals) == t_parts


def test_a_folded_Omega_is_checked_as_apply_word_checks_it():
    ctx = make_ctx((1, 1), (1, 0), 3)
    for word in [(("omega", 4, 1),), (("omega", 4, 1), ("T", 2)), (("T", 3), ("omega", 0, 1))]:
        with pytest.raises(IndexError, match="Omega index"):
            trace_D_word(ctx, word)
        with pytest.raises(IndexError, match="Omega index"):
            tensorrep.apply_word(ctx, word, {})
    for word in [(("omega", 1, -1),), (("omega", 1, -1), ("T", 3))]:
        with pytest.raises(IndexError, match="nonnegative"):
            trace_D_word(ctx, word)
    # atoms are checked in word order, whichever of them is read on the diagonal
    with pytest.raises(IndexError, match="T index"):
        trace_D_word(ctx, (("T", 4), ("omega", 4, 1)))
    with pytest.raises(IndexError, match="Omega index"):
        trace_D_word(ctx, (("omega", 4, 1), ("T", 4)))


# -- the kernels against a per-Poly reference of the three-case formula ----------
#
# A test-local reference of each atom's action on {tuple: Poly} vectors, written
# from the definitions: the equal-index case of T_a uses the unsimplified
# formula ((q - q^-1) + (-1)^p (q + q^-1)) / 2, and D multiplies the x / -y
# weights of every tuple afresh.


def _ref_add(out, tup, value):
    total = out[tup] + value if tup in out else value
    if total.is_zero():
        out.pop(tup, None)
    else:
        out[tup] = total


def _ref_swap(ctx, a, tup):
    left, right = tup[a - 2], tup[a - 1]
    sign = -1 if ctx.profile.parity_of(left) and ctx.profile.parity_of(right) else 1
    return tup[: a - 2] + (right, left) + tup[a:], sign


def _ref_phis(ctx, a, vec):
    out = {}
    for tup, coeff in vec.items():
        new, sign = _ref_swap(ctx, a, tup)
        _ref_add(out, new, coeff * sign)
    return out


def _ref_T(ctx, a, vec):
    reg = ctx.registry
    q, q_inv = Poly.var(reg, "q"), Poly.var(reg, "q", -1)
    out = {}
    for tup, coeff in vec.items():
        left, right = tup[a - 2], tup[a - 1]
        if left == right:
            sign = -1 if ctx.profile.parity_of(left) else 1
            diagonal = Fraction(1, 2) * ((q - q_inv) + sign * (q + q_inv))
            _ref_add(out, tup, coeff * diagonal)
            continue
        new, sign = _ref_swap(ctx, a, tup)
        _ref_add(out, new, coeff * sign)
        if left < right:
            _ref_add(out, tup, coeff * (q - q_inv))
    return out


def _ref_Tinv(ctx, a, vec):
    reg = ctx.registry
    out = _ref_T(ctx, a, vec)
    for tup, coeff in vec.items():
        _ref_add(out, tup, -coeff * (Poly.var(reg, "q") - Poly.var(reg, "q", -1)))
    return out


def _ref_S(ctx, a, vec):
    out = {}
    for tup, coeff in vec.items():
        same = ctx.profile.color_of(tup[a - 2]) == ctx.profile.color_of(tup[a - 1])
        image = (_ref_T if same else _ref_phis)(ctx, a, {tup: coeff})
        for key, value in image.items():
            _ref_add(out, key, value)
    return out


def _ref_omega(ctx, j, power, vec):
    out = {}
    for tup, coeff in vec.items():
        color = ctx.profile.color_of(tup[j - 1])
        _ref_add(out, tup, coeff * Poly.var(ctx.registry, f"Q{color}", power))
    return out


def _ref_T1(ctx, vec):
    vec = _ref_omega(ctx, 1, 1, vec)
    for a in range(2, ctx.n + 1):
        vec = _ref_S(ctx, a, vec)
    for a in range(ctx.n, 1, -1):
        vec = _ref_Tinv(ctx, a, vec)
    return vec


def _ref_D(ctx, vec):
    out = {}
    for tup, coeff in vec.items():
        for index in tup:
            kind, color, pos = ctx.profile.symbol_of(index)
            weight = Poly.var(ctx.registry, f"{kind}{color}_{pos}")
            coeff = coeff * (weight if kind == "x" else -weight)
        _ref_add(out, tup, coeff)
    return out


def _ref_apply_word(ctx, word, vec):
    for atom in reversed(word):
        kind = atom[0]
        if kind == "T1":
            vec = _ref_T1(ctx, vec)
        elif kind == "D":
            vec = _ref_D(ctx, vec)
        elif kind == "omega":
            vec = _ref_omega(ctx, atom[1], atom[2], vec)
        else:
            reference = {"T": _ref_T, "Tinv": _ref_Tinv, "S": _ref_S, "phis": _ref_phis}
            vec = reference[kind](ctx, atom[1], vec)
    return vec


@st.composite
def _words_on_vectors(draw):
    # odd variables throughout; m = 3 in the first two profiles
    profiles = [((1, 1, 0), (0, 1, 1), 3), ((1, 0, 1), (0, 1, 1), 2), ((1, 1), (1, 1), 3)]
    ctx = make_ctx(*draw(st.sampled_from(profiles)))
    m, n = ctx.profile.m, ctx.n
    generator = st.tuples(st.sampled_from(["T", "Tinv", "S", "phis"]), st.integers(2, n))
    omega = st.tuples(st.just("omega"), st.integers(1, n), st.integers(0, m + 1))
    atom = st.one_of(generator, omega, st.just(("T1",)), st.just(("D",)))
    word = tuple(draw(st.lists(atom, max_size=6)))
    index = st.integers(1, ctx.size)
    tuples = draw(st.lists(st.tuples(*[index] * n), min_size=1, max_size=3, unique=True))
    # a start vector with coefficients off the unit: q^-1, Q_m and a sign
    coefficients = [ctx.one, -ctx.q_inv, ctx.Q[m] + ctx.q]
    vec = {tup: coefficients[i % 3] for i, tup in enumerate(tuples)}
    return ctx, word, vec


@settings(max_examples=60, deadline=None)
@given(_words_on_vectors())
def test_kernels_match_the_per_poly_three_case_reference(case):
    ctx, word, vec = case
    assert vec_equal(apply_word(ctx, word, vec), _ref_apply_word(ctx, word, vec))


# -- the weight-space traces against column_by_column_trace, on random input ------


@st.composite
def _small_contexts(draw):
    # m <= 2 colors, k + l <= 3 variables in all, n <= 3
    m = draw(st.integers(1, 2))
    counts = []
    for _ in range(2 * m):
        counts.append(draw(st.integers(0, 3 - sum(counts))))
    if not sum(counts):
        counts[draw(st.integers(0, 2 * m - 1))] = 1
    n = draw(st.integers(1, 3))
    return make_ctx(tuple(counts[:m]), tuple(counts[m:]), n)


@st.composite
def _traced_words(draw):
    ctx = draw(_small_contexts())
    m, n = ctx.profile.m, ctx.n
    atoms = [
        st.tuples(st.just("omega"), st.integers(1, n), st.integers(0, m + 1)),
        st.just(("T1",)),
        st.just(("D",)),
    ]
    if n >= 2:
        kinds = st.sampled_from(["T", "Tinv", "S", "phis"])
        atoms.append(st.tuples(kinds, st.integers(2, n)))
    word = tuple(draw(st.lists(st.one_of(atoms), max_size=6)))
    return ctx, word


@settings(max_examples=60, deadline=None)
@given(_traced_words())
def test_trace_D_word_equals_the_per_column_reference(case):
    ctx, word = case
    expected = column_by_column_trace(ctx, lambda vec: apply_word(ctx, word, vec))
    assert trace_D_word(ctx, word) == expected, word


@st.composite
def _words_around_T_parts(draw):
    # a few T-parts on one context, each with Omegas put in at random places
    ctx, base = draw(_traced_words())
    m, n = ctx.profile.m, ctx.n
    omegas = st.tuples(st.just("omega"), st.integers(1, n), st.integers(0, m + 1))
    words = []
    for _ in range(draw(st.integers(2, 4))):
        word = list(base[: draw(st.integers(0, len(base)))])
        for _ in range(draw(st.integers(0, 2))):
            word.insert(draw(st.integers(0, len(word))), draw(omegas))
        words.append(tuple(word))
    return ctx, words


@settings(max_examples=40, deadline=None)
@given(_words_around_T_parts())
def test_traces_on_one_context_equal_the_per_column_reference(case):
    ctx, words = case
    for word in words:
        expected = column_by_column_trace(ctx, lambda vec: apply_word(ctx, word, vec))
        assert trace_D_word(ctx, word) == expected, word


@st.composite
def _wreath_elements(draw):
    ctx = draw(_small_contexts())
    m, n = ctx.profile.m, ctx.n
    colors = tuple(draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
    perm = tuple(draw(st.permutations(range(n))))
    return ctx, (colors, perm)


@settings(max_examples=40, deadline=None)
@given(_wreath_elements())
def test_classical_trace_D_equals_the_per_column_reference(case):
    ctx, element = case
    m = ctx.profile.m
    expected = column_by_column_trace(ctx, lambda vec: classical_apply(ctx, element, vec, m))
    assert classical_trace_D(ctx, element, m) == expected, element
