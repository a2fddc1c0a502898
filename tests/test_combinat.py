"""Tests for partitions, tableaux, hook conditions and wreath bookkeeping."""

import itertools
import math
from functools import lru_cache

import pytest

from superfrob.combinat import (
    HookProfile,
    WreathElement,
    centralizer_order_sym,
    centralizer_order_wreath,
    compositions,
    conjugate,
    count_super_tableaux,
    count_super_tableaux_multi,
    hook_length_count,
    is_hook,
    is_hook_multi,
    multipartitions,
    partitions,
    standard_multitableaux_count,
    standard_representative,
    sub_partitions,
    super_tableaux,
    wreath_identity,
    wreath_mul,
    wreath_s,
    wreath_t,
)


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """Independent oracle: Euler's pentagonal number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while k * (3 * k - 1) // 2 <= n:
        sign = -1 if k % 2 == 0 else 1
        total += sign * partition_count(n - k * (3 * k - 1) // 2)
        if k * (3 * k + 1) // 2 <= n:
            total += sign * partition_count(n - k * (3 * k + 1) // 2)
        k += 1
    return total


def test_partitions_base_cases():
    assert partitions(0) == ((),)
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(partitions(6)) == 11


def test_partition_counts_match_pentagonal_recurrence():
    for n in range(13):
        assert len(partitions(n)) == partition_count(n)
        assert all(sum(p) == n for p in partitions(n))
        assert all(
            all(p[i] >= p[i + 1] > 0 for i in range(len(p) - 1)) or len(p) <= 1
            for p in partitions(n)
        )


def test_partitions_reverse_lex_order():
    for n in range(2, 10):
        ps = partitions(n)
        assert all(ps[i] > ps[i + 1] for i in range(len(ps) - 1))


def test_compositions_examples():
    assert compositions(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert compositions(0, 3) == ((0, 0, 0),)
    assert len(compositions(3, 2)) == 4


def test_compositions_counts_stars_and_bars():
    for n in range(6):
        for length in range(1, 5):
            assert len(compositions(n, length)) == math.comb(n + length - 1, length - 1)


def test_multipartitions_examples():
    assert multipartitions(2, 1) == ((((1,), ())), ((), (1,)))
    assert len(multipartitions(2, 2)) == 5
    for k in range(6):
        assert multipartitions(1, k) == tuple((p,) for p in partitions(k))


def test_multipartitions_sizes():
    for m in (1, 2, 3):
        for n in range(5):
            expected = sum(
                math.prod(partition_count(c) for c in split)
                for split in compositions(n, m)
            )
            assert len(multipartitions(m, n)) == expected


def test_sub_partitions():
    subs = list(sub_partitions((2, 1)))
    assert subs == [(2, 1), (2,), (1, 1), (1,), ()]
    assert len(set(subs)) == len(subs)


def test_is_hook_examples():
    assert not is_hook((2, 2), 1, 1)
    assert is_hook((7,), 1, 0)
    assert is_hook((1, 1, 1), 0, 1)


def test_conjugate():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate(conjugate((4, 2, 1))) == (4, 2, 1)


def test_centralizer_order_sym_examples():
    assert centralizer_order_sym((1, 1, 1)) == 6
    assert centralizer_order_sym((3,)) == 3
    assert centralizer_order_sym((2, 2, 1)) == 8


def test_centralizer_order_sym_brute_force():
    # conjugation oracle inside S_5 for cycle type (2,2,1)
    def cycle_type(perm):
        seen, lengths = set(), []
        for start in range(len(perm)):
            if start in seen:
                continue
            length, node = 0, start
            while node not in seen:
                seen.add(node)
                node = perm[node]
                length += 1
            lengths.append(length)
        return tuple(sorted(lengths, reverse=True))

    target = next(
        p for p in itertools.permutations(range(5)) if cycle_type(p) == (2, 2, 1)
    )
    count = 0
    for g in itertools.permutations(range(5)):
        gw = tuple(g[target[i]] for i in range(5))
        wg = tuple(target[g[i]] for i in range(5))
        if gw == wg:
            count += 1
    assert count == centralizer_order_sym((2, 2, 1))


def test_centralizer_order_wreath_examples():
    assert centralizer_order_wreath(((1,), ()), 2) == 2
    assert centralizer_order_wreath(((1, 1), ()), 2) == 8
    assert centralizer_order_wreath(((1,), (1,)), 2) == 4


# -- brute-force wreath references ---------------------------------------------


def all_wreath_elements(m: int, n: int):
    for colors in itertools.product(range(m), repeat=n):
        for perm in itertools.permutations(range(n)):
            yield (colors, perm)


def wreath_inverse(m: int, a: WreathElement) -> WreathElement:
    ca, sa = a
    inv = [0] * len(sa)
    for i, image in enumerate(sa):
        inv[image] = i
    colors = tuple((-ca[sa[i]]) % m for i in range(len(ca)))
    return (colors, tuple(inv))


def wreath_centralizer_brute(w: WreathElement, m: int, n: int) -> int:
    return sum(
        1
        for g in all_wreath_elements(m, n)
        if wreath_mul(m, g, w) == wreath_mul(m, w, g)
    )


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
def test_centralizer_order_wreath_brute_force(m, n):
    for bmu in multipartitions(m, n):
        w = standard_representative(bmu, m, n)
        assert wreath_centralizer_brute(w, m, n) == centralizer_order_wreath(bmu, m)


def test_class_equation():
    for m in (1, 2, 3):
        for n in range(6):
            group_order = m**n * math.factorial(n)
            assert (
                sum(group_order // centralizer_order_wreath(b, m) for b in multipartitions(m, n))
                == group_order
            )


def test_wreath_group_axioms():
    m, n = 3, 3
    elements = list(all_wreath_elements(m, n))
    assert len(elements) == m**n * math.factorial(n)
    e = wreath_identity(n)
    t1 = wreath_t(n, 1, 1, m)
    s2 = wreath_s(n, 2)
    # t_1 has order m, s_2 has order 2, and t_2 = s_2 t_1 s_2
    acc = e
    for _ in range(m):
        acc = wreath_mul(m, acc, t1)
    assert acc == e
    assert wreath_mul(m, s2, s2) == e
    t2 = wreath_mul(m, wreath_mul(m, s2, t1), s2)
    assert t2 == wreath_t(n, 2, 1, m)
    for g in elements[:50]:
        assert wreath_mul(m, g, wreath_inverse(m, g)) == e


def test_standard_representative_small():
    # ((2)) at m=1: t_2 s_2 has color vector (0,1) and the transposition
    w = standard_representative(((2,),), 1, 2)
    assert w == ((0, 0), (1, 0))  # colors mod 1 vanish
    w = standard_representative(((2,),), 2, 2)
    assert w == ((0, 1), (1, 0))
    # ((1);(1)) at m=2: t_1^1 t_2^2 with identity permutation
    w = standard_representative(((1,), (1,)), 2, 2)
    assert w == ((1, 0), (0, 1))


def test_super_tableaux_counts_examples():
    assert count_super_tableaux((1,), 1, 0) == 1
    assert count_super_tableaux((2,), 1, 1) == 2
    assert count_super_tableaux((1, 1), 1, 1) == 2


def super_tableaux_multi(bshape, profile):
    """All multi-component fillings; empty iff bshape is not a hook multipartition."""
    if len(bshape) != profile.m:
        raise ValueError("component count does not match profile")
    per_component = [
        tuple(super_tableaux(shape, profile.bk[i], profile.bl[i]))
        for i, shape in enumerate(bshape)
    ]
    return itertools.product(*per_component)


def test_super_tableaux_multi_product():
    profile = HookProfile((1, 1), (1, 1))
    bshape = ((2,), (1, 1))
    fillings = list(super_tableaux_multi(bshape, profile))
    assert len(fillings) == count_super_tableaux_multi(bshape, profile) == 4


def test_hook_tableau_equivalence():
    # s(bshape) != 0 exactly on hook multipartitions
    profiles = []
    for m in (1, 2):
        per_color = [
            (k, l) for k in range(4) for l in range(4) if k + l <= 3
        ]
        for combo in itertools.product(per_color, repeat=m):
            bk = tuple(c[0] for c in combo)
            bl = tuple(c[1] for c in combo)
            if sum(bk) + sum(bl) == 0:
                continue
            profiles.append(HookProfile(bk, bl))
    for profile in profiles:
        for n in range(5):
            for bshape in multipartitions(profile.m, n):
                nonzero = count_super_tableaux_multi(bshape, profile) != 0
                assert nonzero == is_hook_multi(bshape, profile)


def test_hook_profile_validates_and_keys_by_value():
    for bk, bl, message in [
        ((1,), (1, 1), "one entry per color"),
        ((1, -1), (0, 1), "nonnegative"),
        ((0, 0), (0, 0), "at least one variable"),
    ]:
        with pytest.raises(ValueError, match=message):
            HookProfile(bk, bl)
        with pytest.raises(ValueError, match=message):
            HookProfile(bk=bk, bl=bl)
    profile = HookProfile(bk=(1, 2), bl=(0, 1))
    assert profile == HookProfile((1, 2), (0, 1))
    assert {profile: "kept"}[HookProfile((1, 2), (0, 1))] == "kept"
    assert (profile.bk, profile.bl) == ((1, 2), (0, 1))


def test_hook_profile_layout():
    profile = HookProfile((1, 2), (1, 1))
    # block 1: x1, y1 -> indices 1, 2; block 2: x2 x2, y2 -> indices 3, 4, 5
    assert profile.dims == (2, 5)
    assert [profile.color_of(i) for i in range(1, 6)] == [1, 1, 2, 2, 2]
    assert [profile.parity_of(i) for i in range(1, 6)] == [0, 1, 0, 0, 1]
    assert profile.symbol_of(2) == ("y", 1, 1)
    assert profile.symbol_of(4) == ("x", 2, 2)
    assert profile.global_index("y", 2, 1) == 5
    assert profile.weight((1, 3, 3)) == (1, 0, 2, 0, 0)
    assert profile.alpha_beta((1, 0, 2, 0, 0)) == ((1, 2, 0), (0, 0))


def test_hook_length_count_known_values():
    assert hook_length_count(()) == 1
    assert hook_length_count((2, 1)) == 2
    assert hook_length_count((3, 2)) == 5
    assert hook_length_count((2, 2)) == 2


def syt_count_recursive(bshape):
    """Independent oracle: peel the largest entry off a removable corner."""
    total_boxes = sum(sum(c) for c in bshape)
    if total_boxes == 0:
        return 1
    total = 0
    for ci, component in enumerate(bshape):
        for row in range(len(component)):
            can_remove = component[row] > 0 and (
                row + 1 == len(component) or component[row + 1] < component[row]
            )
            if not can_remove:
                continue
            new_component = list(component)
            new_component[row] -= 1
            if new_component[row] == 0:
                new_component.pop(row)
            smaller = list(bshape)
            smaller[ci] = tuple(new_component)
            total += syt_count_recursive(tuple(smaller))
    return total


def test_standard_multitableaux_count_examples():
    assert standard_multitableaux_count(((4,), ())) == 1
    assert standard_multitableaux_count(((1,), (1,))) == 2
    assert standard_multitableaux_count(((2, 1),)) == 2


def test_standard_multitableaux_count_against_corner_recursion():
    for m in (1, 2):
        for n in range(5):
            for bshape in multipartitions(m, n):
                assert standard_multitableaux_count(bshape) == syt_count_recursive(bshape)


def test_super_tableaux_filling_structure():
    # x_1 = 1 may repeat along the row, y_1 = 2 may not
    assert list(super_tableaux((2,), 1, 1)) == [((1, 1),), ((1, 2),)]


def test_schur_weyl_dimension_identity_single_color():
    # sum over shapes of (super tableau count) * (standard tableau count) = (k+l)^n
    for k, l in [(2, 1), (1, 1), (2, 2)]:
        profile = HookProfile((k,), (l,))
        for n in range(1, 5):
            total = sum(
                count_super_tableaux_multi(bshape, profile)
                * standard_multitableaux_count(bshape)
                for bshape in multipartitions(1, n)
            )
            assert total == (k + l) ** n
