"""The verification suites pass on small configurations."""

import itertools
from collections import Counter

import pytest

import superfrob.suites
from superfrob.characters import hecke_character_table
from superfrob.combinat import multipartitions
from superfrob.suites import SuiteConfig, run_suite, suite_frobenius, suite_relations
from superfrob.symfunc import BlockVariables
from superfrob.tensorrep import TensorContext
from tensor_vectors import basis_vector, to_flat, to_polys, vec_add, vec_equal, vec_scale


def test_run_all_small():
    config = SuiteConfig(m=2, n=2, bk=(1, 1), bl=(1, 1))
    results = run_suite("all", config)
    failed = [r for r in results if not r.passed]
    assert not failed, f"failed checks: {[(r.name, r.detail) for r in failed]}"
    names = [r.name for r in results]
    assert "relations/cyclotomic" in names
    assert "frobenius/main-theorem" in names
    assert "orthogonality/dual-path" in names
    assert "identities/eq-qq" in names
    assert "identities/all-monomial-rows" in names
    assert all(r.seconds >= 0 for r in results)


def test_relations_mixed_profile():
    config = SuiteConfig(m=3, n=2, bk=(1, 0, 1), bl=(0, 1, 0))
    results = suite_relations(config)
    assert all(r.passed for r in results), [
        (r.name, r.detail) for r in results if not r.passed
    ]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("bogus", SuiteConfig(m=1, n=1, bk=(1,), bl=(1,)))


def test_suite_all_solves_the_hecke_table_once():
    # main-theorem, orthogonality and the all-monomial-rows audit share one solve
    hecke_character_table.cache_clear()
    results = run_suite("all", SuiteConfig(1, 2, (1,), (1,)))
    assert all(r.passed for r in results)
    info = hecke_character_table.cache_info()
    assert info.misses == 1
    assert info.hits >= 2


def test_frobenius_suite_computes_each_trace_once(monkeypatch):
    # trace-oracle and main-theorem compare the same trace, computed once per label
    config = SuiteConfig(m=2, n=2, bk=(1, 1), bl=(1, 1))
    true_trace = superfrob.suites.trace_D_word
    calls = []

    def counted(ctx, word):
        calls.append(word)
        return true_trace(ctx, word)

    monkeypatch.setattr(superfrob.suites, "trace_D_word", counted)
    results = suite_frobenius(config)
    assert [r.name for r in results] == ["trace-oracle", "main-theorem"]
    assert all(r.passed for r in results), [(r.name, r.detail) for r in results]
    assert len(calls) == len(multipartitions(2, 2))

    # the shared trace still reaches both checks: a wrong trace fails each of them
    monkeypatch.setattr(
        superfrob.suites, "trace_D_word", lambda ctx, word: true_trace(ctx, word) + 1
    )
    results = suite_frobenius(config)
    assert [r.passed for r in results] == [False, False]


def test_relations_walk_each_weight_space_once_sharing_its_images(monkeypatch):
    config = SuiteConfig(m=2, n=4, bk=(1, 1), bl=(1, 0))
    true_apply = superfrob.suites.apply_word
    calls = []

    def recorded(ctx, word, vec):
        calls.append((ctx, word, vec))
        return true_apply(ctx, word, vec)

    monkeypatch.setattr(superfrob.suites, "apply_word", recorded)
    results = suite_relations(config)
    assert all(r.passed for r in results), [(r.name, r.detail) for r in results]
    ctx = calls[0][0]
    generating = {weight: vec for weight, vec in ctx.tagged_spaces()[1]}
    walk, one_atom = [], Counter()
    for _, word, vec in calls:
        # every input lies in one weight space: the images held at once are one
        # space's (the cyclotomic product vanishes early on a one-color space)
        weights = {tuple(sorted(tup)) for tup, _ in vec}
        assert len(weights) <= 1, word
        if not weights:
            continue
        (weight,) = weights
        walk.append(weight)
        if vec == generating[weight]:
            one_atom[weight, word] += 1
    # the spaces are walked once each, and each one-atom image of a space's
    # generating vector is computed once there
    assert len([weight for weight, _ in itertools.groupby(walk)]) == len(generating)
    atoms = [("T1",), ("D",)] + [("T", a) for a in range(2, config.n + 1)]
    assert one_atom == Counter({(weight, (atom,)): 1 for weight in generating for atom in atoms})


# -- relation failures name the first failing basis tuple -------------------------


def _corrupt(monkeypatch, atom, target):
    """Make the suite's operator word act with atom X replaced by X + X P, P the
    projection onto the basis tuple target: X scales that tuple's image by 2.
    The suite's words act on flat vectors, so P keeps the entries on target."""
    true_apply = superfrob.suites.apply_word

    def corrupted(ctx, word, vec):
        for step in reversed(word):
            image = true_apply(ctx, (step,), vec)
            if step == atom:
                projected = {entry: coeff for entry, coeff in vec.items() if entry[0] == target}
                for entry, coeff in true_apply(ctx, (step,), projected).items():
                    image[entry] = image.get(entry, 0) + coeff
                image = {entry: coeff for entry, coeff in image.items() if coeff}
            vec = image
        return vec

    monkeypatch.setattr(superfrob.suites, "apply_word", corrupted)


def _per_basis_failures(config):
    """Each relation check as a loop over the basis vectors in ctx.basis() order:
    the detail naming the first failing tuple, or None, by check name."""
    ctx = TensorContext(BlockVariables(config.profile), config.n)
    n = config.n

    def apply(ctx, word, v):
        return to_polys(ctx, superfrob.suites.apply_word(ctx, word, to_flat(ctx, v)))

    def agree(word_a, word_b):
        return lambda v: (apply(ctx, word_a, v), apply(ctx, word_b, v))

    def quadratic(a):
        def sides(v):
            Tv = apply(ctx, (("T", a),), v)
            return apply(ctx, (("T", a),), Tv), vec_add(vec_scale(Tv, ctx.q_minus_q_inv), v)

        return sides

    def cyclotomic(v):
        for i in range(1, config.m + 1):
            v = vec_add(apply(ctx, (("T1",),), v), vec_scale(v, -ctx.Q[i]))
        return v, {}

    T, T1, D = (lambda a: ("T", a)), ("T1",), ("D",)
    mismatch = "mismatch on basis vector {}"
    cases = {
        "quadratic": [
            (f"T_{a}^2 != (q-q^-1)T_{a} + 1 on {{}}", quadratic(a)) for a in range(2, n + 1)
        ],
        "braid": [
            (f"braid T_{a} T_{a + 1}: {mismatch}", agree((T(a), T(a + 1), T(a)), (T(a + 1), T(a), T(a + 1))))
            for a in range(2, n)
        ],
        "commutation": [
            (f"[T_{a}, T_{b}] != 0: {mismatch}", agree((T(a), T(b)), (T(b), T(a))))
            for a in range(2, n + 1)
            for b in range(a + 2, n + 1)
        ],
        "type-b-braid": [(mismatch, agree((T1, T(2), T1, T(2)), (T(2), T1, T(2), T1)))],
        "cyclotomic": [("prod (T_1 - Q_i) nonzero on {}", cyclotomic)],
        "d-commutation": [(f"[D, T_1] != 0: {mismatch}", agree((D, T1), (T1, D)))]
        + [(f"[D, T_{a}] != 0: {mismatch}", agree((D, T(a)), (T(a), D))) for a in range(2, n + 1)],
    }
    failures = {}
    for name, relations in cases.items():
        failures[name] = None
        for template, sides in relations:
            tup = next((t for t in ctx.basis() if not vec_equal(*sides(basis_vector(ctx, t)))), None)
            if tup is not None:
                failures[name] = template.format(tup)
                break
    return failures


@pytest.mark.parametrize(
    "atom,affected",
    [
        (("T", 2), {"quadratic", "braid", "commutation", "type-b-braid"}),
        (("T1",), {"type-b-braid", "cyclotomic"}),
        (("D",), {"d-commutation"}),
        # a corrupted image that several relations share: T_3 v is read by both
        # braid relations, T_4 v by one of them and by the commutation pair
        (("T", 3), {"quadratic", "braid"}),
        (("T", 4), {"quadratic", "braid", "commutation"}),
    ],
)
def test_relation_failures_name_the_first_failing_basis_tuple(monkeypatch, atom, affected):
    # P commutes with D, so d-commutation fails only when D itself is
    # corrupted (D + DP does not commute with T_1 or T_a); target sits
    # mid-basis, and for T_2 the tuple (1, 2, 3, 1) swapped onto it fails before it
    config = SuiteConfig(m=2, n=4, bk=(1, 1), bl=(1, 0))
    _corrupt(monkeypatch, atom, (2, 1, 3, 1))
    expected = _per_basis_failures(config)
    assert {name for name, detail in expected.items() if detail} == affected
    results = suite_relations(config)
    assert [r.name for r in results] == list(expected)
    for result in results:
        if expected[result.name] is None:
            assert result.passed, (result.name, result.detail)
        else:
            assert (result.passed, result.detail) == (False, expected[result.name])
