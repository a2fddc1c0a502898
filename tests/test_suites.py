"""The verification suites pass on small configurations."""

import pytest

import superfrob.suites
from superfrob.characters import hecke_character_table
from superfrob.combinat import multipartitions
from superfrob.suites import SuiteConfig, run_suite, suite_frobenius, suite_relations


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
