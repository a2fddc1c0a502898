"""Acceptance criteria.

One test per criterion; every comparison is exact (tolerance zero) because
all arithmetic is exact.  Each test prints a single pass line with its
wall-clock time and asserts the stated runtime bound.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import subprocess
import sys
import time
from fractions import Fraction

from superfrob.combinat import (
    HookProfile,
    centralizer_order_sym,
    compositions,
    count_super_tableaux_multi,
    is_hook_multi,
    multipartitions,
    partitions,
    standard_multitableaux_count,
)
from superfrob.exact import Poly, transport
from superfrob.characters import (
    degrees_match_counts,
    hecke_character_table,
    mn_character,
    mn_table,
    specialize_table,
    verify_column_orthogonality,
    verify_orthogonality,
    wreath_character_table,
)
from superfrob.suites import SuiteConfig, suite_relations
from superfrob.symfunc import (
    BlockVariables,
    colored_power_sum_product,
    q_bmu,
    q_tilde,
    super_hall_littlewood_q,
    super_power_sum_product,
    super_schur,
)
from superfrob.tensorrep import TensorContext, standard_word, trace_D_word


class Stopwatch:
    def __init__(self, number: int, description: str, bound: float):
        self.number = number
        self.description = description
        self.bound = bound

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"criterion {self.number:2d} {status}  {self.description}  "
            f"({elapsed:.2f}s, bound {self.bound:.0f}s)"
        )
        if exc_type is None:
            assert elapsed < self.bound, (
                f"criterion {self.number} exceeded its runtime bound: "
                f"{elapsed:.2f}s >= {self.bound}s"
            )
        return False


def test_criterion_01_eq_qq_identity():
    with Stopwatch(1, "Eq. (q-q): q_tilde sum times (q-q^-1) = q^n q_n(x/y;q^-2)", 10):
        for k, l in [(1, 1), (2, 1), (2, 2)]:
            block = BlockVariables(HookProfile((k,), (l,)))
            profile = block.profile
            t = Poly.var(block.registry, "q", -2)
            for n in range(1, 6):
                total = Poly.zero(block.registry)
                for weight in compositions(n, profile.k + profile.l):
                    alpha, beta = profile.alpha_beta(weight)
                    total = total + q_tilde(alpha, beta, block)
                lhs = total * block.q_minus_q_inv
                rhs = Poly.var(block.registry, "q", n) * super_hall_littlewood_q(
                    n, block.x_polys(1), block.y_polys(1), t, block.registry
                )
                assert lhs == rhs, f"Eq. (q-q) fails at n={n}, (k,l)=({k},{l})"


def test_criterion_02_super_schur_dual_algorithms():
    with Stopwatch(2, "super Schur: branching vs tableau algorithm, hook vanishing", 30):
        for m in (1, 2):
            per_color = [(k, l) for k in range(3) for l in range(3)]
            for combo in itertools.product(per_color, repeat=m):
                bk = tuple(c[0] for c in combo)
                bl = tuple(c[1] for c in combo)
                if sum(bk) + sum(bl) == 0:
                    continue
                block = BlockVariables(HookProfile(bk, bl))
                for n in range(6):
                    for bshape in multipartitions(m, n):
                        branching = super_schur(bshape, block, "branching")
                        tableau = super_schur(bshape, block, "tableau")
                        assert branching == tableau, (bk, bl, bshape)
                        hook = is_hook_multi(bshape, block.profile)
                        assert branching.is_zero() == (not hook), (bk, bl, bshape)


def test_criterion_03_trace_oracle_vs_closed_form():
    with Stopwatch(3, "Trace(D T(bmu)) = q_bmu on k_i = l_i = 1 profiles", 120):
        for m, n in [(1, 3), (2, 2), (2, 3), (3, 2)]:
            block = BlockVariables(HookProfile((1,) * m, (1,) * m))
            ctx = TensorContext(block, n)
            for bmu in multipartitions(m, n):
                lhs = trace_D_word(ctx, standard_word(bmu, n))
                rhs = q_bmu(bmu, block)
                assert lhs == rhs, f"oracle mismatch at (m,n)=({m},{n}), bmu={bmu}"


def test_criterion_04_main_theorem_independent_profile():
    with Stopwatch(4, "Frobenius identity on an independent super profile", 120):
        for m, n in [(1, 3), (2, 2)]:
            table = hecke_character_table(m, n)
            block = BlockVariables(HookProfile((1,) * m, (1,) * m))
            ctx = TensorContext(block, n)
            schur_values = {
                bshape: super_schur(bshape, block) for bshape in table.rows
            }
            for bmu in table.cols:
                lhs = trace_D_word(ctx, standard_word(bmu, n))
                rhs = Poly.zero(block.registry)
                for bshape in table.rows:
                    entry = transport(table.entry(bshape, bmu), block.registry)
                    rhs = rhs + entry * schur_values[bshape]
                assert lhs == rhs, f"main theorem fails at (m,n)=({m},{n}), bmu={bmu}"


def test_criterion_05_operator_relation_suite():
    with Stopwatch(5, "operator relations on every basis vector, m<=3, k+l<=4, n<=3", 60):
        for m in (1, 2, 3):
            per_color = [(k, l) for k in range(5) for l in range(5) if k + l <= 4]
            for combo in itertools.product(per_color, repeat=m):
                bk = tuple(c[0] for c in combo)
                bl = tuple(c[1] for c in combo)
                total = sum(bk) + sum(bl)
                if not 1 <= total <= 4:
                    continue
                for n in (1, 2, 3):
                    results = suite_relations(SuiteConfig(m=m, n=n, bk=bk, bl=bl))
                    failed = [r for r in results if not r.passed]
                    assert not failed, (
                        f"relations fail at m={m}, n={n}, bk={bk}, bl={bl}: "
                        f"{[(r.name, r.detail) for r in failed]}"
                    )


def test_criterion_06_degenerations():
    with Stopwatch(6, "m=1 specialization is the Murnaghan-Nakayama table", 10):
        for n in range(1, 6):
            specialized = specialize_table(hecke_character_table(1, n))
            reference = mn_table(n)
            for r, row in enumerate(specialized.entries):
                for c, value in enumerate(row):
                    assert value == reference[r][c], f"MN mismatch at n={n}, ({r},{c})"
        # generic n=2 columns at the type-A point Q_1 = 1
        table = hecke_character_table(1, 2)
        reg = table.entries[0][0].registry
        q = Poly.var(reg, "q")
        q_inv = Poly.var(reg, "q", -1)
        one = Poly.one(reg)
        at_unit = [
            [entry.substitute({"Q1": 1}) for entry in row] for row in table.entries
        ]
        assert at_unit == [[q, one], [-q_inv, one]]


def test_criterion_07_wreath_consistency():
    with Stopwatch(7, "wreath orthogonality, degrees and the power-sum solve path", 60):
        for n in (1, 2, 3):
            specialized = specialize_table(hecke_character_table(2, n))
            assert verify_orthogonality(specialized).passed
            assert verify_column_orthogonality(specialized).passed
            assert degrees_match_counts(specialized)
            for bshape, degree in zip(
                specialized.rows,
                (row[specialized.identity_column_index()] for row in specialized.entries),
            ):
                assert degree == standard_multitableaux_count(bshape)
            dual = wreath_character_table(2, n)
            for r in range(len(specialized.rows)):
                for c in range(len(specialized.cols)):
                    assert dual.entries[r][c] == specialized.entries[r][c], (
                        f"dual path mismatch at n={n}, ({r},{c})"
                    )


def test_criterion_08_schur_weyl_dimension_identity():
    with Stopwatch(8, "sum of s(bshape) * f^bshape equals (k+l)^n", 30):
        for bk, bl in [((1, 1), (1, 1)), ((2, 1), (0, 1))]:
            profile = HookProfile(bk, bl)
            size = profile.k + profile.l
            for n in range(1, 5):
                total = sum(
                    count_super_tableaux_multi(bshape, profile)
                    * standard_multitableaux_count(bshape)
                    for bshape in multipartitions(2, n)
                )
                assert total == size**n, f"dimension identity fails at {bk}|{bl}, n={n}"


def test_criterion_09_king_and_cancellation():
    with Stopwatch(9, "King expansion and supersymmetric cancellation", 30):
        block = BlockVariables(HookProfile((2,), (2,)))
        xs, ys = block.x_polys(1), block.y_polys(1)
        reg = block.registry
        for n in range(1, 6):
            for lam in partitions(n):
                rhs = Poly.zero(reg)
                for mu in partitions(n):
                    weight = Fraction(mn_character(lam, mu), centralizer_order_sym(mu))
                    rhs = rhs + weight * super_power_sum_product(mu, xs, ys, reg)
                assert super_schur((lam,), block) == rhs, f"King fails at {lam}"
        # cancellation: set the last x and the last y of one color to a fresh u
        cancel_block = BlockVariables(HookProfile((1, 1), (1, 1)), extra=("u",))
        u = Poly.var(cancel_block.registry, "u")
        pos = cancel_block.registry.index("u")
        for color in (1, 2):
            swap = {f"x{color}_1": u, f"y{color}_1": u}
            for n in range(4):
                for bshape in multipartitions(2, n):
                    for f in (
                        super_schur(bshape, cancel_block),
                        colored_power_sum_product(bshape, cancel_block),
                    ):
                        g = f.substitute(swap)
                        assert all(exps[pos] == 0 for exps in g.decoded_terms()), (
                            f"u survives for {bshape}, color {color}"
                        )


def test_criterion_10_end_to_end_determinism(tmp_path):
    with Stopwatch(10, "chartable --m 2 --n 3 byte-identical across two runs", 300):
        outputs = []
        for run in (1, 2):
            path = tmp_path / f"table-{run}.json"
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "superfrob.cli",
                    "chartable",
                    "--m",
                    "2",
                    "--n",
                    "3",
                    "--out",
                    str(path),
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0], "chartable produced no output"
