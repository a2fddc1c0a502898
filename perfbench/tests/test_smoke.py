"""Smoke test of the benchmark on a tiny configuration.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*extra: str, trace: int = 0, script: Path = BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", "smoke", "--seed", "1",
         "--seconds", "1", "--trace", str(trace), *extra],
        capture_output=True, text=True, timeout=120,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stdout


def test_untraced_prints_every_end_to_end_metric():
    code, result, stdout = bench()
    assert code == 0, stdout
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "fail_ratio 0.0" in stdout


def bench_copy(tmp_path: Path, sources: bool = True) -> Path:
    """A copy of the benchmark in tmp_path, with the repository's sources linked in."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    if sources:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path / BENCH.name


def test_wrong_digest_fails(tmp_path):
    copy = bench_copy(tmp_path)
    digests = json.loads((copy / "digests.json").read_text())
    digests["chartable --m 1 --n 2"] = "0" * 64
    (copy / "digests.json").write_text(json.dumps(digests))
    code, result, stdout = bench(script=copy / "run.py")
    assert code != 0
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert "digest mismatch" in stdout


def test_traced_run_has_spans_for_each_layer():
    code, result, stdout = bench(trace=1)
    assert code == 0, stdout
    metrics = result["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    for name in (
        "characters.hecke_character_table.total_s",
        "exact.solve_linear_exact.calls",
        "symfunc.q_bmu.calls",
        "symfunc.super_schur.calls",
        "tensorrep.apply_word.calls",
    ):
        assert metrics[name]["value"] > 0, name
    assert metrics["trace.overhead_ratio"]["value"] > 0


def test_missing_span_fails_instead_of_reading_zero(tmp_path):
    copy = bench_copy(tmp_path)
    layers = json.loads((copy / "layers.json").read_text())
    layers["functions"]["exact.renamed_solve"] = {"stats": ["self_s"], "on": ["smoke"]}
    (copy / "layers.json").write_text(json.dumps(layers))
    code, result, stdout = bench(trace=1, script=copy / "run.py")
    assert code != 0
    assert not result["correct"]
    assert "MISSING span exact.renamed_solve" in stdout
    assert "exact.renamed_solve.self_s" not in result["metrics"]
    assert result["metrics"]["trace.missing_spans"]["value"] == 1


def test_refuses_a_tree_without_sources(tmp_path):
    copy = bench_copy(tmp_path, sources=False)
    code, result, stdout = bench(script=copy / "run.py")
    assert code != 0
    assert result is None
