"""The frontier harness runs end to end at one tiny cell."""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_frontier_harness_writes_one_cell(tmp_path):
    out = tmp_path / "frontier.json"
    subprocess.run(
        [
            sys.executable,
            str(ROOT / "tools" / "frontier.py"),
            *("--tree", f"current={ROOT}", "--cell", "1,3", "--out", str(out)),
        ],
        check=True,
        timeout=120,
    )
    result = json.loads(out.read_text())
    assert result["python"] == ".".join(map(str, sys.version_info[:3]))
    assert set(result["trees"]["current"]) == {"commit", "uncommitted_changes"}
    assert len(result["reference"]["runs"]) == 2
    assert all(run["wall_s"] > 0 for run in result["reference"]["runs"])
    (cell,) = result["cells"]
    assert (cell["m"], cell["n"], cell["classes"], cell["cap_s"]) == (1, 3, 3, 60)
    for table in ("hecke", "wreath"):
        timing = cell[table]["current"]
        assert len(timing["samples"]) == result["repeats"]
        assert timing["cpu_s"] == statistics.median(timing["samples"]) >= 0
