"""Every narrative script in demos/, the README's library example and the
settle-times script run to completion against the library."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 5


def _run(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    _run(str(demo))


def test_readme_library_example():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    lines = _run("-c", blocks[0]).splitlines()
    assert "alpha=6, value=7" in lines[0]
    assert lines[1] == "False"


def test_settle_times_script():
    # one JSON line per input, each from its own process
    lines = _run("scripts/settle_times.py", "125:2,0:irreducible", "331:1,1").splitlines()
    entries = [json.loads(line) for line in lines]
    assert [(e["q"], e["family"], e["scope"], e["member"], e["num_failing"])
            for e in entries] == [(125, [2, 0], "irreducible", True, 0),
                                  (331, [1, 1], "all", False, 1)]
    assert all(e["seconds"] >= 0 and e["peak_rss_mb"] > 0 for e in entries)
