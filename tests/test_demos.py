"""The four demos print the same text as recorded in tests/demo_output.

Each demo runs as its own process, as a reader would run it.  Re-record with
`PYTHONPATH=src python demos/<name>.py > tests/demo_output/<name>.txt` only
when a change of a demo's text is intended.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RECORDED = Path(__file__).with_name("demo_output")


def test_every_demo_has_a_recording():
    assert [d.stem for d in DEMOS] == sorted(p.stem for p in RECORDED.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_prints_the_recorded_text(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120, check=False)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (RECORDED / f"{demo.stem}.txt").read_text(encoding="utf-8")
