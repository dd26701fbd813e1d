"""The demos print the same bytes as their golden transcripts."""

import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEMOS = ("cycle_relations", "divisor_classes", "formal_group_laws")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_byte_identical(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", f"{name}.py")],
        capture_output=True, env=env, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    with open(os.path.join(HERE, "golden", f"demo_{name}.txt"), "rb") as fh:
        assert proc.stdout == fh.read()
