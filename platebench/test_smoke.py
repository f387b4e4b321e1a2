"""The benchmark's own test: ``run.py --smoke`` must pass.

Run with ``python3 -m pytest platebench``.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def test_smoke_mode():
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        cwd=os.path.dirname(HERE), capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip().splitlines()[-1] == "smoke ok"
