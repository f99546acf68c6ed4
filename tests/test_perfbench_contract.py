"""The benchmark's hooks rebind emofuse functions by name and must still find them."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

HOOKS = """
import sys
sys.path[:0] = sys.argv[1:3]
import stages, tracing
stages.Clock().install()
tracing.Tracer("t").instrument()
"""


def test_benchmark_hooks_find_every_function():
    """``Clock.install`` and ``Tracer.instrument`` raise AttributeError on a renamed function.

    They run in a child process (``-B``: no bytecode written under perfbench/)
    because they rebind module attributes for the rest of the process.
    """
    proc = subprocess.run(
        [sys.executable, "-B", "-c", HOOKS, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
