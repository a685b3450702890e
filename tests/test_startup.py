"""What a fresh interpreter imports with the command-line entry point.

Every command runs in its own process, so import time is paid once per
command.  ``scipy.signal`` alone used to take most of it, and pulls in
``scipy.stats``, ``scipy.interpolate``, ``scipy.optimize`` and
``scipy.ndimage``; the package needs none of them.  Its FFTs run through
``np.fft``, so ``scipy.fft`` and the ``scipy.special`` behind it stay
out too.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = (
    "scipy.signal",
    "scipy.stats",
    "scipy.interpolate",
    "scipy.optimize",
    "scipy.ndimage",
    "scipy.fft",
    "scipy.special",
)


@pytest.mark.parametrize("module", ["separability.cli", "separability"])
def test_import_leaves_out_the_heavy_scipy_subpackages(module):
    code = f"import sys, {module}; print(' '.join(sorted(sys.modules)))"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert module in loaded
    assert [name for name in HEAVY if name in loaded] == []
