"""perfbench's traced stage wraps the library's functions by name."""

import os
import subprocess
import sys
from pathlib import Path

import zoneroute

ROOT = Path(zoneroute.__file__).parent.parent.parent


def test_every_name_the_traced_stage_patches_exists():
    # in a fresh process, so the patches reach no module this suite imports
    done = subprocess.run(
        [sys.executable, "-c", "import traced_stage; traced_stage.install(traced_stage.Tracer())"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "perfbench"),
                                                          str(ROOT / "src")])})
    assert (done.returncode, done.stderr) == (0, "")
