"""Run the CLI in a subprocess.  Standard library only, so that the golden
check (tests/goldens.py) runs on an interpreter without numpy or pytest."""

import os
import subprocess
import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def cli_env():
    """The environment for a CLI subprocess: this checkout's src/ first on the
    path, and any warning raised as an error."""
    env = dict(os.environ, PYTHONWARNINGS="error")
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli(*argv):
    """Run the CLI in a fresh subprocess; stdout/stderr come back as bytes.
    A command still running after 60 s raises subprocess.TimeoutExpired."""
    return subprocess.run(
        [sys.executable, "-m", "dualbloch", *map(str, argv)],
        capture_output=True,
        env=cli_env(),
        timeout=60,
    )
