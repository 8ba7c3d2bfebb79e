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


def run_cli_closing_pipe(lines: int, *argv):
    """Run the CLI in a fresh subprocess whose reader takes the first lines of
    stdout and then closes the pipe.  Returns the lines read, the exit code
    and stderr; a command still running 60 s later raises TimeoutExpired."""
    with subprocess.Popen(
        [sys.executable, "-m", "dualbloch", *map(str, argv)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=cli_env(),
    ) as proc:
        try:
            read = [proc.stdout.readline() for _ in range(lines)]
            proc.stdout.close()
            _, stderr = proc.communicate(timeout=60)
        finally:
            proc.kill()  # a writer that never stops must not outlive the reader
    return read, proc.returncode, stderr
