"""Run the CLI in a subprocess.  Standard library only, so that the golden
check (tests/goldens.py) runs on an interpreter without numpy or pytest."""

import os
import signal
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


def stdout_env(buffered: bool):
    """cli_env() with Python's stdout block-buffered, or written through on
    each call as under PYTHONUNBUFFERED=1, whatever this process runs under."""
    env = cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env if buffered else dict(env, PYTHONUNBUFFERED="1")


def run_cli(*argv, env=None):
    """Run the CLI in a fresh subprocess; stdout/stderr come back as bytes.
    A command still running after 60 s raises subprocess.TimeoutExpired."""
    return subprocess.run(
        [sys.executable, "-m", "dualbloch", *map(str, argv)],
        capture_output=True,
        env=env or cli_env(),
        timeout=60,
    )


def run_cli_without_stdout(*argv, env=None):
    """Run the CLI in a fresh subprocess started with fd 1 closed, as by
    `dualbloch ... >&-` in a POSIX shell; stderr comes back as bytes."""
    return subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "dualbloch", *map(str, argv)],
        stderr=subprocess.PIPE,
        env=env or cli_env(),
        timeout=60,
    )


def run_cli_into_closed_pipe(*argv, env=None):
    """Run the CLI in a fresh subprocess whose stdout is a pipe with its read
    end closed before the command starts; stderr comes back as bytes."""
    r, w = os.pipe()
    os.close(r)
    try:
        return subprocess.run(
            [sys.executable, "-m", "dualbloch", *map(str, argv)],
            stdout=w,
            stderr=subprocess.PIPE,
            env=env or cli_env(),
            timeout=60,
        )
    finally:
        os.close(w)


def run_cli_closing_pipe(lines: int, *argv, env=None):
    """Run the CLI in a fresh subprocess whose reader takes the first lines of
    stdout and then closes the pipe.  Returns the lines read, the exit code
    and stderr; a command still running 60 s later raises TimeoutExpired."""
    with subprocess.Popen(
        [sys.executable, "-m", "dualbloch", *map(str, argv)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env or cli_env(),
    ) as proc:
        try:
            read = [proc.stdout.readline() for _ in range(lines)]
            proc.stdout.close()
            _, stderr = proc.communicate(timeout=60)
        finally:
            proc.kill()  # a writer that never stops must not outlive the reader
    return read, proc.returncode, stderr


def run_cli_interrupted(*argv, env=None):
    """Run the CLI in a fresh subprocess and send it SIGINT, as Ctrl-C in a
    terminal does, once it has written its first line.  Returns that line,
    the exit code and stderr.  POSIX only.  The child starts with SIGINT at
    its default action even where this process ignores it (as a background
    job does): Python raises KeyboardInterrupt only if SIGINT was not ignored
    at start-up."""
    with subprocess.Popen(
        [sys.executable, "-m", "dualbloch", *map(str, argv)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env or cli_env(),
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    ) as proc:
        try:
            first = proc.stdout.readline()
            proc.send_signal(signal.SIGINT)
            _, stderr = proc.communicate(timeout=60)
        finally:
            proc.kill()  # a writer that outlives the signal must not outlive the check
    return first, proc.returncode, stderr
