"""Run the CLI in a subprocess.  Standard library only, so that the golden
check (tests/goldens.py) runs on an interpreter without numpy or pytest."""

import contextlib
import os
import signal
import subprocess
import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def cli_env():
    """The environment for a CLI subprocess: this checkout's src/ first on the
    path, any warning raised as an error, and a terminal width that fits any
    usage line on one, so that argparse's usage bytes are the same under every
    interpreter and terminal."""
    env = dict(os.environ, PYTHONWARNINGS="error", COLUMNS="1000")
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def stdout_env(buffered: bool):
    """cli_env() with Python's stdout block-buffered, or written through on
    each call as under PYTHONUNBUFFERED=1, whatever this process runs under."""
    env = cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env if buffered else dict(env, PYTHONUNBUFFERED="1")


def run_cli(*argv, stdout="captured", stderr="captured", env=None):
    """Run the CLI in a fresh subprocess; returns its CompletedProcess, with
    what was read of stdout and stderr as bytes.  Each is "captured" (read to
    the end), "closed" (its fd closed at start-up, as by `>&-`; POSIX) or
    "full" (/dev/full, on which every write fails).  stdout may also be:
      N, an int      a reader that takes the first N lines, then closes the pipe;
      "closed-pipe"  a pipe whose read end is closed before the command starts;
      "sigint"       read the first line, send SIGINT as Ctrl-C does, then read
                     to the end (POSIX).
    The child starts with SIGINT at its default action even where this process
    ignores it (as a background job does): Python raises KeyboardInterrupt only
    if SIGINT was not ignored at start-up.  A command still running after 60 s
    raises subprocess.TimeoutExpired."""
    closed = [fd for fd, setup in ((1, stdout), (2, stderr)) if setup == "closed"]
    files = contextlib.ExitStack()  # this process's ends of /dev/full and of a closed pipe

    def target(setup):
        if setup == "full":
            return files.enter_context(open("/dev/full", "wb"))
        if setup == "closed-pipe":
            read, write = os.pipe()
            os.close(read)
            files.callback(os.close, write)
            return write
        return None if setup == "closed" else subprocess.PIPE

    def child():  # runs in the child process, before the exec
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        for fd in closed:
            os.close(fd)

    with files, subprocess.Popen(
        [sys.executable, "-m", "dualbloch", *map(str, argv)],
        bufsize=0,  # a line read leaves nothing behind that communicate() would miss
        stdout=target(stdout),
        stderr=target(stderr),
        env=env or cli_env(),
        preexec_fn=child if closed or stdout == "sigint" else None,
    ) as proc:
        try:
            read = b""
            if stdout == "sigint":
                read = proc.stdout.readline()
                proc.send_signal(signal.SIGINT)
            elif isinstance(stdout, int):
                read = b"".join(proc.stdout.readline() for _ in range(stdout))
                proc.stdout.close()
            rest, err = proc.communicate(timeout=60)
        finally:
            proc.kill()  # a writer that outlives its reader or the signal must not outlive this
    return subprocess.CompletedProcess(proc.args, proc.returncode, read + (rest or b""), err or b"")
