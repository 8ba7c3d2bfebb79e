"""Fixed reference work that gauges how fast the host runs right now.

    python3 bench/reference.py N > out.txt

Rotates a Bloch vector N times by conjugating with 2x2 unitaries built
from numpy small arrays, and writes one CSV row of floats per step: the
same mix of interpreter start-up, numpy import, small-array numpy calls and
float formatting that the dualbloch CLI spends its time on.  It imports
nothing from dualbloch, so a change to the program does not change it, and
its wall time moves only with the host.  The harness runs it between the
program's runs and scales the program's timings by it (see run.py).
"""

import math
import sys

import numpy as np

SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def main(steps: int) -> None:
    axis = np.array([0.48, -0.6, 0.64])
    n_dot_sigma = np.tensordot(axis, SIGMA, axes=1)
    vector = np.array([1.0, 0.0, 0.0])
    rows = []
    for k in range(steps):
        half = 0.5 * (k * 7e-3)
        u = math.cos(half) * np.eye(2) - 1j * math.sin(half) * n_dot_sigma
        rho = 0.5 * (np.eye(2) + np.tensordot(vector, SIGMA, axes=1))
        moved = u @ rho @ u.conj().T
        v = np.real(np.einsum("ij,kji->k", moved, SIGMA)).tolist()
        rows.append(f"{k},{v[0]!r},{v[1]!r},{v[2]!r},{math.hypot(*v)!r}\n")
    sys.stdout.write("".join(rows))


if __name__ == "__main__":
    main(int(sys.argv[1]))
