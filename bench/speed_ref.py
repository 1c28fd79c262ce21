"""A fixed computation whose wall time measures the machine's current speed.

    python3 bench/speed_ref.py

The benchmark runs this script as a fresh subprocess before and after
every solve and divides the solve's wall time by the mean of the two
(see ``run.py``).  On a shared host the speed of the same code drifts by
up to 2x over minutes, and the drift slows this script and the solves
alike, so the ratio is steadier than the raw times.  The mix resembles
the solves' own: interpreter start and the NumPy/SciPy imports, fresh
large arrays, elementwise transcendental functions, reductions, a small
contraction and a pure Python loop.  It shares no code with vblink, so no
change to the package can move it.  It prints a checksum, which is the
same on every run.
"""

import numpy as np
from scipy.special import digamma, gammaln

ROUNDS = 6
PY_LOOP = 900_000


def main():
    rng = np.random.default_rng(0)
    total = 0.0
    for _ in range(ROUNDS):
        a = rng.random((1000, 4000))  # 32 MB, freshly allocated each round
        b = np.exp(a - a.max(axis=1, keepdims=True))
        b /= b.sum(axis=1, keepdims=True)
        total += float(gammaln(b + 1.0).sum() + digamma(a + 1.0).sum())
        total += float(np.einsum("ij,ik->jk", b[:, :64], a[:, :64]).sum())
    count = 0
    for i in range(PY_LOOP):
        count += i % 7
    print(repr(total + count))


if __name__ == "__main__":
    main()
