"""Dense linear systems over Gaussian rational functions.

Each seed draws one system A z = b for ``solve_linear``: with
``random.Random(seed)``, m = randint(2, 4) rows and n = randint(2, 5)
columns, then A row by row and one b, every entry drawn from the eleven
scalars of :func:`pool`.  Their non-monomial denominators with ``i`` in
them make elimination reduce by a polynomial gcd over the Gaussian
integers at almost every step.

Run as a script, it solves seeds 0-24, each in its own process with a
10 s cap, and prints per seed the solve time and a digest of the
solution (``over the cap`` where the cap ran out)::

    PYTHONPATH=src python tests/gaussian_pool.py

``python tests/gaussian_pool.py SEED`` solves one seed in this process.
"""

from __future__ import annotations

import hashlib
import random
import subprocess
import sys
import time

from prolong.coeff import I, ONE, ZERO, sym
from prolong.linsolve import solve_linear

SEEDS = range(25)
CAP_S = 10


def pool() -> list:
    beta, q, u = sym("beta"), sym("q"), sym("u")
    return [ZERO, ONE, I, 1 / (beta * (q - u)), (1 + I) / u, u * q, q - I * u, beta,
            (u + I) / (q + 1), 2 / (u - I * q), (beta + I) / (u * q - 1)]


def system(seed: int) -> tuple:
    """(A, b) of this seed."""
    rng = random.Random(seed)
    values = pool()
    m, n = rng.randint(2, 4), rng.randint(2, 5)
    matrix = [[rng.choice(values) for _ in range(n)] for _ in range(m)]
    return matrix, [rng.choice(values) for _ in range(m)]


def digest(solution) -> str:
    """A short digest of a solution's printed text; None is inconsistent."""
    text = "inconsistent" if solution is None else "; ".join(map(str, solution))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def solve(seed: int) -> str:
    """The line the script prints for one seed, solved in this process."""
    matrix, rhs = system(seed)
    start = time.perf_counter()
    [solution] = solve_linear(matrix, [rhs])
    elapsed = time.perf_counter() - start
    shape = f"{len(matrix)}x{len(matrix[0])}"
    return f"seed {seed:2d}  {shape}  {elapsed:7.3f} s  {digest(solution)}"


def main(argv: list) -> None:
    if argv:
        print(solve(int(argv[0])))
        return
    for seed in SEEDS:
        try:
            done = subprocess.run([sys.executable, __file__, str(seed)], capture_output=True,
                                  text=True, timeout=CAP_S)
        except subprocess.TimeoutExpired:
            print(f"seed {seed:2d}  over the cap ({CAP_S} s)", flush=True)
            continue
        text = done.stdout if done.returncode == 0 else f"seed {seed:2d}  failed: {done.stderr}"
        print(text.strip(), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
