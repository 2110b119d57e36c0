"""Calibration loop: prints the seconds one fixed numpy loop takes here.

    python3 calibrate.py

run.py starts one of these on each CPU an invocation uses, just before and
after it, to track how fast the machine is running at that moment. The loop
mixes the two kinds of work palab does: numpy calls on 100-element arrays,
bound by the interpreter as in the per-replication Euler loops, and passes
over 8 MB arrays, bound by memory as in the large-ensemble steps.
"""

import time

import numpy as np

ROUNDS = 10

rng = np.random.default_rng(0)
small = rng.standard_normal(100)
big = rng.standard_normal(1_000_000)


def loop(rounds: int) -> float:
    acc = 0.0
    for _ in range(1500 * rounds):
        m = float(np.mean(np.clip(small, -10.0, 10.0)))
        acc += float(np.mean(small + 0.01 * m - 0.5 * np.square(small)))
    for _ in range(5 * rounds):
        acc += float(np.mean(big + 0.5 * big * big))
    return acc


if __name__ == "__main__":
    loop(1)  # page faults and cold caches are paid here, untimed
    t0 = time.perf_counter()
    loop(ROUNDS)
    print(time.perf_counter() - t0)
