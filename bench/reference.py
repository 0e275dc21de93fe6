"""A fixed task that measures how fast the host runs Python right now.

    python bench/reference.py

run.py starts it as a fresh process before every job, so its wall time
covers what a `k3` job's does (interpreter start, importing numpy, a
vectorised numpy loop and a loop of pure-Python integer arithmetic) and
sees the host in the same state as the job next to it.  It does not touch
k3arith, so no change to the library moves it.  Prints a checksum, so the
work cannot be skipped.
"""

import numpy as np

a = np.arange(200_000, dtype=np.int64)
total = 0
for _ in range(20):
    total += int(((a * a + 3) % 10_007).sum())

s = 0
for i in range(300_000):
    s = (s * 31 + i * i) % 1_000_003
print(total, s)
