"""A fixed loop that measures how fast this machine runs at the moment.

The host that the benchmark was tuned on shares its cores with other
tenants, and its speed drifts by up to 1.8x over tens of seconds: a whole
30 s run can fall in a slow stretch.  The benchmark therefore runs this
loop between operations and divides every end-to-end time by the loop's
slowdown against REF_S at that moment, so that runs made at different
moments compare at one speed.  The loop does the three kinds of work the
program does: a three-term recurrence on Python floats, the same recurrence
written element by element into a numpy chain, and a hypergeometric-style
series.  On recorded `horizon` passes the three together tracked the
program's slowdown better than any one of them.  The loop calls nothing in
stringhorizon, so no change to the program can change it.
"""

import statistics
import time

import numpy as np

REF_S = 0.025   # the loop's median time on the 2-core machine the benchmark was tuned on


def loop_seconds():
    """Time of one pass of the calibration loop."""
    t0 = time.perf_counter()
    x, a, b = 0.3, 1.0, 0.3
    for k in range(2, 40_000):
        a, b = b, ((2.0 * k - 1.0) * x * b - (k - 1.0) * a) / k
    chain = np.empty(15_000)
    chain[0], chain[1] = 1.0, x
    for k in range(2, 15_000):
        nu = k - 1.0
        chain[k] = ((2.0 * nu + 1.0) * x * chain[k - 1] - nu * chain[k - 2]) / (nu + 1.0)
    term = total = 1.0
    for k in range(30_000):
        term = term * (41.0 + k) * (40.5 + k) / ((81.5 + k) * (1.0 + k)) * 0.99 + 1e-3
        total += term
    return time.perf_counter() - t0


def speed(samples):
    """Slowdown against the reference machine, from loop times."""
    return statistics.median(samples) / REF_S
