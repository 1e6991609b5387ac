"""A fixed reference kernel that measures how fast the machine runs right now.

The host's speed drifts by 1.3-1.9x over seconds to minutes (see README.md),
and a slow spell often covers a whole run.  The runner times this kernel after
every operation, in the same process and the same moment, and scales each
timing by `REFERENCE_S` over the kernel time around it: a figure then reads as if the machine
ran at the speed it had when `REFERENCE_S` was taken.  The kernel is plain
numpy and Python of the same flavour as the workloads (least-squares
residuals, pinv projections and scores of small dictionaries) and calls
nothing in `greedycert`, so a change to the package moves the scaled figures
exactly as it moves the raw ones.  Do not change the kernel or `REFERENCE_S`
between two sets of runs that are to be compared.
"""

import statistics
import time

import numpy as np

# kernel time in a fast spell on the machine described in README.md
REFERENCE_S = 0.0012

_rng = np.random.default_rng(20121130)
_PROBLEMS = []
for _m, _n, _k in ((16, 20, 4), (16, 20, 4), (48, 96, 8)):
    _a = _rng.normal(size=(_m, _n))
    _a /= np.linalg.norm(_a, axis=0)
    _support = _rng.choice(_n, _k, replace=False)
    _PROBLEMS.append((_a, _a[:, _support] @ _rng.uniform(0.5, 1.5, _k), _k))


def kernel() -> int:
    """k steps of an OMP/OLS-style pursuit on each fixed problem."""
    picked = 0
    for a, y, k in _PROBLEMS:
        chosen = []
        for _ in range(k):
            res = y
            proj = a
            if chosen:
                sub = a[:, chosen]
                res = y - sub @ np.linalg.lstsq(sub, y, rcond=None)[0]
                proj = a - sub @ (np.linalg.pinv(sub) @ a)
            norms = np.linalg.norm(proj, axis=0)
            scores = np.abs(a.T @ res) / np.maximum(norms, 1e-10)
            scores[chosen] = 0.0
            chosen.append(int(np.argmax(scores)))
        picked += len(chosen)
    return picked


def timed_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(latencies, kernel_s, window: int = 3) -> list:
    """Scale each latency by REFERENCE_S over the mean kernel time of the
    2 * window + 1 kernel runs around it; kernel_s[i] ran right after op i."""
    return [x * REFERENCE_S / statistics.fmean(kernel_s[max(0, i - window):i + window + 1])
            for i, x in enumerate(latencies)]


def speed(samples: int = 9) -> float:
    """Scale factor for a timing taken right now: REFERENCE_S over the median
    of `samples` kernel times."""
    return REFERENCE_S / statistics.median(timed_kernel() for _ in range(samples))


kernel()  # the first call pays for numpy's lazy set-up of linalg
