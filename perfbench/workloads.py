"""The benchmark's four workloads.

`setup(seed)` makes a workload's inputs from the seed, warms the code paths up
and returns one round of operations; the runner repeats whole rounds, so every
run attempts the same operations in the same proportions.  Each operation
carries the check of its result and a key that must repeat exactly from round
to round, since the package promises identical outputs for identical inputs.

Functions are looked up on the package at call time (`gc.run`, not a name
bound at import), so the tracer's wrappers see every call.
"""

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import greedycert as gc
import greedycert.cli  # noqa: F401  (binds gc.cli)

import checks

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], list]   # problems with the result; empty when right
    key: Callable[[object], object]   # must be equal in every round


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], list]
    tail_pct: int     # fixed tail percentile, with at least ten samples beyond it
    min_ops: int      # rounds continue past the run length until this many ops ran


# ---- sweep: many tiny pursuits on freshly generated dictionaries -------------

SWEEP_TRIALS = 20
SWEEP_CELLS = ([(16, 16, k, l) for k in range(2, 6) for l in range(k)]      # bisection
               + [(16, 20, k, l) for k in range(2, 5) for l in range(k)])   # Gram shrinkage


def _sweep_config(m, n, k, l, trials, seed):
    return gc.SweepConfig(m=m, n=n, k_range=(k, k), l_range=(l, l), trials=trials,
                          coherence_target="threshold", seed=seed, variant="both",
                          seed_partial=True)


def sweep_setup(seed):
    ops = []
    for m, n, k, l in SWEEP_CELLS:
        cfg = _sweep_config(m, n, k, l, SWEEP_TRIALS, seed)
        ops.append(Op(f"sweep {m}x{n} k={k} l={l}",
                      lambda cfg=cfg: gc.run_sweep(cfg),
                      lambda rep, m=m, n=n, k=k, l=l:
                          checks.sweep_cell(rep, m, n, k, l, SWEEP_TRIALS, seed),
                      lambda rep: tuple((c.accepted, c.successes, c.mu_sum) for c in rep.cells)))
    for m, n in ((16, 16), (16, 20)):
        gc.run_sweep(_sweep_config(m, n, 2, 0, 1, seed))
    return ops


# ---- pursuit: large projections, no generation in the timed part -----------

PURSUIT_M, PURSUIT_N, PURSUIT_K = 256, 512, 32
# Seeded prefix length of each instance, two instances per dictionary.  With
# half the instances seeded the median would sit exactly on the edge between
# the seeded runs and the slower unseeded ones and swing with the noise; with
# five unseeded to three seeded it falls inside the unseeded OLS runs.
PURSUIT_PREFIXES = ((0, 16), (0, 16), (0, 16), (0, 0))


def _pursue(variant, d, y, k, prefix, truth):
    trace = gc.run(variant, d, y, k, seed_support=prefix)
    return trace, gc.classify(trace, truth)


def pursuit_setup(seed):
    rng = np.random.default_rng([seed, 2])
    ops = []
    for i, prefixes in enumerate(PURSUIT_PREFIXES):
        d = gc.random_dictionary(PURSUIT_M, PURSUIT_N, seed=[seed, 2, i])
        for prefix_len in prefixes:
            truth = [int(j) for j in rng.choice(PURSUIT_N, PURSUIT_K, replace=False)]
            coef = rng.uniform(0.5, 1.5, PURSUIT_K) * rng.choice([-1.0, 1.0], PURSUIT_K)
            y = gc.make_instance(d, truth, coef).observation
            prefix = truth[:prefix_len] or None
            for v in ("omp", "ols"):
                ops.append(Op(
                    f"pursuit {v} dict={i} l={prefix_len}",
                    lambda v=v, d=d, y=y, prefix=prefix, truth=truth:
                        _pursue(v, d, y, PURSUIT_K, prefix, truth),
                    lambda r, v=v, d=d, y=y, truth=truth: checks.pursuit(d.atoms, y, v, truth, r),
                    lambda r: (r[0].selected.indices, r[0].residual_norms)))
    for v in ("omp", "ols"):  # warm-up: a short run on the last instance
        _pursue(v, d, y, 4, None, truth[:4])
    return ops


# ---- certify: enumerations of many tiny projections --------------------------

CERTIFY_DICTS = ((10, 12, 0.19), (10, 12, 0.19), (12, 20, 0.24), (12, 20, 0.24))
CERTIFY_PC_ORDERS = (0, 1, 2, 3)
CERTIFY_PRIP_ORDERS = ((2, 0), (2, 1), (2, 2), (3, 1), (3, 2), (2, 3))
CERTIFY_SUPPORT_SIZES = (3, 4)


def _certify_ops(d, rng, tag):
    atoms = d.atoms
    mu = checks.coherence(atoms)
    ops = []
    for v in ("omp", "ols"):
        for l in CERTIFY_PC_ORDERS:
            ops.append(Op(f"projected_coherence {v} l={l} {tag}",
                          lambda v=v, l=l: gc.projected_coherence(v, d, l),
                          lambda x, v=v, l=l: checks.projected_coherence(mu, v, l, x),
                          lambda x: x))
    for q, l in CERTIFY_PRIP_ORDERS:
        ops.append(Op(f"prip_exact q={q} l={l} {tag}",
                      lambda q=q, l=l: gc.prip_exact(d, q, l),
                      lambda c, q=q, l=l: checks.prip(mu, q, l, c),
                      lambda c: (c.lower, c.upper)))
    for size in CERTIFY_SUPPORT_SIZES:
        qstar = [int(j) for j in rng.choice(d.n, size, replace=False)]
        ops.append(Op(f"tropp_erc k={size} {tag}",
                      lambda qstar=qstar: gc.tropp_erc(d, qstar),
                      lambda r, qstar=qstar: checks.erc(atoms, mu, "omp", [], qstar, r),
                      lambda r: (r.lhs, r.binding_atom)))
        for l in range(1, size):
            for v in ("omp", "ols"):
                ops.append(Op(f"partial_erc {v} k={size} l={l} {tag}",
                              lambda v=v, q=qstar[:l], qstar=qstar: gc.partial_erc(v, d, q, qstar),
                              lambda r, v=v, q=qstar[:l], qstar=qstar:
                                  checks.erc(atoms, mu, v, q, qstar, r),
                              lambda r: (r.lhs, r.binding_atom)))
    return ops


def certify_setup(seed):
    ops = []
    for i, (m, n, target) in enumerate(CERTIFY_DICTS):
        d = gc.random_dictionary(m, n, target, seed=[seed, 3, i])
        ops += _certify_ops(d, np.random.default_rng([seed, 3, i]), f"{m}x{n}#{i}")
    warm = {}
    for op in ops:  # the cheapest call of each kind on the first dictionary
        warm.setdefault(op.name.split()[0], op)
    for op in warm.values():
        op.call()
    return ops


# ---- worstcase: CLI calls with calibration loops and file IO -----------------

WORSTCASE_ACCEPTANCE = ((2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (4, 2), (5, 3))
WORSTCASE_LARGER = ((18, 4), (20, 0), (25, 2), (32, 16))
# The acceptance scenarios run twice per round, 28 of 36 ops, so the median
# falls in the middle of a group of four equal calls (both variants of (3, 2),
# twice) instead of between two pairs of unequal cost; (32, 16) is 2 of 36
# ops, so p97 falls inside it.
WORSTCASE_ROUND = WORSTCASE_ACCEPTANCE * 2 + WORSTCASE_LARGER


def _cli_worstcase(k, l, variant, out_dir):
    with contextlib.redirect_stdout(io.StringIO()):
        return gc.cli.main(["worstcase", "--k", str(k), "--l", str(l),
                            "--variant", variant, "--out", out_dir])


def _worstcase(k, l, variant, out_dir):
    code = _cli_worstcase(k, l, variant, out_dir)
    d, _ = gc.load_dictionary(os.path.join(out_dir, "dictionary.csv"))
    y = gc.load_vector(os.path.join(out_dir, "y.csv"))
    with open(os.path.join(out_dir, "scenario.json")) as fh:
        blob = json.load(fh)
    return code, d, y, blob


def worstcase_setup(seed):
    ops = []
    for i, (k, l) in enumerate(WORSTCASE_ROUND):
        for v in ("omp", "ols"):
            out = os.path.join(OUT, "worstcase", f"{i}_{v}_k{k}_l{l}")
            ops.append(Op(f"worstcase {v} k={k} l={l}",
                          lambda k=k, l=l, v=v, out=out: _worstcase(k, l, v, out),
                          lambda r, k=k, l=l, v=v, out=out: checks.worstcase(k, l, v, out, r),
                          lambda r: (r[1].atoms.tobytes(), r[2].tobytes(),
                                     r[3]["replay"]["selected"])))
    order = np.random.default_rng([seed, 4]).permutation(len(ops))
    _cli_worstcase(2, 0, "omp", os.path.join(OUT, "worstcase", "warm-up"))
    return [ops[i] for i in order]


# Each tail percentile is the highest with ten samples beyond it at min_ops,
# and sits inside a group of ops of like cost rather than between two groups.
WORKLOADS = {
    "sweep": Workload(sweep_setup, tail_pct=90, min_ops=100),
    "pursuit": Workload(pursuit_setup, tail_pct=90, min_ops=100),
    "certify": Workload(certify_setup, tail_pct=98, min_ops=500),
    "worstcase": Workload(worstcase_setup, tail_pct=97, min_ops=334),
}
