"""Self-test of the benchmark's checks: a corrupted result must count as a failed op.

    python3 perfbench/selftest.py

Runs one real operation of each kind, confirms its check passes, then feeds
the check corrupted copies of the result (a swapped selection, a violated
bound, a shifted coherence, ...) and confirms each is reported.  It also
confirms that the sweep oracle tells a planted support from one that was not
planted, that a run whose ops fail prints `correct: false`, and that the
metric names and units printed by run.py match BENCHMARK.json.  Exits 0
when every case behaves, 1 otherwise.
"""

import dataclasses
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import greedycert as gc  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _op(ops, name):
    return next(op for op in ops if op.name.startswith(name))


def sweep_cases():
    op = _op(workloads.sweep_setup(0), "sweep 16x16 k=3 l=1")
    good = op.call()

    def cells(**change):
        return dataclasses.replace(good, cells=tuple(dataclasses.replace(c, **change)
                                                     for c in good.cells))

    one_failure = list(good.cells)
    one_failure[1] = dataclasses.replace(one_failure[1], successes=one_failure[1].successes - 1)
    return op, good, {
        "a failed recovery below the threshold": dataclasses.replace(
            good, cells=tuple(one_failure)),
        "mu_max at the threshold": cells(mu_max=0.25),
        "mu_max below a rebuilt trial's coherence": cells(mu_max=0.01),
        "no accepted trial": cells(accepted=0, successes=0),
    }


def oracle_problems():
    """The oracle pursuit of a rebuilt sweep trial recovers its planted
    support and flags a support that was not planted."""
    atoms, y, seeded, support = checks.sweep_trial(16, 16, 3, 1, 0, 0)
    wrong = seeded + [i for i in range(16) if i not in support][:2]
    problems = []
    for v in ("omp", "ols"):
        if checks.oracle_recovers(atoms, y, v, seeded, support):
            problems.append(f"sweep oracle {v}: the planted support does not recover")
        if not checks.oracle_recovers(atoms, y, v, seeded, wrong):
            problems.append(f"sweep oracle {v}: a support that was not planted recovers")
    return problems


def result_flag_problems():
    """A run whose op fails its check prints `correct: false`."""
    op = workloads.Op("always wrong", lambda: 1, lambda r: ["wrong on purpose"], lambda r: r)
    rounds, _, _, failed, deterministic = run.measure(
        [op], workloads.Workload(setup=None, tail_pct=50, min_ops=2), 0.0)
    attempted = sum(len(r) for r in rounds)
    line = run.result(deterministic, attempted, failed, {}, {})
    if (line["correct"], line["failed"]) != (False, attempted):
        return [f"a run whose every op failed printed {line}"]
    return []


def pursuit_cases():
    ops = workloads.pursuit_setup(0)
    result = []
    for name in ("pursuit ols dict=0 l=0", "pursuit omp dict=0 l=16"):
        op = _op(ops, name)
        trace, outcome = good = op.call()
        sel = list(trace.selected)
        t = trace.seeded
        swapped = sel[:t] + [sel[t + 1], sel[t]] + sel[t + 2:]
        outside = next(i for i in range(workloads.PURSUIT_N) if i not in sel)
        norms = list(trace.residual_norms)
        norms[t + 1] *= 1 + 1e-6
        result.append((op, good, {
            "swapped selections": (dataclasses.replace(trace, selected=gc.Support(tuple(swapped))),
                                   outcome),
            "an outside atom selected": (dataclasses.replace(
                trace, selected=gc.Support(tuple(sel[:-1] + [outside]))), outcome),
            "a shifted residual norm": (dataclasses.replace(trace, residual_norms=tuple(norms)),
                                        outcome),
            "a wrong classification": (trace, gc.RecoveryOutcome("wrong_atom", t, sel[t])),
        }))
    return result


def certify_cases():
    ops = workloads.certify_setup(0)
    result = []
    for name, corrupt in (
            ("projected_coherence omp l=0", {"a shifted coherence": lambda x: x + 1e-9}),
            ("projected_coherence ols l=2", {"above the OLS bound": lambda x: 0.99}),
            ("projected_coherence omp l=1", {"above the pair ceiling": lambda x: 0.99}),
            ("prip_exact q=2 l=0", {"pair constants off mu": lambda c: dataclasses.replace(
                c, lower=c.lower + 1e-9)}),
            ("prip_exact q=3 l=1", {"above the coherence bound": lambda c: dataclasses.replace(
                c, upper=c.upper + 1.0)}),
            ("tropp_erc k=3", {"lhs off the pinv value": lambda r: dataclasses.replace(
                r, lhs=r.lhs * (1 + 1e-6))}),
            ("partial_erc omp k=3 l=1", {"lhs off the pinv value": lambda r: dataclasses.replace(
                r, lhs=r.lhs + 1e-6),
                "flag disagrees with lhs": lambda r: dataclasses.replace(
                r, satisfied=not r.satisfied)}),
            ("partial_erc ols k=4 l=3", {"lhs at 1 below the threshold": lambda r:
                                         dataclasses.replace(r, lhs=1.0, satisfied=False)})):
        op = _op(ops, name)
        good = op.call()
        result.append((op, good, {label: fn(good) for label, fn in corrupt.items()}))
    return result


def worstcase_cases():
    op = _op(workloads.worstcase_setup(0), "worstcase omp k=3 l=1")
    good = op.call()
    code, d, y, blob = good
    src = os.path.join(workloads.OUT, "worstcase", "3_omp_k3_l1")
    base = os.path.join(workloads.OUT, "selftest")

    def rewritten(tag, atoms=None, vec=None):
        """A copy of the CLI's output with the dictionary or y replaced, read
        back through the package's loaders so only the content is wrong."""
        path = os.path.join(base, tag)
        shutil.rmtree(path, ignore_errors=True)
        shutil.copytree(src, path)
        if atoms is not None:
            gc.save_dictionary(gc.Dictionary(atoms), os.path.join(path, "dictionary.csv"))
        if vec is not None:
            gc.save_vector(vec, os.path.join(path, "y.csv"))
        loaded, _ = gc.load_dictionary(os.path.join(path, "dictionary.csv"))
        return path, (code, loaded, gc.load_vector(os.path.join(path, "y.csv")), blob)

    bent = d.atoms.copy()
    bent[:, 0] += 1e-6 * bent[:, 1]
    bent[:, 0] /= np.linalg.norm(bent[:, 0])
    outside = next(i for i in range(d.n) if i not in blob["truth"])
    replay = dict(blob["replay"], selected=[1, 0] + blob["replay"]["selected"][2:])
    cases = {
        "exit code 4": (src, (4, d, y, blob)),
        "not reproduced": (src, (code, d, y, dict(blob, reproduced=False))),
        "a swapped replay prefix": (src, (code, d, y, dict(blob, replay=replay))),
        "a shifted coherence": rewritten("bent", atoms=bent),
        "y outside span(truth)": rewritten("tilted", vec=y + 1e-6 * d.atoms[:, outside]),
        "loader disagrees with the file": (src, (code, d, y * (1 + 1e-12), blob)),
    }
    return op, good, cases


def benchmark_json_matches():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != table:
            problems.append(f"{key} differs: {sorted(set(listed.items()) ^ set(table.items()))}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        problems.append("workload names differ")
    for name, w in workloads.WORKLOADS.items():
        if w.min_ops * (100 - w.tail_pct) < 1000:
            problems.append(f"{name}: fewer than ten samples beyond p{w.tail_pct:g}")
    return problems


def main() -> int:
    bad = []
    caught = 0
    groups = [sweep_cases(), *pursuit_cases(), *certify_cases()]
    for op, good, corrupted in groups:
        if op.check(good):
            bad.append(f"{op.name}: the real result fails its check: {op.check(good)}")
        for label, result in corrupted.items():
            if op.check(result):
                caught += 1
            else:
                bad.append(f"{op.name}: {label} passed the check")
    op, good, cases = worstcase_cases()
    if op.check(good):
        bad.append(f"{op.name}: the real result fails its check: {op.check(good)}")
    for label, (path, result) in cases.items():
        if checks.worstcase(3, 1, "omp", path, result):
            caught += 1
        else:
            bad.append(f"{op.name}: {label} passed the check")
    bad += oracle_problems() + result_flag_problems() + benchmark_json_matches()
    for line in bad:
        print(f"FAIL {line}")
    print(f"selftest: {caught} corrupted results caught, {len(bad)} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
