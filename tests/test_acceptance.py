"""End-to-end acceptance checks, one test per criterion.

Each test prints a single verdict line (echoed again after the pytest summary
via conftest) and then asserts, so a red run still reports every criterion it
reached.  Tolerances and time budgets are stated inline.
"""

import itertools
import json
import time

import numpy as np

from greedycert import (SweepConfig, build_worst_case, coherence, coherence_threshold,
                        cross_gram_bound_check, dual_representation, gram, ols_coherence_bound,
                        omp_partial_bound, partial_erc, prip_coherence_bounds, prip_erc_bound,
                        prip_exact, project_atoms, projected_coherence, projected_gram_closed_form,
                        random_dictionary, reach_input, run, run_sweep)
from greedycert.cli import main as cli_main

from conftest import record_acceptance
from oracles import ols_candidate_norms, ric_bruteforce, spark_bruteforce


def _verdict(num: int, name: str, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    line = f"[acceptance] criterion {num} ({name}): {status}"
    if detail:
        line += f" [{detail}]"
    record_acceptance(line)
    print(line)
    assert not failures, f"criterion {num}: {failures[:10]}"


def test_criterion_1_worst_case_reproduction(tmp_path):
    pairs = [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (4, 2), (5, 3)]
    failures = []
    t0 = time.time()
    for (k, l), variant in itertools.product(pairs, ("omp", "ols")):
        out = tmp_path / f"{variant}_{k}_{l}"
        code = cli_main(["worstcase", "--k", str(k), "--l", str(l),
                         "--variant", variant, "--out", str(out)])
        if code != 0:
            failures.append((k, l, variant, f"exit {code}"))
            continue
        blob = json.loads((out / "scenario.json").read_text())
        mu, thr = blob["coherence"], 1.0 / (2 * k - l - 1)
        if abs(mu - thr) > 1e-10:
            failures.append((k, l, variant, f"coherence {mu} != {thr}"))
        replay = blob["replay"]
        if replay["selected"][:l] != list(range(l)):
            failures.append((k, l, variant, "prefix not selected first"))
        outcome = replay["outcome"]
        if outcome["kind"] not in ("wrong_atom", "tie_with_wrong_atom"):
            failures.append((k, l, variant, f"kind {outcome['kind']}"))
        elif outcome["iteration"] != l:
            failures.append((k, l, variant, f"failed at {outcome['iteration']}, wanted {l}"))
    elapsed = time.time() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s >= 5s")
    _verdict(1, "threshold failure reproduction", failures,
             f"14 scenarios, {elapsed:.1f}s")


def test_criterion_2_seeded_sufficiency():
    t0 = time.time()
    cfg = SweepConfig(m=16, n=16, k_range=(2, 5), l_range=(0, 4), trials=75,
                      coherence_target="threshold", seed=1234, variant="both",
                      seed_partial=True)
    report = run_sweep(cfg)
    failures = []
    accepted = {"omp": 0, "ols": 0}
    for cell in report.cells:
        accepted[cell.variant] += cell.accepted
        if cell.skipped:
            failures.append((cell.variant, cell.k, cell.l, "skipped"))
        elif cell.mu_max >= coherence_threshold(cell.k, cell.l):
            failures.append((cell.variant, cell.k, cell.l, "coherence filter violated"))
        elif cell.success_rate != 1.0:
            failures.append((cell.variant, cell.k, cell.l,
                             f"success rate {cell.success_rate}"))
    for variant, count in accepted.items():
        if count < 1000:
            failures.append(f"only {count} accepted trials for {variant}")
    elapsed = time.time() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _verdict(2, "seeded recovery below threshold", failures,
             f"{accepted['omp']}+{accepted['ols']} trials, {elapsed:.1f}s")


def test_criterion_3_unseeded_sufficiency():
    t0 = time.time()
    cfg = SweepConfig(m=16, n=16, k_range=(2, 5), l_range=(0, 0), trials=130,
                      coherence_target="threshold", seed=99, variant="both",
                      seed_partial=False)
    report = run_sweep(cfg)
    failures = []
    accepted = {"omp": 0, "ols": 0}
    for cell in report.cells:
        accepted[cell.variant] += cell.accepted
        if cell.skipped or cell.success_rate != 1.0:
            failures.append((cell.variant, cell.k, cell.success_rate))
    for variant, count in accepted.items():
        if count < 500:
            failures.append(f"only {count} accepted trials for {variant}")
    elapsed = time.time() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _verdict(3, "unseeded recovery below threshold", failures,
             f"{accepted['omp']}+{accepted['ols']} trials, {elapsed:.1f}s")


def test_criterion_4_partial_condition_bound():
    k = 4
    failures = []
    checked = 0
    for seed in range(200):
        d = random_dictionary(20, 30, coherence_target=0.199, seed=seed)
        mu = coherence(d)
        if mu >= 1.0 / (k - 1):
            failures.append((seed, f"mu {mu} out of bound domain"))
            continue
        rng = np.random.default_rng([seed, 4])
        qstar = rng.choice(30, size=k, replace=False).tolist()
        for l in (1, 2, 3):
            q = qstar[:l]
            rep = partial_erc("omp", d, q, qstar)
            bound = omp_partial_bound(k, l, mu)
            if rep.lhs - bound > 1e-10:
                failures.append((seed, l, f"lhs {rep.lhs} > bound {bound}"))
            if mu < coherence_threshold(k, l) and not rep.lhs < 1.0:
                failures.append((seed, l, f"lhs {rep.lhs} >= 1 below threshold"))
            checked += 1
    _verdict(4, "partial condition coherence bound", failures,
             f"{checked} (dictionary, prefix) checks")


def test_criterion_5_normalized_projection_chain():
    failures = []
    dicts = [random_dictionary(10, 12, coherence_target=0.19, seed=s) for s in range(25)]
    dicts += [random_dictionary(8, 10, coherence_target=0.21, seed=100 + s) for s in range(25)]
    rng = np.random.default_rng(2024)
    for idx, d in enumerate(dicts):
        mu = coherence(d)
        for l in (0, 1, 2):
            if l >= 1 and mu >= 1.0 / l:
                continue
            bound = ols_coherence_bound(l, mu)
            got = projected_coherence("ols", d, l)
            if got - bound > 1e-10:
                failures.append((idx, l, f"projected coherence {got} > bound {bound}"))
            for k in (3, 4):
                if l >= k or bound >= 1.0 / (2 * k - 2 * l - 1):
                    continue
                for _ in range(5):
                    qstar = rng.choice(d.n, size=k, replace=False).tolist()
                    rep = partial_erc("ols", d, qstar[:l], qstar)
                    if not rep.lhs < 1.0:
                        failures.append((idx, k, l, f"lhs {rep.lhs} >= 1"))
    _verdict(5, "normalized projected coherence chain", failures, "50 dictionaries")


def test_criterion_6_projected_isometry_chain():
    failures = []
    dicts = [random_dictionary(10, 12, coherence_target=0.3, seed=600 + s) for s in range(4)]
    rng = np.random.default_rng(77)
    draws = 0
    for idx, d in enumerate(dicts):
        mu = coherence(d)
        pair_exact = {}
        for l in (0, 1, 2):
            pair_exact[l] = prip_exact(d, 2, l)
            # pairwise deviation controls the raw projected coherence
            mu_l = projected_coherence("omp", d, l)
            ceiling = 0.5 * (pair_exact[l].upper + pair_exact[l].lower)
            if mu_l - ceiling > 1e-10:
                failures.append((idx, l, f"mu_l {mu_l} > (upper+lower)/2 {ceiling}"))
            # random cross-gram draws stay under the operator bound
            for _ in range(17):
                picks = rng.choice(d.n, size=l + 4, replace=False)
                q = picks[:l].tolist()
                qp, qpp = picks[l:l + 2].tolist(), picks[l + 2:l + 4].tolist()
                u = rng.standard_normal(2)
                lhs, rhs = cross_gram_bound_check(d, q, qp, qpp, u, mu_l=mu_l)
                if lhs - rhs > 1e-10:
                    failures.append((idx, l, f"cross-gram {lhs} > {rhs}"))
                draws += 1
        # assembled ceiling dominates the measured partial condition value
        k = 4
        for l in (1, 2):
            block = prip_exact(d, k - l, l)
            bound = prip_erc_bound(k, l, pair_exact[l], block)
            for _ in range(10):
                qstar = rng.choice(d.n, size=k, replace=False).tolist()
                rep = partial_erc("omp", d, qstar[:l], qstar)
                if rep.lhs - bound > 1e-10:
                    failures.append((idx, k, l, f"lhs {rep.lhs} > assembled {bound}"))
        # closed-form constants dominate the exact ones
        for q, l in ((2, 0), (2, 1), (2, 2), (3, 1), (4, 2)):
            exact = prip_exact(d, q, l)
            cb = prip_coherence_bounds(q, l, mu)
            if exact.upper - cb.upper > 1e-10 or exact.lower - cb.lower > 1e-10:
                failures.append((idx, q, l, "coherence bound fails to dominate"))
    # algebraic identity between the two closed-form ceilings
    for k in range(2, 7):
        for l in range(k):
            for frac in np.linspace(0.05, 0.9, 12):
                mu = frac / (k - 1) if k > 1 else frac
                if l >= 2 and mu >= 1.0 / (l - 1):
                    continue
                a = prip_erc_bound(k, l, prip_coherence_bounds(2, l, mu),
                                   prip_coherence_bounds(k - l, l, mu))
                b = omp_partial_bound(k, l, mu)
                if abs(a - b) > 1e-12:
                    failures.append((k, l, mu, f"identity off by {abs(a - b)}"))
    _verdict(6, "projected isometry chain", failures, f"{draws} cross-gram draws")


def test_criterion_7_construction_closed_forms():
    failures = []
    rng = np.random.default_rng(5)
    for k, l in ((3, 1), (4, 2)):
        d = build_worst_case(k, l)
        n = d.n
        # closed-form pair values against literal projections, every |R| < n
        for r in range(n):
            cross, norm_sq = projected_gram_closed_form(k, l, r)
            if r > n - 2:
                continue  # no pair survives; norm check below handles r = n-1
            others = rng.permutation(n)[: r + 2]
            sup = others[:r].tolist()
            p = project_atoms(d, sup)
            ai, aj = p[:, int(others[r])], p[:, int(others[r + 1])]
            if abs(float(ai @ aj) - cross) > 1e-10:
                failures.append((k, l, r, "cross mismatch"))
            if abs(float(ai @ ai) - norm_sq) > 1e-10:
                failures.append((k, l, r, "norm mismatch"))
        _, last_norm = projected_gram_closed_form(k, l, n - 1)
        p = project_atoms(d, list(range(n - 1)))
        if abs(float(p[:, n - 1] @ p[:, n - 1]) - last_norm) > 1e-10:
            failures.append((k, l, n - 1, "last norm mismatch"))

        for variant in ("omp", "ols"):
            # the complement halves cancel after projection
            prefix = list(range(l))
            y2, q1, q2 = dual_representation(d, prefix, variant)
            fam = project_atoms(d, prefix, normalize=variant == "ols")
            gap = np.linalg.norm(fam[:, list(q1)].sum(axis=1) + fam[:, list(q2)].sum(axis=1))
            if gap > 1e-10:
                failures.append((k, l, variant, f"half-sum gap {gap}"))
            # reachability: drive the solver through sampled prefixes of every size
            qs = [[i] for i in range(n)] if n <= 5 else [[0], [n - 1], [2]]
            for size in range(2, n - 1):
                for _ in range(4):
                    qs.append(rng.permutation(n)[:size].tolist())
            for q in qs:
                y1, _ = reach_input(d, q, variant)
                tr = run(variant, d, y1, len(q))
                if list(tr.selected) != list(q) or tr.tie_at is not None:
                    failures.append((k, l, variant, f"reach failed for {q}"))
                mu = coherence(d)
                for p in range(len(q)):
                    if p == 0:
                        lhs = mu
                    else:
                        gp = gram(d)[np.ix_(q[:p], q[:p])]
                        lhs = mu + 2 * mu * mu * float(np.linalg.solve(gp, np.ones(p)).sum())
                    if not lhs < 1.0:
                        failures.append((k, l, variant, f"margin certificate {lhs} at {q}:{p}"))
    _verdict(7, "construction closed forms and reachability", failures)


def test_criterion_8_oracle_equivalence():
    failures = []
    # normalized-projection rule vs literal smallest-new-residual rule
    rng = np.random.default_rng(31)
    for trial in range(100):
        d = random_dictionary(8, 12, seed=1000 + trial)
        y = rng.standard_normal(8)
        tr = run("ols", d, y, 4)
        sel = list(tr.selected)
        for t, atom in enumerate(sel):
            norms = ols_candidate_norms(d.atoms, sel[:t], y)
            best = float(norms.min())
            if norms[atom] > best + 1e-9 * max(best, 1.0):
                failures.append((trial, t, "argmin rule disagrees"))
    # identical traces on orthonormal dictionaries
    for trial in range(100):
        gen = np.random.default_rng(5000 + trial)
        q, _ = np.linalg.qr(gen.standard_normal((10, 10)))
        from greedycert import Dictionary
        d = Dictionary(q)
        y = gen.standard_normal(10)
        a, b = run("omp", d, y, 4), run("ols", d, y, 4)
        if a.selected != b.selected:
            failures.append((trial, "selection mismatch on orthonormal"))
        elif any(np.max(np.abs(np.asarray(sa) - np.asarray(sb))) > 1e-10
                 for sa, sb in zip(a.scores, b.scores)):
            failures.append((trial, "score mismatch on orthonormal"))
    # spark and plain restricted-isometry constants against brute force
    from greedycert import spark
    for i in range(50):
        m, n = (5, 7) if i % 2 == 0 else (6, 8)
        d = random_dictionary(m, n, seed=3000 + i)
        if spark(d) != spark_bruteforce(d.atoms):
            failures.append((i, "spark mismatch"))
        for q in (2, 3):
            exact = prip_exact(d, q, 0)
            lo, hi = ric_bruteforce(d.atoms, q)
            if abs(exact.lower - lo) > 1e-10 or abs(exact.upper - hi) > 1e-10:
                failures.append((i, q, "isometry constant mismatch"))
    _verdict(8, "oracle equivalence", failures, "100+100 runs, 50 dictionaries")


def test_criterion_9_sweep_determinism(tmp_path):
    cfg = dict(m=12, n=12, k_range=[2, 4], l_range=[0, 2], trials=10,
               coherence_target="threshold", seed=4242, variant="both",
               seed_partial=True)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = [tmp_path / f"run{i}" for i in range(3)]
    codes = [cli_main(["sweep", "--config", str(cfg_path), "--out", str(out)]) for out in outs]
    failures = []
    if codes != [0, 0, 0]:
        failures.append(f"exit codes {codes}")
    else:
        blobs = [(o / "sweep.csv").read_bytes() for o in outs]
        if not (blobs[0] == blobs[1] == blobs[2]):
            failures.append("CSV bytes differ between the three runs")
    _verdict(9, "byte-identical sweep output", failures)
