"""Correctness checks for benchmark operations.

Each check returns a list of problems, empty when the result is right.  The
reference values are computed here with plain numpy (lstsq and pinv
projections, explicit Gram matrices) or follow from a property the paper
proves, never from a stored copy of earlier output.
"""

import numpy as np

import greedycert as gc
from greedycert.greedy import TIE_REL_TOL
from greedycert.sweep import THRESHOLD_SAFETY

VANISH = 1e-10  # projected atoms at or below this norm score zero, as in the package


def coherence(atoms: np.ndarray) -> float:
    g = atoms.T @ atoms
    np.fill_diagonal(g, 0.0)
    return float(np.abs(g).max())


def _residual(atoms, chosen, y):
    if not chosen:
        return y.copy()
    sub = atoms[:, chosen]
    return y - sub @ np.linalg.lstsq(sub, y, rcond=None)[0]


def oracle_scores(atoms, chosen, res, variant):
    """Selection scores for the next iteration after `chosen`: correlation with
    the residual, divided for OLS by the norm of each atom's projection off
    span(chosen), taken with a pinv projector."""
    scores = np.abs(atoms.T @ res)
    if variant == "ols":
        proj = atoms
        if chosen:
            sub = atoms[:, chosen]
            proj = atoms - sub @ (np.linalg.pinv(sub) @ atoms)
        norms = np.linalg.norm(proj, axis=0)
        scores = np.where(norms > VANISH, scores / np.where(norms > VANISH, norms, 1.0), 0.0)
    scores[list(chosen)] = 0.0
    return scores


def replay(atoms, y, variant, selected, seeded, residual_norms):
    """Replay a pursuit trace against an independent lstsq projection.

    Every residual norm must agree to 1e-9 relative to |y|, and every
    non-seeded selection must reach the oracle's maximum score within
    TIE_REL_TOL.
    """
    problems = []
    ynorm = float(np.linalg.norm(y))
    if len(residual_norms) != len(selected) + 1:
        return [f"{len(residual_norms)} residual norms for {len(selected)} selections"]
    for t in range(len(selected) + 1):
        res = _residual(atoms, list(selected[:t]), y)
        if abs(float(np.linalg.norm(res)) - residual_norms[t]) > 1e-9 * ynorm:
            problems.append(f"residual norm {t} is {residual_norms[t]!r}, "
                            f"lstsq gives {float(np.linalg.norm(res))!r}")
        if seeded <= t < len(selected):
            scores = oracle_scores(atoms, list(selected[:t]), res, variant)
            top, got = float(scores.max()), float(scores[selected[t]])
            if got < top * (1.0 - TIE_REL_TOL):
                problems.append(f"iteration {t} picked atom {selected[t]} scoring {got!r} "
                                f"below the maximum {top!r}")
    return problems


# ---- sweep -------------------------------------------------------------------

SWEEP_REBUILT = 2  # trials per cell rebuilt from their seeds and pursued by the oracle


def sweep_trial(m, n, k, l, seed, t):
    """Rebuild trial t of a seeded threshold-target sweep cell from the seeds
    `run_sweep` documents: the dictionary from [seed, k, l, t]; the planted
    support, coefficients and seeded atoms from the rng [seed, k, l, t, 1].
    Returns (atoms, y, seeded atoms, support), or None when the generator
    cannot reach the target for this draw."""
    target = (1.0 - THRESHOLD_SAFETY) / (2 * k - l - 1)
    try:
        atoms = gc.random_dictionary(m, n, target, seed=[seed, k, l, t]).atoms
    except gc.TargetUnreachable:
        return None
    rng = np.random.default_rng([seed, k, l, t, 1])
    support = [int(i) for i in rng.choice(n, size=k, replace=False)]
    coef = rng.uniform(0.5, 1.5, size=k) * rng.choice([-1.0, 1.0], size=k)
    seeded = [support[int(i)] for i in rng.choice(k, size=l, replace=False)] if l else []
    return atoms, atoms[:, support] @ coef, seeded, support


def oracle_recovers(atoms, y, variant, seeded, support):
    """Pursue with the oracle scores from the seeded atoms on.  At every step
    the top score must be reached by support atoms only, with no outside atom
    within TIE_REL_TOL of it."""
    chosen = list(seeded)
    while len(chosen) < len(support):
        scores = oracle_scores(atoms, chosen, _residual(atoms, chosen, y), variant)
        tied = np.flatnonzero(scores >= scores.max() * (1.0 - TIE_REL_TOL))
        outside = [int(i) for i in tied if int(i) not in support]
        if outside:
            return [f"iteration {len(chosen)}: outside atom {outside[0]} reaches the top score"]
        chosen.append(int(np.argmax(scores)))
    return []


def sweep_cell(report, m, n, k, l, trials, seed):
    """Seeded with l planted atoms below 1/(2k-l-1), every accepted trial
    recovers: the report counts a success for every accepted trial, and the
    first SWEEP_REBUILT trials, rebuilt here and pursued with the oracle,
    recover and lie within the report's mu_max."""
    threshold = 1.0 / (2 * k - l - 1)
    cells = report.cells
    if [(c.variant, c.k, c.l) for c in cells] != [("omp", k, l), ("ols", k, l)]:
        return [f"unexpected cells {[(c.variant, c.k, c.l) for c in cells]}"]
    problems = []
    for c in cells:
        if not 1 <= c.accepted <= trials:
            problems.append(f"{c.variant}: {c.accepted} of {trials} trials accepted")
        if not c.mu_max < threshold:
            problems.append(f"{c.variant}: mu_max {c.mu_max!r} not below {threshold!r}")
        if c.successes != c.accepted:
            problems.append(f"{c.variant}: {c.accepted - c.successes} accepted trials "
                            f"did not recover below the threshold")
    rebuilt = 0
    for t in range(trials):
        trial = sweep_trial(m, n, k, l, seed, t)
        if trial is None:
            continue
        atoms, y, seeded, support = trial
        mu = coherence(atoms)
        if not mu < threshold:
            problems.append(f"trial {t}: generated coherence {mu!r} not below {threshold!r}")
            continue
        for c in cells:
            if mu > c.mu_max * (1.0 + 1e-12):
                problems.append(f"{c.variant}: mu_max {c.mu_max!r} below trial {t}'s "
                                f"coherence {mu!r}")
            problems += [f"{c.variant} trial {t}: {p}"
                         for p in oracle_recovers(atoms, y, c.variant, seeded, support)]
        rebuilt += 1
        if rebuilt == SWEEP_REBUILT:
            break
    if not rebuilt:
        problems.append("no trial of the cell reached its coherence target")
    return problems


# ---- pursuit -----------------------------------------------------------------

def pursuit(atoms, y, variant, truth, result):
    trace, outcome = result
    sel = list(trace.selected)
    problems = replay(atoms, y, variant, sel, trace.seeded, list(trace.residual_norms))
    wrong = [t for t, a in enumerate(sel) if a not in truth]
    expected = ("wrong_atom", wrong[0]) if wrong else ("success", None)
    if trace.tie_at is None and (outcome.kind, outcome.iteration) != expected:
        problems.append(f"classified {outcome.kind} at {outcome.iteration}, "
                        f"selections say {expected}")
    return problems


# ---- certify -----------------------------------------------------------------

def erc_pinv(atoms, variant, q, qstar):
    """lhs of the partial ERC, recomputed with pinv projectors; an empty q
    gives the plain ERC."""
    n = atoms.shape[1]
    fam = atoms
    if q:
        sub = atoms[:, q]
        fam = atoms - sub @ (np.linalg.pinv(sub) @ atoms)
    if variant == "ols":
        norms = np.linalg.norm(fam, axis=0)
        fam = np.where(norms > VANISH, fam / np.where(norms > VANISH, norms, 1.0), 0.0)
    rest = [i for i in qstar if i not in q]
    outside = [i for i in range(n) if i not in qstar]
    return float(np.abs(np.linalg.pinv(fam[:, rest]) @ fam[:, outside]).sum(axis=0).max())


def erc(atoms, mu, variant, q, qstar, report):
    k, l = len(qstar), len(q)
    lhs = erc_pinv(atoms, variant, q, qstar)
    problems = []
    if abs(report.lhs - lhs) > 1e-9 * max(1.0, lhs):
        problems.append(f"lhs {report.lhs!r} but pinv gives {lhs!r}")
    if report.satisfied != (report.lhs < 1.0):
        problems.append("satisfied flag disagrees with lhs < 1")
    if mu < 1.0 / (2 * k - l - 1) and not report.lhs < 1.0:
        problems.append(f"lhs {report.lhs!r} >= 1 with mu {mu!r} below 1/(2k-l-1)")
    if variant == "omp" and (k == 1 or mu < 1.0 / (k - 1)):
        bound = gc.omp_partial_bound(k, l, mu)
        if report.lhs > bound + 1e-10:
            problems.append(f"lhs {report.lhs!r} above the coherence bound {bound!r}")
    return problems


def projected_coherence(mu, variant, l, value):
    problems = []
    if l == 0 and abs(value - mu) > 1e-12:
        problems.append(f"projected coherence at l=0 is {value!r}, coherence is {mu!r}")
    if variant == "ols":
        if l == 0 or mu < 1.0 / l:
            bound = gc.ols_coherence_bound(l, mu)
            if value > bound + 1e-10:
                problems.append(f"{value!r} above the OLS bound {bound!r}")
    elif l < 2 or mu < 1.0 / (l - 1):
        # |<Pa_i, Pa_j>| is half the eigenvalue gap of the pair's projected Gram
        pair = gc.prip_coherence_bounds(2, l, mu)
        ceiling = 0.5 * (pair.upper + pair.lower)
        if value > ceiling + 1e-10:
            problems.append(f"{value!r} above the pair-isometry ceiling {ceiling!r}")
    return problems


def prip(mu, q, l, consts):
    problems = []
    if (consts.q, consts.l) != (q, l):
        problems.append(f"constants for {(consts.q, consts.l)}, asked for {(q, l)}")
    if l < 2 or mu < 1.0 / (l - 1):
        bound = gc.prip_coherence_bounds(q, l, mu)
        if consts.upper > bound.upper + 1e-10 or consts.lower > bound.lower + 1e-10:
            problems.append(f"({consts.lower!r}, {consts.upper!r}) not below the coherence "
                            f"bounds ({bound.lower!r}, {bound.upper!r})")
    if (q, l) == (2, 0) and max(abs(consts.lower - mu), abs(consts.upper - mu)) > 1e-12:
        problems.append(f"pair constants {(consts.lower, consts.upper)} differ from mu {mu!r}")
    return problems


# ---- worstcase ---------------------------------------------------------------

def worstcase(k, l, variant, out_dir, result):
    """The CLI wrote a reproduced failure at exactly 1/(2k-l-1), and the files
    read back as written."""
    code, d, y, blob = result
    if code != 0 or blob.get("reproduced") is not True:
        return [f"exit code {code}, reproduced {blob.get('reproduced')!r}"]
    problems = []
    atoms = np.loadtxt(f"{out_dir}/dictionary.csv", delimiter=",", ndmin=2)
    y_file = np.loadtxt(f"{out_dir}/y.csv", ndmin=1)
    if not (np.array_equal(atoms, d.atoms) and np.array_equal(y_file, y)):
        problems.append("loaders disagree with the files on disk")
    mu = 1.0 / (2 * k - l - 1)
    g = atoms.T @ atoms
    off = g[~np.eye(g.shape[0], dtype=bool)]
    if np.abs(off + mu).max() > 1e-12:
        problems.append(f"off-diagonal Gram deviates from -mu by {np.abs(off + mu).max():.3g}")
    if abs(coherence(atoms) - mu) > 1e-10 or abs(blob["coherence"] - mu) > 1e-10:
        problems.append(f"coherence {blob['coherence']!r} is not 1/(2k-l-1) = {mu!r}")
    truth = list(blob["truth"])
    gap = np.linalg.norm(_residual(atoms, truth, y_file))
    if gap > 1e-10 * np.linalg.norm(y_file):
        problems.append(f"y strays from span(truth) by {gap:.3g}")
    rep = blob["replay"]
    sel, outcome = rep["selected"], rep["outcome"]
    if sel[:l] != list(range(l)):
        problems.append(f"prefix {sel[:l]} is not 0..{l - 1}")
    if outcome["kind"] not in ("wrong_atom", "tie_with_wrong_atom") or outcome["iteration"] != l:
        problems.append(f"outcome {outcome} does not fail at iteration {l}")
    problems += replay(atoms, y_file, variant, sel, rep["seeded"], rep["residual_norms"])
    # at iteration l an atom outside the truth reaches the top score
    scores = oracle_scores(atoms, list(range(l)), _residual(atoms, list(range(l)), y_file), variant)
    tied = np.flatnonzero(scores >= scores.max() * (1.0 - TIE_REL_TOL))
    if all(int(i) in truth for i in tied):
        problems.append(f"no atom outside the truth ties for the top score at iteration {l}")
    return problems
