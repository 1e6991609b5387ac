"""Independent oracles the tests check the library against.

These deliberately take different numerical routes than the package (pinv,
normal equations and from-scratch SVD + QR instead of incremental Gram-Schmidt,
per-subset python loops instead of batched enumeration) so that agreement
actually means something.
"""

import itertools
import json
import math

import numpy as np

from greedycert import (CalibrationFailed, CellResult, Dictionary, GreedyTrace, InvalidArgs,
                        RankDeficient, RecoveryOutcome, SolverVariant, Support, SweepReport,
                        as_support, coherence, coherence_threshold, make_instance, run,
                        welch_bound)
from greedycert import dictionary, guarantees, sweep
from greedycert.greedy import RESIDUAL_TOL, TIE_REL_TOL, _tied
from greedycert.guarantees import _projected_grams
from greedycert.projection import VANISH_TOL


def projector(cols: np.ndarray) -> np.ndarray:
    return cols @ np.linalg.pinv(cols)


def residual_oracle(a: np.ndarray, support, y: np.ndarray) -> np.ndarray:
    sup = list(support)
    y = np.asarray(y, dtype=float)
    if not sup:
        return y.copy()
    return y - projector(a[:, sup]) @ y


def ls_normal_equations(a: np.ndarray, support, y: np.ndarray) -> np.ndarray:
    sub = a[:, list(support)]
    return np.linalg.solve(sub.T @ sub, sub.T @ y)


def spark_bruteforce(a: np.ndarray) -> int:
    m, n = a.shape
    if np.linalg.matrix_rank(a) == n:
        return n + 1
    for size in range(1, n + 1):
        for cols in itertools.combinations(range(n), size):
            if np.linalg.matrix_rank(a[:, list(cols)]) < size:
                return size
    return n + 1  # unreachable when rank < n


def ric_bruteforce(a: np.ndarray, q: int) -> tuple[float, float]:
    """(lower, upper) restricted-isometry deviations over all size-q column sets."""
    lo, hi = 0.0, 0.0
    for cols in itertools.combinations(range(a.shape[1]), q):
        sub = a[:, list(cols)]
        eigs = np.linalg.eigvalsh(sub.T @ sub)
        lo = max(lo, 1.0 - float(eigs[0]))
        hi = max(hi, float(eigs[-1]) - 1.0)
    return lo, hi


def prip_bruteforce(a: np.ndarray, q: int, l: int) -> tuple[float, float]:
    """Projected RIC deviations with explicit loops over supports and blocks."""
    m, n = a.shape
    lo, hi = 0.0, 0.0
    for sup in itertools.combinations(range(n), l):
        p = np.eye(m) - (projector(a[:, list(sup)]) if sup else np.zeros((m, m)))
        fam = p @ a
        rest = [i for i in range(n) if i not in sup]
        for cols in itertools.combinations(rest, q):
            sub = fam[:, list(cols)]
            eigs = np.linalg.eigvalsh(sub.T @ sub)
            lo = max(lo, 1.0 - float(eigs[0]))
            hi = max(hi, float(eigs[-1]) - 1.0)
    return lo, hi


def partial_erc_pinv(a: np.ndarray, q, qstar, normalize: bool) -> float:
    """max_i ||pinv(family_rest) @ family_i||_1 over atoms outside qstar."""
    q, qstar = list(q), list(qstar)
    m = a.shape[0]
    p = np.eye(m) - (projector(a[:, q]) if q else np.zeros((m, m)))
    fam = p @ a
    if normalize:
        norms = np.linalg.norm(fam, axis=0)
        keep = norms > 1e-10
        fam = fam.copy()
        fam[:, keep] /= norms[keep]
    rest = [i for i in qstar if i not in q]
    outside = [i for i in range(a.shape[1]) if i not in qstar]
    if not outside:
        return 0.0
    coef = np.linalg.pinv(fam[:, rest]) @ fam[:, outside]
    return float(np.abs(coef).sum(axis=0).max())


def ols_candidate_norms(a: np.ndarray, selected, y: np.ndarray) -> np.ndarray:
    """New residual norm for each candidate atom; inf for already-selected."""
    n = a.shape[1]
    out = np.full(n, np.inf)
    cur = list(selected)
    for i in range(n):
        if i in cur:
            continue
        cols = cur + [i]
        if np.linalg.matrix_rank(a[:, cols]) < len(cols):
            out[i] = float(np.linalg.norm(residual_oracle(a, cur, y)))
        else:
            out[i] = float(np.linalg.norm(residual_oracle(a, cols, y)))
    return out


# closed forms on the threshold construction (n = 2k-l atoms, mu = 1/(n-1))

def construction_mu(k: int, l: int) -> float:
    return 1.0 / (2 * k - l - 1)


def construction_erc_lhs(k: int) -> float:
    """Full-support recovery-condition value for a size-k support, l = 0."""
    mu = construction_mu(k, 0)
    return k * mu / (1.0 + mu - k * mu)


def construction_projected_pair(k: int, l: int, r: int) -> tuple[float, float]:
    """(cross inner product, squared norm) after projecting away r atoms."""
    mu = construction_mu(k, l)
    v = r / (1.0 + mu - r * mu)
    return -mu - mu * mu * v, 1.0 - mu * mu * v


# the from-scratch projection path: an SVD rank gate plus a QR for every
# support, rebuilt on each call; the package's pursuit state and the support
# walk of its enumerations are checked against it

def orthonormal_basis(a: np.ndarray, support) -> np.ndarray:
    """Orthonormal basis of span(a[:, support]), with a full-rank check."""
    sup = list(support)
    if not sup:
        return np.zeros((a.shape[0], 0))
    if len(sup) > a.shape[0]:
        raise RankDeficient(f"{len(sup)} atoms cannot be independent in dimension {a.shape[0]}")
    sub = a[:, sup]
    sv = np.linalg.svd(sub, compute_uv=False)
    if sv[-1] <= 1e-8 * sv[0]:
        raise RankDeficient(f"atoms {sup} are numerically dependent")
    q, _ = np.linalg.qr(sub)
    return q


def projected_family(a: np.ndarray, support, normalize: bool) -> tuple[np.ndarray, np.ndarray]:
    """(raw or unit-norm atoms projected against the support span, vanished mask)."""
    q = orthonormal_basis(a, support)
    proj = a - q @ (q.T @ a)
    proj[:, list(support)] = 0.0
    norms = np.linalg.norm(proj, axis=0)
    vanished = norms <= 1e-10
    if normalize:
        proj = np.where(vanished, 0.0, proj / np.where(vanished, 1.0, norms))
    return proj, vanished


def residual_scratch(a: np.ndarray, support, y: np.ndarray) -> np.ndarray:
    q = orthonormal_basis(a, support)
    return y - q @ (q.T @ y)


def pursuit_scratch(variant: str, a: np.ndarray, y: np.ndarray, k: int, seed=()) -> GreedyTrace:
    """The pursuit loop with every residual and projected family rebuilt from scratch."""
    selected = list(seed)
    norms = [float(np.linalg.norm(residual_scratch(a, selected[:p], y)))
             for p in range(len(selected) + 1)]
    scores_log, tie_at, early_stop = [], None, None
    while len(selected) < k:
        if norms[-1] <= RESIDUAL_TOL:
            early_stop = len(selected)
            break
        fam, vanished = projected_family(a, selected, normalize=(variant == "ols"))
        scores = np.abs(fam.T @ residual_scratch(a, selected, y))
        scores[vanished] = 0.0
        top = scores.max()
        if top > 0.0:
            tied = list(np.flatnonzero(scores >= top * (1.0 - TIE_REL_TOL)))
        else:
            tied = [i for i in range(a.shape[1]) if i not in selected]
        if len(tied) >= 2 and tie_at is None:
            tie_at = len(selected)
        scores_log.append(scores)
        selected.append(int(tied[0]))
        norms.append(float(np.linalg.norm(residual_scratch(a, selected, y))))
    return GreedyTrace(variant=SolverVariant(variant), requested=k, seeded=len(seed),
                       selected=Support(tuple(selected)), scores=tuple(scores_log),
                       residual_norms=tuple(norms), tie_at=tie_at, early_stop=early_stop)


def projected_coherence_scratch(a: np.ndarray, normalize: bool, l: int) -> float:
    best = 0.0
    for sup in itertools.combinations(range(a.shape[1]), l):
        fam, _ = projected_family(a, sup, normalize)
        g = fam.T @ fam
        np.fill_diagonal(g, 0.0)
        best = max(best, float(np.abs(g).max()))
    return best


def prip_scratch(a: np.ndarray, q: int, l: int) -> tuple[float, float]:
    """(lower, upper) projected isometry constants, one from-scratch projection per support."""
    lo, hi = np.inf, -np.inf
    for sup in itertools.combinations(range(a.shape[1]), l):
        fam, _ = projected_family(a, sup, normalize=False)
        rest = [i for i in range(a.shape[1]) if i not in sup]
        for cols in itertools.combinations(rest, q):
            eigs = np.linalg.eigvalsh(fam[:, cols].T @ fam[:, cols])
            lo, hi = min(lo, float(eigs[0])), max(hi, float(eigs[-1]))
    return 1.0 - lo, hi - 1.0


def flat(stacks):
    """(support, Gram) for each support of a walk's (supports, Grams) stacks, one
    support at a time."""
    for supports, grams in stacks:
        yield from zip(supports, grams, strict=True)


def prip_every_block(d, q: int, l: int,
                     walk=lambda d, l: flat(_projected_grams(d, l))) -> tuple[float, float]:
    """(lower, upper) of prip_exact with an eigensolve on every block: per support of
    the walk, the package's Gram walk by default, one stacked eigvalsh over all of
    its blocks.  The pruned enumeration must give these bits."""
    lo, hi = np.inf, -np.inf
    blocks = np.array(list(itertools.combinations(range(d.n - l), q)))
    for _, gram in walk(d, l):
        grams = gram[blocks[:, :, None], blocks[:, None, :]]
        eig = np.linalg.eigvalsh(grams)
        lo = min(lo, float(eig[:, 0].min()))
        hi = max(hi, float(eig[:, -1].max()))
    return 1.0 - lo, hi - 1.0


def definite_stacked(a: np.ndarray, shift: float, sign: float) -> np.ndarray:
    """Mask of the stacked symmetric matrices a (N, q, q), overwritten, for which the
    unpivoted Cholesky (LDL^T) factorization of sign * (a - shift I) has only positive
    pivots: the test prip_exact ran on gathered (N, q, q) blocks before it pruned in a
    row layout.  The row-layout test guarantees._definite must give the same mask."""
    n = a.shape[1]
    diag = np.arange(n)
    a *= sign
    a[:, diag, diag] -= sign * shift
    ok = np.ones(len(a), dtype=bool)
    for k in range(n):
        pivot = a[:, k, k]
        ok &= pivot > 0
        if k + 1 < n:
            # a matrix with a pivot <= 0 divides by inf: no updates from then on
            h = a[:, k, k + 1:] / np.sqrt(np.where(ok, pivot, np.inf))[:, None]
            a[:, k + 1:, k + 1:] -= np.einsum("ci,cj->cij", h, h)
    return ok


# the enumerations' support walk on Grams one push at a time, as the package ran it
# before it pushed children in stacks; the stacked walk must give its bits

def walk_per_push(d, l: int):
    """(support, Gram of the atoms outside it, in index order) for each l-subset of
    atoms, in combinations() order.  A push is one Schur-complement step G - h h^T,
    h = g / sqrt(g_i); where the product P of the pivots since the last exact Gram, times
    the least squared norm left, falls below 2^-10, the Gram comes from
    guarantees.project_atoms (looked up per call, so a patched one sees these calls too)
    and P restarts at 1."""
    guard = 2.0 ** -10

    def walk(support, gram, pivots, start):
        if len(support) == l:
            yield support, gram
            return
        t = len(support)
        for j in range(start, d.n - l + t + 1):
            i = j - t
            p = pivots * gram[i, i]
            if p >= guard:
                keep = np.arange(len(gram) - 1)
                keep[i:] += 1
                h = gram[i].take(keep) / math.sqrt(gram[i, i])
                child = gram.take(keep, 0).take(keep, 1) - h[:, None] * h
                if p * child.diagonal().min() >= guard:
                    yield from walk(support + (j,), child, p, j + 1)
                    continue
            projected = guarantees.project_atoms(d, support + (j,))
            rest = np.delete(projected, support + (j,), axis=1)
            yield from walk(support + (j,), rest.T @ rest, 1.0, j + 1)

    yield from walk((), d.atoms.T @ d.atoms, 1.0, 0)


def coherence_per_support(walk, normalize: bool) -> float:
    """projected_coherence over a (support, Gram) walk, one Gram at a time, each
    normalized (for OLS) by the outer product of its inverse diagonal norms."""
    best = 0.0
    for _, gram in walk:
        if normalize:
            norms = np.sqrt(gram.diagonal())
            scale = 1.0 / np.where(norms <= VANISH_TOL, np.inf, norms)
            gram = gram * np.outer(scale, scale)
        best = max(best, float(dictionary._off_diagonal_max(gram)))
    return best


def stacks_of_one(walk):
    """A per-support walk as the package's (supports, Grams) stacks, one support each."""
    return lambda d, l: (([support], gram[None]) for support, gram in walk(d, l))


# the enumerations' support walk on vectors, as the package ran it before it
# walked on Grams: each push is a rank-1 update of the projected family, O(mn)

def walk_vectors(d, l: int):
    """(support, projected atoms) for each l-subset of atoms, in combinations() order;
    RankDeficient at the first support whose pushed atom lies within RANK_SV_TOL of the
    span of the atoms before it."""
    def walk(support, basis, projected, start):
        if len(support) == l:
            yield support, projected
            return
        for j in range(start, d.n - l + len(support) + 1):
            dist = np.sqrt(projected[:, j] @ projected[:, j])
            if dist <= dictionary.RANK_SV_TOL:
                raise RankDeficient(f"atoms {support + (j,)} are numerically dependent "
                                    f"(atom {j} lies {dist:.3g} from the span of the others)")
            q = projected[:, j] / dist
            q -= basis @ (basis.T @ q)
            q /= np.sqrt(q @ q)
            pushed = q[:, None] * -(q @ projected)
            pushed += projected
            pushed[:, j] = 0.0
            yield from walk(support + (j,), np.column_stack((basis, q)), pushed, j + 1)

    yield from walk((), np.empty((d.m, 0)), d.atoms.copy(), 0)


def grams_of_walk_vectors(d, l: int):
    """(support, Gram of the projected atoms outside it) for each support of walk_vectors."""
    for support, projected in walk_vectors(d, l):
        rest = np.delete(projected, support, axis=1)
        yield support, rest.T @ rest


def coherence_of_walk_vectors(d, normalize: bool, l: int) -> float:
    """projected_coherence on walk_vectors' families, normalized the vector way."""
    best = 0.0
    for _, projected in walk_vectors(d, l):
        fam = projected
        if normalize:
            norms = np.sqrt(np.einsum("ij,ij->j", projected, projected))
            fam = projected / np.where(norms <= 1e-10, np.inf, norms)
        g = fam.T @ fam
        np.fill_diagonal(g, 0.0)
        best = max(best, float(np.abs(g).max()))
    return best


# the per-trial generator: one dictionary per call, one blend-and-Gram
# evaluation at a time, and a Gram shrinkage that runs its whole step budget;
# the package's batched generator must reproduce its bytes

def shrink_gram_full_budget(start: np.ndarray, target: float, max_iter: int = 1500):
    d = start.copy()
    m, n = d.shape
    gamma = 0.95 * target
    for _ in range(max_iter):
        g = d.T @ d
        mu = np.abs(g - np.diag(np.diag(g))).max()
        if mu <= target:
            return d
        clipped = np.clip(g, -gamma, gamma)
        np.fill_diagonal(clipped, 1.0)
        w, vecs = np.linalg.eigh(clipped)
        top = np.clip(w[n - m:], 0.0, None)
        d = (vecs[:, n - m:] * np.sqrt(top)).T
        norms = np.linalg.norm(d, axis=0)
        dead = np.flatnonzero(norms < 1e-12)
        if dead.size:
            d[:, dead] = 0.0
            d[dead % m, dead] = 1.0
            norms = np.linalg.norm(d, axis=0)
        d = d / norms
    return None


def _haar_frame(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Unit-norm frame from an orthogonal draw, one QR per trial (the generator
    factors a batch in one stacked QR): exact orthonormal columns when n <= m,
    otherwise the first m rows of a Haar orthogonal matrix."""
    if n <= m:
        g = rng.normal(size=(m, n))
        q, r = np.linalg.qr(g)
        return q * np.sign(np.diag(r))
    g = rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    return dictionary._unit_columns(q[:m, :])


def random_dictionary_per_trial(m: int, n: int, coherence_target=None, seed=0):
    """(path, atoms) of one seeded dictionary.  The path is "noise", "bisect"
    (the searched blend) or "shrink"; atoms is None where the target is not reached."""
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=(m, n))
    if coherence_target is None:
        return "noise", noise / np.linalg.norm(noise, axis=0)
    target = float(coherence_target)
    frame = _haar_frame(rng, m, n)

    def blend(t: float) -> np.ndarray:
        mat = (1.0 - t) * frame + t * noise
        return mat / np.linalg.norm(mat, axis=0)

    def mu_of(mat: np.ndarray) -> float:
        g = mat.T @ mat
        return float(np.abs(g - np.diag(np.diag(g))).max())

    mu_noise, mu_frame = mu_of(blend(1.0)), mu_of(frame)
    if mu_noise <= target:
        return "noise", blend(1.0)
    if mu_frame <= target:
        # false position with the Illinois rule: an end kept twice in a row has its value halved
        atoms, mu_lo, lo, hi = frame, mu_frame, 0.0, 1.0
        g_lo, g_hi, moved = mu_frame - target, mu_noise - target, 0
        for _ in range(dictionary.BLEND_PROBES):
            if target - mu_lo <= dictionary.BLEND_GAP * target:
                break
            t = lo + (hi - lo) * (g_lo / (g_lo - g_hi))
            t = min(max(t, math.nextafter(lo, hi)), math.nextafter(hi, lo))
            probe = blend(t)
            mu = mu_of(probe)
            if mu <= target:
                if moved > 0:
                    g_hi *= 0.5
                atoms, mu_lo, lo, g_lo, moved = probe, mu, t, mu - target, 1
            else:
                if moved < 0:
                    g_lo *= 0.5
                hi, g_hi, moved = t, mu - target, -1
        return "bisect", atoms
    if n > m:
        return "shrink", shrink_gram_full_budget(frame, target)
    return "bisect", None


# classification one iteration at a time, as `classify` ran before it became a
# stack of one

def classify_stepwise(trace: GreedyTrace, truth) -> RecoveryOutcome:
    """Classify a trace as exact recovery or its first failure event, one iteration
    at a time: the reference for `classify`, which applies the batched rule of the
    sweeps to a stack of one.

    Success requires every selection to land in the planted support, with no
    tie involving an outside atom at any iteration, and the full number of
    requested selections performed.  A tie with an outside atom counts as
    failure even when the tiebreak happened to pick a planted atom, matching
    the pessimistic convention under which worst-case results are stated.  A
    residual that vanishes before the requested number of selections is
    classified as early_zero_residual.
    """
    truth_support = as_support(truth)
    if len(truth_support) != trace.requested:
        raise InvalidArgs(
            f"truth has {len(truth_support)} atoms but the trace requested {trace.requested}")
    truth_set = set(truth_support)
    for t, atom in enumerate(trace.selected):
        if t >= trace.seeded:
            tied = _tied(np.asarray(trace.scores[t - trace.seeded]))
            if (np.count_nonzero(tied) >= 2
                    and any(int(i) not in truth_set for i in tied.nonzero()[0])):
                return RecoveryOutcome(RecoveryOutcome.TIE_WITH_WRONG_ATOM, iteration=t)
        if atom not in truth_set:
            return RecoveryOutcome(RecoveryOutcome.WRONG_ATOM, iteration=t, atom=int(atom))
    if trace.early_stop is not None:
        return RecoveryOutcome(RecoveryOutcome.EARLY_ZERO_RESIDUAL, iteration=trace.early_stop)
    if len(trace.selected) != trace.requested:
        return RecoveryOutcome(RecoveryOutcome.EARLY_ZERO_RESIDUAL, iteration=len(trace.selected))
    return RecoveryOutcome(RecoveryOutcome.SUCCESS)


# the sweep one trial at a time: each trial's dictionary and outcome row drawn alone,
# then one pursuit and one classify per trial and variant

_COUNT_OF = {RecoveryOutcome.SUCCESS: "successes", RecoveryOutcome.WRONG_ATOM: "wrong_atoms",
             RecoveryOutcome.TIE_WITH_WRONG_ATOM: "wrong_ties",
             RecoveryOutcome.EARLY_ZERO_RESIDUAL: "early_stops"}


def sweep_per_trial(config, scratch: bool = False) -> SweepReport:
    """run_sweep's report from per-trial work: each trial generated, pursued with `run`
    (or with `pursuit_scratch` when scratch is set) and classified by classify_stepwise
    on its own."""
    variants = ("omp", "ols") if config.variant == "both" else (config.variant,)
    m, n = config.m, config.n
    cells = []
    for k, l in config.cells():
        per_variant = {v: CellResult(variant=v, k=k, l=l, threshold=coherence_threshold(k, l),
                                     requested=config.trials) for v in variants}
        target = config.cell_target(k, l)
        reachable = target is None or target >= welch_bound(m, n)
        reached = 0
        for t in range(config.trials if reachable else 0):
            _, atoms = random_dictionary_per_trial(m, n, target, [config.seed, k, l, t])
            if atoms is None:
                continue
            reached += 1
            d = Dictionary(atoms)
            mu = coherence(d)
            if config.coherence_target == "threshold" and not mu < coherence_threshold(k, l):
                continue
            # row t of the cell's outcome stream, read by itself
            u = np.random.default_rng([config.seed, k, l, 0, 1]).random((t + 1, n + 2 * k))[t]
            support = sorted(range(n), key=lambda i: u[i])[:k]
            coeffs = np.array([(0.5 + u[n + i]) * (-1.0 if u[n + k + i] < 0.5 else 1.0)
                               for i in range(k)])
            y = make_instance(d, support, coeffs).observation
            seed = support[:l] if config.seed_partial else []
            for v in variants:
                trace = (pursuit_scratch(v, d.atoms, y, k, tuple(seed)) if scratch
                         else run(v, d, y, k, seed_support=seed))
                cell = per_variant[v]
                cell.accepted += 1
                cell.mu_sum += mu
                cell.mu_max = max(cell.mu_max, mu)
                field = _COUNT_OF[classify_stepwise(trace, support).kind]
                setattr(cell, field, getattr(cell, field) + 1)
        for v in variants:
            cell = per_variant[v]
            if cell.accepted == 0:
                cell.skip_reason = (sweep.SKIP_BELOW_WELCH if not reachable else
                                    sweep.SKIP_DROPPED if reached else
                                    sweep.SKIP_UNREACHED if n > m else sweep.SKIP_ROUNDING)
            cells.append(cell)
    return SweepReport(config=config, cells=tuple(cells))


# worst-case calibration one candidate scale at a time, each a run of its own

def calibrate_sequential(variant, d, base, direction, prefix, what: str) -> float:
    """The first of the scales 1, 1/2, 1/4, ... (80 of them) at which the run from
    base + scale * direction selects exactly prefix, without a tie and each time
    with a margin of at least 10 TIE_REL_TOL over the runner-up; every input
    reproduces an empty prefix."""
    eps = 1.0
    if not len(prefix):
        return eps
    for _ in range(80):
        trace = run(variant, d, base + eps * direction, len(prefix))
        ok = list(trace.selected) == list(prefix) and trace.tie_at is None
        for t, scores in enumerate(trace.scores if ok else ()):
            top = float(scores[trace.selected.indices[t]])
            rivals = np.array(scores)
            rivals[trace.selected.indices[t]] = 0.0
            ok = ok and top > 0.0 and (top - float(rivals.max())) / top >= 10 * TIE_REL_TOL
        if ok:
            return eps
        eps *= 0.5
    raise CalibrationFailed(f"could not calibrate {what} after 80 halvings")


# ---- per-element number formatting, the reference for the `.tolist()` forms ---

EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308)


def csv_lines_per_scalar(rows) -> str:
    """`dictionary._csv_lines`, formatting one numpy scalar at a time."""
    return "\n".join(",".join(f"{x:.17g}" for x in row) for row in rows)


def json_dumps_indented(obj) -> str:
    """`dictionary._json`: Python's own encoder at indent 2, NaN and infinities refused."""
    return json.dumps(obj, indent=2, allow_nan=False)


def trace_dict_per_scalar(trace, outcome=None) -> dict:
    """`GreedyTrace.to_dict` with its number lists built by `float(x)`."""
    return {**trace.to_dict(outcome),
            "scores": [[float(x) for x in vec] for vec in trace.scores],
            "residual_norms": [float(x) for x in trace.residual_norms]}


def scenario_dict_per_scalar(scenario) -> dict:
    """`WorstCaseScenario.to_dict` with its number lists built by `float(x)`."""
    return {**scenario.to_dict(),
            **{key: [float(x) for x in getattr(scenario, key)]
               for key in ("y", "reach_component", "null_component", "prefix_coefficients")}}
