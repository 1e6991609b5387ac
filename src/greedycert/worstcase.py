"""Constructive failure scenarios for greedy pursuit at the coherence threshold.

Against the symmetric dictionary from build_worst_case, an input can be
assembled that walks the solver through any prescribed prefix of selections
and then forces a wrong atom (or a tie with one) on the very next iteration:
the null space of the dictionary is spanned by the all-ones vector, so the sum
of the projected atoms over one half of the remaining indices equals minus the
sum over the other half, and an observation built on one half makes every
remaining atom score identically.  The prefix part of that input is solved in
closed form (_prefix_coefficients), and only the mixing scale is calibrated
(_calibrate, the loop with which reach_input walks a pursuit through a prefix on
any dictionary).
"""

from dataclasses import dataclass

import numpy as np

from .dictionary import (Dictionary, Support, _check_kl, _csv_lines, _index, _json, as_support,
                         build_worst_case, check_support, coherence)
from .errors import CalibrationFailed, InvalidArgs
from .greedy import (RESIDUAL_TOL, TIE_REL_TOL, SolverVariant, _margins, _Pursuit, _scores,
                     as_variant)
from .guarantees import coherence_threshold
from .projection import project_atoms, residual

HALVING_STEPS = 80
CALIBRATION_STACK = 4  # scales in the first stack a calibration tries at once
MARGIN_FACTOR = 10.0  # selection margins must exceed this multiple of the tie tolerance
# the relative margin (_margins) of each prefix selection of a worst-case input before
# mixing: it must stay well above MARGIN_FACTOR * TIE_REL_TOL once the mixing component
# is added, and the grid 2k-l <= 64 reproduces from 1e-4 to 0.1
PREFIX_MARGIN = 1e-2
SPAN_TOL = 1e-10


def projected_gram_closed_form(k: int, l: int, r) -> tuple[float, float]:
    """Closed-form projected inner products on the symmetric construction.

    After projecting the dictionary from build_worst_case(k, l) against any
    atom subset R with |R| < 2k-l, every pair of distinct remaining atoms has
    the same inner product and every remaining atom the same squared norm:

        cross   = -mu - mu^2 * s
        norm_sq = 1 - mu^2 * s

    with mu = 1/(2k-l-1) and s the sum of the entries of the inverse Gram of
    the R atoms.  That Gram is (1 + mu) I - mu 1 1^T, so by Sherman-Morrison
    s = |R| / (1 + mu - |R| mu).  Returns (cross, norm_sq); both depend on R
    only through its size, so r may be either the subset itself (of atoms
    0..2k-l-1) or a plain count.
    """
    mu = coherence_threshold(k, l)  # validates k, l
    n = 2 * k - l
    if np.iterable(r):
        sup = as_support(r)
        if len(sup) and max(sup) >= n:
            raise InvalidArgs(f"R index {max(sup)} out of range for 2k-l = {n} atoms")
        size = len(sup)
    else:
        size = _index(r, "|R|")  # neither a float nor a bool is a count
        if size < 0:
            raise InvalidArgs(f"|R| must be non-negative, got {r}")
    if size >= n:
        raise InvalidArgs(f"|R| must be below 2k-l = {n}, got {size}")
    s = size / (1.0 + mu - size * mu)
    return -mu - mu * mu * s, 1.0 - mu * mu * s


def _prefix_coefficients(k: int, l: int) -> np.ndarray:
    """The coefficients c of the prefix part y1 = sum over j < l of c_j a_j of the
    worst-case input for (k, l): from y1 a pursuit on build_worst_case(k, l) selects
    atoms 0, 1, ..., l-1 in turn, each with a margin (_margins) of at least
    PREFIX_MARGIN over every other atom.

    With atoms 0..t-1 projected out, the other atoms have equal squared norms and equal
    inner products, -mu_t times those norms, with mu_t = 1/(2k-l-1-t)
    (projected_gram_closed_form).  So at level t, with S_t = c_t + ... + c_{l-1}, a
    remaining prefix atom i scores in proportion to |c_i (1 + mu_t) - mu_t S_t| and every
    atom outside the prefix to mu_t |S_t|, under either variant, as the projected norms
    are equal; level t depends on c_t, ..., c_{l-1} only.  So c_{l-1} = 1 and, for
    t = l-2 down to 0, c_t is the value of least magnitude at which atom t's margin
    reaches PREFIX_MARGIN.  Every score of level t is |b + g c_t| for some b and g, so
    that value is one of the points where a rival's score is (1 - PREFIX_MARGIN) times
    atom t's, moved away from zero by a relative 1e-12 to stay feasible under rounding.
    Scaled to a largest magnitude of 1."""
    n, keep = 2 * k - l, 1.0 - PREFIX_MARGIN
    c, sign = np.ones(l), np.array([[1.0], [-1.0]])
    for t in range(l - 2, -1, -1):
        mu, tail = 1.0 / (n - 1 - t), c[t + 1:]
        a = mu * tail.sum()
        # the scores of level t are |b + g c_t|: atom t's, the later prefix atoms', and
        # the atoms' outside the prefix
        b = np.concatenate(((-a,), (1.0 + mu) * tail - a, (a,)))
        g = np.concatenate(((1.0,), np.full(len(tail), -mu), (mu,)))
        # the roots of keep (x - a) = +-(b_r + g_r x), for every rival r
        x = ((keep * a + sign * b[1:]) / (keep - sign * g[1:])).ravel() * (1.0 + 1e-12)
        x = x[_margins(np.abs(b + g * x[:, None]), 0) >= PREFIX_MARGIN]
        c[t] = x[np.abs(x).argmin()]
    return c / np.abs(c).max(initial=1.0)  # c_{l-1} = 1: the initial only serves l = 0


def _calibrate(variant, d: Dictionary, base, direction, prefix, what: str) -> float:
    """The first of the scales 1, 1/2, 1/4, ... at which the input base + scale * direction
    reproduces prefix; CalibrationFailed names what after HALVING_STEPS of them.

    A scale is accepted when a pursuit from that input selects exactly the prefix, each
    time before its residual norm falls to RESIDUAL_TOL and with a positive score and a
    margin (_margins) of MARGIN_FACTOR * TIE_REL_TOL over every other atom; an empty
    prefix takes scale 1.  One pursuit from the zero vector pushes the prefix atoms before
    the last.  A candidate's residual at prefix level t is affine in its scale,
    P_t (x + eps d) = P_t x + eps P_t d, and so are its correlations with the atoms.  So
    the input x and the direction d are projected at every level, and those projections
    take one product with the atoms (after the correlation updates of Batch-OMP;
    Rubinstein, Zibulevsky, Elad 2008).  The loop then tries CALIBRATION_STACK scales at
    once, then twice as many, and so on: a stack forms the residual vectors of all its
    scales at all levels (their norms are taken from the vectors, never as |y|^2 minus
    squared correlations) and their correlations, scores them with each level's squared
    projected norms, and checks every level in one pass."""
    variant = as_variant(variant)
    length = len(prefix)
    if not length:  # every input reproduces an empty prefix
        return 1.0
    pursuit = _Pursuit(d.atoms, 0.0, length)
    # per level t: the basis vector t - 1 it projects away (zero at level 0), and the
    # squared projected norms after it
    basis, sq = np.zeros((length, d.m)), np.empty((length, d.n))
    sq[0] = pursuit.sq
    for t in range(1, length):
        pursuit.push(prefix[t - 1])
        basis[t], sq[t] = pursuit.basis[:, t - 1], pursuit.sq
    # the input x and the direction d at every level (each minus its components along the
    # basis vectors before that level), and their correlations with the atoms
    pair = np.array((base, direction))
    proj = pair[:, None] - np.add.accumulate((pair @ basis.T)[..., None] * basis, axis=1)
    (x, dx), (cx, cdx) = proj, proj @ d.atoms
    halvings = np.ldexp(1.0, -np.arange(HALVING_STEPS))
    start = 0
    while start < HALVING_STEPS:
        end = min(2 * start + CALIBRATION_STACK, HALVING_STEPS)
        eps = halvings[start:end, None, None]
        res = x + eps * dx  # (scale, level, m), with the correlations cx + eps * cdx
        ok = ((np.sqrt(np.einsum("slm,slm->sl", res, res)) > RESIDUAL_TOL)
              & (_margins(_scores(variant, cx + eps * cdx, sq), prefix)
                 >= MARGIN_FACTOR * TIE_REL_TOL)).all(axis=1)
        if ok.any():  # the first scale that passes every level reproduces the prefix
            return float(halvings[start + ok.argmax()])
        start = end
    raise CalibrationFailed(f"could not calibrate {what} after {HALVING_STEPS} halvings")


def reach_input(d: Dictionary, q, variant) -> tuple[np.ndarray, tuple[float, ...]]:
    """Input that walks the solver through the atoms of q, in order.

    It starts at the first atom and adds each next atom with a scale factor, halved
    until a run reproduces q up to that atom with strict selections: one _calibrate
    call per atom, from the input the call before it reached.  Works for any q of size
    up to n - 2 on the symmetric construction.  Returns (input, scale factors for atoms
    2..len(q)); an empty q yields the zero vector.  Raises CalibrationFailed when some
    scale finds no acceptance in HALVING_STEPS.
    """
    variant = as_variant(variant)
    order = check_support(d, q).indices
    if len(order) > d.n - 2:
        raise InvalidArgs(f"prefix of size {len(order)} exceeds n-2 = {d.n - 2}")
    y = d.atoms[:, order[0]].copy() if order else np.zeros(d.m)
    scales = []
    for p, j in enumerate(order[1:], start=2):
        atom = d.atoms[:, j]
        scales.append(_calibrate(variant, d, y, atom, order[:p],
                                 f"the scale for prefix atom {j}"))
        y = y + scales[-1] * atom
    return y, tuple(scales)


def dual_representation(d: Dictionary, q, variant) -> tuple[np.ndarray, Support, Support]:
    """Split the atoms outside q into two halves with opposite projected sums.

    The complement of q (in ascending order) is cut in the middle into q1 and
    q2; on the symmetric construction the projected atom family (raw or
    normalized, per variant) sums to opposite vectors over the two halves, so
    the returned observation y2 = sum over q1 equals minus the sum over q2 and
    is orthogonal to the span of the q atoms.
    """
    variant = as_variant(variant)
    sup = check_support(d, q)
    rest = [i for i in range(d.n) if i not in sup]
    if not rest:
        raise InvalidArgs("complement of q is empty; no atom is left to split")
    if len(rest) % 2:
        raise InvalidArgs(f"complement of q has odd size {len(rest)}; cannot split in half")
    half = len(rest) // 2
    q1, q2 = Support(tuple(rest[:half])), Support(tuple(rest[half:]))
    fam = project_atoms(d, sup, normalize=variant is SolverVariant.OLS)
    y2 = fam[:, q1.array()].sum(axis=1)
    return y2, q1, q2


@dataclass(frozen=True)
class WorstCaseScenario:
    """A concrete failure instance at the coherence threshold.

    The observation y = reach_component + mix_epsilon * null_component lies in
    the span of the truth atoms, drives the solver through `partial` exactly,
    and then offers identical scores to every remaining atom, half of which
    are outside the truth (half_low); the tie rule takes its first, predicted_wrong.
    reach_component is the sum of prefix_coefficients[j] times atom j over the
    prefix (_prefix_coefficients), and mix_epsilon the calibrated mixing scale.
    """

    k: int
    l: int
    variant: str
    dictionary: Dictionary
    partial: Support
    truth: Support
    half_low: Support
    half_high: Support
    y: np.ndarray
    reach_component: np.ndarray
    null_component: np.ndarray
    prefix_coefficients: tuple
    mix_epsilon: float
    predicted_wrong: int
    coherence: float
    threshold: float

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "l": self.l,
            "variant": self.variant,
            "dictionary_csv": _csv_lines(self.dictionary.atoms),
            "partial": list(self.partial.indices),
            "truth": list(self.truth.indices),
            "halves": [list(self.half_low.indices), list(self.half_high.indices)],
            "y": np.asarray(self.y, dtype=float).tolist(),
            "reach_component": np.asarray(self.reach_component, dtype=float).tolist(),
            "null_component": np.asarray(self.null_component, dtype=float).tolist(),
            "prefix_coefficients": np.asarray(self.prefix_coefficients, dtype=float).tolist(),
            "mix_epsilon": float(self.mix_epsilon),
            "predicted_wrong": self.predicted_wrong,
            "coherence": float(self.coherence),
            "threshold": float(self.threshold),
        }

    def to_json(self) -> str:
        return _json(self.to_dict())


def build_scenario(k: int, l: int, variant) -> WorstCaseScenario:
    """Assemble the guaranteed-failure instance for (k, l).

    The first l atoms form the prescribed prefix; the observation combines the
    prefix-reaching input y1, whose coefficients on the prefix atoms come in
    closed form from _prefix_coefficients, with a multiple of the half-sum
    direction y2 from dual_representation, whose scale is the one calibrated
    step.  Every atom outside the prefix scores the same against y2 and the tie
    rule takes the lowest, q1's first (predicted_wrong), so the truth is the
    prefix and q2; the worstcase command's replay checks this.  The result is
    verified to lie in the span of the truth atoms.
    """
    variant = as_variant(variant)
    k, l = _check_kl(k, l)
    d = build_worst_case(k, l)
    mu = coherence(d)
    prefix = Support(tuple(range(l)))
    y2, q1, q2 = dual_representation(d, prefix, variant)
    truth = Support(tuple(prefix.indices) + tuple(q2.indices))

    coefficients = _prefix_coefficients(k, l)
    y1 = d.atoms[:, :l] @ coefficients
    eps = _calibrate(variant, d, y1, y2, prefix.indices, "the mixing scale")
    y = y1 + eps * y2

    gap = float(np.linalg.norm(residual(d, truth, y)))
    if gap > SPAN_TOL * float(np.linalg.norm(y)):
        raise CalibrationFailed(
            f"constructed observation strays from the truth span (relative gap {gap:g})")

    return WorstCaseScenario(
        k=k, l=l, variant=variant.value, dictionary=d,
        partial=prefix, truth=truth, half_low=q1, half_high=q2,
        y=y, reach_component=y1, null_component=y2,
        prefix_coefficients=tuple(coefficients.tolist()), mix_epsilon=eps,
        predicted_wrong=q1.indices[0],
        coherence=mu, threshold=coherence_threshold(k, l),
    )
