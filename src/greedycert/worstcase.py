"""Constructive failure scenarios for greedy pursuit at the coherence threshold.

Against the symmetric dictionary from build_worst_case, an input can be
assembled that walks the solver through any prescribed prefix of selections
and then forces a wrong atom (or a tie with one) on the very next iteration:
the null space of the dictionary is spanned by the all-ones vector, so the sum
of the projected atoms over one half of the remaining indices equals minus the
sum over the other half, and an observation built on one half makes every
remaining atom score identically.  The scale factors that keep the prefix
selections strict are calibrated numerically by repeated halving.
"""

import json
from dataclasses import dataclass

import numpy as np

from .dictionary import (Dictionary, Support, _csv_lines, as_support, build_worst_case,
                         check_support, coherence)
from .errors import CalibrationFailed, InvalidArgs
from .greedy import TIE_REL_TOL, SolverVariant, _pursue, _Runs, as_variant, select_atom
from .guarantees import coherence_threshold
from .projection import project_atoms, residual

HALVING_STEPS = 80
CALIBRATION_STACK = 4  # scales in the first stack a calibration tries at once
MARGIN_FACTOR = 10.0  # selection margins must exceed this multiple of the tie tolerance
SPAN_TOL = 1e-10


def projected_gram_closed_form(k: int, l: int, r) -> tuple[float, float]:
    """Closed-form projected inner products on the symmetric construction.

    After projecting the dictionary from build_worst_case(k, l) against any
    atom subset R with |R| < 2k-l, every pair of distinct remaining atoms has
    the same inner product and every remaining atom the same squared norm:

        cross   = -mu - mu^2 * s
        norm_sq = 1 - mu^2 * s

    with mu = 1/(2k-l-1) and s the sum of the entries of the inverse Gram of
    the R atoms.  Returns (cross, norm_sq); both depend on R only through its
    size, so r may be either the subset itself or a plain count.
    """
    mu = coherence_threshold(k, l)  # validates k, l
    if isinstance(r, (int, np.integer)):
        if r < 0:
            raise InvalidArgs(f"|R| must be non-negative, got {r}")
        size = int(r)
    else:
        size = len(as_support(r))
    n = 2 * k - l
    if size >= n:
        raise InvalidArgs(f"|R| must be below 2k-l = {n}, got {size}")
    if size == 0:
        s = 0.0
    else:
        g = (1.0 + mu) * np.eye(size) - mu * np.ones((size, size))
        s = float(np.linalg.solve(g, np.ones(size)).sum())
    return -mu - mu * mu * s, 1.0 - mu * mu * s


def _margins_ok(runs: _Runs, prefix: np.ndarray) -> np.ndarray:
    """Per row of a stack of unseeded pursuits: whether it selected exactly `prefix`,
    each time without a tie and with a clear margin over the runner-up."""
    steps = np.arange(len(prefix))
    top = runs.scores[:, steps, prefix]
    rivals = runs.scores.copy()
    rivals[:, steps, prefix] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        margin = (top - rivals.max(axis=-1)) / top
    clear = (top > 0.0) & (margin >= MARGIN_FACTOR * TIE_REL_TOL)
    return (runs.selected == prefix).all(axis=1) & ~runs.ties.any(axis=1) & clear.all(axis=1)


def _calibrate(variant, d: Dictionary, base, direction, prefix, what: str) -> float:
    """First of the scales 1, 1/2, 1/4, ... at which base + scale * direction reproduces prefix.

    The scales are tried CALIBRATION_STACK at a time, then twice as many, and so on,
    each stack in one batched pursuit; every row gets the bits of a pursuit of its own."""
    prefix = np.asarray(prefix, dtype=int)
    start, size = 0, CALIBRATION_STACK
    while start < HALVING_STEPS:
        eps = np.ldexp(1.0, -np.arange(start, min(start + size, HALVING_STEPS)))
        atoms = np.broadcast_to(d.atoms, (len(eps), d.m, d.n))
        runs = _pursue(variant, atoms, base + eps[:, None] * direction, len(prefix),
                       np.empty((len(eps), 0), dtype=int))
        ok = _margins_ok(runs, prefix)
        if ok.any():
            return float(eps[ok.argmax()])
        start, size = start + size, 2 * size
    raise CalibrationFailed(f"could not calibrate {what} after {HALVING_STEPS} halvings")


def reach_input(d: Dictionary, q, variant) -> tuple[np.ndarray, tuple[float, ...]]:
    """Input that walks the solver through the atoms of q, in order.

    Built recursively: start at the first atom and add each next atom with a
    scale factor, halved until the run of len(q) iterations reproduces q with
    strict selections.  Works for any q of size up to n - 2 on the symmetric
    construction.  Returns (input, scale factors for atoms 2..len(q)); an
    empty q yields the zero vector.

    Raises CalibrationFailed when some scale cannot be halved into acceptance
    within the step budget.
    """
    variant = as_variant(variant)
    sup = check_support(d, as_support(q))
    if len(sup) > d.n - 2:
        raise InvalidArgs(f"prefix of size {len(sup)} exceeds n-2 = {d.n - 2}")
    if len(sup) == 0:
        return np.zeros(d.m), ()
    order = list(sup.indices)
    y = d.atoms[:, order[0]].copy()
    factors = []
    for p in range(1, len(order)):
        eps = _calibrate(variant, d, y, d.atoms[:, order[p]], order[: p + 1],
                         f"the scale for prefix atom {order[p]}")
        y = y + eps * d.atoms[:, order[p]]
        factors.append(eps)
    return y, tuple(factors)


def dual_representation(d: Dictionary, q, variant) -> tuple[np.ndarray, Support, Support]:
    """Split the atoms outside q into two halves with opposite projected sums.

    The complement of q (in ascending order) is cut in the middle into q1 and
    q2; on the symmetric construction the projected atom family (raw or
    normalized, per variant) sums to opposite vectors over the two halves, so
    the returned observation y2 = sum over q1 equals minus the sum over q2 and
    is orthogonal to the span of the q atoms.
    """
    variant = as_variant(variant)
    sup = check_support(d, as_support(q))
    rest = [i for i in range(d.n) if i not in sup]
    if len(rest) % 2 != 0 or len(rest) == 0:
        raise InvalidArgs(f"complement of q has odd size {len(rest)}; cannot split in half")
    half = len(rest) // 2
    q1, q2 = Support(tuple(rest[:half])), Support(tuple(rest[half:]))
    fam = project_atoms(d, sup).family(normalize=(variant is SolverVariant.OLS))
    y2 = fam[:, q1.array()].sum(axis=1)
    return y2, q1, q2


@dataclass(frozen=True)
class WorstCaseScenario:
    """A concrete failure instance at the coherence threshold.

    The observation y = reach_component + mix_epsilon * null_component lies in
    the span of the truth atoms, drives the solver through `partial` exactly,
    and then offers identical scores to every remaining atom, half of which
    are outside the truth; predicted_wrong is the lowest-index culprit.
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
    prefix_epsilons: tuple
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
            "prefix_epsilons": np.asarray(self.prefix_epsilons, dtype=float).tolist(),
            "mix_epsilon": float(self.mix_epsilon),
            "predicted_wrong": self.predicted_wrong,
            "coherence": float(self.coherence),
            "threshold": float(self.threshold),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False)


def build_scenario(k: int, l: int, variant) -> WorstCaseScenario:
    """Assemble the guaranteed-failure instance for (k, l).

    The first l atoms form the prescribed prefix; the observation combines the
    prefix-reaching input with a calibrated multiple of the half-sum direction
    from dual_representation.  The result is verified to lie in the span of
    the truth atoms.
    """
    variant = as_variant(variant)
    d = build_worst_case(k, l)  # validates k, l
    mu = coherence(d)
    prefix = Support(tuple(range(l)))
    y1, prefix_eps = reach_input(d, prefix, variant)
    y2, q1, q2 = dual_representation(d, prefix, variant)

    j, _, _ = select_atom(variant, d, prefix, y2)
    if j in q1:
        truth = Support(tuple(prefix.indices) + tuple(q2.indices))
    else:
        truth = Support(tuple(prefix.indices) + tuple(q1.indices))

    if l == 0:
        eps = 1.0
        y = y2.copy()
    else:
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
        prefix_epsilons=prefix_eps, mix_epsilon=eps, predicted_wrong=j,
        coherence=mu, threshold=coherence_threshold(k, l),
    )
