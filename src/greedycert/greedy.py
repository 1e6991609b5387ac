"""Greedy pursuit solvers and recovery classification.

Two variants share one loop.  Both score every atom by its correlation with
the current residual, which is orthogonal to the selected span, so it equals
the correlation with the atom's projection against that span: the first
variant uses it as it is (classic matching pursuit scoring), the second
divides it by the projected atom's norm, which makes the argmax equal to the
single-step residual minimizer.  Nothing m x n is rebuilt per step: a pursuit
keeps an orthonormal basis of the selected span, each basis vector's
correlations with the atoms and the squared projected norms, downdated on
each selection (the state of Batch-OMP; Rubinstein, Zibulevsky, Elad 2008).
Ties are broken toward the lowest atom index and flagged, since a tie
involving an atom outside the planted support already dooms exact recovery
under a pessimistic adversary.
"""

import enum
import json
import math
from dataclasses import dataclass

import numpy as np

from .dictionary import Dictionary, Support, as_support, check_support
from .errors import InvalidArgs, InvalidSeed, ZeroResidual
from .projection import VANISH_TOL, _check_vector, _direction

TIE_REL_TOL = 1e-9      # scores within this relative band of the max count as tied
RESIDUAL_TOL = 1e-12    # residual norms at or below this count as zero
# Downdating a unit squared norm cannot resolve projected norms below about
# 1e-8, while VANISH_TOL is 1e-10: live atoms whose downdated squared norm
# falls below this are projected again exactly.
EXACT_SQ_TOL = 1e-12


class SolverVariant(str, enum.Enum):
    OMP = "omp"
    OLS = "ols"


def as_variant(value) -> SolverVariant:
    if isinstance(value, SolverVariant):
        return value
    try:
        return SolverVariant(str(value).lower())
    except ValueError:
        raise InvalidArgs(f"unknown solver variant {value!r} (expected 'omp' or 'ols')") from None


def _tie_set(scores: np.ndarray) -> np.ndarray:
    top = scores.max()
    if top <= 0.0:
        return np.zeros(0, dtype=int)
    return (scores >= top * (1.0 - TIE_REL_TOL)).nonzero()[0]


class _Pursuit:
    """A pursuit's state: an m x cap orthonormal basis of the pushed atoms' span,
    coef[t] = basis[:, t] @ atoms, the atoms' squared projected norms sq, the
    pushed-atom mask and the residual res of the vector it started from."""

    def __init__(self, d: Dictionary, res, cap: int):
        self.atoms = d.atoms
        self.res = np.array(res, dtype=float)
        self.basis = np.empty((d.m, cap))
        self.coef = np.empty((cap, d.n))
        self.sq = np.einsum("ij,ij->j", d.atoms, d.atoms)
        self.chosen = np.zeros(d.n, dtype=bool)
        self.support = ()

    @classmethod
    def of(cls, d: Dictionary, support, res) -> "_Pursuit":
        """The state after pushing the support, res projected against its span."""
        state = cls(d, res, len(support))
        for j in support:
            state.push(j)
        return state

    def push(self, j: int) -> None:
        """Add atom j to the span: one Gram-Schmidt step, one q @ atoms, O(mn) reads."""
        t = len(self.support)
        self.support += (j,)
        done = self.basis[:, :t]
        q = _direction(done, self.atoms[:, j] - done @ self.coef[:t, j], self.support)
        self.basis[:, t] = q
        g = q @ self.atoms
        self.coef[t] = g
        self.sq -= g * g
        self.chosen[j] = True  # before the check: a pushed atom's sq is only rounding
        self.res -= q * (q @ self.res)
        low = ~self.chosen & (self.sq < EXACT_SQ_TOL)
        if low.any():
            self._reproject(low)

    def _reproject(self, mask: np.ndarray) -> None:
        """Replace the downdated sq of the atoms in the mask by their exact projected norms."""
        basis, cols = self.basis[:, :len(self.support)], self.atoms[:, mask]
        cols = cols - basis @ (basis.T @ cols)
        self.sq[mask] = np.einsum("ij,ij->j", cols, cols)

    def select(self, variant: SolverVariant) -> tuple[int, np.ndarray, bool]:
        """(choice, scores, tie) for the residual, scores zero at pushed and vanished
        atoms; with every score zero the lowest unpushed atom is taken, tied with the rest."""
        dead = self.chosen | (self.sq <= VANISH_TOL * VANISH_TOL)
        # abs: a pushed atom's sq is rounding error and may be negative; it scores 0 anyway
        scale = np.sqrt(np.abs(self.sq)) if variant is SolverVariant.OLS else 1.0
        scores = np.abs(self.res @ self.atoms) / np.where(dead, np.inf, scale)
        tied = _tie_set(scores)
        if tied.size:
            return int(tied[0]), scores, tied.size >= 2
        remaining = (~self.chosen).nonzero()[0]
        return int(remaining[0]), scores, remaining.size > 1

    def residual_norm(self) -> float:
        return math.sqrt(self.res @ self.res)  # the bits of np.linalg.norm, without its overhead


def select_atom(variant, d: Dictionary, support, res) -> tuple[int, float, bool]:
    """Pick the next atom for the given residual.

    The residual need not be orthogonal to the support atoms: it is projected
    against their span first, so only its component outside the span counts.
    Returns (index, score, tie) where tie reports whether at least two atoms
    reached the maximum score within TIE_REL_TOL (relative); the lowest tied
    index wins.  Raises ZeroResidual when the residual norm is at or below
    RESIDUAL_TOL.
    """
    variant = as_variant(variant)
    sup = check_support(d, as_support(support))
    res = _check_vector(d, res)
    if np.linalg.norm(res) <= RESIDUAL_TOL:
        raise ZeroResidual("residual is numerically zero; nothing left to select")
    choice, scores, tie = _Pursuit.of(d, sup, res).select(variant)
    return choice, float(scores[choice]), tie


@dataclass(frozen=True)
class GreedyTrace:
    """Record of one pursuit run.

    selected includes any seeded prefix (its length is `seeded`); scores holds
    one length-n vector per performed (non-seeded) selection, already zeroed at
    selected and vanished atoms; residual_norms[t] is the residual norm after
    the first t atoms, so it has len(selected) + 1 entries; tie_at is the first
    iteration whose maximum was attained by several atoms (global index into
    selected), or None; early_stop is the iteration at which the residual
    vanished before the requested number of selections, or None.
    """

    variant: SolverVariant
    requested: int
    seeded: int
    selected: Support
    scores: tuple
    residual_norms: tuple
    tie_at: int | None
    early_stop: int | None

    def to_dict(self, outcome=None) -> dict:
        return {
            "variant": self.variant.value,
            "requested": self.requested,
            "seeded": self.seeded,
            "selected": list(self.selected.indices),
            "scores": [[float(x) for x in vec] for vec in self.scores],
            "residual_norms": [float(x) for x in self.residual_norms],
            "tie_at": self.tie_at,
            "early_stop": self.early_stop,
            "outcome": outcome.to_dict() if outcome is not None else None,
        }

    def to_json(self, outcome=None) -> str:
        return json.dumps(self.to_dict(outcome), indent=2)


def run(variant, d: Dictionary, y, k: int, seed_support=None) -> GreedyTrace:
    """Run pursuit for k selections, optionally from a seeded prefix.

    Parameters
    ----------
    variant : SolverVariant or str
    d : Dictionary
    y : array_like, length m
    k : int
        Total number of atoms wanted, 1 <= k <= m.
    seed_support : optional
        Atoms treated as already selected, fewer than k of them; they occupy
        the first iterations of the trace without scores.

    Raises
    ------
    InvalidSeed
        If the seed is too large, duplicated or out of range.
    RankDeficient
        If the seeded atoms are numerically dependent.
    """
    variant = as_variant(variant)
    y = _check_vector(d, y)
    if not (1 <= k <= d.m):
        raise InvalidArgs(f"need 1 <= k <= m={d.m}, got k={k}")
    if k > d.n:
        raise InvalidArgs(f"cannot select k={k} distinct atoms out of n={d.n}")
    try:
        seed = check_support(d, as_support(seed_support if seed_support is not None else ()))
    except InvalidArgs as exc:
        raise InvalidSeed(str(exc)) from None
    if len(seed) >= k:
        raise InvalidSeed(f"seed has {len(seed)} atoms but only {k} selections were requested")

    state = _Pursuit(d, y, k)
    norms = [state.residual_norm()]
    for j in seed:
        state.push(j)
        norms.append(state.residual_norm())

    scores_log = []
    tie_at = None
    early_stop = None
    while len(state.support) < k:
        if norms[-1] <= RESIDUAL_TOL:
            early_stop = len(state.support)
            break
        choice, scores, tie = state.select(variant)
        if tie and tie_at is None:
            tie_at = len(state.support)
        scores.setflags(write=False)
        scores_log.append(scores)
        state.push(choice)
        norms.append(state.residual_norm())

    return GreedyTrace(
        variant=variant,
        requested=k,
        seeded=len(seed),
        selected=Support(state.support),
        scores=tuple(scores_log),
        residual_norms=tuple(norms),
        tie_at=tie_at,
        early_stop=early_stop,
    )


@dataclass(frozen=True)
class RecoveryOutcome:
    """Exact-recovery verdict for a trace against a planted support.

    kind is one of "success", "wrong_atom", "tie_with_wrong_atom",
    "early_zero_residual"; iteration indices are 0-based positions in the
    selection order.
    """

    kind: str
    iteration: int | None = None
    atom: int | None = None

    SUCCESS = "success"
    WRONG_ATOM = "wrong_atom"
    TIE_WITH_WRONG_ATOM = "tie_with_wrong_atom"
    EARLY_ZERO_RESIDUAL = "early_zero_residual"

    @property
    def is_success(self) -> bool:
        return self.kind == self.SUCCESS

    def to_dict(self) -> dict:
        return {"kind": self.kind, "iteration": self.iteration, "atom": self.atom}


def classify(trace: GreedyTrace, truth) -> RecoveryOutcome:
    """Classify a trace as exact recovery or its first failure event.

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
            scores = trace.scores[t - trace.seeded]
            tied = _tie_set(np.asarray(scores))
            if tied.size >= 2 and any(int(i) not in truth_set for i in tied):
                return RecoveryOutcome(RecoveryOutcome.TIE_WITH_WRONG_ATOM, iteration=t)
        if atom not in truth_set:
            return RecoveryOutcome(RecoveryOutcome.WRONG_ATOM, iteration=t, atom=int(atom))
    if trace.early_stop is not None:
        return RecoveryOutcome(RecoveryOutcome.EARLY_ZERO_RESIDUAL, iteration=trace.early_stop)
    if len(trace.selected) != trace.requested:
        return RecoveryOutcome(RecoveryOutcome.EARLY_ZERO_RESIDUAL, iteration=len(trace.selected))
    return RecoveryOutcome(RecoveryOutcome.SUCCESS)
