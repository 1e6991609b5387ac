"""Greedy pursuit solvers and recovery classification.

Two variants share one loop.  Both score every atom by its correlation with
the current residual, which is orthogonal to the selected span, so it equals
the correlation with the atom's projection against that span: the first
variant uses it as it is (classic matching pursuit scoring), the second
divides it by the projected atom's norm, which makes the argmax equal to the
single-step residual minimizer.  One pursuit state (_Pursuit) serves a single
run, the stack of a sweep cell's trials and the candidate inputs of a worst-case
calibration.  Ties are broken toward the lowest atom index and flagged, since a tie
involving an atom outside the planted support already dooms exact recovery
under a pessimistic adversary.
"""

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dictionary import Dictionary, Support, _index, _json, as_support, check_support
from .errors import InvalidArgs, InvalidSeed, ZeroResidual
from .projection import VANISH_TOL, _check_vector, _direction

TIE_REL_TOL = 1e-9      # scores within this relative band of the max count as tied
RESIDUAL_TOL = 1e-12    # residual norms at or below this count as zero
# Downdating a unit squared norm cannot resolve projected norms below about
# 1e-8, while VANISH_TOL is 1e-10: live atoms whose downdated squared norm
# falls below this are projected again exactly.
EXACT_SQ_TOL = 1e-12
PUSHED = -1.0  # the squared projected norm a pursuit records for an atom it pushed


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


def _any(mask) -> bool:
    """Whether any entry of a boolean array is set; a single entry is read
    directly, at a fraction of a reduction's call overhead."""
    return bool(mask) if mask.size == 1 else bool(mask.any())


def _dot(a: np.ndarray, b: np.ndarray):
    """Dot products of the rows of two stacks of vectors, or of two vectors; the
    same BLAS call for a row either way, and a plain dot for two vectors, at a
    fraction of a stacked product's call overhead."""
    return a @ b if a.ndim == 1 else (a[..., None, :] @ b[..., None])[..., 0, 0]


def _tied(scores: np.ndarray) -> np.ndarray:
    """Mask of the scores within TIE_REL_TOL (relative) of the largest one along
    the last axis; where that largest score is not positive, nothing is tied."""
    top = np.maximum.reduce(scores, axis=-1, keepdims=scores.ndim > 1)  # a scalar for one vector
    return (scores >= top * (1.0 - TIE_REL_TOL)) & (top > 0.0)


def _scores(variant: SolverVariant, corr: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """The scores of the atoms, from their correlations with the residual and their
    squared projected norms sq (PUSHED at pushed atoms), zero at pushed and vanished
    atoms; one sq serves a stack of correlations.  It tests VANISH_TOL on sq itself,
    not through projection._divisor, since sq carries the negative PUSHED sentinel."""
    live = sq > VANISH_TOL * VANISH_TOL
    if variant is SolverVariant.OLS:  # abs: PUSHED is negative; those atoms score 0 anyway
        return np.abs(corr) / np.where(live, np.sqrt(np.abs(sq)), np.inf)
    return np.where(live, np.abs(corr), 0.0)


def _margins(scores: np.ndarray, picks) -> np.ndarray:
    """Relative margin (top - runner-up) / top of the score top of atom picks over the
    best other score along the last axis, with picks one per row or one for all rows;
    -inf where top is not positive.  The pick is the strict argmax where its margin is
    positive, and not tied (_tied) where its margin is well above TIE_REL_TOL."""
    pick = np.arange(scores.shape[-1]) == np.asarray(picks)[..., None]
    top = np.where(pick, scores, 0.0).max(axis=-1)  # scores are non-negative
    rival = np.where(pick, 0.0, scores).max(axis=-1)
    return np.divide(top - rival, top, out=np.full(top.shape, -np.inf), where=top > 0.0)


class _Pursuit:
    """The state of one pursuit on m x n atoms, or of a stack of them with atoms
    (B, m, n), row i on its own atoms[i]: an m x cap orthonormal basis of the pushed
    atoms' span, the atoms' squared projected norms sq (PUSHED at pushed atoms), the
    pushed atoms, the residual res of the vector the pursuit started from and its
    correlations corr = res @ atoms.  Nothing m x n is rebuilt per push: the newest
    direction and res share one 2 x m array, and one product with the atoms downdates
    sq and gives corr (after Batch-OMP; Rubinstein, Zibulevsky, Elad 2008).  A stack
    also keeps rows, each row's index in the stack it started as; rows leave it
    through take.  Each row of a stack gets the bits of a pursuit of its own."""

    def __init__(self, atoms: np.ndarray, res, cap: int):
        *lead, m, _ = atoms.shape
        self.atoms = atoms
        self.pair = np.empty((*lead, 2, m))
        self.pair[..., 1, :] = res
        self.res = self.pair[..., 1, :]
        self.corr = None
        self.basis = np.empty((*lead, m, cap))
        self.sq = np.einsum("...ij,...ij->...j", atoms, atoms)
        self.support = np.empty((*lead, cap), dtype=int)
        self.t = 0
        # the index prefix that picks one atom per row: the rows of a stack, by
        # advanced indexing; nothing for a single pursuit, which takes its column
        # by basic indexing, at a fraction of the call overhead
        self.rows = np.arange(lead[0]) if lead else None
        self._lead = (self.rows,) if lead else ()

    def take(self, keep: np.ndarray) -> None:
        """Keep only the rows of a stack in the mask."""
        for name in ("atoms", "pair", "basis", "sq", "support", "rows"):
            setattr(self, name, getattr(self, name)[keep])
        self.res = self.pair[..., 1, :]
        if self.corr is not None:
            self.corr = self.corr[keep]
        self._lead = (np.arange(len(self.rows)),)

    def push(self, js, correlate: bool = False) -> None:
        """Add atom js (js[i] for row i) to the span: one Gram-Schmidt step and one
        product with the atoms, of q, or of [q; res] to correlate the new residual
        for the select that follows; O(mn) reads per row."""
        t, lead = self.t, self._lead
        self.support[..., t] = js
        q = _direction(self.basis[..., :t], self.atoms[(*lead, slice(None), js)],
                       self.support[..., :t + 1])
        self.basis[..., t] = q
        self.res -= q * _dot(q, self.res)[..., None]
        if correlate:
            self.pair[..., 0, :] = q
            prod = self.pair @ self.atoms
            g, self.corr = prod[..., 0, :], prod[..., 1, :]
        else:
            g, self.corr = (q[..., None, :] @ self.atoms)[..., 0, :], None
        self.sq -= g * g
        self.sq[(*lead, js)] = PUSHED  # its downdated sq is only rounding
        self.t = t + 1
        low = self.sq < EXACT_SQ_TOL  # every pushed atom, and live atoms to project again
        if np.count_nonzero(low) > self.t * (self.sq.size // self.sq.shape[-1]):
            self._reproject(low & (self.sq != PUSHED))

    def _reproject(self, mask: np.ndarray) -> None:
        """Replace the downdated sq of the atoms in the mask (shaped like sq) by their
        exact projected norms."""
        rows = [()] if mask.ndim == 1 else [(i,) for i in mask.any(axis=1).nonzero()[0]]
        for i in rows:
            basis, cols = self.basis[i][:, :self.t], self.atoms[i][:, mask[i]]
            cols = cols - basis @ (basis.T @ cols)
            self.sq[i][mask[i]] = np.einsum("ij,ij->j", cols, cols)

    def select(self, variant: SolverVariant):
        """(choice, scores, tie), per row for a stack, for the residual: scores zero at
        pushed and vanished atoms; when every score is zero the lowest unpushed atom
        is taken, tied with the rest."""
        if self.corr is None:
            self.corr = (self.res[..., None, :] @ self.atoms)[..., 0, :]
        scores = _scores(variant, self.corr, self.sq)
        tied = _tied(scores)
        choice, count = tied.argmax(axis=-1), np.add.reduce(tied, axis=-1)
        empty = count == 0
        if _any(empty):
            free = self.sq != PUSHED
            choice = np.where(empty, free.argmax(axis=-1), choice)
            count = np.where(empty, free.sum(axis=-1), count)
        return choice, scores, count >= 2

    def residual_norms(self):
        return np.sqrt(_dot(self.res, self.res))


class _Runs(NamedTuple):
    """Pursuits of k selections each, seeded atoms included, with a leading row axis
    for a stack: the atoms in selection order (-1 past stops), the residual norm
    after each of them (norms[..., 0] before any), the scores of each selection after
    the seeded ones (norms and scores are zero past stops), the number of atoms
    selected before the residual vanished (k when it did not), and whether each
    iteration's top score was tied."""

    selected: np.ndarray
    norms: np.ndarray
    scores: np.ndarray
    stops: np.ndarray
    ties: np.ndarray


def _pursue(variant: SolverVariant, atoms: np.ndarray, ys: np.ndarray, k: int,
            seeds: np.ndarray) -> _Runs:
    """Pursue for k selections on m x n atoms from ys, seeded with the atoms seeds
    (l < k of them); or a stack of such pursuits, with atoms (B, m, n), ys (B, m)
    and seeds (B, l).  A pursuit stops early once its residual norm is at or below
    RESIDUAL_TOL; seeded atoms are pushed regardless."""
    *lead, m, n = atoms.shape
    l = seeds.shape[-1]
    selected = np.full((*lead, k), -1)
    selected[..., :l] = seeds
    norms = np.zeros((*lead, k + 1))
    scores = np.zeros((*lead, k - l, n))
    ties = np.zeros((*lead, k), dtype=bool)
    stops = np.full(lead, k)
    state = _Pursuit(atoms, ys, k)
    norms[..., 0] = state.residual_norms()
    for t in range(l):
        state.push(seeds[..., t], correlate=t == l - 1)
        norms[..., t + 1] = state.residual_norms()
    at = (Ellipsis,)  # the rows still pursued: all of them until one stops
    for t in range(l, k):
        stopped = norms[(*at, t)] <= RESIDUAL_TOL
        if _any(stopped):
            if stopped.all():
                stops[at] = t
                break
            stops[state.rows[stopped]] = t
            state.take(~stopped)
            at = (state.rows,)
        choice, scores[(*at, t - l, slice(None))], ties[(*at, t)] = state.select(variant)
        selected[(*at, t)] = choice
        state.push(choice, correlate=t < k - 1)
        norms[(*at, t + 1)] = state.residual_norms()
    return _Runs(selected, norms, scores, stops, ties)


def select_atom(variant, d: Dictionary, support, res) -> tuple[int, float, bool]:
    """Pick the next atom for the given residual.

    The residual need not be orthogonal to the support atoms: it is projected
    against their span first, so only its component outside the span counts.
    Returns (index, score, tie) where tie reports whether at least two atoms
    reached the maximum score within TIE_REL_TOL (relative); the lowest tied
    index wins.  Raises InvalidArgs when the support holds every atom, and
    ZeroResidual when the residual norm is at or below RESIDUAL_TOL.
    """
    variant = as_variant(variant)
    sup = check_support(d, support)
    if len(sup) == d.n:
        raise InvalidArgs(f"the support holds all {d.n} atoms; none is left to select")
    res = _check_vector(d, res)
    if np.linalg.norm(res) <= RESIDUAL_TOL:
        raise ZeroResidual("residual is numerically zero; nothing left to select")
    state = _Pursuit(d.atoms, res, len(sup))
    for t, j in enumerate(sup):
        state.push(j, correlate=t == len(sup) - 1)
    choice, scores, tie = state.select(variant)
    return int(choice), float(scores[choice]), bool(tie)


@dataclass(frozen=True, eq=False)
class GreedyTrace:
    """Record of one pursuit run; traces compare and hash by identity.

    selected includes any seeded prefix (its length is `seeded`); scores is a read-only
    array, one length-n row per performed (non-seeded) selection, already zeroed at
    selected and vanished atoms (classify and to_dict also take a tuple of rows);
    residual_norms[t] is the residual norm after the first t atoms, so it has
    len(selected) + 1 entries; tie_at is the first iteration whose maximum was attained
    by several atoms (global index into selected), or None; early_stop is the iteration
    at which the residual vanished before the requested number of selections, or None.
    """

    variant: SolverVariant
    requested: int
    seeded: int
    selected: Support
    scores: np.ndarray
    residual_norms: tuple
    tie_at: int | None
    early_stop: int | None

    def to_dict(self, outcome=None) -> dict:
        return {
            "variant": self.variant.value,
            "requested": self.requested,
            "seeded": self.seeded,
            "selected": list(self.selected.indices),
            "scores": np.asarray(self.scores, dtype=float).tolist(),
            "residual_norms": np.asarray(self.residual_norms, dtype=float).tolist(),
            "tie_at": self.tie_at,
            "early_stop": self.early_stop,
            "outcome": outcome.to_dict() if outcome is not None else None,
        }

    def to_json(self, outcome=None) -> str:
        return _json(self.to_dict(outcome))


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
    k = _index(k, "k")
    if not (1 <= k <= d.m):
        raise InvalidArgs(f"need 1 <= k <= m={d.m}, got k={k}")
    if k > d.n:
        raise InvalidArgs(f"cannot select k={k} distinct atoms out of n={d.n}")
    try:
        seed = check_support(d, seed_support if seed_support is not None else ())
    except InvalidArgs as exc:
        raise InvalidSeed(str(exc)) from None
    if len(seed) >= k:
        raise InvalidSeed(f"seed has {len(seed)} atoms but only {k} selections were requested")

    runs = _pursue(variant, d.atoms, y, k, seed.array())
    stop = int(runs.stops)
    scores = runs.scores[:stop - len(seed)]
    scores.setflags(write=False)
    return GreedyTrace(
        variant=variant,
        requested=k,
        seeded=len(seed),
        selected=Support(tuple(runs.selected[:stop].tolist())),
        scores=scores,
        residual_norms=tuple(runs.norms[:stop + 1].tolist()),
        tie_at=int(runs.ties.argmax()) if runs.ties.any() else None,
        early_stop=stop if stop < k else None,
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
    done, atoms = len(trace.selected), truth_support.array()
    scores = np.asarray(trace.scores, dtype=float)  # run's array as it is; a tuple of rows stacked
    n = scores.shape[-1] if scores.ndim == 2 else 1 + max(trace.selected, default=0)
    planted = np.zeros((1, n), dtype=bool)
    planted[0, atoms[atoms < n]] = True  # atoms past n are neither selected nor scored
    selected = np.array([trace.selected.indices + (-1,) * (trace.requested - done)])  # _Runs' form
    codes, steps = _outcomes(planted, trace.seeded, selected,
                             scores.reshape(-1, n)[None, :done - trace.seeded],
                             done if trace.early_stop is None else trace.early_stop)
    code, t = codes[0], int(steps[0])
    return RecoveryOutcome(_KINDS[code], None if code == _SUCCESS else t,
                           int(selected[0, t]) if code == _WRONG else None)


# outcome kinds by the codes _outcomes returns
_KINDS = (RecoveryOutcome.SUCCESS, RecoveryOutcome.WRONG_ATOM,
          RecoveryOutcome.TIE_WITH_WRONG_ATOM, RecoveryOutcome.EARLY_ZERO_RESIDUAL)
_SUCCESS, _WRONG, _TIE, _EARLY = range(len(_KINDS))


def _outcomes(planted, seeded: int, selected, scores, stops):
    """The verdict of classify for every row of a stack of pursuits (the fields of _Runs,
    scores perhaps cut after the last selection), planted each row's mask of planted atoms
    (B x n): the first iteration whose top score ties an outside atom or whose atom is
    outside decides, a tie before a wrong atom; else an early stop; else success.
    Returns each row's code into _KINDS and its deciding iteration (else the stop)."""
    b, k = selected.shape
    rows = np.arange(b)
    tied = _tied(scores)
    many = tied.sum(axis=-1) >= 2
    tie = np.zeros((b, k), dtype=bool)
    if many.any():  # rarely: only then look for outside atoms among the tied
        tie[:, seeded:seeded + scores.shape[1]] = many & (tied & ~planted[:, None]).any(axis=-1)
    wrong = (selected >= 0) & ~planted[rows[:, None], selected]  # -1 past a stop: masked off
    event = tie | wrong
    at = rows, event.argmax(axis=1)
    return (np.where(event[at], np.where(tie[at], _TIE, _WRONG),
                     np.where(stops < k, _EARLY, _SUCCESS)), np.where(event[at], at[1], stops))
