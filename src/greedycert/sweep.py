"""Monte Carlo sweeps over (k, l) cells with deterministic per-trial draws.

Trial t draws its dictionary from the seed [master seed, k, l, t] and its support,
coefficients and seeded atoms from row t of its cell's outcome stream, so its outcome
does not depend on what else runs.  A cell runs in the generator's batches
(`dictionary._batches`), each dropped before the next: a batch's dictionaries come
as one stack (byte-identical to generating each trial alone), their coherences as
the generator took them (from one stack of Gram matrices in a cell without a target,
where it takes none), their outcome draws as one block of the stream, and each
variant pursues all of the batch's accepted trials in one stack of pursuits (the
trials share m, n and k), classified by the rule that `classify` applies to a stack
of one (`greedy._outcomes`).
"""

from dataclasses import MISSING, asdict, dataclass, fields
from functools import reduce
from operator import add

import numpy as np

from .dictionary import (_batches, _check_shape, _csv_table, _grams, _json, _nonnegative,
                         _off_diagonal_max)
from .errors import InvalidArgs, TargetUnreachable
from .greedy import _KINDS, SolverVariant, _outcomes, _pursue
from .guarantees import coherence_threshold

THRESHOLD_SENTINEL = "threshold"
THRESHOLD_SAFETY = 1e-3  # generate strictly below the cell threshold by this relative margin
# why a cell accepted no trial: its CellResult.skip_reason
SKIP_BELOW_WELCH = "coherence target below the Welch bound for this shape: no trial was drawn"
SKIP_UNREACHED = "no trial reached the coherence target within the Gram shrinkage's step cap"
SKIP_ROUNDING = ("coherence target below the rounding-level coherence of an orthonormal frame: "
                 "no trial reached it")
SKIP_DROPPED = "every trial that reached the target had coherence at or above the threshold"

_VARIANT_CHOICES = ("omp", "ols", "both")


def _typed(value, what: str, kind: type) -> None:
    """Raise InvalidArgs unless value is an int that is not a bool (kind int) or a bool."""
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        name = "boolean" if kind is bool else "integer"
        raise InvalidArgs(f"sweep config field {what} must be a JSON {name}, got {value!r}")


@dataclass(frozen=True)
class SweepConfig:
    """Sweep description, normally loaded from a JSON file (from_dict).

    k_range and l_range are inclusive (lo, hi) pairs, lists or tuples kept as
    tuples; cells run over every pair with l < k <= min(m, n).
    coherence_target is None (no constraint), a number (fixed ceiling for
    every cell), or the string "threshold" (per-cell ceiling just below
    1/(2k-l-1), so every accepted trial sits strictly below the threshold).
    With seed_partial the solver is seeded with l planted atoms per trial;
    otherwise it runs unseeded and l only selects the per-cell threshold.
    Integer fields must be ints and seed_partial a bool: nothing is coerced,
    and a config built here takes the inputs and defaults of from_dict.
    """

    m: int
    n: int
    k_range: tuple[int, int]
    l_range: tuple[int, int]
    trials: int
    coherence_target: float | str | None = None
    seed: int = 0
    variant: str = "both"
    seed_partial: bool = False

    def __post_init__(self):
        for name in ("m", "n", "trials", "seed"):
            _typed(getattr(self, name), name, int)
        for name in ("k_range", "l_range"):
            rng = getattr(self, name)
            for x in rng if isinstance(rng, (tuple, list)) else ():
                _typed(x, name, int)
            if not (isinstance(rng, (tuple, list)) and len(rng) == 2 and 0 <= rng[0] <= rng[1]):
                raise InvalidArgs(f"{name} must be an inclusive (lo, hi) pair, got {rng!r}")
            object.__setattr__(self, name, tuple(rng))
        _typed(self.seed_partial, "seed_partial", bool)
        _check_shape(self.m, self.n)
        if self.trials < 1:
            raise InvalidArgs("trials must be positive")
        if isinstance(self.variant, str):
            object.__setattr__(self, "variant", self.variant.lower())
        if self.variant not in _VARIANT_CHOICES:
            raise InvalidArgs(f"variant must be one of {_VARIANT_CHOICES}, got {self.variant!r}")
        if not self.cells():
            raise InvalidArgs("no cell satisfies l < k <= min(m, n)")
        target = self.coherence_target
        if isinstance(target, (int, float)) and not isinstance(target, bool):
            _nonnegative(target, "coherence_target")  # checked, and stored as it came
        elif not (target is None or target == THRESHOLD_SENTINEL):
            raise InvalidArgs(f"coherence_target must be null, a number >= 0 or "
                              f"\"{THRESHOLD_SENTINEL}\", got {target!r}")
        if self.seed < 0:
            raise InvalidArgs("seed must be non-negative")

    def cells(self) -> list[tuple[int, int]]:
        return [(k, l)
                for k in range(self.k_range[0], min(self.k_range[1], self.m, self.n) + 1)
                for l in range(self.l_range[0], min(self.l_range[1], k - 1) + 1)]

    def cell_target(self, k: int, l: int) -> float | None:
        if self.coherence_target is None:
            return None
        if self.coherence_target == THRESHOLD_SENTINEL:
            return (1.0 - THRESHOLD_SAFETY) * coherence_threshold(k, l)
        return float(self.coherence_target)

    @staticmethod
    def from_dict(raw: dict) -> "SweepConfig":
        if not isinstance(raw, dict):
            raise InvalidArgs(f"sweep config must be a JSON object, got {type(raw).__name__}")
        extra = set(raw) - {f.name for f in fields(SweepConfig)}
        if extra:
            raise InvalidArgs(f"unknown sweep config fields: {sorted(extra, key=str)}")
        for f in fields(SweepConfig):
            if f.default is MISSING and f.name not in raw:
                raise InvalidArgs(f"sweep config is missing field {f.name!r}")
        return SweepConfig(**raw)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class CellResult:
    """Aggregated counts for one (variant, k, l) cell.  A cell that accepted no trial is
    skipped: its skip_reason is SKIP_BELOW_WELCH, SKIP_UNREACHED (n > m), SKIP_ROUNDING
    (n <= m) or SKIP_DROPPED, and skipped reads whether it has one."""

    variant: str
    k: int
    l: int
    threshold: float
    requested: int
    accepted: int = 0
    successes: int = 0
    wrong_atoms: int = 0
    wrong_ties: int = 0
    early_stops: int = 0
    mu_sum: float = 0.0
    mu_max: float = 0.0
    skip_reason: str | None = None

    @property
    def skipped(self) -> bool:
        return self.skip_reason is not None

    @property
    def mu_mean(self) -> float:
        return self.mu_sum / self.accepted if self.accepted else float("nan")

    @property
    def success_rate(self) -> float:
        return self.successes / self.accepted if self.accepted else float("nan")

    @property
    def tie_rate(self) -> float:
        return self.wrong_ties / self.accepted if self.accepted else float("nan")

    def to_dict(self) -> dict:
        """The cell as JSON values: a cell with no accepted trial has no mu_mean, mu_max
        or rates, so they are None (JSON has no NaN, and mu_max's 0.0 is a real coherence)."""
        known = self.accepted > 0
        return {
            "variant": self.variant, "k": self.k, "l": self.l,
            "threshold": self.threshold, "requested": self.requested,
            "accepted": self.accepted, "successes": self.successes,
            "wrong_atoms": self.wrong_atoms, "wrong_ties": self.wrong_ties,
            "early_stops": self.early_stops, "mu_mean": self.mu_mean if known else None,
            "mu_max": self.mu_max if known else None,
            "success_rate": self.success_rate if known else None,
            "tie_rate": self.tie_rate if known else None, "skipped": self.skipped,
            "skip_reason": self.skip_reason,
        }


@dataclass(frozen=True)
class SweepReport:
    config: SweepConfig
    cells: tuple

    def to_dict(self) -> dict:
        return {"config": self.config.to_dict(), "cells": [c.to_dict() for c in self.cells]}

    def to_json(self) -> str:
        return _json(self.to_dict())

    def to_csv(self) -> str:
        return _csv_table(["variant", "k", "l", "mu_mean", "threshold", "success_rate", "tie_rate"],
                          [[c.variant, c.k, c.l, c.mu_mean, c.threshold, c.success_rate, c.tie_rate]
                           for c in self.cells])


def run_sweep(config: SweepConfig) -> SweepReport:
    """Execute the sweep and aggregate per-cell counts.

    Each cell runs in batches of trials in the calling thread, as the module
    docstring says.  Cells that accept no trial are marked skipped, with the
    reason, rather than failed.
    """
    variants = ("omp", "ols") if config.variant == "both" else (config.variant,)
    cells = []
    for (k, l) in config.cells():
        (accepted, mu_sum, mu_max), counts, reason = _cell_outcomes(config, k, l, variants)
        for v in variants:
            cells.append(CellResult(  # the counts of _KINDS fill successes .. early_stops
                v, k, l, coherence_threshold(k, l), config.trials, accepted, *counts[v].tolist(),
                mu_sum, mu_max, skip_reason=reason))
    return SweepReport(config=config, cells=tuple(cells))


def _cell_outcomes(config: SweepConfig, k: int, l: int, variants):
    """The tally (accepted, mu_sum, mu_max) of the coherences of the accepted trials of
    cell (k, l), per variant how many of them ended in each outcome of _KINDS, and the
    cell's skip reason (None when it accepted a trial), one generator batch at a time,
    with nothing kept per trial.  Trial t's dictionary
    comes from the seed [seed, k, l, t] and its outcome from row t of the cell's stream
    [seed, k, l, 0, 1] (a row per generated trial; the last word keeps it off trial 0's)."""
    accepted, mu_sum, mu_max = 0, 0.0, 0.0
    counts = {v: np.zeros(len(_KINDS), dtype=int) for v in variants}
    seeds = ([config.seed, k, l, t] for t in range(config.trials))
    draws, reached_any = np.random.default_rng([config.seed, k, l, 0, 1]), False
    try:
        for atoms, reached, mus in _batches(config.m, config.n, config.cell_target(k, l), seeds):
            u = draws.random((len(reached), config.n + 2 * k))[reached]
            reached_any = reached_any or bool(reached.any())
            atoms = atoms[reached]
            mus = _off_diagonal_max(_grams(atoms)) if mus is None else mus[reached]
            batch = _batch_outcomes(config, k, l, counts, u, atoms, mus)
            accepted, mu_max = accepted + len(batch), max([mu_max, *batch])
            mu_sum = reduce(add, batch, mu_sum)  # in trial order: sum() compensates from 3.12 on
            del atoms, reached, mus  # the generator's next batch is made after this one is freed
    except TargetUnreachable:  # below the Welch bound, raised before any draw
        return (0, 0.0, 0.0), counts, SKIP_BELOW_WELCH
    reason = (None if accepted else SKIP_DROPPED if reached_any
              else SKIP_UNREACHED if config.n > config.m else SKIP_ROUNDING)
    return (accepted, mu_sum, mu_max), counts, reason


def _batch_outcomes(config: SweepConfig, k: int, l: int, counts: dict, u: np.ndarray,
                    atoms: np.ndarray, mus: np.ndarray) -> list:
    """The coherences of the accepted ones among some generated trials of cell (k, l),
    with their outcome rows u (B, n + 2k), atoms (B, m, n) and coherences, their outcomes
    added to counts per variant.  The first k atoms in the order of a row's first n
    entries are the support (uniform, in uniform order), its first l the seeded atoms;
    the next k entries give magnitudes 0.5 + u, the last k signs, -1 below 0.5."""
    n = config.n
    if config.coherence_target == THRESHOLD_SENTINEL:
        keep = mus < coherence_threshold(k, l)  # defensive; the generation target sits below
        u, atoms, mus = u[keep], atoms[keep], mus[keep]
    if not len(mus):
        return []
    supports = np.argsort(u[:, :n], axis=1)[:, :k]
    coeffs = (0.5 + u[:, n:n + k]) * np.where(u[:, n + k:] < 0.5, -1.0, 1.0)
    seeds = supports[:, :l if config.seed_partial else 0]
    ys = (np.take_along_axis(atoms, supports[:, None, :], axis=2) @ coeffs[..., None])[..., 0]
    planted = np.zeros((len(mus), n), dtype=bool)
    np.put_along_axis(planted, supports, True, axis=1)
    for v in counts:
        runs = _pursue(SolverVariant(v), atoms, ys, k, seeds)
        codes, _ = _outcomes(planted, seeds.shape[1], runs.selected, runs.scores, runs.stops)
        counts[v] += np.bincount(codes, minlength=len(_KINDS))
    return mus.tolist()
