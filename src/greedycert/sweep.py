"""Monte Carlo sweeps over (k, l) cells with deterministic per-trial seeding.

Each trial derives its own random streams from (master seed, k, l, trial
index), so its outcome does not depend on what else runs.  A cell runs as one
batch: its dictionaries are generated together (`random_dictionaries`,
byte-identical to generating each trial alone), their coherences come from
one stack of Gram matrices, and each variant pursues all of the cell's trials
in one stack of pursuits (the trials share m, n and k), with the outcomes of
`classify`, row by row.
"""

import json
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .dictionary import BATCH_ELEMENTS, _fmt, _grams, _off_diagonal_max, random_dictionaries
from .errors import InvalidArgs, TargetUnreachable
from .greedy import _KINDS, RecoveryOutcome, SolverVariant, _outcomes, _pursue
from .guarantees import coherence_threshold

THRESHOLD_SENTINEL = "threshold"
THRESHOLD_SAFETY = 1e-3  # generate strictly below the cell threshold by this relative margin

_VARIANT_CHOICES = ("omp", "ols", "both")


def _typed(value, what: str, kind: type):
    """value, which must be a JSON integer (kind int) or boolean (kind bool): nothing is coerced."""
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        name = "boolean" if kind is bool else "integer"
        raise InvalidArgs(f"sweep config field {what} must be a JSON {name}, got {value!r}")
    return value


@dataclass(frozen=True)
class SweepConfig:
    """Sweep description, normally loaded from a JSON file.

    k_range and l_range are inclusive (lo, hi) pairs; cells run over every
    pair with l < k.  coherence_target is None (no constraint), a number
    (fixed ceiling for every cell), or the string "threshold" (per-cell
    ceiling just below 1/(2k-l-1), so every accepted trial sits strictly
    below the threshold).  With seed_partial the solver is seeded with l
    planted atoms per trial; otherwise it runs unseeded and l only selects
    the per-cell threshold.  from_dict takes integers only as JSON integers
    and seed_partial only as a JSON boolean.
    """

    m: int
    n: int
    k_range: tuple[int, int]
    l_range: tuple[int, int]
    trials: int
    coherence_target: float | str | None
    seed: int
    variant: str
    seed_partial: bool

    def __post_init__(self):
        if self.m < 1 or self.n < 2:
            raise InvalidArgs(f"need m >= 1 and n >= 2, got m={self.m}, n={self.n}")
        if self.trials < 1:
            raise InvalidArgs("trials must be positive")
        if self.variant not in _VARIANT_CHOICES:
            raise InvalidArgs(f"variant must be one of {_VARIANT_CHOICES}, got {self.variant!r}")
        for name, rng in (("k_range", self.k_range), ("l_range", self.l_range)):
            if len(rng) != 2 or rng[0] > rng[1] or rng[0] < 0:
                raise InvalidArgs(f"{name} must be an inclusive (lo, hi) pair, got {rng}")
        if not self.cells():
            raise InvalidArgs("no cell satisfies l < k <= min(m, n)")
        target = self.coherence_target
        if not (target is None or target == THRESHOLD_SENTINEL
                or isinstance(target, (int, float)) and not isinstance(target, bool)
                and np.isfinite(target) and target >= 0):
            raise InvalidArgs(f"coherence_target must be null, a number >= 0 or "
                              f"\"{THRESHOLD_SENTINEL}\", got {target!r}")
        if self.seed < 0:
            raise InvalidArgs("seed must be non-negative")

    def cells(self) -> list[tuple[int, int]]:
        return [(k, l)
                for k in range(self.k_range[0], self.k_range[1] + 1)
                for l in range(self.l_range[0], self.l_range[1] + 1)
                if l < k <= min(self.m, self.n)]

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
        known = {"m", "n", "k_range", "l_range", "trials", "coherence_target",
                 "seed", "variant", "seed_partial"}
        extra = set(raw) - known
        if extra:
            raise InvalidArgs(f"unknown sweep config fields: {sorted(extra)}")
        try:
            fields = dict(
                m=_typed(raw["m"], "m", int),
                n=_typed(raw["n"], "n", int),
                k_range=tuple(_typed(x, "k_range", int) for x in raw["k_range"]),
                l_range=tuple(_typed(x, "l_range", int) for x in raw["l_range"]),
                trials=_typed(raw["trials"], "trials", int),
                coherence_target=raw.get("coherence_target"),
                seed=_typed(raw.get("seed", 0), "seed", int),
                variant=str(raw.get("variant", "both")).lower(),
                seed_partial=_typed(raw.get("seed_partial", False), "seed_partial", bool),
            )
        except KeyError as exc:
            raise InvalidArgs(f"sweep config is missing field {exc}") from None
        except TypeError as exc:
            raise InvalidArgs(f"malformed sweep config: {exc}") from None
        return SweepConfig(**fields)

    def to_dict(self) -> dict:
        return {
            "m": self.m, "n": self.n,
            "k_range": list(self.k_range), "l_range": list(self.l_range),
            "trials": self.trials, "coherence_target": self.coherence_target,
            "seed": self.seed, "variant": self.variant, "seed_partial": self.seed_partial,
        }


@dataclass
class CellResult:
    """Aggregated counts for one (variant, k, l) cell."""

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
    skipped: bool = False
    skip_reason: str | None = None

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
        return {
            "variant": self.variant, "k": self.k, "l": self.l,
            "threshold": self.threshold, "requested": self.requested,
            "accepted": self.accepted, "successes": self.successes,
            "wrong_atoms": self.wrong_atoms, "wrong_ties": self.wrong_ties,
            "early_stops": self.early_stops, "mu_mean": self.mu_mean,
            "mu_max": self.mu_max, "success_rate": self.success_rate,
            "tie_rate": self.tie_rate, "skipped": self.skipped,
            "skip_reason": self.skip_reason,
        }


@dataclass(frozen=True)
class SweepReport:
    config: SweepConfig
    cells: tuple

    def to_dict(self) -> dict:
        return {"config": self.config.to_dict(), "cells": [c.to_dict() for c in self.cells]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self) -> str:
        lines = ["variant,k,l,mu_mean,threshold,success_rate,tie_rate"]
        for c in self.cells:
            lines.append(",".join([c.variant, str(c.k), str(c.l)] + [
                _fmt(x) for x in (c.mu_mean, c.threshold, c.success_rate, c.tie_rate)]))
        return "\n".join(lines) + "\n"


def run_sweep(config: SweepConfig, jobs: int = 1) -> SweepReport:
    """Execute the sweep and aggregate per-cell counts.

    Each cell runs as one batch: its dictionaries are generated together, then
    each variant pursues every accepted trial in one stack of pursuits, at most
    BATCH_ELEMENTS atom entries at a time.  jobs is validated and otherwise
    ignored: a cell is a handful of stacked numpy calls in the calling thread,
    and threads only added overhead.  Cells whose coherence target is
    unreachable for the configured shape are marked skipped rather than failed.
    """
    if jobs < 1:
        raise InvalidArgs(f"jobs must be >= 1, got {jobs}")
    variants = ("omp", "ols") if config.variant == "both" else (config.variant,)
    cells = []
    for (k, l) in config.cells():
        mus, kinds = _cell_outcomes(config, k, l, variants)
        for v in variants:
            count = Counter(kinds[v])
            cells.append(CellResult(
                variant=v, k=k, l=l, threshold=coherence_threshold(k, l), requested=config.trials,
                accepted=len(mus), successes=count[RecoveryOutcome.SUCCESS],
                wrong_atoms=count[RecoveryOutcome.WRONG_ATOM],
                wrong_ties=count[RecoveryOutcome.TIE_WITH_WRONG_ATOM],
                early_stops=count[RecoveryOutcome.EARLY_ZERO_RESIDUAL],
                mu_sum=reduce(add, mus, 0.0),  # in trial order: sum() compensates from 3.12 on
                mu_max=max(mus, default=0.0), skipped=not mus,
                skip_reason=None if mus else "coherence target unreachable for this shape"))
    return SweepReport(config=config, cells=tuple(cells))


def _cell_outcomes(config: SweepConfig, k: int, l: int, variants):
    """The accepted trials of cell (k, l) in trial order: their coherences and,
    per variant, their outcome kinds.

    Trial t's dictionary comes from the seed [seed, k, l, t]; its planted support,
    coefficients and seeded atoms from the generator [seed, k, l, t, 1]."""
    m, n = config.m, config.n
    cell_mus, kinds = [], {v: [] for v in variants}
    try:
        dicts = random_dictionaries(m, n, config.cell_target(k, l),
                                    [[config.seed, k, l, t] for t in range(config.trials)])
    except TargetUnreachable:  # below the Welch bound, so no draw reaches it
        return cell_mus, kinds
    drawn = [(t, d.atoms) for t, d in enumerate(dicts) if d is not None]
    per_batch = max(1, BATCH_ELEMENTS // (m * n))
    for start in range(0, len(drawn), per_batch):
        trials, atoms = zip(*drawn[start:start + per_batch])
        atoms = np.stack(atoms)
        mus = _off_diagonal_max(_grams(atoms))
        if config.coherence_target == THRESHOLD_SENTINEL:
            keep = mus < coherence_threshold(k, l)  # defensive; the generation target sits below
            trials, atoms, mus = [t for t, ok in zip(trials, keep) if ok], atoms[keep], mus[keep]
            if not trials:
                continue
        supports, coeffs, seeds = [], [], []
        for t in trials:
            rng = np.random.default_rng([config.seed, k, l, t, 1])
            support = rng.choice(n, size=k, replace=False)
            supports.append(support)
            coeffs.append(rng.uniform(0.5, 1.5, size=k) * rng.choice([-1.0, 1.0], size=k))
            seeds.append(support[rng.choice(k, size=l, replace=False)]
                         if config.seed_partial and l > 0 else support[:0])
        supports, coeffs = np.array(supports), np.array(coeffs)
        ys = (np.take_along_axis(atoms, supports[:, None, :], axis=2) @ coeffs[..., None])[..., 0]
        planted = np.zeros((len(trials), n), dtype=bool)
        np.put_along_axis(planted, supports, True, axis=1)
        seeds = np.array(seeds)
        cell_mus += mus.tolist()
        for v in variants:
            runs = _pursue(SolverVariant(v), atoms, ys, k, seeds)
            codes = _outcomes(planted, seeds.shape[1], runs.selected, runs.scores, runs.stops)
            kinds[v] += [_KINDS[c] for c in codes]
    return cell_mus, kinds
