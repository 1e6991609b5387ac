"""Dictionaries with unit-norm atoms: core types, diagnostics, generators and file IO.

A dictionary is an m x n real matrix whose columns (atoms) have unit Euclidean
norm.  This module owns the plain-text CSV format used by the CLI (one matrix
row per line) and the two generators used throughout: a symmetric construction
that sits exactly at the coherence threshold for greedy recovery, and a seeded
random generator with an optional coherence target, which makes the
dictionaries of many seeds in batches of at most BATCH_ELEMENTS entries per
stack (`_batches`, whose stacked arrays the sweeps take as they are).
"""

import json
import math
import numbers
import operator
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .errors import CapExceeded, InvalidArgs, TargetUnreachable

UNIT_NORM_TOL = 1e-9
# Rank tolerance, two ways: `spark` and the exact-recovery tests count singular values below
# this fraction of the largest as zero; pursuits and projections count an atom whose absolute
# distance to the span of the atoms before it is at or below this as dependent on them.
RANK_SV_TOL = 1e-8
SPARK_CAP = 20
BISECT_STEPS = 24  # halvings of the blend's noise-weight bracket: it ends 2^-24 wide
SHRINK_STEPS = 1500  # shrinkage steps a trial takes at most before it gives up
BATCH_ELEMENTS = 1 << 16  # matrix entries per stack in a generator batch: n*max(m, n) a trial


@dataclass(frozen=True, eq=False, repr=False)
class Dictionary:
    """Immutable m x n matrix of unit-norm atoms (m >= 1, n >= 2)."""

    atoms: np.ndarray

    def __post_init__(self):
        a = np.array(self.atoms, dtype=float)
        if a.ndim != 2:
            raise InvalidArgs("atoms must be a 2-D array")
        m, n = a.shape
        if m < 1 or n < 2:
            raise InvalidArgs(f"dictionary shape {m}x{n} is too small (need m >= 1, n >= 2)")
        if not np.all(np.isfinite(a)):
            raise InvalidArgs("atoms must be finite")
        norms = np.linalg.norm(a, axis=0)
        if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
            worst = float(np.abs(norms - 1.0).max())
            raise InvalidArgs(f"atoms must have unit norm within {UNIT_NORM_TOL} (worst deviation {worst:g})")
        a.setflags(write=False)
        object.__setattr__(self, "atoms", a)

    @property
    def m(self) -> int:
        return self.atoms.shape[0]

    @property
    def n(self) -> int:
        return self.atoms.shape[1]

    def column(self, i: int) -> np.ndarray:
        return self.atoms[:, i]

    def __repr__(self):
        return f"Dictionary(m={self.m}, n={self.n})"


@dataclass(frozen=True)
class Support:
    """Ordered index set: distinct non-negative ints, order preserved."""

    indices: tuple[int, ...] = ()

    def __post_init__(self):
        idx = tuple(_index(i, "a support index") for i in self.indices)
        if any(i < 0 for i in idx):
            raise InvalidArgs("support indices must be non-negative")
        if len(set(idx)) != len(idx):
            raise InvalidArgs(f"support has duplicate indices: {idx}")
        object.__setattr__(self, "indices", idx)

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, i):
        return i in self.indices

    def array(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=int)


def as_support(value) -> Support:
    """Coerce a Support or any iterable of ints into a Support."""
    if isinstance(value, Support):
        return value
    return Support(tuple(value))


def check_support(d: Dictionary, support: Support) -> Support:
    if len(support) and max(support) >= d.n:
        raise InvalidArgs(f"support index {max(support)} out of range for n={d.n}")
    return support


@dataclass(frozen=True)
class SparseInstance:
    """A planted sparse problem: observation = sum of support atoms weighted by coefficients."""

    support: Support
    coefficients: np.ndarray
    observation: np.ndarray


def make_instance(d: Dictionary, support, coefficients) -> SparseInstance:
    """Build a SparseInstance whose observation is synthesized from the dictionary.

    Parameters
    ----------
    d : Dictionary
    support : Support or iterable of int
        Planted support, all indices in range.
    coefficients : array_like
        One nonzero coefficient per support atom, in support order.

    Returns
    -------
    SparseInstance
    """
    sup = check_support(d, as_support(support))
    c = np.array(coefficients, dtype=float)
    if c.shape != (len(sup),):
        raise InvalidArgs(f"expected {len(sup)} coefficients, got shape {c.shape}")
    if not np.all(np.isfinite(c)) or np.any(c == 0.0):
        raise InvalidArgs("coefficients must be finite and nonzero")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
        y = d.atoms[:, sup.array()] @ c
    _check_square_norm(y, "observation")
    c.setflags(write=False)
    y.setflags(write=False)
    return SparseInstance(support=sup, coefficients=c, observation=y)


def _check_real(x, what: str) -> None:
    """Raise InvalidArgs unless x is a real number; a bool is not one here."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise InvalidArgs(f"{what} must be a real number, got {x!r}")


def _index(x, what: str) -> int:
    """x as an int (numpy integers included), or InvalidArgs for anything that
    is not an integer, a bool included: nothing is truncated."""
    try:
        if isinstance(x, bool):
            raise TypeError
        return operator.index(x)
    except TypeError:
        raise InvalidArgs(f"{what} must be an integer, got {x!r}") from None


def _check_square_norm(y: np.ndarray, what: str) -> None:
    """Raise InvalidArgs unless the squared norm of y, which the pursuits and
    projections take, is finite; an overflow in this check raises no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        square = y @ y
    if not np.isfinite(square):
        raise InvalidArgs(f"{what} is too large: its squared norm overflows a float")


def gram(d: Dictionary) -> np.ndarray:
    """Gram matrix of the atoms (n x n, symmetric, unit diagonal)."""
    return d.atoms.T @ d.atoms


def coherence(d: Dictionary) -> float:
    """Largest absolute inner product between two distinct atoms."""
    return float(_off_diagonal_max(gram(d)))


def spark(d: Dictionary, cap: int = SPARK_CAP) -> int:
    """Size of the smallest linearly dependent column subset.

    Returns n + 1 when every column subset is independent (only possible for
    n <= m).  Rank decisions use RANK_SV_TOL relative to the largest singular
    value.

    Raises
    ------
    CapExceeded
        If n exceeds `cap` (subset enumeration would blow up).
    """
    if d.n > cap:
        raise CapExceeded(f"spark enumeration capped at n <= {cap}, got n={d.n}")
    a = d.atoms
    sv = np.linalg.svd(a, compute_uv=False)
    rank = int(np.sum(sv > RANK_SV_TOL * sv[0]))
    if rank == d.n:
        return d.n + 1
    if d.n - rank == 1:
        # one-dimensional null space: its support is the unique minimal dependent set
        _, _, vt = np.linalg.svd(a)
        v = vt[-1]
        return int(np.sum(np.abs(v) > RANK_SV_TOL * np.abs(v).max()))
    for size in range(2, min(d.n, d.m + 1) + 1):
        if size > d.m:
            return size  # more columns than rows is always dependent
        for sub in combinations(range(d.n), size):
            block = a[:, list(sub)]
            s = np.linalg.svd(block, compute_uv=False)
            if s[-1] <= RANK_SV_TOL * s[0]:
                return size
    return min(d.n, d.m + 1)


def _check_kl(k: int, l: int) -> tuple[int, int]:
    """(k, l) as ints (_index), or InvalidArgs outside the domain of recovering k >= 1 atoms
    after 0 <= l < k correct ones."""
    k, l = _index(k, "k"), _index(l, "l")
    if k < 1 or l < 0 or l >= k:
        raise InvalidArgs(f"need k >= 1 and 0 <= l < k, got k={k}, l={l}")
    return k, l


def _check_shape(m: int, n: int) -> tuple[int, int]:
    """(m, n) as ints (_index), or InvalidArgs unless m >= 1 and n >= 2: the shapes a
    dictionary with a pair of atoms can take."""
    m, n = _index(m, "m"), _index(n, "n")
    if m < 1 or n < 2:
        raise InvalidArgs(f"need m >= 1 and n >= 2, got m={m}, n={n}")
    return m, n


def build_worst_case(k: int, l: int) -> Dictionary:
    """Symmetric dictionary of 2k-l atoms in dimension 2k-l-1 at coherence 1/(2k-l-1).

    Every off-diagonal Gram entry equals -1/(2k-l-1), the spark is exactly
    2k-l, and the one-dimensional null space is spanned by the all-ones
    vector.  This is the equality case of the coherence threshold for exact
    recovery of k atoms after l correct selections: greedy pursuit provably
    fails on a suitable input against this dictionary.

    The eigenbasis is fixed by a Householder reflection mapping the normalized
    all-ones vector to the last canonical basis vector, so the output is
    deterministic (bitwise identical across calls).
    """
    k, l = _check_kl(k, l)
    n = 2 * k - l
    m = n - 1
    ones_dir = np.full(n, 1.0 / math.sqrt(n))
    w = ones_dir.copy()
    w[-1] -= 1.0
    house = np.eye(n) - 2.0 * np.outer(w, w) / (w @ w)
    # first m columns of the reflection are orthonormal and orthogonal to ones_dir
    basis = house[:, :m]
    scale = math.sqrt(n / (n - 1.0))
    return Dictionary(scale * basis.T)


def _unit_columns(mat: np.ndarray) -> np.ndarray:
    """Scale every column of a matrix, or of each matrix in a stack, to unit norm."""
    # the sums of np.linalg.norm, without its dispatch cost
    norms = np.sqrt(np.add.reduce(mat * mat, axis=-2, keepdims=True))
    if (norms < 1e-12).any():
        raise InvalidArgs("cannot normalize a zero column")
    return mat / norms


def _grams(mats: np.ndarray) -> np.ndarray:
    return mats.swapaxes(-1, -2) @ mats


def _off_diagonal_max(g: np.ndarray) -> np.ndarray:
    """Largest absolute off-diagonal entry of a Gram matrix, or of each one in
    a stack (..., n, n)."""
    n = g.shape[-1]
    off = np.abs(g).reshape(g.shape[:-2] + (n * n,))
    off[..., ::n + 1] = 0.0
    return off.max(axis=-1)


def _shrink_grams(starts: np.ndarray, target: float) -> list:
    """Iteratively clip off-diagonal Gram entries and re-factor to rank m, in
    lockstep over a stack of starting points (B, m, n).

    Returns, per start, a unit-norm matrix with coherence <= target, or None
    when SHRINK_STEPS steps do not reach it; rows leave the stack when they
    reach the target.  There is no earlier stop: a row can sit on a plateau
    for hundreds of steps and still reach the target.  Each row gets the bits
    of shrinking it alone, and is deterministic for a fixed start.
    """
    d = starts.copy()
    m, n = d.shape[1:]
    gamma = 0.95 * target
    out = [None] * len(d)
    rows = np.arange(len(d))
    for _ in range(SHRINK_STEPS):
        g = _grams(d)
        mu = _off_diagonal_max(g)
        hit = mu <= target
        for i, atoms in zip(rows[hit], d[hit]):
            out[i] = atoms
        if hit.any():
            d, g, rows = d[~hit], g[~hit], rows[~hit]
        if not len(d):  # every row has reached the target, or the stack came empty
            break
        clipped = np.clip(g, -gamma, gamma)
        clipped[:, range(n), range(n)] = 1.0
        w, vecs = np.linalg.eigh(clipped)
        top = np.clip(w[:, n - m:], 0.0, None)
        d = (vecs[:, :, n - m:] * np.sqrt(top)[:, None, :]).swapaxes(-1, -2)
        norms = np.sqrt(np.add.reduce(d * d, axis=-2, keepdims=True))
        row, dead = (norms[:, 0] < 1e-12).nonzero()
        if dead.size:
            # deterministic rescue: replace a collapsed column with a basis vector
            d[row, :, dead] = 0.0
            d[row, dead % m, dead] = 1.0
            norms = np.sqrt(np.add.reduce(d * d, axis=-2, keepdims=True))
        d = d / norms
    return out


def welch_bound(m: int, n: int) -> float:
    """Lower bound on the coherence of any m x n unit-norm dictionary (m >= 1, n >= 2)."""
    m, n = _check_shape(m, n)
    if n <= m:
        return 0.0
    return math.sqrt((n - m) / (m * (n - 1.0)))


def _blend(frames: np.ndarray, noise: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Unit-norm blends (1 - t) * frame + t * noise of a stack of trials, each
    with its own noise weight t."""
    t = t[:, None, None]
    return _unit_columns((1.0 - t) * frames + t * noise)


def _bisect_blend(frames: np.ndarray, noise: np.ndarray, target: float) -> np.ndarray:
    """Blends at the low end of a noise-weight bracket bisected BISECT_STEPS times from
    [0, 1], in lockstep over a stack of trials, each with its own bracket.  The low end
    always keeps the coherence within the target, so every trial is accepted; the bracket's
    final width only sets how far below the target it lands: within a relative gap of
    1e-5 on the sweeps' threshold cells (tested), far inside sweep.THRESHOLD_SAFETY."""
    lo, hi = np.zeros(len(frames)), np.ones(len(frames))
    for _ in range(BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        ok = _off_diagonal_max(_grams(_blend(frames, noise, mid))) <= target
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    return _blend(frames, noise, lo)


def _rng(seed) -> np.random.Generator:
    """numpy's default_rng of a seed, with InvalidArgs for a seed that it refuses."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise InvalidArgs(f"seed {seed!r} is not a valid numpy seed: {exc}") from None


def _generate(m: int, n: int, target: float | None, seeds: list) -> tuple[np.ndarray, np.ndarray]:
    """One batch of trials: their atoms (B, m, n), and a mask of those that reached the target.

    Every trial takes the first path whose check it passes: pure noise (the
    only one without a target), then the bisected blend when the frame itself
    is within the target, then (for n > m) Gram shrinkage in lockstep, starting
    at the frame: its rows are those of a Haar matrix, so with unit-norm atoms it
    is near tight, as a coherence near the Welch bound requires."""
    rngs = [_rng(seed) for seed in seeds]  # each draws its trial's noise, then its frame's matrix
    noise = np.stack([rng.normal(size=(m, n)) for rng in rngs])
    atoms = _unit_columns(noise)  # the blend at noise weight 1
    if target is None:
        return atoms, np.ones(len(seeds), dtype=bool)
    # one stacked QR: orthonormal frames, or for n > m the unit-norm first m rows of Haar matrices
    q, r = np.linalg.qr(np.stack([rng.normal(size=(max(m, n), n)) for rng in rngs]))
    frames = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
    frames = _unit_columns(frames[:, :m, :]) if n > m else frames
    reached = _off_diagonal_max(_grams(atoms)) <= target
    framed = ~reached & (_off_diagonal_max(_grams(frames)) <= target)
    if framed.any():
        atoms[framed] = _bisect_blend(frames[framed], noise[framed], target)
    reached |= framed
    if n > m:
        rest = np.flatnonzero(~reached)
        for i, shrunk in zip(rest, _shrink_grams(frames[rest], target)):
            if shrunk is not None:
                atoms[i], reached[i] = shrunk, True
    return atoms, reached


def _batches(m: int, n: int, target: float | None, seeds):
    """Check the arguments of random_dictionaries, then yield `_generate`'s (atoms, reached)
    for the seeds in order, BATCH_ELEMENTS // (n*max(m, n)) a batch: the one batch rule.
    Seeds are read a batch at a time: drop each batch before asking for the next."""
    m, n = _check_shape(m, n)
    if target is not None:
        _check_real(target, "coherence_target")
        if not target >= 0:
            raise InvalidArgs(f"coherence_target must be a non-negative number, got {target!r}")
        target = float(target)
        if target < welch_bound(m, n):
            raise TargetUnreachable(
                f"target {target:g} is below the {welch_bound(m, n):.6g} lower bound for shape {m}x{n}")
    seeds, per_batch = iter(seeds), max(1, BATCH_ELEMENTS // (n * max(m, n)))
    while batch := list(islice(seeds, per_batch)):
        yield _generate(m, n, target, batch)


def random_dictionaries(m: int, n: int, coherence_target: float | None,
                        seeds) -> list[Dictionary | None]:
    """Seeded random dictionaries of one shape and coherence target, one per seed.

    Trial i is exactly `random_dictionary(m, n, coherence_target, seeds[i])`,
    byte for byte, with None where that call raises TargetUnreachable for
    its draw.  The trials are generated together: each of the BISECT_STEPS
    steps of the blend bisection, and each step of the Gram shrinkage, is one
    stacked evaluation over every trial that needs it.
    Batches hold at most BATCH_ELEMENTS matrix entries per stack, so the
    working memory does not grow with the number of seeds.

    Raises
    ------
    InvalidArgs
        For a bad shape (not two ints, or too small), a target that is not a
        non-negative number, or a seed that numpy's default_rng refuses.
    TargetUnreachable
        If the target is below the analytic lower bound for (m, n), which no
        draw can reach.
    """
    return [Dictionary(a) if ok else None
            for atoms, reached in _batches(m, n, coherence_target, seeds)
            for a, ok in zip(atoms, reached)]


def random_dictionary(m: int, n: int, coherence_target: float | None = None,
                      seed=0) -> Dictionary:
    """Seeded random dictionary, optionally with a coherence ceiling.

    Without a target the atoms are normalized i.i.d. Gaussian columns, which
    are kept when they meet the target too.  Otherwise an orthogonal frame
    that meets it is blended with the noise, and the blend at the low end of
    a noise-weight bracket bisected BISECT_STEPS times is kept: its coherence
    meets the target and sits a little below it (`_bisect_blend`).  For n > m,
    where the frame itself may miss tight targets, a deterministic Gram
    shrinkage takes over, starting at the frame.  This is a batch of one of
    `random_dictionaries`.

    Parameters
    ----------
    m, n : int
        Shape, m >= 1 and n >= 2.
    coherence_target : float, optional
        Required ceiling on the mutual coherence of the result.
    seed : int or sequence of int
        Anything accepted by numpy's default_rng.  Same seed, same matrix.

    Raises
    ------
    InvalidArgs
        For a bad shape (not two ints, or too small), a target that is not a
        non-negative number (NaN included), or a seed that default_rng refuses.
    TargetUnreachable
        If the target is below the analytic lower bound for (m, n), or the
        frame misses the target and the shrinkage (n > m only) ends above it
        after SHRINK_STEPS steps.
    """
    (d,) = random_dictionaries(m, n, coherence_target, [seed])
    if d is None:
        raise TargetUnreachable(f"could not reach coherence {float(coherence_target):g} "
                                f"for shape {m}x{n} within the step budget")
    return d


def _fmt(x) -> str:
    """A number in 17 significant digits, enough to round-trip a float: the CLI's number format."""
    return f"{float(x):.17g}"


def _json(obj) -> str:
    """obj as JSON indented by 2, NaN and infinities refused: the CLI's JSON format."""
    return json.dumps(obj, indent=2, allow_nan=False)


def _csv_lines(rows) -> str:
    """A 2-D array's rows as CSV lines in `_fmt`'s format, formatted from `.tolist()`'s Python
    floats (faster than numpy scalars), joined by newlines (none after the last)."""
    return "\n".join(",".join(f"{x:.17g}" for x in row) for row in rows.tolist())


def save_dictionary(d: Dictionary, path) -> None:
    """Write the matrix as plain CSV, one row per line, 17 significant digits."""
    with open(path, "w") as fh:
        fh.write(_csv_lines(d.atoms) + "\n")


def load_dictionary(path) -> tuple[Dictionary, bool]:
    """Read a dictionary from plain CSV (one matrix row per line).

    Columns whose norm deviates from 1 by more than UNIT_NORM_TOL are
    re-normalized, whatever their scale; the second return value flags whether
    that happened.  Non-finite entries, all-zero columns and ragged rows are
    rejected.
    """
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise InvalidArgs(f"{path}: line {lineno}: {exc}") from exc
    if not rows:
        raise InvalidArgs(f"{path}: empty dictionary file")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise InvalidArgs(f"{path}: ragged rows (expected {width} columns everywhere)")
    a = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(a)):
        raise InvalidArgs(f"{path}: non-finite entries are not allowed")
    top = np.abs(a).max(axis=0)
    if not top.all():
        raise InvalidArgs(f"{path}: zero column cannot be normalized")
    scaled = a / top  # with entries in [-1, 1], its squares neither overflow nor all underflow
    lengths = np.sqrt(np.add.reduce(scaled * scaled, axis=0))
    with np.errstate(over="ignore"):  # a norm past the float range is far from 1 as well
        renormalized = bool(np.any(np.abs(top * lengths - 1.0) > UNIT_NORM_TOL))
    return Dictionary(scaled / lengths if renormalized else a), renormalized


def save_vector(v: np.ndarray, path) -> None:
    """Write a vector as one value per line, 17 significant digits."""
    v = np.asarray(v, dtype=float).ravel()
    with open(path, "w") as fh:
        fh.write(_csv_lines(v[:, None]) + "\n")


def load_vector(path) -> np.ndarray:
    """Read a vector: values separated by newlines and/or commas."""
    toks = []
    with open(path) as fh:
        for line in fh:
            toks.extend(t for t in line.replace(",", " ").split() if t)
    try:
        v = np.asarray([float(t) for t in toks], dtype=float)
    except ValueError as exc:
        raise InvalidArgs(f"{path}: {exc}") from exc
    if v.size == 0:
        raise InvalidArgs(f"{path}: empty vector file")
    if not np.all(np.isfinite(v)):
        raise InvalidArgs(f"{path}: non-finite entries are not allowed")
    return v
