"""Dictionaries with unit-norm atoms: core types, diagnostics, generators and file IO.

A dictionary is an m x n real matrix whose columns (atoms) have unit Euclidean
norm.  This module owns the plain-text CSV format used by the CLI (one matrix
row per line) and the two generators used throughout: a symmetric construction
that sits exactly at the coherence threshold for greedy recovery, and a seeded
random generator with an optional coherence target, met by a false-position
search over blends of an orthogonal frame with noise or by Gram shrinkage,
which makes the dictionaries of many seeds in batches of at most
BATCH_ELEMENTS entries per stack (`_batches`, whose stacked arrays and
coherences the sweeps take as they are).
"""

import json
import math
import numbers
import operator
import os
from dataclasses import dataclass
from itertools import combinations, islice
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import CapExceeded, InvalidArgs, TargetUnreachable

UNIT_NORM_TOL = 1e-9
# Rank tolerance, two ways: `spark` and the exact-recovery tests count singular values below
# this fraction of the largest as zero; pursuits and projections count an atom whose absolute
# distance to the span of the atoms before it is at or below this as dependent on them.
RANK_SV_TOL = 1e-8
SPARK_CAP = 20
BLEND_GAP = 1e-6  # a blend's search stops within this relative gap below the target
BLEND_PROBES = 24  # noise weights a blend's search probes at most
SHRINK_STEPS = 1500  # shrinkage steps a trial takes at most before it gives up
BATCH_ELEMENTS = 1 << 16  # matrix entries per stack in a generator batch: n*max(m, n) a trial


@dataclass(frozen=True, eq=False, repr=False)
class Dictionary:
    """Immutable m x n matrix of unit-norm atoms (m >= 1, n >= 2), held as a read-only
    C-ordered float64 copy whatever the layout of the input (_real_array): a built and a
    loaded copy of the same atoms give the same bits everywhere."""

    atoms: np.ndarray

    def __post_init__(self):
        a = _real_array(self.atoms, "atoms")
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


def check_support(d: Dictionary, support) -> Support:
    """as_support(support), every index of which must be below d.n."""
    support = as_support(support)
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
    sup = check_support(d, support)
    c = _real_array(coefficients, "coefficients")
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


def _nonnegative(x, what: str) -> float:
    """x as a float, or InvalidArgs unless it is a finite non-negative real number
    (_check_real): NaN, infinity and an int too large for a float are refused."""
    _check_real(x, what)
    try:
        value = float(x)
    except OverflowError:
        value = math.inf
    if not 0.0 <= value < math.inf:
        raise InvalidArgs(f"{what} must be a finite non-negative number, got {x!r}")
    return value


def _real_array(x, what: str) -> np.ndarray:
    """A new C-ordered float64 array of x, or InvalidArgs unless x holds integers or floats:
    bools, strings, other objects and complex numbers (whose imaginary part a cast would
    drop) are refused, as are ragged nestings."""
    try:
        a = np.asarray(x)
    except ValueError as exc:
        raise InvalidArgs(f"{what} must be an array of real numbers: {exc}") from None
    if a.dtype.kind not in "iuf":
        raise InvalidArgs(f"{what} must be real numbers, got {a.dtype} entries")
    return a.astype(float, order="C")


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
    return _grams(d.atoms)


def coherence(d: Dictionary) -> float:
    """Largest absolute inner product between two distinct atoms."""
    return float(_off_diagonal_max(gram(d)))


def spark(d: Dictionary) -> int:
    """Size of the smallest linearly dependent column subset.

    Returns n + 1 when every column subset is independent (only possible for
    n <= m).  Rank decisions use RANK_SV_TOL relative to the largest singular
    value.

    Raises
    ------
    CapExceeded
        If n exceeds SPARK_CAP, read at call time (subset enumeration would blow up).
    """
    if d.n > SPARK_CAP:
        raise CapExceeded(f"spark enumeration capped at n <= {SPARK_CAP}, got n={d.n}")
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
    for size in range(2, min(d.n, d.m) + 1):
        for sub in combinations(range(d.n), size):
            block = a[:, list(sub)]
            s = np.linalg.svd(block, compute_uv=False)
            if s[-1] <= RANK_SV_TOL * s[0]:
                return size
    return d.m + 1  # more columns than rows is always dependent


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
    """Scale every column of a matrix, or of each matrix in a stack, to unit norm; a column j
    of norm below 1e-12 becomes the basis vector e_(j mod m), on a copy: mat is never written."""
    # the sums of np.linalg.norm, without its dispatch cost
    norms = np.sqrt(np.add.reduce(mat * mat, axis=-2, keepdims=True))
    if (norms < 1e-12).any():
        *lead, dead = (norms[..., 0, :] < 1e-12).nonzero()
        mat = mat.copy()
        mat[(*lead, slice(None), dead)] = 0.0
        mat[(*lead, dead % mat.shape[-2], dead)] = 1.0
        norms = np.sqrt(np.add.reduce(mat * mat, axis=-2, keepdims=True))
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


def _shrink_grams(starts: np.ndarray, target: float) -> tuple[np.ndarray, np.ndarray]:
    """Iteratively clip off-diagonal Gram entries and re-factor to rank m, in
    lockstep over a stack of starting points (B, m, n).

    Returns per start a unit-norm matrix with coherence <= target, and that
    coherence; a start that SHRINK_STEPS steps do not bring within the target
    is returned as it is, with coherence inf.  Rows leave the stack when they
    reach the target.  There is no earlier stop: a row can sit on a plateau
    for hundreds of steps and still reach the target.  Each row gets the bits
    of shrinking it alone, and is deterministic for a fixed start.
    """
    d, out, mus = starts.copy(), starts.copy(), np.full(len(starts), np.inf)
    m, n = d.shape[1:]
    gamma = 0.95 * target
    rows = np.arange(len(d))
    for _ in range(SHRINK_STEPS):
        g = _grams(d)
        mu = _off_diagonal_max(g)
        hit = mu <= target
        if hit.any():
            out[rows[hit]], mus[rows[hit]] = d[hit], mu[hit]
            d, g, rows = d[~hit], g[~hit], rows[~hit]
        if not len(d):  # every row has reached the target, or the stack came empty
            break
        clipped = np.clip(g, -gamma, gamma)
        clipped[:, range(n), range(n)] = 1.0
        w, vecs = np.linalg.eigh(clipped)
        top = np.clip(w[:, n - m:], 0.0, None)
        # a collapsed column takes _unit_columns' rescue
        d = _unit_columns((vecs[:, :, n - m:] * np.sqrt(top)[:, None, :]).swapaxes(-1, -2))
    return out, mus


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


def _search_blend(frames: np.ndarray, noise: np.ndarray, mu_frames: np.ndarray,
                  mu_noise: np.ndarray, target: float) -> tuple[np.ndarray, np.ndarray]:
    """Blends of a stack of trials whose frame (noise weight t = 0, coherence mu_frames)
    is within the target and whose noise (t = 1, coherence mu_noise) is not: per trial,
    the blend at the low end of a bracket in t, and its coherence.

    The bracket starts at [0, 1] and narrows by false position with the Illinois
    rule (Dowell and Jarratt, BIT 11, 1971), in lockstep over the trials: each probe
    is the root of the secant of coherence minus target between the bracket's ends,
    clipped strictly inside it; a probe within the target moves the low end, any
    other the high end, and an end kept twice in a row has its value halved.  A
    trial leaves the stack once its low end is within a relative BLEND_GAP below
    the target, or after BLEND_PROBES probes.  The low end always keeps the
    coherence within the target, so every trial is accepted, and each gets the bits
    of searching it alone."""
    atoms, mus = frames.copy(), mu_frames.copy()  # the low ends' blends: at t = 0 the frames
    lo, hi = np.zeros(len(frames)), np.ones(len(frames))
    g_lo, g_hi = mu_frames - target, mu_noise - target  # coherence - target at the ends
    moved = np.zeros(len(frames))  # +1 where the last probe moved lo, -1 where it moved hi
    rows, gap = np.arange(len(frames)), BLEND_GAP * target
    for _ in range(BLEND_PROBES):
        rows = rows[target - mus[rows] > gap]
        if not len(rows):
            break
        a, b = lo[rows], hi[rows]
        t = a + (b - a) * (g_lo[rows] / (g_lo[rows] - g_hi[rows]))
        t = np.minimum(np.maximum(t, np.nextafter(a, b)), np.nextafter(b, a))
        blends = _blend(frames[rows], noise[rows], t)
        mu = _off_diagonal_max(_grams(blends))
        ok = mu <= target
        up, down = rows[ok], rows[~ok]
        g_hi[up[moved[up] > 0]] *= 0.5  # Illinois: an end kept twice in a row has its value halved
        g_lo[down[moved[down] < 0]] *= 0.5
        atoms[up], mus[up], lo[up], moved[up] = blends[ok], mu[ok], t[ok], 1.0
        hi[down], moved[down] = t[~ok], -1.0
        g_lo[up], g_hi[down] = mu[ok] - target, mu[~ok] - target
    return atoms, mus


def _rng(seed) -> np.random.Generator:
    """numpy's default_rng of a seed, with InvalidArgs for a seed that it refuses."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise InvalidArgs(f"seed {seed!r} is not a valid numpy seed: {exc}") from None


def _generate(m: int, n: int, target: float | None,
              seeds: list) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """One batch of trials: their atoms (B, m, n), a mask of those that reached the target,
    and with a target the coherence of each trial that reached it, above the target for
    one that did not (None without a target).

    Every trial takes the first path whose check it passes: pure noise (the
    only one without a target), then the blend searched by `_search_blend` when
    the frame itself is within the target, then (for n > m) Gram shrinkage in
    lockstep, starting at the frame: its rows are those of a Haar matrix, so with
    unit-norm atoms it is near tight, as a coherence near the Welch bound requires.
    The coherences are the ones each path took of the atoms it kept."""
    rngs = [_rng(seed) for seed in seeds]  # each draws its trial's noise, then its frame's matrix
    noise = np.stack([rng.normal(size=(m, n)) for rng in rngs])
    atoms = _unit_columns(noise)  # the blend at noise weight 1
    if target is None:
        return atoms, np.ones(len(seeds), dtype=bool), None
    # one stacked QR: orthonormal frames, or for n > m the unit-norm first m rows of Haar matrices
    q, r = np.linalg.qr(np.stack([rng.normal(size=(max(m, n), n)) for rng in rngs]))
    frames = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
    frames = _unit_columns(frames[:, :m, :]) if n > m else frames
    mus, mu_frames = _off_diagonal_max(_grams(atoms)), _off_diagonal_max(_grams(frames))
    framed = (mus > target) & (mu_frames <= target)
    atoms[framed], mus[framed] = _search_blend(frames[framed], noise[framed], mu_frames[framed],
                                               mus[framed], target)
    if n > m:
        rest = mus > target
        atoms[rest], mus[rest] = _shrink_grams(frames[rest], target)
    return atoms, mus <= target, mus


def _batches(m: int, n: int, target: float | None, seeds):
    """Check the arguments of random_dictionaries, then yield `_generate`'s (atoms, reached,
    coherences) for the seeds in order, BATCH_ELEMENTS // (n*max(m, n)) a batch: the one batch rule.
    Seeds are read a batch at a time: drop each batch before asking for the next."""
    m, n = _check_shape(m, n)
    if target is not None:
        target = _nonnegative(target, "coherence_target")
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
    its draw.  The trials are generated together: each probe of the blend
    search (at most BLEND_PROBES), and each step of the Gram shrinkage, is one
    stacked evaluation over every trial that needs it.
    Batches hold at most BATCH_ELEMENTS matrix entries per stack, so the
    working memory does not grow with the number of seeds.

    Raises
    ------
    InvalidArgs
        For a bad shape (not two ints, or too small), a target that is not a
        finite non-negative number, or a seed that numpy's default_rng refuses.
    TargetUnreachable
        If the target is below the analytic lower bound for (m, n), which no
        draw can reach.
    """
    return [Dictionary(a) if ok else None
            for atoms, reached, _ in _batches(m, n, coherence_target, seeds)
            for a, ok in zip(atoms, reached)]


def random_dictionary(m: int, n: int, coherence_target: float | None = None,
                      seed=0) -> Dictionary:
    """Seeded random dictionary, optionally with a coherence ceiling.

    Without a target the atoms are normalized i.i.d. Gaussian columns, which
    are kept when they meet the target too.  Otherwise an orthogonal frame
    that meets it is blended with the noise, and a false-position search over
    the noise weight keeps the blend at the low end of its bracket: its
    coherence meets the target and sits within a relative BLEND_GAP below it,
    unless BLEND_PROBES probes do not get there (`_search_blend`).  For n > m,
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
        finite non-negative number (NaN, infinity and ints past the float range
        included), or a seed that default_rng refuses.
    TargetUnreachable
        If the target is below the analytic lower bound for (m, n).  Also
        when the frame and the noise of the draw both miss it: for n <= m,
        where the frame is orthonormal, only a target below the coherence that
        rounding leaves in it (of order 1e-16); for n > m, when the Gram
        shrinkage ends above it after SHRINK_STEPS steps.
    """
    (d,) = random_dictionaries(m, n, coherence_target, [seed])
    if d is None:
        cause = (f"the Gram shrinkage ended above it after {SHRINK_STEPS} steps" if n > m else
                 "it is below the rounding-level coherence of the draw's orthonormal frame")
        raise TargetUnreachable(f"could not reach coherence {float(coherence_target):g} "
                                f"for shape {m}x{n}: {cause}")
    return d


_NUMBER = "%.17g"  # 17 significant digits, enough to round-trip a float: the CLI's number format


def _fmt(x) -> str:
    """A number in `_NUMBER`'s format."""
    return _NUMBER % float(x)


def _json(obj) -> str:
    """obj as JSON indented by 2, NaN and infinities refused: the CLI's JSON format, in the
    bytes of `json.dumps(obj, indent=2, allow_nan=False)`, the one call to it in the package.

    Python's encoder takes one Python call per number once it indents, so dicts with str
    keys, lists and tuples are walked here, and a list whose items are all floats, or all
    ints (exact types), is written with one join over `repr`.  str, int, float, bool and
    None leaves are written inline.  Anything else (a float list or a float that holds a
    NaN or an infinity, a dict with another key, a numpy scalar, a container met again
    inside itself) goes to json.dumps, re-indented: json writes it, or raises as it would."""

    # the text in pieces, joined once at the end; the containers being walked, whose
    # cycles json reports
    parts, open_ids = [], set()

    def encode(value, newline: str) -> None:
        kind = type(value)
        if kind is str:
            parts.append(encode_basestring_ascii(value))
            return
        if value is None or value is True or value is False:
            parts.append("null" if value is None else "true" if value else "false")
            return
        if kind is int:
            parts.append(repr(value))
            return
        if kind is float:
            text = repr(value)
            if "n" not in text:  # nan and inf are the only float texts with an n
                parts.append(text)
                return
        elif kind is list or kind is tuple or kind is dict:
            if not value:
                parts.append("{}" if kind is dict else "[]")
                return
            inner = newline + "  "
            if kind is dict:
                if id(value) not in open_ids and all(type(key) is str for key in value):
                    open_ids.add(id(value))
                    head = "{" + inner
                    for key, item in value.items():
                        parts.append(head + encode_basestring_ascii(key) + ": ")
                        encode(item, inner)
                        head = "," + inner
                    parts.append(newline + "}")
                    open_ids.discard(id(value))
                    return
            elif set(map(type, value)) in ({float}, {int}):
                text = ("," + inner).join(map(repr, value))
                if "n" not in text:
                    parts.extend(("[" + inner, text, newline + "]"))
                    return
            elif id(value) not in open_ids:
                open_ids.add(id(value))
                head = "[" + inner
                for item in value:
                    parts.append(head)
                    encode(item, inner)
                    head = "," + inner
                parts.append(newline + "]")
                open_ids.discard(id(value))
                return
        parts.append(json.dumps(value, indent=2, allow_nan=False).replace("\n", newline))

    encode(obj, "\n")
    del encode  # it holds itself through its closure: end that cycle, so the pieces go now
    return "".join(parts)


def _csv_lines(rows) -> str:
    """A 2-D array's rows as CSV lines in `_NUMBER`'s format, joined by newlines (none after
    the last): one %-format per row of `.tolist()`'s Python floats, not a call per entry."""
    line = ",".join([_NUMBER] * rows.shape[1])
    return "\n".join([line % tuple(row) for row in rows.tolist()])


def _csv_table(head: list, rows) -> str:
    """The header head and then the rows as CSV lines, each ending in a newline: the CLI's
    CSV tables, floats in `_NUMBER`'s format (_fmt) and every other cell through str."""
    return "".join(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n"
                   for row in [head, *rows])


def _write_text(path, text: str, end: str = "") -> None:
    """Write text and then end to path as `open(path, "w")` would, with the same bytes,
    and for a new file the same mode, but rewrite an existing file in place and then cut it
    to the new length: the package's one writer.  end, written on its own, spares a caller
    a copy of a long text only to add its newline.  A file is never truncated to zero
    first, which on ext4 (the `auto_da_alloc` rule) makes closing the rewritten file start
    its writeback.  A write that fails part way leaves a damaged file, as it does with
    `open`."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
        fh.write(text)
        fh.write(end)
        fh.truncate()


def _read_text(path) -> str:
    """The text of the file at path, as `open(path).read()` gives it: the package's one
    reader.  A file that does not decode raises InvalidArgs that names it."""
    with open(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidArgs(f"{path}: {exc}") from None


def save_dictionary(d: Dictionary, path) -> None:
    """Write the matrix as plain CSV, one row per line, 17 significant digits."""
    _write_text(path, _csv_lines(d.atoms), "\n")


def load_dictionary(path) -> tuple[Dictionary, bool]:
    """Read a dictionary from plain CSV (one matrix row per line).

    Columns whose norm deviates from 1 by more than UNIT_NORM_TOL are
    re-normalized, whatever their scale; the second return value flags whether
    that happened.  Non-finite entries, all-zero columns and ragged rows are
    rejected.
    """
    rows = []
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rows.append(list(map(float, line.split(","))))
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
    """Write a vector as one value per line, 17 significant digits.  Input that is not
    real numbers (_real_array), or that is empty or holds a NaN or an infinity, which
    `load_vector` refuses, raises InvalidArgs before the file is opened."""
    v = _real_array(v, "vector").ravel()
    if not v.size:
        raise InvalidArgs("vector must be non-empty")
    if not np.all(np.isfinite(v)):
        raise InvalidArgs("vector must be finite")
    _write_text(path, _csv_lines(v[:, None]), "\n")


def load_vector(path) -> np.ndarray:
    """Read a vector: values separated by newlines and/or commas."""
    toks = _read_text(path).replace(",", " ").split()
    try:
        v = np.asarray([float(t) for t in toks], dtype=float)
    except ValueError as exc:
        raise InvalidArgs(f"{path}: {exc}") from exc
    if v.size == 0:
        raise InvalidArgs(f"{path}: empty vector file")
    if not np.all(np.isfinite(v)):
        raise InvalidArgs(f"{path}: non-finite entries are not allowed")
    return v
