"""Recovery certificates: exact-recovery tests, coherence thresholds and
projected restricted-isometry constants.

The classical exact-recovery test asks whether every atom outside the planted
support has l1-regression norm below one against the planted sub-dictionary;
here it also comes in a partial form evaluated on atoms projected against an
already-selected subset, which is what governs pursuit after some correct
selections.  The coherence thresholds and restricted-isometry constants below
bound that quantity from above, and all of them are exposed both as closed
forms in the mutual coherence and as exact enumerations for small dictionaries.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations

import numpy as np

from . import dictionary
from .dictionary import (RANK_SV_TOL, Dictionary, _check_kl, _check_real, _index, _nonnegative,
                         _off_diagonal_max, _real_array, check_support)
from .errors import CapExceeded, InvalidArgs, OutOfDomain, RankDeficient
from .greedy import SolverVariant, as_variant
from .projection import _divisor, project_atoms

ENUM_CAP = 10 ** 6


@dataclass(frozen=True)
class ErcReport:
    """Result of an exact-recovery test.

    lhs is the largest l1 norm of the regression coefficients of an outside
    atom on the (projected) planted family; satisfied means lhs < 1 strictly.
    binding_atom is the outside atom attaining the maximum (None when there is
    no outside atom).  partial_support echoes the projected-out subset for the
    partial test and is None for the plain one.
    """

    variant: str | None
    lhs: float
    binding_atom: int | None
    satisfied: bool
    partial_support: tuple | None

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "lhs": self.lhs,
            "binding_atom": self.binding_atom,
            "satisfied": self.satisfied,
            "partial_support": list(self.partial_support) if self.partial_support is not None else None,
        }


@dataclass(frozen=True)
class PripConstants:
    """Two-sided restricted-isometry constants of a projected atom family.

    For blocks of q atoms projected against every support of size l:
    (1 - lower) and (1 + upper) bracket the eigenvalues of the projected
    block Grams.  kind records whether the values came from exhaustive
    enumeration ("exact") or from the coherence closed form ("coherence_bound").
    """

    q: int
    l: int
    lower: float
    upper: float
    kind: str

    def to_dict(self) -> dict:
        return {"q": self.q, "l": self.l, "lower": self.lower,
                "upper": self.upper, "kind": self.kind}


def _erc(planted: np.ndarray, family: np.ndarray, qs, what: str,
         variant: str | None, partial_support) -> ErcReport:
    """ErcReport on the largest l1 norm of the least-squares coefficients of the
    atoms of family outside the support qs on the planted columns, whose singular
    value ratio must lie above RANK_SV_TOL."""
    outside = [i for i in range(family.shape[1]) if i not in qs]
    coef, _, _, sv = np.linalg.lstsq(planted, family[:, outside], rcond=None)
    if planted.shape[1] > planted.shape[0] or sv[-1] <= RANK_SV_TOL * sv[0]:
        raise RankDeficient(f"{what} is numerically rank deficient")
    if not outside:
        return ErcReport(variant, 0.0, None, True, partial_support)
    norms = np.abs(coef).sum(axis=0)
    top = int(np.argmax(norms))
    return ErcReport(variant, float(norms[top]), outside[top], bool(norms[top] < 1.0),
                     partial_support)


def tropp_erc(d: Dictionary, qstar) -> ErcReport:
    """Plain exact-recovery test against a planted support.

    Evaluates max over outside atoms of the l1 norm of their least-squares
    coefficients on the planted sub-dictionary; strict inequality with one is
    the classical sufficient (and worst-case necessary) condition for greedy
    pursuit to stay inside the support.
    """
    qs = check_support(d, qstar)
    if len(qs) == 0:
        raise InvalidArgs("planted support must be non-empty")
    return _erc(d.atoms[:, qs.array()], d.atoms, qs, "planted sub-dictionary", None, None)


def partial_erc(variant, d: Dictionary, q, qstar) -> ErcReport:
    """Exact-recovery test for the remaining atoms after a correct prefix.

    The whole dictionary is projected against the span of the prefix q (a
    proper subset of qstar); the test then runs on the projected family, raw
    for the OMP scoring rule and normalized for the OLS one.  lhs < 1 means no
    outside atom can outscore the remaining planted ones at this point.
    """
    variant = as_variant(variant)
    qs = check_support(d, qstar)
    qq = check_support(d, q)
    if not set(qq.indices) < set(qs.indices):
        raise InvalidArgs("q must be a proper subset of qstar")
    fam = project_atoms(d, qq, normalize=variant is SolverVariant.OLS)
    return _erc(fam[:, [i for i in qs if i not in qq]], fam, qs,
                "projected planted family", variant.value, qq.indices)


def _check_ql(q: int, l: int) -> tuple[int, int]:
    """(q, l) as ints (_index), or InvalidArgs unless q >= 1 and l >= 0."""
    q, l = _index(q, "q"), _index(l, "l")
    if q < 1 or l < 0:
        raise InvalidArgs(f"need q >= 1 and l >= 0, got q={q}, l={l}")
    return q, l


def _check_mu(mu: float) -> None:
    """Raise InvalidArgs unless mu is a real number in [0, 1], the range of a coherence."""
    _check_real(mu, "mu")
    if not (0.0 <= mu <= 1.0):
        raise InvalidArgs(f"mu must lie in [0, 1], got {mu!r}")


def coherence_threshold(k: int, l: int) -> float:
    """Coherence level 1/(2k-l-1) below which recovery of k atoms is assured
    once l correct ones are in hand (and at which it provably can fail)."""
    k, l = _check_kl(k, l)
    return 1.0 / (2 * k - l - 1)


def omp_partial_bound(k: int, l: int, mu: float) -> float:
    """Closed-form ceiling (k-l)*mu / (1-(k-1)*mu) on the partial test for the
    raw-projection scoring rule, valid for mu < 1/(k-1)."""
    k, l = _check_kl(k, l)
    _check_mu(mu)
    if k > 1 and mu >= 1.0 / (k - 1):
        raise OutOfDomain(f"bound needs mu < 1/(k-1) = {1.0 / (k - 1):g}, got mu={mu:g}")
    return (k - l) * mu / (1.0 - (k - 1) * mu)


def prip_coherence_bounds(q: int, l: int, mu: float) -> PripConstants:
    """Coherence closed forms for the projected restricted-isometry constants.

    upper = (q-1)*mu and lower = (q-1)*mu + mu^2*q*l/(1-(l-1)*mu); the two
    coincide at l = 0.  Requires mu < 1/(l-1) when l >= 2.
    """
    q, l = _check_ql(q, l)
    _check_real(mu, "mu")
    if not (0.0 <= mu < 1.0):
        raise InvalidArgs(f"mu must lie in [0, 1), got {mu!r}")
    if l >= 2 and mu >= 1.0 / (l - 1):
        raise OutOfDomain(f"closed form needs mu < 1/(l-1) = {1.0 / (l - 1):g}, got mu={mu:g}")
    upper = (q - 1) * mu
    lower = upper + (mu * mu) * q * l / (1.0 - (l - 1) * mu)
    return PripConstants(q=q, l=l, lower=lower, upper=upper, kind="coherence_bound")


def _projected_grams(d: Dictionary, l: int):
    """(supports, Grams of the atoms outside each, in index order) stacks covering every
    l-subset of atoms in combinations() order.  A push is one Schur-complement step
    G - h h^T, h = g / sqrt(g_i), g the pushed atom's row and g_i its pivot: the Cholesky
    downdate of Batch-OMP, O(n^2) per push.  One step serves every level: it lists the
    children of a stack of supports of one size, across their parents and in walk order,
    pushes them in stacks, and yields each stack of leaves (supports of size l) or steps
    on with it to the next level, depth first.  A stack holds one Gram or at most a
    quarter of dictionary.BATCH_ELEMENTS entries: a consumer holds a few temporaries of
    its size, and the next stack is built while it holds the last.  The walk never reads a
    yielded stack again: the consumer may overwrite it."""
    # A step adds about 2 eps per entry (|h_j h_k| <= 1 by Cauchy-Schwarz) and divides
    # the errors already in G by the pivot: a Gram downdated since it was formed from
    # vectors is off by about eps / P, P the product of those pivots (0.1 eps / P the
    # worst seen, on Kahan-like supports).  A push where P times the least squared norm left
    # would fall below the guard takes project_atoms's Gram instead, which keeps errors
    # near 2^10 eps ~ 2e-13 and leaves the rank rule and RankDeficient to that path.
    guard = 2.0 ** -10
    budget = dictionary.BATCH_ELEMENTS // 4

    def push(rows, r, i, pivots):
        """(children, P, mask of those that pass the guard) of pushing position i[c] of the
        Gram whose row i[c] is row r[c] of rows (Grams stacked row-wise), P pivots[c] before."""
        size = rows.shape[1]
        pivot = rows[r, i]
        p = pivots * pivot  # P once the child is pushed
        ok = p >= guard
        keep = np.arange(size - 1)
        keep = keep + (keep >= i[:, None])  # every position but i, per child
        # a child failing the guard divides by 1: no warning from a pivot <= 0
        h = rows[r[:, None], keep] / np.sqrt(np.where(ok, pivot, 1.0))[:, None]
        children = rows.take(((r - i)[:, None] + keep)[:, :, None] * size + keep[:, None, :])
        children -= np.einsum("ci,cj->cij", h, h)
        return children, p, ok & (p * children.diagonal(0, 1, 2).min(axis=1) >= guard)

    def exact_gram(support):
        rest = np.delete(project_atoms(d, support), support, axis=1)
        return rest.T @ rest

    def step(supports, grams, pivots, ok=None):
        """(supports, Grams) stacks of the l-subsets that extend the stacked supports, all of
        one size t <= l, given their Grams, P and guard mask (None at the root, where no
        push has been made); those that fail the guard take project_atoms's Gram first, and
        P restarts at 1."""
        if ok is not None:
            for c in (~ok).nonzero()[0]:
                grams[c], pivots[c] = exact_gram(supports[c]), 1.0
        t, size = len(supports[0]), grams.shape[1]
        if t == l:
            yield supports, grams
            return
        width = max(1, budget // (size - 1) ** 2)
        # (parent, position) of every child in walk order: the positions after the
        # parent's last atom that leave room for l - t - 1 more atoms
        first = np.array([support[-1] + 1 - t if t else 0 for support in supports])
        par, i = (np.arange(d.n - l + 1) >= first[:, None]).nonzero()
        rows, r = grams.reshape(-1, size), par * size + i
        for s in range(0, len(r), width):
            at = slice(s, s + width)
            kids = [supports[q] + (t + j,) for q, j in zip(par[at].tolist(), i[at].tolist())]
            children, p, ok = push(rows, r[at], i[at], pivots[par[at]])
            # inner stacks step on in runs cut before each child that falls back, so
            # project_atoms sees the supports in depth-first order
            cuts = [0, *(~ok[1:]).nonzero()[0] + 1, len(ok)] if t + 1 < l else [0, len(ok)]
            for a, b in zip(cuts, cuts[1:]):
                yield from step(kids[a:b], children[a:b], p[a:b], ok[a:b])

    yield from step([()], (d.atoms.T @ d.atoms)[None], np.ones(1))


def _subsets(n: int, size: int) -> np.ndarray:
    """Every size-subset of range(n) as a row of a (C(n, size), size) array, in
    combinations() order."""
    count = math.comb(n, size)
    return np.fromiter(chain.from_iterable(combinations(range(n), size)), dtype=np.intp,
                       count=count * size).reshape(count, size)


@lru_cache(maxsize=32)
def _block_table(rest: int, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """Read-only (blocks, lower, incidence, tails), the row layout prip_exact prunes
    in.  blocks: every block as q positions in a support's rest, the `rest` atoms
    outside it in order (combinations() order).  lower: (q(q+1)/2, block), the flat
    index into a rest x rest Gram of every lower-triangle entry b_ij, i >= j, of every
    block, one row per entry: the q diagonal entries b_ii first, then the entries
    below the diagonal column by column.  incidence: the (i, off-diagonal row)
    matrix with 1 where i is in the row's (i, j) and 0 elsewhere.  tails: per LDL^T
    step k, the (i, j) into column k's entries below the diagonal whose products
    h_i h_j update, in order, the off-diagonal rows of the columns after k.  Cached:
    building the table costs about as much as a small prip_exact call.  A prip_exact
    call takes the table of its supports' rest and, when it prunes, those of all n atoms
    and of one block: the certify benchmark's six orders on its two dictionary shapes
    take 16 tables."""
    blocks = _subsets(rest, q)
    ij = np.array([(i, i) for i in range(q)]  # the (i, j) of each row
                  + [(i, j) for j in range(q) for i in range(j + 1, q)], dtype=np.intp)
    lower = (blocks[:, ij[:, 0]] * rest + blocks[:, ij[:, 1]]).T.copy()
    incidence = np.eye(q)[ij[q:]].sum(axis=1).T
    tails = tuple(np.triu_indices(q - k - 1, 1)[::-1] for k in range(q))
    for arr in (blocks, lower, incidence, *chain.from_iterable(tails)):
        arr.setflags(write=False)
    return blocks, lower, incidence, tails


def _definite(a: np.ndarray, shift: float, sign: float, tails: tuple) -> np.ndarray:
    """Mask of the columns of a, overwritten, each the lower triangle of a symmetric
    q x q matrix in the row order of _block_table, whose tails for this q it takes, for
    which the unpivoted Cholesky (LDL^T) factorization of sign * (B - shift I),
    vectorized over the columns, has only positive pivots.  Step k takes the pivot
    row k and the column h below it, then subtracts h h^T from the trailing rows in
    outer-product form, each product h_i h_j once.  Up to the rounding bounded in
    prip_exact, every eigenvalue of a matrix that passes lies above the shift for
    sign 1 and below it for sign -1.  The shift may be infinite."""
    q = len(tails)
    a *= sign
    a[:q] -= sign * shift
    ok = np.ones(a.shape[1], dtype=bool)
    col = q  # the first row of column k below the diagonal
    for k, (i, j) in enumerate(tails):
        pivot = a[k]
        ok &= pivot > 0
        rest = q - k - 1
        if rest:
            # a matrix with a pivot <= 0 divides by inf: no updates from then on
            h = a[col:col + rest] / np.sqrt(np.where(ok, pivot, np.inf))
            col += rest
            a[k + 1:q] -= h * h
            a[col:] -= h[i] * h[j]
    return ok


def _discs(rows: np.ndarray, incidence: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(low, up) of each block whose lower triangle is a column of rows, in the row order
    of _block_table, whose incidence for this q it takes: Gershgorin's bounds
    min_i (b_ii - r_i) and max_i (b_ii + r_i) on its eigenvalues, r_i the sum of |b_ij|
    over the rest of row i."""
    radius = incidence @ np.abs(rows[q:])
    return (rows[:q] - radius).min(axis=0), np.add(rows[:q], radius, out=radius).max(axis=0)


def _undecided(rows: np.ndarray, tails: tuple, sides) -> np.ndarray:
    """Mask of the columns of rows, each the lower triangle of a (support, block) pair,
    that the Cholesky test (_definite) cannot keep from an extreme: sides holds
    (near, shift, sign) per extreme, near the mask of the columns whose Gershgorin bound
    reaches the shift."""
    need = np.zeros(rows.shape[1], dtype=bool)
    for near, shift, sign in sides:
        cols = near.nonzero()[0]
        if len(cols):
            need[cols] |= ~_definite(rows.take(cols, axis=1), shift, sign, tails)
    return need


def _widen(lo: float, hi: float, stack: np.ndarray) -> tuple[float, float]:
    """(lo, hi) widened to the extreme eigenvalues of a non-empty (blocks, q, q) stack."""
    eig = np.linalg.eigvalsh(stack)
    return min(lo, float(eig[:, 0].min())), max(hi, float(eig[:, -1].max()))


def _gather(grams: np.ndarray, si: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The (pairs, q, q) stack of the blocks at positions `at` (pairs, q) of the Grams
    grams[si] of a stack."""
    return grams[si[:, None, None], at[:, :, None], at[:, None, :]]


def _solve_rows(lo: float, hi: float, grams: np.ndarray, table: tuple, pieces: list,
                tol: float, sides: str = "low high") -> tuple[float, float]:
    """(lo, hi) widened by every block of a chunk of Grams that could move an extreme named
    in sides.  Per piece of blocks, one gather of the flat Gram indices of table
    (_block_table) lays the lower triangle of every (support, block) pair out as one
    column; Gershgorin's discs and the Cholesky test rule blocks out, and the rest are
    solved as one stack.  While lo and hi are unset, each support's block with the lowest
    low and its block with the highest up are solved first."""
    blocks, lower, incidence, tails = table
    q, width = len(tails), len(grams)
    entries = np.ascontiguousarray(grams.reshape(width, -1).T)
    for piece in pieces:
        # (entry, pair): the pair of block b and support s is column b * width + s
        rows = entries.take(lower[:, piece], axis=0).reshape(len(lower), -1)
        low, up = _discs(rows, incidence, q)
        if lo > hi:  # nothing solved yet: each support's most extreme blocks first
            first = np.concatenate((low.reshape(-1, width).argmin(axis=0),
                                    up.reshape(-1, width).argmax(axis=0)))
            first = first * width + np.tile(np.arange(width), 2)
            at, si = np.divmod(first, width)
            lo, hi = _widen(lo, hi, _gather(grams, si, blocks[piece][at]))
            low[first], up[first] = np.inf, -np.inf  # out of both tests below
        tests = {"low": (low <= lo + tol, lo + tol, 1.0), "high": (up >= hi - tol, hi - tol, -1.0)}
        need = _undecided(rows, tails, [tests[side] for side in sides.split()]).nonzero()[0]
        if len(need):
            at, si = np.divmod(need, width)
            lo, hi = _widen(lo, hi, _gather(grams, si, blocks[piece][at]))
    return lo, hi


def prip_exact(d: Dictionary, q: int, l: int) -> PripConstants:
    """Exact projected restricted-isometry constants by exhaustive enumeration.

    Sweeps every support of size l and every disjoint block of q atoms,
    collecting the extreme eigenvalues of the projected block Grams:
    lower = 1 - min eigenvalue, upper = max eigenvalue - 1.

    The supports' Grams come from the Schur-complement walk _projected_grams.  Only
    blocks that could move the running minimum lo or maximum hi get an eigensolve: the
    tests of _solve_rows rule the others out, and for l >= 1 the walk loop may also prune
    by whole supports and by Loewner order (_prune).

    Rounding.  Atoms have unit norm (to UNIT_NORM_TOL) and projection only shortens
    them, so every |g_ij| of a Gram is at most about 1 and the eigenvalues of a block
    lie in [0, q].  The walk's Grams stay within about 2^10 eps of the exact projected
    Grams (see _projected_grams), which moves a block's eigenvalues by about q 2^10 eps
    at most; the Gram of the atoms that gives the caps is off by about m eps per entry.
    The Gershgorin bounds, the support bounds and the caps' up bounds sum q terms of
    size at most 1, so they are off by at most about q^2 eps, and eigvalsh's backward
    error is p(q) eps |B| <= p(q) q eps for a modest LAPACK constant p(q), for the caps
    and the solved blocks alike.  The floor's Schur complement is taken only where
    Gershgorin's discs keep the least eigenvalue of the support's Gram at 1/2 or
    above, so its error stays near l^2 eps.  A Cholesky test at a shift s
    (|s| <= q + 1) that finds every pivot positive shows that B - s I + E is positive
    definite, where E holds the rounding of the shift (eps (1 + |s|) per diagonal entry)
    and the factorization's backward error, entrywise at most gamma_{q+1} |R^T| |R| for
    the computed factor R (Higham, Accuracy and Stability of Numerical Algorithms,
    Thm 10.5), so ||E|| is at most about (q + 2) q eps (1 + |s|), some q^3 eps.
    tol = 2^20 q^2 eps (eps = 2^-52) covers the sum, about (2^10 q + m q + l^2 + q^3) eps,
    with a factor of about 2^10 or more to spare while q, m and l^2 stay below 2^10,
    and still lies far below the gaps between the bounds of generic blocks.  So a block
    ruled out at lo + tol has a computed least eigenvalue above lo, one ruled out at
    hi - tol or by a cap below hi - tol a computed greatest one below hi, and the floor
    lies below the computed greatest eigenvalue of the pair it was taken from, so below
    the result; the pair that attains the result passes every test, so the result is
    always a solved value.

    The tests only decide which blocks are solved, never their values: every solved
    block is gathered from the walk's Gram as a (blocks, q, q) stack and goes through the
    same per-matrix LAPACK call as when every block is solved, and min and max are
    exact, so the constants keep those bits.  One budget, dictionary.BATCH_ELEMENTS,
    cuts the work: a chunk of supports with their Grams and blocks, a piece of one
    support's blocks and the unprojected blocks each hold at most that many entries, the
    candidates' pairs a quarter of them, as a stack of the walk does, and no stack an
    eigensolve or a Cholesky test sees holds more.

    Raises CapExceeded when the number of (support, block) pairs exceeds ENUM_CAP,
    read at call time, evaluated or not, and RankDeficient if some support is
    numerically dependent.
    """
    q, l = _check_ql(q, l)
    if l + q > d.n:
        raise InvalidArgs(f"need l + q <= n, got l={l}, q={q}, n={d.n}")
    total = math.comb(d.n, l) * math.comb(d.n - l, q)
    if total > ENUM_CAP:
        raise CapExceeded(f"{total} support/block pairs exceed the cap of {ENUM_CAP}")
    table = _block_table(d.n - l, q)
    rest = d.n - l
    # a chunk of supports, with their Grams and blocks, or a piece of one support's
    # blocks stays within the budget
    budget = dictionary.BATCH_ELEMENTS
    supports = max(1, budget // (len(table[0]) * q * q + rest * rest))
    step = max(1, budget // (q * q))
    pieces = [slice(i, i + step) for i in range(0, len(table[0]), step)]
    tol = 2.0 ** -32 * q * q  # 2^20 q^2 eps: the rounding argument above
    lo, hi, pruned, sides = np.inf, -np.inf, None, "low high"
    # the prunes need more than one chunk of supports and the unprojected blocks within
    # the budget; _prune is compiled only when they run
    if l and math.comb(d.n, l) > supports and math.comb(d.n, q) * q * q <= budget:
        from . import _prune
        pruned = _prune.candidate_pairs(d, q, l, tol)
    if pruned is not None:
        hi, si, index = pruned
        sides, pending, done = "low", [], 0
    for _, stack in _projected_grams(d, l):
        if pruned is not None:
            a, b = np.searchsorted(si, (done, done + len(stack)))
            pending.append(stack.reshape(-1).take(index[a:b] - done * rest * rest))
            done += len(stack)
            bound = _prune._support_bounds(stack, q)
            live = (bound <= lo + tol).nonzero()[0]
            if len(live):
                lo, hi = _widen(lo, hi, _prune._likely_lowest(stack, q, live))
            stack = stack[live[bound[live] <= lo + tol]]
        for s in range(0, len(stack), supports):
            lo, hi = _solve_rows(lo, hi, stack[s:s + supports], table, pieces, tol, sides)
    if pruned is not None:  # the candidates' pairs, one block per Gram, on the high side
        lo, hi = _solve_rows(lo, hi, np.concatenate(pending).reshape(-1, q, q),
                             _block_table(q, q), [slice(None)], tol, "high")
    return PripConstants(q=q, l=l, lower=1.0 - lo, upper=hi - 1.0, kind="exact")


def projected_coherence(variant, d: Dictionary, l: int) -> float:
    """Largest absolute inner product between two distinct projected atoms,
    maximized over every support of size l.

    Uses the raw projected Gram for the OMP rule and the normalized one for the
    OLS rule (vanished atoms zero); at l = 0 both reduce to the mutual coherence.
    Each stack of Grams from _projected_grams is normalized and maximized at once.
    Raises CapExceeded when the number of supports exceeds ENUM_CAP, read at call time.
    """
    variant = as_variant(variant)
    l = _index(l, "l")
    if l < 0 or l > d.n - 2:
        raise InvalidArgs(f"need 0 <= l <= n-2, got l={l}, n={d.n}")
    if math.comb(d.n, l) > ENUM_CAP:
        raise CapExceeded(f"{math.comb(d.n, l)} supports exceed the cap of {ENUM_CAP}")
    best = 0.0
    for _, grams in _projected_grams(d, l):
        if variant is SolverVariant.OLS:
            scale = 1.0 / _divisor(grams.diagonal(0, 1, 2))
            grams *= scale[:, :, None] * scale[:, None, :]
        best = max(best, float(_off_diagonal_max(grams).max()))
    return best


def ols_coherence_bound(l: int, mu: float) -> float:
    """Closed-form ceiling mu/(1-l*mu) on the normalized projected coherence
    after l selections, valid for mu < 1/l."""
    l = _index(l, "l")
    if l < 0:
        raise InvalidArgs(f"need l >= 0, got l={l}")
    _check_mu(mu)
    if l >= 1 and mu >= 1.0 / l:
        raise OutOfDomain(f"bound needs mu < 1/l = {1.0 / l:g}, got mu={mu:g}")
    return mu / (1.0 - l * mu)


def prip_erc_bound(k: int, l: int, pair: PripConstants, block: PripConstants) -> float:
    """Partial-test ceiling (k-l)*(pair.upper+pair.lower) / (2*(1-block.lower))
    assembled from restricted-isometry constants for atom pairs and for blocks
    of the k-l remaining atoms, both projected against l selections."""
    k, l = _check_kl(k, l)
    if pair.q != 2 or pair.l != l:
        raise InvalidArgs(f"pair constants must be for (q=2, l={l}), got (q={pair.q}, l={pair.l})")
    if block.q != k - l or block.l != l:
        raise InvalidArgs(
            f"block constants must be for (q={k - l}, l={l}), got (q={block.q}, l={block.l})")
    if not np.isfinite([pair.lower, pair.upper, block.lower, block.upper]).all():
        raise InvalidArgs("restricted-isometry constants must be finite")
    if block.lower >= 1.0:
        raise OutOfDomain(f"need block lower constant < 1, got {block.lower:g}")
    return (k - l) * (pair.upper + pair.lower) / (2.0 * (1.0 - block.lower))


def cross_gram_bound_check(d: Dictionary, q, qp, qpp, u, mu_l: float | None = None
                           ) -> tuple[float, float]:
    """Evaluate both sides of the projected cross-Gram inequality.

    For disjoint blocks qp and qpp of atoms projected against support q,
    the operator A'^T A'' applied to u has norm at most
    mu * sqrt(|qp| * |qpp|) * ||u||, with mu the projected coherence of order
    len(q) for the raw-projection family.  Returns (lhs, rhs); pass a
    precomputed mu_l to skip the enumeration.
    """
    qs = check_support(d, q)
    a = check_support(d, qp)
    b = check_support(d, qpp)
    if set(a.indices) & set(b.indices):
        raise InvalidArgs("the two blocks must be disjoint")
    if len(a) == 0 or len(b) == 0:
        raise InvalidArgs("both blocks must be non-empty")
    u = _real_array(u, "u")
    if u.shape != (len(b),):
        raise InvalidArgs(f"u must have length {len(b)}, got shape {u.shape}")
    if not np.isfinite(u).all():
        raise InvalidArgs("u must be finite")
    if mu_l is not None:
        mu_l = _nonnegative(mu_l, "mu_l")
    projected = project_atoms(d, qs)
    lhs = float(np.linalg.norm(projected[:, a.array()].T @ (projected[:, b.array()] @ u)))
    if mu_l is None:
        mu_l = projected_coherence(SolverVariant.OMP, d, len(qs))
    rhs = float(mu_l * math.sqrt(len(a) * len(b)) * np.linalg.norm(u))
    return lhs, rhs
