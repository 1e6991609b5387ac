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
from .dictionary import (RANK_SV_TOL, Dictionary, _check_kl, _check_real, _index,
                         _off_diagonal_max, as_support, check_support)
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
    qs = check_support(d, as_support(qstar))
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
    qs = check_support(d, as_support(qstar))
    qq = check_support(d, as_support(q))
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
    l-subset of atoms in combinations() order, from a C-ordered copy of the atoms.  A
    push is one Schur-complement step G - h h^T, h = g / sqrt(g_i), g the pushed atom's
    row and g_i its pivot: the Cholesky downdate of Batch-OMP, O(n^2) per push.  One step
    serves every level: it lists the children of a stack of supports of one size, across
    their parents and in walk order, pushes them in stacks, and yields each stack of leaves
    (supports of size l) or steps on with it to the next level, depth first.  A stack
    holds one Gram or at most a quarter of dictionary.BATCH_ELEMENTS entries: a consumer
    holds a few temporaries of its size, and the next stack is built while it holds the
    last.  The walk never reads a yielded stack again: the consumer may overwrite it."""
    # A step adds about 2 eps per entry (|h_j h_k| <= 1 by Cauchy-Schwarz) and divides
    # the errors already in G by the pivot: a Gram downdated since it was formed from
    # vectors is off by about eps / P, P the product of those pivots (0.1 eps / P the
    # worst seen, on Kahan-like supports).  A push where P times the least squared norm left
    # would fall below the guard takes project_atoms's Gram instead, which keeps errors
    # near 2^10 eps ~ 2e-13 and leaves the rank rule and RankDeficient to that path.
    guard = 2.0 ** -10
    atoms = np.ascontiguousarray(d.atoms)
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

    def exact_gram(support):  # validates the atoms at each call: fallbacks are rare
        rest = np.delete(project_atoms(Dictionary(atoms), support), support, axis=1)
        return rest.T @ rest

    def step(supports, grams, pivots, ok):
        """(supports, Grams) stacks of the l-subsets that extend the stacked supports, all of
        one size t <= l, given their Grams, P and guard mask; those that fail the guard take
        project_atoms's Gram first, and P restarts at 1."""
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

    yield from step([()], (atoms.T @ atoms)[None], np.ones(1), np.ones(1, dtype=bool))


@lru_cache(maxsize=16)
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
    building the table costs about as much as a small prip_exact call."""
    blocks = np.fromiter(chain.from_iterable(combinations(range(rest), q)), dtype=np.intp,
                         count=math.comb(rest, q) * q).reshape(-1, q)
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


def _widen(lo: float, hi: float, grams: np.ndarray, blocks: np.ndarray, cols: np.ndarray):
    """(lo, hi) widened to the extreme eigenvalues of the pairs at the columns cols of
    a piece's rows, each block blocks[c // len(grams)] of Gram c % len(grams),
    gathered from the grams and solved as one (cols, q, q) stack."""
    if len(cols) == 0:
        return lo, hi
    at, si = np.divmod(cols, len(grams))
    at = blocks[at]
    eig = np.linalg.eigvalsh(grams[si[:, None, None], at[:, :, None], at[:, None, :]])
    return min(lo, float(eig[:, 0].min())), max(hi, float(eig[:, -1].max()))


def prip_exact(d: Dictionary, q: int, l: int) -> PripConstants:
    """Exact projected restricted-isometry constants by exhaustive enumeration.

    Sweeps every support of size l and every disjoint block of q atoms,
    collecting the extreme eigenvalues of the projected block Grams:
    lower = 1 - min eigenvalue, upper = max eigenvalue - 1.

    The supports' Grams come from the Schur-complement walk _projected_grams,
    whose stacks are sliced into the chunks below.  Only blocks that could move
    the running minimum lo or maximum hi get an eigensolve; two tests rule the
    others out, one after the other, in a row layout: per piece, one gather of the
    flat Gram indices of _block_table lays the lower triangle of every (support,
    block) pair out as one column, each entry b_ij one contiguous row over the
    pairs, so that both tests run on whole rows.  First, by Gershgorin's disc
    theorem the eigenvalues of a block B lie in [low, up],
    low = min_i (b_ii - r_i) and up = max_i (b_ii + r_i), where r_i sums |b_ij|
    over the rest of row i, from the diagonal rows and the absolute off-diagonal
    ones: a block with low > lo + tol cannot move lo, and one with up < hi - tol
    cannot move hi.  Second, the columns left on the low side take an unpivoted
    Cholesky (LDL^T) factorization of B - (lo + tol) I, and those left on the high
    side one of (hi - tol) I - B, vectorized over the columns (_definite): when
    every pivot is positive, the block cannot move that extreme either.  tol
    covers the rounding of the bounds, of the factorization and of the eigensolver
    (see below), so a skipped block cannot reach the result.  One budget,
    dictionary.BATCH_ELEMENTS, cuts the work: the supports are walked in chunks
    whose Grams and blocks hold at most that many entries, each a view of one
    stack of the walk, and a support with more blocks is cut into pieces of at
    most that many block entries.  While lo and hi are unset, each support's block
    with the lowest low and its block with the highest up are solved first, as one
    stack; after that, per piece, the blocks that fail the Cholesky test on a side
    their bounds reach are solved, as one stack.  The layout only decides which
    blocks are solved, never their values: every solved block is gathered from the
    same Gram entries as a (blocks, q, q) stack and goes through the same
    per-matrix LAPACK call as when every block is solved, and min and max are
    exact, so the constants keep those bits.

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
    blocks, lower, incidence, tails = _block_table(d.n - l, q)
    # a chunk of supports, with their Grams and blocks, or a piece of one support's
    # blocks stays within the budget
    supports = max(1, dictionary.BATCH_ELEMENTS // (len(blocks) * q * q + (d.n - l) ** 2))
    step = max(1, dictionary.BATCH_ELEMENTS // (q * q))
    pieces = [slice(i, i + step) for i in range(0, len(blocks), step)]
    # Atoms have unit norm (to UNIT_NORM_TOL) and projection only shortens them,
    # so every |g_ij| of a projected Gram is at most about 1 and the eigenvalues of
    # a block lie in [0, q].  The computed Gershgorin bounds are then off by at most
    # about q^2 eps (q terms of size <= 1), and eigvalsh's backward error is
    # p(q) eps |B| <= p(q) q eps for a modest LAPACK constant p(q).  A Cholesky
    # test at a shift s (|s| <= q + 1) that finds every pivot positive shows that
    # B - s I + E is positive definite, where E holds the rounding of the shift
    # (eps (1 + |s|) per diagonal entry) and the factorization's backward error,
    # entrywise at most gamma_{q+1} |R^T| |R| for the computed factor R (Higham,
    # Accuracy and Stability of Numerical Algorithms, Thm 10.5).  So ||E|| is at
    # most about (q + 2) q eps (1 + |s|), some q^3 eps, and the block's least
    # eigenvalue lies above s - q^3 eps.  tol = 2^20 q^2 eps (eps = 2^-52) covers
    # all three with a factor of about 2^20 / q or more to spare, and still lies far
    # below the gaps between the Gershgorin bounds of generic blocks.  A block that
    # passes at lo + tol thus has a computed least eigenvalue above lo, and one
    # that passes at hi - tol (its sign flipped) a greatest one below hi.
    tol = 2.0 ** -32 * q * q
    lo, hi = np.inf, -np.inf
    for grams in (stack[s:s + supports] for _, stack in _projected_grams(d, l)
                  for s in range(0, len(stack), supports)):
        # one row per Gram entry, one column per support of the chunk, so that
        # gathering rows of it lays each entry of a block out for every support at once
        width = len(grams)
        entries = np.ascontiguousarray(grams.reshape(width, -1).T)
        for piece in pieces:
            # (entry, pair): the pair of block b and support s is column b * width + s
            rows = entries.take(lower[:, piece], axis=0).reshape(len(lower), -1)
            radius = incidence @ np.abs(rows[q:])
            low = (rows[:q] - radius).min(axis=0)
            up = np.add(rows[:q], radius, out=radius).max(axis=0)
            if lo > hi:  # nothing solved yet: each support's most extreme blocks first
                solved = np.concatenate((low.reshape(-1, width).argmin(axis=0),
                                         up.reshape(-1, width).argmax(axis=0)))
                solved = solved * width + np.tile(np.arange(width), 2)
                lo, hi = _widen(lo, hi, grams, blocks[piece], solved)
                low[solved], up[solved] = np.inf, -np.inf  # out of both tests below
            need = np.zeros(len(low), dtype=bool)
            for near, shift, sign in ((low <= lo + tol, lo + tol, 1.0),
                                      (up >= hi - tol, hi - tol, -1.0)):
                cols = near.nonzero()[0]
                if len(cols):
                    need[cols] |= ~_definite(rows.take(cols, axis=1), shift, sign, tails)
            lo, hi = _widen(lo, hi, grams, blocks[piece], need.nonzero()[0])
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
    qs = check_support(d, as_support(q))
    a = check_support(d, as_support(qp))
    b = check_support(d, as_support(qpp))
    if set(a.indices) & set(b.indices):
        raise InvalidArgs("the two blocks must be disjoint")
    if len(a) == 0 or len(b) == 0:
        raise InvalidArgs("both blocks must be non-empty")
    u = np.asarray(u, dtype=float)
    if u.shape != (len(b),):
        raise InvalidArgs(f"u must have length {len(b)}, got shape {u.shape}")
    if not np.isfinite(u).all():
        raise InvalidArgs("u must be finite")
    if mu_l is not None:
        _check_real(mu_l, "mu_l")
        if not 0.0 <= mu_l < math.inf:
            raise InvalidArgs(f"mu_l must be finite and non-negative, got {mu_l!r}")
    projected = project_atoms(d, qs)
    lhs = float(np.linalg.norm(projected[:, a.array()].T @ (projected[:, b.array()] @ u)))
    if mu_l is None:
        mu_l = projected_coherence(SolverVariant.OMP, d, len(qs))
    rhs = float(mu_l * math.sqrt(len(a) * len(b)) * np.linalg.norm(u))
    return lhs, rhs
