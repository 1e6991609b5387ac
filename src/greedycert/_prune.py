"""prip_exact's prunes, made in its one walk loop for l >= 1 when the supports fill more
than one chunk and the unprojected blocks fit the budget; where they or the candidates'
pairs do not, the loop prunes nothing and tests both sides of every pair.
- The upper side, by Loewner order: hi starts at a floor below the result, and only the
  candidates' pairs can move it (candidate_pairs).  The loop gathers them as it passes
  each support, and after the walk they go through _solve_rows as one stack of one-block
  Grams, tested on the high side only.
- The lower side, by whole supports: a support whose bound (_support_bounds) lies above
  lo + tol lays out no rows.  Of the others, the likeliest lowest block (_likely_lowest)
  is solved first, which brings lo to the support's least eigenvalue or near it, and the
  row layout tests the low side of those still in reach.

The package imports guarantees for every command, and it is compiled from source
wherever no bytecode is cached; this module is imported by prip_exact only when a call
prunes, so other commands never compile it.
"""

import math

import numpy as np

from . import dictionary, guarantees
from .dictionary import Dictionary, _off_diagonal_max


def _support_bounds(grams: np.ndarray, q: int) -> np.ndarray:
    """Per Gram of a (supports, rest, rest) stack, min_i g_ii - (q - 1) max_{i != j} |g_ij|:
    at most the Gershgorin low bound, so the least eigenvalue, of each of its q x q
    principal blocks."""
    return grams.diagonal(0, 1, 2).min(axis=1) - (q - 1) * _off_diagonal_max(grams)


def _likely_lowest(grams: np.ndarray, q: int, live: np.ndarray) -> np.ndarray:
    """The (live, q, q) stack of one block per Gram grams[live]: the block of its least
    diagonal entry and the q - 1 entries of largest magnitude in that row, the block
    most likely to hold the Gram's least eigenvalue."""
    rest = grams.shape[1]
    i = grams[live].diagonal(0, 1, 2).argmin(axis=1)
    row = np.abs(grams[live, i])
    row[np.arange(len(live)), i] = np.inf
    at = np.sort(np.argpartition(row, rest - q, axis=1)[:, rest - q:], axis=1)
    return guarantees._gather(grams, live, at)


def _pair_index(n: int, l: int, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(support, index) of every pair of a support of l of n atoms and a block of atoms
    `blocks` (rows of atom indices) that does not meet it: the support's place in
    combinations() order, the walk's, ascending, and the (q, q) flat indices of the
    block's entries among the Grams of the supports' rests (n - l atoms each) stacked in
    that order.  An atom's position in a support's rest is its index less the number of
    the support's atoms below it."""
    rest = n - l
    supports = guarantees._subsets(n, l)
    inside = np.zeros((len(supports), n))  # 1 where the atom is in the support
    inside[np.arange(len(supports))[:, None], supports] = 1.0
    member = np.zeros((n, len(blocks)))  # 1 where the atom is in the block
    member[blocks, np.arange(len(blocks))[:, None]] = 1.0
    si, bi = (inside @ member == 0.0).nonzero()
    at = (np.arange(n) - inside.cumsum(axis=1)).astype(np.intp)[si[:, None], blocks[bi]]
    return si, (si * rest * rest)[:, None, None] + at[:, :, None] * rest + at[:, None, :]


def _floor(g0: np.ndarray, block: np.ndarray, x: np.ndarray, l: int, tol: float) -> float:
    """A value below the greatest eigenvalue of the Gram of the atoms `block` projected
    against a support S of l atoms outside it, the l least aligned with A_B x: the Schur
    complement G_BB - G_BS G_SS^-1 G_SB, G = g0 the Gram of the atoms, solved with
    eigvalsh, less tol for the rounding.  -inf unless Gershgorin's discs keep the least
    eigenvalue of G_SS at 1/2 or above, so that the solve's error stays near l^2 eps."""
    reach = np.abs(g0[:, block] @ x)  # |<a_s, A_B x>| per atom s
    reach[block] = np.inf
    at = np.argpartition(reach, l - 1)[:l]
    gs = g0[at[:, None], at]
    if (2.0 * gs.diagonal() - np.abs(gs).sum(axis=1)).min() < 0.5:
        return -np.inf
    gsb = g0[at[:, None], block]
    projected = g0[block[:, None], block] - gsb.T @ np.linalg.solve(gs, gsb)
    return float(np.linalg.eigvalsh(projected)[-1]) - tol


def _candidates(d: Dictionary, q: int, l: int, tol: float) -> tuple[float, np.ndarray]:
    """(floor, candidates): floor lies below the result's hi (_floor), and the candidates
    (rows of atom indices) are the blocks whose cap reaches floor - tol.  A block's cap is
    the greatest eigenvalue of its unprojected Gram, in the Gram of d's atoms, which no
    projection of the block exceeds: projection only shrinks the Gram in the positive
    semidefinite order, A_B^T (I - P_S) A_B <= A_B^T A_B, so by Weyl's monotonicity
    theorem (Horn and Johnson, Matrix Analysis) its greatest eigenvalue does not grow.
    Gershgorin's up bound leaves few blocks that can beat the best cap of the 32 blocks of
    highest up; eigvalsh finds the top cap among them, whose block and top eigenvector
    give floor, and then the caps of the blocks whose up reaches floor - tol."""
    g0 = d.atoms.T @ d.atoms
    every, lower, incidence, _ = guarantees._block_table(d.n, q)

    def caps(blocks):
        return np.linalg.eigvalsh(g0[blocks[:, :, None], blocks[:, None, :]])[:, -1]

    up = guarantees._discs(g0.ravel().take(lower), incidence, q)[1]
    near = every[up >= caps(every[np.argpartition(up, -min(32, len(up)))[-32:]]).max()]
    top = near[caps(near).argmax()]
    floor = _floor(g0, top, np.linalg.eigh(g0[top[:, None], top])[1][:, -1], l, tol)
    near = every[up >= floor - tol]
    return floor, near[caps(near) >= floor - tol]


def candidate_pairs(d: Dictionary, q: int, l: int, tol: float
                    ) -> tuple[float, np.ndarray, np.ndarray] | None:
    """(floor, support, index): the floor hi starts at, below the result (_candidates), and
    the (support, index) of every pair of a candidate and a support it misses (_pair_index),
    the only pairs that can reach hi; or None where those pairs would hold more than a
    quarter of dictionary.BATCH_ELEMENTS entries, as a walk stack does; they do on an
    equiangular dictionary, whose caps all tie."""
    floor, cands = _candidates(d, q, l, tol)
    if math.comb(d.n, l) * len(cands) * q * q > dictionary.BATCH_ELEMENTS // 4:
        return None
    return floor, *_pair_index(d.n, l, cands)
