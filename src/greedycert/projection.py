"""Orthogonal projection kernels: residuals, projected atom families, least squares.

Everything here projects against the span of the selected atoms, whose
orthonormal basis grows one raw atom at a time by _direction, the one
Gram-Schmidt step, with one re-orthogonalization pass ("twice is enough"; Giraud,
Langou, Rozloznik 2005); the pursuits in greedy grow theirs with it too.
project_atoms projects the whole family against a support with one block
update; the enumerations in guarantees walk on Grams and fall back on it.
An atom whose projection has norm <= RANK_SV_TOL, its distance to the span of
the atoms before it, is numerically dependent; a projected atom of norm <=
VANISH_TOL has vanished, and _divisor zeroes it wherever a projected family or
Gram is normalized.
"""

import numpy as np

from .dictionary import RANK_SV_TOL, Dictionary, _check_square_norm, _real_array, check_support
from .errors import InvalidArgs, RankDeficient

VANISH_TOL = 1e-10  # projected atoms with norm at or below this are treated as gone


def _direction(basis, a, atoms) -> np.ndarray:
    """Unit vector that atom a, atoms[-1], adds to span(basis): one Gram-Schmidt step,
    projecting a against basis and normalizing, then once more ("twice is enough");
    RankDeficient if a lies within RANK_SV_TOL of the span.

    Also takes a stack, one problem per row: basis (B, m, t), a (B, m) and atoms (B, t + 1).
    A row gets the bits it would get alone: its products are the same BLAS calls."""
    if a.ndim == 1:  # vector products: a fraction of the call overhead of stacked ones
        v = a - basis @ (basis.T @ a)
        dist = np.sqrt(v @ v)
        if dist <= RANK_SV_TOL:
            raise _dependent(atoms, dist)
        q = v / dist
        q -= basis @ (basis.T @ q)
        return q / np.sqrt(q @ q)
    v = a[..., None] - basis @ (basis.swapaxes(-1, -2) @ a[..., None])
    dist = np.sqrt(v.swapaxes(-1, -2) @ v).ravel()
    low = dist <= RANK_SV_TOL
    if low.any():
        i = int(low.argmax())
        raise _dependent(atoms[i], dist[i])
    q = v / dist[:, None, None]
    q -= basis @ (basis.swapaxes(-1, -2) @ q)
    return (q / np.sqrt(q.swapaxes(-1, -2) @ q))[..., 0]


def _dependent(atoms, dist) -> RankDeficient:
    atoms = tuple(int(a) for a in atoms)
    return RankDeficient(f"atoms {atoms} are numerically dependent "
                         f"(atom {atoms[-1]} lies {float(dist):.3g} from the span of the others)")


def _span(d: Dictionary, atoms) -> np.ndarray:
    """Orthonormal basis of the span of the atoms, filled column by column by _direction."""
    if len(atoms) > d.m:
        raise RankDeficient(f"{len(atoms)} atoms cannot be independent in dimension {d.m}")
    atoms = tuple(atoms)
    basis = np.empty((d.m, len(atoms)))
    for t, j in enumerate(atoms):
        basis[:, t] = _direction(basis[:, :t], d.atoms[:, j], atoms[:t + 1])
    return basis


def _check_vector(d: Dictionary, y) -> np.ndarray:
    y = _real_array(y, "vector")
    if y.shape != (d.m,):
        raise InvalidArgs(f"expected a vector of length {d.m}, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise InvalidArgs("vector must be finite")
    _check_square_norm(y, "vector")
    return y


def residual(d: Dictionary, support, y) -> np.ndarray:
    """Component of y orthogonal to the span of the support atoms.

    An empty support returns y unchanged.  Raises RankDeficient when the
    selected atoms are numerically dependent.
    """
    sup = check_support(d, support)
    y = _check_vector(d, y)
    basis = _span(d, sup)
    return y - basis @ (basis.T @ y)


def least_squares(d: Dictionary, support, y) -> np.ndarray:
    """Coefficients of the best approximation of y in the span of the support atoms.

    Returned in support order.  The implied residual y - A c matches
    residual(d, support, y) to within 1e-10.
    """
    sup = check_support(d, support)
    y = _check_vector(d, y)
    _span(d, sup)  # rank gate
    return np.linalg.lstsq(d.atoms[:, sup.array()], y, rcond=None)[0]


def _divisor(sq) -> np.ndarray:
    """The divisors that normalize projected atoms of squared norms sq: their norms,
    or inf where a norm is at or below VANISH_TOL, so that a vanished atom becomes zero."""
    norms = np.sqrt(sq)
    return np.where(norms <= VANISH_TOL, np.inf, norms)


def project_atoms(d: Dictionary, support, normalize: bool = False) -> np.ndarray:
    """Every atom projected against the span of the support atoms, read-only.

    Column i is atom i minus its component in that span; columns inside the
    support are exactly zero.  With normalize, each column is divided by its
    _divisor: unit norm, or zero where the projection vanished.  Raises
    RankDeficient when the support atoms are dependent (the projector would be
    ill-defined).
    """
    sup = check_support(d, support)
    basis = _span(d, sup)
    projected = d.atoms - basis @ (basis.T @ d.atoms)
    projected[:, list(sup)] = 0.0
    if normalize:
        projected /= _divisor(np.einsum("ij,ij->j", projected, projected))
    projected.setflags(write=False)
    return projected
