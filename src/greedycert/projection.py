"""Orthogonal projection kernels: residuals, projected atom families, least squares.

Everything here projects against the span of the selected atoms, whose
orthonormal basis grows one atom at a time: a Gram-Schmidt step with one
re-orthogonalization pass ("twice is enough"; Giraud, Langou, Rozloznik 2005).
project_atoms projects the whole family against a support with one block
update; the enumerations in guarantees walk on Grams and fall back on it, and
pursuits keep a leaner state in greedy.
An atom whose projection has norm <= RANK_SV_TOL, its distance to the span of
the atoms before it, is numerically dependent.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dictionary import (RANK_SV_TOL, Dictionary, Support, _check_square_norm, as_support,
                         check_support)
from .errors import InvalidArgs, RankDeficient

VANISH_TOL = 1e-10  # projected atoms with norm at or below this are treated as gone


def _direction(basis, v, atoms) -> np.ndarray:
    """Unit vector that atoms[-1] adds to span(basis), from v, that atom already projected
    against basis, after one re-orthogonalization; RankDeficient if |v| <= RANK_SV_TOL.

    Also takes a stack, one problem per row: basis (B, m, t), v (B, m) and atoms (B, t + 1).
    A row gets the bits it would get alone: its products are the same BLAS calls."""
    if v.ndim == 1:  # vector products: a fraction of the call overhead of stacked ones
        dist = np.sqrt(v @ v)
        if dist <= RANK_SV_TOL:
            raise _dependent(atoms, dist)
        q = v / dist
        q -= basis @ (basis.T @ q)
        return q / np.sqrt(q @ q)
    col = v[..., None]
    dist = np.sqrt(col.swapaxes(-1, -2) @ col).ravel()
    low = dist <= RANK_SV_TOL
    if low.any():
        i = int(low.argmax())
        raise _dependent(atoms[i], dist[i])
    q = col / dist[:, None, None]
    q -= basis @ (basis.swapaxes(-1, -2) @ q)
    return (q / np.sqrt(q.swapaxes(-1, -2) @ q))[..., 0]


def _dependent(atoms, dist) -> RankDeficient:
    atoms = tuple(int(a) for a in atoms)
    return RankDeficient(f"atoms {atoms} are numerically dependent "
                         f"(atom {atoms[-1]} lies {float(dist):.3g} from the span of the others)")


def _span(d: Dictionary, atoms) -> np.ndarray:
    """Orthonormal basis of the span of the atoms, filled column by column: one
    projection and _direction each."""
    if len(atoms) > d.m:
        raise RankDeficient(f"{len(atoms)} atoms cannot be independent in dimension {d.m}")
    atoms = tuple(atoms)
    basis = np.empty((d.m, len(atoms)))
    for t, j in enumerate(atoms):
        # OpenBLAS sums over a block of one to three columns in another order when
        # its row stride exceeds its width; copying those keeps the bits of a basis
        # grown by concatenation, and with them the worst-case y.csv outputs
        done = basis[:, :t] if t > 3 else basis[:, :t].copy()
        a = d.atoms[:, j]
        basis[:, t] = _direction(done, a - done @ (done.T @ a), atoms[:t + 1])
    return basis


def _check_vector(d: Dictionary, y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
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
    sup = check_support(d, as_support(support))
    y = _check_vector(d, y)
    basis = _span(d, sup)
    return y - basis @ (basis.T @ y)


def least_squares(d: Dictionary, support, y) -> np.ndarray:
    """Coefficients of the best approximation of y in the span of the support atoms.

    Returned in support order.  The implied residual y - A c matches
    residual(d, support, y) to within 1e-10.
    """
    sup = check_support(d, as_support(support))
    y = _check_vector(d, y)
    _span(d, sup)  # rank gate
    sub = d.atoms[:, sup.array()]
    coef, _, _, _ = np.linalg.lstsq(sub, y, rcond=None)
    return coef


@dataclass(frozen=True)
class ProjectedDictionary:
    """Atom family projected against the span of a selected support.

    projected[:, i] is atom i minus its component in span(support atoms);
    columns inside the support are exactly zero.  normalized[:, i] is the
    unit-norm version, or the zero vector when the projection vanished
    (norm <= VANISH_TOL), as flagged by `vanished`; both are computed on
    first access.
    """

    source: Dictionary
    support: Support
    projected: np.ndarray

    @cached_property
    def _unit(self) -> tuple[np.ndarray, np.ndarray]:
        norms = np.sqrt(np.einsum("ij,ij->j", self.projected, self.projected))
        vanished = norms <= VANISH_TOL
        normalized = self.projected / np.where(vanished, np.inf, norms)
        normalized.setflags(write=False)
        vanished.setflags(write=False)
        return normalized, vanished

    @property
    def normalized(self) -> np.ndarray:
        return self._unit[0]

    @property
    def vanished(self) -> np.ndarray:
        return self._unit[1]

    def family(self, normalize: bool) -> np.ndarray:
        """The working atom family: normalized or raw projected columns."""
        return self.normalized if normalize else self.projected


def project_atoms(d: Dictionary, support) -> ProjectedDictionary:
    """Project every atom against the span of the support atoms.

    Raises RankDeficient when the support atoms are dependent (the projector
    would be ill-defined).
    """
    sup = check_support(d, as_support(support))
    basis = _span(d, sup)
    projected = d.atoms - basis @ (basis.T @ d.atoms)
    projected[:, list(sup)] = 0.0
    projected.setflags(write=False)
    return ProjectedDictionary(source=d, support=sup, projected=projected)
