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
from itertools import combinations

import numpy as np

from .dictionary import (RANK_SV_TOL, Dictionary, _check_kl, _off_diagonal_max, as_support,
                         check_support)
from .errors import CapExceeded, InvalidArgs, OutOfDomain, RankDeficient
from .greedy import SolverVariant, as_variant
from .projection import _normalized, _walk, project_atoms

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


def _erc(planted: np.ndarray, family: np.ndarray, outside: list, what: str,
         variant: str | None, partial_support) -> ErcReport:
    """ErcReport on the largest l1 norm of the least-squares coefficients of the
    outside atoms of family on the planted columns, whose singular value ratio
    must lie above RANK_SV_TOL."""
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
    outside = [i for i in range(d.n) if i not in qs]
    return _erc(d.atoms[:, qs.array()], d.atoms, outside, "planted sub-dictionary", None, None)


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
    fam = project_atoms(d, qq).family(normalize=(variant is SolverVariant.OLS))
    outside = [i for i in range(d.n) if i not in qs]
    return _erc(fam[:, [i for i in qs if i not in qq]], fam, outside,
                "projected planted family", variant.value, qq.indices)


def coherence_threshold(k: int, l: int) -> float:
    """Coherence level 1/(2k-l-1) below which recovery of k atoms is assured
    once l correct ones are in hand (and at which it provably can fail)."""
    _check_kl(k, l)
    return 1.0 / (2 * k - l - 1)


def omp_partial_bound(k: int, l: int, mu: float) -> float:
    """Closed-form ceiling (k-l)*mu / (1-(k-1)*mu) on the partial test for the
    raw-projection scoring rule, valid for mu < 1/(k-1)."""
    _check_kl(k, l)
    if mu < 0:
        raise InvalidArgs("mu must be non-negative")
    if k > 1 and mu >= 1.0 / (k - 1):
        raise OutOfDomain(f"bound needs mu < 1/(k-1) = {1.0 / (k - 1):g}, got mu={mu:g}")
    return (k - l) * mu / (1.0 - (k - 1) * mu)


def prip_coherence_bounds(q: int, l: int, mu: float) -> PripConstants:
    """Coherence closed forms for the projected restricted-isometry constants.

    upper = (q-1)*mu and lower = (q-1)*mu + mu^2*q*l/(1-(l-1)*mu); the two
    coincide at l = 0.  Requires mu < 1/(l-1) when l >= 2.
    """
    if q < 1 or l < 0:
        raise InvalidArgs(f"need q >= 1 and l >= 0, got q={q}, l={l}")
    if not (0.0 <= mu < 1.0):
        raise InvalidArgs(f"mu must lie in [0, 1), got {mu:g}")
    if l >= 2 and mu >= 1.0 / (l - 1):
        raise OutOfDomain(f"closed form needs mu < 1/(l-1) = {1.0 / (l - 1):g}, got mu={mu:g}")
    upper = (q - 1) * mu
    lower = upper + (mu * mu) * q * l / (1.0 - (l - 1) * mu)
    return PripConstants(q=q, l=l, lower=lower, upper=upper, kind="coherence_bound")


def prip_exact(d: Dictionary, q: int, l: int, cap: int = ENUM_CAP) -> PripConstants:
    """Exact projected restricted-isometry constants by exhaustive enumeration.

    Sweeps every support of size l and every disjoint block of q atoms,
    collecting the extreme eigenvalues of the projected block Grams:
    lower = 1 - min eigenvalue, upper = max eigenvalue - 1.

    Raises CapExceeded when the number of (support, block) pairs exceeds cap,
    and RankDeficient if some support is numerically dependent.
    """
    if q < 1 or l < 0:
        raise InvalidArgs(f"need q >= 1 and l >= 0, got q={q}, l={l}")
    if l + q > d.n:
        raise InvalidArgs(f"need l + q <= n, got l={l}, q={q}, n={d.n}")
    total = math.comb(d.n, l) * math.comb(d.n - l, q)
    if total > cap:
        raise CapExceeded(f"{total} support/block pairs exceed the cap of {cap}")
    lo, hi = np.inf, -np.inf
    for support, projected in _walk(d, l):
        gp = projected.T @ projected
        rest = [i for i in range(d.n) if i not in support]
        blocks = np.array(list(combinations(rest, q)))
        grams = gp[blocks[:, :, None], blocks[:, None, :]]
        eig = np.linalg.eigvalsh(grams)
        lo = min(lo, float(eig[:, 0].min()))
        hi = max(hi, float(eig[:, -1].max()))
    return PripConstants(q=q, l=l, lower=1.0 - lo, upper=hi - 1.0, kind="exact")


def projected_coherence(variant, d: Dictionary, l: int, cap: int = ENUM_CAP) -> float:
    """Largest absolute inner product between two distinct projected atoms,
    maximized over every support of size l.

    Uses the raw projected family for the OMP rule and the normalized one for
    the OLS rule; at l = 0 both reduce to the mutual coherence.
    """
    variant = as_variant(variant)
    if l < 0 or l > d.n - 2:
        raise InvalidArgs(f"need 0 <= l <= n-2, got l={l}, n={d.n}")
    if math.comb(d.n, l) > cap:
        raise CapExceeded(f"{math.comb(d.n, l)} supports exceed the cap of {cap}")
    best = 0.0
    for _, projected in _walk(d, l):
        fam = _normalized(projected)[0] if variant is SolverVariant.OLS else projected
        best = max(best, float(_off_diagonal_max(fam.T @ fam)))
    return best


def ols_coherence_bound(l: int, mu: float) -> float:
    """Closed-form ceiling mu/(1-l*mu) on the normalized projected coherence
    after l selections, valid for mu < 1/l."""
    if l < 0:
        raise InvalidArgs(f"need l >= 0, got l={l}")
    if not (0.0 <= mu <= 1.0):
        raise InvalidArgs(f"mu must lie in [0, 1], got {mu:g}")
    if l >= 1 and mu >= 1.0 / l:
        raise OutOfDomain(f"bound needs mu < 1/l = {1.0 / l:g}, got mu={mu:g}")
    return mu / (1.0 - l * mu)


def prip_erc_bound(k: int, l: int, pair: PripConstants, block: PripConstants) -> float:
    """Partial-test ceiling (k-l)*(pair.upper+pair.lower) / (2*(1-block.lower))
    assembled from restricted-isometry constants for atom pairs and for blocks
    of the k-l remaining atoms, both projected against l selections."""
    _check_kl(k, l)
    if pair.q != 2 or pair.l != l:
        raise InvalidArgs(f"pair constants must be for (q=2, l={l}), got (q={pair.q}, l={pair.l})")
    if block.q != k - l or block.l != l:
        raise InvalidArgs(
            f"block constants must be for (q={k - l}, l={l}), got (q={block.q}, l={block.l})")
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
    projected = project_atoms(d, qs).projected
    lhs = float(np.linalg.norm(projected[:, a.array()].T @ (projected[:, b.array()] @ u)))
    if mu_l is None:
        mu_l = projected_coherence(SolverVariant.OMP, d, len(qs))
    rhs = float(mu_l * math.sqrt(len(a) * len(b)) * np.linalg.norm(u))
    return lhs, rhs
