import dataclasses
import re
import tracemalloc
from itertools import combinations
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedycert import (CapExceeded, Dictionary, InvalidArgs, OutOfDomain, RankDeficient,
                        build_scenario, build_worst_case, coherence, coherence_threshold,
                        cross_gram_bound_check, dictionary, guarantees, load_dictionary,
                        ols_coherence_bound, omp_partial_bound, partial_erc,
                        prip_coherence_bounds, prip_erc_bound, prip_exact, project_atoms,
                        projected_coherence, projected_gram_closed_form, random_dictionary, run,
                        save_dictionary, tropp_erc, welch_bound)
from greedycert import _prune

from oracles import (coherence_of_walk_vectors, coherence_per_support, construction_erc_lhs,
                     definite_stacked, flat, grams_of_walk_vectors, partial_erc_pinv,
                     prip_bruteforce, prip_every_block, ric_bruteforce, stacks_of_one,
                     walk_per_push, walk_vectors)


def test_tropp_erc_orthonormal_satisfied():
    rep = tropp_erc(Dictionary(np.eye(5)), [0, 2])
    assert rep.lhs == 0.0
    assert rep.satisfied
    assert rep.binding_atom not in (0, 2)  # always an outside atom
    # no outside atoms at all: trivially satisfied, nothing binds
    full = tropp_erc(Dictionary(np.eye(3)), [0, 1, 2])
    assert full.lhs == 0.0 and full.satisfied and full.binding_atom is None


def test_tropp_erc_closed_form_at_threshold():
    # the equiangular construction with l = 0 sits exactly at the boundary
    for k in (2, 3, 4, 5):
        d = build_worst_case(k, 0)
        rep = tropp_erc(d, list(range(k)))
        assert rep.lhs == pytest.approx(construction_erc_lhs(k), abs=1e-10)
        assert rep.lhs == pytest.approx(1.0, abs=1e-10)
        assert not rep.satisfied  # strict inequality fails at the boundary


def test_tropp_erc_binding_atom():
    d = random_dictionary(8, 12, seed=4)
    rep = tropp_erc(d, [1, 5, 7])
    # recompute the l1 regression for the reported atom via the pinv oracle
    ref = partial_erc_pinv(d.atoms, [], [1, 5, 7], normalize=False)
    assert rep.lhs == pytest.approx(ref, abs=1e-10)
    assert rep.binding_atom not in (1, 5, 7)


def test_tropp_erc_rank_gate():
    a = np.eye(4)[:, [0, 0, 1, 2]]
    with pytest.raises(RankDeficient):
        tropp_erc(Dictionary(a), [0, 1])
    with pytest.raises(InvalidArgs):
        tropp_erc(Dictionary(np.eye(4)), [])


def test_partial_erc_matches_pinv_oracle():
    rng = np.random.default_rng(17)
    for trial in range(15):
        d = random_dictionary(9, 12, seed=400 + trial)
        qstar = sorted(rng.choice(12, size=4, replace=False).tolist())
        q = qstar[:2]
        for variant, normalize in (("omp", False), ("ols", True)):
            rep = partial_erc(variant, d, q, qstar)
            ref = partial_erc_pinv(d.atoms, q, qstar, normalize)
            assert rep.lhs == pytest.approx(ref, abs=1e-9)
            assert rep.partial_support == tuple(q)
            assert rep.variant == variant


def test_partial_erc_reduces_to_full_at_l0():
    d = random_dictionary(8, 11, seed=9)
    full = tropp_erc(d, [0, 3, 6])
    part = partial_erc("omp", d, [], [0, 3, 6])
    assert part.lhs == pytest.approx(full.lhs, abs=1e-12)


def test_partial_erc_validation():
    d = random_dictionary(6, 8, seed=0)
    with pytest.raises(InvalidArgs):
        partial_erc("omp", d, [0, 1], [0, 1])  # not a proper subset
    with pytest.raises(InvalidArgs):
        partial_erc("omp", d, [5], [0, 1])  # q not inside qstar
    with pytest.raises(InvalidArgs):
        partial_erc("nope", d, [0], [0, 1])


def test_coherence_threshold_values():
    assert coherence_threshold(2, 0) == pytest.approx(1.0 / 3.0)
    assert coherence_threshold(3, 0) == pytest.approx(0.2)
    assert coherence_threshold(3, 1) == pytest.approx(0.25)
    assert coherence_threshold(5, 3) == pytest.approx(1.0 / 6.0)
    assert coherence_threshold(1, 0) == 1.0
    with pytest.raises(InvalidArgs):
        coherence_threshold(2, 2)


def test_omp_partial_bound_values_and_domain():
    assert omp_partial_bound(3, 1, 0.1) == pytest.approx(2 * 0.1 / (1 - 2 * 0.1))
    assert omp_partial_bound(1, 0, 0.9) == pytest.approx(0.9)
    # tightens as more of the support is already in hand
    assert omp_partial_bound(4, 2, 0.2) < omp_partial_bound(4, 1, 0.2)
    with pytest.raises(OutOfDomain):
        omp_partial_bound(4, 1, 1.0 / 3.0)
    # not coherences: outside [0, 1], including where k = 1 leaves no other ceiling
    for k, l, mu in ((2, 0, np.nan), (1, 0, np.inf), (1, 0, 5.0), (1, 0, 1.0 + 1e-12),
                     (3, 1, -0.1), (1, 0, -np.inf)):
        with pytest.raises(InvalidArgs):
            omp_partial_bound(k, l, mu)
    assert omp_partial_bound(1, 0, 1.0) == 1.0


# not real numbers: a bool is rejected as the coherence targets of the generator are
NOT_REAL = ("0.1", None, True, False, 1j, [0.1])


@pytest.mark.parametrize("mu", NOT_REAL)
def test_omp_partial_bound_rejects_a_mu_that_is_not_a_real_number(mu):
    with pytest.raises(InvalidArgs, match="mu must be a real number"):
        omp_partial_bound(2, 0, mu)


@pytest.mark.parametrize("mu", NOT_REAL)
def test_ols_coherence_bound_rejects_a_mu_that_is_not_a_real_number(mu):
    with pytest.raises(InvalidArgs, match="mu must be a real number"):
        ols_coherence_bound(1, mu)


@pytest.mark.parametrize("mu", NOT_REAL)
def test_prip_coherence_bounds_rejects_a_mu_that_is_not_a_real_number(mu):
    with pytest.raises(InvalidArgs, match="mu must be a real number"):
        prip_coherence_bounds(2, 1, mu)


@pytest.mark.parametrize("mu_l", [mu for mu in NOT_REAL if mu is not None])
def test_cross_gram_bound_check_rejects_a_mu_l_that_is_not_a_real_number(mu_l):
    d = random_dictionary(6, 8, seed=1)
    with pytest.raises(InvalidArgs, match="mu_l must be a real number"):
        cross_gram_bound_check(d, [0], [1], [2], [1.0], mu_l=mu_l)


def test_closed_forms_take_any_real_mu():
    # numpy scalars and integers are real numbers; an integer too large for a float
    # is out of range, not an overflow
    assert omp_partial_bound(3, 1, np.float64(0.1)) == omp_partial_bound(3, 1, 0.1)
    assert omp_partial_bound(3, 1, 0) == 0.0
    assert ols_coherence_bound(1, np.float32(0.25)) == pytest.approx(1 / 3)
    assert prip_coherence_bounds(2, 1, np.int64(0)).upper == 0.0
    with pytest.raises(InvalidArgs, match="must lie in"):
        omp_partial_bound(2, 0, 10 ** 400)


_PAIR, _BLOCK = prip_coherence_bounds(2, 1, 0.1), prip_coherence_bounds(3, 1, 0.1)
_WC = build_worst_case(3, 1)

# (the argument's name, a call that passes x as that count, a valid count)
COUNTS = [
    ("k", lambda x: coherence_threshold(x, 1), 3),
    ("l", lambda x: coherence_threshold(3, x), 1),
    ("k", lambda x: omp_partial_bound(x, 1, 0.1), 3),
    ("l", lambda x: omp_partial_bound(3, x, 0.1), 1),
    ("q", lambda x: prip_coherence_bounds(x, 1, 0.1), 2),
    ("l", lambda x: prip_coherence_bounds(2, x, 0.1), 1),
    ("l", lambda x: ols_coherence_bound(x, 0.1), 1),
    ("k", lambda x: prip_erc_bound(x, 1, _PAIR, _BLOCK), 4),
    ("l", lambda x: prip_erc_bound(4, x, _PAIR, _BLOCK), 1),
    ("q", lambda x: prip_exact(_WC, x, 0), 2),
    ("l", lambda x: prip_exact(_WC, 2, x), 1),
    ("l", lambda x: projected_coherence("omp", _WC, x), 1),
    ("k", lambda x: build_worst_case(x, 1), 3),
    ("l", lambda x: build_worst_case(3, x), 1),
    ("k", lambda x: build_scenario(x, 1, "ols"), 3),
    ("|R|", lambda x: projected_gram_closed_form(3, 1, x), 1),
    ("k", lambda x: run("omp", _WC, _WC.atoms[:, 0], x), 2),
    ("m", lambda x: welch_bound(x, 30), 20),
    ("n", lambda x: welch_bound(20, x), 30),
]


@pytest.mark.parametrize("what, call, good", COUNTS)
def test_counts_must_be_integers(what, call, good):
    # nothing is truncated and a bool is no count; a numpy integer is one
    for bad in (float(good), good + 0.5, True, False, None):
        with pytest.raises(InvalidArgs, match=f"^{re.escape(what)} must be an integer"):
            call(bad)
    assert repr(call(np.int64(good))) == repr(call(good))


def test_prip_coherence_bounds_formulas():
    mu = 0.15
    b = prip_coherence_bounds(3, 0, mu)
    assert b.upper == pytest.approx(2 * mu) and b.lower == pytest.approx(2 * mu)
    b2 = prip_coherence_bounds(3, 2, mu)
    assert b2.upper == pytest.approx(2 * mu)
    assert b2.lower == pytest.approx(2 * mu + mu * mu * 3 * 2 / (1 - mu))
    assert b2.kind == "coherence_bound"
    with pytest.raises(OutOfDomain):
        prip_coherence_bounds(3, 3, 0.5)  # needs mu < 1/(l-1) when l >= 2
    with pytest.raises(InvalidArgs):
        prip_coherence_bounds(0, 0, 0.1)


def test_prip_exact_matches_bruteforce():
    for seed in range(6):
        d = random_dictionary(8, 10, seed=700 + seed)
        for q, l in ((2, 0), (2, 1), (3, 1)):
            got = prip_exact(d, q, l)
            lo, hi = prip_bruteforce(d.atoms, q, l)
            assert got.lower == pytest.approx(lo, abs=1e-10)
            assert got.upper == pytest.approx(hi, abs=1e-10)


def test_prip_exact_l0_is_plain_ric():
    d = random_dictionary(7, 9, seed=77)
    got = prip_exact(d, 3, 0)
    lo, hi = ric_bruteforce(d.atoms, 3)
    assert got.lower == pytest.approx(lo, abs=1e-12)
    assert got.upper == pytest.approx(hi, abs=1e-12)


def test_prip_exact_caps_and_validation(monkeypatch):
    d = random_dictionary(10, 14, seed=2)
    monkeypatch.setattr(guarantees, "ENUM_CAP", 1000)
    with pytest.raises(CapExceeded):
        prip_exact(d, 4, 2)
    with pytest.raises(InvalidArgs):
        prip_exact(d, 20, 0)
    with pytest.raises(InvalidArgs):
        prip_exact(d, 0, 1)


def test_prip_bounds_dominate_exact():
    for seed in range(6):
        d = random_dictionary(10, 12, seed=800 + seed)
        mu = coherence(d)
        for q, l in ((2, 0), (2, 1), (2, 2), (3, 1), (4, 2)):
            exact = prip_exact(d, q, l)
            bound = prip_coherence_bounds(q, l, mu)
            assert exact.upper <= bound.upper + 1e-10
            assert exact.lower <= bound.lower + 1e-10


def test_projected_coherence_basics(monkeypatch):
    d = random_dictionary(9, 11, seed=31)
    mu = coherence(d)
    assert projected_coherence("omp", d, 0) == pytest.approx(mu, abs=1e-12)
    assert projected_coherence("ols", d, 0) == pytest.approx(mu, abs=1e-12)
    with pytest.raises(InvalidArgs):
        projected_coherence("omp", d, 10)
    monkeypatch.setattr(guarantees, "ENUM_CAP", 54)
    with pytest.raises(CapExceeded, match="^55 supports exceed the cap of 54$"):
        projected_coherence("ols", d, 2)  # 11 choose 2
    monkeypatch.setattr(guarantees, "ENUM_CAP", 55)
    assert projected_coherence("ols", d, 2) >= 0.0


@pytest.mark.parametrize("call, line", [
    (lambda: ols_coherence_bound(-1, 0.1), "need l >= 0, got l=-1"),
    (lambda: ols_coherence_bound(1, 1.5), "mu must lie in [0, 1], got 1.5"),
    (lambda: prip_coherence_bounds(0, 1, 0.1), "need q >= 1 and l >= 0, got q=0, l=1"),
    (lambda: prip_coherence_bounds(2, -1, 0.1), "need q >= 1 and l >= 0, got q=2, l=-1"),
    (lambda: prip_coherence_bounds(2, 1, 1.0), "mu must lie in [0, 1), got 1.0"),
    (lambda: prip_coherence_bounds(2, 1, -0.1), "mu must lie in [0, 1), got -0.1"),
])
def test_closed_forms_reject_counts_and_coherences_out_of_range(call, line):
    with pytest.raises(InvalidArgs) as exc:
        call()
    assert str(exc.value) == line


def test_ols_coherence_bound_chain():
    # exhaustive projected coherence stays under the closed-form ceiling
    for seed in range(8):
        d = random_dictionary(8, 10, seed=900 + seed)
        mu = coherence(d)
        for l in (1, 2):
            if l >= 1 and mu >= 1.0 / l:
                continue
            got = projected_coherence("ols", d, l)
            assert got <= ols_coherence_bound(l, mu) + 1e-10
    assert ols_coherence_bound(0, 0.3) == pytest.approx(0.3)
    with pytest.raises(OutOfDomain):
        ols_coherence_bound(2, 0.5)


def test_prip_erc_bound_identity_with_partial_bound():
    # assembled from the closed-form constants, the two ceilings coincide
    for k in range(2, 7):
        for l in range(0, k):
            for mu in (0.01, 0.05, 0.1, 0.9 / (k - 1)):
                if l >= 2 and mu >= 1.0 / (l - 1):
                    continue
                pair = prip_coherence_bounds(2, l, mu)
                block = prip_coherence_bounds(k - l, l, mu)
                lhs = prip_erc_bound(k, l, pair, block)
                assert lhs == pytest.approx(omp_partial_bound(k, l, mu), abs=1e-12)


def test_prip_erc_bound_validation():
    pair = prip_coherence_bounds(2, 1, 0.1)
    block = prip_coherence_bounds(3, 1, 0.1)
    with pytest.raises(InvalidArgs):
        prip_erc_bound(4, 2, pair, block)  # l mismatch
    with pytest.raises(InvalidArgs):
        prip_erc_bound(5, 1, pair, block)  # block size mismatch
    bad_block = prip_coherence_bounds(3, 1, 0.45)
    assert bad_block.lower >= 1.0
    with pytest.raises(OutOfDomain):
        prip_erc_bound(4, 1, prip_coherence_bounds(2, 1, 0.45), bad_block)
    # non-finite constants: a NaN block.lower would pass the `< 1` test and return nan
    for field in ("lower", "upper"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidArgs):
                prip_erc_bound(4, 1, pair, dataclasses.replace(block, **{field: value}))
            with pytest.raises(InvalidArgs):
                prip_erc_bound(4, 1, dataclasses.replace(pair, **{field: value}), block)


def test_cross_gram_bound_holds():
    rng = np.random.default_rng(23)
    d = random_dictionary(9, 12, seed=55)
    for _ in range(60):
        picks = rng.choice(12, size=6, replace=False)
        q, qp, qpp = picks[:2].tolist(), picks[2:4].tolist(), picks[4:6].tolist()
        u = rng.standard_normal(2)
        lhs, rhs = cross_gram_bound_check(d, q, qp, qpp, u)
        assert lhs <= rhs + 1e-10


def test_cross_gram_bound_validation():
    d = random_dictionary(6, 8, seed=1)
    with pytest.raises(InvalidArgs):
        cross_gram_bound_check(d, [0], [1, 2], [2, 3], np.ones(2))  # overlap
    with pytest.raises(InvalidArgs):
        cross_gram_bound_check(d, [0], [1], [2], np.ones(3))  # u length
    with pytest.raises(InvalidArgs):
        cross_gram_bound_check(d, [0], [], [2], np.ones(1))
    for u in ([np.nan], [np.inf], [-np.inf]):
        with pytest.raises(InvalidArgs):
            cross_gram_bound_check(d, [0], [1], [2], u)
    for mu_l in (np.nan, np.inf, -np.inf, -0.1):
        with pytest.raises(InvalidArgs):
            cross_gram_bound_check(d, [0], [1], [2], [1.0], mu_l=mu_l)
    assert cross_gram_bound_check(d, [0], [1], [2], [1.0], mu_l=0.0)[1] == 0.0


def test_cross_gram_bound_check_refuses_a_mu_l_past_the_float_range():
    # an int too large for a float is out of range, not an OverflowError
    d = random_dictionary(6, 8, seed=1)
    with pytest.raises(InvalidArgs, match="mu_l must be a finite non-negative number"):
        cross_gram_bound_check(d, [0], [1], [2], [1.0], mu_l=10 ** 400)
    assert cross_gram_bound_check(d, [0], [1], [2], [1.0], mu_l=10 ** 20)[1] == 1e20


@pytest.mark.parametrize("u", [[1.0 + 0.5j], ["1.0"], "1", [True]])
def test_cross_gram_bound_check_takes_a_real_u_only(u):
    d = random_dictionary(6, 8, seed=1)
    with pytest.raises(InvalidArgs, match="u must be"):
        cross_gram_bound_check(d, [0], [1], [2], u)


# (dictionary, k, l): the worst cases at their own (k, l), and a certify-shaped 12 x 20
# dictionary with blocks of 3 after 2 atoms
LAYOUT_SOURCES = {
    **{f"worst case {kl}": (lambda kl=kl: build_worst_case(*kl), *kl)
       for kl in ((3, 1), (5, 3), (8, 2), (12, 4), (20, 6))},
    "12x20": (lambda: random_dictionary(12, 20, coherence_target=0.24, seed=1), 5, 2),
}


@pytest.mark.parametrize("source", LAYOUT_SOURCES)
def test_built_and_loaded_copies_give_the_same_bits(source, tmp_path):
    # every dictionary holds C-ordered atoms, so a built copy and its saved-and-loaded
    # copy, whose atoms are equal, give the same bits everywhere
    make, k, l = LAYOUT_SOURCES[source]
    built = make()
    save_dictionary(built, tmp_path / "d.csv")
    loaded, renormalized = load_dictionary(tmp_path / "d.csv")
    assert not renormalized and loaded.atoms.tobytes() == built.atoms.tobytes()

    def bits(d):
        out = []
        for variant in ("omp", "ols"):
            if source.startswith("worst case"):
                y = build_scenario(k, l, variant).y
            else:
                y = d.atoms[:, [0, 4, 9, 13, 17]] @ np.array([1.0, -0.8, 0.6, 0.9, -0.7])
            out.append(run(variant, d, y, k).to_json())
            out.append(repr(partial_erc(variant, d, range(l), range(k))))
            out += [projected_coherence(variant, d, j).hex() for j in range(3)]
        for support in (range(l), range(d.n - 1, d.n - 1 - l, -1)):
            out += [project_atoms(d, support, normalize).tobytes() for normalize in (False, True)]
        for q, j in ((2, 0), (2, 1), (2, 2), (3, 1)):
            p = prip_exact(d, q, j)
            out.append((p.lower.hex(), p.upper.hex()))
        return out

    for got, want in zip(bits(loaded), bits(built), strict=True):
        assert got == want


# prip_exact solves only the blocks its Gershgorin bounds cannot rule out; it
# must give the bits of an eigensolve on every block

PRIP_ORDERS = ((2, 0), (2, 1), (2, 2), (3, 1), (3, 2), (2, 3))


def assert_prip_bits(d, orders):
    for q, l in orders:
        got = prip_exact(d, q, l)
        assert (got.lower, got.upper) == prip_every_block(d, q, l), (q, l)


def orthogonal_groups(groups: int, size: int, atoms: int, seed: int) -> Dictionary:
    """`groups` sets of `atoms` atoms, each set in its own `size` coordinates: atoms
    of different sets are exactly orthogonal, before and after any projection
    against atoms of one set, so the discs of many blocks are points, all tied."""
    rng = np.random.default_rng(seed)
    a = np.zeros((groups * size, groups * atoms))
    for g in range(groups):
        a[g * size:(g + 1) * size, g * atoms:(g + 1) * atoms] = rng.normal(size=(size, atoms))
    return Dictionary(a / np.linalg.norm(a, axis=0))


PRIP_SOURCES = {
    # drawn like the certify benchmark's dictionaries
    **{f"10x12 #{s}": (lambda s=s: random_dictionary(10, 12, 0.19, seed=[s, 3, 0]))
       for s in (1, 2, 3)},
    **{f"12x20 #{s}": (lambda s=s: random_dictionary(12, 20, 0.24, seed=[s, 3, 2]))
       for s in (1, 2, 3)},
    # the projected isometry chain's dictionaries (acceptance criterion 6)
    **{f"criterion 6 #{s}": (lambda s=s: random_dictionary(10, 12, coherence_target=0.3,
                                                           seed=600 + s)) for s in range(4)},
    "orthogonal groups": lambda: orthogonal_groups(4, 3, 4, seed=5),
}


@pytest.mark.parametrize("source", PRIP_SOURCES)
def test_prip_exact_gives_the_bits_of_every_block(source):
    d = PRIP_SOURCES[source]()
    # (4, 2) on 12 atoms; (5, 0) on 20 cuts the one support's blocks into pieces
    assert_prip_bits(d, PRIP_ORDERS + (((5, 0),) if d.n == 20 else ((4, 2),)))


@pytest.mark.parametrize("k, l", [(2, 0), (3, 0), (3, 1), (4, 2), (5, 3), (5, 0), (6, 2), (8, 0)])
def test_prip_exact_gives_the_bits_of_every_block_on_worst_cases(k, l):
    # equal off-diagonal magnitudes: many blocks share their Gershgorin bounds; on
    # (8, 0), (3, 2) walks 120 supports in several chunks, and no prune pays
    d = build_worst_case(k, l)
    assert_prip_bits(d, [(q, s) for q, s in PRIP_ORDERS + ((1, 2), (d.n - 2, 2))
                         if s + q <= d.n and s < d.m])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 6), st.integers(3, 9), st.data())
def test_prip_exact_bits_over_shapes_and_chunks(m, n, data):
    d = random_dictionary(m, n, seed=data.draw(st.integers(0, 10 ** 6)))
    q = data.draw(st.integers(1, n))
    l = data.draw(st.integers(0, min(n - q, m - 1)))
    # small budgets split the walk into many chunks and a support's blocks into pieces
    batch = data.draw(st.sampled_from([1, 2, 5, 64, 512, dictionary.BATCH_ELEMENTS]))
    with mock.patch.object(dictionary, "BATCH_ELEMENTS", batch):
        assert_prip_bits(d, [(q, l)])


def definite_test_blocks(kind: str, q: int, seed: int) -> np.ndarray:
    """A stack of q x q Grams of unit atoms: random ones, ones with an atom 1e-4,
    1e-8 or 1e-12 from the span of the others (near singular), or blocks of the
    equiangular worst cases, whose eigenvalues tie exactly."""
    rng = np.random.default_rng(seed)
    if kind == "equiangular":
        d = build_worst_case(q + 1, 0)
        g = d.atoms.T @ d.atoms
        return np.stack([g[np.ix_(at, at)] for at in
                         (np.sort(rng.choice(d.n, q, replace=False)) for _ in range(4))])
    blocks = []
    for dist in (1e-4, 1e-8, 1e-12, None):
        a = rng.normal(size=(q + 2, q))
        if kind == "near singular" and q > 1 and dist is not None:
            inside = a[:, :-1] @ rng.normal(size=q - 1)
            off = a[:, -1] - a[:, :-1] @ np.linalg.lstsq(a[:, :-1], a[:, -1], rcond=None)[0]
            a[:, -1] = inside / np.linalg.norm(inside) + dist * off / np.linalg.norm(off)
        a /= np.linalg.norm(a, axis=0)
        blocks.append(a.T @ a)
    return np.stack(blocks)


def as_rows(blocks: np.ndarray) -> np.ndarray:
    """The stacked q x q blocks as prip_exact's row layout: one column per block,
    one row per lower-triangle entry, in the order of guarantees._block_table."""
    q = blocks.shape[1]
    _, lower, _, _ = guarantees._block_table(q, q)  # one block: positions 0..q-1
    return np.ascontiguousarray(blocks.reshape(len(blocks), -1)[:, lower[:, 0]].T)


@st.composite
def shifted_blocks(draw):
    """(q, blocks, their eigvalsh values, a shift): shifts at an eigenvalue, within
    1e-13 of one, at +-inf and in [-1, q + 1]."""
    q = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["random", "near singular", "equiangular"]))
    blocks = definite_test_blocks(kind, q, draw(st.integers(0, 2 ** 32 - 1)))
    assert np.array_equal(blocks, blocks.transpose(0, 2, 1))  # as prip_exact's Grams
    eig = np.linalg.eigvalsh(blocks)
    at = eig[draw(st.integers(0, len(blocks) - 1)), draw(st.integers(0, q - 1))]
    sigma = draw(st.one_of(
        st.just(at), st.floats(-1e-13, 1e-13).map(lambda e: at + e),
        st.sampled_from([np.inf, -np.inf]), st.floats(-1.0, q + 1.0)))
    return q, blocks, eig, sigma


@settings(max_examples=300, deadline=None, derandomize=True)
@given(shifted_blocks())
def test_definite_certifies_only_blocks_beyond_the_shift(case):
    # prip_exact skips a block when _definite passes it at lo + tol (or, with sign
    # -1, at hi - tol): its eigvalsh extremes must then lie strictly beyond lo (hi)
    q, blocks, eig, sigma = case
    tol = 2.0 ** -32 * q * q  # as in prip_exact
    tails = guarantees._block_table(q, q)[3]
    for sign, extreme in ((1.0, eig[:, 0]), (-1.0, eig[:, -1])):
        passed = guarantees._definite(as_rows(blocks), sigma + sign * tol, sign, tails)
        assert np.all(sign * extreme[passed] > sign * sigma), (sign, sigma)
        # and it is no stricter than it has to be
        assert passed[sign * (extreme - sigma) > 1e-6].all(), (sign, sigma)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(shifted_blocks())
def test_definite_rows_give_the_mask_of_the_stacked_test(case):
    # the row layout runs the stacked test's arithmetic, entry by entry
    q, blocks, _, sigma = case
    tails = guarantees._block_table(q, q)[3]
    for shift in (sigma, sigma + 2.0 ** -32 * q * q, sigma - 2.0 ** -32 * q * q):
        for sign in (1.0, -1.0):
            want = definite_stacked(blocks.copy(), shift, sign)
            got = guarantees._definite(as_rows(blocks), shift, sign, tails)
            assert np.array_equal(got, want), (shift, sign)


def test_prip_exact_solves_bounded_stacks_and_prunes(monkeypatch):
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        assert a.size <= dictionary.BATCH_ELEMENTS
        sizes.append(len(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    definite = guarantees._definite

    def tested(a, shift, sign, tails):  # the Cholesky test's rows keep the same budget
        assert a.size <= dictionary.BATCH_ELEMENTS
        return definite(a, shift, sign, tails)

    monkeypatch.setattr(guarantees, "_definite", tested)
    d = random_dictionary(12, 20, 0.24, seed=[1, 3, 2])
    # (5, 0) cuts the one support's 15504 blocks into pieces
    for q, l in ((3, 2), (2, 3), (5, 0)):
        sizes.clear()
        prip_exact(d, q, l)
        assert sum(sizes) < comb(20, l) * comb(20 - l, q), (q, l)
        if (q, l) == (3, 2):
            # the Cholesky test leaves few of the 29047 blocks Gershgorin's discs keep
            assert sum(sizes) < 2000
    # on equiangular dictionaries every block ties and is solved: 8008 blocks of
    # one support, then 1001 blocks for each of 120 supports
    d = build_worst_case(8, 0)
    for q, l in ((6, 0), (4, 2)):
        prip_exact(d, q, l)
    # one block of 38 atoms for each of 780 supports: the chunk holds few of
    # their 40 x 40 Grams
    d = build_worst_case(21, 2)
    tracemalloc.start()
    try:
        prip_exact(d, 38, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * dictionary.BATCH_ELEMENTS * 8


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(3, 10), st.data())
def test_the_facts_prip_exact_prunes_by_hold_on_every_gram_of_the_walk(m, data):
    # projection only shrinks a block's Gram in the Loewner order, so its top eigenvalue is
    # at most its unprojected cap (Weyl); a support's bound is at most the least eigenvalue
    # of each of its blocks (Gershgorin); and the floor hi starts from lies below the result
    n = data.draw(st.integers(m, m + 8))
    l = data.draw(st.integers(1, min(m - 1, n - 2, 3)))
    q = data.draw(st.integers(2, min(n - l, 4)))
    d = random_dictionary(m, n, seed=data.draw(st.integers(0, 10 ** 6)))
    tol = 2.0 ** -32 * q * q  # as in prip_exact
    g0 = d.atoms.T @ d.atoms
    blocks = np.array(list(combinations(range(n - l), q)))
    for support, gram in flat(guarantees._projected_grams(d, l)):
        atoms = np.delete(np.arange(n), support)[blocks]
        caps = np.linalg.eigvalsh(g0[atoms[:, :, None], atoms[:, None, :]])[:, -1]
        eig = np.linalg.eigvalsh(gram[blocks[:, :, None], blocks[:, None, :]])
        assert np.all(eig[:, -1] <= caps + tol), support
        assert _prune._support_bounds(gram[None], q)[0] <= eig[:, 0].min() + tol, support
    floor, _ = _prune._candidates(d, q, l, tol)
    assert floor < 1.0 + prip_every_block(d, q, l)[1]


def test_prip_exact_lays_out_fewer_pairs_in_rows(monkeypatch):
    # every pair the row layout holds passes through _undecided: at (3, 2) the plain walk
    # laid out all 155,040 (support, block) pairs, and at (2, 3) all 155,040 as well; on
    # this certify-shaped dictionary the prunes keep it under 80% and under 10% of them
    d = random_dictionary(12, 20, 0.24, seed=[1, 3, 2])
    undecided = guarantees._undecided
    laid = []

    def counted(rows, tails, sides):
        laid.append(rows.shape[1])
        return undecided(rows, tails, sides)

    monkeypatch.setattr(guarantees, "_undecided", counted)
    for (q, l), share in (((3, 2), 0.8), ((2, 3), 0.1)):
        laid.clear()
        prip_exact(d, q, l)
        assert sum(laid) < share * comb(20, l) * comb(20 - l, q), (q, l)


# the enumerations walk the supports on Grams, one Schur-complement step per push,
# and take project_atoms's Gram where the product of the pivots since the last
# such Gram, times the smallest squared norm left, falls below a guard; they
# must stay within 1e-12 of the walk on projected vectors

GUARD = 2.0 ** -10  # the guard in guarantees._projected_grams and oracles.walk_per_push


def near_dependent(m: int, n: int, dist: float, seed: int, span: int = 3) -> Dictionary:
    """Random unit atoms, atom `span` at distance dist from the span of the atoms before it."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n))
    a /= np.linalg.norm(a, axis=0)
    basis, _ = np.linalg.qr(a[:, :span])
    inside = basis @ rng.normal(size=span)
    off = rng.normal(size=m)
    off -= basis @ (basis.T @ off)
    a[:, span] = (np.sqrt(1.0 - dist * dist) * inside / np.linalg.norm(inside)
                  + dist * off / np.linalg.norm(off))
    return Dictionary(a)


def kahan_like(m: int, l: int, pivot: float, extra: int, seed: int) -> Dictionary:
    """l unit atoms, each at squared distance `pivot` from the span of the atoms
    before it and equally far from each of them (Kahan's triangular matrix: the
    small pivots compound), then `extra` random unit atoms."""
    a = np.zeros((m, l + extra))
    a[0, 0] = 1.0
    for t in range(1, l):
        a[t, t] = np.sqrt(pivot)
        a[:t, t] = -np.sqrt((1.0 - pivot) / t)
    rest = np.random.default_rng(seed).normal(size=(m, extra))
    a[:, l:] = rest / np.linalg.norm(rest, axis=0)
    return Dictionary(a)


def assert_walks_agree(d, l):
    walked = 0
    for (got, gram), (want, ref) in zip(flat(guarantees._projected_grams(d, l)),
                                        grams_of_walk_vectors(d, l), strict=True):
        assert got == want
        assert np.abs(gram - ref).max() <= 1e-12, got
        walked += 1
    assert walked == comb(d.n, l)
    for variant in ("omp", "ols"):
        assert projected_coherence(variant, d, l) == pytest.approx(
            coherence_of_walk_vectors(d, variant == "ols", l), abs=1e-12), (variant, l)


@pytest.fixture
def exact_grams(monkeypatch):
    """The supports whose Gram the walk takes from project_atoms, in walk order."""
    supports = []
    project_atoms = guarantees.project_atoms

    def recorded(d, support):
        supports.append(tuple(support))
        return project_atoms(d, support)

    monkeypatch.setattr(guarantees, "project_atoms", recorded)
    return supports


@pytest.mark.parametrize("dist", [1e-7, 1e-4, 0.03, 0.1, 0.3])
def test_gram_walk_matches_vector_walk_near_dependence(dist, exact_grams):
    d = near_dependent(8, 11, dist, seed=0)
    # up to l = 3: a support of all four atoms spans a subspace known only to
    # about eps / dist, and two vector paths differ by that much there
    for l in range(4):
        assert_walks_agree(d, l)
    for q, l in ((2, 2), (3, 3)):
        got = prip_exact(d, q, l)
        lower, upper = prip_every_block(d, q, l, grams_of_walk_vectors)
        assert (got.lower, got.upper) == pytest.approx((lower, upper), abs=1e-12)
    # a squared distance of 0.03^2 lies below the guard, 0.1^2 above it
    assert bool(exact_grams) == (dist * dist < GUARD)


def test_a_small_remaining_norm_takes_the_vector_path(exact_grams):
    # atom 2 lies 0.01 from the span of atoms 0 and 1: pushing 0 then 1, with a
    # pivot far above the guard, leaves it a squared norm of 1e-4, below it
    d = near_dependent(6, 8, 0.01, seed=0, span=2)
    assert 1.0 - (d.atoms[:, 0] @ d.atoms[:, 1]) ** 2 > 0.5
    got = projected_coherence("ols", d, 2)
    assert (0, 1) in exact_grams
    assert got == pytest.approx(coherence_of_walk_vectors(d, True, 2), abs=1e-12)
    assert_walks_agree(d, 2)


@pytest.mark.parametrize("l", [3, 4, 5])
def test_gram_walk_on_kahan_like_supports(l, exact_grams):
    # every pivot just above the guard: their product falls far below it, and
    # downdating through all of them would miss 1e-12 (by 1.5e-6 at l = 5)
    for seed in range(3):
        assert_walks_agree(kahan_like(10, l, GUARD * 1.01, 3, seed), l)
    assert tuple(range(l)) in exact_grams
    # pivots whose product sits just above the guard: the walk downdates the
    # first l - 1 pushes of the support 0..l-1 and still meets 1e-12
    exact_grams.clear()
    for seed in range(3):
        assert_walks_agree(kahan_like(10, l, (GUARD * 1.01) ** (1.0 / (l - 1)), 3, seed), l)
    assert not {tuple(range(t)) for t in range(1, l)} & set(exact_grams)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 7), st.integers(4, 9), st.sampled_from([None, 1e-3, 0.03, 0.3]),
       st.data())
def test_gram_walk_matches_vector_walk_over_shapes(m, n, dist, data):
    seed = data.draw(st.integers(0, 10 ** 6))
    near = dist is not None and m >= 4
    d = near_dependent(m, n, dist, seed) if near else random_dictionary(m, n, seed=seed)
    assert_walks_agree(d, data.draw(st.integers(0, min(n - 2, m - 1))))


@pytest.mark.parametrize("offset, dependent", [(1e-7, False), (1e-9, True)])
def test_enumerations_raise_where_the_vector_walk_does(offset, dependent):
    # atom 1 lies `offset` from atom 0: the support (0, 1) is dependent below 1e-8
    near = np.eye(4)[:, 0] + offset * np.eye(4)[:, 1]
    d = Dictionary(np.column_stack([np.eye(4)[:, 0], near / np.linalg.norm(near),
                                    np.eye(4)[:, 2], np.eye(4)[:, 3]]))
    calls = [lambda: list(walk_vectors(d, 2)), lambda: projected_coherence("omp", d, 2),
             lambda: projected_coherence("ols", d, 2), lambda: prip_exact(d, 1, 2),
             lambda: prip_exact(d, 2, 2)]
    for call in calls:
        if dependent:
            with pytest.raises(RankDeficient):
                call()
        else:
            call()
    if not dependent:
        assert_walks_agree(d, 2)


@pytest.mark.parametrize("source", PRIP_SOURCES)
def test_enumerations_match_the_vector_walk(source):
    d = PRIP_SOURCES[source]()
    for l in range(4):
        assert_walks_agree(d, l)
    for q, l in PRIP_ORDERS:
        got = prip_exact(d, q, l)
        lower, upper = prip_every_block(d, q, l, grams_of_walk_vectors)
        assert (got.lower, got.upper) == pytest.approx((lower, upper), abs=1e-12), (q, l)


@pytest.mark.parametrize("k, l", [(3, 1), (4, 2), (5, 3), (6, 2)])
def test_enumerations_match_the_vector_walk_on_worst_cases(k, l):
    d = build_worst_case(k, l)
    for s in range(min(4, d.m)):
        assert_walks_agree(d, s)
        got = prip_exact(d, 2, s)
        want = prip_every_block(d, 2, s, grams_of_walk_vectors)
        assert (got.lower, got.upper) == pytest.approx(want, abs=1e-12)


def test_wide_projected_coherence_holds_a_few_grams():
    # a push costs O(n^2) whatever m is; the walk holds a stack per level, here of one
    # Gram, and the OLS normalization a few n x n temporaries, nothing per support
    d = random_dictionary(64, 256, seed=5)
    for variant in ("omp", "ols"):
        tracemalloc.start()
        try:
            projected_coherence(variant, d, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * d.n * d.n * 8, variant


def test_ols_normalization_scales_the_grams_in_place():
    # the OLS rule scales each stack of the walk where it lies: on a dictionary of the
    # certify workload's shape its traced peak stays within BATCH_ELEMENTS // 8 entries
    # of the OMP rule's, where a scaled copy of a stack holds up to a quarter of them
    d = random_dictionary(12, 20, 0.24, seed=1)
    peaks = {}
    for variant in ("omp", "ols"):
        tracemalloc.start()
        try:
            projected_coherence(variant, d, 3)
            peaks[variant] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["ols"] - peaks["omp"] < dictionary.BATCH_ELEMENTS // 8 * 8


# the walk pushes the children of a stack of supports, across their parents, as one
# step; it must give the supports, the Grams and the project_atoms calls of the walk
# that pushes one child at a time, in the same order, and the enumerations their bits

def dependent_pair(offset: float) -> Dictionary:
    """Four unit atoms in R^4, atom 1 at distance about `offset` from atom 0."""
    near = np.eye(4)[:, 0] + offset * np.eye(4)[:, 1]
    return Dictionary(np.column_stack([np.eye(4)[:, 0], near / np.linalg.norm(near),
                                       np.eye(4)[:, 2], np.eye(4)[:, 3]]))


WALK_SOURCES = {  # name: a dictionary and the support sizes to walk
    **{name: (lambda make=make: (make(), range(4))) for name, make in PRIP_SOURCES.items()},
    **{f"worst case {k},{l}": (lambda k=k, l=l: (d := build_worst_case(k, l), range(min(4, d.m))))
       for k, l in ((3, 1), (4, 2), (5, 3), (6, 2))},
    **{f"near dependence {dist}": (lambda dist=dist: (near_dependent(8, 11, dist, 0), range(5)))
       for dist in (1e-7, 1e-4, 0.03, 0.1, 0.3)},
    "small remaining norm": lambda: (near_dependent(6, 8, 0.01, 0, span=2), range(4)),
    # the same with atoms 0..4 moved to 3..7 and 5..7 to 0..2: the support (3, 4) falls back
    # after the leaves of the parents before it, which one stack would hold
    "late small remaining norm": lambda: (
        Dictionary(np.roll(near_dependent(6, 8, 0.01, 0, span=2).atoms, 3, axis=1)), range(5)),
    # every pivot just above the guard, and pivots whose product is just above it
    **{f"kahan-like {l} {how} #{seed}": (
        lambda l=l, pivot=pivot, seed=seed: (kahan_like(10, l, pivot, 3, seed), (l,)))
       for l in (3, 4, 5) for seed in range(2)
       for how, pivot in (("pivots", GUARD * 1.01), ("product", (GUARD * 1.01) ** (1 / (l - 1))))},
    "near pair": lambda: (dependent_pair(1e-7), range(3)),
}
BATCHES = {"default": lambda n: dictionary.BATCH_ELEMENTS, "one": lambda n: 1,
           "two Grams": lambda n: 2 * (n - 1) ** 2}


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("source", WALK_SOURCES)
def test_stacked_walk_gives_the_bits_of_the_per_push_walk(source, batch, exact_grams,
                                                          monkeypatch):
    d, orders = WALK_SOURCES[source]()
    monkeypatch.setattr(dictionary, "BATCH_ELEMENTS", BATCHES[batch](d.n))
    for l in orders:
        exact_grams.clear()
        want = list(walk_per_push(d, l))
        fallbacks = list(exact_grams)
        exact_grams.clear()
        stacks = list(guarantees._projected_grams(d, l))
        assert exact_grams == fallbacks, l
        got = list(flat(stacks))
        assert len(got) == len(want) == comb(d.n, l)
        for (support, gram), (ref_support, ref) in zip(got, want):
            assert support == ref_support
            assert np.array_equal(gram, ref) and gram.tobytes() == ref.tobytes(), support
        # a stack holds one Gram or at most BATCH_ELEMENTS entries
        assert all(len(grams) == 1 or grams.size <= dictionary.BATCH_ELEMENTS
                   for _, grams in stacks)


def test_walk_sources_put_a_fallback_inside_a_stack(exact_grams):
    # atom 3 lies 0.03 from the span of atoms 0..2: on this dictionary, among the
    # leaves, all pushed in one stack, (1, 2, 5) takes project_atoms's Gram and its
    # neighbours (1, 2, 4) and (1, 2, 6) do not
    d, _ = WALK_SOURCES["near dependence 0.03"]()
    list(guarantees._projected_grams(d, 3))
    assert (1, 2, 5) in exact_grams and not {(1, 2, 4), (1, 2, 6)} & set(exact_grams)


def test_walk_puts_a_support_that_falls_back_between_the_stacks_of_leaves(exact_grams):
    # atom 5 lies 0.01 from the span of atoms 3 and 4: at l = 3 the parent (3, 4) of
    # leaves takes project_atoms's Gram; the stack of parents is cut before it, so the
    # leaves of the parents before it, among them (2, 4, 5), which falls back too, come
    # first: all 56 leaves, which one stack would hold, come in a stack up to (2, 6, 7)
    # and stacks from (3, 4, 5)
    d, _ = WALK_SOURCES["late small remaining norm"]()
    assert comb(d.n, 3) * (d.n - 3) ** 2 <= dictionary.BATCH_ELEMENTS // 4
    stacks = list(guarantees._projected_grams(d, 3))
    assert stacks[0][0][-1] == (2, 6, 7) and stacks[1][0][0] == (3, 4, 5)
    assert exact_grams.index((2, 4, 5)) < exact_grams.index((3, 4)) < exact_grams.index((3, 4, 5))


def test_leaf_stacks_span_parents():
    # on a dictionary of the certify workload's shape, the 1,140 supports of size 3
    # come in stacks of up to a quarter of BATCH_ELEMENTS entries (56 Grams of 17 x 17),
    # each holding the leaves of several parents, not in one stack per parent (171)
    d = random_dictionary(12, 20, 0.24, seed=1)
    stacks = list(guarantees._projected_grams(d, 3))
    assert len(stacks) <= 24
    assert min(len({support[:2] for support in supports}) for supports, _ in stacks) > 1
    assert all(grams.size <= dictionary.BATCH_ELEMENTS // 4 for _, grams in stacks)


@pytest.mark.parametrize("source", WALK_SOURCES)
def test_enumerations_give_the_bits_of_the_per_push_walk(source, monkeypatch):
    d, orders = WALK_SOURCES[source]()
    for l in orders:
        for variant in ("omp", "ols"):
            want = coherence_per_support(walk_per_push(d, l), variant == "ols")
            assert projected_coherence(variant, d, l) == want, (variant, l)
    orders = [(q, l) for l in orders for q in (2, 3) if l + q <= d.n]
    got = [prip_exact(d, q, l) for q, l in orders]
    monkeypatch.setattr(guarantees, "_projected_grams", stacks_of_one(walk_per_push))
    assert got == [prip_exact(d, q, l) for q, l in orders]


# where the leaves do not fit one stack of the walk, projected_coherence skips the leaves
# whose bound lies below its running maximum; it must give the bits of the walk with no
# bound, on every shape, guard fallback and tie


def vanishing(m: int, n: int, seed: int) -> Dictionary:
    """Random unit atoms in R^m, the first m of them orthonormal: a support of m atoms
    spans the space, so every atom projected against it vanishes."""
    a = np.random.default_rng(seed).normal(size=(m, n))
    a[:, :m] = np.linalg.qr(a[:, :m])[0]
    return Dictionary(a / np.linalg.norm(a, axis=0))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(["random", "near dependence", "worst case", "vanishing"]), st.data())
def test_pruned_projected_coherence_gives_the_bits_of_the_walk(kind, data):
    seed = data.draw(st.integers(0, 10 ** 6))
    if kind == "random":
        m = data.draw(st.integers(3, 8))
        d = random_dictionary(m, data.draw(st.integers(m + 1, 12)), seed=seed)
    elif kind == "near dependence":  # the guard sends some pushes to project_atoms
        m = data.draw(st.integers(4, 8))
        d = near_dependent(m, data.draw(st.integers(m + 1, 11)),
                           data.draw(st.sampled_from([1e-7, 1e-3, 0.03, 0.3])), seed)
    elif kind == "worst case":  # the Gram's off-diagonal entries tie, and so do the bounds
        d = build_worst_case(*data.draw(st.sampled_from([(3, 0), (3, 1), (4, 2), (5, 3),
                                                         (6, 2)])))
    else:  # at l = m every projected atom vanishes
        m = data.draw(st.integers(2, 3))
        d = vanishing(m, data.draw(st.integers(m + 2, 9)), seed)
    orders = range(1, min(3, d.n - 2, d.m) + 1)
    # stacks of a few leaves, so that most walks prune, or of the default size
    grams = data.draw(st.sampled_from([1, 4, 40, None]))
    batch = dictionary.BATCH_ELEMENTS if grams is None else grams * (d.n - 1) ** 2
    with mock.patch.object(dictionary, "BATCH_ELEMENTS", batch):
        for l in orders:
            for variant in ("omp", "ols"):
                want = coherence_per_support(flat(guarantees._projected_grams(d, l)),
                                             variant == "ols")
                assert projected_coherence(variant, d, l) == want, (variant, l)


@pytest.mark.parametrize("source", WALK_SOURCES)
def test_the_prune_builds_every_leaf_that_falls_back(source, exact_grams, monkeypatch):
    # in stacks of one Gram every walk prunes; a leaf that the guard sends to project_atoms
    # is built whatever its bound, so project_atoms sees the supports of the unpruned walk
    d, orders = WALK_SOURCES[source]()
    monkeypatch.setattr(dictionary, "BATCH_ELEMENTS", (d.n - 1) ** 2)
    for l in orders:
        exact_grams.clear()
        list(guarantees._projected_grams(d, l))
        fallbacks = set(exact_grams)
        for variant in ("omp", "ols"):
            exact_grams.clear()
            projected_coherence(variant, d, l)
            assert set(exact_grams) == fallbacks, (variant, l)


@pytest.fixture
def leaves_built(monkeypatch):
    """(leaves, whether a bound was passed) per walk that projected_coherence takes."""
    walks = []
    walk = guarantees._projected_grams

    def counted(d, l, bound=None, floor=None):
        walks.append([0, bound is not None])
        for supports, grams in walk(d, l, bound, floor):
            walks[-1][0] += len(supports)
            yield supports, grams

    monkeypatch.setattr(guarantees, "_projected_grams", counted)
    return walks


def test_the_prune_builds_few_leaves_and_costs_small_walks_nothing(leaves_built):
    # on dictionaries of the certify workload's 12 x 20 shape, a walk at l = 3 builds at
    # most a quarter of its 1,140 leaves (34-291 for OMP and 36-239 for OLS over seeds
    # 0-29, one above a quarter, at seed 17); a walk whose 66 leaves fit one stack,
    # 10 x 12 at l = 2, gets no bound and builds them all
    for seed in range(10):
        d = random_dictionary(12, 20, 0.24, seed=seed)
        for variant in ("omp", "ols"):
            leaves_built.clear()
            projected_coherence(variant, d, 3)
            assert leaves_built[0][1] and leaves_built[0][0] <= comb(20, 3) // 4, (seed, variant)
    d = random_dictionary(10, 12, 0.19, seed=0)
    assert comb(12, 2) * 10 ** 2 <= dictionary.BATCH_ELEMENTS // 4
    for variant in ("omp", "ols"):
        leaves_built.clear()
        projected_coherence(variant, d, 2)
        assert leaves_built == [[comb(12, 2), False]], variant


def test_stacked_walk_raises_where_the_per_push_walk_does(exact_grams):
    d = dependent_pair(1e-9)
    with pytest.raises(RankDeficient):
        list(walk_per_push(d, 2))
    fallbacks = list(exact_grams)
    exact_grams.clear()
    with pytest.raises(RankDeficient):
        list(guarantees._projected_grams(d, 2))
    assert exact_grams == fallbacks and fallbacks[-1] == (0, 1)
