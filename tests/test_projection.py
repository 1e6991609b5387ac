import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedycert import (Dictionary, InvalidArgs, RankDeficient, build_scenario, classify,
                        least_squares, make_instance, prip_exact, project_atoms,
                        projected_coherence, random_dictionary, residual, run, select_atom)
from greedycert import guarantees
from greedycert.greedy import TIE_REL_TOL, _Pursuit, _pursue, as_variant
from greedycert.projection import VANISH_TOL

from oracles import (ls_normal_equations, orthonormal_basis, prip_scratch, projected_family,
                     projected_coherence_scratch, pursuit_scratch, residual_oracle)


def test_residual_empty_support():
    d = random_dictionary(5, 8, seed=0)
    y = np.arange(5.0)
    r = residual(d, [], y)
    assert np.array_equal(r, y)
    r[0] = 99.0
    assert y[0] == 0.0  # copy, not a view


def test_residual_matches_pinv_oracle():
    rng = np.random.default_rng(42)
    for trial in range(30):
        m, n = 8, 12
        d = random_dictionary(m, n, seed=trial)
        y = rng.standard_normal(m)
        sup = list(rng.choice(n, size=int(rng.integers(1, 5)), replace=False))
        r = residual(d, sup, y)
        assert np.linalg.norm(r - residual_oracle(d.atoms, sup, y)) < 1e-10
        # residual is orthogonal to every selected atom
        assert np.max(np.abs(d.atoms[:, sup].T @ r)) < 1e-10


def test_least_squares_matches_normal_equations():
    rng = np.random.default_rng(7)
    for trial in range(20):
        d = random_dictionary(9, 11, seed=100 + trial)
        y = rng.standard_normal(9)
        sup = [0, 4, 7]
        c = least_squares(d, sup, y)
        assert np.allclose(c, ls_normal_equations(d.atoms, sup, y), atol=1e-9)


def test_rank_deficient_support_raises():
    a = np.eye(4)[:, [0, 0, 1, 2]]  # duplicated first atom
    d = Dictionary(a)
    y = np.ones(4)
    with pytest.raises(RankDeficient):
        residual(d, [0, 1], y)
    with pytest.raises(RankDeficient):
        least_squares(d, [0, 1], y)
    with pytest.raises(InvalidArgs):
        residual(d, [0, 1, 2, 3, 2], y)  # duplicates are an argument error
    # more atoms than rows can never be independent
    d2 = random_dictionary(3, 6, seed=1)
    with pytest.raises(RankDeficient):
        residual(d2, [0, 1, 2, 5], np.ones(3))


def test_residual_input_validation():
    d = random_dictionary(5, 6, seed=2)
    with pytest.raises(InvalidArgs):
        residual(d, [0], np.ones(4))  # wrong length
    with pytest.raises(InvalidArgs):
        residual(d, [0], np.array([1.0, np.inf, 0, 0, 0]))
    with pytest.raises(InvalidArgs):
        residual(d, [9], np.ones(5))  # index out of range



def test_vectors_whose_squared_norm_overflows_are_rejected():
    d = random_dictionary(6, 9, seed=3)
    big = np.array([1e300, 1e300, 0.0, 0.0, 0.0, 0.0])  # finite entries, an infinite square
    for call in (lambda: run("omp", d, big, 2), lambda: select_atom("ols", d, [0], big),
                 lambda: residual(d, [0], big), lambda: least_squares(d, [0], big),
                 lambda: make_instance(d, [0, 1], [1e300, 1e300]),
                 lambda: make_instance(d, [0, 1], [1.7e308, 1.7e308])):
        with pytest.raises(InvalidArgs, match="squared norm overflows"):
            call()  # and no RuntimeWarning, which the suite turns into an error
    large = make_instance(d, [0, 1], [1e150, -1e150]).observation  # a finite square
    assert list(run("ols", d, large, 2).selected) == [0, 1]
    assert np.isfinite(residual(d, [0], large)).all()

def test_project_atoms_geometry():
    d = random_dictionary(8, 10, seed=5)
    sup = [1, 6]
    raw, unit = project_atoms(d, sup), project_atoms(d, sup, normalize=True)
    # support columns are exactly zero in both families
    assert np.array_equal(raw[:, sup], np.zeros((8, 2)))
    assert np.array_equal(unit[:, sup], np.zeros((8, 2)))
    # every projected atom is orthogonal to the selected span
    assert np.max(np.abs(d.atoms[:, sup].T @ raw)) < 1e-10
    live = [0, 2, 3, 4, 5, 7, 8, 9]
    assert np.allclose(np.linalg.norm(unit[:, live], axis=0), 1.0)
    # the normalized family is the raw one divided by its norms, bit for bit
    norms = np.sqrt(np.einsum("ij,ij->j", raw, raw))
    assert unit[:, live].tobytes() == (raw[:, live] / norms[live]).tobytes()
    assert project_atoms(d, sup, normalize=False).tobytes() == raw.tobytes()
    # both families are plain read-only arrays
    for arr in (raw, unit):
        assert type(arr) is np.ndarray
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


def test_project_atoms_vanishing_atom():
    # third atom lies in the span of the first two
    base = np.eye(5)[:, :2]
    mix = (base[:, :1] + base[:, 1:2]) / np.sqrt(2.0)
    a = np.hstack([base, mix, np.eye(5)[:, 2:4]])
    unit = project_atoms(Dictionary(a), [0, 1], normalize=True)
    assert np.array_equal(unit[:, 2], np.zeros(5))
    assert np.allclose(np.linalg.norm(unit[:, 3:], axis=0), 1.0)


def test_project_atoms_empty_support():
    d = random_dictionary(6, 7, seed=9)
    assert np.allclose(project_atoms(d, []), d.atoms)
    assert np.allclose(np.linalg.norm(project_atoms(d, [], normalize=True), axis=0), 1.0)


def test_one_vanish_rule_at_its_boundary(monkeypatch):
    # atoms 1 and 2 lie 0.5 and 2 VANISH_TOL from the span of atom 0, exactly: the
    # normalized family zeroes the first and keeps the second at unit norm
    e = VANISH_TOL
    a = np.array([[1.0, np.sqrt(1 - (0.5 * e) ** 2), np.sqrt(1 - (2 * e) ** 2), 0.0],
                  [0.0, 0.5 * e, 0.0, np.sqrt(0.5)],
                  [0.0, 0.0, 2 * e, np.sqrt(0.5)]])
    d = Dictionary(a)
    unit = project_atoms(d, [0], normalize=True)
    assert np.array_equal(unit[:, 1], np.zeros(3))
    assert np.linalg.norm(unit[:, 2]) == pytest.approx(1.0, abs=1e-15)
    assert unit[2, 2] == pytest.approx(1.0, abs=1e-15)
    # projected_coherence's OLS scaling follows the same rule on every support the walk
    # yields: some of its Grams are pushed, some taken from project_atoms
    built = []
    off_diagonal_max = guarantees._off_diagonal_max
    monkeypatch.setattr(guarantees, "_off_diagonal_max",
                        lambda grams: built.append(grams.copy()) or off_diagonal_max(grams))
    for l in (0, 1):
        built.clear()
        projected_coherence("ols", d, l)
        supports = [s for stack, _ in guarantees._projected_grams(d, l) for s in stack]
        grams = np.concatenate(built)
        assert len(grams) == len(supports) == math.comb(4, l)
        vanished = set()
        for s, g in zip(supports, grams):
            rest = np.delete(project_atoms(d, s, normalize=True), s, axis=1)
            want = rest.T @ rest
            gone = want == 0.0
            assert np.array_equal(g == 0.0, gone), s
            assert np.allclose(g, want, rtol=0, atol=1e-12), s
            outside = [j for j in range(d.n) if j not in s]
            vanished |= {(s, outside[i]) for i in gone.all(axis=0).nonzero()[0]}
        # atoms 0 and 1 lie 0.5 VANISH_TOL from each other's span, atoms 0 and 2 2 VANISH_TOL
        assert vanished == (set() if l == 0 else {((0,), 1), ((1,), 0)})


# pursuits and the enumerations' support walk against the from-scratch SVD + QR path

def assert_same_pursuit(variant, d, y, k, truth, seed=()):
    got = run(variant, d, y, k, seed_support=seed)
    ref = pursuit_scratch(variant, d.atoms, y, k, seed)
    assert (got.selected, got.tie_at, got.early_stop) == (ref.selected, ref.tie_at, ref.early_stop)
    assert classify(got, truth) == classify(ref, truth)
    assert np.allclose(got.residual_norms, ref.residual_norms,
                       rtol=0.0, atol=1e-12 * np.linalg.norm(y))


def test_pursuit_matches_scratch_on_criterion_8_instances():
    rng = np.random.default_rng(31)
    for trial in range(100):
        d = random_dictionary(8, 12, seed=1000 + trial)
        y = rng.standard_normal(8)
        truth = pursuit_scratch("ols", d.atoms, y, 4).selected
        assert_same_pursuit("ols", d, y, 4, truth)
        assert_same_pursuit("omp", d, y, 4, truth)
    for trial in range(100):
        gen = np.random.default_rng(5000 + trial)
        q, _ = np.linalg.qr(gen.standard_normal((10, 10)))
        y = gen.standard_normal(10)
        truth = pursuit_scratch("omp", q, y, 4).selected
        for variant in ("omp", "ols"):
            assert_same_pursuit(variant, Dictionary(q), y, 4, truth)


@pytest.mark.parametrize("k,l", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (4, 2), (5, 3)])
@pytest.mark.parametrize("variant", ["omp", "ols"])
def test_pursuit_matches_scratch_on_worst_case_scenarios(k, l, variant):
    sc = build_scenario(k, l, variant)
    assert_same_pursuit(variant, sc.dictionary, sc.y, k, sc.truth)
    assert_same_pursuit(variant, sc.dictionary, sc.y, k, sc.truth, sc.partial.indices)
    assert run(variant, sc.dictionary, sc.y, k).tie_at == l  # the exact tie survives


def test_enumerations_match_scratch():
    for seed in (70, 71):
        d = random_dictionary(8, 11, seed=seed)
        for l in range(4):
            for variant, normalize in (("omp", False), ("ols", True)):
                assert projected_coherence(variant, d, l) == pytest.approx(
                    projected_coherence_scratch(d.atoms, normalize, l), abs=1e-12)
            for q in (1, 2, 3):
                got = prip_exact(d, q, l)
                lower, upper = prip_scratch(d.atoms, q, l)
                assert got.lower == pytest.approx(lower, abs=1e-12)
                assert got.upper == pytest.approx(upper, abs=1e-12)


def _duplicate_atom():
    return np.eye(4)[:, [0, 0, 1, 2]], (0, 1)


def _atom_in_span_of_two():
    mix = (np.eye(5)[:, :1] + np.eye(5)[:, 1:2]) / np.sqrt(2.0)
    return np.hstack([np.eye(5)[:, :2], mix, np.eye(5)[:, 2:4]]), (0, 1, 2)


@pytest.mark.parametrize("make", [_duplicate_atom, _atom_in_span_of_two])
def test_dependent_atom_raises_everywhere(make):
    a, dependent = make()
    d = Dictionary(a)
    y = np.ones(d.m)
    with pytest.raises(RankDeficient):
        orthonormal_basis(a, dependent)  # the oracle agrees the support is dependent
    with pytest.raises(RankDeficient):
        run("omp", d, y, len(dependent) + 1, seed_support=dependent)
    with pytest.raises(RankDeficient):
        residual(d, dependent, y)
    with pytest.raises(RankDeficient):
        project_atoms(d, dependent)
    with pytest.raises(RankDeficient):
        projected_coherence("ols", d, len(dependent))  # the first support walked


def test_a_stacked_step_names_the_atoms_of_the_dependent_row():
    # row 0 pushes the independent atoms 2, 3; row 1 pushes atom 0 onto its copy, atom 1
    atoms = np.stack([np.eye(4), np.eye(4)[:, [0, 0, 1, 2]]])
    with pytest.raises(RankDeficient, match=r"^atoms \(1, 0\) are numerically dependent "
                                            r"\(atom 0 lies 0 from the span of the others\)$"):
        _pursue(as_variant("omp"), atoms, np.ones((2, 4)), 3, np.array([[2, 3], [1, 0]]))


def test_rank_rule_is_distance_to_span():
    for offset, dependent in ((1e-9, True), (1e-7, False)):
        near = np.eye(3)[:, 0] + offset * np.eye(3)[:, 1]
        d = Dictionary(np.column_stack([np.eye(3)[:, 0], near / np.linalg.norm(near),
                                        np.eye(3)[:, 2]]))
        if dependent:
            with pytest.raises(RankDeficient):
                residual(d, [0, 1], np.ones(3))
        else:
            assert np.allclose(residual(d, [0, 1], np.ones(3)), [0.0, 0.0, 1.0])


def test_zero_scores_fall_back_to_lowest_unselected_atom():
    d = Dictionary(np.eye(4)[:, :3])
    y = np.eye(4)[:, 3]  # orthogonal to every atom
    assert select_atom("ols", d, [1], y) == (0, 0.0, True)
    assert select_atom("omp", d, [0, 1], y) == (2, 0.0, False)
    trace = run("omp", d, y, 2)
    assert list(trace.selected) == [0, 1] and trace.tie_at == 0
    assert_same_pursuit("ols", d, y, 2, [0, 1])


# the pursuit state (basis, correlations, downdated norms) against the oracle

# an orthonormal basis e of R^5 under which downdating the near atom's squared norm by
# its correlations with e0 and e1 leaves about 2e-16 of rounding, not zero or less
ROTATED, _ = np.linalg.qr(np.random.default_rng(121).standard_normal((5, 5)))


def _near_span_dictionary(distance):
    """Atoms e0, e1, an atom `distance` from their span (along e2), e3, e4."""
    e = ROTATED
    near = (e[:, 0] + e[:, 1]) / np.sqrt(2.0) + distance * e[:, 2]
    return Dictionary(np.column_stack([e[:, 0], e[:, 1], near / np.linalg.norm(near),
                                       e[:, 3], e[:, 4]]))


@pytest.mark.parametrize("distance,vanished", [(1e-11, True), (1e-9, False)])
def test_near_span_atom_takes_the_exact_norm(monkeypatch, distance, vanished):
    reprojected = []
    exact = _Pursuit._reproject

    def counting(self, mask):
        reprojected.extend(int(i) for i in np.flatnonzero(mask))
        exact(self, mask)

    monkeypatch.setattr(_Pursuit, "_reproject", counting)
    d = _near_span_dictionary(distance)
    y = ROTATED @ [1.0, 2.0, 0.5, 0.9, 0.0]
    trace = run("ols", d, y, 3, seed_support=[0, 1])
    # the downdate alone cannot resolve its norm; the pushed atoms are masked first
    assert set(reprojected) == {2}
    assert trace.selected.indices[2] == 3
    # the residual 0.5 e2 + 0.9 e3 correlates 0.5 with the unit projected atom
    assert trace.scores[0][2] == (0.0 if vanished else pytest.approx(0.5, rel=1e-6))
    assert_same_pursuit("ols", d, y, 3, [0, 1, 3], seed=(0, 1))


def test_select_atom_projects_a_residual_off_the_support():
    rng = np.random.default_rng(17)
    projection_mattered = 0
    for trial in range(40):
        d = random_dictionary(8, 12, seed=300 + trial)
        sup = [int(i) for i in rng.choice(12, 3, replace=False)]
        res = rng.standard_normal(8) + d.atoms[:, sup] @ rng.standard_normal(3)
        for variant in ("omp", "ols"):
            fam, vanished = projected_family(d.atoms, sup, normalize=(variant == "ols"))
            scores = np.abs(fam.T @ res)
            scores[vanished] = 0.0
            top = scores.max()
            tied = np.flatnonzero(scores >= top * (1.0 - TIE_REL_TOL))
            choice, score, tie = select_atom(variant, d, sup, res)
            assert (choice, tie) == (tied[0], tied.size >= 2)
            assert score == pytest.approx(top, rel=1e-12)
            raw = np.abs(d.atoms.T @ res)
            raw[sup] = 0.0
            projection_mattered += variant == "omp" and int(np.argmax(raw)) != choice
    assert projection_mattered  # the raw correlations would have picked another atom
    # an exact tie survives a residual that is moved along the support atoms
    sc = build_scenario(4, 2, "ols")
    off = sc.null_component + sc.dictionary.atoms[:, list(sc.partial)] @ np.array([0.7, -1.3])
    assert select_atom("ols", sc.dictionary, sc.partial, off)[::2] == (sc.predicted_wrong, True)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(m=st.integers(2, 10), extra=st.integers(0, 8), draw=st.integers(0, 2**32 - 1),
       prefix=st.integers(0, 9), noise=st.booleans(), variant=st.sampled_from(["omp", "ols"]))
def test_pursuit_matches_scratch_property(m, extra, draw, prefix, noise, variant):
    # random shapes, seeded prefixes and noisy inputs: run makes the scratch pursuit's
    # selections, tie and stop, and raises RankDeficient where it does
    n = m + extra
    rng = np.random.default_rng(draw)
    d = random_dictionary(m, n, seed=draw)
    k = int(rng.integers(1, m + 1))
    truth = [int(i) for i in rng.choice(n, k, replace=False)]
    y = d.atoms[:, truth] @ (rng.uniform(0.5, 1.5, k) * rng.choice([-1.0, 1.0], k))
    if noise:
        y = y + 1e-2 * rng.standard_normal(m)
    seed = tuple(truth[:min(prefix, k - 1)])
    try:
        ref = pursuit_scratch(variant, d.atoms, y, k, seed)
    except RankDeficient:
        with pytest.raises(RankDeficient):
            run(variant, d, y, k, seed_support=seed)
        return
    got = run(variant, d, y, k, seed_support=seed)
    assert (got.selected, got.tie_at, got.early_stop) == (ref.selected, ref.tie_at, ref.early_stop)
    assert classify(got, truth) == classify(ref, truth)


# a stack of pursuits, each row on its own dictionary, against one run per row

def _assert_rows_are_runs(variant, dicts, ys, k, seeds):
    runs = _pursue(as_variant(variant), np.stack([d.atoms for d in dicts]), np.stack(ys), k,
                   np.array(seeds, dtype=int).reshape(len(dicts), -1))
    for i, (d, y, seed) in enumerate(zip(dicts, ys, seeds)):
        trace = run(variant, d, y, k, seed_support=seed)
        stop = len(trace.selected)
        assert runs.stops[i] == stop and (stop < k) == (trace.early_stop is not None)
        assert runs.selected[i, :stop].tolist() == list(trace.selected)
        assert runs.norms[i, :stop + 1].tolist() == list(trace.residual_norms)
        assert runs.scores[i, :stop - len(seed)].tobytes() == np.array(trace.scores).tobytes()
        assert not runs.scores[i, stop - len(seed):].any()
        tie_at = int(runs.ties[i].argmax()) if runs.ties[i].any() else None
        assert tie_at == trace.tie_at
    return runs


@pytest.mark.parametrize("variant", ["omp", "ols"])
def test_stacked_pursuits_give_each_row_the_bits_of_its_run(variant):
    rng = np.random.default_rng(5)
    dicts = [random_dictionary(8, 12, seed=400 + i) for i in range(7)]
    ys, seeds = [], []
    for i, d in enumerate(dicts):
        sup = [int(j) for j in rng.choice(12, 4, replace=False)]
        ys.append(d.atoms[:, sup] @ rng.uniform(0.5, 1.5, 4))
        seeds.append(sup[:1])
    ys[2] = 2.0 * dicts[2].atoms[:, seeds[2][0]]  # vanishes with its seeded atom
    ys[4] = dicts[4].atoms[:, seeds[4] + [7 if seeds[4] != [7] else 6]] @ [1.0, -1.0]  # after two
    runs = _assert_rows_are_runs(variant, dicts, ys, 4, seeds)
    assert runs.stops.tolist() == [4, 4, 1, 4, 2, 4, 4]
    # rows that leave early, unseeded, and a stack of one
    _assert_rows_are_runs(variant, dicts, ys, 5, [[]] * 7)
    _assert_rows_are_runs(variant, dicts[2:3], ys[2:3], 3, seeds[2:3])


def test_stacked_pursuits_reproject_only_their_own_rows(monkeypatch):
    reprojected = []
    exact = _Pursuit._reproject

    def counting(self, mask):
        if mask.ndim == 2:  # a stack, not the single runs it is checked against
            reprojected.append(mask.any(axis=1).nonzero()[0].tolist())
        exact(self, mask)

    monkeypatch.setattr(_Pursuit, "_reproject", counting)
    dicts = [Dictionary(ROTATED), _near_span_dictionary(1e-9), random_dictionary(5, 5, seed=8)]
    ys = [ROTATED @ [1.0, 2.0, 0.5, 0.9, 0.0]] * 3
    _assert_rows_are_runs("ols", dicts, ys, 3, [[0, 1]] * 3)
    assert reprojected and all(rows == [1] for rows in reprojected)  # only the near-span row


# residual norms when an atom lies just above RANK_SV_TOL from the span of the
# atoms pushed before it, against values computed at 50 digits from the same
# float atoms: errors there grow like 1e-17 / distance, relative to |y|, for run
# and for the from-scratch oracle alike (the oracle is usually the farther one)

def _near_dependent_case(seed, distance):
    """8 x 12 unit atoms where atom 3 lies `distance` from the span of atoms 0-2,
    and an observation that leads OLS to pick atoms 0-3 in some order."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(8, 12))
    a /= np.linalg.norm(a, axis=0)
    q, _ = np.linalg.qr(a[:, :3])
    w = rng.normal(size=8)
    w -= q @ (q.T @ w)
    w /= np.linalg.norm(w)
    near = a[:, :3] @ rng.uniform(0.5, 1.0, 3)
    near = near / np.linalg.norm(near) + distance * w
    a[:, 3] = near / np.linalg.norm(near)
    y = a[:, :3] @ np.array([3.0, -2.5, 2.0]) + 0.5 * w + 0.01 * rng.normal(size=8)
    return Dictionary(a), y


def _residual_norms_50_digits(atoms, selected, y):
    import mpmath
    with mpmath.workdps(50):
        a, v = mpmath.matrix(atoms.tolist()), mpmath.matrix(y.tolist())
        norms = [mpmath.norm(v)]
        for t in range(1, len(selected) + 1):
            sub = mpmath.matrix([[a[i, j] for j in selected[:t]] for i in range(a.rows)])
            coef = mpmath.lu_solve(sub.T * sub, sub.T * v)
            norms.append(mpmath.norm(v - sub * coef))
        return [float(x) for x in norms]


def test_residual_norms_near_the_rank_tolerance_match_50_digit_values():
    distance, hard = 1e-7, 0
    for seed in range(30):
        d, y = _near_dependent_case(seed, distance)
        trace = run("ols", d, y, 4)
        if 3 not in trace.selected:
            continue
        exact = _residual_norms_50_digits(d.atoms, list(trace.selected), y)
        err = np.abs(np.subtract(trace.residual_norms, exact)).max() / np.linalg.norm(y)
        assert err <= 3e-17 / distance  # the largest of 246 such runs was 1.2e-17 / distance
        hard += err > 1e-12
    assert hard >= 10  # beyond the 1e-12 the oracle comparisons above allow
