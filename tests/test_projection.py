import numpy as np
import pytest

from greedycert import (Dictionary, InvalidArgs, RankDeficient, build_scenario, classify,
                        least_squares, prip_exact, project_atoms, projected_coherence,
                        random_dictionary, residual, run, select_atom)

from oracles import (ls_normal_equations, orthonormal_basis, prip_scratch,
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


def test_project_atoms_geometry():
    d = random_dictionary(8, 10, seed=5)
    sup = [1, 6]
    pd = project_atoms(d, sup)
    # support columns are exactly zero and flagged as vanished
    assert np.array_equal(pd.projected[:, sup], np.zeros((8, 2)))
    assert pd.vanished[1] and pd.vanished[6]
    assert not pd.vanished[[0, 2, 3, 4, 5, 7, 8, 9]].any()
    # every projected atom is orthogonal to the selected span
    assert np.max(np.abs(d.atoms[:, sup].T @ pd.projected)) < 1e-10
    live = ~pd.vanished
    assert np.allclose(np.linalg.norm(pd.normalized[:, live], axis=0), 1.0)
    raw = pd.family(normalize=False)
    assert raw is pd.projected
    with pytest.raises(ValueError):
        pd.projected[0, 0] = 1.0


def test_project_atoms_vanishing_atom():
    # third atom lies in the span of the first two
    base = np.eye(5)[:, :2]
    mix = (base[:, :1] + base[:, 1:2]) / np.sqrt(2.0)
    a = np.hstack([base, mix, np.eye(5)[:, 2:4]])
    pd = project_atoms(Dictionary(a), [0, 1])
    assert pd.vanished[2]
    assert np.array_equal(pd.normalized[:, 2], np.zeros(5))


def test_project_atoms_empty_support():
    d = random_dictionary(6, 7, seed=9)
    pd = project_atoms(d, [])
    assert np.allclose(pd.projected, d.atoms)
    assert not pd.vanished.any()


# the incremental projector against the from-scratch SVD + QR path

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
