import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from greedycert import (CalibrationFailed, InvalidArgs, RecoveryOutcome, build_scenario,
                        build_worst_case, classify, coherence, coherence_threshold,
                        dual_representation, gram, project_atoms, projected_gram_closed_form,
                        random_dictionary, reach_input, residual, run, select_atom)

from greedycert import cli, greedy, worstcase

from oracles import (EDGE_FLOATS, calibrate_sequential, construction_projected_pair,
                     scenario_dict_per_scalar)


PAIRS = [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (4, 2), (5, 3)]


@pytest.mark.parametrize("k,l", [(3, 1), (4, 2), (8, 3), (20, 4), (32, 16)])
def test_closed_form_matches_literal_projection(k, l):
    # the larger constructions are where a solve with the |R| x |R| Gram, whose least
    # eigenvalue is 1 + mu - |R| mu, grows ill-conditioned as |R| nears 2k-l-1
    d = build_worst_case(k, l)
    n = d.n
    rng = np.random.default_rng(0)
    for r in range(n):
        cross, norm_sq = projected_gram_closed_form(k, l, r)
        oc, on = construction_projected_pair(k, l, r)
        assert cross == pytest.approx(oc, abs=1e-12)
        assert norm_sq == pytest.approx(on, abs=1e-12)
        # literal check: project one or two atoms away from r others (any r, by symmetry)
        others = rng.permutation(n)
        p = project_atoms(d, others[:r].tolist())
        ai = p[:, others[r]]
        assert float(ai @ ai) == pytest.approx(norm_sq, abs=1e-10)
        if r + 1 < n:
            assert float(ai @ p[:, others[r + 1]]) == pytest.approx(cross, abs=1e-10)


def test_closed_form_spot_values():
    cross, norm_sq = projected_gram_closed_form(3, 1, 1)
    assert cross == pytest.approx(-0.3125, abs=1e-12)
    assert norm_sq == pytest.approx(0.9375, abs=1e-12)
    cross0, norm0 = projected_gram_closed_form(3, 1, 0)
    assert cross0 == pytest.approx(-0.25, abs=1e-15)
    assert norm0 == pytest.approx(1.0, abs=1e-15)
    # projecting away all but one atom kills the family
    _, nlast = projected_gram_closed_form(3, 1, 4)
    assert nlast == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(InvalidArgs):
        projected_gram_closed_form(3, 1, 5)
    with pytest.raises(InvalidArgs, match=r"^\|R\| must be non-negative, got -1$"):
        projected_gram_closed_form(3, 1, -1)
    # a subset counts by its size, and its atoms must be among the 2k-l = 5
    for r in ([], [3], [4, 0], (1, 2, 3, 4)):
        assert projected_gram_closed_form(3, 1, r) == projected_gram_closed_form(3, 1, len(r))
    for r in ([7], [0, 5]):
        with pytest.raises(InvalidArgs) as exc:
            projected_gram_closed_form(3, 1, r)
        assert str(exc.value) == f"R index {max(r)} out of range for 2k-l = 5 atoms"
    with pytest.raises(InvalidArgs, match="must be below 2k-l = 5"):
        projected_gram_closed_form(3, 1, range(5))


@pytest.mark.parametrize("variant", ["omp", "ols"])
def test_reach_input_drives_prescribed_selections(variant):
    d = build_worst_case(3, 1)  # n = 5, usable subset sizes up to 3
    for q in ([2], [4, 0], [1, 3, 0], [3, 1, 4]):
        y, factors = reach_input(d, q, variant)
        tr = run(variant, d, y, len(q))
        assert list(tr.selected) == list(q)  # exact order
        assert tr.tie_at is None
        assert len(factors) == len(q) - 1  # first atom has implicit scale 1
        assert all(f > 0 for f in factors)
        # margin certificate: mu + 2 mu^2 1^T G_p^{-1} 1 < 1 at every prefix
        mu = coherence(d)
        for p in range(len(q)):
            if p == 0:
                lhs = mu
            else:
                gp = gram(d)[np.ix_(q[:p], q[:p])]
                lhs = mu + 2 * mu * mu * float(np.linalg.solve(gp, np.ones(p)).sum())
            assert lhs < 1.0


def test_reach_input_size_limit():
    d = build_worst_case(3, 1)
    with pytest.raises(InvalidArgs):
        reach_input(d, [0, 1, 2, 3], "omp")  # n-2 = 3 is the max
    y, factors = reach_input(d, [], "omp")
    assert np.array_equal(y, np.zeros(d.m)) and factors == ()


@pytest.mark.parametrize("variant", ["omp", "ols"])
def test_dual_representation_cancels(variant):
    for k, l in ((3, 1), (4, 2), (2, 0)):
        d = build_worst_case(k, l)
        prefix = list(range(l))
        y2, q1, q2 = dual_representation(d, prefix, variant)
        fam = project_atoms(d, prefix, normalize=variant == "ols")
        total = fam[:, list(q1)].sum(axis=1) + fam[:, list(q2)].sum(axis=1)
        assert np.linalg.norm(total) < 1e-10  # the two halves are opposite
        assert np.allclose(y2, fam[:, list(q1)].sum(axis=1), atol=1e-12)
        assert sorted(list(q1) + list(q2)) == [i for i in range(d.n) if i not in prefix]
        assert len(q1) == len(q2) == k - l


def test_dual_representation_needs_an_even_complement():
    d = build_worst_case(3, 1)  # n = 5
    for q, rest in (([0, 1], 3), ([], 5), ([4, 0, 2, 1], 1)):
        with pytest.raises(InvalidArgs) as exc:
            dual_representation(d, q, "omp")
        assert str(exc.value) == f"complement of q has odd size {rest}; cannot split in half"


def test_dual_representation_needs_an_atom_left_to_split():
    d = build_worst_case(3, 1)  # n = 5
    for q in (range(5), [3, 0, 4, 1, 2]):
        with pytest.raises(InvalidArgs) as exc:
            dual_representation(d, q, "omp")
        assert str(exc.value) == "complement of q is empty; no atom is left to split"


@pytest.mark.parametrize("k,l", PAIRS)
@pytest.mark.parametrize("variant", ["omp", "ols"])
def test_scenario_reproduces_failure(k, l, variant):
    s = build_scenario(k, l, variant)
    mu = coherence(s.dictionary)
    assert mu == pytest.approx(coherence_threshold(k, l), abs=1e-10)
    assert s.threshold == pytest.approx(coherence_threshold(k, l), abs=1e-15)
    assert list(s.partial) == list(range(l))
    assert set(s.partial) <= set(s.truth)
    assert list(s.truth) == [*s.partial, *s.half_high] and len(s.truth) == k
    assert s.predicted_wrong == s.half_low.indices[0]
    assert s.predicted_wrong not in set(s.truth)
    # the observation really lives in the span of the claimed support
    rel = np.linalg.norm(residual(s.dictionary, s.truth, s.y)) / np.linalg.norm(s.y)
    assert rel < 1e-9

    tr = run(variant, s.dictionary, s.y, k)
    out = classify(tr, s.truth)
    assert list(tr.selected)[:l] == list(s.partial)
    assert tr.tie_at == l  # clean prefix, then the engineered stall
    assert int(tr.selected.indices[l]) == s.predicted_wrong
    assert out.kind == RecoveryOutcome.TIE_WITH_WRONG_ATOM
    assert out.iteration == l


def test_scenario_tie_score_value():
    # at the stall, every remaining atom scores epsilon * (k-l) * |cross|
    k, l = 3, 1
    s = build_scenario(k, l, "omp")
    tr = run("omp", s.dictionary, s.y, k)
    cross, _ = projected_gram_closed_form(k, l, l)
    stall = np.asarray(tr.scores[l])
    live = [i for i in range(s.dictionary.n) if i not in list(s.partial)]
    vals = stall[live]
    assert np.allclose(vals, vals[0], rtol=1e-9)
    assert vals[0] == pytest.approx(s.mix_epsilon * (k - l) * abs(cross), rel=1e-9)


def test_scenario_degenerate_smallest():
    s = build_scenario(1, 0, "omp")
    assert s.dictionary.n == 2 and s.dictionary.m == 1
    tr = run("omp", s.dictionary, s.y, 1)
    out = classify(tr, s.truth)
    assert out.kind == RecoveryOutcome.TIE_WITH_WRONG_ATOM
    assert out.iteration == 0


def test_scenario_deterministic():
    a = build_scenario(4, 2, "ols")
    b = build_scenario(4, 2, "ols")
    assert a.y.tobytes() == b.y.tobytes()
    assert a.dictionary.atoms.tobytes() == b.dictionary.atoms.tobytes()
    assert a.to_json() == b.to_json()


@pytest.mark.parametrize("variant", ["omp", "ols"])
def test_scenario_to_dict_keeps_the_float_lists(variant):
    for k, l in PAIRS:
        s = build_scenario(k, l, variant)
        # repr tells -0.0 from 0.0 and a Python float from a numpy scalar
        assert repr(s.to_dict()) == repr(scenario_dict_per_scalar(s))


_VECTORS = arrays(float, st.integers(0, 6), elements=st.floats())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_VECTORS, _VECTORS, _VECTORS, st.lists(st.floats(), max_size=4))
@example(np.array(EDGE_FLOATS), np.array(EDGE_FLOATS[::-1]), np.zeros(0), list(EDGE_FLOATS))
def test_scenario_to_dict_keeps_the_float_lists_of_any_floats(y, reach, null, eps):
    s = dataclasses.replace(build_scenario(2, 0, "omp"), y=y, reach_component=reach,
                            null_component=null, prefix_coefficients=tuple(eps))
    assert repr(s.to_dict()) == repr(scenario_dict_per_scalar(s))


def test_scenario_serialization_roundtrip(tmp_path):
    s = build_scenario(3, 1, "omp")
    blob = json.loads(s.to_json())
    assert blob["k"] == 3 and blob["l"] == 1 and blob["variant"] == "omp"
    assert blob["truth"] == list(s.truth)
    assert blob["predicted_wrong"] == s.predicted_wrong
    rows = blob["dictionary_csv"].split("\n")
    a = np.array([[float(x) for x in row.split(",")] for row in rows])
    assert a.tobytes() == s.dictionary.atoms.tobytes()  # 17 digits round-trip
    assert blob["prefix_coefficients"] == list(s.prefix_coefficients)


def test_scenario_validation():
    with pytest.raises(InvalidArgs):
        build_scenario(2, 2, "omp")
    with pytest.raises(InvalidArgs):
        build_scenario(0, 0, "omp")
    with pytest.raises(InvalidArgs):
        build_scenario(3, 1, "sp")


@pytest.mark.parametrize("k, l", PAIRS + [(18, 4), (25, 2), (32, 16), (40, 16), (30, 20),
                                         (26, 25), (34, 32), (63, 62)])
def test_stacked_calibration_matches_one_run_per_scale(monkeypatch, k, l):
    # the mixing scale is the one calibrated step: (3, 2) takes 2^-7, from its second
    # stack of scales; (40, 16), (30, 20) and (63, 62) are the most atoms, a long prefix
    # and the longest prefix the CLI allows
    for variant in ("omp", "ols"):
        stacked = build_scenario(k, l, variant)
        with monkeypatch.context() as patch:
            patch.setattr(worstcase, "_calibrate", calibrate_sequential)
            sequential = build_scenario(k, l, variant)
        assert stacked.prefix_coefficients == sequential.prefix_coefficients
        assert stacked.mix_epsilon == sequential.mix_epsilon
        assert stacked.y.tobytes() == sequential.y.tobytes()


def test_calibration_margins_reject_ties_close_calls_and_other_selections():
    from greedycert.greedy import TIE_REL_TOL, _margins, _tied
    gap = worstcase.MARGIN_FACTOR * TIE_REL_TOL  # the smallest margin a calibrated selection may have
    rows = [  # (scores of the two steps over 4 atoms, accepted as selecting the prefix 2, 0)
        ([[0, 0, 1, 0.5], [1, 0, 0, 0.5]], True),
        ([[0, 0, 1, 0.5], [1, 0, 0, 1]], False),  # a tie
        ([[0, 0, 1, 1 - 0.5 * gap], [1, 0, 0, 0.5]], False),  # too close
        ([[0, 0, 1, 1 - 2 * gap], [1, 0, 0, 0.5]], True),
        ([[0, 0, 1, 0.5], [0.5, 1, 0, 0.5]], False),  # another atom ahead
        ([[0, 0, 1, 0.5], [0, 0, 0, 0]], False),  # the residual vanished
    ]
    scores, accepted = zip(*rows)
    scores = np.array(scores, dtype=float)
    margins = _margins(scores, [2, 0])  # one pick per step, the same for every row
    assert margins.shape == (6, 2)
    assert ((margins >= gap).all(axis=1)).tolist() == list(accepted)
    assert margins[0].tolist() == [0.5, 0.5]
    assert margins[1, 1] == 0.0 and _tied(scores[1, 1]).sum() == 2
    assert margins[4, 1] == -1.0
    assert margins[5, 1] == -np.inf
    # one pick for a stack of rows, and one row with its pick
    assert _margins(scores[:, 0], 2).tolist() == margins[:, 0].tolist()
    assert _margins(scores[0, 1], 0) == 0.5


def _same_calibration(variant, d, base, direction, prefix):
    """_calibrate and the one-run-per-scale oracle give the same scale, or both fail."""
    try:
        got = worstcase._calibrate(variant, d, base, direction, prefix, "the scale")
    except CalibrationFailed as exc:
        got = str(exc)
    try:
        assert got == calibrate_sequential(variant, d, base, direction, prefix, "the scale")
    except CalibrationFailed as exc:
        assert got == str(exc)
    return got


# (m, n, seed, base atom, direction atom): from base + scale * direction, OMP's second
# pick is never the direction's atom, whatever the scale.  Near scale 1e-16 rounding can
# make it win, but then the residual norm is at or below RESIDUAL_TOL, which only a
# residual updated step by step shows (not |y|^2 minus the squared correlations)
CALIBRATION_TRAPS = [(6, 8, 0, 7, 1), (7, 8, 0, 1, 2), (7, 8, 0, 1, 7), (8, 10, 0, 4, 2)]


@pytest.mark.parametrize("m, n, seed, i, j", CALIBRATION_TRAPS)
def test_calibration_fails_where_the_residual_vanishes(m, n, seed, i, j):
    d = random_dictionary(m, n, seed=seed)
    got = _same_calibration("omp", d, d.atoms[:, i], d.atoms[:, j], [i, j])
    assert got == "could not calibrate the scale after 80 halvings"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_calibration_matches_one_run_per_scale(data):
    if data.draw(st.booleans(), label="worst case"):
        k = data.draw(st.integers(2, 6), label="k")
        d = build_worst_case(k, data.draw(st.integers(0, k - 1), label="l"))
    else:
        m = data.draw(st.integers(3, 8), label="m")
        d = random_dictionary(m, data.draw(st.integers(m, m + 4), label="n"),
                              seed=data.draw(st.integers(0, 99), label="seed"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="rng"))
    prefix = data.draw(st.permutations(range(d.n)), label="order")
    prefix = prefix[:data.draw(st.integers(1, min(d.m - 1, d.n - 2)), label="size")]
    if data.draw(st.booleans(), label="atom base"):
        base = d.atoms[:, data.draw(st.sampled_from([prefix[0], *range(d.n)]), label="base")]
    else:
        base = rng.standard_normal(d.m)
    direction = d.atoms[:, data.draw(st.sampled_from([prefix[-1], *range(d.n)]), label="dir")]
    noise = data.draw(st.sampled_from([0.0, 1e-8, 1e-4, 0.1, 1.0]), label="noise")
    direction = direction + noise * rng.standard_normal(d.m)
    variant = data.draw(st.sampled_from(["omp", "ols"]), label="variant")
    if data.draw(st.booleans(), label="prefix of a run"):  # the atoms a run takes at some scale
        scale = 2.0 ** -data.draw(st.integers(0, 12), label="at scale")
        taken = list(run(variant, d, base + scale * direction, len(prefix)).selected)
        prefix = taken or prefix
    _same_calibration(variant, d, base, direction, prefix)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_calibration_chains_match_one_run_per_scale(data):
    # reach_input calls _calibrate once per atom, each from the input the call before it
    # reached: chains of 2 or more atoms on random dictionaries
    m = data.draw(st.integers(3, 8), label="m")
    d = random_dictionary(m, data.draw(st.integers(max(m, 4), m + 4), label="n"),
                          seed=data.draw(st.integers(0, 99), label="seed"))
    order = data.draw(st.permutations(range(d.n)), label="order")
    longest = min(d.m - 1, d.n - 2)
    order = order[:longest - data.draw(st.integers(0, longest - 2), label="shorter by")]
    variant = data.draw(st.sampled_from(["omp", "ols"]), label="variant")
    try:
        got = reach_input(d, order, variant)
    except CalibrationFailed as exc:
        got = str(exc)
    # hypothesis refuses the function-scoped monkeypatch fixture
    with mock.patch.object(worstcase, "_calibrate", calibrate_sequential):
        try:
            want = reach_input(d, order, variant)
        except CalibrationFailed as exc:
            assert got == str(exc)
            return
    assert got[1] == want[1]
    assert got[0].tobytes() == want[0].tobytes()


@pytest.mark.parametrize("variant", ["omp", "ols"])
def test_calibration_failure_is_reported(monkeypatch, tmp_path, capsys, variant):
    # build_scenario(5, 3) needs the mixing scale 2^-1
    monkeypatch.setattr(worstcase, "HALVING_STEPS", 1)
    with pytest.raises(CalibrationFailed) as exc:
        build_scenario(5, 3, variant)
    assert str(exc.value) == "could not calibrate the mixing scale after 1 halvings"
    out = tmp_path / "wc"
    code = cli.main(["worstcase", "--k", "5", "--l", "3", "--variant", variant,
                     "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == ("calibration failed: could not calibrate the mixing scale "
                            "after 1 halvings\n")
    assert not out.exists()
    monkeypatch.setattr(worstcase, "HALVING_STEPS", 2)
    s = build_scenario(5, 3, variant)
    assert s.mix_epsilon == 0.5
    # c_2 = 1 and c_1 is the least c with 0.99 |c - 1/5| >= |1 - c/5| and >= |1/5 + c/5|
    assert s.prefix_coefficients[1] == 1.0
    assert s.prefix_coefficients[2] == pytest.approx(1.19 / 1.198, rel=1e-11)


@pytest.mark.parametrize("variant", ["omp", "ols"])
def test_reach_failure_names_the_prefix_atom(monkeypatch, variant):
    # reach_input on build_worst_case(5, 3) needs the scale 2^-2 for prefix atom 2
    d = build_worst_case(5, 3)
    monkeypatch.setattr(worstcase, "HALVING_STEPS", 2)
    with pytest.raises(CalibrationFailed) as exc:
        reach_input(d, [0, 1, 2], variant)
    assert str(exc.value) == "could not calibrate the scale for prefix atom 2 after 2 halvings"
    monkeypatch.setattr(worstcase, "HALVING_STEPS", 3)
    assert reach_input(d, [0, 1, 2], variant)[1] == (0.5, 0.25)


@pytest.mark.parametrize("variant", ["omp", "ols"])
def test_observation_off_the_truth_span_is_reported(monkeypatch, tmp_path, capsys, variant):
    # a null component with a part along an atom outside the truth: the prefix still
    # calibrates, but the observation leaves the span of the truth atoms
    dual = worstcase.dual_representation

    def off_span(d, q, variant):
        y2, q1, q2 = dual(d, q, variant)
        return y2 + 0.5 * d.atoms[:, q1.indices[0]], q1, q2

    monkeypatch.setattr(worstcase, "dual_representation", off_span)
    message = "constructed observation strays from the truth span (relative gap "
    with pytest.raises(CalibrationFailed) as exc:
        build_scenario(3, 1, variant)
    assert str(exc.value).startswith(message)
    out = tmp_path / "wc"
    assert cli.main(["worstcase", "--k", "3", "--l", "1", "--variant", variant,
                     "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("calibration failed: " + message)
    assert not out.exists()


# every l for k <= 12, l in steps of 5 up to k = 32, and the CLI's largest cases
TIE_GRID = ([(k, l) for k in range(1, 13) for l in range(k)]
            + [(k, l) for k in range(13, 33) for l in range(0, k, 5)]
            + [(40, 16), (40, 17), (33, 2)])


@pytest.mark.parametrize("variant", ["omp", "ols"])
def test_the_tie_against_the_null_component_goes_to_the_lower_half(variant):
    # build_scenario predicts the wrong atom without a pursuit: every atom outside the
    # prefix scores the same against y2, so the tie rule takes the lowest one, q1[0]
    for k, l in TIE_GRID:
        d = build_worst_case(k, l)
        prefix = list(range(l))
        y2, q1, _ = dual_representation(d, prefix, variant)
        assert select_atom(variant, d, prefix, y2)[::2] == (q1.indices[0], True), (k, l)


@pytest.mark.parametrize("variant", ["omp", "ols"])
def test_scenario_pushes_each_prefix_atom_once(monkeypatch, variant):
    # the mixing step's pursuit pushes atoms 0..14 once each (a candidate only selects
    # the last prefix atom, 15); no other pursuit runs
    pushes, push = [], greedy._Pursuit.push

    def counted(self, js, *args, **kwargs):
        pushes.append(js)
        return push(self, js, *args, **kwargs)

    monkeypatch.setattr(greedy._Pursuit, "push", counted)
    build_scenario(32, 16, variant)
    assert pushes == list(range(15))


@pytest.mark.parametrize("variant", ["omp", "ols"])
def test_scenario_scores_each_stack_of_scales_once(monkeypatch, variant):
    # a stack of candidate mixing scales is scored at every prefix level in one _scores
    # call: a scale 2^-i ends with the stack that holds halving i (stacks of 4, 8, 16, ...)
    calls, scores = [], worstcase._scores

    def counted(variant, corr, sq):
        calls.append(corr.shape)
        return scores(variant, corr, sq)

    monkeypatch.setattr(worstcase, "_scores", counted)
    for (k, l), want in (((32, 16), [(4, 16, 48)]), ((3, 2), [(4, 2, 4), (8, 2, 4)])):
        calls.clear()
        scenario = build_scenario(k, l, variant)
        ends = np.cumsum([4, 8, 16, 32, 20])  # the halvings after each stack, up to 80
        stacks = int(np.searchsorted(ends, -np.log2(scenario.mix_epsilon), side="right")) + 1
        assert calls == want and len(calls) == stacks, (k, l)


def _level_scores(c, t: int, n: int) -> np.ndarray:
    """The closed-form scores of the n atoms of build_worst_case at prefix level t for
    the prefix input sum_j c_j a_j, over a common factor: zero at atoms 0..t-1,
    |c_i (1 + mu_t) - mu_t S_t| at prefix atoms i >= t and mu_t |S_t| at the others, with
    mu_t = 1/(n-1-t) and S_t = c_t + ... + c_{l-1}; c_t may be a column of candidates."""
    c = np.asarray(c, dtype=float)
    mu, lead = 1.0 / (n - 1 - t), c.shape[:-1]
    s = c[..., t:].sum(axis=-1, keepdims=True)
    return np.concatenate((np.zeros((*lead, t)), np.abs(c[..., t:] * (1.0 + mu) - mu * s),
                           np.broadcast_to(mu * np.abs(s), (*lead, n - c.shape[-1]))), axis=-1)


@st.composite
def _grid_pairs(draw):
    """(k, l) with 1 <= k, 0 <= l < k and 2k-l <= 64, as the worstcase command allows."""
    k = draw(st.integers(1, 63))
    return k, draw(st.integers(max(0, 2 * k - 64), k - 1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_grid_pairs())
@example((63, 62))
@example((33, 2))
@example((32, 16))
def test_prefix_coefficients_are_the_least_that_keep_each_margin(pair):
    k, l = pair
    n, target = 2 * k - l, worstcase.PREFIX_MARGIN
    c = worstcase._prefix_coefficients(k, l)
    assert c.shape == (l,) and (l == 0 or np.abs(c).max() == 1.0)
    d = build_worst_case(k, l)
    for variant in ("omp", "ols"):
        pursuit = greedy._Pursuit(d.atoms, d.atoms[:, :l] @ c, l)
        for t in range(l):
            # a real pursuit pushed to level t scores as the closed form says, with the
            # factor of the equal projected norms
            _, real, _ = pursuit.select(greedy.as_variant(variant))
            _, norm_sq = projected_gram_closed_form(k, l, t)
            scale = norm_sq if variant == "omp" else np.sqrt(norm_sq)
            closed = _level_scores(c, t, n) * scale
            assert np.abs(closed - real).max() <= 1e-12 * real.max(), (t, variant)
            pursuit.push(t)
    for t in range(l):
        assert greedy._margins(_level_scores(c, t, n), t) >= target, t
        if t == l - 1:
            continue  # c_{l-1} is the scale, not a solved value
        # no c_t of smaller magnitude reaches the margin: a dense scan, denser near 0
        bound = abs(c[t]) * (1.0 - 1e-9)
        grid = np.concatenate((np.linspace(-bound, bound, 4001),
                               np.geomspace(bound * 1e-6, bound, 400)))
        grid = np.concatenate((grid, -grid))
        trial = np.repeat(c[None], len(grid), axis=0)
        trial[:, t] = grid
        assert not (greedy._margins(_level_scores(trial, t, n), t) >= target).any(), t


GRID = [(k, l) for k in range(1, 64) for l in range(max(0, 2 * k - 64), k)]


@pytest.mark.parametrize("k", range(1, 64))
def test_every_scenario_inside_the_cap_reproduces(k):
    # every (k, l, variant) with 2k-l <= 64, replayed by the worstcase command's rule: the
    # prefix, then the predicted wrong atom at iteration l; build_scenario has checked
    # that y lies within SPAN_TOL of the truth span
    for l in (l for kk, l in GRID if kk == k):
        for variant in ("omp", "ols"):
            s = build_scenario(k, l, variant)
            trace = run(variant, s.dictionary, s.y, k)
            assert cli._reproduces(s, trace, classify(trace, s.truth)), (k, l, variant)
            gap = np.linalg.norm(residual(s.dictionary, s.truth, s.y))
            assert gap <= worstcase.SPAN_TOL * np.linalg.norm(s.y)


def test_the_grid_has_every_scenario_inside_the_cap():
    assert len(GRID) * 2 == 2048 and max(2 * k - l for k, l in GRID) == 64
    assert {k for k, _ in GRID} == set(range(1, 64))  # the k of the replay test
