import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from greedycert import (Dictionary, GreedyTrace, InvalidArgs, InvalidSeed, RecoveryOutcome,
                        SolverVariant, Support, as_support, build_scenario, build_worst_case,
                        classify, greedy, make_instance, partial_erc, random_dictionary, run,
                        select_atom)

from oracles import EDGE_FLOATS, ols_candidate_norms, trace_dict_per_scalar


def test_variant_coercion():
    assert SolverVariant("omp") is SolverVariant.OMP
    tr = run("ols", random_dictionary(4, 4, seed=0), np.ones(4), 1)
    assert tr.variant == "ols"
    with pytest.raises(InvalidArgs):
        run("omps", random_dictionary(4, 4, seed=0), np.ones(4), 1)


def test_orthonormal_picks_largest_coefficients():
    d = Dictionary(np.eye(6))
    inst = make_instance(d, [1, 3, 5], [3.0, -2.0, 1.0])
    for variant in ("omp", "ols"):
        tr = run(variant, d, inst.observation, 3)
        assert list(tr.selected) == [1, 3, 5]  # magnitude order
        assert tr.tie_at is None
        assert classify(tr, [1, 3, 5]).is_success


def test_omp_equals_ols_on_orthonormal():
    rng = np.random.default_rng(0)
    for trial in range(25):
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        d = Dictionary(q)
        y = rng.standard_normal(8)
        a = run("omp", d, y, 4)
        b = run("ols", d, y, 4)
        assert a.selected == b.selected
        for sa, sb in zip(a.scores, b.scores):
            assert np.allclose(sa, sb, atol=1e-12)


def test_residual_norms_monotone():
    d = random_dictionary(10, 14, seed=3)
    y = np.random.default_rng(3).standard_normal(10)
    tr = run("omp", d, y, 5)
    norms = np.array(tr.residual_norms)
    assert len(norms) == len(tr.selected) + 1
    assert np.all(np.diff(norms) <= 1e-12)
    assert norms[0] == pytest.approx(np.linalg.norm(y))


def test_run_validation():
    d = random_dictionary(5, 8, seed=0)
    y = np.ones(5)
    with pytest.raises(InvalidArgs):
        run("omp", d, y, 0)
    with pytest.raises(InvalidArgs):
        run("omp", d, y, 6)  # k > m
    with pytest.raises(InvalidArgs):
        run("omp", Dictionary(np.eye(9)[:, :3]), np.ones(9), 4)  # k > n
    with pytest.raises(InvalidSeed):
        run("omp", d, y, 2, seed_support=[1, 1])
    with pytest.raises(InvalidSeed):
        run("omp", d, y, 2, seed_support=[0, 1])  # seed uses up the budget
    with pytest.raises(InvalidSeed):
        run("omp", d, y, 2, seed_support=[99])


def test_seeded_prefix_is_respected():
    d = random_dictionary(8, 12, seed=6)
    inst = make_instance(d, [2, 5, 9], [1.0, 1.0, 1.0])
    tr = run("ols", d, inst.observation, 3, seed_support=[5, 2])
    assert list(tr.selected)[:2] == [5, 2]
    assert tr.seeded == 2
    assert len(tr.scores) == 1  # only the non-seeded iteration scores atoms
    assert len(tr.residual_norms) == 4
    assert classify(tr, [2, 5, 9]).is_success


def test_tie_prefers_lowest_index():
    d = Dictionary(np.eye(4))
    y = np.array([1.0, 1.0, 0.0, 0.0])
    tr = run("omp", d, y, 2)
    assert list(tr.selected) == [0, 1]
    assert tr.tie_at == 0


def test_early_stop_on_zero_residual():
    d = Dictionary(np.eye(5))
    y = np.array([2.0, 1.0, 0.0, 0.0, 0.0])
    tr = run("omp", d, y, 4)
    assert list(tr.selected) == [0, 1]
    assert tr.early_stop == 2
    out = classify(tr, [0, 1, 2, 3])
    assert out.kind == RecoveryOutcome.EARLY_ZERO_RESIDUAL
    assert out.iteration == 2
    assert not out.is_success


def test_classify_wrong_atom():
    d = Dictionary(np.eye(4))
    tr = run("omp", d, np.array([1.0, 0.1, 0.0, 0.0]), 1)
    out = classify(tr, [2])
    assert out.kind == RecoveryOutcome.WRONG_ATOM
    assert out.iteration == 0 and out.atom == 0


def test_classify_tie_with_wrong_atom_takes_precedence():
    # scores tie between a true and a false atom; lowest index happens to be true
    d = Dictionary(np.eye(4))
    tr = run("omp", d, np.array([1.0, 1.0, 0.0, 0.0]), 2)
    out = classify(tr, [0, 3])
    assert out.kind == RecoveryOutcome.TIE_WITH_WRONG_ATOM
    assert out.iteration == 0
    out2 = classify(tr, [0, 1])
    assert out2.is_success


def test_classify_requires_consistent_truth():
    d = Dictionary(np.eye(4))
    tr = run("omp", d, np.array([1.0, 0.5, 0.25, 0.0]), 3)
    with pytest.raises(InvalidArgs):
        classify(tr, [0, 1])  # truth size must match requested k


def test_ols_selection_minimizes_new_residual():
    rng = np.random.default_rng(11)
    for trial in range(20):
        d = random_dictionary(8, 12, seed=200 + trial)
        y = rng.standard_normal(8)
        tr = run("ols", d, y, 4)
        chosen = list(tr.selected)
        for t, atom in enumerate(chosen):
            norms = ols_candidate_norms(d.atoms, chosen[:t], y)
            best = norms.min()
            assert norms[atom] <= best + 1e-9 * max(best, 1.0)
            assert norms[atom] == pytest.approx(tr.residual_norms[t + 1], abs=1e-9)


def test_omp_selects_largest_residual_correlation():
    rng = np.random.default_rng(13)
    for trial in range(20):
        d = random_dictionary(7, 11, seed=300 + trial)
        y = rng.standard_normal(7)
        tr = run("omp", d, y, 3)
        sel = list(tr.selected)
        for t, atom in enumerate(sel):
            # recompute the residual independently and correlate raw atoms
            from oracles import residual_oracle
            r = residual_oracle(d.atoms, sel[:t], y)
            scores = np.abs(d.atoms.T @ r)
            scores[sel[:t]] = 0.0
            assert scores[atom] == pytest.approx(scores.max(), rel=1e-9)


def test_select_atom_zero_residual_raises():
    from greedycert import ZeroResidual
    d = random_dictionary(5, 7, seed=0)
    with pytest.raises(ZeroResidual):
        select_atom("omp", d, [], np.zeros(5))


def test_select_atom_rejects_a_support_of_every_atom():
    # no atom is left to select: the lowest-unselected fallback has none to pick
    d = Dictionary(np.eye(3)[:, :2])
    with pytest.raises(InvalidArgs):
        select_atom("omp", d, [0, 1], [0.0, 0.0, 1.0])
    with pytest.raises(InvalidArgs):
        select_atom("ols", d, [1, 0], np.zeros(3))  # checked before the residual
    assert select_atom("omp", d, [1], [1.0, 0.0, 0.0]) == (0, 1.0, False)


def test_trace_serialization():
    d = build_worst_case(3, 1)
    from greedycert import build_scenario
    s = build_scenario(3, 1, "omp")
    tr = run("omp", d, s.y, 3)
    out = classify(tr, s.truth)
    blob = json.loads(tr.to_json(out))
    assert blob["variant"] == "omp"
    assert blob["selected"] == list(tr.selected)
    assert blob["outcome"]["kind"] == out.kind
    assert len(blob["scores"]) == len(tr.scores)
    assert blob["tie_at"] == tr.tie_at


@settings(max_examples=100, deadline=None, derandomize=True)
@given(arrays(float, st.tuples(st.integers(0, 4), st.integers(2, 7)), elements=st.floats()),
       arrays(float, st.integers(1, 5), elements=st.floats()))
@example(np.array([EDGE_FLOATS]), np.array(EDGE_FLOATS))
def test_trace_to_dict_keeps_the_float_lists(scores, norms):
    tr = GreedyTrace(SolverVariant.OMP, len(scores), 0, Support(tuple(range(len(scores)))),
                     tuple(scores), tuple(norms), None, None)
    # repr tells -0.0 from 0.0 and a Python float from a numpy scalar, and equates nans
    assert repr(tr.to_dict()) == repr(trace_dict_per_scalar(tr))


@pytest.mark.parametrize("variant", ["omp", "ols"])
def test_replay_to_dict_keeps_the_float_lists(variant):
    for k, l in [(2, 0), (3, 1), (5, 3)]:
        s = build_scenario(k, l, variant)
        tr = run(variant, s.dictionary, s.y, k, seed_support=list(s.partial)[:1])
        out = classify(tr, s.truth)
        assert tr.scores and tr.seeded == min(l, 1)
        assert repr(tr.to_dict(out)) == repr(trace_dict_per_scalar(tr, out))


def test_run_is_deterministic():
    d = random_dictionary(9, 13, seed=21)
    y = np.random.default_rng(21).standard_normal(9)
    a = run("ols", d, y, 5)
    b = run("ols", d, y, 5)
    assert a.selected == b.selected
    assert all(x.tobytes() == y2.tobytes() for x, y2 in zip(a.scores, b.scores))
    assert a.residual_norms == b.residual_norms


# classify's precedence, pinned on hand-made traces and checked against the
# batched classification the sweeps use, with the traces stacked as rows

def _made(selected, scores, k=3, seeded=0, early_stop=None):
    return GreedyTrace(variant=SolverVariant.OMP, requested=k, seeded=seeded,
                       selected=Support(tuple(selected)),
                       scores=tuple(np.asarray(s, dtype=float) for s in scores),
                       residual_norms=(), tie_at=None, early_stop=early_stop)


def _stacked_kinds(traces, truths, n=None):
    """The batched classification of traces that share k, seeded and n (by default
    the length of the first trace's first score vector)."""
    k, seeded = traces[0].requested, traces[0].seeded
    n = len(traces[0].scores[0]) if n is None else n
    selected = np.full((len(traces), k), -1)
    scores = np.zeros((len(traces), k - seeded, n))
    planted = np.zeros((len(traces), n), dtype=bool)
    stops = np.full(len(traces), k)
    for i, (tr, truth) in enumerate(zip(traces, truths)):
        selected[i, :len(tr.selected)] = tr.selected.indices
        scores[i, :len(tr.scores)] = np.reshape(tr.scores, (-1, n))
        planted[i, list(truth)] = True
        if tr.early_stop is not None:
            stops[i] = tr.early_stop
    return [greedy._KINDS[c] for c in greedy._outcomes(planted, seeded, selected, scores, stops)]


def test_classify_precedence_matches_the_batched_classification():
    S, W, T, E = (RecoveryOutcome.SUCCESS, RecoveryOutcome.WRONG_ATOM,
                  RecoveryOutcome.TIE_WITH_WRONG_ATOM, RecoveryOutcome.EARLY_ZERO_RESIDUAL)
    steps = [[3, 0, 0, 0, 0, 1], [0, 3, 0, 0, 1, 0], [0, 0, 3, 1, 0, 0]]
    made = [  # (trace, expected outcome) with truth {0, 1, 2} among n = 6 atoms
        (_made([0, 1, 2], steps), RecoveryOutcome(S)),
        (_made([0, 4, 1], [steps[0], [0, 1, 0, 0, 3, 0], steps[1]]), RecoveryOutcome(W, 1, 4)),
        # an exact tie with outside atom 3, though the tiebreak picks planted atom 0
        (_made([0, 1, 2], [[2, 0, 0, 2, 0, 0]] + steps[1:]), RecoveryOutcome(T, 0)),
        # a wrong atom picked from a tie: the tie decides
        (_made([0, 3, 1], [steps[0], [0, 1, 0, 2, 0, 2], steps[1]]), RecoveryOutcome(T, 1)),
        # a wrong atom before a tie: the wrong atom decides
        (_made([4, 1, 0], [[0, 0, 0, 0, 3, 1], [2, 2, 0, 2, 0, 0], steps[0]]),
         RecoveryOutcome(W, 0, 4)),
        (_made([0, 1], steps[:2], early_stop=2), RecoveryOutcome(E, 2)),
        # every score zero: the fallback's pick counts, its tie flag does not
        (_made([0, 1, 2], steps[:2] + [[0.0] * 6]), RecoveryOutcome(S)),
        (_made([0, 1, 3], steps[:2] + [[0.0] * 6]), RecoveryOutcome(W, 2, 3)),
        # a tie between planted atoms only is no failure
        (_made([0, 1, 2], [[2, 2, 0, 0, 0, 1]] + steps[1:]), RecoveryOutcome(S)),
    ]
    traces, expected = zip(*made)
    truths = [[0, 1, 2]] * len(made)
    assert [classify(tr, t) for tr, t in zip(traces, truths)] == list(expected)
    assert _stacked_kinds(traces, truths) == [out.kind for out in expected]
    seeded = [_made([2, 0, 1], steps[:2], seeded=1),
              _made([2, 0, 3], [steps[0], [0, 1, 0, 1, 0, 0]], seeded=1),
              _made([5, 0, 1], steps[:2], seeded=1)]
    expected = [RecoveryOutcome(S), RecoveryOutcome(T, 2), RecoveryOutcome(W, 0, 5)]
    assert [classify(tr, [0, 1, 2]) for tr in seeded] == expected
    assert _stacked_kinds(seeded, truths[:3]) == [out.kind for out in expected]


def test_classify_precedence_on_pursuits():
    sc = build_scenario(3, 1, "omp")  # ties with an outside atom by construction
    tie = run("omp", sc.dictionary, sc.y, 3)
    wrong = run("omp", Dictionary(np.eye(4)), np.array([1.0, 0.1, 0.0, 0.0]), 1)
    early = run("omp", Dictionary(np.eye(5)), np.array([2.0, 1.0, 0.0, 0.0, 0.0]), 4)
    fallback = run("omp", Dictionary(np.eye(4)[:, :3]), np.eye(4)[:, 3], 2)
    cases = [(tie, sc.truth, RecoveryOutcome.TIE_WITH_WRONG_ATOM),
             (wrong, [2], RecoveryOutcome.WRONG_ATOM),
             (early, [0, 1, 2, 3], RecoveryOutcome.EARLY_ZERO_RESIDUAL),
             (fallback, [0, 1], RecoveryOutcome.SUCCESS)]
    assert fallback.tie_at == 0 and not any(s.any() for s in fallback.scores)
    for trace, truth, kind in cases:
        assert classify(trace, truth).kind == kind and _stacked_kinds([trace], [truth]) == [kind]


@st.composite
def _trace_batches(draw):
    """Traces of k selections among n atoms that share k, seeded and n, with their
    planted supports: seeded prefixes, outside atoms, exact ties (score entries
    from {0, 1, 2}), all-zero fallback steps and early stops."""
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, n - 1))
    seeded = draw(st.integers(0, k - 1))
    traces, truths = [], []
    for _ in range(draw(st.integers(1, 4))):
        truth = draw(st.permutations(range(n)))[:k]
        stop = draw(st.integers(seeded, k))
        selected = draw(st.lists(st.sampled_from(truth) | st.integers(0, n - 1), min_size=stop,
                                 max_size=stop, unique=True))
        entries = st.sampled_from([0.0, 1.0, 2.0])
        scores = [[0.0] * n if draw(st.booleans()) else draw(st.lists(entries, min_size=n, max_size=n))
                  for _ in range(stop - seeded)]
        traces.append(_made(selected, scores, k=k, seeded=seeded,
                            early_stop=stop if stop < k else None))
        truths.append(truth)
    return n, traces, truths


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_trace_batches())
def test_classify_matches_the_batched_classification_on_random_traces(batch):
    n, traces, truths = batch
    expected = [classify(tr, truth).kind for tr, truth in zip(traces, truths)]
    assert _stacked_kinds(traces, truths, n) == expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.permutations(range(6)), st.integers(2, 5), st.data())
def test_supports_keep_order_while_set_checks_compare_contents(perm, k, data):
    truth = perm[:k]
    assert as_support(truth).indices == tuple(truth) and list(Support(tuple(truth))) == truth
    assert (Support(tuple(truth)) == Support(tuple(sorted(truth)))) == (truth == sorted(truth))
    d = Dictionary(np.eye(6))
    y = make_instance(d, truth, np.arange(k, 0, -1.0)).observation  # coefficients k, ..., 1
    seeds = data.draw(st.integers(0, k - 1))
    seed = truth[:seeds][::-1]
    trace = run("omp", d, y, k, seed_support=seed)
    assert list(trace.selected) == seed + truth[seeds:]  # the seed in its order, then by size
    shuffled = data.draw(st.permutations(truth))
    assert classify(trace, shuffled) == classify(trace, truth) == RecoveryOutcome("success")
    assert partial_erc("ols", d, data.draw(st.permutations(seed)), shuffled).satisfied
    with pytest.raises(InvalidArgs):  # a prefix must be a proper subset, in any order
        partial_erc("ols", d, shuffled, truth)
