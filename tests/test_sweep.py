import dataclasses
import itertools
import json
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedycert import (Dictionary, InvalidArgs, SweepConfig, TargetUnreachable, coherence,
                        coherence_threshold, dictionary, random_dictionaries, run_sweep, sweep,
                        welch_bound)

from oracles import random_dictionary_per_trial, sweep_per_trial


def small_config(**overrides):
    base = dict(m=12, n=12, k_range=(2, 3), l_range=(0, 1), trials=4,
                coherence_target="threshold", seed=5, variant="both", seed_partial=True)
    base.update(overrides)
    return SweepConfig(**base)


def test_config_cells_and_targets():
    cfg = small_config()
    assert cfg.cells() == [(2, 0), (2, 1), (3, 0), (3, 1)]
    t = cfg.cell_target(3, 1)
    assert t == pytest.approx((1.0 - 1e-3) * coherence_threshold(3, 1))
    cfg2 = small_config(coherence_target=0.2)
    assert cfg2.cell_target(3, 1) == 0.2
    assert small_config(coherence_target=None).cell_target(2, 0) is None


def test_config_validation():
    with pytest.raises(InvalidArgs):
        small_config(trials=0)
    with pytest.raises(InvalidArgs):
        small_config(k_range=(3, 2))
    with pytest.raises(InvalidArgs):
        small_config(variant="both!" )
    with pytest.raises(InvalidArgs):
        small_config(coherence_target="thresh")
    for bad in (-0.5, float("nan"), float("inf"), [0.2], True, False):
        with pytest.raises(InvalidArgs):
            small_config(coherence_target=bad)
    assert small_config(coherence_target=0).coherence_target == 0
    with pytest.raises(InvalidArgs):
        small_config(seed=-1)
    # built directly, a config takes the types from_dict takes and coerces nothing
    for field, bad in (("seed_partial", "false"), ("seed_partial", 1), ("trials", 2.5),
                       ("trials", True), ("m", 12.0), ("seed", None), ("k_range", (2.0, 3)),
                       ("l_range", 1)):
        with pytest.raises(InvalidArgs):
            small_config(**{field: bad})
    with pytest.raises(InvalidArgs):
        # no cell satisfies l < k <= min(m, n)
        SweepConfig(m=12, n=12, k_range=(2, 2), l_range=(2, 4), trials=3,
                    coherence_target=None, seed=0, variant="omp", seed_partial=False)


def test_config_dict_roundtrip():
    cfg = small_config()
    again = SweepConfig.from_dict(cfg.to_dict())
    assert again == cfg
    with pytest.raises(InvalidArgs):
        SweepConfig.from_dict({**cfg.to_dict(), "unknown_field": 1})
    missing = cfg.to_dict()
    del missing["trials"]
    with pytest.raises(InvalidArgs):
        SweepConfig.from_dict(missing)


def test_python_and_json_configs_are_the_same_schema():
    for extra, variant in (({}, "both"), ({"variant": "OMP"}, "omp")):
        built = SweepConfig(m=8, n=8, k_range=[2, 2], l_range=[0, 0], trials=1, **extra)
        loaded = SweepConfig.from_dict({**json.loads(
            '{"m": 8, "n": 8, "k_range": [2, 2], "l_range": [0, 0], "trials": 1}'), **extra})
        assert built == loaded and hash(built) == hash(loaded)
        assert built.k_range == loaded.k_range == (2, 2)
        assert (built.coherence_target, built.seed, built.variant, built.seed_partial) == (
            None, 0, variant, False)


def test_config_takes_large_integer_targets_that_fit_a_float():
    assert small_config(coherence_target=10 ** 20).cell_target(2, 0) == 1e20
    with pytest.raises(InvalidArgs, match="coherence_target"):
        small_config(coherence_target=10 ** 400)


def test_config_cells_do_not_walk_past_the_shape():
    cfg = small_config(k_range=(2, 10 ** 12), l_range=(0, 10 ** 12))
    assert cfg.cells() == [(k, l) for k in range(2, 13) for l in range(k)]
    with pytest.raises(InvalidArgs, match="no cell"):
        small_config(k_range=(13, 10 ** 12))
    with pytest.raises(InvalidArgs, match="no cell"):
        small_config(l_range=(12, 10 ** 12))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 30) | st.sampled_from([10 ** 20, 10 ** 400])
    | st.floats() | st.text(max_size=4) | st.sampled_from(["threshold", "OMP", "ols", "both"]),
    lambda values: st.lists(values, max_size=3) | st.dictionaries(st.text(max_size=3), values,
                                                                  max_size=2),
    max_leaves=4)
FIELD_NAMES = [f.name for f in dataclasses.fields(SweepConfig)]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(from_good=st.booleans(),
       raw=st.dictionaries(st.sampled_from(FIELD_NAMES),
                           JSON_VALUES | st.lists(st.integers(-1, 12), min_size=2, max_size=2),
                           max_size=6),
       junk=st.none() | st.tuples(st.text(max_size=4), JSON_VALUES))
def test_from_dict_returns_a_config_or_raises_invalid_args(from_good, raw, junk):
    good = dict(m=8, n=8, k_range=[2, 2], l_range=[0, 0], trials=1) if from_good else {}
    raw = {**good, **raw, **dict([junk] if junk else [])}
    try:
        cfg = SweepConfig.from_dict(raw)
    except InvalidArgs:
        return
    assert SweepConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
    assert hash(cfg) == hash(dataclasses.replace(cfg))


def test_run_sweep_counts_and_success():
    report = run_sweep(small_config())
    # one row per (cell, variant), cells ordered, omp before ols inside a cell
    assert len(report.cells) == 8
    for cell in report.cells:
        assert cell.requested == 4
        assert cell.accepted == 4  # threshold targets are reachable at 12x12
        total = cell.successes + cell.wrong_atoms + cell.wrong_ties + cell.early_stops
        assert total == cell.accepted
        assert cell.successes == cell.accepted  # below threshold: guaranteed
        assert cell.mu_max < coherence_threshold(cell.k, cell.l)
        assert cell.success_rate == 1.0
        assert not cell.skipped


def test_run_sweep_unreachable_cells_are_skipped():
    cfg = SweepConfig(m=6, n=12, k_range=(2, 2), l_range=(0, 0), trials=3,
                      coherence_target=0.05, seed=1, variant="omp", seed_partial=False)
    report = run_sweep(cfg)
    (cell,) = report.cells
    assert cell.skipped and cell.accepted == 0
    assert cell.skip_reason == sweep.SKIP_BELOW_WELCH
    assert np.isnan(cell.success_rate) and np.isnan(cell.mu_mean)


SKIPPED_CELLS = [  # (config overrides, THRESHOLD_SAFETY, the cells' skip reason)
    # 0.05 is below the 6x12 Welch bound, about 0.30: no trial is drawn
    (dict(m=6, n=12, coherence_target=0.05), None, sweep.SKIP_BELOW_WELCH),
    # above the 20x30 Welch bound, about 0.131, but out of the shrinkage's reach
    (dict(m=20, n=30, coherence_target=0.14), None, sweep.SKIP_UNREACHED),
    # a target of 0 at 12x12, below the coherence that rounding leaves in an orthonormal frame
    (dict(coherence_target=0.0), None, sweep.SKIP_ROUNDING),
    # a negative safety puts the target above the threshold: the search lands every trial
    # within the target, and the defensive check drops them all
    (dict(m=16, n=16), -0.5, sweep.SKIP_DROPPED),
]


@pytest.mark.parametrize("overrides, safety, reason", SKIPPED_CELLS,
                         ids=["below_welch", "unreached", "rounding", "dropped"])
def test_a_skipped_cell_says_why(monkeypatch, overrides, safety, reason):
    if safety is not None:
        monkeypatch.setattr(sweep, "THRESHOLD_SAFETY", safety)
    cfg = small_config(**{"k_range": (2, 2), "l_range": (0, 0), "trials": 3, **overrides})
    report = run_sweep(cfg)
    cells = [(c.skipped, c.accepted, c.skip_reason) for c in report.cells]
    assert cells == [(True, 0, reason)] * 2
    if reason == sweep.SKIP_DROPPED:  # each trial reached its target, above the threshold
        target, seeds = cfg.cell_target(2, 0), [[cfg.seed, 2, 0, t] for t in range(3)]
        assert target > coherence_threshold(2, 0)
        for d in random_dictionaries(cfg.m, cfg.n, target, seeds):
            assert coherence_threshold(2, 0) <= coherence(d) <= target
    reference = sweep_per_trial(cfg)
    assert report.to_csv() == reference.to_csv()
    assert report.to_json() == reference.to_json()


def test_the_skip_reasons_are_distinct():
    reasons = {sweep.SKIP_BELOW_WELCH, sweep.SKIP_UNREACHED, sweep.SKIP_ROUNDING,
               sweep.SKIP_DROPPED}
    assert len(reasons) == 4 and all(reasons)


def test_run_sweep_deterministic():
    cfg = small_config(trials=6)
    a, b, c = (run_sweep(cfg) for _ in range(3))
    assert a.to_csv() == b.to_csv() == c.to_csv()
    assert a.to_json() == b.to_json()
    # the seed matters once mu isn't pinned to a target by the blend search
    free = dict(coherence_target=None, trials=6)
    assert (run_sweep(small_config(seed=6, **free)).to_csv()
            != run_sweep(small_config(seed=5, **free)).to_csv())


def test_csv_shape():
    report = run_sweep(small_config(variant="omp"))
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "variant,k,l,mu_mean,threshold,success_rate,tie_rate"
    assert len(lines) == 1 + 4
    row = lines[1].split(",")
    assert row[0] == "omp" and row[1] == "2" and row[2] == "0"
    float(row[3]), float(row[5])  # parse


def test_report_json_carries_config():
    report = run_sweep(small_config(variant="ols", trials=2))
    blob = json.loads(report.to_json())
    assert blob["config"]["variant"] == "ols"
    assert blob["config"]["coherence_target"] == "threshold"
    assert len(blob["cells"]) == 4
    assert all(c["variant"] == "ols" for c in blob["cells"])


def test_run_sweep_takes_no_jobs():
    with pytest.raises(TypeError):
        run_sweep(small_config(), jobs=1)


def test_jobs_start_no_thread(monkeypatch):
    cfg = small_config(trials=2)
    serial = run_sweep(cfg)
    started = []

    def refuse(thread):
        started.append(thread)
        raise AssertionError("run_sweep started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    before = threading.active_count()
    report = run_sweep(cfg)
    assert not started and threading.active_count() == before
    assert report.to_csv() == serial.to_csv()
    assert report.to_json() == serial.to_json()


def per_trial_batches(m, n, target, seeds):
    """A cell's dictionaries from one per-trial oracle call each, as one (atoms, reached,
    coherences) batch."""
    if target is not None and target < welch_bound(m, n):
        raise TargetUnreachable("below the Welch bound")
    draws = [random_dictionary_per_trial(m, n, target, s)[1] for s in seeds]
    reached = np.array([atoms is not None for atoms in draws], dtype=bool)
    mus = np.array([np.inf if a is None else coherence(Dictionary(a)) for a in draws])
    yield (np.array([np.zeros((m, n)) if a is None else a for a in draws]).reshape(-1, m, n),
           reached, mus)


@pytest.mark.parametrize("overrides, accepted", [
    ({}, [6, 6, 6, 6]),  # the blend search at 12x12
    (dict(m=8, n=10, k_range=(2, 4)), [6, 6, 6, 6, 0, 0]),  # shrinkage; (4, l) below Welch
    (dict(m=8, n=10, k_range=(2, 2), coherence_target=0.1869), [2, 3]),  # shrinkage mostly fails
])
def test_run_sweep_matches_per_trial_generation(monkeypatch, overrides, accepted):
    cfg = small_config(**{"trials": 6, **overrides})
    batched = [run_sweep(cfg) for _ in range(2)]
    monkeypatch.setattr(sweep, "_batches", per_trial_batches)
    reference = run_sweep(cfg)
    assert [c.accepted for c in reference.cells if c.variant == "omp"] == accepted
    for report in batched:
        assert report.to_csv() == reference.to_csv()
        assert report.to_json() == reference.to_json()


CRITERION_CONFIGS = {  # the sweeps of acceptance criteria 2, 3 and 9 (also the README example)
    2: dict(m=16, n=16, k_range=(2, 5), l_range=(0, 4), trials=75,
            coherence_target="threshold", seed=1234, variant="both", seed_partial=True),
    3: dict(m=16, n=16, k_range=(2, 5), l_range=(0, 0), trials=130,
            coherence_target="threshold", seed=99, variant="both", seed_partial=False),
    9: dict(m=12, n=12, k_range=(2, 4), l_range=(0, 2), trials=10,
            coherence_target="threshold", seed=4242, variant="both", seed_partial=True),
}


@pytest.mark.parametrize("overrides", [
    dict(trials=6),
    dict(trials=6, m=8, n=10, k_range=(2, 4)),
    dict(trials=6, m=8, n=10, k_range=(2, 2), coherence_target=0.1869),
    *CRITERION_CONFIGS.values(),
])
def test_run_sweep_matches_the_per_trial_sweep(overrides):
    cfg = small_config(**overrides)
    reference = sweep_per_trial(cfg)
    for report in (run_sweep(cfg), run_sweep(cfg)):
        assert report.to_csv() == reference.to_csv()
        assert report.to_json() == reference.to_json()


BISECT_GAP = 1e-5  # a relative gap below the target that holds a searched blend's coherence


@pytest.mark.parametrize("overrides", [
    # the benchmark's 16x16 threshold cells, at three of its seeds
    *(dict(m=16, n=16, k_range=(2, 5), l_range=(0, 4), trials=20, seed=s) for s in range(3)),
    *CRITERION_CONFIGS.values(),
])
def test_bisected_trials_sit_just_below_their_target(overrides):
    # the blend search keeps the low end of its bracket, always within the target, and
    # every trial stops there by the gap dictionary.BLEND_GAP, none by the probe cap
    cfg = small_config(**overrides)
    bisected = 0
    for k, l in cfg.cells():
        target = cfg.cell_target(k, l)
        seeds = [[cfg.seed, k, l, t] for t in range(cfg.trials)]
        for seed, d in zip(seeds, random_dictionaries(cfg.m, cfg.n, target, seeds)):
            if random_dictionary_per_trial(cfg.m, cfg.n, target, seed)[0] == "bisect":
                assert target * (1.0 - BISECT_GAP) <= coherence(d) <= target, (k, l, seed)
                assert target - coherence(d) <= dictionary.BLEND_GAP * target, (k, l, seed)
                bisected += 1
    assert bisected == cfg.trials * len(cfg.cells())


@pytest.mark.parametrize("overrides", [
    dict(trials=8),
    dict(trials=8, m=6, n=10, k_range=(3, 4), coherence_target=None),  # outcomes vary by trial
    dict(trials=7, m=8, n=10, k_range=(2, 2), coherence_target=0.1869),  # batches with none
])
def test_run_sweep_in_small_batches_matches_the_per_trial_sweep(monkeypatch, overrides):
    cfg = small_config(**overrides)
    # two trials a batch
    monkeypatch.setattr(dictionary, "BATCH_ELEMENTS", 2 * cfg.n * max(cfg.m, cfg.n))
    report = run_sweep(cfg)
    reference = sweep_per_trial(cfg)
    assert report.to_csv() == reference.to_csv()
    assert report.to_json() == reference.to_json()


# the 0.999 quantiles of chi-square with 2 and 14 degrees of freedom
CHI2_999 = {2: 13.816, 14: 36.123}


def _chi2(counts) -> float:
    expected = sum(counts) / len(counts)
    return sum((c - expected) ** 2 / expected for c in counts)


def _drawn_trials(monkeypatch, **overrides) -> list:
    """Per accepted trial of an unconstrained omp sweep: its support (sorted), its seeded
    atoms and its coefficients on the support, solved back from its observation."""
    stacks, pursue, outcomes = [], sweep._pursue, sweep._outcomes

    def recording_pursue(variant, atoms, ys, k, seeds):
        stacks.append([atoms, ys, seeds])
        return pursue(variant, atoms, ys, k, seeds)

    def recording_outcomes(planted, *args):
        stacks[-1].append(planted)
        return outcomes(planted, *args)

    monkeypatch.setattr(sweep, "_pursue", recording_pursue)
    monkeypatch.setattr(sweep, "_outcomes", recording_outcomes)
    run_sweep(small_config(m=6, n=6, variant="omp", coherence_target=None, **overrides))
    trials = []
    for atoms, ys, seeds, planted in stacks:
        for a, y, seed, mask in zip(atoms, ys, seeds, planted):
            support = np.flatnonzero(mask)
            trials.append((tuple(support.tolist()), seed.tolist(),
                           np.linalg.lstsq(a[:, support], y, rcond=None)[0]))
    return trials


def test_supports_are_uniform_k_subsets(monkeypatch):
    trials = _drawn_trials(monkeypatch, k_range=(2, 2), l_range=(0, 0), trials=1500,
                           seed_partial=False)
    counts = Counter(support for support, _, _ in trials)
    assert len(trials) == 1500 and set(counts) == set(itertools.combinations(range(6), 2))
    assert _chi2(list(counts.values())) < CHI2_999[14], counts


def test_seeded_atoms_are_a_uniform_subset_of_the_support(monkeypatch):
    trials = _drawn_trials(monkeypatch, k_range=(3, 3), l_range=(1, 2), trials=600)
    for l in (1, 2):
        # which of the support's three atoms (in index order) are seeded
        places = Counter(tuple(support.index(i) for i in sorted(seed))
                         for support, seed, _ in trials if len(seed) == l)
        assert sum(places.values()) == 600 and set(places) == set(
            itertools.combinations(range(3), l))
        assert _chi2(list(places.values())) < CHI2_999[2], places


def test_coefficients_have_magnitudes_in_the_stated_range_and_both_signs(monkeypatch):
    coeffs = np.concatenate([c for _, _, c in _drawn_trials(
        monkeypatch, k_range=(2, 3), l_range=(0, 1), trials=200)])
    magnitudes = np.abs(coeffs)
    assert 0.5 - 1e-9 <= magnitudes.min() < 0.55 and 1.45 < magnitudes.max() < 1.5 + 1e-9
    assert (coeffs > 0).any() and (coeffs < 0).any()


def test_each_cell_draws_its_outcomes_from_one_stream_apart_from_the_dictionaries(monkeypatch):
    rows, batch_outcomes = [], sweep._batch_outcomes

    def recording(config, k, l, counts, u, *args):
        rows.append(u)
        return batch_outcomes(config, k, l, counts, u, *args)

    monkeypatch.setattr(sweep, "_batch_outcomes", recording)
    monkeypatch.setattr(dictionary, "BATCH_ELEMENTS", 2 * 6 * 6)  # two trials a batch
    cfg = small_config(m=6, n=6, k_range=(2, 2), l_range=(1, 1), trials=5, coherence_target=None)
    run_sweep(cfg)
    u = np.concatenate(rows)
    # row t of the stream seeded [seed, k, l, 0, 1] is trial t's, across the batches
    assert np.array_equal(u, np.random.default_rng([cfg.seed, 2, 1, 0, 1]).random((5, 6 + 4)))
    # and no trial's dictionary seed [seed, k, l, t] gives that stream: trial 0's included,
    # which [seed, k, l] would give, since numpy pads a short seed with zeros
    for t in range(cfg.trials):
        assert not np.array_equal(u, np.random.default_rng([cfg.seed, 2, 1, t]).random(u.shape))


def test_run_sweep_cell_is_generated_in_the_generator_batches(monkeypatch):
    # n > m: a batch holds BATCH_ELEMENTS // (n*max(m, n)) trials, all made by one _generate
    # call, and each variant pursues the batch's accepted trials before the next is made
    events = []
    generate, pursue = dictionary._generate, sweep._pursue

    def recording_generate(m, n, target, seeds):
        atoms, reached, mus = generate(m, n, target, seeds)
        events.append(("generate", len(seeds), int(reached.sum())))
        return atoms, reached, mus

    def recording_pursue(variant, atoms, *args):
        events.append(("pursue", len(atoms)))
        return pursue(variant, atoms, *args)

    monkeypatch.setattr(dictionary, "_generate", recording_generate)
    monkeypatch.setattr(sweep, "_pursue", recording_pursue)
    monkeypatch.setattr(dictionary, "BATCH_ELEMENTS", 3 * 4 * 4 + 1)  # three 3x4 trials
    cfg = small_config(m=3, n=4, k_range=(2, 2), l_range=(1, 1), trials=7, coherence_target=0.7748)
    report = run_sweep(cfg)
    generated = [e for e in events if e[0] == "generate"]
    assert [size for _, size, _ in generated] == [3, 3, 1]
    assert events == [e for g in generated for e in [g] + [("pursue", g[2])] * 2 * (g[2] > 0)]
    reference = sweep_per_trial(cfg)
    assert report.to_csv() == reference.to_csv()
    assert report.to_json() == reference.to_json()


def test_run_sweep_memory_does_not_grow_with_trials():
    # a cell generates, pursues and drops its dictionaries one batch of trials at a time
    def peak(trials):
        cfg = SweepConfig(m=16, n=16, k_range=(3, 3), l_range=(1, 1), trials=trials,
                          coherence_target="threshold", variant="omp")
        tracemalloc.start()
        try:
            run_sweep(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(250)  # warm-up: allocations made once per process stay out of the comparison
    peaks = {trials: peak(trials) for trials in (250, 4000)}
    assert peaks[4000] <= 1.2 * peaks[250], peaks


def test_run_sweep_tally_does_not_grow_with_trials(monkeypatch):
    # a cell keeps a running tally of its accepted coherences, not one entry per trial:
    # with batches of 16 tiny trials no batch's arrays hide a list that grows with them
    monkeypatch.setattr(dictionary, "BATCH_ELEMENTS", 16 * 4 * 4)

    def peak(trials):
        cfg = SweepConfig(m=4, n=4, k_range=(1, 1), l_range=(0, 0), trials=trials,
                          coherence_target=None, variant="omp")
        tracemalloc.start()
        try:
            run_sweep(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(256)  # warm-up: allocations made once per process stay out of the comparison
    peaks = {trials: peak(trials) for trials in (256, 4096)}
    assert peaks[4096] <= 1.2 * peaks[256], peaks


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), m=st.integers(3, 10), extra=st.integers(0, 6),
       target=st.sampled_from([None, "threshold", "number"]), seed=st.integers(0, 10 ** 6),
       variant=st.sampled_from(["omp", "ols", "both"]), seed_partial=st.booleans())
def test_run_sweep_matches_the_per_trial_sweep_property(data, m, extra, target, seed, variant,
                                                         seed_partial):
    n = m + extra
    k_hi = data.draw(st.integers(1, m), label="k_hi")
    k_lo = data.draw(st.integers(max(1, k_hi - 1), k_hi), label="k_lo")
    l_lo = data.draw(st.integers(0, k_hi - 1), label="l_lo")
    l_hi = data.draw(st.integers(l_lo, min(l_lo + 2, k_hi - 1)), label="l_hi")
    if target == "number":
        target = data.draw(st.floats(0.05, 0.95), label="target")
    cfg = SweepConfig(m=m, n=n, k_range=(k_lo, k_hi), l_range=(l_lo, l_hi),
                      trials=data.draw(st.integers(1, 3), label="trials"),
                      coherence_target=target, seed=seed, variant=variant,
                      seed_partial=seed_partial)
    report = run_sweep(cfg)
    for reference in (sweep_per_trial(cfg), sweep_per_trial(cfg, scratch=True)):
        assert report.to_csv() == reference.to_csv()
        assert report.to_json() == reference.to_json()
