import hashlib
import os
import stat
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from greedycert import (CapExceeded, Dictionary, InvalidArgs, InvalidSeed, Support,
                        TargetUnreachable, as_support, build_worst_case, coherence,
                        coherence_threshold, dictionary, gram, load_dictionary, load_vector,
                        make_instance, random_dictionaries, random_dictionary, run,
                        save_dictionary, save_vector, spark, welch_bound)
from greedycert.sweep import THRESHOLD_SAFETY

from oracles import (EDGE_FLOATS, _haar_frame, csv_lines_per_scalar, json_dumps_indented,
                     random_dictionary_per_trial, shrink_gram_full_budget, spark_bruteforce)


def unit(cols):
    a = np.asarray(cols, dtype=float)
    return a / np.linalg.norm(a, axis=0)


def test_dictionary_validation():
    with pytest.raises(InvalidArgs):
        Dictionary(np.ones(4))  # not 2-D
    with pytest.raises(InvalidArgs):
        Dictionary(np.eye(3)[:, :1])  # n < 2
    with pytest.raises(InvalidArgs):
        Dictionary(2.0 * np.eye(3))  # not unit norm
    bad = np.eye(3)
    bad[0, 0] = np.nan
    with pytest.raises(InvalidArgs):
        Dictionary(bad)
    d = Dictionary(np.eye(3))
    assert d.m == 3 and d.n == 3
    with pytest.raises(ValueError):
        d.atoms[0, 0] = 5.0  # read-only


def test_atoms_are_c_ordered_whatever_the_input_layout():
    a = random_dictionary(4, 6, seed=0).atoms
    strided = np.zeros((8, 18))
    strided[::2, ::3] = a
    for given in (a.copy(), np.asfortranarray(a), strided[::2, ::3], a.tolist()):
        atoms = Dictionary(given).atoms
        assert atoms.flags.c_contiguous and atoms.dtype == np.float64
        assert not atoms.flags.writeable and not np.shares_memory(atoms, strided)
        assert atoms.tobytes() == a.tobytes()
    assert Dictionary(np.eye(3, dtype=np.int32)).atoms.tobytes() == np.eye(3).tobytes()


# not arrays of real numbers: complex entries (whose imaginary part a cast would drop),
# strings, bools and ragged rows
NOT_REAL_ARRAYS = {
    "complex": lambda a: a + 0.5j,
    "strings": lambda a: a.astype(str),
    "bools": lambda a: a != 0,
    "ragged": lambda a: [a.tolist(), a.tolist()[:-1]],
}


@pytest.mark.parametrize("kind", NOT_REAL_ARRAYS)
def test_dictionary_takes_real_atoms_only(kind):
    with pytest.raises(InvalidArgs, match="atoms must be"):
        Dictionary(NOT_REAL_ARRAYS[kind](np.eye(3)))
    with pytest.raises(InvalidArgs, match="atoms must be"):
        Dictionary("eye")


@pytest.mark.parametrize("kind", NOT_REAL_ARRAYS)
def test_run_takes_a_real_observation_only(kind):
    d = random_dictionary(4, 6, seed=0)
    y = np.array([1.0, -0.5, 0.25, 2.0])
    assert run("omp", d, y, 1).selected  # the real observation runs
    with pytest.raises(InvalidArgs, match="vector must be"):
        run("omp", d, NOT_REAL_ARRAYS[kind](y), 1)
    with pytest.raises(InvalidArgs, match="vector must be"):
        run("omp", d, "1,2,3,4", 1)


@pytest.mark.parametrize("kind", NOT_REAL_ARRAYS)
def test_make_instance_takes_real_coefficients_only(kind):
    d = Dictionary(np.eye(4))
    c = np.array([1.5, -2.0])
    with pytest.raises(InvalidArgs, match="coefficients must be"):
        make_instance(d, [0, 2], NOT_REAL_ARRAYS[kind](c))
    with pytest.raises(InvalidArgs, match="coefficients must be"):
        make_instance(d, [0, 2], "12")
    with pytest.raises(InvalidArgs):
        make_instance(d, ["0", "2"], c)


# real vectors that load_vector refuses, so save_vector refuses them too
UNREADABLE_VECTORS = {"nan": np.array([1.0, np.nan]), "inf": np.array([-np.inf, 0.5]),
                      "empty": np.zeros(0)}


@pytest.mark.parametrize("kind", [*NOT_REAL_ARRAYS, *UNREADABLE_VECTORS])
def test_save_vector_takes_real_numbers_only(tmp_path, kind):
    # refused before the file is opened: no new file, and an existing one keeps its bytes
    v = np.array([1.0, -0.5, 0.25])
    bad = UNREADABLE_VECTORS[kind] if kind in UNREADABLE_VECTORS else NOT_REAL_ARRAYS[kind](v)
    path = tmp_path / "v.csv"
    with pytest.raises(InvalidArgs, match="vector must be"):
        save_vector(bad, path)
    assert not path.exists()
    path.write_text("kept\n")
    with pytest.raises(InvalidArgs, match="vector must be"):
        save_vector(bad, path)
    assert path.read_text() == "kept\n"


def test_support_basics():
    s = as_support([3, 0, 2])
    assert list(s) == [3, 0, 2]  # order preserved
    assert len(s) == 3 and 2 in s and 1 not in s
    with pytest.raises(InvalidArgs):
        as_support([1, 1])
    with pytest.raises(InvalidArgs):
        as_support([-1])
    assert len(as_support(Support(()))) == 0


def test_support_refuses_indices_that_are_not_integers():
    assert Support((np.int64(2), 0)) == Support((2, 0))  # numpy integers are integers
    for bad in (1.5, 0.9, np.float64(1.0), True, np.True_, "1", None):
        with pytest.raises(InvalidArgs):
            Support((0, bad))  # none is truncated or coerced to an index
    d, y = random_dictionary(5, 8, seed=0), np.ones(5)
    with pytest.raises(InvalidSeed):  # as any unusable seed support, not a seed of atom 0
        run("omp", d, y, 2, seed_support=[0.9])


def test_make_instance():
    d = Dictionary(np.eye(4))
    inst = make_instance(d, [0, 2], [1.5, -2.0])
    assert np.allclose(inst.observation, [1.5, 0.0, -2.0, 0.0])
    with pytest.raises(InvalidArgs):
        make_instance(d, [0, 2], [1.0, 0.0])  # zero coefficient
    with pytest.raises(InvalidArgs):
        make_instance(d, [0, 9], [1.0, 1.0])  # out of range
    with pytest.raises(InvalidArgs):
        make_instance(d, [0], [1.0, 2.0])  # length mismatch


def test_gram_and_coherence():
    d = Dictionary(np.eye(5))
    assert coherence(d) == 0.0
    a = unit([[1.0, 1.0], [0.0, 1.0]])
    d2 = Dictionary(a)
    assert np.allclose(gram(d2), a.T @ a)
    assert coherence(d2) == pytest.approx(1.0 / np.sqrt(2.0))


def test_spark_full_rank_and_shortcuts():
    assert spark(Dictionary(np.eye(4))) == 5  # full column rank -> n+1
    # duplicated atom -> two dependent columns
    a = np.eye(3)[:, [0, 0, 1]]
    assert spark(Dictionary(a)) == 2
    # worst-case construction: every n-1 columns independent, all n dependent
    d = build_worst_case(3, 1)
    assert spark(d) == d.n
    # a two-dimensional null space, whose dependent pair the subset enumeration finds
    assert spark(Dictionary(np.eye(3)[:, [0, 0, 1, 1, 2]])) == 2
    # a generic 3 x 6 dictionary has no dependent set of 3 atoms
    assert spark(random_dictionary(3, 6, seed=0)) == 4


def test_spark_matches_bruteforce():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m, n = 5, 7
        d = random_dictionary(m, n, seed=int(rng.integers(1 << 30)))
        assert spark(d) == spark_bruteforce(d.atoms)
    # crafted 3-term dependency: a2 = normalized(a0 + a1)
    base = np.eye(4)[:, :2]
    third = unit((base[:, :1] + base[:, 1:2]))
    a = np.hstack([base, third, np.eye(4)[:, 2:3]])
    d = Dictionary(a)
    assert spark(d) == spark_bruteforce(a) == 3


def test_spark_cap():
    d = random_dictionary(8, 25, seed=0)
    with pytest.raises(CapExceeded):
        spark(d)


@pytest.mark.parametrize("k,l", [(1, 0), (2, 0), (2, 1), (3, 1), (4, 2), (5, 3)])
def test_build_worst_case_gram(k, l):
    d = build_worst_case(k, l)
    n = 2 * k - l
    assert d.n == n and d.m == n - 1
    mu = 1.0 / (n - 1)
    want = (1.0 + mu) * np.eye(n) - mu * np.ones((n, n))
    assert np.max(np.abs(gram(d) - want)) < 1e-12
    assert coherence(d) == pytest.approx(mu, abs=1e-12)
    # columns sum to zero: the all-ones vector is the unique dependency
    assert np.linalg.norm(d.atoms.sum(axis=1)) < 1e-10


def test_build_worst_case_deterministic():
    a = build_worst_case(4, 2).atoms
    b = build_worst_case(4, 2).atoms
    assert a.tobytes() == b.tobytes()


def test_build_worst_case_validation():
    with pytest.raises(InvalidArgs):
        build_worst_case(0, 0)
    with pytest.raises(InvalidArgs):
        build_worst_case(2, 2)
    with pytest.raises(InvalidArgs):
        build_worst_case(3, -1)


def test_random_dictionary_plain():
    d = random_dictionary(6, 10, seed=3)
    assert d.m == 6 and d.n == 10
    assert np.allclose(np.linalg.norm(d.atoms, axis=0), 1.0)
    d2 = random_dictionary(6, 10, seed=3)
    assert d.atoms.tobytes() == d2.atoms.tobytes()
    assert random_dictionary(6, 10, seed=4).atoms.tobytes() != d.atoms.tobytes()


def test_random_dictionary_square_target():
    # bisection between a random frame and an orthonormal one
    for seed in range(8):
        d = random_dictionary(16, 16, coherence_target=1.0 / 9.0, seed=seed)
        assert coherence(d) <= 1.0 / 9.0 + 1e-12


def test_random_dictionary_overcomplete_target():
    for seed in range(6):
        d = random_dictionary(10, 12, coherence_target=0.3, seed=seed)
        assert coherence(d) <= 0.3 + 1e-12
    # harder: below what a plain tight frame gives, needs the shrinkage route
    d = random_dictionary(20, 30, coherence_target=0.199, seed=1)
    assert coherence(d) <= 0.199 + 1e-12


def test_welch_bound_takes_the_generator_shapes():
    # the shape rule of random_dictionaries: m >= 1 rows and n >= 2 atoms
    for m, n in ((0, 5), (-1, 3), (3, 1), (1, 0)):
        with pytest.raises(InvalidArgs) as exc:
            welch_bound(m, n)
        assert str(exc.value) == f"need m >= 1 and n >= 2, got m={m}, n={n}"
        with pytest.raises(InvalidArgs) as same:
            random_dictionary(m, n, seed=0)
        assert str(same.value) == str(exc.value)
    assert welch_bound(1, 2) == 1.0 and welch_bound(5, 5) == welch_bound(6, 2) == 0.0


def test_random_dictionary_unreachable():
    assert welch_bound(20, 30) == pytest.approx(np.sqrt(10.0 / (20.0 * 29.0)))
    with pytest.raises(TargetUnreachable):
        random_dictionary(20, 30, coherence_target=0.5 * welch_bound(20, 30), seed=0)
    with pytest.raises(TargetUnreachable) as exc:
        random_dictionary(20, 30, coherence_target=0.14, seed=0)  # beyond the generator
    assert str(exc.value) == ("could not reach coherence 0.14 for shape 20x30: the Gram "
                              f"shrinkage ended above it after {dictionary.SHRINK_STEPS} steps")
    with pytest.raises(InvalidArgs):
        random_dictionary(10, 12, coherence_target=-0.1, seed=0)


@pytest.mark.parametrize("m, n", [(4, 4), (6, 4)])
def test_a_target_below_the_frames_rounding_says_so(m, n):
    # for n <= m the frame is orthonormal, but rounding leaves it a coherence of order
    # 1e-16: a target of 0 passes the Welch bound and no draw meets it; there is no step
    # budget in play
    assert welch_bound(m, n) == 0.0
    with pytest.raises(TargetUnreachable) as exc:
        random_dictionary(m, n, 0.0, seed=0)
    assert str(exc.value) == (f"could not reach coherence 0 for shape {m}x{n}: it is below "
                              "the rounding-level coherence of the draw's orthonormal frame")
    assert random_dictionaries(m, n, 0.0, [1, 2]) == [None, None]



def test_random_dictionary_rejects_bad_targets():
    for m, n in ((4, 6), (6, 4)):
        for bad in (float("nan"), float("inf"), "0.2", [0.2], True, False):
            with pytest.raises(InvalidArgs):
                random_dictionary(m, n, coherence_target=bad, seed=0)
            with pytest.raises(InvalidArgs):
                random_dictionaries(m, n, bad, [0, 1])


def test_random_dictionary_refuses_a_target_past_the_float_range():
    # an int too large for a float is out of range, not an OverflowError
    for call in (lambda: random_dictionary(4, 6, 10 ** 400),
                 lambda: random_dictionaries(4, 6, 10 ** 400, [0])):
        with pytest.raises(InvalidArgs, match="coherence_target must be a finite non-negative"):
            call()
    assert random_dictionary(4, 6, 10 ** 20).atoms.tobytes() == random_dictionary(4, 6).atoms.tobytes()


def test_off_diagonal_max_of_stacked_grams():
    g = np.random.default_rng(0).normal(size=(3, 5, 5))
    g[:, range(5), range(5)] = 10.0
    before = g.copy()
    want = [np.abs(x - np.diag(np.diag(x))).max() for x in g]
    assert dictionary._off_diagonal_max(g).tolist() == want
    assert dictionary._off_diagonal_max(g[1]) == want[1]
    assert np.array_equal(g, before)


def _same_as_per_trial(m, n, target, seeds):
    """Check every batched dictionary against the per-trial oracle, byte for
    byte, and return the oracle's outcome for each trial."""
    got = random_dictionaries(m, n, target, seeds)
    assert len(got) == len(seeds)
    outcomes = []
    for seed, d in zip(seeds, got):
        path, atoms = random_dictionary_per_trial(m, n, target, seed)
        if atoms is None:
            assert d is None
            outcomes.append("unreachable")
        else:
            assert d.atoms.tobytes() == atoms.tobytes()
            outcomes.append(path)
    return outcomes


def test_random_dictionaries_match_the_per_trial_generator():
    # one 3x4 batch takes the noise, bisection and shrinkage paths
    assert set(_same_as_per_trial(3, 4, 0.7748, list(range(20)))) == {"noise", "bisect", "shrink"}
    for size in (1, 2):
        _same_as_per_trial(3, 4, 0.7748, list(range(size)))
    assert set(_same_as_per_trial(8, 10, 0.1869, [0, 1, 2, 7])) == {"shrink", "unreachable"}
    # two trials whose coherence finds no new low for 115 and 84 steps in a row, then meets
    # the target at step 234 and 211
    assert _same_as_per_trial(8, 10, 0.1869, [[5, 2, 0, 1], [5, 2, 1, 5]]) == ["shrink"] * 2
    cell = [[7, 4, 0, t] for t in range(20)]  # a 16x16 sweep cell at its threshold target
    assert set(_same_as_per_trial(16, 16, 0.999 / 7, cell)) == {"bisect"}
    assert set(_same_as_per_trial(6, 9, None, list(range(20)))) == {"noise"}
    assert random_dictionaries(6, 9, 0.5, []) == []
    with pytest.raises(TargetUnreachable):
        random_dictionaries(20, 30, 0.5 * welch_bound(20, 30), [0, 1])


def _threshold_target(k, l):
    """The target of sweep cell (k, l) at coherence_target "threshold"."""
    return (1.0 - THRESHOLD_SAFETY) * coherence_threshold(k, l)


# sha256 of the dictionaries that take the noise or the shrinkage path, all of a group in
# seed order (the bisection path is left out), computed with the per-trial oracle, whose
# shrinkage starts at the frame
UNBISECTED_SHA256 = [
    # the benchmark's four certify dictionaries at seeds 1-5, all on the shrinkage path
    (10, 12, 0.19, [[s, 3, 0] for s in range(1, 6)],
     "858702802d2a071cb90f5b3a34d742927645110a574dc3094641b5965ef6abda"),
    (10, 12, 0.19, [[s, 3, 1] for s in range(1, 6)],
     "0a854b0bfbdb6db39176f2590ab69c1b5373d0c542197e2c83bdd224433f4919"),
    (12, 20, 0.24, [[s, 3, 2] for s in range(1, 6)],
     "40a7c918206c813c162b254f6518cde827befa0696f28d26da7d3ed107798258"),
    (12, 20, 0.24, [[s, 3, 3] for s in range(1, 6)],
     "9ba64b1395cc6401a69c78b514f333c7af802662cbd52df02c7fd424c3ee9237"),
    (6, 9, None, list(range(20)),  # no target: the noise path
     "0ea7fd466ed47a02a5651d081f010346eb020bac62353e85c4cea950cdfa77ec"),
    (3, 4, 0.7748, list(range(20)),  # the noise and shrinkage trials of a mixed batch
     "5c59fc42e69250c7705cffc0fedd95a9c5630323487bda3b4748d6fab181f1ce"),
    (16, 20, _threshold_target(3, 0), [[7, 3, 0, t] for t in range(10)],  # sweep cells
     "308f229f0efdaef5717355e77e38901212a44c563b92b5bc9d9d76990ad0f421"),
    (16, 20, _threshold_target(4, 0), [[7, 4, 0, t] for t in range(10)],
     "4b968b4cf044d94015cb9caab733e3310c0a1db768bc94b6a3376346a136dd50"),
]


@pytest.mark.parametrize("m, n, target, seeds", [
    (3, 4, 0.7748, list(range(20))),  # the noise, search and shrinkage paths in one batch
    (16, 16, _threshold_target(2, 1), [[7, 2, 1, t] for t in range(20)]),  # searched blends
    (16, 20, _threshold_target(4, 0), [[7, 4, 0, t] for t in range(10)]),  # shrinkage
    (8, 10, 0.1869, [0, 1, 2, 7]),  # shrinkage with unreached trials
])
def test_generated_coherences_are_the_bits_of_the_atoms(m, n, target, seeds):
    # the sweep takes the generator's coherences in place of a pass over the kept atoms,
    # so they must be that pass's bits
    for atoms, reached, mus in dictionary._batches(m, n, target, seeds):
        want = dictionary._off_diagonal_max(dictionary._grams(atoms[reached]))
        assert reached.any() and mus[reached].tobytes() == want.tobytes()
        assert (mus[reached] <= target).all()
    assert [mus for _, _, mus in dictionary._batches(6, 9, None, [0, 1])] == [None]


@pytest.mark.parametrize("m, n, target, seeds, digest", UNBISECTED_SHA256)
def test_noise_and_shrinkage_paths_keep_their_bytes(m, n, target, seeds, digest):
    paths = [random_dictionary_per_trial(m, n, target, seed)[0] for seed in seeds]
    got = random_dictionaries(m, n, target, seeds)
    assert None not in got
    kept = b"".join(d.atoms.tobytes() for d, path in zip(got, paths) if path != "bisect")
    assert hashlib.sha256(kept).hexdigest() == digest


def test_random_dictionaries_batches_are_capped(monkeypatch):
    sizes = []
    generate = dictionary._generate

    def recording(m, n, target, seeds):
        sizes.append(len(seeds))
        return generate(m, n, target, seeds)

    monkeypatch.setattr(dictionary, "_generate", recording)
    monkeypatch.setattr(dictionary, "BATCH_ELEMENTS", 3 * 4 * 4 + 1)  # three 3x4 trials
    for target in (0.7748, None):  # with a target, and the Gaussian path without one
        sizes.clear()
        _same_as_per_trial(3, 4, target, list(range(20)))
        assert sizes == [3] * 6 + [2]


@pytest.mark.parametrize("call", [
    lambda: random_dictionary(3.5, 4),
    lambda: random_dictionary(3, 4.0),
    lambda: random_dictionary(True, 4),
    lambda: random_dictionary(3, np.True_),
    lambda: random_dictionary(3, 4, seed=-1),
    lambda: random_dictionary(3, 4, 0.8, seed=1.5),
    lambda: random_dictionary(3, 4, seed="0"),
    lambda: random_dictionaries(3, 4, 0.8, [-1]),
    lambda: random_dictionaries(3, 4, None, [0, [1, -2]]),
], ids=["float m", "float n", "bool m", "numpy bool n", "negative seed", "float seed",
        "str seed", "negative seeds", "negative seed entry"])
def test_generator_refuses_bad_shapes_and_seeds(call):
    with pytest.raises(InvalidArgs):
        call()


def test_generator_takes_numpy_integers():
    d = random_dictionary(np.int64(3), np.int32(4), 0.8, seed=np.uint8(7))
    assert d.atoms.tobytes() == random_dictionary(3, 4, 0.8, seed=7).atoms.tobytes()


def test_shrinkage_gives_up_at_the_step_cap(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    with pytest.raises(TargetUnreachable):
        random_dictionary(16, 20, 0.999 / 8, seed=[7, 5, 1, 0])  # a sweep trial of cell (5, 1)
    assert len(calls) == dictionary.SHRINK_STEPS


def test_shrinkage_of_no_trial_does_no_step(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    # every trial of this 16 x 20 batch reaches 0.5 before shrinkage
    assert coherence(random_dictionary(16, 20, 0.5, seed=3)) <= 0.5
    shrunk, mus = dictionary._shrink_grams(np.empty((0, 4, 6)), 0.5)
    assert shrunk.shape == (0, 4, 6) and mus.shape == (0,)
    assert calls == []


def _frames_and_noise(m, n, seeds):
    """The unit-norm frames, where _generate starts its shrinkage, and the noise of these seeds."""
    noise, frames = [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        noise.append(rng.normal(size=(m, n)))
        frames.append(_haar_frame(rng, m, n))
    return np.stack(frames), np.stack(noise)


def _shrink_starts(m, n, seeds):
    """Blends of the frames of these seeds with their noise at noise weight 0.1: shrinkage
    starts further from a tight frame than the frames themselves."""
    frames, noise = _frames_and_noise(m, n, seeds)
    return dictionary._blend(frames, noise, np.full(len(seeds), 0.1))


def _lockstep_vs_per_trial(monkeypatch, starts, target):
    """Shrink the stack in lockstep and every start alone, check the bytes and that
    each row leaves the stack after as many steps as its start takes alone, and
    return (which starts reached the target, the stack size at each lockstep step)."""
    sizes, steps = [], []
    eigh = np.linalg.eigh

    def counting(a):
        if a.ndim == 3:
            sizes.append(len(a))
        else:
            steps[-1] += 1
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    got, mus = dictionary._shrink_grams(starts, target)
    want = []
    for start in starts:
        steps.append(0)
        want.append(shrink_gram_full_budget(start, target, dictionary.SHRINK_STEPS))
    for g, mu, start, w in zip(got, mus, starts, want):
        if w is None:  # unreached: the start comes back, with coherence inf
            assert mu == np.inf and g.tobytes() == start.tobytes()
        else:
            assert g.tobytes() == w.tobytes()
            assert mu == dictionary._off_diagonal_max(w.T @ w) <= target
    assert sizes == [sum(c > s for c in steps) for s in range(max(steps))]
    return [w is not None for w in want], sizes


def test_lockstep_shrinkage_matches_per_trial(monkeypatch):
    starts = _shrink_starts(8, 10, [[3, t] for t in range(10)])
    reached, sizes = _lockstep_vs_per_trial(monkeypatch, starts, 0.19)
    # the ten rows reach the target after 28 to 1,113 steps
    assert all(reached)
    assert len(sizes) < dictionary.SHRINK_STEPS  # the stack empties before the cap
    assert len(set(sizes)) >= 5 and sizes == sorted(sizes, reverse=True)
    monkeypatch.setattr(dictionary, "SHRINK_STEPS", 60)
    capped, sizes = _lockstep_vs_per_trial(monkeypatch, starts, 0.19)
    assert 0 < sum(capped) < sum(reached) and len(sizes) == 60  # the cap cut some rows


@pytest.mark.parametrize("shape", [(3, 5), (2, 3, 5)])
def test_unit_columns_rescues_a_zero_column_on_a_copy(shape):
    mat = np.random.default_rng(0).normal(size=shape)
    mat[..., 4] = 0.0  # in every matrix, column 4 is zero and column 1 below 1e-12
    mat[..., 1] *= 1e-13
    before = mat.copy()
    out = dictionary._unit_columns(mat)
    assert np.array_equal(mat, before)  # the input is left untouched
    assert np.allclose(np.linalg.norm(out, axis=-2), 1.0, rtol=0, atol=1e-15)
    m = shape[-2]
    for j in (1, 4):  # e_(j mod m) stands in each dead column's place
        assert (out[..., :, j] == np.eye(m)[j % m]).all()
    live = [0, 2, 3]
    kept = mat[..., live]
    assert np.array_equal(out[..., live],
                          kept / np.sqrt(np.add.reduce(kept * kept, axis=-2, keepdims=True)))


def test_lockstep_shrinkage_rescues_a_dead_column(monkeypatch):
    # atom 0 is zero and the clipped Gram's two largest eigenvalues belong to the
    # other three atoms, so the first rank-2 refactoring gives atom 0 norm zero
    angles = np.radians([90.0, 200.0, 340.0])
    crafted = np.column_stack([np.zeros(2), np.vstack([np.cos(angles), np.sin(angles)])])
    target = 0.7
    clipped = np.clip(crafted.T @ crafted, -0.95 * target, 0.95 * target)
    np.fill_diagonal(clipped, 1.0)
    assert not np.linalg.eigh(clipped)[1][0, 2:].any()  # the rescue is reached
    starts = np.concatenate([_shrink_starts(2, 4, [[5, t] for t in range(3)]), crafted[None]])
    _lockstep_vs_per_trial(monkeypatch, starts, target)


@pytest.mark.parametrize("factor", [1.15, 1.2, 1.25, 1.3])
@pytest.mark.parametrize("m, n", [(8, 10), (10, 12), (12, 20), (16, 20), (16, 24)])
def test_shrinkage_from_the_frame_reaches_what_the_blend_reaches(m, n, factor):
    # near the Welch bound the shrinkage does not always reach its target; the generator's,
    # from the frame, near tight, reaches as many trials as one from a blend at noise weight
    # 0.1, or more
    target = factor * welch_bound(m, n)
    seeds = [[m, n, t] for t in range(20)]
    frames, noise = _frames_and_noise(m, n, seeds)
    for start in (frames, dictionary._unit_columns(noise)):  # every trial takes the shrinkage
        assert (dictionary._off_diagonal_max(dictionary._grams(start)) > target).all()
    generated = [d for d in random_dictionaries(m, n, target, seeds) if d is not None]
    assert all(coherence(d) <= target for d in generated)
    starts = _shrink_starts(m, n, seeds)
    blended = [a for a in (shrink_gram_full_budget(s, target) for s in starts) if a is not None]
    assert all(dictionary._off_diagonal_max(a.T @ a) <= target for a in blended)
    assert len(generated) >= len(blended)


def test_the_slowest_benchmark_cell_shrinks_in_few_steps(monkeypatch):
    # the benchmark's slowest shrinkage cell, 16x20 (4, 0) at seed 7, which takes 58
    # lockstep steps from the 0.1 blend
    sizes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(len(a)) or eigh(a))
    got = random_dictionaries(16, 20, _threshold_target(4, 0), [[7, 4, 0, t] for t in range(20)])
    assert None not in got
    assert 0 < len(sizes) <= 30


@pytest.mark.parametrize("m, n, k, l", [*((16, 16, k, l) for k in range(2, 6) for l in range(k)),
                                        (16, 20, 2, 1)])
def test_the_benchmark_blend_cells_search_in_few_probes(monkeypatch, m, n, k, l):
    # the benchmark's cells whose trials take the blend search, at seed 7: one lockstep
    # probe is one _blend call over every trial still searching
    probes = []
    blend = dictionary._blend
    monkeypatch.setattr(dictionary, "_blend", lambda *a: probes.append(1) or blend(*a))
    got = random_dictionaries(m, n, _threshold_target(k, l), [[7, k, l, t] for t in range(20)])
    assert None not in got
    assert 0 < len(probes) <= 16


def test_save_load_roundtrip(tmp_path):
    d = random_dictionary(7, 9, seed=11)
    path = tmp_path / "dict.csv"
    save_dictionary(d, path)
    loaded, renorm = load_dictionary(path)
    assert not renorm
    assert loaded.atoms.tobytes() == d.atoms.tobytes()  # 17 digits round-trips


def test_load_dictionary_renormalizes(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("2,0\n0,1\n")
    d, renorm = load_dictionary(path)
    assert renorm
    assert np.allclose(d.atoms, np.eye(2))


@pytest.mark.parametrize("scale", [1e200, 1e-200, np.finfo(float).max, 5e-324, 1e-13])
def test_load_dictionary_normalizes_columns_of_any_scale(tmp_path, scale):
    # the column norms are taken over each column's largest magnitude: no squares
    # overflow (a RuntimeWarning, an error here) or underflow to a zero column
    path = tmp_path / "d.csv"
    path.write_text(f"{scale:.17g},0\n{scale:.17g},1\n")
    d, renorm = load_dictionary(path)
    assert renorm
    assert np.allclose(d.atoms, unit([[1, 0], [1, 1]]), rtol=0, atol=1e-15)


def test_load_dictionary_rejects_bad_input(tmp_path):
    for text in ["nan,0\n0,1\n", "1,0\n0\n", "0,0\n0,1\n", ""]:
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(InvalidArgs):
            load_dictionary(path)


def test_load_dictionary_names_the_line_of_a_bad_token(tmp_path):
    # blank lines count: the token sits on line 4 of the file
    path = tmp_path / "bad.csv"
    path.write_text("1,0\n\n0,1\n0.5, oops\n")
    with pytest.raises(InvalidArgs) as err:
        load_dictionary(path)
    assert str(err.value) == f"{path}: line 4: could not convert string to float: ' oops'"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 8).flatmap(lambda m: st.integers(2, 10).flatmap(lambda n: arrays(
    float, (m, n), elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)))))
def test_dictionary_csv_roundtrip_is_exact(raw):
    norms = np.linalg.norm(raw, axis=0)
    assume(np.all(norms > 1e-150))
    d = Dictionary(raw / norms)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        save_dictionary(d, path)
        loaded, renorm = load_dictionary(path)
    assert not renorm
    assert loaded.atoms.shape == d.atoms.shape
    assert loaded.atoms.tobytes() == d.atoms.tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(arrays(float, st.integers(1, 20), elements=st.floats(allow_nan=False, allow_infinity=False)))
@example(np.array([-0.0, 0.0, 5e-324, -2.2250738585072009e-308, 1e308, -1e308,
                   np.finfo(float).max, np.finfo(float).tiny]))
def test_vector_csv_roundtrip_is_exact(v):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "v.csv"
        save_vector(v, path)
        w = load_vector(path)
    assert w.shape == v.shape
    assert w.tobytes() == v.tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 6)), elements=st.floats()))
@example(np.array([EDGE_FLOATS, EDGE_FLOATS[::-1]]))
def test_csv_lines_keep_the_bytes_of_per_scalar_formatting(a):
    c, f, col = np.ascontiguousarray(a), np.asfortranarray(a.T), a.reshape(-1, 1)
    assert f.flags.f_contiguous and col.shape[1] == 1
    for rows in (c, f, col):
        assert dictionary._csv_lines(rows) == csv_lines_per_scalar(rows)


# JSON values of every kind json.dumps meets: its own types at any depth, NaN and
# infinities, numpy scalars, non-str keys, and lists of one number type or of mixed ones
_JSON_LEAVES = st.one_of(
    st.floats(), st.sampled_from(EDGE_FLOATS), st.integers(), st.integers(2**64, 2**80),
    st.booleans(), st.none(), st.text(), st.floats().map(np.float64),
    st.integers(-9, 9).map(np.int64))
_JSON_KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
_JSON_VALUES = st.recursive(
    st.one_of(_JSON_LEAVES, st.lists(st.floats(allow_nan=False, allow_infinity=False)),
              st.lists(st.integers()), st.lists(st.floats())),
    lambda inner: st.one_of(st.lists(inner, max_size=5), st.lists(inner, max_size=5).map(tuple),
                            st.dictionaries(st.text(), inner, max_size=5),
                            st.dictionaries(_JSON_KEYS, inner, max_size=3)),
    max_leaves=30)
_LIST_LOOP, _DICT_LOOP = [1.0], {"k": 1}  # containers that hold themselves
_LIST_LOOP.append(_LIST_LOOP)
_DICT_LOOP["self"] = _DICT_LOOP


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_JSON_VALUES)
@example({"scores": [[0.5, -0.0, 5e-324], []], "y": (1.0, 2.5), "": {}, "k": 2**64 + 1})
@example([1, True])
@example([1.0, 2])
@example(["caf\u00e9", {"\u2603 \U0001f600 \ud800": "\u00fc\n\"\\"}])
@example({"a": [np.float64(0.1), 1.0], "b": np.float64(-0.0)})
@example({"ok": [1.0], "bad": [[0.0, np.inf]]})
@example({"a": {"b": [1, 2, float("nan")]}})
@example({1: [1.0, 2.0], 2.5: None, True: "t", None: ()})
@example({"x": [np.int64(3)]})
@example(_LIST_LOOP)
@example(_DICT_LOOP)
def test_json_keeps_the_bytes_of_json_dumps(obj):
    # where json.dumps raises, _json raises the same exception type
    try:
        want = json_dumps_indented(obj)
    except Exception as exc:
        with pytest.raises(Exception) as caught:
            dictionary._json(obj)
        assert type(caught.value) is type(exc)
    else:
        assert dictionary._json(obj) == want


# CSV text as the readers meet it: entries of any magnitude from 1e-300 to 1e300,
# zeros, non-finite and unparsable tokens, ragged rows and empty files
_TOKENS = st.one_of(
    st.builds(lambda sign, digits, exp: f"{sign}{digits:.6f}e{exp}", st.sampled_from(["", "-"]),
              st.floats(1.0, 9.999999), st.integers(-300, 300)),
    st.sampled_from(["0", "-0", "0.0", "nan", "inf", "-inf", "1e400", "-1e-400", "", "x"]))
_CSV_ROWS = st.lists(st.lists(_TOKENS, min_size=1, max_size=4), max_size=4)


def _parsed(rows):
    """The rows as floats, or None if a token does not parse."""
    try:
        return [[float(t) for t in row] for row in rows]
    except ValueError:
        return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_CSV_ROWS)
def test_csv_readers_return_unit_columns_or_finite_values_or_reject(rows):
    # a RuntimeWarning fails the test; only malformed input raises, and only InvalidArgs
    text = "\n".join(",".join(row) for row in rows)
    values = _parsed(rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_text(text)
        a = np.array(values) if values and len({len(row) for row in values}) == 1 else None
        # at least two columns, every entry finite and no column all zeros
        well_formed = (a is not None and a.shape[1] >= 2 and np.isfinite(a).all()
                       and np.abs(a).max(axis=0).all())
        if well_formed:
            d, _ = load_dictionary(path)
            assert d.atoms.shape == a.shape and np.isfinite(d.atoms).all()
            assert np.abs(np.linalg.norm(d.atoms, axis=0) - 1.0).max() <= dictionary.UNIT_NORM_TOL
            assert (np.sign(d.atoms) * np.sign(a) >= 0).all()  # an entry may underflow to 0
        else:
            with pytest.raises(InvalidArgs):
                load_dictionary(path)
        flat = _parsed([[t for row in rows for t in row if t]])
        if flat and flat[0] and np.isfinite(flat[0]).all():
            assert load_vector(path).tolist() == flat[0]
        else:
            with pytest.raises(InvalidArgs):
                load_vector(path)


def test_vector_roundtrip(tmp_path):
    v = np.array([1.0, -2.25, 1e-17, 3.0])
    path = tmp_path / "v.csv"
    save_vector(v, path)
    w = load_vector(path)
    assert w.tobytes() == v.tobytes()
    path.write_text("1, 2,\t3\n")
    assert np.allclose(load_vector(path), [1.0, 2.0, 3.0])
    path.write_text("1,oops\n")
    with pytest.raises(InvalidArgs):
        load_vector(path)


def test_writes_over_a_longer_file_leave_only_the_new_bytes(tmp_path):
    # a rewrite is made in place and cut to its length: no stale tail of the old file
    d, v = build_worst_case(3, 1), np.array([0.5, -1.0, 1e-17])
    (tmp_path / "fresh").mkdir()
    for name, write in [("text", lambda p: dictionary._write_text(p, "1,2\n")),
                        ("dictionary", lambda p: save_dictionary(d, p)),
                        ("vector", lambda p: save_vector(v, p))]:
        path = tmp_path / name
        path.write_text("9," * 5000 + "\n")
        write(path)
        write(tmp_path / "fresh" / name)
        assert path.read_bytes() == (tmp_path / "fresh" / name).read_bytes()
    assert (tmp_path / "text").read_bytes() == b"1,2\n"


def test_write_text_keeps_the_mode_and_inode_that_open_gives(tmp_path):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    old = os.umask(0o027)
    try:
        dictionary._write_text(new, "1\n")
        with open(ref, "w") as fh:
            fh.write("1\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE(ref.stat().st_mode) == 0o640
    # an existing file is rewritten, not replaced: its inode and its mode stay
    new.chmod(0o600)
    inode = new.stat().st_ino
    for text in ("a much longer line than before\n", "2\n"):
        dictionary._write_text(new, text)
        assert new.read_text() == text
        assert new.stat().st_ino == inode and stat.S_IMODE(new.stat().st_mode) == 0o600
