"""HDBSCAN clustering, elastic-value frequencies, the reduced space."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnetsearch.errors import ConfigError, EmptyClusterSet, InvalidGenotype
from subnetsearch.popdb import (
    ClusterLabeling,
    build_constraints,
    constrain_space,
    elastic_frequencies,
    hdbscan,
    history_features,
)
from subnetsearch.space import (
    Genotype,
    build_space,
    canonical_ranks,
    canonicalize,
    cardinality,
    encode_matrix,
    enumerate_genotypes,
    rank_matrix,
    sample_uniform,
)

from conftest import ORACLE_SPACES, active_mask_loop, raw_genotypes


def two_blobs(n_per=200, sep=10.0, std=0.5, seed=0, dim=2):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, std, size=(n_per, dim))
    b = rng.normal(0.0, std, size=(n_per, dim))
    b[:, 0] += sep
    pts = np.vstack([a, b])
    truth = np.array([0] * n_per + [1] * n_per)
    return pts, truth


# ---------------------------------------------------------------------------
# hdbscan
# ---------------------------------------------------------------------------


def test_two_separated_blobs_found_exactly():
    pts, truth = two_blobs()
    labeling = hdbscan(pts, min_cluster_size=50, min_samples=10)
    assert labeling.n_clusters == 2
    # points at least 3 sigma from the opposite blob must be correctly grouped
    blob_ids = {}
    mislabeled = 0
    considered = 0
    for i, (label, t) in enumerate(zip(labeling.labels, truth)):
        if label < 0:
            continue
        opposite_center = np.array([10.0, 0.0]) if t == 0 else np.array([0.0, 0.0])
        if np.linalg.norm(pts[i] - opposite_center) < 3 * 0.5:
            continue
        considered += 1
        if t not in blob_ids:
            blob_ids[t] = label
        elif blob_ids[t] != label:
            mislabeled += 1
    assert considered > 300
    assert mislabeled == 0
    assert len(set(blob_ids.values())) == 2


def test_uniform_noise_mostly_noise():
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 1, size=(100, 2))
    labeling = hdbscan(pts, min_cluster_size=50, min_samples=10)
    noise = sum(1 for l in labeling.labels if l < 0)
    assert noise >= 90


def test_duplicating_points_preserves_cluster_count():
    pts, _ = two_blobs(n_per=150, seed=2)
    base = hdbscan(pts, min_cluster_size=50, min_samples=10)
    doubled = hdbscan(np.vstack([pts, pts]), min_cluster_size=50, min_samples=10)
    assert doubled.n_clusters == base.n_clusters


def test_fewer_points_than_min_cluster_size_all_noise():
    rng = np.random.default_rng(3)
    labeling = hdbscan(rng.normal(size=(20, 2)), min_cluster_size=50, min_samples=5)
    assert all(l == -1 for l in labeling.labels)


def test_clusters_meet_min_cluster_size():
    pts, _ = two_blobs(n_per=120, seed=5)
    labeling = hdbscan(pts, min_cluster_size=50, min_samples=10)
    from collections import Counter

    counts = Counter(l for l in labeling.labels if l >= 0)
    assert all(c >= 50 for c in counts.values())


def test_hdbscan_deterministic():
    pts, _ = two_blobs(seed=6)
    a = hdbscan(pts, min_cluster_size=50, min_samples=10)
    b = hdbscan(pts, min_cluster_size=50, min_samples=10)
    assert a.labels == b.labels


def test_hdbscan_validation():
    with pytest.raises(ConfigError):
        hdbscan(np.zeros((10, 2)), min_cluster_size=1, min_samples=5)
    with pytest.raises(ConfigError):
        hdbscan(np.zeros((10, 2)), min_cluster_size=5, min_samples=0)


@pytest.mark.parametrize("n", [60, 3])
def test_hdbscan_rejects_non_finite_points(n):
    # n = 3 is below min_cluster_size, where the all-noise answer would
    # otherwise come back before any distance is taken.
    pts = np.random.default_rng(0).uniform(size=(n, 3))
    pts[n // 2, 1] = np.nan
    pts[-1, 0] = np.inf
    with pytest.raises(ConfigError, match=f"point {n // 2} "):
        hdbscan(pts, min_cluster_size=5, min_samples=3)


# ---------------------------------------------------------------------------
# elastic_frequencies
# ---------------------------------------------------------------------------


def freq_space():
    # one block, depths {1,2}, kernel {3,5,7} per layer
    return build_space("freq", [("b", (1, 2), 2, [("kernel", (3, 5, 7))])])


def test_frequencies_single_cluster_single_value():
    space = freq_space()
    g = canonicalize(Genotype((2, 5, 5)), space)
    labeling = ClusterLabeling(labels=(0, 0, 0))
    table = elastic_frequencies(labeling, rank_matrix([g, g, g], space), space)
    pos = 1  # first kernel slot
    assert table.frequencies[pos][space.value_rank(pos, 5)] == pytest.approx(1.0)


def test_frequencies_hand_counted_fixture():
    """6 points, 2 of them noise; count active genes by hand."""
    space = freq_space()
    gs = [
        canonicalize(Genotype(g), space)
        for g in [
            (2, 3, 5),  # member: both layers active
            (2, 3, 7),  # member
            (1, 5, 3),  # member: layer 1 inactive (reset to 3, not counted)
            (1, 7, 3),  # member
            (2, 7, 7),  # noise
            (1, 3, 3),  # noise
        ]
    ]
    labeling = ClusterLabeling(labels=(0, 0, 1, 1, -1, -1))
    table = elastic_frequencies(labeling, rank_matrix(gs, space), space)
    # depth gene: members have depths 2,2,1,1
    assert table.observations[0] == 4
    assert table.frequencies[0] == pytest.approx((0.5, 0.5))
    # kernel layer 0: active in all 4 members: values 3,3,5,7
    assert table.observations[1] == 4
    assert table.frequencies[1] == pytest.approx((0.5, 0.25, 0.25))
    # kernel layer 1: active only in depth-2 members: values 5,7
    assert table.observations[2] == 2
    assert table.frequencies[2] == pytest.approx((0.0, 0.5, 0.5))


def test_frequencies_rows_sum_to_one(toy_space):
    gs = sample_uniform(toy_space, 200, seed=1)
    labels = tuple(0 if i % 3 else -1 for i in range(len(gs)))
    labeling = ClusterLabeling(labels=labels)
    table = elastic_frequencies(labeling, rank_matrix(gs, toy_space), toy_space)
    for pos in range(toy_space.genome_length):
        if table.observations[pos]:
            assert sum(table.frequencies[pos]) == pytest.approx(1.0, abs=1e-12)


def elastic_frequencies_loop(labels, genotypes, space):
    """The per-gene loop oracle of `elastic_frequencies`: (frequencies,
    observations) over the active genes of non-noise genotypes."""
    counts = [[0] * len(vals) for vals in space.allowed]
    for label, g in zip(labels, genotypes):
        if label >= 0:
            for pos, active in enumerate(active_mask_loop(g, space)):
                if active:
                    counts[pos][space.value_rank(pos, g.genes[pos])] += 1
    freqs = tuple(
        tuple(c / sum(row) if sum(row) else 0.0 for c in row) for row in counts
    )
    return freqs, tuple(sum(row) for row in counts)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(ORACLE_SPACES), n=st.integers(1, 30), data=st.data())
def test_frequencies_match_per_gene_loop_oracle(oracle_spaces, name, n, data):
    """Raw (possibly non-canonical) and canonical rows, any labels, including
    all noise."""
    space = oracle_spaces[name]
    gs = []
    for _ in range(n):
        g = data.draw(raw_genotypes(space))
        gs.append(canonicalize(g, space) if data.draw(st.booleans()) else g)
    labels = data.draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
    labeling = ClusterLabeling(labels=tuple(labels))
    if max(labels) < 0:
        with pytest.raises(EmptyClusterSet):
            elastic_frequencies(labeling, rank_matrix(gs, space), space)
        return
    table = elastic_frequencies(labeling, rank_matrix(gs, space), space)
    assert (table.frequencies, table.observations) == elastic_frequencies_loop(
        labels, gs, space
    )


def test_frequencies_reject_forbidden_value_and_label_count():
    space = freq_space()
    good = canonicalize(Genotype((2, 5, 5)), space)
    labeling = ClusterLabeling(labels=(0, 0))
    with pytest.raises(InvalidGenotype):
        elastic_frequencies(labeling, rank_matrix([good, Genotype((2, 4, 5))], space), space)
    with pytest.raises(ConfigError):
        elastic_frequencies(labeling, rank_matrix([good], space), space)


def test_frequencies_all_noise_raises():
    space = freq_space()
    g = canonicalize(Genotype((1, 3, 3)), space)
    labeling = ClusterLabeling(labels=(-1,))
    with pytest.raises(EmptyClusterSet):
        elastic_frequencies(labeling, rank_matrix([g], space), space)


# ---------------------------------------------------------------------------
# build_constraints / constrain_space
# ---------------------------------------------------------------------------


def table_for(space, freq_rows, observations=None):
    from subnetsearch.popdb import FrequencyTable

    obs = observations or tuple(1 for _ in freq_rows)
    return FrequencyTable(
        frequencies=tuple(tuple(r) for r in freq_rows),
        observations=tuple(obs),
    )


def test_threshold_rule_direct():
    space = build_space("s", [("b", (1,), 1, [("k", (3, 5, 7))])])
    table = table_for(space, [(1.0,), (0.005, 0.495, 0.50)])
    assert build_constraints(table, 0.01, space)[1] == (5, 7)


def test_threshold_zero_keeps_everything(toy_space):
    gs = sample_uniform(toy_space, 100, seed=2)
    labeling = ClusterLabeling(labels=(0,) * 100)
    table = elastic_frequencies(labeling, rank_matrix(gs, toy_space), toy_space)
    allowed = build_constraints(table, 0.0, toy_space)
    assert allowed == toy_space.allowed
    assert constrain_space(toy_space, allowed).reduction == toy_space.allowed


def test_empty_position_keeps_single_best_value():
    space = build_space("s", [("b", (1,), 1, [("k", (3, 5, 7))])])
    table = table_for(space, [(1.0,), (0.2, 0.5, 0.3)])
    assert build_constraints(table, 0.9, space)[1] == (5,)


def test_unobserved_positions_left_unconstrained():
    space = freq_space()  # layer-1 kernel never active if all depths are 1
    gs = [canonicalize(Genotype((1, v, 3)), space) for v in (3, 5, 7)]
    labeling = ClusterLabeling(labels=(0, 0, 0))
    table = elastic_frequencies(labeling, rank_matrix(gs, space), space)
    assert build_constraints(table, 0.5, space)[2] == space.allowed[2]


def test_threshold_monotone(toy_space):
    gs = sample_uniform(toy_space, 300, seed=3)
    labeling = ClusterLabeling(labels=(0,) * 300)
    table = elastic_frequencies(labeling, rank_matrix(gs, toy_space), toy_space)
    prev = None
    for threshold in (0.0, 0.05, 0.2, 0.4, 0.8):
        allowed = build_constraints(table, threshold, toy_space)
        if prev is not None:
            for cur_vals, prev_vals in zip(allowed, prev):
                assert set(cur_vals) <= set(prev_vals)
        prev = allowed


def test_constrained_cardinality_drops(toy_space):
    cs_allowed = list(toy_space.allowed)
    # drop one kernel value from the first per-layer position
    pos = toy_space.blocks[0].governed_gene_indices[0]
    cs_allowed[pos] = tuple(cs_allowed[pos][1:])
    reduced = constrain_space(toy_space, cs_allowed)
    assert cardinality(reduced) < cardinality(toy_space)


def test_constrained_space_is_subset(toy_space):
    gs = sample_uniform(toy_space, 400, seed=4)
    labeling = ClusterLabeling(labels=(0,) * 400)
    table = elastic_frequencies(labeling, rank_matrix(gs, toy_space), toy_space)
    allowed = build_constraints(table, 0.2, toy_space)
    reduced = constrain_space(toy_space, allowed)
    assert cardinality(reduced) <= cardinality(toy_space)
    # every canonical genotype of the reduced space is valid in the original
    for g in enumerate_genotypes(reduced):
        toy_space.validate_genes(g)
    # sampling the reduced space gives canonical genotypes of the full space
    # whose active genes take allowed values
    gs = sample_uniform(reduced, 100, seed=5)
    inactive = canonical_ranks(gs, toy_space)[1]
    for g, off in zip(gs, inactive):
        for pos, v in enumerate(g.genes):
            assert off[pos] or v in allowed[pos]


def test_popdb_on_a_reduced_space_only_narrows_it(toy_space):
    """build_constraints starts from the input's allowed sets: values it left
    out stay out even where the history favours them, and the fallback for
    an emptied position picks among the values it kept."""
    allowed = list(toy_space.allowed)
    allowed[0] = (2,)
    allowed[1] = (5, 7)
    allowed[3] = (3, 6)
    reduced = constrain_space(toy_space, allowed)
    gs = sample_uniform(toy_space, 300, seed=12)  # full-space history
    labeling = ClusterLabeling(labels=(0,) * len(gs))
    table = elastic_frequencies(labeling, rank_matrix(gs, toy_space), toy_space)
    for threshold in (0.0, 0.2, 0.4, 0.9):
        again = build_constraints(table, threshold, reduced)
        assert all(set(a) <= set(r) for a, r in zip(again, reduced.reduction))
        assert constrain_space(reduced, again).reduction == again
    table = table_for(toy_space, [(0.9, 0.1)] + [(0.6, 0.3, 0.1)] * 9)
    again = build_constraints(table, 0.95, reduced)
    assert again[:4] == ((2,), (5,), (3,), (3,))


def test_depth_constraint_respected(global_space):
    cs_allowed = list(global_space.allowed)
    cs_allowed[0] = (2, 3)  # depth gene loses value 1
    reduced = constrain_space(global_space, cs_allowed)
    for g in sample_uniform(reduced, 50, seed=6):
        assert g.genes[0] in (2, 3)


def test_constraint_mismatch_errors(toy_space):
    with pytest.raises(ConfigError, match="cover 1 positions, space has 10"):
        constrain_space(toy_space, ((3,),))
    bad = list(toy_space.allowed)
    bad[0] = (99,)
    with pytest.raises(ConfigError, match="position 0"):
        constrain_space(toy_space, bad)
    bad[0] = ()
    with pytest.raises(ConfigError, match="position 0"):
        constrain_space(toy_space, bad)


def test_history_features_subsamples(toy_space):
    gs = sample_uniform(toy_space, 100, seed=7)
    feats, idx = history_features(rank_matrix(gs, toy_space), toy_space, max_points=40, seed=0)
    assert feats.shape == (40, toy_space.genome_length)
    assert len(idx) == 40
    assert sorted(set(int(i) for i in idx)) == sorted(int(i) for i in idx)


def test_history_features_match_ordinal_encoding(toy_space):
    gs = sample_uniform(toy_space, 30, seed=9)
    feats, _ = history_features(rank_matrix(gs, toy_space), toy_space)
    ranks = canonical_ranks(gs, toy_space)[0]
    assert np.array_equal(feats, encode_matrix(ranks, toy_space, "ordinal_normalized"))
    with pytest.raises(InvalidGenotype):
        history_features(rank_matrix(gs + [Genotype(gs[0].genes[:-1])], toy_space), toy_space)


def test_history_features_error_row_indexes_the_full_history(toy_space):
    """Gene values are checked once, by ranking the whole history before it
    is subsampled, so the error row is the first bad row of the history."""
    gs = sample_uniform(toy_space, 100, seed=7)
    bad = set(range(50, 100, 7))
    for i in bad:
        genes = list(gs[i].genes)
        genes[1] = 9  # kernel allows {3, 5, 7}
        gs[i] = Genotype(tuple(genes))
    with pytest.raises(InvalidGenotype) as err:
        history_features(rank_matrix(gs, toy_space), toy_space, max_points=40, seed=0)
    assert err.value.row == min(bad)


def test_history_features_keep_non_canonical_rows(toy_space):
    """A history may hold non-canonical genotypes; only gene values are
    checked, as the row loop did."""
    top = [vals[-1] for vals in toy_space.allowed]
    top[0] = 1  # block 0 at depth 1 leaves its second layer at top values
    g = Genotype(tuple(top))
    assert canonicalize(g, toy_space) != g
    feats, _ = history_features(rank_matrix([g], toy_space), toy_space)
    assert feats.tolist() == [[0.0] + [1.0] * (toy_space.genome_length - 1)]


def test_history_features_joint_space(toy_space):
    from subnetsearch.evalmgr import SyntheticSurfaceEvaluator

    gs = sample_uniform(toy_space, 50, seed=8)
    vectors = SyntheticSurfaceEvaluator(toy_space, "clx-like").evaluate(gs)
    objectives = np.array([v.canonical_min for v in vectors])
    feats, _ = history_features(rank_matrix(gs, toy_space), toy_space, objectives=objectives)
    assert feats.shape == (50, toy_space.genome_length + 2)
    assert feats[:, -2:].min() >= 0.0 and feats[:, -2:].max() <= 1.0
