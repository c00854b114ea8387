"""Space construction, canonicalization, cardinality, sampling, encoding."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnetsearch.errors import ConfigError, InvalidGenotype, NonCanonicalInput
from subnetsearch.space import (
    BlockRule,
    ElasticParamSpec,
    Genotype,
    SearchSpace,
    build_space,
    canonical_form,
    canonical_ranks,
    canonicalize,
    cardinality,
    encode_matrix,
    enumerate_genotypes,
    feature_dim,
    genotype_ids,
    get_preset,
    inactive_genes,
    is_canonical,
    load_space,
    rank_genes,
    rank_matrix,
    repaired_ranks,
    sample_uniform,
    save_space,
    space_from_dict,
    space_to_dict,
    uniform_ranks,
)
from subnetsearch.util import genes_bytes, stable_hash64

from conftest import (
    ORACLE_SPACES,
    active_mask_loop,
    in_reduced_form_loop,
    raw_genotypes,
    reductions,
)


def brute_force_architecture(g, space):
    """Independent decode: the architecture is the depth choices, the active
    per-layer values, and the global values; inactive genes are ignored."""
    arch = []
    governed = set()
    for b in space.blocks:
        governed.add(b.depth_gene_index)
        governed.update(b.governed_gene_indices)
        depth = g.genes[b.depth_gene_index]
        ppl = b.params_per_layer
        active = [
            g.genes[pos]
            for slot, pos in enumerate(b.governed_gene_indices)
            if slot // ppl < depth
        ]
        arch.append((depth, tuple(active)))
    arch.append(
        tuple(g.genes[p] for p in range(space.genome_length) if p not in governed)
    )
    return tuple(arch)


def canonicalize_loop(g, space):
    """The per-block loop oracle for `canonicalize`."""
    space.validate_genes(g)
    genes = list(g.genes)
    for b in space.blocks:
        depth = genes[b.depth_gene_index]
        ppl = b.params_per_layer
        for slot, pos in enumerate(b.governed_gene_indices):
            if slot // ppl >= depth:
                genes[pos] = space.allowed[pos][0]
    return Genotype(tuple(genes))


def encode(genotypes, space, scheme):
    """Genotypes from outside the engine are encoded through
    `canonical_ranks`, which checks them."""
    return encode_matrix(canonical_ranks(genotypes, space)[0], space, scheme)


def encode_row(g, space, scheme):
    """The per-row loop oracle for `encode` (no canonicality check)."""
    if len(g.genes) != space.genome_length:
        raise InvalidGenotype("wrong genome length")
    if scheme == "one_hot":
        vec = np.zeros(feature_dim(space, scheme))
        offset = 0
        for pos, value in enumerate(g.genes):
            vec[offset + space.value_rank(pos, value)] = 1.0
            offset += len(space.allowed[pos])
        return vec
    vec = np.empty(space.genome_length)
    for pos, value in enumerate(g.genes):
        k = len(space.allowed[pos])
        vec[pos] = 0.0 if k == 1 else space.value_rank(pos, value) / (k - 1)
    return vec


def all_raw_genotypes(space):
    import itertools

    for combo in itertools.product(*space.allowed):
        yield Genotype(combo)


# ---------------------------------------------------------------------------
# Types and validation
# ---------------------------------------------------------------------------


def test_param_spec_validation():
    with pytest.raises(ConfigError):
        ElasticParamSpec("p", 0, (1, 2), "global")
    with pytest.raises(ConfigError):
        ElasticParamSpec("p", 1, (), "global")
    with pytest.raises(ConfigError):
        ElasticParamSpec("p", 1, (2, 2), "global")
    with pytest.raises(ConfigError):
        ElasticParamSpec("p", 1, (3, 1), "global")
    with pytest.raises(ConfigError):
        ElasticParamSpec("p", 1, (1, 2), "sideways")


def test_space_rejects_ungoverned_per_layer_gene():
    params = (ElasticParamSpec("k", 2, (3, 5), "per_layer"),)
    with pytest.raises(ConfigError):
        SearchSpace("bad", params, ())


def test_space_rejects_depth_above_max_layers():
    params = (
        ElasticParamSpec("d", 1, (1, 5), "block_depth"),
        ElasticParamSpec("k", 2, (3, 5), "per_layer"),
    )
    with pytest.raises(ConfigError):
        SearchSpace("bad", params, (BlockRule(0, (1, 2), 2),))


def test_genome_layout(tiny_space):
    assert tiny_space.genome_length == 6
    roles = [tiny_space.param_at(i).role for i in range(6)]
    assert roles == ["block_depth", "per_layer", "per_layer"] * 2


# ---------------------------------------------------------------------------
# canonicalize
# ---------------------------------------------------------------------------


def test_canonicalize_resets_inactive_layers():
    # one block, max_layers=4, kernels {3,5,7}; depth 2 leaves slots 2,3 inactive
    space = build_space("one", [("b", (2, 3, 4), 4, [("kernel", (3, 5, 7))])])
    g = Genotype((2, 7, 5, 3, 5))
    c = canonicalize(g, space)
    assert c.genes == (2, 7, 5, 3, 3)


def test_canonicalize_identity_at_full_depth():
    space = build_space("one", [("b", (2, 3, 4), 4, [("kernel", (3, 5, 7))])])
    g = Genotype((4, 7, 5, 3, 5))
    assert canonicalize(g, space).genes == g.genes


def test_canonicalize_rejects_bad_gene():
    space = build_space("one", [("b", (2, 3, 4), 4, [("kernel", (3, 5, 7))])])
    with pytest.raises(InvalidGenotype):
        canonicalize(Genotype((2, 7, 5, 3, 4)), space)
    with pytest.raises(InvalidGenotype):
        canonicalize(Genotype((2, 7, 5)), space)


def test_canonical_forms_unique_per_architecture(tiny_space):
    """Brute force: group every raw genotype by decoded architecture; each
    group must map to exactly one canonical form."""
    by_arch = {}
    for g in all_raw_genotypes(tiny_space):
        arch = brute_force_architecture(g, tiny_space)
        by_arch.setdefault(arch, set()).add(canonicalize(g, tiny_space).genes)
    assert all(len(forms) == 1 for forms in by_arch.values())
    # distinct architectures get distinct canonical forms
    canon = [next(iter(forms)) for forms in by_arch.values()]
    assert len(set(canon)) == len(by_arch)


def test_canonicalize_idempotent_random(toy_space):
    rng = np.random.default_rng(7)
    for _ in range(500):
        genes = tuple(
            vals[rng.integers(len(vals))] for vals in toy_space.allowed
        )
        c1 = canonicalize(Genotype(genes), toy_space)
        assert canonicalize(c1, toy_space).genes == c1.genes


@given(st.lists(st.integers(-(10**20), 10**20) | st.integers(-3, 12), max_size=50))
def test_genes_bytes_matches_per_gene_encoding(genes):
    """Genotype ids, evaluator noise and tie-break hashes read these bytes."""
    expected = b",".join(str(g).encode("ascii") for g in genes)
    assert genes_bytes(genes) == expected
    assert genes_bytes(Genotype(tuple(genes)).genes) == expected


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(ORACLE_SPACES), data=st.data())
def test_table_canonicalize_matches_loop_oracle(oracle_spaces, name, data):
    space = oracle_spaces[name]
    g = data.draw(raw_genotypes(space))
    expected = canonicalize_loop(g, space)
    assert canonicalize(g, space).genes == expected.genes
    assert is_canonical(g, space) == (expected.genes == g.genes)
    assert rank_genes(canonical_form(rank_matrix([g], space), space), space) == [expected.genes]


def test_repair_snaps_to_nearest_allowed(toy_space):
    raw = list(next(iter(sample_uniform(toy_space, 1, 3))).genes)
    raw[1] = 4  # kernel allows {3,5,7}; 4 ties 3/5 -> smaller wins
    raw[2] = 9  # -> 7
    fixed = Genotype(rank_genes(repaired_ranks([Genotype(tuple(raw))], toy_space), toy_space)[0])
    assert fixed.genes[1] in (3, 5)
    assert fixed.genes[1] == 3
    assert is_canonical(fixed, toy_space)


# ---------------------------------------------------------------------------
# cardinality
# ---------------------------------------------------------------------------


def test_cardinality_mobilenetv3_like():
    space = get_preset("mobilenetv3-like")
    per_block = 9**2 + 9**3 + 9**4
    assert per_block == 7371
    assert cardinality(space) == 7371**5
    assert math.isclose(float(cardinality(space)), 2.18e19, rel_tol=0.01)


def test_cardinality_single_block_trivial():
    space = build_space("s", [("b", (1,), 1, [("k", (3, 5, 7))])])
    assert cardinality(space) == 3


def test_cardinality_tiny_space_is_36(tiny_space):
    assert cardinality(tiny_space) == 36


def test_cardinality_matches_exhaustive_enumeration(tiny_space, toy_space, global_space):
    for space in (tiny_space, toy_space, global_space):
        enumerated = {g.genes for g in enumerate_genotypes(space)}
        assert len(enumerated) == cardinality(space)
        assert all(is_canonical(Genotype(g), space) for g in enumerated)
    # enumeration agrees with canonicalizing every raw genotype
    canon = {canonicalize(g, tiny_space).genes for g in all_raw_genotypes(tiny_space)}
    assert canon == {g.genes for g in enumerate_genotypes(tiny_space)}


# ---------------------------------------------------------------------------
# sample_uniform
# ---------------------------------------------------------------------------


def test_sample_deterministic(toy_space):
    a = sample_uniform(toy_space, 50, seed=11)
    b = sample_uniform(toy_space, 50, seed=11)
    assert [g.genes for g in a] == [g.genes for g in b]
    c = sample_uniform(toy_space, 50, seed=12)
    assert [g.genes for g in a] != [g.genes for g in c]


def test_sample_outputs_canonical(toy_space):
    assert all(is_canonical(g, toy_space) for g in sample_uniform(toy_space, 200, 5))


def test_sample_gene_frequencies_near_uniform():
    """Active-gene value frequencies within 5 sigma of the uniform binomial."""
    space = get_preset("mobilenetv3-like")
    n = 1000
    sample = sample_uniform(space, n, seed=3)
    for pos in range(space.genome_length):
        vals = space.allowed[pos]
        k = len(vals)
        counts = dict.fromkeys(vals, 0)
        active_total = 0
        for g in sample:
            if active_mask_loop(g, space)[pos]:
                counts[g.genes[pos]] += 1
                active_total += 1
        if active_total < 100:
            continue
        p = 1.0 / k
        sigma = math.sqrt(active_total * p * (1 - p))
        for v in vals:
            assert abs(counts[v] - active_total * p) <= 5 * sigma, (
                f"pos {pos} value {v}: {counts[v]} vs {active_total * p:.1f}"
            )


# ---------------------------------------------------------------------------
# encode_matrix
# ---------------------------------------------------------------------------


def test_one_hot_single_gene():
    space = build_space("s", [("b", (1,), 1, [("k", (3, 5, 7))])])
    g = canonicalize(Genotype((1, 5)), space)
    vec = encode([g], space, "one_hot")[0]
    # depth {1} -> (1.0,), kernel 5 -> (0,1,0)
    assert vec.tolist() == [1.0, 0.0, 1.0, 0.0]


def test_ordinal_normalized_values():
    space = build_space("s", [("b", (1,), 1, [("k", (3, 5, 7))])])
    g = canonicalize(Genotype((1, 7)), space)
    vec = encode([g], space, "ordinal_normalized")[0]
    assert vec.tolist() == [0.0, 1.0]  # singleton param -> 0.0, rank 2/2 -> 1.0


def test_encode_rejects_non_canonical(tiny_space):
    g = Genotype((1, 0, 1, 1, 0, 0))  # block a depth 1, slot 1 not at first value
    assert not is_canonical(g, tiny_space)
    with pytest.raises(NonCanonicalInput):
        encode([g], tiny_space, "one_hot")


@pytest.mark.parametrize("scheme", ["one_hot", "ordinal_normalized"])
def test_encode_row_rejects_wrong_genome_length(toy_space, scheme):
    g = sample_uniform(toy_space, 1, 0)[0]
    for genes in (g.genes[:-1], g.genes + (3,)):
        with pytest.raises(InvalidGenotype):
            encode_row(Genotype(genes), toy_space, scheme)
        with pytest.raises(InvalidGenotype) as err:
            encode([g, Genotype(genes)], toy_space, scheme)
        assert err.value.row == 1


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(ORACLE_SPACES), n=st.integers(1, 12), data=st.data())
def test_inactive_genes_match_per_gene_loop_oracle(oracle_spaces, name, n, data):
    space = oracle_spaces[name]
    gs = [data.draw(raw_genotypes(space)) for _ in range(n)]
    inactive = inactive_genes(rank_matrix(gs, space), space)
    assert inactive.tolist() == [[not a for a in active_mask_loop(g, space)] for g in gs]


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(ORACLE_SPACES), n=st.integers(0, 12), data=st.data())
def test_batch_encoder_matches_row_loop_oracle(oracle_spaces, name, n, data):
    space = oracle_spaces[name]
    gs = [canonicalize(data.draw(raw_genotypes(space)), space) for _ in range(n)]
    for scheme in ("one_hot", "ordinal_normalized"):
        X = encode(gs, space, scheme)
        assert X.shape == (n, feature_dim(space, scheme))
        assert X.dtype == np.float64
        if n:
            expected = np.vstack([encode_row(g, space, scheme) for g in gs])
            assert X.tobytes() == expected.tobytes()
            # the inner search's rows are the narrowest unsigned rank type
            narrow = canonical_ranks(gs, space)[0].astype(np.uint8)
            assert encode_matrix(narrow, space, scheme).tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(ORACLE_SPACES), data=st.data())
def test_batch_encoder_raises_like_the_row_loop(oracle_spaces, name, data):
    """A wrong length or a forbidden value raises InvalidGenotype and a
    non-canonical row raises NonCanonicalInput, naming the first bad row."""
    space = oracle_spaces[name]
    good = canonicalize(data.draw(raw_genotypes(space)), space)
    pos = data.draw(st.integers(0, space.genome_length - 1))
    forbidden = data.draw(
        st.integers(-3, 12).filter(lambda v: v not in space.allowed[pos])
    )
    genes = list(good.genes)
    genes[pos] = forbidden
    cases = [
        (Genotype(good.genes[:-1]), InvalidGenotype),
        (Genotype(good.genes + (good.genes[0],)), InvalidGenotype),
        (Genotype(tuple(genes)), InvalidGenotype),
        (Genotype((2**70,) + good.genes[1:]), InvalidGenotype),
    ]
    raw = data.draw(raw_genotypes(space))
    if not is_canonical(raw, space):
        cases.append((raw, NonCanonicalInput))
    bad_at = data.draw(st.integers(0, 3))
    for bad, exc_type in cases:
        if exc_type is InvalidGenotype:
            with pytest.raises(InvalidGenotype):
                encode_row(bad, space, "one_hot")
        batch = [good] * bad_at + [bad, good]
        for scheme in ("one_hot", "ordinal_normalized"):
            with pytest.raises(exc_type) as err:
                encode(batch, space, scheme)
            if exc_type is InvalidGenotype:
                assert err.value.row == bad_at


def test_one_hot_injective_on_canonical(tiny_space):
    seen = {}
    for g in enumerate_genotypes(tiny_space):
        key = tuple(encode([g], tiny_space, "one_hot")[0].tolist())
        assert key not in seen
        seen[key] = g


def test_encode_matrix_shape(toy_space):
    gs = sample_uniform(toy_space, 10, 1)
    for scheme in ("one_hot", "ordinal_normalized"):
        X = encode(gs, toy_space, scheme)
        assert X.shape == (10, feature_dim(toy_space, scheme))


# ---------------------------------------------------------------------------
# serialization and presets
# ---------------------------------------------------------------------------


def test_space_json_round_trip(tmp_path, toy_space):
    path = tmp_path / "space.json"
    save_space(toy_space, path)
    loaded = load_space(path)
    assert loaded == toy_space
    assert space_from_dict(space_to_dict(toy_space)) == toy_space


def test_space_document_field_names(toy_space):
    doc = space_to_dict(toy_space)
    assert set(doc) == {"name", "params", "blocks"}
    assert set(doc["params"][0]) == {"name", "role", "allowed_values", "position_count"}
    assert set(doc["blocks"][0]) == {"depth_gene", "governed_genes", "max_layers"}


def test_presets_construct():
    for name in ("mobilenetv3-like", "resnet50-like", "transformer-like"):
        space = get_preset(name)
        assert cardinality(space) > 1
        assert sample_uniform(space, 3, 0)
    with pytest.raises(ConfigError):
        get_preset("nope")


@pytest.mark.parametrize("draw", [uniform_ranks, sample_uniform])
def test_uniform_draw_of_no_rows_names_uniform_ranks(toy_space, draw):
    with pytest.raises(ConfigError, match="^uniform_ranks: n must be >= 1$"):
        draw(toy_space, 0, 0)


def test_resnet50_depth_zero_block_fully_inactive():
    space = get_preset("resnet50-like")
    g = sample_uniform(space, 1, 9)[0]
    genes = list(g.genes)
    genes[0] = 0  # stage0 depth
    c = canonicalize(Genotype(tuple(genes)), space)
    b = space.blocks[0]
    for pos in b.governed_gene_indices:
        assert c.genes[pos] == space.allowed[pos][0]


def repair_loop(g, space):
    """The gene-by-gene oracle for `repaired_ranks`: snap each gene to the
    nearest allowed value, ties to the smaller, then canonicalize."""
    genes = tuple(min(vals, key=lambda a: (abs(a - v), a))
                  for v, vals in zip(g.genes, space.allowed))
    return canonicalize_loop(Genotype(genes), space)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(ORACLE_SPACES), data=st.data())
def test_batch_repaired_ranks_matches_gene_by_gene_repair(oracle_spaces, name, data):
    space = oracle_spaces[name]
    values = sorted(set().union(*space.allowed))
    gs = data.draw(st.lists(st.one_of(
        raw_genotypes(space),
        st.tuples(*[st.integers(values[0] - 2, values[-1] + 2)] * space.genome_length)
        .map(Genotype),
    ), min_size=1, max_size=8))
    gs += data.draw(st.lists(st.sampled_from(gs), max_size=4))  # repeats
    want = list(dict.fromkeys(repair_loop(g, space) for g in gs))
    assert np.array_equal(repaired_ranks(gs, space), rank_matrix(want, space))
    assert [rank_genes(repaired_ranks([g], space), space) for g in gs] == [
        [repair_loop(g, space).genes] for g in gs]
    assert rank_genes(rank_matrix(want, space), space) == [g.genes for g in want]


# ---------------------------------------------------------------------------
# reduced spaces
# ---------------------------------------------------------------------------


def reduce(space, **cut):
    """`space` with the values at positions `p<i>` cut to the given ones."""
    allowed = list(space.allowed)
    for key, vals in cut.items():
        allowed[int(key[1:])] = vals
    return dataclasses.replace(space, reduction=tuple(allowed))


def reduced_form_loop(g, space):
    """The gene-by-gene oracle of canonical form in a reduced space: a gene
    outside the reduction takes the position's first allowed value (depth
    genes first, as they decide activity), then an inactive gene takes its
    parameter's first value."""
    snapped = Genotype(tuple(
        v if v in keep else keep[0] for v, keep in zip(g.genes, space.reduction)
    ))
    return Genotype(tuple(
        v if active else vals[0]
        for v, vals, active in zip(snapped.genes, space.allowed,
                                   active_mask_loop(snapped, space))
    ))


# toy layout: [0] blk0_depth, [1..2] blk0_kernel, [3..4] blk0_expand, [5] blk1_depth, ...;
# [2] is blk0's layer-1 kernel and [8] blk1's layer-0 expand
TOY_CUTS = {
    "per-layer value removed": {"p2": (5, 7)},
    "depth value removed": {"p0": (2,)},
    "position cut to one value": {"p8": (6,)},
    "all three": {"p2": (5, 7), "p0": (2,), "p8": (6,)},
}


@pytest.mark.parametrize("cut", TOY_CUTS.values(), ids=TOY_CUTS)
def test_reduced_cardinality_and_enumeration_match_brute_force(toy_space, cut):
    reduced = reduce(toy_space, **cut)
    want = {
        g.genes for g in enumerate_genotypes(toy_space)
        if in_reduced_form_loop(g, toy_space, reduced.reduction)
    }
    got = [g.genes for g in enumerate_genotypes(reduced)]
    assert cardinality(reduced) == len(set(got)) == len(got) == len(want) < 8100
    assert set(got) == want
    canonical_ranks(list(map(Genotype, got)), toy_space)  # canonical in the full space
    canonical_ranks(list(map(Genotype, got)), reduced)
    # every raw genotype canonicalizes into the reduced space, as the oracle does
    canon = {canonicalize(g, reduced).genes for g in all_raw_genotypes(toy_space)}
    assert canon == want


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(ORACLE_SPACES), data=st.data())
def test_reduced_canonical_form_matches_loop_oracle(oracle_spaces, name, data):
    space = oracle_spaces[name]
    reduced = dataclasses.replace(space, reduction=data.draw(reductions(space)))
    g = data.draw(raw_genotypes(space))
    expected = reduced_form_loop(g, reduced)
    assert canonicalize(g, reduced) == expected
    assert is_canonical(g, reduced) == (expected == g)
    assert in_reduced_form_loop(expected, space, reduced.reduction)
    if expected != g:
        with pytest.raises(NonCanonicalInput):
            canonical_ranks([g], reduced)


def test_reduced_space_keeps_the_parent_and_round_trips(tmp_path, toy_space):
    reduced = reduce(toy_space, p2=(7, 5), p0=(2,))
    assert reduced.reduction[2] == (5, 7)  # kept in the parameter's order
    assert (reduced.name, reduced.params, reduced.blocks, reduced.allowed) == (
        toy_space.name, toy_space.params, toy_space.blocks, toy_space.allowed)
    doc = space_to_dict(reduced)
    assert {k: doc[k] for k in ("name", "params", "blocks")} == space_to_dict(toy_space)
    assert doc["allowed"] == [list(vals) for vals in reduced.reduction]
    assert space_from_dict(doc) == reduced
    save_space(reduced, tmp_path / "r.json")
    assert load_space(tmp_path / "r.json") == reduced
    # the parent's surface ranks: encoding does not depend on the reduction
    gs = sample_uniform(reduced, 20, 1)
    for scheme in ("one_hot", "ordinal_normalized"):
        assert np.array_equal(encode(gs, reduced, scheme), encode(gs, toy_space, scheme))


@pytest.mark.parametrize("allowed, match", [
    ([[3]], "cover 1 positions, space has 10"),
    ([[1]] + [[9]] * 9, "position 1"),
    ([[]] * 10, "position 0"),
    ("x" * 10, "malformed"),
])
def test_malformed_allowed_is_config_error(toy_space, allowed, match):
    with pytest.raises(ConfigError, match=match):
        space_from_dict({**space_to_dict(toy_space), "allowed": allowed})


def test_genotype_ids_are_the_stable_hash_of_the_gene_text():
    gs = [Genotype(()), Genotype((3,)), Genotype((-1, 10**12, 7, 7)), Genotype((3,)),
          *sample_uniform(get_preset("mobilenetv3-like"), 5, 2)]
    rows = [g.genes for g in gs]
    assert genotype_ids(rows) == [format(stable_hash64(genes_bytes(g)), "016x") for g in rows]
    assert genotype_ids(iter(rows[:2])) == genotype_ids(rows)[:2]
    assert genotype_ids([list(g) for g in rows]) == genotype_ids(rows)
