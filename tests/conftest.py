"""Shared fixtures: toy spaces small enough for exhaustive oracles, and the
per-gene loop oracle of the block activity rule."""

import numpy as np
import pytest
from hypothesis import strategies as st

from subnetsearch.evalmgr import EvaluationFailure
from subnetsearch.space import PRESETS, Genotype, build_space, get_preset


class CallableEvaluator:
    """An evaluator of a genotype -> ObjectiveVector function; exceptions
    become per-genotype failures."""

    def __init__(self, fn, evaluator_id: str = "callable"):
        self.fn = fn
        self.evaluator_id = evaluator_id

    def evaluate(self, genotypes):
        out = []
        for g in genotypes:
            try:
                out.append(self.fn(g))
            except Exception as exc:  # noqa: BLE001 - contract: flag, continue
                out.append(EvaluationFailure(str(exc)))
        return out


# The failure message of every pinned-digest test.
DIGEST_MOVED = (
    "a pinned digest moved: a change that moves a logged evals.jsonl byte for an "
    "unchanged config bumps driver.TRAJECTORY and names the new version in CHANGES.md"
)


def validation_records(store):
    """A result store's successful validation records in sequence order: the
    record form of its `validation_columns`."""
    return [r for r in store.records if r.ok]


def gene_rows(genotypes):
    """The (n, L) int64 gene matrix of Genotypes, as `evaluate_batch` takes it."""
    return np.array([g.genes for g in genotypes], dtype=np.int64)


@pytest.fixture(scope="session")
def tiny_space():
    """2 blocks, depths {1,2}, one per-layer parameter with 2 values.

    Exactly 36 canonical genotypes: per block 2 + 2^2 = 6, squared.
    """
    blocks = [
        ("a", (1, 2), 2, [("width", (0, 1))]),
        ("b", (1, 2), 2, [("width", (0, 1))]),
    ]
    return build_space("tiny", blocks)


@pytest.fixture(scope="session")
def toy_space():
    """2 blocks, depths {1,2}, kernel {3,5,7} and expand {3,4,6} per layer.

    Per block: 9 + 81 = 90 combos; 8100 canonical genotypes total, small
    enough to enumerate but structured like the real presets.
    """
    blocks = [
        ("blk0", (1, 2), 2, [("kernel", (3, 5, 7)), ("expand", (3, 4, 6))]),
        ("blk1", (1, 2), 2, [("kernel", (3, 5, 7)), ("expand", (3, 4, 6))]),
    ]
    return build_space("toy", blocks)


@pytest.fixture(scope="session")
def global_space():
    """One block plus a global gene, for constraint and encoding tests."""
    blocks = [("m", (1, 2, 3), 3, [("kernel", (3, 5, 7))])]
    return build_space("toy-global", blocks, [("width", (1, 2))])


ORACLE_SPACES = ["tiny", "toy", "toy-global", *PRESETS]


@pytest.fixture(scope="session")
def oracle_spaces(tiny_space, toy_space, global_space):
    """The toy spaces and the presets by name, as listed in ORACLE_SPACES."""
    spaces = {s.name: s for s in (tiny_space, toy_space, global_space)}
    return {name: spaces.get(name) or get_preset(name) for name in ORACLE_SPACES}


@st.composite
def raw_genotypes(draw, space):
    """A valid, possibly non-canonical genotype of `space`."""
    return Genotype(tuple(draw(st.sampled_from(vals)) for vals in space.allowed))


@st.composite
def reductions(draw, space):
    """A reduction of `space`: per position, a non-empty subset of its values."""
    return tuple(
        tuple(sorted(draw(st.sets(st.sampled_from(vals), min_size=1))))
        for vals in space.allowed
    )


def in_reduced_form_loop(g, space, reduction):
    """Whether a genotype is canonical in `space` reduced by `reduction`, gene
    by gene: every active gene takes an allowed value, and every inactive
    gene its parameter's first value."""
    return all(
        v in keep if active else v == vals[0]
        for v, keep, vals, active in zip(
            g.genes, reduction, space.allowed, active_mask_loop(g, space)
        )
    )


def active_mask_loop(g, space):
    """Per-position activity of one genotype by the block rules, gene by
    gene: a governed gene is inactive iff its layer slot is at least its
    block's depth; depth and global genes are always active."""
    mask = [True] * space.genome_length
    for b in space.blocks:
        depth = g.genes[b.depth_gene_index]
        ppl = b.params_per_layer
        for slot, pos in enumerate(b.governed_gene_indices):
            if slot // ppl >= depth:
                mask[pos] = False
    return mask
