"""Discrete elastic-parameter search spaces and genotype handling.

A search space is a fixed-length integer genome. Each position belongs to one
elastic parameter (block depth, per-layer choice, or global knob). Block rules
make per-layer genes inactive when the block's depth gene is below their layer
slot; canonicalization resets inactive genes to the parameter's first allowed
value so architecturally identical configurations compare equal.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidGenotype, NonCanonicalInput
from .util import GeneText, is_json_int64, read_json, subseed

ROLES = ("block_depth", "per_layer", "global")
ENCODINGS = ("one_hot", "ordinal_normalized")


@dataclass(frozen=True)
class ElasticParamSpec:
    """One elastic parameter contributing `position_count` genome positions."""

    name: str
    position_count: int
    allowed_values: tuple[int, ...]
    role: str

    def __post_init__(self):
        object.__setattr__(self, "allowed_values", tuple(self.allowed_values))
        if self.position_count < 1:
            raise ConfigError(f"param {self.name}: position_count must be >= 1")
        if not self.allowed_values:
            raise ConfigError(f"param {self.name}: allowed_values must be non-empty")
        if any(b <= a for a, b in zip(self.allowed_values, self.allowed_values[1:])):
            raise ConfigError(
                f"param {self.name}: allowed_values must be strictly ascending"
            )
        if self.role not in ROLES:
            raise ConfigError(f"param {self.name}: unknown role {self.role!r}")


@dataclass(frozen=True)
class BlockRule:
    """Activity rule: a governed gene is active iff its layer slot < depth value.

    `governed_gene_indices` is layer-major: all per-layer parameters of layer 0
    first, then layer 1, and so on.
    """

    depth_gene_index: int
    governed_gene_indices: tuple[int, ...]
    max_layers: int

    def __post_init__(self):
        object.__setattr__(
            self, "governed_gene_indices", tuple(self.governed_gene_indices)
        )
        if self.max_layers < 1:
            raise ConfigError("block: max_layers must be >= 1")
        if len(self.governed_gene_indices) % self.max_layers != 0:
            raise ConfigError(
                "block: governed gene count must be a multiple of max_layers"
            )

    @property
    def params_per_layer(self) -> int:
        return len(self.governed_gene_indices) // self.max_layers


@dataclass(frozen=True)
class Genotype:
    """Fixed-length integer vector encoding one sub-network configuration."""

    genes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "genes", tuple(map(int, self.genes)))

    def __len__(self) -> int:
        return len(self.genes)


def genotype_ids(gene_rows) -> list[str]:
    """Short stable hex ids used to join CSV exports with evaluation logs:
    `stable_hash64` of each gene row's `genes_bytes`, in 16 hex digits, made
    in one pass that writes each distinct gene value's text once."""
    text = GeneText()
    joined = (",".join(map(text.__getitem__, genes)).encode("ascii") for genes in gene_rows)
    return [hashlib.blake2b(b + b"\x1f", digest_size=8).digest()[::-1].hex() for b in joined]


@dataclass(frozen=True)
class SearchSpace:
    """Ordered parameters plus block activity rules; immutable after build.

    A reduced space adds a reduction: per genome position, the values (a
    non-empty subset of its parameter's) that an active gene may take. It
    keeps its parent's name, parameters and value ranks, so its genotypes
    are canonical genotypes of the parent and score on its surfaces."""

    name: str
    params: tuple[ElasticParamSpec, ...]
    blocks: tuple[BlockRule, ...]
    reduction: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if self.reduction is not None:
            reduction = tuple(tuple(sorted(set(map(int, v)))) for v in self.reduction)
            object.__setattr__(self, "reduction", reduction)
        self._validate()

    # -- derived layout ----------------------------------------------------

    @cached_property
    def genome_length(self) -> int:
        return sum(p.position_count for p in self.params)

    @cached_property
    def param_index_of_position(self) -> tuple[int, ...]:
        out = []
        for i, p in enumerate(self.params):
            out.extend([i] * p.position_count)
        return tuple(out)

    @cached_property
    def allowed(self) -> tuple[tuple[int, ...], ...]:
        """Allowed values per genome position."""
        return tuple(
            self.params[i].allowed_values for i in self.param_index_of_position
        )

    @cached_property
    def active_values(self) -> tuple[tuple[int, ...], ...]:
        """Per position, the values an active gene may take: the reduction's,
        else every allowed value."""
        return self.allowed if self.reduction is None else self.reduction

    @cached_property
    def active_ranks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(counts, table, slot): per position, how many ranks an active gene
        may take; a row starting with those ranks, ascending; and each rank's
        index in that row (0 for a rank not among them). Without a reduction
        the table is the identity."""
        mask = np.zeros((self.genome_length, max(map(len, self.allowed), default=1)), bool)
        for pos, vals in enumerate(self.active_values):
            mask[pos, [self.rank_of_value[pos][v] for v in vals]] = True
        slot = np.where(mask, mask.cumsum(axis=1) - 1, 0)
        return mask.sum(axis=1), np.argsort(~mask, axis=1, kind="stable"), slot

    @cached_property
    def rank_of_value(self) -> tuple[dict[int, int], ...]:
        """Per position, each allowed value's rank (its index in `allowed`)."""
        return tuple({v: r for r, v in enumerate(vals)} for vals in self.allowed)

    @cached_property
    def _one_hot_offsets(self) -> np.ndarray:
        """First one-hot column of each position."""
        sizes = [len(vals) for vals in self.allowed]
        return np.cumsum([0] + sizes[:-1]).astype(np.intp)

    @cached_property
    def _ordinal_scale(self) -> np.ndarray:
        """Per position k - 1 for k allowed values, 1 when k is 1."""
        return np.array([max(len(vals) - 1, 1) for vals in self.allowed], dtype=float)

    @cached_property
    def _rank_lookup(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, table): every value allowed anywhere, ascending, and per
        position the rank of each of them there, -1 where it is forbidden,
        flat: the rank of values[j] at position p is table[p * len(values) + j]."""
        values = np.array(sorted(set().union(*self.allowed)), dtype=np.int64)
        table = np.full((self.genome_length, len(values)), -1, dtype=np.intp)
        for pos, vals in enumerate(self.allowed):
            table[pos, np.searchsorted(values, vals)] = np.arange(len(vals))
        return values, table.ravel()

    @cached_property
    def _flat_values(self) -> np.ndarray:
        """Every position's allowed values, one after another (the one-hot
        column order)."""
        return np.array([v for vals in self.allowed for v in vals], dtype=np.int64)

    @cached_property
    def _inactive_rank_rule(self) -> tuple[np.ndarray, np.ndarray]:
        """(depth_col, below): a position is inactive in a rank row iff the
        rank at depth_col is below `below`, that is, iff its block's depth is
        at most its layer slot; `below` is 0 for positions no block governs,
        and in the smallest dtype that holds it (comparisons stay narrow)."""
        depth_col = np.arange(self.genome_length)
        below = np.zeros(self.genome_length, dtype=np.intp)
        for b in self.blocks:
            depths = self.allowed[b.depth_gene_index]
            ppl = b.params_per_layer
            for slot, pos in enumerate(b.governed_gene_indices):
                depth_col[pos] = b.depth_gene_index
                below[pos] = np.searchsorted(depths, slot // ppl, side="right")
        return depth_col, below.astype(np.min_scalar_type(below.max(initial=0)))

    def param_at(self, position: int) -> ElasticParamSpec:
        return self.params[self.param_index_of_position[position]]

    def value_rank(self, position: int, value: int) -> int:
        try:
            return self.rank_of_value[position][value]
        except KeyError:
            raise InvalidGenotype(
                f"value {value} not allowed at position {position} "
                f"(param {self.param_at(position).name})"
            ) from None

    # -- validation ----------------------------------------------------------

    def _validate(self) -> None:
        n = self.genome_length
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate parameter names")
        governed_by: dict[int, int] = {}
        for bi, b in enumerate(self.blocks):
            if not (0 <= b.depth_gene_index < n):
                raise ConfigError(f"block {bi}: depth gene index out of range")
            depth_param = self.param_at(b.depth_gene_index)
            if depth_param.role != "block_depth":
                raise ConfigError(
                    f"block {bi}: depth gene must have role block_depth, "
                    f"got {depth_param.role}"
                )
            if max(depth_param.allowed_values) > b.max_layers:
                raise ConfigError(f"block {bi}: depth value exceeds max_layers")
            if min(depth_param.allowed_values) < 0:
                raise ConfigError(f"block {bi}: negative depth value")
            for pos in b.governed_gene_indices:
                if not (0 <= pos < n):
                    raise ConfigError(f"block {bi}: governed index out of range")
                if self.param_at(pos).role != "per_layer":
                    raise ConfigError(
                        f"block {bi}: governed gene {pos} is not per_layer"
                    )
                if pos in governed_by:
                    raise ConfigError(f"gene {pos} governed by more than one block")
                governed_by[pos] = bi
        for pos in range(n):
            if self.param_at(pos).role == "per_layer" and pos not in governed_by:
                raise ConfigError(f"per_layer gene {pos} is governed by no block")
        reduction = self.reduction
        if reduction is not None and len(reduction) != n:
            raise ConfigError(f"allowed values cover {len(reduction)} positions, space has {n}")
        for pos, (keep, vals) in enumerate(zip(reduction or (), self.allowed)):
            if not keep or not set(keep) <= set(vals):
                raise ConfigError(f"position {pos}: {keep} is not a non-empty subset of {vals}")

    # -- genotype helpers ----------------------------------------------------

    def validate_genes(self, g: Genotype) -> None:
        if len(g.genes) == self.genome_length and all(
            map(dict.__contains__, self.rank_of_value, g.genes)
        ):
            return
        # invalid: word the error for the first bad gene
        if len(g.genes) != self.genome_length:
            raise InvalidGenotype(
                f"genotype length {len(g.genes)} != genome length {self.genome_length}"
            )
        for pos, value in enumerate(g.genes):
            self.value_rank(pos, value)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def canonical_form(ranks: np.ndarray, s: SearchSpace) -> np.ndarray:
    """Put rank rows in canonical form, in place, and return them: an active
    gene whose value the reduction leaves out takes the position's first
    value it keeps, and an inactive gene its parameter's first value."""
    if s.reduction is not None:
        _, table, slot = s.active_ranks
        at = np.arange(s.genome_length)
        ranks[...] = table[at, slot[at, ranks]]
    depth_col, below = s._inactive_rank_rule
    ranks *= ranks.take(depth_col, axis=1) >= below  # inactive genes take rank 0
    return ranks


def canonicalize(g: Genotype, s: SearchSpace) -> Genotype:
    """`g` in canonical form (see `canonical_form`); InvalidGenotype if it
    is not a genotype of `s`."""
    return Genotype(rank_genes(canonical_form(rank_matrix([g], s), s), s)[0])


def is_canonical(g: Genotype, s: SearchSpace) -> bool:
    return canonicalize(g, s) == g


def repaired_ranks(genotypes, s: SearchSpace) -> np.ndarray:
    """The canonical rank rows of genotypes from outside `s` (warm starts
    across reduced spaces): each gene snapped to the nearest value an active
    gene may take (ties go to the smaller), then canonicalized; the first
    row of each canonical form is kept, in input order."""
    rows = [g.genes for g in genotypes]
    bad = [len(genes) for genes in rows if len(genes) != s.genome_length]
    if bad:
        raise InvalidGenotype(
            f"cannot repair genotype of length {bad[0]} for genome length {s.genome_length}"
        )
    if not rows:
        return np.zeros((0, s.genome_length), dtype=np.intp)
    counts, table, _ = s.active_ranks
    # per position, the values an active gene may take, ascending; `far`
    # marks the table's entries beyond them
    far = np.arange(table.shape[1]) >= counts[:, None]
    values = s._flat_values[s._one_hot_offsets[:, None] + np.where(far, 0, table)]
    low, high = int(values.min(initial=0)) - 1, int(values.max(initial=0)) + 1
    try:
        genes = np.clip(np.array(rows, dtype=np.int64), low, high)
    except OverflowError:  # beyond int64: clipping first snaps them the same
        genes = np.array([[min(max(v, low), high) for v in r] for r in rows])
    # the nearest of those values; the first of two as near is the smaller
    dist = np.where(far, high - low + 1, np.abs(genes[:, :, None] - values))
    nearest = table[np.arange(s.genome_length), dist.argmin(axis=2)]
    repaired = canonical_form(nearest, s)
    index: dict[bytes, int] = {}
    keys = _row_bytes(repaired)
    return repaired[[i for i, key in enumerate(keys) if index.setdefault(key, i) == i]]


def _row_bytes(ranks) -> list[bytes]:
    """The bytes of each row of a rank matrix, as intp: equal iff the rows are."""
    ranks = np.ascontiguousarray(ranks, np.intp)
    return ranks.view(np.dtype((np.void, ranks.itemsize * ranks.shape[1]))).ravel().tolist()


def cardinality(s: SearchSpace) -> int:
    """Number of distinct canonical genotypes (arbitrary precision)."""
    allowed = s.active_values
    total = 1
    consumed: set[int] = set()
    for b in s.blocks:
        ppl = b.params_per_layer
        layer_combos = []
        for layer in range(b.max_layers):
            slots = b.governed_gene_indices[layer * ppl : (layer + 1) * ppl]
            layer_combos.append(math.prod(len(allowed[pos]) for pos in slots))
        depth_values = allowed[b.depth_gene_index]
        total *= sum(math.prod(layer_combos[:d]) for d in depth_values)
        consumed.add(b.depth_gene_index)
        consumed.update(b.governed_gene_indices)
    for pos in range(s.genome_length):
        if pos not in consumed:
            total *= len(allowed[pos])
    return total


def uniform_ranks(s: SearchSpace, n: int, seed: int) -> np.ndarray:
    """The rank rows of n canonical genotypes, each gene drawn uniformly
    from the values an active gene may take at its position."""
    if n < 1:
        raise ConfigError("uniform_ranks: n must be >= 1")
    rng = np.random.default_rng(seed)
    counts, table, _ = s.active_ranks
    at = np.arange(s.genome_length)
    return canonical_form(table[at, rng.integers(0, counts, size=(n, len(at)))], s)


def sample_uniform(s: SearchSpace, n: int, seed: int) -> list[Genotype]:
    """The genotypes of `uniform_ranks(s, n, seed)`."""
    return list(map(Genotype, rank_genes(uniform_ranks(s, n, seed), s)))


def sample_unique(s: SearchSpace, n: int, seed: int, *labels, exclude=()) -> np.ndarray:
    """Up to n distinct canonical rank rows, none a row of the rank matrix
    `exclude`.

    Attempt k draws the shortfall uniformly with sub-seed (seed, *labels, k);
    after 100 attempts a space too small to fill gives fewer than n.
    """
    out: list[bytes] = []
    seen = set(_row_bytes(np.reshape(exclude, (-1, s.genome_length))))
    for attempt in range(100):
        if len(out) >= n:
            break
        for key in _row_bytes(uniform_ranks(s, n - len(out), subseed(seed, *labels, attempt))):
            if key not in seen:
                seen.add(key)
                out.append(key)
    return np.frombuffer(b"".join(out), np.intp).reshape(len(out), s.genome_length)


def enumerate_genotypes(s: SearchSpace):
    """Yield every canonical genotype; intended for toy spaces only."""
    base = [vals[0] for vals in s.allowed]
    allowed = s.active_values
    block_positions: set[int] = set()
    per_block: list[list[tuple[tuple[int, ...], tuple[int, ...]]]] = []
    for b in s.blocks:
        block_positions.add(b.depth_gene_index)
        block_positions.update(b.governed_gene_indices)
        ppl = b.params_per_layer
        assignments = []
        for depth in allowed[b.depth_gene_index]:
            active = b.governed_gene_indices[: depth * ppl]
            for combo in itertools.product(*(allowed[pos] for pos in active)):
                positions = (b.depth_gene_index,) + active
                values = (depth,) + combo
                assignments.append((positions, values))
        per_block.append(assignments)
    free_positions = [
        pos for pos in range(s.genome_length) if pos not in block_positions
    ]
    free_choices = itertools.product(*(allowed[pos] for pos in free_positions))
    for free_values in free_choices:
        for blocks_choice in itertools.product(*per_block):
            genes = list(base)
            for pos, val in zip(free_positions, free_values):
                genes[pos] = val
            for positions, values in blocks_choice:
                for pos, val in zip(positions, values):
                    genes[pos] = val
            yield Genotype(tuple(genes))


# ---------------------------------------------------------------------------
# Feature encoding
# ---------------------------------------------------------------------------


def feature_dim(s: SearchSpace, scheme: str) -> int:
    if scheme == "one_hot":
        return sum(len(vals) for vals in s.allowed)
    if scheme == "ordinal_normalized":
        return s.genome_length
    raise ConfigError(f"unknown encoding scheme {scheme!r}")


def rank_matrix(genotypes, s: SearchSpace) -> np.ndarray:
    """The (n x genome length) matrix of value ranks of many genotypes,
    given as Genotypes or as a matrix of gene values.

    A wrong length or a value the space forbids raises InvalidGenotype,
    worded for the first such genotype, whose index is the error's `row`.
    """
    rows = genotypes if isinstance(genotypes, np.ndarray) else [g.genes for g in genotypes]
    values, table = s._rank_lookup
    try:
        genes = np.asarray(rows, dtype=np.int64).reshape(len(rows), s.genome_length)
    except (ValueError, OverflowError):
        genes = None  # ragged or beyond int64: the loop below words it
    if genes is not None:
        idx = np.minimum(np.searchsorted(values, genes), len(values) - 1)
        ranks = table.take(idx + np.arange(s.genome_length) * len(values))
        if (values.take(idx) == genes).all() and ranks.min(initial=0) >= 0:
            return ranks
    for i, row in enumerate(rows):
        try:
            s.validate_genes(Genotype(row))
        except InvalidGenotype as exc:
            raise InvalidGenotype(str(exc), row=i) from None
    raise AssertionError("rank_matrix: no invalid row found")


def gene_matrix(ranks: np.ndarray, s: SearchSpace) -> np.ndarray:
    """The gene-value matrix of a rank matrix; inverse of `rank_matrix`."""
    return np.take(s._flat_values, ranks + s._one_hot_offsets)


def rank_genes(ranks: np.ndarray, s: SearchSpace) -> list[tuple[int, ...]]:
    """The gene tuples of a rank matrix's rows."""
    return list(map(tuple, gene_matrix(ranks, s).tolist()))


def encode_matrix(ranks: np.ndarray, s: SearchSpace, scheme: str) -> np.ndarray:
    """Feature rows of a rank matrix: one-hot by offset indexing, or each
    rank over (k - 1) for a parameter with k values (0 when k is 1).
    Genotypes from outside the engine go through `canonical_ranks` first."""
    if scheme == "one_hot":
        X = np.zeros((len(ranks), len(s._flat_values)))  # one column per allowed value
        rows = np.arange(len(ranks))[:, None] * X.shape[1]
        X.ravel()[ranks + (s._one_hot_offsets + rows)] = 1.0
        return X
    if scheme == "ordinal_normalized":
        return ranks / s._ordinal_scale
    raise ConfigError(f"unknown encoding scheme {scheme!r}")


def inactive_genes(ranks: np.ndarray, s: SearchSpace) -> np.ndarray:
    """Per entry of a rank matrix, whether the block rules leave it inactive;
    depth and global genes are always active."""
    depth_col, below = s._inactive_rank_rule
    return ranks[:, depth_col] < below


def canonical_ranks(genotypes, s: SearchSpace) -> tuple[np.ndarray, np.ndarray]:
    """(rank matrix, inactive mask) of many canonical genotypes, given as
    Genotypes or as a matrix of gene values;
    InvalidGenotype (see `rank_matrix`) or NonCanonicalInput names the first
    offending row."""
    ranks = rank_matrix(genotypes, s)
    off = (canonical_form(ranks.copy(), s) != ranks).any(axis=1)
    if off.any():
        raise NonCanonicalInput(f"genotype {rank_genes(ranks[off][:1], s)[0]} is not canonical")
    return ranks, inactive_genes(ranks, s)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def space_to_dict(s: SearchSpace) -> dict:
    """The space document of `s`; its reduction, if any, is `allowed`."""
    doc = {
        "name": s.name,
        "params": [
            {
                "name": p.name,
                "role": p.role,
                "allowed_values": list(p.allowed_values),
                "position_count": p.position_count,
            }
            for p in s.params
        ],
        "blocks": [
            {
                "depth_gene": b.depth_gene_index,
                "governed_genes": list(b.governed_gene_indices),
                "max_layers": b.max_layers,
            }
            for b in s.blocks
        ],
    }
    if s.reduction is not None:
        doc["allowed"] = [list(vals) for vals in s.reduction]
    return doc


def space_from_dict(d: dict) -> SearchSpace:
    """The space of a document whose integers are JSON integers within int64."""
    def integer(value) -> int:
        if not is_json_int64(value):
            raise ValueError(f"{value!r} is not an integer")
        return value

    try:
        params = tuple(
            ElasticParamSpec(
                name=p["name"],
                position_count=integer(p["position_count"]),
                allowed_values=tuple(map(integer, p["allowed_values"])),
                role=p["role"],
            )
            for p in d["params"]
        )
        blocks = tuple(
            BlockRule(
                depth_gene_index=integer(b["depth_gene"]),
                governed_gene_indices=tuple(map(integer, b["governed_genes"])),
                max_layers=integer(b["max_layers"]),
            )
            for b in d.get("blocks", [])
        )
        allowed = d.get("allowed")
        allowed = None if allowed is None else [tuple(map(integer, v)) for v in allowed]
        return SearchSpace(d["name"], params, blocks, allowed)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed search-space document: {exc}") from exc


def load_space(path: str | Path) -> SearchSpace:
    doc = read_json(path)
    try:
        return space_from_dict(doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def save_space(s: SearchSpace, path: str | Path, **extra) -> None:
    """Write the space document of `s`, with `extra` as further top-level
    keys, which `space_from_dict` ignores."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**space_to_dict(s), **extra}, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Built-in presets
# ---------------------------------------------------------------------------


def build_space(name, blocks, global_params=()) -> SearchSpace:
    """Assemble a space from block descriptors.

    blocks: sequence of (block_name, depth_values, max_layers,
            [(param_name, allowed_values), ...]); per-layer genes are stored
    param-major but governed lists are layer-major, so the activity rule is a
    single integer division.
    """
    params: list[ElasticParamSpec] = []
    rules: list[BlockRule] = []
    pos = 0
    for bname, depths, max_layers, per_layer in blocks:
        params.append(
            ElasticParamSpec(f"{bname}_depth", 1, tuple(depths), "block_depth")
        )
        depth_idx = pos
        pos += 1
        starts = []
        for pname, values in per_layer:
            params.append(
                ElasticParamSpec(f"{bname}_{pname}", max_layers, tuple(values), "per_layer")
            )
            starts.append(pos)
            pos += max_layers
        governed = tuple(
            starts[p] + layer
            for layer in range(max_layers)
            for p in range(len(per_layer))
        )
        rules.append(BlockRule(depth_idx, governed, max_layers))
    for gname, values in global_params:
        params.append(ElasticParamSpec(gname, 1, tuple(values), "global"))
        pos += 1
    return SearchSpace(name=name, params=tuple(params), blocks=tuple(rules))


def mobilenetv3_like() -> SearchSpace:
    """Five blocks, depths {2,3,4}, per-layer kernel {3,5,7} and expansion
    {3,4,6}; ~2.18e19 canonical genotypes. Approximates the usual elastic
    MobileNetV3 layout; exact value sets are a shipping default, not gospel.
    """
    blocks = [
        (f"block{i}", (2, 3, 4), 4, [("kernel", (3, 5, 7)), ("expand", (3, 4, 6))])
        for i in range(5)
    ]
    return build_space("mobilenetv3-like", blocks)


def resnet50_like() -> SearchSpace:
    """Five stages with skippable layers (depth 0 allowed), expansion-ratio
    ranks standing in for {0.2, 0.25, 0.35}, one global width-multiplier rank.
    """
    blocks = [
        (f"stage{i}", (0, 1, 2), 2, [("expand_rank", (0, 1, 2))]) for i in range(5)
    ]
    return build_space("resnet50-like", blocks, [("width_mult_rank", (0, 1, 2))])


def transformer_like() -> SearchSpace:
    """Encoder/decoder with elastic layer counts, per-layer FFN ratio and head
    count, a decoder attention-span gene, and a global embedding-width rank.
    """
    blocks = [
        ("encoder", (4, 5, 6), 6, [("ffn_ratio", (2, 3, 4)), ("heads", (2, 4))]),
        (
            "decoder",
            (1, 2, 3, 4, 5, 6),
            6,
            [("ffn_ratio", (2, 3, 4)), ("heads", (2, 4)), ("attn_span", (1, 2, 3))],
        ),
    ]
    return build_space("transformer-like", blocks, [("embed_rank", (0, 1))])


PRESETS = {
    "mobilenetv3-like": mobilenetv3_like,
    "resnet50-like": resnet50_like,
    "transformer-like": transformer_like,
}


def get_preset(name: str) -> SearchSpace:
    try:
        return PRESETS[name]()
    except KeyError:
        raise ConfigError(
            f"unknown space preset {name!r}; available: {sorted(PRESETS)}"
        ) from None


def resolve_space(name_or_path: str) -> SearchSpace:
    """Resolve a preset name or a search-space JSON file path."""
    if name_or_path in PRESETS:
        return PRESETS[name_or_path]()
    p = Path(name_or_path)
    if p.exists():
        return load_space(p)
    raise ConfigError(
        f"space {name_or_path!r} is neither a preset ({sorted(PRESETS)}) "
        "nor an existing file"
    )
