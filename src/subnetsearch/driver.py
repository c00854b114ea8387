"""Search tactics: one predictor-in-the-loop search, two configs.

`search` validates batches. Between two batches it fits a predictor per
objective on every validation so far and runs NSGA-II against the
predictors; that inner search picks the next batch. Under a
`ConcurrentNasConfig` it validates `iterations` batches: the first is the
(warm-started) population, each inner search starts from the validated
front plus the batch before it, and the best not-yet-validated
configurations it finds are the next batch, so competitive configurations
surface after very few real measurements. The run ends when the last batch
is logged: no search runs whose picks no batch would measure. Under a
`FullSearchConfig` the first batch is a uniform sample of `n_train`, its one
inner search runs `generations` generations from the warm start, and the
second batch is that search's whole predicted front. With predictor family
"none" the full tactic is NSGA-II on validations instead: the evolver
measures every child.

The predicted front is the front of the last inner search; a concurrent run
of one iteration, and a full run under family "none", have none.

Both return a SearchReport with a hypervolume-versus-evaluations trace. Its
reference is frozen at the first validated batch; under family "none" it is
placed over every validation of the run, so no point is clamped out of it.
"""

from __future__ import annotations

import itertools
import json
import math
import time
import types
import typing
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, EmptyInput, EvaluationFailed
from .evalmgr import (
    ResultStore,
    evaluate_batch,
    training_rows,
)
from .evolver import EvolverConfig, evolve, select_best
from .objectives import (
    FrontColumns,
    IncrementalFront2D,
    ObjectiveSpec,
    canonical_matrix,
    check_unique_names,
    default_reference,
    front_to_csv,
    hv_trace_to_csv,
    pareto_front,  # noqa: F401  (a trace site of perfbench/runner.py)
    validated_front,
)
from .predict import fit_ridge, fit_svr, predict, ridge_system
from .space import (
    ENCODINGS,
    Genotype,
    SearchSpace,
    encode_matrix,
    gene_matrix,
    rank_matrix,
    repaired_ranks,
    sample_unique,
    uniform_ranks,
)
from .util import SEED_RANGE, check_rules, subseed

PREDICTOR_FAMILIES = ("ridge", "svr", "none")

# The trajectory version a config.json names: a file replays byte for byte
# only under the version that wrote it. A change that moves a logged byte for
# an unchanged config bumps it.
TRAJECTORY = 1


@dataclass(frozen=True)
class PredictorConfig:
    family: str = "ridge"  # "none" -> validation-backed search, no surrogates
    encoding: str = "one_hot"
    ridge_lambda: float = 1.0
    families: dict[str, str] = field(default_factory=dict)  # per-objective override

    def __post_init__(self):
        """Raise ConfigError on a setting no fit could use, so that a run
        fails before its first evaluation."""
        if not isinstance(self.families, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in self.families.items()
        ):
            raise ConfigError(f"families must be an object of strings, got {self.families!r}")
        for fam in [self.family, *self.families.values()]:
            if fam not in PREDICTOR_FAMILIES:
                raise ConfigError(f"unknown predictor family {fam!r}")
        if self.encoding not in ENCODINGS:
            raise ConfigError(f"unknown encoding {self.encoding!r}; available: {ENCODINGS}")
        check_rules(
            self,
            ("ridge_lambda", 0 <= self.ridge_lambda < math.inf, "finite and >= 0"),
            ("ridge_lambda", self.ridge_lambda > 0 or self.encoding != "one_hot"
             or "ridge" not in (self.family, *self.families.values()),
             "> 0 for ridge on one_hot features, whose centered columns sum to 0 per position"),
        )

    def family_for(self, objective: str) -> str:
        return self.families.get(objective, self.family)


@dataclass(frozen=True)
class SearchConfig:
    """The settings both tactics share; a subclass picks the tactic. The last
    six fields rebuild the run's space and evaluator; `search` reads none."""

    population_size: int = 50
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    warm_start: tuple[Genotype, ...] | None = None
    seed: int = 0
    space: str | None = None  # a preset name or a space file
    space_doc: dict | None = None  # the space document, which replay prefers
    evaluator: str | None = None
    noise_scale: float = 0.0
    noise_seed: int = 0
    objectives: tuple[ObjectiveSpec, ...] = ()

    def __post_init__(self):
        """Raise ConfigError on a setting no search could use, so that a run
        fails before its first evaluation."""
        check_rules(
            self,
            ("seed", self.seed in SEED_RANGE, "in [-2**127, 2**127)"),
            ("noise_seed", self.noise_seed in SEED_RANGE, "in [-2**127, 2**127)"),
            ("noise_scale", 0 <= self.noise_scale < math.inf, "finite and >= 0"),
        )

    def evolver(self, generations: int, seed: int) -> EvolverConfig:
        """The EvolverConfig of a search under this config; raises
        ConfigError on a bad size."""
        return EvolverConfig(self.population_size, generations, seed)


@dataclass(frozen=True)
class FullSearchConfig(SearchConfig):
    tactic: typing.ClassVar[str] = "full"
    generations: int = 200
    n_train: int = 500  # up-front validation sample; unused with family "none"

    def __post_init__(self):
        super().__post_init__()
        self.evolver(self.generations, self.seed)
        check_rules(self, ("n_train", self.predictor.family == "none" or self.n_train >= 1, ">= 1"))


@dataclass(frozen=True)
class ConcurrentNasConfig(SearchConfig):
    tactic: typing.ClassVar[str] = "concurrent"
    iterations: int = 3
    inner_generations: int = 250  # keep well above 200 so the inner search saturates

    def __post_init__(self):
        super().__post_init__()
        self.evolver(self.inner_generations, self.seed)
        check_rules(self, ("iterations", self.iterations >= 1, ">= 1"),
                    ("inner_generations", self.inner_generations >= 1, ">= 1"))


def check_objectives(cfg: SearchConfig, specs) -> None:
    """Raise the ConfigError that a search under `cfg` with objectives
    `specs` would raise before its first evaluation: duplicate objective
    names, a per-objective predictor family for no objective of the run, or
    a predicted objective whose predictor family is "none"."""
    check_unique_names(specs)
    names = [s.name for s in specs]
    for name in cfg.predictor.families:
        if name not in names:
            raise ConfigError(
                f"predictor families name {name!r}, which is not an objective of "
                f"this run: {names}"
            )
    if isinstance(cfg, FullSearchConfig) and cfg.predictor.family == "none":
        return  # the evolver measures every child; nothing is predicted
    for spec in specs:
        if cfg.predictor.family_for(spec.name) == "none":
            raise ConfigError(
                f"objective {spec.name!r} is predicted with predictor family 'none'"
            )


def config_to_doc(cfg: SearchConfig, specs, reference, evaluator) -> dict:
    """The run's config.json document: every field of its config, then the
    run's facts: the trajectory version, the tactic, the objectives (the
    evaluator's, in place of the declared ones), the HV reference and the
    evaluator id."""
    doc = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    doc.update(
        trajectory=TRAJECTORY,
        tactic=cfg.tactic,
        predictor=asdict(cfg.predictor),
        warm_start=[list(g.genes) for g in cfg.warm_start] if cfg.warm_start else None,
        objectives=[asdict(s) for s in specs],
        hv_reference=list(reference) if reference else None,
        evaluator_id=evaluator.evaluator_id,
    )
    return doc


_JSON_KINDS = {float: (int, float), tuple: list, PredictorConfig: dict}


def _fits(value, hint) -> bool:
    """Whether a JSON value can fill a field annotated `hint`; true and false
    fill only a bool field."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    kind = typing.get_origin(hint) or hint
    if isinstance(value, bool) != (kind is bool):
        return False
    return isinstance(value, _JSON_KINDS.get(kind, kind))


def _fields_from(cls, doc) -> dict:
    """The non-null fields of `cls` in `doc`; a value whose JSON type does not
    fit its field is a ConfigError."""
    hints = typing.get_type_hints(cls)
    kw = {f.name: doc[f.name] for f in fields(cls) if doc.get(f.name) is not None}
    for name, value in kw.items():
        if not _fits(value, hint := hints[name]):
            raise ConfigError(f"{name} must be {getattr(hint, '__name__', hint)}, got {value!r}")
    return kw


def _check_keys(cls, doc: dict) -> None:
    """Raise ConfigError on a key of `doc`, top-level or under "predictor",
    that is no field or run fact of `config_to_doc` there: a misspelled key
    would replay as the default."""
    allowed = {
        "": {f.name for f in fields(cls)}
        | {"trajectory", "tactic", "hv_reference", "evaluator_id"},
        "predictor": {f.name for f in fields(PredictorConfig)},
    }
    for section, names in allowed.items():
        part = doc.get(section) if section else doc
        for key in part if isinstance(part, dict) else ():
            if key not in names:
                under = f" under {section}" if section else ""
                raise ConfigError(f"unknown key {key!r}{under} for the {cls.tactic} tactic")


def config_from_doc(cls, doc: dict, where: str):
    """Rebuild a tactic config (FullSearchConfig or ConcurrentNasConfig) from
    a config.json document. A ConfigError naming `where` is raised, in this
    order, for a `trajectory` that is missing or not the int `TRAJECTORY`, a
    tactic other than `cls`'s, a key that is no field or run fact, and a
    value of the wrong JSON type or out of its field's range. A missing or
    null field takes its default."""
    try:
        version = doc.get("trajectory")
        if type(version) is not int or version != TRAJECTORY:
            found = repr(version) if "trajectory" in doc else "none"
            raise ConfigError(
                f"trajectory version {found}, not {TRAJECTORY}: a config.json replays "
                "only under the trajectory version that wrote it"
            )
        if doc.get("tactic", cls.tactic) != cls.tactic:
            raise ConfigError(f"tactic {doc['tactic']!r}, not {cls.tactic!r}")
        _check_keys(cls, doc)
        kw = _fields_from(cls, doc)
        if "predictor" in kw:
            kw["predictor"] = PredictorConfig(**_fields_from(PredictorConfig, kw["predictor"]))
        if "warm_start" in kw:
            rows = kw["warm_start"]
            if not all(isinstance(g, list) and all(_fits(v, int) for v in g) for g in rows):
                raise ConfigError(f"warm_start must be a list of gene lists, got {rows!r}")
            kw["warm_start"] = tuple(Genotype(tuple(g)) for g in rows)
        if "objectives" in kw:
            try:
                kw["objectives"] = tuple(ObjectiveSpec(**o) for o in kw["objectives"])
            except TypeError as exc:  # not an object, or a key missing or unknown
                raise ConfigError(f"objectives: {exc}") from exc
        return cls(**kw)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass
class SearchReport:
    tactic: str
    space: SearchSpace
    specs: tuple[ObjectiveSpec, ...]
    store: ResultStore
    predicted_front: FrontColumns | None
    validated_front: FrontColumns
    hv_reference: tuple[float, ...] | None
    hv_trace: list[tuple[int, float]]
    phase_seconds: dict[str, float]
    config: dict
    warnings: list[str]

    @property
    def validation_count(self) -> int:
        return len(self.store.validation_columns()[0])

    def final_hypervolume(self) -> float | None:
        return self.hv_trace[-1][1] if self.hv_trace else None

    def export(self, outdir: str | Path) -> Path:
        """Write front.csv, hv_trace.csv, config.json, the predicted front
        when one exists, and evals.jsonl. A store that already streams into
        `outdir/evals.jsonl` is closed instead of dumped."""
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        text = json.dumps(self.config, indent=2, sort_keys=True)  # one write, not one a token
        (outdir / "config.json").write_text(text + "\n", "utf-8")
        log = outdir / "evals.jsonl"
        if self.store.path is not None and self.store.path.resolve() == log.resolve():
            self.store.close()
        else:
            self.store.dump(log)
        front_to_csv(self.validated_front, self.specs, outdir / "front.csv")
        if self.predicted_front is not None and len(self.predicted_front):
            front_to_csv(self.predicted_front, self.specs, outdir / "predicted_front.csv")
        hv_trace_to_csv(self.hv_trace, outdir / "hv_trace.csv")
        return outdir


# ---------------------------------------------------------------------------
# Predictor plumbing
# ---------------------------------------------------------------------------


def fit_objective_predictor(pcfg: PredictorConfig, X, y, objective: str, system=None):
    """The objective's predictor; a ridge fit uses `system`, X's
    `ridge_system`, where one is given."""
    family = pcfg.family_for(objective)
    if family == "ridge":
        return fit_ridge(X, y, pcfg.ridge_lambda, system)
    if family == "svr":
        return fit_svr(X, y)
    raise ConfigError(f"cannot fit predictor family {family!r} for {objective}")


def _train_models(store: ResultStore, pcfg: PredictorConfig):
    """A predictor per objective, all fitted on one encoding of `training_rows`;
    the ridge fits share one centered system."""
    X, raw = training_rows(store, pcfg.encoding)
    models, system = {}, None
    for spec, y in zip(store.specs, raw.T):
        try:
            if system is None and pcfg.family_for(spec.name) == "ridge":
                system = ridge_system(X, pcfg.ridge_lambda)
            models[spec.name] = fit_objective_predictor(
                pcfg, X, np.ascontiguousarray(y), spec.name, system
            )
        except Exception as exc:
            raise EvaluationFailed(
                f"predictor training failed for objective {spec.name!r}: {exc}"
            ) from exc
    return models


def make_predictor_evaluate(space: SearchSpace, specs, models: dict, pcfg: PredictorConfig):
    """Evaluate function (see `evolver.EvaluateFn`) of surrogate predictions,
    straight from the encoded rank rows."""

    def evaluate(ranks):
        X = encode_matrix(ranks, space, pcfg.encoding)
        out = np.empty((len(ranks), len(specs)))
        for k, spec in enumerate(specs):
            out[:, k] = predict(models[spec.name], X)
        return out

    return evaluate


def make_validation_evaluate(space: SearchSpace, evaluator, store: ResultStore):
    """Evaluate function (see `evolver.EvaluateFn`) that measures every rank
    row; batch index becomes the gen tag in the log."""
    batches = itertools.count()

    def evaluate(ranks):
        raw, errors = evaluate_batch(gene_matrix(ranks, space), evaluator, store, next(batches))
        if errors:
            raise EvaluationFailed(
                f"{len(errors)} validation evaluations failed; first: {errors[0]}"
            )
        return raw

    return evaluate


# ---------------------------------------------------------------------------
# Hypervolume trace
# ---------------------------------------------------------------------------


def hypervolume_trace(store: ResultStore, reference) -> list[tuple[int, float]]:
    """Cumulative-front hypervolume after every validation record, read from
    the store's columns: the exact strip sum of `dominated_area` over the
    front at that point. Records outside the (frozen) reference box are
    clamped out of the front with a warning rather than raising.
    """
    raw = store.validation_columns()[2]
    if not len(raw):
        raise EmptyInput("no validation records")
    front = IncrementalFront2D(reference)
    out = []
    hv = front.hypervolume()
    for k, point in enumerate(canonical_matrix(raw, store.specs).tolist(), 1):
        if front.insert(point):
            hv = front.hypervolume()
        out.append((k, hv))
    if front.clamped:
        warnings.warn(
            f"{front.clamped} evaluations fell outside the hypervolume "
            "reference box and were clamped out of the front",
            stacklevel=2,
        )
    return out


def _maybe_reference(specs, raw):
    """The HV reference of a run whose first validated population has these
    raw objective rows; None unless there are two objectives."""
    if len(specs) != 2:
        return None
    return default_reference(canonical_matrix(raw, specs))


# ---------------------------------------------------------------------------
# The search loop
# ---------------------------------------------------------------------------


def _initial_population(space, cfg: ConcurrentNasConfig) -> np.ndarray:
    """The rank rows of the first batch: the repaired warm start (a sample
    of it, when larger than a population), padded by uniform draws."""
    chosen = repaired_ranks(cfg.warm_start or (), space)
    if len(chosen) > cfg.population_size:
        rng = np.random.default_rng(subseed(cfg.seed, "warm-subsample"))
        chosen = chosen[np.sort(rng.choice(len(chosen), cfg.population_size, replace=False))]
    pads = sample_unique(
        space, cfg.population_size - len(chosen), cfg.seed, "init-pad", exclude=chosen
    )
    return np.concatenate([chosen, pads])


def search(
    space: SearchSpace,
    objectives,
    evaluator,
    cfg: SearchConfig,
    store: ResultStore | None = None,
) -> SearchReport:
    """Run the tactic of `cfg` (see the module docstring): validate a batch
    per iteration and, between two batches, fit the predictors on every
    validation so far and search against them; the best not-yet-validated
    configurations of that inner search become the next batch, and the last
    search's front is the report's predicted front. It writes the space,
    evaluator, noise and declared objectives of `cfg` to the report's config
    but reads none of them: the arguments are the run's own."""
    specs = tuple(objectives)
    check_objectives(cfg, specs)
    if store is None:
        store = ResultStore(specs, space=space)
    full = isinstance(cfg, FullSearchConfig)
    phase_seconds = dict.fromkeys(("validate", "train_predictors", "search"), 0.0)
    warn_list: list[str] = []
    predicted_front = reference = None

    if full and cfg.predictor.family == "none":
        t0 = time.perf_counter()
        evolve(
            space,
            cfg.evolver(cfg.generations, cfg.seed),
            make_validation_evaluate(space, evaluator, store),
            specs,
            warm_start=repaired_ranks(cfg.warm_start or (), space),
        )
        phase_seconds["search"] = time.perf_counter() - t0
        reference = _maybe_reference(specs, store.validation_columns()[2])
        iterations = 0  # nothing to predict
    elif full:
        if cfg.n_train < 100:
            warnings.warn(
                f"n_train={cfg.n_train} is small; predictors may be unreliable below "
                "100 samples",
                stacklevel=2,
            )
        rows = uniform_ranks(space, cfg.n_train, subseed(cfg.seed, "train-sample"))
        iterations = 1
    else:
        rows = _initial_population(space, cfg)
        iterations = cfg.iterations
    validated = np.zeros((0, space.genome_length), np.intp)  # rank rows of every batch
    trace = None  # the last inner search

    for i in range(iterations):
        t0 = time.perf_counter()
        raw, errors = evaluate_batch(gene_matrix(rows, space), evaluator, store, gen=i)
        phase_seconds["validate"] += time.perf_counter() - t0
        warn_list.extend(errors)
        if len(errors) == len(raw):
            raise EvaluationFailed(f"iteration {i}: every validation failed")
        if reference is None:
            reference = _maybe_reference(specs, raw[~np.isnan(raw).any(axis=1)])
        if i == iterations - 1 and not full:
            break  # the last batch: no batch would measure a search after it

        t0 = time.perf_counter()
        models = _train_models(store, cfg.predictor)
        phase_seconds["train_predictors"] += time.perf_counter() - t0

        if full:
            inner_cfg = cfg.evolver(cfg.generations, cfg.seed)
            inner_warm = repaired_ranks(cfg.warm_start or (), space)
        else:
            inner_cfg = cfg.evolver(cfg.inner_generations, subseed(cfg.seed, "inner", i))
            inner_warm = np.concatenate([rank_matrix(validated_front(store).genes, space), rows])
        t0 = time.perf_counter()
        trace = evolve(
            space, inner_cfg, make_predictor_evaluate(space, specs, models, cfg.predictor),
            specs, warm_start=inner_warm,
        )
        phase_seconds["search"] += time.perf_counter() - t0
        if full:
            break  # its whole predicted front is validated below

        validated = np.concatenate([validated, rows])
        validated_ids = trace.ids_of(validated)
        picks = [select_best(
            trace.table.take(trace.population_ids[-1]), cfg.population_size,
            exclude=validated_ids,
        )]
        if len(picks[0]) < cfg.population_size:
            picks.append(select_best(
                trace.table, cfg.population_size - len(picks[0]),
                exclude=np.concatenate([validated_ids, picks[0].ids]),
            ))
        chosen = np.concatenate([c.ranks for c in picks])
        pads = sample_unique(
            space, cfg.population_size - len(chosen), cfg.seed, "iter-pad", i,
            exclude=np.concatenate([validated, chosen]),
        )
        rows = np.concatenate([chosen, pads])

    if trace is not None:
        predicted_front = trace.front()
        if full:
            t0 = time.perf_counter()
            warn_list.extend(evaluate_batch(predicted_front.genes, evaluator, store, gen=1)[1])
            phase_seconds["validate"] += time.perf_counter() - t0

    hv_trace = hypervolume_trace(store, reference) if reference is not None else []
    return SearchReport(
        tactic=cfg.tactic,
        space=space,
        specs=specs,
        store=store,
        predicted_front=predicted_front,
        validated_front=validated_front(store),
        hv_reference=reference,
        hv_trace=hv_trace,
        phase_seconds=phase_seconds,
        config=config_to_doc(cfg, specs, reference, evaluator),
        warnings=warn_list,
    )
