"""Evaluation: MAE, planted-cluster synthetic data, and the Given-N harness.

The synthetic generator samples ratings from a known model instance so
trained models can be scored against ground truth.  The experiment runner
repeats the split/train/score cycle over seeds and aggregates per
(model, domain, given-N) cell.
"""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import dataclass, field, replace

import numpy as np

from . import baselines, inference
from .data import (
    CrossDomainDataset,
    DataError,
    RatingTriple,
    ScaleSpec,
    _given_n_positions,
    build_dataset,
    parse_ratings,
    select_subset,
)
from .em import ModelDims, ModelError, PclfParams, TrainConfig, train

KNOWN_MODELS = ("pclf", "rmgm-like", "fmm", "nmf")


def mae(predictions, truths) -> float:
    """Mean absolute error between parallel prediction/truth sequences."""
    predictions = np.asarray(predictions, dtype=float)
    truths = np.asarray(truths, dtype=float)
    if predictions.shape != truths.shape:
        raise DataError(
            f"length mismatch: {predictions.shape} predictions vs {truths.shape} truths"
        )
    if predictions.size == 0:
        raise DataError("cannot compute MAE of empty sequences")
    return float(np.mean(np.abs(predictions - truths)))


@dataclass(frozen=True)
class SyntheticSpec:
    """Planted-cluster generator controls.

    If ``params`` is given it is used verbatim; otherwise memberships are
    sampled from a symmetric Dirichlet (small ``membership_concentration``
    means crisp clusters) and each cluster pair gets a rating table peaked
    around a random preferred level with decay ``rating_sharpness``.
    ``w1`` is the per-domain probability that a rating is produced by the
    common component rather than the domain-specific one.
    """

    dims: ModelDims
    w1: tuple[float, ...]
    density: float
    seed: int = 0
    membership_concentration: float = 0.15
    rating_sharpness: float = 2.0
    specific_sharpness: float | None = None  # defaults to rating_sharpness
    table_noise: float = 0.0  # uniform mass mixed into every rating table
    params: PclfParams | None = None

    def __post_init__(self):
        if not 0.0 < self.density <= 1.0:
            raise DataError(f"density must lie in (0, 1], got {self.density}")
        if len(self.w1) != self.dims.n_domains:
            raise DataError("w1 needs one weight per domain")
        if any(not 0.0 <= w <= 1.0 for w in self.w1):
            raise DataError("w1 weights must lie in [0, 1]")
        if not 0.0 <= self.table_noise < 1.0:
            raise DataError("table_noise must lie in [0, 1)")


def _peaked_tables(rng, n_rows, n_cols, n_levels, sharpness):
    """Categorical tables concentrated around a random level per cell."""
    peaks = rng.integers(1, n_levels + 1, size=(n_rows, n_cols))
    levels = np.arange(1, n_levels + 1)
    raw = np.exp(-sharpness * np.abs(levels[None, None, :] - peaks[:, :, None]))
    return raw / raw.sum(axis=2, keepdims=True)


def _params_from_memberships(dims, mem_u, mem_vcom, mem_vspe, rate_com, rate_spe):
    """Build the prior/conditional parameterization that induces the given
    memberships under uniform entity marginals."""
    def invert(mem):
        joint = mem / mem.shape[0]          # P(entity, cluster), entities uniform
        prior = joint.sum(axis=0)
        cond = (joint / prior[None, :]).T   # (clusters, entities)
        return prior, np.ascontiguousarray(cond)

    prior_u, cond_u = invert(mem_u)
    prior_vcom, cond_vcom = invert(mem_vcom)
    prior_vspe, cond_vspe = [], []
    for z in range(dims.n_domains):
        if dims.n_specific_clusters[z] == 0:
            prior_vspe.append(np.zeros(0))
            cond_vspe.append(np.zeros((0, dims.n_items[z])))
        else:
            p, c = invert(mem_vspe[z])
            prior_vspe.append(p)
            cond_vspe.append(c)
    return PclfParams(
        dims=dims,
        prior_u=prior_u,
        prior_vcom=prior_vcom,
        prior_vspe=prior_vspe,
        cond_u=cond_u,
        cond_vcom=cond_vcom,
        cond_vspe=cond_vspe,
        rate_com=rate_com,
        rate_spe=rate_spe,
    )


def _planted_params(spec: SyntheticSpec, rng: np.random.Generator) -> PclfParams:
    """The generating model: ``spec.params``, or one drawn from ``rng``."""
    dims = spec.dims
    if spec.params is not None:
        params = spec.params
    else:
        alpha = spec.membership_concentration
        mem_u = rng.dirichlet(np.full(dims.n_user_clusters, alpha), size=dims.total_users)
        mem_vcom = rng.dirichlet(
            np.full(dims.n_common_clusters, alpha), size=dims.total_items
        )
        mem_vspe = []
        for z in range(dims.n_domains):
            l_z = dims.n_specific_clusters[z]
            mem_vspe.append(
                rng.dirichlet(np.full(l_z, alpha), size=dims.n_items[z])
                if l_z
                else np.zeros((dims.n_items[z], 0))
            )
        def contaminate(table):
            eta = spec.table_noise
            return (1.0 - eta) * table + eta / dims.n_levels

        rate_com = contaminate(_peaked_tables(
            rng, dims.n_user_clusters, dims.n_common_clusters,
            dims.n_levels, spec.rating_sharpness,
        ))
        spe_sharp = (spec.specific_sharpness if spec.specific_sharpness is not None
                     else spec.rating_sharpness)
        rate_spe = [
            contaminate(_peaked_tables(
                rng, dims.n_user_clusters, dims.n_specific_clusters[z],
                dims.n_levels, spe_sharp,
            ))
            for z in range(dims.n_domains)
        ]
        params = _params_from_memberships(
            dims, mem_u, mem_vcom, mem_vspe, rate_com, rate_spe
        )
    params.validate()
    return params


def synth_generate(spec: SyntheticSpec) -> tuple[CrossDomainDataset, PclfParams]:
    """Sample a dataset from a planted model and return both.

    Each observed cell picks the common component with probability w1,
    then latent clusters from the entity memberships, then a level from
    the matching rating table.  The returned parameters are the exact
    generating model, usable as an oracle.

    The random stream is fixed: the model draws, then per domain the
    cells (``rng.choice(M*N, replace=False)``), one uniform per cell for
    the component, and three uniforms per cell for its user cluster, item
    cluster and level, each turned into an index as ``Generator.choice``
    does.
    """
    dims = spec.dims
    rng = np.random.default_rng(spec.seed)
    params = _planted_params(spec, rng)
    mems = inference.memberships(params)

    blocks = []
    for z in range(dims.n_domains):
        m, n = dims.n_users[z], dims.n_items[z]
        n_cells = int(round(spec.density * m * n))
        if n_cells == 0:
            raise DataError(f"domain {z}: density {spec.density} yields no cells")
        flat = rng.choice(m * n, size=n_cells, replace=False)
        users, items = flat // n, flat % n
        use_common = rng.random(n_cells) < spec.w1[z]
        if dims.n_specific_clusters[z] == 0:
            use_common[:] = True
        # the uniforms of each cell's user, item-cluster and level draws
        draws = rng.random((n_cells, 3))
        k = _replay_choice(mems.p_u[dims.user_offset(z) + users], draws[:, 0])
        tables = np.empty((n_cells, dims.n_levels))
        com, spe = use_common, ~use_common
        t = _replay_choice(mems.p_vcom[dims.item_offset(z) + items[com]], draws[com, 1])
        tables[com] = params.rate_com[k[com], t]
        l = _replay_choice(mems.p_vspe[z][items[spe]], draws[spe, 1])
        tables[spe] = params.rate_spe[z][k[spe], l]
        levels = _replay_choice(tables, draws[:, 2]) + 1
        blocks.append(np.column_stack([np.full(n_cells, z), users, items, levels]))
    dataset = CrossDomainDataset.from_indexed(
        n_levels=dims.n_levels,
        triples=np.concatenate(blocks),
        n_users=list(dims.n_users),
        n_items=list(dims.n_items),
    )
    return dataset, params


_CHOICE_ATOL = np.sqrt(np.finfo(np.float64).eps)


def _replay_choice(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``rng.choice(p.shape[1], p=row)`` for every row of ``p``, given the
    uniform ``u`` each call draws: the count of entries of the row's
    normalized cumulative sum that are ``<= u``, which is the index
    ``Generator.choice`` takes.  A row with a negative entry, or whose sum
    is off 1 by more than ``choice`` allows, raises as ``choice`` would."""
    sums = p.sum(axis=1)
    if (p < 0).any() or not (np.abs(sums - 1.0) <= _CHOICE_ATOL).all():
        raise DataError("a sampling distribution has a negative entry or does not sum to 1")
    cdf = np.cumsum(p, axis=1)
    cdf /= cdf[:, -1:]
    return (cdf <= u[:, None]).sum(axis=1)


@dataclass(frozen=True)
class DomainSource:
    """One domain's input file and its parsing/subsetting controls."""

    path: str
    scale: ScaleSpec
    name: str = ""
    delimiter: str = "\t"
    columns: tuple[int, int, int] = (0, 1, 2)
    skip_header: bool = False


@dataclass
class ExperimentConfig:
    """Everything the Given-N harness needs for one experiment."""

    given_n: list[int]
    n_train_users: int
    dims: dict                      # {"K": int, "T": int, "L": [int, ...]}
    models: list[str]
    domains: list[DomainSource] = field(default_factory=list)
    synthetic: SyntheticSpec | None = None
    subset: dict | None = None      # n_users/n_items/min_user_ratings/min_item_ratings
    weights: list[float] | None = None
    train: TrainConfig = field(default_factory=TrainConfig)
    nmf_rank: int = 20
    nmf_iters: int = 200
    n_repeats: int = 10
    base_seed: int = 0
    resample_subsets: bool = False

    def __post_init__(self):
        if self.n_repeats < 1:
            raise DataError("n_repeats must be >= 1")
        if self.nmf_rank < 1:
            raise DataError("nmf_rank must be >= 1")
        if self.nmf_iters < 1:
            raise DataError("nmf_iters must be >= 1")
        if any(n < 0 for n in self.given_n):
            raise DataError("given_n values must be >= 0")
        unknown = [m for m in self.models if m not in KNOWN_MODELS]
        if unknown:
            raise DataError(f"unknown models {unknown}; known: {list(KNOWN_MODELS)}")
        if (self.synthetic is None) == (not self.domains):
            raise DataError("config needs exactly one of 'domains' or 'synthetic'")
        n_domains = self.synthetic.dims.n_domains if self.synthetic else len(self.domains)
        if self.weights is not None and (
                not isinstance(self.weights, (list, tuple)) or len(self.weights) != n_domains
                or not all(isinstance(w, (int, float)) and 0.0 <= w <= 1.0
                           for w in self.weights)):
            raise DataError(f"weights needs one value in [0, 1] per domain ({n_domains}), "
                            f"got {self.weights!r}")


_CONFIG_KEYS = {
    "given_n", "n_train_users", "dims", "models", "domains", "synthetic",
    "subset", "weights", "train", "nmf_rank", "nmf_iters", "n_repeats",
    "base_seed", "resample_subsets",
}
_DOMAIN_KEYS = {"path", "scale", "name", "delimiter", "columns", "skip_header"}
_SYNTH_KEYS = {
    "Z", "K", "T", "L", "R", "M", "N", "w1", "density", "seed",
    "membership_concentration", "rating_sharpness", "specific_sharpness",
    "table_noise",
}
_TRAIN_KEYS = {
    "beta_schedule", "max_iters_per_beta", "min_iters_per_beta",
    "rel_ll_tol", "smoothing_floor", "seed",
}


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise DataError(f"unknown key {key!r} in {where}")


def synthetic_spec_from_dict(raw: dict) -> SyntheticSpec:
    if not isinstance(raw, dict):
        raise DataError("synthetic spec must be a JSON object")
    _reject_unknown(raw, _SYNTH_KEYS, "synthetic spec")
    for key in ("Z", "K", "T", "L", "M", "N", "density"):
        if key not in raw:
            raise DataError(f"synthetic spec is missing key {key!r}")
    z = int(raw["Z"])
    dims = ModelDims(
        n_domains=z,
        n_user_clusters=int(raw["K"]),
        n_common_clusters=int(raw["T"]),
        n_specific_clusters=tuple(int(x) for x in raw["L"]),
        n_levels=int(raw.get("R", 5)),
        n_users=tuple(int(x) for x in raw["M"]),
        n_items=tuple(int(x) for x in raw["N"]),
    )
    w1 = raw.get("w1", 0.5)
    if isinstance(w1, (int, float)):
        w1 = [w1] * z
    specific_sharpness = raw.get("specific_sharpness")
    return SyntheticSpec(
        dims=dims,
        w1=tuple(float(x) for x in w1),
        density=float(raw["density"]),
        seed=int(raw.get("seed", 0)),
        membership_concentration=float(raw.get("membership_concentration", 0.15)),
        rating_sharpness=float(raw.get("rating_sharpness", 2.0)),
        specific_sharpness=(
            float(specific_sharpness) if specific_sharpness is not None else None
        ),
        table_noise=float(raw.get("table_noise", 0.0)),
    )


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Parse a config mapping, rejecting unknown keys by name.

    Omitted keys fall back to the protocol defaults: Given-N settings
    (5, 10, 15), dims K=20 / T=10 / L=15 per domain, prediction weight
    0.35 and 10 repeats, so a config only needs its data source and the
    training-user count.
    """
    _reject_unknown(raw, _CONFIG_KEYS, "experiment config")
    domains = []
    for i, d in enumerate(raw.get("domains", [])):
        _reject_unknown(d, _DOMAIN_KEYS, f"domains[{i}]")
        smin, smax = d["scale"]["min"], d["scale"]["max"]
        levels = d["scale"].get("target_levels", 5)
        domains.append(DomainSource(
            path=d["path"],
            scale=ScaleSpec(smin, smax, levels),
            name=d.get("name", f"d{i}"),
            delimiter=d.get("delimiter", "\t"),
            columns=tuple(d.get("columns", (0, 1, 2))),
            skip_header=bool(d.get("skip_header", False)),
        ))
    synthetic = None
    if "synthetic" in raw and raw["synthetic"] is not None:
        synthetic = synthetic_spec_from_dict(raw["synthetic"])
    train_raw = raw.get("train", {})
    _reject_unknown(train_raw, _TRAIN_KEYS, "train config")
    defaults = TrainConfig()
    train_cfg = TrainConfig(
        beta_schedule=tuple(train_raw.get("beta_schedule", defaults.beta_schedule)),
        max_iters_per_beta=int(train_raw.get("max_iters_per_beta", defaults.max_iters_per_beta)),
        min_iters_per_beta=int(
            train_raw.get("min_iters_per_beta", defaults.min_iters_per_beta)
        ),
        rel_ll_tol=float(train_raw.get("rel_ll_tol", defaults.rel_ll_tol)),
        smoothing_floor=float(train_raw.get("smoothing_floor", defaults.smoothing_floor)),
        seed=int(train_raw.get("seed", 0)),
    )
    if "subset" in raw and raw["subset"] is not None:
        _reject_unknown(
            raw["subset"],
            {"n_users", "n_items", "min_user_ratings", "min_item_ratings"},
            "subset",
        )
    dims = raw.get("dims", {"K": 20, "T": 10, "L": 15})
    _reject_unknown(dims, {"K", "T", "L"}, "dims")
    for key in ("K", "T", "L"):
        if key not in dims:
            raise DataError(f"dims is missing key {key!r}")
    return ExperimentConfig(
        given_n=[int(n) for n in raw.get("given_n", (5, 10, 15))],
        n_train_users=int(raw["n_train_users"]),
        dims=dims,
        models=list(raw.get("models", KNOWN_MODELS)),
        domains=domains,
        synthetic=synthetic,
        subset=raw.get("subset"),
        weights=raw.get("weights"),
        train=train_cfg,
        nmf_rank=int(raw.get("nmf_rank", 20)),
        nmf_iters=int(raw.get("nmf_iters", 200)),
        n_repeats=int(raw.get("n_repeats", 10)),
        base_seed=int(raw.get("base_seed", 0)),
        resample_subsets=bool(raw.get("resample_subsets", False)),
    )


def _read_json(path: str, what: str):
    """The JSON document in ``path``; a file that cannot be read, is not
    UTF-8 or is not JSON raises ``DataError`` naming ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} {path} is not UTF-8 text: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    return config_from_dict(_read_json(path, "experiment config"))


def load_synthetic_spec(path: str) -> SyntheticSpec:
    return synthetic_spec_from_dict(_read_json(path, "synthetic spec"))


@dataclass(frozen=True)
class ResultRow:
    model: str
    domain: int
    given_n: int
    repeat: int
    mae: float


@dataclass
class ResultsReport:
    rows: list[ResultRow]
    domain_names: list[str]
    given_n: list[int] = field(default_factory=list)   # settings run, scored or not

    def cell(self, model: str, domain: int, given_n: int) -> list[float]:
        return [
            r.mae for r in self.rows
            if r.model == model and r.domain == domain and r.given_n == given_n
        ]

    def mean(self, model: str, domain: int, given_n: int) -> float:
        return statistics.fmean(self.cell(model, domain, given_n))

    def std(self, model: str, domain: int, given_n: int) -> float:
        values = self.cell(model, domain, given_n)
        return statistics.pstdev(values) if len(values) > 1 else 0.0

    @property
    def models(self) -> list[str]:
        seen = []
        for r in self.rows:
            if r.model not in seen:
                seen.append(r.model)
        return seen

    @property
    def domains(self) -> list[int]:
        return sorted({r.domain for r in self.rows} | set(range(len(self.domain_names))))

    @property
    def given_values(self) -> list[int]:
        return sorted({r.given_n for r in self.rows} | set(self.given_n))


def _base_dataset(config: ExperimentConfig, seed: int) -> CrossDomainDataset:
    if config.synthetic is not None:
        dataset, _ = synth_generate(replace(config.synthetic, seed=seed))
        return dataset
    per_domain = []
    for src in config.domains:
        raw = parse_ratings(
            src.path, delimiter=src.delimiter, column_map=src.columns,
            scale=src.scale, skip_header=src.skip_header,
        )
        if config.subset:
            raw = select_subset(
                raw,
                n_users=config.subset["n_users"],
                n_items=config.subset["n_items"],
                min_user_ratings=config.subset.get("min_user_ratings", 0),
                min_item_ratings=config.subset.get("min_item_ratings", 0),
                seed=seed,
            )
        per_domain.append((raw, src.scale))
    return build_dataset(per_domain)


def _assert_no_leak(train_ds: CrossDomainDataset, evals) -> None:
    """Raise on the first eval rating, in domain order, whose (user, item)
    cell is also in ``train_ds``; ``evals`` holds (users, items, ratings)
    per domain."""
    for z, (users, items, ratings) in enumerate(evals):
        n = train_ds.n_items[z]
        leaked = np.isin(users * n + items, train_ds.users[z] * n + train_ds.items[z])
        if leaked.any():
            i = int(np.argmax(leaked))
            t = RatingTriple(z, int(users[i]), int(items[i]), int(ratings[i]))
            raise RuntimeError(f"evaluation triple {t} leaked into the training pool")


_POOLED = ("pclf", "rmgm-like")   # fitted on every domain's training ratings at once


def _model_maes(
    model: str,
    train_ds: CrossDomainDataset,
    evals: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    config: ExperimentConfig,
    seed: int,
    domain: int | None = None,
) -> dict[int, float]:
    """Fit one model and return its MAE per scored domain, given each
    domain's eval set as (users, items, ratings) arrays.  pclf and
    rmgm-like are fitted on the pooled training set and score every domain
    with eval ratings; fmm and nmf are fitted on ``domain`` alone and
    score it."""
    k = int(config.dims["K"])
    t = int(config.dims["T"])
    train_cfg = replace(config.train, seed=seed)
    n_domains = train_ds.n_domains
    if model in _POOLED:
        if model == "pclf":
            l = config.dims["L"]
            dims = ModelDims.from_dataset(
                train_ds, k, t, l if isinstance(l, int) else tuple(int(x) for x in l)
            )
            params, _ = train(train_ds, dims, train_cfg)
            w1 = config.weights if config.weights is not None else [inference.DEFAULT_W1] * n_domains
            weights = inference.PredictionWeights(w1=tuple(w1))
        else:
            params, _ = baselines.common_only_train(train_ds, k, t, train_cfg)
            weights = inference.PredictionWeights.common_only(n_domains)
        mats = inference.cluster_rating_matrices(params)
        mems = inference.memberships(params)
        return {
            z: mae(inference.predict_many(params, mats, mems, weights, z, users, items), truths)
            for z, (users, items, truths) in enumerate(evals) if len(users)
        }
    users, items, truths = evals[domain]
    if model == "fmm":
        params, _ = baselines.fmm_train(train_ds.domain_view(domain), k, t, train_cfg)
        preds = inference.predict_many(
            params, inference.cluster_rating_matrices(params), inference.memberships(params),
            inference.PredictionWeights.common_only(1), 0, users, items,
        )
    elif model == "nmf":
        factors = baselines.nmf_train(
            baselines.domain_matrix(train_ds, domain),
            rank=config.nmf_rank, iters=config.nmf_iters, seed=seed,
        )
        preds = baselines.nmf_predict(factors, users, items, train_ds.n_levels)
    else:
        raise DataError(f"unknown model {model!r}")
    return {domain: mae(preds, truths)}


def _fits(models: list[str], evals) -> list[tuple[str, int | None]]:
    """A split's fits as ``_model_maes`` (model, domain) arguments, in
    config order: one per pooled model, one per scored domain for the
    others; none if no domain has eval ratings."""
    scored = [z for z, (users, _, _) in enumerate(evals) if len(users)]
    if not scored:
        return []
    return [(model, z) for model in models
            for z in ((None,) if model in _POOLED else scored)]


# (setter, getter) of the OpenBLAS thread count: numpy's scipy-openblas
# wheels, older ILP64 wheels, then plain builds
_OPENBLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _openblas_threads():
    """The ctypes (setter, getter) of the thread count of the OpenBLAS this
    process has loaded, or None if it has loaded none."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split(None, 5)[5].rstrip("\n") for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for setter, getter in _OPENBLAS_THREAD_FUNCTIONS:
            if hasattr(lib, setter) and hasattr(lib, getter):
                set_threads, get_threads = getattr(lib, setter), getattr(lib, getter)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return set_threads, get_threads
    return None


def _one_blas_thread() -> None:
    """Worker initializer: run BLAS on one thread, so that n workers do not
    run n x n BLAS threads and every product gives the same bits whatever
    the CPU count.  Without an OpenBLAS setter the count is left as is."""
    threads = _openblas_threads()
    if threads is not None:
        threads[0](1)


@dataclass
class _Setting:
    """One (repeat, Given-N) split: its training pool, eval sets, note
    lines and fits."""

    repeat: int
    given: int
    seed: int
    train_ds: CrossDomainDataset
    evals: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    notes: list[str]
    fits: list[tuple[str, int | None]]


def _settings(config: ExperimentConfig) -> tuple[list[_Setting], int]:
    """Every (repeat, Given-N) setting in config order, split and checked
    for leaks, and the number of domains."""
    settings = []
    empty: set[tuple[int, int]] = set()
    dataset = _base_dataset(config, config.base_seed if not config.synthetic
                            else config.synthetic.seed)
    for repeat in range(config.n_repeats):
        seed = config.base_seed + repeat
        if config.resample_subsets and repeat > 0:
            dataset = _base_dataset(config, seed)
        for given in config.given_n:
            parts = [
                _given_n_positions(dataset, z, config.n_train_users, given,
                                   seed=seed + 10007 * z)
                for z in range(dataset.n_domains)
            ]
            train_ds = dataset.restrict(positions=[train for train, _ in parts])
            evals = [
                tuple(col[z][ev] for col in (dataset.users, dataset.items, dataset.ratings))
                for z, (_, ev) in enumerate(parts)
            ]
            _assert_no_leak(train_ds, evals)
            notes = []
            for z, (users, _, _) in enumerate(evals):
                if not len(users) and (given, z) not in empty:
                    empty.add((given, z))
                    notes.append(f"note: given={given} domain={z} has no eval ratings")
            settings.append(_Setting(repeat, given, seed, train_ds, evals, notes,
                                     _fits(config.models, evals)))
    return settings, dataset.n_domains


def run_experiment(config: ExperimentConfig, log=None, note=None) -> ResultsReport:
    """Repeated Given-N evaluation of every configured model.

    Per repeat r the split sampling and initialization seed is
    ``base_seed + r``; the base dataset stays fixed unless
    ``resample_subsets`` asks for per-repeat resampling.  Training pools
    from all domains are combined; a leak assertion guards the protocol.
    A (given-N, domain) split with no eval ratings scores nothing: its
    cells get no rows, and ``note`` (if given) receives one line for it.

    Every setting is split before any model is fitted.  Each fit
    (``_fits``) is then one task for one pool of worker processes: one
    worker per usable CPU and at most one per fit, each running BLAS on
    one thread.  Workers are forked, so they inherit the imported modules
    instead of importing numpy again; the pool forks them before it starts
    its own thread.  Results are read in config order: rows, ``note`` and
    ``log`` lines keep it, and ``log`` receives a setting's lines once all
    its models are fitted.  The first exception raised in a fit, in config
    order, reaches the caller with its type and message, and no queued fit
    starts after it.  A worker that dies becomes a ``ModelError`` naming
    the first setting left without a result and its models without one.
    """
    # imported here so that the other commands do not load them (2 MB RSS)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    settings, n_domains = _settings(config)
    rows: list[ResultRow] = []
    n_workers = max(1, min(len(os.sched_getaffinity(0)), sum(len(s.fits) for s in settings)))
    with ProcessPoolExecutor(n_workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_one_blas_thread) as pool:
        futures = [[pool.submit(_model_maes, model, s.train_ds, s.evals, config, s.seed, z)
                    for model, z in s.fits] for s in settings]
        try:
            for s, fits in zip(settings, futures):
                if note is not None:
                    for line in s.notes:
                        note(line)
                maes: dict[str, dict[int, float]] = {}
                for (model, _), future in zip(s.fits, fits):
                    maes.setdefault(model, {}).update(future.result())
                for model, per_domain in maes.items():
                    rows.extend(ResultRow(model, z, s.given, s.repeat, value)
                                for z, value in per_domain.items())
                    if log is not None:
                        log(f"repeat={s.repeat} given={s.given} model={model} "
                            + " ".join(f"mae[d{z}]={v:.4f}" for z, v in per_domain.items()))
        except BrokenProcessPool as exc:
            # results are read in config order, so ``s`` is the first
            # setting with a broken future
            lost = dict.fromkeys(model for (model, _), future in zip(s.fits, fits)
                                 if isinstance(future.exception(), BrokenProcessPool))
            raise ModelError(f"a worker process died during repeat={s.repeat} given={s.given}; "
                             f"models without a result: {', '.join(lost)}") from exc
        except BaseException:
            pool.shutdown(cancel_futures=True)   # start no queued fit after an error
            raise
    names = ([d.name for d in config.domains] if config.domains
             else [f"d{z}" for z in range(n_domains)])
    return ResultsReport(rows=rows, domain_names=names, given_n=list(config.given_n))


def report_table(report: ResultsReport, fmt: str = "plain") -> str:
    """Aggregated mean-MAE table: one row per (domain, model), one column
    per Given-N setting, four decimal places; ``n/a`` where no repeat
    scored the cell."""
    if not report.rows:
        raise DataError("cannot render an empty report")
    if fmt not in ("plain", "csv"):
        raise DataError(f"unknown table format {fmt!r}")
    givens = report.given_values
    header = ["dataset", "model"] + [f"given{g}" for g in givens]
    body = []
    for z in report.domains:
        for model in report.models:
            cells = [f"{report.mean(model, z, g):.4f}" if report.cell(model, z, g)
                     else "n/a" for g in givens]
            body.append([report.domain_names[z], model] + cells)
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(row) for row in body]
        return "\n".join(lines) + "\n"
    widths = [max(len(row[i]) for row in [header] + body) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def raw_results_csv(report: ResultsReport) -> str:
    """Per-repeat results: model,domain,given_n,repeat,mae."""
    lines = ["model,domain,given_n,repeat,mae"]
    for r in report.rows:
        lines.append(f"{r.model},{r.domain},{r.given_n},{r.repeat},{r.mae:.6f}")
    return "\n".join(lines) + "\n"
