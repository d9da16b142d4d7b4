"""Evaluation: MAE, planted-cluster synthetic data, and the Given-N harness.

The synthetic generator samples ratings from a known model instance so
trained models can be scored against ground truth.  The experiment runner
repeats the split/train/score cycle over seeds and aggregates per
(model, domain, given-N) cell.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import statistics
from dataclasses import dataclass, field, replace

import numpy as np

from . import baselines, inference
from .checkpoint import KNOWN_MODELS, Checkpoint
from .data import (
    CrossDomainDataset,
    DataError,
    DomainSource,
    RatingTriple,
    ScaleSpec,
    _checked,
    _given_n_positions,
    _is,
    read_domains,
    read_json,
)
from .em import ModelDims, ModelError, PclfParams, TrainConfig, init_params_many, train


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
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if self.dims.n_domains < 1:
            raise DataError(f"Z must be >= 1, got {self.dims.n_domains}")
        for name, sizes in (("M", self.dims.n_users), ("N", self.dims.n_items)):
            if min(sizes) < 1:
                raise DataError(f"every entry of {name} must be >= 1, got {list(sizes)}")
        if not (math.isfinite(self.membership_concentration)
                and self.membership_concentration > 0):
            raise DataError("membership_concentration must be finite and > 0, "
                            f"got {self.membership_concentration}")
        for name in ("rating_sharpness", "specific_sharpness"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value >= 0):
                raise DataError(f"{name} must be finite and >= 0, got {value}")


def _peaked_tables(rng, n_rows, n_cols, n_levels, sharpness):
    """Categorical tables concentrated around a random level per cell."""
    peaks = rng.integers(1, n_levels + 1, size=(n_rows, n_cols))
    levels = np.arange(1, n_levels + 1)
    with np.errstate(over="ignore"):   # a huge sharpness gives -inf, whose exp is 0
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
    prior_vspe, cond_vspe = map(list, zip(*map(invert, mem_vspe)))
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
        mem_vspe = [rng.dirichlet(np.full(l_z, alpha), size=n_z)
                    for l_z, n_z in zip(dims.n_specific_clusters, dims.n_items)]

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


@dataclass
class ExperimentConfig:
    """Everything the Given-N harness needs for one experiment.  Besides
    ``n_train_users`` it needs a data source, ``domains`` or ``synthetic``;
    the other fields default to the standard protocol, and ``weights``
    None means 0.35 per domain."""

    n_train_users: int
    given_n: list[int] = field(default_factory=lambda: [5, 10, 15])
    dims: dict = field(default_factory=lambda: {"K": 20, "T": 10, "L": 15})  # L: int or per domain
    models: list[str] = field(default_factory=lambda: list(KNOWN_MODELS))
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
        if self.base_seed < 0:
            raise DataError(f"base_seed must be >= 0, got {self.base_seed}")
        if any(n < 0 for n in self.given_n):
            raise DataError("given_n values must be >= 0")
        unknown = [m for m in self.models if m not in KNOWN_MODELS]
        if unknown:
            raise DataError(f"unknown models {unknown}; known: {list(KNOWN_MODELS)}")
        for name, values in (("given_n", self.given_n), ("models", self.models)):
            if not values:
                raise DataError(f"{name} must list at least one value")
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise DataError(f"{name} lists {repeated[0]!r} more than once")
        if (self.synthetic is None) == (not self.domains):
            raise DataError("config needs exactly one of 'domains' or 'synthetic'")
        if self.synthetic is not None and self.subset is not None:
            raise DataError("'subset' cuts 'domains' rating files; a 'synthetic' config has none")
        n_domains = self.synthetic.dims.n_domains if self.synthetic else len(self.domains)
        if self.weights is not None and (
                not isinstance(self.weights, (list, tuple)) or len(self.weights) != n_domains
                or not all(_is(w, float) and 0.0 <= w <= 1.0 for w in self.weights)):
            raise DataError(f"weights needs one value in [0, 1] per domain ({n_domains}), "
                            f"got {self.weights!r}")
        k, t, l = (self.dims.get(key) for key in ("K", "T", "L"))
        if not all(_is(c, int) and c >= 1 for c in (k, t)):
            raise DataError(f"dims K and T must be integers >= 1, got K={k!r} T={t!r}")
        if not (_is(l, int) and l >= 0
                or _is(l, [int]) and len(l) == n_domains and min(l, default=0) >= 0):
            raise DataError(f"dims L needs one integer >= 0, or one per domain ({n_domains}), "
                            f"got {l!r}")
        if self.synthetic is not None:   # the user counts are known before any data is made
            m = min(self.synthetic.dims.n_users)
            if not 0 <= self.n_train_users < m:
                raise DataError(f"n_train_users must be in [0, {m}), got {self.n_train_users}")
        elif self.n_train_users < 0:
            raise DataError(f"n_train_users must be >= 0, got {self.n_train_users}")
        if "rmgm-like" in self.models and n_domains < 2:
            raise DataError(f"model rmgm-like needs at least 2 domains, the config has {n_domains}")


# the JSON type of every key a config section may hold, as ``data._is`` spells it
_CONFIG_TYPES = {
    "given_n": [int], "n_train_users": int, "dims": dict, "models": [str],
    "domains": [dict], "synthetic": (dict, None), "subset": (dict, None),
    "weights": object, "train": dict, "nmf_rank": int, "nmf_iters": int,
    "n_repeats": int, "base_seed": int, "resample_subsets": bool,
}
_DOMAIN_TYPES = {"path": str, "scale": dict, "name": str, "delimiter": str,
                 "columns": [int], "skip_header": bool}
_SYNTH_TYPES = {
    "Z": int, "K": int, "T": int, "L": [int], "R": int, "M": [int], "N": [int],
    "w1": (float, [float]), "density": float, "seed": int,
    "membership_concentration": float, "rating_sharpness": float,
    "specific_sharpness": (float, None), "table_noise": float,
}
_TRAIN_TYPES = {
    "beta_schedule": [float], "max_iters_per_beta": int, "min_iters_per_beta": int,
    "rel_ll_tol": float, "smoothing_floor": float, "seed": int,
}
def synthetic_spec_from_dict(raw: dict) -> SyntheticSpec:
    """A synthetic spec from its JSON mapping: ``Z``, ``K``, ``T``, ``L``,
    ``R`` (default 5), ``M`` and ``N`` are the model dims; ``w1`` (default
    0.5) is one weight or one per domain; every other key is the
    ``SyntheticSpec`` field of that name."""
    rest = dict(_checked(raw, _SYNTH_TYPES, "synthetic spec",
                         ("Z", "K", "T", "L", "M", "N", "density")))
    z = rest.pop("Z")
    dims = ModelDims(
        n_domains=z,
        n_user_clusters=rest.pop("K"),
        n_common_clusters=rest.pop("T"),
        n_specific_clusters=tuple(rest.pop("L")),
        n_levels=rest.pop("R", 5),
        n_users=tuple(rest.pop("M")),
        n_items=tuple(rest.pop("N")),
    )
    w1 = rest.pop("w1", 0.5)
    return SyntheticSpec(dims=dims, w1=tuple(w1) if isinstance(w1, list) else (w1,) * z, **rest)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Parse a config mapping, rejecting unknown keys by name and values
    of the wrong JSON type.  Every key is the ``ExperimentConfig`` field of
    that name, and an omitted key takes the field's default."""
    fields = dict(_checked(raw, _CONFIG_TYPES, "experiment config", ("n_train_users",)))
    domains = []
    for i, d in enumerate(fields.get("domains", [])):
        _checked(d, _DOMAIN_TYPES, f"domains[{i}]", ("path", "scale"))
        scale = _checked(d["scale"], {"min": float, "max": float, "target_levels": int},
                         f"domains[{i}] scale", ("min", "max"))
        domains.append(DomainSource(**{**d, "scale": ScaleSpec(**scale)}))
    fields["domains"] = domains
    if fields.get("synthetic") is not None:
        fields["synthetic"] = synthetic_spec_from_dict(fields["synthetic"])
    if "train" in fields:
        fields["train"] = TrainConfig(**_checked(fields["train"], _TRAIN_TYPES, "train config"))
    if fields.get("subset") is not None:
        _checked(fields["subset"], dict.fromkeys(
            ("n_users", "n_items", "min_user_ratings", "min_item_ratings"), int),
            "subset", ("n_users", "n_items"))
    if "dims" in fields:
        _checked(fields["dims"], {"K": int, "T": int, "L": (int, [int])}, "dims", ("K", "T", "L"))
    return ExperimentConfig(**fields)


def load_config(path: str) -> ExperimentConfig:
    return config_from_dict(read_json(path, "experiment config", DataError))


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
    return read_domains(config.domains, config.subset, seed)


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


def fit(kind: str, dataset: CrossDomainDataset, n_user_clusters: int,
        n_common_clusters: int, n_specific_clusters, config: TrainConfig, w1,
        nmf_rank: int, nmf_iters: int, init: PclfParams | None = None) -> Checkpoint:
    """Fit a model of ``kind`` on ``dataset``, as ``pclf train`` does.

    Every kind but nmf is the cluster-level model, trained from ``init``
    if given (``train``), on the dims of ``baselines.model_dims``: pclf
    with ``n_specific_clusters`` (an int, or one per domain); rmgm-like
    with none in any domain; fmm the same on a single-domain dataset.  The
    checkpoint's ``default_w1`` is ``checkpoint_w1`` of ``w1`` (one per
    domain, each in [0, 1]).  nmf factorizes the one domain's rating
    matrix with ``nmf_rank`` and ``nmf_iters``, seeded with ``config.seed``.

    BLAS runs on one thread during the fit, so that every product gives
    the same bits whatever the CPU count (``_single_blas_thread``).  The
    setter is called only if the count is not 1 already, and the count
    is then restored; a ``run_experiment`` worker inherits a count of 1,
    so it never calls the setter.  The count belongs to the process, so
    fits on concurrent threads of one process would race on it.
    """
    inference.PredictionWeights(w1=tuple(w1))   # rejects a weight outside [0, 1]
    if kind == "nmf" and dataset.n_domains != 1:
        raise ModelError(f"nmf trains one domain at a time, got {dataset.n_domains} domains")
    with _single_blas_thread():
        if kind == "nmf":
            factors = baselines.nmf_train(baselines.domain_matrix(dataset, 0),
                                          rank=nmf_rank, iters=nmf_iters, seed=config.seed)
            return Checkpoint(model_kind=kind, seed=config.seed, trace=[], factors=factors,
                              n_levels=dataset.n_levels)
        dims = baselines.model_dims(kind, dataset, n_user_clusters, n_common_clusters,
                                    n_specific_clusters)
        params, trace = train(dataset, dims, config, init)
    return Checkpoint(model_kind=kind, seed=config.seed, trace=trace, params=params,
                      default_w1=checkpoint_w1(params.dims, w1))


def checkpoint_w1(dims: ModelDims, w1) -> list[float]:
    """The ``default_w1`` a checkpoint of ``dims`` stores: domain z's
    ``w1[z]``, except that a domain without specific clusters gets w1 = 1,
    the only weight it can predict with."""
    return [w1[z] if l_z else 1.0 for z, l_z in enumerate(dims.n_specific_clusters)]


def _model_maes(
    model: str,
    train_ds: CrossDomainDataset,
    evals: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    config: ExperimentConfig,
    seed: int,
    domain: int | None = None,
    init: PclfParams | None = None,
) -> dict[int, float]:
    """Fit one model, from ``init`` if given, and return its MAE per
    scored domain, given each domain's eval set as (users, items, ratings)
    arrays.  pclf and rmgm-like are fitted on the pooled training set and
    score every domain with eval ratings; fmm and nmf are fitted on
    ``domain`` alone (``_fit_dataset``) and score it."""
    w1 = config.weights if config.weights is not None else [inference.DEFAULT_W1] * len(evals)
    ckpt = fit(model, _fit_dataset(train_ds, domain),
               config.dims["K"], config.dims["T"], config.dims["L"],
               replace(config.train, seed=seed), w1, config.nmf_rank, config.nmf_iters, init)
    if ckpt.factors is None:
        params = ckpt.params
        mats, mems = inference.cluster_rating_matrices(params), inference.memberships(params)
        weights = inference.PredictionWeights(w1=tuple(ckpt.default_w1))
    maes = {}
    for z in range(len(evals)) if domain is None else [domain]:
        users, items, truths = evals[z]
        if not len(users):
            continue
        if ckpt.factors is not None:
            preds = baselines.nmf_predict(ckpt.factors, users, items, train_ds.n_levels)
        else:   # a one-domain fit holds ``domain`` as its domain 0
            preds = inference.predict_many(params, mats, mems, weights,
                                           z if domain is None else 0, users, items)
        maes[z] = mae(preds, truths)
    return maes


_POOLED = ("pclf", "rmgm-like")   # fitted on every domain's training ratings at once


def _fit_dataset(train_ds: CrossDomainDataset, domain: int | None) -> CrossDomainDataset:
    """What a fit on ``domain`` trains on: the pooled training set, or
    with a domain, that domain's view of it."""
    return train_ds if domain is None else train_ds.domain_view(domain)


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


@functools.cache
def _openblas_threads():
    """The ctypes (setter, getter) of the thread count of the OpenBLAS this
    process has loaded, or None if it has loaded none; looked up once per
    process."""
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


@contextlib.contextmanager
def _single_blas_thread():
    """Run the block with OpenBLAS on one thread, then give back the count
    it had.  The setter is called only if the count is not 1 already: in
    a forked child any setter call restarts OpenBLAS's thread pool, whose
    helper thread then busy-waits on a CPU.  Without an OpenBLAS setter
    the count is left as is."""
    threads = _openblas_threads()
    before = 1 if threads is None else threads[1]()
    if before != 1:
        threads[0](1)
    try:
        yield
    finally:
        if before != 1:
            threads[0](before)


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


# a ``run_experiment`` worker's (config, settings), which its tasks read
# instead of having their inputs pickled; None in every other process
_RUN: tuple[ExperimentConfig, list[_Setting]] | None = None


def _start_worker(config: ExperimentConfig, settings: list[_Setting]) -> None:
    """The pool's worker initializer: a forked worker gets its arguments
    without pickling, from the memory it shares with the parent."""
    global _RUN
    _RUN = (config, settings)


def _fit_task(i: int, j: int, init: PclfParams | None) -> dict[int, float]:
    """In a worker: ``_model_maes`` of setting ``i``'s fit ``j``."""
    config, settings = _RUN
    s = settings[i]
    model, domain = s.fits[j]
    return _model_maes(model, s.train_ds, s.evals, config, s.seed, domain, init)


def _repeat_init(fits: list[tuple[int, int]]) -> list[PclfParams]:
    """In a worker: the initial parameters of one repeat's cluster fits,
    each given as (setting, fit), from one random stream
    (``init_params_many``): what each fit's ``train`` would draw itself."""
    config, settings = _RUN
    k, t, l = (config.dims[key] for key in ("K", "T", "L"))
    jobs = []
    for i, j in fits:
        model, domain = settings[i].fits[j]
        dataset = _fit_dataset(settings[i].train_ds, domain)
        jobs.append((baselines.model_dims(model, dataset, k, t, l), dataset))
    return init_params_many(jobs, settings[fits[0][0]].seed, config.train.smoothing_floor)


def _failed(exc: BaseException):
    """A future that holds ``exc``."""
    from concurrent.futures import Future

    future = Future()
    future.set_exception(exc)
    return future


def _submit(pool, fn, *args):
    """``pool.submit(fn, *args)``, or a future that holds the error of a
    pool that a worker's death has broken."""
    from concurrent.futures.process import BrokenProcessPool

    try:
        return pool.submit(fn, *args)
    except BrokenProcessPool as exc:
        return _failed(exc)


def _submit_repeats(pool, settings: list[_Setting], n_repeats: int, ahead: bool, futures: dict):
    """Submit every repeat's fits to ``pool``, their futures into ``futures``
    by (setting, fit): a generator that yields each repeat's init future
    and goes on once resumed with the init back.

    A repeat's init task (``_repeat_init``) goes first and, if ``ahead``,
    its NMF fits follow at once to fill the other workers.  Once the init
    is back, every fit not submitted yet follows in config order, each
    cluster fit from its start, and then the next repeat's init, which so
    queues behind them; without ``ahead`` one worker thus runs the fits in
    config order.  An init that raises gives its error to each cluster
    fit; no later repeat is submitted once a future holds an error."""
    for r in range(n_repeats):
        if any(f.done() and f.exception() is not None for f in futures.values()):
            return
        fits = [(i, j) for i, s in enumerate(settings) if s.repeat == r for j in range(len(s.fits))]
        cluster = [(i, j) for i, j in fits if settings[i].fits[j][0] != "nmf"]
        starts = {}
        if cluster:
            init = _submit(pool, _repeat_init, cluster)
            if ahead:
                futures.update({key: _submit(pool, _fit_task, *key, None)
                                for key in fits if key not in cluster})
            yield init
            try:
                starts = dict(zip(cluster, init.result()))
            except Exception as exc:
                futures.update(dict.fromkeys(cluster, _failed(exc)))
        for key in fits:
            if key not in futures:
                futures[key] = _submit(pool, _fit_task, *key, starts.get(key))


def run_experiment(config: ExperimentConfig, log=None, note=None) -> ResultsReport:
    """Repeated Given-N evaluation of every configured model.

    Per repeat r the split sampling and initialization seed is
    ``base_seed + r``; the base dataset stays fixed unless
    ``resample_subsets`` asks for per-repeat resampling.  Training pools
    from all domains are combined; a leak assertion guards the protocol.
    A (given-N, domain) split with no eval ratings scores nothing: its
    cells get no rows, and ``note`` (if given) receives one line for it.

    Every setting is split before any model is fitted.  The fits
    (``_fits``) and one init task per repeat are then tasks for one pool
    of worker processes: one worker per usable CPU and at most one per
    fit, each running BLAS on one thread.  Every cluster fit of a repeat
    (pclf, rmgm-like, fmm) draws the same seeded gamma(0.5) stream for its
    start, so the repeat's init task draws it once for all of them
    (``_repeat_init``) and each fit starts from its result: the
    parameters its own ``init_params`` would give.  While the caller waits
    on a fit, each init that comes back has the rest of its repeat and the
    next repeat's init submitted at once (``_submit_repeats``).  Workers
    are forked, so they inherit the imported modules instead of importing
    numpy again, and the config and settings, which their tasks read
    instead of pickled copies (``_start_worker``); the pool forks them
    before it starts its own thread.  The parent sets the BLAS count to 1
    before the fork and gives its caller's count back once the pool has
    joined, on success and on every error.  Workers inherit the 1 and
    never call OpenBLAS's setter, which in a forked child restarts
    OpenBLAS's thread pool, whose helper thread then busy-waits on the CPU
    another worker needs.  Results are read in config order: rows,
    ``note`` and ``log`` lines keep it, and ``log`` receives a setting's
    lines once all its models are fitted.  The first exception raised in
    a fit, in config order, reaches the caller with its type and message
    once that fit ends, and no queued fit starts after it; an exception
    raised in an init task is the error of its repeat's first cluster fit.
    A worker that dies becomes a ``ModelError`` naming the first setting
    left without a result and its models without one.
    """
    # imported here so that the other commands do not load them (2 MB RSS)
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    settings, n_domains = _settings(config)
    rows: list[ResultRow] = []
    n_workers = max(1, min(len(os.sched_getaffinity(0)), sum(len(s.fits) for s in settings)))
    with _single_blas_thread(), ProcessPoolExecutor(
            n_workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker, initargs=(config, settings)) as pool:
        futures = {}
        chain = _submit_repeats(pool, settings, config.n_repeats, n_workers > 1, futures)
        try:
            init = next(chain, None)
            for i, s in enumerate(settings):
                if note is not None:
                    for line in s.notes:
                        note(line)
                maes: dict[str, dict[int, float]] = {}
                for j, (model, _) in enumerate(s.fits):
                    # wait for the fit; an init back meanwhile lets the chain go on
                    while init is not None and not ((i, j) in futures and futures[i, j].done()):
                        wait({init, futures.get((i, j), init)}, return_when=FIRST_COMPLETED)
                        if init.done():
                            init = next(chain, None)
                    maes.setdefault(model, {}).update(futures[i, j].result())
                for model, per_domain in maes.items():
                    rows.extend(ResultRow(model, z, s.given, s.repeat, value)
                                for z, value in per_domain.items())
                    if log is not None:
                        log(f"repeat={s.repeat} given={s.given} model={model} "
                            + " ".join(f"mae[d{z}]={v:.4f}" for z, v in per_domain.items()))
        except BrokenProcessPool as exc:
            # results are read in config order, so ``s`` is the first setting
            # with a broken future; a fit not submitted has no result either
            lost = dict.fromkeys(model for j, (model, _) in enumerate(s.fits)
                                 if (i, j) not in futures
                                 or isinstance(futures[i, j].exception(), BrokenProcessPool))
            raise ModelError(f"a worker process died during repeat={s.repeat} given={s.given}; "
                             f"models without a result: {', '.join(lost)}") from exc
        except BaseException:
            pool.shutdown(cancel_futures=True)   # start no queued fit after an error
            raise
    names = [(config.domains[z].name if config.domains else "") or f"d{z}"
             for z in range(n_domains)]
    return ResultsReport(rows=rows, domain_names=names, given_n=list(config.given_n))


def _csv_line(fields) -> str:
    """One CSV record ending in a newline: a field holding a comma, a double
    quote or a line break is quoted, as ``csv.QUOTE_MINIMAL`` does.  Unlike
    ``csv.writer`` with a newline line end, it quotes a lone carriage
    return too, which a reader would otherwise take for a line end."""
    return ",".join(
        '"' + f.replace('"', '""') + '"' if any(ch in f for ch in ',"\r\n') else f
        for f in fields
    ) + "\n"


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
        return "".join(_csv_line(row) for row in [header] + body)
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
