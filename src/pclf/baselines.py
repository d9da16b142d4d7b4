"""Comparison models: single-domain co-clustering (FMM), the common-only
pooled configuration (RMGM-like), and masked non-negative matrix
factorization."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import CrossDomainDataset, DataError
from .em import ModelDims, ModelError, PclfParams, TraceEntry, TrainConfig, train


def model_dims(
    kind: str,
    dataset: CrossDomainDataset,
    n_user_clusters: int,
    n_common_clusters: int,
    n_specific_clusters=0,
) -> ModelDims:
    """The dims of a cluster-level model of ``kind`` on ``dataset``: pclf
    with ``n_specific_clusters`` (an int, or one per domain); rmgm-like
    with none in any domain, on two or more domains; fmm with none, on a
    single-domain dataset."""
    if kind not in ("pclf", "rmgm-like", "fmm"):
        raise ModelError(f"unknown model {kind!r}")
    if kind == "rmgm-like" and dataset.n_domains < 2:
        raise ModelError(f"rmgm-like needs at least 2 domains, got {dataset.n_domains}")
    if kind == "fmm" and dataset.n_domains != 1:
        raise ModelError(f"fmm needs a single-domain dataset, got {dataset.n_domains} domains")
    return ModelDims.from_dataset(dataset, n_user_clusters, n_common_clusters,
                                  n_specific_clusters if kind == "pclf" else 0)


def fmm_train(
    dataset: CrossDomainDataset,
    n_user_clusters: int,
    n_item_clusters: int,
    config: TrainConfig = TrainConfig(),
) -> tuple[PclfParams, list[TraceEntry]]:
    """Single-domain mixture model: the shared trainer on Z=1 with the
    specific component disabled.  Predict with w1 = 1."""
    return train(dataset, model_dims("fmm", dataset, n_user_clusters, n_item_clusters), config)


def common_only_train(
    dataset: CrossDomainDataset,
    n_user_clusters: int,
    n_item_clusters: int,
    config: TrainConfig = TrainConfig(),
) -> tuple[PclfParams, list[TraceEntry]]:
    """RMGM-like baseline: transfer only the common rating pattern.

    All specific components are disabled, so every domain shares the one
    pooled co-clustering.  Predict with w1 = 1.
    """
    return train(dataset, model_dims("rmgm-like", dataset, n_user_clusters, n_item_clusters),
                 config)


@dataclass
class NmfFactors:
    """Non-negative factor pair, plus the per-iteration masked objective."""

    u_factors: np.ndarray  # (M, rank)
    v_factors: np.ndarray  # (N, rank)
    rank: int
    objective: list[float] = field(default_factory=list)


def domain_matrix(dataset: CrossDomainDataset, domain: int) -> np.ndarray:
    """Dense M x N rating matrix of one domain with NaN marking missing cells."""
    dataset._check_domain(domain)
    out = np.full((dataset.n_users[domain], dataset.n_items[domain]), np.nan)
    out[dataset.users[domain], dataset.items[domain]] = dataset.ratings[domain]
    return out


def nmf_train(
    observed: np.ndarray,
    rank: int = 20,
    iters: int = 200,
    seed: int = 0,
) -> NmfFactors:
    """Multiplicative-update NMF on the observed cells of a rating matrix.

    ``observed`` is dense with NaN for missing entries; the squared error
    is taken over observed cells only.  The recorded objective is
    non-increasing across iterations.
    """
    if rank < 1:
        raise DataError(f"rank must be >= 1, got {rank}")
    if iters < 1:
        raise DataError(f"iters must be >= 1, got {iters}")
    observed = np.asarray(observed, dtype=float)
    present = ~np.isnan(observed)
    if not present.any():
        raise DataError("matrix has no observed entries")
    values = np.where(present, observed, 0.0)
    m, n = observed.shape
    if max(m, n) * rank > np.iinfo(np.intp).max // 8:
        raise DataError(f"rank {rank} gives factor arrays larger than numpy can address")
    rng = np.random.default_rng(seed)
    scale = np.sqrt(max(values[present].mean(), 1.0) / rank)
    u = rng.uniform(0.1, 1.0, size=(m, rank)) * scale
    v = rng.uniform(0.1, 1.0, size=(n, rank)) * scale

    w = present.astype(float)   # values is already 0 where w is
    eps = 1e-12
    objective = []
    uv = u @ v.T   # each iteration's objective product is the next one's first
    for _ in range(iters):
        uv *= w
        u *= (values @ v) / (uv @ v + eps)
        uv = u @ v.T
        uv *= w
        v *= (values.T @ u) / (uv.T @ u + eps)
        uv = u @ v.T
        resid = values - uv
        resid *= w
        np.square(resid, out=resid)
        objective.append(float(resid.sum()))
    return NmfFactors(u_factors=u, v_factors=v, rank=rank, objective=objective)


def nmf_predict(factors: NmfFactors, user, item, n_levels: int):
    """Factor dot product clamped to the rating range [1, R].

    ``user`` and ``item`` are indices or index arrays (broadcast against
    each other); scalars give a float, arrays an array.
    """
    for kind, index, size in (("user", user, factors.u_factors.shape[0]),
                              ("item", item, factors.v_factors.shape[0])):
        index = np.asarray(index)
        bad = (index < 0) | (index >= size)
        if bad.any():
            raise DataError(f"{kind} index {index[bad].flat[0]} out of range [0, {size})")
    raw = np.einsum("...k,...k->...", factors.u_factors[user], factors.v_factors[item])
    clamped = np.clip(raw, 1.0, float(n_levels))
    return float(clamped) if clamped.ndim == 0 else clamped
