"""Comparison models: single-domain co-clustering (FMM), the common-only
pooled configuration (RMGM-like), and masked non-negative matrix
factorization."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import CrossDomainDataset, DataError
from .em import ModelDims, ModelError, PclfParams, TraceEntry, TrainConfig, train


def fmm_train(
    dataset: CrossDomainDataset,
    n_user_clusters: int,
    n_item_clusters: int,
    config: TrainConfig = TrainConfig(),
) -> tuple[PclfParams, list[TraceEntry]]:
    """Single-domain mixture model: the shared trainer on Z=1 with the
    specific component disabled.  Predict with w1 = 1."""
    if dataset.n_domains != 1:
        raise ModelError(
            f"fmm_train needs a single-domain dataset, got {dataset.n_domains} domains"
        )
    dims = ModelDims.from_dataset(dataset, n_user_clusters, n_item_clusters, (0,))
    return train(dataset, dims, config)


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
    if dataset.n_domains < 2:
        raise ModelError("common_only_train needs at least 2 domains")
    dims = ModelDims.from_dataset(
        dataset, n_user_clusters, n_item_clusters, (0,) * dataset.n_domains
    )
    return train(dataset, dims, config)


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
    masked: bool = True,
) -> NmfFactors:
    """Multiplicative-update NMF on the observed cells of a rating matrix.

    ``observed`` is dense with NaN for missing entries.  With
    ``masked=True`` (default) the squared error is taken over observed
    cells only; ``masked=False`` treats missing cells as zeros instead.
    The recorded objective is non-increasing across iterations.
    """
    if rank < 1:
        raise DataError(f"rank must be >= 1, got {rank}")
    observed = np.asarray(observed, dtype=float)
    present = ~np.isnan(observed)
    if not present.any():
        raise DataError("matrix has no observed entries")
    mask = present if masked else np.ones_like(present)
    values = np.where(present, observed, 0.0)
    m, n = observed.shape
    rng = np.random.default_rng(seed)
    scale = np.sqrt(max(values[present].mean(), 1.0) / rank)
    u = rng.uniform(0.1, 1.0, size=(m, rank)) * scale
    v = rng.uniform(0.1, 1.0, size=(n, rank)) * scale

    w = mask.astype(float)
    target = w * values
    eps = 1e-12
    objective = []
    uv = u @ v.T   # each iteration's objective product is the next one's first
    for _ in range(iters):
        uv *= w
        u *= (target @ v) / (uv @ v + eps)
        uv = u @ v.T
        uv *= w
        v *= (target.T @ u) / (uv.T @ u + eps)
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
