"""Rating prediction from trained parameters.

Predictions combine two bilinear forms: user memberships times a
cluster-level expected-rating matrix times item memberships, once through
the common item clusters (transferable across domains) and once through
the domain-specific ones, mixed by per-domain weights W1 + W2 = 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import data
from .em import ModelDims, ModelError, PclfParams, _normalize

DEFAULT_W1 = 0.35


@dataclass
class ClusterRatingMatrices:
    """Expected rating per cluster pair: s_com is K x T, s_spe[z] is K x L_z."""

    s_com: np.ndarray
    s_spe: list[np.ndarray]


@dataclass
class MembershipVectors:
    """Posterior cluster memberships per entity, rows summing to 1; an
    entity whose joint mass is zero gets a uniform row."""

    p_u: np.ndarray                 # (total users, K)
    p_vcom: np.ndarray              # (total items, T)
    p_vspe: list[np.ndarray]        # per domain (N_z, L_z)


@dataclass(frozen=True)
class PredictionWeights:
    """Per-domain mix between the cross-domain and the specific rating
    functions; the specific weight is always 1 - w1."""

    w1: tuple[float, ...]

    def __post_init__(self):
        if any(not 0.0 <= w <= 1.0 for w in self.w1):
            raise ModelError(f"w1 weights must lie in [0, 1], got {self.w1}")
        object.__setattr__(self, "w1", tuple(float(w) for w in self.w1))

    def w2(self, domain: int) -> float:
        return 1.0 - self.w1[domain]

    @classmethod
    def uniform(cls, n_domains: int, w1: float = DEFAULT_W1) -> "PredictionWeights":
        return cls(w1=(w1,) * n_domains)

    @classmethod
    def common_only(cls, n_domains: int) -> "PredictionWeights":
        return cls(w1=(1.0,) * n_domains)


def cluster_rating_matrices(params: PclfParams) -> ClusterRatingMatrices:
    """Expectation of each categorical rating table over the levels 1..R."""
    levels = np.arange(1, params.dims.n_levels + 1, dtype=float)
    return ClusterRatingMatrices(
        s_com=params.rate_com @ levels,
        s_spe=[table @ levels for table in params.rate_spe],
    )


def _bayes_memberships(prior: np.ndarray, cond: np.ndarray) -> np.ndarray:
    """Invert P(entity | cluster) into per-entity cluster posteriors."""
    return _normalize((cond * prior[:, None]).T, axis=1)  # (entities, clusters)


def memberships(params: PclfParams) -> MembershipVectors:
    """Every entity's posterior memberships.  A domain without specific
    clusters gets an (N_z, 0) table."""
    return MembershipVectors(
        p_u=_bayes_memberships(params.prior_u, params.cond_u),
        p_vcom=_bayes_memberships(params.prior_vcom, params.cond_vcom),
        p_vspe=[_bayes_memberships(prior, cond)
                for prior, cond in zip(params.prior_vspe, params.cond_vspe)],
    )


def user_table(params: PclfParams, mems: MembershipVectors, domain: int) -> np.ndarray:
    """One domain's user memberships, (M_z + 1, K); the last row is the
    uniform membership every unseen user gets."""
    dims = params.dims
    start = dims.user_offset(domain)
    return _rows(mems.p_u[start:start + dims.n_users[domain]])


def item_table(params: PclfParams, mats: ClusterRatingMatrices, mems: MembershipVectors,
               domain: int, w1: float) -> np.ndarray:
    """Expected rating of each item of ``domain`` per user cluster,
    ``w1 * p_vcom S_com^T + (1 - w1) * p_vspe S_spe^T``, (N_z + 1, K); the
    last row is built from the uniform memberships of an unseen item."""
    dims = params.dims
    start = dims.item_offset(domain)
    common = _rows(mems.p_vcom[start:start + dims.n_items[domain]]) @ mats.s_com.T
    if dims.n_specific_clusters[domain] == 0 and w1 != 1.0:
        raise ModelError(f"domain {domain} has no specific clusters; predictions require w1 = 1")
    if w1 == 1.0:
        return common
    specific = _rows(mems.p_vspe[domain]) @ mats.s_spe[domain].T
    return w1 * common + (1.0 - w1) * specific


def _rows(table: np.ndarray) -> np.ndarray:
    """``table`` with the uniform row appended."""
    return np.vstack([table, np.full((1, table.shape[1]), 1.0 / table.shape[1])])


def predict_cells(params: PclfParams, mats: ClusterRatingMatrices, mems: MembershipVectors,
                  weights: PredictionWeights | None, cells, mix_specific: bool = False
                  ) -> np.ndarray:
    """Predicted ratings for rows of (user domain, user, item domain, item).

    Each prediction is a user-table row dotted with an item-table row.  A
    user or item outside its domain's index range gets the uniform row.
    In-domain rows mix with their domain's weight; cross-domain rows use
    the common pattern alone (w1 = 1) unless ``mix_specific`` blends in the
    item domain's specific pattern with that domain's weight.

    The cells of each (user domain, item domain) block are scored in slices
    of ``data.BLOCK_ROWS``, against the block's two tables built once, so
    the gathered rows take at most 2 * ``BLOCK_ROWS`` * K values whatever
    the number of cells.  Each row is its own dot product, so the slicing
    does not change a bit.
    """
    dims = params.dims
    cells = np.asarray(cells, dtype=np.int64).reshape(-1, 4)
    for d in np.unique(cells[:, [0, 2]]).tolist():
        _check_domain(dims, d)
    blocks = cells[:, 0] * dims.n_domains + cells[:, 2]
    out = np.empty(len(cells))
    for block in np.unique(blocks).tolist():
        du, dv = divmod(block, dims.n_domains)
        w1 = weights.w1[dv] if du == dv or mix_specific else 1.0
        u_tab = user_table(params, mems, du)
        v_tab = item_table(params, mats, mems, dv, w1)
        at = np.flatnonzero(blocks == block)
        for start in range(0, len(at), data.BLOCK_ROWS):
            rows = at[start:start + data.BLOCK_ROWS]
            users = _table_rows(cells[rows, 1], dims.n_users[du])
            items = _table_rows(cells[rows, 3], dims.n_items[dv])
            out[rows] = np.einsum("ij,ij->i", u_tab[users], v_tab[items])
    return out


def _check_domain(dims: ModelDims, domain: int) -> None:
    if not 0 <= domain < dims.n_domains:
        raise ModelError(f"domain {domain} out of range: the model has {dims.n_domains}")


def _table_rows(index: np.ndarray, size: int) -> np.ndarray:
    """Each index's table row: itself if in [0, size), else the uniform row."""
    return np.where((index >= 0) & (index < size), index, size)


def _warn_unseen(dims: ModelDims, user: tuple[int, int], item: tuple[int, int]) -> None:
    for kind, (domain, index), sizes in (("user", user, dims.n_users),
                                         ("item", item, dims.n_items)):
        if not 0 <= index < sizes[domain]:
            # stacklevel 3 names the caller of predict or predict_cross
            warnings.warn(f"{kind} {index} unseen in domain {domain}; using uniform membership",
                          stacklevel=3)


def predict(
    params: PclfParams,
    mats: ClusterRatingMatrices,
    mems: MembershipVectors,
    weights: PredictionWeights,
    domain: int,
    user: int,
    item: int,
) -> float:
    """Predicted rating for one in-domain cell, always within [1, R].

    Unseen users or items fall back to uniform memberships (with a
    warning), which averages the expected ratings over their clusters.
    """
    value = predict_cells(params, mats, mems, weights, [[domain, user, domain, item]])[0]
    _warn_unseen(params.dims, (domain, user), (domain, item))
    return float(value)


def predict_many(
    params: PclfParams,
    mats: ClusterRatingMatrices,
    mems: MembershipVectors,
    weights: PredictionWeights,
    domain: int,
    users: np.ndarray,
    items: np.ndarray,
) -> np.ndarray:
    """Vectorized ``predict`` over parallel index arrays of one domain."""
    dims = params.dims
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    if users.size and (users.min() < 0 or users.max() >= dims.n_users[domain]):
        raise ModelError("user index out of range; use predict() for fallbacks")
    if items.size and (items.min() < 0 or items.max() >= dims.n_items[domain]):
        raise ModelError("item index out of range; use predict() for fallbacks")
    domains = np.full_like(users, domain)
    return predict_cells(
        params, mats, mems, weights, np.column_stack([domains, users, domains, items])
    )


def predict_cross(
    params: PclfParams,
    mats: ClusterRatingMatrices,
    mems: MembershipVectors,
    user: tuple[int, int],
    item: tuple[int, int],
    weights: PredictionWeights | None = None,
    mix_specific: bool = False,
) -> float:
    """Predict a foreign-domain cell: user from domain a, item from domain b.

    By default only the common rating pattern carries across domains.
    ``mix_specific=True`` additionally blends the item domain's specific
    pattern using that domain's weights (the shared user clusters make the
    bilinear form well defined either way).
    """
    if user[0] == item[0]:
        raise ModelError("predict_cross requires distinct user and item domains")
    if mix_specific and weights is None:
        raise ModelError("mix_specific=True needs the item domain's weights")
    value = predict_cells(params, mats, mems, weights, [[*user, *item]], mix_specific)[0]
    _warn_unseen(params.dims, user, item)
    return float(value)


def complete_matrix(
    params: PclfParams,
    mats: ClusterRatingMatrices,
    mems: MembershipVectors,
    weights: PredictionWeights,
    domain: int,
    sink,
) -> None:
    """Stream predictions for every (user, item) cell of one domain.

    ``sink(first_user, rows)`` is called once per block of consecutive
    users, in index order, with their (n, N_z) rows of item predictions; a
    block holds about ``data.BLOCK_ROWS`` cells, so the dense matrix itself
    is never materialized.  Each row is its own matrix-vector product, bit
    for bit ``item_table(...)[:-1] @ user_row``.  A domain outside [0, Z)
    raises ``ModelError``.
    """
    _check_domain(params.dims, domain)
    items = item_table(params, mats, mems, domain, weights.w1[domain])[:-1]
    users = user_table(params, mems, domain)[:-1, :, None]
    for block in data.row_blocks(len(users), len(items)):
        sink(block.start, np.matmul(items, users[block])[..., 0])
