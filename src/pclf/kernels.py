"""Hot numeric kernels behind the E/M steps.

All kernels work on one "pair family" at a time: a user side, an item
side and a (K, C, R) rating table, where C is either the common or a
domain-specific item-cluster count.

Training runs on the factorized pass.  The posterior of one triple is
bilinear, resp[k, c] = U[k] A_r[k, c] V[c] / Z with Z = U A_r V^T, so
every EM statistic follows from per-entity sums; no (S, K, C) tensor and
no per-triple (S, K) array is ever built.  Each level's table
P_r = u_tab @ A_r is built once per user, an (R * U, C) table over
(level, user) keys; a triple gathers its row by key ``ridx * U + gu``
and Z is that row's dot product with the triple's item row.  The triples
need no order.  ``pair_pass`` returns the M-step statistics and the
per-triple log normalizers, ``pair_log_normalizers`` only the latter
(the log-likelihood terms).  Both run one front half, so at beta = 1
their normalizers agree bit for bit, and ``em.train`` takes the
log-likelihood after an M step from the next iteration's pass.

The log-space kernels ``pair_responsibilities``, ``pair_log_likelihood``
and ``pair_stats`` materialize the (S, K, C) posterior tensor.  They are
the reference that the public ``em.e_step``/``em.m_step`` and the tests
use; ``em.init_params`` also reduces each block of its random
responsibilities with ``pair_stats``.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation, recorded alongside benchmark runs."""
    return "numpy"


def pair_responsibilities(log_wu, log_wv, log_rate, ridx, beta=1.0):
    """Tempered posterior over (user cluster, item cluster) per triple.

    Returns an (S, K, C) array whose per-triple slices are the softmax of
    ``beta`` times the summed log-weights; a triple with zero total mass
    yields the uniform matrix.
    """
    ln = log_wu[:, :, None] + log_wv[:, None, :] + log_rate[:, :, ridx].transpose(2, 0, 1)
    if beta != 1.0:
        ln *= beta
    top = ln.max(axis=(1, 2), keepdims=True)
    dead = ~np.isfinite(top[:, 0, 0])
    p = np.exp(ln - np.where(np.isfinite(top), top, 0.0))
    if dead.any():
        p[dead] = 1.0  # zero total mass: fall back to the uniform matrix
    p /= p.sum(axis=(1, 2), keepdims=True)
    return p


def pair_log_likelihood(log_wu, log_wv, log_rate, ridx) -> float:
    """Sum over triples of log marginal mass; -inf if any triple has none."""
    ln = log_wu[:, :, None] + log_wv[:, None, :] + log_rate[:, :, ridx].transpose(2, 0, 1)
    top = ln.max(axis=(1, 2))
    if not np.isfinite(top).all():
        return -np.inf
    lse = top + np.log(np.exp(ln - top[:, None, None]).sum(axis=(1, 2)))
    return float(lse.sum())


def _bincount_columns(index, weights, n_index):
    """``np.bincount(index, weights[:, j], minlength=n_index)`` for each column
    j of the (S, n) ``weights``, as one C-contiguous (n, n_index) array.

    It is one bincount over the cluster-major keys ``index + j * n_index``;
    every bin adds its terms in row order, so it has the bits of one
    bincount per column.  Column-wise bincount beats ``np.add.at`` by an
    order of magnitude here.
    """
    n = weights.shape[1]
    key = index[:, None] + np.arange(n) * n_index
    return np.bincount(key.ravel(), weights=weights.ravel(),
                       minlength=n * n_index).reshape(n, n_index)


def pair_stats(resp, gu, gv, ridx, n_users, n_items, n_levels):
    """Sufficient statistics of one responsibility tensor.

    Returns (cluster mass (K,), cluster mass (C,), per-user mass (K, U),
    per-item mass (C, V), per-level mass (K, C, R)), each C-contiguous.
    The user, item and level masses are one ``np.bincount`` each, over
    the cluster-major keys ``index + column * n_index`` of the user
    clusters, the item clusters and the (k, c) pairs
    (``_bincount_columns``).  The cluster masses sum the entity masses,
    as in ``pair_pass``.
    """
    n_uc, n_ic = resp.shape[1:]
    by_user = _bincount_columns(gu, resp.sum(axis=2), n_users)
    by_item = _bincount_columns(gv, resp.sum(axis=1), n_items)
    # an empty block has no row to infer the columns from
    flat = resp.reshape(len(resp), n_uc * n_ic)
    by_level = _bincount_columns(ridx, flat, n_levels).reshape(n_uc, n_ic, n_levels)
    return by_user.sum(axis=1), by_item.sum(axis=1), by_user, by_item, by_level


def tempered(log_w, beta):
    """exp(beta * log_w) per entity (column), scaled so its largest entry is 1.

    Returns the (n, C) scaled weights and the (n,) log scale taken out; an
    entity with no mass keeps zero weights and a zero scale.
    """
    scaled = beta * log_w
    top = scaled.max(axis=0)
    top = np.where(np.isfinite(top), top, 0.0)
    return np.exp(scaled - top).T.copy(), top


def _front(log_wu, log_wv, log_rate, gu, items, ridx, beta):
    """The front half that both kernels share, so that their normalizers
    agree bit for bit.

    Returns the tempered tables (u_tab (U, K), v_tab (V, C), a (R, K, C)),
    the triples' rows (key, pk (S, C), v (S, C), z) and the per-triple log
    normalizers.  ``u_tab @ a[r]`` is each user's (C,) row at level r; the
    levels stacked give an (R * U, C) table, whose row ``key = ridx * U +
    gu`` is a triple's ``pk``, so that z = rowdot(pk, v) = u A_r v.  The log
    normalizers add back the per-entity scales that ``tempered`` took out.
    """
    u_tab, u_top = tempered(log_wu, beta)
    v_tab, v_top = tempered(log_wv, beta)
    a = np.exp(beta * np.moveaxis(log_rate, 2, 0))
    key = ridx * len(u_tab) + gu
    # take is 2-4x faster than fancy indexing here
    pk = (u_tab @ a).reshape(-1, a.shape[2]).take(key, axis=0)
    v = v_tab.take(items, axis=0)
    z = np.einsum("sc,sc->s", pk, v)
    with np.errstate(divide="ignore"):
        log_z = np.log(z) + (u_top[gu] + v_top[items])
    return (u_tab, v_tab, a), (key, pk, v, z), log_z


def pair_log_normalizers(log_wu, log_wv, log_rate, gu, items, ridx):
    """Per-triple log marginal mass log sum_kc wu[k] rate[k, c, r] wv[c].

    ``log_wu`` (K, U) and ``log_wv`` (C, V) are per-entity log weights,
    indexed per triple by ``gu``/``items``; ``ridx`` is the level index.
    A triple with no mass gets -inf.  These are, bit for bit, the
    normalizers that ``pair_pass`` returns at beta = 1.
    """
    return _front(log_wu, log_wv, log_rate, gu, items, ridx, 1.0)[2]


def pair_pass(log_wu, log_wv, log_rate, gu, items, ridx, beta=1.0):
    """Factorized E step plus M-step statistics of one pair family.

    Takes the per-entity inputs of ``pair_log_normalizers`` and returns
    what ``pair_stats(pair_responsibilities(...))`` returns -- (cluster
    mass (K,), cluster mass (C,), per-user mass (K, U), per-item mass
    (C, V), per-level mass (K, C, R)) -- followed by the per-triple log
    normalizers of the tempered posterior.  A triple with no mass counts
    as the uniform matrix, as in ``pair_responsibilities``.

    The statistics come from per-entity sums over the triples: W sums
    v / Z per (level, user) key and X sums pk / Z per item.  Then
    by_level[r] = A_r * (u_tab^T W_r), by_user = u_tab^T * sum_r A_r W_r^T
    and by_item = v_tab^T * X.
    """
    (u_tab, v_tab, a), (key, pk, v, z), log_z = _front(
        log_wu, log_wv, log_rate, gu, items, ridx, beta)
    n_levels, n_uc, n_ic = a.shape
    n_users, n_items = len(u_tab), len(v_tab)
    dead = z == 0.0
    z[dead] = np.inf  # a triple with no mass adds nothing here; its uniform share comes below
    v /= z[:, None]
    pk /= z[:, None]
    w = np.stack([
        np.bincount(key, weights=v[:, c], minlength=n_levels * n_users) for c in range(n_ic)
    ], axis=1).reshape(n_levels, n_users, n_ic)
    by_item = np.stack([
        np.bincount(items, weights=pk[:, c], minlength=n_items) for c in range(n_ic)
    ]) * v_tab.T
    by_user = np.tensordot(a, w, axes=([0, 2], [0, 2])) * u_tab.T
    by_level = a * (u_tab.T @ w)
    if dead.any():  # the uniform matrix, as in the reference
        by_user += np.bincount(gu[dead], minlength=n_users) / n_uc
        by_item += np.bincount(items[dead], minlength=n_items) / n_ic
        by_level += (np.bincount(ridx[dead], minlength=n_levels) / (n_uc * n_ic))[:, None, None]
    return (
        by_user.sum(axis=1), by_item.sum(axis=1), by_user, by_item,
        np.moveaxis(by_level, 0, 2), log_z,
    )
