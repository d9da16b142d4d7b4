"""Hot numeric kernels behind the E/M steps.

All kernels work on one "pair family" at a time: a user side, an item
side and a (K, C, R) rating table, where C is either the common or a
domain-specific item-cluster count.  Callers pass per-triple gathered
log-weights; the kernels own the O(S*K*C) inner loops, in numpy.
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


def pair_stats(resp, gu, gv, ridx, n_users, n_items, n_levels):
    """Sufficient statistics of one responsibility tensor.

    Returns (cluster mass (K,), cluster mass (C,), per-user mass (K, U),
    per-item mass (C, V), per-level mass (K, C, R)).
    """
    s, n_uc, n_ic = resp.shape
    cluster_u = resp.sum(axis=(0, 2))
    cluster_v = resp.sum(axis=(0, 1))
    ru = resp.sum(axis=2)
    rv = resp.sum(axis=1)
    # column-wise bincount beats np.add.at by an order of magnitude here
    by_user = np.stack([
        np.bincount(gu, weights=ru[:, k], minlength=n_users) for k in range(n_uc)
    ])
    by_item = np.stack([
        np.bincount(gv, weights=rv[:, c], minlength=n_items) for c in range(n_ic)
    ])
    flat = resp.reshape(s, n_uc * n_ic)
    by_level = np.stack([
        np.bincount(ridx, weights=flat[:, i], minlength=n_levels)
        for i in range(n_uc * n_ic)
    ]).reshape(n_uc, n_ic, n_levels)
    return cluster_u, cluster_v, by_user, by_item, by_level
