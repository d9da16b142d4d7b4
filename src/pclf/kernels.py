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
use.  ``pair_stats`` is ``ChunkStats`` fed one whole tensor;
``em.init_params`` feeds ``ChunkStats`` its random responsibilities in
row blocks, continuing the level and item-cluster sums from block to
block in row order, so both give the bits of one ``np.bincount`` per
column.  numpy sums a lone contiguous run pairwise instead, which a
running sum cannot reproduce, so a chunk with a length-1 cluster axis
(K = 1 or C = 1) comes in one block.
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
    per-item mass (C, V), per-level mass (K, C, R)), each C-contiguous.
    Every entry adds the same terms in the same order as one
    ``np.bincount`` per column would, so the bits are those of that form.
    This is ``ChunkStats`` fed the whole tensor as one block.
    """
    acc = ChunkStats(*resp.shape, n_levels)
    acc.add(resp, ridx)
    return acc.result(gu, gv, n_users, n_items)


class ChunkStats:
    """``pair_stats`` of one chunk of ``n_rows`` triples, fed in row blocks.

    ``add`` takes the chunk's responsibilities in consecutive row blocks;
    ``result`` returns what ``pair_stats`` returns for the whole chunk,
    bit for bit.  The row-local parts fill (n_rows, K) and (n_rows, C)
    arrays ``ru``/``rv``.  ``by_level`` and ``cluster_v`` continue across
    blocks as ``np.add.reduce`` over [running sum; new rows]: numpy adds
    along a strided axis in row order, so that gives the bits of one
    reduction over the whole chunk.  ``cluster_u`` and the per-entity
    bincounts run once, in ``result``, on ``ru``/``rv``.

    numpy sums a lone contiguous run pairwise, not in row order.  A
    cluster axis of length 1 (K = 1 or C = 1) turns the tensor reductions
    into such runs, so such a chunk keeps the direct forms and must come
    in one block.
    """

    def __init__(self, n_rows, n_uc, n_ic, n_levels):
        self.ru = np.empty((n_rows, n_uc))
        self.rv = np.empty((n_rows, n_ic))
        self.cluster_u = None   # set by a one-block chunk of a length-1 axis
        self.cluster_v = np.zeros(n_ic)
        self.by_level = np.zeros((n_levels, n_uc * n_ic))
        self.filled = 0

    def add(self, resp, ridx):
        """Reduce the chunk's next ``len(resp)`` rows, at levels ``ridx``."""
        s, n_uc, n_ic = resp.shape
        lo, hi = self.filled, self.filled + s
        np.sum(resp, axis=2, out=self.ru[lo:hi])
        flat = resp.reshape(s, n_uc * n_ic)
        if n_uc == 1 or n_ic == 1:
            if (lo, hi) != (0, len(self.ru)):
                raise ValueError("a chunk with a length-1 cluster axis comes in one block")
            self.cluster_u = resp.sum(axis=(0, 2))
            self.cluster_v = resp.sum(axis=(0, 1))
            np.sum(resp, axis=1, out=self.rv)
            self.by_level = np.stack([
                np.bincount(ridx, weights=col, minlength=len(self.by_level)) for col in flat.T
            ], axis=1)
        else:
            rv = self.rv[lo:hi]
            rv[:] = resp[:, 0]
            for k in range(1, n_uc):
                rv += resp[:, k]
            self.cluster_v = np.add.reduce(
                np.concatenate([self.cluster_v[None], flat.reshape(s * n_uc, n_ic)]))
            for r, running in enumerate(self.by_level):
                rows = flat[ridx == r]
                if len(rows):
                    running[:] = np.add.reduce(np.concatenate([running[None], rows]))
        self.filled = hi

    def result(self, gu, gv, n_users, n_items):
        """The chunk's statistics; ``gu``/``gv`` index its rows' users and items."""
        n_uc, n_ic = self.ru.shape[1], self.rv.shape[1]
        # column-wise bincount beats np.add.at by an order of magnitude here
        by_user = np.stack([
            np.bincount(gu, weights=self.ru[:, k], minlength=n_users) for k in range(n_uc)
        ])
        by_item = np.stack([
            np.bincount(gv, weights=self.rv[:, c], minlength=n_items) for c in range(n_ic)
        ])
        return (
            self.ru.sum(axis=0) if self.cluster_u is None else self.cluster_u,
            self.cluster_v, by_user, by_item,
            np.ascontiguousarray(self.by_level.T).reshape(n_uc, n_ic, -1),
        )


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
