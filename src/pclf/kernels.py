"""Hot numeric kernels behind the E/M steps.

All kernels work on one "pair family" at a time: a user side, an item
side and a (K, C, R) rating table, where C is either the common or a
domain-specific item-cluster count.

Training runs on the factorized pass.  The posterior of one triple is
bilinear, resp[k, c] = U[k] A_r[k, c] V[c] / Z with Z = U A_r V^T, so
grouping the triples by rating level r gives every EM statistic from
per-level products of (S_r, K) and (S_r, C) blocks with the (K, C) table
A_r; no (S, K, C) tensor is ever built.  ``pair_pass`` returns the M-step
statistics and the per-triple log normalizers, ``pair_log_normalizers``
only the latter (the log-likelihood terms).

A fit does each piece of this work once.  A family's level order and
bounds (``level_layout``) depend only on its levels, so ``em.train``
builds them once per fit and passes them in as ``layout``.  The tempered
user table (``tempered``) is the same for every family of one pass, so
it is built once per pass and passed in as ``users``.  At beta = 1 the
normalizers of ``pair_pass`` are those of ``pair_log_normalizers``, so
``em.train`` takes the log-likelihood after an M step from the next
iteration's pass.  Without ``layout`` or ``users`` a kernel builds them
itself.  A pass gathers each level's user and item rows inside its level
loop, so it holds no (S, K) or (S, C) gather for the whole family.

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


def level_layout(ridx, n_levels):
    """The triples' stable order by level, and each level's bounds in it.

    Level r's triples are ``order[bounds[r]:bounds[r + 1]]``, in their
    original order.
    """
    order = np.argsort(ridx, kind="stable")
    return order, np.searchsorted(ridx[order], np.arange(n_levels + 1))


def tempered(log_w, beta):
    """exp(beta * log_w) per entity (column), scaled so its largest entry is 1.

    Returns the (n, C) scaled weights and the (n,) log scale taken out; an
    entity with no mass keeps zero weights and a zero scale.
    """
    scaled = beta * log_w
    top = scaled.max(axis=0)
    top = np.where(np.isfinite(top), top, 0.0)
    return np.exp(scaled - top).T.copy(), top


class _Factors:
    """The tempered factors of one pair family, triples grouped by rating level.

    ``u_tab`` (U, K) and ``v_tab`` (V, C) are the per-entity user and item
    weights, ``a[r]`` the (K, C) tempered rating table, ``u_top``/``v_top``
    the per-entity log scales factored out of the tables, and ``gu`` and
    ``items`` the triples' entities in level order (``order``).
    ``levels()`` yields (r, slice of the level's triples, their (S_r, K)
    user rows, their (S_r, C) item rows); the rows are gathered one level
    at a time, so that no (S, K) or (S, C) gather is held for the pass.
    ``layout`` and ``users``, when given, are ``level_layout(ridx, R)``
    and ``tempered(log_wu, beta)``, built once by the caller.
    """

    def __init__(self, log_wu, log_wv, log_rate, gu, items, ridx, beta, layout, users):
        self.a = np.ascontiguousarray(np.exp(beta * np.moveaxis(log_rate, 2, 0)))
        self.order, self.bounds = layout or level_layout(ridx, len(self.a))
        self.gu = gu[self.order]
        self.items = items[self.order]
        self.u_tab, self.u_top = users or tempered(log_wu, beta)
        self.v_tab, self.v_top = tempered(log_wv, beta)

    def levels(self):
        for r in range(len(self.a)):
            sl = slice(self.bounds[r], self.bounds[r + 1])
            if sl.stop > sl.start:
                # take is 2-4x faster than fancy indexing here
                yield (r, sl, self.u_tab.take(self.gu[sl], axis=0),
                       self.v_tab.take(self.items[sl], axis=0))

    def log_normalizers(self, z):
        """log Z plus the factored-out scale, back in the callers' triple order.

        The per-triple scale is gathered here, so that the pass does not hold it.
        """
        out = np.empty_like(z)
        with np.errstate(divide="ignore"):
            out[self.order] = np.log(z) + (self.u_top[self.gu] + self.v_top[self.items])
        return out


def pair_log_normalizers(log_wu, log_wv, log_rate, gu, items, ridx, *, layout=None, users=None):
    """Per-triple log marginal mass log sum_kc wu[k] rate[k, c, r] wv[c].

    ``log_wu`` (K, U) and ``log_wv`` (C, V) are per-entity log weights,
    indexed per triple by ``gu``/``items``; ``ridx`` is the level index.
    A triple with no mass gets -inf.  ``layout`` is
    ``level_layout(ridx, R)`` and ``users`` is ``tempered(log_wu, 1.0)``;
    either is built here when not given.
    """
    f = _Factors(log_wu, log_wv, log_rate, gu, items, ridx, 1.0, layout, users)
    z = np.empty(len(ridx))
    for r, sl, u, v in f.levels():
        z[sl] = np.einsum("sc,sc->s", u @ f.a[r], v)
    return f.log_normalizers(z)


def pair_pass(log_wu, log_wv, log_rate, gu, items, ridx, beta=1.0, *, layout=None, users=None):
    """Factorized E step plus M-step statistics of one pair family.

    Takes the per-entity inputs of ``pair_log_normalizers`` and returns
    what ``pair_stats(pair_responsibilities(...))`` returns -- (cluster
    mass (K,), cluster mass (C,), per-user mass (K, U), per-item mass
    (C, V), per-level mass (K, C, R)) -- followed by the per-triple log
    normalizers of the tempered posterior.  A triple with no mass counts
    as the uniform matrix, as in ``pair_responsibilities``.  ``layout``
    and ``users`` are as in ``pair_log_normalizers``, with ``users``
    tempered at ``beta``.
    """
    f = _Factors(log_wu, log_wv, log_rate, gu, items, ridx, beta, layout, users)
    n_uc, n_ic = f.a.shape[1], f.a.shape[2]
    ru = np.empty((len(ridx), n_uc))
    rv = np.empty((len(ridx), n_ic))
    z = np.empty(len(ridx))
    by_level = np.zeros(f.a.shape)
    for r, sl, u, v in f.levels():
        a = f.a[r]
        ua = u @ a
        z[sl] = np.einsum("sc,sc->s", ua, v)
        dead = z[sl] == 0.0
        v_z = v / np.where(dead, 1.0, z[sl])[:, None]
        # in place, and ua freed first: these lines set the pass's peak memory
        np.multiply(ua, v_z, out=rv[sl])
        del ua
        np.multiply(v_z @ a.T, u, out=ru[sl])
        by_level[r] = a * (u.T @ v_z)
        if dead.any():  # zero total mass: the uniform matrix, as in the reference
            ru[sl][dead] = 1.0 / n_uc
            rv[sl][dead] = 1.0 / n_ic
            by_level[r] += dead.sum() / (n_uc * n_ic)
    by_user = np.stack([
        np.bincount(f.gu, weights=ru[:, k], minlength=log_wu.shape[1]) for k in range(n_uc)
    ])
    by_item = np.stack([
        np.bincount(f.items, weights=rv[:, c], minlength=log_wv.shape[1]) for c in range(n_ic)
    ])
    return (
        ru.sum(axis=0), rv.sum(axis=0), by_user, by_item,
        np.moveaxis(by_level, 0, 2), f.log_normalizers(z),
    )
