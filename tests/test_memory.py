"""Working-memory bounds of init and cell prediction, from array shapes.

numpy reports its array allocations to ``tracemalloc``, so a traced peak
counts every array a call holds at once.  Each bound is the arrays that
the call needs by design plus its inputs, and each sits below the array
that the bound rules out: a whole-chunk init draw, a shared init stream
kept whole, a per-triple (S, K) array in the EM pass, or a (cells, K)
gather.
"""

import tracemalloc

import numpy as np

from pclf import (
    CrossDomainDataset,
    ModelDims,
    PredictionWeights,
    cluster_rating_matrices,
    em,
    init_params,
    init_params_many,
    kernels,
    memberships,
)
from pclf import data
from pclf.inference import predict_cells

from oracles import random_params

FLOAT = 8  # bytes per float64 or int64 entry


def traced_peak(fn, *args):
    """Bytes ``fn(*args)`` holds at its peak, beyond what was held before."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_init_params_holds_blocks_not_chunks():
    # K = 20, C = 15 on 8400 pooled triples: the pooled family has three
    # chunks, each specific family two
    k, c, levels, users, items, per_domain = 20, 15, 5, (300, 300), (400, 400), 4200
    dims = ModelDims(n_domains=2, n_user_clusters=k, n_common_clusters=c,
                     n_specific_clusters=(c, c), n_levels=levels, n_users=users,
                     n_items=items)
    rng = np.random.default_rng(0)
    rows = np.concatenate([
        np.column_stack([np.full(per_domain, z), rng.integers(0, users[z], per_domain),
                         rng.integers(0, items[z], per_domain),
                         rng.integers(1, levels + 1, per_domain)])
        for z in range(2)
    ])
    ds = CrossDomainDataset.from_indexed(n_levels=levels, triples=rows, n_users=list(users),
                                         n_items=list(items))
    n_triples = 2 * per_domain
    # the draw buffer, and one block's rows copied by the reductions; no
    # buffer or chunk outlives its family's draws into the M step
    draws = 2 * em.INIT_BLOCK_ROWS * k * c
    chunk = em.INIT_CHUNK_ROWS * (k + c) + levels * k * c       # ru, rv and by_level
    # each family's statistics, a chunk's part, their sum and the M step's copies
    stats = 4 * sum(k * sum(users) + c * n_items + k * c * levels
                    for n_items in (sum(items), *items))
    inputs = 8 * n_triples                                      # the families' index columns
    bound = FLOAT * (draws + chunk + stats + inputs)
    # the bound rules out drawing a whole chunk
    assert bound < FLOAT * em.INIT_CHUNK_ROWS * k * c
    peak = traced_peak(init_params, dims, ds, 0)
    assert peak < bound, (peak, bound)


def test_init_params_many_holds_a_window_not_the_stream():
    # pclf, rmgm-like and fmm on each domain view, all at K = 20, C = 15,
    # on 8400 pooled triples: each pooled family has three chunks, each
    # per-domain family two
    k, c, levels, users, items, per_domain = 20, 15, 5, (300, 300), (400, 400), 4200
    rng = np.random.default_rng(0)
    rows = np.concatenate([
        np.column_stack([np.full(per_domain, z), rng.integers(0, users[z], per_domain),
                         rng.integers(0, items[z], per_domain),
                         rng.integers(1, levels + 1, per_domain)])
        for z in range(2)
    ])
    ds = CrossDomainDataset.from_indexed(n_levels=levels, triples=rows, n_users=list(users),
                                         n_items=list(items))
    views = [ds.domain_view(z) for z in range(2)]
    jobs = [(ModelDims.from_dataset(ds, k, c, c), ds), (ModelDims.from_dataset(ds, k, c, 0), ds),
            *((ModelDims.from_dataset(view, k, c, 0), view) for view in views)]
    block = em.INIT_BLOCK_ROWS * k * c
    # the window of draws past the slowest job, and the one it grows into
    window = 2 * block
    # per job: its draw buffer, its chunk's ru, rv and by_level, the
    # statistics of its families as in test_init_params_holds_blocks_not_chunks,
    # and its families' index columns
    per_job = 0
    for dims, dataset in jobs:
        n_items = (dims.total_items, *(n for n, l in zip(dims.n_items, dims.n_specific_clusters)
                                       if l))
        per_job += (block + em.INIT_CHUNK_ROWS * (k + c) + levels * k * c
                    + 4 * sum(k * dims.total_users + c * n + k * c * levels for n in n_items)
                    + 8 * sum(dataset.n_ratings))
    copies = block   # one block's rows copied by a reduction
    bound = FLOAT * (window + per_job + copies)
    # the bound rules out keeping the longest job's stream, pclf's
    stream = sum(s * k * c for s in (2 * per_domain, per_domain, per_domain))
    assert bound < FLOAT * stream
    peak = traced_peak(init_params_many, jobs, 0)
    assert peak < bound, (peak, bound)


def test_predict_cells_holds_slices_not_cells():
    k, n_cells = 20, 60_000
    dims = ModelDims(n_domains=2, n_user_clusters=k, n_common_clusters=10,
                     n_specific_clusters=(15, 15), n_levels=5, n_users=(300, 200),
                     n_items=(400, 500))
    params = random_params(np.random.default_rng(1), dims)
    mats, mems = cluster_rating_matrices(params), memberships(params)
    rng = np.random.default_rng(2)
    # nine in ten cells in domain 0's block, the rest cross-domain or unseen
    du = (rng.random(n_cells) < 0.05).astype(np.int64)
    dv = (rng.random(n_cells) < 0.05).astype(np.int64)
    cells = np.column_stack([du, rng.integers(0, 310, n_cells), dv,
                             rng.integers(0, 410, n_cells)])
    weights = PredictionWeights(w1=(0.35, 0.35))
    gathers = 3 * data.BLOCK_ROWS * k                     # two gathered slices and a product
    tables = sum(dims.n_users) * k + sum(dims.n_items) * k * 3   # user and item tables
    per_cell = 8 * n_cells                                # blocks, their order, out, indices
    bound = FLOAT * (gathers + tables + per_cell)
    # the bound rules out gathering domain 0's block at once
    assert bound < 2 * FLOAT * k * np.sum((du == 0) & (dv == 0))
    peak = traced_peak(predict_cells, params, mats, mems, weights, cells)
    assert peak < bound, (peak, bound)


def test_pair_pass_holds_no_per_triple_user_rows():
    k, c, n_triples, n_users, n_items, levels = 20, 4, 20_000, 500, 300, 5
    rng = np.random.default_rng(3)
    log_wu = np.log(rng.random((k, n_users)))
    log_wv = np.log(rng.random((c, n_items)))
    log_rate = np.log(rng.dirichlet(np.ones(levels), size=(k, c)))
    gu = rng.integers(0, n_users, n_triples)
    items = rng.integers(0, n_items, n_triples)
    ridx = rng.integers(0, levels, n_triples)
    gathers = 2 * n_triples * c            # each triple's level-table row and item row
    # keys, normalizers and their temporaries, one column copy for bincount
    vectors = 6 * n_triples
    tables = 2 * levels * n_users * c      # the (level, user) table and its sums W
    # the user table, and the statistics with one temporary each
    stats = k * n_users + 2 * (k * n_users + c * n_items + levels * k * c)
    bound = FLOAT * (gathers + vectors + tables + stats)
    # the bound rules out one (S, K) array
    assert bound < FLOAT * n_triples * k
    for beta in (0.7, 1.0):
        peak = traced_peak(kernels.pair_pass, log_wu, log_wv, log_rate, gu, items, ridx, beta)
        assert peak < bound, (peak, bound)
