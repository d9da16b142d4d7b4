"""Independent brute-force reference implementations used as test oracles.

Everything here sticks to plain Python loops over scalars so the code
shares nothing with the vectorized paths it checks.
"""

import numpy as np

from pclf import ModelDims, PclfParams


def posterior_matrix(prior_u, cond_u_col, prior_v, cond_v_col, rate, level, beta=1.0):
    """Exhaustive tempered posterior over (k, c) for one triple.

    ``cond_u_col[k]`` is P(u | cluster k) for the triple's user; ``rate``
    is a (K, C, R) nested structure; ``level`` is 1-based.
    """
    n_uc, n_ic = len(prior_u), len(prior_v)
    num = [
        [
            (
                prior_u[k] * cond_u_col[k] * prior_v[c] * cond_v_col[c]
                * rate[k][c][level - 1]
            ) ** beta
            for c in range(n_ic)
        ]
        for k in range(n_uc)
    ]
    total = sum(sum(row) for row in num)
    if total == 0.0:
        fill = 1.0 / (n_uc * n_ic)
        return [[fill] * n_ic for _ in range(n_uc)]
    return [[x / total for x in row] for row in num]


def expected_rating(p_user, p_item, table):
    """Sum over levels of r * P(r | u, v) with P marginalized over clusters."""
    n_uc, n_ic = len(p_user), len(p_item)
    n_levels = len(table[0][0])
    value = 0.0
    for r in range(n_levels):
        prob = 0.0
        for k in range(n_uc):
            for c in range(n_ic):
                prob += table[k][c][r] * p_user[k] * p_item[c]
        value += (r + 1) * prob
    return value


def dataset_log_likelihood(params, dataset):
    """Scalar-loop version of the training objective."""
    dims = params.dims
    total = 0.0
    for z in range(dims.n_domains):
        for u, v, r in zip(dataset.users[z], dataset.items[z], dataset.ratings[z]):
            gu = dims.user_offset(z) + int(u)
            gv = dims.item_offset(z) + int(v)
            mass = 0.0
            for k in range(dims.n_user_clusters):
                for t in range(dims.n_common_clusters):
                    mass += (
                        params.prior_u[k] * params.cond_u[k, gu]
                        * params.prior_vcom[t] * params.cond_vcom[t, gv]
                        * params.rate_com[k, t, int(r) - 1]
                    )
            if mass == 0.0:
                return -np.inf
            total += np.log(mass)
    for z in range(dims.n_domains):
        if dims.n_specific_clusters[z] == 0:
            continue
        for u, v, r in zip(dataset.users[z], dataset.items[z], dataset.ratings[z]):
            gu = dims.user_offset(z) + int(u)
            mass = 0.0
            for k in range(dims.n_user_clusters):
                for l in range(dims.n_specific_clusters[z]):
                    mass += (
                        params.prior_u[k] * params.cond_u[k, gu]
                        * params.prior_vspe[z][l] * params.cond_vspe[z][l, int(v)]
                        * params.rate_spe[z][k, l, int(r) - 1]
                    )
            if mass == 0.0:
                return -np.inf
            total += np.log(mass)
    return total


def random_params(rng, dims):
    """Valid random parameters: every distribution strictly positive."""
    def distribution(*shape):
        x = rng.random(shape) + 0.05
        return x / x.sum(axis=-1, keepdims=True)

    return PclfParams(
        dims=dims,
        prior_u=distribution(dims.n_user_clusters),
        prior_vcom=distribution(dims.n_common_clusters),
        prior_vspe=[
            distribution(l) if l else np.zeros(0)
            for l in dims.n_specific_clusters
        ],
        cond_u=distribution(dims.n_user_clusters, dims.total_users),
        cond_vcom=distribution(dims.n_common_clusters, dims.total_items),
        cond_vspe=[
            distribution(l, n) if l else np.zeros((0, n))
            for l, n in zip(dims.n_specific_clusters, dims.n_items)
        ],
        rate_com=distribution(dims.n_user_clusters, dims.n_common_clusters, dims.n_levels),
        rate_spe=[
            distribution(dims.n_user_clusters, l, dims.n_levels)
            if l else np.zeros((dims.n_user_clusters, 0, dims.n_levels))
            for l in dims.n_specific_clusters
        ],
    )


def random_dims(rng, max_clusters=3, max_entities=4, max_levels=5, n_domains=2):
    return ModelDims(
        n_domains=n_domains,
        n_user_clusters=int(rng.integers(1, max_clusters + 1)),
        n_common_clusters=int(rng.integers(1, max_clusters + 1)),
        n_specific_clusters=tuple(
            int(rng.integers(1, max_clusters + 1)) for _ in range(n_domains)
        ),
        n_levels=int(rng.integers(2, max_levels + 1)),
        n_users=tuple(int(rng.integers(1, max_entities + 1)) for _ in range(n_domains)),
        n_items=tuple(int(rng.integers(1, max_entities + 1)) for _ in range(n_domains)),
    )


def synth_reference(spec):
    """``synth_generate`` as one ``rng.choice(p=...)`` call per draw per cell."""
    from pclf import CrossDomainDataset, memberships
    from pclf.evaluate import _planted_params

    dims = spec.dims
    rng = np.random.default_rng(spec.seed)
    params = _planted_params(spec, rng)
    mems = memberships(params)
    rows = []
    for z in range(dims.n_domains):
        m, n = dims.n_users[z], dims.n_items[z]
        n_cells = int(round(spec.density * m * n))
        flat = rng.choice(m * n, size=n_cells, replace=False)
        users, items = flat // n, flat % n
        use_common = rng.random(n_cells) < spec.w1[z]
        for u, v, com in zip(users, items, use_common):
            pu = mems.p_u[dims.user_offset(z) + u]
            k = rng.choice(dims.n_user_clusters, p=pu)
            if com or dims.n_specific_clusters[z] == 0:
                t = rng.choice(dims.n_common_clusters, p=mems.p_vcom[dims.item_offset(z) + v])
                table = params.rate_com[k, t]
            else:
                l = rng.choice(dims.n_specific_clusters[z], p=mems.p_vspe[z][v])
                table = params.rate_spe[z][k, l]
            level = int(rng.choice(dims.n_levels, p=table)) + 1
            rows.append((z, int(u), int(v), level))
    dataset = CrossDomainDataset.from_indexed(
        n_levels=dims.n_levels, triples=np.array(rows),
        n_users=list(dims.n_users), n_items=list(dims.n_items),
    )
    return dataset, params


def given_n_split_reference(dataset, domain, n_train_users, n_given, seed):
    """``given_n_split`` grouping ``RatingTriple`` objects per user in a dict."""
    from pclf import GivenNSplit, RatingTriple

    z = domain
    by_user = {}
    for u, v, r in zip(dataset.users[z], dataset.items[z], dataset.ratings[z]):
        by_user.setdefault(int(u), []).append(RatingTriple(z, int(u), int(v), int(r)))
    rng = np.random.default_rng(seed)
    train, evaluation = [], []
    for u in sorted(by_user):
        rows = by_user[u]
        if u < n_train_users:
            train.extend(rows)
            continue
        k = min(n_given, len(rows))
        chosen = set(rng.choice(len(rows), size=k, replace=False).tolist())
        for idx, t in enumerate(rows):
            (train if idx in chosen else evaluation).append(t)
    return GivenNSplit(train_pool=train, eval_set=evaluation, n_given=n_given, seed=seed)


def nmf_reference(observed, rank, iters, seed):
    """``nmf_train`` computing ``u @ v.T`` afresh for each of its three uses
    per iteration and masking into new arrays."""
    from pclf import NmfFactors

    observed = np.asarray(observed, dtype=float)
    present = ~np.isnan(observed)
    values = np.where(present, observed, 0.0)
    m, n = observed.shape
    rng = np.random.default_rng(seed)
    scale = np.sqrt(max(values[present].mean(), 1.0) / rank)
    u = rng.uniform(0.1, 1.0, size=(m, rank)) * scale
    v = rng.uniform(0.1, 1.0, size=(n, rank)) * scale
    w = present.astype(float)
    target = w * values
    eps = 1e-12
    objective = []
    for _ in range(iters):
        u *= (target @ v) / ((w * (u @ v.T)) @ v + eps)
        v *= (target.T @ u) / ((w * (u @ v.T)).T @ u + eps)
        resid = w * (values - u @ v.T)
        objective.append(float((resid * resid).sum()))
    return NmfFactors(u_factors=u, v_factors=v, rank=rank, objective=objective)


def run_experiment_reference(config, log=None, note=None):
    """``run_experiment`` fitting each model in turn in this process, and
    splitting each setting just before its fits."""
    from pclf.data import _given_n_positions
    from pclf.evaluate import (
        ResultRow,
        ResultsReport,
        _assert_no_leak,
        _base_dataset,
        _model_maes,
    )

    rows = []
    empty = set()
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
            for z, (users, _, _) in enumerate(evals):
                if not len(users) and (given, z) not in empty:
                    empty.add((given, z))
                    if note is not None:
                        note(f"note: given={given} domain={z} has no eval ratings")
            if all(not len(users) for users, _, _ in evals):
                continue
            scored = [z for z, (users, _, _) in enumerate(evals) if len(users)]
            for model in config.models:
                if model in ("pclf", "rmgm-like"):   # one fit scores every domain
                    maes = _model_maes(model, train_ds, evals, config, seed)
                else:                                # one fit per scored domain
                    maes = {}
                    for z in scored:
                        maes.update(_model_maes(model, train_ds, evals, config, seed, z))
                for z, value in maes.items():
                    rows.append(ResultRow(model, z, given, repeat, value))
                if log is not None:
                    log(f"repeat={repeat} given={given} model={model} "
                        + " ".join(f"mae[d{z}]={v:.4f}" for z, v in maes.items()))
    names = ([d.name for d in config.domains] if config.domains
             else [f"d{z}" for z in range(dataset.n_domains)])
    return ResultsReport(rows=rows, domain_names=names, given_n=list(config.given_n))


def pair_stats_reference(resp, gu, gv, ridx, n_users, n_items, n_levels):
    """``kernels.pair_stats`` from one ``np.bincount`` per statistic column,
    each adding its triples in index order; the cluster masses are the
    entity sums of its own ``by_user`` and ``by_item``."""
    s, n_uc, n_ic = resp.shape
    ru = resp.sum(axis=2)
    rv = resp.sum(axis=1)
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
    return by_user.sum(axis=1), by_item.sum(axis=1), by_user, by_item, by_level


def train_reference(dataset, dims, config):
    """``em.train`` as one ``kernels.pair_pass`` per family and iteration
    followed by a separate ``kernels.pair_log_normalizers`` pass, every
    table rebuilt on each call."""
    from pclf import em, kernels

    def inputs(params, fam):
        return (em._log_weights(params.prior_u, params.cond_u), *fam.item_tables(params),
                fam.gu, fam.items, fam.ridx)

    params = em.init_params(dims, dataset, config.seed, floor=config.smoothing_floor)
    families = em._families(dims, dataset)
    trace = []
    for beta in config.beta_schedule:
        prev = None
        for it in range(config.max_iters_per_beta):
            stats = [kernels.pair_pass(*inputs(params, fam), beta)[:5] for fam in families]
            params = em._params_from_stats(dims, families, stats, config.smoothing_floor)
            ll = 0.0
            for fam in families:
                ll += float(kernels.pair_log_normalizers(*inputs(params, fam)).sum())
            trace.append((beta, it, ll))
            if prev is not None and it + 1 >= config.min_iters_per_beta \
                    and abs(ll - prev) <= config.rel_ll_tol * abs(prev):
                break
            prev = ll
    return params, trace


def init_params_reference(dims, dataset, seed, floor=1e-10):
    """``init_params`` drawing each block of ``em.INIT_BLOCK_ROWS`` triples
    with ``rng.gamma`` and reducing it with ``pair_stats_reference`` before
    the next draw, on one thread."""
    from pclf import em

    rng = np.random.default_rng(seed)
    families = em._families(dims, dataset)
    stats = []
    for fam in families:
        total = None
        for lo in range(0, max(len(fam.ridx), 1), em.INIT_BLOCK_ROWS):
            rows = slice(lo, lo + em.INIT_BLOCK_ROWS)
            block = rng.gamma(
                0.5, size=(len(fam.ridx[rows]), dims.n_user_clusters, fam.n_clusters)
            )
            block /= block.sum(axis=(1, 2), keepdims=True)
            part = pair_stats_reference(
                block, fam.gu[rows], fam.items[rows], fam.ridx[rows],
                dims.total_users, fam.n_items, dims.n_levels,
            )
            total = part if total is None else [a + b for a, b in zip(total, part)]
        stats.append(total)
    return em._params_from_stats(dims, families, stats, floor)


def checkpoint_bytes_reference(ckpt):
    """The bytes ``save_checkpoint`` writes, from one ``json.dump`` of the
    whole document with every array converted to a list first."""
    import io
    import json

    from pclf.checkpoint import FORMAT_VERSION

    def array(arr):
        return {"shape": list(arr.shape), "data": np.asarray(arr, dtype=float).ravel().tolist()}

    doc = {
        "format": FORMAT_VERSION,
        "model_kind": ckpt.model_kind,
        "seed": ckpt.seed,
        "trace": [[t.beta, t.iteration, t.log_likelihood] for t in ckpt.trace],
    }
    if ckpt.default_w1 is not None:
        doc["default_w1"] = [float(w) for w in ckpt.default_w1]
    if ckpt.model_kind == "nmf":
        doc["rank"] = ckpt.factors.rank
        doc["n_levels"] = ckpt.n_levels
        doc["arrays"] = {
            "u_factors": array(ckpt.factors.u_factors),
            "v_factors": array(ckpt.factors.v_factors),
        }
        doc["objective"] = list(ckpt.factors.objective)
    else:
        p = ckpt.params
        d = p.dims
        doc["dims"] = {
            "n_domains": d.n_domains,
            "n_user_clusters": d.n_user_clusters,
            "n_common_clusters": d.n_common_clusters,
            "n_specific_clusters": list(d.n_specific_clusters),
            "n_levels": d.n_levels,
            "n_users": list(d.n_users),
            "n_items": list(d.n_items),
        }
        doc["arrays"] = {
            "prior_u": array(p.prior_u),
            "prior_vcom": array(p.prior_vcom),
            "cond_u": array(p.cond_u),
            "cond_vcom": array(p.cond_vcom),
            "rate_com": array(p.rate_com),
        }
        for z in range(p.dims.n_domains):
            doc["arrays"][f"prior_vspe_{z}"] = array(p.prior_vspe[z])
            doc["arrays"][f"cond_vspe_{z}"] = array(p.cond_vspe[z])
            doc["arrays"][f"rate_spe_{z}"] = array(p.rate_spe[z])
    out = io.StringIO()
    json.dump(doc, out, sort_keys=True, separators=(",", ":"))
    out.write("\n")
    return out.getvalue().encode("utf-8")


def save_dataset_reference(dataset, directory):
    """``save_dataset`` as one ``csv.writer`` header row, one ``np.savetxt``
    of every row with CRLF line ends, and one ``json.dump`` of the manifest."""
    import csv
    import json
    import os

    from pclf.data import DATASET_FORMAT, RATINGS_HEADER

    os.makedirs(directory, exist_ok=True)
    rows = np.concatenate([
        np.column_stack([np.full(len(dataset.users[z]), z), dataset.users[z],
                         dataset.items[z], dataset.ratings[z]])
        for z in range(dataset.n_domains)
    ])
    with open(os.path.join(directory, "ratings.csv"), "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(RATINGS_HEADER)
        np.savetxt(fh, rows, fmt="%d", delimiter=",", newline="\r\n")
    manifest = {
        "format": DATASET_FORMAT,
        "n_domains": dataset.n_domains,
        "n_levels": dataset.n_levels,
        "n_users": list(dataset.n_users),
        "n_items": list(dataset.n_items),
        "n_ratings": dataset.n_ratings,
        "user_ids": dataset.user_ids,
        "item_ids": dataset.item_ids,
    }
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def predict_cells_reference(params, mats, mems, weights, cells, mix_specific=False):
    """``inference.predict_cells`` gathering every cell of a (user domain,
    item domain) block at once and scoring them in one einsum."""
    from pclf.inference import item_table, user_table

    dims = params.dims
    cells = np.asarray(cells, dtype=np.int64).reshape(-1, 4)
    out = np.empty(len(cells))
    for du in range(dims.n_domains):
        for dv in range(dims.n_domains):
            rows = (cells[:, 0] == du) & (cells[:, 2] == dv)
            if not rows.any():
                continue
            w1 = weights.w1[dv] if du == dv or mix_specific else 1.0
            users, items = cells[rows, 1], cells[rows, 3]
            users = np.where((users >= 0) & (users < dims.n_users[du]), users, dims.n_users[du])
            items = np.where((items >= 0) & (items < dims.n_items[dv]), items, dims.n_items[dv])
            out[rows] = np.einsum("ij,ij->i", user_table(params, mems, du)[users],
                                  item_table(params, mats, mems, dv, w1)[items])
    return out
