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
    from pclf import CrossDomainDataset, RatingTriple, memberships
    from pclf.evaluate import _planted_params

    dims = spec.dims
    rng = np.random.default_rng(spec.seed)
    params = _planted_params(spec, rng)
    mems = memberships(params)
    triples = []
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
            triples.append(RatingTriple(z, int(u), int(v), level))
    dataset = CrossDomainDataset.from_indexed(
        n_levels=dims.n_levels, triples=triples,
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
