import numpy as np
import pytest

from pclf import CrossDomainDataset


@pytest.fixture
def tiny_dataset():
    """Two domains, handful of triples, levels 1..5."""
    rows = np.array([
        [0, 0, 0, 5],
        [0, 0, 1, 3],
        [0, 1, 0, 1],
        [0, 2, 1, 4],
        [1, 0, 0, 2],
        [1, 1, 1, 5],
        [1, 1, 2, 3],
    ])
    return CrossDomainDataset.from_indexed(
        n_levels=5, triples=rows, n_users=[3, 2], n_items=[2, 3]
    )


def random_dataset(rng, dims, n_per_domain):
    """Random triples covering at least one rating per domain."""
    rows = []
    for z in range(dims.n_domains):
        for _ in range(n_per_domain):
            rows.append((
                z,
                int(rng.integers(dims.n_users[z])),
                int(rng.integers(dims.n_items[z])),
                int(rng.integers(1, dims.n_levels + 1)),
            ))
    # from_indexed tolerates duplicate cells; the model does not care
    return CrossDomainDataset.from_indexed(
        n_levels=dims.n_levels,
        triples=np.array(rows),
        n_users=list(dims.n_users),
        n_items=list(dims.n_items),
    )


def rows_of(dataset):
    """The dataset's ratings as (domain, user, item, level) tuples, in domain
    order and each domain's stored order."""
    return [(z, u, v, r) for z in range(dataset.n_domains)
            for u, v, r in zip(dataset.users[z].tolist(), dataset.items[z].tolist(),
                               dataset.ratings[z].tolist())]


def given_n_pool(dataset, n_train_users, n_given, seed):
    """Given-N split every domain, domain z seeded ``seed + 10007 * z`` as
    ``run_experiment`` seeds it; ``n_train_users`` holds one count per domain.

    Returns the training dataset and, per domain, the eval ratings as
    (users, items, float levels) arrays.
    """
    from pclf.data import _given_n_positions

    parts = [_given_n_positions(dataset, z, n_train_users[z], n_given, seed=seed + 10007 * z)
             for z in range(dataset.n_domains)]
    train_ds = dataset.restrict([train for train, _ in parts])
    evs = [(dataset.users[z][ev], dataset.items[z][ev], dataset.ratings[z][ev].astype(float))
           for z, (_, ev) in enumerate(parts)]
    return train_ds, evs
