import numpy as np
import pytest

from pclf import (
    CrossDomainDataset,
    DataError,
    ModelDims,
    ModelError,
    NmfFactors,
    PredictionWeights,
    SyntheticSpec,
    TrainConfig,
    cluster_rating_matrices,
    common_only_train,
    domain_matrix,
    fmm_train,
    log_likelihood,
    mae,
    memberships,
    nmf_predict,
    nmf_train,
    predict_many,
    synth_generate,
    train,
)

from pclf.data import _given_n_positions

from oracles import nmf_reference


def _single_domain_dataset(seed=0, n_users=25, n_items=20, density=0.4):
    dims = ModelDims(
        n_domains=1, n_user_clusters=3, n_common_clusters=2,
        n_specific_clusters=(0,), n_levels=5,
        n_users=(n_users,), n_items=(n_items,),
    )
    spec = SyntheticSpec(dims=dims, w1=(1.0,), density=density, seed=seed,
                         membership_concentration=0.15)
    ds, _ = synth_generate(spec)
    return ds


class TestFmm:
    def test_equals_shared_trainer_with_specific_disabled(self):
        ds = _single_domain_dataset(seed=1)
        config = TrainConfig(beta_schedule=(1.0,), max_iters_per_beta=8, seed=2)
        params_fmm, trace_fmm = fmm_train(ds, 3, 2, config)
        dims = ModelDims.from_dataset(ds, 3, 2, (0,))
        params_ref, trace_ref = train(ds, dims, config)
        assert trace_fmm == trace_ref
        np.testing.assert_array_equal(params_fmm.cond_u, params_ref.cond_u)
        weights = PredictionWeights.common_only(1)
        for params in (params_fmm, params_ref):
            params.validate()
        mats_a = cluster_rating_matrices(params_fmm)
        mems_a = memberships(params_fmm)
        mats_b = cluster_rating_matrices(params_ref)
        mems_b = memberships(params_ref)
        users = np.arange(5)
        items = np.arange(5) % ds.n_items[0]
        np.testing.assert_allclose(
            predict_many(params_fmm, mats_a, mems_a, weights, 0, users, items),
            predict_many(params_ref, mats_b, mems_b, weights, 0, users, items),
            atol=1e-12,
        )

    def test_rejects_multi_domain(self, tiny_dataset):
        with pytest.raises(ModelError, match="single-domain"):
            fmm_train(tiny_dataset, 2, 2)

    def test_single_cluster_predicts_global_mean(self):
        ds = _single_domain_dataset(seed=3)
        config = TrainConfig(beta_schedule=(1.0,), max_iters_per_beta=5, seed=0)
        params, _ = fmm_train(ds, 1, 1, config)
        mats = cluster_rating_matrices(params)
        mems = memberships(params)
        weights = PredictionWeights.common_only(1)
        mean_rating = float(np.mean(ds.ratings[0]))
        users = np.arange(ds.n_users[0])
        items = np.zeros(ds.n_users[0], dtype=np.int64)
        preds = predict_many(params, mats, mems, weights, 0, users, items)
        np.testing.assert_allclose(preds, mean_rating, atol=1e-6)

    def test_beats_global_mean_on_planted_data(self):
        ds = _single_domain_dataset(seed=4, n_users=40, n_items=30, density=0.5)
        train, evaluation = _given_n_positions(ds, 0, n_train_users=25, n_given=8, seed=1)
        train_ds = ds.restrict([train])
        config = TrainConfig(beta_schedule=(0.6, 0.8, 1.0), max_iters_per_beta=30, seed=5)
        params, _ = fmm_train(train_ds, 3, 2, config)
        mats = cluster_rating_matrices(params)
        mems = memberships(params)
        weights = PredictionWeights.common_only(1)
        users, items = ds.users[0][evaluation], ds.items[0][evaluation]
        truths = ds.ratings[0][evaluation].astype(float)
        preds = predict_many(params, mats, mems, weights, 0, users, items)
        global_mean = float(np.mean(train_ds.ratings[0]))
        assert mae(preds, truths) < mae(np.full_like(truths, global_mean), truths)


class TestCommonOnly:
    def test_rejects_single_domain(self):
        ds = _single_domain_dataset()
        with pytest.raises(ModelError, match="at least 2"):
            common_only_train(ds, 2, 2)

    def test_no_specific_parameters(self, tiny_dataset):
        config = TrainConfig(beta_schedule=(1.0,), max_iters_per_beta=4, seed=0)
        params, _ = common_only_train(tiny_dataset, 2, 2, config)
        params.validate()
        assert all(l == 0 for l in params.dims.n_specific_clusters)
        assert all(p.size == 0 for p in params.prior_vspe)

    def test_duplicated_domain_matches_fmm_on_concatenation(self):
        base = _single_domain_dataset(seed=6, n_users=15, n_items=12, density=0.5)
        u, v, r = base.users[0], base.items[0], base.ratings[0]
        m, n = base.n_users[0], base.n_items[0]
        zero, one = np.zeros_like(u), np.ones_like(u)
        duplicated = CrossDomainDataset.from_indexed(
            n_levels=5,
            triples=np.vstack([np.column_stack([zero, u, v, r]),
                               np.column_stack([one, u, v, r])]),
            n_users=[m, m], n_items=[n, n],
        )
        concatenated = CrossDomainDataset.from_indexed(
            n_levels=5,
            triples=np.vstack([np.column_stack([zero, u, v, r]),
                               np.column_stack([zero, u + m, v + n, r])]),
            n_users=[2 * m], n_items=[2 * n],
        )
        config = TrainConfig(beta_schedule=(0.5, 1.0), max_iters_per_beta=10, seed=7)
        _, trace_dup = common_only_train(duplicated, 3, 2, config)
        _, trace_cat = fmm_train(concatenated, 3, 2, config)
        assert trace_dup[-1].log_likelihood == pytest.approx(
            trace_cat[-1].log_likelihood, abs=1e-9
        )

    def test_domain_swap_reaches_same_likelihood(self):
        dims = ModelDims(
            n_domains=2, n_user_clusters=2, n_common_clusters=2,
            n_specific_clusters=(0, 0), n_levels=5,
            n_users=(12, 9), n_items=(10, 8),
        )
        spec = SyntheticSpec(dims=dims, w1=(1.0, 1.0), density=0.6, seed=8,
                             membership_concentration=0.1, rating_sharpness=3.0)
        ds, _ = synth_generate(spec)
        swapped = CrossDomainDataset(
            n_levels=ds.n_levels,
            users=[ds.users[1], ds.users[0]],
            items=[ds.items[1], ds.items[0]],
            ratings=[ds.ratings[1], ds.ratings[0]],
            n_users=[ds.n_users[1], ds.n_users[0]],
            n_items=[ds.n_items[1], ds.n_items[0]],
            user_ids=[ds.user_ids[1], ds.user_ids[0]],
            item_ids=[ds.item_ids[1], ds.item_ids[0]],
        )
        config = TrainConfig(
            beta_schedule=(0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
            max_iters_per_beta=400, rel_ll_tol=1e-13, seed=9,
        )
        _, trace_a = common_only_train(ds, 2, 2, config)
        _, trace_b = common_only_train(swapped, 2, 2, config)
        assert trace_a[-1].log_likelihood == pytest.approx(
            trace_b[-1].log_likelihood, abs=1e-9
        )


class TestNmf:
    def test_rank_one_constant_matrix(self):
        matrix = np.full((4, 5), 4.0)
        factors = nmf_train(matrix, rank=1, iters=300, seed=0)
        recon = factors.u_factors @ factors.v_factors.T
        np.testing.assert_allclose(recon, 4.0, atol=1e-3)

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(1)
        matrix = rng.integers(1, 6, size=(15, 12)).astype(float)
        matrix[rng.random((15, 12)) < 0.5] = np.nan
        factors = nmf_train(matrix, rank=4, iters=100, seed=2)
        diffs = np.diff(factors.objective)
        assert (diffs <= 1e-9).all()

    def test_missing_cell_prediction_clamped(self):
        matrix = np.array([
            [5.0, 4.0, np.nan],
            [4.0, 5.0, 3.0],
            [1.0, 2.0, 1.0],
        ])
        factors = nmf_train(matrix, rank=2, iters=500, seed=3)
        value = nmf_predict(factors, 0, 2, n_levels=5)
        assert 1.0 <= value <= 5.0

    def test_masked_ignores_missing(self):
        # one huge observed block; the missing cells must not drag it to zero
        matrix = np.full((6, 6), np.nan)
        matrix[:3, :3] = 5.0
        factors = nmf_train(matrix, rank=1, iters=300, seed=4)
        assert nmf_predict(factors, 0, 0, 5) == pytest.approx(5.0, abs=1e-2)

    @pytest.mark.parametrize("case", range(13))
    def test_matches_reference_loop(self, case):
        # case 12 is given-n-planted's NMF shape: rank 20 on a ~4%-dense
        # 300 x 500 matrix
        rng = np.random.default_rng(100 + case)
        m, n = {0: (1, 1), 12: (300, 500)}.get(case) or rng.integers(1, 40, size=2)
        density = 0.04 if case == 12 else (1.0, 0.02, 0.3, 0.7)[case % 4]
        matrix = rng.integers(1, 6, size=(m, n)).astype(float)
        matrix[rng.random((m, n)) >= density] = np.nan
        matrix.flat[rng.integers(m * n)] = 3.0   # at least one observed cell
        rank, iters = (20, 5) if case == 12 else (int(rng.integers(1, 8)),
                                                  int(rng.integers(0, 40)))
        got = nmf_train(matrix, rank=rank, iters=iters, seed=case)
        ref = nmf_reference(matrix, rank=rank, iters=iters, seed=case)
        np.testing.assert_array_equal(got.u_factors, ref.u_factors)
        np.testing.assert_array_equal(got.v_factors, ref.v_factors)
        assert got.objective == ref.objective

    def test_empty_matrix_rejected(self):
        with pytest.raises(DataError, match="no observed"):
            nmf_train(np.full((3, 3), np.nan), rank=1, iters=5, seed=0)

    def test_rank_validation(self):
        with pytest.raises(DataError):
            nmf_train(np.ones((2, 2)), rank=0, iters=5, seed=0)

    def test_domain_matrix_layout(self, tiny_dataset):
        matrix = domain_matrix(tiny_dataset, 0)
        assert matrix.shape == (3, 2)
        assert matrix[0, 0] == 5 and matrix[0, 1] == 3
        assert np.isnan(matrix[1, 1])


class TestNmfPredict:
    def test_zero_factors_clamp_floor(self):
        factors = NmfFactors(np.zeros((2, 2)), np.zeros((3, 2)), rank=2)
        assert nmf_predict(factors, 0, 0, 5) == 1.0

    def test_dot_product(self):
        factors = NmfFactors(np.array([[2.0, 0.0]]), np.array([[2.0, 0.0]]), rank=2)
        assert nmf_predict(factors, 0, 0, 5) == 4.0

    def test_clamp_ceiling(self):
        factors = NmfFactors(np.array([[7.3]]), np.array([[1.0]]), rank=1)
        assert nmf_predict(factors, 0, 0, 5) == 5.0

    def test_index_bounds(self):
        factors = NmfFactors(np.ones((2, 1)), np.ones((2, 1)), rank=1)
        with pytest.raises(DataError):
            nmf_predict(factors, 2, 0, 5)
        with pytest.raises(DataError):
            nmf_predict(factors, 0, -1, 5)

    def test_index_arrays_match_scalar_calls(self):
        rng = np.random.default_rng(0)
        factors = NmfFactors(rng.random((4, 3)) * 2, rng.random((5, 3)) * 2, rank=3)
        users, items = rng.integers(0, 4, size=30), rng.integers(0, 5, size=30)
        batch = nmf_predict(factors, users, items, 5)
        assert isinstance(nmf_predict(factors, 1, 2, 5), float)
        np.testing.assert_allclose(
            batch, [nmf_predict(factors, int(u), int(v), 5) for u, v in zip(users, items)],
            rtol=0, atol=1e-12,
        )
        row = nmf_predict(factors, 2, np.arange(5), 5)
        np.testing.assert_allclose(row, [nmf_predict(factors, 2, v, 5) for v in range(5)],
                                   rtol=0, atol=1e-12)

    def test_index_array_bounds(self):
        factors = NmfFactors(np.ones((2, 1)), np.ones((2, 1)), rank=1)
        with pytest.raises(DataError, match="user index 2"):
            nmf_predict(factors, np.array([0, 2]), np.array([0, 1]), 5)
        with pytest.raises(DataError, match="item index -1"):
            nmf_predict(factors, np.array([0, 1]), np.array([-1, 0]), 5)
