import warnings

import numpy as np
import pytest

from pclf import (
    ModelDims,
    ModelError,
    PclfParams,
    PredictionWeights,
    cluster_rating_matrices,
    complete_matrix,
    memberships,
    predict,
    predict_cross,
    predict_many,
)
from pclf.inference import predict_cells

from oracles import expected_rating, predict_cells_reference, random_dims, random_params
from test_core import permute_params


def two_domain_dims(k=2, t=2, l=(2, 2), users=(3, 2), items=(2, 3), levels=5):
    return ModelDims(
        n_domains=2, n_user_clusters=k, n_common_clusters=t,
        n_specific_clusters=l, n_levels=levels, n_users=users, n_items=items,
    )


class TestClusterRatingMatrices:
    def test_point_mass_at_top_level(self):
        dims = two_domain_dims()
        params = random_params(np.random.default_rng(0), dims)
        params.rate_com[:] = 0.0
        params.rate_com[:, :, 4] = 1.0
        mats = cluster_rating_matrices(params)
        np.testing.assert_allclose(mats.s_com, 5.0, atol=1e-12)

    def test_uniform_table_gives_midpoint(self):
        dims = two_domain_dims()
        params = random_params(np.random.default_rng(1), dims)
        params.rate_com[:] = 0.2
        mats = cluster_rating_matrices(params)
        np.testing.assert_allclose(mats.s_com, 3.0, atol=1e-12)

    def test_split_mass(self):
        dims = two_domain_dims()
        params = random_params(np.random.default_rng(2), dims)
        params.rate_spe[0][:] = 0.0
        params.rate_spe[0][:, :, 0] = 0.5
        params.rate_spe[0][:, :, 4] = 0.5
        mats = cluster_rating_matrices(params)
        np.testing.assert_allclose(mats.s_spe[0], 3.0, atol=1e-12)

    def test_entries_within_range(self):
        dims = random_dims(np.random.default_rng(3))
        params = random_params(np.random.default_rng(4), dims)
        mats = cluster_rating_matrices(params)
        assert (mats.s_com >= 1.0).all() and (mats.s_com <= dims.n_levels).all()


class TestMemberships:
    def test_single_cluster(self):
        dims = two_domain_dims(k=1, t=1, l=(1, 1))
        params = random_params(np.random.default_rng(0), dims)
        mems = memberships(params)
        np.testing.assert_allclose(mems.p_u, 1.0, atol=1e-12)

    def test_uniform_symmetry(self):
        dims = two_domain_dims()
        u_total, v_total = dims.total_users, dims.total_items
        params = PclfParams(
            dims=dims,
            prior_u=np.full(2, 0.5),
            prior_vcom=np.full(2, 0.5),
            prior_vspe=[np.full(2, 0.5)] * 2,
            cond_u=np.full((2, u_total), 1 / u_total),
            cond_vcom=np.full((2, v_total), 1 / v_total),
            cond_vspe=[np.full((2, n), 1 / n) for n in dims.n_items],
            rate_com=np.full((2, 2, 5), 0.2),
            rate_spe=[np.full((2, 2, 5), 0.2)] * 2,
        )
        mems = memberships(params)
        np.testing.assert_allclose(mems.p_u, 0.5, atol=1e-12)
        np.testing.assert_allclose(mems.p_vcom, 0.5, atol=1e-12)

    def test_two_cluster_bayes_quotient(self):
        dims = two_domain_dims(k=2, t=1, l=(1, 1), users=(2, 1), items=(1, 1))
        params = random_params(np.random.default_rng(5), dims)
        params.prior_u = np.array([0.3, 0.7])
        params.cond_u = np.array([[0.9, 0.1], [0.4, 0.6]])
        mems = memberships(params)
        # user 0: (0.3*0.9, 0.7*0.4) / 0.55
        np.testing.assert_allclose(mems.p_u[0], [0.27 / 0.55, 0.28 / 0.55], atol=1e-12)
        # user 1: (0.3*0.1, 0.7*0.6) / 0.45
        np.testing.assert_allclose(mems.p_u[1], [0.03 / 0.45, 0.42 / 0.45], atol=1e-12)

    def test_zero_mass_flagged_uniform(self):
        dims = two_domain_dims()
        params = random_params(np.random.default_rng(6), dims)
        params.cond_u[:, 0] = 0.0
        mems = memberships(params)
        np.testing.assert_allclose(mems.p_u[0], 0.5, atol=1e-12)

    def test_rows_sum_to_one(self):
        dims = random_dims(np.random.default_rng(7))
        params = random_params(np.random.default_rng(8), dims)
        mems = memberships(params)
        np.testing.assert_allclose(mems.p_u.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(mems.p_vcom.sum(axis=1), 1.0, atol=1e-12)
        for block in mems.p_vspe:
            if block.size:
                np.testing.assert_allclose(block.sum(axis=1), 1.0, atol=1e-12)


def _prediction_bundle(seed=0, **dim_kwargs):
    dims = two_domain_dims(**dim_kwargs)
    params = random_params(np.random.default_rng(seed), dims)
    mats = cluster_rating_matrices(params)
    mems = memberships(params)
    return dims, params, mats, mems


class TestPredict:
    def test_constant_matrices(self):
        dims, params, mats, mems = _prediction_bundle(seed=1)
        mats.s_com[:] = 2.5
        mats.s_spe[0][:] = 2.5
        weights = PredictionWeights(w1=(0.3, 0.8))
        assert predict(params, mats, mems, weights, 0, 1, 1) == pytest.approx(2.5, abs=1e-12)

    def test_w1_collapses_to_common(self):
        dims, params, mats, mems = _prediction_bundle(seed=2)
        weights = PredictionWeights.common_only(2)
        value = predict(params, mats, mems, weights, 0, 0, 1)
        pu = mems.p_u[0]
        pv = mems.p_vcom[dims.item_offset(0) + 1]
        assert value == pytest.approx(float(pu @ mats.s_com @ pv), abs=1e-12)

    def test_matches_bruteforce_marginalization(self):
        dims, params, mats, mems = _prediction_bundle(seed=3)
        weights = PredictionWeights(w1=(0.35, 0.35))
        for (z, u, v) in [(0, 0, 1), (0, 2, 0), (1, 1, 2)]:
            gu = dims.user_offset(z) + u
            gv = dims.item_offset(z) + v
            common = expected_rating(mems.p_u[gu], mems.p_vcom[gv], params.rate_com)
            specific = expected_rating(mems.p_u[gu], mems.p_vspe[z][v], params.rate_spe[z])
            expected = 0.35 * common + 0.65 * specific
            got = predict(params, mats, mems, weights, z, u, v)
            assert got == pytest.approx(expected, abs=1e-10)

    def test_within_rating_range(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            dims = random_dims(rng)
            params = random_params(rng, dims)
            mats = cluster_rating_matrices(params)
            mems = memberships(params)
            weights = PredictionWeights(w1=tuple(rng.random(2)))
            z = int(rng.integers(2))
            u = int(rng.integers(dims.n_users[z]))
            v = int(rng.integers(dims.n_items[z]))
            value = predict(params, mats, mems, weights, z, u, v)
            assert 1.0 - 1e-12 <= value <= dims.n_levels + 1e-12

    def test_affine_in_w1(self):
        dims, params, mats, mems = _prediction_bundle(seed=4)
        values = []
        for w1 in (0.0, 0.35, 1.0):
            weights = PredictionWeights(w1=(w1, w1))
            values.append(predict(params, mats, mems, weights, 0, 1, 0))
        # collinearity: value(0.35) = value(0) + 0.35 * (value(1) - value(0))
        interp = values[0] + 0.35 * (values[2] - values[0])
        assert values[1] == pytest.approx(interp, abs=1e-10)

    def test_unseen_user_falls_back_uniform(self):
        dims, params, mats, mems = _prediction_bundle(seed=5)
        weights = PredictionWeights.common_only(2)
        with pytest.warns(UserWarning, match="unseen"):
            value = predict(params, mats, mems, weights, 0, 99, 0)
        pu = np.full(dims.n_user_clusters, 1 / dims.n_user_clusters)
        pv = mems.p_vcom[dims.item_offset(0)]
        assert value == pytest.approx(float(pu @ mats.s_com @ pv), abs=1e-12)

    @pytest.mark.parametrize("cross", [False, True])
    def test_unseen_warning_names_the_caller(self, cross):
        """The unseen-entity warning points at the line that called predict
        or predict_cross, not at a line inside the package."""
        dims, params, mats, mems = _prediction_bundle(seed=5)
        weights = PredictionWeights.uniform(2)
        if cross:
            call = lambda: predict_cross(params, mats, mems, (0, 99), (1, 0))  # noqa: E731
        else:
            call = lambda: predict(params, mats, mems, weights, 0, 99, 0)  # noqa: E731
        with pytest.warns(UserWarning, match="user 99 unseen in domain 0") as record:
            call()
        assert len(record) == 1
        assert (record[0].filename, record[0].lineno) == (__file__, call.__code__.co_firstlineno)

    def test_no_specific_requires_w1_one(self):
        dims = two_domain_dims(l=(0, 0))
        params = random_params(np.random.default_rng(6), dims)
        mats = cluster_rating_matrices(params)
        mems = memberships(params)
        with pytest.raises(ModelError, match="w1"):
            predict(params, mats, mems, PredictionWeights(w1=(0.5, 0.5)), 0, 0, 0)
        value = predict(params, mats, mems, PredictionWeights.common_only(2), 0, 0, 0)
        assert 1.0 <= value <= 5.0

    def test_relabeling_leaves_predictions_unchanged(self):
        dims, params, mats, mems = _prediction_bundle(seed=7, k=3, t=2, l=(2, 2))
        weights = PredictionWeights(w1=(0.4, 0.6))
        base = predict(params, mats, mems, weights, 1, 0, 2)
        shuffled = permute_params(
            params, perm_k=[1, 2, 0], perm_t=[1, 0], perm_l=[[1, 0], [1, 0]]
        )
        mats2 = cluster_rating_matrices(shuffled)
        mems2 = memberships(shuffled)
        assert predict(shuffled, mats2, mems2, weights, 1, 0, 2) == pytest.approx(
            base, abs=1e-12
        )

    def test_predict_many_matches_scalar(self):
        dims, params, mats, mems = _prediction_bundle(seed=8)
        weights = PredictionWeights(w1=(0.35, 0.5))
        users = np.array([0, 1, 2, 0])
        items = np.array([0, 1, 0, 1])
        batch = predict_many(params, mats, mems, weights, 0, users, items)
        for i, (u, v) in enumerate(zip(users, items)):
            assert batch[i] == pytest.approx(
                predict(params, mats, mems, weights, 0, int(u), int(v)), abs=1e-12
            )


class TestPredictCells:
    def test_matches_bilinear_forms(self):
        dims, params, mats, mems = _prediction_bundle(seed=18)
        weights = PredictionWeights(w1=(0.35, 0.6))
        cells = np.array([
            [0, 1, 0, 1], [1, 0, 1, 2], [0, 2, 1, 0], [1, 1, 0, 1],
            [0, 7, 0, 1], [1, 1, 1, 9], [0, 5, 1, 4], [1, 0, 0, 3],
            [0, -2, 0, 1], [1, 0, 1, -3],
        ])

        def membership(rows, offset, size, index):
            if 0 <= index < size:
                return rows[offset + index]
            return np.full(rows.shape[1], 1.0 / rows.shape[1])

        for mix_specific in (False, True):
            got = predict_cells(params, mats, mems, weights, cells, mix_specific)
            for (du, u, dv, v), value in zip(cells, got):
                pu = membership(mems.p_u, dims.user_offset(du), dims.n_users[du], u)
                pvc = membership(mems.p_vcom, dims.item_offset(dv), dims.n_items[dv], v)
                pvs = membership(mems.p_vspe[dv], 0, dims.n_items[dv], v)
                common = pu @ mats.s_com @ pvc
                specific = pu @ mats.s_spe[dv] @ pvs
                w1 = weights.w1[dv] if du == dv or mix_specific else 1.0
                assert value == pytest.approx(w1 * common + (1 - w1) * specific, abs=1e-12)

    def test_scalar_calls_match_batch(self):
        dims, params, mats, mems = _prediction_bundle(seed=20)
        weights = PredictionWeights(w1=(0.35, 0.6))
        cells = [
            [0, 1, 0, 1], [1, 0, 1, 2], [0, 2, 1, 0], [1, 1, 0, 1],
            [0, 7, 0, 1], [1, 1, 1, 9], [0, 5, 1, 4], [1, 0, 0, 3],
            [0, -2, 0, 1], [1, 0, 1, -3], [0, 1, 1, -1], [1, -4, 0, 0],
        ]
        for mix_specific in (False, True):
            batch = predict_cells(params, mats, mems, weights, cells, mix_specific)
            for (du, u, dv, v), want in zip(cells, batch):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")   # unseen indices warn
                    if du == dv:
                        got = predict(params, mats, mems, weights, du, u, v)
                    else:
                        got = predict_cross(params, mats, mems, (du, u), (dv, v),
                                            weights=weights, mix_specific=mix_specific)
                assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("block_rows", [1, 7, 1 << 14])
    def test_slices_match_one_einsum(self, monkeypatch, block_rows):
        # 300 cells over every (user domain, item domain) block, about 1 in 6
        # of them with an unseen user or item; at 7 a slice, blocks end in
        # partial slices
        dims, params, mats, mems = _prediction_bundle(
            seed=21, k=20, t=10, l=(15, 12), users=(9, 6), items=(8, 11))
        weights = PredictionWeights(w1=(0.35, 0.6))
        rng = np.random.default_rng(22)
        du, dv = rng.integers(0, 2, size=(2, 300))
        cells = np.column_stack([du, rng.integers(-1, 11, size=300),
                                 dv, rng.integers(-1, 13, size=300)])
        monkeypatch.setattr("pclf.data.BLOCK_ROWS", block_rows)
        for mix_specific in (False, True):
            got = predict_cells(params, mats, mems, weights, cells, mix_specific)
            want = predict_cells_reference(params, mats, mems, weights, cells, mix_specific)
            np.testing.assert_array_equal(got, want)

    def test_domain_out_of_range(self):
        dims, params, mats, mems = _prediction_bundle(seed=19)
        with pytest.raises(ModelError, match="domain 2 out of range"):
            predict_cells(params, mats, mems, PredictionWeights.uniform(2), [[0, 0, 2, 0]])


class TestPredictCross:
    def test_constant_common_matrix(self):
        dims, params, mats, mems = _prediction_bundle(seed=10)
        mats.s_com[:] = 4.0
        value = predict_cross(params, mats, mems, (0, 1), (1, 2))
        assert value == pytest.approx(4.0, abs=1e-12)

    def test_single_common_cluster_ignores_item(self):
        dims, params, mats, mems = _prediction_bundle(seed=11, t=1)
        values = {
            predict_cross(params, mats, mems, (0, 1), (1, v))
            for v in range(dims.n_items[1])
        }
        assert max(values) - min(values) < 1e-12

    def test_matches_bruteforce(self):
        dims, params, mats, mems = _prediction_bundle(seed=12)
        gu = dims.user_offset(0) + 2
        gv = dims.item_offset(1) + 1
        expected = expected_rating(mems.p_u[gu], mems.p_vcom[gv], params.rate_com)
        got = predict_cross(params, mats, mems, (0, 2), (1, 1))
        assert got == pytest.approx(expected, abs=1e-10)

    def test_same_domain_rejected(self):
        dims, params, mats, mems = _prediction_bundle(seed=13)
        with pytest.raises(ModelError, match="distinct"):
            predict_cross(params, mats, mems, (0, 0), (0, 1))

    def test_mix_specific_blends_item_domain(self):
        dims, params, mats, mems = _prediction_bundle(seed=14)
        weights = PredictionWeights(w1=(0.35, 0.6))
        common = predict_cross(params, mats, mems, (0, 0), (1, 1))
        mixed = predict_cross(
            params, mats, mems, (0, 0), (1, 1), weights=weights, mix_specific=True
        )
        gu = dims.user_offset(0)
        specific = float(mems.p_u[gu] @ mats.s_spe[1] @ mems.p_vspe[1][1])
        assert mixed == pytest.approx(0.6 * common + 0.4 * specific, abs=1e-12)


class TestCompleteMatrix:
    def test_enumeration_order(self):
        dims, params, mats, mems = _prediction_bundle(
            seed=15, users=(2, 2), items=(2, 2)
        )
        weights = PredictionWeights(w1=(0.5, 0.5))
        seen = []
        def sink(u, row):
            seen.extend((u, v, val) for v, val in enumerate(row))
        complete_matrix(params, mats, mems, weights, 0, sink)
        assert [(u, v) for u, v, _ in seen] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_streamed_equals_pointwise(self, tiny_dataset):
        dims, params, mats, mems = _prediction_bundle(seed=16)
        weights = PredictionWeights(w1=(0.35, 0.35))
        rows = {}
        complete_matrix(params, mats, mems, weights, 0, lambda u, row: rows.update({u: row}))
        for u in range(dims.n_users[0]):
            for v in range(dims.n_items[0]):
                assert rows[u][v] == pytest.approx(
                    predict(params, mats, mems, weights, 0, u, v), abs=1e-12
                )

    @pytest.mark.parametrize("domain", [-1, 2])
    def test_domain_out_of_range_refused(self, domain):
        dims, params, mats, mems = _prediction_bundle(seed=18)
        weights = PredictionWeights(w1=(0.35, 0.35))
        calls = []
        with pytest.raises(ModelError, match=f"domain {domain} out of range: the model has 2"):
            complete_matrix(params, mats, mems, weights, domain, lambda *call: calls.append(call))
        assert calls == []

    def test_constant_model_emits_constant(self):
        dims, params, mats, mems = _prediction_bundle(seed=17)
        mats.s_com[:] = 3.3
        mats.s_spe[0][:] = 3.3
        weights = PredictionWeights(w1=(0.7, 0.7))
        values = []
        complete_matrix(params, mats, mems, weights, 0, lambda u, row: values.extend(row))
        np.testing.assert_allclose(values, 3.3, atol=1e-12)


class TestPredictionWeights:
    def test_w2_complement(self):
        w = PredictionWeights(w1=(0.35, 0.8))
        assert w.w2(0) == pytest.approx(0.65)
        assert w.w2(1) == pytest.approx(0.2)

    def test_bounds(self):
        with pytest.raises(ModelError):
            PredictionWeights(w1=(1.2,))
        with pytest.raises(ModelError):
            PredictionWeights(w1=(-0.1,))

    def test_default(self):
        assert PredictionWeights.uniform(3).w1 == (0.35, 0.35, 0.35)
