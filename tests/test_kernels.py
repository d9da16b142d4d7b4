import numpy as np
import pytest

from pclf import kernels

from oracles import pair_stats_reference, posterior_matrix


def _random_inputs(seed, s=30, k=3, c=4, levels=5):
    rng = np.random.default_rng(seed)
    log_wu = np.log(rng.random((s, k)) + 1e-4)
    log_wv = np.log(rng.random((s, c)) + 1e-4)
    log_rate = np.log(rng.dirichlet(np.ones(levels), size=(k, c)))
    ridx = rng.integers(0, levels, size=s).astype(np.int64)
    return log_wu, log_wv, log_rate, ridx


class TestBackendSelection:
    def test_active_is_available(self):
        assert kernels.active_backend() == "numpy"


class TestKernelCorrectness:
    def test_responsibilities_match_scalar_oracle(self):
        log_wu, log_wv, log_rate, ridx = _random_inputs(1, s=8, k=2, c=3)
        for beta in (0.5, 1.0):
            out = kernels.pair_responsibilities(log_wu, log_wv, log_rate, ridx, beta)
            for j in range(8):
                expected = posterior_matrix(
                    np.exp(log_wu[j]), np.ones(2),
                    np.exp(log_wv[j]), np.ones(3),
                    np.exp(log_rate), int(ridx[j]) + 1, beta=beta,
                )
                np.testing.assert_allclose(out[j], expected, atol=1e-12)

    def test_degenerate_triple_uniform(self):
        log_wu, log_wv, log_rate, ridx = _random_inputs(2, s=4, k=2, c=2)
        log_rate[:, :, int(ridx[0])] = -np.inf
        out = kernels.pair_responsibilities(log_wu, log_wv, log_rate, ridx, 1.0)
        np.testing.assert_allclose(out[0], 0.25, atol=1e-12)
        np.testing.assert_allclose(out[1:].sum(axis=(1, 2)), 1.0, atol=1e-12)

    def test_log_likelihood_matches_logsumexp(self):
        log_wu, log_wv, log_rate, ridx = _random_inputs(3, s=12, k=3, c=2)
        ln = log_wu[:, :, None] + log_wv[:, None, :] \
            + log_rate[:, :, ridx].transpose(2, 0, 1)
        flat = ln.reshape(12, -1)
        expected = float(np.log(np.exp(flat).sum(axis=1)).sum())
        got = kernels.pair_log_likelihood(log_wu, log_wv, log_rate, ridx)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_log_likelihood_zero_mass_is_minus_inf(self):
        log_wu, log_wv, log_rate, ridx = _random_inputs(4, s=3, k=2, c=2)
        log_rate[:, :, int(ridx[1])] = -np.inf
        assert kernels.pair_log_likelihood(log_wu, log_wv, log_rate, ridx) == -np.inf

    def test_stats_conserve_mass(self):
        rng = np.random.default_rng(5)
        s, k, c, levels, n_u, n_v = 25, 3, 2, 4, 5, 6
        resp = rng.random((s, k, c))
        resp /= resp.sum(axis=(1, 2), keepdims=True)
        gu = rng.integers(0, n_u, size=s).astype(np.int64)
        gv = rng.integers(0, n_v, size=s).astype(np.int64)
        ridx = rng.integers(0, levels, size=s).astype(np.int64)
        cl_u, cl_v, by_user, by_item, by_level = kernels.pair_stats(
            resp, gu, gv, ridx, n_u, n_v, levels
        )
        assert cl_u.sum() == pytest.approx(s, abs=1e-9)
        assert cl_v.sum() == pytest.approx(s, abs=1e-9)
        assert by_user.sum() == pytest.approx(s, abs=1e-9)
        assert by_item.sum() == pytest.approx(s, abs=1e-9)
        assert by_level.sum() == pytest.approx(s, abs=1e-9)
        np.testing.assert_allclose(by_level.sum(axis=2), resp.sum(axis=0), atol=1e-9)


class TestPairStats:
    """``pair_stats`` gives the bits, shapes and memory order of the
    per-column reference: a reordered sum or an F-ordered array would
    change the M step's normalization and every checkpoint byte after it."""

    # numpy sums 8 or more contiguous terms pairwise, so C < 8 and C >= 8
    # differ in ru; K = 1 or C = 1 makes rv or ru a sum of one term
    @pytest.mark.parametrize("k, c", [(3, 2), (4, 7), (3, 8), (5, 13), (20, 15),
                                      (1, 9), (9, 1), (1, 1)])
    @pytest.mark.parametrize("s", [0, 1, 2, 37, 600])
    def test_matches_reference(self, k, c, s):
        rng = np.random.default_rng(1000 * k + 10 * c + s)
        levels, n_u, n_v = 5, 13, 17
        # unnormalized, so that a changed sum order shows in the last bits
        resp = rng.standard_gamma(0.5, size=(s, k, c))
        gu = rng.integers(0, n_u, size=s)
        gv = rng.integers(0, n_v, size=s)
        ridx = rng.choice([0, 1, 3, 4], size=s)  # level 2 holds no triple
        got = kernels.pair_stats(resp, gu, gv, ridx, n_u, n_v, levels)
        want = pair_stats_reference(resp, gu, gv, ridx, n_u, n_v, levels)
        assert len(got) == 5
        for name, have, ref in zip(
            ("cluster_u", "cluster_v", "by_user", "by_item", "by_level"), got, want
        ):
            assert have.shape == ref.shape, name
            assert have.flags.c_contiguous, name
            if s:  # an empty block's bincounts are int64 zeros, which normalize alike
                assert have.dtype == ref.dtype, name
            np.testing.assert_array_equal(have, ref, err_msg=name)
        assert not got[4][:, :, 2].any()

    @pytest.mark.parametrize("k, c", [(3, 2), (4, 7), (3, 8), (20, 15), (1, 9), (9, 1)])
    @pytest.mark.parametrize("s, block", [(0, 1), (1, 1), (37, 1), (37, 5), (600, 512),
                                          (600, 7), (600, 600)])
    def test_blocks_match_reference(self, k, c, s, block):
        # init adds the statistics of consecutive row blocks in block order;
        # on eighths every sum is exact, so the blocks' total must equal the
        # whole tensor's statistics at every shape, a length-1 axis included
        rng = np.random.default_rng(1000 * k + 10 * c + s)
        levels, n_u, n_v = 5, 13, 17
        resp = rng.integers(0, 64, size=(s, k, c)) / 8.0
        gu = rng.integers(0, n_u, size=s)
        gv = rng.integers(0, n_v, size=s)
        ridx = rng.choice([0, 1, 3, 4], size=s)
        total = None
        for lo in range(0, max(s, 1), block):
            rows = slice(lo, lo + block)
            part = kernels.pair_stats(resp[rows], gu[rows], gv[rows], ridx[rows], n_u, n_v, levels)
            total = part if total is None else [a + b for a, b in zip(total, part)]
        want = pair_stats_reference(resp, gu, gv, ridx, n_u, n_v, levels)
        for name, have, ref in zip(
            ("cluster_u", "cluster_v", "by_user", "by_item", "by_level"), total, want
        ):
            assert have.shape == ref.shape, name
            assert have.flags.c_contiguous, name
            np.testing.assert_array_equal(have, ref, err_msg=name)

    @pytest.mark.parametrize("k, c", [(3, 2), (20, 15), (1, 9), (9, 1), (1, 1)])
    def test_cluster_masses_are_entity_sums(self, k, c):
        # both pair_stats and pair_pass take the cluster masses as the sums
        # of their per-entity masses, so init and EM normalize alike
        rng = np.random.default_rng(10 * k + c)
        resp = rng.standard_gamma(0.5, size=(600, k, c))
        gu, gv, ridx = rng.integers(0, 13, 600), rng.integers(0, 17, 600), rng.integers(0, 5, 600)
        stats = kernels.pair_stats(resp, gu, gv, ridx, 13, 17, 5)
        entity = _entity_inputs(k, s=600, k=k, c=c, levels=5, n_users=13, n_items=17)
        for got in (stats, kernels.pair_pass(*entity, 0.7)):
            np.testing.assert_array_equal(got[0], got[2].sum(axis=1))
            np.testing.assert_array_equal(got[1], got[3].sum(axis=1))


def _entity_inputs(seed, s=60, k=3, c=4, levels=5, n_users=9, n_items=11):
    """Per-entity log tables, as the factorized kernels take them."""
    rng = np.random.default_rng(seed)
    log_wu = np.log(rng.random((k, n_users)) + 1e-4)
    log_wv = np.log(rng.random((c, n_items)) + 1e-4)
    log_rate = np.log(rng.dirichlet(np.ones(levels), size=(k, c)))
    gu = rng.integers(0, n_users, size=s)
    items = rng.integers(0, n_items, size=s)
    ridx = rng.integers(0, levels, size=s)
    return log_wu, log_wv, log_rate, gu, items, ridx


def _reference_pass(log_wu, log_wv, log_rate, gu, items, ridx, beta):
    """pair_stats of pair_responsibilities on the per-triple gathered inputs."""
    log_wu_t = np.ascontiguousarray(log_wu[:, gu].T)
    log_wv_t = np.ascontiguousarray(log_wv[:, items].T)
    resp = kernels.pair_responsibilities(log_wu_t, log_wv_t, log_rate, ridx, beta)
    stats = kernels.pair_stats(
        resp, gu, items, ridx, log_wu.shape[1], log_wv.shape[1], log_rate.shape[2]
    )
    return stats, (log_wu_t, log_wv_t)


class TestFactorizedPass:
    @pytest.mark.parametrize("beta", [0.5, 1.0])
    @pytest.mark.parametrize("case", ["random", "zeros", "dead"])
    def test_matches_log_space_reference(self, beta, case):
        log_wu, log_wv, log_rate, gu, items, ridx = _entity_inputs(11)
        if case == "zeros":  # floor=0 leaves exact zeros that are not dead triples
            log_wu[0, :] = -np.inf
            log_wv[1, :4] = -np.inf
            log_rate[2, 3, :] = -np.inf
        if case == "dead":  # user 2 and level 0 carry no mass; items 0-2 are tiny
            log_wu[:, 2] = -np.inf
            log_wv[:, :3] += np.log(1e-300)
            log_rate[:, :, 0] = -np.inf
        inputs = (log_wu, log_wv, log_rate, gu, items, ridx)
        expected, gathered = _reference_pass(*inputs, beta)
        got = kernels.pair_pass(*inputs, beta)
        assert len(got) == 6
        for name, want, have in zip(
            ("cluster_u", "cluster_v", "by_user", "by_item", "by_level"), expected, got
        ):
            assert have.shape == want.shape, name
            np.testing.assert_allclose(have, want, rtol=0, atol=1e-12, err_msg=name)
        dead = (gu == 2) | (ridx == 0) if case == "dead" else np.zeros(len(ridx), bool)
        assert np.array_equal(np.isneginf(got[5]), dead)
        if beta == 1.0 and case == "dead":
            assert kernels.pair_log_likelihood(*gathered, log_rate, ridx) == -np.inf
        if beta == 1.0 and not dead.any():
            ll = kernels.pair_log_likelihood(*gathered, log_rate, ridx)
            assert got[5].sum() == pytest.approx(ll, rel=1e-12)

    @pytest.mark.parametrize("case", ["random", "dead"])
    def test_log_normalizers_match_reference(self, case):
        log_wu, log_wv, log_rate, gu, items, ridx = _entity_inputs(12, s=40)
        if case == "dead":
            log_wv[:, items[5]] = -np.inf
        inputs = (log_wu, log_wv, log_rate, gu, items, ridx)
        got = kernels.pair_log_normalizers(*inputs)
        np.testing.assert_array_equal(got, kernels.pair_pass(*inputs, 1.0)[5])
        for j in range(len(ridx)):
            one = (log_wu[:, gu[j:j + 1]].T, log_wv[:, items[j:j + 1]].T, log_rate, ridx[j:j + 1])
            want = kernels.pair_log_likelihood(*one)
            if np.isfinite(want):
                assert got[j] == pytest.approx(want, rel=1e-13)
            else:
                assert got[j] == -np.inf
        assert np.isneginf(got).any() == (case == "dead")

    @pytest.mark.parametrize("beta", [0.5, 1.0])
    @pytest.mark.parametrize("case", ["random", "empty-levels", "dead"])
    @pytest.mark.parametrize("k, c", [(3, 4), (20, 15)])
    def test_matches_whole_family_gather(self, k, c, case, beta):
        """Every statistic agrees with the log-space reference, which gathers
        every triple's (K, C) posterior at once; the normalizers-only kernel
        gives the pass's beta = 1 normalizers bit for bit, which the
        carried pass of ``train`` relies on."""
        log_wu, log_wv, log_rate, gu, items, ridx = _entity_inputs(
            14, s=700, k=k, c=c, n_users=40, n_items=50)
        if case == "empty-levels":
            ridx = np.where(ridx == 1, 3, ridx)   # levels 1 and 4 hold no triple
            ridx = np.where(ridx == 4, 0, ridx)
        if case == "dead":   # user 2, item 5 and level 0 carry no mass
            log_wu[:, 2] = -np.inf
            log_wv[:, 5] = -np.inf
            log_rate[:, :, 0] = -np.inf
        inputs = (log_wu, log_wv, log_rate, gu, items, ridx)
        expected, _ = _reference_pass(*inputs, beta)
        got = kernels.pair_pass(*inputs, beta)
        assert len(got) == 6
        for name, have, want in zip(
            ("cluster_u", "cluster_v", "by_user", "by_item", "by_level"), got, expected
        ):
            assert have.shape == want.shape, name
            np.testing.assert_allclose(have, want, rtol=1e-12, atol=1e-12, err_msg=name)
        np.testing.assert_array_equal(kernels.pair_log_normalizers(*inputs),
                                      kernels.pair_pass(*inputs, 1.0)[5])
        dead = (gu == 2) | (items == 5) | (ridx == 0) if case == "dead" \
            else np.zeros(len(ridx), bool)
        assert np.array_equal(np.isneginf(got[5]), dead)

    def test_tempered_normalizer_is_tempered_logsumexp(self):
        log_wu, log_wv, log_rate, gu, items, ridx = _entity_inputs(13, s=20)
        got = kernels.pair_pass(log_wu, log_wv, log_rate, gu, items, ridx, 0.5)[5]
        ln = log_wu[:, gu].T[:, :, None] + log_wv[:, items].T[:, None, :] \
            + log_rate[:, :, ridx].transpose(2, 0, 1)
        want = np.log(np.exp(0.5 * ln).sum(axis=(1, 2)))
        np.testing.assert_allclose(got, want, rtol=1e-13)
