import numpy as np
import pytest

from pclf import kernels

from oracles import posterior_matrix


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
