"""Acceptance suite: one test per exit criterion.

Each test prints a single ``[acceptance] <criterion>: PASS|FAIL`` line
(visible with ``pytest -s`` or on failure).  The planted-benchmark
criteria share one 10-seed run through a module-scoped fixture.
"""

import time

import numpy as np
import pytest

from pclf import (
    CrossDomainDataset,
    ModelDims,
    PredictionWeights,
    SyntheticSpec,
    TrainConfig,
    cluster_rating_matrices,
    common_only_train,
    domain_matrix,
    e_step,
    fmm_train,
    load_checkpoint,
    m_step,
    mae,
    memberships,
    nmf_predict,
    nmf_train,
    predict,
    predict_many,
    synth_generate,
    train,
)
from pclf import em
from pclf.cli import main as cli_main

from conftest import given_n_pool, random_dataset
from oracles import posterior_matrix, expected_rating, random_dims, random_params

PROB_ATOL = 1e-12
ORACLE_ATOL = 1e-10


class _criterion:
    """Prints the per-criterion pass/fail line the suite must emit."""

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\n[acceptance] {self.name}: {status}")
        return False


def _uniform_random_dataset(seed, m=30, n=30, density=0.2, levels=5):
    rng = np.random.default_rng(seed)
    rows = []
    for z in range(2):
        n_cells = int(round(density * m * n))
        flat = rng.choice(m * n, size=n_cells, replace=False)
        for idx in flat:
            rows.append((z, int(idx // n), int(idx % n), int(rng.integers(1, levels + 1))))
    return CrossDomainDataset.from_indexed(levels, np.array(rows), [m, m], [n, n])


class TestEmMonotonicity:
    def test_nondecreasing_over_20_seeds(self):
        with _criterion("EM monotonicity (20 seeds, beta=1)"):
            start = time.perf_counter()
            worst = np.inf
            for seed in range(20):
                ds = _uniform_random_dataset(seed)
                dims = ModelDims(
                    n_domains=2, n_user_clusters=4, n_common_clusters=3,
                    n_specific_clusters=(3, 3), n_levels=5,
                    n_users=(30, 30), n_items=(30, 30),
                )
                config = TrainConfig(
                    beta_schedule=(1.0,), max_iters_per_beta=60,
                    min_iters_per_beta=60, rel_ll_tol=1e-12, seed=seed,
                )
                _, trace = train(ds, dims, config)
                lls = [t.log_likelihood for t in trace]
                worst = min(worst, float(np.diff(lls).min()))
            elapsed = time.perf_counter() - start
            assert worst >= -1e-9, f"worst log-likelihood decrement {worst:.3e}"
            assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


class TestNormalizationSuite:
    def test_every_distribution_unit_sum(self):
        with _criterion("normalization after every E/M step (1e-12)"):
            rng = np.random.default_rng(7)
            for trial in range(12):
                dims = random_dims(rng, max_clusters=4, max_entities=12, n_domains=2)
                ds = random_dataset(rng, dims, n_per_domain=40)
                params = random_params(rng, dims)
                for beta in (0.5, 1.0):
                    resp = e_step(params, ds, beta=beta)
                    np.testing.assert_allclose(
                        resp.p0.sum(axis=(1, 2)), 1.0, atol=PROB_ATOL
                    )
                    for block in resp.pz:
                        if block.shape[2]:
                            np.testing.assert_allclose(
                                block.sum(axis=(1, 2)), 1.0, atol=PROB_ATOL
                            )
                    params = m_step(resp, ds, floor=1e-10)
                    params.validate(atol=PROB_ATOL)

    def test_shipped_loop_unit_sum(self, monkeypatch):
        with _criterion("normalization after every pass of train's own loop (1e-12)"):
            made = []
            params_from_stats = em._params_from_stats

            def checked(*args):
                params = params_from_stats(*args)
                params.validate(atol=PROB_ATOL)
                made.append(params)
                return params

            monkeypatch.setattr(em, "_params_from_stats", checked)
            rng = np.random.default_rng(7)
            for trial in range(12):
                dims = random_dims(rng, max_clusters=4, max_entities=12, n_domains=2)
                ds = random_dataset(rng, dims, n_per_domain=40)
                config = TrainConfig(beta_schedule=(0.5, 1.0), max_iters_per_beta=4,
                                     min_iters_per_beta=4, seed=trial)
                before = len(made)
                params, trace = train(ds, dims, config)
                # init_params' M step, then one per iteration
                assert len(made) - before == 1 + len(trace)
                assert made[-1] is params


class TestBruteForceOracle:
    def test_posteriors_and_predictions_match_enumeration(self):
        with _criterion("brute-force oracle equivalence (>= 200 cases, 1e-10)"):
            rng = np.random.default_rng(42)
            cases = 0
            for _ in range(120):  # e_step instances
                dims = random_dims(rng, max_clusters=3, max_entities=4, max_levels=5)
                ds = random_dataset(rng, dims, n_per_domain=3)
                params = random_params(rng, dims)
                beta = float(rng.uniform(0.3, 1.0)) if rng.random() < 0.5 else 1.0
                resp = e_step(params, ds, beta=beta)
                gu, gv, r = ds.pooled()
                for j in rng.choice(len(gu), size=2, replace=False):
                    expected = posterior_matrix(
                        params.prior_u, params.cond_u[:, gu[j]],
                        params.prior_vcom, params.cond_vcom[:, gv[j]],
                        params.rate_com, int(r[j]), beta=beta,
                    )
                    np.testing.assert_allclose(resp.p0[j], expected, atol=ORACLE_ATOL)
                z = int(rng.integers(dims.n_domains))
                if dims.n_specific_clusters[z] and len(ds.users[z]):
                    j = int(rng.integers(len(ds.users[z])))
                    expected = posterior_matrix(
                        params.prior_u,
                        params.cond_u[:, dims.user_offset(z) + ds.users[z][j]],
                        params.prior_vspe[z],
                        params.cond_vspe[z][:, ds.items[z][j]],
                        params.rate_spe[z], int(ds.ratings[z][j]), beta=beta,
                    )
                    np.testing.assert_allclose(resp.pz[z][j], expected, atol=ORACLE_ATOL)
                cases += 1
            for _ in range(120):  # predict instances
                dims = random_dims(rng, max_clusters=3, max_entities=4, max_levels=5)
                params = random_params(rng, dims)
                mats = cluster_rating_matrices(params)
                mems = memberships(params)
                w1 = float(rng.random())
                weights = PredictionWeights(w1=(w1,) * dims.n_domains)
                z = int(rng.integers(dims.n_domains))
                u = int(rng.integers(dims.n_users[z]))
                v = int(rng.integers(dims.n_items[z]))
                gu = dims.user_offset(z) + u
                gv = dims.item_offset(z) + v
                common = expected_rating(mems.p_u[gu], mems.p_vcom[gv], params.rate_com)
                specific = expected_rating(
                    mems.p_u[gu], mems.p_vspe[z][v], params.rate_spe[z]
                )
                expected = w1 * common + (1.0 - w1) * specific
                got = predict(params, mats, mems, weights, z, u, v)
                assert got == pytest.approx(expected, abs=ORACLE_ATOL)
                cases += 1
            assert cases >= 200

    def test_pair_pass_masses_match_enumeration(self):
        with _criterion("shipped pair_pass masses equal enumerated posterior sums (1e-10)"):
            rng = np.random.default_rng(43)
            for case in range(60):
                dims = random_dims(rng, max_clusters=3, max_entities=4, max_levels=5)
                ds = random_dataset(rng, dims, n_per_domain=3)
                params = random_params(rng, dims)
                families = em._families(dims, ds)
                for beta in (float(rng.uniform(0.3, 1.0)), 1.0):
                    for fam, got in zip(families, em._pass(params, families, beta)):
                        want = _enumerated_masses(params, fam, dims, beta)
                        for name, g, w in zip(("user cluster", "item cluster", "user",
                                               "item", "level"), got, want):
                            np.testing.assert_allclose(
                                g, w, rtol=0, atol=ORACLE_ATOL,
                                err_msg=f"case {case} family {fam.slot} {name} mass")


def _enumerated_masses(params, fam, dims, beta):
    """The five ``pair_pass`` masses of ``fam`` as sums of
    ``posterior_matrix`` over the family's triples."""
    prior_v = (params.prior_vcom, *params.prior_vspe)[fam.slot]
    cond_v = (params.cond_vcom, *params.cond_vspe)[fam.slot]
    rate = (params.rate_com, *params.rate_spe)[fam.slot]
    k, c = dims.n_user_clusters, fam.n_clusters
    cluster_u, cluster_v = np.zeros(k), np.zeros(c)
    by_user, by_item = np.zeros((k, dims.total_users)), np.zeros((c, fam.n_items))
    by_level = np.zeros((k, c, dims.n_levels))
    for u, v, r in zip(fam.gu.tolist(), fam.items.tolist(), fam.ridx.tolist()):
        post = np.array(posterior_matrix(params.prior_u, params.cond_u[:, u], prior_v,
                                         cond_v[:, v], rate, r + 1, beta=beta))
        cluster_u += post.sum(axis=1)
        cluster_v += post.sum(axis=0)
        by_user[:, u] += post.sum(axis=1)
        by_item[:, v] += post.sum(axis=0)
        by_level[:, :, r] += post
    return cluster_u, cluster_v, by_user, by_item, by_level


class TestWeightCollapse:
    def test_w1_one_equals_specific_component_deleted(self):
        with _criterion("weight collapse at W1=1 (1e-12) and affinity in W1 (1e-10)"):
            rng = np.random.default_rng(3)
            for _ in range(50):
                dims = random_dims(rng, max_clusters=3, max_entities=5)
                params = random_params(rng, dims)
                mats = cluster_rating_matrices(params)
                mems = memberships(params)
                # same model with every specific component deleted
                stripped_dims = ModelDims(
                    n_domains=dims.n_domains,
                    n_user_clusters=dims.n_user_clusters,
                    n_common_clusters=dims.n_common_clusters,
                    n_specific_clusters=(0,) * dims.n_domains,
                    n_levels=dims.n_levels,
                    n_users=dims.n_users, n_items=dims.n_items,
                )
                from pclf import PclfParams
                stripped = PclfParams(
                    dims=stripped_dims,
                    prior_u=params.prior_u, prior_vcom=params.prior_vcom,
                    prior_vspe=[np.zeros(0)] * dims.n_domains,
                    cond_u=params.cond_u, cond_vcom=params.cond_vcom,
                    cond_vspe=[np.zeros((0, n)) for n in dims.n_items],
                    rate_com=params.rate_com,
                    rate_spe=[np.zeros((dims.n_user_clusters, 0, dims.n_levels))
                              for _ in range(dims.n_domains)],
                )
                s_mats = cluster_rating_matrices(stripped)
                s_mems = memberships(stripped)
                z = int(rng.integers(dims.n_domains))
                u = int(rng.integers(dims.n_users[z]))
                v = int(rng.integers(dims.n_items[z]))
                full = predict(params, mats, mems,
                               PredictionWeights.common_only(dims.n_domains), z, u, v)
                collapsed = predict(stripped, s_mats, s_mems,
                                    PredictionWeights.common_only(dims.n_domains), z, u, v)
                assert full == pytest.approx(collapsed, abs=1e-12)
                # affinity: value at w1=0.35 interpolates the endpoints
                vals = [
                    predict(params, mats, mems,
                            PredictionWeights(w1=(w,) * dims.n_domains), z, u, v)
                    for w in (0.0, 0.35, 1.0)
                ]
                assert vals[1] == pytest.approx(
                    vals[0] + 0.35 * (vals[2] - vals[0]), abs=1e-10
                )


# ---------------------------------------------------------------------------
# planted two-domain benchmark shared by the ordering and sparsity criteria

BENCH_GEN = dict(K=6, T=4, L=2)
BENCH_FIT = dict(K=10, T=6, L=3)
BENCH_TRAIN_USERS = (280, 5)  # rich auxiliary domain, sparse target domain
BENCH_GIVEN = 5
BENCH_W1 = 0.72
BENCH_STARTS = 3


def _bench_instance(seed):
    dims = ModelDims(
        n_domains=2, n_user_clusters=BENCH_GEN["K"],
        n_common_clusters=BENCH_GEN["T"],
        n_specific_clusters=(BENCH_GEN["L"],) * 2, n_levels=5,
        n_users=(300, 300), n_items=(500, 500),
    )
    spec = SyntheticSpec(
        dims=dims, w1=(BENCH_W1, BENCH_W1), density=0.05, seed=seed,
        membership_concentration=0.06, rating_sharpness=3.5,
        specific_sharpness=5.0,
    )
    ds, _ = synth_generate(spec)
    return given_n_pool(ds, BENCH_TRAIN_USERS, BENCH_GIVEN, seed)


def _best_of(train_fn, seed):
    best = None
    for i in range(BENCH_STARTS):
        config = TrainConfig(
            beta_schedule=(0.4, 0.55, 0.7, 0.85, 1.0), max_iters_per_beta=30,
            min_iters_per_beta=8, rel_ll_tol=1e-6, seed=seed + 7919 * i,
        )
        params, trace = train_fn(config)
        if best is None or trace[-1].log_likelihood > best[1]:
            best = (params, trace[-1].log_likelihood)
    return best[0]


def _domain_maes(params, weights, evs, domains):
    mats = cluster_rating_matrices(params)
    mems = memberships(params)
    return [
        mae(predict_many(params, mats, mems, weights, d, evs[z][0], evs[z][1]),
            evs[z][2])
        for z, d in domains
    ]


@pytest.fixture(scope="module")
def planted_benchmark():
    """10-seed planted run of all four models; shared across criteria."""
    start = time.perf_counter()
    per_seed = []
    for seed in range(10):
        train_ds, evs = _bench_instance(seed)
        result = {}
        fit_dims = ModelDims.from_dataset(
            train_ds, BENCH_FIT["K"], BENCH_FIT["T"], (BENCH_FIT["L"],) * 2
        )
        params = _best_of(lambda c: train(train_ds, fit_dims, c), seed)
        result["pclf"] = _domain_maes(
            params, PredictionWeights(w1=(BENCH_W1, BENCH_W1)), evs,
            [(0, 0), (1, 1)],
        )
        params = _best_of(
            lambda c: common_only_train(train_ds, BENCH_FIT["K"], BENCH_FIT["T"], c),
            seed,
        )
        result["rmgm-like"] = _domain_maes(
            params, PredictionWeights.common_only(2), evs, [(0, 0), (1, 1)]
        )
        result["fmm"] = []
        for z in range(2):
            params = _best_of(
                lambda c: fmm_train(
                    train_ds.domain_view(z), BENCH_FIT["K"], BENCH_FIT["T"], c
                ),
                seed,
            )
            result["fmm"].extend(
                _domain_maes(params, PredictionWeights.common_only(1), evs, [(z, 0)])
            )
        result["nmf"] = []
        for z in range(2):
            factors = nmf_train(domain_matrix(train_ds, z), rank=20, iters=150, seed=seed)
            preds = [nmf_predict(factors, int(u), int(v), 5)
                     for u, v in zip(evs[z][0], evs[z][1])]
            result["nmf"].append(mae(preds, evs[z][2]))
        per_seed.append(result)
    elapsed = time.perf_counter() - start
    means = {
        model: float(np.mean([v for r in per_seed for v in r[model]]))
        for model in ("pclf", "rmgm-like", "fmm", "nmf")
    }
    return {"per_seed": per_seed, "means": means, "elapsed": elapsed}


class TestPlantedOrdering:
    def test_mean_mae_ordering(self, planted_benchmark):
        # the published per-dataset tables are not reproducible at desk
        # scale (unspecified subsamples, withdrawn source data); this is
        # the substituted check on planted two-domain data
        with _criterion(
            "planted ordering pclf < rmgm-like < fmm < nmf (gap >= 0.01, < 5 min)"
        ):
            m = planted_benchmark["means"]
            order = f"pclf={m['pclf']:.4f} rmgm-like={m['rmgm-like']:.4f} " \
                    f"fmm={m['fmm']:.4f} nmf={m['nmf']:.4f}"
            assert m["pclf"] < m["rmgm-like"] < m["fmm"] < m["nmf"], order
            assert m["rmgm-like"] - m["pclf"] >= 0.01, order
            assert planted_benchmark["elapsed"] < 300.0, (
                f"benchmark took {planted_benchmark['elapsed']:.0f}s"
            )


class TestSparsityBenefit:
    def test_pooled_beats_single_domain_per_seed(self, planted_benchmark):
        with _criterion("pooled common-only < per-domain fmm in >= 8/10 seeds"):
            wins = sum(
                1 for r in planted_benchmark["per_seed"]
                if np.mean(r["rmgm-like"]) < np.mean(r["fmm"])
            )
            assert wins >= 8, f"pooled model won only {wins}/10 seeds"


class TestWeightSensitivity:
    def test_interior_minimum(self):
        # symmetric splits so both planted signal types are learnable;
        # the curve is averaged over seeds like a repeated experiment
        with _criterion("MAE over W1 is non-monotone with an interior minimum"):
            grid = np.linspace(0.0, 1.0, 11)
            curves = []
            for seed in (0, 1, 2):
                dims = ModelDims(
                    n_domains=2, n_user_clusters=6, n_common_clusters=4,
                    n_specific_clusters=(2, 2), n_levels=5,
                    n_users=(300, 300), n_items=(500, 500),
                )
                spec = SyntheticSpec(
                    dims=dims, w1=(BENCH_W1, BENCH_W1), density=0.05, seed=seed,
                    membership_concentration=0.06, rating_sharpness=3.5,
                    specific_sharpness=5.0,
                )
                ds, _ = synth_generate(spec)
                train_ds, evs = given_n_pool(ds, (20, 20), 5, seed)
                fit_dims = ModelDims.from_dataset(train_ds, 6, 4, (2, 2))
                best = None
                for i in range(2):
                    config = TrainConfig(
                        beta_schedule=(0.4, 0.55, 0.7, 0.85, 1.0),
                        max_iters_per_beta=30, min_iters_per_beta=8,
                        rel_ll_tol=1e-6, seed=seed + 7919 * i,
                    )
                    params, trace = train(train_ds, fit_dims, config)
                    if best is None or trace[-1].log_likelihood > best[1]:
                        best = (params, trace[-1].log_likelihood)
                params = best[0]
                mats = cluster_rating_matrices(params)
                mems = memberships(params)
                curve = [
                    np.mean([
                        mae(predict_many(params, mats, mems,
                                         PredictionWeights(w1=(w, w)), z,
                                         evs[z][0], evs[z][1]), evs[z][2])
                        for z in range(2)
                    ])
                    for w in grid
                ]
                curves.append(curve)
            avg = np.mean(curves, axis=0)
            best_idx = int(np.argmin(avg))
            shape = " ".join(f"{v:.4f}" for v in avg)
            assert 0 < best_idx < len(grid) - 1, f"minimum at boundary: {shape}"
            assert avg[0] > avg[best_idx] and avg[-1] > avg[best_idx], shape


class TestMaeUnit:
    def test_hand_computed_exact(self):
        with _criterion("MAE unit correctness (exact hand cases)"):
            assert mae([3, 4], [4, 2]) == 1.5
            assert mae([1], [5]) == 4.0
            assert mae([2, 2, 2], [2, 2, 2]) == 0.0


class TestCheckpointDeterminism:
    def test_cli_train_byte_identical(self, tmp_path):
        with _criterion("cmd_train byte-identical checkpoints (fixed seed)"):
            data_dir = str(tmp_path / "data")
            rc = cli_main([
                "synth", "--domains", "2", "-K", "3", "-T", "2", "-L", "2",
                "--users", "25", "--items", "20", "--density", "0.4",
                "--seed", "5", "--out", data_dir,
            ])
            assert rc == 0
            paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
            for p in paths:
                rc = cli_main([
                    "train", "--dataset", data_dir, "-K", "3", "-T", "2", "-L", "2",
                    "--betas", "0.6,1.0", "--max-iters", "8", "--seed", "17",
                    "--out", p,
                ])
                assert rc == 0
            a, b = (open(p, "rb").read() for p in paths)
            assert a == b
            assert load_checkpoint(paths[0]).seed == 17
