import contextlib
import csv
import dataclasses
import io
import json
import os
import time

import numpy as np
import pytest

from pclf import (
    CrossDomainDataset,
    DataError,
    ModelDims,
    ModelError,
    SyntheticSpec,
    TrainConfig,
    baselines,
    mae,
    run_experiment,
    synth_generate,
)
from pclf.evaluate import (
    KNOWN_MODELS,
    ExperimentConfig,
    ResultRow,
    ResultsReport,
    config_from_dict,
    raw_results_csv,
    report_table,
)

from conftest import given_n_pool, rows_of
from oracles import random_params, run_experiment_reference, synth_reference


class TestMae:
    def test_hand_computed(self):
        assert mae([3, 4], [4, 2]) == pytest.approx(1.5)

    def test_identity(self):
        assert mae([1, 2, 3], [1, 2, 3]) == 0.0

    def test_single_element(self):
        assert mae([1], [5]) == 4.0

    def test_sign_symmetric(self):
        assert mae([1, 5], [5, 1]) == mae([5, 1], [1, 5])

    def test_bounded_by_range(self):
        rng = np.random.default_rng(0)
        preds = rng.uniform(1, 5, size=100)
        truths = rng.integers(1, 6, size=100)
        assert mae(preds, truths) <= 4.0

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            mae([], [])

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            mae([1, 2], [1])


def small_dims(z=2, k=2, t=2, l=(2, 2), m=(6, 5), n=(4, 5)):
    return ModelDims(
        n_domains=z, n_user_clusters=k, n_common_clusters=t,
        n_specific_clusters=l, n_levels=5, n_users=m, n_items=n,
    )


class TestSynthGenerate:
    def test_point_mass_tables_generate_constant(self):
        dims = small_dims()
        params = random_params(np.random.default_rng(0), dims)
        params.rate_com[:] = 0.0
        params.rate_com[:, :, 2] = 1.0
        for z in range(2):
            params.rate_spe[z][:] = 0.0
            params.rate_spe[z][:, :, 2] = 1.0
        spec = SyntheticSpec(dims=dims, w1=(0.5, 0.5), density=0.5, seed=1, params=params)
        ds, _ = synth_generate(spec)
        for z in range(2):
            assert (ds.ratings[z] == 3).all()

    def test_full_density_counts(self):
        dims = small_dims(m=(2, 2), n=(2, 2))
        spec = SyntheticSpec(dims=dims, w1=(0.5, 0.5), density=1.0, seed=2)
        ds, _ = synth_generate(spec)
        assert ds.n_ratings == [4, 4]

    def test_returns_generating_params(self):
        dims = small_dims()
        spec = SyntheticSpec(dims=dims, w1=(0.4, 0.6), density=0.6, seed=3)
        ds, params = synth_generate(spec)
        params.validate()
        assert params.dims == dims

    def test_deterministic(self):
        dims = small_dims()
        spec = SyntheticSpec(dims=dims, w1=(0.5, 0.5), density=0.5, seed=4)
        a, _ = synth_generate(spec)
        b, _ = synth_generate(spec)
        assert rows_of(a) == rows_of(b)

    def test_density_validation(self):
        with pytest.raises(DataError):
            SyntheticSpec(dims=small_dims(), w1=(0.5, 0.5), density=0.0, seed=0)

    def test_w1_per_domain(self):
        with pytest.raises(DataError):
            SyntheticSpec(dims=small_dims(), w1=(0.5,), density=0.5, seed=0)


def _point_mass(params, level):
    params.rate_com[:] = 0.0
    params.rate_com[:, :, level - 1] = 1.0
    for table in params.rate_spe:
        table[:] = 0.0
        table[:, :, level - 1] = 1.0
    return params


def _reference_spec(case):
    """One SyntheticSpec per generator corner the columnar sampler must replay."""
    if case == "no-specific-clusters":
        dims = small_dims(l=(0, 2), m=(12, 9), n=(10, 14))
        return SyntheticSpec(dims=dims, w1=(0.3, 0.6), density=0.5, seed=11)
    if case == "w1-zero-and-one":
        return SyntheticSpec(dims=small_dims(k=3, l=(2, 3)), w1=(0.0, 1.0), density=0.7, seed=12)
    if case == "table-noise":
        return SyntheticSpec(dims=small_dims(m=(20, 15), n=(18, 12)), w1=(0.5, 0.7),
                             density=0.4, seed=13, table_noise=0.3, rating_sharpness=3.0,
                             specific_sharpness=5.0)
    if case == "supplied-params":
        dims = small_dims(k=3, t=4, l=(1, 2), m=(9, 11), n=(13, 7))
        params = random_params(np.random.default_rng(14), dims)
        return SyntheticSpec(dims=dims, w1=(0.45, 0.55), density=0.6, seed=14, params=params)
    if case == "full-density":
        return SyntheticSpec(dims=small_dims(), w1=(0.5, 0.5), density=1.0, seed=15)
    if case == "point-mass-tables":
        dims = small_dims(l=(2, 0))
        params = _point_mass(random_params(np.random.default_rng(16), dims), 4)
        return SyntheticSpec(dims=dims, w1=(0.5, 0.5), density=0.8, seed=16, params=params)
    dims = small_dims(k=6, t=4, l=(2, 2), m=(300, 300), n=(500, 500))
    return SyntheticSpec(dims=dims, w1=(0.72, 0.72), density=0.05, seed=1,
                         membership_concentration=0.06, rating_sharpness=3.5,
                         specific_sharpness=5.0)


class TestSynthReference:
    """The columnar generator against the per-cell ``rng.choice`` loop."""

    @pytest.mark.parametrize("case", [
        "no-specific-clusters", "w1-zero-and-one", "table-noise", "supplied-params",
        "full-density", "point-mass-tables", "planted-fixture",
    ])
    def test_matches_reference(self, case):
        spec = _reference_spec(case)
        got, got_params = synth_generate(spec)
        want, want_params = synth_reference(spec)
        for key in ("users", "items", "ratings"):
            for a, b in zip(getattr(got, key), getattr(want, key)):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        assert got.n_users == want.n_users and got.n_items == want.n_items
        for name in ("prior_u", "prior_vcom", "cond_u", "cond_vcom", "rate_com"):
            assert np.array_equal(getattr(got_params, name), getattr(want_params, name))
        for name in ("prior_vspe", "cond_vspe", "rate_spe"):
            for a, b in zip(getattr(got_params, name), getattr(want_params, name)):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("off, raises", [(1e-6, True), (1e-9, False)])
    def test_membership_row_off_one(self, monkeypatch, off, raises):
        import pclf
        from pclf import inference

        real = inference.memberships

        def skewed(params):
            mems = real(params)
            mems.p_u[3] *= 1.0 + off
            return mems

        monkeypatch.setattr(inference, "memberships", skewed)
        monkeypatch.setattr(pclf, "memberships", skewed)
        dims = small_dims()
        spec = SyntheticSpec(dims=dims, w1=(0.5, 0.5), density=1.0, seed=17)
        if raises:
            with pytest.raises(ValueError):
                synth_reference(spec)
            with pytest.raises(ValueError):
                synth_generate(spec)
        else:
            got, _ = synth_generate(spec)
            assert rows_of(got) == rows_of(synth_reference(spec)[0])

    @pytest.mark.parametrize("row, u, index", [
        ([0.25, 0.25, 0.5], 0.25, 1),                  # a boundary goes right
        ([0.5, 0.5 * (1 + 1e-9)], 0.4999999999, 1),   # cumsum / its last entry
        ([0.0, 0.0, 1.0], 0.0, 2),                     # zero mass is never drawn
    ], ids=["boundary", "normalized", "zero-mass"])
    def test_replay_choice_index(self, row, u, index):
        """The index ``Generator.choice`` takes for uniform ``u``:
        ``searchsorted(cumsum / cumsum[-1], u, side="right")``."""
        from pclf.evaluate import _replay_choice

        cdf = np.cumsum(row)
        assert np.searchsorted(cdf / cdf[-1], u, side="right") == index
        assert _replay_choice(np.array([row]), np.array([u])).tolist() == [index]


def _synthetic_raw(**overrides):
    raw = {
        "synthetic": {
            "Z": 2, "K": 2, "T": 2, "L": [2, 2], "R": 5,
            "M": [20, 20], "N": [15, 15],
            "w1": 0.5, "density": 0.4, "seed": 5,
        },
        "given_n": [5],
        "n_train_users": 12,
        "dims": {"K": 2, "T": 2, "L": [2, 2]},
        "models": ["pclf"],
        "weights": [0.5, 0.5],
        "train": {"beta_schedule": [1.0], "max_iters_per_beta": 6},
        "n_repeats": 1,
        "base_seed": 0,
    }
    raw.update(overrides)
    return raw


def _synthetic_config(**overrides):
    return config_from_dict(_synthetic_raw(**overrides))


class TestExperimentConfig:
    def test_unknown_key_named(self):
        with pytest.raises(DataError, match="banana"):
            config_from_dict({
                "banana": 1, "given_n": [5], "n_train_users": 3,
                "dims": {}, "models": ["pclf"],
            })

    def test_unknown_model_named(self):
        with pytest.raises(DataError, match="svd"):
            _synthetic_config(models=["svd"])

    def test_requires_one_source(self):
        with pytest.raises(DataError, match="domains.*synthetic|synthetic|domains"):
            config_from_dict({
                "given_n": [5], "n_train_users": 3,
                "dims": {"K": 2, "T": 2, "L": [1, 1]}, "models": ["pclf"],
            })

    def test_unknown_train_key(self):
        with pytest.raises(DataError, match="warmup"):
            _synthetic_config(train={"warmup": 3})

    def test_zero_configuration_defaults(self):
        config = config_from_dict({
            "synthetic": {
                "Z": 2, "K": 2, "T": 2, "L": [1, 1], "R": 5,
                "M": [20, 20], "N": [15, 15], "density": 0.4, "seed": 0,
            },
            "n_train_users": 12,
        })
        assert config.given_n == [5, 10, 15]
        assert config.dims == {"K": 20, "T": 10, "L": 15}
        assert config.models == list(KNOWN_MODELS)
        assert config.n_repeats == 10
        assert config.weights is None  # resolved to 0.35 per domain at run time

    @pytest.mark.parametrize("source", ["synthetic", "domains"])
    def test_rmgm_like_needs_two_domains(self, source, tmp_path):
        one = _synthetic_raw(dims={"K": 2, "T": 2, "L": [2]}, weights=[0.5],
                             models=["pclf", "rmgm-like"])
        if source == "synthetic":
            one["synthetic"] = {**one["synthetic"], "Z": 1, "L": [2], "M": [20], "N": [15]}
        else:
            raw = tmp_path / "raw.tsv"
            raw.write_text("".join(f"u{u}\tm{v}\t{1 + (u + v) % 5}\n"
                                   for u in range(12) for v in range(6)))
            one.update(synthetic=None, domains=[{"path": str(raw), "scale": {"min": 1, "max": 5}}])
        with pytest.raises(DataError, match="rmgm-like needs at least 2 domains, the config has 1"):
            config_from_dict(one)
        config_from_dict({**one, "models": ["pclf", "fmm", "nmf"]})

    @pytest.mark.parametrize("field, values, named", [
        ("given_n", [3, 5, 3], "given_n lists 3 more than once"),
        ("models", ["pclf", "fmm", "pclf"], "models lists 'pclf' more than once"),
    ])
    def test_repeated_value_named(self, field, values, named):
        with pytest.raises(DataError, match=named):
            _synthetic_config(**{field: values})

    @pytest.mark.parametrize("field", ["given_n", "models"])
    def test_empty_list_named(self, field):
        with pytest.raises(DataError, match=f"{field} must list at least one value"):
            _synthetic_config(**{field: []})

    def test_dims_missing_key_named(self):
        with pytest.raises(DataError, match="'T'"):
            _synthetic_config(dims={"K": 2, "L": [1, 1]})

    @pytest.mark.parametrize("nmf_rank", [0, -2])
    def test_nmf_rank_below_one(self, nmf_rank):
        with pytest.raises(DataError, match="nmf_rank must be >= 1"):
            _synthetic_config(nmf_rank=nmf_rank)

    @pytest.mark.parametrize("weights", [[0.5], [0.5, 0.5, 0.5], [0.5, 1.5], [-0.1, 0.5],
                                         [0.5, "a"], [True, 0.5], 0.5])
    def test_weights_one_per_domain_in_unit_interval(self, weights):
        with pytest.raises(DataError, match=r"weights needs one value in \[0, 1\] per domain"):
            _synthetic_config(weights=weights)

    @pytest.mark.parametrize("key, value", [
        ("nmf_rank", "x"), ("nmf_iters", 2.5), ("given_n", 5), ("given_n", [5, True]),
        ("n_repeats", None), ("n_train_users", "12"), ("models", "pclf"),
        ("resample_subsets", 1), ("train", {"beta_schedule": 1.0}),
        ("train", {"seed": 1.0}), ("dims", {"K": "a", "T": 2, "L": [2, 2]}),
        ("dims", {"K": 2, "T": 2, "L": "2"}), ("subset", [1]),
    ])
    def test_wrong_json_type_named(self, key, value):
        with pytest.raises(DataError, match=r"must be (a|an|true) "):
            _synthetic_config(**{key: value})

    @pytest.mark.parametrize("key, value", [("L", 2), ("w1", "0.5"), ("density", None),
                                            ("M", [20, 20.0]), ("specific_sharpness", [1])])
    def test_synthetic_wrong_json_type_named(self, key, value):
        raw = _synthetic_raw()
        with pytest.raises(DataError, match=f"'{key}' in synthetic spec must be"):
            config_from_dict({**raw, "synthetic": {**raw["synthetic"], key: value}})

    @pytest.mark.parametrize("domain, message", [
        ({"path": "r.tsv"}, "missing key 'scale'"),
        ({"path": "r.tsv", "scale": {"min": 1}}, "missing key 'max'"),
        ({"path": "r.tsv", "scale": {"min": 1, "max": "5"}}, "'max' in domains\\[0\\] scale"),
        ({"path": "r.tsv", "scale": {"min": 1, "max": 5}, "columns": [0, 1]}, "3 entries"),
        ({"path": "r.tsv", "scale": {"min": 1, "max": 5}, "name": "two\nlines"}, "line break"),
        ({"path": "r.tsv", "scale": {"min": 1, "max": 5}, "name": "cr\r"}, "line break"),
    ])
    def test_domain_source_checked(self, domain, message):
        with pytest.raises(DataError, match=message):
            config_from_dict({"domains": [domain], "n_train_users": 3})

    @pytest.mark.parametrize("dims, message", [
        ({"K": 0, "T": 2, "L": 1}, "K and T must be integers >= 1"),
        ({"K": 2, "T": -1, "L": 1}, "K and T must be integers >= 1"),
        ({"K": 2, "T": 2, "L": -1}, "L needs one integer >= 0"),
        ({"K": 2, "T": 2, "L": [1]}, "L needs one integer >= 0"),
        ({"K": 2, "T": 2, "L": [1, -1]}, "L needs one integer >= 0"),
        ({"K": 2, "T": 2, "L": [1, 1, 1]}, "L needs one integer >= 0"),
    ])
    def test_dims_out_of_range(self, dims, message):
        with pytest.raises(DataError, match=message):
            _synthetic_config(dims=dims)

    def test_dims_without_specific_clusters_accepted(self):
        assert _synthetic_config(dims={"K": 2, "T": 2, "L": [2, 0]}).dims["L"] == [2, 0]
        assert _synthetic_config(dims={"K": 2, "T": 2, "L": 0}).dims["L"] == 0

    @pytest.mark.parametrize("key", ["Z", "K", "T", "L", "M", "N", "density"])
    def test_synthetic_missing_key_named(self, key):
        from pclf.evaluate import synthetic_spec_from_dict

        raw = {"Z": 2, "K": 2, "T": 2, "L": [1, 1], "M": [20, 20], "N": [15, 15],
               "density": 0.4}
        del raw[key]
        with pytest.raises(DataError, match=f"synthetic spec is missing key '{key}'"):
            synthetic_spec_from_dict(raw)


class TestRunExperiment:
    def test_deterministic(self):
        report_a = run_experiment(_synthetic_config())
        report_b = run_experiment(_synthetic_config())
        assert report_a.rows == report_b.rows

    def test_one_row_per_model_domain(self):
        report = run_experiment(_synthetic_config())
        assert len(report.rows) == 2  # one model, two domains, one given, one repeat
        assert {r.model for r in report.rows} == {"pclf"}
        assert {r.domain for r in report.rows} == {0, 1}

    def test_all_models_run(self):
        config = _synthetic_config(
            models=["pclf", "rmgm-like", "fmm", "nmf"],
            nmf_rank=3, nmf_iters=30,
        )
        report = run_experiment(config)
        assert report.models == ["pclf", "rmgm-like", "fmm", "nmf"]
        for row in report.rows:
            assert 0.0 <= row.mae <= 4.0

    def test_repeats_vary_split(self):
        config = _synthetic_config(n_repeats=2)
        report = run_experiment(config)
        a = [r.mae for r in report.rows if r.repeat == 0]
        b = [r.mae for r in report.rows if r.repeat == 1]
        assert a != b

    def test_leak_assertion_fires_on_overlap(self):
        from pclf.evaluate import _assert_no_leak

        train_ds = CrossDomainDataset.from_indexed(5, np.array([[0, 1, 1, 3]]),
                                                   n_users=[2], n_items=[2])
        evals = [(np.array([1]), np.array([1]), np.array([3]))]
        with pytest.raises(RuntimeError, match=r"leaked") as err:
            _assert_no_leak(train_ds, evals)
        assert "RatingTriple(domain=0, user=1, item=1, rating=3)" in str(err.value)

    def test_leak_assertion_names_first_leak(self):
        from pclf.evaluate import _assert_no_leak

        train = np.array([[0, 0, 1, 2], [1, 2, 0, 4], [1, 0, 2, 5]])
        train_ds = CrossDomainDataset.from_indexed(5, train, n_users=[3, 3], n_items=[3, 3])
        # domain 0 leaks nothing; domain 1 leaks (0, 2) and then (2, 0)
        evals = [(np.array([1, 0]), np.array([0, 2]), np.array([1, 1])),
                 (np.array([1, 0, 2]), np.array([1, 2, 0]), np.array([3, 1, 2]))]
        _assert_no_leak(train_ds, [evals[0], tuple(a[:1] for a in evals[1])])
        with pytest.raises(RuntimeError) as err:
            _assert_no_leak(train_ds, evals)
        assert str(err.value) == ("evaluation triple RatingTriple(domain=1, user=0, item=2, "
                                  "rating=1) leaked into the training pool")


class TestEmptyEvalSet:
    """Given 15 on 15 items leaves every test user nothing to score."""

    @staticmethod
    def _config():
        return _synthetic_config(given_n=[3, 15], models=["pclf", "nmf"],
                                 nmf_rank=2, nmf_iters=5)

    def test_cells_left_out_and_noted(self):
        notes = []
        report = run_experiment(self._config(), note=notes.append)
        assert notes == ["note: given=15 domain=0 has no eval ratings",
                         "note: given=15 domain=1 has no eval ratings"]
        assert {(r.model, r.domain, r.given_n) for r in report.rows} == {
            (m, z, 3) for m in ("pclf", "nmf") for z in (0, 1)}
        table = report_table(report).splitlines()
        assert table[0].split() == ["dataset", "model", "given3", "given15"]
        assert all(line.split()[-1] == "n/a" for line in table[1:])
        assert "n/a" not in raw_results_csv(report)

    def test_cli_reports_note_and_table(self, tmp_path, capsys):
        import json

        from pclf.cli import main

        config = {
            "synthetic": {"Z": 2, "K": 2, "T": 2, "L": [2, 2], "R": 5, "M": [20, 20],
                          "N": [15, 15], "w1": 0.5, "density": 0.4, "seed": 5},
            "given_n": [3, 15], "n_train_users": 12, "dims": {"K": 2, "T": 2, "L": [2, 2]},
            "models": ["pclf"], "train": {"beta_schedule": [1.0], "max_iters_per_beta": 3},
            "n_repeats": 2,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "results"
        assert main(["evaluate", "--config", str(path), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "note: given=15 domain=0 has no eval ratings",
            "note: given=15 domain=1 has no eval ratings",
        ]
        table = (out / "table.csv").read_text().splitlines()
        assert table[0] == "dataset,model,given3,given15"
        assert len(table) == 3 and all(line.endswith(",n/a") for line in table[1:])
        assert len((out / "results.csv").read_text().splitlines()) == 1 + 2 * 2


class TestWorkerPool:
    """``run_experiment`` fits each setting's models in worker processes;
    the serial loop in ``oracles`` is the reference."""

    @staticmethod
    def _config(**overrides):
        # Given 15 on 15 items leaves nothing to score, which adds note lines
        return _synthetic_config(given_n=[3, 15, 6], models=list(KNOWN_MODELS),
                                 n_repeats=2, nmf_rank=3, nmf_iters=20, **overrides)

    @pytest.fixture
    def blas_count(self):
        """The OpenBLAS thread-count getter, with the count set to 2 for the
        test (workers would inherit it even on one CPU) and given back
        after it; a getter of None without an OpenBLAS setter."""
        from pclf.evaluate import _openblas_threads

        threads = _openblas_threads()
        if threads is None:
            yield lambda: None
            return
        set_threads, get_threads = threads
        before = get_threads()
        set_threads(2)
        try:
            yield get_threads
        finally:
            set_threads(before)

    @pytest.mark.parametrize("fails", [False, True])
    def test_fit_runs_one_blas_thread_and_restores_the_count(self, monkeypatch, fails):
        from pclf import evaluate

        count, calls, seen = [0], [], []

        def set_threads(n):
            calls.append(n)
            count[0] = n

        def nmf_train(*args, **kwargs):
            seen.append(count[0])
            if fails:
                raise DataError("matrix has no observed entries")
            return baselines.NmfFactors(np.ones((2, 1)), np.ones((2, 1)), rank=1)

        monkeypatch.setattr(evaluate, "_openblas_threads",
                            lambda: (set_threads, lambda: count[0]))
        monkeypatch.setattr(baselines, "nmf_train", nmf_train)
        dataset = CrossDomainDataset.from_indexed(5, np.array([[0, 0, 0, 3], [0, 1, 1, 4]]),
                                                  [2], [2])
        # at a count of 1 no setter call: in a forked worker it would start
        # OpenBLAS's thread pool again
        for before, expected_calls in ((1, []), (2, [1, 2])):
            count[0] = before
            calls.clear()
            seen.clear()
            with contextlib.suppress(DataError):
                evaluate.fit("nmf", dataset, 2, 2, 1, TrainConfig(), [0.5], 1, 5)
            assert (seen, calls, count[0]) == ([1], expected_calls, before)

    @pytest.mark.parametrize("one_cpu", [False, True])
    @pytest.mark.parametrize("resample", [False, True])
    def test_matches_serial_reference(self, monkeypatch, one_cpu, resample):
        config = self._config(resample_subsets=resample)
        expected_lines = []
        expected = run_experiment_reference(config, log=expected_lines.append,
                                            note=expected_lines.append)
        if one_cpu:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        lines = []
        report = run_experiment(config, log=lines.append, note=lines.append)
        assert report.rows == expected.rows
        assert lines == expected_lines
        assert len(report.rows) == 2 * 2 * 4 * 2   # repeats x scored givens x models x domains
        assert sum(line.startswith("note:") for line in lines) == 2

    @pytest.mark.parametrize("one_cpu", [False, True])
    def test_one_scored_domain_matches_serial_reference(self, monkeypatch, one_cpu):
        # Given 15 leaves domain 0 (15 items) nothing to score, so fmm and
        # nmf fit domain 1 alone
        config = _synthetic_config(
            synthetic={"Z": 2, "K": 2, "T": 2, "L": [2, 2], "R": 5, "M": [20, 20],
                       "N": [15, 40], "w1": 0.5, "density": 0.4, "seed": 5},
            given_n=[15], models=list(KNOWN_MODELS), n_repeats=2, nmf_rank=3, nmf_iters=20,
        )
        expected_lines = []
        expected = run_experiment_reference(config, log=expected_lines.append,
                                            note=expected_lines.append)
        if one_cpu:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        lines = []
        report = run_experiment(config, log=lines.append, note=lines.append)
        assert report.rows == expected.rows
        assert lines == expected_lines
        assert {(r.model, r.domain) for r in report.rows} == {(m, 1) for m in KNOWN_MODELS}
        assert len(report.rows) == 2 * 4   # repeats x models, domain 1 only
        assert lines[0] == "note: given=15 domain=0 has no eval ratings"

    def test_workers_run_one_blas_thread(self, monkeypatch, blas_count):
        if blas_count() is None:
            pytest.skip("no OpenBLAS thread-count setter in this process")

        def on_one_thread(function):   # nmf_predict scores outside fit
            def run(*args, **kwargs):
                if blas_count() != 1:
                    raise ModelError(f"nmf ran on {blas_count()} BLAS threads")
                return function(*args, **kwargs)
            return run

        for name in ("nmf_train", "nmf_predict"):
            monkeypatch.setattr(baselines, name, on_one_thread(getattr(baselines, name)))
        report = run_experiment(self._config())
        assert len([r for r in report.rows if r.model == "nmf"]) == 2 * 2 * 2

    def test_workers_start_no_blas_thread(self, monkeypatch, blas_count):
        from pclf import evaluate

        if blas_count() is None:
            pytest.skip("no OpenBLAS thread-count setter in this process")
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc to count a process's threads")
        parent, fit = os.getpid(), evaluate.fit

        def check(when):
            native = len(os.listdir("/proc/self/task"))
            if os.getpid() == parent:
                raise ModelError("a fit ran in the parent")
            if native != 1 or blas_count() != 1:
                raise ModelError(f"worker runs {native} threads and BLAS on {blas_count()} "
                                 f"{when} its fit")

        def checked_fit(*args, **kwargs):
            check("before")
            ckpt = fit(*args, **kwargs)
            check("after")
            return ckpt

        monkeypatch.setattr(evaluate, "fit", checked_fit)
        report = run_experiment(self._config())
        assert len(report.rows) == 2 * 2 * 4 * 2   # repeats x scored givens x models x domains
        assert blas_count() == 2

    @pytest.mark.parametrize("one_cpu", [False, True])
    def test_worker_death_in_later_setting_named(self, tmp_path, monkeypatch, capsys,
                                                 blas_count, one_cpu):
        from pclf.cli import main

        raw = _synthetic_raw(given_n=[3, 15, 6], models=list(KNOWN_MODELS), n_repeats=2,
                             nmf_rank=3, nmf_iters=20)
        nmf_train = baselines.nmf_train

        def die_in_repeat_one(*args, seed, **kwargs):
            if seed == raw["base_seed"] + 1:
                time.sleep(0.5)   # let the other worker finish repeat 0's fits
                os._exit(3)
            return nmf_train(*args, seed=seed, **kwargs)

        monkeypatch.setattr(baselines, "nmf_train", die_in_repeat_one)
        if one_cpu:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        (tmp_path / "config.json").write_text(json.dumps(raw))
        out = tmp_path / "results"
        before = blas_count()
        assert main(["evaluate", "--config", str(tmp_path / "config.json"),
                     "--out", str(out)]) == 1
        assert blas_count() == before
        err = capsys.readouterr().err.splitlines()
        assert err[:1] == ["note: given=15 domain=0 has no eval ratings"]
        assert err[-1].startswith("error: a worker process died during repeat=1 given=3; "
                                  "models without a result: ")
        lost = err[-1].rsplit(": ", 1)[1].split(", ")
        assert "nmf" in lost and lost == [m for m in KNOWN_MODELS if m in lost]
        if one_cpu:   # pclf, rmgm-like and fmm are fitted, then nmf dies
            assert lost == ["nmf"]
        assert not out.exists()   # --out is made only after the run succeeds

    @pytest.mark.parametrize("error", [DataError, ModelError])
    def test_worker_error_reaches_caller(self, monkeypatch, blas_count, error):
        def fail(*args, **kwargs):
            raise error("nmf failed in a worker")

        monkeypatch.setattr(baselines, "nmf_train", fail)
        before = blas_count()
        with pytest.raises(error) as raised:
            run_experiment(self._config())
        assert blas_count() == before
        assert type(raised.value) is error
        assert str(raised.value) == "nmf failed in a worker"

    def test_cluster_fits_start_from_their_own_init(self, monkeypatch):
        from pclf import em, evaluate

        parent, train = os.getpid(), evaluate.train

        def checked_train(dataset, dims, config, init=None):
            if init is None or os.getpid() == parent:
                raise ModelError("a cluster fit did not get its shared start in a worker")
            own = em.init_params(dims, dataset, config.seed, config.smoothing_floor)
            for name in ("prior_u", "prior_vcom", "prior_vspe", "cond_u", "cond_vcom",
                         "cond_vspe", "rate_com", "rate_spe"):
                a, b = getattr(init, name), getattr(own, name)
                if not all(map(np.array_equal, *((a, b) if isinstance(a, list) else ([a], [b])))):
                    raise ModelError(f"the shared start differs from the fit's own in {name}")
            return train(dataset, dims, config, init)

        monkeypatch.setattr(evaluate, "train", checked_train)
        report = run_experiment(self._config())
        assert len(report.rows) == 2 * 2 * 4 * 2   # repeats x scored givens x models x domains

    @pytest.mark.parametrize("one_cpu", [False, True])
    @pytest.mark.parametrize("models, nmf_fails, message", [
        (["nmf", "fmm", "pclf"], False, "init failed in a worker"),
        (["pclf", "nmf"], True, "init failed in a worker"),
        (["nmf", "pclf"], True, "nmf failed in a worker"),
    ], ids=["nmf-ok-then-fmm", "pclf-first", "failing-nmf-first"])
    def test_init_error_is_the_first_cluster_fits(self, monkeypatch, blas_count, one_cpu,
                                                  models, nmf_fails, message):
        from pclf import evaluate

        many, nmf_train = evaluate.init_params_many, baselines.nmf_train

        def init_fails_in_repeat_one(jobs, seed, floor):
            if seed == 1:
                raise ModelError("init failed in a worker")
            return many(jobs, seed, floor)

        def nmf_fails_in_repeat_one(*args, seed, **kwargs):
            if seed == 1 and nmf_fails:
                raise DataError("nmf failed in a worker")
            return nmf_train(*args, seed=seed, **kwargs)

        monkeypatch.setattr(evaluate, "init_params_many", init_fails_in_repeat_one)
        monkeypatch.setattr(baselines, "nmf_train", nmf_fails_in_repeat_one)
        if one_cpu:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        config = _synthetic_config(given_n=[3, 15, 6], models=models, n_repeats=2,
                                   nmf_rank=3, nmf_iters=20)
        expected = []   # every line of repeat 0, and none of repeat 1
        run_experiment_reference(dataclasses.replace(config, n_repeats=1),
                                 log=expected.append, note=expected.append)
        lines, before = [], blas_count()
        with pytest.raises((ModelError, DataError)) as raised:
            run_experiment(config, log=lines.append, note=lines.append)
        assert blas_count() == before
        assert str(raised.value) == message
        assert type(raised.value) is (ModelError if message.startswith("init") else DataError)
        assert lines == expected

    @pytest.mark.parametrize("one_cpu", [False, True])
    def test_init_error_starts_no_later_repeat(self, tmp_path, monkeypatch, one_cpu):
        from pclf import evaluate

        many, seeds = evaluate.init_params_many, tmp_path / "init-seeds"

        def init_fails_in_repeat_one(jobs, seed, floor):
            with open(seeds, "a", encoding="utf-8") as fh:   # inits run in workers
                fh.write(f"{seed}\n")
            if seed == 1:
                raise ModelError("init failed in a worker")
            return many(jobs, seed, floor)

        monkeypatch.setattr(evaluate, "init_params_many", init_fails_in_repeat_one)
        if one_cpu:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        config = _synthetic_config(given_n=[3, 15, 6], models=["nmf", "fmm", "pclf"],
                                   n_repeats=3, nmf_rank=3, nmf_iters=20)
        with pytest.raises(ModelError, match="init failed in a worker"):
            run_experiment(config)
        assert seeds.read_text(encoding="utf-8").split() == ["0", "1"]

    def test_inits_run_ahead_of_the_reader(self, tmp_path, monkeypatch):
        # while repeat 0's first NMF fit runs on one worker, the other runs
        # every later repeat's init: an init that is back has the rest of its
        # repeat and the next init submitted, whatever fit the caller awaits
        from pclf import evaluate

        many, nmf_train = evaluate.init_params_many, baselines.nmf_train
        last_init, first_fit = tmp_path / "last-init", tmp_path / "first-fit"

        def init_marked(jobs, seed, floor):
            params = many(jobs, seed, floor)
            if seed == 2:
                last_init.touch()
            return params

        def first_fit_waits(*args, seed, **kwargs):
            try:
                open(first_fit, "x", encoding="utf-8").close()   # one fit waits
            except FileExistsError:
                return nmf_train(*args, seed=seed, **kwargs)
            deadline = time.monotonic() + 30
            while not last_init.exists():
                if time.monotonic() > deadline:
                    raise ModelError("repeat 2's init did not run during repeat 0's first fit")
                time.sleep(0.01)
            return nmf_train(*args, seed=seed, **kwargs)

        monkeypatch.setattr(evaluate, "init_params_many", init_marked)
        monkeypatch.setattr(baselines, "nmf_train", first_fit_waits)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        config = _synthetic_config(given_n=[3], models=["nmf", "pclf"], n_repeats=3,
                                   nmf_rank=3, nmf_iters=20)
        report = run_experiment(config)
        assert report.rows == run_experiment_reference(config).rows

    def test_fit_error_cancels_the_rest_of_its_repeat(self, tmp_path, monkeypatch):
        # one worker: the error of repeat 0's first fit reaches the caller
        # before the fits queued behind it start, but for the few calls the
        # pool has handed the worker ahead of the cancel
        from pclf import evaluate

        model_maes, started = evaluate._model_maes, tmp_path / "started"

        def first_pclf_fails(model, *args):
            with open(started, "a", encoding="utf-8") as fh:   # fits run in workers
                fh.write(f"{model}\n")
            if model == "pclf" and started.read_text(encoding="utf-8") == "pclf\n":
                raise ModelError("pclf failed in a worker")
            return model_maes(model, *args)

        monkeypatch.setattr(evaluate, "_model_maes", first_pclf_fails)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        config = _synthetic_config(given_n=[3, 6], models=list(KNOWN_MODELS), n_repeats=2,
                                   nmf_rank=3, nmf_iters=20)
        with pytest.raises(ModelError, match="pclf failed in a worker"):
            run_experiment(config)
        behind = sum(len(s.fits) for s in evaluate._settings(config)[0] if s.repeat == 0) - 1
        assert len(started.read_text(encoding="utf-8").split()) - 1 <= 3 < behind

    @pytest.mark.parametrize("one_cpu", [False, True])
    def test_worker_death_in_init_named(self, tmp_path, monkeypatch, capsys, blas_count,
                                        one_cpu):
        from pclf import evaluate
        from pclf.cli import main

        raw = _synthetic_raw(given_n=[3, 15, 6], models=list(KNOWN_MODELS), n_repeats=2,
                             nmf_rank=3, nmf_iters=20)
        many = evaluate.init_params_many

        def die_in_repeat_one(jobs, seed, floor):
            if seed == raw["base_seed"] + 1:
                time.sleep(0.5)   # let the other worker finish repeat 0's fits
                os._exit(3)
            return many(jobs, seed, floor)

        monkeypatch.setattr(evaluate, "init_params_many", die_in_repeat_one)
        if one_cpu:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        (tmp_path / "config.json").write_text(json.dumps(raw))
        out = tmp_path / "results"
        before = blas_count()
        assert main(["evaluate", "--config", str(tmp_path / "config.json"),
                     "--out", str(out)]) == 1
        assert blas_count() == before
        err = capsys.readouterr().err.splitlines()
        assert err[:1] == ["note: given=15 domain=0 has no eval ratings"]
        assert err[-1].startswith("error: a worker process died during repeat=1 given=3; "
                                  "models without a result: ")
        lost = err[-1].rsplit(": ", 1)[1].split(", ")
        # no cluster fit of repeat 1 starts without its init; on one CPU
        # its NMF fits wait for the init too, to keep config order
        assert lost[:3] == ["pclf", "rmgm-like", "fmm"] and lost[3:] in ([], ["nmf"])
        if one_cpu:
            assert lost == list(KNOWN_MODELS)
        assert not out.exists()


class TestReportTable:
    @staticmethod
    def _report():
        rows = [
            ResultRow("pclf", 0, 5, 0, 0.6252),
            ResultRow("pclf", 0, 10, 0, 0.59941),
            ResultRow("fmm", 0, 5, 0, 0.6451),
            ResultRow("fmm", 0, 10, 0, 0.61961),
            ResultRow("pclf", 1, 5, 0, 0.8838),
            ResultRow("pclf", 1, 10, 0, 0.8677),
            ResultRow("fmm", 1, 5, 0, 0.9132),
            ResultRow("fmm", 1, 10, 0, 0.8831),
        ]
        return ResultsReport(rows=rows, domain_names=["d0", "d1"])

    def test_four_decimal_places(self):
        table = report_table(self._report())
        assert "0.6252" in table
        assert "0.5994" in table

    def test_single_cell(self):
        report = ResultsReport(
            rows=[ResultRow("pclf", 0, 5, 0, 0.5)], domain_names=["d0"]
        )
        table = report_table(report)
        lines = table.strip().splitlines()
        assert len(lines) == 2
        assert "given5" in lines[0]

    def test_csv_round_trip(self):
        report = self._report()
        text = report_table(report, fmt="csv")
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        assert header == ["dataset", "model", "given5", "given10"]
        for line in lines[1:]:
            fields = line.split(",")
            model, domain_name = fields[1], fields[0]
            z = 0 if domain_name == "d0" else 1
            for g, value in zip((5, 10), fields[2:]):
                assert float(value) == pytest.approx(report.mean(model, z, g), abs=5e-5)

    def test_csv_quotes_domain_names(self):
        names = ['a,"b', "Books, Movies", "two\nlines", "cr\ronly"]
        rows = [ResultRow("pclf", z, 5, 0, 0.5) for z in range(len(names))]
        text = report_table(ResultsReport(rows=rows, domain_names=names), fmt="csv")
        records = list(csv.reader(io.StringIO(text, newline="")))
        assert records == [["dataset", "model", "given5"]] + [[n, "pclf", "0.5000"]
                                                              for n in names]
        # plain names keep their unquoted bytes
        assert report_table(self._report(), fmt="csv").splitlines()[1] == "d0,pclf,0.6252,0.5994"

    def test_empty_report_rejected(self):
        with pytest.raises(DataError):
            report_table(ResultsReport(rows=[], domain_names=[]))

    def test_unknown_format(self):
        with pytest.raises(DataError, match="markdown"):
            report_table(self._report(), fmt="markdown")

    def test_raw_csv_layout(self):
        text = raw_results_csv(self._report())
        lines = text.strip().splitlines()
        assert lines[0] == "model,domain,given_n,repeat,mae"
        assert lines[1] == "pclf,0,5,0,0.625200"

    def test_mean_and_std(self):
        rows = [
            ResultRow("pclf", 0, 5, 0, 0.6),
            ResultRow("pclf", 0, 5, 1, 0.8),
        ]
        report = ResultsReport(rows=rows, domain_names=["d0"])
        assert report.mean("pclf", 0, 5) == pytest.approx(0.7)
        assert report.std("pclf", 0, 5) == pytest.approx(0.1)


def _split_and_eval(ds, seed, n_train=40, given=8):
    return given_n_pool(ds, [n_train] * ds.n_domains, given, seed)


def _mean_mae(params, weights, evs):
    from pclf import cluster_rating_matrices, memberships, predict_many

    mats = cluster_rating_matrices(params)
    mems = memberships(params)
    return float(np.mean([
        mae(predict_many(params, mats, mems, weights, z, ev[0], ev[1]), ev[2])
        for z, ev in enumerate(evs)
    ]))


def _planted(seed, w1):
    dims = ModelDims(
        n_domains=2, n_user_clusters=3, n_common_clusters=2,
        n_specific_clusters=(2, 2), n_levels=5,
        n_users=(60, 60), n_items=(50, 50),
    )
    spec = SyntheticSpec(dims=dims, w1=(w1, w1), density=0.3, seed=seed,
                         membership_concentration=0.08, rating_sharpness=3.0,
                         specific_sharpness=4.0)
    ds, _ = synth_generate(spec)
    return ds


def _best_trained(train_fn, seed, starts, max_iters=25):
    from pclf import TrainConfig

    best = None
    for i in range(starts):
        cfg = TrainConfig(beta_schedule=(0.5, 0.75, 1.0), max_iters_per_beta=max_iters,
                          min_iters_per_beta=8, rel_ll_tol=1e-6, seed=seed + 7919 * i)
        params, trace = train_fn(cfg)
        if best is None or trace[-1].log_likelihood > best[1]:
            best = (params, trace[-1].log_likelihood)
    return best[0]


def _harness_config(max_iters=25):
    return _synthetic_config(
        models=["pclf", "fmm"],
        synthetic={
            "Z": 2, "K": 3, "T": 2, "L": [2, 2], "R": 5,
            "M": [60, 60], "N": [50, 50],
            "w1": 0.6, "density": 0.3, "seed": 4,
            "membership_concentration": 0.08,
            "rating_sharpness": 3.0, "specific_sharpness": 4.0,
        },
        given_n=[5],
        n_train_users=40,
        dims={"K": 3, "T": 2, "L": [2, 2]},
        weights=[0.6, 0.6],
        train={"beta_schedule": [0.5, 0.75, 1.0], "max_iters_per_beta": max_iters},
        n_repeats=3,
    )


class TestModelComparisons:
    def test_planted_specific_signal_helps(self):
        # mean over 10 seeds: the full model beats the common-only one
        # when domain-specific structure is planted
        from pclf import PredictionWeights, common_only_train, train

        pclf_maes, common_maes = [], []
        for seed in range(10):
            ds = _planted(seed, w1=0.6)
            train_ds, evs = _split_and_eval(ds, seed)
            dims = ModelDims.from_dataset(train_ds, 3, 2, (2, 2))
            params = _best_trained(lambda c: train(train_ds, dims, c), seed, starts=1)
            pclf_maes.append(_mean_mae(params, PredictionWeights(w1=(0.6, 0.6)), evs))
            params = _best_trained(
                lambda c: common_only_train(train_ds, 3, 2, c), seed, starts=1
            )
            common_maes.append(_mean_mae(params, PredictionWeights.common_only(2), evs))
        assert np.mean(pclf_maes) < np.mean(common_maes)

    def test_no_specific_signal_no_penalty(self):
        # generator carries no specific signal: the unused specific
        # component must not cost more than estimation noise
        from pclf import PredictionWeights, common_only_train, train

        for seed in range(3):
            ds = _planted(seed, w1=1.0)
            train_ds, evs = _split_and_eval(ds, seed)
            dims = ModelDims.from_dataset(train_ds, 3, 2, (2, 2))
            params = _best_trained(lambda c: train(train_ds, dims, c), seed, starts=3)
            full = _mean_mae(params, PredictionWeights(w1=(0.35, 0.35)), evs)
            params = _best_trained(
                lambda c: common_only_train(train_ds, 3, 2, c), seed, starts=3
            )
            common = _mean_mae(params, PredictionWeights.common_only(2), evs)
            assert abs(full - common) <= 0.02

    def test_harness_pclf_not_worse_than_fmm(self):
        report = run_experiment(_harness_config())
        pclf = np.mean([report.mean("pclf", z, 5) for z in (0, 1)])
        fmm = np.mean([report.mean("fmm", z, 5) for z in (0, 1)])
        assert pclf <= fmm
