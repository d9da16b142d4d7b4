import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pclf import DataError, baselines, cli, load_checkpoint, load_dataset, nmf_predict
from pclf.cli import _csv_rows, main
from pclf.evaluate import KNOWN_MODELS


@pytest.fixture
def rating_files(tmp_path):
    """Two tiny tab-separated domains on different source scales."""
    rng = np.random.default_rng(0)
    d0 = tmp_path / "movies.tsv"
    lines = []
    for u in range(8):
        for v in rng.choice(10, size=6, replace=False):
            lines.append(f"u{u}\tm{v}\t{rng.integers(1, 6)}")
    d0.write_text("\n".join(lines) + "\n")
    d1 = tmp_path / "books.tsv"
    lines = []
    for u in range(7):
        for v in rng.choice(9, size=5, replace=False):
            lines.append(f"u{u}\tb{v}\t{rng.integers(0, 10)}")
    d1.write_text("\n".join(lines) + "\n")
    return str(d0), str(d1)


def _ingest(rating_files, tmp_path, capsys):
    out = str(tmp_path / "dataset")
    rc = main([
        "ingest",
        "--input", rating_files[0], "--scale", "1:5",
        "--input", rating_files[1], "--scale", "0:9",
        "--out", out,
    ])
    assert rc == 0
    return out, capsys.readouterr().out


class TestIngest:
    def test_two_domain_ingest(self, rating_files, tmp_path, capsys):
        out, printed = _ingest(rating_files, tmp_path, capsys)
        assert "domains=2" in printed
        assert "domain 0: users=8 items=10 ratings=48" in printed
        ds = load_dataset(out)
        assert ds.n_domains == 2
        assert ds.n_levels == 5

    def test_missing_file_names_path(self, tmp_path, capsys):
        rc = main([
            "ingest", "--input", str(tmp_path / "gone.tsv"), "--scale", "1:5",
            "--out", str(tmp_path / "d"),
        ])
        assert rc == 1
        assert "gone.tsv" in capsys.readouterr().err

    def test_min_user_ratings_honored(self, rating_files, tmp_path, capsys):
        rc = main([
            "ingest",
            "--input", rating_files[0], "--scale", "1:5",
            "--select-users", "8", "--min-user-ratings", "5",
            "--out", str(tmp_path / "d"),
        ])
        assert rc == 0
        assert "users=8" in capsys.readouterr().out
        # threshold above every user's count is infeasible
        rc = main([
            "ingest",
            "--input", rating_files[0], "--scale", "1:5",
            "--select-users", "8", "--min-user-ratings", "6",
            "--out", str(tmp_path / "d2"),
        ])
        assert rc == 1


class TestTrain:
    def test_defaults_record_paper_hyperparameters(self, rating_files, tmp_path, capsys):
        dataset, _ = _ingest(rating_files, tmp_path, capsys)
        ckpt_path = str(tmp_path / "model.json")
        rc = main([
            "train", "--dataset", dataset, "--out", ckpt_path,
            "--betas", "1.0", "--max-iters", "3",
        ])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "K=20 T=10 L=15,15" in printed
        ckpt = load_checkpoint(ckpt_path)
        assert ckpt.model_kind == "pclf"
        d = ckpt.params.dims
        assert d.n_user_clusters == 20
        assert d.n_common_clusters == 10
        assert d.n_specific_clusters == (15, 15)
        assert ckpt.default_w1 == [0.35, 0.35]

    def test_fmm_rejects_two_domains(self, rating_files, tmp_path, capsys):
        dataset, _ = _ingest(rating_files, tmp_path, capsys)
        rc = main([
            "train", "--dataset", dataset, "--model", "fmm",
            "--out", str(tmp_path / "m.json"), "--betas", "1.0",
        ])
        assert rc == 1
        assert "single-domain" in capsys.readouterr().err

    def test_seed_reproducible_checkpoints(self, rating_files, tmp_path, capsys):
        dataset, _ = _ingest(rating_files, tmp_path, capsys)
        args = [
            "train", "--dataset", dataset, "-K", "3", "-T", "2", "-L", "2",
            "--betas", "0.5,1.0", "--max-iters", "4", "--seed", "11",
        ]
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_nmf_single_domain(self, rating_files, tmp_path, capsys):
        out = str(tmp_path / "d1only")
        rc = main(["ingest", "--input", rating_files[0], "--scale", "1:5", "--out", out])
        assert rc == 0
        ckpt_path = str(tmp_path / "nmf.json")
        rc = main([
            "train", "--dataset", out, "--model", "nmf",
            "--rank", "2", "--nmf-iters", "20", "--out", ckpt_path,
        ])
        assert rc == 0
        assert load_checkpoint(ckpt_path).model_kind == "nmf"


@pytest.fixture
def trained(rating_files, tmp_path, capsys):
    dataset, _ = _ingest(rating_files, tmp_path, capsys)
    ckpt = str(tmp_path / "model.json")
    rc = main([
        "train", "--dataset", dataset, "-K", "3", "-T", "2", "-L", "2",
        "--betas", "1.0", "--max-iters", "5", "--out", ckpt,
    ])
    assert rc == 0
    capsys.readouterr()
    return dataset, ckpt


class TestPredict:
    def test_default_w1_in_header(self, trained, tmp_path, capsys):
        _, ckpt = trained
        out = str(tmp_path / "preds.csv")
        rc = main(["predict", "--checkpoint", ckpt, "--cell", "0,0,0", "--out", out])
        assert rc == 0
        lines = open(out).read().splitlines()
        assert lines[0].startswith("#") and "w1=0.35" in lines[0]
        assert lines[1] == "user_domain,user_idx,item_domain,item_idx,predicted_rating,cross"

    def test_cross_cell_flagged(self, trained, tmp_path):
        _, ckpt = trained
        out = str(tmp_path / "preds.csv")
        rc = main([
            "predict", "--checkpoint", ckpt,
            "--cell", "0,1,1,2",   # user domain 0, item domain 1
            "--cell", "0,1,1",     # in-domain
            "--out", out,
        ])
        assert rc == 0
        rows = [l.split(",") for l in open(out).read().splitlines()[2:]]
        assert rows[0][-1] == "1" and rows[1][-1] == "0"

    def test_w1_one_matches_common_component(self, trained, tmp_path):
        _, ckpt_path = trained
        out = str(tmp_path / "preds.csv")
        rc = main([
            "predict", "--checkpoint", ckpt_path, "--w1", "1.0",
            "--cell", "0,0,0", "--out", out,
        ])
        assert rc == 0
        value = float(open(out).read().splitlines()[2].split(",")[4])
        from pclf import (PredictionWeights, cluster_rating_matrices,
                          memberships, predict)
        ckpt = load_checkpoint(ckpt_path)
        mats = cluster_rating_matrices(ckpt.params)
        mems = memberships(ckpt.params)
        expected = predict(
            ckpt.params, mats, mems, PredictionWeights.common_only(2), 0, 0, 0
        )
        assert value == pytest.approx(expected, abs=5e-7)

    def test_complete_domain_format(self, trained, tmp_path):
        _, ckpt = trained
        out = str(tmp_path / "full.csv")
        rc = main(["predict", "--checkpoint", ckpt, "--complete", "0", "--out", out])
        assert rc == 0
        lines = open(out).read().splitlines()
        assert lines[1] == "domain,user_idx,item_idx,predicted_rating"
        assert len(lines) == 2 + 8 * 10
        first = lines[2].split(",")
        assert first[:3] == ["0", "0", "0"]
        assert 1.0 <= float(first[3]) <= 5.0

    def test_cells_file(self, trained, tmp_path):
        _, ckpt = trained
        cells = tmp_path / "cells.txt"
        cells.write_text("0,0,0\n0,1,2\n")
        rc = main([
            "predict", "--checkpoint", ckpt, "--cells", str(cells),
            "--out", str(tmp_path / "p.csv"),
        ])
        assert rc == 0
        assert len(open(tmp_path / "p.csv").read().splitlines()) == 4

    def test_mixed_cells_file_matches_library(self, trained, tmp_path, capsys):
        _, ckpt_path = trained
        cells = ["0,1,2", "1,3,4", "0,2,1,5", "1,0,0,7", "0,99,3", "1,2,50",
                 "0,42,1,1", "1,6,0,77", "0,7,9"]
        cells_file = tmp_path / "cells.txt"
        cells_file.write_text("# mixed\n" + "\n".join(cells) + "\n")
        out = str(tmp_path / "p.csv")
        assert main(["predict", "--checkpoint", ckpt_path, "--cells", str(cells_file),
                     "--out", out]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "note: 4 of 9 cells used a uniform membership for an unseen user or item"
        ]
        from pclf import (PredictionWeights, cluster_rating_matrices,
                          memberships, predict, predict_cross)
        ckpt = load_checkpoint(ckpt_path)
        params = ckpt.params
        mats, mems = cluster_rating_matrices(params), memberships(params)
        weights = PredictionWeights(w1=tuple(ckpt.default_w1))
        rows = [line.split(",") for line in open(out).read().splitlines()[2:]]
        assert len(rows) == len(cells)
        with pytest.warns(UserWarning, match="unseen"):
            for row in rows:
                du, u, dv, v = (int(x) for x in row[:4])
                if du == dv:
                    want = predict(params, mats, mems, weights, du, u, v)
                else:
                    want = predict_cross(params, mats, mems, (du, u), (dv, v), weights=weights)
                assert float(row[4]) == pytest.approx(want, abs=5e-7)
                assert row[5] == str(int(du != dv))

    def test_nothing_to_predict(self, trained, capsys):
        _, ckpt = trained
        rc = main(["predict", "--checkpoint", ckpt])
        assert rc == 1
        assert "nothing to predict" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["predict", "--cell", "a,b,c"],
    ["predict", "--cell", "7,1,1"],
    ["predict", "--cell", "0,1,-1,2"],
    ["predict", "--cell", "0,-3,5"],
    ["predict", "--cell", "0,1,1,-2"],
    ["predict", "--cell", "0,99999999999999999999,1"],
    ["predict", "--cell", "99999999999999999999,1,0,1"],
    ["predict", "--complete", "9"],
    ["train", "--betas", "x"],
    ["train", "-L", "q"],
    ["train", "--max-iters", "0"],
    ["train", "--max-iters", "-3"],
    ["train", "--model", "nmf", "--nmf-iters", "0"],
    ["evaluate", {"train": {"beta_schedule": [1.0], "max_iters_per_beta": 0}}],
    ["evaluate", {"nmf_iters": 0}],
    ["evaluate", {"nmf_rank": 0}],
    ["evaluate", {"weights": [0.5]}],
    ["evaluate", {"weights": [0.5, 1.5]}],
    ["evaluate", {"synthetic": {"Z": 1}}],
    ["synth", {"Z": 1}],
    ["synth", None],
    ["synth", b'{"Z": 1, "K": "\xff"}'],
    ["synth", b'{"Z": 1'],
], ids=["cell-not-int", "cell-domain", "cell-item-domain", "0,-3,5", "0,1,1,-2",
        "cell-past-int64", "cell-domain-past-int64", "complete-domain", "betas", "L",
        "max-iters-0", "max-iters-negative", "nmf-iters-0", "config-max-iters-0",
        "config-nmf-iters-0", "config-nmf-rank-0", "config-weights-short",
        "config-weights-above-1", "config-synthetic-missing-key", "spec-missing-key",
        "spec-unreadable", "spec-not-utf8", "spec-not-json"])
def test_malformed_value_one_line_error(trained, tmp_path, capsys, argv):
    dataset, ckpt = trained
    out = tmp_path / "m.json"
    if argv[0] == "synth":   # the spec's text, bytes, or None for a missing file
        spec = tmp_path / "spec.json"
        if isinstance(argv[1], bytes):
            spec.write_bytes(argv[1])
        elif argv[1] is not None:
            spec.write_text(json.dumps(argv[1]))
        (tmp_path / "data").mkdir()
        out = tmp_path / "data" / "ratings.csv"
        argv = ["synth", "--spec", str(spec), "--out", str(out.parent)]
    elif argv[0] == "predict":
        argv = argv + ["--checkpoint", ckpt, "--out", str(out)]
    elif argv[0] == "train":
        if "nmf" in argv:   # nmf trains one domain
            dataset = str(tmp_path / "one-domain")
            assert main(["synth", "--domains", "1", "--users", "12", "--items", "10",
                         "--density", "0.3", "--out", dataset]) == 0
            capsys.readouterr()
        argv = argv + ["--dataset", dataset, "--out", str(out)]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**SMALL_CONFIG, **argv[1]}))
        (tmp_path / "results").mkdir()
        out = tmp_path / "results" / "results.csv"
        argv = ["evaluate", "--config", str(config), "--out", str(out.parent)]
    out.write_text("previous\n")
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert out.read_text() == "previous\n"


@pytest.mark.parametrize("damage", [
    "not-json", "n_levels", "n_users", "n_items", "user_ids", "item_ids",
])
def test_corrupt_manifest_one_line_error(trained, tmp_path, capsys, damage):
    dataset, _ = trained
    manifest = os.path.join(dataset, "manifest.json")
    if damage == "not-json":
        text = open(manifest).read()[:-10]
    else:
        doc = json.load(open(manifest))
        del doc[damage]
        text = json.dumps(doc)
    open(manifest, "w").write(text)
    assert main(["train", "--dataset", dataset, "--out", str(tmp_path / "m.json")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    if damage != "not-json":
        assert repr(damage) in err[0]


@pytest.mark.parametrize("field", ["dims", "seed", "trace"])
def test_corrupt_checkpoint_header_one_line_error(trained, capsys, field):
    _, ckpt = trained
    doc = json.load(open(ckpt))
    if field == "trace":
        doc["trace"] = [[1.0]]
    else:
        del doc[field]
    json.dump(doc, open(ckpt, "w"))
    assert main(["predict", "--checkpoint", ckpt, "--cell", "0,0,0"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_no_specific_clusters_default_w1_predicts(rating_files, tmp_path, capsys):
    dataset, _ = _ingest(rating_files, tmp_path, capsys)
    ckpt = str(tmp_path / "model.json")
    rc = main([
        "train", "--dataset", dataset, "-K", "3", "-T", "2", "-L", "2,0",
        "--betas", "1.0", "--max-iters", "3", "--out", ckpt,
    ])
    assert rc == 0
    assert load_checkpoint(ckpt).default_w1 == [0.35, 1.0]
    out = str(tmp_path / "preds.csv")
    assert main(["predict", "--checkpoint", ckpt, "--cell", "1,1,1", "--out", out]) == 0
    assert main(["predict", "--checkpoint", ckpt, "--complete", "1", "--out", out]) == 0
    assert "w1=0.35,1" in open(out).readline()


def test_failed_weight_check_leaves_output_untouched(rating_files, tmp_path, capsys):
    dataset, _ = _ingest(rating_files, tmp_path, capsys)
    ckpt = str(tmp_path / "model.json")
    assert main([
        "train", "--dataset", dataset, "-K", "3", "-T", "2", "-L", "2,0",
        "--betas", "1.0", "--max-iters", "3", "--out", ckpt,
    ]) == 0
    capsys.readouterr()
    out = tmp_path / "preds.csv"
    out.write_text("previous\n")
    # domain 1 has no specific clusters, so w1 = 0.5 fails its check
    for cells in (["--complete", "1"], ["--cell", "0,1,1", "--cell", "1,1,1"]):
        argv = ["predict", "--checkpoint", ckpt, "--w1", "0.5", *cells, "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "w1 = 1" in err[0]
        assert out.read_text() == "previous\n"


@pytest.fixture
def nmf_trained(rating_files, tmp_path, capsys):
    dataset = str(tmp_path / "d0only")
    assert main(["ingest", "--input", rating_files[0], "--scale", "1:5", "--out", dataset]) == 0
    ckpt = str(tmp_path / "nmf.json")
    assert main(["train", "--dataset", dataset, "--model", "nmf", "--rank", "2",
                 "--nmf-iters", "20", "--out", ckpt]) == 0
    capsys.readouterr()
    return ckpt


class TestPredictNmf:
    def _rows(self, path):
        lines = open(path).read().splitlines()
        assert lines[:2] == ["# model_kind=nmf", "domain,user_idx,item_idx,predicted_rating"]
        return [line.split(",") for line in lines[2:]]

    def test_cells_match_nmf_predict(self, nmf_trained, tmp_path):
        out = str(tmp_path / "p.csv")
        assert main(["predict", "--checkpoint", nmf_trained, "--cell", "0,3,4",
                     "--cell", "0,0,9", "--out", out]) == 0
        ckpt = load_checkpoint(nmf_trained)
        rows = self._rows(out)
        assert [row[:3] for row in rows] == [["0", "3", "4"], ["0", "0", "9"]]
        for row in rows:
            want = nmf_predict(ckpt.factors, int(row[1]), int(row[2]), ckpt.n_levels)
            assert float(row[3]) == pytest.approx(want, abs=5e-7)

    def test_complete_matches_nmf_predict(self, nmf_trained, tmp_path):
        out = str(tmp_path / "p.csv")
        assert main(["predict", "--checkpoint", nmf_trained, "--complete", "0",
                     "--out", out]) == 0
        ckpt = load_checkpoint(nmf_trained)
        rows = self._rows(out)
        assert [(int(r[1]), int(r[2])) for r in rows] == [(u, v) for u in range(8)
                                                          for v in range(10)]
        for row in rows:
            want = nmf_predict(ckpt.factors, int(row[1]), int(row[2]), ckpt.n_levels)
            assert float(row[3]) == pytest.approx(want, abs=5e-7)

    def test_domain_one_cell_rejected(self, nmf_trained, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert main(["predict", "--checkpoint", nmf_trained, "--cell", "0,1,1",
                     "--cell", "1,0,0", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()


class TestInspect:
    def test_prints_dims_and_matrices(self, trained, capsys):
        _, ckpt = trained
        rc = main(["inspect", "--checkpoint", ckpt])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "K=3 T=2 L=2,2" in printed
        assert "common cluster-level rating matrix" in printed
        assert "user cluster 0 top users" in printed

    def test_version_mismatch_nonzero(self, trained, tmp_path, capsys):
        _, ckpt = trained
        text = open(ckpt).read().replace("pclf-model-v1", "pclf-model-v2")
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        rc = main(["inspect", "--checkpoint", str(bad)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "pclf-model-v1" in err and "pclf-model-v2" in err

    def test_s_matrix_entries_in_range(self, trained, capsys):
        _, ckpt_path = trained
        ckpt = load_checkpoint(ckpt_path)
        from pclf import cluster_rating_matrices
        mats = cluster_rating_matrices(ckpt.params)
        assert (mats.s_com >= 1.0).all() and (mats.s_com <= 5.0).all()

    def test_single_cluster_checkpoint(self, trained, tmp_path, capsys):
        dataset, _ = trained
        ckpt = str(tmp_path / "tiny.json")
        rc = main([
            "train", "--dataset", dataset, "-K", "1", "-T", "1", "-L", "1",
            "--betas", "1.0", "--max-iters", "2", "--out", ckpt,
        ])
        assert rc == 0
        capsys.readouterr()
        assert main(["inspect", "--checkpoint", ckpt]) == 0
        printed = capsys.readouterr().out
        assert "K=1 T=1 L=1,1" in printed
        # the one-cell common matrix is the mean rating, inside [1, 5]
        value = float(printed.split("[[")[1].split("]]")[0])
        assert 1.0 <= value <= 5.0


class TestSynthAndEvaluate:
    def test_synth_writes_dataset(self, tmp_path, capsys):
        out = str(tmp_path / "synth")
        rc = main([
            "synth", "--domains", "2", "-K", "2", "-T", "2", "-L", "2",
            "--users", "10", "--items", "8", "--density", "0.5",
            "--seed", "3", "--out", out,
            "--params-out", str(tmp_path / "true.json"),
        ])
        assert rc == 0
        ds = load_dataset(out)
        assert ds.n_domains == 2
        assert load_checkpoint(str(tmp_path / "true.json")).model_kind == "pclf"

    def test_evaluate_minimal_config(self, tmp_path, capsys):
        config = {
            "synthetic": {
                "Z": 2, "K": 2, "T": 2, "L": [1, 1], "R": 5,
                "M": [14, 14], "N": [10, 10], "w1": 0.6,
                "density": 0.5, "seed": 2,
            },
            "given_n": [5],
            "n_train_users": 9,
            "dims": {"K": 2, "T": 2, "L": [1, 1]},
            "models": ["pclf", "fmm"],
            "train": {"beta_schedule": [1.0], "max_iters_per_beta": 4},
            "n_repeats": 1,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = str(tmp_path / "results")
        rc = main(["evaluate", "--config", str(cfg_path), "--out", out])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "pclf" in printed and "fmm" in printed
        results = open(f"{out}/results.csv").read().splitlines()
        assert results[0] == "model,domain,given_n,repeat,mae"
        assert len(results) == 1 + 2 * 2
        table = open(f"{out}/table.txt").read()
        assert "given5" in table

    def test_invalid_config_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"plum": 1, "given_n": [5], "n_train_users": 1,
                                   "dims": {}, "models": ["pclf"]}))
        rc = main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "plum" in capsys.readouterr().err

    def test_evaluate_file_domains_with_subset(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        paths = []
        for d, scale_hi in enumerate((5, 9)):
            lines = []
            for u in range(30):
                for v in rng.choice(25, size=12, replace=False):
                    lines.append(f"u{u}\ti{v}\t{rng.integers(0 if d else 1, scale_hi + 1)}")
            p = tmp_path / f"dom{d}.tsv"
            p.write_text("\n".join(lines) + "\n")
            paths.append(str(p))
        config = {
            "domains": [
                {"path": paths[0], "scale": {"min": 1, "max": 5}, "name": "movies"},
                {"path": paths[1], "scale": {"min": 0, "max": 9}, "name": "books"},
            ],
            "subset": {"n_users": 25, "n_items": 20, "min_user_ratings": 5},
            "given_n": [5],
            "n_train_users": 15,
            "dims": {"K": 2, "T": 2, "L": [1, 1]},
            "models": ["pclf"],
            "train": {"beta_schedule": [1.0], "max_iters_per_beta": 4},
            "n_repeats": 2,
            "base_seed": 1,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = str(tmp_path / "results")
        rc = main(["evaluate", "--config", str(cfg_path), "--out", out])
        assert rc == 0
        table = open(f"{out}/table.txt").read()
        assert "movies" in table and "books" in table
        results = open(f"{out}/results.csv").read().splitlines()
        assert len(results) == 1 + 2 * 2  # two domains x two repeats

    def test_repeats_flag_overrides(self, tmp_path, capsys):
        config = {
            "synthetic": {
                "Z": 2, "K": 2, "T": 2, "L": [1, 1], "R": 5,
                "M": [12, 12], "N": [8, 8], "w1": 0.6,
                "density": 0.5, "seed": 2,
            },
            "given_n": [5],
            "n_train_users": 8,
            "dims": {"K": 2, "T": 2, "L": [1, 1]},
            "models": ["pclf"],
            "train": {"beta_schedule": [1.0], "max_iters_per_beta": 3},
            "n_repeats": 5,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = str(tmp_path / "results")
        rc = main(["evaluate", "--config", str(cfg_path), "--out", out, "--repeats", "2"])
        assert rc == 0
        results = open(f"{out}/results.csv").read().splitlines()
        assert len(results) == 1 + 2 * 2


# a small synthetic experiment: every model, 2 repeats and 2 Given-N values
SMALL_CONFIG = {
    "synthetic": {"Z": 2, "K": 2, "T": 2, "L": [1, 1], "R": 5, "M": [14, 14],
                  "N": [10, 10], "w1": 0.6, "density": 0.5, "seed": 2},
    "given_n": [2, 4], "n_train_users": 9, "dims": {"K": 2, "T": 2, "L": [1, 1]},
    "models": list(KNOWN_MODELS), "nmf_rank": 2, "nmf_iters": 5,
    "train": {"beta_schedule": [1.0], "max_iters_per_beta": 3}, "n_repeats": 2,
}


def _evaluate_small(tmp_path, models=KNOWN_MODELS):
    """Run ``pclf evaluate`` on ``SMALL_CONFIG`` with ``models``; return the
    exit code and the output directory."""
    config = {**SMALL_CONFIG, "models": list(models)}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "results"
    return main(["evaluate", "--config", str(cfg_path), "--out", str(out)]), out


def test_evaluate_worker_error_one_line(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise DataError("matrix has no observed entries")

    monkeypatch.setattr(baselines, "nmf_train", fail)
    rc, out = _evaluate_small(tmp_path)
    assert rc == 1
    assert capsys.readouterr().err == "error: matrix has no observed entries\n"
    assert os.listdir(out) == []


@pytest.mark.parametrize("one_cpu", [False, True])
def test_evaluate_worker_death_one_line(tmp_path, monkeypatch, capsys, one_cpu):
    monkeypatch.setattr(baselines, "nmf_train", lambda *args, **kwargs: os._exit(3))
    if one_cpu:   # pclf is fitted, then nmf dies and fmm never starts
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    rc, out = _evaluate_small(tmp_path, models=["pclf", "nmf", "fmm"])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: a worker process died during "
                                               "repeat=0 given=2; models without a result: ")
    lost = err[0].rsplit(": ", 1)[1].split(", ")
    assert lost == ["nmf", "fmm"] if one_cpu else "nmf" in lost
    assert os.listdir(out) == []


def test_evaluate_no_models_one_line(tmp_path, capsys):
    rc, _ = _evaluate_small(tmp_path, models=[])
    assert rc == 1
    assert capsys.readouterr().err == "error: cannot render an empty report\n"


@pytest.mark.parametrize("line, reason", [
    ("0,1", "cell must be"),
    ("0,1,x", "cell must be"),
    ("0,-3,5", "indices must be >= 0"),
    ("0,2,1,-1", "indices must be >= 0"),
    ("0,99999999999999999999,1", "fit in 64 bits"),
    ("0,1,0,-99999999999999999999", "indices must be >= 0"),
], ids=["short", "not-int", "negative-user", "negative-item", "past-int64",
        "below-int64"])
def test_cells_file_error_names_line(trained, tmp_path, capsys, line, reason):
    _, ckpt = trained
    cells = tmp_path / "cells.txt"
    cells.write_text(f"0,0,0\n# a comment\n{line}\n0,1,1\n")
    assert main(["predict", "--checkpoint", ckpt, "--cells", str(cells)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {cells}:3: ")
    assert reason in err[0]


def test_non_utf8_cells_file_one_line_error(trained, tmp_path, capsys):
    _, ckpt = trained
    cells = tmp_path / "cells.txt"
    cells.write_bytes(b"0,0,0\n0,1,\xff\n")
    out = tmp_path / "preds.csv"
    out.write_text("previous\n")
    argv = ["predict", "--checkpoint", ckpt, "--cells", str(cells), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {cells} is not UTF-8")
    assert out.read_text() == "previous\n"


def test_non_utf8_ratings_csv_one_line_error(trained, tmp_path, capsys):
    dataset, ckpt = trained
    ratings = os.path.join(dataset, "ratings.csv")
    with open(ratings, "ab") as fh:
        fh.write(b"0,1,\xff,3\r\n")
    before = open(ckpt, "rb").read()
    assert main(["train", "--dataset", dataset, "--out", ckpt]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {ratings} is not UTF-8")
    assert open(ckpt, "rb").read() == before


def test_non_utf8_checkpoint_one_line_error(trained, tmp_path, capsys):
    _, ckpt = trained
    with open(ckpt, "r+b") as fh:
        fh.seek(10)
        fh.write(b"\xff")
    out = tmp_path / "preds.csv"
    out.write_text("previous\n")
    for argv in (["predict", "--cell", "0,0,0", "--out", str(out)], ["inspect"]):
        assert main(argv + ["--checkpoint", ckpt]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: checkpoint {ckpt} is not UTF-8")
    assert out.read_text() == "previous\n"


def test_non_utf8_config_one_line_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b'{"given_n": [\xff]}')
    out = tmp_path / "results"
    assert main(["evaluate", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: experiment config {config} is not UTF-8")
    assert not out.exists()


def test_non_utf8_ingest_input_one_line_error(tmp_path, capsys):
    source = tmp_path / "ratings.tsv"
    source.write_bytes(b"u1\ti1\t3\nu\xff\ti2\t4\n")
    out = str(tmp_path / "dataset")
    assert main(["ingest", "--input", str(source), "--scale", "1:5", "--out", out]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {source} is not UTF-8")
    assert not os.path.exists(out)


def _formatted(*columns) -> str:
    """The f-string lines the CSV writer replaces."""
    return "".join(
        ",".join(f"{x:.6f}" if isinstance(x, float) else f"{x}" for x in row) + "\n"
        for row in zip(*(c.tolist() for c in columns))
    )


def _check_writer(ints, values):
    ints = np.asarray(ints, dtype=np.int64)
    values = np.asarray(values, dtype=float)
    tail = ints[::-1].copy()
    assert _csv_rows(ints, values, tail) == _formatted(ints, values, tail)
    assert _csv_rows(ints, tail, values) == _formatted(ints, tail, values)


index_columns = st.lists(
    st.one_of(st.sampled_from([0, 1, 9, 10, 99, 100, 999, 1000, 1001, 999_999, 10**6]),
              st.integers(0, 10).map(lambda k: 10**k), st.integers(0, 2**63 - 1)),
    min_size=1, max_size=40)


class TestCsvWriter:
    """``cli._csv_rows`` writes the bytes of the f-strings it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_any_float(self, data):
        values = data.draw(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                                    min_size=1, max_size=40))
        ints = data.draw(st.lists(st.integers(0, 2**63 - 1), min_size=len(values),
                                  max_size=len(values)))
        _check_writer(ints, values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 128 * 12), min_size=1, max_size=40), index_columns)
    def test_exact_ties(self, numerators, ints):
        # j/128 has seven decimals, so the sixth rounds half to even
        values = [j / 128 for j in numerators]
        _check_writer((ints * len(values))[:len(values)], values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 999_999_999), st.floats(-1e-9, 1e-9)),
                    min_size=1, max_size=40))
    def test_near_rounding_boundary(self, points):
        # the doubles nearest a half unit of the sixth decimal, and others
        # within 1e-9 of it
        half = np.array([(k + 0.5) / 1e6 for k, _ in points])
        values = np.concatenate([half, np.nextafter(half, 0), np.nextafter(half, np.inf),
                                 half + [d for _, d in points]])
        _check_writer(range(len(values)), values)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 20), index_columns)
    def test_integer_levels(self, levels, ints):
        values = [float(r) for r in range(1, levels + 1)] + [levels - 4e-7, 9.9999996]
        _check_writer((ints * len(values))[:len(values)], values)

    def test_carry_into_new_digit(self):
        assert _csv_rows(np.array([0]), np.array([9.9999996])) == "0,10.000000\n"
        _check_writer([0, 1], [999.9999996, 99.9999995])

    def test_negative_zero_and_tiny_negatives(self):
        assert _csv_rows(np.array([0, 1]), np.array([-0.0, -4e-7])) == (
            "0,-0.000000\n1,-0.000000\n")
        _check_writer([0, 1, 2], [-0.0, -1e-9, 0.0])

    @pytest.mark.parametrize("block_rows", [2, 7, 1 << 14])
    def test_complete_rows_cross_digit_boundaries(self, monkeypatch, block_rows):
        monkeypatch.setattr(cli, "BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(0)
        rows = rng.uniform(1, 12, size=(1002, 3))
        written = []
        sink = cli._row_sink(written.append, 1, len(rows))
        for u, row in enumerate(rows):
            sink(u, row)
        users = np.repeat(np.arange(len(rows)), 3)
        items = np.tile(np.arange(3), len(rows))
        assert "".join(written) == _formatted(np.ones_like(users), users, items, rows.ravel())
        if block_rows > len(rows.ravel()):
            assert len(written) == 1    # users 9|10, 99|100 and 999|1000 share a block


@pytest.mark.parametrize("text", [
    "0,1,2\n1,3,4\n",
    "0,1,2\r\n1,3,4\r\n",
    "0,1,2\n0,1,1,3\n",
    "# cells\n0,1,2\n",
    "0,1,2\n\n1,3,4\n",
    "\n0,1,2",
    " 0,1,2 \n\t1,3,4\n",
    "+1,1,2\n",
    "1_0,1,2\n",
    "1.0,1,2\n",
    "0,1,2 # x\n",
    "0,1,2#9\n",
    "0,-1,2\n",
    "0,1,-2\n",
    "0,1\n",
    "0,1,2,3,4\n",
    "0,,2\n",
    "0,1,2,\n",
    "",
    "\n\n",
    "9223372036854775807,1,2\n",
    "9223372036854775808,1,2\n",
], ids=["lf", "crlf", "mixed-3-4", "comment-line", "blank-line", "leading-blank",
        "whitespace", "plus", "underscore", "decimal", "trailing-comment", "glued-comment",
        "negative-user", "negative-item", "two-fields", "five-fields", "empty-field",
        "trailing-comma", "empty", "only-blank", "int64-max", "past-int64"])
def test_cells_reader_matches_line_parser(tmp_path, text):
    path = tmp_path / "cells.txt"
    path.write_bytes(text.encode())
    assert _outcome(cli._read_cells, path) == _outcome(cli._parse_cells_file, path)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(alphabet="0123456789,\n\r #+-_.\t", max_size=40),
    st.text(alphabet="0123456789,\n#", max_size=40),
    st.lists(st.lists(st.integers(0, 10**4).map(str), min_size=3, max_size=4)
             .map(",".join), max_size=8).map("\n".join),
))
def test_cells_reader_matches_line_parser_property(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("cells") / "cells.txt"
    path.write_bytes(text.encode())
    assert _outcome(cli._read_cells, path) == _outcome(cli._parse_cells_file, path)


def _outcome(read, path):
    """What ``read(path)`` returns, as a list, or the error it raises."""
    try:
        return read(str(path)).tolist()
    except Exception as exc:   # the two readers must fail alike
        return type(exc).__name__, str(exc)
