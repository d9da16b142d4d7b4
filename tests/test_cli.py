import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pclf import (
    DataError,
    TrainConfig,
    baselines,
    cli,
    data,
    evaluate,
    load_checkpoint,
    load_dataset,
    nmf_predict,
    save_checkpoint,
)
from pclf.cli import main
from pclf.data import _csv_rows
from pclf.evaluate import KNOWN_MODELS

# a small synthetic experiment: every model, 2 repeats and 2 Given-N values
SMALL_CONFIG = {
    "synthetic": {"Z": 2, "K": 2, "T": 2, "L": [1, 1], "R": 5, "M": [14, 14],
                  "N": [10, 10], "w1": 0.6, "density": 0.5, "seed": 2},
    "given_n": [2, 4], "n_train_users": 9, "dims": {"K": 2, "T": 2, "L": [1, 1]},
    "models": list(KNOWN_MODELS), "nmf_rank": 2, "nmf_iters": 5,
    "train": {"beta_schedule": [1.0], "max_iters_per_beta": 3}, "n_repeats": 2,
}
# SMALL_CONFIG's overrides for one domain read from a raw rating file
RAW_DOMAIN = {"synthetic": None, "dims": {"K": 2, "T": 2, "L": 1}, "models": ["pclf", "nmf"]}


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

    def test_train_starts_no_thread_pool(self, rating_files, tmp_path, capsys):
        # init draws on the calling thread, so training loads no executor;
        # a fresh interpreter, since pytest's own process may have loaded one
        dataset, _ = _ingest(rating_files, tmp_path, capsys)
        argv = ["train", "--dataset", dataset, "-K", "3", "-T", "2", "-L", "2",
                "--betas", "1.0", "--max-iters", "2", "--out", str(tmp_path / "model.json")]
        script = ("import sys; from pclf.cli import main\n"
                  f"assert main({argv!r}) == 0\n"
                  "print('concurrent.futures' in sys.modules)")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "False"


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
    ["predict", "--complete", "-1"],
    ["train", "--betas", "x"],
    ["train", "-L", "q"],
    ["train", "--max-iters", "0"],
    ["train", "--max-iters", "-3"],
    ["train", "--model", "nmf", "--nmf-iters", "0"],
    ["train", "--w1", "1.5"],
    ["train", "--w1", "-0.1"],
    ["train", "--seed", "-1"],
    ["train", "--floor", "nan"],
    ["train", "--floor", "inf"],
    ["train", "--tol", "nan"],
    ["evaluate", {"train": {"beta_schedule": [1.0], "max_iters_per_beta": 0}}],
    ["evaluate", {"nmf_iters": 0}],
    ["evaluate", {"nmf_rank": 0}],
    ["evaluate", {"weights": [0.5]}],
    ["evaluate", {"weights": [0.5, 1.5]}],
    ["evaluate", {"weights": [True, False]}],
    ["evaluate", {"synthetic": {"Z": 1}}],
    ["evaluate", {"nmf_rank": "x"}],
    ["evaluate", {"given_n": 5}],
    ["evaluate", {"given_n": [3, 3]}],
    ["evaluate", {"models": ["pclf", "fmm", "pclf"]}],
    ["evaluate", {"given_n": []}],
    ["evaluate", {"models": []}],
    ["evaluate", {"n_repeats": None}],
    ["evaluate", {"train": {"beta_schedule": 1.0}}],
    ["evaluate", {"synthetic": {**SMALL_CONFIG["synthetic"], "L": 2}}],
    ["evaluate", {"dims": {"K": "a", "T": 2, "L": [1, 1]}}],
    ["evaluate", {"base_seed": -5}],
    ["evaluate", {"synthetic": {**SMALL_CONFIG["synthetic"], "seed": -3}}],
    ["evaluate", {"train": {"seed": -1}}],
    # json writes NaN and Infinity, and Python's reader takes them back
    ["evaluate", {"train": {"smoothing_floor": float("nan")}}],
    ["evaluate", {"train": {"smoothing_floor": float("inf")}}],
    ["evaluate", {"train": {"rel_ll_tol": float("nan")}}],
    ["synth", {"Z": 1}],
    ["synth", None],
    ["synth", b'{"Z": 1, "K": "\xff"}'],
    ["synth", b'{"Z": 1'],
    ["train", "-K", "x"],
    ["train", "--floor", "1.5"],
    ["train", "-K", "100000000000000000000"],
    ["train", "--model", "nmf", "--rank", "100000000000000000000"],
    ["predict", "--complete", "nan"],
    ["predict", "--complete", "0", "--cell", "0,1,2"],
    ["predict", "--complete", "0", "--mix-specific"],
    # raw rating files: RAW is a well-formed one, RAW_NAN holds a nan rating
    ["ingest", "RAW_NAN"],
    ["ingest", "RAW", "--scale", "1:inf"],
    ["ingest", "RAW", "--delimiter", ""],
    ["ingest", "RAW", "--select-users", "-3"],
    ["ingest", "RAW", "--levels", "100000000000000000000"],
    ["ingest", "RAW", "--columns", "0,1,-5"],
    ["ingest", "RAW", "--columns", "0,0,2"],
    ["ingest", "RAW", "--columns", "0,1"],
    ["ingest", "RAW", "--columns", "0,1,2,3"],
    ["evaluate", {**RAW_DOMAIN, "domains": [{"path": "RAW_NAN",
                                             "scale": {"min": 1, "max": 5}}]}],
    ["evaluate", {**RAW_DOMAIN, "domains": [{"path": "RAW",
                                             "scale": {"min": 1, "max": float("inf")}}]}],
    ["evaluate", {**RAW_DOMAIN, "domains": [{"path": "RAW",
                                             "scale": {"min": 1, "max": 10**400}}]}],
    ["evaluate", {**RAW_DOMAIN, "domains": [{"path": "RAW", "delimiter": "",
                                             "scale": {"min": 1, "max": 5}}]}],
    ["evaluate", {**RAW_DOMAIN, "domains": [{"path": "RAW", "scale": {"min": 1, "max": 5}}],
                  "subset": {"n_users": -3, "n_items": 2}}],
    ["evaluate", {**RAW_DOMAIN, "domains": [{"path": "RAW", "columns": [0, 1, -9],
                                             "scale": {"min": 1, "max": 5}}]}],
    ["evaluate", {**RAW_DOMAIN, "domains": [{"path": "RAW", "columns": [0, 0, 2],
                                             "scale": {"min": 1, "max": 5}}]}],
    ["evaluate", {**RAW_DOMAIN, "domains": [{"path": "RAW", "name": "two\nlines",
                                             "scale": {"min": 1, "max": 5}}]}],
    # rmgm-like pools the domains, so it needs two, whichever source gives them
    ["evaluate", {**RAW_DOMAIN, "models": list(KNOWN_MODELS),
                  "domains": [{"path": "RAW", "scale": {"min": 1, "max": 5}}]}],
    ["evaluate", {"synthetic": {**SMALL_CONFIG["synthetic"], "Z": 1, "L": [1], "M": [14],
                                "N": [10]}, "dims": {"K": 2, "T": 2, "L": [1]}}],
], ids=["cell-not-int", "cell-domain", "cell-item-domain", "0,-3,5", "0,1,1,-2",
        "cell-past-int64", "cell-domain-past-int64", "complete-domain",
        "complete-domain-negative", "betas", "L",
        "max-iters-0", "max-iters-negative", "nmf-iters-0", "w1-above-1", "w1-negative",
        "seed-negative", "floor-nan", "floor-inf", "tol-nan", "config-max-iters-0",
        "config-nmf-iters-0", "config-nmf-rank-0", "config-weights-short",
        "config-weights-above-1", "config-weights-bool", "config-synthetic-missing-key",
        "config-nmf-rank-string", "config-given-n-not-list", "config-given-n-repeated",
        "config-models-repeated", "config-given-n-empty", "config-models-empty",
        "config-n-repeats-null", "config-beta-schedule-number",
        "config-synthetic-L-int", "config-dims-K-string", "config-base-seed-negative",
        "config-synthetic-seed-negative", "config-train-seed-negative", "config-floor-nan",
        "config-floor-inf", "config-tol-nan", "spec-missing-key",
        "spec-unreadable", "spec-not-utf8", "spec-not-json", "K-not-int", "floor-above-1",
        "K-past-numpy", "nmf-rank-past-numpy", "complete-not-int", "complete-with-cell",
        "complete-with-mix-specific", "ingest-rating-nan", "ingest-scale-inf",
        "ingest-delimiter-empty", "ingest-select-users-negative", "ingest-levels-past-int64",
        "ingest-columns-negative", "ingest-columns-repeated",
        "ingest-columns-two", "ingest-columns-four", "config-rating-nan",
        "config-scale-inf", "config-scale-past-float", "config-delimiter-empty",
        "config-subset-negative", "config-columns-negative", "config-columns-repeated",
        "config-name-line-break", "config-rmgm-one-domain", "config-rmgm-synthetic-Z-1"])
def test_malformed_value_one_line_error(trained, tmp_path, capsys, argv):
    dataset, ckpt = trained
    out = tmp_path / "m.json"
    raws = {"RAW": tmp_path / "raw.tsv", "RAW_NAN": tmp_path / "raw-nan.tsv"}
    raws["RAW"].write_text("".join(f"u{u}\tm{v}\t{1 + (u + v) % 5}\n"
                                   for u in range(12) for v in range(6)))
    raws["RAW_NAN"].write_text(raws["RAW"].read_text() + "u3\tm9\tnan\n")
    if argv[0] in ("synth", "ingest"):
        (tmp_path / "data").mkdir()
        out = tmp_path / "data" / "ratings.csv"
    if argv[0] == "synth":   # the spec's text, bytes, or None for a missing file
        spec = tmp_path / "spec.json"
        if isinstance(argv[1], bytes):
            spec.write_bytes(argv[1])
        elif argv[1] is not None:
            spec.write_text(json.dumps(argv[1]))
        argv = ["synth", "--spec", str(spec), "--out", str(out.parent)]
    elif argv[0] == "ingest":
        flags = argv[2:] if "--scale" in argv else argv[2:] + ["--scale", "1:5"]
        argv = ["ingest", "--input", str(raws[argv[1]]), *flags, "--out", str(out.parent)]
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
        fields = {**SMALL_CONFIG, **argv[1]}
        if "domains" in fields:
            fields["domains"] = [{**d, "path": str(raws[d["path"]])} for d in fields["domains"]]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(fields))
        (tmp_path / "results").mkdir()
        out = tmp_path / "results" / "results.csv"
        argv = ["evaluate", "--config", str(config), "--out", str(out.parent)]
    out.write_text("previous\n")
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert out.read_text() == "previous\n"


@pytest.mark.parametrize("argv", [[], ["nope"], ["train"], ["predict", "--bogus", "1"]],
                         ids=["no-command", "unknown-command", "missing-flags", "unknown-flag"])
def test_usage_error_one_line(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and captured.out == ""


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["train", "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: pclf train")


def test_out_of_memory_one_line_error(trained, tmp_path, monkeypatch, capsys):
    dataset, _ = trained
    message = ("Unable to allocate 16.0 TiB for an array with shape (1000000000, 2200) "
               "and data type float64")

    def fail(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(evaluate, "fit", fail)
    out = tmp_path / "m.json"
    out.write_text("previous\n")
    assert main(["train", "--dataset", dataset, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: out of memory: {message}\n"
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


@pytest.mark.parametrize("field", ["dims", "seed", "trace", "default_w1", "unread",
                                   "trace-types", "trace-nan", "trace-pair", "seed-negative",
                                   "nmf-u-width", "nmf-rank", "nmf-levels-1", "nmf-levels-0"])
def test_corrupt_checkpoint_header_one_line_error(request, capsys, field):
    nmf = field.startswith("nmf")
    ckpt = request.getfixturevalue("nmf_trained") if nmf else request.getfixturevalue("trained")[1]
    doc = json.load(open(ckpt))
    if field == "trace":
        doc["trace"] = [[1.0]]
    elif field == "trace-types":
        doc["trace"] = [["0.5", 2.7, "-3"], [True, False, 1]]
    elif field == "trace-nan":
        doc["trace"][-1][2] = float("nan")
    elif field == "trace-pair":
        doc["trace"][-1] = doc["trace"][-1][:2]
    elif field == "seed-negative":
        doc["seed"] = -1
    elif field == "default_w1":
        doc["default_w1"] = [0.5]   # one weight for two domains
    elif field == "unread":   # a third domain's array and an nmf key
        doc["arrays"]["prior_vspe_2"] = doc["arrays"]["prior_vspe_1"]
        doc["rank"] = 3
    elif field == "nmf-u-width":   # rank 2, one factor column fewer
        u = doc["arrays"]["u_factors"]
        u["shape"][1] = 1
        u["data"] = u["data"][::2]
    elif field == "nmf-rank":
        doc["rank"] = 7
    elif nmf:
        doc["n_levels"] = int(field[-1])
    else:
        del doc[field]
    json.dump(doc, open(ckpt, "w"))
    for argv in (["predict", "--cell", "0,1,1" if nmf else "1,1,1"],
                 ["predict", "--complete", "0"], ["inspect"]):
        assert main([*argv, "--checkpoint", ckpt]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and captured.out == ""


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


@pytest.mark.parametrize("kind", KNOWN_MODELS)
def test_fit_writes_the_checkpoint_train_writes(rating_files, tmp_path, capsys, kind):
    """``evaluate.fit`` then ``save_checkpoint`` writes the bytes of
    ``pclf train --model <kind>`` on the same data and settings."""
    if kind in ("fmm", "nmf"):   # single-domain models
        dataset = str(tmp_path / "one-domain")
        assert main(["ingest", "--input", rating_files[0], "--scale", "1:5",
                     "--out", dataset]) == 0
    else:
        dataset, _ = _ingest(rating_files, tmp_path, capsys)
    ds = load_dataset(dataset)
    specific = [2, 0][:ds.n_domains]
    cli_out, lib_out = tmp_path / "cli.json", tmp_path / "lib.json"
    assert main([
        "train", "--dataset", dataset, "--model", kind, "-K", "3", "-T", "2",
        "-L", ",".join(map(str, specific)), "--betas", "0.7,1.0", "--max-iters", "3",
        "--seed", "4", "--w1", "0.4", "--rank", "2", "--nmf-iters", "7", "--out", str(cli_out),
    ]) == 0
    config = TrainConfig(beta_schedule=(0.7, 1.0), max_iters_per_beta=3, seed=4)
    ckpt = evaluate.fit(kind, ds, 3, 2, specific, config, [0.4] * ds.n_domains, 2, 7)
    save_checkpoint(str(lib_out), ckpt)
    assert lib_out.read_bytes() == cli_out.read_bytes()


@pytest.mark.parametrize("model", ["pclf", "rmgm-like"])
def test_evaluate_no_specific_clusters_scores_with_w1_one(tmp_path, capsys, model):
    """A pooled model with no specific clusters in domain 1 scores that
    domain with w1 = 1, whatever ``weights`` gives it."""
    outputs = []
    for weights in ([0.3, 0.0], [0.3, 1.0]):
        config = {**SMALL_CONFIG, "dims": {"K": 2, "T": 2, "L": [2, 0]},
                  "models": [model], "weights": weights}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / f"results-{weights[1]}"
        assert main(["evaluate", "--config", str(cfg_path), "--out", str(out)]) == 0
        outputs.append((out / "results.csv").read_text())
    rows = [line.split(",") for line in outputs[0].splitlines()[1:]]
    assert {(m, int(z)) for m, z, *_ in rows} == {(model, 0), (model, 1)}
    assert outputs[0] == outputs[1]


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
        # without --out, nothing reaches stdout, not even the header
        assert main(argv[:-2]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        # a symlink target is written in place, so its file must not be opened
        link = tmp_path / "link.csv"
        link.symlink_to(out)
        assert main(argv[:-1] + [str(link)]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert out.read_text() == "previous\n"
        link.unlink()


@pytest.mark.parametrize("target", ["complete", "cells"])
def test_failed_predict_write_keeps_previous_file(trained, tmp_path, capsys, monkeypatch,
                                                  target):
    """A write that fails on a later block leaves ``--out`` as it was and
    no temp file beside it."""
    _, ckpt = trained
    if target == "complete":
        source = ["--complete", "0"]
    else:
        cells = tmp_path / "cells.txt"
        cells.write_text("".join(f"0,{u},{v}\n" for u in range(4) for v in range(5)))
        source = ["--cells", str(cells)]
    (tmp_path / "preds").mkdir()
    out = tmp_path / "preds" / "p.csv"
    out.write_text("previous\n")
    csv_rows, calls = data._csv_rows, []

    def broken_csv_rows(*columns, **kwargs):   # the third block fails
        calls.append(len(columns[0]))
        if len(calls) == 3:
            raise OSError("disk full")
        return csv_rows(*columns, **kwargs)

    monkeypatch.setattr(data, "BLOCK_ROWS", 4)
    monkeypatch.setattr(data, "_csv_rows", broken_csv_rows)
    assert main(["predict", "--checkpoint", ckpt, *source, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: disk full\n"
    assert out.read_text() == "previous\n"
    assert [p.name for p in (tmp_path / "preds").iterdir()] == ["p.csv"]


def test_out_name_at_the_name_limit(trained, tmp_path):
    """A 250-byte file name leaves no room for a suffix, so the temp file
    is not named after the target; the file gets a plain open's mode."""
    dataset, ckpt = trained
    (tmp_path / "long").mkdir()
    out = tmp_path / "long" / ("m" * 245 + ".json")
    assert main(["train", "--dataset", dataset, "-K", "3", "-T", "2", "-L", "2",
                 "--betas", "1.0", "--max-iters", "5", "--out", str(out)]) == 0
    assert [p.name for p in (tmp_path / "long").iterdir()] == [out.name]
    assert out.read_bytes() == open(ckpt, "rb").read()
    plain = tmp_path / "plain"
    plain.write_text("")
    assert out.stat().st_mode == plain.stat().st_mode


class _HalfWriter:
    """A file opened for writing whose first write puts out half its text
    and then fails, as on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[:len(text) // 2])
        raise OSError("disk full")


def test_failed_evaluate_write_keeps_previous_files(tmp_path, capsys, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SMALL_CONFIG, "models": ["pclf"], "n_repeats": 1}))
    out = tmp_path / "results"
    out.mkdir()
    names = ["results.csv", "table.csv", "table.txt"]
    for name in names:
        (out / name).write_text("previous\n")

    def half_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        return _HalfWriter(fh) if "w" in mode else fh

    # every module that may open an output file sees the failing writer
    for module in (cli, data):
        monkeypatch.setattr(module, "open", half_open, raising=False)
    assert main(["evaluate", "--config", str(config), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: disk full\n" and captured.out == ""
    assert sorted(p.name for p in out.iterdir()) == names
    assert all((out / name).read_text() == "previous\n" for name in names)


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

    @pytest.mark.parametrize("flag", [["--w1", "0.5"], ["--mix-specific"]])
    @pytest.mark.parametrize("source", [["--complete", "0"], ["--cell", "0,1,1"]])
    def test_cluster_weight_flags_refused(self, nmf_trained, tmp_path, capsys, flag, source):
        out = tmp_path / "p.csv"
        out.write_text("previous\n")
        assert main(["predict", "--checkpoint", nmf_trained, *source, *flag,
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and captured.out == ""
        assert out.read_text() == "previous\n"

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

    def test_negative_top_one_line_error(self, trained, capsys):
        _, ckpt = trained
        assert main(["inspect", "--checkpoint", ckpt, "--top", "-2"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --top must be >= 0, got -2\n" and captured.out == ""


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

    def test_synth_params_out_predicts_without_specific_clusters(self, tmp_path, capsys):
        """The generating checkpoint stores the weights ``fit`` would, so a
        domain without specific clusters predicts with its own default."""
        ckpt = str(tmp_path / "true.json")
        assert main(["synth", "--domains", "2", "-K", "2", "-T", "2", "-L", "2,0",
                     "--users", "10", "--items", "8", "--density", "0.5", "--w1", "0.6",
                     "--out", str(tmp_path / "synth"), "--params-out", ckpt]) == 0
        stored = load_checkpoint(ckpt)
        assert stored.default_w1 == evaluate.checkpoint_w1(stored.params.dims, [0.6, 0.6])
        assert stored.default_w1 == [0.6, 1.0]
        capsys.readouterr()
        assert main(["predict", "--checkpoint", ckpt, "--complete", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# model_kind=pclf w1=0.6,1" and len(lines) == 2 + 10 * 8

    def test_synth_flags_match_spec(self, tmp_path, capsys):
        flags = ["--domains", "2", "-K", "3", "-T", "2", "-L", "2,1", "--levels", "4",
                 "--users", "20,15", "--items", "12", "--density", "0.4", "--w1", "0.3,1",
                 "--seed", "6"]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"Z": 2, "K": 3, "T": 2, "L": [2, 1], "R": 4, "M": [20, 15],
                                    "N": [12, 12], "density": 0.4, "w1": [0.3, 1], "seed": 6}))
        for name, source in (("flags", flags), ("spec", ["--spec", str(spec)])):
            assert main(["synth", *source, "--out", str(tmp_path / name),
                         "--params-out", str(tmp_path / name / "true.json")]) == 0
        assert capsys.readouterr().out.count("domain 1: users=15 items=12") == 2
        for f in ("ratings.csv", "manifest.json", "true.json"):
            assert (tmp_path / "flags" / f).read_bytes() == (tmp_path / "spec" / f).read_bytes()

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

    @pytest.mark.parametrize("repeats", ["0", "-2"])
    def test_repeats_flag_checked_before_out(self, tmp_path, capsys, repeats):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(SMALL_CONFIG))
        out = tmp_path / "results"
        rc = main(["evaluate", "--config", str(config), "--out", str(out),
                   "--repeats", repeats])
        assert rc == 1
        assert capsys.readouterr().err == "error: n_repeats must be >= 1\n"
        assert not out.exists()


def _evaluate_small(tmp_path, models=KNOWN_MODELS):
    """Run ``pclf evaluate`` on ``SMALL_CONFIG`` with ``models``; return the
    exit code and the output directory."""
    config = {**SMALL_CONFIG, "models": list(models)}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "results"
    return main(["evaluate", "--config", str(cfg_path), "--out", str(out)]), out


def test_evaluate_file_domain_negative_n_train_users_before_out(tmp_path, capsys):
    ratings = tmp_path / "ratings.tsv"
    ratings.write_text("".join(f"u{u}\ti{u % 3}\t{1 + u % 5}\n" for u in range(6)))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "domains": [{"path": str(ratings), "scale": {"min": 1, "max": 5}}],
        "n_train_users": -1, "given_n": [1], "dims": {"K": 2, "T": 2, "L": 1},
    }))
    out = tmp_path / "results"
    assert main(["evaluate", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: n_train_users must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("n_train_users", [30, 14, -1])
def test_evaluate_n_train_users_checked_before_out(tmp_path, capsys, n_train_users):
    config = tmp_path / "config.json"   # 14 users per domain
    config.write_text(json.dumps({**SMALL_CONFIG, "n_train_users": n_train_users}))
    out = tmp_path / "results"
    assert main(["evaluate", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"error: n_train_users must be in [0, 14), got {n_train_users}\n"
    assert not out.exists()


def test_evaluate_file_domain_n_train_users_past_count_leaves_no_out(tmp_path, capsys):
    domains = []
    for name in ("a", "b"):   # 3 ratings by 2 users in each domain
        path = tmp_path / f"{name}.tsv"
        path.write_text("u0\ti0\t3\nu0\ti1\t4\nu1\ti0\t5\n")
        domains.append({"path": str(path), "scale": {"min": 1, "max": 5}})
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"domains": domains, "n_train_users": 5, "given_n": [1],
                                  "dims": {"K": 2, "T": 2, "L": 1}}))
    out = tmp_path / "results"
    assert main(["evaluate", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: n_train_users must be in [0, 2), got 5\n"
    assert not out.exists()


def test_synth_and_ingest_negative_seed_one_line_error(rating_files, tmp_path, capsys):
    out = tmp_path / "dataset"
    assert main(["synth", "--seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert main(["ingest", "--input", rating_files[0], "--scale", "1:5", "--select-users",
                 "3", "--seed", "-2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -2\n"
    assert not out.exists()


_SPEC_2x8x9 = {"Z": 2, "K": 2, "T": 2, "L": [2, 2], "M": [8, 8], "N": [9, 9], "density": 0.3}


@pytest.mark.parametrize("edit, message", [
    ({"membership_concentration": -1}, "membership_concentration must be finite and > 0, "
                                       "got -1"),
    ({"membership_concentration": 0}, "membership_concentration must be finite and > 0, "
                                      "got 0"),
    ({"membership_concentration": float("nan")}, "membership_concentration must be finite "
                                                 "and > 0, got nan"),
    ({"membership_concentration": float("inf")}, "membership_concentration must be finite "
                                                 "and > 0, got inf"),
    ({"rating_sharpness": float("nan")}, "rating_sharpness must be finite and >= 0, got nan"),
    ({"rating_sharpness": -0.5}, "rating_sharpness must be finite and >= 0, got -0.5"),
    ({"specific_sharpness": float("inf")}, "specific_sharpness must be finite and >= 0, "
                                           "got inf"),
    ({"specific_sharpness": float("-inf")}, "specific_sharpness must be finite and >= 0, "
                                            "got -inf"),
    ({"M": [8, 0]}, "every entry of M must be >= 1, got [8, 0]"),
    ({"N": [-2, 9]}, "every entry of N must be >= 1, got [-2, 9]"),
    ({"Z": 0, "L": [], "M": [], "N": []}, "Z must be >= 1, got 0"),
    (["--users", "-3"], "every entry of M must be >= 1, got [-3, -3]"),
    (["--users", "0"], "every entry of M must be >= 1, got [0, 0]"),
    (["--items", "5,0"], "every entry of N must be >= 1, got [5, 0]"),
    (["--domains", "0"], "Z must be >= 1, got 0"),
], ids=["concentration-negative", "concentration-0", "concentration-nan",
        "concentration-inf", "sharpness-nan", "sharpness-negative", "specific-inf",
        "specific-minus-inf", "M-0", "N-negative", "Z-0", "users-negative", "users-0",
        "items-0", "domains-0"])
def test_synthetic_spec_fault_one_line_error(tmp_path, capsys, edit, message):
    """Spec files, synth flags and evaluate's ``synthetic`` all reach the
    checks in ``SyntheticSpec``; a fault leaves no output directory."""
    out = tmp_path / "out"
    if isinstance(edit, list):
        runs = [["synth", *edit, "--out", str(out)]]
    else:
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**_SPEC_2x8x9, **edit}))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "synthetic": {**_SPEC_2x8x9, **edit},
                                      "n_train_users": 4}))
        runs = [["synth", "--spec", str(spec), "--out", str(out)],
                ["evaluate", "--config", str(config), "--out", str(out)]]
    for argv in runs:
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize("edit", [{"rating_sharpness": 1e308}, {"specific_sharpness": 1e308},
                                  {"rating_sharpness": 1.7976931348623157e308,
                                   "specific_sharpness": 1e308}],
                         ids=["rating", "specific", "both"])
def test_huge_sharpness_synthesizes_without_warning(tmp_path, capsys, edit):
    """-sharpness * |level - peak| overflows to -inf, whose exp is the
    right 0; numpy must not report the overflow on stderr."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**_SPEC_2x8x9, **edit}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "data")]) == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""
    ds = load_dataset(str(tmp_path / "data"))
    assert sum(ds.n_ratings) == 2 * round(0.3 * 8 * 9)


def test_evaluate_worker_error_one_line(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise DataError("matrix has no observed entries")

    monkeypatch.setattr(baselines, "nmf_train", fail)
    rc, out = _evaluate_small(tmp_path)
    assert rc == 1
    assert capsys.readouterr().err == "error: matrix has no observed entries\n"
    assert not out.exists()   # --out is made only after the run succeeds


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
    assert not out.exists()   # --out is made only after the run succeeds


def test_evaluate_no_models_one_line(tmp_path, capsys):
    rc, out = _evaluate_small(tmp_path, models=[])
    assert rc == 1
    assert capsys.readouterr().err == "error: models must list at least one value\n"
    assert not out.exists()   # refused when the config is read


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


@pytest.fixture(scope="module")
def json_documents(tmp_path_factory):
    """A directory with a valid experiment config, synthetic spec,
    dataset (``dataset/manifest.json``), checkpoint and --cells file."""
    root = tmp_path_factory.mktemp("documents")
    (root / "config.json").write_text(json.dumps(SMALL_CONFIG))
    (root / "spec.json").write_text(json.dumps(SMALL_CONFIG["synthetic"]))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--users", "12", "--items", "10", "--density", "0.3",
                     "--out", str(root / "dataset")]) == 0
        assert main(["train", "--dataset", str(root / "dataset"), "-K", "3", "-T", "2",
                     "-L", "2", "--betas", "1.0", "--max-iters", "2",
                     "--out", str(root / "checkpoint.json")]) == 0
        (root / "cells.txt").write_text("0,1,2\n1,3,0,5\n0,11,9\r\n1,10,1,9\n")
        assert main(["predict", "--checkpoint", str(root / "checkpoint.json"),
                     "--cells", str(root / "cells.txt")]) == 0
    return root


def _json_kind(value):
    """The JSON type of ``value``, with integers and floats both numbers."""
    return float if isinstance(value, int) and not isinstance(value, bool) else type(value)


def _key_paths(doc, prefix=()):
    """The key path of every value in ``doc`` reached through objects only."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


# bytes that no JSON text holds unescaped: control characters other than
# whitespace, and (in an ASCII document) any byte above 0x7f
_BAD_BYTES = bytes(b for b in range(256) if b < 0x20 and b not in b"\t\n\r" or b > 0x7f)
_NON_UTF8 = [b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80", b"\xc0\xaf", b"\xf4\x90\x80\x80"]
_VALUES = [None, True, 1.5, "x", ["x"], {"x": 1}]
# bytes that no row of integers holds in any form a reader accepts
_ROW_BAD_BYTES = b'\x00x".' + bytes(range(0x80, 0x100))


@st.composite
def _corrupted(draw, text: bytes, lists=()) -> bytes:
    """``text``, an ASCII JSON object, made invalid: cut before its closing
    brace, one byte replaced by one that JSON never holds, a non-UTF-8
    sequence inserted, one value at a key replaced by one of another JSON
    type, or, given the keys of ``lists``, one entry dropped from or added
    to one of those lists or to a list in one of them."""
    how = draw(st.sampled_from(["truncate", "byte", "non-utf8", "type"]
                               + ["resize"] * bool(lists)))
    if how == "resize":
        doc = json.loads(text)
        key = draw(st.sampled_from(lists))
        parent, at = doc, key
        if isinstance(doc[key][0], list) and draw(st.booleans()):
            parent, at = doc[key], draw(st.integers(0, len(doc[key]) - 1))
        if draw(st.booleans()):
            parent[at] = parent[at][:-1]
        else:
            parent[at] = parent[at] + parent[at][-1:]
        return json.dumps(doc).encode()
    if how == "truncate":
        return text[:draw(st.integers(0, text.rindex(b"}") - 1))]
    i = draw(st.integers(0, len(text) - 1))
    if how == "byte":
        return text[:i] + bytes([draw(st.sampled_from(_BAD_BYTES))]) + text[i + 1:]
    if how == "non-utf8":
        return text[:i] + draw(st.sampled_from(_NON_UTF8)) + text[i:]
    doc = json.loads(text)
    *parents, key = draw(st.sampled_from(list(_key_paths(doc))))
    parent = doc
    for name in parents:
        parent = parent[name]
    parent[key] = draw(st.sampled_from(
        [v for v in _VALUES if _json_kind(v) is not _json_kind(parent[key])]))
    return json.dumps(doc).encode()


@st.composite
def _corrupted_rows(draw, text: bytes, start: int) -> bytes:
    """``text``, rows of integers, with one byte at or after ``start``
    replaced by one of ``_ROW_BAD_BYTES`` or a non-UTF-8 sequence inserted
    there."""
    i = draw(st.integers(start, len(text) - 1))
    if draw(st.booleans()):
        return text[:i] + bytes([draw(st.sampled_from(_ROW_BAD_BYTES))]) + text[i + 1:]
    return text[:i] + draw(st.sampled_from(_NON_UTF8)) + text[i:]


@settings(max_examples=210, deadline=None)
@given(kind=st.sampled_from(["config", "spec", "manifest", "ratings", "rows", "checkpoint",
                             "cells"]),
       data=st.data())
def test_corrupt_json_document_one_line_error(json_documents, kind, data):
    """Also cuts the dataset's ratings.csv at a line boundary before its
    end ("ratings"), and corrupts bytes inside its rows ("rows") and inside
    a --cells file ("cells")."""
    dataset = json_documents / "dataset"
    original = {"manifest": dataset / "manifest.json", "ratings": dataset / "ratings.csv",
                "rows": dataset / "ratings.csv", "cells": json_documents / "cells.txt",
                }.get(kind, json_documents / f"{kind}.json")
    if kind == "ratings":
        lines = original.read_bytes().split(b"\r\n")   # the last is the empty tail
        keep = data.draw(st.integers(0, len(lines) - 2), label="lines kept")
        text = b"".join(line + b"\r\n" for line in lines[:keep])
    elif kind in ("rows", "cells"):
        body = original.read_bytes().index(b"\n") + 1 if kind == "rows" else 0
        text = data.draw(_corrupted_rows(original.read_bytes(), body), label="rows")
    else:
        lists = ("n_users", "n_items", "n_ratings", "user_ids", "item_ids") \
            if kind == "manifest" else ()
        text = data.draw(_corrupted(original.read_bytes(), lists), label="document")
    with tempfile.TemporaryDirectory() as tmp:
        doc, out = os.path.join(tmp, "doc.json"), os.path.join(tmp, "out", "out.csv")
        os.mkdir(os.path.dirname(out))
        if kind in ("manifest", "ratings", "rows"):
            for name in ("manifest.json", "ratings.csv"):
                shutil.copy(dataset / name, tmp)
            doc = os.path.join(tmp, original.name)
        with open(doc, "wb") as fh:
            fh.write(text)
        with open(out, "w") as fh:
            fh.write("previous\n")
        argv = {"config": ["evaluate", "--config", doc, "--out", os.path.dirname(out)],
                "spec": ["synth", "--spec", doc, "--out", os.path.dirname(out)],
                "manifest": ["train", "--dataset", tmp, "--out", out],
                "ratings": ["train", "--dataset", tmp, "--out", out],
                "rows": ["train", "--dataset", tmp, "--out", out],
                "checkpoint": ["predict", "--checkpoint", doc, "--cell", "0,0,0",
                               "--out", out],
                "cells": ["predict", "--checkpoint", str(json_documents / "checkpoint.json"),
                          "--cells", doc, "--out", out]}[kind]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 1
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        with open(out) as fh:
            assert fh.read() == "previous\n"
        assert os.listdir(os.path.dirname(out)) == ["out.csv"]


# flag values: small integers, integers past what numpy can address, any
# float (NaN, infinities, negatives, subnormals, 1e308) and junk text
_JUNK = st.text(alphabet="0123456789-+.,eEinfatx _\u0661\t", max_size=8)
_HUGE = st.sampled_from([2**63, 10**20, -(10**20)]).map(str)
_FLOAT = st.one_of(st.floats(), st.sampled_from([1e308, 1.7976931348623157e308, 5e-324,
                                                  -0.0])).map(repr)
_INT_FLAG = st.one_of(st.integers(-3, 6).map(str), _HUGE, _FLOAT, _JUNK)
# iteration counts stay small, so that no draw trains for long
_ITERS_FLAG = st.one_of(st.integers(-3, 4).map(str), _FLOAT, _JUNK)
_FLOAT_FLAG = st.one_of(_FLOAT, st.integers(-3, 3).map(str), _HUGE, _JUNK)


def _listed(flag):
    return st.one_of(st.lists(flag, min_size=1, max_size=3).map(",".join), _JUNK)


_FLAG_VALUES = {
    "train": {"-K": _INT_FLAG, "-T": _INT_FLAG, "-L": _listed(_INT_FLAG),
              "--betas": _listed(_FLOAT_FLAG), "--max-iters": _ITERS_FLAG,
              "--min-iters": _ITERS_FLAG, "--tol": _FLOAT_FLAG, "--floor": _FLOAT_FLAG,
              "--seed": _INT_FLAG, "--w1": _FLOAT_FLAG, "--rank": _INT_FLAG},
    "synth": {"--users": _listed(_INT_FLAG), "--items": _listed(_INT_FLAG),
              "--density": _FLOAT_FLAG},
    "predict": {"--complete": _INT_FLAG, "--w1": _listed(_FLOAT_FLAG)},
}


@pytest.fixture(scope="module")
def one_domain_dataset(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("one-domain") / "dataset")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--domains", "1", "--users", "12", "--items", "10",
                     "--density", "0.3", "--out", out]) == 0
    return out


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(sorted(_FLAG_VALUES)), data=st.data())
def test_flag_values_one_line_error(json_documents, one_domain_dataset, command, data):
    """Up to four flags of ``command`` take drawn values, written as
    ``--flag=value`` so that a value may start with '-'.  The run exits 0
    with nothing on stderr, or exits 1 with one ``error:`` line and the
    existing ``--out`` as it was; a warning fails the test as an error."""
    flags = data.draw(st.lists(st.sampled_from(sorted(_FLAG_VALUES[command])), min_size=1,
                               max_size=4, unique=True), label="flags")
    drawn = [f"{flag}={data.draw(_FLAG_VALUES[command][flag], label=flag)}" for flag in flags]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.csv")
        if command == "train":
            model = data.draw(st.sampled_from(["pclf", "nmf"]), label="model")
            dataset = one_domain_dataset if model == "nmf" else str(json_documents / "dataset")
            argv = ["train", "--dataset", dataset, "--model", model, "-K", "2", "-T", "2",
                    "-L", "2", "--betas", "0.5,1.0", "--max-iters", "2", "--min-iters", "1",
                    "--nmf-iters", "3", *drawn, "--out", out]
        elif command == "synth":
            out = os.path.join(tmp, "data", "ratings.csv")
            os.mkdir(os.path.dirname(out))
            argv = ["synth", "--users", "5", "--items", "6", "--density", "0.5", *drawn,
                    "--out", os.path.dirname(out)]
        else:
            argv = ["predict", "--checkpoint", str(json_documents / "checkpoint.json"),
                    "--complete", "0", *drawn, "--out", out]
        with open(out, "w") as fh:
            fh.write("previous\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv)
        lines = err.getvalue().splitlines()
        if rc == 0:
            assert lines == []
            return
        assert rc == 1
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
        with open(out) as fh:
            assert fh.read() == "previous\n"
        assert os.listdir(os.path.dirname(out)) == ["out.csv" if command != "synth"
                                                    else "ratings.csv"]


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
    """``data._csv_rows`` writes the bytes of the f-strings it replaced."""

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
        monkeypatch.setattr("pclf.data.BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(0)
        rows = rng.uniform(1, 12, size=(1002, 3))
        written = []
        with cli._row_sink(written.append, 1) as sink:
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
