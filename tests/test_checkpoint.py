import json

import numpy as np
import pytest

from pclf import (
    Checkpoint,
    CheckpointError,
    ModelDims,
    NmfFactors,
    TraceEntry,
    load_checkpoint,
    save_checkpoint,
)

from oracles import random_params


def _params():
    dims = ModelDims(
        n_domains=2, n_user_clusters=3, n_common_clusters=2,
        n_specific_clusters=(2, 0), n_levels=5,
        n_users=(4, 3), n_items=(3, 4),
    )
    return random_params(np.random.default_rng(0), dims)


class TestRoundTrip:
    def test_cluster_model(self, tmp_path):
        params = _params()
        trace = [TraceEntry(0.5, 0, -120.5), TraceEntry(1.0, 0, -100.25)]
        path = str(tmp_path / "model.json")
        save_checkpoint(path, Checkpoint(
            model_kind="pclf", seed=7, trace=trace, params=params,
            default_w1=[0.35, 0.35],
        ))
        back = load_checkpoint(path)
        assert back.model_kind == "pclf"
        assert back.seed == 7
        assert back.trace == trace
        assert back.default_w1 == [0.35, 0.35]
        np.testing.assert_array_equal(back.params.prior_u, params.prior_u)
        np.testing.assert_array_equal(back.params.cond_u, params.cond_u)
        np.testing.assert_array_equal(back.params.rate_spe[0], params.rate_spe[0])
        assert back.params.rate_spe[1].shape == (3, 0, 5)
        assert back.params.dims == params.dims

    def test_nmf_model(self, tmp_path):
        factors = NmfFactors(
            u_factors=np.array([[1.5, 0.25], [0.75, 2.0]]),
            v_factors=np.array([[0.5, 1.0]]),
            rank=2,
            objective=[10.0, 4.0, 3.5],
        )
        path = str(tmp_path / "nmf.json")
        save_checkpoint(path, Checkpoint(
            model_kind="nmf", seed=3, trace=[], factors=factors, n_levels=5,
        ))
        back = load_checkpoint(path)
        assert back.model_kind == "nmf"
        assert back.n_levels == 5
        np.testing.assert_array_equal(back.factors.u_factors, factors.u_factors)
        assert back.factors.objective == factors.objective

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        save_checkpoint(str(path), Checkpoint(model_kind="pclf", seed=1, trace=[],
                                              params=_params()))
        before = path.read_bytes()

        def broken_dump(doc, fh, **kwargs):
            fh.write('{"format": "trunc')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", broken_dump)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(str(path), Checkpoint(model_kind="pclf", seed=2, trace=[],
                                                  params=_params()))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_byte_identical_writes(self, tmp_path):
        params = _params()
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        ckpt = Checkpoint(model_kind="pclf", seed=1, trace=[], params=params)
        save_checkpoint(a, ckpt)
        save_checkpoint(b, ckpt)
        assert open(a, "rb").read() == open(b, "rb").read()


class TestValidation:
    def test_version_mismatch_names_both(self, tmp_path):
        path = str(tmp_path / "model.json")
        save_checkpoint(path, Checkpoint(
            model_kind="pclf", seed=0, trace=[], params=_params()
        ))
        text = open(path).read().replace("pclf-model-v1", "pclf-model-v0")
        open(path, "w").write(text)
        with pytest.raises(CheckpointError, match="pclf-model-v1.*pclf-model-v0"):
            load_checkpoint(path)

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            load_checkpoint(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(str(tmp_path / "absent.json"))

    def test_unknown_kind_rejected_on_save(self, tmp_path):
        with pytest.raises(CheckpointError, match="model_kind"):
            save_checkpoint(str(tmp_path / "x.json"), Checkpoint(
                model_kind="mystery", seed=0, trace=[], params=_params()
            ))

    def test_nmf_requires_factors(self, tmp_path):
        with pytest.raises(CheckpointError, match="factors"):
            save_checkpoint(str(tmp_path / "x.json"), Checkpoint(
                model_kind="nmf", seed=0, trace=[],
            ))

    @pytest.mark.parametrize("corrupt, message", [
        (lambda arrays: arrays.pop("cond_vcom"), "'cond_vcom' is missing"),
        (lambda arrays: arrays["rate_com"].update(shape=[3, 2, 4]), "'rate_com' is malformed"),
        (lambda arrays: arrays["prior_u"]["data"].__setitem__(1, float("nan")),
         "'prior_u' has non-finite"),
        (lambda arrays: arrays["prior_u"]["data"].__setitem__(0, 2.0),
         "prior_u: distribution off"),
    ], ids=["missing", "shape", "nan", "unnormalized"])
    def test_corrupt_array_named(self, tmp_path, corrupt, message):
        path = tmp_path / "model.json"
        save_checkpoint(str(path), Checkpoint(
            model_kind="pclf", seed=0, trace=[], params=_params()
        ))
        doc = json.loads(path.read_text())
        corrupt(doc["arrays"])
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("kind, corrupt, message", [
        ("pclf", lambda doc: doc.pop("dims"), "field 'dims' is missing"),
        ("pclf", lambda doc: doc["dims"].pop("n_levels"), "field 'n_levels' is missing"),
        ("pclf", lambda doc: doc.pop("seed"), "field 'seed' is missing"),
        ("pclf", lambda doc: doc.__setitem__("trace", [[1.0]]), "malformed header"),
        ("pclf", lambda doc: doc.__setitem__("trace", [[1.0, "x", 2.0]]), "malformed header"),
        ("pclf", lambda doc: doc.pop("arrays"), "'arrays' is missing"),
        ("pclf", lambda doc: doc.__setitem__("default_w1", ["x"]), "malformed header"),
        ("nmf", lambda doc: doc.pop("rank"), "field 'rank' is missing"),
        ("nmf", lambda doc: doc.pop("n_levels"), "field 'n_levels' is missing"),
    ], ids=["dims", "dims-field", "seed", "trace-short", "trace-value", "arrays",
            "default-w1", "nmf-rank", "nmf-levels"])
    def test_corrupt_header_named(self, tmp_path, kind, corrupt, message):
        path = tmp_path / "model.json"
        if kind == "nmf":
            factors = NmfFactors(u_factors=np.ones((2, 1)), v_factors=np.ones((3, 1)),
                                 rank=1, objective=[1.0])
            ckpt = Checkpoint(model_kind="nmf", seed=0, trace=[], factors=factors, n_levels=5)
        else:
            ckpt = Checkpoint(model_kind="pclf", seed=0, trace=[TraceEntry(1.0, 0, -3.0)],
                              params=_params(), default_w1=[0.35, 1.0])
        save_checkpoint(str(path), ckpt)
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(str(path))
