import dataclasses
import json
import os
import re
import stat
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pclf import checkpoint
from pclf import (
    Checkpoint,
    CheckpointError,
    ModelDims,
    NmfFactors,
    PclfParams,
    TraceEntry,
    load_checkpoint,
    save_checkpoint,
)

from oracles import checkpoint_bytes_reference, random_params


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

        encode, calls = checkpoint._encode, []

        def broken_encode(value):   # fails once the document is half written
            calls.append(value)
            if len(calls) == 6:
                raise OSError("disk full")
            return encode(value)

        monkeypatch.setattr(checkpoint, "_encode", broken_encode)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(str(path), Checkpoint(model_kind="pclf", seed=2, trace=[],
                                                  params=_params()))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_fifo_target_kept_and_fed(self, tmp_path):
        """A FIFO target is written in place: it stays a FIFO and its
        reader gets the checkpoint's bytes."""
        ckpt = Checkpoint(model_kind="pclf", seed=1, trace=[], params=_params())
        plain = tmp_path / "plain.json"
        save_checkpoint(str(plain), ckpt)
        want = plain.read_bytes()
        assert len(want) < 1 << 16    # fits a pipe's buffer, so the write never blocks
        fifo = tmp_path / "model.fifo"
        os.mkfifo(fifo)
        # a non-blocking read end, so that a writer that replaces the FIFO
        # fails this test rather than hangs it
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            save_checkpoint(str(fifo), ckpt)
            got = b""
            while chunk := os.read(reader, 1 << 16):
                got += chunk
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert got == want
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.fifo", "plain.json"]

    def test_symlink_target_kept(self, tmp_path):
        """A symlink target keeps the link and writes the file it names."""
        ckpt = Checkpoint(model_kind="pclf", seed=1, trace=[], params=_params())
        plain = tmp_path / "plain.json"
        save_checkpoint(str(plain), ckpt)
        real, link = tmp_path / "real.json", tmp_path / "link.json"
        real.write_text("previous\n")
        link.symlink_to(real)
        save_checkpoint(str(link), ckpt)
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_bytes() == plain.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "plain.json",
                                                               "real.json"]

    def test_byte_identical_writes(self, tmp_path):
        params = _params()
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        ckpt = Checkpoint(model_kind="pclf", seed=1, trace=[], params=params)
        save_checkpoint(a, ckpt)
        save_checkpoint(b, ckpt)
        assert open(a, "rb").read() == open(b, "rb").read()


AWKWARD_FLOATS = [5e-324, 1e-300, 1e16, 0.1 + 0.2, -0.0, 1 / 3, 2.0 ** 53 + 2]
floats = st.one_of(
    st.sampled_from(AWKWARD_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def checkpoints(draw):
    """Any checkpoint ``save_checkpoint`` accepts: a cluster model (some
    domains without specific clusters) or NMF factors, arrays of any finite
    floats, a trace that may be empty and, for a cluster model, a
    ``default_w1`` that may be None."""
    def array(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(floats, min_size=size, max_size=size)),
                        dtype=float).reshape(shape)

    kind = draw(st.sampled_from(["pclf", "fmm", "rmgm-like", "nmf"]))
    trace = [TraceEntry(*entry) for entry in draw(st.lists(
        st.tuples(floats, st.integers(0, 60), floats), max_size=4))]
    seed = draw(st.integers(0, 2 ** 63))
    if kind == "nmf":
        m, n, rank = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
        factors = NmfFactors(u_factors=array(m, rank), v_factors=array(n, rank), rank=rank,
                             objective=draw(st.lists(floats, max_size=4)))
        return Checkpoint(model_kind=kind, seed=seed, trace=trace, factors=factors,
                          n_levels=draw(st.integers(2, 10)))
    z = draw(st.integers(1, 3))
    dims = ModelDims(
        n_domains=z, n_user_clusters=draw(st.integers(1, 3)),
        n_common_clusters=draw(st.integers(1, 3)),
        n_specific_clusters=tuple(draw(st.lists(st.integers(0, 2), min_size=z, max_size=z))),
        n_levels=draw(st.integers(2, 5)),
        n_users=tuple(draw(st.lists(st.integers(1, 4), min_size=z, max_size=z))),
        n_items=tuple(draw(st.lists(st.integers(1, 4), min_size=z, max_size=z))),
    )
    k, t, r = dims.n_user_clusters, dims.n_common_clusters, dims.n_levels
    specific = list(zip(dims.n_specific_clusters, dims.n_items))
    params = PclfParams(
        dims=dims, prior_u=array(k), prior_vcom=array(t),
        prior_vspe=[array(l) for l, _ in specific],
        cond_u=array(k, dims.total_users), cond_vcom=array(t, dims.total_items),
        cond_vspe=[array(l, n) for l, n in specific],
        rate_com=array(k, t, r), rate_spe=[array(k, l, r) for l, _ in specific],
    )
    return Checkpoint(model_kind=kind, seed=seed, trace=trace, params=params,
                      default_w1=draw(st.none() | st.lists(floats, min_size=z, max_size=z)))


class TestWriter:
    @settings(max_examples=150, deadline=None)
    @given(checkpoints())
    def test_bytes_match_one_json_dump(self, ckpt):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.json")
            save_checkpoint(path, ckpt)
            with open(path, "rb") as fh:
                assert fh.read() == checkpoint_bytes_reference(ckpt)

    def test_awkward_floats_written_exactly(self, tmp_path):
        params = _params()
        params.cond_u[0, :4] = AWKWARD_FLOATS[:4]
        trace = [TraceEntry(0.5, 0, 0.1 + 0.2), TraceEntry(1.0, 1, -1e16)]
        ckpt = Checkpoint(model_kind="pclf", seed=0, trace=trace, params=params,
                          default_w1=[5e-324, 1e-300])
        path = tmp_path / "model.json"
        save_checkpoint(str(path), ckpt)
        blob = path.read_bytes()
        assert blob == checkpoint_bytes_reference(ckpt)
        assert b"[5e-324,1e-300,1e+16,0.30000000000000004," in blob
        assert json.loads(blob)["arrays"]["cond_u"]["data"][:4] == AWKWARD_FLOATS[:4]


def _saved(tmp_path, kind):
    """The path of a saved 2-domain pclf checkpoint, or of an nmf one of rank 1."""
    path = tmp_path / "model.json"
    if kind == "nmf":
        factors = NmfFactors(u_factors=np.ones((2, 1)), v_factors=np.ones((3, 1)),
                             rank=1, objective=[1.0])
        ckpt = Checkpoint(model_kind="nmf", seed=0, trace=[], factors=factors, n_levels=5)
    else:
        ckpt = Checkpoint(model_kind="pclf", seed=0, trace=[TraceEntry(1.0, 0, -3.0)],
                          params=_params(), default_w1=[0.35, 1.0])
    save_checkpoint(str(path), ckpt)
    return path


@st.composite
def loadable_checkpoints(draw):
    """Any checkpoint that ``load_checkpoint`` takes back: NMF factors of
    ``rank`` columns each, or a cluster model of 1 to 3 domains (some
    without specific clusters) whose distributions sum to 1."""
    kind = draw(st.sampled_from(["pclf", "fmm", "rmgm-like", "nmf"]))
    trace = [TraceEntry(*entry) for entry in draw(st.lists(
        st.tuples(floats, st.integers(0, 60), floats), max_size=3))]
    seed = draw(st.integers(0, 2 ** 63))
    if kind == "nmf":
        rank = draw(st.integers(1, 3))
        u, v = (np.array(draw(st.lists(floats, min_size=n * rank, max_size=n * rank)))
                .reshape(n, rank) for n in (draw(st.integers(1, 4)), draw(st.integers(1, 4))))
        factors = NmfFactors(u_factors=u, v_factors=v, rank=rank,
                             objective=draw(st.lists(floats, max_size=3)))
        return Checkpoint(model_kind=kind, seed=seed, trace=trace, factors=factors,
                          n_levels=draw(st.integers(2, 10)))
    z = draw(st.integers(1, 3))
    counts = st.lists(st.integers(1, 4), min_size=z, max_size=z)
    dims = ModelDims(
        n_domains=z, n_user_clusters=draw(st.integers(1, 3)),
        n_common_clusters=draw(st.integers(1, 3)),
        n_specific_clusters=tuple(draw(st.lists(st.integers(0, 2), min_size=z, max_size=z))),
        n_levels=draw(st.integers(2, 5)), n_users=tuple(draw(counts)),
        n_items=tuple(draw(counts)),
    )
    params = random_params(np.random.default_rng(draw(st.integers(0, 2 ** 32))), dims)
    return Checkpoint(model_kind=kind, seed=seed, trace=trace, params=params,
                      default_w1=draw(st.none() | st.lists(floats, min_size=z, max_size=z)))


def _bits(value):
    """``value`` with every array and float as its bits, so that == on two
    of them asks for bit-identical checkpoints."""
    if isinstance(value, np.ndarray):
        return value.shape, value.dtype.str, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {f.name: _bits(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


class TestInverse:
    @settings(max_examples=120, deadline=None)
    @given(loadable_checkpoints(), st.data())
    def test_load_gives_back_what_save_wrote(self, ckpt, data):
        """Every such checkpoint loads back bit for bit; save writes
        exactly its family's header keys, and one more header key or array
        that the kind is not saved with is refused with a line naming it."""
        schema = (checkpoint._NMF_HEADER if ckpt.model_kind == "nmf"
                  else checkpoint._CLUSTER_HEADER)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.json")
            save_checkpoint(path, ckpt)
            assert _bits(load_checkpoint(path)) == _bits(ckpt)
            with open(path) as fh:
                doc = json.load(fh)
            assert set(doc) == set(schema) - ({"default_w1"} if ckpt.default_w1 is None
                                              else set())
            where = data.draw(st.sampled_from(["header", "arrays"]))
            target = doc if where == "header" else doc["arrays"]
            taken = set(schema) if where == "header" else set(target)
            names = ["rank", "n_levels", "objective", "dims", "default_w1", "prior_u",
                     "u_factors", "prior_vspe_3", "cond_vspe_0"]
            key = data.draw((st.sampled_from(names) | st.text(min_size=1, max_size=8))
                            .filter(lambda name: name not in taken))
            target[key] = next(iter(doc["arrays"].values()))
            with open(path, "w") as fh:
                json.dump(doc, fh)
            with pytest.raises(CheckpointError, match=re.escape(f"unknown key {key!r}")):
                load_checkpoint(path)


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

    @pytest.mark.parametrize("seed, trace, message", [
        (-1, [], "'seed' must be >= 0, got -1"),
        (0, [TraceEntry(1.0, 0, -3.0), TraceEntry(1.0, 1, float("nan"))],
         r"trace entry 1 .*, got \[1.0, 1, NaN\]"),
        (0, [TraceEntry(1.0, -1, -3.0)], r"trace entry 0 .*, got \[1.0, -1, -3.0\]"),
    ], ids=["seed-negative", "trace-nan", "trace-negative-iteration"])
    def test_unloadable_header_refused_on_save(self, tmp_path, seed, trace, message):
        """save refuses a seed or trace entry that load would refuse."""
        path = tmp_path / "x.json"
        with pytest.raises(CheckpointError, match=message):
            save_checkpoint(str(path), Checkpoint(model_kind="pclf", seed=seed, trace=trace,
                                                  params=_params()))
        assert not path.exists()

    @pytest.mark.parametrize("value, token", [(float("nan"), "NaN"), (float("inf"), "Infinity")])
    def test_non_finite_objective_refused_on_save(self, tmp_path, value, token):
        """save refuses an objective entry that load would refuse."""
        factors = NmfFactors(u_factors=np.ones((2, 1)), v_factors=np.ones((3, 1)), rank=1,
                             objective=[4.0, value])
        path = tmp_path / "x.json"
        with pytest.raises(CheckpointError, match=f"objective entry 1 must be finite, got {token}"):
            save_checkpoint(str(path), Checkpoint(model_kind="nmf", seed=0, trace=[],
                                                  factors=factors, n_levels=5))
        assert not path.exists()

    def test_nmf_requires_factors(self, tmp_path):
        with pytest.raises(CheckpointError, match="factors"):
            save_checkpoint(str(tmp_path / "x.json"), Checkpoint(
                model_kind="nmf", seed=0, trace=[],
            ))

    @pytest.mark.parametrize("kind, field", [
        ("nmf", "default_w1"), ("nmf", "params"), ("pclf", "factors"), ("fmm", "n_levels"),
    ])
    def test_other_family_field_refused_on_save(self, tmp_path, kind, field):
        """save refuses a field that load would not give back."""
        factors = NmfFactors(u_factors=np.ones((2, 1)), v_factors=np.ones((3, 1)), rank=1)
        fields = ({"factors": factors, "n_levels": 5} if kind == "nmf"
                  else {"params": _params()})
        fields[field] = {"default_w1": [0.5], "params": _params(), "factors": factors,
                         "n_levels": 5}[field]
        path = tmp_path / "x.json"
        with pytest.raises(CheckpointError, match="hold .*, no "):
            save_checkpoint(str(path), Checkpoint(model_kind=kind, seed=0, trace=[], **fields))
        assert not path.exists()

    @pytest.mark.parametrize("kind, corrupt, message", [
        ("pclf", lambda arrays: arrays.pop("cond_vcom"), "arrays is missing key 'cond_vcom'"),
        ("pclf", lambda arrays: arrays["rate_com"].update(shape=[3, 2, 4]),
         "'rate_com' is malformed"),
        ("pclf", lambda arrays: arrays["prior_u"]["data"].__setitem__(1, float("nan")),
         "'prior_u' has non-finite"),
        ("pclf", lambda arrays: arrays["prior_u"]["data"].__setitem__(0, 2.0),
         "prior_u: distribution off"),
        ("pclf", lambda arrays: arrays["prior_u"].update(shape=None), "'prior_u' is malformed"),
        # one domain more than dims has, as a 3-domain model would write it
        ("pclf", lambda arrays: arrays.__setitem__("prior_vspe_2", arrays["prior_vspe_0"]),
         "unknown key 'prior_vspe_2' in arrays"),
        ("pclf", lambda arrays: arrays.__setitem__("u_factors", arrays["prior_u"]),
         "unknown key 'u_factors' in arrays"),
        ("nmf", lambda arrays: arrays.__setitem__("prior_u", arrays["u_factors"]),
         "unknown key 'prior_u' in arrays"),
        ("nmf", lambda arrays: arrays.pop("v_factors"), "arrays is missing key 'v_factors'"),
        ("nmf", lambda arrays: arrays.__setitem__("u_factors", {"shape": [2, 2],
                                                                "data": [1.0] * 4}),
         r"'u_factors' has shape \(2, 2\), not \(rows, 1\) for rank 1"),
        ("nmf", lambda arrays: arrays.__setitem__("v_factors", {"shape": [3], "data": [1.0] * 3}),
         r"'v_factors' has shape \(3,\), not \(rows, 1\) for rank 1"),
    ], ids=["missing", "shape", "nan", "unnormalized", "shape-null", "domain-past-dims",
            "nmf-array", "nmf-cluster-array", "nmf-missing", "nmf-u-width", "nmf-v-1d"])
    def test_corrupt_array_named(self, tmp_path, kind, corrupt, message):
        path = _saved(tmp_path, kind)
        doc = json.loads(path.read_text())
        corrupt(doc["arrays"])
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("kind, corrupt, message", [
        ("pclf", lambda doc: doc.pop("dims"), "checkpoint is missing key 'dims'"),
        ("pclf", lambda doc: doc["dims"].pop("n_levels"), "dims is missing key 'n_levels'"),
        ("pclf", lambda doc: doc.pop("seed"), "checkpoint is missing key 'seed'"),
        ("pclf", lambda doc: doc.__setitem__("trace", [[1.0]]), "malformed header"),
        ("pclf", lambda doc: doc.__setitem__("trace", [[1.0, "x", 2.0]]), "malformed header"),
        ("pclf", lambda doc: doc.__setitem__("trace", [[1.0, 0, 2.0], [1.0, 0]]),
         r"trace entry 1 must be \[beta, iteration >= 0, log-likelihood\] with finite "
         r"numbers, got \[1.0, 0\]"),
        ("pclf", lambda doc: doc.__setitem__("trace", [["0.5", 2.7, "-3"]]),
         r'trace entry 0 .*, got \["0.5", 2.7, "-3"\]'),
        ("pclf", lambda doc: doc.__setitem__("trace", [[1.0, 0, 2.0], [True, False, 1]]),
         r"trace entry 1 .*, got \[true, false, 1\]"),
        ("pclf", lambda doc: doc.__setitem__("trace", [[1.0, 0, float("nan")]]),
         r"trace entry 0 .*, got \[1.0, 0, NaN\]"),
        ("pclf", lambda doc: doc.__setitem__("trace", [[float("inf"), 0, -3.0]]),
         r"trace entry 0 .*, got \[Infinity, 0, -3.0\]"),
        ("pclf", lambda doc: doc.__setitem__("trace", [[1.0, -1, -3.0]]),
         r"trace entry 0 .*, got \[1.0, -1, -3.0\]"),
        ("nmf", lambda doc: doc.__setitem__("trace", [[1.0, 0]]), r"trace entry 0 .*\[1.0, 0\]"),
        ("pclf", lambda doc: doc.__setitem__("seed", -1), "'seed' must be >= 0, got -1"),
        ("nmf", lambda doc: doc.__setitem__("seed", -2), "'seed' must be >= 0, got -2"),
        ("pclf", lambda doc: doc.pop("arrays"), "checkpoint is missing key 'arrays'"),
        ("pclf", lambda doc: doc.__setitem__("default_w1", ["x"]), "malformed header"),
        ("pclf", lambda doc: doc.__setitem__("default_w1", None), "malformed header"),
        ("pclf", lambda doc: doc.__setitem__("seed", True), "malformed header"),
        ("pclf", lambda doc: doc.__setitem__("default_w1", [0.5]),
         r"'default_w1' needs one weight per domain \(2\), got 1"),
        ("pclf", lambda doc: doc["dims"].__setitem__("n_clusters", 2),
         "unknown key 'n_clusters' in dims"),
        ("pclf", lambda doc: doc["dims"].__setitem__("n_user_clusters", 2.5),
         "'n_user_clusters' in dims must be an integer, got 2.5"),
        ("pclf", lambda doc: doc["dims"].__setitem__("n_specific_clusters", [2, "x"]),
         "'n_specific_clusters' in dims must be a list, each an integer"),
        ("nmf", lambda doc: doc.pop("rank"), "checkpoint is missing key 'rank'"),
        ("nmf", lambda doc: doc.pop("n_levels"), "checkpoint is missing key 'n_levels'"),
        ("pclf", lambda doc: doc.pop("trace"), "checkpoint is missing key 'trace'"),
        # the other family's keys, and one no checkpoint has
        ("pclf", lambda doc: doc.__setitem__("rank", 3), "unknown key 'rank' in checkpoint"),
        ("pclf", lambda doc: doc.__setitem__("objective", []),
         "unknown key 'objective' in checkpoint"),
        ("pclf", lambda doc: doc.__setitem__("note", "x"), "unknown key 'note' in checkpoint"),
        ("nmf", lambda doc: doc.__setitem__("dims", {}), "unknown key 'dims' in checkpoint"),
        ("nmf", lambda doc: doc.__setitem__("default_w1", [0.5]),
         "unknown key 'default_w1' in checkpoint"),
        ("nmf", lambda doc: doc.pop("objective"), "checkpoint is missing key 'objective'"),
        ("nmf", lambda doc: doc.__setitem__("objective", [3.0, float("nan")]),
         "objective entry 1 must be finite, got NaN"),
        ("nmf", lambda doc: doc.__setitem__("objective", [float("-inf")]),
         "objective entry 0 must be finite, got -Infinity"),
        ("nmf", lambda doc: doc.__setitem__("rank", 7),
         r"'u_factors' has shape \(2, 1\), not \(rows, 7\) for rank 7"),
        ("nmf", lambda doc: doc.__setitem__("rank", 0), "'rank' >= 1"),
        ("nmf", lambda doc: doc.__setitem__("n_levels", 1), "'n_levels' >= 2"),
        ("nmf", lambda doc: doc.__setitem__("n_levels", 0), "'n_levels' >= 2"),
    ], ids=["dims", "dims-field", "seed", "trace-short", "trace-value", "trace-pair",
            "trace-strings", "trace-bools", "trace-nan", "trace-inf-beta",
            "trace-negative-iteration", "nmf-trace-pair", "seed-negative", "nmf-seed-negative",
            "arrays",
            "default-w1", "default-w1-null", "seed-true", "default-w1-short",
            "dims-unknown-key", "dims-count-float", "dims-list-entry", "nmf-rank",
            "nmf-levels", "trace", "cluster-rank", "cluster-objective", "unknown-key",
            "nmf-dims", "nmf-default-w1", "nmf-objective", "nmf-objective-nan",
            "nmf-objective-inf", "nmf-rank-wide", "nmf-rank-0",
            "nmf-levels-1", "nmf-levels-0"])
    def test_corrupt_header_named(self, tmp_path, kind, corrupt, message):
        path = _saved(tmp_path, kind)
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("specific", [(0,), (2,), (2, 0), (0, 3, 1), None],
                             ids=["z1-none", "z1", "z2", "z3", "nmf"])
    def test_save_writes_the_arrays_load_reads(self, tmp_path, monkeypatch, specific):
        if specific is None:
            factors = NmfFactors(u_factors=np.ones((2, 1)), v_factors=np.ones((3, 1)),
                                 rank=1, objective=[])
            ckpt = Checkpoint(model_kind="nmf", seed=0, trace=[], factors=factors, n_levels=5)
            want = {"u_factors", "v_factors"}
        else:
            z = len(specific)
            dims = ModelDims(n_domains=z, n_user_clusters=2, n_common_clusters=2,
                             n_specific_clusters=specific, n_levels=3,
                             n_users=(3,) * z, n_items=(4,) * z)
            ckpt = Checkpoint(model_kind="pclf", seed=0, trace=[],
                              params=random_params(np.random.default_rng(0), dims))
            want = {"prior_u", "prior_vcom", "cond_u", "cond_vcom", "rate_com"} | {
                f"{name}_{d}" for name in ("prior_vspe", "cond_vspe", "rate_spe")
                for d in range(z)}
        # the tables name every array field of the model they store
        fields = {f.name for f in dataclasses.fields(NmfFactors if specific is None
                                                      else PclfParams)}
        tables = ((checkpoint._NMF_ARRAYS,) if specific is None
                  else (checkpoint._SHARED_ARRAYS, checkpoint._DOMAIN_ARRAYS))
        assert {name for table in tables for name in table} == fields - {
            "dims", "rank", "objective"}
        path = str(tmp_path / "model.json")
        save_checkpoint(path, ckpt)
        with open(path) as fh:
            written = set(json.load(fh)["arrays"])
        read = set()
        unarray = checkpoint._unarray

        def recording(arrays, name):
            read.add(name)
            return unarray(arrays, name)

        monkeypatch.setattr(checkpoint, "_unarray", recording)
        load_checkpoint(path)
        assert written == read == want
