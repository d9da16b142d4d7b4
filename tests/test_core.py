import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pclf import em, kernels
from pclf import (
    CrossDomainDataset,
    ModelDims,
    ModelError,
    PclfParams,
    Responsibilities,
    TrainConfig,
    e_step,
    init_params,
    init_params_many,
    log_likelihood,
    m_step,
    train,
)

from conftest import random_dataset
from oracles import (
    dataset_log_likelihood,
    init_params_reference,
    posterior_matrix,
    random_params,
    train_reference,
)

PROB_ATOL = 1e-12


def single_cluster_dims(dataset):
    return ModelDims.from_dataset(dataset, 1, 1, (1,) * dataset.n_domains)


def param_arrays(params):
    """(name, array) for every parameter array, per-domain lists unrolled."""
    out = []
    for field in dataclasses.fields(PclfParams)[1:]:
        value = getattr(params, field.name)
        if isinstance(value, list):
            out.extend((f"{field.name}[{z}]", a) for z, a in enumerate(value))
        else:
            out.append((field.name, value))
    return out


def permute_params(params, perm_k=None, perm_t=None, perm_l=None):
    """Relabel clusters consistently across every parameter array."""
    d = params.dims
    perm_k = np.arange(d.n_user_clusters) if perm_k is None else np.asarray(perm_k)
    perm_t = np.arange(d.n_common_clusters) if perm_t is None else np.asarray(perm_t)
    perms_l = (
        [np.arange(l) for l in d.n_specific_clusters] if perm_l is None
        else [np.asarray(p) for p in perm_l]
    )
    return PclfParams(
        dims=d,
        prior_u=params.prior_u[perm_k],
        prior_vcom=params.prior_vcom[perm_t],
        prior_vspe=[p[perms_l[z]] for z, p in enumerate(params.prior_vspe)],
        cond_u=params.cond_u[perm_k],
        cond_vcom=params.cond_vcom[perm_t],
        cond_vspe=[c[perms_l[z]] for z, c in enumerate(params.cond_vspe)],
        rate_com=params.rate_com[perm_k][:, perm_t],
        rate_spe=[
            t[perm_k][:, perms_l[z]] for z, t in enumerate(params.rate_spe)
        ],
    )


# init's block sizes: one row, sizes that divide none of the families the
# tests use, and the shipped size
INIT_BLOCKS = (1, 3, 5, em.INIT_BLOCK_ROWS)


def assert_init_matches_reference(monkeypatch, dims, ds, seed, blocks=INIT_BLOCKS):
    """``init_params`` has the bits of ``init_params_reference`` at every
    block size of ``blocks``."""
    for block_rows in blocks:
        monkeypatch.setattr(em, "INIT_BLOCK_ROWS", block_rows)
        got = init_params(dims, ds, seed=seed)
        want = init_params_reference(dims, ds, seed=seed)
        for (name, a), (_, b) in zip(param_arrays(got), param_arrays(want)):
            assert np.array_equal(a, b), (block_rows, name)


class TestInitParams:
    def test_single_cluster_collapse(self, tiny_dataset):
        params = init_params(single_cluster_dims(tiny_dataset), tiny_dataset, seed=0, floor=0.0)
        assert params.prior_u[0] == pytest.approx(1.0, abs=PROB_ATOL)
        assert params.prior_vcom[0] == pytest.approx(1.0, abs=PROB_ATOL)
        # rating table is the pooled empirical histogram
        _, _, r = tiny_dataset.pooled()
        hist = np.bincount(r - 1, minlength=5) / len(r)
        np.testing.assert_allclose(params.rate_com[0, 0], hist, atol=PROB_ATOL)

    def test_deterministic(self, tiny_dataset):
        dims = ModelDims.from_dataset(tiny_dataset, 3, 2, (2, 2))
        a = init_params(dims, tiny_dataset, seed=9)
        b = init_params(dims, tiny_dataset, seed=9)
        assert np.array_equal(a.cond_u, b.cond_u)
        assert np.array_equal(a.rate_com, b.rate_com)
        for z in range(2):
            assert np.array_equal(a.rate_spe[z], b.rate_spe[z])

    def test_normalized(self, tiny_dataset):
        dims = ModelDims.from_dataset(tiny_dataset, 4, 3, (2, 3))
        params = init_params(dims, tiny_dataset, seed=1)
        params.validate(atol=PROB_ATOL)

    def test_chunked_draws_match_one_draw(self, monkeypatch):
        rng = np.random.default_rng(3)
        dims = ModelDims(
            n_domains=2, n_user_clusters=3, n_common_clusters=2,
            n_specific_clusters=(2, 0), n_levels=5,
            n_users=(10, 8), n_items=(7, 9),
        )
        ds = random_dataset(rng, dims, 25)
        monkeypatch.setattr(em, "INIT_BLOCK_ROWS", 7)  # 50 pooled triples: 8 blocks
        got = init_params(dims, ds, seed=5)
        draw = np.random.default_rng(5)
        blocks = []
        for shape in ((50, 3, 2), (25, 3, 2)):
            block = draw.gamma(0.5, size=shape)
            blocks.append(block / block.sum(axis=(1, 2), keepdims=True))
        want = m_step(
            Responsibilities(p0=blocks[0], pz=[blocks[1], np.zeros((25, 3, 0))]),
            ds, floor=1e-10,
        )
        for (name, a), (_, b) in zip(param_arrays(got), param_arrays(want)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-14, err_msg=name)

    @pytest.mark.parametrize("seed", [0, 5, 11])
    @pytest.mark.parametrize("block_rows", [7, 4096])
    @pytest.mark.parametrize("specific", [(2, 3), (3, 0)], ids=["L", "L_z=0"])
    def test_matches_serial_reference(self, monkeypatch, specific, block_rows, seed):
        # families of widths 4, 2 and 3 (or 4 and 3); with 7 rows a block,
        # 60 pooled and 30 per-domain triples end in partial blocks, and
        # with 4096 each family is one block
        dims = ModelDims(
            n_domains=2, n_user_clusters=3, n_common_clusters=4,
            n_specific_clusters=specific, n_levels=5,
            n_users=(10, 8), n_items=(7, 9),
        )
        ds = random_dataset(np.random.default_rng(seed + 100), dims, 30)
        assert_init_matches_reference(monkeypatch, dims, ds, seed, (block_rows,))

    @pytest.mark.parametrize("empty_domain", [False, True], ids=["rated", "domain-1-empty"])
    def test_wide_families_match_serial_reference(self, monkeypatch, empty_domain):
        # families 9 x 8, 9 x 1 and 9 x 10 wide; at 5 rows a block, 86 pooled
        # and 43 per-domain triples end in blocks of 1 and 3 rows, and an
        # empty domain's family is one block of 0 rows
        dims = ModelDims(
            n_domains=2, n_user_clusters=9, n_common_clusters=8,
            n_specific_clusters=(1, 10), n_levels=5,
            n_users=(10, 8), n_items=(7, 9),
        )
        ds = random_dataset(np.random.default_rng(31), dims, 43)
        if empty_domain:
            ds = CrossDomainDataset.from_indexed(
                n_levels=5, n_users=[10, 8], n_items=[7, 9],
                triples=np.column_stack([np.zeros(43, np.int64), ds.users[0],
                                         ds.items[0], ds.ratings[0]]),
            )
        assert_init_matches_reference(monkeypatch, dims, ds, 2)

    @pytest.mark.parametrize("k, t, specific", [
        (1, 4, (3, 2)), (3, 1, (1, 2)), (1, 1, (1, 1)), (4, 3, (1, 0)),
    ], ids=["K=1", "T=1", "K=T=L=1", "L=1,0"])
    @pytest.mark.parametrize("empty_domain", [False, True], ids=["rated", "domain-1-empty"])
    def test_length_one_axes_match_serial_reference(self, monkeypatch, k, t, specific,
                                                    empty_domain):
        # a family with a length-1 cluster axis draws in blocks like the
        # others; at 5 rows a block, 46 pooled and 23 per-domain triples end
        # in blocks of 1 and 3 rows
        dims = ModelDims(
            n_domains=2, n_user_clusters=k, n_common_clusters=t,
            n_specific_clusters=specific, n_levels=4, n_users=(6, 5), n_items=(7, 4),
        )
        ds = random_dataset(np.random.default_rng(17), dims, 23)
        if empty_domain:
            ds = CrossDomainDataset.from_indexed(
                n_levels=4, n_users=[6, 5], n_items=[7, 4],
                triples=np.column_stack([np.zeros(23, np.int64), ds.users[0],
                                         ds.items[0], ds.ratings[0]]),
            )
        assert_init_matches_reference(monkeypatch, dims, ds, 4)

    def test_concurrent_calls_under_fast_switching(self, monkeypatch):
        # more threads than CPUs, each calling init_params with its own
        # generator, and a switch every microsecond: any state shared between
        # calls would change a result
        dims = ModelDims(
            n_domains=2, n_user_clusters=3, n_common_clusters=4,
            n_specific_clusters=(2, 3), n_levels=5, n_users=(10, 8), n_items=(7, 9),
        )
        ds = random_dataset(np.random.default_rng(8), dims, 40)
        # and, at 3 rows a block, stretches of 50 of the 1560 values, so that
        # each call runs a helper thread
        for block_rows, stretch in (*((b, em.INIT_STRETCH) for b in INIT_BLOCKS), (3, 50)):
            monkeypatch.setattr(em, "INIT_BLOCK_ROWS", block_rows)
            monkeypatch.setattr(em, "INIT_STRETCH", stretch)
            want = {seed: init_params_reference(dims, ds, seed=seed) for seed in range(6)}
            got = {}

            def run(seed):
                got[seed] = init_params(dims, ds, seed=seed)

            threads = [threading.Thread(target=run, args=(seed,)) for seed in want]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert sorted(got) == sorted(want)
            for seed in want:
                for (name, a), (_, b) in zip(param_arrays(got[seed]),
                                             param_arrays(want[seed])):
                    assert np.array_equal(a, b), (block_rows, seed, name)

    def test_failed_draw_reaches_caller(self, tiny_dataset, monkeypatch):
        class DrawError(Exception):
            pass

        class SecondDrawFails:
            def __init__(self, rng):
                self.rng, self.calls = rng, 0

            def standard_gamma(self, *args, **kwargs):
                self.calls += 1
                if self.calls == 2:
                    raise DrawError("no entropy left")
                return self.rng.standard_gamma(*args, **kwargs)

        dims = ModelDims.from_dataset(tiny_dataset, 3, 2, (2, 2))
        monkeypatch.setattr(em, "INIT_BLOCK_ROWS", 2)  # 7 pooled triples: 4 blocks
        threads = threading.active_count()
        init_params(dims, tiny_dataset, seed=0)
        assert threading.active_count() == threads
        default_rng = np.random.default_rng
        monkeypatch.setattr(em.np.random, "default_rng",
                            lambda seed: SecondDrawFails(default_rng(seed)))
        with pytest.raises(DrawError, match="no entropy left"):
            init_params(dims, tiny_dataset, seed=0)
        assert threading.active_count() == threads

    def test_dims_mismatch(self, tiny_dataset):
        wrong = ModelDims(
            n_domains=2, n_user_clusters=2, n_common_clusters=2,
            n_specific_clusters=(1, 1), n_levels=5,
            n_users=(99, 2), n_items=(2, 3),
        )
        with pytest.raises(ModelError):
            init_params(wrong, tiny_dataset, seed=0)


@st.composite
def init_jobs(draw):
    """Jobs on one two-domain dataset and on its domain views, each with
    its own K and C: L_z = 0 domains, K = 1 or C = 1 families, and
    domain 1 empty in some draws."""
    users, items, levels = (6, 5), (7, 4), 4
    rng = np.random.default_rng(draw(st.integers(0, 1000)))
    rows = [(z, rng.integers(users[z]), rng.integers(items[z]), rng.integers(1, levels + 1))
            for z, n in enumerate((draw(st.integers(1, 23)), draw(st.integers(0, 23))))
            for _ in range(n)]
    ds = CrossDomainDataset.from_indexed(n_levels=levels, triples=np.array(rows),
                                         n_users=list(users), n_items=list(items))
    jobs = []
    for _ in range(draw(st.integers(1, 5))):
        view = draw(st.sampled_from([None, 0, 1]))
        dataset = ds if view is None else ds.domain_view(view)
        specific = tuple(draw(st.integers(0, 3)) for _ in range(dataset.n_domains))
        dims = ModelDims.from_dataset(dataset, draw(st.integers(1, 4)), draw(st.integers(1, 4)),
                                      specific)
        jobs.append((dims, dataset))
    return jobs


class TestInitParamsMany:
    @settings(max_examples=80, deadline=None)
    @given(jobs=init_jobs(), seed=st.integers(0, 2**32 - 1), block_rows=st.integers(1, 9),
           floor=st.sampled_from([0.0, 1e-10]))
    def test_matches_each_jobs_init(self, jobs, seed, block_rows, floor):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(em, "INIT_BLOCK_ROWS", block_rows)
            want = [init_params(dims, ds, seed, floor) for dims, ds in jobs]
            got = init_params_many(jobs, seed, floor)
        assert len(got) == len(want)
        for i, (a, b) in enumerate(zip(got, want)):
            assert a.dims == b.dims
            for (name, x), (_, y) in zip(param_arrays(a), param_arrays(b)):
                assert np.array_equal(x, y), (i, name)

    def test_dims_mismatch(self, tiny_dataset):
        good = ModelDims.from_dataset(tiny_dataset, 2, 2, 1)
        wrong = ModelDims.from_dataset(tiny_dataset.domain_view(0), 2, 2, 1)
        with pytest.raises(ModelError, match="model dims do not match the dataset"):
            init_params_many([(good, tiny_dataset), (wrong, tiny_dataset)], seed=0)

    def test_train_from_given_init_matches_own_init(self, tiny_dataset):
        dims = ModelDims.from_dataset(tiny_dataset, 2, 2, (1, 0))
        config = TrainConfig(beta_schedule=(0.8, 1.0), max_iters_per_beta=3, seed=4)
        start = init_params_many([(dims, tiny_dataset)], config.seed, config.smoothing_floor)[0]
        want, want_trace = train(tiny_dataset, dims, config)
        got, got_trace = train(tiny_dataset, dims, config, init=start)
        assert got_trace == want_trace
        for (name, a), (_, b) in zip(param_arrays(got), param_arrays(want)):
            assert np.array_equal(a, b), name
        other = ModelDims.from_dataset(tiny_dataset, 3, 2, (1, 0))
        with pytest.raises(ModelError, match="initial parameters' dims"):
            train(tiny_dataset, other, config, init=start)


class _CountingRng:
    """A generator that counts the values its ``standard_gamma`` calls draw."""

    def __init__(self, rng):
        self.rng, self.drawn = rng, 0

    def standard_gamma(self, shape, size=None, out=None, **kwargs):
        self.drawn += out.size if out is not None else int(np.prod(size))
        return self.rng.standard_gamma(shape, size=size, out=out, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_init_params_many_draws_the_stream_once(monkeypatch, tiny_dataset):
    # pclf, rmgm-like and fmm on each domain view, in blocks smaller than a
    # family, so the jobs' blocks end at different points of the stream
    views = [tiny_dataset.domain_view(z) for z in range(2)]
    jobs = [(ModelDims.from_dataset(tiny_dataset, 3, 2, (2, 1)), tiny_dataset),
            (ModelDims.from_dataset(tiny_dataset, 2, 3, 0), tiny_dataset),
            *((ModelDims.from_dataset(view, 3, 2, 0), view) for view in views)]
    longest = max(sum(len(fam.ridx) * dims.n_user_clusters * fam.n_clusters
                      for fam in em._families(dims, ds)) for dims, ds in jobs)
    rngs = []
    real = np.random.default_rng

    def counting(seed):
        rngs.append(_CountingRng(real(seed)))
        return rngs[-1]

    monkeypatch.setattr(em, "INIT_BLOCK_ROWS", 2)
    monkeypatch.setattr(np.random, "default_rng", counting)
    init_params_many(jobs, 5)
    assert sum(rng.drawn for rng in rngs) == longest


STRETCH = 1000  # values per stretch in the stream tests


def counted_helpers(monkeypatch):
    """``{"helpers": n, "joins": m}``, counting the helper stretches that
    ``em._GammaStream`` starts and those whose values the caller takes."""
    counts = {"helpers": 0, "joins": 0}
    draw, segments = em._draw_stretch, em._stream_segments

    def drawing(*args):
        counts["helpers"] += 1
        return draw(*args)

    def segmenting(rng, total):
        inner = segments(rng, total)
        try:
            for values, n in inner:
                counts["joins"] += values is not None
                yield values, n
        finally:
            inner.close()

    monkeypatch.setattr(em, "_draw_stretch", drawing)
    monkeypatch.setattr(em, "_stream_segments", segmenting)
    return counts


def take_stream(seed, n):
    """The first n values of ``em._GammaStream(seed, n)``, taken in pieces
    of 1 to 300 values."""
    pieces = np.random.default_rng(seed + 1)
    stream, out, at = em._GammaStream(seed, n), np.empty(n), 0
    try:
        while at < n:
            size = int(pieces.integers(1, 301))
            stream.fill(out[at:at + size])
            at += size
    finally:
        stream.close()
    return out


def helper_dims():
    """3 x 4, 3 x 2 and 3 x 3 families on 40 triples a domain: 1560 values."""
    dims = ModelDims(n_domains=2, n_user_clusters=3, n_common_clusters=4,
                     n_specific_clusters=(2, 3), n_levels=5, n_users=(10, 8), n_items=(7, 9))
    return dims, random_dataset(np.random.default_rng(8), dims, 40)


class TestGammaStream:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1])
    def test_matches_one_draw_around_stretch_edges(self, monkeypatch, seed):
        monkeypatch.setattr(em, "INIT_STRETCH", STRETCH)
        counts = counted_helpers(monkeypatch)
        threads = threading.active_count()
        for n in (0, 1, STRETCH - 1, STRETCH, STRETCH + 1, 2 * STRETCH - 1, 2 * STRETCH,
                  2 * STRETCH + 1, 3 * STRETCH, 7 * STRETCH + 13):
            want = np.random.default_rng(seed).standard_gamma(0.5, size=n)
            assert np.array_equal(take_stream(seed, n), want), n
        assert threading.active_count() == threads
        assert 0 < counts["joins"] <= counts["helpers"], counts

    @pytest.mark.parametrize("raws", [1.0, 4.0], ids=["behind", "ahead"])
    def test_exact_when_no_state_matches(self, monkeypatch, raws):
        # a helper started far behind or far ahead of its stretch records no
        # state the caller reaches, so the caller draws every value itself
        monkeypatch.setattr(em, "INIT_STRETCH", STRETCH)
        monkeypatch.setattr(em, "GAMMA_RAWS", raws)
        counts = counted_helpers(monkeypatch)
        for seed in (0, 3):
            want = np.random.default_rng(seed).standard_gamma(0.5, size=5 * STRETCH + 7)
            assert np.array_equal(take_stream(seed, len(want)), want)
        assert counts["joins"] == 0 and counts["helpers"] == 8, counts

    def test_init_params_matches_reference_with_helpers(self, monkeypatch):
        dims, ds = helper_dims()
        counts = counted_helpers(monkeypatch)
        monkeypatch.setattr(em, "INIT_BLOCK_ROWS", 3)
        monkeypatch.setattr(em, "INIT_STRETCH", 100)
        for seed in range(4):
            got, want = init_params(dims, ds, seed), init_params_reference(dims, ds, seed)
            for (name, a), (_, b) in zip(param_arrays(got), param_arrays(want)):
                assert np.array_equal(a, b), (seed, name)
        assert 0 < counts["joins"] <= counts["helpers"], counts

    @pytest.mark.parametrize("failing", [1, 3])
    def test_helper_error_reaches_caller(self, monkeypatch, failing):
        class DrawError(Exception):
            pass

        calls = []
        draw = em._draw_stretch

        def fails(*args):
            calls.append(None)
            if len(calls) == failing:
                raise DrawError("helper out of entropy")
            return draw(*args)

        dims, ds = helper_dims()
        monkeypatch.setattr(em, "INIT_BLOCK_ROWS", 3)
        monkeypatch.setattr(em, "INIT_STRETCH", 100)
        monkeypatch.setattr(em, "_draw_stretch", fails)
        threads = threading.active_count()
        with pytest.raises(DrawError, match="^helper out of entropy$"):
            init_params(dims, ds, seed=0)
        assert len(calls) == failing
        assert threading.active_count() == threads

    def test_caller_error_joins_running_helper(self, monkeypatch):
        class DrawError(Exception):
            pass

        class ThirdDrawFails:
            def __init__(self, rng):
                self.rng, self.calls = rng, 0

            def standard_gamma(self, *args, **kwargs):
                self.calls += 1
                if self.calls == 3:
                    raise DrawError("no entropy left")
                return self.rng.standard_gamma(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self.rng, name)

        dims, ds = helper_dims()
        # 36 values a block: the third draw is inside the first stretch,
        # while the first helper draws the second
        monkeypatch.setattr(em, "INIT_BLOCK_ROWS", 3)
        monkeypatch.setattr(em, "INIT_STRETCH", 100)
        counts = counted_helpers(monkeypatch)
        default_rng = np.random.default_rng
        monkeypatch.setattr(em.np.random, "default_rng",
                            lambda seed: ThirdDrawFails(default_rng(seed)))
        threads = threading.active_count()
        with pytest.raises(DrawError, match="no entropy left"):
            init_params(dims, ds, seed=0)
        assert counts["helpers"] == 1 and counts["joins"] == 0, counts
        assert threading.active_count() == threads

    @pytest.mark.parametrize("stretch,helpers", [(100, 9), (1559, 1), (1560, 0), (5000, 0)])
    def test_one_helper_thread_per_stream(self, monkeypatch, stretch, helpers):
        # helper_dims' 1560 values: every helper stretch of a stream runs on
        # one thread, and a stream of at most one stretch starts none
        starts = []
        start = threading.Thread.start

        def counting(thread):
            if thread.name.startswith("pclf-init-draw"):
                starts.append(thread.name)
            start(thread)

        dims, ds = helper_dims()
        counts = counted_helpers(monkeypatch)
        monkeypatch.setattr(em, "INIT_BLOCK_ROWS", 3)
        monkeypatch.setattr(em, "INIT_STRETCH", stretch)
        monkeypatch.setattr(threading.Thread, "start", counting)
        threads = threading.active_count()
        init_params(dims, ds, seed=0)
        assert counts["helpers"] == helpers, counts
        assert len(starts) == min(helpers, 1), starts
        assert threading.active_count() == threads


class TestEStep:
    def test_uniform_params_give_uniform_responsibilities(self, tiny_dataset):
        dims = ModelDims.from_dataset(tiny_dataset, 2, 3, (2, 2))
        d = dims
        params = PclfParams(
            dims=d,
            prior_u=np.full(2, 0.5),
            prior_vcom=np.full(3, 1 / 3),
            prior_vspe=[np.full(2, 0.5), np.full(2, 0.5)],
            cond_u=np.full((2, d.total_users), 1 / d.total_users),
            cond_vcom=np.full((3, d.total_items), 1 / d.total_items),
            cond_vspe=[np.full((2, n), 1 / n) for n in d.n_items],
            rate_com=np.full((2, 3, 5), 0.2),
            rate_spe=[np.full((2, 2, 5), 0.2) for _ in range(2)],
        )
        resp = e_step(params, tiny_dataset, beta=1.0)
        np.testing.assert_allclose(resp.p0, 1 / 6, atol=PROB_ATOL)
        for z in range(2):
            np.testing.assert_allclose(resp.pz[z], 1 / 4, atol=PROB_ATOL)

    def test_single_cluster_forced(self, tiny_dataset):
        params = init_params(single_cluster_dims(tiny_dataset), tiny_dataset, seed=0)
        resp = e_step(params, tiny_dataset)
        np.testing.assert_allclose(resp.p0, 1.0, atol=PROB_ATOL)

    def test_hand_computed_two_by_two(self):
        # one triple (user 0, item 1, level 2), K=T=2, R=2; the product of
        # the five factors normalizes to exactly [[28, 45], [56, 64]] / 193
        ds = CrossDomainDataset.from_indexed(
            n_levels=2, triples=np.array([[0, 0, 1, 2]]), n_users=[2], n_items=[2]
        )
        dims = ModelDims.from_dataset(ds, 2, 2, (1,))
        params = PclfParams(
            dims=dims,
            prior_u=np.array([0.6, 0.4]),
            prior_vcom=np.array([0.7, 0.3]),
            prior_vspe=[np.array([1.0])],
            cond_u=np.array([[0.3, 0.7], [0.8, 0.2]]),
            cond_vcom=np.array([[0.9, 0.1], [0.4, 0.6]]),
            cond_vspe=[np.array([[0.5, 0.5]])],
            rate_com=np.array([[[0.2, 0.8], [0.5, 0.5]],
                               [[0.1, 0.9], [0.6, 0.4]]]),
            rate_spe=[np.full((2, 1, 2), 0.5)],
        )
        resp = e_step(params, ds, beta=1.0)
        expected = np.array([[28.0, 45.0], [56.0, 64.0]]) / 193.0
        np.testing.assert_allclose(resp.p0[0], expected, atol=1e-12)

    def test_matches_bruteforce_with_beta(self):
        rng = np.random.default_rng(5)
        ds = CrossDomainDataset.from_indexed(
            n_levels=3,
            triples=np.array([[0, 1, 2, 3], [1, 0, 1, 1]]),
            n_users=[2, 2], n_items=[3, 2],
        )
        gu, gv, r = ds.pooled()
        # (2, 0): domain 1 has no specific clusters and gets an empty posterior
        for n_specific in ((2, 2), (2, 0)):
            dims = ModelDims.from_dataset(ds, 3, 2, n_specific)
            params = random_params(rng, dims)
            for beta in (0.4, 0.7, 1.0):
                resp = e_step(params, ds, beta=beta)
                for j in range(2):
                    expected = posterior_matrix(
                        params.prior_u, params.cond_u[:, gu[j]],
                        params.prior_vcom, params.cond_vcom[:, gv[j]],
                        params.rate_com, int(r[j]), beta=beta,
                    )
                    np.testing.assert_allclose(resp.p0[j], expected, atol=1e-10)
                    z, v = j, int(ds.items[j][0])  # triple j is domain j's only one
                    if n_specific[z] == 0:
                        assert resp.pz[z].shape == (1, 3, 0)
                        continue
                    expected = posterior_matrix(
                        params.prior_u, params.cond_u[:, gu[j]],
                        params.prior_vspe[z], params.cond_vspe[z][:, v],
                        params.rate_spe[z], int(r[j]), beta=beta,
                    )
                    np.testing.assert_allclose(resp.pz[z][0], expected, atol=1e-10)

    def test_degenerate_mass_goes_uniform(self):
        ds = CrossDomainDataset.from_indexed(
            n_levels=2, triples=np.array([[0, 0, 0, 2]]), n_users=[1], n_items=[1]
        )
        dims = ModelDims.from_dataset(ds, 2, 2, (1,))
        params = random_params(np.random.default_rng(0), dims)
        params.rate_com[:, :, 1] = 0.0  # observed level has no mass anywhere
        resp = e_step(params, ds)
        np.testing.assert_allclose(resp.p0[0], 0.25, atol=PROB_ATOL)

    def test_beta_bounds(self, tiny_dataset):
        params = init_params(single_cluster_dims(tiny_dataset), tiny_dataset, seed=0)
        with pytest.raises(ModelError):
            e_step(params, tiny_dataset, beta=0.0)
        with pytest.raises(ModelError):
            e_step(params, tiny_dataset, beta=1.5)

    def test_responsibilities_normalized(self, tiny_dataset):
        dims = ModelDims.from_dataset(tiny_dataset, 3, 2, (2, 3))
        params = init_params(dims, tiny_dataset, seed=2)
        resp = e_step(params, tiny_dataset, beta=0.8)
        np.testing.assert_allclose(resp.p0.sum(axis=(1, 2)), 1.0, atol=PROB_ATOL)
        for block in resp.pz:
            np.testing.assert_allclose(block.sum(axis=(1, 2)), 1.0, atol=PROB_ATOL)


class TestMStep:
    def test_concentrated_mass(self, tiny_dataset):
        s_total = sum(tiny_dataset.n_ratings)
        k, t = 3, 2
        p0 = np.zeros((s_total, k, t))
        p0[:, 0, 0] = 1.0
        pz = []
        for z in range(2):
            block = np.zeros((tiny_dataset.n_ratings[z], k, 2))
            block[:, 0, 0] = 1.0
            pz.append(block)
        params = m_step(Responsibilities(p0, pz), tiny_dataset, floor=0.0)
        np.testing.assert_allclose(params.prior_u, [1.0, 0.0, 0.0], atol=PROB_ATOL)
        _, _, r = tiny_dataset.pooled()
        hist = np.bincount(r - 1, minlength=5) / len(r)
        np.testing.assert_allclose(params.rate_com[0, 0], hist, atol=PROB_ATOL)

    def test_uniform_responsibilities_count_users(self):
        # 5 triples, users [0,0,1,2,2]: cond_u(u|k) = count(u)/S for every k
        rows = np.array([
            [0, 0, 0, 1],
            [0, 0, 1, 2],
            [0, 1, 2, 3],
            [0, 2, 3, 4],
            [0, 2, 4, 5],
        ])
        ds = CrossDomainDataset.from_indexed(
            n_levels=5, triples=rows, n_users=[3], n_items=[5]
        )
        k, t, l = 2, 2, 2
        p0 = np.full((5, k, t), 1.0 / (k * t))
        pz = [np.full((5, k, l), 1.0 / (k * l))]
        params = m_step(Responsibilities(p0, pz), ds, floor=0.0)
        expected = np.array([2, 1, 2]) / 5.0
        for row in params.cond_u:
            np.testing.assert_allclose(row, expected, atol=PROB_ATOL)

    def test_all_distributions_normalized(self, tiny_dataset):
        rng = np.random.default_rng(8)
        s_total = sum(tiny_dataset.n_ratings)
        p0 = rng.random((s_total, 4, 3))
        p0 /= p0.sum(axis=(1, 2), keepdims=True)
        pz = []
        for z in range(2):
            block = rng.random((tiny_dataset.n_ratings[z], 4, 2))
            block /= block.sum(axis=(1, 2), keepdims=True)
            pz.append(block)
        params = m_step(Responsibilities(p0, pz), tiny_dataset, floor=1e-10)
        params.validate(atol=PROB_ATOL)

    def test_shape_mismatch(self, tiny_dataset):
        p0 = np.full((2, 1, 1), 1.0)
        with pytest.raises(ModelError):
            m_step(Responsibilities(p0, [p0, p0]), tiny_dataset, floor=0.0)


class TestLogLikelihood:
    def test_single_triple_point_mass(self):
        ds = CrossDomainDataset.from_indexed(
            n_levels=2, triples=np.array([[0, 0, 0, 2]]), n_users=[1], n_items=[1]
        )
        dims = ModelDims.from_dataset(ds, 1, 1, (1,))
        table = np.array([[[0.0, 1.0]]])
        params = PclfParams(
            dims=dims,
            prior_u=np.ones(1), prior_vcom=np.ones(1), prior_vspe=[np.ones(1)],
            cond_u=np.ones((1, 1)), cond_vcom=np.ones((1, 1)),
            cond_vspe=[np.ones((1, 1))],
            rate_com=table.copy(), rate_spe=[table.copy()],
        )
        # both component terms are log(P(u) * P(v)) = log(1)
        assert log_likelihood(params, ds) == pytest.approx(0.0, abs=1e-12)

    def test_single_triple_frozen_value(self):
        # conditionals 0.3/0.2 (common) and 0.3/0.25 (specific), point-mass tables
        ds = CrossDomainDataset.from_indexed(
            n_levels=2, triples=np.array([[0, 0, 0, 2]]), n_users=[2], n_items=[2]
        )
        dims = ModelDims.from_dataset(ds, 1, 1, (1,))
        params = PclfParams(
            dims=dims,
            prior_u=np.ones(1), prior_vcom=np.ones(1), prior_vspe=[np.ones(1)],
            cond_u=np.array([[0.3, 0.7]]),
            cond_vcom=np.array([[0.2, 0.8]]),
            cond_vspe=[np.array([[0.25, 0.75]])],
            rate_com=np.array([[[0.0, 1.0]]]),
            rate_spe=[np.array([[[0.0, 1.0]]])],
        )
        assert log_likelihood(params, ds) == pytest.approx(-5.403677882205863, abs=1e-12)

    def test_doubling_dataset_doubles_ll(self, tiny_dataset):
        dims = ModelDims.from_dataset(tiny_dataset, 2, 2, (2, 2))
        params = random_params(np.random.default_rng(1), dims)
        doubled = CrossDomainDataset(
            n_levels=tiny_dataset.n_levels,
            users=[np.concatenate([u, u]) for u in tiny_dataset.users],
            items=[np.concatenate([v, v]) for v in tiny_dataset.items],
            ratings=[np.concatenate([r, r]) for r in tiny_dataset.ratings],
            n_users=list(tiny_dataset.n_users),
            n_items=list(tiny_dataset.n_items),
            user_ids=tiny_dataset.user_ids,
            item_ids=tiny_dataset.item_ids,
        )
        ll = log_likelihood(params, tiny_dataset)
        assert log_likelihood(params, doubled) == pytest.approx(2 * ll, rel=1e-12)

    def test_improves_after_em_round(self, tiny_dataset):
        dims = ModelDims.from_dataset(tiny_dataset, 3, 2, (2, 2))
        params = init_params(dims, tiny_dataset, seed=4)
        before = log_likelihood(params, tiny_dataset)
        new_params = m_step(e_step(params, tiny_dataset), tiny_dataset, floor=1e-10)
        after = log_likelihood(new_params, tiny_dataset)
        assert after >= before - 1e-9

    def test_matches_bruteforce(self, tiny_dataset):
        # (2, 0): domain 1 has no specific clusters and adds no specific term
        for n_specific in ((2, 1), (2, 0)):
            dims = ModelDims.from_dataset(tiny_dataset, 2, 3, n_specific)
            params = random_params(np.random.default_rng(12), dims)
            expected = dataset_log_likelihood(params, tiny_dataset)
            assert log_likelihood(params, tiny_dataset) == pytest.approx(expected, rel=1e-10)

    def test_permutation_invariance(self, tiny_dataset):
        dims = ModelDims.from_dataset(tiny_dataset, 3, 2, (2, 2))
        params = random_params(np.random.default_rng(2), dims)
        ll = log_likelihood(params, tiny_dataset)
        shuffled = permute_params(
            params, perm_k=[2, 0, 1], perm_t=[1, 0], perm_l=[[1, 0], [0, 1]]
        )
        assert log_likelihood(shuffled, tiny_dataset) == pytest.approx(ll, abs=1e-12 * abs(ll))


class TestTrain:
    def test_plain_em_monotone(self):
        rng = np.random.default_rng(7)
        dims = ModelDims(
            n_domains=2, n_user_clusters=3, n_common_clusters=2,
            n_specific_clusters=(2, 2), n_levels=5,
            n_users=(12, 10), n_items=(8, 9),
        )
        ds = random_dataset(rng, dims, 60)
        config = TrainConfig(beta_schedule=(1.0,), max_iters_per_beta=25, seed=0)
        _, trace = train(ds, dims, config)
        lls = [t.log_likelihood for t in trace]
        assert all(b - a >= -1e-9 for a, b in zip(lls, lls[1:]))

    def test_deterministic_trace(self, tiny_dataset):
        dims = ModelDims.from_dataset(tiny_dataset, 2, 2, (1, 1))
        config = TrainConfig(beta_schedule=(0.5, 1.0), max_iters_per_beta=5, seed=3)
        _, trace_a = train(tiny_dataset, dims, config)
        _, trace_b = train(tiny_dataset, dims, config)
        assert trace_a == trace_b

    def test_reaches_generator_bar(self):
        # the generating parameters are the oracle bar: a properly trained
        # model may not land materially below them (it typically lands
        # above, since the objective scores each triple under both
        # components while the generator committed to one per triple)
        from pclf import SyntheticSpec, synth_generate

        dims = ModelDims(
            n_domains=2, n_user_clusters=3, n_common_clusters=2,
            n_specific_clusters=(2, 2), n_levels=5,
            n_users=(80, 80), n_items=(60, 60),
        )
        spec = SyntheticSpec(dims=dims, w1=(0.5, 0.5), density=0.5, seed=11,
                             membership_concentration=0.3)
        ds, true_params = synth_generate(spec)
        config = TrainConfig(beta_schedule=(0.6, 0.8, 1.0), max_iters_per_beta=40, seed=5)
        params_start = init_params(dims, ds, seed=5)
        _, trace = train(ds, dims, config)
        trained = trace[-1].log_likelihood
        bar = log_likelihood(true_params, ds)
        assert trained >= bar - 0.02 * abs(bar)
        # and training must have actually moved off the random start
        assert trained > log_likelihood(params_start, ds) + 0.005 * abs(bar)

    def test_fixed_point_single_cluster(self, tiny_dataset):
        dims = single_cluster_dims(tiny_dataset)
        params = init_params(dims, tiny_dataset, seed=0, floor=0.0)
        once = m_step(e_step(params, tiny_dataset), tiny_dataset, floor=0.0)
        twice = m_step(e_step(once, tiny_dataset), tiny_dataset, floor=0.0)
        np.testing.assert_allclose(once.cond_u, twice.cond_u, atol=1e-12)
        np.testing.assert_allclose(once.rate_com, twice.rate_com, atol=1e-12)
        np.testing.assert_allclose(once.cond_vspe[0], twice.cond_vspe[0], atol=1e-12)

    @pytest.mark.parametrize("specific", [(2, 3), (2, 0)])
    def test_matches_reference_loop(self, specific):
        # train() runs the factorized pass; the reference is the log-space
        # e_step -> m_step -> per-family pair_log_likelihood loop
        rng = np.random.default_rng(21)
        dims = ModelDims(
            n_domains=2, n_user_clusters=3, n_common_clusters=2,
            n_specific_clusters=specific, n_levels=5,
            n_users=(14, 11), n_items=(9, 12),
        )
        ds = random_dataset(rng, dims, 70)
        config = TrainConfig(beta_schedule=(0.5, 0.8, 1.0), max_iters_per_beta=6,
                             min_iters_per_beta=2, seed=4)
        params = init_params(dims, ds, config.seed, floor=config.smoothing_floor)
        want = []
        for beta in config.beta_schedule:
            prev = None
            for it in range(config.max_iters_per_beta):
                params = m_step(e_step(params, ds, beta=beta), ds, config.smoothing_floor)
                ll = 0.0
                for fam in em._families(dims, ds):
                    ll += kernels.pair_log_likelihood(*fam.kernel_inputs(params))
                want.append((beta, it, ll))
                if prev is not None and it + 1 >= config.min_iters_per_beta \
                        and abs(ll - prev) <= config.rel_ll_tol * abs(prev):
                    break
                prev = ll
        got, trace = train(ds, dims, config)
        assert [(t.beta, t.iteration) for t in trace] == [w[:2] for w in want]
        np.testing.assert_allclose(
            [t.log_likelihood for t in trace], [w[2] for w in want], rtol=1e-12, atol=0
        )
        assert got.dims == params.dims
        for (name, a), (_, b) in zip(param_arrays(got), param_arrays(params)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("specific", [(2, 3), (2, 0)])
    @pytest.mark.parametrize("case", ["plain-em", "tol-stop", "one-iter"])
    def test_carried_pass_matches_reference_loop(self, monkeypatch, specific, case):
        # train() takes the beta = 1 log-likelihood from the next iteration's
        # pass; the reference makes every pass and normalizer pass afresh
        config = {
            # the carry starts at iteration 1 and runs to the cap
            "plain-em": TrainConfig(beta_schedule=(1.0,), max_iters_per_beta=6,
                                    min_iters_per_beta=6, seed=4),
            # beta = 1 stops on the tolerance mid-phase, dropping the carry
            "tol-stop": TrainConfig(beta_schedule=(0.5, 1.0), max_iters_per_beta=8,
                                    min_iters_per_beta=2, rel_ll_tol=2e-3, seed=4),
            # one iteration per beta: nothing is carried
            "one-iter": TrainConfig(beta_schedule=(0.5, 0.8, 1.0), max_iters_per_beta=1,
                                    min_iters_per_beta=1, seed=4),
        }[case]
        rng = np.random.default_rng(21)
        dims = ModelDims(
            n_domains=2, n_user_clusters=3, n_common_clusters=2,
            n_specific_clusters=specific, n_levels=5,
            n_users=(14, 11), n_items=(9, 12),
        )
        ds = random_dataset(rng, dims, 70)
        want_params, want = train_reference(ds, dims, config)
        calls = {"pair_pass": 0, "pair_log_normalizers": 0}
        for name in calls:
            def counted(*args, _kernel=getattr(kernels, name), _name=name, **kwargs):
                calls[_name] += 1
                return _kernel(*args, **kwargs)
            monkeypatch.setattr(kernels, name, counted)
        got, trace = train(ds, dims, config)
        assert [(t.beta, t.iteration, t.log_likelihood) for t in trace] == want
        for (name, a), (_, b) in zip(param_arrays(got), param_arrays(want_params)):
            assert np.array_equal(a, b), name
        # one pass per iteration, and one normalizers-only pass per iteration
        # that no further beta = 1 iteration can follow
        n_fam = 1 + sum(l > 0 for l in specific)
        at_one = [t for t in trace if t.beta == 1.0]
        assert calls["pair_pass"] == n_fam * (len(trace) + (case == "tol-stop"))
        assert calls["pair_log_normalizers"] == n_fam * (
            len(trace) - len(at_one) + (at_one[-1].iteration + 1 == config.max_iters_per_beta))
        if case == "tol-stop":
            assert 2 <= len(at_one) < config.max_iters_per_beta

    def test_config_validation(self):
        with pytest.raises(ModelError):
            TrainConfig(beta_schedule=(0.5, 0.9))  # must end at 1.0
        with pytest.raises(ModelError):
            TrainConfig(beta_schedule=(1.0, 0.5, 1.0))
        with pytest.raises(ModelError):
            TrainConfig(beta_schedule=(0.0, 1.0))
        with pytest.raises(ModelError):
            TrainConfig(rel_ll_tol=0.0)
        for iters in (0, -1):
            with pytest.raises(ModelError, match="max_iters_per_beta"):
                TrainConfig(max_iters_per_beta=iters)
