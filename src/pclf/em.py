"""Model parameters and the annealed-EM trainer.

The model co-clusters users and items across Z domains.  One set of K user
clusters is shared by every domain; items belong both to T common clusters
(shared across domains) and to L_z domain-specific clusters.  Ratings are
discrete levels 1..R drawn from categorical tables indexed by cluster
pairs.  Training alternates posterior computation (E) and closed-form
parameter updates (M) on the pooled data, with an inverse temperature
raised toward 1 to dodge poor local maxima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .data import CrossDomainDataset

PROB_ATOL = 1e-12  # every stored distribution must sum to 1 within this
INIT_BLOCK_ROWS = 512  # triples per random draw and reduction in init_params; bounds its memory
INIT_STRETCH = 2**17  # init stream values one thread draws at a time; the helper's buffer holds one
# numpy's gamma(0.5) takes this many 64-bit draws per value on average, with a
# standard deviation of about GAMMA_RAWS_SD * sqrt(n) over n values
GAMMA_RAWS, GAMMA_RAWS_SD = 2.2945, 0.75


class ModelError(ValueError):
    """Inconsistent model dimensions or configuration."""


@dataclass(frozen=True)
class ModelDims:
    """Cluster counts and index-space sizes for one model instance."""

    n_domains: int
    n_user_clusters: int
    n_common_clusters: int
    n_specific_clusters: tuple[int, ...]
    n_levels: int
    n_users: tuple[int, ...]
    n_items: tuple[int, ...]

    def __post_init__(self):
        if self.n_user_clusters < 1 or self.n_common_clusters < 1:
            raise ModelError("cluster counts must be >= 1")
        if any(l < 0 for l in self.n_specific_clusters):
            raise ModelError("specific cluster counts must be >= 0")
        if self.n_levels < 2:
            raise ModelError("need at least 2 rating levels")
        for name, seq in (
            ("n_specific_clusters", self.n_specific_clusters),
            ("n_users", self.n_users),
            ("n_items", self.n_items),
        ):
            if len(seq) != self.n_domains:
                raise ModelError(f"{name} must have one entry per domain")
        k, t = self.n_user_clusters, self.n_common_clusters
        largest = max(k * self.total_users, t * self.total_items,
                      k * max((t, *self.n_specific_clusters)) * self.n_levels,
                      *(l * n for l, n in zip(self.n_specific_clusters, self.n_items)))
        if largest > np.iinfo(np.intp).max // 8:
            raise ModelError(f"the dims give a parameter array of {largest} entries, "
                             "more than numpy can address")

    @property
    def total_users(self) -> int:
        return sum(self.n_users)

    @property
    def total_items(self) -> int:
        return sum(self.n_items)

    def user_offset(self, domain: int) -> int:
        return sum(self.n_users[:domain])

    def item_offset(self, domain: int) -> int:
        return sum(self.n_items[:domain])

    @classmethod
    def from_dataset(
        cls,
        dataset: CrossDomainDataset,
        n_user_clusters: int,
        n_common_clusters: int,
        n_specific_clusters,
    ) -> "ModelDims":
        if isinstance(n_specific_clusters, int):
            n_specific_clusters = (n_specific_clusters,) * dataset.n_domains
        return cls(
            n_domains=dataset.n_domains,
            n_user_clusters=n_user_clusters,
            n_common_clusters=n_common_clusters,
            n_specific_clusters=tuple(n_specific_clusters),
            n_levels=dataset.n_levels,
            n_users=tuple(dataset.n_users),
            n_items=tuple(dataset.n_items),
        )


@dataclass
class PclfParams:
    """Full parameter set.

    prior_u       (K,)            user-cluster prior
    prior_vcom    (T,)            common item-cluster prior
    prior_vspe[z] (L_z,)          specific item-cluster prior per domain
    cond_u        (K, sum M_z)    P(user | user cluster), over all users pooled
    cond_vcom     (T, sum N_z)    P(item | common cluster), over all items pooled
    cond_vspe[z]  (L_z, N_z)      P(item | specific cluster), domain-local
    rate_com      (K, T, R)       categorical rating table per (k, t)
    rate_spe[z]   (K, L_z, R)     categorical rating table per (k, l)
    """

    dims: ModelDims
    prior_u: np.ndarray
    prior_vcom: np.ndarray
    prior_vspe: list[np.ndarray]
    cond_u: np.ndarray
    cond_vcom: np.ndarray
    cond_vspe: list[np.ndarray]
    rate_com: np.ndarray
    rate_spe: list[np.ndarray]

    def validate(self, atol: float = PROB_ATOL) -> None:
        """Check non-negativity and unit sums on every stored distribution."""
        d = self.dims
        checks = [
            ("prior_u", self.prior_u, (d.n_user_clusters,), None),
            ("prior_vcom", self.prior_vcom, (d.n_common_clusters,), None),
            ("cond_u", self.cond_u, (d.n_user_clusters, d.total_users), 1),
            ("cond_vcom", self.cond_vcom, (d.n_common_clusters, d.total_items), 1),
            ("rate_com", self.rate_com,
             (d.n_user_clusters, d.n_common_clusters, d.n_levels), 2),
        ]
        for z in range(d.n_domains):
            l_z = d.n_specific_clusters[z]
            checks.append((f"prior_vspe[{z}]", self.prior_vspe[z], (l_z,), None))
            checks.append((f"cond_vspe[{z}]", self.cond_vspe[z], (l_z, d.n_items[z]), 1))
            checks.append((f"rate_spe[{z}]", self.rate_spe[z],
                           (d.n_user_clusters, l_z, d.n_levels), 2))
        for name, arr, shape, axis in checks:
            if arr.shape != shape:
                raise ModelError(f"{name}: shape {arr.shape}, expected {shape}")
            if arr.size == 0:
                continue
            if (arr < 0).any():
                raise ModelError(f"{name}: negative entries")
            sums = arr.sum() if axis is None else arr.sum(axis=axis)
            if not np.allclose(sums, 1.0, rtol=0.0, atol=atol):
                worst = np.max(np.abs(np.asarray(sums) - 1.0))
                raise ModelError(f"{name}: distribution off by {worst:.3e}")


@dataclass
class Responsibilities:
    """Per-triple posteriors: p0 over (k, t) on pooled data, pz over (k, l) per domain."""

    p0: np.ndarray
    pz: list[np.ndarray]


@dataclass(frozen=True)
class TrainConfig:
    beta_schedule: tuple[float, ...] = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    max_iters_per_beta: int = 50
    min_iters_per_beta: int = 10
    rel_ll_tol: float = 1e-6
    smoothing_floor: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        sched = tuple(self.beta_schedule)
        if not sched or any(not 0.0 < b <= 1.0 for b in sched):
            raise ModelError("beta schedule values must lie in (0, 1]")
        if list(sched) != sorted(sched):
            raise ModelError("beta schedule must be ascending")
        if sched[-1] != 1.0:
            raise ModelError("beta schedule must end at 1.0")
        if not self.rel_ll_tol > 0:   # NaN fails too
            raise ModelError(f"rel_ll_tol must be > 0, got {self.rel_ll_tol}")
        # a floor is probability mass; past 1 it swamps every distribution,
        # and near the largest float the renormalizing sum overflows
        if not 0 <= self.smoothing_floor <= 1:   # NaN fails too
            raise ModelError(f"smoothing_floor must lie in [0, 1], got {self.smoothing_floor}")
        if self.max_iters_per_beta < 1:
            raise ModelError("max_iters_per_beta must be >= 1")
        if self.min_iters_per_beta < 1:
            raise ModelError("min_iters_per_beta must be >= 1")
        if self.seed < 0:
            raise ModelError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "beta_schedule", sched)


@dataclass(frozen=True)
class TraceEntry:
    beta: float
    iteration: int
    log_likelihood: float


def _check_dims(dims: ModelDims, dataset: CrossDomainDataset) -> None:
    if (
        dims.n_domains != dataset.n_domains
        or dims.n_levels != dataset.n_levels
        or tuple(dims.n_users) != tuple(dataset.n_users)
        or tuple(dims.n_items) != tuple(dataset.n_items)
    ):
        raise ModelError("model dims do not match the dataset")


def _normalize(arr: np.ndarray, axis=None) -> np.ndarray:
    """Scale to unit sum along ``axis``; an all-zero slice becomes uniform."""
    if arr.size == 0:
        return arr
    total = arr.sum(axis=axis, keepdims=True)
    width = arr.size // total.size
    safe = np.where(total > 0.0, total, 1.0)
    out = arr / safe
    if (total == 0.0).any():
        out = np.where(total > 0.0, out, 1.0 / width)
    return out


def _apply_floor(arr: np.ndarray, floor: float, axis) -> np.ndarray:
    if floor == 0.0 or arr.size == 0:
        return arr
    return _normalize(arr + floor, axis=axis)


def _log(arr: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(arr)


def _log_weights(prior, cond):
    """Per-entity log(prior[c] * cond[c, i]) as a (C, n) array."""
    return _log(prior)[:, None] + _log(cond)


@dataclass(frozen=True)
class _Family:
    """One pair family: the K user clusters against ``n_clusters`` item clusters.

    Slot 0 is the common family over the pooled triples, with global item
    indices; slot z + 1 is domain z's specific family over that domain's
    triples, with domain-local item indices.  ``gu`` is the global user
    index and ``ridx`` the rating level minus one.
    """

    slot: int
    n_clusters: int
    n_items: int
    gu: np.ndarray
    items: np.ndarray
    ridx: np.ndarray

    def item_tables(self, params: PclfParams):
        """(log_wv (C, items), log_rate (K, C, R)), per entity."""
        prior = (params.prior_vcom, *params.prior_vspe)[self.slot]
        cond = (params.cond_vcom, *params.cond_vspe)[self.slot]
        rate = (params.rate_com, *params.rate_spe)[self.slot]
        return _log_weights(prior, cond), _log(rate)

    def kernel_inputs(self, params: PclfParams):
        """(log_wu, log_wv, log_rate, ridx) for the log-space kernels, gathered per triple."""
        log_wu = _log_weights(params.prior_u, params.cond_u)
        log_wv, log_rate = self.item_tables(params)
        return (
            np.ascontiguousarray(log_wu[:, self.gu].T),
            np.ascontiguousarray(log_wv[:, self.items].T),
            log_rate, self.ridx,
        )


def _families(dims: ModelDims, dataset: CrossDomainDataset) -> list[_Family]:
    """The pooled common family, then one specific family per domain with L_z > 0."""
    gu, gv, r = dataset.pooled()
    ridx = r - 1
    families = [_Family(0, dims.n_common_clusters, dims.total_items, gu, gv, ridx)]
    bounds = np.cumsum([0, *dataset.n_ratings])
    for z, l_z in enumerate(dims.n_specific_clusters):
        if l_z > 0:
            rows = slice(bounds[z], bounds[z + 1])
            families.append(_Family(z + 1, l_z, dims.n_items[z], gu[rows],
                                    dataset.items[z], ridx[rows]))
    return families


def _responsibilities(dataset, families, blocks) -> Responsibilities:
    """One block per family, in slots; a domain without a family gets (S_z, K, 0)."""
    k = blocks[0].shape[1]
    slots = [None] + [np.zeros((s_z, k, 0)) for s_z in dataset.n_ratings]
    for fam, block in zip(families, blocks):
        slots[fam.slot] = block
    return Responsibilities(p0=slots[0], pz=slots[1:])


def _init_stats(fam: _Family, dims: ModelDims):
    """``fam``'s statistics of random responsibilities, as a consumer: for
    each ``INIT_BLOCK_ROWS`` triples it yields that block of its one buffer
    for the caller to fill with the stream's next ``block.size`` draws,
    normalizes it, and adds its ``kernels.pair_stats`` to the total in
    block order; it returns the total.  A family without triples is one
    empty block."""
    s = len(fam.ridx)
    buffer = np.empty((min(s, INIT_BLOCK_ROWS), dims.n_user_clusters, fam.n_clusters))
    for lo in range(0, max(s, 1), INIT_BLOCK_ROWS):
        rows = slice(lo, lo + INIT_BLOCK_ROWS)
        block = buffer[:len(fam.ridx[rows])]
        yield block   # filled with the numbers gamma(0.5) draws
        block /= block.sum(axis=(1, 2), keepdims=True)
        part = kernels.pair_stats(block, fam.gu[rows], fam.items[rows], fam.ridx[rows],
                                  dims.total_users, fam.n_items, dims.n_levels)
        total = part if lo == 0 else [x + y for x, y in zip(total, part)]
    return total


def _init_job(dims: ModelDims, dataset: CrossDomainDataset, floor: float):
    """One job's ``init_params`` as a consumer of one stream: its families
    one after another (``_init_stats``); returns the parameters."""
    families = _families(dims, dataset)
    stats = []
    for fam in families:
        stats.append((yield from _init_stats(fam, dims)))
    return _params_from_stats(dims, families, stats, floor)


def _stream_length(dims: ModelDims, dataset: CrossDomainDataset) -> int:
    """How many values ``init_params`` draws: K * C per triple of each family."""
    n = dataset.n_ratings
    return dims.n_user_clusters * (sum(n) * dims.n_common_clusters
                                   + sum(s * l for s, l in zip(n, dims.n_specific_clusters)))


def _state_key(state: dict) -> tuple:
    """A PCG64 state as a hashable value; equal keys continue with equal draws."""
    return (state["state"]["state"], state["state"]["inc"], state["has_uint32"],
            state["uinteger"])


def _draw_stretch(state: dict, lead: int, out: np.ndarray, window: int, every: int):
    """Fill ``out`` with gamma(0.5) values drawn from a PCG64 at ``state``
    advanced by ``lead`` raw draws.  Returns ``{state key: i}`` for the
    state before every ``every``-th value i among the first ``window``,
    and the final state."""
    bits = np.random.PCG64()
    bits.state = state
    bits.advance(lead)
    rng = np.random.Generator(bits)
    records, at = {}, 0
    while at < min(window, len(out)):
        records[_state_key(bits.state)] = at
        rng.standard_gamma(0.5, out=out[at:at + every])
        at += every
    rng.standard_gamma(0.5, out=out[at:])
    return records, bits.state


def _stream_segments(rng, total: int):
    """The gamma(0.5) stream of ``rng`` as segments in stream order, each
    ``(values, n)``: the next n values are ``values``, or the caller draws
    them from ``rng`` when ``values`` is None.  The last segment has no end.

    The caller draws the stream in stretches of ``INIT_STRETCH`` values.
    While it draws one, a helper draws the next one into a buffer, from a
    copy of ``rng`` advanced to a little before where that stretch
    should start: by the mean raw draws of a stretch less 6 standard
    deviations.  The helper records its state every few values across a
    window of 12 standard deviations.  At the end of its stretch the
    caller draws single values until its state equals a recorded one,
    takes the helper's values from there and the helper's final state,
    and draws the following stretch.  Equal states continue with equal
    draws, so the stream is exact however far off the estimate was; if no
    state matches, the caller draws that stretch itself.  Every helper
    runs on the one worker thread of an executor that the stream enters
    once; leaving it joins the thread, before the last segment or when
    the caller closes this generator.  A helper's exception reaches the
    caller through its future.  A stream that fits in one stretch starts
    no thread.
    """
    sd = GAMMA_RAWS_SD * math.sqrt(INIT_STRETCH)
    lead = max(0, round(GAMMA_RAWS * INIT_STRETCH - 6 * sd))
    window = math.ceil(12 * sd / GAMMA_RAWS)   # in values
    every = max(1, window // 32)   # about 32 recorded states
    if total > INIT_STRETCH:
        from concurrent.futures import ThreadPoolExecutor

        left, buffer = total, np.empty(INIT_STRETCH)
        with ThreadPoolExecutor(max_workers=1, thread_name_prefix="pclf-init-draw") as pool:
            while left > INIT_STRETCH:
                count = min(INIT_STRETCH, left - INIT_STRETCH + window)
                helper = pool.submit(_draw_stretch, rng.bit_generator.state, lead,
                                     buffer[:count], window, every)
                yield None, INIT_STRETCH
                left -= INIT_STRETCH
                records, final = helper.result()
                for _ in range(window + every):
                    at = records.get(_state_key(rng.bit_generator.state))
                    if at is not None:
                        yield buffer[at:count], count - at
                        left -= count - at
                        rng.bit_generator.state = final
                        break
                    yield None, 1
                    left -= 1
    yield None, math.inf


class _GammaStream:
    """One seed's gamma(0.5) stream, ``total`` values long, handed out in
    order by ``fill``: the values of ``np.random.default_rng(seed)
    .standard_gamma(0.5, size=total)``, bit for bit (``_stream_segments``).
    ``close`` joins a helper that is still drawing."""

    def __init__(self, seed: int, total: int):
        self.rng = np.random.default_rng(seed)
        self._segments = _stream_segments(self.rng, total)
        self._values, self._left = None, 0   # the segment being taken, and its values left

    def fill(self, out: np.ndarray) -> None:
        """Fill the 1-d ``out`` with the stream's next ``out.size`` values."""
        at = 0
        while at < out.size:
            if not self._left:
                self._values, self._left = next(self._segments)
            n = min(out.size - at, self._left)
            if self._values is None:
                self.rng.standard_gamma(0.5, out=out[at:at + n])
            else:
                out[at:at + n] = self._values[len(self._values) - self._left:][:n]
            at += n
            self._left -= n

    def close(self) -> None:
        self._segments.close()


def init_params_many(jobs, seed: int, floor: float = 1e-10) -> list[PclfParams]:
    """``[init_params(dims, dataset, seed, floor) for dims, dataset in jobs]``,
    bit for bit, from one random stream.

    Every job of one seed reads the same gamma(0.5) stream from its
    start, so each job's draws are a prefix of the longest job's.  The
    jobs take the stream in lockstep, and each value is drawn once: every
    step takes as many values as the live job nearest the end of its
    block has left, straight into the first live job's block, and copies
    them into the other live jobs' blocks.  A job whose block is full
    moves on to its next one.  No draw is held between steps, and a
    single job takes the stream straight into its own blocks.  The values
    come from ``_GammaStream``: on a stream longer than ``INIT_STRETCH``
    values, one executor worker thread for the whole stream draws every
    other stretch into one buffer of that size while this thread draws and
    reduces the one before.  The worker is joined before this returns, on
    error too, and a helper stretch's exception reaches the caller.
    """
    for dims, dataset in jobs:
        _check_dims(dims, dataset)
    stream = _GammaStream(seed, max((_stream_length(*job) for job in jobs), default=0))
    runs = [_init_job(dims, dataset, floor) for dims, dataset in jobs]
    # each job's block to fill next, as a flat view, and how much of it is filled
    blocks = [next(run).reshape(-1) for run in runs]
    filled = [0] * len(runs)
    params = [None] * len(runs)
    live = list(range(len(runs)))
    try:
        while live:
            n = min(blocks[i].size - filled[i] for i in live)
            first, *rest = live
            piece = blocks[first][filled[first]:filled[first] + n]
            stream.fill(piece)
            for i in rest:
                blocks[i][filled[i]:filled[i] + n] = piece
            for i in live[:]:
                filled[i] += n
                if filled[i] == blocks[i].size:
                    try:
                        blocks[i], filled[i] = next(runs[i]).reshape(-1), 0
                    except StopIteration as stop:
                        params[i] = stop.value
                        live.remove(i)
    finally:
        stream.close()
    return params


def init_params(
    dims: ModelDims,
    dataset: CrossDomainDataset,
    seed: int,
    floor: float = 1e-10,
) -> PclfParams:
    """Seeded random start: draw positive responsibilities per triple,
    normalize them, and run one M step.

    Draws are gamma(0.5) rather than uniform: averaging near-uniform
    responsibilities over many triples yields almost-symmetric parameters
    from which EM barely moves, while heavier-tailed draws give each
    triple a preferred cluster pair and break the symmetry immediately.
    The families are drawn one after another from one stream, each in
    blocks of ``INIT_BLOCK_ROWS`` triples that are normalized and reduced
    by ``kernels.pair_stats`` before the next draw, so a draw holds at
    most ``INIT_BLOCK_ROWS`` * K * C values.  The block statistics add up
    in block order.  This is the one-job case of ``init_params_many``,
    which takes the stream straight into each block.  A stream longer than
    ``INIT_STRETCH`` values is drawn on this thread and one executor
    worker thread started for the stream (``_stream_segments``), with the
    bits of ``np.random.default_rng(seed).standard_gamma(0.5)`` on one.
    """
    return init_params_many([(dims, dataset)], seed, floor)[0]


def e_step(params: PclfParams, dataset: CrossDomainDataset, beta: float = 1.0) -> Responsibilities:
    """Joint posteriors over cluster pairs for every triple.

    The common posterior is computed over the pooled data, each specific
    posterior over its own domain only.  ``beta`` tempers the posterior:
    1 is the exact E step, smaller values flatten it (annealing).  This
    materializes the (S, K, C) tensors; ``train`` gets the same statistics
    from the factorized ``kernels.pair_pass`` instead.
    """
    if not 0.0 < beta <= 1.0:
        raise ModelError(f"beta must lie in (0, 1], got {beta}")
    _check_dims(params.dims, dataset)
    families = _families(params.dims, dataset)
    blocks = [
        kernels.pair_responsibilities(*fam.kernel_inputs(params), beta) for fam in families
    ]
    return _responsibilities(dataset, families, blocks)


def m_step(resp: Responsibilities, dataset: CrossDomainDataset, floor: float) -> PclfParams:
    """Closed-form parameter updates from responsibility masses.

    Every distribution is the normalized sufficient statistic of its
    responsibilities (user-side statistics pool the common and all
    specific tensors); see ``_params_from_stats``.
    """
    s_total = sum(dataset.n_ratings)
    if resp.p0.shape[0] != s_total or len(resp.pz) != dataset.n_domains:
        raise ModelError("responsibility shapes do not match the dataset")
    dims = ModelDims(
        n_domains=dataset.n_domains,
        n_user_clusters=resp.p0.shape[1],
        n_common_clusters=resp.p0.shape[2],
        n_specific_clusters=tuple(b.shape[2] for b in resp.pz),
        n_levels=dataset.n_levels,
        n_users=tuple(dataset.n_users),
        n_items=tuple(dataset.n_items),
    )
    families = _families(dims, dataset)
    stats = [
        kernels.pair_stats(
            (resp.p0, *resp.pz)[fam.slot], fam.gu, fam.items, fam.ridx,
            dims.total_users, fam.n_items, dims.n_levels,
        )
        for fam in families
    ]
    return _params_from_stats(dims, families, stats, floor)


def _params_from_stats(dims: ModelDims, families, stats, floor: float) -> PclfParams:
    """The M step proper: parameters from each family's sufficient statistics.

    ``stats[i]`` is the ``kernels.pair_stats``-shaped tuple of
    ``families[i]``.  After normalizing, ``floor`` is added to every entry
    and the distribution renormalized, which keeps later E steps and
    likelihoods finite.
    """
    k, u_total, n_levels = dims.n_user_clusters, dims.total_users, dims.n_levels
    prior_u_num = np.zeros(k)
    cond_u_num = np.zeros((k, u_total))
    # (prior, cond, rate) per slot; a domain without a family keeps its empties
    sides = [None] + [
        (np.zeros(0), np.zeros((0, n_z)), np.zeros((k, 0, n_levels))) for n_z in dims.n_items
    ]
    for fam, (cl_u, cl_v, by_user, by_item, by_level) in zip(families, stats):
        prior_u_num += cl_u
        cond_u_num += by_user
        sides[fam.slot] = (
            _apply_floor(_normalize(cl_v), floor, axis=None),
            _apply_floor(_normalize(by_item, axis=1), floor, axis=1),
            _apply_floor(_normalize(by_level, axis=2), floor, axis=2),
        )
    (prior_vcom, cond_vcom, rate_com), *specific = sides
    prior_vspe, cond_vspe, rate_spe = (list(a) for a in zip(*specific))
    return PclfParams(
        dims=dims,
        prior_u=_apply_floor(_normalize(prior_u_num), floor, axis=None),
        prior_vcom=prior_vcom,
        prior_vspe=prior_vspe,
        cond_u=_apply_floor(_normalize(cond_u_num, axis=1), floor, axis=1),
        cond_vcom=cond_vcom,
        cond_vspe=cond_vspe,
        rate_com=rate_com,
        rate_spe=rate_spe,
    )


def _pass(params: PclfParams, families, beta=None):
    """One factorized pass over ``families``, yielding each family's
    ``kernels.pair_pass`` at ``beta`` or, with ``beta`` None, its
    ``kernels.pair_log_normalizers``."""
    log_wu = _log_weights(params.prior_u, params.cond_u)
    for fam in families:
        args = (log_wu, *fam.item_tables(params), fam.gu, fam.items, fam.ridx)
        if beta is None:
            yield kernels.pair_log_normalizers(*args)
        else:
            yield kernels.pair_pass(*args, beta)


def _total(normalizers) -> float:
    """The log-likelihood from each family's per-triple log normalizers."""
    total = 0.0  # plain adds in family order (sum() compensates on Python >= 3.12)
    for z in normalizers:
        total += float(z.sum())
    return total


def log_likelihood(params: PclfParams, dataset: CrossDomainDataset) -> float:
    """Sum of the common-component and specific-component data log-likelihoods.

    Returns -inf if any triple carries zero mass (unreachable once the
    M-step floor is positive).
    """
    _check_dims(params.dims, dataset)
    return _total(_pass(params, _families(params.dims, dataset)))


def train(
    dataset: CrossDomainDataset,
    dims: ModelDims,
    config: TrainConfig = TrainConfig(),
    init: PclfParams | None = None,
) -> tuple[PclfParams, list[TraceEntry]]:
    """Annealed EM: for each beta in the schedule, alternate E and M steps
    until the relative log-likelihood change drops below tolerance.

    EM starts from ``init`` if given, which must have ``dims``, and
    otherwise from ``init_params(dims, dataset, config.seed,
    config.smoothing_floor)``; a caller that passes that start, made
    elsewhere (``init_params_many``), gets the same fit.

    The tolerance is not consulted during the first ``min_iters_per_beta``
    iterations: runs started from near-symmetric random parameters move
    through a flat stretch before the clusters differentiate, and stopping
    there would freeze the saddle point.  A schedule of (1.0,) is plain
    EM.  Returns the final parameters and a per-iteration (beta,
    iteration, log-likelihood) trace.

    Each iteration is ``m_step(e_step(...))`` computed by the entity-level
    ``kernels.pair_pass``, without the responsibility tensors or any
    per-triple (S, K) array.  At beta = 1 the normalizers of the next
    iteration's pass are the log-likelihood terms of the current
    parameters, so when another iteration can follow, that pass replaces
    the normalizers-only one and its statistics carry into the next
    iteration.
    """
    _check_dims(dims, dataset)
    if init is None:
        params = init_params(dims, dataset, config.seed, floor=config.smoothing_floor)
    elif init.dims != dims:
        raise ModelError("the initial parameters' dims do not match the model dims")
    else:
        params = init
    families = _families(dims, dataset)
    trace: list[TraceEntry] = []
    for beta in config.beta_schedule:
        prev = None
        carried = None  # this beta's statistics of the current params, if made already
        for it in range(config.max_iters_per_beta):
            stats = carried or [p[:5] for p in _pass(params, families, beta)]
            params = _params_from_stats(dims, families, stats, config.smoothing_floor)
            carried = None
            if beta == 1.0 and it + 1 < config.max_iters_per_beta:
                carried, normalizers = [], []
                for *part, z in _pass(params, families, beta):
                    carried.append(part)
                    normalizers.append(z)
                ll = _total(normalizers)
            else:
                ll = _total(_pass(params, families))
            trace.append(TraceEntry(beta=beta, iteration=it, log_likelihood=ll))
            if (
                prev is not None
                and it + 1 >= config.min_iters_per_beta
                and abs(ll - prev) <= config.rel_ll_tol * abs(prev)
            ):
                break
            prev = ll
    return params, trace
