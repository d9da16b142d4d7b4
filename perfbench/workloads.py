"""The benchmark's workloads: how each builds its inputs from a seed, which
``pclf`` operations one cycle runs, and the checks every output must pass.

Every planted dataset comes from one fixed generating model
(``MODEL_SEED``).  The run's seed drives the sampled cells and ratings of
train-predict, its predicted cells, the Given-N splits and every training
seed, so runs on different seeds measure the same model at the same size.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
import warnings

import numpy as np

from pclf import (
    ModelDims,
    PredictionWeights,
    SyntheticSpec,
    cluster_rating_matrices,
    given_n_split,
    load_checkpoint,
    memberships,
    predict,
    predict_cross,
    predict_many,
    save_dataset,
    synth_generate,
)
from pclf.evaluate import load_config

MODEL_SEED = 0
LEVELS = 5
CHECK_SAMPLE = 2000      # rows per output compared against the library
PRINTED_TOL = 5.01e-7    # the CLI prints six decimals


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclasses.dataclass
class Op:
    """One ``pclf`` invocation: its kind, arguments and main output path."""

    kind: str
    argv: list[str]
    output: str


def _require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _planted_spec(size: dict, seed: int) -> SyntheticSpec:
    """The acceptance fixture's sharp planted spec at ``size``."""
    z = 2
    dims = ModelDims(
        n_domains=z, n_user_clusters=size["gen"][0], n_common_clusters=size["gen"][1],
        n_specific_clusters=(size["gen"][2],) * z, n_levels=LEVELS,
        n_users=(size["users"],) * z, n_items=(size["items"],) * z,
    )
    return SyntheticSpec(
        dims=dims, w1=(0.72,) * z, density=size["density"], seed=seed,
        membership_concentration=0.06, rating_sharpness=3.5, specific_sharpness=5.0,
    )


def planted_dataset(size: dict, seed: int):
    """Sample ``seed``'s cells and ratings from the fixed planted model."""
    spec = _planted_spec(size, MODEL_SEED)
    m, n = size["users"], size["items"]
    # the generator draws the model before any cell, so one cell per domain
    # yields the same model as the full density does
    _, model = synth_generate(dataclasses.replace(spec, density=1.0 / (m * n)))
    dataset, _ = synth_generate(dataclasses.replace(spec, seed=seed, params=model))
    return dataset


def _in_sample_mae(params, w1, dataset) -> float:
    """MAE of the model's predictions on the dataset's own ratings."""
    mats, mems = cluster_rating_matrices(params), memberships(params)
    weights = PredictionWeights(w1=tuple(w1))
    errors = [
        predict_many(params, mats, mems, weights, z, dataset.users[z], dataset.items[z])
        - dataset.ratings[z]
        for z in range(dataset.n_domains)
    ]
    return float(np.mean(np.abs(np.concatenate(errors))))


class Workload:
    """Inputs under ``work``, one cycle of operations, and their checks.

    ``setup`` may run several times (it is timed); ``check`` returns the
    output's quality (a MAE, or None) or raises ``CheckFailed``.
    """

    name = ""
    min_cycles = 1
    sizes: dict = {}

    def __init__(self, work: str, seed: int, size: str):
        self.work, self.seed, self.size = work, seed, self.sizes[size]

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self, i: int) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op) -> float | None:
        raise NotImplementedError

    def info(self) -> dict:
        return {}


class TrainPredict(Workload):
    """``pclf train`` at the paper's K=20/T=10/L=15 on 30k pooled triples,
    with a short annealing schedule pinned to one iteration per beta, then
    ``pclf predict --complete 0`` and ``pclf predict --cells`` on the
    checkpoint it wrote: the write side and the read side of one model."""

    name = "train-predict"
    min_cycles = 2        # the second train checks same-seed byte identity
    sizes = {
        "full": dict(users=1000, items=1500, density=0.01, gen=(6, 4, 2), fit=(20, 10, 15),
                     cells=100_000),
        "toy": dict(users=60, items=80, density=0.1, gen=(3, 2, 2), fit=(4, 3, 2),
                    cells=2000),
    }
    betas = (0.8, 1.0)

    def setup(self) -> None:
        self.dataset = planted_dataset(self.size, self.seed)
        save_dataset(self.dataset, self.path("dataset"))
        self.cells = self._cells()
        np.savetxt(self.path("cells.txt"), self.cells, fmt="%d", delimiter=",")
        self.reference = self.params = self.w1 = None
        self.final_ll = []

    def _cells(self) -> np.ndarray:
        """(user domain, user, item domain, item) rows: in-domain cells,
        cross-domain cells, and in-domain cells of unseen users or items."""
        rng = np.random.default_rng(self.seed)
        n = self.size["cells"]
        du = rng.integers(0, self.dataset.n_domains, size=n)
        kind = rng.random(n)
        dv = np.where((kind >= 0.70) & (kind < 0.95), 1 - du, du)
        users = rng.integers(0, self.size["users"], size=n)
        items = rng.integers(0, self.size["items"], size=n)
        unseen = kind >= 0.95
        half = unseen & (rng.random(n) < 0.5)
        users[half] = self.size["users"] + rng.integers(0, 5, size=half.sum())
        other = unseen & ~half
        items[other] = self.size["items"] + rng.integers(0, 5, size=other.sum())
        return np.column_stack([du, users, dv, items])

    def cycle(self, i: int) -> list[Op]:
        k, t, l = self.size["fit"]
        ckpt = self.path(f"checkpoint-{i}.json")
        complete, cells = self.path(f"complete-{i}.csv"), self.path(f"cells-{i}.csv")
        return [
            Op("train", [
                "train", "--dataset", self.path("dataset"), "-K", str(k), "-T", str(t),
                "-L", str(l), "--betas", ",".join(f"{b:g}" for b in self.betas),
                "--min-iters", "1", "--max-iters", "1", "--seed", str(self.seed),
                "--out", ckpt,
            ], ckpt),
            Op("complete", ["predict", "--checkpoint", ckpt, "--complete", "0",
                            "--out", complete], complete),
            Op("cells", ["predict", "--checkpoint", ckpt, "--cells",
                         self.path("cells.txt"), "--out", cells], cells),
        ]

    def check(self, op: Op) -> float | None:
        if op.kind == "train":
            return self._check_train(op)
        if op.kind == "complete":
            return self._check_complete(op)
        return self._check_cells(op)

    def _check_train(self, op: Op) -> float:
        with open(op.output, "rb") as fh:
            blob = fh.read()
        digest = hashlib.sha256(blob).hexdigest()
        ckpt = load_checkpoint(op.output)
        ckpt.params.validate()
        lls = [e.log_likelihood for e in ckpt.trace]
        _require([e.beta for e in ckpt.trace] == list(self.betas),
                 f"trace betas {[e.beta for e in ckpt.trace]}, expected one per beta")
        _require(all(math.isfinite(x) for x in lls), "non-finite log-likelihood")
        # EM cannot lower the likelihood once beta=1, counting the step from
        # the last tempered iteration
        first = max([e.beta for e in ckpt.trace].index(1.0) - 1, 0)
        for a, b in zip(lls[first:], lls[first + 1:]):
            _require(b >= a - 1e-9 * abs(a), f"log-likelihood fell at beta=1: {a} -> {b}")
        if self.reference is None:
            self.reference, self.params, self.w1 = digest, ckpt.params, ckpt.default_w1
        _require(digest == self.reference, "same-seed rerun wrote a different checkpoint")
        self.final_ll.append(lls[-1] / sum(self.dataset.n_ratings))
        return _in_sample_mae(ckpt.params, ckpt.default_w1, self.dataset)

    def _read(self, path: str, header: str) -> np.ndarray:
        """The CSV's rows, after checking its header and its predictions."""
        with open(path, encoding="utf-8") as fh:
            first, second = fh.readline(), fh.readline()
        _require(first.startswith("# model_kind=pclf"), f"bad first line {first!r}")
        _require(second.strip() == header, f"bad header {second!r}")
        names = header.split(",")
        rows = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
        _require(rows.shape[1] == len(names), f"{rows.shape[1]} columns, expected {len(names)}")
        values = rows[:, names.index("predicted_rating")]
        _require(np.isfinite(values).all(), "non-finite prediction")
        _require(((values >= 1.0) & (values <= LEVELS)).all(),
                 f"prediction outside [1, {LEVELS}]")
        return rows

    def _library(self):
        """The checked checkpoint's cluster matrices, memberships and weights."""
        _require(self.params is not None, "no checkpoint of this seed has passed its checks")
        mats, mems = cluster_rating_matrices(self.params), memberships(self.params)
        return mats, mems, PredictionWeights(w1=tuple(self.w1))

    def _check_complete(self, op: Op) -> float:
        m, n = self.size["users"], self.size["items"]
        rows = self._read(op.output, "domain,user_idx,item_idx,predicted_rating")
        _require(len(rows) == m * n, f"{len(rows)} rows, expected {m * n}")
        _require((rows[:, 0] == 0).all(), "rows outside domain 0")
        _require((rows[:, 1] == np.repeat(np.arange(m), n)).all()
                 and (rows[:, 2] == np.tile(np.arange(n), m)).all(),
                 "rows are not the full user-major grid")
        pick = np.random.default_rng(self.seed).choice(len(rows), CHECK_SAMPLE)
        mats, mems, weights = self._library()
        expected = predict_many(self.params, mats, mems, weights, 0,
                                rows[pick, 1].astype(np.int64), rows[pick, 2].astype(np.int64))
        _require(np.abs(rows[pick, 3] - expected).max() <= PRINTED_TOL,
                 "--complete rows differ from predict_many")
        ds = self.dataset
        completed = rows[:, 3].reshape(m, n)[ds.users[0], ds.items[0]]
        return float(np.mean(np.abs(completed - ds.ratings[0])))

    def _check_cells(self, op: Op) -> None:
        header = "user_domain,user_idx,item_domain,item_idx,predicted_rating,cross"
        rows = self._read(op.output, header)
        _require(len(rows) == len(self.cells), f"{len(rows)} rows, expected {len(self.cells)}")
        _require((rows[:, :4] == self.cells).all(), "rows do not follow the cell file")
        _require((rows[:, 5] == (self.cells[:, 0] != self.cells[:, 2])).all(),
                 "wrong cross flag")
        mats, mems, weights = self._library()
        pick = np.random.default_rng(self.seed).choice(len(rows), CHECK_SAMPLE)
        dims = self.params.dims
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # unseen-entity fallbacks warn
            for du, u, dv, v, value, _ in rows[pick]:
                du, u, dv, v = int(du), int(u), int(dv), int(v)
                if du != dv:
                    want = predict_cross(self.params, mats, mems, (du, u), (dv, v),
                                         weights=weights)
                elif u < dims.n_users[du] and v < dims.n_items[du]:
                    want = predict_many(self.params, mats, mems, weights, du,
                                        np.array([u]), np.array([v]))[0]
                else:
                    want = predict(self.params, mats, mems, weights, du, u, v)
                _require(abs(value - want) <= PRINTED_TOL,
                         f"cell {du},{u},{dv},{v}: printed {value}, library {want}")
        return None

    def info(self) -> dict:
        return {"ll_per_triple": self.final_ll[-1] if self.final_ll else None}


class GivenNPlanted(Workload):
    """``pclf evaluate``: all four models, Given 5 and 15, on the acceptance
    fixture's planted spec and size."""

    name = "given-n-planted"
    sizes = {
        "full": dict(users=300, items=500, density=0.05, gen=(6, 4, 2), fit=(10, 6, 3),
                     given=[5, 15], train_users=200, iters=2, nmf_iters=50),
        "toy": dict(users=60, items=80, density=0.25, gen=(6, 4, 2), fit=(6, 4, 2),
                    given=[5], train_users=45, iters=4, nmf_iters=20),
    }
    models = ["pclf", "rmgm-like", "fmm", "nmf"]

    def setup(self) -> None:
        size = self.size
        k, t, l = size["fit"]
        kg, tg, lg = size["gen"]
        config = {
            "given_n": size["given"],
            "n_train_users": size["train_users"],
            "dims": {"K": k, "T": t, "L": [l, l]},
            "models": self.models,
            "synthetic": {
                "Z": 2, "K": kg, "T": tg, "L": [lg, lg], "R": LEVELS,
                "M": [size["users"]] * 2, "N": [size["items"]] * 2,
                "w1": 0.72, "density": size["density"], "seed": MODEL_SEED,
                "membership_concentration": 0.06, "rating_sharpness": 3.5,
                "specific_sharpness": 5.0,
            },
            "weights": [0.72, 0.72],
            # the fixture's schedule with its iterations pinned, so that every
            # seed and every commit does the same work, and few enough that
            # one run times several operations
            "train": {"beta_schedule": [0.4, 0.55, 0.7, 0.85, 1.0],
                      "min_iters_per_beta": size["iters"],
                      "max_iters_per_beta": size["iters"],
                      "rel_ll_tol": 1e-6, "seed": self.seed},
            "nmf_rank": 20,
            "nmf_iters": size["nmf_iters"],
            "n_repeats": 1,
            "base_seed": self.seed,
        }
        with open(self.path("config.json"), "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=1)
        # every Given-N split the run will make must leave ratings to score
        parsed = load_config(self.path("config.json"))
        dataset, _ = synth_generate(parsed.synthetic)
        for given in parsed.given_n:
            for z in range(dataset.n_domains):
                split = given_n_split(dataset, z, parsed.n_train_users, given,
                                      seed=self.seed + 10007 * z)
                if not split.eval_set:
                    raise RuntimeError(f"Given-{given} leaves domain {z} nothing to score")
        self.pclf_mae = []

    def cycle(self, i: int) -> list[Op]:
        out = self.path(f"evaluate-{i}")
        return [Op("evaluate", ["evaluate", "--config", self.path("config.json"),
                                "--out", out], out)]

    def check(self, op: Op) -> float:
        with open(os.path.join(op.output, "results.csv"), encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        cells = sorted((r["model"], int(r["domain"]), int(r["given_n"]), int(r["repeat"]))
                       for r in rows)
        grid = sorted((m, z, g, 0) for m in self.models for z in (0, 1)
                      for g in self.size["given"])
        _require(cells == grid, f"results.csv holds {len(cells)} cells, expected {len(grid)}")
        maes = {}
        for r in rows:
            value = float(r["mae"])
            _require(math.isfinite(value) and 0.0 <= value <= LEVELS - 1,
                     f"MAE {r['mae']} outside [0, {LEVELS - 1}]")
            maes.setdefault(r["model"], []).append(value)
        pclf, nmf = np.mean(maes["pclf"]), np.mean(maes["nmf"])
        _require(pclf < nmf, f"pclf MAE {pclf:.4f} does not beat nmf {nmf:.4f}")
        self.pclf_mae.append(float(pclf))
        return float(pclf)

    def info(self) -> dict:
        return {"mae_pclf": self.pclf_mae[-1] if self.pclf_mae else None}


WORKLOADS = {w.name: w for w in (TrainPredict, GivenNPlanted)}
