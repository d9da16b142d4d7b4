"""Self-describing model checkpoints.

One JSON file per model: a versioned header, the model kind, dims, every
parameter array with its declared shape in row-major order, the training
trace and the seed.  Serialization is canonical (sorted keys, fixed
separators), so identical models produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .baselines import NmfFactors
from .data import _checked, _is, atomic_write, read_json
from .em import ModelDims, ModelError, PclfParams, TraceEntry

FORMAT_VERSION = "pclf-model-v1"
# every model kind; its order is evaluate's default model order
KNOWN_MODELS = ("pclf", "rmgm-like", "fmm", "nmf")
# the JSON type of each header key per model family, as ``data._is`` spells
# it; every key but default_w1 is required
_HEADER = {"format": str, "model_kind": str, "seed": int, "trace": [list], "arrays": dict}
_NMF_HEADER = {**_HEADER, "rank": int, "n_levels": int, "objective": [float]}
_CLUSTER_HEADER = {**_HEADER, "dims": dict, "default_w1": [float]}
# the JSON type of every ``dims`` key: ModelDims' fields, each tuple a list
_DIMS_TYPES = {"n_domains": int, "n_user_clusters": int, "n_common_clusters": int,
               "n_specific_clusters": [int], "n_levels": int, "n_users": [int],
               "n_items": [int]}
# the arrays of a cluster checkpoint: these PclfParams fields, then each
# per-domain field's list as one ``<field>_<z>`` array per domain
_SHARED_ARRAYS = ("prior_u", "prior_vcom", "cond_u", "cond_vcom", "rate_com")
_DOMAIN_ARRAYS = ("prior_vspe", "cond_vspe", "rate_spe")
# the arrays of an nmf checkpoint: these NmfFactors fields
_NMF_ARRAYS = ("u_factors", "v_factors")


class CheckpointError(ValueError):
    """Unreadable, corrupt, or wrong-version checkpoint file."""


@dataclass
class Checkpoint:
    model_kind: str
    seed: int
    trace: list[TraceEntry]
    params: PclfParams | None = None      # cluster models
    factors: NmfFactors | None = None     # nmf
    n_levels: int | None = None           # nmf: rating-scale size
    default_w1: list[float] | None = None


def _array(arr: np.ndarray) -> dict:
    return {"shape": list(arr.shape), "data": np.asarray(arr, dtype=float).ravel().tolist()}


def _unarray(arrays: dict, name: str) -> np.ndarray:
    """Array ``name`` of a loaded document; it must fit its shape and be finite."""
    try:
        entry = _checked(arrays[name], {"shape": [int], "data": list}, name, ("shape", "data"))
        arr = np.array(entry["data"], dtype=float).reshape(entry["shape"])
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint array {name!r} is malformed: {exc!r}") from None
    if not np.isfinite(arr).all():
        raise CheckpointError(f"checkpoint array {name!r} has non-finite values")
    return arr


def _seed_and_trace(doc: dict) -> list[TraceEntry]:
    """``doc``'s trace, once its ``seed`` is >= 0, as ``TrainConfig`` asks,
    and each trace entry is [beta, iteration, log-likelihood]: two finite
    numbers around an integer >= 0.  Else ``ValueError`` names the fault."""
    if doc["seed"] < 0:
        raise ValueError(f"'seed' must be >= 0, got {doc['seed']}")
    for n, entry in enumerate(doc["trace"]):
        if not (len(entry) == 3 and _is(entry[0], float) and _is(entry[1], int)
                and _is(entry[2], float) and math.isfinite(entry[0]) and entry[1] >= 0
                and math.isfinite(entry[2])):
            raise ValueError(f"trace entry {n} must be [beta, iteration >= 0, log-likelihood] "
                             f"with finite numbers, got {json.dumps(entry)}")
    return [TraceEntry(beta=float(b), iteration=i, log_likelihood=float(ll))
            for b, i, ll in doc["trace"]]


# the C encoder; json.dump always runs the pure-Python one
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _write_document(fh, doc: dict) -> None:
    """Write ``doc`` plus a newline, byte for byte as
    ``json.dump(doc, fh, sort_keys=True, separators=(",", ":"))`` would once
    every array in ``doc["arrays"]`` were ``_array``'d.

    Each array becomes a list and a string only while it is written, so at
    most one of them is in memory at a time.
    """
    fh.write("{")
    for i, key in enumerate(sorted(doc)):
        fh.write(("," if i else "") + _encode(key) + ":")
        if key == "arrays":
            fh.write("{")
            for j, name in enumerate(sorted(doc[key])):
                fh.write(("," if j else "") + _encode(name) + ":")
                fh.write(_encode(_array(doc[key][name])))
            fh.write("}")
        else:
            fh.write(_encode(doc[key]))
    fh.write("}\n")


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    if ckpt.model_kind not in KNOWN_MODELS:
        raise CheckpointError(
            f"model_kind {ckpt.model_kind!r} not in {list(KNOWN_MODELS)}"
        )
    doc = {
        "format": FORMAT_VERSION,
        "model_kind": ckpt.model_kind,
        "seed": ckpt.seed,
        "trace": [[t.beta, t.iteration, t.log_likelihood] for t in ckpt.trace],
    }
    try:
        _seed_and_trace(doc)   # what load would refuse
    except ValueError as exc:
        raise CheckpointError(f"cannot save checkpoint {path}: {exc}") from None
    if ckpt.default_w1 is not None:
        doc["default_w1"] = [float(w) for w in ckpt.default_w1]
    if ckpt.model_kind == "nmf":
        if (ckpt.factors is None or ckpt.n_levels is None
                or ckpt.params is not None or ckpt.default_w1 is not None):
            raise CheckpointError("nmf checkpoints hold factors and n_levels, no params "
                                  "or default_w1")
        doc["rank"] = ckpt.factors.rank
        doc["n_levels"] = ckpt.n_levels
        doc["arrays"] = {name: getattr(ckpt.factors, name) for name in _NMF_ARRAYS}
        doc["objective"] = list(ckpt.factors.objective)
    else:
        if ckpt.params is None or ckpt.factors is not None or ckpt.n_levels is not None:
            raise CheckpointError(f"{ckpt.model_kind} checkpoints hold params, no factors")
        p = ckpt.params
        doc["dims"] = asdict(p.dims)
        doc["arrays"] = {name: getattr(p, name) for name in _SHARED_ARRAYS}
        doc["arrays"].update((f"{name}_{z}", getattr(p, name)[z])
                             for name in _DOMAIN_ARRAYS for z in range(p.dims.n_domains))
    # a failed write leaves the previous checkpoint intact
    with atomic_write(path) as fh:
        _write_document(fh, doc)


def load_checkpoint(path: str) -> Checkpoint:
    """The checkpoint ``save_checkpoint`` wrote to ``path``; a key or array
    that its model kind is not saved with, like any other fault, raises one
    ``CheckpointError``."""
    doc = read_json(path, "checkpoint", CheckpointError)
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    found = doc.get("format")
    if found != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint version mismatch: expected {FORMAT_VERSION!r}, found {found!r}"
        )
    kind = doc.get("model_kind")
    if kind not in KNOWN_MODELS:
        raise CheckpointError(f"unknown model_kind {kind!r}")
    header = _NMF_HEADER if kind == "nmf" else _CLUSTER_HEADER
    try:
        _checked(doc, header, "checkpoint", [key for key in header if key != "default_w1"])
        trace = _seed_and_trace(doc)
        default_w1 = doc.get("default_w1")
        if kind == "nmf":
            names = _NMF_ARRAYS
            if doc["rank"] < 1 or doc["n_levels"] < 2:
                raise ValueError(f"nmf needs 'rank' >= 1 and 'n_levels' >= 2, "
                                 f"got {doc['rank']} and {doc['n_levels']}")
        else:
            raw = _checked(doc["dims"], _DIMS_TYPES, "dims", _DIMS_TYPES)
            dims = ModelDims(**{key: tuple(raw[key]) if json_type == [int] else raw[key]
                                for key, json_type in _DIMS_TYPES.items()})
            if default_w1 is not None and len(default_w1) != dims.n_domains:
                raise ValueError(f"'default_w1' needs one weight per domain "
                                 f"({dims.n_domains}), got {len(default_w1)}")
            domains = range(dims.n_domains)
            names = [*_SHARED_ARRAYS, *(f"{name}_{z}" for name in _DOMAIN_ARRAYS for z in domains)]
        arrays = _checked(doc["arrays"], dict.fromkeys(names, dict), "arrays", names)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path}: malformed header: {exc}") from None
    if kind == "nmf":
        factors = NmfFactors(**{name: _unarray(arrays, name) for name in names},
                             rank=doc["rank"], objective=doc["objective"])
        for name in names:
            shape = getattr(factors, name).shape
            if shape[1:] != (factors.rank,):
                raise CheckpointError(f"checkpoint array {name!r} has shape {shape}, "
                                      f"not (rows, {factors.rank}) for rank {factors.rank}")
        return Checkpoint(model_kind=kind, seed=doc["seed"], trace=trace,
                          factors=factors, n_levels=doc["n_levels"])
    params = PclfParams(
        dims=dims, **{name: _unarray(arrays, name) for name in _SHARED_ARRAYS},
        **{name: [_unarray(arrays, f"{name}_{z}") for z in domains] for name in _DOMAIN_ARRAYS},
    )
    try:
        params.validate()
    except ModelError as exc:
        raise CheckpointError(f"checkpoint {path}: {exc}") from None
    return Checkpoint(model_kind=kind, seed=doc["seed"], trace=trace,
                      params=params, default_w1=default_w1)
