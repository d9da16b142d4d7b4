"""Command-line interface.

Subcommands: ingest (raw files -> canonical dataset), train (dataset ->
checkpoint), predict (checkpoint -> rating CSV), evaluate (experiment
config -> MAE tables), synth (planted synthetic dataset), inspect
(checkpoint summary).  Every command is deterministic given its flags and
seeds and exits nonzero with a one-line diagnostic on error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys

import numpy as np

from . import baselines, data, evaluate, inference
from .checkpoint import (
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from .data import (
    DataError,
    ScaleSpec,
    _write_rows,
    atomic_write,
    build_dataset,
    load_dataset,
    parse_ratings,
    read_int_rows,
    read_json,
    save_dataset,
    select_subset,
    text_lines,
)
from .em import ModelError, TrainConfig


def _parse_scale(text: str, levels: int) -> ScaleSpec:
    try:
        lo, hi = (float(x) for x in text.split(":"))
    except ValueError as exc:
        raise DataError(f"scale must look like MIN:MAX, got {text!r}") from exc
    return ScaleSpec(lo, hi, levels)


def _parse_numbers(text: str, cast, what: str) -> list:
    try:
        return [cast(x) for x in text.split(",")]
    except ValueError:
        raise DataError(f"{what} needs comma-separated {cast.__name__}s, got {text!r}") from None


def _parse_list(text: str, expect: int, what: str, cast=int) -> list:
    values = _parse_numbers(text, cast, what)
    if len(values) == 1:
        values = values * expect
    if len(values) != expect:
        raise DataError(f"{what} needs 1 or {expect} comma-separated values, got {text!r}")
    return values


def cmd_ingest(args) -> int:
    if len(args.scale) not in (1, len(args.input)):
        raise DataError("--scale must be given once or once per --input")
    scales = args.scale if len(args.scale) == len(args.input) else args.scale * len(args.input)
    columns = tuple(_parse_numbers(args.columns, int, "--columns"))
    per_domain = []
    for path, scale_text in zip(args.input, scales):
        scale = _parse_scale(scale_text, args.levels)
        raw = parse_ratings(
            path, delimiter=args.delimiter, column_map=columns,
            scale=scale, skip_header=args.skip_header,
        )
        if args.select_users or args.select_items:
            raw = select_subset(
                raw,
                n_users=args.select_users or len({r.user_id for r in raw}),
                n_items=args.select_items or len({r.item_id for r in raw}),
                min_user_ratings=args.min_user_ratings,
                min_item_ratings=args.min_item_ratings,
                seed=args.seed,
            )
        per_domain.append((raw, scale))
    dataset = build_dataset(per_domain)
    save_dataset(dataset, args.out)
    _print_summary(dataset)
    return 0


def _print_summary(dataset) -> None:
    print(f"domains={dataset.n_domains} levels={dataset.n_levels}")
    for z in range(dataset.n_domains):
        print(
            f"domain {z}: users={dataset.n_users[z]} items={dataset.n_items[z]} "
            f"ratings={dataset.n_ratings[z]}"
        )


def cmd_train(args) -> int:
    dataset = load_dataset(args.dataset)
    z = dataset.n_domains
    config = TrainConfig(
        beta_schedule=tuple(_parse_numbers(args.betas, float, "--betas")),
        max_iters_per_beta=args.max_iters,
        min_iters_per_beta=args.min_iters,
        rel_ll_tol=args.tol,
        smoothing_floor=args.floor,
        seed=args.seed,
    )
    ckpt = evaluate.fit(
        args.model, dataset, args.user_clusters, args.common_clusters,
        _parse_list(args.specific_clusters, z, "-L/--specific-clusters"), config,
        [args.w1] * z, args.rank, args.nmf_iters,
    )
    save_checkpoint(args.out, ckpt)
    if ckpt.factors is not None:
        print(f"model=nmf rank={args.rank} objective={ckpt.factors.objective[-1]:.6f}")
        return 0
    d = ckpt.params.dims
    print(
        f"model={args.model} K={d.n_user_clusters} T={d.n_common_clusters} "
        f"L={','.join(str(x) for x in d.n_specific_clusters)}"
    )
    per_beta: dict[float, int] = {}
    for entry in ckpt.trace:
        per_beta[entry.beta] = entry.iteration + 1
    for beta, iters in per_beta.items():
        print(f"beta={beta:g} iterations={iters}")
    print(f"final_log_likelihood={ckpt.trace[-1].log_likelihood:.6f}")
    return 0


def _parse_cell(text: str) -> tuple[int, int, int, int]:
    try:
        parts = [int(x) for x in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) not in (3, 4):
        raise DataError(
            f"cell must be 'domain,user,item' or 'udomain,user,idomain,item', got {text!r}"
        )
    if parts[1] < 0 or parts[-1] < 0:
        raise DataError(f"cell user and item indices must be >= 0, got {text!r}")
    if max(parts) > np.iinfo(np.int64).max or min(parts) < np.iinfo(np.int64).min:
        raise DataError(f"cell indices must fit in 64 bits, got {text!r}")
    if len(parts) == 3:
        return parts[0], parts[1], parts[0], parts[2]
    return parts[0], parts[1], parts[2], parts[3]


def cmd_predict(args) -> int:
    if args.complete is not None and (args.cell or args.cells):
        raise DataError("give --cell/--cells or --complete, not both")
    if args.complete is not None and args.mix_specific:
        raise DataError("--mix-specific blends cross-domain cells; --complete has none")
    ckpt = load_checkpoint(args.checkpoint)
    cells = _collect_cells(args) if args.complete is None else None
    if cells is not None and not len(cells):
        raise DataError("nothing to predict: give --cell/--cells or --complete")
    if ckpt.model_kind == "nmf":
        factors, levels = ckpt.factors, ckpt.n_levels
        if args.complete not in (None, 0):
            raise DataError("nmf checkpoints hold a single domain (use --complete 0)")
        if cells is not None and cells[:, [0, 2]].any():
            raise DataError("nmf checkpoints predict only domain-0 cells")
        if args.w1 is not None or args.mix_specific:
            raise DataError("--w1 and --mix-specific weigh cluster patterns, "
                            "which nmf checkpoints do not have")
        head = "# model_kind=nmf\ndomain,user_idx,item_idx,predicted_rating\n"
        with _output(args.out, head) as write:
            if cells is None:
                items = np.arange(factors.v_factors.shape[0])
                with _row_sink(write, 0) as sink:
                    for u in range(factors.u_factors.shape[0]):
                        sink(u, baselines.nmf_predict(factors, u, items, levels))
            else:
                values = baselines.nmf_predict(factors, cells[:, 1], cells[:, 3], levels)
                _write_rows(write, cells[:, 0], cells[:, 1], cells[:, 3], values)
        return 0

    params = ckpt.params
    z = params.dims.n_domains
    if args.w1 is not None:
        w1 = _parse_list(args.w1, z, "--w1", float)
    elif ckpt.default_w1 is not None:
        w1 = list(ckpt.default_w1)
    else:
        w1 = [inference.DEFAULT_W1] * z
    weights = inference.PredictionWeights(w1=tuple(w1))
    mats = inference.cluster_rating_matrices(params)
    mems = inference.memberships(params)
    head = f"# model_kind={ckpt.model_kind} w1={','.join(f'{w:g}' for w in w1)}\n"

    if cells is None:
        with (_output(args.out, head + "domain,user_idx,item_idx,predicted_rating\n") as write,
              _row_sink(write, args.complete) as sink):
            inference.complete_matrix(params, mats, mems, weights, args.complete, sink)
        return 0

    values = inference.predict_cells(params, mats, mems, weights, cells, args.mix_specific)
    head += "user_domain,user_idx,item_domain,item_idx,predicted_rating,cross\n"
    with _output(args.out, head) as write:
        _write_rows(write, *cells.T, values, (cells[:, 0] != cells[:, 2]).astype(np.int64))
    unseen = ((cells[:, 1] >= np.take(params.dims.n_users, cells[:, 0]))
              | (cells[:, 3] >= np.take(params.dims.n_items, cells[:, 2]))).sum()
    if unseen:
        print(f"note: {unseen} of {len(cells)} cells used a uniform membership "
              "for an unseen user or item", file=sys.stderr)
    return 0


def _collect_cells(args) -> np.ndarray:
    """Every --cell and --cells cell as rows of (user domain, user, item domain, item)."""
    cells = np.array([_parse_cell(c) for c in (args.cell or [])], dtype=np.int64).reshape(-1, 4)
    if args.cells:
        cells = np.concatenate([cells, _read_cells(args.cells)])
    return cells


def _read_cells(path: str) -> np.ndarray:
    """A --cells file's cells; a file that is not plain digit rows of one
    width goes through ``_parse_cells_file``, which names a bad line."""
    with open(path, "rb") as fh:
        rows = read_int_rows(fh.read())
    if rows is None or rows.shape[1] not in (3, 4):
        return _parse_cells_file(path)
    return rows[:, [0, 1, 0, 2]] if rows.shape[1] == 3 else rows


def _parse_cells_file(path: str) -> np.ndarray:
    """Parse a --cells file line by line; blank and ``#`` lines are skipped."""
    cells = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(text_lines(fh, path), start=1):
            line = line.strip()
            if line and not line.startswith("#"):
                try:
                    cells.append(_parse_cell(line))
                except DataError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from None
    return np.array(cells, dtype=np.int64).reshape(-1, 4)


@contextlib.contextmanager
def _output(path, head: str):
    """Yield ``write(text)`` for ``path``, through ``atomic_write``, or for
    stdout if None.  The target is opened and ``head`` written at the first
    call, so a check that fails before any output leaves the target as it
    was, a symlink's file or a FIFO too, and prints nothing."""
    with contextlib.ExitStack() as stack:
        fh = None

        def write(text: str) -> None:
            nonlocal fh
            if fh is None:
                fh = stack.enter_context(
                    contextlib.nullcontext(sys.stdout) if path is None else atomic_write(path))
                fh.write(head)
            fh.write(text)

        yield write


@contextlib.contextmanager
def _row_sink(write, domain: int):
    """Yield ``sink(user, row)`` for one domain's rows of predictions in
    user order.  Rows are buffered and written in blocks of about
    ``data.BLOCK_ROWS`` cells; the rest goes out when the ``with`` block
    ends without an error."""
    users, rows = [], []

    def flush():
        n_items = len(rows[0])
        values = np.concatenate(rows)
        _write_rows(write, np.full(len(values), domain), np.repeat(users, n_items),
                    np.tile(np.arange(n_items), len(users)), values)
        users.clear()
        rows.clear()

    def complete_sink(u, row):
        users.append(u)
        rows.append(row)
        if (len(rows) + 1) * len(row) > data.BLOCK_ROWS:
            flush()
    yield complete_sink
    if rows:
        flush()


def cmd_evaluate(args) -> int:
    config = evaluate.load_config(args.config)
    if args.repeats is not None:
        config = dataclasses.replace(config, n_repeats=args.repeats)
    report = evaluate.run_experiment(config, log=print if args.verbose else None,
                                     note=lambda line: print(line, file=sys.stderr))
    files = {"results.csv": evaluate.raw_results_csv(report),
             "table.txt": evaluate.report_table(report, fmt="plain"),
             "table.csv": evaluate.report_table(report, fmt="csv")}
    os.makedirs(args.out, exist_ok=True)   # only once every config and data fault is past
    for name, text in files.items():
        with atomic_write(os.path.join(args.out, name)) as fh:
            fh.write(text)
    print(files["table.txt"], end="")
    return 0


def cmd_synth(args) -> int:
    if args.spec:
        spec = evaluate.synthetic_spec_from_dict(read_json(args.spec, "synthetic spec", DataError))
    else:
        z = args.domains
        spec = evaluate.synthetic_spec_from_dict({
            "Z": z, "K": args.user_clusters, "T": args.common_clusters,
            "L": _parse_list(args.specific_clusters, z, "-L"), "R": args.levels,
            "M": _parse_list(args.users, z, "--users"), "N": _parse_list(args.items, z, "--items"),
            "w1": _parse_list(args.w1, z, "--w1", float), "density": args.density,
            "seed": args.seed,
        })
    dataset, true_params = evaluate.synth_generate(spec)
    save_dataset(dataset, args.out)
    if args.params_out:
        save_checkpoint(args.params_out, Checkpoint(
            model_kind="pclf", seed=spec.seed, trace=[], params=true_params,
            default_w1=evaluate.checkpoint_w1(true_params.dims, spec.w1),
        ))
    _print_summary(dataset)
    return 0


def cmd_inspect(args) -> int:
    if args.top < 0:
        raise DataError(f"--top must be >= 0, got {args.top}")
    ckpt = load_checkpoint(args.checkpoint)
    print(f"format={ckpt.model_kind} seed={ckpt.seed}")
    if ckpt.model_kind == "nmf":
        m, rank = ckpt.factors.u_factors.shape
        n = ckpt.factors.v_factors.shape[0]
        print(f"users={m} items={n} rank={rank} levels={ckpt.n_levels}")
        if ckpt.factors.objective:
            print(f"final_objective={ckpt.factors.objective[-1]:.6f}")
        return 0
    params = ckpt.params
    d = params.dims
    print(
        f"domains={d.n_domains} K={d.n_user_clusters} T={d.n_common_clusters} "
        f"L={','.join(str(x) for x in d.n_specific_clusters)} levels={d.n_levels}"
    )
    mats = inference.cluster_rating_matrices(params)
    print("common cluster-level rating matrix:")
    print(np.array2string(mats.s_com, precision=4, suppress_small=True))
    for z in range(d.n_domains):
        if d.n_specific_clusters[z] == 0:
            continue
        print(f"specific cluster-level rating matrix, domain {z}:")
        print(np.array2string(mats.s_spe[z], precision=4, suppress_small=True))
    top = args.top
    for k in range(d.n_user_clusters):
        best = np.argsort(params.cond_u[k])[::-1][:top]
        print(f"user cluster {k} top users: {', '.join(str(int(u)) for u in best)}")
    for t in range(d.n_common_clusters):
        best = np.argsort(params.cond_vcom[t])[::-1][:top]
        print(f"common item cluster {t} top items: {', '.join(str(int(v)) for v in best)}")
    if ckpt.trace:
        print(f"final_log_likelihood={ckpt.trace[-1].log_likelihood:.6f}")
    return 0


class UsageError(Exception):
    """A command line that argparse rejects."""


class _ArgumentParser(argparse.ArgumentParser):
    """argparse, with a rejected command line reported as every other
    fault is: one ``error:`` line and exit status 1, not usage text and 2."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="pclf",
        description="Cross-domain cluster-level rating model: train, predict, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse raw rating files into a canonical dataset")
    p.add_argument("--input", action="append", required=True, help="rating file (repeat per domain)")
    p.add_argument("--scale", action="append", required=True, help="source scale MIN:MAX (repeat per domain)")
    p.add_argument("--levels", type=int, default=5, help="target rating levels R")
    p.add_argument("--delimiter", default="\t")
    p.add_argument("--columns", default="0,1,2", help="user,item,rating column indices")
    p.add_argument("--skip-header", action="store_true")
    p.add_argument("--select-users", type=int, default=0, help="subsample to this many users")
    p.add_argument("--select-items", type=int, default=0, help="subsample to this many items")
    p.add_argument("--min-user-ratings", type=int, default=0,
                   help="users need more than this many ratings to qualify")
    p.add_argument("--min-item-ratings", type=int, default=0,
                   help="items need more than this many ratings to qualify")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--dataset", required=True, help="canonical dataset directory")
    p.add_argument("--model", default="pclf", choices=evaluate.KNOWN_MODELS)
    p.add_argument("-K", "--user-clusters", type=int, default=20)
    p.add_argument("-T", "--common-clusters", type=int, default=10)
    p.add_argument("-L", "--specific-clusters", default="15",
                   help="specific clusters per domain, e.g. 15 or 15,15")
    p.add_argument("--betas", default=",".join(map(str, TrainConfig.beta_schedule)),
                   help="ascending inverse-temperature schedule ending at 1.0")
    p.add_argument("--max-iters", type=int, default=TrainConfig.max_iters_per_beta)
    p.add_argument("--min-iters", type=int, default=TrainConfig.min_iters_per_beta,
                   help="iterations per beta before the tolerance is consulted")
    p.add_argument("--tol", type=float, default=TrainConfig.rel_ll_tol)
    p.add_argument("--floor", type=float, default=TrainConfig.smoothing_floor)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--w1", type=float, default=inference.DEFAULT_W1,
                   help="default prediction weight stored in the checkpoint")
    p.add_argument("--rank", type=int, default=evaluate.ExperimentConfig.nmf_rank,
                   help="nmf rank")
    p.add_argument("--nmf-iters", type=int, default=evaluate.ExperimentConfig.nmf_iters)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict ratings from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--w1", default=None,
                   help="per-domain cross-domain weight(s), e.g. 0.35 or 0.35,0.5")
    p.add_argument("--cell", action="append",
                   help="'domain,user,item' or 'udomain,user,idomain,item' (repeatable)")
    p.add_argument("--cells", help="file with one cell per line")
    p.add_argument("--complete", type=int, default=None,
                   help="stream every cell of this domain (not with --cell/--cells)")
    p.add_argument("--mix-specific", action="store_true",
                   help="blend the item domain's specific pattern into cross-domain cells")
    p.add_argument("--out", default=None, help="output CSV (stdout if omitted)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="run a Given-N experiment from a config file")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--repeats", type=int, default=None, help="override n_repeats")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate a planted synthetic dataset")
    p.add_argument("--spec", help="synthetic spec JSON file")
    p.add_argument("--domains", type=int, default=2)
    p.add_argument("-K", "--user-clusters", type=int, default=6)
    p.add_argument("-T", "--common-clusters", type=int, default=4)
    p.add_argument("-L", "--specific-clusters", default="3")
    p.add_argument("--levels", type=int, default=5)
    p.add_argument("--users", default="300")
    p.add_argument("--items", default="500")
    p.add_argument("--density", type=float, default=0.05)
    p.add_argument("--w1", default="0.5")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--params-out", help="also save the generating model checkpoint")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("inspect", help="summarize a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--top", type=int, default=5)
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (DataError, ModelError, CheckpointError, OSError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
