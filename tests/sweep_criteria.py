"""Pass rates of the two tier-1 criteria that hold only on their pinned
draws, over shifted init seeds.

    PYTHONPATH=src python tests/sweep_criteria.py --offsets 12 --cap 25

Offset j shifts every init seed by 100003 * j and leaves the data and the
splits as they are.  ``test_no_specific_signal_no_penalty`` trains with
``TrainConfig.seed`` shifted; ``test_harness_pclf_not_worse_than_fmm``
draws each repeat's shared init (``evaluate.init_params_many``) from the
shifted seed.  ``--cap`` is ``max_iters_per_beta``, 25 in both tests, so
offset 0 at cap 25 is what tier-1 runs.  For each offset the script prints
each criterion's values and whether it holds, then each pass rate.  It is
a measurement, not a gate, and pytest does not collect it.
"""

import argparse

import numpy as np

from pclf import ModelDims, PredictionWeights, common_only_train, evaluate, train
from pclf.evaluate import run_experiment

from test_eval import _best_trained, _harness_config, _mean_mae, _planted, _split_and_eval

STEP = 100003


def no_penalty(offset, cap):
    """|full - common| per data seed, as in test_no_specific_signal_no_penalty."""
    gaps = []
    for seed in range(3):
        ds = _planted(seed, w1=1.0)
        train_ds, evs = _split_and_eval(ds, seed)
        dims = ModelDims.from_dataset(train_ds, 3, 2, (2, 2))
        params = _best_trained(lambda c: train(train_ds, dims, c), seed + offset, 3, cap)
        full = _mean_mae(params, PredictionWeights(w1=(0.35, 0.35)), evs)
        params = _best_trained(lambda c: common_only_train(train_ds, 3, 2, c),
                               seed + offset, 3, cap)
        common = _mean_mae(params, PredictionWeights.common_only(2), evs)
        gaps.append(abs(full - common))
    return gaps


def harness(offset, cap):
    """(pclf, fmm) mean MAE, as in test_harness_pclf_not_worse_than_fmm."""
    shared = evaluate.init_params_many

    def shifted(jobs, seed, floor):
        return shared(jobs, seed + offset, floor)

    evaluate.init_params_many = shifted   # forked workers inherit it
    try:
        report = run_experiment(_harness_config(cap))
    finally:
        evaluate.init_params_many = shared
    return tuple(float(np.mean([report.mean(m, z, 5) for z in (0, 1)])) for m in ("pclf", "fmm"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--offsets", type=int, default=12, help="offsets j = 0 .. N-1")
    parser.add_argument("--cap", type=int, default=25, help="max_iters_per_beta")
    args = parser.parse_args(argv)
    held = {"no-penalty": 0, "pclf<=fmm": 0}
    for j in range(args.offsets):
        gaps = no_penalty(STEP * j, args.cap)
        pclf, fmm = harness(STEP * j, args.cap)
        held["no-penalty"] += max(gaps) <= 0.02
        held["pclf<=fmm"] += pclf <= fmm
        print(f"offset {j:2d}: no-penalty {' '.join(f'{g:.6f}' for g in gaps)} "
              f"{'ok' if max(gaps) <= 0.02 else 'FAIL'}; "
              f"pclf {pclf:.6f} fmm {fmm:.6f} {'ok' if pclf <= fmm else 'FAIL'}", flush=True)
    for name, n in held.items():
        print(f"{name}: held at {n} of {args.offsets} offsets (cap {args.cap})")


if __name__ == "__main__":
    main()
