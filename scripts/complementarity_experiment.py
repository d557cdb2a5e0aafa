"""Stream ablation on the amplitude dataset.

The amplitude generator builds matched subject pairs whose Pearson matrices
are identical by construction (class 1 is a per-block positive rescale of
class 0, and correlation is blind to positive affine maps). Rank-thresholded
correlation graphs therefore carry no label signal, while raw-signal distance
graphs separate the classes. Training each stream alone and then both
together shows where the information lives.

Run from the repository root:

    python3 scripts/complementarity_experiment.py --epochs 20
"""

import argparse
import json

from cdgl import synthgen as sg
from cdgl import train_eval as tv

ARMS = (("pcc_only", "r"), ("distance_only", "d"), ("dual", "rd"))


def run(args) -> dict:
    spec = sg.SynthSpec("amplitude", args.subjects, args.rois, args.timepoints,
                        noise_std=args.noise, seed=args.seed)
    subjects = sg.make_subjects(spec)
    plan = tv.split_subjects(subjects, args.test_fraction, 4, seed=args.split_seed)
    by_id = {ts.subject_id: ts for ts in subjects}
    train_subs = [by_id[i] for i in plan.train_ids]
    test_subs = [by_id[i] for i in plan.test_ids]

    results = {}
    for name, streams in ARMS:
        cfg = tv.TrainConfig(layers=2, batch_size=4, lr=args.lr,
                             weight_decay=2e-4, window_size=args.window_size,
                             stride=args.stride, hidden_dim=args.hidden_dim,
                             proj_dim=args.hidden_dim, alpha=args.alpha,
                             delta=1, distance_kind=args.distance,
                             epochs=args.epochs, seed=args.train_seed,
                             streams=streams, normalize_fc=False)
        result = tv.train(train_subs, cfg)
        preps = tv.prepare_dataset(test_subs, cfg)
        report = tv.evaluate(result.store, result.dims, preps)
        results[name] = report.as_dict()
        auc = "n/a" if report.auc is None else f"{report.auc:.3f}"
        print(f"{name:14s} streams={streams:2s} test auc {auc} "
              f"acc {report.acc:.3f}")
    return {"spec": spec.__dict__, "split_seed": args.split_seed,
            "epochs": args.epochs, "arms": results}


def parse_args(argv=None) -> argparse.Namespace:
    """The experiment's settings: the defaults below, then ``argv``'s flags.
    ``parse_args([])`` gives the defaults without a command line."""
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    ap.add_argument("--subjects", type=int, default=60)
    ap.add_argument("--rois", type=int, default=10)
    ap.add_argument("--timepoints", type=int, default=120)
    ap.add_argument("--noise", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=7, help="dataset seed")
    ap.add_argument("--split-seed", type=int, default=0)
    ap.add_argument("--train-seed", type=int, default=0)
    ap.add_argument("--test-fraction", type=float, default=0.2)
    ap.add_argument("--window-size", type=int, default=35)
    ap.add_argument("--stride", type=int, default=25)
    ap.add_argument("--hidden-dim", type=int, default=8)
    ap.add_argument("--alpha", type=float, default=0.1)
    ap.add_argument("--lr", type=float, default=1e-3)
    ap.add_argument("--distance", default="euclidean")
    ap.add_argument("--epochs", type=int, default=20)
    ap.add_argument("--out", default=None, help="optional JSON results path")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    summary = run(args)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
