"""Window-length sweep on the switching dataset.

Both classes alternate between the same two correlation-block partitions
with fresh latents per segment; class 1 flips once at the scan midpoint,
class 0 flips every eighth. Whole-scan correlation matrices agree between
classes in expectation, so a single-window model has nothing stable to read,
while quarter-scan windows isolate pure regimes for class 1 and mixtures for
class 0. Sweeping the window size makes that contrast visible as AUC.

Run from the repository root:

    python3 scripts/dynamic_vs_static.py --window-sizes 30,60,120
"""

import argparse
import json

from cdgl import synthgen as sg
from cdgl import train_eval as tv


def run(args) -> dict:
    spec = sg.SynthSpec("switching", args.subjects, args.rois, args.timepoints,
                        noise_std=args.noise, seed=args.seed)
    subjects = sg.make_subjects(spec)
    sizes = [int(s) for s in args.window_sizes.split(",")]

    results = {}
    for ws in sizes:
        cfg = tv.TrainConfig(layers=2, batch_size=4, lr=args.lr,
                             weight_decay=2e-4, window_size=ws, stride=ws,
                             hidden_dim=args.hidden_dim,
                             proj_dim=args.hidden_dim, alpha=0.0, delta=1,
                             distance_kind=args.distance, epochs=args.epochs,
                             seed=args.train_seed)
        cv = tv.cross_validate(subjects, cfg, k=args.folds,
                               test_fraction=args.test_fraction)
        results[str(ws)] = cv.summary
        auc = tv.format_m_s(cv.summary["auc_mean"], cv.summary["auc_std"])
        acc = tv.format_m_s(cv.summary["acc_mean"], cv.summary["acc_std"])
        n_w = (args.timepoints - ws) // ws + 1
        print(f"ws={ws:4d} ({n_w} windows)  cv auc {auc}  acc {acc}")
    return {"spec": spec.__dict__, "folds": args.folds,
            "epochs": args.epochs, "by_window_size": results}


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
    ap.add_argument("--train-seed", type=int, default=0)
    ap.add_argument("--folds", type=int, default=4)
    ap.add_argument("--test-fraction", type=float, default=0.2)
    ap.add_argument("--window-sizes", default="30,120",
                    help="comma-separated list; stride always equals the size")
    ap.add_argument("--hidden-dim", type=int, default=8)
    ap.add_argument("--lr", type=float, default=1e-3)
    ap.add_argument("--distance", default="euclidean")
    ap.add_argument("--epochs", type=int, default=30)
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
