"""Train the pairwise softness ranker on simulated squeeze clips and score
it on clips from unseen trials.

Run: python3 demos/rank_softness.py [--epochs 600]
"""

import argparse
import time

from gripsense import softness


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--train-trials", type=int, default=7)
    parser.add_argument("--test-trials", type=int, default=3)
    parser.add_argument("--epochs", type=int, default=600,
                        help="L-BFGS iteration cap; the fit stops earlier "
                             "once converged (first step length 0.01)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    t0 = time.perf_counter()
    library = softness.build_clip_library(args.train_trials, seed=args.seed)
    pairs = softness.make_ranking_pairs(library)
    model = softness.train_ranker(pairs, epochs=args.epochs,
                                  learning_rate=0.01, seed=args.seed)
    print(f"trained on {len(pairs)} ordered pairs from {len(library)} clips, "
          f"{len(model.loss_history) - 1} iterations, "
          f"final loss {model.final_loss:.6g}, "
          f"{time.perf_counter() - t0:.1f} s")

    held = softness.build_clip_library(args.test_trials, seed=args.seed + 1)
    result = softness.eval_pairwise_accuracy(model,
                                             softness.make_ranking_pairs(held))
    for (texture, shore), acc in sorted(result.per_group.items()):
        print(f"  {texture:<14} shore00 {shore:5.1f}: accuracy {acc:.3f}")
    print(f"aggregate {result.aggregate:.3f} over {result.n_pairs} "
          "held-out pairs")


if __name__ == "__main__":
    main()
