#!/usr/bin/env python3
"""Run the full pipeline end to end on a generated dataset.

Builds a synthetic multitrack dataset, scores it twice (quadratic and
linear mask exponents), then exercises ranking, subset selection,
cross-configuration correlation, and the mute-plan sweep.  Everything
lands under one work directory; rerunning reproduces it byte for byte.
"""

import argparse
from pathlib import Path

from separability.cli import main as cli

from synth import write_fixture_dataset

# Small analysis windows keep the demo to a few seconds of compute.
FAST = ["--fast-metrics", "--window-size", "1024", "--hop", "256"]


def _run(label: str, argv: list[str]) -> None:
    print(f"+ separability {' '.join(argv)}")
    code = cli(argv)
    if code != 0:
        raise SystemExit(f"{label} failed with exit code {code}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--work-dir", default="demo_out")
    parser.add_argument("--songs", type=int, default=3)
    parser.add_argument("--duration", type=float, default=2.5)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)

    work = Path(args.work_dir)
    dataset = work / "dataset"
    splits = ["train"] * max(args.songs - 1, 1) + ["test"] * (1 if args.songs > 1 else 0)
    write_fixture_dataset(
        dataset, n_songs=args.songs, seed=args.seed, duration=args.duration, splits=splits
    )
    print(f"dataset at {dataset}")

    quad = work / "analysis_alpha2"
    lin = work / "analysis_alpha1"
    _run("analyze", ["analyze", "--dataset", str(dataset), "--out", str(quad)] + FAST)
    _run(
        "analyze",
        ["analyze", "--dataset", str(dataset), "--out", str(lin), "--alpha", "1.0"] + FAST,
    )

    scores = str(quad / "scores.csv")
    _run(
        "rank",
        [
            "rank", "--scores", scores, "--metric", "si_sdr", "--instrument", "bass",
            "--out", str(work / "ranking_bass.json"),
        ],
    )
    _run(
        "select",
        [
            "select", "--scores", scores, "--metric", "si_sdr", "--instrument", "bass",
            "--criterion", "top", "--fraction", "0.5",
            "--out", str(work / "top_half_bass.json"),
        ],
    )
    _run(
        "correlate",
        ["correlate", scores, str(lin / "scores.csv"), "--out", str(work / "correlations")],
    )
    _run(
        "mute-plan",
        [
            "mute-plan", "--dataset", str(dataset), "--instrument", "vocals",
            "--out", str(work / "mute_plans"),
        ],
    )

    print(f"\nall artifacts under {work}/")
    for path in sorted(work.rglob("*")):
        if path.is_file():
            print(f"  {path.relative_to(work)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
