#!/usr/bin/env python3
"""Generate a synthetic multitrack dataset for experiments and demos.

Each song is a handful of sine components plus a little noise per stem,
so oracle separation has real work to do without needing licensed audio.
"""

import argparse

from synth import write_fixture_dataset


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("root", help="directory to create the dataset in")
    parser.add_argument("--songs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--duration", type=float, default=2.5, help="stem length in seconds")
    parser.add_argument("--channels", type=int, default=2)
    parser.add_argument(
        "--instruments", default="bass,drums,vocals", help="comma-separated stem names"
    )
    parser.add_argument(
        "--splits",
        default="train",
        help="one split tag for all songs, or a comma list with one tag per song",
    )
    args = parser.parse_args(argv)

    splits = args.splits.split(",") if "," in args.splits else args.splits
    manifest = write_fixture_dataset(
        args.root,
        n_songs=args.songs,
        seed=args.seed,
        duration=args.duration,
        instruments=tuple(args.instruments.split(",")),
        splits=splits,
        n_channels=args.channels,
    )
    print(f"wrote {args.songs} songs, manifest at {manifest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
