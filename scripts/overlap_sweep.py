#!/usr/bin/env python3
"""Sweep spectral overlap between two synthetic sources and report oracle SI-SDR.

The headline sanity check of the whole approach: as two sources share
more of their spectrum, an ideal-ratio-mask oracle separates them worse.
The printed table should be monotone down the overlap column.
"""

import argparse

from separability import AudioClip, oracle_separate, si_sdr

from synth import overlapping_sine_sources

SR = 44100


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--overlaps",
        default="0,0.25,0.5,0.75,1.0",
        help="comma-separated overlap fractions in [0, 1]",
    )
    parser.add_argument("--duration", type=float, default=1.0, help="seconds per source")
    parser.add_argument("--components", type=int, default=8, help="sines per source")
    args = parser.parse_args(argv)

    overlaps = [float(part) for part in args.overlaps.split(",")]
    n_samples = int(round(args.duration * SR))

    print(f"{'overlap':>8}  {'si_sdr_a':>9}  {'si_sdr_b':>9}")
    for rho in overlaps:
        a, b = overlapping_sine_sources(rho, n_components=args.components, n_samples=n_samples)
        mixture = AudioClip(a.samples + b.samples, SR)
        est_a, est_b = oracle_separate(mixture, [a, b])
        print(f"{rho:>8.2f}  {si_sdr(est_a, a):>9.2f}  {si_sdr(est_b, b):>9.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
