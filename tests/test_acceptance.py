"""Release gate: the quantitative checks this package must pass to ship.

Each test covers one gate item and prints a single PASS/FAIL line with
the measured numbers (run with ``pytest -s`` to see them on success).
Thresholds here are frozen; loosening one is a release decision, not a
test fix.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from separability import (
    AudioClip,
    FrameScores,
    MetricConfig,
    OracleConfig,
    Spectrogram,
    StftConfig,
    aggregate_song,
    compute_irm,
    decompose,
    isr,
    istft,
    oracle_separate,
    pearson,
    sar,
    sdr,
    si_sdr,
    sir,
    spearman,
    stft,
)
from separability.cli import DEFAULT_RATIOS, main
from synth import noise_clip, overlapping_sine_sources
from oracles import delayed_matrix, dense_metrics, direct_spearman

SR = 44100


def _verdict(label: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} | {label} | {detail}")
    assert passed, f"{label}: {detail}"


def test_a01_stft_round_trip_on_random_stereo_clips():
    gen = np.random.Generator(np.random.PCG64(2024))
    worst = 0.0
    started = time.perf_counter()
    for _ in range(100):
        n = int(gen.integers(SR // 2, 5 * SR + 1))
        clip = AudioClip(gen.normal(0.0, 0.5, (2, n)), SR)
        back = istft(stft(clip))
        worst = max(worst, float(np.max(np.abs(back.samples - clip.samples))))
    elapsed = time.perf_counter() - started
    _verdict(
        "stft round trip, 100 random stereo clips",
        worst < 1e-10 and elapsed < 30.0,
        f"max error {worst:.3e} (< 1e-10), {elapsed:.1f}s (< 30s)",
    )


def test_a02_mask_partition_property():
    gen = np.random.Generator(np.random.PCG64(7))
    config = StftConfig(256, 64)
    worst_sum = 0.0
    in_bounds = True
    started = time.perf_counter()
    for n_sources in range(2, 7):
        for alpha in (0.5, 1.0, 2.0, 4.0):
            for _ in range(3):
                specs = []
                for _ in range(n_sources):
                    bins = gen.normal(size=(2, 7, config.n_bins)) + 1j * gen.normal(
                        size=(2, 7, config.n_bins)
                    )
                    bins[:, 3, :] = 0.0  # one frame silent in every source
                    specs.append(Spectrogram(bins, config, 640, SR))
                masks = compute_irm(specs, OracleConfig(alpha=alpha)).masks
                worst_sum = max(worst_sum, float(np.max(np.abs(masks.sum(axis=0) - 1.0))))
                in_bounds = in_bounds and bool(
                    np.all(masks >= 0.0) and np.all(masks <= 1.0)
                )
    elapsed = time.perf_counter() - started
    _verdict(
        "mask partition of unity, 2..6 sources, four exponents",
        worst_sum < 1e-12 and in_bounds and elapsed < 10.0,
        f"max |sum-1| {worst_sum:.3e} (< 1e-12), bounds ok={in_bounds}, {elapsed:.1f}s (< 10s)",
    )


def test_a03_oracle_estimates_sum_to_the_mixture():
    gen = np.random.Generator(np.random.PCG64(31))
    worst = 0.0
    for _ in range(3):
        stems = [noise_clip(gen, SR // 2, n_channels=2, scale=0.2) for _ in range(3)]
        mixture = AudioClip(sum(s.samples for s in stems), SR)
        estimates = oracle_separate(mixture, stems)
        total = sum(e.samples for e in estimates)
        worst = max(worst, float(np.max(np.abs(total - mixture.samples))))
    _verdict(
        "oracle estimates sum back to the mixture",
        worst < 1e-9,
        f"max deviation {worst:.3e} (< 1e-9)",
    )


def test_a04_disjoint_banks_recover_and_identical_stems_are_exact():
    a, b = overlapping_sine_sources(0.0, n_samples=4 * SR)
    mixture = AudioClip(a.samples + b.samples, SR)
    est_a, est_b = oracle_separate(mixture, [a, b])
    score_a = si_sdr(est_a, a)
    score_b = si_sdr(est_b, b)

    stem = overlapping_sine_sources(0.0)[0]
    twin_mix = AudioClip(stem.samples * 2.0, SR)
    twins = oracle_separate(twin_mix, [stem, stem])
    twin_err = max(
        float(np.max(np.abs(est.samples - stem.samples))) for est in twins
    )
    _verdict(
        "disjoint sine banks recovered, identical stems exact",
        score_a >= 30.0 and score_b >= 30.0 and twin_err < 1e-9,
        f"si-sdr {score_a:.2f}/{score_b:.2f} dB (>= 30), twin error {twin_err:.3e} (< 1e-9)",
    )


def test_a05_more_spectral_overlap_never_helps():
    overlaps = (0.0, 0.25, 0.5, 0.75, 1.0)
    scores_a, scores_b = [], []
    for rho in overlaps:
        a, b = overlapping_sine_sources(rho)
        mixture = AudioClip(a.samples + b.samples, SR)
        est_a, est_b = oracle_separate(mixture, [a, b])
        scores_a.append(si_sdr(est_a, a))
        scores_b.append(si_sdr(est_b, b))
    ok = all(
        later <= earlier + 1e-9
        for seq in (scores_a, scores_b)
        for earlier, later in zip(seq, seq[1:])
    )
    detail_a = "/".join(f"{s:.2f}" for s in scores_a)
    detail_b = "/".join(f"{s:.2f}" for s in scores_b)
    _verdict(
        "si-sdr non-increasing in spectral overlap",
        ok,
        f"source one {detail_a} dB, source two {detail_b} dB",
    )


def test_a06_metric_analytic_cases():
    gen = np.random.Generator(np.random.PCG64(83))
    s = gen.normal(size=4000)
    raw = gen.normal(size=4000)
    ortho = raw - (raw @ s) / (s @ s) * s
    ortho *= np.linalg.norm(s) / np.linalg.norm(ortho)
    ref = AudioClip(s, SR)
    est = AudioClip(s + ortho, SR)
    equal_energy = si_sdr(est, ref)
    scale_drift = max(
        abs(si_sdr(AudioClip(c * est.samples, SR), ref) - equal_energy)
        for c in (-3.0, 0.01, 7.0)
    )

    # Noise orthogonal to every delayed copy of the reference lands fully
    # in the artifact term, so SDR and SAR both sit at 0 dB for equal
    # energies.  Orthogonalize against the truncated delay matrix so the
    # noise stays realizable as an unpadded estimate.
    flen = 32
    basis = delayed_matrix(s[None, :], flen)[:4000, :]
    coef, *_ = np.linalg.lstsq(basis, raw, rcond=None)
    perp = raw - basis @ coef
    perp *= np.linalg.norm(s) / np.linalg.norm(perp)
    comp = decompose([ref], AudioClip(s + perp, SR), 0, MetricConfig(filter_length=flen))
    sdr_err = abs(sdr(comp, ref))
    sar_err = abs(sar(comp, ref))

    _verdict(
        "analytic metric values",
        abs(equal_energy) <= 0.01
        and scale_drift <= 1e-12
        and sdr_err <= 0.01
        and sar_err <= 0.01,
        f"equal-energy si-sdr {equal_energy:+.4f} dB (|.| <= 0.01), "
        f"scale drift {scale_drift:.2e} (<= 1e-12), "
        f"sdr/sar off by {sdr_err:.4f}/{sar_err:.4f} dB (<= 0.01)",
    )


def test_a07_decomposition_matches_dense_reference():
    fixtures = [
        {"seed": s, "j": 2 + s % 2, "flen": (1, 32)[(s // 2) % 2], "ch": 1 + (s // 4) % 2}
        for s in range(20)
    ]
    n = 2000
    worst_db = 0.0
    worst_partition = 0.0
    for fx in fixtures:
        gen = np.random.Generator(np.random.PCG64(fx["seed"]))
        refs = gen.normal(size=(fx["j"], fx["ch"], n))
        est = 0.9 * refs[0] + 0.25 * refs[-1] + gen.normal(scale=0.15, size=(fx["ch"], n))
        est[:, 2:] += 0.3 * refs[0][:, :-2]

        clips = [AudioClip(r, SR) for r in refs]
        est_clip = AudioClip(est, SR)
        comp = decompose(clips, est_clip, 0, MetricConfig(filter_length=fx["flen"]))
        got = {
            "sdr": sdr(comp, clips[0]),
            "isr": isr(comp, clips[0]),
            "sir": sir(comp, clips[0]),
            "sar": sar(comp, clips[0]),
        }
        want = dense_metrics(refs, est, 0, fx["flen"])
        worst_db = max(worst_db, max(abs(got[k] - want[k]) for k in want))

        e_spat, e_interf, e_artif = comp.e_spat, comp.e_interf, comp.e_artif
        total = n + fx["flen"] - 1
        s_pad = np.zeros((fx["ch"], total))
        s_pad[:, :n] = refs[0]
        est_pad = np.zeros((fx["ch"], total))
        est_pad[:, :n] = est
        residual = s_pad + e_spat + e_interf + e_artif - est_pad
        worst_partition = max(worst_partition, float(np.max(np.abs(residual))))
    _verdict(
        "decomposition agrees with dense reference on 20 fixtures",
        worst_db <= 0.01 and worst_partition <= 1e-9,
        f"max metric gap {worst_db:.5f} dB (<= 0.01), "
        f"max partition residual {worst_partition:.3e} (<= 1e-9)",
    )


def test_a08_median_aggregation_protocol():
    def frames(values):
        arr = np.array(values, dtype=float)
        return FrameScores(arr, arr, arr, arr, arr)

    odd = aggregate_song(frames([3.0, 1.0, 2.0]))["si_sdr"]
    even = aggregate_song(frames([1.0, 2.0, 3.0, 4.0]))["sdr"]
    holes = aggregate_song(frames([math.nan, 5.0, math.nan, 7.0]))["sar"]
    empty = aggregate_song(frames([math.nan, math.nan]))["sir"]
    ok = odd == 2.0 and even == 2.5 and holes == 6.0 and math.isnan(empty)
    _verdict(
        "median over windows: odd, even, missing cases",
        ok,
        f"odd {odd}, even {even}, with-missing {holes}, all-missing nan={math.isnan(empty)}",
    )


def test_a09_correlation_fixtures():
    linear = pearson([1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 8.0])
    reversed_rank = spearman([1.0, 2.0, 3.0, 4.0], [9.0, 6.0, 4.0, 1.0])
    monotone = spearman([1.0, 2.0, 3.0, 4.0], [1.0, 8.0, 27.0, 64.0])

    tie_fixtures = [
        ([1.0, 2.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]),
        ([1.0, 1.0, 2.0, 2.0], [3.0, 3.0, 1.0, 2.0]),
        ([5.0, 5.0, 5.0, 1.0], [1.0, 2.0, 3.0, 4.0]),
        ([2.0, 2.0, 1.0, 1.0, 3.0], [1.0, 2.0, 2.0, 2.0, 5.0]),
    ]
    tie_gap = max(
        abs(spearman(xs, ys) - direct_spearman(xs, ys)) for xs, ys in tie_fixtures
    )
    ok = linear == 1.0 and reversed_rank == -1.0 and monotone == 1.0 and tie_gap <= 1e-12
    _verdict(
        "correlation fixtures: perfect cases exact, ties match oracle",
        ok,
        f"linear {linear}, reversed {reversed_rank}, monotone {monotone}, "
        f"tie gap {tie_gap:.2e} (<= 1e-12)",
    )


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_a10_end_to_end_determinism(fixture_dataset, tmp_path):
    dataset = str(fixture_dataset.parent)
    flags = ["--fast-metrics", "--window-size", "1024", "--hop", "256"]
    outs = {}
    for name, workers in (("first", 1), ("second", 1), ("wide", 4)):
        out = tmp_path / name
        code = main(
            ["analyze", "--dataset", dataset, "--out", str(out), "--workers", str(workers)]
            + flags
        )
        assert code == 0
        outs[name] = _tree_bytes(out)
    rerun_same = outs["first"] == outs["second"]
    workers_same = outs["first"] == outs["wide"]

    from synth import write_fixture_dataset

    big_root = tmp_path / "train20"
    write_fixture_dataset(big_root, n_songs=20, seed=3, duration=0.05, n_channels=1)
    plan_dir = tmp_path / "plans"
    code = main(
        ["mute-plan", "--dataset", str(big_root), "--instrument", "drums", "--out", str(plan_dir)]
    )
    assert code == 0
    plan_files = sorted(plan_dir.iterdir())
    counts = [
        len(json.loads(p.read_text())["muted"]) for p in plan_files
    ]
    expected = [int(math.floor(r * 20 + 0.5)) for r in DEFAULT_RATIOS]
    sweep_ok = len(plan_files) == 10 and counts == expected

    _verdict(
        "end-to-end determinism and mute sweep",
        rerun_same and workers_same and sweep_ok,
        f"rerun identical={rerun_same}, workers 1 vs 4 identical={workers_same}, "
        f"plans {len(plan_files)}/10 with counts {counts}",
    )
