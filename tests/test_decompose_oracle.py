"""Cross-checks of the Toeplitz/Cholesky decomposition against a dense solver.

The reference implementation in oracles.py builds the explicit
delayed-copy regressor matrix and solves by SVD, sharing nothing with
the package's FFT-correlation path.  The two must agree on components
and on all four derived metrics for a bank of frozen random fixtures.
"""

import numpy as np
import pytest

from separability import AudioClip, MetricConfig, ScoringReport, decompose, isr, sar, sdr, sir

from oracles import delayed_matrix, dense_decompose, dense_metrics

N = 2000

# 20 frozen fixtures covering J x L x channel-count combinations.
FIXTURES = [
    {"seed": seed, "j": 2 + seed % 2, "flen": (1, 32)[(seed // 2) % 2], "ch": 1 + (seed // 4) % 2}
    for seed in range(20)
]


def _make_case(seed: int, j: int, ch: int):
    gen = np.random.Generator(np.random.PCG64(seed))
    refs = np.stack([gen.normal(0.0, 1.0, (ch, N)) for _ in range(j)])
    # Estimate: scaled target, a slightly delayed target copy, a bleed of
    # the last source, and independent noise.  Exercises every component.
    est = 0.9 * refs[0] + 0.25 * refs[-1] + gen.normal(0.0, 0.15, (ch, N))
    est[:, 2:] += 0.3 * refs[0][:, :-2]
    return refs, est


@pytest.mark.parametrize("fx", FIXTURES, ids=lambda fx: f"seed{fx['seed']}-J{fx['j']}-L{fx['flen']}-C{fx['ch']}")
def test_components_match_dense_oracle(fx):
    refs, est = _make_case(fx["seed"], fx["j"], fx["ch"])
    clips = [AudioClip(r, 44100) for r in refs]
    comp = decompose(clips, AudioClip(est, 44100), 0, MetricConfig(filter_length=fx["flen"]))
    d_spat, d_interf, d_artif = dense_decompose(refs, est, 0, fx["flen"])

    scale = float(np.max(np.abs(est)))
    assert np.max(np.abs(comp.e_spat - d_spat)) < 1e-6 * scale
    assert np.max(np.abs(comp.e_interf - d_interf)) < 1e-6 * scale
    assert np.max(np.abs(comp.e_artif - d_artif)) < 1e-6 * scale


@pytest.mark.parametrize("fx", FIXTURES, ids=lambda fx: f"seed{fx['seed']}-J{fx['j']}-L{fx['flen']}-C{fx['ch']}")
def test_metrics_match_dense_oracle(fx):
    refs, est = _make_case(fx["seed"], fx["j"], fx["ch"])
    clips = [AudioClip(r, 44100) for r in refs]
    comp = decompose(clips, AudioClip(est, 44100), 0, MetricConfig(filter_length=fx["flen"]))
    expected = dense_metrics(refs, est, 0, fx["flen"])

    target = clips[0]
    assert sdr(comp, target) == pytest.approx(expected["sdr"], abs=0.01)
    assert isr(comp, target) == pytest.approx(expected["isr"], abs=0.01)
    assert sir(comp, target) == pytest.approx(expected["sir"], abs=0.01)
    assert sar(comp, target) == pytest.approx(expected["sar"], abs=0.01)


@pytest.mark.parametrize("fx", FIXTURES[:8], ids=lambda fx: f"seed{fx['seed']}")
def test_partition_and_orthogonality(fx):
    refs, est = _make_case(fx["seed"], fx["j"], fx["ch"])
    clips = [AudioClip(r, 44100) for r in refs]
    comp = decompose(clips, AudioClip(est, 44100), 0, MetricConfig(filter_length=fx["flen"]))

    total = N + fx["flen"] - 1
    s_pad = np.zeros((fx["ch"], total))
    s_pad[:, :N] = refs[0]
    e_pad = np.zeros((fx["ch"], total))
    e_pad[:, :N] = est
    assert np.max(np.abs(s_pad + comp.e_spat + comp.e_interf + comp.e_artif - e_pad)) < 1e-9

    # The artifact term is the projection residual, so it must be
    # orthogonal to every delayed copy of every reference channel.
    a = delayed_matrix(refs.reshape(-1, N), fx["flen"])
    for channel in range(fx["ch"]):
        inner = a.T @ comp.e_artif[channel]
        col_norms = np.linalg.norm(a, axis=0)
        resid_norm = np.linalg.norm(comp.e_artif[channel])
        rel = np.abs(inner) / (col_norms * resid_norm + 1e-30)
        assert np.max(rel) < 1e-6


def test_independent_noise_lands_in_artifacts():
    # With d = J * channels * L regressor columns, projecting white noise
    # removes about d/N of its energy; the artifact term keeps the rest.
    gen = np.random.Generator(np.random.PCG64(99))
    refs = np.stack([gen.normal(0.0, 1.0, (1, N)) for _ in range(2)])
    noise = gen.normal(0.0, 1.0, (1, N))
    est = refs[0] + noise
    flen = 32
    clips = [AudioClip(r, 44100) for r in refs]
    comp = decompose(clips, AudioClip(est, 44100), 0, MetricConfig(filter_length=flen))

    kept = float(np.sum(comp.e_artif**2) / np.sum(noise**2))
    expected = 1.0 - (2 * flen) / N
    assert kept == pytest.approx(expected, abs=0.05)


def test_ridge_path_on_duplicated_regressors():
    gen = np.random.Generator(np.random.PCG64(7))
    base = gen.normal(0.0, 1.0, (1, N))
    refs = [AudioClip(base, 44100), AudioClip(base.copy(), 44100)]
    est = AudioClip(base + gen.normal(0.0, 0.1, (1, N)), 44100)
    report = ScoringReport()
    comp = decompose(refs, est, 0, MetricConfig(filter_length=4), report)
    assert report.ridge + report.lstsq > 0
    # Even on the regularized path the partition identity must survive.
    s_pad = np.zeros_like(comp.e_spat)
    s_pad[:, :N] = base
    e_pad = np.zeros_like(comp.e_spat)
    e_pad[:, :N] = est.samples
    assert np.max(np.abs(s_pad + comp.e_spat + comp.e_interf + comp.e_artif - e_pad)) < 1e-9


def test_silent_reference_excluded_from_regressors():
    gen = np.random.Generator(np.random.PCG64(13))
    live = gen.normal(0.0, 1.0, (1, N))
    silent = np.zeros((1, N))
    est = AudioClip(live + gen.normal(0.0, 0.1, (1, N)), 44100)
    report = ScoringReport()
    comp = decompose(
        [AudioClip(live, 44100), AudioClip(silent, 44100)],
        est,
        0,
        MetricConfig(filter_length=4),
        report,
    )
    assert report.ridge == report.lstsq == 0
    # A silent co-reference spans nothing: its interference share is zero.
    d_spat, d_interf, d_artif = dense_decompose(
        np.stack([live, silent]), est.samples, 0, 4
    )
    assert np.max(np.abs(comp.e_interf - d_interf)) < 1e-6
