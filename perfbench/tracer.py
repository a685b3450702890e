"""Spans around the calls the benchmark process makes into each layer.

The tracer replaces a function with a wrapper at the place the package
looks it up (``separability.cli.oracle_separate``, ``scipy.linalg.cho_factor``
...), so it records exactly the calls the pipeline makes.  Each boundary
accumulates calls, busy time, self time (busy time minus the time of
wrapped calls nested inside it), failures, and counts computed from the
arguments and results.  Tracing needs ``--workers 1``: a worker process
would record into its own copy of the tracer.
"""

from __future__ import annotations

import resource
import time
from pathlib import Path

import numpy as np


class Boundary:
    def __init__(self):
        self.calls = 0
        self.fail = 0
        self.s = 0.0
        self.self_s = 0.0
        self.counts: dict[str, float] = {}

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


class Tracer:
    def __init__(self):
        self.boundaries: dict[str, Boundary] = {}
        self.covered_s = 0.0  # time inside outermost wrapped calls
        self._child_s: list[float] = []

    def wrap(self, owner, attr: str, name: str, on_return=None, before=None) -> None:
        """Replace ``owner.attr`` with a timed wrapper recorded as ``name``.

        ``before(boundary, args, kwargs)`` runs ahead of the call, even
        one that then raises; ``on_return(boundary, args, kwargs, result,
        before_value)`` derives counts from a call that returned.
        """
        fn = getattr(owner, attr)
        b = self.boundaries.setdefault(name, Boundary())

        def wrapper(*args, **kwargs):
            pre = before(b, args, kwargs) if before is not None else None
            self._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                b.fail += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                b.calls += 1
                b.s += dt
                b.self_s += dt - self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += dt
                else:
                    self.covered_s += dt
            if on_return is not None:
                on_return(b, args, kwargs, out, pre)
            return out

        setattr(owner, attr, wrapper)


def _maxrss_mb(*_) -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _cho_factor(b, args, kwargs):
    n = _arg(args, kwargs, 0, "a").shape[0]
    b.add("gflop", n**3 / 3.0 / 1e9)


def _load_song(b, args, kwargs, out, pre):
    b.add("bytes_read", sum(p.stat().st_size for p in Path(args[0]).glob("*.wav")))


def _stft(b, args, kwargs, out, pre):
    b.add("bytes_out", out.bins.nbytes)


def _compute_irm(b, args, kwargs, out, pre):
    b.add("mask_bytes", out.masks.nbytes)


def _oracle_separate(b, args, kwargs, out, pre):
    # Rise of the process's high-water mark during the call.
    b.counts["rss_delta_mb"] = max(b.counts.get("rss_delta_mb", 0.0), _maxrss_mb() - pre)


def _framewise_scores(b, args, kwargs, out, pre):
    references = args[0]
    config = _arg(args, kwargs, 2, "config")
    length = 1.0 if config is None else config.window_length
    hop = 1.0 if config is None else config.window_hop
    first = references[0]
    win = int(round(length * first.sample_rate))
    step = int(round(hop * first.sample_rate))
    n = first.n_samples
    tail = 0 if n < win else n - ((n - win) // step * step + win)
    windows = out[0].n_windows
    b.add("windows", windows)
    b.add("target_windows", windows * len(out))
    b.add("target_windows_scored", sum(int((~np.isnan(fr.sdr)).sum()) for fr in out))
    b.add("tail_samples_unscored", tail)


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the benchmark reports on."""
    import numpy.linalg
    import scipy.linalg

    import separability.cli as cli
    import separability.irm as irm
    import separability.metrics as metrics
    from separability.scores import ScoreTable

    w = tracer.wrap
    w(cli, "load_song", "dataset.load_song", _load_song)
    w(cli, "make_mixture", "dataset.make_mixture")
    w(cli, "oracle_separate", "irm.oracle_separate", _oracle_separate, _maxrss_mb)
    w(cli, "framewise_scores", "metrics.framewise_scores", _framewise_scores)
    w(irm, "stft", "stft.stft", _stft)
    w(irm, "istft", "stft.istft")
    w(irm, "compute_irm", "irm.compute_irm", _compute_irm)
    w(irm, "apply_masks", "irm.apply_masks")
    w(metrics, "fftconvolve", "signal.fftconvolve")
    w(metrics, "si_sdr", "metrics.si_sdr")
    w(scipy.linalg, "cho_factor", "lapack.cho_factor", before=_cho_factor)
    w(scipy.linalg, "cho_solve", "lapack.cho_solve")
    w(scipy.linalg, "toeplitz", "linalg.toeplitz")
    w(numpy.linalg, "lstsq", "lapack.lstsq")
    w(ScoreTable, "from_csv", "scores.from_csv")
    w(ScoreTable, "from_json", "scores.from_json")
    w(ScoreTable, "to_csv", "scores.to_csv")
    w(ScoreTable, "to_json", "scores.to_json")
    w(cli, "summary_to_csv", "scores.summary_to_csv")
    for fn in ("rank_songs", "select_subset", "correlate_tables", "plan_mutes"):
        w(cli, fn, f"analysis.{fn}")
    return tracer


def report(tracer: Tracer) -> dict:
    return {
        "covered_s": tracer.covered_s,
        "boundaries": {
            name: {"calls": b.calls, "fail": b.fail, "s": b.s, "self_s": b.self_s, **b.counts}
            for name, b in tracer.boundaries.items()
        },
    }
