"""The dense projection solve against the copying chain of oracles.py.

_dense_solve factors the transpose of its exactly symmetric Gram in
place.  It must return the bits, and count the ridge and lstsq last
resorts, of a chain that hands cho_factor the C-ordered Gram to copy:
on a healthy Gram, on an exactly singular one (a duplicated channel,
which takes the ridge), and with every Cholesky refused (lstsq).
"""

import numpy as np
import pytest
import scipy.linalg

from separability import ScoringReport
from separability.metrics import _dense_solve, _full_length_lags, _gram

from oracles import copying_dense_solve, entrywise_gram


def regressors(case: str) -> np.ndarray:
    gen = np.random.Generator(np.random.PCG64(2))
    x = gen.normal(size=(2, 3000))
    x[:, 1:] += 0.6 * x[:, :-1]
    x[1] += 0.4 * x[0]
    return np.stack([x[0], x[1], x[0]]) if case == "singular" else x


def refuse(*args, **kwargs):
    raise scipy.linalg.LinAlgError("refused")


@pytest.mark.parametrize("flen", [1, 512])
@pytest.mark.parametrize(
    "case, counts", [("healthy", (0, 0)), ("singular", (1, 0)), ("refused", (0, 1))]
)
def test_dense_solve_matches_the_copying_chain(flen, case, counts, monkeypatch):
    lags = _full_length_lags(regressors(case), flen)
    gram = entrywise_gram(lags)
    rhs = np.random.Generator(np.random.PCG64(flen)).normal(size=(gram.shape[0], 2))
    if case == "refused":
        monkeypatch.setattr(scipy.linalg, "cho_factor", refuse)
    want, ridge, lstsq = copying_dense_solve(gram, rhs)
    assert (ridge, lstsq) == counts

    first_call = []
    factorize = scipy.linalg.cho_factor

    def recording(a, *args, **kwargs):
        if not first_call:
            first_call.append((a.flags.f_contiguous, kwargs.get("overwrite_a")))
        return factorize(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", recording)
    report = ScoringReport()
    got = _dense_solve(lags, rhs, report)
    assert got.tobytes() == want.tobytes()
    assert (report.ridge, report.lstsq, report.dense_fallback) == (*counts, 0)
    assert first_call == [(True, True)]


@pytest.mark.parametrize("flen", [1, 25, 512])
def test_gram_is_the_exactly_symmetric_entrywise_gram(flen):
    # Block-FFT lags need not have an exactly symmetric lags[0].
    lags = np.random.Generator(np.random.PCG64(flen)).normal(size=(flen, 3, 3))
    gram = _gram(lags)
    assert gram.tobytes() == entrywise_gram(lags).tobytes()
    assert np.array_equal(gram, gram.T)
