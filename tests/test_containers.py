"""The array containers AudioClip, Spectrogram and MaskSet share one rule.

Each converts its array to its dtype, refuses the wrong rank by naming
the layout it expects, stores it C-contiguous and read-only, and copies
only an input that is not already so.
"""

import re

import numpy as np
import pytest

from separability import AudioClip, InvalidInputError, MaskSet, Spectrogram, StftConfig

CFG = StftConfig(8, 2)  # 5 frequency bins
SR = 8000

# name -> (constructor, valid shape, dtype, expected layout, field)
CONTAINERS = {
    "AudioClip": (
        lambda a: AudioClip(a, SR),
        (2, 16),
        np.float64,
        "samples must be 1-D or (channels, samples)",
        "samples",
    ),
    "Spectrogram": (
        lambda a: Spectrogram(a, CFG, 10, SR),
        (2, 3, CFG.n_bins),
        np.complex128,
        "bins must be (channels, frames, freqs)",
        "bins",
    ),
    "MaskSet": (
        lambda a: MaskSet(a, CFG, SR),
        (2, 1, 3, CFG.n_bins),
        np.float64,
        "masks must be (sources, channels, frames, freqs)",
        "masks",
    ),
}


@pytest.fixture(params=list(CONTAINERS))
def container(request):
    return CONTAINERS[request.param]


def _values(shape, dtype):
    gen = np.random.Generator(np.random.PCG64(5))
    values = gen.uniform(0.0, 1.0, shape)
    return values + 1j * values if dtype == np.complex128 else values


def test_the_wrong_rank_is_refused_naming_the_layout(container):
    build, shape, dtype, layout, _ = container
    bad = np.zeros((1, *shape), dtype)
    message = f"{layout}, got shape {bad.shape}"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        build(bad)


def test_a_non_contiguous_input_is_copied_into_a_read_only_c_array(container):
    build, shape, dtype, _, field = container
    given = np.asfortranarray(_values(shape, dtype))
    stored = getattr(build(given), field)
    assert stored.flags.c_contiguous and not stored.flags.writeable
    assert stored.dtype == dtype and np.array_equal(stored, given)
    assert not np.shares_memory(stored, given) and given.flags.writeable


def test_a_contiguous_input_of_the_right_dtype_is_kept(container):
    build, shape, dtype, _, field = container
    given = _values(shape, dtype)
    stored = getattr(build(given), field)
    assert np.shares_memory(stored, given)
    assert stored.flags.c_contiguous and not stored.flags.writeable


def test_another_dtype_is_converted(container):
    build, shape, dtype, _, field = container
    given = _values(shape, dtype).real.astype(np.float32)
    stored = getattr(build(given), field)
    assert stored.dtype == dtype and np.array_equal(stored, given)


def test_a_mono_clip_keeps_its_samples_as_one_channel():
    given = _values((16,), np.float64)
    clip = AudioClip(given, SR)
    assert clip.samples.shape == (1, 16) and np.shares_memory(clip.samples, given)
