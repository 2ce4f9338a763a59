import numpy as np
import pytest

from fftsr.corpus import make_texture_corpus
from fftsr.errors import ShapeError


def test_same_seed_same_images():
    a = make_texture_corpus(5, 32, seed=7)
    b = make_texture_corpus(5, 32, seed=7)
    assert all(np.array_equal(x.data, y.data) for x, y in zip(a, b))


def test_other_seed_other_images():
    a = make_texture_corpus(3, 32, seed=0)
    b = make_texture_corpus(3, 32, seed=1)
    assert not any(np.array_equal(x.data, y.data) for x, y in zip(a, b))


def test_prefix_is_stable_across_counts():
    # each image has its own spawned stream, so asking for more images
    # does not change the first ones
    short = make_texture_corpus(2, 32, seed=3)
    long = make_texture_corpus(6, 32, seed=3)
    assert all(np.array_equal(x.data, y.data) for x, y in zip(short, long))


def test_shape_range_and_dtype():
    imgs = make_texture_corpus(4, 20, seed=0)
    assert len(imgs) == 4
    for img in imgs:
        assert img.data.shape == (20, 20, 3) and img.data.dtype == np.float32
        assert img.data.min() >= 0.0 and img.data.max() <= 1.0
        assert img.data.std() > 0.0


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"size": 0}, "size"),
        ({"size": True}, "size"),
        ({"size": 8.0}, "size"),
        ({"count": -1}, "count"),
        ({"count": True}, "count"),
        ({"seed": -1}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"seed": True}, "seed"),
        ({"size": np.int64(0)}, "size"),
    ],
    ids=[
        "size_0", "size_bool", "size_float", "count_negative", "count_bool", "seed_negative", "seed_float",
        "seed_bool", "size_numpy_0",
    ],
)
def test_bad_arguments_fail_before_any_compute(kwargs, name):
    with pytest.raises(ShapeError, match=f"{name} must be an integer"):
        make_texture_corpus(**{"count": 2, "size": 8, "seed": 0, **kwargs})


@pytest.mark.parametrize("name", ["count", "size", "seed"])
def test_numpy_integer_arguments_are_integers(name):
    args = {"count": 2, "size": 8, "seed": 3}
    got = make_texture_corpus(**(args | {name: np.int64(args[name])}))
    assert all(np.array_equal(a.data, b.data) for a, b in zip(got, make_texture_corpus(**args), strict=True))


def test_zero_textures_is_an_empty_corpus():
    assert make_texture_corpus(0, 8, seed=0) == []
