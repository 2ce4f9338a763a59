import importlib
import pkgutil
import re
import tomllib
from pathlib import Path

import numpy as np
import pytest

import fftsr
from fftsr import image, tensor

MODULES = ["fftsr"] + [f"fftsr.{m.name}" for m in pkgutil.iter_modules(fftsr.__path__)]
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    for export in getattr(mod, "__all__", ()):
        assert getattr(mod, export, None) is not None, f"{name}.{export}"


def test_removed_names_are_not_exported():
    gone = {
        "fft1d", "amax", "exp", "luma", "resample_bilinear", "resample_nchw", "SuperResolver", "ModelConfig",
        "narrow_channels", "pow",
    }
    for name in MODULES:
        assert not gone & set(getattr(importlib.import_module(name), "__all__", ())), name


def test_pyproject_names_only_what_exists():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for target in project.get("scripts", {}).values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr))
    for requirement in project["dependencies"]:
        importlib.import_module(requirement.split(">")[0].split("=")[0].strip())


def release(version: str) -> tuple[int, ...]:
    """Leading numeric components of a version: "2.1.0rc1" -> (2, 1, 0)."""
    return tuple(int(part) for part in re.match(r"\d+(\.\d+)*", version).group().split("."))


def test_installed_numpy_meets_the_floor():
    # the spectral transforms pass out= to np.fft, which numpy takes from 2.0 on
    deps = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    (floor,) = [dep.partition(">=")[2] for dep in deps if dep.startswith("numpy")]
    assert release(floor) >= (2, 0)
    assert release(np.__version__) >= release(floor)


# each cache with a builder of one distinct entry per size n >= 2
MATRIX_CACHES = {
    "image._axis_matrix": (image._axis_matrix, lambda n: image._axis_matrix(n, 2 * n)),
    "tensor._filter_matrix": (
        tensor._filter_matrix,
        lambda n: tensor._filter_matrix(n, (0.25, 0.5, 0.25), np.dtype(np.float32)),
    ),
}


@pytest.mark.parametrize("name", MATRIX_CACHES)
def test_matrix_caches_are_bounded_and_read_only(name):
    cached, build = MATRIX_CACHES[name]
    cached.cache_clear()
    maxsize = cached.cache_info().maxsize
    oldest, second = build(2), build(3)
    for n in range(4, maxsize + 3):  # maxsize + 1 distinct sizes in all
        build(n)
    assert cached.cache_info().currsize == maxsize
    assert build(3) is second
    assert build(2) is not oldest
    with pytest.raises(ValueError):
        oldest[0, 0] = 1.0
