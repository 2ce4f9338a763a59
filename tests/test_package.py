import importlib
import pkgutil
import tomllib
from pathlib import Path

import pytest

import fftsr

MODULES = ["fftsr"] + [f"fftsr.{m.name}" for m in pkgutil.iter_modules(fftsr.__path__)]
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    for export in getattr(mod, "__all__", ()):
        assert getattr(mod, export, None) is not None, f"{name}.{export}"


def test_removed_names_are_not_exported():
    gone = {"fft1d", "amax", "exp", "luma", "resample_bilinear", "SuperResolver", "ModelConfig"}
    for name in MODULES:
        assert not gone & set(getattr(importlib.import_module(name), "__all__", ())), name


def test_pyproject_names_only_what_exists():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for target in project.get("scripts", {}).values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr))
    for requirement in project["dependencies"]:
        importlib.import_module(requirement.split(">")[0].split("=")[0].strip())
