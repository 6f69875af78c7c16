import os
from pathlib import Path

import pytest

import monalg
from monalg import load_fixture, list_fixtures
from monalg.geometry import random_safe_points  # noqa: F401  (imported by the test modules)

# Children run from a temporary directory, where a relative PYTHONPATH such
# as "src" names nothing; put the directory holding this package first.
_PACKAGE_ROOT = str(Path(monalg.__file__).resolve().parent.parent)


def package_env() -> dict:
    """os.environ with the imported package's directory first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def bundles():
    return {name: load_fixture(name) for name in list_fixtures()}
