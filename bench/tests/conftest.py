import os
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)


@pytest.fixture
def keep_ospd_modules():
    """Put back the ``ospd`` modules other tests imported, after a test that
    makes the benchmark import the package afresh."""
    saved = {k: v for k, v in sys.modules.items()
             if k == "ospd" or k.startswith("ospd.")}
    yield
    for name in [k for k in sys.modules if k == "ospd" or k.startswith("ospd.")]:
        del sys.modules[name]
    sys.modules.update(saved)
