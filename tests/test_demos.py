"""The demos that fix their scales with choose_delta run to the end."""

import contextlib
import io
import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("name", ["03_build_partition.py",
                                  "05_density_estimation.py"])
def test_demo_runs(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    assert "partition" in out.getvalue()
