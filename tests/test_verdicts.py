"""Verdict census: each verdict with a real input that makes it fail.

A row is a wrong input built from an existing family, the stage it must
fail, and the reason the report must give.  Verdicts with a passing
fixture elsewhere in the suite are listed here once they have a failing
input as well.
"""

import contextlib
import io
import json
import re

import pytest

from cusp_induce import cli
from cusp_induce import hyperbolicity as hy
from cusp_induce import map_model as mm
from cusp_induce.cli import _DELTA_LADDER

# the unimodal 1 - 2|x|^2.3 declared at order 3.0 on both sides
MISDECLARED_ORDER = {
    "name": "unimodal 2.3 declared at order 3",
    "domain": [-1.0, 1.0],
    "delta": 0.05,
    "branches": [
        {"interval": [-1.0, 0.0], "expr": "1 - 2*abs(x)^2.3"},
        {"interval": [0.0, 1.0], "expr": "1 - 2*abs(x)^2.3"},
    ],
    "critical_points": [
        {"location": 0.0, "side": "-", "order": 3.0},
        {"location": 0.0, "side": "+", "order": 3.0},
    ],
}


def _pipeline(*args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["pipeline", "--m", "128", *args])
    return code, json.loads(buf.getvalue())


@pytest.mark.parametrize("args, stage, reason", [
    (("--config", "{config}"), "validate",
     r"ratio f in \[.*\] violates bound 100\.0"),
    (("--family", "chebyshev", "--delta-candidates", "0.9"), "hyperbolicity",
     r"image of the neighborhood at .* meets"),
    # p_max 5 leaves an unresolved measure of 0.098, over the 0.002 budget
    (("--family", "chebyshev", "--delta", "0.01", "--q0", "7", "--p-max",
      "5"), "summability", r"^variation fail, inducing times fail$"),
], ids=["nondegeneracy-order", "neighborhood-image", "summability"])
def test_pipeline_verdict_fails(tmp_path, args, stage, reason):
    config = tmp_path / "map.json"
    config.write_text(json.dumps(MISDECLARED_ORDER))
    code, doc = _pipeline(*(a.format(config=config) for a in args))
    assert code == 1
    assert doc["passed"] is False and doc["failed_stage"] == stage
    found = doc["stages"][stage]
    if stage == "validate":
        lines = found["failures"]
    elif stage == "summability":    # this stage has no diagnostics
        lines = [f"variation {found['verdict_variation']}, inducing times "
                 f"{found['verdict_inducing']}"]
    else:
        lines = found["diagnostics"].values()
    assert any(re.search(reason, line) for line in lines)


def test_choose_delta_fails_where_a_critical_orbit_hits_the_critical_set():
    # a = 1 + 5e-14: 0 -> 1 -> 1 - a, which lies within the hit tolerance
    # of 0, so no candidate on the ladder can bind
    with pytest.raises(hy.DeltaSelectionError) as err:
        hy.choose_delta(mm.unimodal_map(a=1.00000000000005), _DELTA_LADDER)
    reasons = err.value.diagnostics
    assert len(reasons) == len(_DELTA_LADDER)
    assert all(r.endswith("hits the critical set at step 2")
               for r in reasons.values())
