"""Command-line interface: exit codes, JSON output, artifacts, determinism."""

import io
import contextlib
import filecmp
import json
import os
import subprocess
import sys

import pytest

from cusp_induce import cli
from cusp_induce import distortion as di
from cusp_induce import expr as ex
from cusp_induce.map_model import family_config


def run(*args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(args))
    return code, buf.getvalue()


def run_json(*args):
    code, out = run(*args)
    return code, json.loads(out)


def test_validate_passes_on_builtin_family():
    code, doc = run_json("validate", "--family", "chebyshev")
    assert code == 0
    assert doc["nondegeneracy"]["passed"] is True
    assert doc["map"] == "chebyshev"


def test_validate_unknown_family_is_usage_error():
    code, doc = run_json("validate", "--family", "nosuch")
    assert code == 2
    assert doc["error"]["kind"] == "MapConfigError"


def test_validate_unknown_param_is_usage_error():
    code, doc = run_json("validate", "--family", "chebyshev",
                         "--param", "bogus=1")
    assert code == 2


def test_validate_missing_config_file():
    code, doc = run_json("validate", "--config", "/nonexistent/map.json")
    assert code == 2


def test_config_and_family_are_mutually_exclusive():
    code, doc = run_json("validate", "--family", "chebyshev",
                         "--config", "x.json")
    assert code == 2
    assert "mutually exclusive" in doc["error"]["message"]


def test_config_and_param_are_mutually_exclusive(tmp_path):
    path = tmp_path / "cheb.json"
    path.write_text(json.dumps(family_config("chebyshev")))
    code, doc = run_json("validate", "--config", str(path), "--param", "a=1")
    assert code == 2
    assert "mutually exclusive" in doc["error"]["message"]


def test_delta_applies_to_a_config_map_as_to_a_family_map(tmp_path):
    path = tmp_path / "cheb.json"
    path.write_text(json.dumps(family_config("chebyshev")))
    code, out = run("validate", "--config", str(path), "--delta", "0.01")
    assert code == 0
    assert out != run("validate", "--config", str(path))[1]
    assert (code, out) == run("validate", "--family", "chebyshev",
                              "--delta", "0.01")


def test_orbit_writes_artifacts(tmp_path):
    out = str(tmp_path / "orbit_run")
    code, doc = run_json("orbit", "--family", "chebyshev", "--n", "25",
                         "--out", out)
    assert code == 0
    assert os.path.exists(os.path.join(out, "orbit.json"))
    assert os.path.exists(os.path.join(out, "orbit_0.csv"))
    assert os.path.exists(os.path.join(out, "orbit_1.csv"))


def test_star_check_passes_and_fails():
    code, doc = run_json("star-check", "--family", "chebyshev")
    assert code == 0
    assert doc["passed"] is True
    code, doc = run_json("star-check", "--family", "unimodal",
                         "--param", "a=1.76")
    assert code == 1
    assert doc["passed"] is False


def test_star_check_fails_an_orbit_that_hits_the_critical_set():
    # the critical orbit lands within 1e-13 of the turning point at n = 2,
    # long before the horizon, so the tail window of the record is empty
    code, doc = run_json("star-check", "--family", "unimodal",
                         "--param", "a=1.00000000000005")
    assert code == 1
    assert doc["passed"] is False
    assert {p["star_verdict"] for p in doc["points"].values()} == {"fail"}


def test_hyperbolicity_chooses_scales():
    code, doc = run_json("hyperbolicity", "--family", "chebyshev")
    assert code == 0
    assert doc["delta"] == 0.01
    assert doc["report"]["q0"] == 7
    assert doc["report"]["h_delta"] == 6


def test_hyperbolicity_unreachable_margin_fails_with_diagnostics():
    code, doc = run_json("hyperbolicity", "--family", "chebyshev",
                         "--margin", "1e9")
    assert code == 1
    assert doc["diagnostics"]


def test_hyperbolicity_rejects_fixed_singular_point():
    code, _doc = run_json("hyperbolicity", "--family", "singular_unimodal")
    assert code == 1


def test_induce_writes_partition(tmp_path):
    out = str(tmp_path / "induce_run")
    code, doc = run_json("induce", "--family", "lorenz", "--delta", "0.2",
                         "--q0", "5", "--out", out)
    assert code == 0
    assert doc["partition"]["n_branches"] == 40
    assert doc["partition"]["min_inf_df"] >= 2.0
    assert os.path.exists(os.path.join(out, "partition.csv"))


def test_summability_verdict():
    code, doc = run_json("summability", "--family", "lorenz",
                         "--delta", "0.2", "--q0", "5")
    assert code == 0
    assert doc["summability"]["passed"] is True


def test_density_report():
    code, doc = run_json("density", "--family", "lorenz", "--delta", "0.2",
                         "--q0", "5", "--m", "256")
    assert code == 0
    d = doc["density"]
    assert d["m"] == 256
    assert d["invariance_residual"] < 0.05
    assert d["density_min"] >= 0


def test_scan_rows_in_input_order():
    code, doc = run_json("scan", "--family", "unimodal",
                         "--grid", "a=1.76,2.0")
    assert code == 0
    rows = doc["rows"]
    assert [r["params"]["a"] for r in rows] == [1.76, 2.0]
    assert rows[0]["star_verdict"] == "fail"
    assert rows[1]["star_verdict"] == "summable-so-far"


def test_scan_csv_format(capsys):
    code, out = run("scan", "--family", "unimodal", "--grid", "a=2.0",
                    "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("family,a,")
    assert len(lines) == 2


def test_selftest_passes():
    code, doc = run_json("selftest")
    assert code == 0 and doc["passed"] is True
    jets = doc["checks"]["jets_vs_finite_differences"]
    assert jets["passed"] is True and jets["worst_rel_error"] < 1e-4
    assert doc["checks"]["variation_exact"]["passed"] is True


def test_selftest_fails_on_a_variation_rule_off_its_closed_form(monkeypatch):
    batched = di._batched_variation

    def doubled(m, branches, stats=None):
        values, errors = batched(m, branches, stats)
        return 2.0 * values, errors

    monkeypatch.setattr(di, "_batched_variation", doubled)
    code, doc = run_json("selftest")
    assert code == 1 and doc["passed"] is False
    assert doc["checks"]["variation_exact"]["passed"] is False


def test_selftest_fails_on_a_product_rule_without_its_cross_term(
        monkeypatch):
    mul_rule = ex._mul_rule

    def without_cross_term(u, v, k, check):
        # D2(uv) = u''v + 2u'v' + uv'' with the 2u'v' term dropped
        if k < 2:
            return mul_rule(u, v, k, check)
        w, d1, _ = mul_rule(u, v, k, check)
        return w, d1, ex._plus(ex._times(u[2], v[0]), ex._times(u[0], v[2]))

    monkeypatch.setattr(ex, "_mul_rule", without_cross_term)
    code, doc = run_json("selftest")
    assert code == 1 and doc["passed"] is False
    jets = doc["checks"]["jets_vs_finite_differences"]
    assert jets["passed"] is False and jets["worst_rel_error"] > 1e-2


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        run("frobnicate")


def test_pipeline_artifacts_and_determinism(tmp_path):
    args = ("pipeline", "--family", "lorenz", "--m", "256")
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    code1, doc1 = run_json(*args, "--out", out1)
    code2, doc2 = run_json(*args, "--out", out2)
    assert code1 == code2 == 0
    assert doc1 == doc2
    assert doc1["passed"] is True
    names = sorted(os.listdir(out1))
    assert sorted(os.listdir(out2)) == names
    assert "pipeline.json" in names
    assert "partition.csv" in names
    assert "density.csv" in names
    match, mismatch, errors = filecmp.cmpfiles(out1, out2, names,
                                               shallow=False)
    assert mismatch == [] and errors == []
    # lorenz has no critical point of order > 1: three lemma checks have
    # nothing to check and say so, in stdout and in pipeline.json alike
    with open(os.path.join(out1, "pipeline.json")) as fh:
        saved = json.load(fh)
    for doc in (doc1, saved):
        lemmas = doc["stages"]["lemmas"]
        assert lemmas["checks"] == {"segment_ratio": "not-applicable",
                                    "distortion": "not-applicable",
                                    "sandwich": "not-applicable",
                                    "expansion": "passed"}
        assert lemmas["passed"] is True


def test_progress_log_leaves_stdout_and_artifacts_unchanged(tmp_path):
    runs = []
    for level in (None, "info"):
        env = dict(os.environ)
        env.pop("CUSP_INDUCE_LOG", None)
        if level:
            env["CUSP_INDUCE_LOG"] = level
        out = str(tmp_path / f"log-{level}")
        proc = subprocess.run(
            [sys.executable, "-m", "cusp_induce.cli", "pipeline",
             "--family", "lorenz", "--m", "256", "--out", out],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        runs.append((proc, out))
    (quiet, out1), (logged, out2) = runs
    for stage in ("choose_delta:", "build_partition:", "scalar end jets",
                  "verify_binding_lemmas:", "ulam_matrix:",
                  "stationary_density:"):
        assert stage not in quiet.stderr
        assert stage in logged.stderr
    assert logged.stdout == quiet.stdout
    names = sorted(os.listdir(out1))
    assert sorted(os.listdir(out2)) == names
    match, mismatch, errors = filecmp.cmpfiles(out1, out2, names,
                                               shallow=False)
    assert mismatch == [] and errors == []


def test_pipeline_reports_failed_stage():
    code, doc = run_json("pipeline", "--family", "singular_unimodal",
                         "--m", "128")
    assert code == 1
    assert doc["failed_stage"] == "star"


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cusp_induce.cli", "validate",
         "--family", "lorenz"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["nondegeneracy"]["passed"] is True


@pytest.mark.parametrize("flag", [("--jobs", "2"), ("--format", "csv")])
def test_scan_only_flags_rejected_elsewhere(flag):
    with pytest.raises(SystemExit) as exc:
        run("pipeline", "--family", "lorenz", *flag)
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["validate", "orbit", "star-check",
                                     "scan"])
def test_seed_rejected_where_unused(command):
    with pytest.raises(SystemExit) as exc:
        run(command, "--family", "chebyshev", "--seed", "1")
    assert exc.value.code == 2
