import json

import numpy as np
import pytest

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from pklab import cli, suites
from pklab import projective as pj
from pklab.cli import main
from pklab.curves import integrate_geodesic_bundle
from pklab.jets import JetDomainError

FAST_CHECKS = "--checks=einstein,rank"


def run(*argv):
    return main(list(argv))


def test_preset_run_passes_and_writes_valid_json(tmp_path):
    out = tmp_path / "report.json"
    code = run(
        "run", "--family", "real-liouville", "--preset", "einstein-lambda1",
        "--checks", "einstein,rank,ricci-diff", "--points", "6", "--json", str(out),
    )
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["summary"]["failed"] == 0
    assert rep["config"]["preset"] == "einstein-lambda1"
    if jsonschema is not None:
        import pklab

        schema_path = (
            pytest.importorskip("pathlib").Path(pklab.__file__).parent
            / "schema" / "report.schema.json"
        )
        jsonschema.validate(rep, json.loads(schema_path.read_text()))


def test_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["run", "--family", "dim-d2-2", "--checks", "flatness,rank",
            "--points", "5", "--seed", "3"]
    assert run(*args, "--json", str(a)) == 0
    assert run(*args, "--json", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.json"
    assert run("run", "--family", "dim-d2-2", "--checks", "flatness,rank",
               "--points", "5", "--seed", "4", "--json", str(c)) == 0
    assert a.read_bytes() != c.read_bytes()


def test_unknown_family_is_config_error(capsys):
    assert run("run", "--family", "nope", "--checks", "rank") == 2
    assert "unknown family" in capsys.readouterr().err


def test_unknown_check_is_config_error(capsys):
    assert run("run", "--family", "dim-d2-2", "--checks", "curvatura") == 2
    assert "unknown check" in capsys.readouterr().err


def test_bad_tolerance_is_config_error():
    assert run("run", "--family", "dim-d2-2", "--checks", "rank",
               "--tol", "rank/dimension=-1") == 2
    assert run("run", "--family", "dim-d2-2", "--checks", "rank",
               "--tol", "rank/dimension=abc") == 2


def test_unknown_tolerance_name_is_config_error(capsys, monkeypatch):
    def not_called(*args, **kwargs):
        raise AssertionError("run_suite called with a rejected request")

    monkeypatch.setattr(cli, "run_suite", not_called)
    assert run("run", "--family", "dim-d2-2", "--checks", "flatness",
               "--tol", "flatness/riemman=1e-30") == 2
    assert "did you mean 'flatness/riemann'" in capsys.readouterr().err


def test_evaluation_error_fails_the_check_not_the_config(monkeypatch, capsys):
    def outside(geo, i):
        raise JetDomainError("outside the domain")

    monkeypatch.setattr(pj, "eigen_gradient_residual", outside)
    assert run("run", "--family", "dim-d2-2", "--checks", "benenti", "--points", "3") == 1
    out = capsys.readouterr()
    assert "config error" not in out.err
    assert "eval-error:JetDomainError" in out.out


def test_programming_error_propagates(monkeypatch):
    def bug(geo, i):
        raise ValueError("bug in a residual")

    monkeypatch.setattr(pj, "benenti_residual", bug)
    with pytest.raises(ValueError, match="bug in a residual"):
        run("run", "--family", "dim-d2-2", "--checks", "benenti", "--points", "3")


def test_preset_with_params_is_config_error():
    assert run("run", "--family", "real-liouville", "--preset", "einstein-lambda1",
               "--param", "rho=x1", "--checks", "rank") == 2


def test_bad_box_is_config_error():
    assert run("run", "--family", "dim-d2-2", "--checks", "rank",
               "--box", "0:1,0:1") == 2


def test_unknown_param_is_config_error(capsys):
    assert run("run", "--family", "dim-d2-2", "--checks", "rank",
               "--param", "mu=x2") == 2
    assert "no parameter" in capsys.readouterr().err


def test_infeasible_parameters_exit_three(capsys):
    # overlapping eigenvalue ranges: rho = x1 and sigma = x2 on the same interval
    code = run("run", "--family", "real-liouville", "--checks", "rank",
               "--box", "1:2,1:2,0:1,0:1")
    assert code == 3
    assert "constructor rejected" in capsys.readouterr().err


@pytest.mark.parametrize("param, code, message", [
    ("rho=sqrt(x1-2.5)", 3, "constraint 'rho' is undefined on the box"),  # sqrt of x1 < 2.5
    ("rho=exp(800*x1)-exp(800*x1)+x1", 3, "constraint 'rho' is not finite on the box"),  # inf - inf
    ("rho=x1^1e400", 2, "number '1e400' is not finite"),
], ids=["domain-error", "not-finite", "literal-overflow"])
def test_unusable_profile_is_rejected_before_any_check(capsys, param, code, message):
    assert run("run", "--family", "real-liouville", "--param", param,
               "--checks", "parakahler") == code
    assert message in capsys.readouterr().err


def test_failing_check_exits_one(tmp_path):
    code = run("run", "--family", "dim-d2-2", "--checks", "rank",
               "--tol", "rank/dimension=1e-30", "--points", "4")
    assert code == 0  # the residual is exactly zero, still below any tolerance
    code = run("run", "--family", "dim-d2-2", "--checks", "benenti",
               "--tol", "benenti/equation=1e-30", "--points", "4")
    assert code == 1


def test_expression_parameters_build_valid_family():
    code = run("run", "--family", "real-liouville",
               "--param", "rho=x1^2", "--param", "sigma=2*x2",
               "--checks", "rank,benenti", "--points", "5")
    assert code == 0


def test_csv_export(tmp_path):
    out = tmp_path / "curve.csv"
    code = run("run", "--family", "dim-d2-2", "--checks", "rank",
               "--points", "4", "--csv", str(out))
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "t,x1,x2,x3,x4,v1,v2,v3,v4,residual"


def test_csv_curve_is_the_geodesic_checks_first_curve(tmp_path, monkeypatch):
    bundles = []

    def recording(*args):
        paths = integrate_geodesic_bundle(*args)
        bundles.append(paths)
        return paths

    monkeypatch.setattr(suites, "integrate_geodesic_bundle", recording)
    out = tmp_path / "curve.csv"
    run("run", "--family", "dim-d1", "--checks", "geodesic", "--seed", "4",
        "--points", "2", "--csv", str(out))
    (checked,) = bundles
    rows = np.loadtxt(out, delimiter=",", skiprows=1, usecols=range(9))
    assert rows.shape == (len(checked[0]), 9)
    assert np.allclose(rows[:, 1:5], checked[0].positions, rtol=1e-11, atol=0.0)
    assert np.allclose(rows[:, 5:9], checked[0].velocities, rtol=1e-11, atol=1e-13)


def test_demo_einstein(tmp_path, capsys):
    out = tmp_path / "demo.json"
    code = run("demo-einstein", "--points", "6", "--json", str(out))
    assert code == 0
    rep = json.loads(out.read_text())
    by_name = {c["name"]: c for c in rep["checks"]}
    corner = by_name["family-einstein/alpha=2.0-beta=1.0"]
    assert corner["passed"] and "8" in corner["identity"]
    ricci_flat_corner = by_name["family-einstein/alpha=0.0-beta=1.0"]
    assert ricci_flat_corner["passed"] and "0" in ricci_flat_corner["identity"]
    origin = by_name["family-einstein/alpha=0.0-beta=0.0"]
    assert "skipped-origin" in origin["flags"]
