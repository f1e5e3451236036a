import json
import re
from pathlib import Path

import numpy as np
import pytest

from sparseoc.cli import (RunConfig, ConfigError, load_config, main,
                          cmd_export_matrices)


def _write_config(path, **kwargs):
    cfg = {"example": "constructed", "level": 3, "solver": "ihadmm",
           "tol": 1e-6, "sigma": 0.125}
    cfg.update(kwargs)
    path.write_text(json.dumps(cfg))
    return path


def test_config_round_trip():
    cfg = RunConfig(example="stadler", level=5, levels=[3, 4],
                    solver="two_phase", solvers=["ihadmm", "apg"],
                    tol=1e-7, sigma=0.2, reference_level=8)
    assert RunConfig.from_dict(cfg.to_dict()) == cfg


def test_readme_example_config_loads():
    # the documented schema stays in step with RunConfig's keys
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^Example config:\s*```json\n(.*?)^```", readme,
                      re.S | re.M)
    assert block is not None
    data = json.loads(block.group(1))
    assert RunConfig.from_dict(data).to_dict() == {**RunConfig().to_dict(),
                                                   **data}


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"example": "constructed", "bogus": 1}))
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        RunConfig(example="wrong").validate()
    with pytest.raises(ConfigError):
        RunConfig(solver="newton").validate()
    with pytest.raises(ConfigError):
        RunConfig(level=0).validate()
    with pytest.raises(ConfigError):
        RunConfig(levels=[4, 3]).validate()
    with pytest.raises(ConfigError):
        RunConfig(tol=-1.0).validate()


def test_solve_bad_example_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", example="bogus")
    assert main(["solve", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: unknown example 'bogus'"]


@pytest.mark.parametrize("bad", [
    {"sigma": -1},
    {"sigma": 0},
    {"inner_backend": "cg"},
    {"tol": 0},
    {"phase1_tol": 1e-12, "phase2_tol": 1e-3, "solver": "two_phase"},
    {"max_iter": 0},
    {"solvers": ["ihadmm", "newton"]},
    {"solver": "newton"},
    {"max_iter": "10"},
    {"max_iter": 2.5},
])
def test_solve_bad_solver_setting_exit_code(tmp_path, capsys, bad):
    cfg = _write_config(tmp_path / "cfg.json", **bad)
    assert main(["solve", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", [True, float("nan")], ids=["true", "nan"])
@pytest.mark.parametrize("field", ["tol", "sigma", "phase1_tol",
                                   "phase2_tol"])
def test_solve_bool_or_nan_setting_exit_code(tmp_path, capsys, field, value):
    # JSON true is a Python bool, which float comparisons take for 1.0
    cfg = _write_config(tmp_path / "cfg.json", **{field: value})
    assert main(["solve", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {field} must be a finite number"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [
    ("eps0", 1e-3), ("tau", 1.0), ("alpha", 0.5), ("beta", 0.5),
    ("a", -0.5), ("b", 0.5)], ids=["eps0", "tau", "alpha", "beta", "a", "b"])
def test_fixed_inner_tolerance_key_exit_code(tmp_path, capsys, key, value):
    # the inexact u-step's tolerance sequence, the multiplier step length
    # and the examples' alpha, beta, a, b are fixed, no longer settings
    cfg = _write_config(tmp_path / "cfg.json", **{key: value})
    assert main(["solve", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: unknown config keys: [{key!r}]"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field", ["phase1_tol", "phase2_tol"])
@pytest.mark.parametrize("value", [0.0, -1.0], ids=["zero", "negative"])
def test_phase_tol_message_names_its_field(tmp_path, capsys, field, value):
    cfg = _write_config(tmp_path / "cfg.json", solver="two_phase",
                        **{field: value})
    assert main(["solve", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {field} must be positive"]


@pytest.mark.parametrize("command,bad", [
    ("solve", {"level": True}),
    ("solve", {"level": 2.5}),
    ("table", {"levels": [True, 2]}),
    ("table", {"levels": [2, 3.5]}),
    ("table", {"levels": [2, 2]}),
    ("table", {"levels": [2, 3], "reference_level": 4.5}),
    ("table", {"levels": [2, 3], "reference_level": True}),
    ("table", {"levels": [2, 3], "reference_level": 3}),
], ids=["level-bool", "level-float", "levels-bool", "levels-float",
        "levels-repeated", "reference-float", "reference-bool",
        "reference-not-above"])
def test_bad_level_exit_code(tmp_path, capsys, command, bad):
    cfg = _write_config(tmp_path / "cfg.json", **bad)
    assert main([command, "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["solve", "table", "export-matrices"])
def test_out_naming_a_file_exit_code(tmp_path, capsys, command):
    # the output directory cannot be made where a plain file stands
    out = tmp_path / "afile"
    out.write_text("keep")
    if command == "export-matrices":
        args = ["--level", "2"]
    else:
        cfg = _write_config(tmp_path / "cfg.json", levels=[2, 3])
        args = ["--config", str(cfg)]
    assert main([command, *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert out.read_text() == "keep"


def test_solve_success(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["solver"] == "ihadmm"
    assert report["final_eta"] <= 1e-6
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "iter,eta1,eta2,eta3,eta4,eta5,eta,Rh,inner_iters"
    assert len(lines) == report["iterations"] + 1


def test_solve_pdas_reports_Rh_on_every_row(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", solver="pdas", tol=1e-10)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "convergence.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert len(lines) >= 2
    for line in lines[1:]:
        cell = line.split(",")[header.index("Rh")]
        assert cell and np.isfinite(float(cell))


def test_solve_artifacts_and_flag_positions(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    # --log-level is accepted on either side of the subcommand
    assert main(["--log-level", "error", "solve", "--config", str(cfg),
                 "--out", str(out)]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(out),
                 "--log-level", "error"]) == 0
    lines = (out / "solution.csv").read_text().splitlines()
    assert lines[0] == "x,y,u"
    x, y, u = lines[1].split(",")
    assert float(x) == 0.0 and float(y) == 0.0 and float(u) == 0.0
    assert len(lines) == 1 + 81          # all mesh nodes at level 3


def test_solve_malformed_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    missing = tmp_path / "missing.json"
    assert main(["solve", "--config", str(missing),
                 "--out", str(tmp_path / "o")]) == 2


def test_solve_nonconvergence_exit_code(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", max_iter=1, tol=1e-12)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False
    assert report["iterations"] == 1        # partial report still emitted


def test_solve_two_phase_cli(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", solver="two_phase",
                        phase1_tol=1e-3, phase2_tol=1e-10)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["final_eta"] <= 1e-10
    assert len(report["phase_iterations"]) == 2


def test_table_runs_and_is_deterministic(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", levels=[3, 4],
                        solvers=["ihadmm", "apg"])
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["table", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["table", "--config", str(cfg), "--out", str(out2)]) == 0
    t1 = (out1 / "table.csv").read_text().splitlines()
    t2 = (out2 / "table.csv").read_text().splitlines()
    header = t1[0].split(",")
    assert header[:5] == ["level", "h", "n_dofs", "E2", "EOC"]
    assert "ihadmm_iters" in header and "apg_iters" in header
    assert len(t1) == 3
    # byte-identical modulo the wall-clock columns marked nondeterministic
    det_cols = [i for i, name in enumerate(header)
                if not name.endswith("_nondeterministic")]
    for l1, l2 in zip(t1, t2):
        v1, v2 = l1.split(","), l2.split(",")
        assert [v1[i] for i in det_cols] == [v2[i] for i in det_cols]

    data = json.loads((out1 / "table.json").read_text())
    assert len(data) == 2
    assert data[1]["EOC"] is not None


def test_table_json_writes_a_nonfinite_eoc_as_null(tmp_path, monkeypatch):
    from sparseoc import experiments
    monkeypatch.setattr(experiments, "compute_eoc",
                        lambda errors: [float("nan")] * (len(errors) - 1))
    cfg = _write_config(tmp_path / "cfg.json", levels=[2, 3])
    out = tmp_path / "out"
    assert main(["table", "--config", str(cfg), "--out", str(out)]) == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    data = json.loads((out / "table.json").read_text(),
                      parse_constant=reject)
    assert data[1]["EOC"] is None
    assert (out / "table.csv").read_text().splitlines()[2].split(",")[4] == ""


def test_table_empty_levels(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", levels=[])
    assert main(["table", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2


def test_table_failing_cell_still_written(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", levels=[3],
                        solvers=["ihadmm"], max_iter=1, tol=1e-12)
    out = tmp_path / "out"
    assert main(["table", "--config", str(cfg), "--out", str(out)]) == 1
    assert (out / "table.csv").exists()
    data = json.loads((out / "table.json").read_text())
    assert data[0]["cells"][0]["converged"] is False


@pytest.mark.parametrize("phase1_tol,iters", [(1e-1, "7+1"), (1e-3, "18+1")])
def test_table_honours_phase1_tol(tmp_path, phase1_tol, iters):
    cfg = _write_config(tmp_path / "cfg.json", levels=[3],
                        solvers=["two_phase"], phase1_tol=phase1_tol)
    out = tmp_path / "out"
    assert main(["table", "--config", str(cfg), "--out", str(out)]) == 0
    row = (out / "table.csv").read_text().splitlines()[1].split(",")
    assert row[5] == iters


def test_export_matrices(tmp_path):
    out = tmp_path / "mtx"
    assert main(["export-matrices", "--level", "2", "--out", str(out)]) == 0
    for name in ("K.mtx", "M.mtx", "W.mtx"):
        text = (out / name).read_text()
        assert text.startswith("%%MatrixMarket")
    out2 = tmp_path / "mtx2"
    assert main(["export-matrices", "--level", "2", "--out", str(out2)]) == 0
    for name in ("K.mtx", "M.mtx", "W.mtx"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_export_matrices_bad_level(tmp_path):
    assert main(["export-matrices", "--level", "0",
                 "--out", str(tmp_path / "o")]) == 2


def test_export_matrices_direct_call(tmp_path):
    # a bool is no level, as on every config path (True would be level 1)
    for level in (0, True):
        with pytest.raises(ConfigError):
            cmd_export_matrices(level, tmp_path / "o")
    assert not (tmp_path / "o").exists()


def test_table_stadler_reference(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", example="stadler", levels=[3, 4],
                        solvers=["two_phase"], sigma=2.5e-6,
                        reference_level=6)
    out = tmp_path / "out"
    assert main(["table", "--config", str(cfg), "--out", str(out)]) == 0
    data = json.loads((out / "table.json").read_text())
    assert all(np.isfinite(row["E2"]) for row in data)


def test_projection_miss_exit_code(tmp_path, capsys, monkeypatch):
    from sparseoc import mesh
    monkeypatch.setattr(mesh, "_PROJECTION_MAX_ITER", 1)
    cfg = _write_config(tmp_path / "cfg.json")
    assert main(["solve", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: L2 projection")


def test_table_reference_failure_exit_code(tmp_path, capsys, monkeypatch):
    from dataclasses import replace
    from sparseoc import experiments
    real = experiments.solve_two_phase

    def capped(problem, config_phase1, config_phase2, **kwargs):
        return real(problem, replace(config_phase1, max_iter=1),
                    config_phase2, **kwargs)

    monkeypatch.setattr(experiments, "solve_two_phase", capped)
    cfg = _write_config(tmp_path / "cfg.json", example="stadler", levels=[3, 4],
                        solvers=["ihadmm"], reference_level=5)
    assert main(["table", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
