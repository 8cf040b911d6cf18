import os
import warnings

import pytest
from click.testing import CliRunner

from ghastates import spectrum_from_config
from ghastates.cli import main
from ghastates.errors import ConditioningWarning, InvalidParameterError


@pytest.fixture()
def runner():
    return CliRunner()


def test_verify_harmonic_passes(runner):
    res = runner.invoke(main, ["verify", "--system", "harmonic", "--dim", "30"])
    assert res.exit_code == 0, res.output
    assert "overall: pass" in res.output


def test_verify_default_tol_is_1e_12(runner):
    # with no --tol the report's header names the default it applied
    res = runner.invoke(main, ["verify", "--system", "harmonic"])
    assert res.exit_code == 0, res.output
    assert res.output.splitlines()[0] == \
        "algebra verification: system=harmonic dim=30 tol=1e-12"


def test_verify_morse_includes_nilpotency(runner):
    res = runner.invoke(main, ["verify", "--system", "morse", "--p", "7.59"])
    assert res.exit_code == 0
    assert "nilpotent_power" in res.output
    assert "hamiltonian_from_ladder" in res.output


def test_verify_morse_refuses_any_other_dim(runner):
    # a Morse ladder is represented whole; a --dim it cannot take fails
    # instead of being replaced by n_max + 1
    args = ["verify", "--system", "morse", "--p", "7.59", "--dim"]
    res = runner.invoke(main, args + ["5"])
    assert res.exit_code == 1
    assert "represented whole: dim must equal n_max + 1 = 8, got 5" \
        in res.output
    res = runner.invoke(main, args + ["8"])
    assert res.exit_code == 0, res.output
    assert "dim=8" in res.output and "overall: pass" in res.output


def test_trace_takes_no_dim(runner, tmp_path):
    # the state's length is the one the tail bound picks; only verify
    # takes --dim
    res = runner.invoke(main, ["trace", "--system", "type1", "--r", "0.5",
                               "--dim", "40", "--out",
                               str(tmp_path / "t.csv")])
    assert res.exit_code == 1
    assert "No such option" in res.output and "--dim" in res.output
    assert not (tmp_path / "t.csv").exists()
    # a config file's dim is read by verify alone; trace ignores it, as it
    # ignores every key it has no option for
    cfg = tmp_path / "run.cfg"
    cfg.write_text("system = morse\np = 7.59\nr = 0.1\ndim = 5\n",
                   encoding="utf-8")
    res = runner.invoke(main, ["trace", "--config", str(cfg), "--points", "11",
                               "--out", str(tmp_path / "t.csv")])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["verify", "--config", str(cfg)])
    assert res.exit_code == 1 and "got 5" in res.output


def test_verify_square_well(runner):
    res = runner.invoke(main, ["verify", "--system", "square-well",
                               "--b", "4", "--dim", "40"])
    assert res.exit_code == 0
    assert "well_ladder" in res.output


def test_verify_impossible_tol_fails_numerically(runner):
    res = runner.invoke(main, ["verify", "--system", "harmonic",
                               "--dim", "30", "--tol", "1e-20"])
    assert res.exit_code == 2


def test_verify_records_to_file(runner, tmp_path):
    out = tmp_path / "report.tsv"
    res = runner.invoke(main, ["verify", "--system", "type1", "--out",
                               str(out), "--format", "records"])
    assert res.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert all(len(line.split("\t")) == 4 for line in lines)


def test_trace_writes_csv(runner, tmp_path):
    out = tmp_path / "t.csv"
    res = runner.invoke(main, ["trace", "--system", "type1", "--kind", "gha",
                               "--r", "0.1", "--points", "21",
                               "--t-end", "10", "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = out.read_text().splitlines()
    assert lines[0] == "t,mean_xi,mean_rho,var_xi,var_rho,uncertainty"
    assert len(lines) == 22


def test_trace_refuses_overwrite(runner, tmp_path):
    out = tmp_path / "t.csv"
    out.write_text("sentinel")
    args = ["trace", "--system", "type1", "--r", "0.1", "--points", "11",
            "--t-end", "5", "--out", str(out)]
    res = runner.invoke(main, args)
    assert res.exit_code == 1
    assert out.read_text() == "sentinel"
    res = runner.invoke(main, args + ["--force"])
    assert res.exit_code == 0
    assert out.read_text() != "sentinel"


def test_trace_determinism(runner, tmp_path):
    base = ["--system", "hydrogen", "--kind", "linear", "--r", "0.5"]
    # the second grid takes the factored (matrix product) kernel path
    for k, grid in enumerate((["--points", "51", "--t-end", "20"],
                              ["--path", "series", "--points", "20001",
                               "--t-end", "1000"])):
        a, b = tmp_path / f"a{k}.csv", tmp_path / f"b{k}.csv"
        for out in (a, b):
            res = runner.invoke(main, ["trace", *base, *grid, "--out", str(out)])
            assert res.exit_code == 0, res.output
        assert a.read_bytes() == b.read_bytes()


def test_trace_both_paths_reports_discrepancy(runner, tmp_path):
    out = tmp_path / "t.csv"
    res = runner.invoke(main, ["trace", "--system", "type2", "--r", "0.3",
                               "--points", "11", "--t-end", "5",
                               "--path", "both", "--out", str(out)])
    assert res.exit_code == 0
    assert "max route discrepancy" in res.output
    assert out.read_text().splitlines()[0].endswith(",discrepancy")


def test_trace_r_zero_constant_half(runner, tmp_path):
    out = tmp_path / "t.csv"
    res = runner.invoke(main, ["trace", "--system", "type1", "--r", "0",
                               "--points", "5", "--t-end", "4",
                               "--path", "series", "--out", str(out)])
    assert res.exit_code == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert all(row.split(",")[-1] == "0.5" for row in rows)


def test_trace_validation_errors(runner, tmp_path):
    res = runner.invoke(main, ["trace", "--system", "type1", "--r", "1.2",
                               "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 1
    res = runner.invoke(main, ["trace", "--system", "morse", "--p", "7.59",
                               "--kind", "linear", "--r", "0.1",
                               "--out", str(tmp_path / "y.csv")])
    assert res.exit_code == 1
    res = runner.invoke(main, ["trace", "--r", "0.1",
                               "--out", str(tmp_path / "z.csv")])
    assert res.exit_code == 1  # missing --system


def test_trace_non_finite_result_exits_numerical(runner, tmp_path):
    # the linear-state amplitudes overflow at r = 40
    res = runner.invoke(main, ["trace", "--system", "harmonic", "--kind",
                               "linear", "--r", "40", "--path", "both",
                               "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 2, res.output
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.filterwarnings("default::ghastates.errors.ConditioningWarning")
def test_trace_prints_library_warnings_before_errors(runner, tmp_path):
    # a near-radius warning the filters let through is a stderr line of its
    # own, not a Python warning naming some line of click's
    args = ["trace", "--system", "type1", "--points", "11", "--out"]
    res = runner.invoke(main, args + [str(tmp_path / "a.csv"),
                                      "--r", "0.9901"])
    assert res.exit_code == 0, res.output
    assert res.stderr.splitlines() == [
        "warning: |z| = 0.9901 is within 1% of the convergence radius; the "
        "normalization is nearly singular and precision degrades"]
    # past the level cap the warning still comes first, then the error
    res = runner.invoke(main, args + [str(tmp_path / "b.csv"),
                                      "--r", "0.99999"])
    assert res.exit_code == 2, res.output
    lines = res.stderr.splitlines()
    assert len(lines) == 2, lines
    assert lines[0].startswith("warning: |z| = 0.99999 is within 1%")
    assert lines[1].startswith("error: tail bound")
    # a filter that turns the warning into an error, as -W error does, holds
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConditioningWarning)
        res = runner.invoke(main, args + [str(tmp_path / "c.csv"),
                                          "--r", "0.9901"])
    assert isinstance(res.exception, ConditioningWarning), res.output


def test_trace_morse_physical_reports_omega(runner, tmp_path):
    out = tmp_path / "m.csv"
    res = runner.invoke(main, ["trace", "--system", "morse",
                               "--beta", "2.78e10", "--v0", "5.211",
                               "--mr", "1.33e-26", "--override-nu", "16.18",
                               "--r", "0.03", "--points", "11",
                               "--t-end", "5", "--out", str(out)])
    assert res.exit_code == 0, res.output
    # omega only needs beta and m_r, so the conversion survives the override
    assert "omega = 3.06397e+12 rad/s" in res.output
    res = runner.invoke(main, ["trace", "--system", "morse", "--p", "7.59",
                               "--r", "0.03", "--points", "11",
                               "--t-end", "5", "--out", str(out), "--force"])
    assert res.exit_code == 0
    assert "omega" not in res.output  # dimensionless input, no scale to report


def test_figure_bundle(runner, tmp_path):
    res = runner.invoke(main, ["figure", "1", "--out-dir", str(tmp_path),
                               "--points", "101"])
    assert res.exit_code == 0, res.output
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["fig1_manifest.csv", "fig1_type1_gha_r0.1.csv",
                     "fig1_type1_gha_r0.5.csv"]
    manifest = (tmp_path / "fig1_manifest.csv").read_text().splitlines()
    assert manifest[0].startswith("file,system,kind,r")
    assert len(manifest) == 3
    # refuses to clobber without --force
    res = runner.invoke(main, ["figure", "1", "--out-dir", str(tmp_path),
                               "--points", "101"])
    assert res.exit_code == 1


def test_figure_o2_alias(runner, tmp_path):
    res = runner.invoke(main, ["figure", "o2", "--out-dir", str(tmp_path),
                               "--points", "51"])
    assert res.exit_code == 0
    assert (tmp_path / "fig7_morse_gha_r0.03.csv").exists()
    assert (tmp_path / "fig7_morse_gha_r0.1.csv").exists()


def test_figure_out_of_range(runner, tmp_path):
    res = runner.invoke(main, ["figure", "9", "--out-dir", str(tmp_path)])
    assert res.exit_code == 1


def test_morse_info(runner):
    res = runner.invoke(main, ["morse-info", "--p", "3.2"])
    assert res.exit_code == 0
    assert "n_max = 3" in res.output
    assert res.output.count("eps =") == 4
    res = runner.invoke(main, ["morse-info", "--p", "3.0"])
    assert res.exit_code == 1


def test_morse_info_o2_override(runner):
    args = ["morse-info", "--beta", "2.78e10", "--v0", "5.211",
            "--mr", "1.33e-26"]
    res = runner.invoke(main, args)
    assert res.exit_code == 0
    assert "nu from constants: 101.664" in res.output
    res = runner.invoke(main, args + ["--override-nu", "16.18"])
    assert res.exit_code == 0
    assert "n_max = 7" in res.output
    assert "nilpotency index = 8" in res.output
    res = runner.invoke(main, args + ["--override-nmax", "7"])
    assert res.exit_code == 0
    assert res.output.count("eps =") == 8


def test_config_file_precedence(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("system = type1\nr = 0.1\npoints = 11\nt_end = 5\n",
                   encoding="utf-8")
    out = tmp_path / "a.csv"
    res = runner.invoke(main, ["trace", "--config", str(cfg), "--r", "0.2",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert len(out.read_text().splitlines()) == 12  # points from config
    out2 = tmp_path / "b.csv"
    res = runner.invoke(main, ["trace", "--config", str(cfg),
                               "--out", str(out2)])
    assert res.exit_code == 0
    # flag override changed the curve relative to the pure-config run
    assert out.read_text() != out2.read_text()


def test_custom_spectrum_via_config(runner, tmp_path):
    cfg = tmp_path / "table.cfg"
    cfg.write_text("system = custom\n"
                   "energies = 0.0, 0.5, 0.6666666666666666, 0.75, 0.8\n",
                   encoding="utf-8")
    res = runner.invoke(main, ["verify", "--config", str(cfg), "--dim", "4"])
    assert res.exit_code == 0, res.output
    assert "overall: pass" in res.output
    res = runner.invoke(main, ["verify", "--system", "custom", "--dim", "4"])
    assert res.exit_code == 1  # no table supplied


def test_outdir_env(runner, tmp_path):
    env = {"GHASTATES_OUTDIR": str(tmp_path)}
    res = runner.invoke(main, ["trace", "--system", "type1", "--r", "0.1",
                               "--points", "5", "--t-end", "2",
                               "--out", "rel.csv"], env=env)
    assert res.exit_code == 0, res.output
    assert (tmp_path / "rel.csv").exists()
    assert not os.path.exists("rel.csv")


def test_spectrum_file_both_spellings(runner, tmp_path):
    # the README's Morse file and the same well in command-line spelling
    consts = "system = morse\nbeta = 2.78e10\nmr = 1.33e-26\n"
    files = {"readme.cfg": consts + "v0_ev = 5.211\nn_max = 7\n",
             "cli.cfg": consts + "v0 = 5.211\noverride_nmax = 7\n"}
    specs = []
    for name, text in files.items():
        cfg = tmp_path / name
        cfg.write_text(text, encoding="utf-8")
        specs.append(spectrum_from_config(cfg))
        res = runner.invoke(main, ["verify", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["trace", "--config", str(cfg), "--r", "0.1",
                                   "--out", str(tmp_path / f"{name}.csv")])
        assert res.exit_code == 0, res.output
    assert specs[0] == specs[1]
    assert specs[0].max_level == 7 and specs[0].omega is not None
    with pytest.raises(InvalidParameterError):
        spectrum_from_config({"system": "morse", "p": "deep"})


def test_verify_table_defaults_to_its_size(runner, tmp_path):
    # an eight-level table: the identity checks map levels 0..6 onto 1..7
    cfg = tmp_path / "table.cfg"
    table = ", ".join(repr(n / (n + 1.0)) for n in range(8))
    cfg.write_text(f"system = custom\nenergies = {table}\n", encoding="utf-8")
    res = runner.invoke(main, ["verify", "--config", str(cfg)])
    assert res.exit_code == 0, res.output
    assert "dim=7" in res.output and "overall: pass" in res.output
    res = runner.invoke(main, ["verify", "--config", str(cfg), "--dim", "5"])
    assert res.exit_code == 0 and "dim=5" in res.output
    res = runner.invoke(main, ["verify", "--system", "harmonic"])
    assert "dim=30" in res.output


def test_non_finite_model_parameters_exit_validation(runner, tmp_path):
    table = tmp_path / "table.cfg"
    table.write_text("system = custom\nenergies = 0, 0.5, nan, 0.75\n",
                     encoding="utf-8")
    out = ["--out", str(tmp_path / "x.csv")]
    for args in (
            ["trace", "--system", "type1", "--b", "nan", "--r", "0.5", *out],
            ["trace", "--system", "q-deformed", "--q", "nan", "--r", "0.5",
             *out],
            ["trace", "--system", "square-well", "--b", "inf", "--r", "0.5",
             *out],
            ["trace", "--system", "morse", "--p", "inf", "--r", "0.1", *out],
            ["trace", "--system", "morse", "--p", "nan", "--r", "0.1", *out],
            ["trace", "--config", str(table), "--r", "0.1", *out],
            ["verify", "--system", "type1", "--b", "nan"],
            ["morse-info", "--beta", "nan", "--v0", "5.211",
             "--mr", "1.33e-26"]):
        res = runner.invoke(main, args)
        assert res.exit_code == 1, (args, res.output)
        assert "must be finite" in res.output, args
    assert not (tmp_path / "x.csv").exists()


def test_tolerance_must_be_positive(runner, tmp_path):
    for tol in ("0", "-1", "nan"):
        res = runner.invoke(main, ["verify", "--system", "type1",
                                   "--tol", tol])
        assert res.exit_code == 1, (tol, res.output)
        # a NaN tolerance used to pass every route discrepancy
        res = runner.invoke(main, ["trace", "--system", "type1", "--r", "0.5",
                                   "--path", "both", "--tol", tol,
                                   "--out", str(tmp_path / "x.csv")])
        assert res.exit_code == 1, (tol, res.output)
        assert "tol must be" in res.output


def test_zero_b_exits_validation(runner, tmp_path):
    res = runner.invoke(main, ["trace", "--system", "type1", "--b", "0",
                               "--r", "0.5", "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 1, res.output
    assert "b must be positive" in res.output
    assert not (tmp_path / "x.csv").exists()


def test_every_output_file_takes_one_path(runner, tmp_path):
    # figure sends each CSV and its manifest through the same check as
    # trace --out and verify --out: a missing directory exits 3 first
    from ghastates import cli
    assert not hasattr(cli, "_refuse_overwrite")
    missing = tmp_path / "nope"
    for args in (["figure", "1", "--out-dir", str(missing)],
                 ["trace", "--system", "type1", "--r", "0.1", "--points", "5",
                  "--out", str(missing / "t.csv")]):
        res = runner.invoke(main, args)
        assert res.exit_code == 3, res.output
        assert f"output directory {missing} does not exist" in res.output
    assert not missing.exists()
    # an existing manifest is refused like any other file
    (tmp_path / "fig2_manifest.csv").write_text("sentinel")
    res = runner.invoke(main, ["figure", "2", "--out-dir", str(tmp_path),
                               "--points", "11"])
    assert res.exit_code == 1
    assert "fig2_manifest.csv exists; pass --force" in res.output
    assert (tmp_path / "fig2_manifest.csv").read_text() == "sentinel"
    # and, refused, the bundle writes none of its CSVs
    assert [p.name for p in tmp_path.iterdir()] == ["fig2_manifest.csv"]
    # a file in place of the directory fails on writing, an I/O error
    res = runner.invoke(main, ["figure", "2", "--out-dir",
                               str(tmp_path / "fig2_manifest.csv"),
                               "--points", "11"])
    assert res.exit_code == 3, res.output


def test_figure_id_that_is_not_a_number(runner, tmp_path):
    res = runner.invoke(main, ["figure", "abc", "--out-dir", str(tmp_path)])
    assert res.exit_code == 1
    assert "unknown figure id 'abc'; choose 1..7 or 'o2'" in res.output
    assert list(tmp_path.iterdir()) == []


def test_trace_exit_codes_of_its_own_checks(runner, tmp_path):
    out = tmp_path / "t.csv"
    res = runner.invoke(main, ["trace", "--system", "type1", "--out",
                               str(out)])
    assert res.exit_code == 1
    assert "--r is required (flag or config)" in res.output
    # the file is written before the route tolerance is checked
    res = runner.invoke(main, ["trace", "--system", "type1", "--r", "0.9",
                               "--points", "101", "--path", "both",
                               "--tol", "1e-300", "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "exceeds tol = 1e-300" in res.output
    assert out.exists()


def test_config_values_are_converted_like_flags(runner, tmp_path):
    cfg, out = tmp_path / "run.cfg", tmp_path / "t.csv"
    out.write_text("sentinel")
    cfg.write_text("system = type1\nr = 0.1\npoints = abc\n")
    res = runner.invoke(main, ["trace", "--config", str(cfg), "--out",
                               str(out)])
    assert res.exit_code == 1
    assert "config key 'points'" in res.output
    # a flag set in the file: force lets the run overwrite its output
    cfg.write_text("system = type1\nr = 0.1\npoints = 5\nforce = true\n")
    res = runner.invoke(main, ["trace", "--config", str(cfg), "--out",
                               str(out)])
    assert res.exit_code == 0, res.output
    assert len(out.read_text().splitlines()) == 6


def test_config_key_of_no_command_exits_naming_it(runner, tmp_path):
    cfg, out = tmp_path / "run.cfg", tmp_path / "t.csv"
    cfg.write_text("system = type1\nr = 0.5\npoint = 11\n")
    res = runner.invoke(main, ["trace", "--config", str(cfg), "--out",
                               str(out)])
    assert res.exit_code == 1
    assert "config key 'point' is not an option of any command" in res.output
    assert not out.exists()
    # one file holds the keys of both commands: each reads its own
    cfg.write_text("system = type1\nr = 0.5\npoints = 11\ndim = 20\n"
                   "path = series\n")
    res = runner.invoke(main, ["trace", "--config", str(cfg), "--out",
                               str(out)])
    assert res.exit_code == 0, res.output
    assert len(out.read_text().splitlines()) == 12
    res = runner.invoke(main, ["verify", "--config", str(cfg)])
    assert res.exit_code == 0, res.output
    assert "dim=20" in res.output and "overall: pass" in res.output


def test_module_runs_as_a_script():
    import subprocess
    import sys
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for module in ("ghastates", "ghastates.cli"):
        res = subprocess.run([sys.executable, "-m", module, "--version"],
                             capture_output=True, text=True, env=env,
                             timeout=60)
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("ghastates, version ")
