import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfields
from qfields import cli, kernel, simulate
from qfields.cli import run


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GAUSS_ARGS = ["--rho", "0.5", "--A", "0.16", "--B", "0.32", "--C", "0.6", "--D", "0"]


class TestClassify:
    def test_gaussian_point(self, capsys):
        code, out, _ = run_capture(capsys, ["classify", *GAUSS_ARGS])
        assert code == 0
        assert out.splitlines()[0] == "ExistsGaussian"

    def test_json_mode(self, capsys):
        code, out, _ = run_capture(capsys, ["classify", *GAUSS_ARGS, "--json"])
        assert code == 0
        assert json.loads(out)["classification"] == "ExistsGaussian"

    def test_invalid_exit_two(self, capsys):
        code, out, _ = run_capture(
            capsys, ["classify", "--rho", "0", "--A", "0.16", "--B", "0.32",
                     "--C", "0.68", "--D", "0"])
        assert code == 2
        assert out.startswith("InvalidParams")

    def test_qgaussian_payload(self, capsys):
        code, out, _ = run_capture(
            capsys, ["classify", "--rho", "0.5", "--A", "0.1976470588235294",
                     "--B", "0.16", "--C", "0.5647058823529412", "--D", "0", "--json"])
        assert code == 0
        data = json.loads(out)
        assert data["classification"] == "ExistsQGaussian"
        assert data["q"] == pytest.approx(0.0625, abs=1e-9)


class TestDerive:
    def test_fill_from_b(self, capsys):
        code, out, _ = run_capture(capsys, ["derive", "--rho", "0.5", "--B", "0.32", "--json"])
        assert code == 0
        data = json.loads(out)
        assert data["q"] == pytest.approx(1.0, abs=1e-12)
        assert data["A"] == pytest.approx(0.16, abs=1e-12)
        assert data["C"] == pytest.approx(0.6, abs=1e-12)

    def test_fill_from_q(self, capsys):
        code, out, _ = run_capture(capsys, ["derive", "--rho", "0.5", "--q", "0.0625", "--json"])
        data = json.loads(out)
        assert code == 0
        assert data["B"] == pytest.approx(0.16, abs=1e-12)

    def test_mutually_exclusive(self, capsys):
        code, _, err = run_capture(capsys, ["derive", "--rho", "0.5", "--B", "0.1", "--q", "0.5"])
        assert code == 1
        assert "usage error" in err

    def test_pole_is_validation_failure(self, capsys):
        code, _, err = run_capture(capsys, ["derive", "--rho", "0.5", "--q", "16"])
        assert code == 2
        assert "validation failure" in err

    @pytest.mark.parametrize("flag", ["--q", "--B"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-nan"])
    def test_non_finite_is_a_validation_failure(self, capsys, flag, value):
        # every derived value would be NaN, and --json would emit NaN, which is no JSON
        code, out, err = run_capture(capsys, ["derive", "--rho", "0.5", flag, value, "--json"])
        assert code == 2
        assert out == ""
        assert err.startswith(f"validation failure: {flag[2:]} must be finite")


class TestBoundaryAndCoeffs:
    def test_boundary_json(self, capsys):
        code, out, _ = run_capture(capsys, ["boundary", "--rho", "0.5", "--mmax", "3", "--json"])
        data = json.loads(out)
        assert code == 0
        assert data["degenerate"] == pytest.approx(-2.4, abs=1e-12)
        assert data["continuum_sup"] == pytest.approx(0.32, abs=1e-12)
        assert data["lattice"]["1"] == pytest.approx(1.0, abs=1e-12)

    def test_coeffs(self, capsys):
        code, out, _ = run_capture(capsys, ["coeffs", *GAUSS_ARGS, "--json"])
        data = json.loads(out)
        assert code == 0
        assert data["alpha1"] == pytest.approx(0.25, abs=1e-12)
        assert data["gamma1"] == pytest.approx(0.75, abs=1e-12)
        assert abs(data["r1"]) <= 1e-12

    def test_coeffs_degenerate_exit_two(self, capsys):
        code, _, err = run_capture(
            capsys, ["coeffs", "--rho", "0.5", "--A", "0.8", "--B", "-2.4",
                     "--C", "0", "--D", "0"])
        assert code == 2


class TestFavard:
    def test_lattice_string(self, capsys):
        code, out, _ = run_capture(capsys, ["favard", "--rho", "0.5", "--q", "4", "--nmax", "100"])
        assert code == 0
        assert out.strip() == "TerminatesAt n=2 (lattice m=1)"

    def test_fails_string(self, capsys):
        _, out, _ = run_capture(capsys, ["favard", "--rho", "0.5", "--q", "3", "--nmax", "100"])
        assert out.strip() == "FailsAt n=3"

    def test_all_positive(self, capsys):
        _, out, _ = run_capture(capsys, ["favard", "--rho", "0.5", "--q", "0.5", "--nmax", "50"])
        assert out.strip() == "AllPositive"

    @pytest.mark.parametrize("nmax, verdict", [("100", None), ("5000", "FailsAt n=141")])
    def test_q_above_one_is_never_all_positive(self, capsys, nmax, verdict):
        code, out, err = run_capture(capsys, ["favard", "--rho", "0.5", "--q", "1.01",
                                              "--nmax", nmax])
        if verdict is None:
            assert (code, out) == (2, "")
            assert err.startswith("validation failure: scan undecided by n_max = 100")
            assert "turn negative at n = 141" in err
        else:
            assert (code, out.strip()) == (0, verdict)

    @pytest.mark.parametrize("q", ["nan", "inf", "-inf"])
    def test_non_finite_q_is_a_validation_failure(self, capsys, q):
        code, out, err = run_capture(capsys, ["favard", "--rho", "0.5", f"--q={q}"])
        assert code == 2
        assert out == ""
        assert err.startswith("validation failure: q must be finite")


class TestDensity:
    def test_writes_csv(self, capsys, tmp_path):
        out_path = tmp_path / "dens.csv"
        code, out, _ = run_capture(
            capsys, ["density", "--q", "0", "--out", str(out_path), "--points", "129"])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "x,f"
        assert len(lines) == 130
        mid = lines[65].split(",")
        assert float(mid[0]) == pytest.approx(0.0, abs=1e-12)
        assert float(mid[1]) == pytest.approx(1.0 / math.pi, abs=1e-12)

    @pytest.mark.parametrize("points", ["0", "1", "-3"])
    def test_too_few_points_exit_two(self, capsys, tmp_path, points):
        out_path = tmp_path / "dens.csv"
        code, out, err = run_capture(
            capsys, ["density", "--q", "0", "--out", str(out_path), "--points", points])
        assert code == 2
        assert out == ""
        assert "--points" in err
        assert not out_path.exists()


class TestKernelCheck:
    def test_mehler_pass(self, capsys):
        code, out, _ = run_capture(
            capsys, ["kernel-check", "--rho", "0.5", "--q", "0.5", "--json"])
        data = json.loads(out)
        assert code == 0
        assert data["pass"] is True
        assert data["eigen_max"] <= 1e-6

    def test_gaussian_route(self, capsys):
        code, out, _ = run_capture(capsys, ["kernel-check", "--rho", "0.6", "--q", "1", "--json"])
        data = json.loads(out)
        assert code == 0
        assert data["pass"] is True

    @pytest.mark.parametrize("rho", ["0.99", "-0.999"])
    def test_gaussian_near_unit_rho_passes(self, capsys, rho):
        code, out, _ = run_capture(capsys, ["kernel-check", "--rho", rho, "--q", "1", "--json"])
        assert code == 0
        assert json.loads(out)["stationarity_max"] <= 1e-15


class TestSampleVerify:
    def test_end_to_end(self, capsys, tmp_path):
        csv_path = tmp_path / "g.csv"
        code, _, _ = run_capture(
            capsys, ["sample", "--rho", "0.5", "--case", "gaussian", "--chains", "30",
                     "--steps", "400", "--seed", "7", "--out", str(csv_path)])
        assert code == 0
        report_path = tmp_path / "rep.json"
        code, _, _ = run_capture(
            capsys, ["verify", "--in", str(csv_path), *GAUSS_ARGS,
                     "--report", str(report_path), "--seed", "7"])
        assert code == 0
        rep = json.loads(report_path.read_text())
        assert rep["summary"]["n_fail"] == 0
        assert rep["meta"]["seed"] == 7
        assert rep["meta"]["classification"] == "ExistsGaussian"

    def test_verify_corrupted_exit_three(self, capsys, tmp_path):
        csv_path = tmp_path / "g.csv"
        run_capture(capsys, ["sample", "--rho", "0.5", "--case", "gaussian", "--chains", "30",
                             "--steps", "400", "--seed", "7", "--out", str(csv_path)])
        code, out, _ = run_capture(
            capsys, ["verify", "--in", str(csv_path), "--rho", "0.5", "--A", "0.3",
                     "--B", "0.32", "--C", "0.32", "--D", "0"])
        assert code == 3
        rep = json.loads(out)
        assert rep["summary"]["n_fail"] >= 1

    def test_sample_config_file(self, capsys, tmp_path):
        cfg = {"rho": 0.5, "case": "scaled",
               "radial": [[math.sqrt(2.0), 0.5], [0.0, 0.5]],
               "n_chains": 5, "n_steps": 50, "seed": 9}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "s.csv"
        code, out, _ = run_capture(
            capsys, ["sample", "--config", str(cfg_path), "--out", str(out_path)])
        assert code == 0
        assert "ExistsScaledTwoPoint" in out
        assert out_path.exists()

    @pytest.mark.parametrize("cfg,named", [
        ({"rho": 0.5, "q": 0.5, "n_chain": 3, "steps": 5}, "n_chain, steps"),
        ({"rho": 0.5, "q": 0.5, "n_chains": 2.7, "n_steps": 5}, "n_chains"),
        ([0.5, 0.5], "JSON object"),
        ({"rho": 0.5, "q": "0.5"}, "q must be a number"),
        ({"rho": [0.5], "q": 0.5}, "rho must be a number"),
        ({"rho": 0.5, "q": None}, "q must be a number"),
        ({"rho": True, "q": 0.5}, "rho must be a number"),
        ({"rho": 0.5, "b": "0.1"}, "b must be a number"),
        ({"rho": 0.5, "case": "scaled", "radial": 5}, "radial must be"),
        ({"rho": 0.5, "case": "scaled", "radial": {"a": 1}}, "radial must be"),
        ({"rho": 0.5, "case": "scaled", "radial": [[math.sqrt(2.0), 0.5], 7]},
         "radial must be"),
        ({"rho": 0.5, "case": "scaled", "radial": "abc"}, "radial must read"),
        ({"rho": 0.5, "case": "scaled", "radial": "1.4142135623730951"}, "radial must read"),
        (b'{"rho": 0.5, "q": 0.5,', "not valid JSON"),
        (b'{"rho": 0.5, "q": 0.5, "case": "\xff"}', "not valid JSON")],
        ids=["unknown-keys", "float-n-chains", "json-list", "string-q", "list-rho",
             "null-q", "bool-rho", "string-b", "int-radial", "object-radial",
             "non-pair-radial", "text-radial", "no-probability-radial", "truncated-json",
             "not-utf8"])
    def test_sample_bad_config_usage_error(self, capsys, tmp_path, cfg, named):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(cfg if isinstance(cfg, bytes) else json.dumps(cfg).encode())
        out_path = tmp_path / "s.csv"
        code, _, err = run_capture(
            capsys, ["sample", "--config", str(cfg_path), "--out", str(out_path)])
        assert code == 1
        assert "usage error" in err
        assert named in err
        assert not out_path.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--chains", "0"], "n_chains must be >= 1"),
        (["--steps", "0"], "n_steps must be >= 1"),
        (["--seed", "-1"], "master_seed must fit in 64 bits"),
        (["--seed", str(2 ** 64)], "master_seed must fit in 64 bits")],
        ids=["chains-0", "steps-0", "seed-negative", "seed-2-64"])
    def test_sample_bad_counts_exit_two_before_tables(self, capsys, tmp_path, monkeypatch,
                                                      flags, message):
        def no_sampler(*args):
            raise AssertionError("make_sampler ran before the counts were checked")
        monkeypatch.setattr(cli, "make_sampler", no_sampler)
        monkeypatch.setattr(os, "fork", no_sampler)
        out_path = tmp_path / "x.csv"
        code, _, err = run_capture(capsys, ["sample", "--rho", "0.5", "--q", "0.5", *flags,
                                            "--out", str(out_path)])
        assert code == 2
        assert message in err
        assert not out_path.exists()

    @pytest.mark.parametrize("failing,message", [
        ("child", "chains 3..5 exited with status 1"), ("parent", "disk full")])
    def test_sample_failing_block_reaps_and_cleans(self, capsys, tmp_path, monkeypatch,
                                                   failing, message):
        write_rows = simulate._write_rows

        def broken(fh, ids, values):
            if (ids.start == 0) == (failing == "parent"):
                raise OSError("disk full")
            write_rows(fh, ids, values)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(simulate, "_write_rows", broken)
        code, out, err = run_capture(capsys, ["sample", "--rho", "0.5", "--case", "gaussian",
                                              "--chains", "9", "--steps", "50",
                                              "--out", str(tmp_path / "x.csv")])
        assert code != 0
        assert out == ""
        assert message in err
        assert list(tmp_path.iterdir()) == []  # no temporary file, no partial CSV
        with pytest.raises(ChildProcessError):  # every child reaped
            os.waitpid(-1, os.WNOHANG)

    def test_sample_temporary_files_beside_output(self, capsys, tmp_path, monkeypatch):
        # the blocks' files go beside --out, or to the system's temporary directory
        # where that is not writable (as /dev is for --out /dev/stdout)
        temporary_file, dirs = simulate.tempfile.TemporaryFile, []

        def recording(*args, dir, **kwargs):
            dirs.append(dir)
            return temporary_file(*args, dir=dir, **kwargs)
        monkeypatch.setattr(simulate.tempfile, "TemporaryFile", recording)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 3)
        argv = ["sample", "--rho", "0.5", "--case", "gaussian", "--chains", "6", "--steps", "40"]
        assert run_capture(capsys, [*argv, "--out", str(tmp_path / "a.csv")])[0] == 0
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        assert run_capture(capsys, [*argv, "--out", str(tmp_path / "b.csv")])[0] == 0
        assert dirs == [tmp_path, tmp_path, None, None]
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_sample_without_fork_runs_one_block(self, capsys, tmp_path, monkeypatch):
        argv = ["sample", "--rho", "0.5", "--q", "0.5", "--chains", "6", "--steps", "40"]
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 4)
        assert run_capture(capsys, [*argv, "--out", str(tmp_path / "forked.csv")])[0] == 0
        monkeypatch.delattr(os, "fork")
        assert run_capture(capsys, [*argv, "--out", str(tmp_path / "single.csv")])[0] == 0
        assert (tmp_path / "single.csv").read_bytes() == (tmp_path / "forked.csv").read_bytes()

    def test_conflicting_case_override_rejected(self, capsys, tmp_path):
        code, _, err = run_capture(
            capsys, ["sample", "--rho", "0.5", "--case", "gaussian", "--q", "0.5",
                     "--chains", "2", "--steps", "10", "--seed", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "conflicts" in err

    @pytest.mark.parametrize("cfg,flags,message", [
        ({"rho": 0.5, "q": 0.5, "b": 0.3}, [], "b conflicts with --q"),
        ({"rho": 0.5, "case": "twopoint", "b": 0.3}, [], "b conflicts with --case twopoint"),
        ({"rho": 0.5, "case": "gaussian", "radial": [[math.sqrt(2.0), 0.5], [0.0, 0.5]]},
         [], "--radial requires --case scaled"),
        ({"rho": 0.5}, ["--q", "0.5", "--radial", "1.4142135623730951:0.5,0:0.5"],
         "--radial requires --case scaled")],
        ids=["b-with-q", "b-with-case", "radial-with-case-gaussian", "radial-with-q"])
    def test_sample_ignored_setting_usage_error(self, capsys, tmp_path, cfg, flags, message):
        # a setting the chosen case would not read is refused, not dropped
        cfg_path, out_path = tmp_path / "cfg.json", tmp_path / "s.csv"
        cfg_path.write_text(json.dumps({**cfg, "n_chains": 2, "n_steps": 10}))
        code, out, err = run_capture(capsys, ["sample", "--config", str(cfg_path), *flags,
                                              "--out", str(out_path)])
        assert (code, out) == (1, "")
        assert err.startswith(f"usage error: {message}\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("case", ["foo", "Gaussian", None])
    def test_sample_unknown_config_case_usage_error(self, capsys, tmp_path, case):
        # argparse checks only the --case flag; the config key names the same four
        cfg = {"rho": 0.5, "case": case, "n_chains": 2, "n_steps": 10}
        if case != "Gaussian":
            cfg["q"] = 0.5  # a q that would otherwise sample the q-Gaussian case
        cfg_path, out_path = tmp_path / "cfg.json", tmp_path / "s.csv"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run_capture(capsys, ["sample", "--config", str(cfg_path),
                                              "--out", str(out_path)])
        assert (code, out) == (1, "")
        assert err.startswith("usage error: case must be one of gaussian, qgaussian, "
                              f"twopoint, scaled, got {case!r}\n")
        assert not out_path.exists()

    def test_sample_open_lattice_exit_two(self, capsys, tmp_path):
        code, _, err = run_capture(
            capsys, ["sample", "--rho", "0.5", "--q", "4", "--chains", "2",
                     "--steps", "10", "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "open" in err

    def test_radial_flag_parsing(self, capsys, tmp_path):
        out_path = tmp_path / "s.csv"
        code, _, _ = run_capture(
            capsys, ["sample", "--rho", "0.5", "--case", "scaled",
                     "--radial", f"{math.sqrt(2.0)}:0.5,0:0.5",
                     "--chains", "4", "--steps", "20", "--seed", "2",
                     "--out", str(out_path)])
        assert code == 0

    def test_repeated_zero_atom_samples_the_pinned_bytes(self, capsys, tmp_path):
        # the zero atom split in two is the same law, so the same chains
        from test_byte_contract import CSV_DIGESTS
        out_path = tmp_path / "s.csv"
        code, _, _ = run_capture(
            capsys, ["sample", "--rho", "0.5", "--case", "scaled",
                     "--radial", "1.4142135623730951:0.5,0:0.25,0:0.25",
                     "--chains", "16", "--steps", "400", "--seed", "7",
                     "--out", str(out_path)])
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == CSV_DIGESTS["scaled"]

    @pytest.mark.parametrize("radial", ["nan:1", "1:nan"])
    def test_non_finite_radial_exit_two(self, capsys, tmp_path, radial):
        out_path = tmp_path / "s.csv"
        code, out, err = run_capture(
            capsys, ["sample", "--rho", "0.5", "--case", "scaled", "--radial", radial,
                     "--chains", "2", "--steps", "3", "--out", str(out_path)])
        assert (code, out) == (2, "")
        assert err == "validation failure: radial values and probabilities must be finite\n"
        assert not out_path.exists()


PARAM_FLAGS = ["--rho", "T", "--A", "T", "--B", "T", "--C", "T", "--D", "T"]


class TestFloatFlags:
    """Every float flag takes a space-separated value that float() reads, negative
    literals argparse alone would take for options included."""

    @pytest.mark.parametrize("token", ["-1e-05", "-5E-1", "-inf", "-nan", "-.25", "0.5"])
    @pytest.mark.parametrize("argv", [
        ["classify", *PARAM_FLAGS], ["coeffs", *PARAM_FLAGS],
        ["verify", "--in", "x.csv", *PARAM_FLAGS],
        ["derive", "--rho", "T", "--q", "T"], ["derive", "--rho", "T", "--B", "T"],
        ["favard", "--rho", "T", "--q", "T"], ["kernel-check", "--rho", "T", "--q", "T"],
        ["density", "--q", "T", "--out", "x.csv"],
        ["sample", "--rho", "T", "--q", "T", "--out", "x.csv"]])
    def test_value_is_read(self, argv, token):
        args = cli._build_parser().parse_args([token if a == "T" else a for a in argv])
        flags = [a for a, v in zip(argv, argv[1:]) if v == "T"]
        assert [repr(getattr(args, f[2:])) for f in flags] == [repr(float(token))] * len(flags)

    @pytest.mark.parametrize("token", ["-1e-05", "-inf", "-nan", "-5E-1", "-.5", "-1.", "-2",
                                       "-Infinity", "-1_000.5e+3", "-1__0", "-1e", "-e5",
                                       "-.", "-1.2.3", "-infin", "-nanx", "--1", "-0x10",
                                       "-1_", "-_1", "--q", "-h"])
    def test_matcher_agrees_with_float(self, token):
        try:
            float(token)
        except ValueError:
            reads = False
        else:
            reads = True
        assert bool(cli._NEGATIVE_FLOAT.match(token)) == reads

    def test_non_float_stays_a_usage_error(self, capsys):
        code, out, err = run_capture(capsys, ["derive", "--rho", "0.5", "--q", "-e5"])
        assert (code, out) == (1, "")
        assert "argument --q: expected one argument" in err

    def test_float_repr_round_trips(self, capsys):
        code, out, _ = run_capture(capsys, ["derive", "--rho", "0.5", "--q", repr(-1e-05),
                                            "--json"])
        assert code == 0
        assert json.loads(out)["A"] == pytest.approx(0.2, abs=1e-5)


class TestUsageErrors:
    def test_no_command(self, capsys):
        code, _, err = run_capture(capsys, [])
        assert code == 1
        assert "usage error" in err

    def test_unknown_command(self, capsys):
        code, _, _ = run_capture(capsys, ["frobnicate"])
        assert code == 1

    def test_missing_required(self, capsys):
        code, _, err = run_capture(capsys, ["classify", "--rho", "0.5"])
        assert code == 1
        assert "hint" in err

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert run(["classify", "--help"]) == 0

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_subcommand_help_exits_zero(self, capsys, command):
        code, out, _ = run_capture(capsys, [command, "--help"])
        assert code == 0
        assert out.startswith(f"usage: qfields {command}")

    @pytest.mark.parametrize("command,flag,value", [
        ("verify", "--kmax", "5"), ("verify", "--degree", "4"), ("verify", "--nmax", "4"),
        ("verify", "--mmax", "4"), ("verify", "--mult", "4"),
        ("kernel-check", "--nmax", "8"), ("favard", "--tol", "1e-10")])
    def test_removed_verdict_flag_usage_error(self, capsys, tmp_path, command, flag, value):
        csv_path, report = tmp_path / "g.csv", tmp_path / "rep.json"
        assert run_capture(capsys, ["sample", "--rho", "0.5", "--case", "gaussian", "--chains",
                                    "4", "--steps", "60", "--out", str(csv_path)])[0] == 0
        argv = {"verify": ["--in", str(csv_path), *GAUSS_ARGS, "--report", str(report)],
                "kernel-check": ["--rho", "0.5", "--q", "0.5"],
                "favard": ["--rho", "0.5", "--q", "0.3"]}[command]
        code, out, err = run_capture(capsys, [command, *argv, flag, value])
        assert code == 1
        assert out == ""
        assert "usage error" in err and flag in err
        assert not report.exists()


class TestParserOnce:
    """run builds its parser once per process, and a parse leaves it as it was."""

    def test_one_build_across_runs(self, capsys, monkeypatch):
        calls = []
        add = cli._Parser.add_argument
        monkeypatch.setattr(cli._Parser, "add_argument",
                            lambda self, *a, **kw: calls.append(a) or add(self, *a, **kw))
        cli._build_parser.cache_clear()
        for argv in (["classify", *GAUSS_ARGS], ["classify", "--rho", "0.5"], ["frobnicate"],
                     ["derive", "--rho", "0.5", "--q", "0.5"],
                     ["kernel-check", "--rho", "0.5", "--q", "1", "--json"]):
            run_capture(capsys, argv)
        assert len(calls) == 57

    def test_usage_error_then_run_equals_fresh_processes(self, capsys):
        # a mutually exclusive conflict and a missing flag fail mid-parse; every run,
        # those after them included, prints what a fresh process prints
        src = str(Path(qfields.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        argvs = [["derive", "--rho", "0.5", "--q", "0.5", "--B", "0.32"],
                 ["derive", "--rho", "0.5", "--q", "0.5", "--json"],
                 ["kernel-check", "--rho", "0.5"],
                 ["kernel-check", "--rho", "0.5", "--q", "0.5"]]
        for argv in argvs:
            fresh = subprocess.run([sys.executable, "-m", "qfields.cli", *argv],
                                   capture_output=True, text=True, env=env, timeout=300)
            assert run_capture(capsys, argv) == (fresh.returncode, fresh.stdout, fresh.stderr)


class TestDeterministicOutputs:
    def test_same_argv_same_bytes(self, capsys, tmp_path, monkeypatch):
        outs = []
        for w in ("1", "4"):
            monkeypatch.setattr(simulate, "_usable_cpus", lambda w=w: int(w))
            for rep in range(2):
                csv_path = tmp_path / f"g_{w}_{rep}.csv"
                run_capture(capsys, ["sample", "--rho", "0.5", "--case", "gaussian",
                                     "--chains", "10", "--steps", "100", "--seed", "11",
                                     "--out", str(csv_path)])
                outs.append(csv_path.read_bytes())
        assert len(set(outs)) == 1


class TestKernelCheckVerdict:
    @pytest.mark.parametrize("rho", ["-1", "0"])
    def test_invalid_rho_at_gaussian_endpoint_exit_two(self, capsys, rho):
        code, out, err = run_capture(capsys, ["kernel-check", "--rho", rho, "--q", "1"])
        assert code == 2
        assert "PASS" not in out
        assert "rho" in err

    def test_nan_residual_fails(self, capsys, monkeypatch):
        from qfields import kernel
        monkeypatch.setattr(kernel, "chapman_kolmogorov_residual",
                            lambda k, x, z: float("nan"))
        code, out, _ = run_capture(capsys, ["kernel-check", "--rho", "0.5", "--q", "1"])
        assert code == 3
        assert "FAIL" in out
        code, out, _ = run_capture(capsys, ["kernel-check", "--rho", "0.5", "--q", "1",
                                            "--json"])
        assert code == 3
        assert json.loads(out)["pass"] is False


class TestSampleNearQOne:
    def test_refusal_names_parameters_not_scipy(self, capsys, tmp_path):
        out_path = tmp_path / "c.csv"
        code, _, err = run_capture(capsys, ["sample", "--rho", "0.5", "--q", "0.99",
                                            "--chains", "2", "--steps", "3",
                                            "--out", str(out_path)])
        assert code == 2
        assert "rho" in err and "q" in err
        assert "dydx" not in err
        assert not out_path.exists()


class TestKernelCheckNonConvergence:
    def test_unconverged_ladder_exits_two_without_stdout(self, capsys):
        for extra in ([], ["--json"]):
            code, out, err = run_capture(capsys, ["kernel-check", "--rho", "0.5",
                                                  "--q", "0.99", *extra])
            assert code == 2
            assert out == ""
            assert "did not converge" in err
            assert "rho=0.5" in err and "q=0.99" in err
