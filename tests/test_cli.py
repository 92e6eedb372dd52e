"""Config round-trips, manifests, artifact formats, and exit codes."""

import json
from pathlib import Path

import pytest

from pslab import cli, diophantine, expsum, wtrick
from pslab.ps_core import PSExponent, ps_primes


class TestConfig:
    def test_round_trip(self):
        text = "x=100\nx=1000\nd=2\nc=21/20\n"
        cfg = cli.ExperimentConfig.from_text(text)
        assert cfg.to_text() == text
        assert cfg.get("d") == "2"
        assert cfg.get_list("x") == ["100", "1000"]

    def test_comments_and_blanks_ignored(self):
        cfg = cli.ExperimentConfig.from_text("# hi\n\nx=5\n")
        assert cfg.get_int("x") == 5

    def test_unknown_key_rejected(self):
        # bogus, then every key that was once accepted and never read
        for key in ("bogus", "experiment", "grid_m", "seed", "format",
                    "out_dir", "coeffs"):
            with pytest.raises(cli.ConfigError):
                cli.ExperimentConfig.from_text(f"{key}=1\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.ExperimentConfig.from_text("just a line\n")

    def test_hash_stable(self):
        cfg = cli.ExperimentConfig.from_text("x=10\nd=2\n")
        again = cli.ExperimentConfig.from_text("x=10\nd=2\n")
        assert cfg.sha256() == again.sha256()
        other = cli.ExperimentConfig.from_text("x=11\nd=2\n")
        assert cfg.sha256() != other.sha256()

    def test_bad_int(self):
        cfg = cli.ExperimentConfig.from_text("x=ten\n")
        with pytest.raises(cli.ConfigError):
            cfg.get_int("x")


class TestSubcommands:
    def test_exponents_table_csv(self, capsys):
        assert cli.main(["exponents", "table", "--d-min", "2",
                         "--d-max", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].split(",")[:2] == ["d", "s"]
        first = dict(zip(out[0].split(","), out[1].split(",")))
        assert (first["c1"], first["c2"], first["c3"]) == \
            ("7/75", "1/54", "1/2")

    def test_exponents_table_json(self, capsys):
        assert cli.main(["--format", "json", "exponents", "table",
                         "--d-min", "2", "--d-max", "2"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["c_of_ds"] == "1/54"

    def test_ps_count(self, capsys):
        assert cli.main(["ps", "count", "--c", "21/20", "--x", "1000",
                         "--decades", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x,count,ratio"
        assert len(lines) == 3
        assert lines[1].startswith("100,")

    def test_ps_list(self, capsys):
        assert cli.main(["ps", "list", "--c", "3/2", "--x", "11"]) == 0
        assert capsys.readouterr().out.split() == ["2", "5", "11"]

    def test_wtrick_majorant_file(self, tmp_path, capsys):
        out = tmp_path / "maj.csv"
        assert cli.main(["wtrick", "majorant", "--x", "1000", "--d", "2",
                         "--c", "21/20", "--toy-w", "32",
                         "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# x=1000,d=2,c=21/20,W=32,")
        n, w = lines[1].split(",")
        assert int(n) > 0 and float(w) > 0

    def test_expsum_weyl(self, capsys):
        assert cli.main(["expsum", "weyl", "--x", "17", "--d", "2",
                         "--alpha", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["abs"]) == pytest.approx(17)

    def test_expsum_meanvalue(self, capsys):
        assert cli.main(["expsum", "meanvalue", "--x", "10", "--d", "2",
                         "--S", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert int(row["count"]) == expsum.mean_value_count(10, 2, 4)

    @pytest.mark.parametrize("argv, header", [
        (["exponents", "table", "--d-min", "2", "--d-max", "2"],
         "d,s,S,s_bar,h,k,l,c1,c2,c3,theta_at_midpoint,c_of_ds,rho,d0,v0"),
        (["ps", "count", "--c", "21/20", "--x", "1000"], "x,count,ratio"),
        (["expsum", "weyl", "--x", "17", "--d", "2", "--alpha", "0"],
         "x,d,alpha,re,im,abs"),
        (["expsum", "meanvalue", "--x", "10", "--d", "2", "--S", "4"],
         "x,d,S,count,normalized"),
        (["expsum", "decay", "--x", "1000", "--d", "2", "--c", "21/20",
          "--toy-w", "32", "--samples", "256"], "x,d,c,samples,decay"),
        (["expsum", "restrict", "--x", "1000", "--d", "2", "--c", "21/20",
          "--toy-w", "32", "--samples", "256", "--u", "7.5"],
         "x,d,c,u,moment,ratio"),
        (["expsum", "arcs", "--x", "100", "--d", "2", "--toy-w", "32",
          "--alpha", "0"], "alpha,kind,witness,threshold,a,q,envelope"),
        (["dioph", "count", "--coeffs", "1,-2,1", "--d", "2",
          "--set", "ps:100,21/20"],
         "coeffs,d,set_size,total,trivial,nontrivial,truncated"),
    ])
    def test_row_columns(self, argv, header, capsys):
        # the rows' keys are the only statement of each schema
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.splitlines()[0] == header
        assert cli.main(["--format", "json"] + argv) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [list(row) for row in rows] == [header.split(",")] * len(rows)

    def test_expsum_decay(self, capsys):
        assert cli.main(["expsum", "decay", "--x", "1000", "--d", "2",
                         "--c", "21/20", "--toy-w", "32",
                         "--samples", "256"]) == 0
        lines = capsys.readouterr().out.splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert 0 < float(row["decay"]) < 2

    def test_expsum_arcs(self, capsys):
        assert cli.main(["expsum", "arcs", "--x", "100", "--d", "2",
                         "--toy-w", "32", "--alpha", "0",
                         "--alpha", "0.6180339887"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[1] in ("major", "minor")

    def test_expsum_arcs_positions_past_int64(self, capsys):
        # mu's positions reach about 1.2*10^19 > 2^63 at x = 1.4*10^5, d = 4
        assert cli.main(["expsum", "arcs", "--x", "140000", "--d", "4",
                         "--toy-w", "32", "--alpha", "1/3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[1] in ("major", "minor")

    def test_dioph_count(self, capsys):
        import csv as csvmod
        import io

        assert cli.main(["dioph", "count", "--coeffs", "1,-2,1", "--d", "2",
                         "--set", "ps:100,21/20"]) == 0
        reader = csvmod.reader(io.StringIO(capsys.readouterr().out))
        header, values = next(reader), next(reader)
        row = dict(zip(header, values))
        assert int(row["total"]) == int(row["trivial"]) + int(row["nontrivial"])
        assert int(row["trivial"]) == int(row["set_size"])

    def test_dioph_count_negative_cap_exit_2(self, capsys):
        assert cli.main(["dioph", "count", "--coeffs", "1,-2,1", "--d", "2",
                         "--set", "ps:100,21/20", "--cap", "-1"]) == \
            cli.EXIT_PRECONDITION
        assert "cap" in capsys.readouterr().err

    def test_dioph_count_set_file(self, tmp_path, capsys):
        # the count runs over the distinct elements, and so does set_size
        path = tmp_path / "set.txt"
        for text, row in (("1\n5\n7\n", '"1,-2,1",2,3,5,3,2,0'),
                          ("2\n3\n3\n5\n7\n7\n", '"1,-2,1",2,4,4,4,0,0')):
            path.write_text(text)
            assert cli.main(["dioph", "count", "--coeffs", "1,-2,1", "--d",
                             "2", "--set", str(path)]) == 0
            assert capsys.readouterr().out.splitlines()[1] == row

    def test_dioph_count_set_past_int64(self, tmp_path, capsys):
        # 2^70 cannot be an int64 element: its powers are exact ints
        path = tmp_path / "set.txt"
        path.write_text(f"{2 ** 70}\n{2 ** 70 + 1}\n7\n13\n17\n")
        assert cli.main(["dioph", "count", "--coeffs", "1,-2,1", "--d", "2",
                         "--set", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == \
            '"1,-2,1",2,5,7,5,2,0'

    def test_dioph_count_general_union(self, tmp_path, capsys):
        # --K is the one path that serves a union other than the diagonal
        import csv as csvmod
        import io

        path = tmp_path / "pairings.txt"
        path.write_text("1 0 -1 0\n0 1 0 -1\n\n1 0 0 -1\n0 1 -1 0\n")
        assert cli.main(["dioph", "count", "--coeffs", "1,1,-1,-1", "--d", "2",
                         "--set", "ps:200,21/20", "--K", str(path)]) == 0
        reader = csvmod.reader(io.StringIO(capsys.readouterr().out))
        row = dict(zip(next(reader), next(reader)))
        sys4 = diophantine.validate_system((1, 1, -1, -1), 2)
        K = diophantine.parse_subspace_file(path.read_text(), sys4)
        naive = diophantine.enumerate_solutions_naive(
            ps_primes(200, PSExponent(21, 20)).members.tolist(), sys4, K)
        assert (naive.total, naive.trivial, naive.nontrivial) == \
            (3272, 2556, 716)
        assert (row["total"], row["trivial"], row["nontrivial"]) == \
            ("3272", "2556", "716")


class TestExitCodes:
    @pytest.mark.parametrize("flags", [["--seed", "1"], ["--threads", "2"],
                                       ["--sequential"]])
    def test_removed_global_flags_exit_2(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(flags + ["ps", "list", "--c", "3/2", "--x", "11"])
        assert exc.value.code == cli.EXIT_PRECONDITION

    @pytest.mark.parametrize("argv", [
        ["ps", "list", "--c", "3/2", "--x", "30"],
        ["wtrick", "majorant", "--x", "1000", "--d", "2", "--c", "21/20",
         "--toy-w", "32", "--out", "maj.csv"]])
    @pytest.mark.parametrize("flags", [["--format", "json"],
                                       ["--out-dir", "od"]])
    def test_unread_global_flags_exit_2(self, argv, flags, tmp_path,
                                        monkeypatch, capsys):
        # neither subcommand writes rows, so neither reads the flags
        monkeypatch.chdir(tmp_path)
        assert cli.main(flags + argv) == cli.EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert flags[0] in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("samples", ["0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["pipeline", "--x", "1000", "--d", "2", "--c", "21/20",
         "--no-avoider", "--samples"],
        ["sweep", "--config"],
        ["expsum", "decay", "--x", "1000", "--d", "2", "--c", "21/20",
         "--samples"],
        ["expsum", "restrict", "--x", "1000", "--d", "2", "--c", "21/20",
         "--u", "7.5", "--samples"]])
    def test_samples_below_1_exit_2(self, argv, samples, tmp_path, capsys):
        # the tally refuses a grid of no points before it weighs a prime
        if argv[0] == "sweep":
            path = tmp_path / "samples.cfg"
            path.write_text(f"x=1000\nsamples={samples}\n")
            samples = str(path)
        assert cli.main(argv + [samples]) == cli.EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert "M must be >= 1" in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["ps", "count", "--c", "21/20", "--x", "1000", "--decades", "-1"],
        ["exponents", "table", "--d-min", "5", "--d-max", "3"],
        ["exponents", "table", "--s-count", "0"]])
    def test_empty_row_set_exit_2(self, argv, capsys):
        # each would write a bare header
        assert cli.main(argv) == cli.EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert "ConfigError" in captured.err and captured.out == ""

    def test_internal_type_error_propagates(self, monkeypatch):
        def broken(args):
            raise TypeError("internal bug")

        monkeypatch.setattr(cli, "cmd_ps_list", broken)
        with pytest.raises(TypeError, match="internal bug"):
            cli.main(["ps", "list", "--c", "3/2", "--x", "11"])

    @pytest.mark.parametrize("cell", [
        # at d = 3 the restriction moment's mass ** u (u = 104.5) overflows,
        # with numpy's one known warning
        pytest.param(["--x", "10000", "--d", "3"], id="d3",
                     marks=pytest.mark.filterwarnings(
                         "ignore:overflow encountered in power:"
                         "RuntimeWarning")),
        # at d = 4 the structured sum's mass ** 17 (mass 3.04e18) overflows
        pytest.param(["--x", "140000", "--d", "4", "--no-avoider"],
                     id="d4"),
    ])
    def test_float_overflow_is_not_a_precondition(self, tmp_path, cell):
        # a float overflow is an internal fault, not bad input, so it must
        # not exit 2
        argv = ["--out-dir", str(tmp_path), "pipeline", "--c", "21/20",
                "--toy-w", "32", *cell]
        try:
            code = cli.main(argv)
        except OverflowError:
            return
        assert code != cli.EXIT_PRECONDITION

    def test_split_refused_exit_2(self, monkeypatch, capsys):
        monkeypatch.setattr(diophantine, "TABLE_BUDGET", 10)
        assert cli.main(["dioph", "count", "--coeffs", "1,1,-1,-1", "--d",
                         "2", "--set", "ps:100,21/20"]) == \
            cli.EXIT_PRECONDITION
        assert "SplitRefusedError" in capsys.readouterr().err

    def test_mean_value_budget_exit_2(self, monkeypatch, capsys):
        monkeypatch.setattr(expsum, "MEAN_VALUE_BUDGET", 100)
        assert cli.main(["expsum", "meanvalue", "--x", "5", "--d", "2",
                         "--S", "6"]) == cli.EXIT_PRECONDITION
        assert "CountRefusedError" in capsys.readouterr().err

    def test_negative_degree_meanvalue_exit_2(self, capsys):
        # at d < 0 the powers m^d are floats, truncated in an int64 array
        assert cli.main(["expsum", "meanvalue", "--x", "5", "--d", "-1",
                         "--S", "4"]) == cli.EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert "d >= 0" in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["ps", "list", "--c", "1/0", "--x", "11"],
        ["expsum", "weyl", "--x", "5", "--d", "2", "--alpha", "1/0"],
        ["expsum", "arcs", "--x", "100", "--d", "2", "--alpha", "1/0"],
        ["dioph", "count", "--coeffs", "1,-2,1", "--d", "2",
         "--set", "ps:100,1/0"],
        ["dioph", "count", "--coeffs", "1,-2,1", "--d", "2",
         "--set", "ps:100,21/20", "--K", "zero.txt"],
        ["pipeline", "--config", "zero.cfg"]])
    def test_zero_denominator_exit_2(self, argv, tmp_path, monkeypatch,
                                     capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "zero.txt").write_text("1 1/0 -1\n")
        (tmp_path / "zero.cfg").write_text("x=1000\nc=1/0\n")
        assert cli.main(argv) == cli.EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert "zero denominator" in captured.err and captured.out == ""

    @pytest.mark.parametrize("Q", ["0", "-5"])
    def test_arcs_nonpositive_Q_exit_2(self, Q, capsys):
        # 1/3 is minor at x = 100, where no witness (a, q) is reported
        assert cli.main(["expsum", "arcs", "--x", "100", "--d", "2",
                         "--alpha", "1/3", "--Q", Q]) == cli.EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert "Q must be >= 1" in captured.err and captured.out == ""

    @pytest.mark.parametrize("flag, value, message", [
        ("--Q", "0", "Q must be >= 1"),
        ("--alpha", "1/0", "zero denominator")])
    def test_arcs_refuses_before_building_mu(self, flag, value, message,
                                             monkeypatch, capsys):
        def build_mu(*args):
            raise RuntimeError("build_mu called")

        monkeypatch.setattr(wtrick, "build_mu", build_mu)
        assert cli.main(["expsum", "arcs", "--x", "10000000", "--d", "2",
                         "--alpha", "1/3", flag, value]) == \
            cli.EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_negative_degree_weyl_exit_2(self, capsys):
        # at d < 0 pow(n, d, q) takes inverses mod q, where they exist
        assert cli.main(["expsum", "weyl", "--x", "5", "--d", "-1",
                         "--alpha", "1/7"]) == cli.EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert "d >= 0" in captured.err and captured.out == ""


class TestPipeline:
    def test_small_run_exit_zero(self, tmp_path, capsys):
        code = cli.main(["--out-dir", str(tmp_path), "pipeline",
                         "--x", "1000", "--d", "2", "--c", "21/20",
                         "--toy-w", "32"])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["checks"]["avoider_clean"]
        assert manifest["version"]
        csv_lines = (tmp_path / "pipeline.csv").read_text().splitlines()
        assert csv_lines[0].split(",") == cli.PIPELINE_COLUMNS
        assert manifest["artifacts"] == [str(tmp_path / "pipeline.csv"),
                                         str(tmp_path / "manifest.json")]

    def test_one_fold_per_cell(self, monkeypatch):
        calls = []
        fold = expsum._fold

        def counted(weight, M):
            calls.append(M)
            return fold(weight, M)

        monkeypatch.setattr(expsum, "_fold", counted)
        cli.pipeline_cell(1000, 2, PSExponent(21, 20), 32, samples=256,
                          run_avoider=False)
        assert calls == [256]

    def test_one_power_table_per_cell(self):
        wtrick._power_table.cache_clear()
        cli.pipeline_cell(1000, 2, PSExponent(21, 20), 32, samples=256,
                          run_avoider=False)
        info = wtrick._power_table.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        # the one tally: admissible residues (the miss), then sigma per
        # admissible class; its segments read p^d mod W*M, not the table
        assert info.hits == 1

    def test_empty_prime_window_passes(self, capsys):
        # x below the w-trick domain: all-zero quantities, still a pass
        assert cli.main(["pipeline", "--x", "2", "--d", "2",
                         "--c", "21/20"]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert line.startswith("2,2,")

    def test_below_domain_skips_primes(self, monkeypatch):
        def fail(*args):
            pytest.fail("ps_primes called below x = 16")

        monkeypatch.setattr(cli, "ps_primes", fail)
        c = PSExponent(21, 20)
        row, warns = cli.pipeline_cell(15, 2, c, 32)
        assert row == cli._zero_row(15, 2, 5, c) and warns == []

    def test_missing_x_precondition_exit(self, capsys):
        assert cli.main(["pipeline", "--d", "2"]) == cli.EXIT_PRECONDITION

    def test_repeated_x_exit_2(self, tmp_path, capsys):
        path = tmp_path / "two.cfg"
        path.write_text("x=1000\nx=2000\n")
        assert cli.main(["pipeline", "--config", str(path)]) == \
            cli.EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert captured.out == "" and "ConfigError" in captured.err

    def test_config_with_flags_exit_2(self, tmp_path, capsys):
        path = tmp_path / "one.cfg"
        path.write_text("x=1000\n")
        assert cli.main(["pipeline", "--config", str(path), "--x", "2000",
                         "--toy-w", "32"]) == cli.EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ConfigError" in captured.err
        assert "--x, --toy-w" in captured.err

    def test_inadmissible_c_warns_but_runs(self, capsys):
        code = cli.main(["pipeline", "--x", "1000", "--d", "2",
                         "--c", "3/2", "--toy-w", "32"])
        assert code == 0
        out = capsys.readouterr().out
        assert "outside the admissible range" in out


class TestSweep:
    def _config(self, tmp_path) -> Path:
        path = tmp_path / "sweep.cfg"
        path.write_text("x=100\nx=1000\nd=2\nc=21/20\nc=11/10\ntoy_w=32\n"
                        "samples=128\n")
        return path

    def test_cell_count(self, tmp_path, capsys):
        code = cli.main(["sweep", "--config", str(self._config(tmp_path))])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 4  # header + 2 x-values * 2 c-values

    def test_manifest_on_stderr(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        assert cli.main(["sweep", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        manifest = json.loads(captured.err)
        assert manifest["config_hash"] == cli.ExperimentConfig.from_text(
            cfg.read_text()).sha256()
        assert manifest["checks"] == {
            "decay_finite": True, "restriction_finite": True,
            "ktrivial_finite": True, "avoider_clean": True}
        assert manifest["artifacts"] == []
        assert len(manifest["rows"]) == 4
        assert len(captured.out.splitlines()) == 1 + 4

    def test_avoider_check_over_every_cell(self, tmp_path, capsys,
                                           monkeypatch):
        # a nontrivial solution in the avoider set of one cell fails the run
        cell = cli.pipeline_cell

        def dirty_at_1000(x, *args, **kwargs):
            row, warns = cell(x, *args, **kwargs)
            row["avoider_nontrivial"] = int(x == 1000)
            return row, warns

        monkeypatch.setattr(cli, "pipeline_cell", dirty_at_1000)
        cfg = self._config(tmp_path)
        assert cli.main(["sweep", "--config", str(cfg), "--avoider"]) == 3
        captured = capsys.readouterr()
        assert json.loads(captured.err.split("check failure")[0])[
            "checks"]["avoider_clean"] is False
        assert "failed checks: avoider_clean" in captured.err

    def test_repeated_samples_exit_2(self, tmp_path, capsys):
        path = tmp_path / "samples.cfg"
        path.write_text("x=100\nx=1000\nsamples=64\nsamples=4096\n")
        assert cli.main(["sweep", "--config", str(path)]) == \
            cli.EXIT_PRECONDITION
        assert "ConfigError" in capsys.readouterr().err

    def test_byte_determinism(self, tmp_path):
        cfg = self._config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cli.main(["--out-dir", str(out1), "sweep",
                         "--config", str(cfg)]) == 0
        assert cli.main(["--out-dir", str(out2), "sweep",
                         "--config", str(cfg)]) == 0
        assert (out1 / "sweep.csv").read_bytes() == \
            (out2 / "sweep.csv").read_bytes()

    def test_manifest_lists_artifacts(self, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["--out-dir", str(out), "sweep",
                         "--config", str(self._config(tmp_path))]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifacts"] == [str(out / "sweep.csv"),
                                         str(out / "manifest.json")]

    def test_oversize_refused(self, tmp_path, capsys):
        path = tmp_path / "big.cfg"
        path.write_text("".join(f"x={i}\n" for i in range(101))
                        + "".join(f"d={k}\n" for k in range(2, 103)))
        assert cli.main(["sweep", "--config", str(path)]) == \
            cli.EXIT_PRECONDITION

    def test_single_cell_matches_pipeline(self, tmp_path):
        path = tmp_path / "one.cfg"
        path.write_text("x=1000\nd=2\nc=21/20\ntoy_w=32\nsamples=128\n")
        cfg = cli.ExperimentConfig.from_text(path.read_text())
        sweep_row = cli._run_cells(cfg, cli.sweep_cells(cfg), False).rows[0]
        pipe_row = cli._run_cells(cfg, [cfg], False).rows[0]
        for key in ("decay", "mass", "ktrivial_ratio"):
            assert sweep_row[key] == pipe_row[key]
