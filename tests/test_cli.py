"""Command-line interface: workflows, exit statuses, config handling."""

import argparse
import hashlib
import subprocess
import sys

import pytest

from batchfrag import cli, model, montecarlo
from batchfrag.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalytic:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "-O", "10", "-B", "4",
                               "-Q", "50", "-p", "0.15")
        assert code == 0
        assert "expected_fragments    3.250000" in out
        assert "recall_probability    0.410327" in out
        assert "expected_recall_size  20.516332" in out
        assert "limit_batch_inf       7.500000" in out

    def test_unit_order_recall(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "-O", "1", "-B", "7",
                               "-Q", "50", "-p", "0.15")
        assert code == 0
        assert "expected_recall_size  7.500000" in out

    def test_order_above_quantity_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "analytic", "-O", "60", "-B", "4",
                               "-Q", "50", "-p", "0.15")
        assert code == 2
        assert "order size exceeds total quantity" in err

    def test_percent_notation(self, capsys):
        code_pct, out_pct, _ = run_cli(capsys, "analytic", "-O", "10", "-B",
                                       "4", "-Q", "50", "-p", "15%")
        code_frac, out_frac, _ = run_cli(capsys, "analytic", "-O", "10", "-B",
                                         "4", "-Q", "50", "-p", "0.15")
        assert code_pct == code_frac == 0
        assert out_pct == out_frac

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "analytic", "-O", "10", "-B", "4",
                               "-Q", "50")
        assert code == 2
        assert "crisis-prob" in err

    def test_out_file_mirrors_stdout(self, capsys, tmp_path):
        path = tmp_path / "analytic.txt"
        code, out, _ = run_cli(capsys, "analytic", "-O", "10", "-B", "4",
                               "-Q", "50", "-p", "0.15", "--out", str(path))
        assert code == 0
        assert path.read_text(encoding="utf-8") == out


class TestSimulate:
    def test_zero_probability_mean_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "-O", "5", "-B", "3",
                               "-Q", "20", "-p", "0", "-n", "200",
                               "--seed", "1")
        assert code == 0
        assert "simulated_mean      0.000000" in out

    def test_repeat_runs_byte_identical(self, capsys):
        argv = ("simulate", "-O", "10", "-B", "4", "-Q", "50", "-p", "0.15",
                "-n", "500", "--seed", "42")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_dump_trial_appends_fulfillment(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "-O", "10", "-B", "4",
                               "-Q", "50", "-p", "0.15", "-n", "50",
                               "--seed", "2", "--dump-trial")
        assert code == 0
        assert "recall estimate" in out
        assert "batches (id: consumed/size, * = crisis):" in out

    def test_checkpoint_mean_near_analytic(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "-O", "1", "-B", "1",
                               "-Q", "50", "-p", "0.15", "-n", "10000",
                               "--seed", "42")
        assert code == 0
        mean = float(next(ln for ln in out.splitlines()
                          if "simulated_mean" in ln).split()[-1])
        se = float(next(ln for ln in out.splitlines()
                        if "std_error" in ln).split()[-1])
        assert abs(mean - 7.5) <= 3 * se


    def test_zero_trials_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "-O", "5", "-B", "3",
                                 "-Q", "20", "-p", "0.1", "-n", "0")
        assert (code, out, err) == (2, "", "error: n_trials must be >= 1, got 0\n")

    def test_batch_size_past_int32_simulates(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "-O", "7", "-B",
                               "3000000000", "-Q", "50", "-p", "0.5",
                               "-n", "100")
        assert code == 0
        assert "simulated_mean" in out

    @pytest.mark.parametrize("b", [2**63 - 50, 2**64 + 5])
    def test_batch_size_beyond_int64_is_usage_error(self, capsys, b):
        code, out, err = run_cli(capsys, "simulate", "-O", "7", "-B", str(b),
                                 "-Q", "50", "-p", "0.5", "-n", "100")
        assert (code, out) == (2, "")
        assert err.startswith("error: batch_size must be below 2**63")

    @pytest.mark.parametrize("message,line", [
        ("Unable to allocate 67.1 GiB for an array with shape (3, 3000000000)"
         " and data type int64", "error: out of memory: Unable to allocate"
         " 67.1 GiB for an array with shape (3, 3000000000) and data type"
         " int64\n"),
        ("", "error: out of memory\n")])
    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch,
                                             message, line):
        """A kernel table too large for memory (67 GiB of W here) exits 1
        with one error line and no traceback."""
        def too_large(*args):
            raise MemoryError(message)

        monkeypatch.setattr(montecarlo, "_batch_axis_tables", too_large)
        code, out, err = run_cli(capsys, "simulate", "-O", "1", "-B",
                                 "3000000000", "-Q", "3000000000", "-p",
                                 "0.1", "-n", "10")
        assert (code, out, err) == (1, "", line)


class TestSweep:
    def test_analytic_only_ignores_trial_count(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        code, _, _ = run_cli(capsys, "sweep", "-Q", "50", "-p", "0.15",
                             "--order-range", "1:3", "--batch-range", "1:3",
                             "-n", "0", "--analytic-only", "--out", str(path))
        assert code == 0
        assert "n_trials= " in path.read_text(encoding="utf-8")

    def test_order_range_above_quantity_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep", "-Q", "50", "-p", "0.15",
                               "--order-range", "1:60", "--batch-range", "1:3",
                               "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert err == "error: order size exceeds total quantity (60 > 50)\n"
    def test_writes_grid_and_reports_error(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        code, out, _ = run_cli(capsys, "sweep", "-Q", "50", "-p", "0.15",
                               "--order-range", "1:3", "--batch-range", "1:3",
                               "-n", "100", "--seed", "3", "--out", str(path))
        assert code == 0
        assert f"wrote {path}" in out
        assert "mean_abs_error_pct" in out
        assert len(path.read_text().splitlines()) == 1 + 9 + 1

    def test_analytic_only_skips_error_line(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        code, out, _ = run_cli(capsys, "sweep", "-Q", "50", "-p", "0.15",
                               "--order-range", "1:3", "--batch-range", "1:3",
                               "--analytic-only", "--out", str(path))
        assert code == 0
        assert "mean_abs_error_pct" not in out

    def test_probability_family_one_file_each(self, capsys, tmp_path):
        path = tmp_path / "fam.csv"
        code, out, _ = run_cli(capsys, "sweep", "-Q", "50", "--crisis-probs",
                               "0.05,0.15,0.25", "--order-range", "1:2",
                               "--batch-range", "1:2", "--analytic-only",
                               "--out", str(path))
        assert code == 0
        for p in ("0.05", "0.15", "0.25"):
            assert (tmp_path / f"fam_p{p}.csv").exists()

    @pytest.mark.parametrize("probs", ["0.15,15%", "0.1234561,0.1234564"])
    def test_colliding_probability_paths_are_usage_error(
            self, capsys, tmp_path, monkeypatch, probs):
        """Probabilities that format alike would write one file twice."""
        def no_grid(*args, **kwargs):
            raise AssertionError("a grid was computed before the check")

        monkeypatch.setattr(cli, "_sweep", no_grid)
        code, out, err = run_cli(capsys, "sweep", "-Q", "50", "--crisis-probs",
                                 probs, "--order-range", "1:2",
                                 "--batch-range", "1:2", "-n", "10",
                                 "--out", str(tmp_path / "fam.csv"))
        assert code == 2
        assert "error:" in err and "fam_p" in err
        assert out == ""
        assert not list(tmp_path.iterdir())

    def test_probability_family_checks_its_grid_once(self, capsys, tmp_path,
                                                     monkeypatch):
        """Both axes are checked once for a family, not once per
        probability, and the family's files are those of single runs."""
        checked = []
        check_axis = model._check_axis

        def counted(name, values):
            checked.append(name)
            return check_axis(name, values)

        monkeypatch.setattr(model, "_check_axis", counted)
        grid = ["-Q", "40", "--order-range", "1:40", "--batch-range", "1:8",
                "-n", "20", "--seed", "3"]
        code, _, _ = run_cli(capsys, "sweep", "--crisis-probs",
                             "0.05,0.1,0.2,0.3", *grid,
                             "--out", str(tmp_path / "fam.csv"))
        assert code == 0
        assert checked == ["order_size", "batch_size"]
        for p in ("0.05", "0.1", "0.2", "0.3"):
            single = tmp_path / f"single_p{p}.csv"
            assert run_cli(capsys, "sweep", "-p", p, *grid,
                           "--out", str(single))[0] == 0
            assert (tmp_path / f"fam_p{p}.csv").read_bytes() == (
                single.read_bytes())

    @pytest.mark.parametrize("bad", [
        ["--order-range", "1:60", "-Q", "50"], ["-Q", "0", "--order-range",
                                                "1:2"]],
        ids=["order-above-quantity", "zero-quantity"])
    def test_probability_family_grid_error_writes_nothing(
            self, capsys, tmp_path, bad):
        code, out, err = run_cli(capsys, "sweep", "--crisis-probs",
                                 "0.05,0.3", *bad, "--batch-range", "1:2",
                                 "--analytic-only",
                                 "--out", str(tmp_path / "fam.csv"))
        assert code == 2
        assert out == "" and err.startswith("error: ")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("config, flags", [
        (None, ["-p", "0.2", "--crisis-probs", "0.1,0.3"]),
        ("crisis-prob = 0.2\n", ["--crisis-probs", "0.1,0.3"]),
        ("crisis-probs = 0.1,0.3\n", ["-p", "0.2"]),
    ], ids=["flags", "config-prob", "config-probs"])
    def test_single_and_family_probability_is_usage_error(
            self, capsys, tmp_path, monkeypatch, config, flags):
        """-p and --crisis-probs together, by flag or config file, would
        leave one of them silently unused."""
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
            flags = ["--config", "run.cfg", *flags]
        code, out, err = run_cli(capsys, "sweep", *flags, "-Q", "50",
                                 "--order-range", "1:2", "--batch-range",
                                 "1:2", "--analytic-only", "--out", "s.csv")
        assert code == 2
        assert out == ""
        assert "--crisis-prob and --crisis-probs" in err
        assert not list(tmp_path.glob("s*.csv"))

    def test_divisors_only_filters_orders(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        code, _, _ = run_cli(capsys, "sweep", "-Q", "50", "-p", "0.15",
                             "--order-range", "1:10", "--batch-range", "2:2",
                             "--divisors-only", "--analytic-only",
                             "--out", str(path))
        assert code == 0
        orders = [int(ln.split(",")[0])
                  for ln in path.read_text().splitlines()[1:-1]]
        assert orders == [1, 2, 5, 10]

    def test_reversed_range_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "-Q", "50", "-p", "0.15", "--order-range", "5:2",
                  "--batch-range", "1:3", "--out", "x.csv"])
        assert exc.value.code == 2

    def test_unwritable_path_is_io_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "-Q", "50", "-p", "0.15",
                               "--order-range", "1:2", "--batch-range", "1:2",
                               "--analytic-only",
                               "--out", "/nonexistent-dir/x.csv")
        assert code == 1
        assert "error:" in err


_POINT = "order-size = 10\nbatch-size = 4\nquantity = 50\ncrisis-prob = 0.15\n"

# Each subcommand's flags as the parser had them before the flags moved into
# one table: (long name, short spelling, default, metavar, converter name).
_PARSER_FLAGS = {
    "analytic": [
        ("--order-size", "-O", None, "N", "_integer"),
        ("--batch-size", "-B", None, "N", "_integer"),
        ("--quantity", "-Q", None, "N", "_integer"),
        ("--crisis-prob", "-p", None, "P", "_probability"),
        ("--out", None, None, "PATH", None)],
    "simulate": [
        ("--order-size", "-O", None, "N", "_integer"),
        ("--batch-size", "-B", None, "N", "_integer"),
        ("--quantity", "-Q", None, "N", "_integer"),
        ("--crisis-prob", "-p", None, "P", "_probability"),
        ("--trials", "-n", 10000, "N", "_integer"),
        ("--seed", None, 0, "N", "_integer"),
        ("--dump-trial", None, False, None, None),
        ("--out", None, None, "PATH", None)],
    "sweep": [
        ("--quantity", "-Q", None, "N", "_integer"),
        ("--crisis-prob", "-p", None, "P", "_probability"),
        ("--crisis-probs", None, None, "P1,P2,...", "_probability_list"),
        ("--order-range", None, None, "A:B", "_int_range"),
        ("--batch-range", None, None, "A:B", "_int_range"),
        ("--trials", "-n", 10000, "N", "_integer"),
        ("--seed", None, 0, "N", "_integer"),
        ("--analytic-only", None, False, None, None),
        ("--divisors-only", None, False, None, None),
        ("--out", None, None, "PATH", None)],
    "validate": [
        ("--trials", "-n", 10000, "N", "_integer"),
        ("--seed", None, 0, "N", "_integer"),
        ("--out", None, None, "PATH", None)],
    "fragments": [
        ("--order-size", "-O", None, "N", "_integer"),
        ("--batch-range", None, None, "A:B", "_int_range"),
        ("--out", None, None, "PATH", None)],
}

# A valid config value for every flag any subcommand takes.
_CONFIG_VALUES = {
    "order-size": "10", "batch-size": "4", "quantity": "50",
    "crisis-prob": "15%", "crisis-probs": "0.1,0.2", "order-range": "1:2",
    "batch-range": "1:2", "trials": "100", "seed": "3", "dump-trial": "yes",
    "analytic-only": "on", "divisors-only": "false", "out": "x.csv",
}


class TestConfigFile:
    def test_config_supplies_missing_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("quantity = 50\ncrisis-prob = 15%\n"
                       "# a comment\norder-range = 1:2\nbatch-range = 1:2\n"
                       "analytic-only = true\n", encoding="utf-8")
        path = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                             "--out", str(path))
        assert code == 0
        assert "crisis_prob=0.150000" in path.read_text()

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("order-size = 10\nbatch-size = 4\nquantity = 50\n"
                       "crisis-prob = 0.15\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "analytic", "--config", str(cfg),
                               "-B", "5")
        assert code == 0
        assert "batch_size            5" in out

    def test_unknown_key_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("order-sizes = 10\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "analytic", "--config", str(cfg))
        assert code == 2
        assert "unknown option" in err

    @pytest.mark.parametrize("command, config, key", [
        ("analytic", _POINT, "trials = lots"),
        ("analytic", _POINT, "dump-trial = maybe"),
        ("validate", "trials = 1000\n", "order-size = 10"),
        ("fragments", "order-size = 10\nbatch-range = 1:3\nout = f.csv\n",
         "seed = x"),
    ], ids=["analytic-trials", "analytic-dump-trial", "validate-order-size",
            "fragments-seed"])
    def test_key_of_another_subcommand_is_usage_error(
            self, capsys, tmp_path, monkeypatch, command, config, key):
        """A config key is accepted only where the same flag is; the rest
        of each file is a valid run of its subcommand."""
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config + key + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert f"unknown option {key.split()[0]!r}" in err

    @pytest.mark.parametrize("command", list(_PARSER_FLAGS))
    @pytest.mark.parametrize("key", list(_CONFIG_VALUES))
    def test_key_is_known_exactly_where_its_flag_is(
            self, capsys, tmp_path, command, key):
        """A trailing unknown key stops every run before it does any work;
        which key it names shows whether the flag's own key was accepted."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {_CONFIG_VALUES[key]}\nno-such-flag = 1\n",
                       encoding="utf-8")
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert code == 2
        assert out == ""
        taken = any(flag[0] == "--" + key for flag in _PARSER_FLAGS[command])
        rejected = "no-such-flag" if taken else key
        assert f"unknown option {rejected!r}" in err

    def test_missing_config_file_is_io_error(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "analytic", "--config",
                             str(tmp_path / "absent.cfg"))
        assert code == 1

    def test_bad_config_value_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("crisis-prob = 1.5\norder-size = 10\n"
                       "batch-size = 4\nquantity = 50\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "analytic", "--config", str(cfg))
        assert code == 2
        assert "crisis-prob" in err

    @pytest.mark.parametrize("command, config, flags", [
        ("sweep", "crisis-prob = 2\n",
         ["--crisis-probs", "0.1,0.2", "-Q", "30", "--order-range", "1:2",
          "--batch-range", "1:2", "--analytic-only", "--out", "s.csv"]),
        ("analytic", _POINT.replace("0.15", "1.5"), ["-p", "0.2"]),
    ], ids=["sweep-crisis-probs", "analytic-crisis-prob"])
    def test_bad_config_value_under_a_flag_is_usage_error(
            self, capsys, tmp_path, monkeypatch, command, config, flags):
        """Every config value is parsed when the file is read, so a
        malformed one fails even where a flag overrides it."""
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config, encoding="utf-8")
        code, out, err = run_cli(capsys, command, "--config", str(cfg), *flags)
        assert code == 2
        assert out == ""
        assert "config option crisis-prob:" in err
        assert list(tmp_path.iterdir()) == [cfg]


class TestValidate:
    def test_reduced_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "-n", "300", "--seed", "9")
        assert code == 0
        assert "checkpoint order=1 batch=1" in out
        assert "checkpoint order=50 batch=1" in out
        assert "threshold 6.0" in out
        assert out.strip().endswith("RESULT PASS")

    def test_out_writes_the_sweep(self, capsys, tmp_path):
        path = tmp_path / "v.csv"
        code, _, _ = run_cli(capsys, "validate", "-n", "120", "--seed", "4",
                             "--out", str(path))
        assert code == 0
        assert len(path.read_text().splitlines()) == 1 + 50 * 100 + 1


class TestDeterminismGuard:
    """Digests of stdout and of the --out files, pinned so that a kernel or
    report change that moves any simulated figure or byte shows here."""

    @pytest.mark.parametrize("argv,stdout_sha256,file_sha256", [
        (["validate", "-n", "1000", "--seed", "0", "--out", "out.csv"],
         "8e578a7066d7a22a5ea5dbeaa729e374828224fe21624b78cc60f74f49d0d40a",
         "d51a35e71798944bd4a4610f7098d43df0583eefb570cb311c624e5036ec0860"),
        (["sweep", "-Q", "60", "-p", "0.3", "--order-range", "1:20",
          "--batch-range", "1:30", "-n", "200", "--seed", "7",
          "--out", "out.csv"],
         "3ff0607681fc91b70fa66ca01062d176bc5b21358ea8bb158693dc4639307764",
         "293d9a44ac9ce1842bc6534c50c8b492ead4598ee4d5de37592e03e3871f2468"),
        (["simulate", "-O", "10", "-B", "4", "-Q", "50", "-p", "0.15",
          "-n", "2000", "--seed", "42", "--dump-trial", "--out", "out.csv"],
         "a4640578cbf07d37d60f4f4bdff113a619d7994c0b7f588111b697a72912aee3",
         "a4640578cbf07d37d60f4f4bdff113a619d7994c0b7f588111b697a72912aee3"),
        (["analytic", "-O", "7", "-B", "3", "-Q", "40", "-p", "15%",
          "--out", "out.csv"],
         "ff4864afbc83f5d476108eff4da0ccb5294f9a71be2da248688456fab452bf3a",
         "ff4864afbc83f5d476108eff4da0ccb5294f9a71be2da248688456fab452bf3a"),
        (["fragments", "-O", "10", "--batch-range", "1:20",
          "--out", "out.csv"],
         "7bf52be270ebc1463a84164ccaeb3ec3d4747df6b80598ec05b3c2a4718cd95b",
         "5ed5f55543b49ef908ed9128f939ff8dc29f8097797b253bb67df73c6663df00"),
        (["sweep", "-Q", "1000", "-p", "0.15", "--order-range", "1:1000",
          "--batch-range", "1:50", "--analytic-only", "--out", "out.csv"],
         "7bf52be270ebc1463a84164ccaeb3ec3d4747df6b80598ec05b3c2a4718cd95b",
         "b10587183447a8728d5ffaf8c76ee655692de163b33fc12a330acefe6edcff02"),
        # the horizon (6,001 batches) is longer than a chunk is wide
        (["simulate", "-O", "100", "-B", "1", "-Q", "6000", "-p", "0.2",
          "-n", "300", "--seed", "3", "--dump-trial", "--out", "out.csv"],
         "f2d415232073df66d09121b0e665fa3bbe50cc96e00c4b6c6d9a7be2d65efbce",
         "f2d415232073df66d09121b0e665fa3bbe50cc96e00c4b6c6d9a7be2d65efbce"),
        # about 37% of the 100-unit orders survive, so the order reduction
        # and the trials that finish long runs in rounds show here
        (["simulate", "-O", "100", "-B", "1", "-Q", "6000", "-p", "0.01",
          "-n", "300", "--seed", "3", "--dump-trial", "--out", "out.csv"],
         "00c204ca180a10ae51e8edc8373e36948f65228ae090138cf50cc042d4f12d32",
         "00c204ca180a10ae51e8edc8373e36948f65228ae090138cf50cc042d4f12d32"),
        # groups of both axes, with runs past the probing threshold
        (["sweep", "-Q", "300", "-p", "0.05", "--order-range", "1:300",
          "--batch-range", "1:3", "-n", "200", "--seed", "5",
          "--out", "out.csv"],
         "c300aad62d975a4ba95a4e2ea131b9c96a706f7960a34012b93634c2c12f42ce",
         "99f597cbc900b7203abd835047577c03dda64f1c4c90ee1a7bf762908a7a5fac"),
        # a batch-axis horizon of 2,001 batches whose rows repeat every two
        (["simulate", "-O", "2", "-B", "3", "-Q", "6000", "-p", "0.2",
          "-n", "300", "--seed", "3", "--out", "out.csv"],
         "ff5812878ea9497518ae125f276b9e16615bb8b05bee5164eca78ff89deaaf03",
         "ff5812878ea9497518ae125f276b9e16615bb8b05bee5164eca78ff89deaaf03"),
        # batch sizes 5 to 40 have at most 8 batches, so they read their
        # recalls from the table of every (cell, u, crisis pattern)
        (["sweep", "-Q", "30", "-p", "0.2", "--order-range", "1:30",
          "--batch-range", "1:40", "-n", "3000", "--seed", "2",
          "--out", "out.csv"],
         "10492a541c70cebee65031b416ba165076ed824aff4dd7ccae7f8af86274a0c0",
         "c4e5a65488ed41ac0ac5aa19386cae390c00b5ce05ad5bb2be1caba270fe8aee"),
    ], ids=["validate", "sweep", "simulate-dump-trial", "analytic",
            "fragments", "sweep-analytic-only", "simulate-long-horizon",
            "simulate-surviving-orders", "sweep-probing",
            "simulate-folded-batch-axis", "sweep-recall-table"])
    def test_output_digests(self, capsys, tmp_path, monkeypatch, argv,
                            stdout_sha256, file_sha256):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha256
        assert (hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest()
                == file_sha256)

    def test_probability_family_digests(self, capsys, tmp_path, monkeypatch):
        """The multi-file path: one file per crisis probability."""
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(
            capsys, "sweep", "--analytic-only", "--crisis-probs", "0.05,0.3",
            "-Q", "200", "--order-range", "1:200", "--batch-range", "1:20",
            "--out", "out.csv")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ff92999b823e498893fd5a03257e78bd7483785bbc5cf476fae3bbddadd55400")
        files = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in tmp_path.iterdir()}
        assert files == {
            "out_p0.05.csv":
                "ae65c5bd416abe48527a6f76c8bf1b6cae338c2976c4873449d9caceb7e615de",
            "out_p0.3.csv":
                "652864156ce97a210beb05f6b8dcba2209ae38dcbfe7a788120ad2a33af47a0c",
        }


class TestFragments:
    def test_single_row_curve(self, capsys, tmp_path):
        path = tmp_path / "f.csv"
        code, _, _ = run_cli(capsys, "fragments", "-O", "10",
                             "--batch-range", "4:4", "--out", str(path))
        assert code == 0
        assert path.read_text().splitlines()[1] == "4,3.250000"

    def test_twenty_row_curve(self, capsys, tmp_path):
        path = tmp_path / "f.csv"
        code, _, _ = run_cli(capsys, "fragments", "-O", "10",
                             "--batch-range", "1:20", "--out", str(path))
        assert code == 0
        assert len(path.read_text().splitlines()) == 21

    def test_missing_out_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "fragments", "-O", "10",
                               "--batch-range", "1:20")
        assert code == 2
        assert "--out" in err


class TestParserContract:
    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_version_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "batchfrag" in capsys.readouterr().out

    def test_subcommand_help_exits_cleanly(self, capsys):
        for cmd in ("analytic", "simulate", "sweep", "validate", "fragments"):
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--help"])
            assert exc.value.code == 0
            assert "--help" in capsys.readouterr().out

    def test_flag_sets_are_pinned(self):
        """Every subcommand takes the same flags, with the same spellings,
        defaults, metavars and converters, as before the flag table."""
        commands = next(action for action in cli.build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        found = {}
        for command, sub in commands.choices.items():
            found[command] = [
                (action.option_strings[-1],
                 action.option_strings[0] if len(action.option_strings) > 1
                 else None,
                 action.default, action.metavar,
                 getattr(action.type, "__name__", None))
                for action in sub._actions
                if action.dest not in ("help", "config", "version")]
        assert found == _PARSER_FLAGS
        assert set(_CONFIG_VALUES) == {
            flag[0][2:] for flags in _PARSER_FLAGS.values() for flag in flags}

    def test_console_script_is_installed(self):
        proc = subprocess.run([sys.executable, "-m", "batchfrag.cli",
                               "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "batchfrag" in proc.stdout
