"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "tpch-q1" in out and "wordcount" in out
        assert "iceclave" in out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "1.00 TB" in out
        assert "channels" in out

    def test_info_respects_flags(self, capsys):
        assert main(["info", "--channels", "16"]) == 0
        out = capsys.readouterr().out
        assert ": 16" in out

    def test_run_default_scheme(self, capsys):
        assert main(["run", "filter", "--dataset-gb", "1"]) == 0
        out = capsys.readouterr().out
        assert "filter on iceclave" in out
        assert "security" in out

    def test_run_verbose_stats(self, capsys):
        assert main(["run", "filter", "--dataset-gb", "1", "-v"]) == 0
        out = capsys.readouterr().out
        assert "translation_miss_rate" in out

    def test_run_unknown_workload(self, capsys):
        assert main(["run", "sorting"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_compare(self, capsys):
        assert main(["compare", "aggregate", "--dataset-gb", "2"]) == 0
        out = capsys.readouterr().out
        for scheme in ("host", "host+sgx", "isc", "iceclave"):
            assert scheme in out
        assert "security overhead" in out

    def test_sweep_channels(self, capsys):
        assert main(["sweep", "channels", "filter", "--dataset-gb", "2"]) == 0
        out = capsys.readouterr().out
        assert "4ch" in out and "32ch" in out

    def test_sweep_dram(self, capsys):
        assert main(["sweep", "dram", "tpcc", "--dataset-gb", "8"]) == 0
        out = capsys.readouterr().out
        assert "2GB" in out and "8GB" in out

    def test_sweep_latency(self, capsys):
        assert main(["sweep", "latency", "aggregate", "--dataset-gb", "2"]) == 0
        out = capsys.readouterr().out
        assert "10us" in out and "110us" in out

    def test_bad_scheme_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "filter", "--scheme", "gpu"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_chaos_rejects_platform_flags(self, capsys):
        # chaos never builds a PlatformConfig, so it takes no platform flags
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "tpch-q1", "--channels", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --channels 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["info", "--channels", "0"],
            ["info", "--dram-gb", "0"],
            ["info", "--dataset-gb", "0"],
            ["info", "--flash-latency-us", "0"],
            ["info", "--channels", "-2"],
            ["info", "--dram-gb", "-4"],
            ["info", "--dataset-gb", "-1"],
            ["info", "--flash-latency-us", "-5"],
            ["run", "filter", "--dataset-gb", "-1"],
            ["profile", "filter", "--top", "0"],
            ["soak", "tpch-q1", "--campaigns", "0"],
        ],
        ids=lambda argv: "_".join(arg.removeprefix("--") for arg in argv),
    )
    def test_non_positive_number_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {argv[-2]}: must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["resilience", "--seed", "7", "--quick"], "--csv"),
            (["serve-lab", "--seed", "7", "--quick"], "--json"),
            (["fleet-lab", "--seed", "42", "--quick"], "--csv"),
            (["soak", "tpch-q1", "--ops", "50"], "--csv"),
        ],
        ids=["resilience", "serve-lab", "fleet-lab", "soak"],
    )
    def test_unwritable_export_fails_before_the_run(
        self, capsys, monkeypatch, tmp_path, argv, flag
    ):
        monkeypatch.chdir(tmp_path)  # soak's default --state-dir lands here
        open("blocker", "w").close()  # a file where the export's directory should be
        assert main(argv + [flag, "blocker/out"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot write blocker/out: ")
