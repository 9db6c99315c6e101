"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["tune", "A100"])
        assert args.platform == "A100"

    def test_platforms_command(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "A100" in out and "Grace" in out

    def test_tune_command(self, capsys):
        assert main(["tune", "A100", "--grid-points", "85184"]) == 0
        out = capsys.readouterr().out
        assert "superlinear" in out

    def test_tune_host(self, capsys):
        assert main(["tune", "host"]) == 0
        assert "sort plan" in capsys.readouterr().out

    def test_run_deck_small(self, capsys):
        assert main(["run-deck", "uniform", "--steps", "2",
                     "--timings"]) == 0
        out = capsys.readouterr().out
        assert "step 2" in out
        assert "push/electron" in out

    def test_scaling_command(self, capsys):
        assert main(["scaling", "Sierra"]) == 0
        assert "speedup" in capsys.readouterr().out

    def test_checkpoint_command(self, tmp_path, capsys):
        path = str(tmp_path / "ck.npz")
        assert main(["checkpoint", "uniform", path, "--steps", "2"]) == 0
        assert "identical = True" in capsys.readouterr().out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
