"""Tests for the CLI and hierarchical helpers."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.kokkos.hierarchy import (parallel_for_team, team_reduce,
                                    team_thread_range,
                                    thread_vector_range)
from repro.kokkos.policy import TeamMember, TeamPolicy
from repro.kokkos.execution import Serial


class TestHierarchy:
    def test_team_thread_range_partitions(self):
        policy = TeamPolicy(4, 2, space=Serial())
        members = list(policy.members())
        chunks = [team_thread_range(m, 10, 110) for m in members]
        total = np.concatenate(chunks)
        assert np.array_equal(total, np.arange(10, 110))

    def test_team_thread_range_validates(self):
        m = TeamMember(0, 1, 1, np.arange(1))
        with pytest.raises(ValueError):
            team_thread_range(m, 5, 3)

    def test_thread_vector_range_batches(self):
        batches = thread_vector_range(np.arange(10), 4)
        assert len(batches) == 3
        assert np.array_equal(np.concatenate(batches), np.arange(10))

    def test_thread_vector_range_empty(self):
        assert thread_vector_range(np.zeros(0, dtype=np.int64), 4) == []

    def test_thread_vector_range_bad_width(self):
        with pytest.raises(ValueError):
            thread_vector_range(np.arange(4), 0)

    def test_team_reduce_accumulates(self):
        m = TeamMember(0, 1, 4, np.arange(4))
        assert team_reduce(m, 3.0) == 3.0
        assert team_reduce(m, 2.0) == 5.0
        assert team_reduce(m, 7.0, op="max") == 7.0
        with pytest.raises(ValueError):
            team_reduce(m, 1.0, op="xor")

    def test_parallel_for_team_covers_work(self):
        policy = TeamPolicy(3, 2, space=Serial())
        seen = []
        parallel_for_team(policy, 11,
                          lambda m, idx: seen.append(idx))
        assert np.array_equal(np.concatenate(seen), np.arange(11))

    def test_parallel_for_team_negative_work(self):
        policy = TeamPolicy(2, 2, space=Serial())
        with pytest.raises(ValueError):
            parallel_for_team(policy, -1, lambda m, i: None)


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
