"""CLI tests (parser wiring and the cheap commands)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_navigate_defaults(self):
        args = build_parser().parse_args(["navigate"])
        assert args.dataset == "reddit2"
        assert args.priority == "balance"

    def test_navigate_constraints(self):
        args = build_parser().parse_args(
            ["navigate", "--max-memory-mib", "16", "--min-accuracy", "0.7"]
        )
        assert args.max_memory_mib == 16.0
        assert args.min_accuracy == 0.7

    def test_rejects_unknown_arch(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["navigate", "--arch", "transformer"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("command", ["navigate", "templates"])
    def test_there_is_no_kernel_option(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--kernel", "reference"])
        assert "--kernel" in capsys.readouterr().err


class TestCommands:
    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("ogbn-arxiv", "ogbn-products", "reddit", "reddit2"):
            assert name in out

    def test_templates_tiny_run(self, capsys, monkeypatch, small_graph):
        # Redirect the dataset loader so the command runs on the test fixture.
        import repro.runtime.backend as backend_mod

        monkeypatch.setattr(
            backend_mod, "load_dataset", lambda name: small_graph
        )
        assert main(["templates", "--dataset", "reddit2", "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "pyg" in out and "2pgraph" in out
