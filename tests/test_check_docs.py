"""Tests for tools/check_docs.py (docs consistency checker)."""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402


def _write(root: Path, relpath: str, text: str) -> Path:
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


class TestLinks:
    def test_dead_relative_link_reported(self, tmp_path):
        _write(tmp_path, "docs/index.md", "[gone](missing.md)\n")
        problems = check_docs.check_links(
            tmp_path, check_docs.doc_files(tmp_path)
        )
        assert problems == ["docs/index.md: dead link -> missing.md"]

    def test_live_external_and_fragment_links_pass(self, tmp_path):
        _write(tmp_path, "docs/other.md", "# other\n")
        _write(
            tmp_path,
            "docs/index.md",
            "[ok](other.md) [web](https://example.com) [frag](#section) "
            "[sub](other.md#part)\n",
        )
        assert check_docs.check_links(
            tmp_path, check_docs.doc_files(tmp_path)
        ) == []

    def test_image_links_are_ignored(self, tmp_path):
        _write(tmp_path, "docs/index.md", "![shot](missing.png)\n")
        assert check_docs.check_links(
            tmp_path, check_docs.doc_files(tmp_path)
        ) == []


class TestModuleReferences:
    def test_stale_module_reported(self, tmp_path):
        _write(tmp_path, "src/repro/__init__.py", "")
        _write(tmp_path, "src/repro/real.py", "x = 1\n")
        _write(
            tmp_path,
            "docs/index.md",
            "see repro.real and repro.not_a_module\n",
        )
        problems = check_docs.check_module_references(
            tmp_path, check_docs.doc_files(tmp_path)
        )
        assert problems == [
            "docs/index.md: stale reference repro.not_a_module"
        ]

    def test_real_repo_references_resolve(self):
        files = check_docs.doc_files(REPO_ROOT)
        assert files  # docs/ exists and is covered
        assert check_docs.check_module_references(REPO_ROOT, files) == []

    def test_attribute_references_checked_via_import(self):
        assert check_docs._resolve_module(REPO_ROOT, "analysis.runner.run_grid")
        assert not check_docs._resolve_module(
            REPO_ROOT, "analysis.runner.run_gird"
        )


class TestIndexReachability:
    def test_unreachable_page_reported(self, tmp_path):
        _write(tmp_path, "docs/index.md", "[a](a.md)\n")
        _write(tmp_path, "docs/a.md", "# a\n")
        _write(tmp_path, "docs/orphan.md", "# nobody links here\n")
        assert check_docs.check_index_reachability(tmp_path) == [
            "docs/orphan.md: not reachable from docs/index.md"
        ]

    def test_transitive_reachability(self, tmp_path):
        _write(tmp_path, "docs/index.md", "[a](a.md)\n")
        _write(tmp_path, "docs/a.md", "[b](b.md)\n")
        _write(tmp_path, "docs/b.md", "# b\n")
        assert check_docs.check_index_reachability(tmp_path) == []

    def test_missing_index_reported(self, tmp_path):
        _write(tmp_path, "docs/a.md", "# a\n")
        assert check_docs.check_index_reachability(tmp_path) == [
            "docs/index.md is missing"
        ]


class TestCliSubcommands:
    COMMANDS = {
        "map": frozenset(),
        "serve": frozenset(),
        "obs": frozenset({"tail", "timeline"}),
    }

    def test_unknown_subcommand_reported(self, tmp_path):
        _write(
            tmp_path,
            "docs/index.md",
            "run `repro nosuch --help` or python -m repro map\n",
        )
        problems = check_docs.check_cli_subcommands(
            tmp_path, check_docs.doc_files(tmp_path), self.COMMANDS
        )
        assert problems == [
            "docs/index.md: unknown CLI subcommand 'repro nosuch'"
        ]

    def test_nested_subcommand_checked(self, tmp_path):
        _write(
            tmp_path,
            "docs/index.md",
            "$ repro obs timeline trace.jsonl\n$ repro obs nosub x\n",
        )
        problems = check_docs.check_cli_subcommands(
            tmp_path, check_docs.doc_files(tmp_path), self.COMMANDS
        )
        assert problems == [
            "docs/index.md: unknown CLI subcommand 'repro obs nosub'"
        ]

    def test_non_command_contexts_ignored(self, tmp_path):
        _write(
            tmp_path,
            "docs/index.md",
            # Dotted module references, the bare CLI name, option-only
            # invocations and prose all stay out of scope.
            "repro.serve.models has the schema; the `repro` CLI; "
            "python -m repro --help; import repro nosuch\n",
        )
        assert check_docs.check_cli_subcommands(
            tmp_path, check_docs.doc_files(tmp_path), self.COMMANDS
        ) == []

    def test_fabricated_repo_without_cli_skips(self, tmp_path):
        _write(tmp_path, "docs/index.md", "python -m repro nosuch\n")
        assert check_docs.cli_subcommands(tmp_path) is None
        assert check_docs.check_cli_subcommands(
            tmp_path, check_docs.doc_files(tmp_path)
        ) == []

    def test_real_parser_map_includes_serve(self):
        commands = check_docs.cli_subcommands(REPO_ROOT)
        assert commands is not None
        for name in ("map", "iterate", "study", "run-grid", "bench",
                     "run-rolling", "serve", "serve-load"):
            assert name in commands, name
        assert "timeline" in commands["obs"]

    def test_real_repo_cli_mentions_resolve(self):
        files = check_docs.doc_files(REPO_ROOT)
        assert check_docs.check_cli_subcommands(REPO_ROOT, files) == []


class TestCliFlags:
    OPTIONS = {
        ("bench", None): frozenset({"--help", "--smoke", "--backend"}),
        ("obs", None): frozenset({"--help"}),
        ("obs", "timeline"): frozenset({"--help", "--width"}),
    }

    def _problems(self, tmp_path, text):
        _write(tmp_path, "docs/index.md", text)
        return check_docs.check_cli_flags(
            tmp_path, check_docs.doc_files(tmp_path), self.OPTIONS
        )

    def test_stale_flag_reported(self, tmp_path):
        assert self._problems(
            tmp_path, "run `repro bench --smoke --batch-size 4` first\n"
        ) == ["docs/index.md: 'repro bench' has no option --batch-size"]

    def test_valid_flags_pass(self, tmp_path):
        # Nested groups take their own options; ``=value`` forms, text
        # after a closing backtick and piped commands are not checked.
        assert self._problems(
            tmp_path,
            "`repro bench --backend=reference` then --other\n"
            "$ repro obs timeline t.jsonl --width 80 | head --lines 3\n"
            "$ repro bench --smoke  # not --checked\n",
        ) == []

    def test_continued_line_joins_one_invocation(self, tmp_path):
        assert self._problems(
            tmp_path,
            "python -m repro obs timeline t.jsonl \\\n"
            "    --width 80 \\\n"
            "    --follow\n"
            "--not-part-of-it\n",
        ) == ["docs/index.md: 'repro obs timeline' has no option --follow"]

    def test_fabricated_repo_without_cli_skips(self, tmp_path):
        _write(tmp_path, "docs/index.md", "python -m repro bench --nope\n")
        assert check_docs.cli_options(tmp_path) is None
        assert check_docs.check_cli_flags(
            tmp_path, check_docs.doc_files(tmp_path)
        ) == []

    def test_real_option_map_covers_nested_and_top_level(self):
        options = check_docs.cli_options(REPO_ROOT)
        assert "--smoke" in options[("bench", None)]
        assert "--batch-size" not in options[("bench", None)]
        assert options[("obs", None)] <= options[("obs", "timeline")]
        assert "--help" in options[("run-grid", None)]


class TestApiTable:
    API = (
        "## `repro.analysis`\n\n"
        "| name | role |\n|---|---|\n"
        "| `run_grid`, `format_*_table`, `experiments.config_to_dict` | ok |\n"
        "| `run_experiment_parallel`, `config_to_dict` | stale | `x` |\n\n"
        "## `repro.obs`\n\n"
        "| `use_tracer`, `fingerprint` | half stale |\n\n"
        "## CLI\n\n"
        "| `not_a_module_section` | skipped |\n"
    )

    def test_stale_names_reported(self, tmp_path):
        (tmp_path / "src").symlink_to(REPO_ROOT / "src")
        _write(tmp_path, "docs/api.md", self.API)
        assert check_docs.check_api_table(tmp_path) == [
            "docs/api.md: `run_experiment_parallel` is not an attribute of "
            "repro.analysis",
            "docs/api.md: `config_to_dict` is not an attribute of repro.analysis",
            "docs/api.md: `fingerprint` is not an attribute of repro.obs",
        ]

    def test_fabricated_repo_without_sources_skips(self, tmp_path):
        _write(tmp_path, "docs/api.md", self.API)
        assert check_docs.check_api_table(tmp_path) == []

    def test_real_api_table_resolves(self):
        assert check_docs.check_api_table(REPO_ROOT) == []


class TestEndToEnd:
    def test_real_repo_is_consistent(self):
        assert check_docs.run_checks(REPO_ROOT) == []

    def test_main_exit_codes(self, tmp_path, capsys):
        _write(tmp_path, "docs/index.md", "[gone](missing.md)\n")
        assert check_docs.main([str(tmp_path)]) == 1
        assert "dead link" in capsys.readouterr().err

        _write(tmp_path, "docs/index.md", "all good\n")
        assert check_docs.main([str(tmp_path)]) == 0
        assert "OK" in capsys.readouterr().out
