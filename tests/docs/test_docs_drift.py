"""Docs-drift guards: the README must track the tree it describes.

Four invariants:

1. every ``docs/*.md`` file is linked (by name) from the README, so new
   documents cannot silently fall out of the entry point;
2. every CLI subcommand the README advertises exists in ``cli.py``, and
   every top-level subcommand ``cli.py`` registers is mentioned in the
   README — the two lists cannot drift apart;
3. the README architecture tree names exactly the packages that exist
   under ``src/repro`` (no phantom entries, no undocumented packages);
4. the verdict table embedded in ``docs/TOPOLOGY.md`` equals what the
   CDG analyzer and queue-bound certifier currently prove — the one
   check here that runs the analyzers rather than comparing text.
"""

import pathlib
import re

REPO_ROOT = pathlib.Path(__file__).parents[2]
README = (REPO_ROOT / "README.md").read_text()
CLI_SOURCE = (REPO_ROOT / "src/repro/cli.py").read_text()

#: Top-level subcommands registered on the main subparser (``sub``); the
#: ``campaign_sub`` nested verbs are namespaced under ``campaign``.
CLI_SUBCOMMANDS = re.findall(r'\bsub\.add_parser\(\s*"([a-z0-9-]+)"', CLI_SOURCE)


class TestDocsLinked:
    def test_docs_directory_is_nonempty(self):
        assert (REPO_ROOT / "docs").is_dir()
        assert list((REPO_ROOT / "docs").glob("*.md"))

    def test_every_docs_file_is_referenced_from_readme(self):
        missing = [
            doc.name
            for doc in sorted((REPO_ROOT / "docs").glob("*.md"))
            if doc.name not in README
        ]
        assert missing == [], f"docs not referenced from README.md: {missing}"

    def test_top_level_trackers_referenced_from_readme(self):
        for name in ("EXPERIMENTS.md", "DESIGN.md"):
            assert (REPO_ROOT / name).exists()
            assert name in README, f"{name} not referenced from README.md"


class TestCliListMatches:
    def test_cli_registers_expected_commands(self):
        # Regex sanity: the extraction found the real subparser list.
        assert "route" in CLI_SUBCOMMANDS and "faults" in CLI_SUBCOMMANDS
        assert len(CLI_SUBCOMMANDS) == len(set(CLI_SUBCOMMANDS))

    def test_every_cli_subcommand_is_in_readme(self):
        """Each subcommand appears in a synopsis list or a `repro X` usage."""
        documented = set(re.findall(r"python -m repro ([a-z0-9-]+)", README))
        for blob in re.findall(r"python -m repro \{([^}]*)\}", README):
            documented.update(
                n.strip() for n in blob.replace("\n", " ").split(",")
            )
        missing = [name for name in CLI_SUBCOMMANDS if name not in documented]
        assert missing == [], f"cli.py subcommands absent from README.md: {missing}"

    def test_readme_brace_list_matches_cli(self):
        """The `python -m repro {...}` lists name only real subcommands."""
        brace_lists = re.findall(r"python -m repro \{([^}]*)\}", README)
        assert brace_lists, "README lost its `python -m repro {...}` synopsis"
        for blob in brace_lists:
            names = [n.strip() for n in blob.replace("\n", " ").split(",")]
            unknown = [n for n in names if n and n not in CLI_SUBCOMMANDS]
            assert unknown == [], f"README lists unknown subcommands: {unknown}"


class TestArchitectureTree:
    """The fenced tree under `## Architecture` vs the real src/repro."""

    def _tree_entries(self):
        section = README.split("## Architecture", 1)[1]
        block = section.split("```", 2)[1]
        # Top-level entries are indented exactly two spaces under src/repro/:
        # package dirs as `name/`, modules as `name.py`.
        return set(re.findall(r"^  ([a-z_]+(?:/|\.py))", block, re.MULTILINE))

    def _real_entries(self):
        src = REPO_ROOT / "src" / "repro"
        entries = set()
        for path in src.iterdir():
            if path.is_dir() and (path / "__init__.py").exists():
                entries.add(path.name + "/")
            elif path.suffix == ".py" and path.name not in (
                "__init__.py",
                "__main__.py",
            ):
                entries.add(path.name)
        return entries

    def test_tree_matches_source_layout(self):
        documented, real = self._tree_entries(), self._real_entries()
        assert documented - real == set(), (
            f"README architecture tree names entries that do not exist: "
            f"{sorted(documented - real)}"
        )
        assert real - documented == set(), (
            f"src/repro entries missing from the README architecture tree: "
            f"{sorted(real - documented)}"
        )


class TestTopologyVerdictTable:
    """docs/TOPOLOGY.md's embedded table must equal the analyzers' output."""

    MARKER_BEGIN = "<!-- verdict-table:begin -->"
    MARKER_END = "<!-- verdict-table:end -->"

    def test_table_matches_regenerated(self):
        from repro.analysis.static_check import verdict_table_markdown

        doc = (REPO_ROOT / "docs" / "TOPOLOGY.md").read_text()
        assert self.MARKER_BEGIN in doc and self.MARKER_END in doc, (
            "docs/TOPOLOGY.md lost its verdict-table markers"
        )
        embedded = doc.split(self.MARKER_BEGIN, 1)[1].split(self.MARKER_END, 1)[0]
        assert embedded.strip() == verdict_table_markdown().strip(), (
            "docs/TOPOLOGY.md verdict table is stale; regenerate with "
            "`python -m repro analyze cdg --format markdown --k 2` and paste "
            "it between the verdict-table markers"
        )

    def test_topology_doc_linked_from_model_and_analysis(self):
        for name in ("MODEL.md", "ANALYSIS.md"):
            text = (REPO_ROOT / "docs" / name).read_text()
            assert "TOPOLOGY.md" in text, f"docs/{name} lost its TOPOLOGY.md link"
