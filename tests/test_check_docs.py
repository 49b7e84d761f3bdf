"""The docs drift gate: passes on the real tree, fails on doctored docs."""

import importlib.util
import shutil
from pathlib import Path

import pytest

from repro.core.instructions import INSTRUCTIONS
from repro.core.types import Op

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def check_docs():
    return _load_tool("check_docs")


@pytest.fixture(scope="module")
def surface():
    return _load_tool("surface")


class TestCheckDocs:
    def test_real_docs_are_clean(self, check_docs):
        assert check_docs.check(REPO_ROOT / "docs") == []
        assert check_docs.main(["--docs-dir", str(REPO_ROOT / "docs")]) == 0

    def test_ground_truth_is_nonempty(self, check_docs):
        metrics = check_docs.catalogue_metrics()
        assert "serving.slo.attained" in metrics
        assert "serving.router.forwarded" in metrics
        surface = dict(check_docs.cli_surface())
        assert "--deadline-ms" in surface["submit"]
        assert "--cluster-config" in surface["serve"]
        assert "rejoin" in check_docs.wire_ops() and "join" not in check_docs.wire_ops()
        assert check_docs.frame_kinds() == ["FRAME_CHUNK", "FRAME_REQUEST", "FRAME_RESPONSE"]

    def test_fails_on_doctored_docs(self, check_docs, tmp_path):
        docs = tmp_path / "docs"
        shutil.copytree(REPO_ROOT / "docs", docs)

        # Erase one item of each kind from the doctored copy.
        metrics = docs / "metrics.md"
        metrics.write_text(
            metrics.read_text().replace("serving.slo.rejected", "serving.slo.redacted")
        )
        operations = docs / "operations.md"
        operations.write_text(
            operations.read_text().replace("--deadline-ms", "--deadline-redacted")
        )
        wire = docs / "wire-protocol.md"
        wire.write_text(wire.read_text().replace("`rejoin`", "`redacted`"))

        missing = check_docs.check(docs)
        assert any("serving.slo.rejected" in item for item in missing)
        assert any("--deadline-ms" in item for item in missing)
        assert any("`rejoin`" in item for item in missing)
        assert check_docs.main(["--docs-dir", str(docs)]) == 1

    def test_a_documented_flag_must_exist(self, check_docs, tmp_path):
        docs = tmp_path / "docs"
        shutil.copytree(REPO_ROOT / "docs", docs)
        operations = docs / "operations.md"
        assert check_docs.check_stale_flags(operations.read_text()) == []
        operations.write_text(
            operations.read_text() + "\nPre-warm widths with `--precompile-widths`.\n"
        )
        assert check_docs.check(docs) == [
            "operations.md: flag '--precompile-widths' is documented but no subcommand defines it"
        ]
        assert check_docs.main(["--docs-dir", str(docs)]) == 1

    def test_a_flag_span_is_checked_by_its_name(self, check_docs):
        # A span may carry the flag's argument, and any subcommand may define it.
        text = "Run with `--quota-rps 5`, then `cluster rejoin` with `--shard 1`."
        assert check_docs.check_stale_flags(text) == []
        assert check_docs.check_stale_flags(text + " Or `--artifact-dirs /tmp/a`.") == [
            "operations.md: flag '--artifact-dirs' is documented but no subcommand defines it"
        ]

    def test_every_catalogued_metric_has_a_write_site(self, check_docs, tmp_path):
        assert check_docs.check_metric_writes(check_docs.catalogue_metrics()) == []
        (tmp_path / "writer.py").write_text(
            'inc("serving.batches")\n'
            'inc(f"serving.slo.{outcome}")\n'
            'absorb(snapshot, "serving.engine", summary)\n'
            'log(f"s{x}")\n'
        )
        names = ["serving.batches", "serving.slo.missed", "serving.engine.*", "serving.sessions"]
        assert check_docs.check_metric_writes(names, tmp_path) == [
            "telemetry catalogue: metric 'serving.sessions' has no write site under src/repro"
        ]

    def test_state_table_must_match_the_code_both_ways(self, check_docs):
        doc = (REPO_ROOT / "docs" / "wire-protocol.md").read_text()
        assert check_docs.check_state_table(doc) == []
        row = next(line for line in doc.splitlines() if line.startswith("| `FRAME_RESPONSE`"))
        assert check_docs.check_state_table(doc.replace(row + "\n", "")) == [
            "wire-protocol.md: state table lacks message kind `FRAME_RESPONSE`"
        ]
        renamed = doc.replace("`drain`, `rejoin`", "`drain`, `adopt`")
        assert check_docs.check_state_table(renamed) == [
            "wire-protocol.md: state table lacks op `rejoin`",
            "wire-protocol.md: state table names unknown op `adopt`",
        ]
        assert check_docs.check_state_table("# Wire protocol\n") == [
            "wire-protocol.md: connection state table missing"
        ]

    def test_op_table_must_match_the_rows_both_ways(self, check_docs):
        doc = (REPO_ROOT / "docs" / "wire-protocol.md").read_text()
        assert check_docs.check_op_table(doc) == []
        drain = next(line for line in doc.splitlines() if line.startswith("| `drain`"))
        for wrong in (
            drain.replace("| `shard` | |", "| | `shard` |"),  # required shown as optional
            drain.replace("| `drain` | router |", "| `drained` | router |"),  # reply key
            drain.replace("| router |", "| both |"),  # who answers
        ):
            assert wrong != drain
            (complaint,) = check_docs.check_op_table(doc.replace(drain, wrong))
            assert complaint.startswith("wire-protocol.md: op table says `drain` is (")
        # A row the code lacks, and a row the doc lacks.
        extra = drain.replace("`drain`", "`adopt`")
        assert check_docs.check_op_table(doc.replace(drain, drain + "\n" + extra)) == [
            "wire-protocol.md: op table names unknown op `adopt`"
        ]
        (missing,) = check_docs.check_op_table(doc.replace(drain + "\n", ""))
        assert missing.startswith("wire-protocol.md: op table says `drain` is None")
        assert len(check_docs.check_op_table("# Wire protocol\n")) == len(check_docs.wire_ops()) + 2

    def test_instruction_table_must_match_the_rows_both_ways(self, check_docs):
        doc = (REPO_ROOT / "docs" / "architecture.md").read_text()
        assert check_docs.check_instruction_table(doc) == []
        sub = next(line for line in doc.splitlines() if line.startswith("| `SUB`"))
        for wrong in (
            sub.replace("| 2 |", "| 1 |"),  # arity
            sub.replace("| both |", "| compiler |"),  # who emits it
            sub.replace("| — |", "| `rotation` |"),  # immediate
            sub.replace("`matched`", "`product`"),  # scale rule
            sub.replace(", `sub_plain`", ""),  # backend method
        ):
            assert wrong != sub
            (complaint,) = check_docs.check_instruction_table(doc.replace(sub, wrong))
            assert complaint.startswith("architecture.md: instruction table says `SUB` is (")
        # A row the code lacks, and a row the doc lacks.
        extra = sub.replace("`SUB`", "`NORMALIZE_SCALE`")
        assert check_docs.check_instruction_table(doc.replace(sub, sub + "\n" + extra)) == [
            "architecture.md: instruction table names unknown opcode `NORMALIZE_SCALE`"
        ]
        (missing,) = check_docs.check_instruction_table(doc.replace(sub + "\n", ""))
        assert missing.startswith("architecture.md: instruction table says `SUB` is None")
        assert check_docs.backend_methods(INSTRUCTIONS[Op.MULTIPLY]) == ["multiply", "multiply_plain"]
        assert check_docs.backend_methods(INSTRUCTIONS[Op.SUM]) == []

    def test_lifecycle_table_must_match_the_machine_both_ways(self, check_docs):
        doc = (REPO_ROOT / "docs" / "operations.md").read_text()
        assert check_docs.check_lifecycle_table(doc) == []
        row = next(line for line in doc.splitlines() if line.startswith("| `probe_failed`"))
        # The doc claims a transition the machine does not make ...
        wrong = row.replace("| — | `dead` | `drained` |", "| — | `dead` | `dead` |")
        assert wrong != row
        assert check_docs.check_lifecycle_table(doc.replace(row, wrong)) == [
            "operations.md: lifecycle table says (drained, probe_failed) -> dead, "
            "the code says drained"
        ]
        # ... drops an event the machine has ...
        assert check_docs.check_lifecycle_table(doc.replace(row + "\n", "")) == [
            f"operations.md: lifecycle table says ({state}, probe_failed) -> None, "
            f"the code says {target}"
            for state, target in (("dead", "dead"), ("drained", "drained"), ("live", "dead"))
        ]
        # ... or allows what the machine refuses.
        drain = next(line for line in doc.splitlines() if line.startswith("| `drain`"))
        allowed = drain.replace("| `drained` | `drained` | — |", "| `drained` | `drained` | `drained` |")
        assert allowed != drain
        assert check_docs.check_lifecycle_table(doc.replace(drain, allowed)) == [
            "operations.md: lifecycle table has (dead, drain) -> drained, which the code refuses"
        ]
        assert check_docs.check_lifecycle_table("# Operations\n") == [
            "operations.md: shard lifecycle table missing"
        ]

    def test_cluster_key_table_must_match_the_code_both_ways(self, check_docs):
        doc = (REPO_ROOT / "docs" / "operations.md").read_text()
        assert check_docs.check_cluster_table(doc) == []
        # A key the code no longer takes, still offered by the docs ...
        stale = doc.replace("| `shards`, `start_timeout`", "| `shards`, `replicas`, `start_timeout`")
        assert stale != doc
        assert check_docs.check_cluster_table(stale) == [
            "operations.md: [cluster] table names `replicas`, which the code does not take"
        ]
        # ... a field the code takes that the docs leave out ...
        fairness = next(line for line in doc.splitlines() if line.startswith("| `fairness`"))
        assert check_docs.check_cluster_table(doc.replace(fairness, "| `fairness` | quotas |")) == [
            f"operations.md: [cluster] `fairness` row lacks `{name}`"
            for name in ("burst", "max_inflight", "quota_rps")
        ]
        # ... and a retired sub-table named in a row.
        retired = doc.replace(fairness, fairness.replace("`max_inflight`", "`max_inflight`, `weights`"))
        assert check_docs.check_cluster_table(retired) == [
            "operations.md: [cluster] `fairness` row names `weights`, which the code does not take"
        ]
        assert check_docs.check_cluster_table("# Operations\n") == [
            "operations.md: [cluster] key table missing"
        ]

    def test_fails_on_missing_doc_file(self, check_docs, tmp_path):
        docs = tmp_path / "docs"
        shutil.copytree(REPO_ROOT / "docs", docs)
        (docs / "wire-protocol.md").unlink()
        missing = check_docs.check(docs)
        assert any("file missing" in item for item in missing)


class TestSurface:
    """tools/surface.py: the line and option counts, and their committed ceilings."""

    def test_counts_come_from_the_code(self, surface):
        report = surface.measure(REPO_ROOT)
        assert report["src_lines"] == sum(report["src_lines_by_package"].values()) > 10_000
        assert report["src_lines_by_package"]["repro.serving"] > 1_000
        # EvaCluster: its five own parameters plus the fields of the recipe.
        options = surface.constructor_options()
        own = [name for name in options["EvaCluster"] if not name.startswith("recipe.")]
        assert own == ["shards", "start_timeout", "request_timeout", "retries", "health_interval"]
        assert "recipe.backend" in options["EvaCluster"]
        assert "recipe.log_level" in options["EvaCluster"]
        assert set(options) == {"EvaServer", "JobEngine", "EvaCluster", "EvaluationEngine", "Evaluator"}
        flags = surface.cli_flags()
        assert "--cluster-config" in flags["serve"] and flags["info"] == []
        assert report["cli_flags_total"] == sum(len(names) for names in flags.values())
        assert report["options_without_config_fields"] == (
            sum(len(names) for names in options.values())
            + report["cli_flags_total"]
            + len(report["environ_reads"])
        )
        # Each field of a config object is an option too.
        configs = surface.config_fields()
        assert "lane_width" in configs["CompilerOptions"] and "seed" in configs["BackendSpec"]
        assert set(configs) == {"CompilerOptions", "FairnessPolicy", "BackendSpec"}
        assert report["options"] == report["options_without_config_fields"] + sum(
            len(names) for names in configs.values()
        )

    def test_check_passes_on_the_tree_and_fails_past_a_ceiling(self, surface, tmp_path, capsys):
        assert surface.main(["--check"]) == 0
        limits = surface.ceilings(REPO_ROOT)
        report = surface.measure(REPO_ROOT)
        assert report["src_lines"] <= limits["max_src_lines"]
        assert report["options"] <= limits["max_options"]
        # A checkout whose ceilings are one line too low fails, naming the count.
        (tmp_path / "src").symlink_to(REPO_ROOT / "src")
        (tmp_path / "pyproject.toml").write_text(
            f"[tool.repro.surface]\nmax_src_lines = {report['src_lines'] - 1}\n"
            f"max_options = {report['options']}\n"
        )
        capsys.readouterr()
        assert surface.main(["--check", "--root", str(tmp_path)]) == 1
        assert f"src_lines = {report['src_lines']} exceeds" in capsys.readouterr().err

    def test_environ_reads_are_found(self, surface, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("import os\nX = os.environ.get('X')\n")
        assert surface.environ_reads(tmp_path) == ["pkg/mod.py:2"]
