"""The docs drift gate: passes on the real tree, fails on doctored docs."""

import importlib.util
import shutil
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCheckDocs:
    def test_real_docs_are_clean(self, check_docs):
        assert check_docs.check(REPO_ROOT / "docs") == []
        assert check_docs.main(["--docs-dir", str(REPO_ROOT / "docs")]) == 0

    def test_ground_truth_is_nonempty(self, check_docs):
        metrics = check_docs.catalogue_metrics()
        assert "serving.slo.attained" in metrics
        assert "cluster.scale.up" in metrics
        surface = dict(check_docs.cli_surface())
        assert "--deadline-ms" in surface["submit"]
        assert "--cluster-config" in surface["serve"]
        assert "join" in check_docs.wire_ops()
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
        wire.write_text(wire.read_text().replace("`join`", "`redacted`"))

        missing = check_docs.check(docs)
        assert any("serving.slo.rejected" in item for item in missing)
        assert any("--deadline-ms" in item for item in missing)
        assert any("`join`" in item for item in missing)
        assert check_docs.main(["--docs-dir", str(docs)]) == 1

    def test_state_table_must_match_the_code_both_ways(self, check_docs):
        doc = (REPO_ROOT / "docs" / "wire-protocol.md").read_text()
        assert check_docs.check_state_table(doc) == []
        row = next(line for line in doc.splitlines() if line.startswith("| `FRAME_RESPONSE`"))
        assert check_docs.check_state_table(doc.replace(row + "\n", "")) == [
            "wire-protocol.md: state table lacks message kind `FRAME_RESPONSE`"
        ]
        assert check_docs.check_state_table(doc.replace("`rejoin`, `join`", "`rejoin`, `adopt`")) == [
            "wire-protocol.md: state table lacks op `join`",
            "wire-protocol.md: state table names unknown op `adopt`",
        ]
        assert check_docs.check_state_table("# Wire protocol\n") == [
            "wire-protocol.md: connection state table missing"
        ]

    def test_feature_table_must_match_the_code_both_ways(self, check_docs):
        doc = (REPO_ROOT / "docs" / "wire-protocol.md").read_text()
        assert check_docs.check_feature_table(doc) == []
        assert check_docs.check_feature_table(doc.replace("| `seeded` |", "| `sprouted` |")) == [
            "wire-protocol.md: feature table lacks `seeded`",
            "wire-protocol.md: feature table names unknown feature `sprouted`",
        ]
        assert check_docs.check_feature_table("# Wire protocol\n") == [
            "wire-protocol.md: feature table lacks `seeded`"
        ]

    def test_fails_on_missing_doc_file(self, check_docs, tmp_path):
        docs = tmp_path / "docs"
        shutil.copytree(REPO_ROOT / "docs", docs)
        (docs / "wire-protocol.md").unlink()
        missing = check_docs.check(docs)
        assert any("file missing" in item for item in missing)
