"""The one TOML loader: the 3.10 subset parser must agree with ``tomllib``."""

import re
from pathlib import Path

import pytest

from repro import tomlcompat
from repro.errors import ServingError
from repro.serving import EvaCluster, load_cluster_config

REPO_ROOT = Path(__file__).resolve().parent.parent


def documented_cluster_config():
    """The ```toml block of docs/operations.md (the cluster-config example)."""
    text = (REPO_ROOT / "docs" / "operations.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```toml\n(.*?)```", text, flags=re.DOTALL)
    assert len(blocks) == 1, "docs/operations.md should carry one TOML example"
    return blocks[0]


REAL_DOCUMENTS = {
    "gates.toml": lambda: (REPO_ROOT / "benchmarks" / "gates.toml").read_text("utf-8"),
    "operations.md example": documented_cluster_config,
}


@pytest.mark.parametrize("name", sorted(REAL_DOCUMENTS))
def test_fallback_agrees_with_tomllib_on_the_repos_toml(name):
    tomllib = pytest.importorskip("tomllib")
    text = REAL_DOCUMENTS[name]()
    assert tomlcompat._parse_toml_minimal(text) == tomllib.loads(text)
    assert tomlcompat.loads(text) == tomllib.loads(text)


def test_fallback_subset():
    parsed = tomlcompat._parse_toml_minimal(
        "# leading comment\n"
        "[a.b]  # dotted table\n"
        'name = "x # not a comment"  # a comment\n'
        "ratio = 0.5\n"
        "on = true\n"
        "tags = ['one', \"two\"]\n"
        "empty = []\n"
        "[[item]]\nn = 1\n[[item]]\nn = -2\n"
    )
    assert parsed == {
        "a": {"b": {"name": "x # not a comment", "ratio": 0.5, "on": True,
                    "tags": ["one", "two"], "empty": []}},
        "item": [{"n": 1}, {"n": -2}],
    }


@pytest.mark.parametrize("bad", ["[cluster\nshards = 1\n", "shards\n", "x = nope\n"])
def test_malformed_input_is_a_value_error_on_both_paths(bad, tmp_path):
    with pytest.raises(ValueError):
        tomlcompat._parse_toml_minimal(bad)
    with pytest.raises(ValueError):
        tomlcompat.loads(bad)
    config = tmp_path / "cluster.toml"
    config.write_text(bad)
    with pytest.raises(ServingError, match="malformed cluster config"):
        load_cluster_config(config)


def test_documented_cluster_config_loads(tmp_path):
    config = tmp_path / "cluster.toml"
    config.write_text(documented_cluster_config())
    parsed = load_cluster_config(config)
    assert parsed["cluster"] == {
        "shards": 2, "batch_window": 0.01, "backend": "mock-exact",
        "fairness": {"quota_rps": 20.0, "max_inflight": 8, "slo_classes": {"trader": "tight"}},
    }  # fmt: skip
    # ... which is exactly what EvaCluster takes: its own arguments plus recipe fields.
    recipe = EvaCluster(**parsed["cluster"]).recipe
    assert recipe.backend.name == "mock-exact" and recipe.fairness.slo_classes == {"trader": "tight"}
    assert parsed["remote"] == [("10.0.0.5", 7001)]
    assert parsed["scale"].high_queue_depth == 32 and parsed["scale_interval"] == 1.0
