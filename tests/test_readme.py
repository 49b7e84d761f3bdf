"""The README's code runs.

The quickstart block and the ``Executor`` migration block after it are run
in one namespace (the second uses the first's ``compiled``), in a temporary
working directory because the quickstart saves ``squares.cp.json``.  The
``EvaCluster`` block spawns shard processes and is not run here.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_quickstart_and_migration_blocks_run(tmp_path, monkeypatch, capsys):
    quickstart, migration = python_blocks()[:2]
    assert "EvaServer" in quickstart and "Executor" in migration
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme"}
    exec(compile(quickstart, "README.md:quickstart", "exec"), namespace)
    assert (tmp_path / "squares.cp.json").exists()
    assert capsys.readouterr().out.startswith("[")
    xs = np.linspace(-1, 1, 8)
    want = xs**2 + xs
    decrypted = namespace["client"].decrypt_outputs(namespace["reply"].outputs)
    np.testing.assert_allclose(decrypted["out"], want, atol=1e-3)
    exec(compile(migration, "README.md:migration", "exec"), namespace)
    np.testing.assert_allclose(namespace["result"]["out"], want, atol=1e-3)
