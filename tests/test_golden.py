"""Same seed, same bytes: shipped grid outputs against recorded digests.

``tests/data/golden.json`` lists CLI runs and the sha256 of every file each
one writes into ``{out}`` (``meta.json``, which holds timings, aside), with
the numpy version that made them. A run may list ``setup`` commands that
write its inputs into ``{work}`` first; their files are not digested. Each
run is repeated in process through ``cli.main``. numpy does not promise the
same random streams across versions (NEP 19), so the check is skipped when
numpy's major.minor differs from the recorded one.

A change that means to alter an output records the new digests in the same
commit, from the repository root::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fuzzoracle import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden.json"


def _minor(version: str) -> str:
    return ".".join(version.split(".")[:2])


def run_digests(argv, out: Path, setup=()) -> dict:
    """sha256 of each file the run ``argv`` writes into ``out``, by name,
    after the ``setup`` commands have written into ``out``'s sibling
    ``work``."""
    out.mkdir(parents=True)
    for command in (*setup, argv):
        args = [arg.format(root=ROOT, out=out, work=out.parent / "work") for arg in command]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            status = cli.main(args)
        assert status in (cli.EXIT_NON_BUGGY, cli.EXIT_BUGGY), f"{command} exited {status}"
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.name != "meta.json"
    }


with open(GOLDEN, encoding="utf-8") as _fh:
    RECORDED = json.load(_fh)


@pytest.mark.parametrize("name", sorted(RECORDED["runs"]))
def test_outputs_match_recorded_digests(name, tmp_path):
    if _minor(np.__version__) != _minor(RECORDED["numpy"]):
        pytest.skip(f"digests made with numpy {RECORDED['numpy']}, running numpy {np.__version__}")
    run = RECORDED["runs"][name]
    assert run_digests(run["argv"], tmp_path / "out", run.get("setup", ())) == run["digests"]


def main() -> None:
    """Rewrite the digests of every run in ``golden.json`` from this checkout."""
    with tempfile.TemporaryDirectory() as scratch:
        for i, run in enumerate(RECORDED["runs"].values()):
            out = Path(scratch) / str(i) / "out"
            run["digests"] = run_digests(run["argv"], out, run.get("setup", ()))
    RECORDED["numpy"] = np.__version__
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(RECORDED, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
