"""Golden snapshots: committed files must load, answer, and re-save
byte-for-byte.

The fixtures under ``fixtures/golden`` (a flat v2 file and a dynamic
manifest directory with delta inserts and tombstones) and their answer
table are written by ``fixtures/make_golden.py``.  A failure here means
the on-disk format or the answers moved; if that is intended, rerun the
generator and commit its output.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro import SignatureBatch, load_ensemble, save_ensemble

GOLDEN = Path(__file__).with_name("fixtures") / "golden"
REGENERATE = ("rerun `PYTHONPATH=src python "
              "tests/integration/fixtures/make_golden.py` if the change "
              "is intended")
SNAPSHOTS = {"flat": "flat.lshe", "manifest": "manifest"}


@pytest.fixture(scope="module")
def golden():
    spec = json.loads((GOLDEN / "golden_answers.json").read_text(
        encoding="utf-8"))
    matrix = np.frombuffer(bytes.fromhex(spec["queries"]), dtype="<u8")
    spec["batch"] = SignatureBatch(
        None, matrix.reshape(-1, spec["num_perm"]), seed=spec["seed"])
    return spec


@pytest.mark.parametrize("name", sorted(SNAPSHOTS))
@pytest.mark.parametrize("mmap", [True, False])
def test_golden_answers(golden, name, mmap):
    index = load_ensemble(GOLDEN / SNAPSHOTS[name], mmap=mmap)
    expected = golden["answers"][name]
    batch, sizes = golden["batch"], golden["sizes"]
    for threshold, rows in expected["query_batch"].items():
        found = index.query_batch(batch, sizes=sizes,
                                  threshold=float(threshold))
        assert [sorted(hits) for hits in found] == rows, (
            "%s: query_batch at t*=%s differs from the golden answers; %s"
            % (name, threshold, REGENERATE))
    top_k = [[[key, repr(score)] for key, score in row]
             for row in index.query_top_k_batch(batch, 5, sizes=sizes)]
    assert top_k == expected["top_k"], (
        "%s: query_top_k_batch differs from the golden answers; %s"
        % (name, REGENERATE))


def _files(root: Path) -> dict[str, bytes]:
    if root.is_file():
        return {root.name: root.read_bytes()}
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("name", sorted(SNAPSHOTS))
def test_golden_resave_is_byte_identical(tmp_path, name):
    source = GOLDEN / SNAPSHOTS[name]
    # Load from a copy: a manifest re-saved into the directory it was
    # loaded from would reuse its base segment instead of writing one.
    copy = tmp_path / "copy"
    if source.is_dir():
        shutil.copytree(source, copy)
    else:
        shutil.copyfile(source, copy)
    index = load_ensemble(copy)
    target = tmp_path / SNAPSHOTS[name]
    save_ensemble(index, target, version=3 if source.is_dir() else None)
    want, got = _files(source), _files(target)
    assert sorted(got) == sorted(want), REGENERATE
    for file_name, payload in want.items():
        assert got[file_name] == payload, (
            "%s/%s re-saved with different bytes; %s"
            % (name, file_name, REGENERATE))
