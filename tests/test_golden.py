"""Golden byte-identity test of the CLI chain.

`golden.json` holds the SHA-256 of every file that criterion 8's chain
writes (3 scenes of 120 px, seed 77): synth, correct, segment,
`features --truth`, `train both11`, `classify` on a stack and on a CSV,
and `mccv`. Every byte is compared: no output records a path, so none
depends on where the chain runs.

A change that alters output bits on purpose regenerates the file in the
same commit with `PYTHONPATH=src python tests/test_golden.py`, which prints
the stage and file of each entry that moved, and says so; the diff of
`golden.json` shows the same.
"""

import hashlib
import json
from pathlib import Path

from algaeid.cli import main

from helpers import numpy_build

GOLDEN = Path(__file__).with_name("golden.json")
CONFIG = {
    "synth": {"scenes": 3, "width": 120, "height": 120,
              "organisms_per_scene": 8, "master_seed": 77},
    "train": {"epochs": 60, "batch_size": 8},
    "mccv": {"runs": 4, "master_seed": 77},
}


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_chain(base):
    """Run the chain in `base` and return {stage: {relative path: sha256}}."""
    config = base / "config.json"
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    cfg = ["--config", str(config)]
    stages = {
        "synth": (["synth", *cfg, "--out", str(base / "raw")], ["raw"]),
        "correct": (["correct", str(base / "raw"), "--out", str(base / "corrected")],
                    ["corrected"]),
        "segment": (["segment", str(base / "corrected"), "--out", str(base / "segmented")],
                    ["segmented"]),
        "features": (["features", str(base / "corrected"), str(base / "segmented"),
                      "--truth", str(base / "raw"), "--out", str(base / "features.csv")],
                     ["features.csv", "features.csv.meta.json"]),
        "train": (["train", str(base / "features.csv"), "--variant", "both11", *cfg,
                   "--out", str(base / "model.json")], ["model.json"]),
        "classify_stack": (["classify", str(base / "model.json"),
                            str(base / "corrected" / "scene_000"),
                            "--out", str(base / "classify_stack.csv")],
                           ["classify_stack.csv", "classify_stack.csv.meta.json"]),
        "classify_csv": (["classify", str(base / "model.json"), str(base / "features.csv"),
                          "--out", str(base / "classify_csv.csv")],
                         ["classify_csv.csv", "classify_csv.csv.meta.json"]),
        "mccv": (["mccv", str(base / "features.csv"), *cfg,
                  "--out", str(base / "eval")], ["eval"]),
    }
    hashes = {}
    for stage, (argv, outputs) in stages.items():
        assert main(argv) == 0, f"stage {stage} failed"
        files = []
        for out in outputs:
            path = base / out
            files += sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        hashes[stage] = {p.relative_to(base).as_posix(): _digest(p) for p in files}
    return hashes


def _moved(golden, actual):
    """One line per file whose hash in `actual` differs from `golden`'s
    (both {stage: {file: sha256}}), in chain order, so the first line names
    the earliest stage that moved."""
    problems = []
    for stage in [*actual, *(golden.keys() - actual.keys())]:
        files, got = golden.get(stage, {}), actual.get(stage, {})
        for name in sorted(files.keys() | got.keys()):
            if name not in got:
                problems.append(f"stage {stage}: {name} was not written")
            elif name not in files:
                problems.append(f"stage {stage}: {name} is not in the golden file")
            elif got[name] != files[name]:
                problems.append(f"stage {stage}: {name} differs from the golden hash")
    return problems


def test_cli_chain_outputs_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    problems = _moved(golden["stages"], run_chain(tmp_path))
    build = {key: golden[key] for key in ("numpy", "blas")}
    assert not problems, (
        "\n".join(problems)
        + f"\ngolden.json was made with {build}; this run uses {numpy_build()}")


if __name__ == "__main__":
    import tempfile

    old = json.loads(GOLDEN.read_text(encoding="utf-8"))["stages"] if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        doc = {**numpy_build(), "stages": run_chain(Path(tmp))}
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    moved = _moved(old, doc["stages"])
    print("\n".join(moved) if moved else "no entry moved")
    print(f"wrote {GOLDEN}")
