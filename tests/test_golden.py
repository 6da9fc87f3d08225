"""The CLI artifact matrix against a committed manifest (tests/golden/manifest.json).

Every command of the matrix runs in process through main(argv) into one
directory. Instances, warm starts, routes, SVGs and CSV tables are compared by
sha256. metrics.csv and checkpoint.json are compared by value, every entry with
==, so a failure names the key that moved and by how much.

The manifest records the numpy and Python versions and the platform it was
made on. A change meant to move rounding regenerates it in the same commit and
lists every changed entry with its largest difference in CHANGES.md. To
regenerate, printing each entry that moves against the committed manifest
before writing:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from hqrl.cli import main

MANIFEST = Path(__file__).parent / "golden" / "manifest.json"


def matrix() -> list[str]:
    lines = []
    for s in (7, 77):
        lines += [
            f"gen-instance --n 8 --seed {s} --out s{s}/n8",
            f"gen-instance --n 5 --seed {s} --out s{s}/n5",
            f"warmstart --instance s{s}/n8/instance.json --seed {s} --out s{s}/ws",
        ]
        for method, flags in (("hqrl-qaoa", ""), ("vanilla-qrl", " --no-warm-start")):
            lines += [
                f"train --n 8 --episodes 60 --seed {s} --method {method}{flags} --out s{s}/{method}",
                f"evaluate --checkpoint s{s}/{method}/checkpoint.json "
                f"--instance s{s}/n8/instance.json --out s{s}/{method}",
            ]
        lines += [
            f"finetune --checkpoint s{s}/hqrl-qaoa/checkpoint.json --n 5 --episodes 20 --out s{s}/ft",
            f"evaluate --checkpoint s{s}/ft/checkpoint.json --instance s{s}/n5/instance.json "
            f"--out s{s}/ft",
            f"plot --metrics s{s}/hqrl-qaoa/metrics.csv s{s}/vanilla-qrl/metrics.csv --out s{s}",
        ]
    return lines + [
        "train --n 3 --k 1 --seed 5 --out n3k1",
        "train --n 2 --k 1 --seed 9 --out n2k1",
        "train --n 1 --k 1 --seed 3 --out n1k1",
        "evaluate --checkpoint n1k1/checkpoint.json --instance n1k1/instance.json --out n1k1",
        "sweep --sizes 4,5 --episodes 5 --seed 7 --out sweep",
        "ablate --sizes 4 --n 4 --episodes 4 --seed 7 --out ablate",
    ]


def run_matrix(root: Path) -> None:
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for line in matrix():
            assert main(line.split()) == 0, line
    finally:
        os.chdir(cwd)


def _metrics_values(text: str) -> dict:
    reader = csv.DictReader(io.StringIO(text))
    rows = list(reader)
    return {col: [float(r[col]) for r in rows] for col in reader.fieldnames}


def _flatten(data, prefix=""):
    if isinstance(data, dict):
        for key, value in data.items():
            yield from _flatten(value, f"{prefix}{key}.")
    else:
        yield prefix.rstrip("."), data


def describe(root: Path) -> dict:
    """Every artifact under root: values for metrics.csv and checkpoint.json, else sha256."""
    files = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        if path.name == "metrics.csv":
            files[rel] = {"values": _metrics_values(path.read_text())}
        elif path.name == "checkpoint.json":
            files[rel] = {"values": json.loads(path.read_text())}
        else:
            files[rel] = {"sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    return files


def _moved_by(actual, expected) -> str:
    """How a value entry moved: the largest absolute difference for numbers and
    arrays of one shape, else both values."""
    try:
        a, e = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    except (TypeError, ValueError):
        return f"is {actual!r}, manifest {expected!r}"
    if a.shape != e.shape:
        return f"has shape {a.shape}, manifest {e.shape}"
    return f"differs by {np.max(np.abs(a - e)):.3g}"


def _diff_values(rel: str, want: dict, got: dict) -> list[str]:
    flat_want, flat_got = dict(_flatten(want)), dict(_flatten(got))
    if flat_want.keys() != flat_got.keys():
        return [f"{rel}: keys {sorted(flat_want.keys() ^ flat_got.keys())} differ"]
    return [f"{rel}: {key} {_moved_by(flat_got[key], expected)}"
            for key, expected in flat_want.items() if flat_got[key] != expected]


def differences(want: dict, got: dict) -> list[str]:
    """One line per artifact entry of got that is not == to want's."""
    problems = [f"missing {rel}" for rel in sorted(want.keys() - got.keys())]
    problems += [f"unexpected {rel}" for rel in sorted(got.keys() - want.keys())]
    for rel in sorted(want.keys() & got.keys()):
        if "values" in want[rel] and "values" in got[rel]:
            problems += _diff_values(rel, want[rel]["values"], got[rel]["values"])
        elif got[rel] != want[rel]:
            problems.append(f"{rel}: sha256 differs")
    return problems


def made_on(manifest: dict) -> str:
    """Versions that differ from the manifest's first: they can move rounding.  The
    platform string is for information; its kernel part differs between hosts that
    write identical bytes."""
    here = {"numpy": np.__version__, "python": platform.python_version()}
    lines = [f"manifest made with {name} {manifest[name]}, this run has {version}"
             for name, version in here.items() if manifest[name] != version]
    return "\n".join(lines + [f"manifest platform {manifest['platform']}, "
                               f"this run {platform.platform()}"])


def test_cli_artifact_matrix_matches_the_manifest(tmp_path, monkeypatch):
    monkeypatch.delenv("HQRL_SEED", raising=False)
    manifest = json.loads(MANIFEST.read_text())
    assert manifest["commands"] == matrix(), "the matrix changed; regenerate the manifest"
    run_matrix(tmp_path)
    problems = differences(manifest["files"], describe(tmp_path))
    assert not problems, made_on(manifest) + "\n" + "\n".join(problems)


if __name__ == "__main__":
    os.environ.pop("HQRL_SEED", None)
    with tempfile.TemporaryDirectory() as tmp:
        run_matrix(Path(tmp))
        files = describe(Path(tmp))
    if MANIFEST.exists():
        moved = differences(json.loads(MANIFEST.read_text())["files"], files)
        print("\n".join(moved) or "no entry moves", file=sys.stderr)
    header = {"numpy": np.__version__, "python": platform.python_version(),
              "platform": platform.platform(), "commands": matrix()}
    # one line per artifact, so a regenerated manifest diffs file by file
    entries = ",\n".join(f"  {json.dumps(rel)}: {json.dumps(entry, separators=(',', ':'))}"
                         for rel, entry in files.items())
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(header, indent=1)[:-2] + ',\n "files": {\n' + entries + "\n }\n}\n")
    print(f"{MANIFEST}: {len(files)} files", file=sys.stderr)
