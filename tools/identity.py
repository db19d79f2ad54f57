"""Byte-identity oracle: the run files of this checkout against another
revision's, or of this checkout on one CPU against all CPUs.

    python3 tools/identity.py --parent REV
    python3 tools/identity.py --same-tree

``--parent REV`` extracts REV's ``src/`` with ``git archive`` and runs both
trees: this checkout's ``src/`` as it stands in the working tree, and REV's.
Each ``dualmargin train`` case (a config at a seed) runs on all CPUs and,
where ``taskset`` exists, under ``taskset -c 0``; each tree's run is
compared with the other tree's on the same CPUs. ``dualmargin verify`` runs
the same way at each verify seed. ``--same-tree`` runs this checkout only,
and compares each case's ``taskset -c 0`` run with its all-CPU run (two
all-CPU runs where ``taskset`` is missing).

Every run has BLAS on one thread. The files compared are those of
``RUN_FILES`` that either run wrote; a file only one run wrote is a
difference. For the first difference in a file the report gives its line
and, for a JSON file, the key path of the first value that differs (in
``checkpoint.json``, the parameter). The exit code is 0 when every file is
byte-identical and every run exited 0, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = sorted((ROOT / "benchmark" / "workloads").glob("*.ini"))
RUN_FILES = ("checkpoint.json", "history.jsonl", "plans.jsonl", "metrics.csv",
             "metrics.json", "manifest.json", "verify.csv")
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}


def _json_difference(a, b, path: str = "") -> str | None:
    """The key path of the first value that differs between two parsed JSON
    documents, with both values, or None where they are equal."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in [*a, *(k for k in b if k not in a)]:
            if key not in a or key not in b:
                return f"{path}.{key}".lstrip(".") + " is in one file only"
            found = _json_difference(a[key], b[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = _json_difference(x, y, f"{path}[{i}]")
            if found:
                return found
        if len(a) != len(b):
            return f"{path.lstrip('.')}: {len(a)} against {len(b)} entries"
        return None
    if repr(a) != repr(b):  # repr tells 0.1 from its next float, and NaN from NaN
        return f"{path.lstrip('.')}: {a!r} against {b!r}"
    return None


def first_difference(a: pathlib.Path, b: pathlib.Path) -> str | None:
    """Where two files first differ: the line and, for JSON, the key path;
    None where their bytes are equal."""
    data_a, data_b = a.read_bytes(), b.read_bytes()
    if data_a == data_b:
        return None
    lines_a, lines_b = data_a.splitlines(), data_b.splitlines()
    line = next((i for i, (x, y) in enumerate(zip(lines_a, lines_b)) if x != y),
                min(len(lines_a), len(lines_b)))
    where = f"{a.name} line {line + 1}"
    if a.suffix == ".json":
        try:
            found = _json_difference(json.loads(data_a), json.loads(data_b))
        except ValueError:
            found = "not valid JSON"
        return f"{where}: {found or 'same values, other bytes'}"
    shown = [(lines[line] if line < len(lines) else b"(no line)").decode(errors="replace")
             for lines in (lines_a, lines_b)]
    return f"{where}: {shown[0][:160]!r} against {shown[1][:160]!r}"


def compare_runs(a: pathlib.Path, b: pathlib.Path) -> tuple[int, list[str]]:
    """The number of run files compared between two run directories, and the
    first difference of each file that differs."""
    names = [n for n in RUN_FILES if (a / n).exists() or (b / n).exists()]
    found = []
    for name in names:
        if not ((a / name).exists() and (b / name).exists()):
            found.append(f"{name} is in {a if (a / name).exists() else b} only")
        else:
            difference = first_difference(a / name, b / name)
            if difference:
                found.append(difference)
    return len(names), found


def _run(src: pathlib.Path, one_cpu: bool, args: list[str], out: pathlib.Path) -> str | None:
    """``dualmargin ARGS --out OUT`` from the tree ``src``; None where it exits
    0, else what went wrong."""
    command = [sys.executable, "-m", "dualmargin.cli", *args, "--out", str(out)]
    if one_cpu:
        command = ["taskset", "-c", "0", *command]
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(src)}
    done = subprocess.run(command, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return None
    return f"exit {done.returncode}: {' '.join(args)}: {done.stderr.strip()[-400:]}"


def _cases(configs: list[str], seeds: list[str], verify_seeds: list[str]):
    """(name, CLI arguments) of every run in the matrix."""
    for config in configs:
        for seed in seeds:
            name = f"{pathlib.Path(config).stem} seed={seed}"
            yield name, ["train", "--config", config] + ([] if seed == "default" else
                                                          ["--seed", seed])
    for seed in verify_seeds:
        yield f"verify seed={seed}", ["verify", "--seed", seed]


def _parent_src(rev: str, dest: pathlib.Path) -> pathlib.Path:
    """REV's ``src/``, extracted under ``dest`` with ``git archive``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


def _seed_list(text: str) -> list[str]:
    return [s.strip() for s in text.split(",") if s.strip()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--parent", metavar="REV", help="compare this checkout with REV")
    mode.add_argument("--same-tree", action="store_true",
                      help="compare this checkout's one-CPU runs with its all-CPU runs")
    parser.add_argument("--config", action="append", default=None,
                        help="a training config (repeatable; default: every "
                             "benchmark/workloads/*.ini)")
    parser.add_argument("--seeds", type=_seed_list, default=_seed_list("default,7,42"),
                        help="training seeds, 'default' for the config's own "
                             "(default: default,7,42)")
    parser.add_argument("--verify-seeds", type=_seed_list, default=_seed_list("0,1,2"),
                        help="dualmargin verify seeds, empty for none (default: 0,1,2)")
    args = parser.parse_args(argv)
    configs = args.config or [str(p) for p in WORKLOADS]
    taskset = shutil.which("taskset") is not None
    if not taskset:
        print("taskset not found: every run uses all CPUs")

    compared, differing, failed = 0, 0, 0
    with tempfile.TemporaryDirectory(prefix="identity-") as work:
        work, src = pathlib.Path(work), ROOT / "src"
        if args.parent:
            try:
                parent = _parent_src(args.parent, work)
            except subprocess.CalledProcessError as exc:
                print(f"cannot extract src/ of {args.parent}: {exc.stderr!r}", file=sys.stderr)
                return 2
            # (label, the two runs compared: (tree, on one CPU))
            pairs = [("all CPUs", [(parent, False), (src, False)])]
            if taskset:
                pairs.append(("1 CPU", [(parent, True), (src, True)]))
        else:
            pairs = [("1 CPU against all CPUs", [(src, False), (src, taskset)])]
        for i, (name, cli_args) in enumerate(_cases(configs, args.seeds, args.verify_seeds)):
            for j, (label, runs) in enumerate(pairs):
                outs = [work / f"run-{i}-{j}-{k}" for k in range(2)]
                errors = [_run(tree, one_cpu, cli_args, out)
                          for (tree, one_cpu), out in zip(runs, outs)]
                if any(errors):
                    failed += 1
                    print(f"{name}, {label}: RUN FAILED: " + "; ".join(e for e in errors if e))
                    continue
                count, found = compare_runs(*outs)
                compared += count
                differing += len(found)
                print(f"{name}, {label}: "
                      + ("DIFFERS: " + "; ".join(found) if found else f"{count} files identical"))
    print(f"{compared} file comparisons, {differing} differ, {failed} case(s) failed to run")
    return 0 if differing == 0 and failed == 0 and compared > 0 else 1

if __name__ == "__main__":
    sys.exit(main())
