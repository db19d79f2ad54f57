"""The byte-identity oracle's comparer (``tools/identity.py``) on synthetic
run directories: it finds a one-ulp change and names the parameter."""

import importlib.util
import json
import pathlib

import numpy as np

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "identity.py"
_spec = importlib.util.spec_from_file_location("identity", TOOL)
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)


def _run_dir(path, weights):
    path.mkdir()
    checkpoint = {"encoder": {"activation": "tanh", "weights": weights,
                              "biases": [[0.0, 0.0], [0.0]]},
                  "prototypes": [[0.5, -0.5]], "gamma": 0.1}
    (path / "checkpoint.json").write_text(json.dumps(checkpoint))
    (path / "history.jsonl").write_text('{"epoch": 0, "train_loss": 1.5}\n'
                                        '{"epoch": 1, "train_loss": 1.25}\n')
    (path / "metrics.csv").write_text("macro_recall\n0.5\n")
    return path


def test_one_ulp_in_one_weight_is_reported_with_its_parameter(tmp_path):
    weights = [[[0.1, 0.2], [0.3, 0.4]], [[0.7, 0.8]]]
    a = _run_dir(tmp_path / "a", weights)
    weights[1][0][1] = next_up = float(np.nextafter(0.8, 1.0))
    b = _run_dir(tmp_path / "b", weights)
    count, found = identity.compare_runs(a, b)
    assert count == 3
    assert found == ["checkpoint.json line 1: encoder.weights[1][0][1]: "
                     f"0.8 against {next_up!r}"]


def test_identical_runs_and_a_line_difference(tmp_path):
    weights = [[[0.1, 0.2], [0.3, 0.4]], [[0.7, 0.8]]]
    a, b = _run_dir(tmp_path / "a", weights), _run_dir(tmp_path / "b", weights)
    assert identity.compare_runs(a, b) == (3, [])
    (b / "history.jsonl").write_text('{"epoch": 0, "train_loss": 1.5}\n'
                                     '{"epoch": 1, "train_loss": 1.5}\n')
    (b / "verify.csv").write_text("check\n")
    count, found = identity.compare_runs(a, b)
    assert count == 4
    assert found[0].startswith("history.jsonl line 2: ")
    assert found[1] == f"verify.csv is in {b} only"
