"""Single-experiment orchestration: data generation, training, evaluation.

Shared by the CLI and the test suites so a metrics row is always
produced the same way.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable

from .config import ConfigError, ExperimentConfig, assemble
from .evaluation import (MIN_CALIBRATION_SCORES, EvalReport, calibrate_threshold,
                         closed_set_metrics, open_set_eval, prototype_scores)
from .synthdata import TEST, TRAIN, UNKNOWN, VAL, Dataset, generate, open_set_partition, split
from .trainer import TrainState, train


def build_dataset(cfg: ExperimentConfig) -> Dataset:
    """Generate, split and open-set-partition the dataset ``cfg.data`` specifies.

    The spec checked every data.* value when it was built. The dataset
    depends on the config alone, so a failure here is a config error too:
    class means that cannot be placed, an empty test split (an empty
    validation split too) and a validation split too small to calibrate
    the open-set threshold on, both of which would fail after training,
    and a training split smaller than one batch.
    """
    try:
        ds = open_set_partition(split(generate(cfg.data)))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if ds.indices(TEST).size == 0:
        raise ConfigError(
            "the data.test_frac split is empty: no known class has the 3 samples "
            "it takes to reach the validation and test splits; raise data.head_count")
    n_val = ds.indices(VAL).size
    if ds.indices(UNKNOWN).size and n_val < MIN_CALIBRATION_SCORES:
        raise ConfigError(
            f"open-set calibration needs >= {MIN_CALIBRATION_SCORES} validation "
            f"samples of known classes, the split has {n_val}; raise data.val_frac "
            f"or data.head_count")
    n_train = ds.indices(TRAIN).size
    if n_train < cfg.train.batch_size:
        raise ConfigError(f"train.batch_size = {cfg.train.batch_size} is larger than the "
                          f"training split of {n_train} samples")
    return ds


def run_id_for(cfg: ExperimentConfig) -> str:
    payload = json.dumps(cfg.to_flat_dict(), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def evaluate_state(
    state: TrainState, dataset: Dataset, cfg: ExperimentConfig
) -> EvalReport:
    """Closed-set metrics on the test split plus open-set metrics when
    an unknown pool exists."""
    enc = state.best_encoder_params
    protos = state.best_prototypes

    test_idx = dataset.indices(TEST)
    cosine = cfg.train.margin.cosine
    preds, best = prototype_scores(enc, protos, dataset.features, test_idx, cosine)
    report = closed_set_metrics(preds, dataset.labels[test_idx], state.partition,
                                dataset.num_classes)

    unknown_idx = dataset.indices(UNKNOWN)
    if unknown_idx.size:
        def novelty(idx):  # each row's max cosine to a known prototype
            return prototype_scores(enc, protos, dataset.features, idx, cosine=True)[1]

        tau, _ = calibrate_threshold(novelty(dataset.indices(VAL)), cfg.eval.target_tpr)
        # In a margin mode the closed-set best scores are the test cosines already.
        test_scores = best if cosine else novelty(test_idx)
        report.open_set = open_set_eval(test_scores, novelty(unknown_idx), tau)
    return report


def metrics_row(cfg: ExperimentConfig, report: EvalReport) -> dict[str, object]:
    gr = report.group_recall
    os_metrics = report.open_set or {}
    return {
        "run_id": run_id_for(cfg),
        "mode": cfg.train.margin.mode,
        "seed": cfg.train.seed,
        "rank1": report.rank1,
        "macro_recall": report.macro_recall,
        "macro_precision": report.macro_precision,
        "macro_f1": report.macro_f1,
        "recall_head": gr.get("head", float("nan")),
        "recall_between": gr.get("between", float("nan")),
        "recall_tail": gr.get("tail", float("nan")),
        "tpr": os_metrics.get("tpr", ""),
        "tnr": os_metrics.get("tnr", ""),
        "acc": os_metrics.get("acc", ""),
    }


def run_experiment(
    cfg: ExperimentConfig,
    history_path: str | None = None,
    plan_log_path: str | None = None,
    on_trained: Callable[[TrainState], None] | None = None,
) -> tuple[TrainState, list[dict], EvalReport, dict[str, object]]:
    """Full pipeline for one config; returns state, history, report, metrics row.

    ``on_trained`` receives the trained state before evaluation starts, so
    a caller can save the model before anything later can fail.
    """
    dataset = build_dataset(cfg)
    state, history = train(cfg.train, dataset, history_path=history_path,
                           plan_log_path=plan_log_path)
    if on_trained is not None:
        on_trained(state)
    report = evaluate_state(state, dataset, cfg)
    return state, history, report, metrics_row(cfg, report)


def with_seed(cfg: ExperimentConfig, seed: int) -> ExperimentConfig:
    """Copy of the config with both the data and training seeds replaced."""
    return assemble({**cfg.to_flat_dict(), "data.seed": seed, "train.seed": seed})
