"""Experiment configuration: flat INI-style files and typed assembly.

The file format is a diff-friendly list of ``section.key = value`` lines
with ``#`` comments. Unknown keys and malformed lines are rejected with
their line number so manifests stay trustworthy. Each key's range is
checked in one place, the ``__post_init__`` of the dataclass that holds
it (``SyntheticSpec``, ``MarginConfig``, ``TrainConfig``, ``EvalOptions``);
only the finiteness of float keys is checked here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .loss import MarginConfig
from .synthdata import SyntheticSpec
from .trainer import TrainConfig


class ConfigError(ValueError):
    """Malformed or unknown configuration input."""


def _int_tuple(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part.strip()) for part in text.split(","))


@dataclass
class EvalOptions:
    target_tpr: float = 0.95

    def __post_init__(self) -> None:
        if not 0.0 < self.target_tpr <= 1.0:
            raise ValueError(f"eval.target_tpr must be in (0, 1], got {self.target_tpr}")


@dataclass
class ExperimentConfig:
    data: SyntheticSpec = field(default_factory=SyntheticSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalOptions = field(default_factory=EvalOptions)

    def to_flat_dict(self) -> dict[str, object]:
        return {key: _get(self, key) for key in _REGISTRY}


# key -> (caster, section, field)
_REGISTRY: dict[str, tuple] = {
    "data.classes": (int, "data", "num_classes"),
    "data.dim": (int, "data", "dim"),
    "data.imbalance_ratio": (float, "data", "imbalance_ratio"),
    "data.head_count": (int, "data", "head_count"),
    "data.cluster_spread": (float, "data", "cluster_spread"),
    "data.unknown_classes": (int, "data", "unknown_class_count"),
    "data.seed": (int, "data", "seed"),
    "data.min_angle": (float, "data", "min_angle"),
    "data.train_frac": (float, "data", "train_frac"),
    "data.val_frac": (float, "data", "val_frac"),
    "data.test_frac": (float, "data", "test_frac"),

    "margin.s": (float, "margin", "s"),
    "margin.m": (float, "margin", "m"),
    "margin.beta": (float, "margin", "beta"),
    "margin.lambda": (float, "margin", "lam"),
    "margin.gamma": (float, "margin", "gamma"),
    "margin.mode": (str, "margin", "mode"),
    "margin.eq5_sign": (str, "margin", "eq5_sign"),

    "train.epochs": (int, "train", "epochs"),
    "train.base_lr": (float, "train", "base_lr"),
    "train.weight_decay": (float, "train", "weight_decay"),
    "train.lr_decay_epochs": (_int_tuple, "train", "lr_decay_epochs"),
    "train.lr_decay_factor": (float, "train", "lr_decay_factor"),
    "train.batch_size": (int, "train", "batch_size"),
    "train.oversample_size": (int, "train", "oversample_size"),
    "train.oversample_prob": (float, "train", "oversample_prob"),
    "train.seed": (int, "train", "seed"),
    "train.selection": (str, "train", "selection"),
    "train.hidden_dims": (_int_tuple, "train", "hidden_dims"),
    "train.embed_dim": (int, "train", "embed_dim"),
    "train.perturb_strength": (float, "train", "perturb_strength"),
    "train.perturb_prob": (float, "train", "perturb_prob"),

    "partition.head_threshold": (int, "train", "head_threshold"),
    "partition.tail_threshold": (int, "train", "tail_threshold"),
    "eval.target_tpr": (float, "eval", "target_tpr"),
}


def _get(cfg: ExperimentConfig, key: str) -> object:
    _, section, name = _REGISTRY[key]
    obj = {"data": cfg.data, "train": cfg.train, "margin": cfg.train.margin,
           "eval": cfg.eval}[section]
    return getattr(obj, name)


def valid_keys() -> list[str]:
    return sorted(_REGISTRY)


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse flat key = value lines into an ExperimentConfig."""
    overrides: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or (line.startswith("[") and line.endswith("]")):
            # Section headers are tolerated for readability; keys stay dotted.
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _REGISTRY:
            raise ConfigError(
                f"{source}:{lineno}: unknown key {key!r}; valid keys: {', '.join(valid_keys())}"
            )
        caster = _REGISTRY[key][0]
        try:
            overrides[key] = caster(value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from exc
    return assemble(overrides)


def parse_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=path)


def assemble(overrides: dict[str, object]) -> ExperimentConfig:
    """Build an ExperimentConfig from flat key overrides over defaults."""
    sections: dict[str, dict] = {"data": {}, "train": {}, "margin": {}, "eval": {}}
    for key, value in overrides.items():
        caster, section, name = _REGISTRY[key]
        if caster is float and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
        sections[section][name] = value
    try:
        data = SyntheticSpec(**sections["data"])
        margin = MarginConfig(**sections["margin"])
        ev = EvalOptions(**sections["eval"])
        train = TrainConfig(margin=margin, **sections["train"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(data=data, train=train, eval=ev)


def describe_defaults() -> str:
    """Human-readable key/default listing for --help."""
    cfg = ExperimentConfig()
    lines = []
    for key in valid_keys():
        lines.append(f"  {key} = {_get(cfg, key)}")
    return "configuration keys and defaults:\n" + "\n".join(lines)
