"""Experiment configuration: flat INI-style files and typed assembly.

The file format is a diff-friendly list of ``section.key = value`` lines
with ``#`` comments. Unknown keys and malformed lines are rejected with
their line number so manifests stay trustworthy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .loss import MODES, SIGN_CHOICES, MarginConfig
from .synthdata import SyntheticSpec
from .trainer import SELECTIONS, TrainConfig


class ConfigError(ValueError):
    """Malformed or unknown configuration input."""


def _int_tuple(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part.strip()) for part in text.split(","))


def _choice(options: tuple[str, ...]):
    def cast(text: str) -> str:
        if text not in options:
            raise ValueError(f"expected one of {options}, got {text!r}")
        return text
    return cast


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
    split_fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)

    def to_flat_dict(self) -> dict[str, object]:
        return {key: _get(self, key) for key in _REGISTRY}


# key -> (caster, section, field); a "fractions" field indexes split_fractions.
_REGISTRY: dict[str, tuple] = {
    "data.classes": (int, "data", "num_classes"),
    "data.dim": (int, "data", "dim"),
    "data.imbalance_ratio": (float, "data", "imbalance_ratio"),
    "data.head_count": (int, "data", "head_count"),
    "data.cluster_spread": (float, "data", "cluster_spread"),
    "data.unknown_classes": (int, "data", "unknown_class_count"),
    "data.seed": (int, "data", "seed"),
    "data.min_angle": (float, "data", "min_angle"),
    "data.train_frac": (float, "fractions", 0),
    "data.val_frac": (float, "fractions", 1),
    "data.test_frac": (float, "fractions", 2),

    "margin.s": (float, "margin", "s"),
    "margin.m": (float, "margin", "m"),
    "margin.beta": (float, "margin", "beta"),
    "margin.epsilon": (float, "margin", "epsilon"),
    "margin.lambda": (float, "margin", "lam"),
    "margin.gamma": (float, "margin", "gamma"),
    "margin.mode": (_choice(MODES), "margin", "mode"),
    "margin.eq5_sign": (_choice(SIGN_CHOICES), "margin", "eq5_sign"),

    "train.epochs": (int, "train", "epochs"),
    "train.base_lr": (float, "train", "base_lr"),
    "train.weight_decay": (float, "train", "weight_decay"),
    "train.lr_decay_epochs": (_int_tuple, "train", "lr_decay_epochs"),
    "train.lr_decay_factor": (float, "train", "lr_decay_factor"),
    "train.batch_size": (int, "train", "batch_size"),
    "train.oversample_size": (int, "train", "oversample_size"),
    "train.oversample_prob": (float, "train", "oversample_prob"),
    "train.seed": (int, "train", "seed"),
    "train.selection": (_choice(SELECTIONS), "train", "selection"),
    "train.hidden_dims": (_int_tuple, "train", "hidden_dims"),
    "train.embed_dim": (int, "train", "embed_dim"),
    "train.perturb_strength": (float, "train", "perturb_strength"),
    "train.perturb_prob": (float, "train", "perturb_prob"),

    "partition.head_threshold": (int, "train", "head_threshold"),
    "partition.tail_threshold": (int, "train", "tail_threshold"),
    "eval.target_tpr": (float, "eval", "target_tpr"),
}


# Seeds, counts and epoch numbers, for which a negative value means nothing.
_NON_NEGATIVE = ("data.head_count", "data.unknown_classes", "data.seed", "train.seed",
                 "train.lr_decay_epochs")


def _get(cfg: ExperimentConfig, key: str) -> object:
    _, section, name = _REGISTRY[key]
    if section == "fractions":
        return cfg.split_fractions[name]
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
    fractions = list(ExperimentConfig().split_fractions)
    for key, value in overrides.items():
        caster, section, name = _REGISTRY[key]
        if caster is float and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
        if key in _NON_NEGATIVE and min(value if isinstance(value, tuple) else (value,),
                                        default=0) < 0:
            raise ConfigError(f"{key} must be >= 0, got {value}")
        if section == "fractions":
            fractions[name] = value
        else:
            sections[section][name] = value
    frac_keys = [key for key, entry in _REGISTRY.items() if entry[1] == "fractions"]
    for key, value in zip(frac_keys, fractions):
        if value <= 0:
            raise ConfigError(f"{key} must be > 0, got {value}")
    if sum(fractions) > 1 + 1e-9:
        raise ConfigError(f"{' + '.join(frac_keys)} must be <= 1, got {sum(fractions)}")
    try:
        data = SyntheticSpec(**sections["data"])
        margin = MarginConfig(**sections["margin"])
        ev = EvalOptions(**sections["eval"])
        train = TrainConfig(margin=margin, **sections["train"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    known = data.num_classes - data.unknown_class_count
    if known < 2:
        raise ConfigError(f"data.unknown_classes = {data.unknown_class_count} leaves {known} of "
                          f"data.classes = {data.num_classes} known; training needs at least 2 "
                          f"known classes")
    return ExperimentConfig(data=data, train=train, eval=ev,
                            split_fractions=tuple(fractions))


def describe_defaults() -> str:
    """Human-readable key/default listing for --help."""
    cfg = ExperimentConfig()
    lines = []
    for key in valid_keys():
        lines.append(f"  {key} = {_get(cfg, key)}")
    return "configuration keys and defaults:\n" + "\n".join(lines)
