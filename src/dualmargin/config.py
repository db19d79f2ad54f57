"""Experiment configuration: flat INI-style files and typed assembly.

The file format is a diff-friendly list of ``section.key = value`` lines
with ``#`` comments. Unknown keys and malformed lines are rejected with
their line number so manifests stay trustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .loss import MODES, SIGN_CHOICES, MarginConfig
from .synthdata import DECAYS, SyntheticSpec
from .trainer import OPTIMIZERS, SELECTIONS, TrainConfig


class ConfigError(ValueError):
    """Malformed or unknown configuration input."""


def _bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


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
    score: str = "cosine"  # or "softmax"

    def __post_init__(self) -> None:
        if not 0.0 < self.target_tpr <= 1.0:
            raise ValueError(f"EvalOptions: target_tpr must be in (0, 1], got {self.target_tpr}")


@dataclass
class ExperimentConfig:
    data: SyntheticSpec = field(default_factory=SyntheticSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalOptions = field(default_factory=EvalOptions)
    split_fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)

    def to_flat_dict(self) -> dict[str, object]:
        values = {}
        for key, (caster, getter, setter) in _REGISTRY.items():
            values[key] = getter(self)
        return values


# key -> (caster, getter, setter). The setter mutates a mutable builder
# dict because SyntheticSpec is frozen; assembly happens in parse_config.
_REGISTRY: dict[str, tuple] = {}


def _register(key, caster, path):
    section, name = path
    _REGISTRY[key] = (caster, _make_getter(section, name), (section, name))


def _make_getter(section, name):
    def get(cfg: ExperimentConfig):
        if section == "fractions":
            return cfg.split_fractions[name]
        obj = {"data": lambda: cfg.data, "train": lambda: cfg.train,
               "margin": lambda: cfg.train.margin, "eval": lambda: cfg.eval}[section]()
        return getattr(obj, name)
    return get


_register("data.classes", int, ("data", "num_classes"))
_register("data.dim", int, ("data", "dim"))
_register("data.imbalance_ratio", float, ("data", "imbalance_ratio"))
_register("data.head_count", int, ("data", "head_count"))
_register("data.decay", _choice(DECAYS), ("data", "decay"))
_register("data.cluster_spread", float, ("data", "cluster_spread"))
_register("data.unknown_classes", int, ("data", "unknown_class_count"))
_register("data.seed", int, ("data", "seed"))
_register("data.min_angle", float, ("data", "min_angle"))
_register("data.train_frac", float, ("fractions", 0))
_register("data.val_frac", float, ("fractions", 1))
_register("data.test_frac", float, ("fractions", 2))

_register("margin.s", float, ("margin", "s"))
_register("margin.m", float, ("margin", "m"))
_register("margin.beta", float, ("margin", "beta"))
_register("margin.epsilon", float, ("margin", "epsilon"))
_register("margin.lambda", float, ("margin", "lam"))
_register("margin.gamma", float, ("margin", "gamma"))
_register("margin.mode", _choice(MODES), ("margin", "mode"))
_register("margin.eq5_sign", _choice(SIGN_CHOICES), ("margin", "eq5_sign"))
_register("margin.use_effective_priors", _bool, ("margin", "use_effective_priors"))

_register("train.epochs", int, ("train", "epochs"))
_register("train.base_lr", float, ("train", "base_lr"))
_register("train.weight_decay", float, ("train", "weight_decay"))
_register("train.lr_decay_epochs", _int_tuple, ("train", "lr_decay_epochs"))
_register("train.lr_decay_factor", float, ("train", "lr_decay_factor"))
_register("train.batch_size", int, ("train", "batch_size"))
_register("train.oversample_size", int, ("train", "oversample_size"))
_register("train.oversample_prob", float, ("train", "oversample_prob"))
_register("train.seed", int, ("train", "seed"))
_register("train.optimizer", _choice(OPTIMIZERS), ("train", "optimizer"))
_register("train.selection", _choice(SELECTIONS), ("train", "selection"))
_register("train.hidden_dims", _int_tuple, ("train", "hidden_dims"))
_register("train.embed_dim", int, ("train", "embed_dim"))
_register("train.perturb_strength", float, ("train", "perturb_strength"))
_register("train.perturb_prob", float, ("train", "perturb_prob"))
_register("train.gamma_shares_schedule", _bool, ("train", "gamma_shares_schedule"))

_register("partition.head_threshold", int, ("train", "head_threshold"))
_register("partition.tail_threshold", int, ("train", "tail_threshold"))
_register("eval.target_tpr", float, ("eval", "target_tpr"))
_register("eval.score", _choice(("cosine", "softmax")), ("eval", "score"))


def valid_keys() -> list[str]:
    return sorted(_REGISTRY)


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


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
        _, (section, name) = _REGISTRY[key][0], _REGISTRY[key][2]
        if section == "fractions":
            fractions[name] = value
        else:
            sections[section][name] = value
    try:
        data = SyntheticSpec(**sections["data"])
        margin = MarginConfig(**sections["margin"])
        ev = EvalOptions(**sections["eval"])
        train = TrainConfig(margin=margin, **sections["train"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(data=data, train=train, eval=ev,
                            split_fractions=tuple(fractions))


def describe_defaults() -> str:
    """Human-readable key/default listing for --help."""
    cfg = ExperimentConfig()
    lines = []
    for key in valid_keys():
        getter = _REGISTRY[key][1]
        lines.append(f"  {key} = {getter(cfg)}")
    return "configuration keys and defaults:\n" + "\n".join(lines)
