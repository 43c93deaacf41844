"""Experiment config loading and strict schema validation.

Configs are YAML (key/value with nested sections), schema-versioned.
Unknown keys are errors: a silent typo in a sweep name would invalidate a
study, so every key is checked against the schema for its section.
"""

import yaml

from . import net, pde, train
from .errors import ConfigError

SCHEMA_VERSION = 1

_PHASE_KEYS = {"kind", "steps", "lr"}

_SECTION_KEYS = {
    "network": {"input_dim", "hidden", "activation"},
    "grid": {"n_per_axis", "mode"},
    "train": {"phases", "snapshot_epochs", "test_points"},
    "dynamics": {"eta", "t_end_frac", "n_steps"},
    "output": {"persist_kernels"},
}

# Keys a section must give whenever it is present.
_SECTION_REQUIRED = {"grid": ("n_per_axis",), "dynamics": ("eta",)}

_ROOT_KEYS = {
    "schema_version",
    "kind",
    "description",
    "seeds",
    "benchmark",
    "families",
    "widths",
    "depths",
    "activations",
    "strategies",
    "thresholds",
} | set(_SECTION_KEYS)

_REQUIRED = {
    "kn-invariance-seed": {"seeds", "network", "grid"},
    "kn-invariance-width": {"seeds", "widths", "network", "grid"},
    "kn-invariance-depth": {"seeds", "depths", "network", "grid"},
    "kn-invariance-activation": {"seeds", "activations", "network", "grid"},
    "kt-spectrum": {"families", "network", "grid"},
    "kr-spectrum": {"benchmark", "families", "network", "grid"},
    "dynamics-sim": {"benchmark", "families", "network", "grid", "dynamics"},
    "train-study": {"benchmark", "families", "seeds", "network", "grid", "train"},
    "optimizer-compare": {"benchmark", "families", "network", "grid", "strategies"},
}

KINDS = tuple(_REQUIRED)


def _check_keys(mapping, allowed, path):
    if not isinstance(mapping, dict):
        raise ConfigError(f"section '{path}' must be a mapping")
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key '{path}.{key}'" if path else f"unknown key '{key}'")


def _require(mapping, keys, path):
    missing = [k for k in keys if k not in mapping]
    if missing:
        raise ConfigError(f"'{path}' needs {' and '.join(repr(k) for k in missing)}")


def _check_ints(values, path, least):
    if not (isinstance(values, list) and values and all(type(v) is int and v >= least for v in values)):
        raise ConfigError(f"'{path}' must be a nonempty list of integers >= {least}, got {values!r}")


def _check_family_entry(entry, path):
    _check_keys(entry, {"family", "params"}, path)
    _require(entry, ("family",), path)
    params = entry.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"'{path}.params' must be a mapping")
    for k in params:
        if k not in ("alpha", "beta", "gamma"):
            raise ConfigError(f"unknown key '{path}.params.{k}'")


def _check_phases(phases, path):
    if not isinstance(phases, list) or not phases:
        raise ConfigError(f"'{path}' must be a nonempty list")
    for i, ph in enumerate(phases):
        _check_keys(ph, _PHASE_KEYS, f"{path}[{i}]")
        _require(ph, ("kind", "steps"), f"{path}[{i}]")
        if type(ph["steps"]) is not int:
            raise ConfigError(f"'{path}[{i}].steps' must be an integer, got {ph['steps']!r}")
        try:
            phase = train.Phase(ph["kind"], ph["steps"], *([float(ph["lr"])] if "lr" in ph else []))
        except (TypeError, ValueError):
            raise ConfigError(f"'{path}[{i}].lr' must be a number, got {ph['lr']!r}") from None
        phase.validate()


def validate(config):
    _check_keys(config, _ROOT_KEYS, "")
    version = config.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
    kind = config.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r} (choose from {KINDS})")
    for section, allowed in _SECTION_KEYS.items():
        if section in config:
            _check_keys(config[section], allowed, section)
            _require(config[section], _SECTION_REQUIRED.get(section, ()), section)
    if "hidden" in config.get("network", {}):
        _check_ints(config["network"]["hidden"], "network.hidden", 1)
    if config.get("grid", {}).get("mode", "trimmed") not in train.GRID_MODES:
        raise ConfigError(f"unknown grid.mode {config['grid']['mode']!r} (choose from {train.GRID_MODES})")
    for path, act in [("network.activation", config.get("network", {}).get("activation", "tanh")),
                      *((f"activations[{i}]", a) for i, a in enumerate(config.get("activations") or []))]:
        if act not in net.ACTIVATIONS:
            raise ConfigError(f"unknown activation {act!r} in '{path}' (choose from {tuple(net.ACTIVATIONS)})")
    if "train" in config and "phases" in config["train"]:
        _check_phases(config["train"]["phases"], "train.phases")
    for i, strat in enumerate(config.get("strategies", []) or []):
        _check_keys(strat, {"name", "phases"}, f"strategies[{i}]")
        _require(strat, ("name", "phases"), f"strategies[{i}]")
        _check_phases(strat["phases"], f"strategies[{i}].phases")
    for i, fam in enumerate(config.get("families", []) or []):
        _check_family_entry(fam, f"families[{i}]")
    for i, th in enumerate(config.get("thresholds", []) or []):
        _check_keys(th, {"metric", "op", "value"}, f"thresholds[{i}]")
        _require(th, ("metric", "op", "value"), f"thresholds[{i}]")
        if th["op"] not in ("le", "ge", "lt", "gt", "eq"):
            raise ConfigError(f"thresholds[{i}].op must be one of le/ge/lt/gt/eq")
        try:
            float(th["value"])
        except (TypeError, ValueError):
            raise ConfigError(f"thresholds[{i}].value must be a number, got {th['value']!r}") from None
    missing = _REQUIRED[kind] - set(config)
    if missing:
        raise ConfigError(f"kind '{kind}' requires missing sections: {sorted(missing)}")
    sweeps = [k for k in ("widths", "depths", "activations") if k in config]
    for key in sweeps:
        values = config[key]
        if not values:
            raise ConfigError(f"sweep list '{key}' must be nonempty")
        if key != "activations":
            _check_ints(values, key, 1)
        if any(v in values[:i] for i, v in enumerate(values)):
            raise ConfigError(f"sweep list '{key}' repeats a value: {values}")
    if "benchmark" in config:
        dim = pde.benchmark(config["benchmark"]).dim
        if config["network"].get("input_dim", dim) != dim:
            raise ConfigError(f"network.input_dim contradicts benchmark '{config['benchmark']}' of dimension {dim}")
    if "seeds" in config:
        _check_ints(config["seeds"], "seeds", 0)
    if "families" in config and not config["families"]:
        raise ConfigError("sweep list 'families' must be nonempty")
    if kind.startswith("kn-invariance-") and len(config["seeds"]) < 2:
        raise ConfigError(f"kind '{kind}' compares the kernels of several seeds; 'seeds' lists "
                          f"{len(config['seeds'])}, it needs at least 2")
    if kind == "optimizer-compare":
        for key in ("families", "seeds"):
            if len(config.get(key, [])) > 1:
                raise ConfigError(f"kind 'optimizer-compare' trains one family with one seed; "
                                  f"'{key}' lists {len(config[key])}")
    return config


def load_config(path):
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config '{path}': {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in '{path}': {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config '{path}' must be a mapping")
    return validate(raw)


def network_sizes(config, input_dim=None, width=None, depth=None):
    """Layer sizes from the network section, with sweep overrides applied."""
    netc = config["network"]
    hidden = list(netc.get("hidden", [500, 500]))
    if width is not None:
        hidden = [int(width)] * len(hidden)
    if depth is not None:
        hidden = [int(hidden[0])] * int(depth)
    d = int(input_dim if input_dim is not None else netc.get("input_dim", 1))
    return (d, *[int(h) for h in hidden], 1)
