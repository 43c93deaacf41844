"""Command-line experiment runner.

Verbs: ntk, spectrum, dynamics, train, invariance, correlate, report.
Each takes --config <path> and --out <dir>; --seed overrides the config's
seed list for ad-hoc runs. `ntk` is `spectrum` with kernel persistence
forced on, so every assembled matrix lands on disk as CSV.

Exit codes: 0 success, 1 config error, 2 run failures present (with ok
rows), 3 I/O error. Environment: HCNTK_WORKERS (sweep worker count),
HCNTK_VERBOSE (0/1/2).
"""

import argparse
import sys

from . import experiments
from .config import load_config
from .errors import ConfigError, HcntkError, SchemaError

_VERB_KINDS = {
    "ntk": {"kt-spectrum", "kr-spectrum"},
    "spectrum": {"kt-spectrum", "kr-spectrum", "kr-correlation"},
    "dynamics": {"dynamics-sim"},
    "train": {"train-study", "optimizer-compare"},
    "invariance": {
        "kn-invariance-seed",
        "kn-invariance-width",
        "kn-invariance-depth",
        "kn-invariance-activation",
    },
    "correlate": {"kr-correlation"},
}


def _add_run_verb(sub, name, help_text):
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--config", required=True, help="experiment config (YAML)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed list")
    return p


def build_parser():
    ap = argparse.ArgumentParser(prog="hcntk", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="verb", required=True)
    _add_run_verb(sub, "ntk", "assemble kernels for a spectrum config, persisting every matrix")
    _add_run_verb(sub, "spectrum", "K_t / K_r spectrum sweeps")
    _add_run_verb(sub, "dynamics", "frozen-kernel dynamics simulation")
    _add_run_verb(sub, "train", "training studies and optimizer comparisons")
    _add_run_verb(sub, "invariance", "K_n initialization-invariance studies")
    _add_run_verb(sub, "correlate", "correlation analysis over a sweep or an existing table")
    rp = sub.add_parser("report", help="consolidate result directories into one JSON report")
    rp.add_argument("--config", default=None, help="accepted for uniformity; unused")
    rp.add_argument("--dir", required=True, help="directory of experiment results")
    rp.add_argument("--out", required=True, help="output directory")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "report":
            consolidated = experiments.report(args.dir, args.out)
            print(
                f"report: {consolidated['n_experiments']} experiments, "
                f"thresholds {'pass' if consolidated['all_thresholds_pass'] else 'FAIL'}, "
                f"{consolidated['total_run_failures']} run failures"
            )
            return 0
        cfg = load_config(args.config)
        if cfg["kind"] not in _VERB_KINDS[args.verb]:
            raise ConfigError(
                f"verb '{args.verb}' cannot run kind '{cfg['kind']}' "
                f"(expected one of {sorted(_VERB_KINDS[args.verb])})"
            )
        if args.seed is not None:
            cfg["seeds"] = [args.seed]
        if args.verb == "ntk":
            cfg.setdefault("output", {})["persist_kernels"] = True
        result = experiments.run_experiment(cfg, args.out)
        n_ok = len(result.rows) - result.n_failures
        print(f"{cfg['kind']}: {n_ok}/{len(result.rows)} rows ok -> {args.out}")
        return 2 if result.n_failures > 0 else 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except HcntkError as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
