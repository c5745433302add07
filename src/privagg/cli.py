"""Experiment runner: scenarios, attacks, disclosure curves, benchmarks.

Subcommands:

  run     execute a scenario config, write the transcript log, print a
          one-line summary ``outcome,sum,rounds``
  attack  run a scenario and apply an adversary model, emitting one CSV row
          per attacked target
  curve   emit the disclosure-probability comparison curve as CSV
  bench   emit kernel operation counts and wall times as CSV

Scenario configs are flat ``key = value`` text files (``#`` comments and
blank lines allowed).  Recognized keys: n_sources, modulus, values, K, k, p,
seed, mode, adversary, rounds.  ``values`` is either an explicit comma list
(``3,9,14``) or an inclusive sampling range (``0..99``) drawn fresh per
round.  Unknown keys are rejected so configs stay reproducible.

Exit codes: 0 on success (``run``: the final round ended in a sum), 1 on
invalid configuration or flags or a protocol, keying or attack error
(reported as ``error: <message>``), 2 when the final round was refused.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import replace

from .adversary import (
    AttackNotApplicableError,
    run_collusion_attack,
    run_link_compromise,
)
from .analysis import DisclosureModel, curve_csv, probability_grid, sweep_curve
from .cpda import CPDA_MAX_CLUSTER, CPDA_MIN_CLUSTER, bench_csv, benchmark_kernel
from .keying import KeyingError
from .protocol import ProtocolError, RoundOutcome, node_label
from .simnet import (
    PROBE_KINDS,
    ConfigError,
    ScenarioConfig,
    parse_adversary,
    parse_number,
    run_scenario,
    scenario_values,
)

ATTACK_CSV_HEADER = "model,target,disclosed_value,true_value,exact,defense_triggered"

# Config file key -> (ScenarioConfig field, type of its value).  ``values``
# is parsed apart, into ``values`` or ``value_range``.  Keys the file leaves
# out keep the dataclass defaults.
_CONFIG_FIELDS = {
    "n_sources": ("n_sources", int),
    "modulus": ("modulus", int),
    "K": ("total_keys", int),
    "k": ("source_source_keys", int),
    "p": ("edge_prob", float),
    "seed": ("seed", int),
    "mode": ("mode", str),
    "adversary": ("adversary", str),
    "rounds": ("rounds", int),
}

_EXIT_BY_OUTCOME = {RoundOutcome.SUM: 0, RoundOutcome.REFUSED: 2}


def _parse_ints(
    key: str, raw: str
) -> tuple[tuple[int, ...] | None, tuple[int, int] | None]:
    """A comma list, or the bounds of an inclusive ``lo..hi`` range."""
    if ".." in raw:
        lo_raw, _, hi_raw = raw.partition("..")
        return None, (parse_number(key, lo_raw), parse_number(key, hi_raw))
    return tuple(parse_number(key, v) for v in raw.split(",")), None


def parse_config_text(text: str) -> ScenarioConfig:
    """Parse a flat key=value scenario config; unknown keys are errors."""
    entries: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}", f"expected key = value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key != "values" and key not in _CONFIG_FIELDS:
            raise ConfigError(key, "unknown configuration key")
        if key in entries:
            raise ConfigError(key, "duplicate configuration key")
        entries[key] = raw.strip()
    for required in ("n_sources", "modulus", "values"):
        if required not in entries:
            raise ConfigError(required, "required key missing")
    values, value_range = _parse_ints("values", entries.pop("values"))
    fields = {}
    for key, raw in entries.items():
        name, kind = _CONFIG_FIELDS[key]
        fields[name] = parse_number(key, raw, kind)
    config = ScenarioConfig(values=values, value_range=value_range, **fields)
    config.validate()
    return config


def load_config(path: str, seed_override: int | None = None) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from None
    config = parse_config_text(text)
    if seed_override is not None:
        config = replace(config, seed=seed_override)
    return config


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config, args.seed)
    transcript = run_scenario(config)
    _write_output(transcript.serialize(), args.out)
    result = transcript.result
    total = "" if result.total is None else str(result.total)
    print(f"{result.outcome.value},{total},{len(transcript.results)}")
    return _EXIT_BY_OUTCOME[result.outcome]


def cmd_attack(args: argparse.Namespace) -> int:
    config = load_config(args.config, args.seed)
    model = args.model if args.model is not None else config.adversary
    kind, param = parse_adversary(model)
    if kind == "none":
        raise ConfigError("adversary", "no adversary model configured or given")
    probe = kind in PROBE_KINDS
    transcript = run_scenario(replace(config, adversary=kind if probe else "none"))
    truth = scenario_values(config, len(transcript.results))
    # (target, disclosed value or None, defense triggered) per attacked target
    found: list[tuple[int, int | None, bool]] = []
    if probe:
        result = transcript.result
        refused = result.outcome is RoundOutcome.REFUSED
        found.append((result.initiator, None if refused else result.total, refused))
    elif kind == "collusion":
        targets = transcript.result.visitation[1:-1] if param is None else [param]
        for target in targets:
            try:
                outcome = run_collusion_attack(transcript, target)
            except AttackNotApplicableError as exc:
                raise ConfigError("adversary", str(exc)) from None
            found.append((target, outcome.disclosed.get(target), False))
    else:  # link
        rng = random.Random(f"{config.seed}:attack:link")
        outcome = run_link_compromise(transcript, param, rng)
        found = [(t, outcome.disclosed[t], False) for t in sorted(outcome.disclosed)]
    label = model if kind == "link" else kind
    rows = [ATTACK_CSV_HEADER]
    for target, disclosed, defense_triggered in found:
        true_value = truth[target - 1]
        rows.append(
            f"{label},{node_label(target)},{'' if disclosed is None else disclosed},"
            f"{true_value},{str(disclosed == true_value).lower()},"
            f"{str(defense_triggered).lower()}"
        )
    _write_output("\n".join(rows) + "\n", args.out)
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
    model = DisclosureModel(
        b=0.0, min_cluster=args.pc, max_cluster=args.dmax
    )
    model.validate()
    grid = probability_grid(args.b_start, args.b_stop, args.b_step)
    points = sweep_curve(model, grid, trials=args.trials, seed=args.seed)
    _write_output(curve_csv(points), args.out)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    listed, bounds = _parse_ints("sizes", args.sizes)
    sizes = listed if bounds is None else range(bounds[0], bounds[1] + 1)
    if not sizes:
        raise ConfigError("sizes", f"bad size range {args.sizes!r}")
    if min(sizes) < 1:
        raise ConfigError("sizes", f"every size must be >= 1, got {args.sizes!r}")
    if args.repetitions < 1:
        raise ConfigError("repetitions", "must be >= 1")
    schemes = ["ours", "cpda"] if args.scheme == "both" else [args.scheme]
    results = []
    for scheme in schemes:
        for n in sizes:
            if scheme == "cpda" and not CPDA_MIN_CLUSTER <= n <= CPDA_MAX_CLUSTER:
                continue
            results.append(
                benchmark_kernel(scheme, n, args.repetitions, seed=args.seed)
            )
    if not results:
        raise ConfigError("sizes", "no benchmark sizes in the supported range")
    _write_output(bench_csv(results), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privagg",
        description="Privacy-preserving aggregation simulator and analyses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write its transcript")
    p_run.add_argument("--config", required=True, help="scenario config path")
    p_run.add_argument("--out", default="transcript.log", help="transcript log path")
    p_run.add_argument("--seed", type=int, default=None, help="override config seed")
    p_run.set_defaults(func=cmd_run)

    p_attack = sub.add_parser("attack", help="apply an adversary model, emit CSV")
    p_attack.add_argument("--config", required=True)
    p_attack.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_attack.add_argument("--seed", type=int, default=None)
    p_attack.add_argument(
        "--model",
        default=None,
        help="probe | probe_ablation | collusion[:TARGET] | link:B "
        "(default: the config's adversary)",
    )
    p_attack.set_defaults(func=cmd_attack)

    p_curve = sub.add_parser("curve", help="disclosure-probability curve CSV")
    p_curve.add_argument("--pc", type=int, default=3, help="minimum cluster size")
    p_curve.add_argument("--dmax", type=int, default=3, help="maximum cluster size")
    p_curve.add_argument("--b-start", type=float, default=0.0)
    p_curve.add_argument("--b-stop", type=float, default=1.0)
    p_curve.add_argument("--b-step", type=float, default=0.05)
    p_curve.add_argument(
        "--trials", type=int, default=None, help="Monte Carlo trials per grid point"
    )
    p_curve.add_argument("--seed", type=int, default=0)
    p_curve.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_curve.set_defaults(func=cmd_curve)

    p_bench = sub.add_parser("bench", help="kernel op-count and wall-time CSV")
    p_bench.add_argument(
        "--scheme", choices=("ours", "cpda", "both"), default="both"
    )
    p_bench.add_argument(
        "--sizes", default="3..5", help="comma list or inclusive range, e.g. 2..50"
    )
    p_bench.add_argument("--repetitions", type=int, default=50)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (
        ValueError,
        OSError,
        ProtocolError,
        KeyingError,
        AttackNotApplicableError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
