"""Command-line interface.

Subcommands: run, certify, worstcase, sweep, prip, coherence.  Exit codes:
0 success or condition satisfied, 1 usage or IO problems, 2 a condition or
recovery failed, 3 rank deficiency, 4 a constructed failure scenario did not
reproduce.  Reports print as JSON or, with `--format csv`, as a header and rows,
every number in 17 significant digits so runs can be compared byte for byte.
The parser is built once per process; each command is looked up per call.
"""

import argparse
import functools
import json
import os
import sys

from . import __version__
from .dictionary import (_check_kl, _fmt, _json, as_support, check_support, coherence,
                         load_dictionary, load_vector, make_instance, save_vector, spark)
from .errors import CalibrationFailed, GreedyCertError, InvalidArgs, OutOfDomain, RankDeficient
from .greedy import RecoveryOutcome, classify, run
from .guarantees import coherence_threshold, partial_erc, prip_coherence_bounds, prip_exact, tropp_erc
from .sweep import SweepConfig, run_sweep
from .worstcase import build_scenario


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _parse_indices(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise InvalidArgs(f"expected a comma-separated index list, got {text!r}") from None


def _parse_instance(text: str) -> tuple[list[int], list[float]]:
    support, coeffs = [], []
    try:
        for pair in text.split(","):
            idx, val = pair.split(":")
            support.append(int(idx))
            coeffs.append(float(val))
    except ValueError:
        raise InvalidArgs(
            f"expected index:coefficient pairs like '0:1.5,3:-2', got {text!r}") from None
    return support, coeffs


def _emit(fmt: str, report: dict, head: list, rows: list) -> None:
    """Print report as indented JSON, or for fmt "csv" the header and the rows,
    floats in 17 significant digits and every other cell through str."""
    if fmt == "csv":
        print(",".join(head))
        for row in rows:
            print(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    else:
        print(_json(report))


def _load_dict(path):
    d, renormalized = load_dictionary(path)
    if renormalized:
        print(f"warning: {path}: columns were re-normalized to unit length", file=sys.stderr)
    return d


def cmd_run(args) -> int:
    d = _load_dict(args.dict)
    truth = None
    if args.instance is not None:
        support, coeffs = _parse_instance(args.instance)
        inst = make_instance(d, support, coeffs)
        y = inst.observation
        truth = list(inst.support)
    else:
        y = load_vector(args.y)
    if args.truth is not None:
        truth = check_support(d, as_support(_parse_indices(args.truth)))
    seed_support = _parse_indices(args.seed_support) if args.seed_support else None
    trace = run(args.variant, d, y, args.k, seed_support=seed_support)
    outcome = classify(trace, truth) if truth is not None else None
    print(trace.to_json(outcome))
    if outcome is None:
        return 0
    return 0 if outcome.is_success else 2


def cmd_certify(args) -> int:
    d = _load_dict(args.dict)
    qstar = _parse_indices(args.qstar)
    q = _parse_indices(args.q) if args.q is not None else None
    k = len(qstar)
    l = len(q) if q is not None else 0
    mu = coherence(d)
    full = tropp_erc(d, qstar)
    partial = partial_erc(args.variant, d, q, qstar) if q is not None else None
    thr_full = coherence_threshold(k, 0)
    thr_partial = coherence_threshold(k, l)
    operative = partial if partial is not None else full
    report = {
        "coherence": mu,
        "k": k,
        "l": l,
        "threshold_full": thr_full,
        "threshold_partial": thr_partial,
        "conditions": {
            "coherence_below_full_threshold": bool(mu < thr_full),
            "coherence_below_partial_threshold": bool(mu < thr_partial),
            "erc_satisfied": full.satisfied,
            "partial_erc_satisfied": partial.satisfied if partial is not None else None,
        },
        "erc": full.to_dict(),
        "partial_erc": partial.to_dict() if partial is not None else None,
    }
    head = ["coherence", "threshold_full", "threshold_partial", "erc_lhs", "erc_satisfied",
            "partial_lhs", "partial_satisfied"]
    row = [mu, thr_full, thr_partial, full.lhs, full.satisfied,
           partial.lhs if partial else "", partial.satisfied if partial else ""]
    _emit(args.format, report, head, [row])
    return 0 if operative.satisfied else 2


def _reproduces(scenario, trace, outcome) -> bool:
    """Whether the replay of a worst-case scenario selected its prefix, then its predicted
    wrong atom at iteration l, as a wrong selection or a tie."""
    return (list(trace.selected)[: scenario.l + 1] == [*scenario.partial, scenario.predicted_wrong]
            and outcome.kind in (RecoveryOutcome.WRONG_ATOM, RecoveryOutcome.TIE_WITH_WRONG_ATOM)
            and outcome.iteration == scenario.l)


def cmd_worstcase(args) -> int:
    _check_kl(args.k, args.l)
    if 2 * args.k - args.l > 64:
        raise InvalidArgs(f"2k-l = {2 * args.k - args.l} exceeds the supported cap of 64")
    scenario = build_scenario(args.k, args.l, args.variant)
    trace = run(scenario.variant, scenario.dictionary, scenario.y, args.k)
    outcome = classify(trace, scenario.truth)
    reproduced = _reproduces(scenario, trace, outcome)
    os.makedirs(args.out, exist_ok=True)
    payload = scenario.to_dict()
    with open(os.path.join(args.out, "dictionary.csv"), "w") as fh:
        fh.write(payload["dictionary_csv"] + "\n")  # save_dictionary's bytes, formatted once
    save_vector(scenario.y, os.path.join(args.out, "y.csv"))
    payload["replay"] = trace.to_dict(outcome)
    payload["reproduced"] = reproduced
    with open(os.path.join(args.out, "scenario.json"), "w") as fh:
        fh.write(_json(payload) + "\n")
    print(f"coherence = {_fmt(scenario.coherence)} (threshold {_fmt(scenario.threshold)})")
    print(f"prefix selections = {list(scenario.partial)}")
    print(f"truth = {list(scenario.truth)}; predicted wrong atom = {scenario.predicted_wrong}")
    if outcome.iteration is not None:
        print(f"failure iteration = {outcome.iteration + 1} (1-based), kind = {outcome.kind}")
    print(f"wrote dictionary.csv, y.csv, scenario.json to {args.out}")
    if not reproduced:
        print("scenario did NOT reproduce the predicted failure", file=sys.stderr)
        return 4
    return 0


def cmd_sweep(args) -> int:
    with open(args.config) as fh:
        raw = json.load(fh)
    if args.seed is not None and isinstance(raw, dict):
        raw["seed"] = args.seed
    config = SweepConfig.from_dict(raw)
    report = run_sweep(config)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        csv_path = os.path.join(args.out, "sweep.csv")
        json_path = os.path.join(args.out, "sweep.json")
        with open(csv_path, "w") as fh:
            fh.write(report.to_csv())
        with open(json_path, "w") as fh:
            fh.write(report.to_json() + "\n")
        print(f"wrote {csv_path} and {json_path}")
    elif args.format == "json":
        print(report.to_json())
    else:
        print(report.to_csv(), end="")
    return 0


def cmd_prip(args) -> int:
    d = _load_dict(args.dict)
    mu = coherence(d)
    exact = prip_exact(d, args.q, args.l)
    try:
        bound = prip_coherence_bounds(args.q, args.l, mu) if mu < 1.0 else None
    except OutOfDomain:
        bound = None
    report = {
        "coherence": mu,
        "exact": exact.to_dict(),
        "coherence_bound": bound.to_dict() if bound is not None else None,
    }
    rows = [[c.kind, c.q, c.l, c.lower, c.upper] for c in (exact, bound) if c is not None]
    _emit(args.format, report, ["kind", "q", "l", "lower", "upper"], rows)
    return 0


def cmd_coherence(args) -> int:
    d = _load_dict(args.dict)
    report = {"m": d.m, "n": d.n, "coherence": coherence(d)}
    if args.spark:
        report["spark"] = spark(d)
    _emit(args.format, report, list(report), [list(report.values())])
    return 0


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="greedycert",
                     description="Greedy sparse recovery with exact-recovery certificates")
    parser.add_argument("--version", action="version", version=f"greedycert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a pursuit and report the trace")
    p.add_argument("--dict", required=True, help="dictionary CSV file")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--y", help="observation vector file")
    g.add_argument("--instance", help="planted instance as index:coefficient pairs, e.g. '0:1,2:2'")
    p.add_argument("--variant", choices=["omp", "ols"], default="omp")
    p.add_argument("--k", type=int, required=True, help="number of selections")
    p.add_argument("--seed-support", help="comma-separated atoms treated as already selected")
    p.add_argument("--truth", help="planted support for classification, e.g. '0,2'")

    p = sub.add_parser("certify", help="evaluate exact-recovery conditions for a support")
    p.add_argument("--dict", required=True)
    p.add_argument("--qstar", required=True, help="planted support, e.g. '0,1,2'")
    p.add_argument("--q", help="correctly selected prefix (subset of qstar)")
    p.add_argument("--variant", choices=["omp", "ols"], default="omp")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("worstcase", help="build and replay a guaranteed failure at the threshold")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--variant", choices=["omp", "ols"], default="omp")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("sweep", help="Monte Carlo success-rate sweep over (k, l) cells")
    p.add_argument("--config", required=True, help="sweep config JSON file")
    p.add_argument("--out", help="directory for sweep.csv and sweep.json")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--format", choices=["json", "csv"], default="csv")

    p = sub.add_parser("prip", help="projected restricted-isometry constants")
    p.add_argument("--dict", required=True)
    p.add_argument("--q", type=int, required=True, help="block size")
    p.add_argument("--l", type=int, required=True, help="projected-out support size")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("coherence", help="mutual coherence (and optionally spark) of a dictionary")
    p.add_argument("--dict", required=True)
    p.add_argument("--spark", action="store_true", help="also compute the spark (small n only)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    return parser


# (exception types, stderr prefix, exit code); the first row that matches wins
_EXIT_CODES = (
    ((_UsageError,), "usage error", 1),
    ((RankDeficient,), "rank deficiency", 3),
    ((CalibrationFailed,), "calibration failed", 4),
    ((GreedyCertError, OSError, json.JSONDecodeError), "error", 1),
)
_HANDLED = tuple(t for types, _, _ in _EXIT_CODES for t in types)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # looked up now, not held by the cached parser, so a cmd_* replaced later still runs
        return globals()[f"cmd_{args.command}"](args)
    except _HANDLED as exc:
        prefix, code = next((p, c) for types, p, c in _EXIT_CODES if isinstance(exc, types))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
