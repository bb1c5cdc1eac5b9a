"""Command-line front end: parse JSON problem files, emit JSON reports.

Complex numbers travel as [re, im] pairs in every file and report.  Exit
codes form a fixed contract so shell harnesses can sweep parameter grids:

    0  positive verdict (algebra / feasible / constructed / verified)
    1  negative verdict
    2  unreadable or invalid input
    3  requested mode is incompatible with the constraint set

Reports are byte-deterministic for fixed inputs; the configuration in force
is echoed into each report.  Set CPICK_LOG=debug|info|warning for progress
logging on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys

from .errors import CPickError, NotFound, NotPrefixK
from .kset import KSpec, complement_structure, is_algebra, smallest_missing
from .analytic import SchurFunction
from .feasibility import SearchConfig, find_lambda
from .pickmat import Problem
from .interp import Interpolant, _certified_negative, construct, exponent_plan, verify_interpolant

log = logging.getLogger("cpick")

EXIT_YES = 0
EXIT_NO = 1
EXIT_PARSE = 2
EXIT_MODE = 3


class ParseError(Exception):
    """Input file failed structural validation; message names the field."""


def _pair_to_complex(value, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    ):
        raise ParseError(f"{where}: expected a [re, im] pair, got {value!r}")
    # json.load reads NaN, Infinity and integers too large for a float; none is valid input
    try:
        z = complex(float(value[0]), float(value[1]))
    except OverflowError:
        z = complex("inf")
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ParseError(f"{where}: expected finite numbers, got {value!r}")
    return z


def _complex_to_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    return doc


def _write_json(path: str, doc: dict) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc


def _kspec_from_doc(doc: dict, path: str) -> KSpec:
    if "nodes" in doc or "targets" in doc:  # problem file: constraint set under "K"
        if "K" not in doc:
            raise ParseError(f"{path}: missing required field 'K'")
        obj = doc["K"]
        if isinstance(obj, list):  # shorthand: the member list itself
            obj = {"K": obj}
    else:  # K-only file: the whole document describes the set
        obj = doc
    try:
        return KSpec.from_json(obj)
    except CPickError as exc:
        raise ParseError(f"{path}: constraint set: {exc}") from exc


def _problem_from_doc(doc: dict, path: str) -> Problem:
    for key in ("nodes", "targets"):
        if key not in doc:
            raise ParseError(f"{path}: missing required field {key!r}")
        if not isinstance(doc[key], list):
            raise ParseError(f"{path}: {key} must be a list of [re, im] pairs")
    nodes = [_pair_to_complex(v, f"{path}: nodes[{i}]") for i, v in enumerate(doc["nodes"])]
    targets = [_pair_to_complex(v, f"{path}: targets[{i}]") for i, v in enumerate(doc["targets"])]
    try:
        return Problem(nodes=tuple(nodes), targets=tuple(targets))
    except CPickError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _search_config(doc: dict, path: str, args) -> SearchConfig:
    try:
        cfg = SearchConfig.from_json(doc.get("search", {}))
        overrides = {}
        if args.tol is not None:
            overrides["tol"] = args.tol
        if args.radii is not None:
            overrides["radii"] = tuple(float(r) for r in args.radii.split(","))
        if args.angles is not None:
            overrides["angles"] = args.angles
        return dataclasses.replace(cfg, **overrides)
    except (CPickError, ValueError) as exc:
        raise ParseError(f"{path}: search config: {exc}") from exc


def _config_echo(cfg: SearchConfig, args) -> dict:
    echo = cfg.to_json()
    echo["seed"] = getattr(args, "seed", None)
    return echo


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2))
    sys.stdout.write("\n")


def _interpolant_to_json(f: Interpolant) -> dict:
    return {
        "lambda": _complex_to_pair(f.lambda_),
        "m": f.m,
        "d": f.d,
        "schur_steps": [
            [_complex_to_pair(node), _complex_to_pair(value)] for node, value in f.h.steps
        ],
        "tail": _complex_to_pair(f.h.tail),
        "low_confidence": f.h.low_confidence,
    }


def _interpolant_from_doc(doc: dict, path: str) -> Interpolant:
    for key in ("lambda", "m", "d", "schur_steps", "tail"):
        if key not in doc:
            raise ParseError(f"{path}: missing required field {key!r}")
    if not isinstance(doc["schur_steps"], list):
        raise ParseError(f"{path}: schur_steps must be a list of [node, value] pairs")
    steps = []
    for i, step in enumerate(doc["schur_steps"]):
        if not isinstance(step, (list, tuple)) or len(step) != 2:
            raise ParseError(f"{path}: schur_steps[{i}]: expected [node, value]")
        steps.append(
            (
                _pair_to_complex(step[0], f"{path}: schur_steps[{i}][0]"),
                _pair_to_complex(step[1], f"{path}: schur_steps[{i}][1]"),
            )
        )
    low_confidence = doc.get("low_confidence", False)
    if not isinstance(low_confidence, bool):
        raise ParseError(f"{path}: low_confidence must be true or false, got {low_confidence!r}")
    h = SchurFunction(
        steps=tuple(steps),
        tail=_pair_to_complex(doc["tail"], f"{path}: tail"),
        low_confidence=low_confidence,
    )
    try:
        return Interpolant(
            lambda_=_pair_to_complex(doc["lambda"], f"{path}: lambda"),
            m=doc["m"],
            d=doc["d"],
            h=h,
        )
    except CPickError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _verification_to_json(report) -> dict:
    return {
        "passed": report.passed,
        "residuals": [float(r) for r in report.residuals],
        "sup_norm": report.sup_norm,
        "taylor_violations": [[j, mag] for j, mag in report.taylor_violations],
        "derivative_crosscheck": report.derivative_crosscheck,
        "tolerances": report.tolerances.to_json(),
    }


def cmd_check_algebra(args) -> int:
    doc = _load_json(args.input)
    k = _kspec_from_doc(doc, args.input)
    algebra = is_algebra(k)
    payload = {"K": k.to_json(), "is_algebra": algebra, "smallest_missing": smallest_missing(k)}
    if algebra:
        try:
            structure = complement_structure(k)
            payload["complement_structure"] = {
                "d": structure.d,
                "heads": list(structure.heads),
                "n0": structure.n0,
            }
        except CPickError:
            pass  # empty K: algebra but no structure to report
    _emit(payload)
    return EXIT_YES if algebra else EXIT_NO


def _load_problem(args) -> tuple[KSpec, Problem, SearchConfig]:
    """The constraint set, problem and search configuration of ``args.input``."""
    doc = _load_json(args.input)
    k = _kspec_from_doc(doc, args.input)
    return k, _problem_from_doc(doc, args.input), _search_config(doc, args.input, args)


def cmd_feasible(args) -> int:
    k, problem, cfg = _load_problem(args)
    m, d = exponent_plan(k, args.mode)
    result = find_lambda(problem, m * d, d, cfg)
    log.info("mode=%s E=%d d=%d feasible=%s", args.mode, m * d, d, result.feasible)
    _emit(
        {
            "mode": args.mode,
            "m": m,
            "d": d,
            "feasible": result.feasible,
            "lambda": _complex_to_pair(result.lambda_) if result.lambda_ is not None else None,
            "best_min_eigenvalue": result.best_min_eigenvalue,
            "evaluations": result.evaluations,
            "pinned": result.pinned,
            "certified": result.feasible or _certified_negative(result, args.mode),
            "config": _config_echo(cfg, args),
        }
    )
    return EXIT_YES if result.feasible else EXIT_NO


def cmd_interpolate(args) -> int:
    k, problem, cfg = _load_problem(args)
    try:
        f = construct(problem, k, args.mode, cfg)
    except NotFound as exc:
        _emit(
            {
                "mode": args.mode,
                "feasible": False,
                "certified": exc.certified,
                "best_min_eigenvalue": exc.result.best_min_eigenvalue,
                "pinned": exc.result.pinned,
                "reason": str(exc),
                "config": _config_echo(cfg, args),
            }
        )
        return EXIT_NO
    report = verify_interpolant(f, problem, k)
    if args.out:
        _write_json(args.out, _interpolant_to_json(f))
        log.info("wrote interpolant to %s", args.out)
    _emit(
        {
            "mode": args.mode,
            "feasible": True,
            "lambda": _complex_to_pair(f.lambda_),
            "m": f.m,
            "d": f.d,
            "out": args.out,
            "verification": _verification_to_json(report),
            "config": _config_echo(cfg, args),
        }
    )
    return EXIT_YES if report.passed else EXIT_NO


def cmd_verify(args) -> int:
    fdoc = _load_json(args.function)
    pdoc = _load_json(args.problem)
    f = _interpolant_from_doc(fdoc, args.function)
    k = _kspec_from_doc(pdoc, args.problem)
    problem = _problem_from_doc(pdoc, args.problem)
    report = verify_interpolant(f, problem, k)
    _emit(_verification_to_json(report))
    return EXIT_YES if report.passed else EXIT_NO


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpick",
        description="Feasibility, construction and verification of interpolants "
        "in derivative-constrained classes of bounded analytic functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_search_flags(p):
        p.add_argument("--tol", type=float, default=None, help="PSD tolerance for the search")
        p.add_argument("--radii", default=None, help="comma-separated grid radii in [0, 1)")
        p.add_argument("--angles", type=int, default=None, help="grid angles per radius")
        p.add_argument("--seed", type=int, default=None, help="echoed into the report config")

    p = sub.add_parser("check-algebra", help="decide the semigroup criterion for K")
    p.add_argument("input", help="JSON file with a K object (or a problem file)")
    p.set_defaults(func=cmd_check_algebra)

    p = sub.add_parser("feasible", help="search for a feasible Möbius parameter")
    p.add_argument("input", help="JSON problem file")
    p.add_argument("--mode", required=True, choices=["iff", "sufficient", "necessary"])
    add_search_flags(p)
    p.set_defaults(func=cmd_feasible)

    p = sub.add_parser("interpolate", help="construct and verify an interpolant")
    p.add_argument("input", help="JSON problem file")
    p.add_argument("--mode", required=True, choices=["iff", "sufficient"])
    p.add_argument("--out", default=None, help="write the interpolant JSON here")
    add_search_flags(p)
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser("verify", help="re-check a stored interpolant against a problem")
    p.add_argument("--function", required=True, help="interpolant JSON file")
    p.add_argument("--problem", required=True, help="JSON problem file")
    p.set_defaults(func=cmd_verify)
    return parser


def _init_logging() -> None:
    level_name = os.environ.get("CPICK_LOG", "").upper()
    if level_name:
        level = getattr(logging, level_name, None)
        if isinstance(level, int):
            logging.basicConfig(level=level, stream=sys.stderr, format="cpick: %(message)s")


def main(argv=None) -> int:
    _init_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotPrefixK as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODE
    except (ParseError, CPickError) as exc:
        # a malformed file, an unwritable --out path, or a library-level
        # rejection of file contents (bad disk values, sizes...)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
