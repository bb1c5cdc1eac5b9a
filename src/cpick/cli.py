"""Command-line front end: parse JSON problem files, emit JSON reports.

Complex numbers travel as [re, im] pairs in every file and report.  Reports
hold the library's records as ``dataclasses.asdict`` gives them, and every
JSON write, to stdout or to ``--out``, is ``_emit``'s, whose ``_jsonable``
is the one place a complex becomes a pair.  Every write is strict JSON: a
float that is not finite, which a rejected artifact's report can hold, is
written as null.  Exit codes form a fixed contract so shell harnesses can
sweep parameter grids:

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

from .errors import CPickError, InvalidConfig, NotFound, NotPrefixK
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


def _jsonable(obj):
    """``obj`` ready for strict JSON: each complex as [re, im], each float that is not finite as None, nested too."""
    if isinstance(obj, complex):  # numpy's complex128 included
        return [_jsonable(float(obj.real)), _jsonable(float(obj.imag))]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    return [_jsonable(value) for value in obj] if isinstance(obj, (list, tuple)) else obj


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


def _emit(doc: dict, fh=None) -> None:
    """Write ``_jsonable(doc)`` to ``fh`` (stdout unless given), the one JSON writer: sorted keys, indent 2."""
    (fh or sys.stdout).write(json.dumps(_jsonable(doc), sort_keys=True, indent=2, allow_nan=False) + "\n")


def _write_json(path: str, doc: dict) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            _emit(doc, fh)
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
    obj = doc.get("search", {})
    try:
        if not isinstance(obj, dict):
            raise InvalidConfig(f"search config must be a JSON object, got {type(obj).__name__}")
        unknown = set(obj) - {f.name for f in dataclasses.fields(SearchConfig)}
        if unknown:
            raise InvalidConfig(f"unknown search config keys: {sorted(unknown)}")
        cfg = SearchConfig(**obj)
        return cfg if args.tol is None else SearchConfig(tol=args.tol)
    except CPickError as exc:
        raise ParseError(f"{path}: search config: {exc}") from exc


def _interpolant_to_json(f: Interpolant) -> dict:
    return {
        "lambda": f.lambda_,
        "m": f.m,
        "d": f.d,
        "schur_steps": f.h.steps,
        "tail": f.h.tail,
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


def cmd_check_algebra(args) -> int:
    doc = _load_json(args.input)
    k = _kspec_from_doc(doc, args.input)
    algebra = is_algebra(k)
    payload = {"K": k.to_json(), "is_algebra": algebra, "smallest_missing": smallest_missing(k)}
    if algebra:
        try:
            payload["complement_structure"] = dataclasses.asdict(complement_structure(k))
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
            "lambda": result.lambda_,
            "best_min_eigenvalue": result.best_min_eigenvalue,
            "evaluations": result.evaluations,
            "pinned": result.pinned,
            "certified": result.feasible or _certified_negative(result, args.mode),
            "config": {**dataclasses.asdict(cfg), "seed": args.seed},
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
                "config": {**dataclasses.asdict(cfg), "seed": args.seed},
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
            "lambda": f.lambda_,
            "m": f.m,
            "d": f.d,
            "out": args.out,
            "verification": dataclasses.asdict(report),
            "config": {**dataclasses.asdict(cfg), "seed": args.seed},
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
    _emit(dataclasses.asdict(report))
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
