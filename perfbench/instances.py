"""Seeded inputs, operations and oracles for the cpick benchmark.

Every input is drawn from ``--seed`` through ``numpy.random.SeedSequence``,
so one seed always yields the same instances, and the library only ever
sees the generated data.  Each workload is a *pool* of cases that the
closed loop replays pass after pass; its composition (regimes, sizes,
modes) is fixed and only the numbers inside the instances depend on the
seed, which keeps medians comparable from seed to seed.

The oracles are independent of the code under test:

* ``solve`` and ``verify`` instances are feasible by construction (targets
  are read off a known interpolant), so the generator's interpolant is the
  ground truth;
* ``refute`` instances carry their own infeasibility certificate: either a
  node at the origin with target ``a`` and other targets whose
  pseudo-hyperbolic distance to ``a`` exceeds ``|z|^s`` (Schwarz lemma,
  s = smallest missing order), or a classical Pick matrix whose smallest
  eigenvalue, computed here, is clearly negative.

The timed pools hold only regimes on which the library answers every
instance correctly at the commit that added this benchmark, so ``failed``
is 0 there and a run's counts do not depend on how many passes fit in its
time.  The regimes where the library is known to fail (ROADMAP item 1:
d >= 2, deep prefix K, nodes near 0 and n = 16 for ``solve``; d = 5, 8
and 12 for ``verify``) are not dropped: ``defect_pool`` builds them,
every ``solve`` and ``verify`` run replays them once after timing, and
the report prints how many fail and how.  No instance is resized,
re-drawn or filtered because the library fails on it; whole regimes are
moved, by label.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

import cpick as cp

# Construction data of the regimes named in the benchmark README.
FIXTURE_K = [
    cp.from_finite_set([1]),
    cp.from_finite_set([1, 2]),
    cp.from_finite_set([1, 2, 3]),
    cp.from_finite_set([1, 3]),
    cp.from_finite_set([1, 2, 4]),
    cp.KSpec(d=2, gaps=(1,)),
]
DEEP_PREFIX_K = [cp.from_finite_set(range(1, k + 1)) for k in (8, 12, 16)]
SCALED_K = [cp.KSpec(d=d, gaps=(1,)) for d in (3, 5, 8, 12)]
ROUNDTRIP_SIZES = (1, 2, 4, 8)

# A classical Pick matrix counts as clearly infeasible when its smallest
# eigenvalue is below this share of its largest one (in modulus).
CLASSICAL_MARGIN = 1e-2
# Schwarz-certified targets sit at least this share of the way from the
# bound |z|^s to the edge of the target band.
SCHWARZ_MARGIN = 0.25
TARGET_RADIUS = 0.95
# An interpolant whose own-evaluation residual exceeds this while the
# library's verification passed it means the verification was wrong.
RESIDUAL_SOUNDNESS = 1e-6


@dataclass(frozen=True)
class Regime:
    """One family of instances: constraint sets and sizes (used in turn) and the node annulus."""

    label: str
    ks: tuple[cp.KSpec, ...]
    sizes: tuple[int, ...] = ROUNDTRIP_SIZES
    radius: float = 0.9
    inner: float = 0.0

    def pick(self, i: int) -> tuple[cp.KSpec, int]:
        return self.ks[i % len(self.ks)], self.sizes[i % len(self.sizes)]


@dataclass
class Case:
    """One operation of a workload pool.  ``expect`` is the oracle's verdict."""

    id: str
    k: cp.KSpec
    problem: cp.Problem
    mode: str
    expect: str
    truth: cp.Interpolant | None = None
    pinned: bool = False
    argv: tuple[str, ...] = ()


@dataclass
class Outcome:
    """Judged result of one operation."""

    verdict: str
    ok: bool
    sound: bool = True
    pinned: bool | None = None
    certified: bool | None = None
    lam: complex | None = None

    def digest_line(self, case_id: str) -> str:
        return "|".join([case_id, self.verdict, str(self.pinned), str(self.certified), round_lambda(self.lam)])


def round_lambda(lam: complex | None) -> str:
    if lam is None:
        return "-"
    lam = complex(lam)
    return f"{round(lam.real, 6) + 0.0:+.6f}{round(lam.imag, 6) + 0.0:+.6f}j"


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def all_regimes() -> list[Regime]:
    """Acceptance fixtures, deep prefix K, large d, nodes near 0, and n = 16."""
    regimes = [Regime(f"fixture-{_k_label(k)}", (k,)) for k in FIXTURE_K]
    regimes += [Regime(f"prefix-{_k_label(k)}", (k,)) for k in DEEP_PREFIX_K]
    regimes += [Regime(f"scaled-{_k_label(k)}", (k,)) for k in SCALED_K]
    # |z| <= 0.1 needs d = 1: d-th powers of such nodes cannot be separated.
    regimes.append(Regime("near0", tuple(k for k in FIXTURE_K if k.d == 1), sizes=(2, 3, 4), radius=0.1))
    regimes.append(Regime("n16", tuple(FIXTURE_K), sizes=(16,)))
    return regimes


# Regimes in which the library fails on some feasible data (ROADMAP item
# 1), by label prefix.  ``construct`` raises Infeasible or DomainError for
# d >= 2, deep prefix K, n = 16 and whenever a node lies near 0 (the PSD
# test sees |z|^(2E)); ``verify_interpolant`` rejects true interpolants on
# the Taylor check for d = 5, 8 and 12.
SOLVE_DEFECT_REGIMES = ("fixture-", "prefix-", "scaled-", "near0", "n16")
VERIFY_DEFECT_REGIMES = ("scaled-d5g", "scaled-d8g", "scaled-d12g")
# The timed ``solve`` nodes keep at least this distance from 0.
SOLVE_INNER_RADIUS = 0.3


def solve_regimes() -> list[Regime]:
    """The timed ``solve`` regimes: the acceptance fixtures with d = 1, nodes in 0.3 <= |z| <= 0.9."""
    return [Regime(f"annulus-{_k_label(k)}", (k,), inner=SOLVE_INNER_RADIUS) for k in FIXTURE_K if k.d == 1]


def verify_regimes() -> list[Regime]:
    """The timed ``verify`` regimes: all but d = 5, 8 and 12."""
    return [r for r in all_regimes() if not r.label.startswith(VERIFY_DEFECT_REGIMES)]


def defect_regimes(workload: str) -> list[Regime]:
    """The regimes the timed pool of ``workload`` leaves out because the library fails there."""
    if workload == "solve":
        return [r for r in all_regimes() if r.label.startswith(SOLVE_DEFECT_REGIMES)]
    if workload == "verify":
        return [r for r in all_regimes() if r.label.startswith(VERIFY_DEFECT_REGIMES)]
    return []


def _k_label(k: cp.KSpec) -> str:
    gaps = ".".join(str(g) for g in k.gaps)
    return f"d{k.d}g{gaps}" if len(k.gaps) <= 4 else f"d{k.d}g1-{k.gaps[-1]}"


def sub_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def matching_mode(k: cp.KSpec) -> str:
    prefix = k.d == 1 and k.gaps == tuple(range(1, len(k.gaps) + 1))
    return "iff" if prefix else "sufficient"


def _disk(rng, radius: float, inner: float = 0.0) -> complex:
    """Uniform in the annulus inner <= |z| <= radius (the disk when inner = 0)."""
    r = math.sqrt(rng.uniform(inner**2, radius**2)) if inner else radius * math.sqrt(rng.uniform())
    return complex(r * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))


def _nodes(rng, n: int, d: int, radius: float, fixed=(), inner: float = 0.0) -> list[complex]:
    """Nodes separated from each other and in their d-th powers."""
    sep = 0.05 * radius / 0.9
    sep_d = sep * radius ** (d - 1)
    nodes = list(fixed)
    while len(nodes) < n:
        z = _disk(rng, radius, inner)
        if all(abs(z - w) >= sep for w in nodes) and all(abs(z**d - w**d) >= sep_d for w in nodes):
            nodes.append(z)
    return nodes


def feasible_instance(k: cp.KSpec, n: int, reg: Regime, seed: int) -> tuple[cp.Problem, cp.Interpolant]:
    """A problem with its solving interpolant.

    Sizes and node disks that ``roundtrip_generate`` covers go through it;
    the rest are built the same way from the public ``Interpolant`` and
    ``np_solve``: a Schur function 0.9 * (Blaschke product of 1-3 factors),
    a base value lam, and targets read off f = phi_inverse(lam, z^E h(z^d)).
    """
    if n <= 8 and reg.radius == 0.9 and reg.inner == 0.0:
        return cp.roundtrip_generate(k, n, seed)
    m, d = cp.exponent_plan(k, "sufficient")
    rng = np.random.default_rng(seed)
    lam = _disk(rng, 0.7)
    factors = [_disk(rng, 0.8) for _ in range(int(rng.integers(1, 4)))]
    nodes = _nodes(rng, n, d, reg.radius, inner=reg.inner)
    h_vals = []
    for z in nodes:
        v = z**d
        out = 0.9
        for a in factors:
            out *= (v - a) / (1.0 - np.conj(a) * v)
        h_vals.append(complex(out))
    targets = []
    for z, hv in zip(nodes, h_vals):
        inner = z ** (m * d) * hv
        targets.append(complex((inner + lam) / (1.0 + np.conj(lam) * inner)))
    h = cp.np_solve([z**d for z in nodes], h_vals)
    return cp.Problem(tuple(nodes), tuple(targets)), cp.Interpolant(lambda_=lam, m=m, d=d, h=h)


def pinned_infeasible(k: cp.KSpec, n: int, seed: int) -> cp.Problem:
    """Node 0 with target a; every other target violates the Schwarz bound."""
    rng = np.random.default_rng(seed)
    s = cp.smallest_missing(k)
    a = _disk(rng, 0.7)
    nodes = _nodes(rng, n, k.d, 0.9, fixed=(0j,))
    targets = [a]
    for z in nodes[1:]:
        low = abs(z) ** s
        low += SCHWARZ_MARGIN * (TARGET_RADIUS - low)
        u = rng.uniform(low, TARGET_RADIUS) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        targets.append(complex((u + a) / (1.0 + np.conj(a) * u)))
    order = rng.permutation(n)
    return cp.Problem(tuple(nodes[i] for i in order), tuple(targets[i] for i in order))


def classical_infeasible(k: cp.KSpec, n: int, seed: int) -> cp.Problem:
    """Nodes away from 0 and random targets whose classical Pick matrix fails."""
    rng = np.random.default_rng(seed)
    while True:
        nodes = _nodes(rng, n, k.d, 0.9)
        targets = [_disk(rng, TARGET_RADIUS) for _ in range(n)]
        if classical_pick_margin(nodes, targets) < -CLASSICAL_MARGIN:
            return cp.Problem(tuple(nodes), tuple(targets))


def classical_pick_margin(nodes, targets) -> float:
    """Smallest eigenvalue of the classical Pick matrix over its spectral radius."""
    z = np.asarray(nodes, dtype=complex)
    w = np.asarray(targets, dtype=complex)
    p = (1.0 - np.outer(w, w.conj())) / (1.0 - np.outer(z, z.conj()))
    eig = np.linalg.eigvalsh(0.5 * (p + p.conj().T))
    return float(eig[0] / np.max(np.abs(eig)))


def schwarz_margin(problem: cp.Problem, k: cp.KSpec) -> float:
    """Largest rho(w_i, a) - |z_i|^s over the nonzero nodes; > 0 certifies infeasibility.

    Any f in the class with f(0) = a has phi_a(f(z)) vanishing to order
    s = smallest missing order at 0, so |phi_a(f(z))| <= |z|^s.
    """
    zero = [i for i, z in enumerate(problem.nodes) if z == 0]
    if not zero:
        return -math.inf
    a = problem.targets[zero[0]]
    s = cp.smallest_missing(k)
    return max(
        abs((w - a) / (1.0 - np.conj(a) * w)) - abs(z) ** s
        for z, w in zip(problem.nodes, problem.targets)
        if z != 0
    )


def own_eval(f: cp.Interpolant, z: complex) -> complex:
    """f(z) = phi_inverse(lam, (z^d)^m h(z^d)), unwinding the Schur chain here."""
    w = complex(z) ** f.d
    g = complex(f.h.tail)
    for node, val in reversed(f.h.steps):
        x = (w - node) / (1.0 - np.conj(node) * w) * g
        g = (x + val) / (1.0 + np.conj(val) * x)
    inner = w**f.m * g
    lam = complex(f.lambda_)
    return complex((inner + lam) / (1.0 + np.conj(lam) * inner))


# ---------------------------------------------------------------- pools


def feasible_pool(seed: int, per_regime: int, regimes: list[Regime], stream: int = 0) -> list[Case]:
    """Feasible instances of ``regimes``, cycling through each one's constraint sets and sizes."""
    cases = []
    for ri, reg in enumerate(regimes):
        for i in range(per_regime):
            k, n = reg.pick(i)
            problem, truth = feasible_instance(k, n, reg, sub_seed(seed, stream, ri, i))
            cases.append(Case(f"{reg.label}/{_k_label(k)}/n{n}/{i}", k, problem, matching_mode(k), "feasible", truth=truth))
    return _shuffled(cases, seed)


def solve_pool(seed: int, per_regime: int) -> list[Case]:
    return feasible_pool(seed, per_regime, solve_regimes())


def refute_pool(seed: int, pinned_per_k: int, classical_per_k: int) -> list[Case]:
    """Infeasible instances judged in every mode their certificate covers.

    Pinned instances run in iff (prefix K only), sufficient and necessary
    mode; classically infeasible ones in iff and sufficient mode, where a
    positive answer would claim an interpolant exists.
    """
    cases = []
    ks = FIXTURE_K + DEEP_PREFIX_K + SCALED_K
    for ki, k in enumerate(ks):
        modes = ["iff"] if matching_mode(k) == "iff" else []
        for i in range(pinned_per_k):
            n = (2, 3, 4, 8)[i % 4]
            problem = pinned_infeasible(k, n, sub_seed(seed, 1, ki, i))
            for mode in modes + ["sufficient", "necessary"]:
                cases.append(Case(f"pinned-{_k_label(k)}/n{n}/{i}/{mode}", k, problem, mode, "infeasible", pinned=True))
        for i in range(classical_per_k):
            n = (2, 3, 4)[i % 3]
            problem = classical_infeasible(k, n, sub_seed(seed, 2, ki, i))
            for mode in modes + ["sufficient"]:
                cases.append(Case(f"classical-{_k_label(k)}/n{n}/{i}/{mode}", k, problem, mode, "infeasible"))
    return _shuffled(cases, seed)


def verify_pool(seed: int, per_regime: int, regimes=None, stream: int = 0) -> list[Case]:
    cases = feasible_pool(seed, per_regime, verify_regimes() if regimes is None else regimes, stream)
    for c in cases:
        c.id = "truth/" + c.id
    return cases


def defect_pool(workload: str, seed: int) -> list[Case]:
    """Four instances per regime that the timed pool of ``workload`` leaves out (empty for the others)."""
    regimes = defect_regimes(workload)
    if workload == "verify":
        return verify_pool(seed, 4, regimes, stream=6)
    return feasible_pool(seed, 4, regimes, stream=6)


def _shuffled(cases: list[Case], seed: int) -> list[Case]:
    order = np.random.default_rng(sub_seed(seed, 9)).permutation(len(cases))
    return [cases[i] for i in order]


def pool_bytes(cases: list[Case]) -> bytes:
    """Canonical serialisation of a pool's inputs (exact float bits)."""
    docs = []
    for c in cases:
        doc = {
            "id": c.id,
            "K": c.k.to_json(),
            "mode": c.mode,
            "nodes": [_pair(z, exact=True) for z in c.problem.nodes],
            "targets": [_pair(w, exact=True) for w in c.problem.targets],
            "argv": list(c.argv),
        }
        if c.truth is not None:
            doc["truth"] = interpolant_doc(c.truth, exact=True)
        docs.append(doc)
    return json.dumps(docs, sort_keys=True).encode()


# ---------------------------------------------------------------- files


def _pair(z: complex, exact: bool = False) -> list:
    """[re, im] as in the CLI files, or as exact hex strings."""
    if exact:
        return [float(z.real).hex(), float(z.imag).hex()]
    return [float(z.real), float(z.imag)]


def problem_doc(problem: cp.Problem, k: cp.KSpec) -> dict:
    """A problem file in the documented CLI format."""
    return {"nodes": [_pair(z) for z in problem.nodes], "targets": [_pair(w) for w in problem.targets], "K": k.to_json()}


def interpolant_doc(f: cp.Interpolant, exact: bool = False) -> dict:
    """An interpolant file in the documented CLI format."""
    return {
        "lambda": _pair(complex(f.lambda_), exact),
        "m": f.m,
        "d": f.d,
        "schur_steps": [[_pair(node, exact), _pair(val, exact)] for node, val in f.h.steps],
        "tail": _pair(complex(f.h.tail), exact),
        "low_confidence": f.h.low_confidence,
    }


# ---------------------------------------------------------------- operations
# Each ``run_*`` performs exactly the library work of one operation and
# returns its raw result; ``judge_*`` applies the oracle outside the timing.


def run_solve(case: Case):
    try:
        f = cp.construct(case.problem, case.k, case.mode)
        return f, cp.verify_interpolant(f, case.problem, case.k)
    except Exception as exc:  # every library failure is a failed operation
        return exc, None


def judge_solve(case: Case, raw) -> Outcome:
    f, report = raw
    if report is None:
        result = getattr(f, "result", None)
        return Outcome(
            type(f).__name__,
            ok=False,
            pinned=result.pinned if result is not None else None,
            certified=getattr(f, "certified", None),
        )
    if not report.passed:
        return Outcome("rejected:" + ",".join(reject_reasons(report)), ok=False, pinned=False, lam=f.lambda_)
    worst = max(abs(own_eval(f, z) - w) for z, w in zip(case.problem.nodes, case.problem.targets))
    sound = worst <= RESIDUAL_SOUNDNESS and abs(f.lambda_) < 1.0
    return Outcome("constructed", ok=sound, sound=sound, pinned=False, lam=f.lambda_)


def run_verify(case: Case):
    try:
        return cp.verify_interpolant(case.truth, case.problem, case.k)
    except Exception as exc:
        return exc


def judge_verify(case: Case, report) -> Outcome:
    if isinstance(report, Exception):
        return Outcome(type(report).__name__, ok=False, lam=case.truth.lambda_)
    if report.passed:
        return Outcome("passed", ok=True, lam=case.truth.lambda_)
    return Outcome("rejected:" + ",".join(reject_reasons(report)), ok=False, lam=case.truth.lambda_)


def reject_reasons(report) -> list[str]:
    tol = report.tolerances
    reasons = []
    if any(r > tol.interp for r in report.residuals):
        reasons.append("residual")
    if report.sup_norm > 1.0 + tol.norm:
        reasons.append("norm")
    if report.taylor_violations:
        reasons.append("taylor")
    return reasons


def run_refute(case: Case):
    try:
        if case.mode == "necessary":
            r = cp.necessary_check(case.problem, case.k)
            return r.passes, r.pinned, r.certified_negative, r.witness
        m, d = cp.exponent_plan(case.k, case.mode)
        r = cp.find_lambda(case.problem, m * d, d)
        return r.feasible, r.pinned, (not r.feasible) and r.pinned, r.lambda_
    except Exception as exc:
        return exc


def judge_refute(case: Case, raw) -> Outcome:
    if isinstance(raw, Exception):
        return Outcome(type(raw).__name__, ok=False)
    feasible, pinned, certified, lam = raw
    verdict = "feasible" if feasible else "infeasible"
    if case.pinned:
        # The Schwarz certificate rules out every mode's witness.
        return Outcome(verdict, ok=not feasible and certified, sound=not feasible, pinned=pinned, certified=certified, lam=lam)
    return Outcome(verdict, ok=not feasible, sound=not feasible, pinned=pinned, certified=certified, lam=lam)


# ---------------------------------------------------------------- cli


def cli_pool(seed: int, workdir) -> list[Case]:
    """Problem and interpolant files for ``feasible``, ``interpolate --out`` and ``verify``.

    Twenty-eight feasible instances take the solve regimes in turn (14
    ``verify`` runs on the ground truth, 7 ``interpolate`` and 7
    ``feasible``, all expecting exit 0); twelve infeasible ones (nine
    pinned, three classical) alternate ``feasible`` and ``interpolate`` and
    expect exit 1.
    """
    regimes = solve_regimes()
    cases = []
    for j in range(28):
        reg = regimes[j % len(regimes)]
        k, n = reg.pick(j)
        problem, truth = feasible_instance(k, n, reg, sub_seed(seed, 3, j))
        sub = ("verify", "interpolate", "verify", "feasible")[j % 4]
        cases.append(Case(f"cli-{sub}/{reg.label}/{_k_label(k)}/n{n}/{j}", k, problem, matching_mode(k), "exit0", truth=truth))
    ks = FIXTURE_K + DEEP_PREFIX_K + SCALED_K
    for j in range(12):
        k = ks[(3 * j) % len(ks)]
        pinned = j % 4 != 3
        make = pinned_infeasible if pinned else classical_infeasible
        problem = make(k, (2, 3, 4)[j % 3], sub_seed(seed, 4, j))
        sub = ("feasible", "interpolate")[j % 2]
        kind = "pinned" if pinned else "classical"
        cases.append(Case(f"cli-{sub}/{kind}-{_k_label(k)}/{j}", k, problem, matching_mode(k), "exit1", pinned=pinned))
    for idx, case in enumerate(cases):
        sub = case.id.split("/")[0][len("cli-"):]
        prob = workdir / f"problem-{idx}.json"
        prob.write_text(json.dumps(problem_doc(case.problem, case.k)))
        if sub == "verify":
            fun = workdir / f"function-{idx}.json"
            fun.write_text(json.dumps(interpolant_doc(case.truth)))
            case.argv = ("-m", "cpick", "verify", "--function", str(fun), "--problem", str(prob))
        elif sub == "interpolate":
            out = workdir / f"out-{idx}.json"
            case.argv = ("-m", "cpick", "interpolate", str(prob), "--mode", case.mode, "--out", str(out))
        else:
            case.argv = ("-m", "cpick", "feasible", str(prob), "--mode", case.mode)
    return _shuffled(cases, seed)


def judge_cli(case: Case, returncode, stdout: str) -> Outcome:
    """Exit code against the oracle (0 feasible, 1 infeasible) and JSON on stdout."""
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return Outcome(f"exit{returncode}:not-json", ok=False, sound=returncode != 0 or case.expect != "exit1")
    if not isinstance(doc, dict):
        return Outcome(f"exit{returncode}:not-object", ok=False)
    lam = doc.get("lambda")
    outcome = Outcome(
        f"exit{returncode}",
        ok=f"exit{returncode}" == case.expect,
        # A zero exit on a certified-infeasible problem claims an interpolant exists.
        sound=not (case.expect == "exit1" and returncode == 0),
        pinned=doc.get("pinned"),
        certified=doc.get("certified"),
        lam=complex(*lam) if isinstance(lam, list) else None,
    )
    return outcome
