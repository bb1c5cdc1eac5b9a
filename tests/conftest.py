"""Shared helpers for the test suite."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

# Tier-1 runs the same examples on every run from a clean checkout: no
# random seed, no example database carried between runs, no wall-clock limit.
settings.register_profile("cpick", derandomize=True, deadline=None, database=None)
settings.load_profile("cpick")

# Constraint sets exercised throughout: the regression set from worked
# examples plus one scaled (infinite) set.
FIXTURE_K_JSON = [
    {"K": [1]},
    {"K": [1, 2]},
    {"K": [1, 2, 3]},
    {"K": [1, 3]},
    {"K": [1, 2, 4]},
    {"d": 2, "gaps": [1]},
]


# (n, seed) of a roundtrip_generate problem on K = {1..top}, by top, whose
# iff search refuses the nearest node's target and then finds a lam that
# np_solve refuses: its classical matrix is not PSD at top 8, and an
# h-target leaves the closed disk at top 16
REFUSED_ROUNDTRIPS = {8: (3, 70), 16: (2, 70)}


def nearest_target(problem):
    """The target of the node of smallest modulus, the first such node on ties."""
    return problem.targets[min(range(problem.n), key=lambda i: abs(problem.nodes[i]))]


def fixture_kspecs():
    from cpick import KSpec

    return [KSpec.from_json(obj) for obj in FIXTURE_K_JSON]


def disk_point(rng, radius):
    """Uniform sample from the disk of the given radius."""
    r = radius * np.sqrt(rng.uniform())
    return complex(r * np.exp(2j * np.pi * rng.uniform()))


def blaschke_product(factors, scale=0.9):
    """Scaled finite Blaschke product, vectorized over z."""

    def f(z):
        z = np.asarray(z, dtype=complex)
        out = np.full_like(z, scale)
        for a in factors:
            out = out * (z - a) / (1.0 - np.conjugate(a) * z)
        return out

    return f


def cpick_env(env=None):
    """``env`` (default: this process's environment) with the directory that
    holds the imported ``cpick`` first on ``PYTHONPATH``.

    The path is absolute, so a child started in any working directory
    imports the same package as this process.
    """
    import cpick

    root = str(Path(cpick.__file__).resolve().parent.parent)
    env = dict(os.environ if env is None else env)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([root, rest]) if rest else root
    return env


# What the interpreter writes to stderr when ``-m cpick`` cannot be imported.
# Its exit status is 1, the same as the CLI's "no" answer, so a missing
# package must not reach the exit-code assertions.
_IMPORT_FAILURE = re.compile(
    r"No module named|Error while finding module specification|^ImportError\b",
    re.MULTILINE,
)


@pytest.fixture
def run_cli(tmp_path):
    """Invoke the CLI in a subprocess; returns (exit_code, stdout, stderr).

    The child runs in ``tmp_path``, so relative output paths stay out of the
    source tree, and imports the same ``cpick`` as the test process.
    """

    def run(*argv, env=None):
        proc = subprocess.run(
            [sys.executable, "-m", "cpick", *argv],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=cpick_env(env),
        )
        if proc.returncode != 0 and _IMPORT_FAILURE.search(proc.stderr):
            pytest.fail(f"child process could not import cpick: {proc.stderr.strip()}", pytrace=False)
        return proc.returncode, proc.stdout, proc.stderr

    return run


@pytest.fixture
def write_json(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write
