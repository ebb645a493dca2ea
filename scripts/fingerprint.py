#!/usr/bin/env python3
"""Fingerprint the pipeline's outputs, so two versions of the code can be compared.

Usage:
    python scripts/fingerprint.py [--small 300] [--feeders 8]

Runs ``check_equivalence`` and ``run_ideal`` on the bundled cases, on the
benchmark's ``small_scenario`` seeds 0..small-1 and on its
``feeder_scenario`` seeds 0..feeders-1, and prints one line per scenario:
its name, then the sha256 of the ``repr`` of each call's result, or in its
place the type and message of the exception the call raised. A change meant
to leave every output bit-identical prints the same lines as its parent.
"""

import argparse
import hashlib
import importlib.util
import sys
from pathlib import Path

from gridcoord import check_equivalence, parse_case, run_ideal
from gridcoord.caseio import BUNDLED_CASES

_GEN = importlib.util.spec_from_file_location(
    "bench_gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py")
_gen = importlib.util.module_from_spec(_GEN)
_GEN.loader.exec_module(_gen)


def _count(text):
    """A scenario count of at least 0, else a usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text}")
    return value


def fingerprint(call, scenario):
    """The sha256 of ``repr(call(scenario))``, or the type and message of what it raised."""
    try:
        return hashlib.sha256(repr(call(scenario)).encode()).hexdigest()
    except Exception as exc:  # any failure, expected or not, is part of the fingerprint
        return f"{type(exc).__name__}: {exc}"


def scenarios(small, feeders):
    """(name, scenario) for the bundled cases, then the small and the feeder seeds."""
    for name in BUNDLED_CASES:
        yield name, parse_case(name)
    for seed in range(small):
        yield f"small_scenario({seed})", _gen.small_scenario(seed)
    for seed in range(feeders):
        yield f"feeder_scenario({seed})", _gen.feeder_scenario(seed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--small", type=_count, default=300, help="small_scenario seeds to run")
    parser.add_argument("--feeders", type=_count, default=8, help="feeder_scenario seeds to run")
    args = parser.parse_args(argv)

    for name, scenario in scenarios(args.small, args.feeders):
        print(name, fingerprint(check_equivalence, scenario), fingerprint(run_ideal, scenario))
    return 0


if __name__ == "__main__":
    sys.exit(main())
