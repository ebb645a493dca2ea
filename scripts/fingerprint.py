#!/usr/bin/env python3
"""Fingerprint the pipeline's outputs, so two versions of the code can be compared.

Usage:
    python scripts/fingerprint.py [--small 300] [--feeders 8]

Runs ``check_equivalence`` and ``run_ideal`` on the bundled cases, on the
benchmark's ``small_scenario`` seeds 0..small-1, on its ``feeder_scenario``
seeds 0..feeders-1, and on the same small seeds in each of the binding
families (``BINDING``: ``small_scenario`` with tight limits, which its own
feeders never reach). It prints one line per scenario: its name, then the
sha256 of the ``repr`` of each call's result, or in its place the type and
message of the exception the call raised. A change meant to leave every
output bit-identical prints the same lines as its parent; the defaults
print 911.
"""

import argparse
import dataclasses
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


def bind(scenario, limit, impedance=None, u_min=None):
    """Every branch's ``pl_max`` and ``ql_max`` set to ``limit``, and r, x and u_min when given.

    ``small_scenario``'s feeders keep no network limit in the DSO's LP;
    tight flow limits, and larger impedances against a higher voltage
    floor, make some of them bind.
    """
    net = scenario.network
    branches = tuple(
        dataclasses.replace(br, pl_max=limit, ql_max=limit) if impedance is None else
        dataclasses.replace(br, pl_max=limit, ql_max=limit, r=impedance, x=impedance)
        for br in net.branches)
    network = dataclasses.replace(net, branches=branches,
                                  u_min=net.u_min if u_min is None else u_min)
    return dataclasses.replace(scenario, network=network)


# ``bind``'s arguments for the two binding families of ``small_scenario``:
# A tightens the flow limits alone, B also makes the voltage limits bind.
# Of seeds 0-199, 126 of A's and 124 of B's keep a limit in the DSO's LP.
BINDING = {"A": dict(limit=1.0), "B": dict(limit=1.0, impedance=0.01, u_min=0.97)}


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
    """(name, scenario) for the bundled cases, then the small, feeder and binding seeds."""
    for name in BUNDLED_CASES:
        yield name, parse_case(name)
    for seed in range(small):
        yield f"small_scenario({seed})", _gen.small_scenario(seed)
    for seed in range(feeders):
        yield f"feeder_scenario({seed})", _gen.feeder_scenario(seed)
    for family, limits in BINDING.items():
        for seed in range(small):
            yield f"binding_{family}:small_scenario({seed})", bind(_gen.small_scenario(seed), **limits)


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
