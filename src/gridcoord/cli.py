"""The ``gridcoord`` command: ``gridcoord run <scenario> [--encoding sos1|bigm]``.

``run`` dispatches one round of a bundled scenario: stage 1, stage 2a,
the TSO dispatch on the scenario's transmission case with its outage
applied, then stage 2b once for each distinct per-feeder request.  A
scenario without a transmission case runs stage 2b once, at the
envelope midpoint.  It prints one JSON object: the envelope, each
request and every stage's ``DispatchResult.to_dict()``.

Exit status: 0 on success; 2, 3 and 4 for an ``InputError``,
``InfeasibleError`` and ``ConvergenceError``; 1 for any other
``GridcoordError``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import data, tso
from . import dso_dispatch as dd
from .errors import ConvergenceError, GridcoordError, InfeasibleError, InputError

# first match wins, so the base class comes last
EXIT_CODES = ((InputError, 2), (InfeasibleError, 3), (ConvergenceError, 4), (GridcoordError, 1))


def feeder_requests(scenario, q_lo, q_hi):
    """The distinct per-feeder reactive requests (kvar) of the TSO dispatch
    on the scenario's transmission case, its outage applied, for the
    feeder envelope [q_lo, q_hi]; the midpoint without a case.  Each
    request is rounded to 6 decimals, then clipped into the envelope, so
    rounding never moves it past an end."""
    case = scenario.transmission
    if case is None:
        return [0.5 * (q_lo + q_hi)]
    if scenario.outage:
        case = case.remove_branch(*scenario.outage)
    # each interface aggregates `multiplicity` copies of the feeder (MVAr)
    envelopes = {itf.bus: (q_lo * itf.multiplicity / 1e3, q_hi * itf.multiplicity / 1e3)
                 for itf in case.interfaces}
    dispatch = tso.tso_dispatch(case, envelopes)
    requests = (round(dispatch.q_req_mvar[itf.bus] * 1e3 / itf.multiplicity, 6)
                for itf in case.interfaces)
    return sorted({min(max(q, q_lo), q_hi) for q in requests})


def run(name, encoding):
    """One dispatch round of bundled scenario ``name``, as a JSON-ready dict."""
    scenario = data.load_scenario(name)
    ctx = dd.make_context(scenario, encoding=encoding)
    p_star, r1 = dd.stage1_max_power(ctx)
    (q_lo, q_hi), r_min, r_max = dd.stage2a_aggregate(ctx, p_star)
    requests = feeder_requests(scenario, q_lo, q_hi)
    r2b = [dd.stage2b_disaggregate(ctx, p_star, q_req) for q_req in requests]
    return {"scenario": name, "encoding": encoding,
            "envelope_kvar": [q_lo, q_hi], "q_req_kvar": requests,
            "stages": [r.to_dict() for r in (r1, r_min, r_max, *r2b)]}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="gridcoord", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run_cmd = commands.add_parser("run", help="dispatch one round of a bundled scenario")
    run_cmd.add_argument("scenario", help=f"one of {', '.join(data.list_scenarios())}")
    run_cmd.add_argument("--encoding", choices=dd.ENCODINGS, default="sos1")
    args = parser.parse_args(argv)
    try:
        report = run(args.scenario, args.encoding)
    except GridcoordError as exc:
        print(f"gridcoord: {type(exc).__name__}: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))
    json.dump(report, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
