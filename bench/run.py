"""Benchmark of the gridcoord DSO-TSO dispatch pipeline.

    python3 bench/run.py --workload dispatch-milp --seed 0 --seconds 50 --trace 0

Workloads are defined in ``workloads.py``; ``BENCHMARK.json`` names the
gated ones and their metrics, and ``README.md`` says what each means.
A run measures set-up time in fresh processes, builds the workload, then
repeats whole passes for ``--seconds`` (a pass that would end past that
point is not started; the first always is) and checks every output.
With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate, and it holds
the per-layer metrics, which cover set-up plus one traced pass.  Every
run also writes all metrics, the environment and each step to
``.bench_out/``; traced runs write their spans there too.

Exit status: 0 when every check passed, 1 when a check failed (the
result line says ``"correct": false``), 2 when the program or
``BENCHMARK.json`` is missing (no result line).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_RUNS = 5       # fresh processes timed for setup_s
GUARD_S = 150.0      # runaway guard: no step runs past this point of the run


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="dispatch-milp, stage1-budget, dispatch-lp, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny-2bus-only variant of the workload")
    ap.add_argument("--setup-only", action="store_true",
                    help="build the workload and exit (used to time set-up)")
    return ap.parse_args(argv)


def time_setup(args):
    """Median wall time of fresh processes that import, load and build the
    workload, measured from spawn to exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=60)
        samples.append(time.perf_counter() - t0)
        if proc.returncode:
            raise RuntimeError(f"set-up run failed:\n{proc.stderr}")
    return statistics.median(samples), samples


def environment(args, np, milp):
    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError):   # show_config differs between releases
            return None
    import scipy
    return {"seed": args.seed, "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "numpy_openblas": blas_version(np),
            "scipy_openblas": blas_version(scipy), "dger_active": milp._dger is not None}


class StepScope:
    """Context of one step's program calls: sets the trace operation id,
    records spans in traced passes, and arms the runaway guard, which
    raises ``guard_error`` at ``deadline`` (a ``perf_counter`` time)."""

    def __init__(self, tracer, guard_error, deadline):
        self.tracer, self.guard_error, self.deadline = tracer, guard_error, deadline
        self.pass_no, self.traced = 0, False
        signal.signal(signal.SIGALRM, self._expired)

    def _expired(self, *_):
        raise self.guard_error(f"run passed {GUARD_S:.0f} s")

    @contextlib.contextmanager
    def __call__(self, label):
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            self._expired()
        self.tracer.op = f"pass{self.pass_no}:{label}"
        signal.setitimer(signal.ITIMER_REAL, remaining)
        self.tracer.enabled = self.traced
        try:
            yield
        finally:
            self.tracer.enabled = False
            signal.setitimer(signal.ITIMER_REAL, 0)


def unit_of(name):
    """Unit of a metric, from its name."""
    if name.endswith("ms_per_node"):
        return "ms"
    if name.endswith("_s") or "_s_" in name:
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if "_pu" in name:
        return "pu"
    if name.endswith(("_frac", "_rel", "_per_node")):
        return "ratio"
    return "count"


def tail_percentile(values):
    """Highest percentile (at most p95) with at least ten samples above
    it, as (percentile, value); the maximum when there are too few."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return 100.0, xs[-1]
    k = min(math.ceil(0.95 * n) - 1, n - 11)
    return 100.0 * (k + 1) / n, xs[k]


def layer_metrics(tracer_mod, tr, setup_end, traced_passes, wl):
    """Per-layer metrics over set-up plus one traced pass (times: median
    over traced passes; counts: every traced pass gives the same)."""
    setup = tracer_mod.summarize(tr.spans[:setup_end], 0)
    # a guard stop in the first pass leaves no traced pass: set-up only
    per_pass = ([tracer_mod.summarize(tr.spans[a:b], a) for a, b in traced_passes]
                or [tracer_mod.summarize([], 0)])

    def t(key, *names):
        base = sum(setup[key].get(n, 0.0) for n in names)
        return base + statistics.median(sum(p[key].get(n, 0.0) for n in names)
                                        for p in per_pass)

    def count(name, key):
        return (setup["counts"].get(name, {}).get(key, 0)
                + per_pass[0]["counts"].get(name, {}).get(key, 0))

    def calls(name):
        return setup["calls"].get(name, 0) + per_pass[0]["calls"].get(name, 0)

    def layer_self(layer):
        return t("layer_self", layer)

    milp_s = t("time", "milp.solve_milp")
    nodes = count("milp.solve_milp", "nodes")
    iters = count("milp.solve_milp", "iters")
    stages = ("dso_dispatch.stage1_max_power", "dso_dispatch.stage2a_aggregate",
              "dso_dispatch.stage2b_disaggregate")
    metrics = {
        "milp.solve_milp_s": milp_s,
        "milp.nodes": nodes,
        "milp.simplex_iters": iters,
        "milp.ms_per_node": 1e3 * milp_s / nodes if nodes else 0.0,
        "milp.iters_per_node": iters / nodes if nodes else 0.0,
        "milp.incumbent_frac": (count("milp.solve_milp", "incumbent") / calls("milp.solve_milp")
                                if calls("milp.solve_milp") else 0.0),
        "milp.bound_gap_rel": statistics.fmean(wl.gaps) if wl.gaps else 0.0,
        "milp.solve_lp_s": t("time", "milp.solve_lp"),
        "milp.lp_iters": count("milp.solve_lp", "iters"),
        "milp.self_s": layer_self("milp"),
        "dso_dispatch.build_stage_model_s": t("time", "dso_dispatch.build_stage_model"),
        "dso_dispatch.stage_builds": calls("dso_dispatch.build_stage_model"),
        "dso_dispatch.model_rows": count("dso_dispatch.build_stage_model", "rows"),
        "dso_dispatch.model_cols": count("dso_dispatch.build_stage_model", "cols"),
        "dso_dispatch.model_int_vars": count("dso_dispatch.build_stage_model", "int_vars"),
        "dso_dispatch.stage1_s": t("time", stages[0]),
        "dso_dispatch.stage2a_s": t("time", stages[1]),
        "dso_dispatch.stage2b_s": t("time", stages[2]),
        # stage wall minus build and solve (and 2b's own weights): the
        # stage functions' self time
        "dso_dispatch.extract_s": t("self", *stages),
        "dso_dispatch.sensitivity_weights_s": t("time", "dso_dispatch.sensitivity_weights"),
        "dso_dispatch.self_s": layer_self("dso_dispatch"),
        "inverter.curve_set_s": t("time", "inverter.make_curve_set"),
        "inverter.encode_s": t("time", "inverter.encode_bigM", "inverter.encode_sos1"),
        "inverter.self_s": layer_self("inverter"),
        "feeder.build_blocks_s": t("time", "feeder.build_blocks"),
        "feeder.partition_s": t("time", "feeder.make_partition", "feeder.partition_blocks"),
        "feeder.observable_matrices_s": t("time", "feeder.observable_matrices"),
        "feeder.bfm_s": t("time", "feeder.bfm_oracle"),
        "feeder.bfm_sweeps": count("feeder.bfm_oracle", "sweeps"),
        "feeder.v_err_pu_max": wl.v_err,
        "feeder.self_s": layer_self("feeder"),
        "data.load_s": t("time", "data.load_scenario"),
        "tso.dispatch_s": t("time", "tso.tso_dispatch"),
        "tso.outer_iters": count("tso.tso_dispatch", "outer"),
        "tso.pf_iters": count("tso.tso_dispatch", "pf"),
        "tso.newton_s": t("time", "tso.newton_powerflow"),
        "tso.vq_sensitivity_s": t("time", "tso.vq_sensitivity"),
        "tso.self_s": layer_self("tso"),
        "numkit.solve_linear_calls": calls("numkit.solve_linear"),
        "numkit.solve_linear_s": t("time", "numkit.solve_linear"),
    }
    return metrics


def run_all(names, args):
    """Run every named workload in its own process, in turn."""
    status = 0
    for name in names:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        status = status or subprocess.run(cmd).returncode
    return status


def main(argv=None):
    started = time.perf_counter()
    args = parse_args(argv)
    for var in THREAD_VARS:          # before numpy is first imported
        os.environ[var] = "1"
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "gridcoord").is_dir() or not spec_path.is_file():
        print(f"no gridcoord sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import gridcoord
    import tracer as tracer_mod
    import workloads
    from gridcoord import milp

    if args.setup_only:
        workloads.make_workload(args.workload, args.seed, args.smoke)
        return 0

    spec = json.loads(spec_path.read_text())
    if args.workload == "all":
        return run_all(workloads.WORKLOADS, args)
    setup_s, setup_samples = time_setup(args)

    tr = tracer_mod.Tracer()
    if args.trace:
        tr.install(gridcoord)
        tr.enabled = True
    wl = workloads.make_workload(args.workload, args.seed, args.smoke)
    setup_end = tr.mark()
    tr.enabled = False

    scope = StepScope(tr, workloads.RunawayGuard, started + GUARD_S)

    passes = []              # (traced, wall seconds, steps, span range)
    window_start = time.perf_counter()
    while True:
        scope.traced = bool(args.trace) and len(passes) % 2 == 1
        scope.pass_no = len(passes)
        first_span = tr.mark()
        t0 = time.perf_counter()
        steps = wl.run_pass(scope)
        wall = time.perf_counter() - t0
        passes.append((scope.traced, wall, steps, (first_span, tr.mark())))
        if any(s.stopped for s in steps):
            break
        have_both = not args.trace or len(passes) >= 2
        if have_both and time.perf_counter() - window_start + wall > args.seconds:
            break
    wl.finish()

    untraced = [p for p in passes if not p[0]]
    all_steps = [s for p in passes for s in p[2]]
    if wl.op_kind:
        op_times = [s.seconds for p in untraced for s in p[2]
                    if s.kind == wl.op_kind and s.error is None]
    else:
        op_times = [p[1] for p in untraced if not any(s.error for s in p[2])]
    tail_pct, tail = tail_percentile(op_times) if op_times else (100.0, 0.0)
    not_ok = sum(1 for s in all_steps
                 if s.error or s.outcome.get("status", milp.OPTIMAL) != milp.OPTIMAL)
    wall_s = statistics.median(p[1] for p in untraced)
    end_to_end = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_s_p50": statistics.median(op_times) if op_times else 0.0,
        "op_s_tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    run_info = {"op_kind": wl.op_kind or "pass", "op_samples": len(op_times),
                "op_tail_percentile": tail_pct, "passes": len(untraced),
                "setup_samples_s": setup_samples}
    details = {
        "ops_failed_frac": not_ok / len(all_steps),
        "bound_gap_rel": statistics.fmean(wl.gaps) if wl.gaps else 0.0,
        "v_err_pu_max": wl.v_err,
    }
    if args.workload == "dispatch-milp":
        details["dispatch_s"] = end_to_end["op_s_p50"]
    if args.workload == "dispatch-lp":
        details[f"interval_s_p{tail_pct:.0f}"] = tail
        details["interval_s_p50"] = end_to_end["op_s_p50"]

    per_layer = {}
    if args.trace:
        traced_ranges = [p[3] for p in passes if p[0]]
        per_layer = layer_metrics(tracer_mod, tr, setup_end, traced_ranges, wl)
        traced_walls = [p[1] for p in passes if p[0]]
        per_layer["trace.overhead_s"] = (statistics.median(traced_walls) - wall_s
                                         if traced_walls else 0.0)
        tr.uninstall()

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    available = per_layer if args.trace else end_to_end
    missing = [m["name"] for m in wanted if m["name"] not in available]
    if missing:
        raise KeyError(f"metrics named in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": available[m["name"]], "unit": m["unit"]} for m in wanted}

    failed = sum(1 for s in all_steps if s.error)
    correct = not wl.checks.failures
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "smoke": args.smoke, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(args, np, milp),
        "correct": correct, "check_failures": wl.checks.failures,
        "attempted": len(all_steps), "failed": failed,
        "run": run_info,
        **{group: {name: {"value": value, "unit": unit_of(name)}
                   for name, value in metrics_.items()}
           for group, metrics_ in (("end_to_end", end_to_end), ("details", details),
                                   ("per_layer", per_layer))},
        "steps": [{"pass": k, "traced": p[0], "kind": s.kind, "label": s.label,
                   "seconds": s.seconds, "error": s.error, "solves": s.solves,
                   "outcome": s.outcome}
                  for k, p in enumerate(passes) for s in p[2]],
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if args.trace:
        tr.dump(out_dir / f"{stem}-spans.json")

    for name, value in run_info.items():
        print(f"{name:38s} {value}")
    for name, value in {**end_to_end, **details, **per_layer}.items():
        print(f"{name:38s} {value} {unit_of(name)}")
    for line in wl.checks.failures:
        print(f"CHECK FAILED: {line}")
    print(f"environment {json.dumps(record['environment'])}")
    print(json.dumps({"correct": correct, "attempted": len(all_steps), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
