"""arbor benchmark: one workload per process, or all of them.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run from the root of a checkout; the program under test is imported from
``src/`` of that checkout.  A single-workload run prints readable lines
and, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  ``all`` runs
every workload untraced and traced, each in its own process, and prints
one table.  See README.md in this directory for the metrics.
"""

from __future__ import annotations

import os

# BLAS reads its thread count when numpy loads; pin it before that happens.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up is repeated at least MIN_SETUPS times, and until SETUP_S is spent.
MIN_SETUPS, SETUP_S = 3, 1.0
# a run measures at least MIN_PASSES passes, and more until --seconds is used
MIN_PASSES = 3


def layer_metrics(tracer, passes: int, pass_seconds: float, extra: dict) -> dict:
    from spans import SpanIndex

    ix, setup = SpanIndex(tracer.spans, "measure"), SpanIndex(tracer.spans, "setup")
    per = lambda x: x / passes  # noqa: E731 - every layer figure is per pass
    m: dict[str, float] = {}
    loads = [setup.dur(i) for i in setup.by_name.get("model.load", ())]
    m["model.load_s"] = statistics.median(loads) if loads else 0.0
    m["encoder.encode_s"] = per(ix.total("encoder.encode"))
    m["encoder.encode_calls"] = per(ix.count("encoder.encode"))
    for fn in ("predict_target", "feed_target", "point_source", "relation_dist_all"):
        m[f"decoder.{fn}_s"] = per(ix.total(f"decoder.{fn}"))
        m[f"decoder.{fn}_calls"] = per(ix.count(f"decoder.{fn}"))
    for fn in ("source_scores", "relation_scores"):
        m[f"decoder.{fn}_s"] = per(ix.total(f"decoder.{fn}"))

    decodes = ix.by_name.get("inference.greedy_decode", []) + ix.by_name.get(
        "inference.beam_decode", [])
    short, long = [], []
    for d in decodes:
        starts = sorted(ix.all[c][1] for c in ix.children.get(d, ())
                        if ix.all[c][0] == "decoder.predict_target")
        steps = [b - a for a, b in zip(starts, starts[1:] + [ix.all[d][2]])]
        short += steps[:20]
        if len(steps) >= 100:
            long += steps[-20:]
    m["decoder.step_ms_short"] = 1000 * statistics.median(short) if short else 0.0
    m["decoder.step_ms_long"] = 1000 * statistics.median(long) if long else 0.0
    m["decoder.step_ms_growth"] = (m["decoder.step_ms_long"] / m["decoder.step_ms_short"]
                                   if long and short else 0.0)
    decode_total = sum(ix.dur(d) for d in decodes)
    decode_self = sum(ix.self_time(d) for d in decodes)
    m["inference.decode_self_s"] = per(decode_self)
    m["inference.decode_self_share"] = decode_self / decode_total if decode_total else 0.0
    returned = sum(ix.all[d][6] for d in decodes)
    expansions = sum(1 for d in decodes for c in ix.children.get(d, ())
                     if ix.all[c][0] == "decoder.feed_target")
    m["inference.expansions_per_relation"] = expansions / returned if returned else 0.0
    parses = ix.by_name.get("inference.parse", [])
    inner = sum(ix.dur(c) for p in parses for c in ix.children.get(p, ())
                if ix.all[c][0] in ("inference.greedy_decode", "inference.beam_decode"))
    m["inference.reconstruct_s"] = per(sum(ix.dur(p) for p in parses) - inner)
    sentence_ms = [1000 * ix.dur(p) for p in parses]
    m["inference.sentence_ms_p50"] = statistics.median(sentence_ms) if sentence_ms else 0.0

    m["training.forward_s"] = per(ix.total("training.sequence_loss"))
    m["autodiff.backward_s"] = per(ix.total("autodiff.backward"))
    records = [ix.all[i][6] for i in ix.by_name.get("autodiff.backward", ())]
    m["autodiff.tape_records_per_batch"] = statistics.fmean(records) if records else 0.0
    m["training.clip_s"] = per(ix.total("training.clip_global_norm"))
    m["training.adam_s"] = per(ix.total("training.adam_step"))
    m["training.dev_decode_s"] = per(sum(
        ix.dur(i) for i in ix.by_name.get("inference.greedy_decode", ())
        if ix.has_ancestor(i, "training.train")))

    m["convert.to_arbor_s"] = per(ix.total("convert.to_arbor"))
    m["convert.from_arbor_s"] = per(ix.total("convert.from_arbor"))
    m["linearize.arbor_to_relations_s"] = per(ix.total("linearize.arbor_to_relations"))
    m["linearize.relations_to_arbor_s"] = per(ix.total("linearize.relations_to_arbor"))
    m["formats.write_s"] = per(ix.total("formats.write_penman", "formats.write_canonical",
                                        "formats.record_from_graph"))
    m["formats.read_s"] = per(ix.total("formats.read_penman", "formats.read_canonical",
                                       "formats.record_graph"))

    smatch = ix.by_name.get("evaluate.smatch_score", [])
    m["evaluate.smatch_s"] = per(sum(ix.dur(i) for i in smatch))
    variables = extra.get("item_vars", {})
    for bucket, lo, hi in (("vars_le10", 0, 10), ("vars_11_20", 11, 20)):
        m[f"evaluate.smatch_s.{bucket}"] = per(sum(
            ix.dur(i) for i in smatch if lo <= variables.get(ix.all[i][4], -1) <= hi))
    m["evaluate.triple_f1_s"] = per(ix.total("evaluate.labeled_triple_f1"))
    m["evaluate.smatch_agreement"] = extra.get("agreement", 0.0)
    m["trace.span_coverage"] = ix.top_level_total() / pass_seconds
    return m


def provenance() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or None
    except OSError:  # no git on the machine
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": commit,
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Set up, measure and check one workload; returns the result object."""
    import workloads
    from spans import Tracer
    from speed import Speed

    print(f"# provenance {json.dumps(provenance())}")
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    if trace:
        tracer.install()
    origin = perf_counter()
    # the memory reference work's matrix is allocated before any set-up
    speed = Speed(workloads.make(name, size, seed, workdir).reference_work)
    setup_times, wl = [], None
    try:
        spent = 0.0
        while len(setup_times) < MIN_SETUPS or spent < SETUP_S:
            wl = None  # never hold two set-ups at once: peak_rss_mb is the workload's
            gc.collect()
            wl = workloads.make(name, size, seed, workdir)
            started = perf_counter()
            wl.setup()
            setup_times.append(perf_counter() - started)
            speed.sample(setup_times[-1])
            spent += setup_times[-1]
        checks = workloads.Checks()
        tracer.phase = "check"
        extra = wl.check_setup(checks)
        item_seconds, units = [], []  # per pass: each item's wall time, work done
        started = perf_counter()
        k = 0
        while True:
            tracer.phase = "measure"
            inputs = wl.prepare_pass(k)
            clock = workloads.Clock(speed)
            outputs = wl.run_pass(tracer, clock, inputs)
            item_seconds.append(clock.seconds)
            units.append(wl.units(inputs))
            tracer.phase = "check"
            wl.check_pass(k, inputs, outputs, checks)
            k += 1
            if k >= MIN_PASSES and perf_counter() - started >= seconds:
                break
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    # every pass repeats the same items: a pass's typical time is the sum of
    # each item's median time across passes.  Times are reported as on the
    # reference machine (see speed.py).
    slowdown = speed.slowdown()
    typical_pass = sum(statistics.median(ts) for ts in zip(*item_seconds)) / slowdown
    throughput = units[0] / typical_pass
    print(f"# workload {name} ({size}) seed {seed}: {k} passes of {units[0]} {wl.unit}")
    calls = ", ".join(f"{len(v)} {kind}" for kind, v in speed.samples.items())
    print(f"# machine slowdown {slowdown:.4f} from reference work calls ({calls}); unscaled "
          f"throughput {throughput / slowdown:.6g}/s, "
          f"set-up {statistics.median(setup_times):.6g} s")
    for message in checks.messages:
        print(f"# FAILED {message}")
    print(f"# failed_share {checks.failed}/{checks.attempted} = "
          f"{checks.failed / checks.attempted:.4f}")
    if trace:
        extra = dict(extra)
        if hasattr(wl, "item_vars"):
            extra["item_vars"] = wl.item_vars()
        pass_seconds = [sum(ts) for ts in item_seconds]
        values = layer_metrics(tracer, k, sum(pass_seconds), extra)
        values["trace.throughput_per_s"] = throughput
        values["trace.machine_slowdown"] = slowdown
        samples = {}
        out = ROOT / ".perfbench" / f"trace-{name}-{size}-seed{seed}.jsonl"
        tracer.write_jsonl(out, {"workload": name, "size": size, "seed": seed, "passes": k,
                                 "pass_seconds": pass_seconds, **provenance()}, origin)
        print(f"# trace written to {out.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    else:
        values = {
            "setup_s": statistics.median(setup_times) / slowdown,
            "throughput_per_s": throughput,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        samples = {"setup_s": f"median of {len(setup_times)} set-ups at reference speed",
                   "throughput_per_s": f"{wl.unit} per second at reference speed; item "
                                       f"medians over {k} passes",
                   "peak_rss_mb": "1 process"}
    units_of = declared_metrics(trace)
    if set(values) != set(units_of):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units_of))} do not match "
                           f"BENCHMARK.json")
    for key in units_of:
        print(f"# {key} = {values[key]:.6g} {units_of[key]}"
            + (f" ({samples[key]})" if key in samples else ""))
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {key: {"value": values[key], "unit": units_of[key]} for key in units_of},
    }


def run_all(seed: int, seconds: float) -> int:
    import workloads

    rows, ok = [], True
    for name in workloads.WORKLOADS:
        results = []
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                print(f"# {name} --trace {trace} exited with {proc.returncode}")
                return 1
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print("\n".join(line for line in proc.stdout.splitlines() if line.startswith("# ")
                            and not line.startswith("# provenance")))
        plain, traced = results
        ok = ok and plain["correct"] and traced["correct"]
        base = plain["metrics"]["throughput_per_s"]["value"]
        overhead = traced["metrics"]["trace.throughput_per_s"]["value"] - base
        rows.append((name, plain, overhead, base))
    print()
    print(f"{'workload':24} {'metric':18} {'value':>12} unit")
    for name, plain, overhead, base in rows:
        for key, metric in plain["metrics"].items():
            print(f"{name:24} {key:18} {metric['value']:12.5g} {metric['unit']}")
        print(f"{name:24} {'failed_share':18} "
              f"{plain['failed'] / plain['attempted']:12.5g} share "
              f"({plain['failed']} of {plain['attempted']})")
        print(f"{name:24} {'traced - untraced':18} {overhead:12.5g} 1/s "
              f"({overhead / base:+.1%} of throughput_per_s)")
    print(json.dumps({"correct": ok, "workloads": {n: p for n, p, _, _ in rows}}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "arbor" / "__init__.py").is_file():
        print(f"error: no arbor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
