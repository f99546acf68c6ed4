"""emofuse benchmark: one seeded run of one workload, reported as one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload finetune-coattn --seed 1 --seconds 20 --trace 0

Each run starts fresh child processes one after another (see stages.py): one
produces the inputs from the seed, one runs the workload, one checks the
outputs. With ``--trace 1`` the workload runs twice, untraced and then
traced, and the per-layer metrics come from the traced run; the difference
of their ``wall_s`` is reported as the tracing overhead. The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it give each metric with its unit and direction, the environment,
the correctness checks and the artifact fingerprints. A record of the run
is kept under perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_THREADS = "1"
ADDR_NO_RANDOMIZE = 0x0040000
DEADLINE_S = 170.0

WORKLOADS = ("finetune-coattn", "pretrain-speech")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def _fixed_layout() -> None:
    """Turn off address-space randomization in a child, so its memory layout,
    and with it ``peak_rss_mb``, repeats from run to run."""
    ctypes.CDLL(None).personality(ADDR_NO_RANDOMIZE)


def stage(name: str, spec: dict, deadline: float) -> dict:
    """Run one stage in a fresh process and return what it wrote."""
    spec = dict(spec, stage=name, result=str(Path(spec["work"]) / f"{name}.json"))
    spec_path = Path(spec["work"]) / f"{name}.spec.json"
    spec_path.write_text(json.dumps(spec))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for stage {name}")
    proc = subprocess.run([sys.executable, str(HERE / "stages.py"), name, str(spec_path)],
                          cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=remaining,
                          preexec_fn=_fixed_layout)
    if proc.returncode != 0:
        raise BenchError(f"stage {name} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(Path(spec["result"]).read_text())
    if name == "measure" and "metrics" not in result:
        raise BenchError(f"workload took no timed step; command exit codes {result['rc']}")
    return result


def per_layer(layers: list[dict]) -> dict[str, float]:
    """Sum the layer summaries of several processes into per-layer metrics."""
    out: dict[str, float] = {}
    for summary in layers:
        for name, (calls, self_s) in summary["spans"].items():
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + calls
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s
        for key, value in summary["counters"].items():
            out[key] = out.get(key, 0) + value
        for key, value in summary["peak_alloc_mb"].items():
            out[key] = max(out.get(key, 0.0), value)
        for key, samples in summary["graph"].items():
            out[key] = samples[0] if len(set(samples)) == 1 else -1
    return out


def exact_counts(layers: dict[str, float]) -> dict[str, float]:
    """Counts that depend only on workload and run length, never on the seed."""
    return {k: v for k, v in sorted(layers.items())
            if k.endswith((".calls", ".graph_nodes", ".nodes"))}


def counts_repeat(counts: dict, untraced_calls: dict) -> bool:
    """Exact counts of the traced run repeat within this invocation: every
    sampled graph walk of a kind agrees, and the calls the untraced run
    counted (steps, evaluations, training starts, checkpoint writes) are the
    traced run's."""
    return (all(v >= 0 for v in counts.values())
            and all(counts.get(f"{name}.calls") == n for name, n in untraced_calls.items()))


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def run(args) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    work = OUT / "work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec = {"root": str(ROOT), "work": str(work), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": 0,
            "spans": str(OUT / "spans" / f"{args.workload}-seed{args.seed}.npz")}
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace}
    try:
        produced = stage("produce", dict(spec, trace=args.trace), deadline)
        measured = stage("measure", spec, deadline)
        record["environment"] = dict(measured["environment"], blas_threads=int(BLAS_THREADS))
        ops = list(produced["rc"]) + list(measured["rc"])
        checks: dict[str, bool] = {}
        if args.trace:
            Path(spec["spans"]).parent.mkdir(parents=True, exist_ok=True)
            traced = stage("measure", dict(spec, trace=1), deadline)
            ops += traced["rc"]
            layers = per_layer([produced["layers"], traced["layers"]])
            counts = exact_counts(layers)
            checks["exact_counts_repeat"] = counts_repeat(counts, measured["calls"])
            record["exact_counts"] = counts
            layers["tracing.wall_s"] = traced["metrics"]["wall_s"]
            layers["tracing.overhead_s"] = (traced["metrics"]["wall_s"]
                                            - measured["metrics"]["wall_s"])
            record["layers"] = layers
        checked = stage("check", spec, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks.update(checked["checks"])
    failed = sum(1 for rc in ops if rc != 0) + sum(1 for ok in checks.values() if not ok)
    attempted = len(ops) + len(checks)
    imports = [produced["import_s"], measured["import_s"], checked["import_s"]]
    if args.trace:
        imports.append(traced["import_s"])
    fingerprints = dict(measured["fingerprints"])
    if args.trace:
        fingerprints["exact_counts"] = digest(record["exact_counts"])
    record.update(checks=checks, notes=checked["notes"], rc=ops, steps=measured["steps"],
                  import_samples_s=imports, setup_samples_s=measured["setup_samples_s"],
                  step_ms=measured["step_ms"], fingerprints=fingerprints,
                  attempted=attempted, failed=failed)
    metrics = dict(measured["metrics"])
    metrics["setup_s"] = statistics.median(imports) + metrics.pop("setup_phase_s")
    metrics["failed_ratio"] = failed / attempted
    if args.trace:
        metrics.update(record["layers"])
    record["metrics"] = metrics
    return record, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "emofuse" / "cli.py").is_file():
        print(f"perfbench: no emofuse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        record, metrics = run(args)
        if args.trace:  # a layer the workload never enters reads zero
            for m in declared:
                metrics.setdefault(m["name"], 0)
        missing = [m["name"] for m in declared if m["name"] not in metrics]
        if missing:
            raise BenchError(f"run produced no value for {missing}")
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    OUT.joinpath("records").mkdir(parents=True, exist_ok=True)
    OUT.joinpath("records", f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} steps {record['steps']}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for name, ok in record["checks"].items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    for name, value in record["notes"].items():
        print(f"note {name}: {value}")
    for name, value in record["fingerprints"].items():
        print(f"fingerprint {name}: {value}")
    for name, value in record.get("exact_counts", {}).items():
        print(f"count {name} = {int(value)}")
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            if m["name"] in metrics:
                print(f"{group} {m['name']} = {metrics[m['name']]!r} {m['unit']} "
                      f"({m['better']} is better)")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
