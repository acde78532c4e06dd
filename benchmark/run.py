#!/usr/bin/env python3
"""The repository benchmark: one command builds the engine from this
checkout, generates seeded inputs, runs a workload through the public APIs,
checks every request's ΔM against a sequential reference and prints the
metrics named in BENCHMARK.json. See benchmark/README.md.

  python3 benchmark/run.py                       # every workload, metric lines
  python3 benchmark/run.py --runs 5 --sets 2 --trace 1 --out results.json
  python3 benchmark/run.py --workload replay-search --seed 1 --seconds 10 --trace 0
  python3 benchmark/run.py compare PARENT.json CHANGE.json

The single-workload form prints one JSON object as its last line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "paracosm_bench"
MIN_PAIRS = 10


class BenchError(Exception):
    """A failure that must end the run without printing a result."""


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build


def build():
    """Configure and build paracosm_bench once per checkout (serialized)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("engine sources not found next to benchmark/; nothing to build")
    BUILD.mkdir(exist_ok=True)
    jobs = str(len(os.sched_getaffinity(0)))
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(BUILD / "build.log", "a") as out:
            for cmd in (["cmake", "-S", str(BENCH), "-B", str(BUILD)],
                        ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "paracosm_bench"]):
                if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                    raise BenchError(f"build failed: {' '.join(cmd)} (see {BUILD / 'build.log'})")


def binary_id():
    return hashlib.sha256(BINARY.read_bytes()).hexdigest()[:12]


def step(args, timeout):
    """Run one paracosm_bench step; return its JSON (the last stdout line)."""
    try:
        proc = subprocess.run([str(BINARY), *args], capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"paracosm_bench {args[0]} timed out after {timeout}s")
    if proc.returncode != 0:
        raise BenchError(f"paracosm_bench {args[0]} failed: {proc.stderr.strip()}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"paracosm_bench {args[0]} printed no result")


# ---------------------------------------------------------------- inputs


def inputs(workload, seed):
    """Generate (or reuse) the inputs and reference ΔM of (workload, seed).

    Both are untimed and cached per binary, so a rebuilt engine regenerates
    them. Seeds pinned in pinned.json must reproduce the pinned ΔM.
    """
    work = BUILD / "work" / binary_id() / f"{workload}-{seed}"
    ref_file = work / "reference.json"
    if not ref_file.is_file():
        work.mkdir(parents=True, exist_ok=True)
        step(["prepare", "--workload", workload, "--seed", str(seed), "--dir", str(work)], 170)
        ref = step(["reference", "--workload", workload, "--dir", str(work)], 170)
        ref_file.write_text(json.dumps(ref) + "\n")
    return work, json.loads(ref_file.read_text())


def pin_mismatch(workload, seed, ref):
    pinned = json.loads((BENCH / "pinned.json").read_text()).get(workload, {}).get(str(seed))
    if pinned is None:
        return None
    keys = ("dm_plus", "dm_minus", "digest")
    if any(pinned[k] != ref.get(k) for k in keys):
        return f"reference {[ref.get(k) for k in keys]} != pinned {[pinned[k] for k in keys]}"
    return None


# ---------------------------------------------------------------- one run


def run_one(spec, workload, seed, seconds, trace):
    """One measured run: the result object and the problems found."""
    work, ref = inputs(workload, seed)
    args = ["run", "--workload", workload, "--dir", str(work), "--seconds", str(seconds)]
    if trace:
        args += ["--trace", "--trace-out", str(work / "trace.json")]
    res = step(args, timeout=max(170, 4 * seconds + 60))

    problems = []
    mismatch = pin_mismatch(workload, seed, ref)
    if mismatch:
        problems.append(mismatch)
    dm = res["dm"]
    if (dm["plus"], dm["minus"]) != (ref["dm_plus"], ref["dm_minus"]):
        problems.append(f"ΔM {dm['plus']}/{dm['minus']} != reference "
                        f"{ref['dm_plus']}/{ref['dm_minus']}")
    if set(dm["digests"]) != {ref["digest"]}:
        problems.append(f"per-request ΔM digests {dm['digests']} != reference {ref['digest']}")

    names = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in res["metrics"]]
    if missing:
        raise BenchError(f"{workload}: metrics not reported: {missing}")
    attempted = int(res["attempted"])
    failed = int(res["failed"]) if not problems else attempted
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
                    for m in names},
    }, problems


# ---------------------------------------------------------------- statistics


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(parent, change, better, bound):
    """Judge one (workload, metric) from paired runs (choosing-metrics §8).

    insufficient — fewer than MIN_PAIRS pairs;
    regression   — the change's median is worse by more than `bound`, however
                   noisy either side is;
    gain         — the change wins at least 9/10 of pairs and the medians
                   differ by more than the parent's interquartile range; when
                   a side's spread exceeds `bound`, also every change run
                   beats every parent run;
    unresolved   — otherwise, when the spread of either side exceeds `bound`;
    unchanged    — otherwise.
    """
    n = min(len(parent), len(change))
    if n < MIN_PAIRS:
        return "insufficient"
    parent, change = parent[:n], change[:n]
    sign = 1 if better == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "regression"
    p_q1, _, p_q3 = quartiles(parent)
    noisy = max(spread(parent), spread(change)) > bound
    all_better = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    if wins >= 0.9 * n and sign * (c_med - p_med) > p_q3 - p_q1 and (all_better or not noisy):
        return "gain"
    return "unresolved" if noisy else "unchanged"


def alternates(parent_runs, change_runs):
    """True when the pairs alternate which side started first."""
    firsts = [p["started"] < c["started"] for p, c in zip(parent_runs, change_runs)]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def compare(spec, parent_file, change_file):
    parent = json.loads(Path(parent_file).read_text())
    change = json.loads(Path(change_file).read_text())
    rows = []
    for w in sorted({r["workload"] for r in parent["runs"]}):
        p_runs = [r for r in parent["runs"] if r["workload"] == w]
        c_runs = [r for r in change["runs"] if r["workload"] == w]
        paired = alternates(p_runs, c_runs)
        incorrect = not all(r["correct"] for r in c_runs)
        more_failed = (sum(r["failed"] for r in c_runs[:len(p_runs)])
                       > sum(r["failed"] for r in p_runs[:len(c_runs)]))
        for m in spec["end_to_end"]:
            p = [r["metrics"][m["name"]] for r in p_runs]
            c = [r["metrics"][m["name"]] for r in c_runs]
            v = verdict(p, c, m["better"], m["bound"]) if paired else "insufficient"
            if incorrect:
                v = "incorrect"
            elif v == "gain" and more_failed:
                v = "unchanged"
            rows.append({"workload": w, "metric": m["name"], "verdict": v,
                         "pairs": min(len(p), len(c)), "alternating": paired,
                         "parent_median": statistics.median(p) if p else None,
                         "change_median": statistics.median(c) if c else None})
    def fmt(x):
        return "-" if x is None else f"{x:.6g}"
    for r in rows:
        print(f"{r['workload']} {r['metric']} {r['verdict']} parent={fmt(r['parent_median'])} "
              f"change={fmt(r['change_median'])} pairs={r['pairs']}")
    print(json.dumps({"verdicts": rows, "claim": None}))
    return 1 if any(r["verdict"] in ("regression", "incorrect") for r in rows) else 0


# ---------------------------------------------------------------- machine


def machine_shape(work_dir):
    cpus = sorted(os.sched_getaffinity(0))
    sysfs = Path("/sys/devices/system/cpu")
    cores, packages = set(), set()
    for c in cpus:
        topo = sysfs / f"cpu{c}" / "topology"
        try:
            pkg = (topo / "physical_package_id").read_text().strip()
            core = (topo / "core_id").read_text().strip()
        except OSError:
            continue
        packages.add(pkg)
        cores.add((pkg, core))
    nodes = len(list(Path("/sys/devices/system/node").glob("node[0-9]*")))
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    fs_type, mount = "?", ""
    try:
        for line in Path("/proc/mounts").read_text().splitlines():
            _, point, kind = line.split()[:3]
            if str(work_dir).startswith(point) and len(point) >= len(mount):
                fs_type, mount = kind, point
    except OSError:
        pass
    return {"nproc": len(cpus), "cpu_model": model, "packages": len(packages) or None,
            "cores": len(cores) or None, "numa_nodes": nodes or None,
            "kernel": platform.release(), "wal_filesystem": fs_type}


# ---------------------------------------------------------------- modes


def single_mode(spec, args):
    """One workload, one run: the result JSON object as the last line."""
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; expected one of {names}")
    build()
    result, problems = run_one(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    for p in problems:
        log(f"{args.workload}: {p}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def summarize(spec, runs):
    """Median and quartiles per (workload, end-to-end metric, set); with two
    or more sets, how far the last set's median moved from the first's and
    whether that stays within the metric's bound."""
    summary = {}
    for w in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == w]
        for m in spec["end_to_end"]:
            sets = []
            for s in sorted({r["set"] for r in mine}):
                values = [r["metrics"][m["name"]] for r in mine if r["set"] == s]
                q1, med, q3 = quartiles(values)
                sets.append({"set": s, "n": len(values), "median": med, "q1": q1, "q3": q3,
                             "spread": spread(values)})
            entry = {"sets": sets}
            if len(sets) > 1:
                entry["set_shift"] = abs(sets[-1]["median"] - sets[0]["median"]) / sets[0]["median"]
                entry["sets_agree"] = entry["set_shift"] < m["bound"]
            summary.setdefault(w, {})[m["name"]] = entry
    return summary


def suite_mode(spec, args):
    """Every workload: `workload metric value unit` lines and a result file."""
    workloads = [w["name"] for w in spec["workloads"]]
    build()
    out_file = Path(args.append or args.out or BUILD / "results" / "latest.json")
    doc = json.loads(out_file.read_text()) if args.append and out_file.is_file() else {"runs": []}
    ok = True
    for s in range(args.sets):
        for i in range(args.runs):
            for w in workloads:
                started = time.time()
                result, problems = run_one(spec, w, args.seed, args.seconds, False)
                for p in problems:
                    log(f"{w}: {p}")
                ok = ok and result["correct"]
                doc["runs"].append({
                    "workload": w, "set": s, "index": i, "seed": args.seed, "started": started,
                    "correct": result["correct"], "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
    doc["summary"] = summarize(spec, doc["runs"])
    for w, metrics in doc["summary"].items():
        for m in spec["end_to_end"]:
            print(f"{w} {m['name']} {metrics[m['name']]['sets'][-1]['median']:.6g} {m['unit']}")
    if args.trace:
        doc["traced"] = {}
        for w in workloads:
            result, problems = run_one(spec, w, args.seed, args.seconds, True)
            for p in problems:
                log(f"{w}: {p}")
            ok = ok and result["correct"]
            doc["traced"][w] = {k: v["value"] for k, v in result["metrics"].items()}
            for m in spec["per_layer"]:
                print(f"{w} {m['name']} {doc['traced'][w][m['name']]:.6g} {m['unit']}")
    doc["machine"] = machine_shape(BUILD)
    doc["seconds"] = args.seconds
    doc.pop("claim", None)
    doc["claim"] = None  # this benchmark measures; it claims no gain
    out_file.parent.mkdir(parents=True, exist_ok=True)
    out_file.write_text(json.dumps(doc, indent=1) + "\n")
    log(f"results written to {out_file}")
    return 0 if ok else 1


def main(argv):
    spec = load_spec()
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("parent")
        p.add_argument("change")
        a = p.parse_args(argv[1:])
        return compare(spec, a.parent, a.change)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="run one workload and print its result JSON")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1 = per-layer metrics from a traced run (without --workload:"
                        " one more run per workload)")
    p.add_argument("--runs", type=int, default=1, help="runs per workload per set")
    p.add_argument("--sets", type=int, default=1, help="independent sets of --runs")
    p.add_argument("--out", help="result file (default .bench_build/results/latest.json)")
    p.add_argument("--append", help="add runs to this result file (for A/B pairs)")
    a = p.parse_args(argv)
    return single_mode(spec, a) if a.workload else suite_mode(spec, a)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        log(f"benchmark: {e}")
        sys.exit(2)
