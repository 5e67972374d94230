#!/usr/bin/env python3
"""The momsim benchmark: end-to-end `momlab run` workloads plus the layer ladder.

Run from the repository root:

    python3 perfbench/run.py --workload stress --seed 42 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10          # every workload
    python3 perfbench/run.py --workload apps --trace 1             # the layer ladder
    python3 perfbench/run.py --write-refs                          # refresh refs/

`--trace 0` builds `momlab` and `perfbench` in release mode, then runs the
workload's `momlab run` command back to back for `--seconds` seconds (closed
loop, one process at a time, `--workers 1`), checks every cell of every run
against the workload's reference results at tolerance 0, and reports the
best repetition's timings and the median set-up time. `--trace 1` runs the layer ladder in
process instead (see perfbench/src/ladder.rs) and reports per-layer metrics.
The last line of stdout is always one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
REFS = BENCH / "refs"
DEFAULT_SEED = 42
# Measured runs use one worker: on a shared 2-vCPU host a two-thread
# pipeline's wall time follows the scheduling of both vCPUs and spread 2-3x
# more across runs. The traced run keeps two, as the pipelined scheduler
# (lab.occupancy) needs them.
WORKERS = 1
TRACED_WORKERS = 2
MIN_REPS = 3
# Set-up is timed in short bursts spread over the run; `setup_s` is the
# median set-up time of the fastest burst, the set-up counterpart of the
# best repetition.
SETUP_BURSTS = 20
SETUP_BURST_SECONDS = 0.1
UNTRACED_RUNS = 3

# Each workload is one `momlab run` command at a fixed scale, small enough
# (0.1-0.5 s a run) that many runs fit in the host's fast phases. `ladder_scale`
# sizes the traced run's ladder, which repeats every rung per repetition.
WORKLOADS = {
    "stress": {"experiment": "stress", "args": [], "scale": 2, "ladder_scale": 1, "mode": "fanout"},
    "sweep": {
        "experiment": "sweep",
        "args": [],
        "scale": 4,
        "ladder_scale": 4,
        "mode": "fanout",
        "fresh_cache": True,
    },
    "apps": {"experiment": "figure7", "args": [], "scale": 1, "ladder_scale": 1, "mode": "fanout"},
    "sampled": {"experiment": "stress", "args": ["--sampled"], "scale": 5, "ladder_scale": 1, "mode": "sampled"},
}

E2E_UNITS = {"wall_s": "s", "minst_per_s": "Minst/s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env(target):
    """The environment of every child: no MOM_* overrides, one target dir."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MOM_")}
    env["CARGO_TARGET_DIR"] = str(target)
    return env


def target_dir():
    configured = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(configured)
    return path if path.is_absolute() else ROOT / path


def release_profile(manifest):
    with open(manifest, "rb") as f:
        return tomllib.load(f).get("profile", {}).get("release", {})


def build(target):
    """Build `momlab` (the repository workspace) and `perfbench` (its own
    workspace), both in release mode with the same profile."""
    root_profile = release_profile(ROOT / "Cargo.toml")
    bench_profile = release_profile(BENCH / "Cargo.toml")
    if root_profile != bench_profile:
        sys.exit(f"perfbench/Cargo.toml [profile.release] {bench_profile} differs from the workspace's {root_profile}")
    env = child_env(target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "mom-lab", "--bin", "momlab"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(BENCH / "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"build failed: {' '.join(cmd)}")
    return target / "release" / "momlab", target / "release" / "perfbench", root_profile


def source_digest():
    """sha256 over the sources that determine the measured binaries."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", BENCH / "Cargo.toml"]
    for top in ("crates", "shims", "perfbench/src"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file() and "target" not in p.parts)
    for p in files:
        if p.exists():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def provenance(profile):
    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "arch": platform.machine(),
        "os": f"{platform.system()} {platform.release()}",
        "rustc": rustc,
        "git_commit": commit,
        "source_sha256": source_digest(),
        "release_profile": profile,
        "features": [],
    }


def cell_key(cell):
    return f"{cell['workload']}|{cell['config']}|{cell['way']}"


def cell_digests(doc):
    """One digest per cell over its deterministic results (plus its sampling
    row in sampled runs): equal digests mean equal results at tolerance 0."""
    sampling = {cell_key(c): c for c in doc.get("sampling", {}).get("cells", [])}
    out = {}
    for cell in doc["cells"]:
        payload = {"cell": cell, "sampling": sampling.get(cell_key(cell))}
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        out[cell_key(cell)] = hashlib.sha256(text.encode()).hexdigest()
    return out


class Runner:
    def __init__(self, momlab, perfbench, work, target):
        self.momlab = momlab
        self.perfbench = perfbench
        self.work = work
        self.env = child_env(target)
        self.first_doc = None  # the first run's document; later ones are dropped

    def momlab_run(self, w, seed, extra, out, cache_dir=None):
        """One closed-loop `momlab run`, timed from outside by `perfbench
        spawn` (a small parent, so the peak RSS is momlab's own). Returns
        (exit code, wall s, cpu s, peak RSS MB, document or None)."""
        spec = WORKLOADS[w]
        cmd = [str(self.momlab), "run", spec["experiment"], *extra, "--scale", str(spec["scale"]),
               "--seed", str(seed), "--quiet", "--json", str(out)]
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
            cmd += ["--cache-dir", str(cache_dir)]
        out.unlink(missing_ok=True)
        with open(self.work / "momlab.stderr", "wb") as err:
            done = subprocess.run([str(self.perfbench), "spawn", *cmd], cwd=ROOT, env=self.env,
                                  stdout=subprocess.PIPE, stderr=err, text=True)
        if done.returncode != 0:
            sys.exit(f"perfbench spawn failed: {(self.work / 'momlab.stderr').read_text()[-2000:]}")
        usage = json.loads(done.stdout.strip().splitlines()[-1])
        code = usage["code"]
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
        doc = json.loads(out.read_text()) if code == 0 and out.exists() else None
        if doc is None:
            log(f"momlab exited {code}: {(self.work / 'momlab.stderr').read_text()[-2000:]}")
        return code, usage["wall_s"], usage["cpu_s"], usage["maxrss_kb"] / 1024.0, doc

    def reference(self, w, seed):
        """The workload's reference results for `seed`: committed for the
        default seed, otherwise made once per seed through other execution
        modes than the measured one and kept in the work directory."""
        committed = REFS / f"{w}.json"
        if seed == DEFAULT_SEED and committed.exists():
            return json.loads(committed.read_text())
        cached = self.work / "refs" / f"{w}-{seed}-{source_digest()[:16]}.json"
        if cached.exists():
            return json.loads(cached.read_text())
        ref = self.make_reference(w, seed)
        cached.parent.mkdir(parents=True, exist_ok=True)
        cached.write_text(json.dumps(ref, indent=1, sort_keys=True))
        return ref

    def make_reference(self, w, seed):
        spec = WORKLOADS[w]
        out = self.work / "reference.json"
        # Exact results from the per-cell streamed pipeline: a fan-out bug
        # cannot vouch for itself.
        code, _, _, _, exact = self.momlab_run(w, seed, ["--streamed", "--workers", str(WORKERS)], out)
        if exact is None:
            sys.exit(f"reference run for {w} seed {seed} failed ({code})")
        ref = {
            "workload": w,
            "experiment": spec["experiment"],
            "scale": spec["scale"],
            "seed": seed,
            "config_hash": exact["config_hash"],
            "made_by": "momlab run --streamed",
            "exact": {cell_key(c): {"instructions": c["instructions"], "cycles": c["cycles"]} for c in exact["cells"]},
            "cells": cell_digests(exact),
        }
        if spec["mode"] == "sampled":
            # Sampled estimates come only from the sampled mode; the
            # two-worker run schedules them differently from the measured
            # one-worker runs.
            code, _, _, _, sampled = self.momlab_run(w, seed, spec["args"] + ["--workers", "2"], out)
            if sampled is None:
                sys.exit(f"sampled reference run for {w} seed {seed} failed ({code})")
            for c in sampled["cells"]:
                if c["instructions"] != ref["exact"][cell_key(c)]["instructions"]:
                    sys.exit(f"sampled reference {cell_key(c)} executed a different instruction count")
            ref["cells"] = cell_digests(sampled)
            ref["made_by"] = "momlab run --streamed (exact) + momlab run --sampled --workers 2 (estimates)"
        out.unlink(missing_ok=True)
        return ref

    def checked_rep(self, w, seed, ref, workers=WORKERS):
        """One measured run plus its tolerance-0 check against `ref`."""
        spec = WORKLOADS[w]
        out = self.work / "run.json"
        cache = self.work / "e2e-cache" if spec.get("fresh_cache") else None
        code, wall, cpu, rss, doc = self.momlab_run(w, seed, spec["args"] + ["--workers", str(workers)], out, cache)
        cells = len(ref["cells"])
        if doc is None or doc.get("config_hash") != ref["config_hash"]:
            return {"wall": wall, "cpu": cpu, "rss": rss, "cells": cells, "failed": cells, "insts": 0, "ran": False}
        got = cell_digests(doc)
        failed = sum(1 for k, digest in ref["cells"].items() if got.get(k) != digest)
        failed += sum(1 for k in got if k not in ref["cells"])
        if self.first_doc is None:
            self.first_doc = doc
        insts = doc["meta"]["shared_passes"]["cell_instructions"]
        return {"wall": wall, "cpu": cpu, "rss": rss, "cells": cells, "failed": failed, "insts": insts, "ran": True}

    def setup(self, w, seed):
        spec = WORKLOADS[w]
        cmd = [str(self.perfbench), "setup", "--experiment", spec["experiment"], "--scale", str(spec["scale"]),
               "--seed", str(seed), "--seconds", str(SETUP_BURST_SECONDS)]
        done = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"perfbench setup failed: {done.stderr[-2000:]}")
        return json.loads(done.stdout.strip().splitlines()[-1])

    def ladder(self, w, seed, seconds, trace_out):
        spec = WORKLOADS[w]
        cmd = [str(self.perfbench), "ladder", "--workload", w, "--experiment", spec["experiment"],
               "--scale", str(spec["ladder_scale"]), "--e2e-scale", str(spec["scale"]), "--seed", str(seed),
               "--seconds", str(seconds), "--mode", spec["mode"], "--work-dir", str(self.work / "ladder"),
               "--trace-out", str(trace_out)]
        if spec.get("fresh_cache"):
            cmd.append("--fresh-cache")
        done = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            return None
        return json.loads(done.stdout.strip().splitlines()[-1])


def sampling_accuracy(doc, ref):
    """Worst-cell IPC error (%) of the sampled estimates against the exact
    reference, and the share of cells whose exact IPC lies in the 95% CI."""
    errors, covered = [], 0
    for c in doc["sampling"]["cells"]:
        exact = ref["exact"][cell_key(c)]
        exact_ipc = exact["instructions"] / exact["cycles"]
        miss = abs(c["ipc_mean"] - exact_ipc)
        errors.append(miss / exact_ipc * 100.0)
        covered += miss <= c["ipc_ci95"]
    return max(errors), covered / len(errors)


def median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(r, w, seed, seconds):
    ref = r.reference(w, seed)
    setups, reps = [], []
    started = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - started < seconds:
        if len(setups) * seconds <= SETUP_BURSTS * (time.perf_counter() - started):
            setups.append(r.setup(w, seed))
        reps.append(r.checked_rep(w, seed, ref))
    ok = [rep for rep in reps if rep["ran"]]
    # The host's speed changes in phases of seconds (up to 2x); the fastest
    # repetition of a run is its steadiest figure, so timings report the best
    # repetition and the `#` lines add the median.
    timed = ok or reps
    walls = [rep["wall"] for rep in timed]
    metrics = {
        "wall_s": min(walls),
        "minst_per_s": max(rep["insts"] / rep["wall"] for rep in timed) / 1e6,
        "cpu_s": min(rep["cpu"] for rep in timed),
        "setup_s": min(s["setup_s"] for s in setups),
        "peak_rss_mb": median([rep["rss"] for rep in timed]),
    }
    attempted = sum(rep["cells"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    extra = {
        "fail_frac": (failed / attempted, "frac"),
        "wall_s.median": (median(walls), "s"),
        "cpu_s.median": (median([rep["cpu"] for rep in timed]), "s"),
        "reps": (len(reps), "runs"),
        "setup_s.median": (median([s["setup_s"] for s in setups]), "s"),
        "setup_reps": (sum(s["reps"] for s in setups), "runs"),
    }
    if WORKLOADS[w]["mode"] == "sampled" and ok:
        err, cover = sampling_accuracy(r.first_doc, ref)
        extra["ipc_err_max_pct"] = (err, "%")
        extra["ci_cover_frac"] = (cover, "frac")
    return metrics, extra, attempted, failed


def traced(r, w, seed, seconds, trace_out, prov):
    ladder = r.ladder(w, seed, seconds, trace_out)
    ref = r.reference(w, seed)
    reps = [r.checked_rep(w, seed, ref, TRACED_WORKERS) for _ in range(UNTRACED_RUNS)]
    if ladder is None:
        cells = sum(rep["cells"] for rep in reps)
        return {}, {}, cells + 1, sum(rep["failed"] for rep in reps) + 1
    metrics = {name: (m["value"], m["unit"]) for name, m in ladder["metrics"].items()}
    untraced = min(rep["wall"] for rep in reps)
    metrics["trace.overhead_frac"] = (min(ladder["traced_wall_s"]) / untraced - 1.0, "frac")
    trace = json.loads(trace_out.read_text())
    trace.setdefault("otherData", {})["provenance"] = prov
    trace_out.write_text(json.dumps(trace))
    attempted = ladder["check"]["attempted"] + sum(rep["cells"] for rep in reps)
    failed = ladder["check"]["failed"] + sum(rep["failed"] for rep in reps)
    for note in ladder["check"]["notes"]:
        print(f"# check failed: {note}")
    extra = {"reps": (ladder["summary"]["reps"], "runs"), "trace": (str(trace_out), "file")}
    for rung, name, ms in ladder["self_time_ms"][:8]:
        extra[f"self.{rung}.{name}"] = (ms, "ms")
    return metrics, extra, attempted, failed


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(r, w, seed, seconds, trace, prov):
    r.first_doc = None
    if trace:
        trace_out = r.work / f"trace-{w}-{seed}.json"
        metrics, extra, attempted, failed = traced(r, w, seed, seconds, trace_out, prov)
    else:
        metrics, extra, attempted, failed = end_to_end(r, w, seed, seconds)
        metrics = {name: (value, E2E_UNITS[name]) for name, value in metrics.items()}
    if r.first_doc is not None:
        meta = r.first_doc["meta"]
        prov["simd_active"] = meta["host"]["simd_active"]
        prov["features"] = ["simd"] if meta["engine"]["simd_feature"] else []
        prov["lanes"] = "swar" if meta["engine"]["swar"] else "scalar"
    spec = WORKLOADS[w]
    print(f"# {w}: momlab run {spec['experiment']} {' '.join(spec['args'])} --scale {spec['scale']} "
          f"--seed {seed} --workers {TRACED_WORKERS if trace else WORKERS}; trace {int(trace)}; "
          f"{attempted} checked, {failed} failed")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"#   {name:<34} {fmt(value):>14} {unit}")
    return metrics, attempted, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-refs", action="store_true", help=f"regenerate perfbench/refs/ for seed {DEFAULT_SEED}")
    args = ap.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        sys.exit(f"perfbench: no momsim sources around {BENCH} (expected Cargo.toml and crates/ in {ROOT})")
    target = target_dir()
    momlab, perfbench, profile = build(target)
    work = target / "perfbench-work"
    work.mkdir(parents=True, exist_ok=True)
    r = Runner(momlab, perfbench, work, target)
    if args.write_refs:
        REFS.mkdir(exist_ok=True)
        for w in WORKLOADS:
            ref = r.make_reference(w, DEFAULT_SEED)
            (REFS / f"{w}.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
            log(f"wrote {REFS / (w + '.json')}")
        return

    prov = provenance(profile)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: run_workload(r, w, args.seed, args.seconds, args.trace, prov) for w in names}
    print(f"# provenance {json.dumps(prov, sort_keys=True)}")
    attempted = sum(a for _, a, _ in results.values())
    failed = sum(f for _, _, f in results.values())
    if len(names) == 1:
        metrics = results[names[0]][0]
    else:
        metrics = {f"{w}.{name}": m for w, (ms, _, _) in results.items() for name, m in ms.items()}
    (work / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": prov, "attempted": attempted, "failed": failed,
                    "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}, indent=1))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
