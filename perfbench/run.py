#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source, then runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke         # every workload, ~1 s each
    python3 perfbench/run.py --check-exact   # exact counts repeat per seed

Run from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); scratch
files, sockets and span traces go under its work/ directory. The last
line of stdout is the result object; see perfbench/README.md for the
workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ["suite-sweep", "deep-search", "serve-repeat", "cli-cold"]
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out: Path) -> bool:
    """Configures and builds perfbench and kcc; logs go to out/build.log."""
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    jobs = str(os.cpu_count() or 1)
    cmds = []
    if not (out / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmds.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out), *gen,
                     "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", str(out), "-j", jobs,
                 "--target", "perfbench", "kcc"])
    with open(log_path, "w") as log:
        for cmd in cmds:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                break
        else:
            return True
    tail = log_path.read_text(errors="replace").splitlines()[-20:]
    print("\n".join(tail), file=sys.stderr)
    print(f"perfbench: build failed (log: {log_path})", file=sys.stderr)
    return False


def run_once(out: Path, workload: str, seed: int, seconds: float,
             trace: int, smoke: bool = False, capture: bool = False):
    # The run's scratch files live in work/, which is also its working
    # directory: Unix socket paths stay short however deep the checkout.
    work = out / "work"
    work.mkdir(exist_ok=True)
    cmd = [str(out / "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--kcc", str(out / "kcc"),
           "--desktop-dir", str(ROOT / "tests" / "suites" / "desktop"),
           "--work-dir", "."]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=work, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} timed out", file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout.decode() if capture else ""


def last_json(text: str, key: str):
    for line in reversed(text.strip().splitlines()):
        if line.startswith("{") and f'"{key}"' in line:
            return json.loads(line)
    return None


def smoke(out: Path) -> int:
    """Seconds-long run of every workload in both modes; checks the
    result object against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, text = run_once(out, workload, 1, 1, trace, smoke=True,
                                capture=True)
            result = last_json(text, "correct") if rc == 0 else None
            ok = (result is not None and result["correct"]
                  and set(result["metrics"]) == want[trace])
            print(f"smoke {workload} trace={trace}: "
                  f"{'ok' if ok else 'FAILED'}", file=sys.stderr)
            if not ok:
                failures += 1
                print(text, file=sys.stderr)
    return 1 if failures else 0


def check_exact(out: Path, seconds: float) -> int:
    """Two traced runs of one seed per workload: every count marked
    exact must repeat."""
    failures = 0
    for workload in WORKLOADS:
        runs = []
        for _ in range(2):
            rc, text = run_once(out, workload, 7, seconds, 1, capture=True)
            if rc != 0:
                print(f"{workload}: run failed", file=sys.stderr)
                return 1
            runs.append((last_json(text, "context")["context"]["exact"],
                         last_json(text, "correct")["metrics"]))
        for name in runs[0][0]:
            a, b = runs[0][1][name]["value"], runs[1][1][name]["value"]
            status = "ok" if a == b else "DIFFERS"
            failures += a != b
            print(f"{workload} {name}: {a} {b} {status}", file=sys.stderr)
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--check-exact", action="store_true")
    args = ap.parse_args()
    out = build_dir()
    if not build(out):
        return 1
    if args.smoke:
        return smoke(out)
    if args.check_exact:
        return check_exact(out, args.seconds)
    if not args.workload:
        ap.error("--workload is required")
    rc, _ = run_once(out, args.workload, args.seed, args.seconds, args.trace)
    return rc


if __name__ == "__main__":
    sys.exit(main())
