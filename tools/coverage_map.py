#!/usr/bin/env python3
"""Coverage map: list the src/ functions that no measured row, CLI or bench
reaches, and fail on any that the allowlist does not explain.

    python3 tools/coverage_map.py [--build-dir DIR] [--jobs N] [--report-only]
                                  [--list]

Steps:
  1. Configures two gcov builds: the main project (tools and the fig/table/
     ablation benches) and bench/suite's cmcp_bench. Both are Release builds
     with CMAKE_CXX_FLAGS=--coverage and CMAKE_CXX_FLAGS_RELEASE="-O0
     -DNDEBUG": Release keeps SimCheck compiled out and passes cmcp_bench's
     Release guard, -O0 keeps every function its own counters.
  2. Clears old counters and runs, CMCP_BENCH_FAST=1 throughout:
       * cmcp_bench run --smoke (every BENCHMARK.json workload, once);
       * every bench listed in bench/CMakeLists.txt's CMCP_BENCHES;
       * cmcp_sim runs shaped like three suite rows (bt/cmcp/0.64,
         cg/regular/fifo/0.37, bt/lru/0.64), the first traced to JSONL and
         that trace checked by trace_lint.
  3. Reads every .gcno file of both builds through `gcov --json-format`. It
     walks .gcno rather than .gcda files, so an object that no run linked
     (one that no binary pulls out of libcmcp.a, say) is reported as
     unreached instead of vanishing. Only src/ (libcmcp) counts; the tools'
     own libraries under tools/ are out of scope.
     A function counts as reached when any build's copy of it ran.
  4. Exits 1 if an unreached src/ function is missing from
     tools/coverage_allowlist.json, where every entry carries its reason
     (the chaos job, a `cmcp_sim --policy` value, SimCheck in dev builds...),
     if an allowlist entry names no compiled function (the code it
     explained was deleted or renamed, so the entry must go or follow it),
     or if an allowlisted function ran (its reason no longer holds, so the
     entry must go). Exits 2 when a build or a run fails, 0 otherwise.

Blind spot: gcov sees only functions that were compiled to code. An inline
function, header-defined member or template that nothing odr-uses emits no
code, so it has no counters and never shows up here as unreached. That is
how a header-only class used by no run (the old 64 kB PTE group model)
escaped the first map; such code is found by grepping for its users.

Serial cost at -O0 on a 4-vCPU VM: the suite smoke ~112 s, the benches
~426 s, the cmcp_sim rows plus trace_lint ~65 s. --jobs runs the benches
and rows concurrently (gcov merges counters of concurrent processes).
"""
import argparse
import concurrent.futures
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ALLOWLIST = os.path.join(HERE, "coverage_allowlist.json")
COVERAGE_FLAGS = ["-DCMAKE_BUILD_TYPE=Release",
                  "-DCMAKE_CXX_FLAGS=--coverage",
                  "-DCMAKE_CXX_FLAGS_RELEASE=-O0 -DNDEBUG"]
# Shaped like the suite rows bt56_cmcp_evict, cg56_fifo_regular and
# bt56_lru_scan.
CMCP_SIM_ROWS = [
    ["--cores", "56", "--workload", "bt", "--policy", "cmcp",
     "--fraction", "0.64"],
    ["--cores", "56", "--workload", "cg", "--pt", "regular",
     "--policy", "fifo", "--fraction", "0.37"],
    ["--cores", "56", "--workload", "bt", "--policy", "lru",
     "--fraction", "0.64"],
]


def paper_benches():
    """The bench names in bench/CMakeLists.txt's set(CMCP_BENCHES ...)."""
    with open(os.path.join(ROOT, "bench", "CMakeLists.txt")) as f:
        match = re.search(r"set\(CMCP_BENCHES(.*?)\)", f.read(), re.S)
    return match.group(1).split()


def build(build_dir, jobs):
    main_dir = os.path.join(build_dir, "main")
    suite_dir = os.path.join(build_dir, "suite")
    steps = [
        ["cmake", "-S", ROOT, "-B", main_dir, *COVERAGE_FLAGS],
        ["cmake", "--build", main_dir, "-j", str(jobs), "--target",
         "cmcp_sim", "trace_lint", *paper_benches()],
        ["cmake", "-S", os.path.join(ROOT, "bench", "suite"), "-B", suite_dir,
         *COVERAGE_FLAGS],
        ["cmake", "--build", suite_dir, "-j", str(jobs), "--target",
         "cmcp_bench"],
    ]
    for step in steps:
        subprocess.run(step, stdout=sys.stderr, check=True)


def gcno_files(build_dir):
    for parent, _, names in os.walk(build_dir):
        for name in names:
            if name.endswith(".gcno"):
                yield os.path.join(parent, name)


def run_all(build_dir, jobs):
    """Runs every measured workload on fresh counters; returns the failures."""
    for gcno in gcno_files(build_dir):
        gcda = gcno[:-len(".gcno")] + ".gcda"
        if os.path.exists(gcda):
            os.remove(gcda)
    main_dir = os.path.join(build_dir, "main")
    suite_dir = os.path.join(build_dir, "suite")
    runs_dir = os.path.join(build_dir, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    env = dict(os.environ, CMCP_BENCH_FAST="1")
    sim = os.path.join(main_dir, "tools", "cmcp_sim")
    trace = os.path.join(runs_dir, "row0.jsonl")

    jobs_list = [("suite-smoke", [[os.path.join(suite_dir, "cmcp_bench"), "run",
                                   "--smoke", "--json",
                                   os.path.join(runs_dir, "smoke.json")]])]
    for bench in paper_benches():
        jobs_list.append((bench, [[os.path.join(main_dir, "bench", bench)]]))
    for i, row in enumerate(CMCP_SIM_ROWS):
        cmd = [sim, *row, "--json", os.path.join(runs_dir, f"row{i}.json")]
        if i == 0:
            cmd += ["--trace", trace, "--trace-format", "jsonl"]
            jobs_list.append((f"row{i}", [cmd, [os.path.join(
                main_dir, "tools", "trace_lint"), trace]]))
        else:
            jobs_list.append((f"row{i}", [cmd]))

    def run_job(job):
        name, commands = job
        with open(os.path.join(runs_dir, name + ".log"), "w") as log:
            for cmd in commands:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=env, cwd=runs_dir).returncode
                if rc != 0:
                    return f"{name}: `{' '.join(cmd)}` exited {rc}"
        print(f"ran {name}", file=sys.stderr)
        return None

    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        failures = [f for f in pool.map(run_job, jobs_list) if f is not None]
    return failures


def function_counts(build_dir):
    """{(src-relative file, demangled name): (first line, executions)} over
    every .gcno under build_dir (both builds), summed across the objects
    that define it."""
    counts = {}
    src = os.path.join(ROOT, "src") + os.sep
    for gcno in sorted(gcno_files(build_dir)):
        out = subprocess.run(["gcov", "--json-format", "--stdout", gcno],
                             cwd=os.path.dirname(gcno), capture_output=True,
                             text=True, check=True).stdout
        for line in out.splitlines():
            if not line.startswith("{"):
                continue
            for entry in json.loads(line)["files"]:
                path = os.path.normpath(os.path.join(os.path.dirname(gcno),
                                                     entry["file"]))
                if not path.startswith(src):
                    continue
                rel = os.path.relpath(path, ROOT)
                for fn in entry["functions"]:
                    key = (rel, fn["demangled_name"])
                    first, seen = counts.get(key, (fn["start_line"], 0))
                    counts[key] = (min(first, fn["start_line"]),
                                   seen + fn["execution_count"])
    return counts


def load_allowlist():
    """{"file: function": reason} from tools/coverage_allowlist.json."""
    with open(ALLOWLIST) as f:
        groups = json.load(f)["groups"]
    allowed = {}
    for group in groups:
        for entry in group["functions"]:
            allowed[entry] = group["reason"]
    return allowed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir",
                        default=os.path.join(ROOT, "build-coverage"))
    parser.add_argument("--jobs", type=int, default=2,
                        help="parallel builds and runs (default 2)")
    parser.add_argument("--report-only", action="store_true",
                        help="read the counters of an earlier run")
    parser.add_argument("--list", action="store_true",
                        help="also print allowlisted unreached functions")
    args = parser.parse_args()
    build_dir = os.path.abspath(args.build_dir)

    if not args.report_only:
        try:
            build(build_dir, args.jobs)
        except (OSError, subprocess.CalledProcessError) as err:
            print(f"coverage_map: build failed: {err}", file=sys.stderr)
            return 2
        failures = run_all(build_dir, args.jobs)
        if failures:
            for failure in failures:
                print(f"coverage_map: run failed: {failure}", file=sys.stderr)
            return 2

    counts = function_counts(build_dir)
    allowed = load_allowlist()
    unreached = sorted((rel, line, name)
                       for (rel, name), (line, n) in counts.items() if n == 0)
    missing = [u for u in unreached if f"{u[0]}: {u[2]}" not in allowed]
    calls = {f"{rel}: {name}": n for (rel, name), (_, n) in counts.items()}
    stale = sorted(entry for entry in allowed if entry not in calls)
    ran = sorted(entry for entry in allowed if calls.get(entry, 0) > 0)

    if args.list:
        for rel, line, name in unreached:
            reason = allowed.get(f"{rel}: {name}", "NOT ALLOWLISTED")
            print(f"{rel}:{line}: {name}  [{reason}]")
    for entry in stale:
        print(f"coverage_map: allowlist entry names no compiled function: "
              f"{entry}", file=sys.stderr)
    for entry in ran:
        print(f"coverage_map: allowlisted function ran {calls[entry]} times: "
              f"{entry}", file=sys.stderr)
    for rel, line, name in missing:
        print(f"{rel}:{line}: unreached and not allowlisted: {name}")
    print(f"coverage_map: {len(counts) - len(unreached)} of {len(counts)} src/ "
          f"functions reached; {len(unreached)} unreached, "
          f"{len(missing)} of them not allowlisted; {len(ran)} of "
          f"{len(allowed)} allowlist entries ran", file=sys.stderr)
    return 1 if missing or stale or ran else 0


if __name__ == "__main__":
    sys.exit(main())
