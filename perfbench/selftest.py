"""Self-test of the benchmark, on tiny cell sizes.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that:

1. every workload, untraced and traced, prints exactly the metric names
   and units ``BENCHMARK.json`` lists, with ``correct`` true;
2. the traced runs' span self times sum to the traced wall time within
   ``bench.SELF_SUM_TOLERANCE``;
3. a doctored reference digest makes a run report failures
   (``failed / attempted > 0``);
4. ``BENCHMARK.json``'s per-layer list is the ``layers.json`` catalogue;
5. a directory holding only ``BENCHMARK.json`` and this benchmark (no
   program to measure) makes the benchmark exit non-zero without
   printing a result.

Exits 0 when every check passes.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, os.path.join(ROOT, "src"))

import bench    # noqa: E402  (needs src/ on the path)
import cells    # noqa: E402
import layers   # noqa: E402


def run_cli(workload, trace, cwd=ROOT, seconds="0.5"):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "1994",
         "--seconds", seconds, "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_cli(declared, failures):
    expected = {0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
                1: {m["name"]: m["unit"] for m in declared["per_layer"]}}
    for workload in (w["name"] for w in declared["workloads"]):
        for trace in (0, 1):
            tag = "%s trace=%d" % (workload, trace)
            done = run_cli(workload, trace)
            if done.returncode != 0:
                failures.append("%s: exit %d\n%s" % (tag, done.returncode,
                                                     done.stderr[-2000:]))
                continue
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                failures.append("%s: metrics/units %s != BENCHMARK.json %s"
                                % (tag, sorted(got.items()),
                                   sorted(expected[trace].items())))
            if not result["correct"] or result["failed"]:
                failures.append("%s: not correct: %s" % (
                    tag, [l for l in lines if l.startswith("FAIL")]))
            if trace:
                check_self_sum(tag, lines, failures)
            print("ok  %s (%d metrics, %d attempted)"
                  % (tag, len(got), result["attempted"]))


def check_self_sum(tag, lines, failures):
    for line in lines:
        match = re.match(r"trace wall_s=(\S+) self_sum_s=(\S+)", line)
        if match:
            wall, self_sum = map(float, match.groups())
            if abs(wall - self_sum) > bench.SELF_SUM_TOLERANCE * wall:
                failures.append("%s: self times %.4f s vs traced wall "
                                "%.4f s" % (tag, self_sum, wall))
            return
    failures.append("%s: no trace summary line" % tag)


def check_doctored_digest(failures):
    sizing = cells.sizing_for("ws-single", "tiny")
    reference = bench.naive_reference("ws-single", sizing,
                                      bench.DEFAULT_SEED)
    victim = sorted(reference)[0]
    reference[victim] = "0" * len(reference[victim])
    result = bench.run("ws-single", bench.DEFAULT_SEED, 0.1, 0,
                       size="tiny", reference=reference,
                       out=lambda line: None)
    ratio = result["failed"] / result["attempted"]
    if not ratio > 0:
        failures.append("doctored digest for %s: fail ratio %r"
                        % (victim, ratio))
    print("ok  doctored digest -> fail ratio %.3f" % ratio)


def check_catalogue(declared, failures):
    catalogue = [{"name": m["name"], "unit": m["unit"],
                  "better": m["better"]} for m in layers.CATALOGUE]
    if catalogue != declared["per_layer"]:
        failures.append("BENCHMARK.json per_layer != layers.json")
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    if units != bench.UNITS:
        failures.append("BENCHMARK.json end_to_end units %s != %s"
                        % (units, bench.UNITS))
    print("ok  metric catalogues")


def check_bare_directory(failures):
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ws-single",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        if done.returncode == 0 or done.stdout.strip():
            failures.append("bare directory: exit %d, stdout %r"
                            % (done.returncode, done.stdout[-200:]))
    print("ok  bare directory exits %d" % done.returncode)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    failures = []
    check_catalogue(declared, failures)
    check_bare_directory(failures)
    check_doctored_digest(failures)
    check_cli(declared, failures)
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
