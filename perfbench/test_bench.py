#!/usr/bin/env python3
"""The benchmark's own test, at smoke size.

For every workload it runs perfbench/run.py untraced and traced and checks
that every metric named in BENCHMARK.json appears with its unit and that
every correctness gate passed. Then it feeds each gate a deliberately wrong
expected answer (--inject) and checks that the gate fails and the run
exits nonzero.

    python3 perfbench/test_bench.py

Exit status 0 when every check passed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("closure_table5", "fit_eco_50k", "daemon_mixed")
# Gate name reported by the workload -> the --inject value that feeds it a
# wrong expected answer.
INJECTED_GATES = {
    "closure_table5": {"closure_qor_repeatable": "closure_qor"},
    "fit_eco_50k": {"fit_stepwise_bitexact": "fit_bitexact"},
    "daemon_mixed": {"daemon_transcript_restored": "daemon_transcript",
                     "daemon_batches_ok": "daemon_status"},
}


def run(workload, trace, inject=""):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "2", "--trace", str(trace), "--smoke"]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    gates = {}
    result = None
    for line in lines:
        if line.startswith("gates: "):
            gates = json.loads(line[len("gates: "):])
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, gates, result, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, gates, result, err = run(workload, trace)
            label = "%s trace=%d" % (workload, trace)
            check(code == 0 and result is not None and result["correct"],
                  label + ": runs and is correct" +
                  ("" if code == 0 else " (exit %d: %s)" % (code, err[-300:])))
            if result is None:
                continue
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  label + ": attempted >= 1, failed == 0")
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                check(got is not None and got["unit"] == metric["unit"] and
                      isinstance(got["value"], (int, float)),
                      "%s: %s [%s]" % (label, metric["name"], metric["unit"]))
            for gate in INJECTED_GATES[workload]:
                check(gates.get(gate) is True, label + ": gate " + gate + " passes")
        for gate, inject in INJECTED_GATES[workload].items():
            code, gates, result, _ = run(workload, 0, inject)
            check(code != 0 and gates.get(gate) is False and
                  (result is None or not result["correct"]),
                  "%s: gate %s fails on a wrong expected answer" % (workload, gate))

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
