#!/usr/bin/env python3
"""Record mtcbench/golden.json from the current build.

    python3 mtcbench/record_golden.py [WORKLOAD...]

For every named workload (default: all) and every seed class
0..GOLDEN_SEEDS-1 this runs the shipped tool once and the replay
driver once, requires the two to agree on every deterministic report
line and every per-unit record, and stores the agreed values. Re-record only when a change is meant
to alter what the tools compute, and say so in the change.
"""

import argparse
import json
import shutil
import sys

import run


def record(name, seed, bins):
    work = run.build_dir() / "work" / ("golden-%s-%d" % (name, seed))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = run.Workload(name, seed, bins, work)
        iters = wl.spec["iterations"]
        expected = None
        if wl.spec["mode"] == "offline":
            rc, expected = wl.dump(iters)
            if rc != 0:
                raise run.BenchError("%s seed %d: dump exit %d"
                                     % (name, seed, rc))
        rc, out, *_ = run.invoke(wl.tool_argv(iters), work, "tool")
        if rc != 0:
            raise run.BenchError("%s seed %d: tool exit %d" % (name, seed, rc))
        tool_report = run.report_lines(wl.spec["runner"], out)
        tool_units = wl.tool_units()
        rc, out, *_ = run.invoke(wl.replay_argv(), work, "replay")
        if rc != 0:
            raise run.BenchError("%s seed %d: replay exit %d"
                                 % (name, seed, rc))
        rep = json.loads(out.splitlines()[-1])
        if rep["report"] != tool_report or (
                expected is not None and expected != tool_report):
            raise run.BenchError("%s seed %d: replay and tool reports "
                                 "differ" % (name, seed))
        if tool_units is not None and (run.unit_key(tool_units)
                                       != run.unit_key(rep["units"])):
            raise run.BenchError("%s seed %d: replay and tool units differ"
                                 % (name, seed))
        layers = rep["layers"]
        return {
            "report_sha": run.sha(tool_report),
            "units_sha": run.sha(run.unit_key(rep["units"])),
            "summary": tool_report[-1],
            "unique_signatures": layers["core.unique_signatures"],
            "sim_cycles": rep["sim_cycles_total"],
            "slices_decoded": layers["core.slices_decoded"],
            "check_work": layers["core.check_work"],
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    names = args.workloads or sorted(run.WORKLOADS)
    unknown = set(names) - set(run.WORKLOADS)
    if unknown:
        ap.error("unknown workloads: " + ", ".join(sorted(unknown)))
    bins = run.build()
    try:
        table = json.loads(run.GOLDEN.read_text())
    except (OSError, ValueError):
        table = {}
    for name in names:
        entries = {}
        for seed in range(run.GOLDEN_SEEDS):
            entries[str(seed)] = record(name, seed, bins)
            print(name, seed, entries[str(seed)]["summary"], flush=True)
        table[name] = entries
        run.GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True)
                              + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
