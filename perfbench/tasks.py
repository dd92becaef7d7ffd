"""Per-suite and slowest check-task times from a traced suite-all run.

    python3 perfbench/run.py --workload suite-all --seed 7 --seconds 40 --trace 1
    python3 perfbench/tasks.py perfbench/_out/trace-suite-all-seed7.jsonl \
        perfbench/_out/suite-all/report.json

Task spans follow report order, so each is labelled with its report's
check and function.  Times are traced, not host-normalized.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict


def main(trace_path: str, report_path: str, top: int = 10) -> None:
    with open(trace_path) as handle:
        spans = [json.loads(line) for line in handle]
    with open(report_path) as handle:
        reports = json.load(handle)
    tasks = [s for s in spans if s["name"] == "checks.task"]
    passes = len(tasks) // len(reports)
    suites: dict[str, float] = defaultdict(float)
    for s in spans:
        if s["name"] in ("checks.build", "checks.task"):
            suites[s["tag"]] += (s["end"] - s["start"]) / passes
    print("suite (build + tasks), seconds per pass")
    for name, seconds in sorted(suites.items(), key=lambda kv: -kv[1]):
        print(f"  {name:28s} {seconds:7.3f}")
    per_task: dict[int, float] = defaultdict(float)
    for i, s in enumerate(tasks):
        per_task[i % len(reports)] += (s["end"] - s["start"]) / passes
    print(f"slowest {top} tasks, seconds per pass")
    for i, seconds in sorted(per_task.items(), key=lambda kv: -kv[1])[:top]:
        r = reports[i]
        print(f"  {seconds:7.3f}  {r['check']} on {r['function']}")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
