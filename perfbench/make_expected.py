"""Regenerate ``expected.json``: every job's status and subspec text.

Run from the repository root, on the code whose answers are the
reference (each batch runs cold, serially, without a cache)::

    python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro import api  # noqa: E402

from workloads import GRANULARITIES, SCENARIOS  # noqa: E402


def main() -> int:
    answers = {}
    for name in SCENARIOS:
        answers[name] = {}
        for granularity, per_line in GRANULARITIES:
            report = api.explain_batch(
                api.ExplainRequest(scenario=name, per_line=per_line, no_cache=True)
            )
            answers[name][granularity] = {
                r.job_id: {"status": r.status, "subspec": r.subspec}
                for r in report.results
            }
    with open(os.path.join(HERE, "expected.json"), "w", encoding="ascii") as handle:
        json.dump({"schema": "perfbench-expected/1", "answers": answers}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
