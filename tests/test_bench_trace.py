"""A traced benchmark pass enters every boundary its workload claims.

perfbench/run.py stops a traced run with exit status 2 when a traced
command leaves no record, or when the workload never enters one of the
boundaries that run.HOME lists for it.  Here each workload's commands run
once, in process, through the tracer, and the same condition is checked.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
import tracer  # noqa: E402


@pytest.mark.parametrize("workload", sorted(run.COMMANDS))
def test_traced_workload_enters_its_home_boundaries(workload, tmp_path,
                                                    capsys):
    records = []
    for cid, args in enumerate(run.COMMANDS[workload]):
        path = tmp_path / f"command-{cid}.json"
        assert tracer.main([str(path), str(cid), "--", *args]) == 0
        records.append(json.loads(path.read_text(encoding="utf-8")))
    metrics = run.layer_metrics(records)
    assert [b for b in run.HOME[workload]
            if not run.entered(metrics, b)] == []
