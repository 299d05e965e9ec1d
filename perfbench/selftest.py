"""Self-check of the benchmark, at a tiny size.

Run from the repo root::

    PYTHONPATH=src python -m pytest perfbench/selftest.py -q

* Two traced runs of one seed on the serial workload give exactly the
  same per-layer counts (calls, tables analysed, counter ratios).
* Every metric named in ``BENCHMARK.json`` is printed with its unit, by
  every workload ``run.py`` runs, traced and untraced.
* An output that differs from the recorded digests fails the run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module", autouse=True)
def tiny(tmp_path_factory):
    # Below the generator's per-class minimum counts, so the one world is
    # the smallest one it builds; its digests are recorded here first.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workloads, "SCALE", 0.01)
        patch.setattr(workloads, "WORLD_SEEDS", (7000,))
        patch.setattr(workloads, "SERVE_WORLD", 7000)
        patch.setattr(workloads, "COLD_SETUPS", 1)
        patch.setattr(workloads, "SERVE_SETUPS", 1)
        digests = tmp_path_factory.mktemp("digests") / "digests.json"
        recorded = workloads.record_digests(workloads.WORLD_SEEDS)
        digests.write_text(json.dumps(recorded))
        patch.setattr(workloads, "DIGESTS_FILE", digests)
        yield digests


def printed(capsys, workload: str, trace: int, seed: int = 3) -> tuple[int, dict]:
    code = run.main([
        "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
        "--trace", str(trace),
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def result(capsys, workload: str, trace: int, seed: int = 3) -> dict:
    code, document = printed(capsys, workload, trace, seed)
    assert code == 0, document
    assert set(document) == {"correct", "attempted", "failed", "metrics"}
    assert document["correct"] is True
    assert document["attempted"] >= 1
    return document


def units(document: dict) -> dict:
    return {name: metric["unit"] for name, metric in document["metrics"].items()}


def expected_units(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def counts_only(document: dict) -> dict:
    return {
        name: metric["value"]
        for name, metric in document["metrics"].items()
        if metric["unit"] in ("count", "ratio")
    }


def test_traced_counts_repeat_exactly(capsys):
    first = result(capsys, "cold_batch", trace=1)
    second = result(capsys, "cold_batch", trace=1)
    assert units(first) == expected_units("per_layer")
    assert counts_only(first) == counts_only(second)
    assert counts_only(first)["text.label_similarity_calls"] > 0
    assert counts_only(first)["matching.tables_computed"] > 0


@pytest.mark.parametrize(
    "workload, trace",
    [
        (workload, trace)
        for workload in run.WORKLOADS
        for trace in (0, 1)
        # The traced cold_batch run is checked by the test above.
        if (workload, trace) != ("cold_batch", 1)
    ],
)
def test_every_named_metric_is_printed_with_its_unit(capsys, workload, trace):
    document = result(capsys, workload, trace)
    assert units(document) == expected_units("per_layer" if trace else "end_to_end")
    for name, metric in document["metrics"].items():
        assert isinstance(metric["value"], float), name
    if not trace:
        assert all(metric["value"] > 0 for metric in document["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_an_output_mismatch_fails_the_run(capsys, tiny, workload):
    recorded = json.loads(tiny.read_text())
    wrong = {key: {name: "0" * 64 for name in digests}
             for key, digests in recorded.items()}
    with pytest.MonkeyPatch.context() as patch:
        wrong_file = tiny.with_name("wrong.json")
        wrong_file.write_text(json.dumps(wrong))
        patch.setattr(workloads, "DIGESTS_FILE", wrong_file)
        code, document = printed(capsys, workload, trace=0)
    assert code == 1
    assert document["correct"] is False
