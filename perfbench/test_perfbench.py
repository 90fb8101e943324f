"""Checks of the benchmark itself, on a tiny world so they run in seconds."""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from pathlib import Path

import pytest

import run

run.import_engine()

import checks  # noqa: E402
import workloads  # noqa: E402
from instrument import Tracer, layer_metrics  # noqa: E402
from probes import ADD_TAGS_SIZES, STRATEGIES  # noqa: E402

TINY = workloads.Workload("tiny", "kfold", 24, 0.5, 0.2, 2, "greedy", 1)
TINY_EVOLVE = workloads.Workload("tiny-evolve", "evolve", 24, 3.0, 1.0, 2, "greedy", 1)


@pytest.fixture
def runner(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    created = []

    def make(workload=TINY):
        r = run.PassRunner(workloads.setup(workload, 3), expected=None)
        created.append(r)
        return r

    yield make
    for r in created:
        r.checker.uninstall()


def test_tampered_report_counts_as_failed(runner, monkeypatch):
    r = runner()
    make_bundle = r.ledger.factory(r.s.make_bundle)
    assert r.run(make_bundle)["ok"]
    assert r.run(make_bundle)["ok"]

    honest = workloads.run_pass

    def tampered(*args, **kwargs):
        out = honest(*args, **kwargs)
        out.report["cells"][0]["rows"][-1]["holdout_pass_rate"] += 0.01
        return out

    monkeypatch.setattr(workloads, "run_pass", tampered)
    assert not r.run(make_bundle)["ok"]
    assert (len(r.records), r.failed) == (3, 1)


def test_wall_clock_fields_do_not_change_the_digest(runner):
    r = runner(TINY_EVOLVE)
    out = workloads.run_pass(r.s, r.s.make_bundle, r.out_dir)
    digests = checks.output_digests(out.report, out.library_bytes)
    out.report["cells"][0]["rows"][1]["wall_clock_ms"] += 5
    assert checks.output_digests(out.report, out.library_bytes) == digests
    assert checks.output_digests(out.report, out.library_bytes + b"\n") != digests


def test_broken_retention_breaks_an_invariant(runner, monkeypatch):
    import skillforge.harness as harness

    r = runner()
    honest = harness.filter_and_update
    monkeypatch.setattr(
        harness, "filter_and_update", lambda scored, library, ratio, *a: honest(scored, library, 1.0, *a)
    )
    assert not r.run(r.ledger.factory(r.s.make_bundle))["ok"]
    assert any("retained" in p for p in r.checker.problems)


def test_duplicate_ids_in_library_file_are_caught():
    meta = b'{"format":"skillforge-library"}\n'
    assert checks.library_file_problems(meta + b'{"id":"a"}\n{"id":"b"}\n') == []
    assert checks.library_file_problems(meta + b'{"id":"a"}\n{"id":"a"}\n')


def test_raising_pass_counts_as_failed(runner, monkeypatch):
    r = runner()

    def broken(*args, **kwargs):
        raise RuntimeError("provider down")

    monkeypatch.setattr(workloads, "run_pass", broken)
    assert r.run(r.s.make_bundle) is None
    assert r.failed == 1


def test_traced_pass_keeps_the_output_and_counts_every_layer(runner):
    r = runner(TINY_EVOLVE)
    untraced = r.run(r.ledger.factory(r.s.make_bundle))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.pass_id = 1
        traced = r.run(r.ledger.factory(r.s.make_bundle, tracer), wrap=lambda body: tracer.wrap("pass", body))
    finally:
        tracer.uninstall()
    assert untraced["ok"] and traced["ok"]
    table = tracer.pass_table(1)
    for name in ("retrieval.retrieve", "tags.add_tags", "cover.select_sources", "providers.chat",
                 "model.library_get", "harness.run_epoch", "parallel.item"):
        assert table[name]["calls"] > 0, name
    assert table["pass"]["self_s"] < table["pass"]["total_s"]


def test_self_time_subtracts_children_on_the_same_thread_only():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)

    def fan_out():
        parent = tracer.top()
        worker = threading.Thread(target=tracer.wrap("item", inner, parent_of=parent))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        inner()

    tracer.wrap("outer", fan_out)()
    spans = {s[1]: s for s in tracer.spans if s[1] != "inner"}
    table = tracer.pass_table(0)
    outer = spans["outer"]
    assert spans["item"][4] == outer[0]
    assert table["inner"]["calls"] == 2
    own_inner = table["inner"]["total_s"] - table["item"]["total_s"] + table["item"]["self_s"]
    assert table["outer"]["self_s"] == pytest.approx(table["outer"]["total_s"] - own_inner)


def test_counting_time_is_off_the_callers_self_time():
    import time

    from instrument import busy_self_s

    tracer = Tracer()
    tracer.wrap("outer", lambda: tracer.tally(time.sleep, 0.05))()
    table = tracer.pass_table(0)
    assert table["trace.tally"]["total_s"] >= 0.05
    assert table["outer"]["self_s"] < 0.01
    assert busy_self_s(table) == pytest.approx(table["outer"]["self_s"])


def test_provider_time_excludes_waiting():
    import time

    from instrument import ProviderLedger

    class Bundle:
        chat = embedder = likelihood = type("Stub", (), {
            "complete": lambda self, request: time.sleep(0.05),
            "embed": lambda self, texts: [], "score_likelihood": id,
        })()

    ledger = ProviderLedger()
    bundle = ledger.factory(lambda seed: Bundle())(0)
    bundle.chat.complete("request")
    assert ledger.calls["chat"] == 1
    assert ledger.busy_s["chat"] < 0.01


def test_counts_survive_many_threads():
    import sys

    from instrument import ProviderLedger
    from skillforge._parallel import parallel_map
    from skillforge.providers.mock import MockEmbedder

    class Bundle:
        chat = embedder = likelihood = None

    tracer, ledger = Tracer(), ProviderLedger()
    bundle = Bundle()
    bundle.embedder = MockEmbedder()
    bundle.chat = bundle.likelihood = type("Stub", (), {"complete": id, "score_likelihood": id})()
    ledger.factory(lambda seed: bundle, tracer)(0)
    step = tracer.wrap("step", lambda text: bundle.embedder.embed([text, text]))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel_map(step, [f"t{i}" for i in range(2000)], max_workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert (ledger.calls["embed"], ledger.embed_texts) == (2000, 4000)
    assert len(tracer.spans) == 4000
    assert len({s[0] for s in tracer.spans}) == 4000


def test_reference_unit_ignores_the_number_of_calls():
    from instrument import ProviderLedger

    ledger = ProviderLedger()
    ledger.calls.update(chat=10, likelihood=4, embed=2)
    ledger.busy_s.update(chat=1.0, likelihood=2.0, embed=0.5)
    ledger.embed_texts = 5
    assert ledger.reference_s == pytest.approx(0.1 + 0.5 + 0.1)
    ledger.calls.update(chat=20, likelihood=8, embed=4)
    ledger.busy_s.update(chat=2.0, likelihood=4.0, embed=1.0)
    ledger.embed_texts = 10
    assert ledger.reference_s == pytest.approx(0.7)


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    printed = set(layer_metrics({}, defaultdict(float)))
    printed |= {f"tags.add_tags.probe_{n}_s" for n in ADD_TAGS_SIZES}
    printed |= {f"cover.select_sources.probe_{s}_s" for s in STRATEGIES}
    printed |= {"world.generate_world_s", "trace.overhead_s"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: run.layer_unit(n) for n in printed}
