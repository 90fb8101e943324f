from __future__ import annotations

import json
import re
import stat

import pytest

from skillforge.cli import build_parser, dispatch, resolve_run_config
from skillforge.errors import ConfigError
from skillforge.harness import (
    SWEEP_DIMENSIONS,
    EvolutionReport,
    ProviderBundle,
    mock_provider_factory,
    strip_wall_clock,
)
from skillforge.model import SkillLibrary, load_library, save_library, save_tasks, Task
from skillforge.providers.base import ChatResponse
from skillforge.world import load_world

from conftest import make_skill


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(
        json.dumps(
            {
                "targets": ["t1", "t2", "t3"],
                "skills": {"s1": ["t1", "t2"], "s2": ["t2", "t3", "u1"], "s3": ["t3"]},
            }
        ),
        encoding="utf-8",
    )
    return path


def test_no_arguments_prints_help_and_exits_one(capsys):
    assert dispatch([]) == 1
    assert "usage" in capsys.readouterr().out.lower()


def test_unknown_subcommand_is_usage_error():
    assert dispatch(["frobnicate"]) == 1


def test_help_flag_exits_zero():
    assert dispatch(["--help"]) == 0


def test_select_fixture_prints_expected_ids(instance_file, capsys):
    assert dispatch(["select", "--instance", str(instance_file), "--strategy", "greedy"]) == 0
    assert capsys.readouterr().out.strip() == "s1,s3"


def test_select_missing_file_is_runtime_error(tmp_path, capsys):
    assert dispatch(["select", "--instance", str(tmp_path / "missing.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_select_unknown_strategy_is_runtime_error(instance_file):
    assert dispatch(["select", "--instance", str(instance_file), "--strategy", "bogus"]) == 2


@pytest.mark.parametrize(
    "content, message",
    [
        (
            {"targets": ["a"], "skills": {"s1": "abc", "s2": ["a"]}},
            "instance field 'skills' must be an object of arrays",
        ),
        ({"targets": "ab", "skills": {"s1": ["a"]}}, "instance field 'targets' must be an array of strings"),
        ([1], "instance is not a JSON object"),
        ({"skills": {"s1": ["a"]}}, "instance field 'targets' is missing"),
        ({"targets": ["a"], "skills": {"s1": ["a", 2]}}, "instance field 's1' must be an array of strings"),
    ],
    ids=["skill-string", "targets-string", "not-an-object", "targets-missing", "skill-class-number"],
)
def test_select_names_the_file_and_field_of_a_bad_instance(tmp_path, capsys, content, message):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(content), encoding="utf-8")
    assert dispatch(["select", "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert f"error: {path}: {message}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, name",
    [
        (["select", "--instance", "{path}"], "instance.json"),
        (["report", "--input", "{path}", "--out", "{out}"], "report.json"),
        (["eval", "--mock", "--config", "{path}", "--out", "{out}"], "config.json"),
        (["evolve", "--mock", "--world-dir", "{dir}", "--out", "{out}"], "world.json"),
    ],
    ids=["select", "report", "config", "world-dir"],
)
def test_invalid_json_in_an_input_file_names_the_file(tmp_path, capsys, argv, name):
    path = tmp_path / name
    path.write_text('{"seed": 7, ', encoding="utf-8")  # truncated
    out = tmp_path / "out"
    assert dispatch([arg.format(path=path, dir=tmp_path, out=out) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: invalid JSON: Expecting property name" in err
    assert err.count(str(path)) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, name",
    [
        (["retrieve", "--library", "{path}", "--query", "csv"], "library.jsonl"),
        (["tag", "--mock", "--tasks", "{path}", "--out", "{out}"], "tasks.jsonl"),
        (["score", "--mock", "--candidates", "{path}", "--out", "{out}"], "candidates.jsonl"),
        (["select", "--instance", "{path}"], "instance.json"),
        (["report", "--input", "{path}", "--out", "{out}"], "report.json"),
        (["eval", "--mock", "--config", "{path}", "--out", "{out}"], "config.json"),
        (["evolve", "--mock", "--world-dir", "{dir}", "--out", "{out}"], "world.json"),
    ],
    ids=["library", "tasks", "candidates", "instance", "report", "config", "world-dir"],
)
def test_an_input_file_that_is_not_utf8_names_the_file(tmp_path, capsys, argv, name):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe{\x00}\x00")  # UTF-16 with a byte-order mark
    out = tmp_path / "out"
    assert dispatch([arg.format(path=path, dir=tmp_path, out=out) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "change, message",
    [
        ({"config": {"seed": 7, "foo": 1}}, "world field 'config' holds unknown key(s): foo"),
        ({"config": {"n_tasks": "50"}}, "world field 'n_tasks' must be an integer"),
        ({"tag_universe": None}, "world field 'tag_universe' is missing"),
        ({"covered_universe": "ab"}, "world field 'covered_universe' must be an array of strings"),
        ({"config": {"coverable_fraction": 2.0}}, "coverable_fraction must lie in [0, 1]"),
    ],
    ids=["config-unknown-key", "config-string-count", "tag-universe-missing", "covered-universe-string",
         "config-out-of-range"],
)
def test_evolve_names_the_file_and_field_of_a_bad_world(tmp_path, capsys, change, message):
    world_dir = tmp_path / "world"
    assert dispatch(["simworld", "--seed", "7", "--out", str(world_dir)]) == 0
    path = world_dir / "world.json"
    payload = {**json.loads(path.read_text(encoding="utf-8")), **change}
    path.write_text(json.dumps({key: value for key, value in payload.items() if value is not None}), encoding="utf-8")
    out = tmp_path / "run"
    assert dispatch(["evolve", "--mock", "--world-dir", str(world_dir), "--out", str(out)]) == 2
    assert f"error: {path}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_transfer_sweep_with_a_world_dir_exits_2(tmp_path, capsys):
    world_dir = tmp_path / "world"
    assert dispatch(["simworld", "--seed", "7", "--tasks", "10", "--out", str(world_dir)]) == 0
    out = tmp_path / "sweep"
    argv = ["sweep", "--mock", "--dimension", "transfer", "--world-dir", str(world_dir), "--out", str(out)]
    assert dispatch(argv) == 2
    assert "error: the transfer sweep builds its own two worlds" in capsys.readouterr().err
    assert not out.exists()


def test_simworld_then_evolve_is_deterministic(tmp_path, capsys):
    world_dir = tmp_path / "world"
    assert dispatch(["simworld", "--seed", "7", "--out", str(world_dir)]) == 0
    args_common = ["evolve", "--mock", "--seed", "7", "--world-dir", str(world_dir)]
    assert dispatch(args_common + ["--out", str(tmp_path / "run1")]) == 0
    assert dispatch(args_common + ["--out", str(tmp_path / "run2")]) == 0

    lib1 = (tmp_path / "run1" / "library.jsonl").read_bytes()
    lib2 = (tmp_path / "run2" / "library.jsonl").read_bytes()
    assert lib1 == lib2

    report1 = strip_wall_clock(json.loads((tmp_path / "run1" / "report.json").read_text()))
    report2 = strip_wall_clock(json.loads((tmp_path / "run2" / "report.json").read_text()))
    assert report1 == report2
    # the resolved configuration and the provider audit are echoed
    assert report1["config"]["seed"] == 7
    assert report1["providers"] == ["MockChatProvider", "MockEmbedder", "MockLikelihoodScorer"]


def _rewrite_required_tags(tasks_path, rewrite):
    """Pass every task's required-tag string in ``tasks_path`` through ``rewrite``."""
    tasks = [json.loads(line) for line in tasks_path.read_text(encoding="utf-8").splitlines()]
    for task in tasks:
        task["metadata"]["required_tags"] = rewrite(task["metadata"]["required_tags"])
    tasks_path.write_text("".join(json.dumps(task) + "\n" for task in tasks), encoding="utf-8")


def test_a_required_tag_list_with_spaces_reads_like_one_without(tmp_path):
    plain, spaced = tmp_path / "plain", tmp_path / "spaced"
    assert dispatch(["simworld", "--seed", "7", "--out", str(plain)]) == 0
    assert dispatch(["simworld", "--seed", "7", "--out", str(spaced)]) == 0
    _rewrite_required_tags(spaced / "tasks.jsonl", lambda tags: " " + ", ".join(tags.split(",")) + " ")
    reports, libraries = [], []
    for world_dir in (plain, spaced):
        out = tmp_path / f"run-{world_dir.name}"
        assert dispatch(["evolve", "--mock", "--seed", "7", "--world-dir", str(world_dir), "--out", str(out)]) == 0
        reports.append(strip_wall_clock(json.loads((out / "report.json").read_text(encoding="utf-8"))))
        libraries.append((out / "library.jsonl").read_bytes())
    assert reports[0] == reports[1] and libraries[0] == libraries[1]
    assert reports[0]["cells"][0]["rows"][0]["train_pass_rate"] == pytest.approx(0.4)


@pytest.mark.parametrize(
    "rewrite",
    [lambda tags: tags.replace(",", ",,", 1), lambda tags: tags + ",", lambda tags: " ," + tags],
    ids=["double-comma", "trailing-comma", "blank-piece"],
)
def test_an_empty_required_tag_exits_two_naming_the_task(tmp_path, capsys, rewrite):
    world_dir = tmp_path / "world"
    assert dispatch(["simworld", "--seed", "7", "--out", str(world_dir)]) == 0
    _rewrite_required_tags(world_dir / "tasks.jsonl", rewrite)
    assert dispatch(["evolve", "--mock", "--world-dir", str(world_dir), "--out", str(tmp_path / "run")]) == 2
    assert "error: task 'task-000' has a bad required-tag list" in capsys.readouterr().err


def test_evolve_on_a_world_with_a_repeated_task_id_exits_two_naming_the_line(tmp_path, capsys):
    # Two tasks with one id would share one failure pair, or land in both the
    # training and the held-out set of a fold.
    world_dir = tmp_path / "world"
    assert dispatch(["simworld", "--seed", "7", "--out", str(world_dir)]) == 0
    path = world_dir / "tasks.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[4])
    record["id"] = "task-000"
    lines[4] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "run"
    assert dispatch(["evolve", "--mock", "--seed", "7", "--world-dir", str(world_dir), "--out", str(out)]) == 2
    assert f"{path}: line 5: duplicate task id 'task-000'" in capsys.readouterr().err


def test_evolve_generates_world_when_no_dir_given(tmp_path):
    out = tmp_path / "run"
    assert dispatch(["evolve", "--mock", "--seed", "3", "--epochs", "1", "--out", str(out)]) == 0
    assert (out / "library.jsonl").exists()
    assert (out / "report.json").exists()
    assert (out / "report.md").exists()
    assert (out / "scores-epoch-0.csv").exists()


def test_evolve_dump_prompts(tmp_path):
    world = tmp_path / "world"
    assert dispatch(["simworld", "--seed", "7", "--out", str(world)]) == 0
    tasks = world / "tasks.jsonl"
    tasks.write_text(tasks.read_text(encoding="utf-8").replace('"task-001"', '"suite/task-001"'), encoding="utf-8")
    out = tmp_path / "run"
    prompts = tmp_path / "prompts"
    assert (
        dispatch(
            [
                "evolve", "--mock", "--seed", "7", "--epochs", "1", "--world-dir", str(world),
                "--out", str(out), "--dump-prompts", str(prompts),
            ]
        )
        == 0
    )
    # A pair id is percent-encoded in the file name, so one holding "/" still names one file.
    assert "evo-0-suite%2Ftask-001.prompt.txt" in [path.name for path in prompts.iterdir()]


def test_eval_writes_kfold_report(tmp_path):
    out = tmp_path / "eval"
    assert (
        dispatch(
            [
                "eval", "--mock", "--seed", "7", "--epochs", "1",
                "--folds", "2", "--runs", "1", "--out", str(out),
            ]
        )
        == 0
    )
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["leaky"] is False
    assert len(report["cells"]) == 2


def _counting_mock_factory(calls):
    """A stand-in for ``mock_provider_factory`` whose bundles append the
    name of each provider call they are asked for to ``calls``."""
    make = mock_provider_factory()

    class Counting:
        def __init__(self, provider):
            self._provider = provider

        def __getattr__(self, name):
            if name in ("complete", "embed", "score_likelihood"):
                calls.append(name)
            return getattr(self._provider, name)

    def factory(noise_rate=0.0):
        def bundle(seed):
            made = make(seed)
            return ProviderBundle(Counting(made.chat), Counting(made.embedder), Counting(made.likelihood))

        return bundle

    return factory


_RUNS = {
    "evolve": ["evolve", "--epochs", "1"],
    "eval": ["eval", "--epochs", "1", "--folds", "2", "--runs", "1"],
    "sweep": ["sweep", "--dimension", "epochs"],
}


# ``tag`` and ``score`` write a file, so only a path under a regular file is
# unusable for them.
@pytest.mark.parametrize(
    "command, flag, under_file",
    [(command, "--out", under) for command in _RUNS for under in (False, True)]
    + [("evolve", "--dump-prompts", True), ("tag", "--out", True), ("score", "--out", True)],
    ids=[f"{c}-out-{w}" for c in _RUNS for w in ("file", "under-file")]
    + ["evolve-dump-prompts-under-file", "tag-out-under-file", "score-out-under-file"],
)
def test_an_unusable_output_path_exits_two_before_any_provider_call(
    tmp_path, capsys, monkeypatch, command, flag, under_file
):
    calls = []
    monkeypatch.setattr("skillforge.cli.mock_provider_factory", _counting_mock_factory(calls))
    world = tmp_path / "world"
    assert dispatch(["simworld", "--seed", "7", "--tasks", "20", "--out", str(world)]) == 0
    candidates = tmp_path / "candidates.jsonl"
    candidates.write_text('{"id": "c1", "body": "b", "tags": ["csv_parsing"], ' + _PAIR, encoding="utf-8")
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n", encoding="utf-8")
    bad = blocker / "sub" if under_file else blocker
    paths = {"--out": tmp_path / "out", flag: bad}
    inputs = {"tag": ["tag", "--tasks", str(world / "tasks.jsonl")], "score": ["score", "--candidates", str(candidates)]}
    argv = [*inputs[command], "--mock"] if command in inputs else [*_RUNS[command], "--mock", "--world-dir", str(world)]
    capsys.readouterr()
    assert dispatch(argv + [arg for pair in paths.items() for arg in map(str, pair)]) == 2
    assert str(bad) in capsys.readouterr().err
    assert calls == []


def test_the_counting_factory_sees_a_finished_runs_calls(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr("skillforge.cli.mock_provider_factory", _counting_mock_factory(calls))
    assert dispatch(["evolve", "--mock", "--seed", "7", "--epochs", "1", "--out", str(tmp_path / "run")]) == 0
    assert {"complete", "embed", "score_likelihood"} <= set(calls)


_PROVIDER_FLAGS = {"mock", "chat_url", "embed_url", "logprob_url"}
_RUN_SETTINGS = {"config", "seed", "noise_rate", "epochs", "filter_ratio", "strategy", "delta", "k", "folds", "runs",
                 "label_scale"}
# The provider and run settings each command reads; it takes no others.
_SETTINGS = {
    "tag": _PROVIDER_FLAGS,
    "score": _PROVIDER_FLAGS | {"config", "seed", "delta", "filter_ratio"},
    "evolve": _PROVIDER_FLAGS | _RUN_SETTINGS - {"folds", "runs"},
    "eval": _PROVIDER_FLAGS | _RUN_SETTINGS,
    "sweep": _PROVIDER_FLAGS | _RUN_SETTINGS,
}
_FLAG_VALUES = {"--config": "config.json", "--seed": "7", "--noise-rate": "0.5", "--epochs": "1",
                "--filter-ratio": "0.5", "--strategy": "greedy", "--delta": "0.9", "--k": "3", "--folds": "2",
                "--runs": "1", "--label-scale": "0.5"}


def _command_argv(command, tmp_path):
    """A minimal ``--mock`` command line for ``command`` that exits 0."""
    world = tmp_path / "world"
    assert dispatch(["simworld", "--seed", "7", "--tasks", "20", "--out", str(world)]) == 0
    candidates = tmp_path / "candidates.jsonl"
    candidates.write_text('{"id": "c1", "body": "b", "tags": ["csv_parsing"], ' + _PAIR, encoding="utf-8")
    return {
        "tag": ["tag", "--tasks", str(world / "tasks.jsonl")],
        "score": ["score", "--candidates", str(candidates)],
        "evolve": ["evolve", "--world-dir", str(world)],
        "eval": ["eval", "--world-dir", str(world)],
        "sweep": ["sweep", "--dimension", "epochs", "--world-dir", str(world)],
    }[command] + ["--mock", "--out", str(tmp_path / "out")]


@pytest.mark.parametrize("command", sorted(_SETTINGS))
def test_each_command_takes_only_the_settings_it_reads(tmp_path, command):
    args = vars(build_parser().parse_args(_command_argv(command, tmp_path)))
    assert set(args) & (_PROVIDER_FLAGS | _RUN_SETTINGS) == _SETTINGS[command]


_REMOVED = [
    (command, flag)
    for command in ("tag", "score", "evolve")
    for flag in _FLAG_VALUES
    if flag[2:].replace("-", "_") not in _SETTINGS[command]
]


@pytest.mark.parametrize("command, flag", _REMOVED, ids=[f"{command}{flag}" for command, flag in _REMOVED])
def test_a_flag_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, monkeypatch, command, flag):
    calls = []
    monkeypatch.setattr("skillforge.cli.mock_provider_factory", _counting_mock_factory(calls))
    argv = _command_argv(command, tmp_path)
    capsys.readouterr()
    assert dispatch([*argv, flag, _FLAG_VALUES[flag]]) == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("run", [["evolve"], ["eval", "--folds", "1"]], ids=["evolve", "eval-one-fold"])
def test_a_world_without_tasks_exits_two_before_any_provider_call(tmp_path, capsys, monkeypatch, run):
    calls = []
    monkeypatch.setattr("skillforge.cli.mock_provider_factory", _counting_mock_factory(calls))
    world = tmp_path / "world"
    assert dispatch(["simworld", "--seed", "7", "--tasks", "10", "--out", str(world)]) == 0
    (world / "tasks.jsonl").write_text("", encoding="utf-8")
    capsys.readouterr()
    assert dispatch([*run, "--mock", "--world-dir", str(world), "--out", str(tmp_path / "out")]) == 2
    assert "error: 0 task(s) cannot fill 1 fold(s): a run needs a task per fold" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("run", [["eval"], ["sweep", "--dimension", "epochs"]], ids=["eval", "sweep"])
def test_too_few_tasks_for_the_folds_exits_two_and_leaves_no_out(tmp_path, capsys, run):
    world = tmp_path / "world"
    assert dispatch(["simworld", "--seed", "7", "--tasks", "4", "--out", str(world)]) == 0
    out = tmp_path / "out"
    capsys.readouterr()
    assert dispatch([*run, "--mock", "--folds", "5", "--world-dir", str(world), "--out", str(out)]) == 2
    assert "error: 4 task(s) cannot fill 5 fold(s)" in capsys.readouterr().err
    assert not out.exists()


class _StubChat:
    """Stands in for ``HttpChatProvider``: paraphrases by prefixing."""

    def __init__(self, config):
        self.config = config

    def complete(self, request):
        return ChatResponse(text=f"  Paraphrased: {request.user}  ")


def test_eval_paraphrase_provider_hands_run_kfold_every_task_paraphrased(tmp_path, monkeypatch):
    seen = []

    def run_kfold(config, world, factory):
        seen.append(world)
        return EvolutionReport(config=config.to_dict(), leaky=False, providers=(), cells=())

    monkeypatch.setattr("skillforge.cli.run_kfold", run_kfold)
    monkeypatch.setattr("skillforge.cli.HttpChatProvider", _StubChat)
    world_dir = tmp_path / "world"
    assert dispatch(["simworld", "--seed", "7", "--tasks", "10", "--out", str(world_dir)]) == 0
    urls = ["--chat-url", "http://localhost:9/c", "--embed-url", "http://localhost:9/e",
            "--logprob-url", "http://localhost:9/l"]
    argv = ["eval", "--world-dir", str(world_dir), "--out", str(tmp_path / "out"), *urls,
            "--paraphrase-provider", "http://localhost:9/p"]
    assert dispatch(argv) == 0
    original = load_world(world_dir).tasks
    [world] = seen
    assert [task.id for task in world.tasks] == [task.id for task in original]
    assert [task.metadata for task in world.tasks] == [task.metadata for task in original]
    assert [task.description for task in world.tasks] == [f"Paraphrased: {task.description}" for task in original]


def test_eval_paraphrase_provider_with_mock_exits_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("skillforge.cli.HttpChatProvider", _StubChat)
    out = tmp_path / "out"
    argv = ["eval", "--mock", "--seed", "7", "--out", str(out), "--paraphrase-provider", "http://localhost:9/p"]
    assert dispatch(argv) == 2
    assert "error: --paraphrase-provider needs a real chat endpoint, not --mock" in capsys.readouterr().err
    assert not out.exists()


def test_retrieve_prints_tab_separated_rankings(tmp_path, capsys):
    library = SkillLibrary(
        skills=(
            make_skill("d1", tags=(), name="", description="", body="table formatting basics"),
            make_skill("d2", tags=(), name="", description="", body="pdf table extraction"),
        )
    )
    path = tmp_path / "lib.jsonl"
    save_library(library, path)
    assert dispatch(["retrieve", "--library", str(path), "--query", "table formatting", "--k", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("d1\t")
    assert lines[1].startswith("d2\t")


def test_tag_command_tags_untagged_library(tmp_path):
    library = SkillLibrary(
        skills=(make_skill("s1", tags=(), body="Requires csv_parsing and json_validation."),)
    )
    src = tmp_path / "lib.jsonl"
    out = tmp_path / "tagged.jsonl"
    save_library(library, src)
    assert dispatch(["tag", "--mock", "--library", str(src), "--out", str(out)]) == 0
    tagged = load_library(out)
    assert tagged.skills[0].tags == frozenset({"csv_parsing", "json_validation"})
    assert json.loads(out.with_suffix(".tags.json").read_text(encoding="utf-8")) == {
        "s1": ["csv_parsing", "json_validation"]
    }


def test_tag_force_over_its_own_library_keeps_the_file_mode(tmp_path, new_file_mode):
    src = tmp_path / "library.jsonl"
    save_library(SkillLibrary(skills=(make_skill("s1", tags=("stale_tag",), body="Requires csv_parsing."),)), src)
    src.chmod(0o600)
    assert dispatch(["tag", "--mock", "--library", str(src), "--out", str(src), "--force"]) == 0
    assert load_library(src).skills[0].tags == frozenset({"csv_parsing"})
    assert stat.S_IMODE(src.stat().st_mode) == 0o600
    assert stat.S_IMODE(src.with_suffix(".tags.json").stat().st_mode) == new_file_mode


def test_tag_command_infers_task_target_tags(tmp_path):
    tasks = [Task(id="t1", description="Task t1: requires capabilities: csv_parsing.")]
    src = tmp_path / "tasks.jsonl"
    out = tmp_path / "targets.json"
    save_tasks(tasks, src)
    assert dispatch(["tag", "--mock", "--tasks", str(src), "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8")) == {"t1": ["csv_parsing"]}


def test_tag_command_rejects_a_non_object_task_line(tmp_path, capsys):
    src = tmp_path / "bad.jsonl"
    src.write_text('{"id":"t1","description":"Task t1"}\n[1, 2]\n', encoding="utf-8")
    assert dispatch(["tag", "--mock", "--tasks", str(src), "--out", str(tmp_path / "x.json")]) == 2
    assert f"error: {src}: line 2: expected a JSON object" in capsys.readouterr().err


def test_tag_requires_exactly_one_input(tmp_path, capsys):
    # A usage error: argparse rejects it before any provider is resolved.
    for given in ([], ["--library", "a.jsonl", "--tasks", "b.jsonl"]):
        for mock in (["--mock"], []):
            assert dispatch(["tag", *mock, *given, "--out", str(tmp_path / "x")]) == 1
            assert "--library" in capsys.readouterr().err


def test_sweep_dimension_choices_are_the_harness_dimensions():
    sweep = build_parser()._subparsers._group_actions[0].choices["sweep"]
    (dimension,) = (action for action in sweep._actions if action.dest == "dimension")
    assert tuple(dimension.choices) == SWEEP_DIMENSIONS


def test_score_command_writes_csv(tmp_path):
    candidates = [
        {
            "id": "c1",
            "body": "uses csv_parsing carefully",
            "tags": ["csv_parsing"],
            "pair_id": "t1",
            "task_description": "Task t1: requires capabilities: csv_parsing.",
            "target_tags": ["csv_parsing"],
        },
        {
            "id": "c2",
            "body": "something unrelated entirely",
            "tags": ["video_editing"],
            "pair_id": "t1",
            "task_description": "Task t1: requires capabilities: csv_parsing.",
            "target_tags": ["csv_parsing"],
        },
    ]
    src = tmp_path / "candidates.jsonl"
    src.write_text("\n".join(json.dumps(c) for c in candidates) + "\n", encoding="utf-8")
    out = tmp_path / "scores.csv"
    assert dispatch(["score", "--mock", "--candidates", str(src), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("candidate_id,")


def test_sweep_command_writes_json_and_csv(tmp_path):
    out = tmp_path / "sweep"
    assert (
        dispatch(
            [
                "sweep", "--mock", "--seed", "7", "--dimension", "label_scale",
                "--epochs", "1", "--folds", "2", "--runs", "1", "--out", str(out),
            ]
        )
        == 0
    )
    payload = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
    assert payload["dimension"] == "label_scale"
    assert [row["value"] for row in payload["rows"]] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert (out / "sweep.csv").read_text(encoding="utf-8").startswith("dimension,")


def test_report_command_rerenders_markdown(tmp_path):
    out = tmp_path / "eval"
    dispatch(
        ["eval", "--mock", "--seed", "7", "--epochs", "1", "--folds", "2", "--runs", "1", "--out", str(out)]
    )
    rendered = tmp_path / "again.md"
    assert dispatch(["report", "--input", str(out / "report.json"), "--out", str(rendered)]) == 0
    assert rendered.read_text(encoding="utf-8") == (out / "report.md").read_text(encoding="utf-8")


def test_config_file_and_flag_precedence(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epochs": 5, "filter_ratio": 0.5, "seed": 99}), encoding="utf-8")

    class Args:
        pass

    args = Args()
    args.config = str(config)
    args.epochs = 2  # flag beats file
    for field in ("filter_ratio", "strategy", "delta", "k", "folds", "runs", "seed", "label_scale"):
        setattr(args, field, None)
    resolved = resolve_run_config(args)
    assert resolved.epochs == 2
    assert resolved.filter_ratio == 0.5  # file beats default
    assert resolved.seed == 99
    assert resolved.strategy == "greedy"  # default


def _eval_args(tmp_path, config: dict):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return build_parser().parse_args(["eval", "--mock", "--config", str(path), "--out", str(tmp_path / "o")])


def test_config_file_sets_every_run_config_field(tmp_path):
    values = {"epochs": 1, "filter_ratio": 0.5, "strategy": "lp_round", "delta": 0.8, "retrieval_k": 3,
              "folds": 2, "runs": 2, "seed": 11, "label_scale": 0.5, "max_workers": 2}
    resolved = resolve_run_config(_eval_args(tmp_path, values))
    assert resolved.to_dict() == values
    whole = {"filter_ratio": 1, "delta": 1, "label_scale": 0}  # an integer may set a float field
    assert resolve_run_config(_eval_args(tmp_path, whole)).to_dict().items() >= whole.items()


@pytest.mark.parametrize(
    "config, flags, message",
    [
        ({"epochs": "3"}, [], "{path}: config field 'epochs' must be an integer"),
        ({"folds": 2.5}, [], "{path}: config field 'folds' must be an integer"),
        ({"runs": True}, [], "{path}: config field 'runs' must be an integer"),
        ({"delta": "0.9"}, [], "{path}: config field 'delta' must be a number"),
        ({"strategy": "nope"}, [], "unknown selection strategy 'nope'"),
        ({}, ["--strategy", "nope", "--epochs", "0", "--runs", "1"], "unknown selection strategy 'nope'"),
        ({}, ["--strategy", "nope", "--epochs", "1", "--runs", "1"], "unknown selection strategy 'nope'"),
    ],
    ids=["epochs-string", "folds-float", "runs-boolean", "delta-string", "file-strategy",
         "flag-strategy-0-epochs", "flag-strategy-1-epoch"],
)
def test_bad_run_setting_fails_before_any_work(tmp_path, capsys, monkeypatch, config, flags, message):
    def evaluate_tasks(*args, **kwargs):
        raise AssertionError("a task was evaluated before the settings were checked")

    monkeypatch.setattr("skillforge.harness.evaluate_tasks", evaluate_tasks)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "o"
    assert dispatch(["eval", "--mock", "--config", str(path), "--out", str(out), *flags]) == 2
    assert f"error: {message.format(path=path)}" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_unknown_key_is_named(tmp_path):
    path = re.escape(str(tmp_path / "config.json"))
    with pytest.raises(ConfigError, match=f"^{path}: unknown config file key\\(s\\): max_worker, retreival_k$"):
        resolve_run_config(_eval_args(tmp_path, {"retreival_k": 3, "max_worker": 2, "seed": 1}))
    assert dispatch(["eval", "--mock", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "o")]) == 2


def test_missing_provider_urls_without_mock_is_error(tmp_path, monkeypatch, capsys):
    for var in ("SKILLFORGE_CHAT_URL", "SKILLFORGE_EMBED_URL", "SKILLFORGE_LOGPROB_URL"):
        monkeypatch.delenv(var, raising=False)
    assert dispatch(["evolve", "--seed", "1", "--out", str(tmp_path / "x")]) == 2
    assert "SKILLFORGE_CHAT_URL" in capsys.readouterr().err


def test_mock_runs_never_touch_the_network(tmp_path, monkeypatch):
    import socket

    def explode(*args, **kwargs):
        raise AssertionError("network access attempted during a --mock run")

    monkeypatch.setattr(socket, "socket", explode)
    monkeypatch.setattr(socket, "create_connection", explode)
    assert dispatch(["evolve", "--mock", "--seed", "5", "--epochs", "1", "--out", str(tmp_path / "r")]) == 0


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"id":"t1","description":"Task t1","metadata":5}', "line 1: task field 'metadata' must be an object"),
        ('{"id":"t1","description":5}', "line 1: task field 'description' must be a string"),
    ],
)
def test_tag_command_rejects_a_mistyped_task_field(tmp_path, capsys, line, message):
    src = tmp_path / "bad.jsonl"
    src.write_text(line + "\n", encoding="utf-8")
    assert dispatch(["tag", "--mock", "--tasks", str(src), "--out", str(tmp_path / "x.json")]) == 2
    assert f"error: {src}: {message}" in capsys.readouterr().err


def test_tag_command_rejects_a_string_of_skill_tags(tmp_path, capsys):
    src = tmp_path / "lib.jsonl"
    src.write_text('{"id":"s1","name":"n","description":"d","body":"b","tags":"python"}\n', encoding="utf-8")
    assert dispatch(["tag", "--mock", "--library", str(src), "--out", str(tmp_path / "o.jsonl")]) == 2
    assert f"error: {src}: line 1: skill field 'tags' must be an array of strings" in capsys.readouterr().err


_PAIR = '"pair_id":"t1","task_description":"Task t1: requires capabilities: csv_parsing."}'


@pytest.mark.parametrize(
    "line, message",
    [
        ("[1, 2]", "line 2: expected a JSON object"),
        ('{"id":"c2","body":"b","tags":"python",' + _PAIR, "line 2: candidate field 'tags' must be an array of strings"),
        ('{"id":"c2","body":"b","created_epoch":"x",' + _PAIR, "line 2: candidate field 'created_epoch' must be an integer"),
        ('{"id":"c2",' + _PAIR, "line 2: candidate field 'body' is missing"),
    ],
    ids=["not-an-object", "tags-string", "created-epoch-string", "body-missing"],
)
def test_score_command_names_the_line_and_field_of_a_bad_candidate(tmp_path, capsys, line, message):
    src = tmp_path / "candidates.jsonl"
    src.write_text('{"id":"c1","body":"b",' + _PAIR + "\n" + line + "\n", encoding="utf-8")
    out = tmp_path / "scores.csv"
    assert dispatch(["score", "--mock", "--candidates", str(src), "--out", str(out)]) == 2
    assert f"error: {src}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_tag_command_names_the_line_of_a_skill_with_an_unknown_origin(tmp_path, capsys):
    src = tmp_path / "lib.jsonl"
    src.write_text(
        '{"id":"s1","name":"n","description":"d","body":"b"}\n'
        '{"id":"s2","name":"n","description":"d","body":"b","origin":"robot"}\n',
        encoding="utf-8",
    )
    out = tmp_path / "t.json"
    assert dispatch(["tag", "--mock", "--library", str(src), "--out", str(out)]) == 2
    assert f"error: {src}: line 2: invalid skill: unknown skill origin: 'robot'" in capsys.readouterr().err
    assert not out.exists()


def test_score_command_names_the_line_of_a_candidate_with_an_unknown_origin(tmp_path, capsys):
    src = tmp_path / "candidates.jsonl"
    src.write_text(
        '{"id":"c1","body":"b",' + _PAIR + "\n" + '{"id":"c2","body":"b","origin":"robot",' + _PAIR + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "scores.csv"
    assert dispatch(["score", "--mock", "--candidates", str(src), "--out", str(out)]) == 2
    assert f"error: {src}: line 2: invalid candidate: unknown skill origin: 'robot'" in capsys.readouterr().err
    assert not out.exists()


_BAD_TASK = '{"id": 5, "description": "Task t2"}'
_BAD_SKILL = '{"id": 5, "name": "n", "description": "d", "body": "b"}'


@pytest.mark.parametrize(
    "argv, name, line, message",
    [
        (["evolve", "--mock", "--world-dir", "{dir}", "--out", "{out}"], "tasks.jsonl", _BAD_TASK,
         "task field 'id' must be a string"),
        (["evolve", "--mock", "--world-dir", "{dir}", "--out", "{out}"], "library.jsonl", _BAD_SKILL,
         "skill field 'id' must be a string"),
        (["tag", "--mock", "--tasks", "{path}", "--out", "{out}"], "tasks.jsonl", _BAD_TASK,
         "task field 'id' must be a string"),
        (["tag", "--mock", "--library", "{path}", "--out", "{out}"], "library.jsonl", _BAD_SKILL,
         "skill field 'id' must be a string"),
        (["score", "--mock", "--candidates", "{path}", "--out", "{out}"], "candidates.jsonl", '{"id": "c2", ' + _PAIR,
         "candidate field 'body' is missing"),
        (["retrieve", "--library", "{path}", "--query", "csv"], "library.jsonl", "[1]", "expected a JSON object"),
        (["retrieve", "--library", "{path}", "--query", "csv"], "library.jsonl", "{bad", "invalid JSON"),
    ],
    ids=["evolve-tasks", "evolve-library", "tag-tasks", "tag-library", "score-candidates", "retrieve-non-object",
         "retrieve-invalid-json"],
)
def test_a_bad_jsonl_line_names_its_file(tmp_path, capsys, argv, name, line, message):
    world = tmp_path / "w"
    assert dispatch(["simworld", "--seed", "7", "--tasks", "4", "--out", str(world)]) == 0
    path = world / name
    # Line 1 stays good: the first task, the library's metadata line, or one candidate.
    first = path.read_text(encoding="utf-8").splitlines()[0] if path.exists() else '{"id": "c1", "body": "b", ' + _PAIR
    path.write_text(f"{first}\n{line}\n", encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "out"
    assert dispatch([arg.format(dir=world, path=path, out=out) for arg in argv]) == 2
    assert f"error: {path}: line 2: {message}" in capsys.readouterr().err
    assert not out.exists()


_CELL = {"fold": 0, "run": 0, "seed": 7, "rows": []}
_ROW_WITHOUT_SIZE = {"epoch": 0, "train_pass_rate": 0.5, "holdout_pass_rate": 0.25}
_ROW = {**_ROW_WITHOUT_SIZE, "library_size": 3}


def _report_with_row(row):
    return {"config": {}, "leaky": False, "providers": [], "cells": [{**_CELL, "rows": [row]}]}


@pytest.mark.parametrize(
    "content, message",
    [
        ({"cells": []}, "report field 'config' is missing"),
        ([], "report is not a JSON object"),
        ({"config": {}, "leaky": "no", "providers": [], "cells": []}, "report field 'leaky' must be a boolean"),
        ({"config": {}, "leaky": False, "providers": [], "cells": [1]}, "report field 'cells' must be an array of objects"),
        (
            {"config": {}, "leaky": False, "providers": [], "cells": [{**_CELL, "fold": "0"}]},
            "report field 'fold' must be an integer",
        ),
        (_report_with_row(_ROW_WITHOUT_SIZE), "report field 'library_size' is missing"),
        (_report_with_row({**_ROW, "holdout_pass_rate": "0.5"}), "report field 'holdout_pass_rate' must be a number"),
        (_report_with_row({**_ROW, "n_failures": 1.5}), "report field 'n_failures' must be an integer"),
        (
            {
                "config": {}, "leaky": False, "providers": [],
                "cells": [{**_CELL, "rows": [_ROW]}, {**_CELL, "fold": 1, "rows": [_ROW, {**_ROW, "epoch": "1"}]}],
            },
            "report field 'epoch' must be an integer (cell 1: fold 1, run 0; row 1)",
        ),
    ],
    ids=[
        "config-missing",
        "not-an-object",
        "leaky-string",
        "cell-not-an-object",
        "fold-string",
        "row-size-missing",
        "row-rate-string",
        "row-count-float",
        "second-cell-row",
    ],
)
def test_report_command_names_the_file_and_field_of_a_bad_report(tmp_path, capsys, content, message):
    src = tmp_path / "r.json"
    src.write_text(json.dumps(content), encoding="utf-8")
    out = tmp_path / "o.md"
    assert dispatch(["report", "--input", str(src), "--out", str(out)]) == 2
    assert f"error: {src}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_report_command_accepts_a_report_with_no_cells(tmp_path):
    src = tmp_path / "r.json"
    src.write_text(json.dumps({"config": {"seed": 7}, "leaky": True, "providers": ["Mock"], "cells": []}), encoding="utf-8")
    out = tmp_path / "o.md"
    assert dispatch(["report", "--input", str(src), "--out", str(out)]) == 0
    assert "- seed: 7" in out.read_text(encoding="utf-8")


def test_report_command_reads_null_means_integer_rates_and_unknown_row_keys(tmp_path):
    row = {**_ROW, "train_pass_rate": 1, "mean_f_tag": None, "n_failures": None, "note": "ignored"}
    src = tmp_path / "r.json"
    src.write_text(json.dumps(_report_with_row(row)), encoding="utf-8")
    out = tmp_path / "o.md"
    assert dispatch(["report", "--input", str(src), "--out", str(out)]) == 0
    assert "| 0 | 3.0 | 1.000 | 0.250 | - | - | 0 | 0 |" in out.read_text(encoding="utf-8")
