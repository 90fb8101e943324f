from __future__ import annotations

import json
import random
import re
import stat
from pathlib import Path

import pytest

from skillforge import cli
from skillforge.errors import InputError, IntegrityError, ParseError
from skillforge.evolve import _dump_prompt
from skillforge.harness import EvolutionReport, emit_report, write_sweep_csv
from skillforge.model import (
    FailurePair,
    Skill,
    SkillLibrary,
    Task,
    Trajectory,
    add_skills,
    load_library,
    save_library,
    save_tasks,
)
from skillforge.providers.base import ChatRequest
from skillforge.scoring import write_score_csv
from skillforge.tags import dump_tags
from skillforge.world import WorldConfig, generate_world, save_world

from conftest import make_skill


def test_load_empty_file_gives_empty_library(tmp_path):
    path = tmp_path / "lib.jsonl"
    path.write_text("", encoding="utf-8")
    library = load_library(path)
    assert len(library) == 0
    assert library.epoch == 0


def test_load_two_skill_lines(tmp_path):
    library = SkillLibrary(skills=(make_skill("a"), make_skill("b")))
    path = tmp_path / "lib.jsonl"
    save_library(library, path)
    assert len(load_library(path)) == 2


def test_load_duplicate_id_is_integrity_error(tmp_path):
    line = '{"id":"s1","name":"n","description":"d","body":"b","tags":[],"origin":"human","created_epoch":0}'
    path = tmp_path / "lib.jsonl"
    path.write_text(line + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(IntegrityError):
        load_library(path)


def test_load_malformed_line_names_line_number(tmp_path):
    path = tmp_path / "lib.jsonl"
    path.write_text('{"format":"skillforge-library","version":1,"epoch":0}\nnot json\n', encoding="utf-8")
    with pytest.raises(ParseError, match="line 2"):
        load_library(path)


def test_round_trip_preserves_library(tmp_path):
    library = SkillLibrary(
        skills=(make_skill("a"), make_skill("b", tags=("x_y", "z_w")), make_skill("c")),
        epoch=1,
    )
    path = tmp_path / "lib.jsonl"
    save_library(library, path)
    assert load_library(path) == library


def test_two_saves_are_byte_identical(tmp_path):
    library = SkillLibrary(skills=(make_skill("b"), make_skill("a")), epoch=3)
    p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    save_library(library, p1)
    save_library(library, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_epoch_metadata_round_trips(tmp_path):
    path = tmp_path / "lib.jsonl"
    save_library(SkillLibrary(skills=(make_skill("a"),), epoch=2), path)
    assert '"epoch":2' in path.read_text(encoding="utf-8").splitlines()[0]
    assert load_library(path).epoch == 2


def test_save_to_unwritable_path_raises(tmp_path):
    with pytest.raises(OSError):
        save_library(SkillLibrary(), tmp_path)  # a directory, not a file


_SCORE_ROW = dict.fromkeys(("candidate_id", "pair_id", "p_tag", "r_tag", "f_tag", "alignment", "combined"), "x")
_SWEEP_ROW = {"dimension": "epochs", "value": 1, "base_pass_rate": 0.25, "final_pass_rate": 0.5, "total_tokens": 9}
_REPORT = EvolutionReport.from_dict({"config": {}, "leaky": False, "providers": [], "cells": []})
_LIBRARY = SkillLibrary(skills=(make_skill("a"),), epoch=1)


def _run_cli(*argv):
    """Run a subcommand without ``dispatch``, so its ``OSError`` propagates."""
    args = cli.build_parser().parse_args([str(arg) for arg in argv])
    args.func(args)


# Each writer in the package: the name of the file to interrupt, and a call
# that writes it (and maybe other files) into ``out``, reading from ``src``.
_WRITERS = {
    "library": ("lib.jsonl", lambda src, out: save_library(_LIBRARY, out / "lib.jsonl")),
    "tasks": ("tasks.jsonl", lambda src, out: save_tasks([Task(id="t1", description="d")], out / "tasks.jsonl")),
    "world": ("world.json", lambda src, out: save_world(generate_world(WorldConfig(n_tasks=4)), out)),
    "tags": ("lib.tags.json", lambda src, out: dump_tags(_LIBRARY, out / "lib.tags.json")),
    "report-json": ("report.json", lambda src, out: emit_report(_REPORT, out / "report")),
    "report-md": ("report.md", lambda src, out: emit_report(_REPORT, out / "report")),
    "prompt": ("evo-1-t1.prompt.txt", lambda src, out: _dump_prompt(out, 1, "t1", ChatRequest(system="s", user="u"))),
    "score-csv": ("scores.csv", lambda src, out: write_score_csv([_SCORE_ROW], out / "scores.csv")),
    "sweep-csv": ("sweep.csv", lambda src, out: write_sweep_csv([_SWEEP_ROW], out / "sweep.csv")),
    "cli-target-tags": (
        "targets.json",
        lambda src, out: _run_cli("tag", "--mock", "--tasks", src / "tasks.jsonl", "--out", out / "targets.json"),
    ),
    "cli-sweep-json": ("sweep.json", lambda src, out: _run_cli("sweep", "--mock", "--dimension", "epochs", "--out", out)),
    "cli-report-md": (
        "again.md",
        lambda src, out: _run_cli("report", "--input", src / "report.json", "--out", out / "again.md"),
    ),
}


def _snapshot(directory):
    return {path.relative_to(directory): path.read_bytes() for path in directory.rglob("*") if path.is_file()}


@pytest.mark.parametrize("writer", list(_WRITERS))
def test_failure_mid_write_leaves_the_previous_file_byte_identical(tmp_path, monkeypatch, writer):
    target, write = _WRITERS[writer]
    src, out = tmp_path / "in", tmp_path / "out"
    src.mkdir()
    out.mkdir()
    save_tasks([Task(id="t1", description="Task t1: requires capabilities: csv_parsing.")], src / "tasks.jsonl")
    emit_report(_REPORT, src / "report")
    monkeypatch.setattr(cli, "sweep", lambda *args, **kwargs: [_SWEEP_ROW])  # the rows, not the runs, are written
    write(src, out)
    assert (out / target).is_file()
    before = _snapshot(out)
    real_open = Path.open

    def half_writing_open(self, *args, **kwargs):
        handle = real_open(self, *args, **kwargs)
        if target not in self.name:
            return handle
        real_write = handle.write

        def write_half(text):
            real_write(text[: len(text) // 2])
            raise OSError("no space left on device")

        handle.write = write_half
        return handle

    monkeypatch.setattr(Path, "open", half_writing_open)
    with pytest.raises(OSError, match="no space"):
        write(src, out)
    monkeypatch.undo()
    assert _snapshot(out) == before
    assert not list(out.rglob(".*.tmp"))


def test_replacing_a_file_keeps_its_mode_and_a_new_file_takes_the_umask(tmp_path, new_file_mode):
    kept, fresh = tmp_path / "kept.jsonl", tmp_path / "fresh.jsonl"
    save_library(_LIBRARY, kept)
    kept.chmod(0o600)
    save_library(add_skills(_LIBRARY, [make_skill("b")]), kept)
    save_library(_LIBRARY, fresh)
    assert stat.S_IMODE(kept.stat().st_mode) == 0o600
    assert load_library(kept).ids() == ("a", "b")
    assert stat.S_IMODE(fresh.stat().st_mode) == new_file_mode


def test_library_sorts_skills_and_rejects_duplicates():
    library = SkillLibrary(skills=(make_skill("b"), make_skill("a")))
    assert library.ids() == ("a", "b")
    with pytest.raises(IntegrityError):
        SkillLibrary(skills=(make_skill("a"), make_skill("a")))


def test_round_trip_random_libraries(tmp_path):
    rng = random.Random(11)
    for trial in range(20):
        skills = tuple(
            make_skill(
                f"s{i:02d}",
                tags=tuple(f"tag_{rng.randint(0, 5)}" for _ in range(rng.randint(1, 3))),
                body=f"body {rng.random():.6f}\nsecond line",
            )
            for i in range(rng.randint(0, 6))
        )
        library = SkillLibrary(skills=skills, epoch=rng.randint(0, 4))
        path = tmp_path / f"lib{trial}.jsonl"
        save_library(library, path)
        assert load_library(path) == library


def test_add_zero_skills_still_increments_epoch():
    library = SkillLibrary(skills=(make_skill("a"),), epoch=1)
    updated = add_skills(library, [])
    assert updated.ids() == ("a",)
    assert updated.epoch == 2
    assert library.epoch == 1  # prior snapshot untouched


def test_add_skills_disjoint_union():
    library = SkillLibrary(skills=(make_skill("a"), make_skill("b"), make_skill("c")))
    updated = add_skills(library, [make_skill("d"), make_skill("e")])
    assert len(updated) == 5
    assert updated.epoch == library.epoch + 1


def test_add_skill_with_existing_id_fails():
    library = SkillLibrary(skills=(make_skill("a"),))
    with pytest.raises(IntegrityError):
        add_skills(library, [make_skill("a")])


def test_monotone_growth_property():
    rng = random.Random(5)
    for _ in range(25):
        base = SkillLibrary(skills=tuple(make_skill(f"s{i}") for i in range(rng.randint(0, 5))))
        extra = [make_skill(f"n{i}") for i in range(rng.randint(0, 5))]
        assert len(add_skills(base, extra)) == len(base) + len(extra)


def test_human_skill_with_nonzero_epoch_rejected():
    with pytest.raises(InputError):
        make_skill("a", origin="human", created_epoch=1)


def test_trajectory_task_mismatch_rejected():
    task = Task(id="t1", description="do t1")
    with pytest.raises(IntegrityError):
        FailurePair(task=task, trajectory=Trajectory(task_id="other"))


def test_task_and_trajectory_files_round_trip(tmp_path):
    from skillforge.model import load_tasks, save_tasks

    tasks = (
        Task(id="t1", description="first task", metadata={"fold": "0"}),
        Task(id="t2", description="second task"),
    )
    save_tasks(tasks, tmp_path / "tasks.jsonl")
    assert load_tasks(tmp_path / "tasks.jsonl") == tasks



def test_load_tasks_rejects_a_repeated_id_naming_its_line(tmp_path):
    from skillforge.model import load_tasks

    path = tmp_path / "tasks.jsonl"
    lines = ['{"id":"t1","description":"first task"}', '{"id":"t2","description":"second task"}']
    path.write_text("\n".join(lines + ['{"id":"t1","description":"third task"}']) + "\n", encoding="utf-8")
    with pytest.raises(IntegrityError, match=f"^{re.escape(str(path))}: line 3: duplicate task id 't1'$"):
        load_tasks(path)

@pytest.mark.parametrize("line", ["[1, 2]", '"text"', "3", "null"])
def test_task_and_library_loaders_reject_a_non_object_line(tmp_path, line):
    from skillforge.model import load_tasks

    path = tmp_path / "tasks.jsonl"
    path.write_text('{"id":"t1","description":"first task"}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 2: expected a JSON object"):
        load_tasks(path)
    path.write_text("\n" + line + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 2: expected a JSON object"):
        load_library(path)


_SKILL_LINE = {"id": "s1", "name": "n", "description": "d", "body": "b"}


@pytest.mark.parametrize(
    "record, message",
    [
        ({"id": "t1", "description": "first task", "metadata": 5}, "task field 'metadata' must be an object"),
        ({"id": "t1", "description": "first task", "metadata": {"fold": 0}}, "task field 'metadata'"),
        ({"id": "t1", "description": 5}, "task field 'description' must be a string"),
        ({"id": 1, "description": "first task"}, "task field 'id' must be a string"),
        ({"id": "t1"}, "task field 'description' is missing"),
    ],
)
def test_task_loader_names_the_line_and_a_mistyped_field(tmp_path, record, message):
    from skillforge.model import load_tasks

    path = tmp_path / "tasks.jsonl"
    path.write_text('{"id":"t0","description":"fine"}\n' + json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2: {message}"):
        load_tasks(path)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"tags": "python"}, "skill field 'tags' must be an array of strings"),
        ({"tags": ["python", 3]}, "skill field 'tags' must be an array of strings"),
        ({"body": None}, "skill field 'body' must be a string"),
        ({"origin": 1}, "skill field 'origin' must be a string"),
        ({"created_epoch": "1"}, "skill field 'created_epoch' must be an integer"),
        ({"created_epoch": True}, "skill field 'created_epoch' must be an integer"),
    ],
)
def test_library_loader_names_the_line_and_a_mistyped_field(tmp_path, fields, message):
    path = tmp_path / "lib.jsonl"
    path.write_text(json.dumps({**_SKILL_LINE, **fields}) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 1: {message}"):
        load_library(path)


def test_library_loader_keeps_well_typed_optional_fields(tmp_path):
    path = tmp_path / "lib.jsonl"
    path.write_text(json.dumps({**_SKILL_LINE, "tags": ["python"], "created_epoch": 0}) + "\n", encoding="utf-8")
    assert load_library(path).skills[0].tags == frozenset({"python"})


def test_library_loader_rejects_a_mistyped_epoch(tmp_path):
    path = tmp_path / "lib.jsonl"
    path.write_text('{"format":"skillforge-library","version":1,"epoch":"x"}\n', encoding="utf-8")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 1: library field 'epoch' must be an integer"):
        load_library(path)
