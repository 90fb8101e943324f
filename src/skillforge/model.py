"""Domain types for skills, tasks, trajectories, and failure pairs.

The skill library persists as JSONL: a leading metadata line carrying the
epoch and format version, then one skill per line sorted by id. The file is
canonical, so saving the same library twice yields byte-identical output.
"""

from __future__ import annotations

import csv
import io
import json
import os
import secrets
import stat
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from skillforge.errors import ConfigError, IntegrityError, InputError, ParseError

LIBRARY_FORMAT = "skillforge-library"
LIBRARY_VERSION = 1

ORIGIN_HUMAN = "human"
ORIGIN_EVOLVED = "evolved"

_REQUIRED = object()
_JSON_KINDS = {
    str: "a string", int: "an integer", float: "a number", bool: "a boolean", list: "an array", dict: "an object"
}
_JSON_ITEMS = {str: " of strings", dict: " of objects", list: " of arrays", None: ""}


def _field(raw: dict, name: str, kind: type, default=_REQUIRED, items: type | None = str):
    """``raw[name]``, or ``default`` when absent and one is given, checked to
    have JSON type ``kind`` (a boolean is no integer, an integer is a ``float``
    number, and a field whose default is None may be null); the members of an
    array or the values of an object must have type ``items`` unless it is None."""
    if name not in raw:
        if default is _REQUIRED:
            raise ParseError(f"field {name!r} is missing")
        return default
    value = raw[name]
    if value is None and default is None:
        return None
    valid = type(value) is kind or (kind is float and type(value) is int)
    if valid and kind in (list, dict) and items is not None:
        valid = all(type(item) is items for item in (value.values() if kind is dict else value))
    if not valid:
        suffix = _JSON_ITEMS[items] if kind in (list, dict) else ""
        raise ParseError(f"field {name!r} must be {_JSON_KINDS[kind]}{suffix}")
    return value


@dataclass(frozen=True)
class Skill:
    """A reusable unit of procedural knowledge with its knowledge tags."""

    id: str
    name: str
    description: str
    body: str
    tags: frozenset[str] = frozenset()
    origin: str = ORIGIN_HUMAN
    created_epoch: int = 0

    def __post_init__(self) -> None:
        if not self.id:
            raise InputError("skill id must be non-empty")
        if self.origin not in (ORIGIN_HUMAN, ORIGIN_EVOLVED):
            raise InputError(f"unknown skill origin: {self.origin!r}")
        if self.created_epoch < 0:
            raise InputError("created_epoch must be non-negative")
        if self.origin == ORIGIN_HUMAN and self.created_epoch != 0:
            raise InputError("human skills must have created_epoch 0")
        object.__setattr__(self, "tags", frozenset(self.tags))

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "description": self.description,
            "body": self.body,
            "tags": sorted(self.tags),
            "origin": self.origin,
            "created_epoch": self.created_epoch,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> Skill:
        """Raises ``ParseError`` naming a missing or mistyped field."""
        return cls(
            id=_field(raw, "id", str),
            name=_field(raw, "name", str),
            description=_field(raw, "description", str),
            body=_field(raw, "body", str),
            tags=frozenset(_field(raw, "tags", list, [])),
            origin=_field(raw, "origin", str, ORIGIN_HUMAN),
            created_epoch=_field(raw, "created_epoch", int, 0),
        )


@dataclass(frozen=True)
class SkillLibrary:
    """An immutable snapshot of the skill collection at a given epoch.

    Skills are kept sorted by id, so the in-memory order always matches the
    canonical serialization.
    """

    skills: tuple[Skill, ...] = ()
    epoch: int = 0

    def __post_init__(self) -> None:
        if self.epoch < 0:
            raise InputError("library epoch must be non-negative")
        ordered = tuple(sorted(self.skills, key=lambda s: s.id))
        by_id: dict[str, Skill] = {}
        for skill in ordered:
            if skill.id in by_id:
                raise IntegrityError(f"duplicate skill id: {skill.id!r}")
            by_id[skill.id] = skill
        object.__setattr__(self, "skills", ordered)
        object.__setattr__(self, "_by_id", by_id)

    def __len__(self) -> int:
        return len(self.skills)

    def __iter__(self):
        return iter(self.skills)

    def get(self, skill_id: str) -> Skill | None:
        return self._by_id.get(skill_id)

    def ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.skills)


@dataclass(frozen=True)
class Task:
    """A task instance identified by id with a free-text description."""

    id: str
    description: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.description:
            raise InputError(f"task {self.id!r} has an empty description")

    def to_dict(self) -> dict:
        return {"id": self.id, "description": self.description, "metadata": dict(self.metadata)}

    @classmethod
    def from_dict(cls, raw: dict) -> Task:
        """Raises ``ParseError`` naming a missing or mistyped field."""
        return cls(
            id=_field(raw, "id", str),
            description=_field(raw, "description", str),
            metadata=dict(_field(raw, "metadata", dict, {})),
        )


@dataclass(frozen=True)
class Trajectory:
    """An execution trace: ordered (action, observation) steps plus the final output."""

    task_id: str
    steps: tuple[tuple[str, str], ...] = ()
    final_output: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple((str(a), str(o)) for a, o in self.steps))


@dataclass(frozen=True)
class FailurePair:
    """A task together with the failed trajectory it produced."""

    task: Task
    trajectory: Trajectory

    def __post_init__(self) -> None:
        if self.trajectory.task_id != self.task.id:
            raise IntegrityError(
                f"trajectory task_id {self.trajectory.task_id!r} does not match task {self.task.id!r}"
            )


def load_library(path: str | Path) -> SkillLibrary:
    """Load a skill library from JSONL.

    An empty file yields an empty library at epoch 0. A metadata line (any
    object with a ``format`` key) may appear first and carries the epoch.
    """
    epoch = 0
    skills: dict[str, Skill] = {}
    for where, raw in _iter_jsonl(path):
        if raw.get("format") == LIBRARY_FORMAT:
            epoch = _record("library", lambda header: _field(header, "epoch", int, 0), raw, where)
            continue
        skill = _record("skill", Skill.from_dict, raw, where)
        if skills.setdefault(skill.id, skill) is not skill:
            raise IntegrityError(f"{where}: duplicate skill id {skill.id!r}")
    return SkillLibrary(skills=tuple(skills.values()), epoch=epoch)


def save_library(library: SkillLibrary, path: str | Path) -> None:
    """Write the canonical JSONL form, metadata line then skills sorted by id,
    through ``write_text_atomic``."""
    lines = [
        json.dumps(
            {"format": LIBRARY_FORMAT, "version": LIBRARY_VERSION, "epoch": library.epoch},
            separators=(",", ":"),
        )
    ]
    for skill in library.skills:
        lines.append(json.dumps(skill.to_dict(), separators=(",", ":"), ensure_ascii=True))
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, newlines untranslated, through a
    synced temporary file beside it that replaces it in one step: a failed
    write leaves any previous file as it was, and a symlink is replaced. A
    replaced file's permission bits carry over; a new file takes the umask's."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        mode = stat.S_IMODE(path.stat().st_mode)
    except FileNotFoundError:
        mode = None
    try:
        with tmp.open("x", encoding="utf-8", newline="") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        if mode is not None:
            os.chmod(tmp, mode)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_csv(rows: Iterable[dict], columns: Sequence[str], path: str | Path) -> None:
    """Write ``rows`` as CSV under a ``columns`` header; a missing column is empty, an extra key ignored."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)
    write_text_atomic(path, buffer.getvalue())


def add_skills(library: SkillLibrary, new: Iterable[Skill]) -> SkillLibrary:
    """Return a new library containing the prior skills plus ``new``, one epoch
    later. An id of ``new`` that the library already holds, or that ``new``
    repeats, raises ``SkillLibrary``'s own duplicate-id ``IntegrityError``."""
    return SkillLibrary(skills=library.skills + tuple(new), epoch=library.epoch + 1)


def load_tasks(path: str | Path) -> tuple[Task, ...]:
    """Load tasks from JSONL, one task object per line. A repeated id raises
    ``IntegrityError`` naming its file and line."""
    tasks: dict[str, Task] = {}
    for where, raw in _iter_jsonl(path):
        task = _record("task", Task.from_dict, raw, where)
        if tasks.setdefault(task.id, task) is not task:
            raise IntegrityError(f"{where}: duplicate task id {task.id!r}")
    return tuple(tasks.values())


def save_tasks(tasks: Sequence[Task], path: str | Path) -> None:
    write_text_atomic(
        path, "".join(json.dumps(t.to_dict(), separators=(",", ":"), ensure_ascii=True) + "\n" for t in tasks)
    )


def _record(what: str, parse, raw: dict, where: str):
    """``parse(raw)``; a ``ParseError`` or ``InputError`` it raises comes out
    as a ``ParseError`` naming ``where`` (the file and line) and the record."""
    try:
        return parse(raw)
    except ParseError as exc:
        raise ParseError(f"{where}: {what} {exc}") from exc
    except InputError as exc:
        raise ParseError(f"{where}: invalid {what}: {exc}") from exc


def _read_json(path: str | Path, what: str, parse):
    """``parse(raw)`` of the JSON object in file ``path``. Invalid JSON, a
    value that is no object, text that is not UTF-8 and a ``ParseError`` from
    ``parse`` come out as a ``ParseError`` naming the file, and a
    ``ConfigError`` from ``parse`` (a value out of range) as a ``ConfigError``
    naming it."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    try:
        if not isinstance(raw, dict):
            raise ParseError("is not a JSON object")
        return parse(raw)
    except ParseError as exc:
        raise ParseError(f"{path}: {what} {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _iter_jsonl(path: str | Path):
    """Yield (where, object) for each non-blank line of a JSONL file, where
    ``where`` names the file and the line, as in ``tasks.jsonl: line 2``.
    Text that is not UTF-8 raises a ``ParseError`` naming the file."""
    with Path(path).open("r", encoding="utf-8") as handle:
        try:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                where = f"{path}: line {lineno}"
                try:
                    raw = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"{where}: invalid JSON: {exc.msg}") from exc
                if not isinstance(raw, dict):
                    raise ParseError(f"{where}: expected a JSON object")
                yield where, raw
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
