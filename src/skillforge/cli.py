"""Command-line entry point.

Subcommands: ``simworld`` (generate a synthetic world), ``tag`` (tag a
library or task file), ``select`` (run a selection strategy on an instance
file), ``evolve`` (full epoch loop), ``score`` (score a candidate file),
``retrieve`` (BM25 query), ``eval`` (k-fold protocol), ``sweep`` (parameter
sweeps), and ``report`` (re-render a report JSON as Markdown).

Each command takes only the flags it reads. A run setting comes from its flag,
else the ``--config`` file, else its default, and every report echoes it. The
environment supplies only the HTTP endpoints and API key, and the
``--chat-url``, ``--embed-url`` and ``--logprob-url`` flags override it.
Exit codes: 0 on success, 1 on usage errors, 2 on runtime errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from skillforge.cover import CoverInstance, select_sources
from skillforge.errors import ConfigError, SkillForgeError
from skillforge.harness import (
    SWEEP_DIMENSIONS,
    EvolutionReport,
    ProviderBundle,
    RunConfig,
    check_task_count,
    emit_report,
    evolve_library,
    mock_provider_factory,
    run_kfold,
    sweep,
    write_sweep_csv,
)
from skillforge.model import (
    ORIGIN_EVOLVED,
    FailurePair,
    Skill,
    SkillLibrary,
    Task,
    Trajectory,
    _field,
    _iter_jsonl,
    _read_json,
    _record,
    load_library,
    load_tasks,
    save_library,
    write_text_atomic,
)
from skillforge.providers.base import ChatRequest, ask
from skillforge.providers.http import (
    HttpChatProvider,
    HttpConfig,
    HttpEmbeddingProvider,
    HttpLikelihoodProvider,
)
from skillforge.retrieval import build_index, retrieve
from skillforge.scoring import filter_and_update, score_candidate, write_score_csv
from skillforge.tags import (
    EquivalenceIndex,
    dump_tags,
    generate_skill_tags,
    generate_target_tags,
)
from skillforge.world import (
    SyntheticWorld,
    WorldConfig,
    generate_world,
    load_world,
    save_world,
)


# The run flags beside --config and --seed, by type; each command takes only those it reads.
_RUN_FLAGS = {"--noise-rate": float, "--epochs": int, "--filter-ratio": float, "--strategy": str, "--delta": float,
              "--k": int, "--folds": int, "--runs": int, "--label-scale": float}
_RUN_HELP = {"--noise-rate": "mock generator noise rate", "--k": "retrieval depth"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skillforge",
        description="Grow an agent skill library from failed task trajectories.",
    )
    sub = parser.add_subparsers(dest="command")

    def add_providers(p: argparse.ArgumentParser) -> None:
        p.add_argument("--mock", action="store_true", help="use seeded offline mock providers")
        for name in ("--chat-url", "--embed-url", "--logprob-url"):
            p.add_argument(name)

    def add_run(p: argparse.ArgumentParser, *names: str) -> None:
        p.add_argument("--config", help="JSON config file with RunConfig fields")
        p.add_argument("--seed", type=int)
        for name in names:
            p.add_argument(name, type=_RUN_FLAGS[name], help=_RUN_HELP.get(name))

    p = sub.add_parser("simworld", help="generate a synthetic world")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--tasks", type=int, default=50)
    p.add_argument("--coverable-fraction", type=float, default=0.4)
    p.add_argument("--tags", type=int, default=10)
    p.add_argument("--covered-tags", type=int, default=6)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simworld)

    p = sub.add_parser("tag", help="tag a skill library or infer task target tags")
    add_providers(p)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--library", help="library JSONL to tag")
    source.add_argument("--tasks", help="task JSONL to infer target tags for")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true", help="retag skills that already carry tags")
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("select", help="run a selection strategy on an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--strategy", default="greedy")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("evolve", help="run the full epoch loop on a world")
    add_providers(p)
    add_run(p, *(name for name in _RUN_FLAGS if name not in ("--folds", "--runs")))
    p.add_argument("--world-dir", help="directory produced by simworld; generated when omitted")
    p.add_argument("--out", required=True)
    p.add_argument("--dump-prompts", help="directory for assembled generation prompts")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("score", help="score a candidate file")
    add_providers(p)
    add_run(p, "--delta", "--filter-ratio")
    p.add_argument("--candidates", required=True, help="candidate JSONL")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("retrieve", help="BM25-retrieve skills for a query")
    p.add_argument("--library", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--k", type=int, default=5)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("eval", help="k-fold evolution and held-out evaluation")
    add_providers(p)
    add_run(p, *_RUN_FLAGS)
    p.add_argument("--world-dir")
    p.add_argument("--out", required=True)
    p.add_argument(
        "--paraphrase-provider",
        help="chat endpoint used to paraphrase task descriptions before evaluation",
    )
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="parameter sweeps over the k-fold protocol")
    add_providers(p)
    add_run(p, *_RUN_FLAGS)
    p.add_argument("--dimension", required=True, choices=SWEEP_DIMENSIONS)
    p.add_argument("--world-dir")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="re-render a report JSON as Markdown")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def _config_fields(raw: dict) -> dict:
    """The ``RunConfig`` fields a config file sets. A key that names no field
    is a ``ConfigError``, and a value whose JSON type is not its field's a
    ``ParseError`` (a boolean is no integer; an integer may set a float)."""
    defaults = {f.name: f.default for f in fields(RunConfig)}
    unknown = sorted(set(raw) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown config file key(s): {', '.join(unknown)}")
    return {name: _field(raw, name, type(defaults[name])) for name in raw}


# RunConfig fields whose command-line flag has another name.
_CONFIG_FLAGS = {"retrieval_k": "k"}


def resolve_run_config(args) -> RunConfig:
    """Every ``RunConfig`` field from its flag, else the ``--config`` file,
    else the default; an error in the file names the file."""
    path = args.config
    values = _read_json(path, "config", _config_fields) if path else {}
    for f in fields(RunConfig):
        value = getattr(args, _CONFIG_FLAGS.get(f.name, f.name), None)
        if value is not None:
            values[f.name] = value
    return RunConfig(**values)


def _resolve_providers(args):
    """Return the factory of seeded provider bundles. Mock providers stay
    fully offline; the HTTP factory returns its one bundle for every seed."""
    if args.mock:
        noise = getattr(args, "noise_rate", None) or 0.0
        return mock_provider_factory(noise_rate=noise)
    overrides = {key: value for key in ("chat_url", "embed_url", "logprob_url") if (value := getattr(args, key))}
    http = HttpConfig.from_env(**overrides)
    if not (http.chat_url and http.embed_url and http.logprob_url):
        raise ConfigError(
            "provider endpoints are not configured; pass --mock or set "
            "SKILLFORGE_CHAT_URL, SKILLFORGE_EMBED_URL, and SKILLFORGE_LOGPROB_URL"
        )
    bundle = ProviderBundle(
        chat=HttpChatProvider(http),
        embedder=HttpEmbeddingProvider(http),
        likelihood=HttpLikelihoodProvider(http),
    )
    return lambda seed: bundle


def _resolve_world(args, config: RunConfig, folds: int) -> SyntheticWorld:
    """The ``--world-dir`` world, else the seed's, checked to fill ``folds`` folds before ``--out`` is made."""
    world = load_world(args.world_dir) if args.world_dir else generate_world(WorldConfig(seed=config.seed))
    check_task_count(world, folds)
    return world


def _check_out_parent(path: str) -> None:
    """Before any provider call: the parent of a file ``--out`` must be a directory."""
    if not Path(path).parent.is_dir():
        raise ConfigError(f"cannot write {path}: its parent is not a directory")


def cmd_simworld(args) -> int:
    config = WorldConfig(
        seed=args.seed,
        n_tasks=args.tasks,
        coverable_fraction=args.coverable_fraction,
        n_tags=args.tags,
        covered_tags=args.covered_tags,
    )
    world = generate_world(config)
    save_world(world, args.out)
    print(f"wrote world with {len(world.tasks)} tasks and {len(world.initial_skills)} skills to {args.out}")
    return 0


def cmd_tag(args) -> int:
    _check_out_parent(args.out)
    # Tag replies read only the prompt, so the bundle's seed changes nothing.
    bundle = _resolve_providers(args)(0)
    if args.library is not None:
        library = load_library(args.library)
        tagged = []
        for skill in library:
            if skill.tags and not args.force:
                tagged.append(skill)
                continue
            tags = generate_skill_tags(skill, bundle.chat)
            tagged.append(replace(skill, tags=tags))
        result = SkillLibrary(skills=tuple(tagged), epoch=library.epoch)
        save_library(result, args.out)
        dump_tags(result, Path(args.out).with_suffix(".tags.json"))
        print(f"tagged {len(result)} skills -> {args.out}")
        return 0
    tasks = load_tasks(args.tasks)
    mapping = {}
    for task in tasks:
        pair = FailurePair(task=task, trajectory=Trajectory(task_id=task.id))
        mapping[task.id] = sorted(generate_target_tags(pair, bundle.chat))
    write_text_atomic(args.out, json.dumps(mapping, indent=2, sort_keys=True) + "\n")
    print(f"inferred target tags for {len(mapping)} tasks -> {args.out}")
    return 0


def cmd_select(args) -> int:
    result = select_sources(CoverInstance.from_file(args.instance), args.strategy)
    print(",".join(result.selected))
    return 0


def cmd_evolve(args) -> int:
    config = resolve_run_config(args)
    bundle = _resolve_providers(args)(config.seed)
    world = _resolve_world(args, config, 1)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.dump_prompts:
        Path(args.dump_prompts).mkdir(parents=True, exist_ok=True)
    library, report, stats_list = evolve_library(config, world, bundle, dump_dir=args.dump_prompts)
    save_library(library, out / "library.jsonl")
    emit_report(report, out / "report")
    for epoch, stats in enumerate(stats_list):
        if stats.score_rows:
            write_score_csv(stats.score_rows, out / f"scores-epoch-{epoch}.csv")
    print(
        f"evolved library to {len(library)} skills over {config.epochs} epochs; "
        f"pass rate {report.base_pass_rate:.3f} -> {report.final_pass_rate:.3f}"
    )
    return 0


def _candidate(raw: dict) -> tuple[Skill, Task, frozenset[str]]:
    """One candidate-file row: the candidate skill, its source task and its
    target tags. Raises ``ParseError`` naming a missing or mistyped field.
    A candidate's name defaults to its id, its description to "" and its
    origin to evolved; the rest reads as ``Skill.from_dict`` reads a skill."""
    skill = Skill.from_dict({"name": raw.get("id"), "description": "", "origin": ORIGIN_EVOLVED, **raw})
    task = Task(id=_field(raw, "pair_id", str), description=_field(raw, "task_description", str))
    return skill, task, frozenset(_field(raw, "target_tags", list, []))


def cmd_score(args) -> int:
    config = resolve_run_config(args)
    _check_out_parent(args.out)
    bundle = _resolve_providers(args)(config.seed)
    rows_in = [
        _record("candidate", _candidate, raw, where) for where, raw in _iter_jsonl(args.candidates)
    ]
    if not rows_in:
        raise ConfigError("candidate file is empty")

    all_tags: set[str] = set()
    for skill, _, target in rows_in:
        all_tags |= skill.tags | target
    index = EquivalenceIndex(delta=config.delta)
    index.add_tags(all_tags, bundle.embedder)
    scored = [
        score_candidate(skill, target, task, index, bundle.likelihood)
        for skill, task, target in rows_in
    ]
    _, _, rows = filter_and_update(scored, SkillLibrary(), config.filter_ratio)
    write_score_csv(rows, args.out)
    print(f"scored {len(scored)} candidates -> {args.out}")
    return 0


def cmd_retrieve(args) -> int:
    library = load_library(args.library)
    index = build_index(library)
    for skill_id, score in retrieve(index, [args.query], args.k)[0]:
        print(f"{skill_id}\t{score:.4f}")
    return 0


def cmd_eval(args) -> int:
    config = resolve_run_config(args)
    factory = _resolve_providers(args)
    world = _resolve_world(args, config, config.folds)
    if args.paraphrase_provider and args.mock:
        raise ConfigError("--paraphrase-provider needs a real chat endpoint, not --mock")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.paraphrase_provider:
        http = HttpConfig.from_env(chat_url=args.paraphrase_provider)
        world = replace(world, tasks=_paraphrase(HttpChatProvider(http), world.tasks))
    report = run_kfold(config, world, factory)
    json_path, md_path = emit_report(report, out / "report")
    print(
        f"evaluated {config.folds}-fold x {config.runs} runs; held-out pass rate "
        f"{report.base_pass_rate:.3f} -> {report.final_pass_rate:.3f} ({json_path}, {md_path})"
    )
    return 0


def cmd_sweep(args) -> int:
    config = resolve_run_config(args)
    factory = _resolve_providers(args)
    if args.world_dir and args.dimension == "transfer":
        # Checked here too, so that the error leaves no --out behind.
        raise ConfigError("the transfer sweep builds its own two worlds from the seed; it takes no --world-dir")
    world = None if args.dimension == "transfer" else _resolve_world(args, config, config.folds)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = sweep(config, args.dimension, world=world, provider_factory=factory)
    payload = {"dimension": args.dimension, "config": config.to_dict(), "rows": rows}
    write_text_atomic(out / "sweep.json", json.dumps(payload, indent=2) + "\n")
    write_sweep_csv(rows, out / "sweep.csv")
    print(f"swept {args.dimension} over {len(rows)} cells -> {out}")
    return 0


def cmd_report(args) -> int:
    report = _read_json(args.input, "report", EvolutionReport.from_dict)
    write_text_atomic(args.out, report.markdown())
    print(f"rendered {args.input} -> {args.out}")
    return 0


def _paraphrase(chat, tasks):
    out = []
    for task in tasks:
        request = ChatRequest(
            system="You paraphrase task descriptions without changing their meaning.",
            user=task.description,
            max_tokens=512,
        )
        description = ask(chat, request, str.strip, f"task {task.id!r}") or task.description
        out.append(Task(id=task.id, description=description, metadata=dict(task.metadata)))
    return tuple(out)


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    if not argv:
        parser.print_help()
        return 1
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    if not hasattr(args, "func"):
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except (SkillForgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
