"""Skill-evolution engine for LLM-based agents.

Grows a reusable skill library from failed task-trajectory pairs: required
knowledge tags are inferred per failure, covering source skills are selected
under a bi-criteria set-cover objective, candidates are generated by a
pluggable chat provider, and a joint coverage/alignment score decides which
candidates join the library. Fully runnable offline against deterministic
mock providers and a synthetic task world.
"""

from skillforge.model import (
    FailurePair,
    Skill,
    SkillLibrary,
    Task,
    Trajectory,
    add_skills,
    load_library,
    save_library,
)

__version__ = "0.1.0"

__all__ = [
    "FailurePair",
    "Skill",
    "SkillLibrary",
    "Task",
    "Trajectory",
    "add_skills",
    "load_library",
    "save_library",
    "__version__",
]
