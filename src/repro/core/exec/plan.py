"""Check plans: a property-agnostic, stage-aware description of work.

The paper's modularity claim is that per-router checks are independent,
which makes *execution strategy* a pluggable detail.  A
:class:`CheckPlan` captures everything a scheduler needs to discharge a
body of verification work without knowing which property it proves:

* :class:`CheckGroup` — the unit of scheduling: a keyed, owner-coherent
  batch of :class:`~repro.core.checks.LocalCheck` instances assigned to
  one stage.  Keys are caller-chosen hashable tuples (e.g. ``("prop",
  owner)`` or ``("sub", router, owner)``) and are how results are routed
  back to caches, reports, and trackers.
* :class:`Stage` — a named phase with explicit ``after`` dependencies.
  Groups in stages whose dependencies are met run together, so
  independent stages *pipeline* instead of barriering (liveness
  interference sub-proofs no longer wait for the propagation stage).

"Full verify", "reverify after an edit", and "one sub-proof" are all
just plans: the incremental trackers put only their invalidated owner
groups in, a full run puts everything in, and the scheduler does not
care which is which.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from repro.core.checks import LocalCheck

#: The routing key of a group: any hashable tuple chosen by the planner.
GroupKey = tuple

#: Name of the implicit stage used when a plan does not declare stages.
DEFAULT_STAGE = "run"


@dataclass(frozen=True)
class Stage:
    """A named phase of a plan; ``after`` lists stages it must wait for."""

    name: str
    after: tuple[str, ...] = ()


@dataclass(frozen=True)
class CheckGroup:
    """A keyed batch of checks scheduled as one unit within a stage."""

    key: GroupKey
    checks: tuple["LocalCheck", ...]
    stage: str = DEFAULT_STAGE

    def __len__(self) -> int:
        return len(self.checks)


@dataclass(frozen=True)
class CheckPlan:
    """An ordered set of check groups plus their stage dependency graph.

    Group order is meaningful: within any one scheduling round the
    scheduler dispatches ready groups in plan order, which is how the
    legacy call sites' deterministic outcome ordering is preserved.
    """

    groups: tuple[CheckGroup, ...]
    stages: tuple[Stage, ...] = ()

    def __post_init__(self) -> None:
        stages = self.stages
        if not stages:
            # Implicit stages: one per distinct group stage name, no
            # dependencies, declared in first-appearance order.
            seen: dict[str, None] = {}
            for group in self.groups:
                seen.setdefault(group.stage, None)
            if not seen:
                seen[DEFAULT_STAGE] = None
            stages = tuple(Stage(name) for name in seen)
            object.__setattr__(self, "stages", stages)
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names in plan: {names}")
        known = set(names)
        for stage in stages:
            for dep in stage.after:
                if dep not in known:
                    raise ValueError(
                        f"stage {stage.name!r} depends on undeclared stage {dep!r}"
                    )
        for group in self.groups:
            if group.stage not in known:
                raise ValueError(
                    f"group {group.key!r} assigned to undeclared stage "
                    f"{group.stage!r}"
                )
        keys = [group.key for group in self.groups]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate group keys in plan")
        self._check_acyclic(stages)

    @staticmethod
    def _check_acyclic(stages: tuple[Stage, ...]) -> None:
        after = {stage.name: set(stage.after) for stage in stages}
        resolved: set[str] = set()
        while after:
            ready = [name for name, deps in after.items() if deps <= resolved]
            if not ready:
                raise ValueError(f"stage dependency cycle among {sorted(after)}")
            for name in ready:
                resolved.add(name)
                del after[name]

    @classmethod
    def single(
        cls,
        checks: "list[LocalCheck]",
        key: GroupKey = (DEFAULT_STAGE,),
        stage: str = DEFAULT_STAGE,
    ) -> "CheckPlan":
        """The one-group plan: all checks, one stage — ``run_checks``'s shape."""
        return cls(groups=(CheckGroup(key, tuple(checks), stage),))

    @property
    def num_checks(self) -> int:
        return sum(len(group) for group in self.groups)

    def stage_map(self) -> dict[str, Stage]:
        return {stage.name: stage for stage in self.stages}

    def iter_checks(self) -> Iterator["LocalCheck"]:
        for group in self.groups:
            yield from group.checks
