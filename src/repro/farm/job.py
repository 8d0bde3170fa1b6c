"""The batch job model: one explanation question per job.

An :class:`ExplainJob` names a question the farm can answer
independently of every other job: explain the given field kinds of one
device (whole-router granularity) or of one route-map line, against one
requirement block.  Jobs are frozen, hashable and picklable, so they
travel to worker processes and serve as report keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..bgp.config import NetworkConfig
from ..explain.symbolize import (
    ACTION,
    SymbolizationError,
    symbolize_line,
    symbolize_router,
)
from ..spec.ast import Specification

__all__ = [
    "ExplainJob",
    "JobFamily",
    "enumerate_jobs",
    "group_families",
    "member_indices",
]

ROUTER = "router"
LINE = "line"


@dataclass(frozen=True)
class ExplainJob:
    """One explanation question: device x granularity x requirement.

    ``direction``/``neighbor``/``seq`` are only meaningful at ``line``
    granularity; ``requirement`` of ``None`` asks against the whole
    specification.
    """

    device: str
    granularity: str = ROUTER
    requirement: Optional[str] = None
    fields: Tuple[str, ...] = (ACTION,)
    direction: Optional[str] = None
    neighbor: Optional[str] = None
    seq: Optional[int] = None

    def __post_init__(self) -> None:
        if self.granularity not in (ROUTER, LINE):
            raise ValueError(f"unknown granularity {self.granularity!r}")
        if self.granularity == LINE and (
            self.direction is None or self.neighbor is None or self.seq is None
        ):
            raise ValueError("line jobs need direction, neighbor and seq")

    @property
    def job_id(self) -> str:
        """A short human-readable identifier, unique within a batch."""
        requirement = self.requirement if self.requirement is not None else "<all>"
        if self.granularity == LINE:
            return f"{self.device}/{self.direction}.{self.neighbor}.{self.seq}/{requirement}"
        return f"{self.device}/router/{requirement}"

    def payload(self) -> Dict[str, object]:
        """The job's contribution to its content-addressed key."""
        return {
            "device": self.device,
            "granularity": self.granularity,
            "requirement": self.requirement,
            "fields": list(self.fields),
            "direction": self.direction,
            "neighbor": self.neighbor,
            "seq": self.seq,
        }

    def symbolize(self, config: NetworkConfig):
        """The (sketch, holes) pair this job's question symbolizes."""
        if self.granularity == LINE:
            assert self.direction is not None and self.neighbor is not None
            assert self.seq is not None
            return symbolize_line(
                config, self.device, self.direction, self.neighbor, self.seq,
                self.fields,
            )
        return symbolize_router(config, self.device, self.fields)

    def run(self, engine):
        """Answer this question through an :class:`ExplanationEngine`."""
        if self.granularity == LINE:
            return engine.explain_line(
                self.device, self.direction, self.neighbor, self.seq,
                fields=self.fields, requirement=self.requirement,
            )
        return engine.explain_router(
            self.device, fields=self.fields, requirement=self.requirement
        )


@dataclass(frozen=True)
class JobFamily:
    """The sibling jobs of one (device, requirement block) group.

    Per-line jobs of one router asked against one requirement differ
    only in which line they symbolize; dispatching them to the same
    worker lets it share the seed encode, simulations and statement
    terms across the whole group (see :mod:`repro.explain.family`).
    A router-granularity job is its own singleton family.  ``index``
    preserves the family's first appearance so batch reports keep the
    original job order.
    """

    index: int
    jobs: Tuple[ExplainJob, ...]

    def __post_init__(self) -> None:
        if not self.jobs:
            raise ValueError("a job family cannot be empty")

    @property
    def key(self) -> Tuple[object, ...]:
        return family_key(self.jobs[0])

    @property
    def family_id(self) -> str:
        first = self.jobs[0]
        requirement = first.requirement if first.requirement is not None else "<all>"
        return f"{first.device}/{first.granularity}/{requirement}"

    def __len__(self) -> int:
        return len(self.jobs)


def family_key(job: ExplainJob) -> Tuple[object, ...]:
    """The grouping key: siblings share device, requirement, shape."""
    return (job.device, job.requirement, job.granularity, tuple(job.fields))


def group_families(jobs: List[ExplainJob]) -> List[JobFamily]:
    """Group a batch into families, in first-appearance order.

    Jobs sharing (device, requirement, granularity, fields) land in one
    family; order within a family and across families follows the input
    (which :func:`enumerate_jobs` keeps deterministic).
    """
    grouped: Dict[Tuple[object, ...], List[ExplainJob]] = {}
    order: List[Tuple[object, ...]] = []
    for job in jobs:
        key = family_key(job)
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(job)
    return [
        JobFamily(index=index, jobs=tuple(grouped[key]))
        for index, key in enumerate(order)
    ]


def member_indices(
    jobs: List[ExplainJob], families: List[JobFamily]
) -> Dict[int, List[int]]:
    """family.index -> each member's position in the original batch."""
    positions: Dict[ExplainJob, List[int]] = {}
    for index, job in enumerate(jobs):
        positions.setdefault(job, []).append(index)
    return {
        family.index: [positions[job].pop(0) for job in family.jobs]
        for family in families
    }


def enumerate_jobs(
    config: NetworkConfig,
    specification: Specification,
    per_line: bool = False,
    fields: Tuple[str, ...] = (ACTION,),
) -> List[ExplainJob]:
    """Every answerable question of a scenario, in deterministic order.

    One job per (managed router, requirement block) -- or per
    (route-map line, requirement block) with ``per_line`` -- skipping
    routers that have nothing to symbolize (no attached route-map
    lines).  The order is sorted by device then requirement so batch
    reports are stable across runs.
    """
    managed = sorted(specification.managed) or sorted(
        config.topology.router_names
    )
    requirements = [block.name for block in specification.blocks]
    jobs: List[ExplainJob] = []
    for device in managed:
        router_config = config.router_config(device)
        sessions = [
            (direction, neighbor)
            for direction, neighbor in router_config.sessions()
            if router_config.get_map(direction, neighbor).lines
        ]
        if not sessions:
            continue  # nothing to symbolize; symbolize_router would raise
        for requirement in requirements:
            if per_line:
                for direction, neighbor in sessions:
                    routemap = router_config.get_map(direction, neighbor)
                    for line in routemap.lines:
                        jobs.append(
                            ExplainJob(
                                device=device,
                                granularity=LINE,
                                requirement=requirement,
                                fields=fields,
                                direction=direction,
                                neighbor=neighbor,
                                seq=line.seq,
                            )
                        )
            else:
                jobs.append(
                    ExplainJob(
                        device=device, requirement=requirement, fields=fields
                    )
                )
    # Defensive double-check: drop anything symbolization rejects so a
    # single odd device cannot poison the whole batch.
    answerable: List[ExplainJob] = []
    for job in jobs:
        try:
            job.symbolize(config)
        except SymbolizationError:
            continue
        answerable.append(job)
    return answerable
