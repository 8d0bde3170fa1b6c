"""Incremental invalidation: is a cached answer still exact?

The decision procedure mirrors ccache's two-level scheme:

1. **Static key** -- if a job's content-addressed key changed between
   the old and new configuration, the device's own inputs changed and
   the job is dirty (its cache slot moved anyway).
2. **Read-set replay** -- otherwise the stored read-set is checked
   against the *new* configuration:

   a. the attribute universe (collected on the job's sketch) must be
      unchanged -- it shapes every symbolic term;
   b. each touched seam whose route-map renders to the same text as
      recorded is clean without further work -- when every seam is,
      the read-set's head decides alone and its entries are never
      loaded;
   c. seams whose text changed are *replayed*: the entries artifact
      is loaded, every recorded input is pushed through the new map
      (symbolically or concretely, matching the seam it was recorded
      at) and the output fingerprint compared.  Behaviour-preserving
      edits -- renumbering sequence numbers, renaming a map -- therefore
      keep the cache warm, while any edit that changes what the job
      observed marks it dirty.

Everything here is conservative: a missing or unparseable head, or
entries that are missing or unparseable when a replay needs them,
mean dirty, never "assume clean".  A head of an older schema reads as
invalid, so a cache written before the head/entries split re-runs
cold once.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..bgp.announcement import Announcement
from ..bgp.config import NetworkConfig
from ..smt.serialize import SerializationError
from ..spec.ast import Specification
from ..synthesis.holes import HoleEncoder
from ..synthesis.symexec import AttributeUniverse, apply_routemap_symbolic
from .keys import FarmOptions, job_key
from .readset import (
    CONCRETE,
    ENTRIES_STAGE,
    READSET_SCHEMA,
    READSET_STAGE,
    SYMBOLIC,
    concrete_output_fingerprint,
    symbolic_output_fingerprint,
    symbolic_route_from_payload,
    universe_payload,
)
from .store import ArtifactStore

__all__ = ["sketch_universe", "readset_valid", "compute_dirty"]


def sketch_universe(config: NetworkConfig, job) -> AttributeUniverse:
    """The attribute universe of ``job``'s question under ``config``.

    Collected on the *sketch* (the symbolized configuration), exactly
    as the encoder does it: hole domains feed the universe, so two
    configurations agree on a job's universe only if they agree after
    symbolization.
    """
    sketch, _ = job.symbolize(config)
    configs = [
        sketch.router_config(name) for name in sketch.topology.router_names
    ]
    return AttributeUniverse.collect(configs, sketch.topology)


def _replay_symbolic(entry: dict, routemap, universe: AttributeUniverse) -> bool:
    """Does the new map reproduce the recorded symbolic transfer?"""
    try:
        state_in = symbolic_route_from_payload(entry["input"])
    except (SerializationError, KeyError, TypeError, ValueError):
        return False
    permit, state_out = apply_routemap_symbolic(
        routemap, state_in, universe, HoleEncoder()
    )
    return symbolic_output_fingerprint(permit, state_out) == entry["output"]


def _replay_concrete(entry: dict, routemap) -> bool:
    """Does the new map reproduce the recorded concrete transfer?"""
    try:
        announcement = Announcement.from_dict(entry["input"])
    except (KeyError, TypeError, ValueError):
        return False
    result = routemap.apply(announcement) if routemap is not None else announcement
    return concrete_output_fingerprint(result) == entry["output"]


def readset_valid(
    head: Optional[dict],
    new_config: NetworkConfig,
    new_universe: AttributeUniverse,
    load_entries: Callable[[], Optional[dict]],
) -> bool:
    """Whether a stored read-set still describes ``new_config``.

    ``head`` is the read-set's head document; ``load_entries`` returns
    its entries document (``None`` when missing or corrupt) and is
    called only when some touched map's text changed.
    """
    if not isinstance(head, dict) or head.get("schema") != READSET_SCHEMA:
        return False
    if head.get("universe") != universe_payload(new_universe):
        return False
    try:
        maps: List[list] = list(head["maps"])
    except (KeyError, TypeError):
        return False

    from ..bgp.render import render_routemap

    dirty_seams = set()
    for item in maps:
        try:
            owner, direction, neighbor, recorded_text = item
        except (TypeError, ValueError):
            return False
        routemap = new_config.get_map(str(owner), str(direction), str(neighbor))
        current_text = render_routemap(routemap) if routemap is not None else None
        if current_text != recorded_text:
            dirty_seams.add((str(owner), str(direction), str(neighbor)))
    if not dirty_seams:
        return True

    document = load_entries()
    try:
        entries: List[dict] = list(document["entries"])  # type: ignore[index]
    except (KeyError, TypeError):
        return False
    for entry in entries:
        if not isinstance(entry, dict):
            return False
        seam = (
            str(entry.get("owner")),
            str(entry.get("direction")),
            str(entry.get("neighbor")),
        )
        if seam not in dirty_seams:
            continue
        routemap = new_config.get_map(*seam)
        if entry.get("seam") == SYMBOLIC:
            if not _replay_symbolic(entry, routemap, new_universe):
                return False
        elif entry.get("seam") == CONCRETE:
            if not _replay_concrete(entry, routemap):
                return False
        else:
            return False
    return True


def compute_dirty(
    old_config: NetworkConfig,
    new_config: NetworkConfig,
    specification: Specification,
    jobs,
    options: FarmOptions,
    store: ArtifactStore,
) -> Tuple[list, Dict[object, str]]:
    """Partition ``jobs`` into the dirty set and the provably-clean map.

    Returns ``(dirty_jobs, clean_keys)`` where ``clean_keys`` maps each
    clean job to its (unchanged) content-addressed key, under which the
    store holds an answer that is exact for ``new_config``.
    """
    dirty = []
    clean: Dict[object, str] = {}
    for job in jobs:
        new_key = job_key(new_config, specification, job, options)
        try:
            old_key = job_key(old_config, specification, job, options)
        except Exception:
            # The question does not even exist under the old config
            # (new line, new session): necessarily dirty.
            old_key = None
        if new_key != old_key:
            dirty.append(job)
            continue
        head = store.load(new_key, READSET_STAGE)
        if head is None or store.load_text(new_key, "explanation") is None:
            dirty.append(job)
            continue
        universe = sketch_universe(new_config, job)
        load_entries = partial(store.load, new_key, ENTRIES_STAGE)
        if readset_valid(head, new_config, universe, load_entries):
            clean[job] = new_key
        else:
            dirty.append(job)
    return dirty, clean
