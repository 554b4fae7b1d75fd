"""Orchestration glue between the cache primitives and the PATA pipeline.

:class:`IncrementalContext` is what :meth:`repro.core.pata.PATA.analyze`
actually talks to.  Opened once per analysis (when the config enables
caching and the checker set is spec-addressable), it:

* derives every function's transitive key (:mod:`.fingerprint`) and the
  program's coordinate index (:mod:`.coords`) once;
* seeds the P1 collector with cached may-return facts (**layer a**);
* partitions the entry list into cache hits, cached skips, and dirty
  entries (**layers b and c**), rehydrating each hit's outcome onto the
  current program;
* after the dirty entries are explored, stages all three layers and
  flushes them with the store's single :meth:`~.store.CacheStore.commit`
  — the parent process is the only store client: worker processes never
  open it (the parent ships them its collector facts and relevance
  masks directly, see :mod:`repro.core.parallel`).

Layer keys, and what each deliberately excludes:

=========  ======================================================  =================================
layer      key ingredients                                         survives
=========  ======================================================  =================================
modules    source sha + filename + frontend tag                    any non-frontend config change
facts      function transitive key                                 checker-spec *and* config changes
partition  module closure (every transitive key)                   checker-spec *and* config changes
masks      entry transitive key + spec + presolve-config fp        P2 budget changes
outcomes   entry transitive key + spec + engine-config fp          edits outside the entry's closure
xsummary   module closure + spec + engine-config fp                nothing (any edit rebuilds)
=========  ======================================================  =================================

Every key also folds the engine + cache-format versions (see
:meth:`~.store.CacheStore.object_key`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..ir import Function, Program
from .coords import CoordIndex, StaleEntry, outcome_coords, rehydrate_outcome, renumber_program
from .fingerprint import (
    TransitiveKeys,
    _sha,
    engine_config_fingerprint,
    presolve_config_fingerprint,
    spec_fingerprint,
)
from .store import CacheStore, open_store

log = logging.getLogger("repro.incremental")


def _facts_key(name: str, tkey: str) -> str:
    return CacheStore.object_key("facts", name, tkey)


def _mask_key(name: str, tkey: str, spec_fp: str, presolve_fp: str) -> str:
    return CacheStore.object_key("mask", name, tkey, spec_fp, presolve_fp)


def _outcome_key(name: str, tkey: str, spec_fp: str, engine_fp: str) -> str:
    return CacheStore.object_key("outcome", name, tkey, spec_fp, engine_fp)


def _module_key(filename: str, source: str) -> str:
    return CacheStore.object_key("module", filename, _sha("src", source))


def _partition_key(closure_pairs: List[str]) -> str:
    """P1.7 may-alias partition layer: one object per *module closure* —
    the sorted name=transitive-key pairs — because the unification pass
    reads the whole program.  Any edit anywhere misses and rebuilds."""
    return CacheStore.object_key("partition", *closure_pairs)


def _flow_key(closure_pairs: List[str], resolve_fp: bool) -> str:
    """P1.8 must-alias-facts layer: like the partition, one object per
    module closure — the facts embed their own callgraph and the
    occurrence walk reads every function.  Indirect-call resolution
    changes the disqualification rules and the embedded pool, so the
    flag folds into the key."""
    return CacheStore.object_key("flowfacts", repr(resolve_fp), *closure_pairs)


def _xsummary_key(closure_pairs: List[str], spec_fp: str, engine_fp: str) -> str:
    """P2.6 interface-summary layer: one object per module closure — the
    summaries are a projection of every module's merged taint flows, so
    an edit anywhere rebuilds them.  The spec and engine fingerprints
    participate because the flows depend on which checkers are armed and
    on the exploration budgets (same ingredients as the outcome layer:
    the summaries are exactly a re-grouping of outcome records)."""
    return CacheStore.object_key("xsummary", spec_fp, engine_fp, *closure_pairs)


class _FlowBundle:
    """Adapter giving a flat TaintFlow list the ``(bugs, accesses)``
    shape that :func:`~.coords.outcome_coords` and
    :func:`~.coords.rehydrate_outcome` walk — flows are rehydrated in
    place, so the summaries referencing them heal too."""

    def __init__(self, flows):
        self.bugs: List = []
        self.accesses = flows


# Program-wide *bundle* objects: the fully-warm fast path.  A warm run
# over N functions would otherwise pay N small reads (and their pathlib
# + unpickle fixed costs) per layer; the bundles collapse each layer to
# one read, keyed over every transitive key at once, so *any* edit
# anywhere misses the bundle and falls back to the granular objects.


def _facts_bundle_key(closure_pairs: List[str]) -> str:
    return CacheStore.object_key("facts-bundle", *closure_pairs)


def _plan_bundle_key(closure_pairs: List[str], entry_names: List[str],
                     spec_fp: str, engine_fp: str) -> str:
    return CacheStore.object_key(
        "plan-bundle", spec_fp, engine_fp, *closure_pairs, "entries:", *entry_names
    )


@dataclass
class IncrementalPlan:
    """The per-entry partition one warm-start run works from."""

    #: entry name -> rehydrated cached outcome ((b) relevant + (c) hit)
    cached: Dict[str, object] = field(default_factory=dict)
    #: entries whose cached relevance mask says "skip outright"
    skipped: List[str] = field(default_factory=list)
    #: entries this run must explore, in entry-list order
    dirty: List[Function] = field(default_factory=list)
    #: dead-block uid sets for dirty entries whose mask hit anyway
    masks: Dict[str, FrozenSet[int]] = field(default_factory=dict)
    #: per-entry armed checker names (None = arming unsupported, the
    #: explorer dispatches every checker), for the same dirty entries
    armed: Dict[str, Optional[FrozenSet[str]]] = field(default_factory=dict)
    #: True when some dirty entry has no cached mask — the run must
    #: build the live P1.5 pre-analysis
    needs_relevance: bool = True


class CachedRelevance:
    """A drop-in for :class:`~repro.presolve.prune.RelevancePreAnalysis`
    backed entirely by cached layer-(b) masks: same ``dead_blocks`` and
    ``armed_names`` surface the explorer consumes, none of the
    summary-index build cost.  Only constructed when *every* entry it
    will be asked about has a cached mask (anything else falls back to
    the live pre-analysis)."""

    supported = True

    def __init__(
        self,
        masks: Dict[str, FrozenSet[int]],
        armed: Optional[Dict[str, Optional[FrozenSet[str]]]] = None,
    ):
        self._masks = masks
        self._armed = armed or {}

    def dead_blocks(self, entry: Function) -> FrozenSet[int]:
        return self._masks.get(entry.name, frozenset())

    def armed_names(self, entry: Function) -> Optional[FrozenSet[str]]:
        return self._armed.get(entry.name)


class IncrementalContext:
    """One analysis run's view of the cache (see module docstring)."""

    def __init__(self, store: CacheStore, program: Program, config, checker_spec: str):
        from ..cfg import mark_interface_functions

        # Fingerprints print the `interface` flag, so the marking pass
        # must run before key derivation (the collector re-runs it
        # idempotently a moment later).
        mark_interface_functions(program)
        self.store = store
        self.program = program
        self.config = config
        self.keys = TransitiveKeys(
            program,
            config.resolve_function_pointers,
            fingerprints=getattr(program, "_pata_fingerprints", None),
        )
        self.spec_fp = spec_fingerprint(checker_spec)
        self.engine_fp = engine_config_fingerprint(config)
        self.presolve_fp = presolve_config_fingerprint(config)
        self.index = CoordIndex(program)
        self.facts_reused = 0
        self.masks_reused = 0
        self.stale_entries = 0
        #: sorted "name=transitive-key" pairs — the program-wide stamp
        #: every bundle key is derived from
        self._closure_pairs = sorted(
            f"{name}={self.keys.key(name)}" for name in self.keys.fingerprints
        )
        self._facts_bundled = False
        self._plan_bundled = False
        self._entry_names: List[str] = []
        self._last_plan: Optional[IncrementalPlan] = None

    # -- layer a: collector facts -------------------------------------------

    def cached_facts(self) -> Dict[str, Tuple[bool, bool]]:
        """name -> (may_return_negative, may_return_zero) for every
        function whose facts are cached under its current transitive key.
        Sound to seed: the facts were computed over byte-identical
        content, and the collector's fixpoint only flips False->True."""
        bundle = self.store.get(_facts_bundle_key(self._closure_pairs))
        if isinstance(bundle, dict) and set(bundle) == set(self.keys.fingerprints):
            self._facts_bundled = True
            self.facts_reused = len(bundle)
            return bundle
        facts: Dict[str, Tuple[bool, bool]] = {}
        for name in self.keys.fingerprints:
            value = self.store.get(_facts_key(name, self.keys.key(name)))
            if isinstance(value, tuple) and len(value) == 2:
                facts[name] = value
        self.facts_reused = len(facts)
        return facts

    # -- layer p: P1.7 may-alias partition -----------------------------------

    def cached_partition(self):
        """The whole-program :class:`~repro.pointsto.steensgaard.
        MayAliasPartition` cached under this program's module closure, or
        ``None`` on a miss (including any shape surprise — a corrupt
        payload degrades to rebuilding the pass, never to a crash)."""
        from ..pointsto.steensgaard import MayAliasPartition

        payload = self.store.get(_partition_key(self._closure_pairs))
        if isinstance(payload, MayAliasPartition):
            return payload
        return None

    def stage_partition(self, partition) -> None:
        """Stage the freshly built partition for the next commit (put
        already skips keys staged or on disk, so warm runs write
        nothing)."""
        if partition is not None and self.store.mode == "rw":
            self.store.put(_partition_key(self._closure_pairs), partition)

    # -- layer f: P1.8 must-alias facts --------------------------------------

    def cached_flow_facts(self):
        """The :class:`~repro.pointsto.flow_tier.MustAliasFacts` cached
        under this program's module closure, or ``None`` on a miss (any
        shape surprise degrades to rebuilding the pass)."""
        from ..pointsto.flow_tier import MustAliasFacts

        payload = self.store.get(
            _flow_key(self._closure_pairs, self.config.resolve_function_pointers)
        )
        if isinstance(payload, MustAliasFacts):
            return payload
        return None

    def stage_flow_facts(self, facts) -> None:
        """Stage freshly computed facts for the next commit."""
        if facts is not None and self.store.mode == "rw":
            self.store.put(
                _flow_key(self._closure_pairs, self.config.resolve_function_pointers),
                facts,
            )

    # -- layer x: P2.6 interface summaries ------------------------------------

    def cached_xtaint_summaries(self):
        """module -> :class:`~repro.xtaint.summary.ModuleSummary` cached
        under this program's module closure, rehydrated onto the current
        program, or ``None`` on a miss (shape surprises and stale
        coordinates degrade to rebuilding from the merged flows)."""
        from ..xtaint import ModuleSummary, all_flows

        payload = self.store.get(
            _xsummary_key(self._closure_pairs, self.spec_fp, self.engine_fp)
        )
        if not isinstance(payload, dict) or "summaries" not in payload:
            return None
        summaries = payload["summaries"]
        if not isinstance(summaries, dict) or not all(
            isinstance(s, ModuleSummary) for s in summaries.values()
        ):
            return None
        bundle = _FlowBundle(all_flows(summaries))
        try:
            rehydrate_outcome(bundle, payload.get("coords", {}), self.index)
        except StaleEntry as exc:
            log.warning("cache: stale xtaint summaries (%s); rebuilding", exc)
            self.stale_entries += 1
            return None
        return summaries

    def stage_xtaint_summaries(self, summaries) -> None:
        """Stage freshly built summaries for the next commit."""
        if not summaries or self.store.mode != "rw":
            return
        from ..xtaint import all_flows

        key = _xsummary_key(self._closure_pairs, self.spec_fp, self.engine_fp)
        if self.store.contains(key):
            return
        try:
            coords = outcome_coords(_FlowBundle(all_flows(summaries)), self.index)
        except StaleEntry as exc:  # pragma: no cover - defensive
            log.warning("cache: not storing xtaint summaries (%s)", exc)
            return
        self.store.put(key, {"summaries": summaries, "coords": coords})

    # -- layers b + c: entry partition --------------------------------------

    def plan(self, entry_list: List[Function]) -> IncrementalPlan:
        self._entry_names = [entry.name for entry in entry_list]
        bundled = self._plan_from_bundle(entry_list)
        if bundled is not None:
            return bundled
        plan = IncrementalPlan()
        missing_mask = False
        for entry in entry_list:
            tkey = self.keys.key(entry.name)
            relevant = True
            if self.config.prune:
                mask = self.store.get(
                    _mask_key(entry.name, tkey, self.spec_fp, self.presolve_fp)
                )
                if isinstance(mask, dict) and "relevant" in mask and "armed" in mask:
                    relevant = bool(mask["relevant"])
                    if not relevant:
                        plan.skipped.append(entry.name)
                        continue
                    armed = mask["armed"]
                    plan.armed[entry.name] = (
                        frozenset(armed) if armed is not None else None
                    )
                    try:
                        plan.masks[entry.name] = CoordIndex.resolve_block_coords(
                            entry, mask.get("dead", ())
                        )
                    except StaleEntry:
                        missing_mask = True
                else:
                    missing_mask = True
            outcome = self._load_outcome(entry, tkey)
            if outcome is not None:
                plan.cached[entry.name] = outcome
            else:
                plan.dirty.append(entry)
        plan.needs_relevance = self.config.prune and missing_mask
        self.masks_reused = len(plan.masks) + len(plan.skipped)
        self._last_plan = plan
        return plan

    def _plan_from_bundle(self, entry_list: List[Function]) -> Optional[IncrementalPlan]:
        """The fully-warm fast path: one read covering layers b and c for
        every entry at once.  The bundle key folds every closure key, so
        it only ever hits when *nothing* is dirty — any shape or
        rehydration surprise falls back silently to the granular plan."""
        bundle = self.store.get(
            _plan_bundle_key(
                self._closure_pairs, self._entry_names, self.spec_fp, self.engine_fp
            )
        )
        if not isinstance(bundle, dict):
            return None
        skipped = bundle.get("skipped")
        outcomes = bundle.get("outcomes")
        if not isinstance(skipped, (list, tuple)) or not isinstance(outcomes, dict):
            return None
        skipped_set = set(skipped)
        if (skipped_set | set(outcomes)) != set(self._entry_names) or (
            skipped_set & set(outcomes)
        ):
            return None
        plan = IncrementalPlan(needs_relevance=False)
        for entry in entry_list:
            if entry.name in skipped_set:
                plan.skipped.append(entry.name)
                continue
            outcome = self._rehydrate_payload(entry.name, outcomes[entry.name])
            if outcome is None:
                return None
            plan.cached[entry.name] = outcome
        self._plan_bundled = True
        self.masks_reused = len(plan.skipped) + len(plan.cached)
        self._last_plan = plan
        return plan

    def _load_outcome(self, entry: Function, tkey: str):
        payload = self.store.get(
            _outcome_key(entry.name, tkey, self.spec_fp, self.engine_fp)
        )
        return self._rehydrate_payload(entry.name, payload)

    def _rehydrate_payload(self, name: str, payload):
        if not isinstance(payload, dict) or "outcome" not in payload:
            return None
        outcome = payload["outcome"]
        try:
            rehydrate_outcome(outcome, payload.get("coords", {}), self.index)
        except StaleEntry as exc:
            # The transitive key should make this unreachable; if key
            # derivation ever misses a dependency, degrade to a miss
            # rather than report against the wrong instructions.
            log.warning(
                "cache: stale outcome for entry %s (%s); re-analyzing", name, exc
            )
            self.stale_entries += 1
            return None
        # A skipped entry's phase timing is 0 by definition — the stored
        # wall time belongs to the run that produced it.
        outcome.stats.wall_seconds = 0.0
        outcome.stats.cached = True
        return outcome

    # -- commit (parent process, single writer) ------------------------------

    def commit(
        self,
        collector,
        relevance,
        analyzed: List[Function],
        outcomes: Dict[str, object],
        skipped_names: List[str],
    ) -> int:
        """Stage layers a/b/c for everything this run computed, then
        flush atomically.  ``put`` already skips keys that are staged or
        on disk, so warm runs write nothing."""
        if self.store.mode != "rw":
            return 0
        all_facts: Dict[str, Tuple[bool, bool]] = {
            name: (info.may_return_negative, info.may_return_zero)
            for name, info in collector.functions.items()
            if name in self.keys.fingerprints
        }
        if not self._facts_bundled:
            for name, value in all_facts.items():
                self.store.put(_facts_key(name, self.keys.key(name)), value)
            if set(all_facts) == set(self.keys.fingerprints):
                self.store.put(_facts_bundle_key(self._closure_pairs), all_facts)
        if self.config.prune and relevance is not None:
            from ..presolve import RelevancePreAnalysis

            if isinstance(relevance, RelevancePreAnalysis):
                for entry in analyzed:
                    dead = relevance.dead_blocks(entry)
                    armed = relevance.armed_names(entry)
                    self.store.put(
                        _mask_key(
                            entry.name, self.keys.key(entry.name),
                            self.spec_fp, self.presolve_fp,
                        ),
                        {"relevant": True,
                         "dead": self.index.block_coords(entry, dead),
                         "armed": None if armed is None else sorted(armed)},
                    )
                for name in skipped_names:
                    if name not in self.keys.fingerprints:
                        continue
                    self.store.put(
                        _mask_key(
                            name, self.keys.key(name), self.spec_fp, self.presolve_fp
                        ),
                        {"relevant": False, "dead": [], "armed": []},
                    )
        for entry in analyzed:
            outcome = outcomes.get(entry.name)
            if outcome is None or outcome.stats.cached:
                continue
            key = _outcome_key(
                entry.name, self.keys.key(entry.name), self.spec_fp, self.engine_fp
            )
            if self.store.contains(key):
                continue
            try:
                coords = outcome_coords(outcome, self.index)
            except StaleEntry as exc:  # pragma: no cover - defensive
                log.warning("cache: not storing entry %s (%s)", entry.name, exc)
                continue
            self.store.put(key, {"outcome": outcome, "coords": coords})
        if not self._plan_bundled:
            self._stage_plan_bundle(outcomes, skipped_names)
        return self.store.commit()

    def _stage_plan_bundle(self, outcomes: Dict[str, object],
                           skipped_names: List[str]) -> None:
        """Assemble the plan bundle from this run's fresh outcomes plus
        any granular cache hits, but only when every non-skipped entry is
        covered — a partial bundle would be a wrong answer on the next
        fully-warm read."""
        if not self._entry_names:
            return
        cached = self._last_plan.cached if self._last_plan is not None else {}
        skipped_set = set(skipped_names)
        payload: Dict[str, dict] = {}
        for name in self._entry_names:
            if name in skipped_set:
                continue
            outcome = outcomes.get(name)
            if outcome is None:
                outcome = cached.get(name)
            if outcome is None:
                return
            try:
                payload[name] = {
                    "outcome": outcome,
                    "coords": outcome_coords(outcome, self.index),
                }
            except StaleEntry:  # pragma: no cover - defensive
                return
        self.store.put(
            _plan_bundle_key(
                self._closure_pairs, self._entry_names, self.spec_fp, self.engine_fp
            ),
            {
                "skipped": [n for n in self._entry_names if n in skipped_set],
                "outcomes": payload,
            },
        )


def open_incremental(program: Program, config, checker_spec: Optional[str],
                     store: Optional[CacheStore] = None):
    """The :class:`IncrementalContext` for one analysis, or ``None`` with
    a one-line warning when caching is configured but cannot apply
    (live checker objects, per-entry wall-clock budgets, unopenable
    directory).  Mirrors the parallel fallback contract: degraded modes
    warn, they never crash and never change results.

    ``store`` bypasses directory resolution with a caller-owned store
    (any object speaking the :class:`~.store.CacheStore` surface — the
    resident session's in-memory store rides this); the caller keeps
    ownership and its commit discipline."""
    if store is None and not getattr(config, "cache_dir", None):
        return None
    if checker_spec is None:
        log.warning(
            "incremental cache disabled: custom checker objects cannot be "
            "fingerprinted; pass a checker_spec string"
        )
        return None
    if config.entry_time_limit is not None:
        log.warning(
            "incremental cache disabled: entry_time_limit makes per-entry "
            "results wall-clock-dependent, so they cannot be reused"
        )
        return None
    if store is None:
        store = open_store(config.cache_dir, config.cache_mode)
    if store is None:
        return None
    try:
        return IncrementalContext(store, program, config, checker_spec)
    except Exception as exc:
        log.warning("incremental cache disabled: %s", exc)
        return None


# -- layer 0: frontend module cache ------------------------------------------


class LiveModule:
    """One compiled module held live across programs (a resident
    session's table): its store key, the module, its compile-time
    function fingerprints, the names its own registrations marked as
    interfaces, from before any cross-module marking, and the
    fingerprints of its defined functions marked in the last program it
    was linked into."""

    __slots__ = ("key", "module", "fingerprints", "interface", "marked")

    def __init__(self, key: Optional[str], module, fingerprints: Dict[str, str]):
        self.key = key
        self.module = module
        self.fingerprints = fingerprints
        self.interface = frozenset(
            name for name, func in module.functions.items() if func.is_interface
        )
        self.marked: Dict[str, str] = {}

    def reset(self) -> None:
        """Undo the per-program state of the last program the module was
        linked into: interface flags from cross-module marking, and the
        program itself (uids are renumbered by every assembly)."""
        for name, func in self.module.functions.items():
            func.is_interface = name in self.interface
        self.module._owners = []

    def retire(self, store: Optional[CacheStore]) -> None:
        """Leave the table: stage the module into ``store``, per-program
        state reset, so a later request can bring it back, then release
        it."""
        if store is not None:
            self.reset()
            store.put(self.key, {"module": self.module,
                                 "fingerprints": self.fingerprints})
        self.module.release()


def compile_with_cache(sources, store: Optional[CacheStore],
                       live: Optional[Dict[str, LiveModule]] = None) -> Program:
    """Compile ``(filename, source)`` pairs, reusing cached modules for
    unchanged files.  Every uid in the assembled program is renumbered
    from the live process counters afterwards (cached modules carry a
    dead process's uids; fresh ones are renumbered harmlessly).  The
    caller owns the store's commit.

    ``live`` is a resident session's table of live modules by module key,
    holding the previous program's modules: an unchanged file reuses its
    module as is, with no unpickling, and only new or changed files are
    read from the store or compiled.  On return the table holds exactly
    this program's modules; the ones that left it are staged into the
    store, where a later request finds them, and released
    (:meth:`LiveModule.retire`).  A module is pickled only when it
    leaves, so a session's first request pickles none.

    Each payload also carries the module's function fingerprints so a
    warm :class:`TransitiveKeys` need not re-print unchanged functions.
    They are computed (and pickled) *before* interface marking; marking
    resolves registrations across modules, so per-module objects cannot
    soundly cache it.  The marked few are re-printed after assembly."""
    from ..cfg import mark_interface_functions
    from ..ir.printer import canonical_function_print, canonical_module_environment

    program = Program()
    fingerprints: Dict[str, str] = {}
    linked: Dict[str, LiveModule] = {}
    for filename, source in sources:
        key = (_module_key(filename, source)
               if store is not None or live is not None else None)
        # A file listed twice links two copies, as a one-shot compile does.
        slot, copies = key, 1
        while slot in linked:
            copies += 1
            slot = f"{key}#{copies}"
        entry = live.get(slot) if live is not None else None
        if entry is not None:
            entry.reset()
        else:
            entry = _load_module(filename, source, key,
                                 store, stage=live is None)
        linked[slot] = entry
        program.add_module(entry.module)
        fingerprints.update(entry.fingerprints)
    if live is not None:
        for slot, entry in live.items():
            if slot not in linked:
                entry.retire(store)
        live.clear()
        live.update(linked)
    renumber_program(program)
    mark_interface_functions(program)
    for entry in linked.values():
        functions = entry.module.functions
        marked = [name for name, func in functions.items()
                  if func.is_interface and not func.is_declaration]
        if marked != list(entry.marked):
            env = canonical_module_environment(entry.module)
            entry.marked = {
                name: _sha("fn", env, canonical_function_print(functions[name]))
                for name in marked
            }
        fingerprints.update(entry.marked)
    program._pata_fingerprints = fingerprints
    return program


def _load_module(filename: str, source: str, key: Optional[str],
                 store: Optional[CacheStore], stage: bool) -> LiveModule:
    """The module of one file from the store, or freshly compiled and,
    with ``stage``, staged into it."""
    from ..lang import compile_source
    from .fingerprint import module_fingerprints

    payload = store.get(key) if store is not None else None
    module = payload.get("module") if isinstance(payload, dict) else payload
    fps = payload.get("fingerprints") if isinstance(payload, dict) else None
    if module is None or not hasattr(module, "functions"):
        module = compile_source(source, filename)
        fps = None
    if not isinstance(fps, dict):
        fps = module_fingerprints(module)
    if stage and store is not None:
        store.put(key, {"module": module, "fingerprints": fps})
    return LiveModule(key, module, fps)
