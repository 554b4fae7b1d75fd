"""Memory under the collector policy of :mod:`repro.gcpolicy`.

With automatic collection off, cyclic garbage stays until someone
collects: a one-shot ``check`` never does, and the daemon collects the
young generation once per fresh analysis.  These tests pin what that
rests on: an analysis makes no cyclic garbage of its own, a released
module leaves none either, and a collector-off session stays flat across
edit and revert requests, leaves nothing for a full collection to find,
and matches one-shot reports byte for byte.
"""

import gc

import pytest

from repro import PATA, AnalysisConfig
from repro.cli import check_output_text
from repro.corpus import PROFILES_BY_NAME, generate
from repro.gcpolicy import collect_garbage, collector_off
from repro.lang import compile_program
from repro.serve import Session
from repro.serve import session as session_module


@pytest.fixture(scope="module")
def linux_sources():
    corpus = generate(PROFILES_BY_NAME["linux"].scaled(0.2))
    return corpus.compiled_sources()


def _garbage_after(run) -> int:
    """Objects in reference cycles that ``run()`` left behind."""
    gc.collect()
    with collector_off():
        run()
        return gc.collect()


@pytest.mark.parametrize("tier", ["off", "steens", "flow"])
def test_analysis_leaves_no_cyclic_garbage(linux_sources, tier):
    """Program kept alive, result dropped: the explorer, its tracker
    context, the alias graphs and the SMT replay graphs all go by
    reference counting.  The IR's own cycles are alive here, so they do
    not count."""
    program = compile_program(linux_sources)
    config = AnalysisConfig(alias_tier=tier)
    assert _garbage_after(lambda: PATA(config=config, checker_spec="all").analyze(program)) == 0


def test_pata_na_leaves_no_cyclic_garbage(linux_sources):
    program = compile_program(linux_sources)
    config = AnalysisConfig().for_pata_na()
    assert _garbage_after(lambda: PATA(config=config, checker_spec="all").analyze(program)) == 0


def test_collector_off_restores_prior_state():
    assert gc.isenabled()
    with collector_off():
        assert not gc.isenabled()
        with collector_off():
            assert not gc.isenabled()
        assert not gc.isenabled()  # inner exit keeps the outer state
    assert gc.isenabled()
    gc.disable()
    try:
        with collector_off():
            pass
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_released_modules_leave_no_cyclic_garbage(linux_sources):
    """An analyzed linux program whose modules are released goes by
    reference counting alone: CFG and ``parent`` cycles, self-referential
    struct types and the module-to-program links are all broken."""

    def run():
        program = compile_program(linux_sources)
        PATA(checker_spec="all").analyze(program)
        for module in program.modules:
            module.release()

    assert _garbage_after(run) == 0


def test_collect_garbage_only_when_collector_off():
    """With the collector off, one young-generation collection: programs
    die by reference counting, so only what the last request allocated
    needs a look, never the resident heap."""
    collections = []

    def on_gc(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.callbacks.append(on_gc)
    try:
        collect_garbage()  # collector on: CPython's own schedule runs
        assert collections == []
        with collector_off():
            collect_garbage()
        assert collections == [0]
    finally:
        gc.callbacks.remove(on_gc)


@pytest.fixture(scope="module")
def edit_session(linux_sources):
    """A collector-off session over one-line edits of the first file and
    reverts to earlier states, with a one-entry replay memo so every
    revert is a fresh analysis that unpickles the reverted module.
    Returns (outputs, expected one-shot outputs, tracked-object counts
    after each request, objects a full collection finds at the end)."""
    spec = "all"
    path, root = linux_sources[0]

    def edit(k):
        return [(path, root + f"\nint gc_edit_{k}(int a) {{ return a + {k}; }}\n"),
                *linux_sources[1:]]

    requests = [edit(0), edit(1), linux_sources, edit(2), edit(0), edit(3),
                edit(1), linux_sources]
    expected = [
        check_output_text(PATA(checker_spec=spec).analyze_sources(sources))
        for sources in requests
    ]
    outputs, counts = [], []
    gc.collect()
    with pytest.MonkeyPatch.context() as patch, collector_off():
        patch.setattr(session_module, "MEMO_LIMIT", 1)
        session = Session(checker_spec=spec)
        for sources in requests:
            result = session.analyze(sources)
            assert not result.stats.request_replayed
            outputs.append(check_output_text(result))
            del result
            counts.append(len(gc.get_objects()))
        # What the next request would collect first: the last request's
        # young garbage (the unpickled copies its cached outcomes were
        # rehydrated from).
        collect_garbage()
        garbage = gc.collect()
    return outputs, expected, counts, garbage


def test_collector_off_session_stays_flat(edit_session):
    """Each fresh analysis releases the modules the previous program
    does not share, so the tracked-object count stays near its value
    after the first request, and every report matches a one-shot run."""
    outputs, expected, counts, _ = edit_session
    assert outputs == expected
    # What stays is the live modules, the resident store and the replay
    # memo.  A program left as cyclic garbage by each request would add
    # about 60 % of the first count here.
    margin = counts[0] // 10
    assert all(abs(count - counts[0]) <= margin for count in counts), counts


def test_collector_off_session_leaves_no_garbage(edit_session):
    """After the session and its young-generation collection, a full
    collection finds nothing: no request's program, released module or
    replaced result is left in a cycle that only a full collection
    could free."""
    assert edit_session[3] == 0
