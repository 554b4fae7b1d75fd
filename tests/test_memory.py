"""Memory under the collector policy of :mod:`repro.gcpolicy`.

With automatic collection off, cyclic garbage stays until someone
collects: a one-shot ``check`` never does, and the daemon does once per
fresh analysis.  These tests pin both halves of that: an analysis makes
no cyclic garbage of its own, and a collector-off session stays flat
across edit requests while matching one-shot reports byte for byte.
"""

import gc

import pytest

from repro import PATA, AnalysisConfig
from repro.cli import check_output_text
from repro.corpus import PROFILES_BY_NAME, generate
from repro.gcpolicy import collect_garbage, collector_off
from repro.lang import compile_program
from repro.serve import Session


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


def test_collect_garbage_only_when_collector_off():
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
        assert collections == [2]
    finally:
        gc.callbacks.remove(on_gc)


def test_collector_off_session_stays_flat(linux_sources):
    """Five one-line edit requests in a collector-off process: each
    fresh analysis collects the previous request's program, so the
    tracked-object count stays near its value after the first, and
    every report matches a one-shot run."""
    spec = "all"
    path, root = linux_sources[0]
    requests = [
        [(path, root + f"\nint gc_edit_{k}(int a) {{ return a + {k}; }}\n"),
         *linux_sources[1:]]
        for k in range(5)
    ]
    expected = [
        check_output_text(PATA(checker_spec=spec).analyze_sources(sources))
        for sources in requests
    ]
    outputs, counts = [], []
    with collector_off():
        session = Session(checker_spec=spec)
        for sources in requests:
            result = session.analyze(sources)
            assert not result.stats.request_replayed
            outputs.append(check_output_text(result))
            del result
            counts.append(len(gc.get_objects()))
    assert outputs == expected
    # What stays is the resident store and the replay memo: a few
    # hundred objects per request.  Without the per-request collection
    # each request would leave its whole program behind, about 60 % of
    # the first count here.
    margin = counts[0] // 10
    assert all(abs(count - counts[0]) <= margin for count in counts), counts
