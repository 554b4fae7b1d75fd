"""When CPython's cyclic garbage collector runs.

The analysis builds one long-lived IR and explores it.  The IR is
cyclic (``Function``, ``BasicBlock`` and instruction ``parent``
pointers), but compiling and analyzing make no cyclic garbage of their
own, so an automatic collection during a run traverses survivors and
frees almost nothing.  The policy, for the two process shapes:

* **One-shot ``check``** runs under :func:`collector_off`, and the
  process entry (:func:`repro.cli.run`) leaves through ``os._exit``
  once ``check`` returns, so the interpreter never tears the heap down
  either.
* **The daemon** serves under :func:`collector_off` and calls
  :func:`collect_garbage` once per fresh analysis, before it compiles.
  Its program is resident: the session keeps the last program's modules
  live and releases (breaks the cycles of) each module it drops, so no
  program dies as cyclic garbage.  A young-generation collection then
  costs what the previous request allocated, not the resident heap.
  Replays allocate almost nothing and never collect.

The context manager restores the prior state, so in-process callers
(tests, embedding code) keep their collector.
"""

from __future__ import annotations

import contextlib
import gc
from typing import Iterator


@contextlib.contextmanager
def collector_off() -> Iterator[None]:
    """Run the body with automatic collection off; restore the prior
    state on exit.  Also usable as a function decorator."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def collect_garbage() -> None:
    """Collect the young generation now if automatic collection is off (a
    daemon between requests); with it on, CPython's own schedule already
    runs."""
    if not gc.isenabled():
        gc.collect(0)
