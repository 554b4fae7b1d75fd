"""Seeded inputs: the OS tree a workload analyzes and the serve edit schedule.

Everything here is a pure function of ``(profile name, seed)``, so one
seed always gives byte-identical trees and request schedules.
"""

from __future__ import annotations

import collections
import dataclasses
import random
import re
from typing import Dict, List, NamedTuple, Optional, Tuple

#: the daemon's replay memo holds this many distinct request states; a
#: revert targets a state that has left a memo of this size, so it is
#: served by the cache tier (the workload definition, kept fixed here on
#: purpose: a program change to the memo size shows up as a reroute)
MEMO_SIZE = 8

#: request classes of the serve-edits stream, one cycle: 3 edits, each
#: followed by 4 replays of it, then 2 reverts (a revert with no evicted
#: state to return to becomes an edit).  The ~10 ms replays are spread
#: over the cycle, not sent in one burst, so a slow moment of the host
#: skews a few of them, not a run's whole sample; the second revert gives
#: the ~1 s reverts enough samples per run.  Edits take most of the time.
CYCLE = (("edit",) + ("replay",) * 4) * 3 + ("revert", "revert")

#: schedule length; the stream stops at its deadline long before this
SCHEDULE_LEN = 500

_NO_APPEND = re.compile(r"(return|break|continue|goto)\b")


def make_corpus(os_name: str, seed: Optional[int]):
    """The generated OS at scale 1.0.  ``seed=None`` keeps the profile's
    own seed, so the tree equals ``repro corpus --os OS`` output."""
    from repro.corpus import PROFILES_BY_NAME, generate

    profile = PROFILES_BY_NAME[os_name].scaled(1.0)
    if seed is not None:
        profile = dataclasses.replace(profile, seed=seed)
    return generate(profile)


def edit_sites(text: str) -> List[int]:
    """Line indexes where appending one declaration keeps the file valid
    mini-C: statement lines at the top level of a function body (brace
    depth 1 under a header with a parameter list, four-space indent,
    ending in ``;``), not a jump, and not the braceless body of an
    ``if``/``else``/loop (the line before ends a statement or block)."""
    sites: List[int] = []
    depth = 0
    in_function = False
    previous = ""
    for index, line in enumerate(text.split("\n")):
        stripped = line.strip()
        if (depth == 1 and in_function and line.startswith("    ")
                and not line.startswith("     ") and stripped.endswith(";")
                and not _NO_APPEND.match(stripped)
                and previous.endswith((";", "{", "}"))):
            sites.append(index)
        before = depth
        depth += line.count("{") - line.count("}")
        if before == 0 and depth > 0:
            in_function = "(" in line
        if stripped:
            previous = stripped
    return sites


def apply_edit(text: str, line: int, serial: int) -> str:
    """``text`` with one line changed: a fresh local declaration appended
    to statement line ``line``.  ``serial`` makes every edit new content;
    line numbers elsewhere do not move."""
    lines = text.split("\n")
    lines[line] += f" int perfbench_edit_{serial} = {serial};"
    return "\n".join(lines)


class Request(NamedTuple):
    """One scheduled serve request.  ``state`` names the tree it checks:
    ``"root"`` or ``"edit-<serial>"``; ``edit`` is ``(path, line)`` for
    every request whose state is an edit."""

    cls: str
    state: str
    edit: Optional[Tuple[str, int]]


def schedule(sources: List[Tuple[str, str]], seed: int,
             length: int = SCHEDULE_LEN) -> List[Request]:
    """The seeded closed-loop request stream that follows the first
    root-set response.  Edits pick a seeded (file, line) edit site;
    replays repeat the previous request; reverts return to the root set
    once it has left the memo, else to a seeded earlier edit state that
    has.  The daemon's LRU memo is simulated to know which states left."""
    rng = random.Random(seed)
    sites = [(path, line) for path, text in sources for line in edit_sites(text)]
    memo: "collections.OrderedDict[str, None]" = collections.OrderedDict(root=None)
    seen: Dict[str, Optional[Tuple[str, int]]] = {"root": None}
    out: List[Request] = []

    def touch(state: str) -> None:
        memo[state] = None
        memo.move_to_end(state)
        while len(memo) > MEMO_SIZE:
            memo.popitem(last=False)

    for index in range(length):
        cls = CYCLE[index % len(CYCLE)]
        evicted = [s for s in seen if s not in memo]
        if cls == "revert" and not evicted:
            cls = "edit"
        if cls == "edit":
            state = f"edit-{index}"
            seen[state] = sites[rng.randrange(len(sites))]
        elif cls == "replay":
            state = out[-1].state
        else:
            state = "root" if "root" in evicted else rng.choice(evicted)
        touch(state)
        out.append(Request(cls, state, seen[state]))
    return out


def warmup_length(plan: List[Request]) -> int:
    """Requests before the cycle of the first revert: they fill the memo
    (and grow the resident store) and run before the timed stream."""
    first = next((i for i, r in enumerate(plan) if r.cls == "revert"), len(plan))
    return first - first % len(CYCLE)


def state_overlay(sources: Dict[str, str], request: Request) -> Optional[Dict[str, str]]:
    """The ``check_diff`` overlay for ``request``'s state (``None`` for
    the root set)."""
    if request.edit is None:
        return None
    path, line = request.edit
    serial = int(request.state.split("-", 1)[1])
    return {path: apply_edit(sources[path], line, serial)}
