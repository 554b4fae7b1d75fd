"""The analyzer's end-to-end benchmark.

    python3 perfbench/run.py --workload cold-linux [--seed N] [--seconds S] [--trace 0|1]

Workloads (see README.md beside this file):

* ``cold-linux`` / ``cold-iot`` -- ``python -m repro check --all-checkers
  --json --workers 1`` as a fresh subprocess, one at a time, over the
  compiled files of the linux / tencentos tree at scale 1.0;
* ``serve-edits`` -- ``repro serve --all-checkers`` over the linux root
  set with one closed-loop client on one connection sending a seeded
  edit / replay / revert stream.

Every output is checked: the report list against an in-process one-shot
``PATA`` reference, repeated states against their earlier response, and
the root tree against the generated ground truth (no reachable injected
bug may be missed).  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it is the detail record (environment stamp, sample
counts, route shares, ground-truth score), also written under
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import inputs
import spans as spanlib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
LAUNCH = HERE / "launch.py"
SPAWN = HERE / "spawn.py"

#: spawns timed for setup_s: CLI start-ups (about 0.5 s each) on the cold
#: workloads, daemon starts (about 5 s each) on serve-edits
STARTUP_SPAWNS = 7
DAEMON_SPAWNS = 3
#: edit states re-checked against a one-shot reference after the stream
EDIT_SAMPLE = 1
#: bound on any one CLI run, daemon start or daemon request
OP_TIMEOUT = 60.0
#: bound on the daemon's exit after an acknowledged shutdown
EXIT_TIMEOUT = 10.0

#: the median probe time (s) of the reference host every time metric is
#: scaled to: its typical value on a shared 2-vCPU Xeon host
PROBE_REF_S = 0.13
#: share of the operations' time spent probing
PROBE_SHARE = 0.1

WORKLOADS = {"cold-linux": "linux", "cold-iot": "tencentos", "serve-edits": "linux"}

END_TO_END = {"check_s": "s", "setup_s": "s", "edit_p50_ms": "ms",
              "replay_p50_ms": "ms", "peak_rss_mb": "MB"}


def per_layer_units() -> Dict[str, str]:
    units = {metric: "s" for metric, _ in spanlib.LAYER_TIMES}
    units.update({
        "lang.tokens": "count", "lang.tokens_per_s": "1/s",
        "presolve.skip_ratio": "ratio", "pointsto.singletons": "count",
        "pointsto.strong_updates": "count", "explore.paths": "count",
        "explore.paths_per_s": "1/s", "smt.calls": "count",
        "filter.drop_ratio": "ratio", "incremental.hit_ratio": "ratio",
        "serve.overhead_s": "s", "serve.queue_wait_s": "s",
        "serve.replay_ratio": "ratio", "serve.resident_bytes": "bytes",
        "route.edit_fresh": "ratio", "route.replay_memo": "ratio",
        "route.revert_cache": "ratio", "trace_overhead": "s",
        "trace.unattributed_s": "s",
    })
    return units


PER_LAYER = per_layer_units()


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


class HostSpeed:
    """The speed of the host during this run, from a fixed probe timed
    between the benchmark's operations, never during one: starting an
    interpreter that imports a fixed set of standard-library modules,
    much as the CLI starts (process start, page faults, unmarshalling,
    allocation).  On a shared host the analyzer's time drifts by up to 2x
    over minutes; scaling each time by ``PROBE_REF_S`` over the run's
    median probe takes much of that drift out (see README.md, "Noise").
    After each operation the probe runs for about ``PROBE_SHARE`` of that
    operation's time, so its samples are spread over the run as the
    operations are."""

    ARGV = [sys.executable, "-I", "-c",
            "import argparse, json, email.parser, http.client, xml.dom.minidom, decimal, unittest"]

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._owed = 0.0

    def probe(self) -> float:
        started = time.perf_counter()
        subprocess.run(self.ARGV, check=True)
        self.samples.append(time.perf_counter() - started)
        return self.samples[-1]

    def after(self, seconds: float) -> None:
        """Probe after an operation that took ``seconds``."""
        self._owed += PROBE_SHARE * seconds
        while self._owed > 0:
            self._owed -= self.probe()

    def scale(self) -> float:
        """Reference-host seconds per second of this run."""
        return PROBE_REF_S / statistics.median(self.samples) if self.samples else 1.0


HOST = HostSpeed()


# -- processes ------------------------------------------------------------------


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Child:
    """One analyzer process, started through ``spawn.py`` so that its
    wall time and peak RSS are its own; ``result`` receives them.  A
    watchdog kills the process group if it outlives ``timeout``."""

    def __init__(self, argv: List[str], cwd: Path, stdout, stderr, result: Path):
        self.result = result
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(SPAWN), str(result), "--", *argv],
            cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=stdout, stderr=stderr, start_new_session=True)
        self.returncode: Optional[int] = None
        self.seconds = 0.0
        self.maxrss_mb = 0.0
        self.killed = False

    def wait(self, timeout: float) -> bool:
        """Reap the process; ``False`` if it had to be killed first."""
        watchdog = threading.Timer(timeout, self.kill)
        watchdog.start()
        try:
            self.returncode = self.proc.wait()
        finally:
            watchdog.cancel()
        if self.killed or self.returncode != 0:
            self.returncode = None  # no measurement: a failed operation
            return False
        measured = json.loads(self.result.read_text())
        self.returncode = measured["returncode"]
        self.seconds = measured["seconds"]
        self.maxrss_mb = measured["maxrss_kb"] / 1024.0
        return True

    def kill(self) -> None:
        self.killed = True
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def cli_argv(files: List[str], traced: Optional[Path]) -> List[str]:
    args = ["check", "--all-checkers", "--json", "--workers", "1", *files]
    if traced is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(LAUNCH), str(traced), "--", *args]


def run_cli(argv: List[str], cwd: Path, out: Path) -> Tuple[float, Child]:
    """Spawn→exit wall seconds of one CLI process, stdout to ``out``."""
    with open(out, "wb") as stdout, open(out.with_suffix(".err"), "wb") as stderr:
        child = Child(argv, cwd, stdout, stderr, out.with_suffix(".rusage.json"))
        child.wait(OP_TIMEOUT)
        return child.seconds, child


DAEMON_IDS = itertools.count()


class Daemon:
    """``repro serve`` plus one client connection (line-delimited JSON)."""

    def __init__(self, files: List[str], cwd: Path, log: Path,
                 traced: Optional[Path] = None):
        args = ["serve", "--all-checkers", "--workers", "1", "--port", "0", *files]
        argv = ([sys.executable, "-m", "repro", *args] if traced is None
                else [sys.executable, str(LAUNCH), str(traced), "--", *args])
        # setup_s counts from here, so it includes spawn.py's own start-up
        # (a few tens of ms of a daemon start of several seconds)
        self.started = time.perf_counter()
        with open(log, "ab") as stderr:
            self.child = Child(argv, cwd, subprocess.PIPE, stderr,
                               log.with_name(f"daemon-{next(DAEMON_IDS)}.json"))
        self.sock: Optional[socket.socket] = None
        try:
            ready, _, _ = select.select([self.child.proc.stdout], [], [], OP_TIMEOUT)
            line = self.child.proc.stdout.readline().decode() if ready else ""
            if not line.startswith("serving "):
                raise OSError(f"daemon did not start: {line!r}")
            port = int(line.rsplit(":", 1)[1])
            self.sock = socket.create_connection(("127.0.0.1", port), timeout=OP_TIMEOUT)
        except OSError:
            self.child.kill()
            self.child.wait(EXIT_TIMEOUT)
            self.child.proc.stdout.close()
            raise
        self.rfile = self.sock.makefile("rb")

    def request(self, payload: dict) -> Tuple[float, dict]:
        """Send one request and wait for its response: (seconds, response)."""
        line = json.dumps(payload).encode() + b"\n"
        started = time.perf_counter()
        self.sock.sendall(line)
        reply = self.rfile.readline()
        elapsed = time.perf_counter() - started
        if not reply:
            raise ConnectionError("daemon closed the connection")
        return elapsed, json.loads(reply)

    def shutdown(self, tally: Tally) -> None:
        """Acknowledged shutdown, then close the connection *before*
        waiting: the daemon does not exit while an idle client connection
        stays open.  A daemon still alive after EXIT_TIMEOUT is killed and
        counted as a failed operation."""
        if self.sock is not None:
            try:
                _, ack = self.request({"op": "shutdown"})
                tally.op(bool(ack.get("ok")), "shutdown not acknowledged")
            except (OSError, ValueError) as exc:
                tally.op(False, f"shutdown: {exc}")
            self.rfile.close()
            self.sock.close()
            self.sock = None
        tally.op(self.child.wait(EXIT_TIMEOUT),
                 f"daemon alive {EXIT_TIMEOUT}s after shutdown")
        self.child.proc.stdout.close()


# -- references and scoring -----------------------------------------------------


def report_rows(result) -> List[dict]:
    """The per-report fields both ``check --json`` and the daemon emit."""
    return [
        {"kind": r.kind.short, "checker": r.checker, "file": r.sink_file,
         "line": r.sink_line, "source_file": r.source_file,
         "source_line": r.source_line, "message": r.message,
         "entry_function": r.entry_function}
        for r in result.reports
    ]


def reference(sources: List[Tuple[str, str]]):
    """One-shot in-process analysis: the expected output of every run."""
    from repro import PATA, AnalysisConfig

    return PATA(config=AnalysisConfig(workers=1), checker_spec="all").analyze_sources(sources)


def score(corpus, rows: List[dict]) -> Tuple[int, int]:
    """(missed_bugs, false_reports) of ``rows`` against the ground truth."""
    from repro.corpus import match_findings, reachable_truth
    from repro.typestate import BugKind, checkers_from_spec

    kinds = {kind.short: kind for kind in BugKind}
    checked = {checker.kind for checker in checkers_from_spec("all")}
    reachable = {bug.uid for bug in reachable_truth(corpus, checked)}
    match = match_findings([(kinds[r["kind"]], r["file"], r["line"]) for r in rows],
                           corpus, "pata")
    return len(reachable - match.matched_uids), match.false_positives


def write_tree(corpus, directory: Path) -> List[Tuple[str, str]]:
    """Write the compiled files; return their (path, text) in corpus order."""
    sources = corpus.compiled_sources()
    for path, text in sources:
        target = directory / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    return sources


# -- measurement helpers ----------------------------------------------------------


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def quartiles_ms(values: List[float]) -> dict:
    """Sample count and quartiles (ms) of one operation class."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "quartiles": [round(v * 1000.0, 2) for v in q]}


def time_startup(work: Path, tally: Tally, repeats: int) -> List[float]:
    """Spawn→exit seconds of ``repro check --list-checkers``: the CLI's
    fixed start-up (interpreter, import, checker registry), no analysis."""
    argv = [sys.executable, "-m", "repro", "check", "--list-checkers"]
    times = []
    for index in range(repeats):
        seconds, child = run_cli(argv, work, work / f"startup-{index}.out")
        HOST.after(seconds)
        if tally.op(child.returncode == 0 and not child.killed, "start-up spawn failed"):
            times.append(seconds)
    return times


# -- cold workloads -----------------------------------------------------------------


def run_cold(os_name: str, seed: Optional[int], seconds: float, trace: bool,
             work: Path, tally: Tally) -> Tuple[Dict[str, float], dict]:
    corpus = inputs.make_corpus(os_name, seed)
    tree = work / "tree"
    sources = write_tree(corpus, tree)
    files = [path for path, _ in sources]
    expected = report_rows(reference(sources))

    time_startup(work, Tally(), 1)  # warm the bytecode and page caches
    setup = [] if trace else time_startup(work, tally, STARTUP_SPAWNS)

    walls: Dict[bool, List[float]] = {False: [], True: []}
    rss: List[float] = []
    unattributed: List[float] = []
    traced_spans: List[spanlib.Span] = []
    deadline = time.perf_counter() + seconds
    index = 0
    while index < 2 or time.perf_counter() < deadline:
        traced = trace and index % 2 == 1
        span_file = work / f"spans-{index}.json" if traced else None
        out = work / f"check-{index}.out"
        wall, child = run_cli(cli_argv(files, span_file), tree, out)
        HOST.after(wall)
        index += 1
        rows = None
        if child.returncode in (0, 1) and not child.killed:
            try:
                rows = json.loads(out.read_text())["bugs"]
            except (ValueError, KeyError):
                rows = None
        if not tally.op(rows == expected, f"check run {index}: exit {child.returncode}, "
                        f"{'output differs from reference' if rows is not None else 'no report'}"):
            continue
        walls[traced].append(wall)
        rss.append(child.maxrss_mb)
        if traced:
            run_spans = spanlib.load_spans(str(span_file))
            traced_spans.extend(run_spans)
            unattributed.append(wall - spanlib.top_level_seconds(run_spans))

    # Every passing run printed exactly the reference rows: score those.
    missed, false_reports = score(corpus, expected)
    tally.op(missed == 0, f"{missed} reachable injected bug(s) not reported")
    detail = {"files": len(files), "missed_bugs": missed, "false_reports": false_reports,
              "latency_ms": {"check": quartiles_ms(walls[False]),
                             "traced_check": quartiles_ms(walls[True])}}
    if not trace:
        check_s = median(walls[False])
        return {"check_s": check_s, "setup_s": median(setup),
                "edit_p50_ms": check_s * 1000.0, "replay_p50_ms": check_s * 1000.0,
                "peak_rss_mb": median(rss)}, detail
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(spanlib.layer_metrics(traced_spans, len(walls[True])))
    metrics["trace_overhead"] = median(walls[True]) - median(walls[False])
    metrics["trace.unattributed_s"] = median(unattributed)
    return metrics, detail


# -- serve-edits ----------------------------------------------------------------------


class Stream:
    """The closed-loop client: sends the schedule until the deadline and
    checks every repeated state against its earlier response."""

    def __init__(self, sources: List[Tuple[str, str]], plan: List[inputs.Request],
                 tally: Tally):
        self.text = dict(sources)
        self.plan = plan
        self.tally = tally
        self.records: List[dict] = []

    def payload(self, request: inputs.Request) -> dict:
        overlay = inputs.state_overlay(self.text, request)
        if overlay is None:
            return {"op": "check_module"}
        return {"op": "check_diff", "overlay": overlay}

    def first(self, daemon: Daemon, root_output: str) -> Tuple[float, Optional[dict]]:
        """The first root-set response: spawn→response seconds and body."""
        try:
            _, response = daemon.request({"op": "check_module"})
        except (OSError, ValueError) as exc:
            self.tally.op(False, f"first root request: {exc}")
            return 0.0, None
        seconds = time.perf_counter() - daemon.started
        ok = response.get("ok") and response.get("output") == root_output
        self.tally.op(bool(ok), "first root response differs from reference")
        return seconds, response

    def run(self, daemon: Daemon, root_output: str, seconds: float) -> List[dict]:
        """Send the warm-up prefix, then the timed stream; return the
        timed records."""
        outputs = {"root": root_output}
        records = []
        warmup = inputs.warmup_length(self.plan)
        deadline = None
        for index, request in enumerate(self.plan):
            if index == warmup:
                deadline = time.perf_counter() + seconds
                records = []
            if deadline is not None and time.perf_counter() >= deadline:
                break
            try:
                latency, response = daemon.request(self.payload(request))
            except (OSError, ValueError) as exc:
                self.tally.op(False, f"{request.cls} request: {exc}")
                break
            HOST.after(latency)
            output = response.get("output")
            if request.cls == "edit":
                outputs[request.state] = output
                ok = response.get("ok") and output is not None
            else:
                ok = response.get("ok") and output == outputs.get(request.state)
            self.tally.op(bool(ok), f"{request.cls} {request.state}: "
                          f"{response.get('error', 'output differs from earlier response')}")
            serve = response.get("serve", {})
            records.append({
                # the daemon's Session.analyze call count, first root request = 1
                "seq": index + 2,
                "cls": request.cls, "request": request, "latency": latency,
                "ok": bool(ok), "output": output,
                "replayed": serve.get("replayed", False),
                "reanalyzed": serve.get("entries_reanalyzed", 0),
                "hits": serve.get("cache_hits", 0), "misses": serve.get("cache_misses", 0),
                "queue_wait": serve.get("queue_wait_seconds", 0.0),
            })
        self.records.extend(records)
        return records


def latencies(records: List[dict], cls: str) -> List[float]:
    return [r["latency"] for r in records if r["cls"] == cls and r["ok"]]


def routes(records: List[dict]) -> Dict[str, float]:
    """Share of each class that took its intended path: edits a fresh
    explore, replays the memo, reverts the cache tier."""
    intended = {
        "edit": ("route.edit_fresh", lambda r: not r["replayed"] and r["reanalyzed"] > 0),
        "replay": ("route.replay_memo", lambda r: r["replayed"]),
        "revert": ("route.revert_cache", lambda r: not r["replayed"] and r["reanalyzed"] == 0),
    }
    out = {}
    for cls, (name, took) in intended.items():
        rows = [r for r in records if r["cls"] == cls and r["ok"]]
        out[name] = sum(map(took, rows)) / len(rows) if rows else 0.0
    return out


def verify_edits(records: List[dict], sources: List[Tuple[str, str]], seed: int,
                 tally: Tally) -> int:
    """Re-check a seeded sample of edit states against a one-shot
    reference (outside the timed region).  Returns the sample size."""
    from repro.cli import check_output_text

    edits = [r for r in records if r["cls"] == "edit" and r["ok"]]
    sample = random.Random(seed).sample(edits, min(EDIT_SAMPLE, len(edits)))
    text = dict(sources)
    for record in sample:
        overlay = inputs.state_overlay(text, record["request"])
        edited = [(path, overlay.get(path, body)) for path, body in sources]
        tally.op(check_output_text(reference(edited)) == record["output"],
                 f"{record['request'].state} differs from one-shot reference")
    return len(sample)


def run_serve(seed: Optional[int], seconds: float, trace: bool, work: Path,
              tally: Tally) -> Tuple[Dict[str, float], dict]:
    from repro.cli import check_output_text
    from repro.corpus import PROFILES_BY_NAME

    corpus = inputs.make_corpus("linux", seed)
    tree = work / "tree"
    sources = write_tree(corpus, tree)
    files = [path for path, _ in sources]
    root_output = check_output_text(reference(sources))
    stream_seed = PROFILES_BY_NAME["linux"].seed if seed is None else seed
    stream = Stream(sources, inputs.schedule(sources, stream_seed), tally)
    log = work / "serve.err"

    time_startup(work, Tally(), 1)  # warm the bytecode and page caches
    setup: List[float] = []
    detail: dict = {}
    untraced: List[dict] = []
    traced: List[dict] = []
    rss = 0.0
    span_file = work / "serve-spans.json"
    resident_bytes = 0
    for index in range(2 if trace else DAEMON_SPAWNS):
        tracing = trace and index == 1
        try:
            daemon = Daemon(files, tree, log, span_file if tracing else None)
        except OSError as exc:
            tally.op(False, f"daemon start: {exc}")
            continue
        try:
            seconds_to_first, first = stream.first(daemon, root_output)
            if first is None:
                continue
            setup.append(seconds_to_first)
            HOST.after(seconds_to_first)
            if not detail:
                missed, false_reports = score(corpus, first["reports"])
                tally.op(missed == 0, f"{missed} reachable injected bug(s) not reported")
                detail.update(missed_bugs=missed, false_reports=false_reports)
            if trace or index == DAEMON_SPAWNS - 1:
                (traced if tracing else untraced).extend(
                    stream.run(daemon, root_output, seconds / 2 if trace else seconds))
            if tracing:
                try:
                    _, status = daemon.request({"op": "status"})
                    resident_bytes = status["resident_cache"]["bytes"]
                except (OSError, ValueError, KeyError) as exc:
                    tally.op(False, f"status: {exc}")
        finally:
            daemon.shutdown(tally)
            rss = daemon.child.maxrss_mb
    detail["edits_verified"] = verify_edits(stream.records, sources, stream_seed, tally)
    records = untraced
    edit_ms = [s * 1000.0 for s in latencies(records, "edit")]
    tail = spanlib.tail(edit_ms)
    detail.update({
        "latency_ms": {cls: quartiles_ms(latencies(records, cls))
                       for cls in ("edit", "replay", "revert")},
        "edit_tail_ms": None if tail is None else {"percentile": tail[0], "value": tail[1],
                                                   "samples": len(edit_ms)},
        "routes": routes(records),
    })
    if not trace:
        return {"check_s": median(latencies(records, "revert")),
                "setup_s": median(setup), "edit_p50_ms": median(edit_ms),
                "replay_p50_ms": median(latencies(records, "replay")) * 1000.0,
                "peak_rss_mb": rss}, detail

    # Per-layer metrics from the traced daemon: its k-th Session.analyze
    # call opens request id k, which tags every span of that request.
    all_spans = spanlib.load_spans(str(span_file)) if span_file.exists() else []
    by_rid: Dict[int, List[spanlib.Span]] = {}
    for span in all_spans:
        by_rid.setdefault(span.rid, []).append(span)
    edits = [r for r in traced if r["cls"] == "edit" and r["ok"]]
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(spanlib.layer_metrics(
        [s for r in edits for s in by_rid.get(r["seq"], [])], len(edits)))
    overhead = []
    for record in traced:
        session = [s.end - s.start for s in by_rid.get(record["seq"], [])
                   if s.name == "serve.session" and s.parent is None]
        if session:
            overhead.append(record["latency"] - session[0])
    hits = sum(r["hits"] for r in traced)
    looked = hits + sum(r["misses"] for r in traced)
    metrics.update(routes(traced))
    metrics.update({
        "incremental.hit_ratio": hits / looked if looked else 0.0,
        "serve.overhead_s": median(overhead),
        "serve.queue_wait_s": statistics.fmean([r["queue_wait"] for r in traced]) if traced else 0.0,
        "serve.replay_ratio": (sum(r["replayed"] for r in traced) / len(traced)) if traced else 0.0,
        "serve.resident_bytes": resident_bytes,
        "trace_overhead": (median(latencies(traced, "edit"))
                           - median(latencies(untraced, "edit"))),
        "trace.unattributed_s": median([
            r["latency"] - spanlib.top_level_seconds(by_rid.get(r["seq"], []))
            for r in edits]),
    })
    return metrics, detail


# -- driver ----------------------------------------------------------------------------


def environment(workload: str, seed: Optional[int], seconds: float, trace: bool) -> dict:
    """The environment stamp written with every result."""
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "git_rev": rev, "src_sha256": digest.hexdigest()[:16],
            "loadavg_start": os.getloadavg()[0]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the OS profile's own seed)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no analyzer sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    stamp = environment(args.workload, args.seed, args.seconds, bool(args.trace))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    tally = Tally()
    try:
        if args.workload == "serve-edits":
            metrics, detail = run_serve(args.seed, args.seconds, bool(args.trace), work, tally)
        else:
            metrics, detail = run_cold(WORKLOADS[args.workload], args.seed, args.seconds,
                                       bool(args.trace), work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    scale = HOST.scale()
    if not args.trace:
        for name, unit in units.items():
            if unit in ("s", "ms"):
                metrics[name] *= scale
    correct = not tally.failures
    detail.update(failures=tally.failures[:20], env=stamp,
                  host={"probes": len(HOST.samples),
                        "probe_ms": round(median(HOST.samples) * 1000.0, 3),
                        "scale": round(scale, 4)})
    result = {
        "correct": correct, "attempted": max(tally.attempted, 1),
        "failed": len(tally.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps({"detail": detail, "result": result}, indent=2))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
