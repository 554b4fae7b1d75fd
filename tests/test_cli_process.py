"""``python -m repro check`` as a process.

A finished ``check`` leaves the interpreter through ``os._exit`` (see
:func:`repro.cli.run`), so everything a normal exit would do for it must
already have happened: output flushed, stats and cache files written,
workers gone.  These tests run the real entry point in a subprocess and
compare it with in-process :func:`repro.cli.main`.
"""

import gc
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import repro
import repro.cli
from repro.cli import main
from repro.corpus import PROFILES_BY_NAME, generate

SRC = str(pathlib.Path(repro.__file__).resolve().parent.parent)

BUGGY = """
struct s { int v; };
int f(struct s *p) {
    if (!p) {
        return p->v;
    }
    return 0;
}
"""

CLEAN = """
int g(int a) {
    return a + 1;
}
"""

#: Spawns ARGV from a small fresh process and reports its exit code and
#: peak RSS.  At exec the kernel carries the spawner's high-water RSS
#: into the child's, so the test process must not spawn it directly.
LAUNCHER = """
import json, os, sys
pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ)
_, status, usage = os.wait4(pid, 0)
with open(sys.argv[1], "w") as out:
    json.dump({"returncode": os.waitstatus_to_exitcode(status),
               "maxrss_kb": usage.ru_maxrss}, out)
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def repro_process(args, **kwargs):
    """Run ``python -m repro ARGS`` to completion."""
    return subprocess.run([sys.executable, "-m", "repro", *args], env=_env(),
                          capture_output=True, timeout=300, **kwargs)


def drop_times(value):
    """``value`` without wall-clock fields, which differ run to run."""
    if isinstance(value, dict):
        return {key: drop_times(item) for key, item in value.items()
                if not key.endswith("_seconds")}
    if isinstance(value, list):
        return [drop_times(item) for item in value]
    return value


@pytest.fixture(scope="module")
def linux_tree(tmp_path_factory):
    """A linux tree whose ``--json --stats`` output is larger than a
    64 KiB pipe buffer."""
    root = tmp_path_factory.mktemp("linux")
    paths = []
    for f in generate(PROFILES_BY_NAME["linux"].scaled(0.3)).files:
        if f.compiled:
            target = root / f.path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(f.source)
            paths.append(str(target))
    return paths


@pytest.mark.parametrize("source, code", [(CLEAN, 0), (BUGGY, 1)], ids=["clean", "buggy"])
def test_exit_code(tmp_path, source, code):
    path = tmp_path / "input.c"
    path.write_text(source)
    proc = repro_process(["check", str(path)])
    assert proc.returncode == code
    assert proc.stdout.decode().splitlines()[-1].startswith(f"{code} bug(s);")
    assert proc.stderr == b""


def test_exit_code_usage_error():
    proc = repro_process(["check", "/nonexistent/file.c"])
    assert proc.returncode == 2
    assert b"no such file" in proc.stderr


def test_json_through_pipe_matches_in_process(linux_tree, capsys):
    proc = repro_process(["check", "--json", "--stats", *linux_tree])
    assert proc.returncode == 1
    assert len(proc.stdout) > 64 * 1024
    assert main(["check", "--json", "--stats", *linux_tree]) == 1
    in_process = capsys.readouterr().out
    assert drop_times(json.loads(proc.stdout)) == drop_times(json.loads(in_process))


def test_stats_json_file_is_complete(linux_tree, tmp_path, capsys):
    from_process = tmp_path / "process.json"
    in_process = tmp_path / "in_process.json"
    proc = repro_process(["check", "--stats-json", str(from_process), *linux_tree])
    assert proc.returncode == 1
    main(["check", "--stats-json", str(in_process), *linux_tree])
    capsys.readouterr()
    text = from_process.read_text()
    assert text.endswith("}\n")
    stats = json.loads(text)
    assert stats["per_entry"]
    assert drop_times(stats) == drop_times(json.loads(in_process.read_text()))


def test_cache_rw_second_run_hits(linux_tree, tmp_path):
    runs = []
    for name in ("cold", "warm"):
        stats_file = tmp_path / f"{name}.json"
        proc = repro_process(["check", "--cache", "rw", "--cache-dir",
                              str(tmp_path / "cache"), "--stats-json",
                              str(stats_file), *linux_tree])
        assert proc.returncode == 1
        runs.append((proc.stdout, json.loads(stats_file.read_text())))
    (cold_out, cold), (warm_out, warm) = runs
    assert warm_out == cold_out
    assert cold["cache_hits"] == 0 and cold["entries_reanalyzed"] > 0
    assert warm["cache_hits"] > 0 and warm["entries_reanalyzed"] == 0


def test_closed_pipe_exits_quietly(linux_tree):
    """``check ... | head -c 100``: the reader goes away while the output
    (larger than the pipe buffer) is still being written."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "check", "--json", "--stats", *linux_tree],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=300) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert stderr == b""


def _group_members(pgid):
    """Pids whose process group is ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = pathlib.Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue  # exited while we looked
        # pgrp is the third field after the parenthesized command name
        if int(stat.rsplit(")", 1)[1].split()[2]) == pgid:
            members.append(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc") or not hasattr(os, "wait4"),
                    reason="needs /proc and wait4")
@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_workers_leave_no_child(linux_tree, tmp_path, method, record_property):
    """``--workers 2``: same output as sequential, nothing left running
    once the command exits, and the command's peak RSS (workers
    included) is reported."""
    result = tmp_path / "launch.json"
    argv = [sys.executable, "-m", "repro", "check", "--workers", "2",
            "--start-method", method, *linux_tree]
    launcher = subprocess.Popen(
        [sys.executable, "-I", "-S", "-c", LAUNCHER, str(result), *argv],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True)
    stdout, stderr = launcher.communicate(timeout=300)
    assert launcher.returncode == 0
    launched = json.loads(result.read_text())
    assert launched["returncode"] == 1
    assert stderr == b""
    assert stdout == repro_process(["check", *linux_tree]).stdout
    # A tool process that outlives the command (the spawn method's
    # resource tracker) sees its pipe close and exits on its own; a
    # leaked pool worker would stay.
    deadline = time.monotonic() + 10
    while _group_members(launcher.pid) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert _group_members(launcher.pid) == []
    peak_mb = launched["maxrss_kb"] / 1024
    record_property(f"peak_rss_mb_workers2_{method}", round(peak_mb, 1))
    print(f"check --workers 2 --start-method {method}: peak RSS {peak_mb:.1f} MB")
    assert peak_mb > 0


@pytest.mark.parametrize("enabled", [True, False])
def test_in_process_check_restores_collector(tmp_path, capsys, monkeypatch, enabled):
    path = tmp_path / "input.c"
    path.write_text(BUGGY)
    during = []
    summary = repro.cli.check_summary_line
    monkeypatch.setattr(repro.cli, "check_summary_line",
                        lambda result: during.append(gc.isenabled()) or summary(result))
    if not enabled:
        gc.disable()
    try:
        assert main(["check", str(path)]) == 1
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert during == [False]
    assert "1 bug(s)" in capsys.readouterr().out
