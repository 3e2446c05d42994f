"""The `bellstrobe` command as a process: the allocator policy `cli.main` sets,
and its error contract under one corrupted input at a time.

The contract: whatever single part of a real session is corrupted (a JSON
leaf replaced, a JSON key deleted, a file truncated, one byte of a tag file
or of counts.npz flipped), `cli.main` returns 0 or 2 and raises nothing,
stderr holds at most one `error:` line, and a call that exits 2 writes
nothing. Tier-1 draws a fixed sample of the cases; the full sweep runs every
case:

    PYTHONPATH=src python tests/test_cli.py
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import shutil
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bellstrobe import cli
from bellstrobe.config import SessionPlan, desk_boosted
from bellstrobe.session import analyze_session, run_session_in_memory, simulate_session

MIB = 1 << 20


class FakeCLibrary:
    """A C library whose `mallopt` records each (param, value) it is asked for
    and answers `answer`; with `has_mallopt` false it has no `mallopt`."""

    def __init__(self, has_mallopt: bool = True, answer: int = 1):
        self.calls: list[tuple[int, int]] = []
        if has_mallopt:

            def mallopt(param: int, value: int) -> int:
                self.calls.append((param, value))
                return answer

            self.mallopt = mallopt


@pytest.fixture
def fake_libc(monkeypatch):
    def install(**kwargs) -> FakeCLibrary:
        libc = FakeCLibrary(**kwargs)
        monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kw: libc)
        return libc

    return install


class TestAllocatorPolicy:
    # glibc's M_MMAP_THRESHOLD and M_TRIM_THRESHOLD
    REQUESTS = [(-3, 32 * MIB), (-1, 64 * MIB)]

    def test_main_requests_both_thresholds_once_per_call(self, fake_libc, capsys):
        libc = fake_libc()
        assert cli.main(["selftest"]) == 0
        assert libc.calls == self.REQUESTS
        assert cli.main(["selftest"]) == 0
        assert libc.calls == self.REQUESTS * 2

    def test_a_refused_mmap_threshold_leaves_the_trim_threshold_alone(
        self, fake_libc, capsys
    ):
        # the trim threshold alone turns off glibc's dynamic mmap threshold
        libc = fake_libc(answer=0)
        assert cli.main(["selftest"]) == 0
        assert libc.calls == self.REQUESTS[:1]

    def test_main_runs_without_mallopt(self, fake_libc, capsys):
        fake_libc(has_mallopt=False)
        assert cli.main(["selftest"]) == 0

    def test_library_entry_points_leave_the_allocator_alone(self, fake_libc, tmp_path):
        libc = fake_libc()
        config = replace(
            desk_boosted(seed=5),
            session=SessionPlan(run_duration=0.02, runs_per_experiment=4, dead_time=1.0),
        )
        analyze_session(simulate_session(config, tmp_path / "s"))
        run_session_in_memory(config)
        assert libc.calls == []


# --- The error contract -------------------------------------------------------

# what replaces a JSON leaf
LEAF_VALUES = [None, "x", True, 0, -1, 0.5, 1e308, 2**70, [], {}]


def make_session(root: Path) -> Path:
    """A real small session in root/s: simulated (one fixed seed, four 0.05 s
    runs), analyzed in place, and its config beside it as config.json."""
    session_args = [
        "--seed", "1", "--name", "s", "--output", str(root),
        "--set", "session.run_duration=0.05", "--set", "session.runs_per_experiment=4",
    ]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["simulate", *session_args]) == 0
        directory = root / "s"
        assert cli.main(["analyze", str(directory / "manifest.json")]) == 0
    manifest = json.loads((directory / "manifest.json").read_text())
    (directory / "config.json").write_text(json.dumps(manifest["config"]))
    return directory


def command(file: str, directory: Path, out: Path) -> list[str]:
    """The argv of the subcommand that reads `file` of the session in
    `directory`, writing under `out`."""
    if file == "config.json":
        return ["simulate", "--config", str(directory / file), "--name", "s", "--output", str(out)]
    if file in ("summary.json", "counts.npz"):
        return ["report", str(directory / "summary.json"), "--output", str(out)]
    return ["analyze", str(directory / "manifest.json"), "--output", str(out)]


# the session files a command reads, besides the tag files
INPUTS = ["manifest.json", "config.json", "summary.json", "counts.npz"]

# a config.json without one of these is valid and simulates the default
# session of 32 runs of 30 s, hundreds of times the case's budget
DEFAULT_SCALE_KEYS = [("session",), ("session", "run_duration")]


@dataclass(frozen=True)
class Mutation:
    """One corrupted part of a session file: `kind` "leaf" puts `value` at
    the JSON path `where`, "delete" removes the key at that path, "truncate"
    keeps the first `where` bytes, and "flip" inverts the byte at `where`."""

    file: str
    kind: str
    where: object
    value: object = None

    def apply(self, path: Path) -> None:
        if self.kind in ("leaf", "delete"):
            data = json.loads(path.read_text())
            *parents, last = self.where
            node = data
            for key in parents:
                node = node[key]
            if self.kind == "leaf":
                node[last] = self.value
            else:
                del node[last]
            path.write_text(json.dumps(data))
            return
        raw = bytearray(path.read_bytes())
        if self.kind == "truncate":
            raw = raw[: self.where]
        else:
            raw[self.where] ^= 0xFF
        path.write_bytes(bytes(raw))


def _json_paths(node, prefix=()):
    """(path, value, is_key) of every node below `node`: is_key for a dict's
    own keys, which may be deleted."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        path = (*prefix, key)
        yield path, value, isinstance(node, dict)
        if isinstance(value, (dict, list)):
            yield from _json_paths(value, path)


def _byte_offsets(size: int, head: int, spread: int) -> list[int]:
    """Every offset below `head`, and `spread` offsets spaced over the rest."""
    rest = range(head, size, max(1, (size - head) // spread))
    return sorted({*range(min(head, size)), *rest})


def mutation_groups(directory: Path) -> dict[str, list[Mutation]]:
    """Every case of the sweep, grouped by file kind and mutation kind."""
    groups: dict[str, list[Mutation]] = {}
    tags = sorted(p.name for p in directory.glob("*.tags"))
    for file in [*INPUTS, *tags]:
        size = (directory / file).stat().st_size
        kind = "tags" if file.endswith(".tags") else file
        if file.endswith(".json"):
            data = json.loads((directory / file).read_text())
            for path, old, is_key in _json_paths(data):
                if is_key and not (file == "config.json" and path in DEFAULT_SCALE_KEYS):
                    groups.setdefault(f"{kind} delete", []).append(Mutation(file, "delete", path))
                if isinstance(old, (dict, list)) and old:
                    continue
                groups.setdefault(f"{kind} leaf", []).extend(
                    Mutation(file, "leaf", path, value)
                    for value in LEAF_VALUES
                    if not (type(value) is type(old) and value == old)
                )
        else:
            # a tag file's 40-byte header and first records; the npz's
            # first local header; then offsets spread over the rest
            groups.setdefault(f"{kind} flip", []).extend(
                Mutation(file, "flip", offset) for offset in _byte_offsets(size, 88, 64)
            )
        lengths = {0, 1, 8, 39, 40, 41, 56, size // 2, size - 16, size - 1}
        groups.setdefault(f"{kind} truncate", []).extend(
            Mutation(file, "truncate", n) for n in sorted(lengths) if 0 <= n < size
        )
    return groups


def contract_violations(directory: Path, mutation: Mutation, work: Path) -> list[str]:
    """Run the command that reads `mutation.file` on a copy of the session in
    `directory` with that one mutation; what it broke of the contract."""
    case = work / "case"
    shutil.copytree(directory, case)
    mutation.apply(case / mutation.file)
    before = sorted((p, p.stat().st_size, p.stat().st_mtime_ns) for p in case.rglob("*"))
    out = work / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(command(mutation.file, case, out))
    except (Exception, SystemExit) as exc:  # any escape breaks the contract
        return [f"raised {type(exc).__name__}: {exc}"]
    problems = []
    if code not in (0, 2):
        problems.append(f"exit {code}")
    errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
    if len(errors) > 1:
        problems.append(f"{len(errors)} error lines: {errors}")
    if code == 2 and out.exists():
        problems.append(f"exit 2 wrote {sorted(p.name for p in out.rglob('*'))}")
    after = sorted((p, p.stat().st_size, p.stat().st_mtime_ns) for p in case.rglob("*"))
    if code == 2 and after != before:
        problems.append("exit 2 changed the session directory")
    return problems


@pytest.fixture(scope="module")
def contract_session(tmp_path_factory):
    directory = make_session(tmp_path_factory.mktemp("contract"))
    return directory, mutation_groups(directory)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_one_corrupted_input_exits_0_or_2_with_one_error_line(contract_session, data):
    directory, groups = contract_session
    group = data.draw(st.sampled_from(sorted(groups)), label="group")
    mutation = data.draw(st.sampled_from(groups[group]), label="mutation")
    with tempfile.TemporaryDirectory() as work:
        assert contract_violations(directory, mutation, Path(work)) == []


def sweep() -> int:
    """Every case of `mutation_groups`; prints the count per group and each
    violation, and returns the number of failing cases."""
    failed = 0
    with tempfile.TemporaryDirectory() as root:
        directory = make_session(Path(root))
        for group, cases in sorted(mutation_groups(directory).items()):
            bad = 0
            for mutation in cases:
                with tempfile.TemporaryDirectory() as work:
                    problems = contract_violations(directory, mutation, Path(work))
                if problems:
                    bad += 1
                    print(f"FAIL {mutation}: {'; '.join(problems)}", flush=True)
            print(f"{group}: {len(cases)} cases, {bad} failing", flush=True)
            failed += bad
    return failed


if __name__ == "__main__":
    sys.exit(1 if sweep() else 0)
