"""CLI invocation, exit codes, stream separation."""

import errno
import importlib.util
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import centriscan
from centriscan.cli import main
from centriscan.config import AnalyzerConfig
from centriscan.engine import scan_paths
from centriscan.report import meets_threshold, render_report

from helpers import (
    REMOVED_CONFIG_KEYS,
    SOLIDITY_CORPUS,
    TEAL_CORPUS,
    corpus_path,
    run_fresh_python,
)


def test_clean_contract_exits_zero(capsys):
    code = main(["scan", corpus_path("solidity", "clean.sol")])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""


def test_owner_drain_json_exits_one(capsys):
    code = main(["scan", corpus_path("solidity", "owner_drain.sol"), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    payload = json.loads(captured.out)
    assert payload["files_scanned"] == 1
    assert payload["counts"] == {"major": 1, "warning": 0, "info": 0}
    assert payload["findings"][0]["kind"] == "CENTRALIZATION_RISK"
    assert payload["findings"][0]["severity"] == "MAJOR"


def test_missing_path_exits_two(capsys):
    code = main(["scan", "missing_dir/"])
    captured = capsys.readouterr()
    assert code == 2
    assert "no such file or directory" in captured.err


def test_no_paths_exits_two(capsys):
    assert main(["scan"]) == 2


def test_no_command_exits_two(capsys):
    assert main([]) == 2


def test_unknown_config_key_exits_two(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("frobnicate = 1\n")
    code = main(["scan", corpus_path("solidity", "clean.sol"), "--config", str(conf)])
    captured = capsys.readouterr()
    assert code == 2
    assert "line 1" in captured.err


@pytest.mark.parametrize("key", REMOVED_CONFIG_KEYS)
def test_removed_rule_key_exits_two(tmp_path, capsys, key):
    conf = tmp_path / "old.conf"
    conf.write_text(f"{key} = true\n")
    code = main(["scan", corpus_path("solidity", "owner_drain.sol"), "--config", str(conf)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"centriscan: error: line 1: unknown config key {key!r}\n"


def test_config_file_override(tmp_path, capsys):
    conf = tmp_path / "keys.conf"
    conf.write_text("owner_keys = gov, council\n")
    code = main(["scan", corpus_path("teal", "row1_assert.teal"),
                 "--config", str(conf), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0  # "manager" is no longer an owner key: no findings
    payload = json.loads(captured.out)
    assert payload["findings"] == []


def test_fail_on_none_forces_exit_zero(capsys):
    code = main(["scan", corpus_path("solidity", "owner_drain.sol"), "--fail-on", "none"])
    capsys.readouterr()
    assert code == 0


def test_fail_on_info_counts_privileged_function(capsys):
    path = corpus_path("solidity", "row2_require.sol")
    assert main(["scan", path]) == 0  # INFO below default threshold
    capsys.readouterr()
    assert main(["scan", path, "--fail-on", "info"]) == 1
    capsys.readouterr()


def test_directory_scan_routes_by_extension(capsys):
    code = main(["scan", SOLIDITY_CORPUS, TEAL_CORPUS, "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    payload = json.loads(captured.out)
    assert payload["files_scanned"] == 23
    languages = {f["language"] for f in payload["findings"]}
    assert languages == {"solidity", "teal"}


def test_text_mode_diagnostics_go_to_stderr(tmp_path, capsys):
    target = tmp_path / "weird.sol"
    target.write_text("contract C { assembly {??? } }")
    code = main(["scan", str(target)])
    captured = capsys.readouterr()
    assert code == 0
    assert "note:" in captured.err
    assert "warning:" not in captured.err
    assert "note:" not in captured.out


def test_text_mode_prints_diagnostic_severity(tmp_path, capsys):
    target = tmp_path / "bad.sol"
    target.write_bytes(b"contract C { \xff\xfe }")
    code = main(["scan", str(target)])
    captured = capsys.readouterr()
    assert code == 0
    assert f"{target}:1:1: warning: invalid UTF-8 replaced during decoding\n" in captured.err


def test_text_mode_prints_diagnostic_column(tmp_path, capsys):
    target = tmp_path / "x.sol"
    target.write_text("contract C { function f() public { for (;;) {} } }")
    code = main(["scan", str(target)])
    captured = capsys.readouterr()
    assert code == 0
    assert (f"{target}:1:36: note: statement outside recognized subset\n"
            in captured.err)


def test_text_mode_diagnostics_escape_control_characters(tmp_path, capsys):
    target = tmp_path / "e.teal"
    target.write_text("#pragma version 8\nfoo\x1b[2J\nint 1\nreturn\n")
    assert main(["scan", str(target)]) == 0
    captured = capsys.readouterr()
    assert captured.err == f"{target}:2:1: note: unknown opcode 'foo\\x1b[2J'\n"


def test_config_file_with_byte_order_mark(tmp_path, capsys):
    conf = tmp_path / "bom.conf"
    conf.write_bytes(b"\xef\xbb\xbfowner_keys = gov\n")
    assert main(["scan", corpus_path("teal", "row1_assert.teal"), "--config", str(conf)]) == 0
    assert capsys.readouterr().err == ""


def test_json_mode_embeds_diagnostics(tmp_path, capsys):
    target = tmp_path / "weird.sol"
    target.write_text("contract C { assembly {??? } }")
    code = main(["scan", str(target), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["diagnostics"]
    assert captured.err == ""


def test_unreadable_file_is_diagnostic_not_usage_error(tmp_path, capsys):
    target = tmp_path / "bad.sol"
    target.write_bytes(b"contract C { \xff\xfe }")
    code = main(["scan", str(target), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert any("invalid UTF-8" in d["message"] for d in payload["diagnostics"])


def test_version_flag(capsys):
    code = main(["--version"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("centriscan ")


def test_cli_import_loads_no_dataclasses_inspect_or_hashlib():
    # Start-up cost: none of these is needed to start the CLI. A report's
    # config fingerprint is taken with CPython's built-in SHA-256, and
    # hashlib loads for it only on an interpreter without one.
    code = ("import sys, centriscan.cli; "
            "print(sorted({'dataclasses', 'inspect', 'hashlib'} & sys.modules.keys()))")
    assert run_fresh_python(code) == "[]\n"


# The language back ends a process has loaded, as a sorted list.
_BACK_ENDS = ("sorted({m.split('.')[1] for m in sys.modules "
              "if m.startswith(('centriscan.solidity', 'centriscan.teal'))})")


def _back_ends_after_main(*argv: str) -> str:
    code = f"import sys, centriscan.cli; centriscan.cli.main(sys.argv[1:]); print({_BACK_ENDS})"
    return run_fresh_python(code, *argv).splitlines()[-1]


def test_cli_import_and_version_load_no_back_end():
    # Start-up cost: a language's back end compiles only when a file of that
    # language is scanned.
    assert run_fresh_python(f"import sys, centriscan.cli; print({_BACK_ENDS})") == "[]\n"
    assert _back_ends_after_main("--version") == "[]"


def test_scan_loads_the_back_ends_of_its_languages_only():
    sol = corpus_path("solidity", "owner_drain.sol")
    teal = corpus_path("teal", "row1_assert.teal")
    assert _back_ends_after_main("scan", "--fail-on", "none", teal) == "['teal']"
    assert _back_ends_after_main("scan", "--fail-on", "none", sol) == "['solidity']"


def test_mixed_scan_loads_both_back_ends():
    sol = corpus_path("solidity", "owner_drain.sol")
    teal = corpus_path("teal", "row1_assert.teal")
    assert _back_ends_after_main("scan", "--fail-on", "none", sol, teal) == "['solidity', 'teal']"


# hashlib, its OpenSSL back end and BLAKE2; CPython's built-in SHA-256.
_OPENSSL = ("hashlib", "_hashlib", "_blake2")
_BUILT_IN_SHA256 = ("_sha2", "_sha256")


def _hash_modules_after_main(*argv: str) -> set[str]:
    code = ("import sys, centriscan.cli; centriscan.cli.main(sys.argv[1:]); "
            f"print(*set({_OPENSSL + _BUILT_IN_SHA256!r}) & sys.modules.keys())")
    return set(run_fresh_python(code, *argv).splitlines()[-1].split())


def test_scan_maps_no_openssl():
    # Memory: hashlib maps OpenSSL's libcrypto, about 3.5 MB, which a scan
    # would keep for its one digest. --version takes no digest at all.
    assert _hash_modules_after_main("--version") == set()
    sol = corpus_path("solidity", "owner_drain.sol")
    teal = corpus_path("teal", "row1_assert.teal")
    loaded = _hash_modules_after_main("scan", "--fail-on", "none", sol, teal)
    if any(importlib.util.find_spec(name) for name in _BUILT_IN_SHA256):
        assert not loaded & set(_OPENSSL), loaded
    else:
        assert "hashlib" in loaded


def test_json_output_is_idempotent(capsys):
    argv = ["scan", SOLIDITY_CORPUS, "--format", "json"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


class _Sink:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


class _RecordingStream(_Sink):
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


def _big_contract(tmp_path) -> str:
    # A report of several hundred KiB, with 1,200 diagnostics.
    functions = "".join(
        f"function f{i}(address to) public {{ require(msg.sender == owner); bals[to] = {i}; }}\n"
        f"function g{i}() public {{ for (;;) {{}} }}\n" for i in range(1200))
    target = tmp_path / "big.sol"
    target.write_text(f"contract C {{ address owner; mapping(address => uint) bals;\n{functions}}}\n")
    return str(target)


def _assert_written_in_pieces(writes: list[str], what: str) -> None:
    assert max(map(len, writes)) <= 64 * 1024, what
    assert min(map(len, writes[:-1])) >= 16 * 1024, what


def test_report_is_written_as_it_is_rendered(tmp_path, monkeypatch):
    # The CLI never holds the whole document: a report of several hundred
    # KiB arrives in writes of a few dozen KiB, each a run of whole findings
    # or diagnostics. The bytes are render_report's and its newline, and the
    # exit code the stored report's, however the paths are given and
    # whichever files cannot be read or are of no known language.
    big = _big_contract(tmp_path)
    more = tmp_path / "more"
    more.mkdir()
    (more / "a.teal").write_text(
        '#pragma version 8\nbyte "MyBalance"\nint 5\napp_global_put\nint 1\nreturn\n')
    (more / "b.sol").write_bytes(b"contract B { mapping(address => uint) bals; "
                                 b"function f(address to) public { bals[to] = 0; } } // \xff")
    os.symlink(tmp_path / "gone", more / "gone.sol")  # cannot be read
    notes = tmp_path / "notes.txt"
    notes.write_text("not a contract\n")
    cases = {
        "one big file": [big],
        "out of order and duplicated": [str(more / "b.sol"), big, str(more), big],
        "an unreadable file": [str(more)],
        "a .txt file named": [str(notes), str(more / "a.teal")],
    }
    for case, paths in cases.items():
        report = scan_paths(paths, AnalyzerConfig())
        assert report.findings and report.diagnostics, case
        for format in ("json", "text"):
            stdout = _RecordingStream()
            monkeypatch.setattr(sys, "stdout", stdout)
            code = main(["scan", "--format", format, *paths])
            assert code == (1 if meets_threshold(report, "warning") else 0), (case, format)
            out = "".join(stdout.writes)
            assert out == render_report(report, format) + "\n", (case, format)
            if case == "one big file":
                assert len(out) > 256 * 1024, format
                _assert_written_in_pieces(stdout.writes, format)


def test_text_mode_diagnostics_are_written_in_pieces(tmp_path, monkeypatch, capsys):
    # One write per diagnostic line would be two system calls each with
    # PYTHONUNBUFFERED set; the lines go out in writes of a few dozen KiB.
    target = _big_contract(tmp_path)
    report = scan_paths([target], AnalyzerConfig())
    stderr = _RecordingStream()
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(["scan", target]) == 1
    err = "".join(stderr.writes)
    assert err == "".join(f"{d.file}:{d.line}:{d.column}: {d.severity}: {d.message}\n"
                          for d in report.diagnostics)
    assert len(report.diagnostics) == 1200 and len(stderr.writes) > 1
    _assert_written_in_pieces(stderr.writes, "stderr")
    assert capsys.readouterr().out == render_report(report, "text") + "\n"


def test_readme_teal_witness_example_is_what_the_cli_prints(tmp_path, monkeypatch, capsys):
    # README "What it detects" shows a TEAL program and the CLI's report on it.
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    program, rest = text.split("```teal\n", 1)[1].split("```", 1)
    session = rest.split("```sh\n", 1)[1].split("```", 1)[0]
    command, *expected = session.splitlines()
    assert command.startswith("$ centriscan scan ")
    path = command.removeprefix("$ centriscan scan ")
    (tmp_path / path).write_text(program, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["scan", path]) == 1
    assert capsys.readouterr().out.splitlines() == expected


class _FailingStream(io.StringIO):
    def __init__(self, error):
        super().__init__()
        self.error = error

    def write(self, text):
        raise self.error


@pytest.mark.parametrize("format", ["json", "text"])
@pytest.mark.parametrize("error, err", [
    (BrokenPipeError(errno.EPIPE, "Broken pipe"), ""),
    (OSError(errno.ENOSPC, "No space left on device"),
     "centriscan: error: cannot write the report: No space left on device\n"),
], ids=["closed", "full"])
def test_write_error_exits_two(monkeypatch, capsys, format, error, err):
    # Exit 1 would claim findings at or above the threshold. A reader that
    # has gone needs no message; any other write error gets one line.
    monkeypatch.setattr(sys, "stdout", _FailingStream(error))
    assert main(["scan", "--format", format, corpus_path("solidity", "owner_drain.sol")]) == 2
    assert capsys.readouterr().err == err


def _cli(*args: str) -> tuple[list[str], dict[str, str]]:
    """argv and environment of `python -m centriscan.cli args` run from this tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(centriscan.__file__)))
    return [sys.executable, "-m", "centriscan.cli", *args], {**os.environ, "PYTHONPATH": src}


def test_closed_stdout_ends_the_scan_quietly(tmp_path):
    # `centriscan scan --format json DIR | head -c 100`: no traceback, and no
    # "Exception ignored" from the flush at exit.
    argv, env = _cli("scan", "--format", "json", _big_contract(tmp_path))
    err = tmp_path / "err"
    with open(err, "wb") as stderr:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr, env=env)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    assert proc.wait(timeout=60) == 2
    assert err.read_bytes() == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_device_is_one_error_line():
    argv, env = _cli("scan", "--format", "json", corpus_path("solidity", "owner_drain.sol"))
    with open("/dev/full", "w") as full:
        run = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, env=env, timeout=60)
    assert run.returncode == 2
    assert run.stderr == b"centriscan: error: cannot write the report: No space left on device\n"


def test_memory_does_not_grow_with_the_number_of_files(tmp_path, monkeypatch):
    # The CLI writes each file's findings when that file is done and holds
    # only the counts: the peak of 32 copies of a contract with 50 guarded
    # writes stays near the peak of 8. A held report would grow 4 times.
    functions = "".join(
        f"function f{i}(address to) public {{ require(msg.sender == owner); bals[to] = {i}; }}\n"
        for i in range(50))
    source = f"contract C {{ address owner; mapping(address => uint) bals;\n{functions}}}\n"
    for copies in (8, 32):
        folder = tmp_path / str(copies)
        folder.mkdir()
        for i in range(copies):
            (folder / f"c{i:02d}.sol").write_text(source)
    report = scan_paths([str(tmp_path / "8")], AnalyzerConfig())
    assert len(report.findings) == 8 * 50 and not report.diagnostics
    monkeypatch.setattr(sys, "stdout", _Sink())
    peaks = {}
    for copies in (8, 32):
        tracemalloc.start()
        try:
            assert main(["scan", "--format", "json", str(tmp_path / str(copies))]) == 1
            peaks[copies] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[32] < 1.25 * peaks[8], peaks
