"""CLI invocation, exit codes, stream separation."""

import json

from centriscan.cli import main

from helpers import SOLIDITY_CORPUS, TEAL_CORPUS, corpus_path


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
    assert payload["files_scanned"] == 20
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
    assert f"{target}:1: warning: invalid UTF-8 replaced during decoding\n" in captured.err


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


def test_json_output_is_idempotent(capsys):
    argv = ["scan", SOLIDITY_CORPUS, "--format", "json"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
