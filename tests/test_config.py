"""Config defaults, file parsing, fail-closed behavior, fingerprints."""

import hashlib
import os
import sys

import pytest

from centriscan.cli import main
from centriscan.config import (
    FAIL_THRESHOLDS,
    AnalyzerConfig,
    ConfigError,
    load_config,
    parse_config_text,
)
from centriscan.engine import analyze_teal_source

from helpers import REMOVED_CONFIG_KEYS, readme_python_block


def test_defaults_include_table_keys():
    config = load_config(None)
    assert "manager" in config.owner_keys
    assert "Creator" in config.owner_keys
    assert "MyBalance" in config.balance_keys
    assert config.fail_threshold == "warning"
    assert AnalyzerConfig._fields == ("owner_keys", "balance_keys", "fail_threshold")


def test_override_replaces_defaults():
    config = parse_config_text("owner_keys = gov, council\n")
    assert config.owner_keys == ("gov", "council")


def test_unknown_key_fails_closed_with_line_number():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("owner_keys = gov\nfrobnicate = 1\n")
    assert exc.value.line == 2


@pytest.mark.parametrize("key", REMOVED_CONFIG_KEYS)
def test_removed_rule_keys_are_unknown(key):
    with pytest.raises(ConfigError) as exc:
        parse_config_text(f"owner_keys = gov\n{key} = true\n")
    assert exc.value.line == 2
    assert str(exc.value) == f"line 2: unknown config key {key!r}"


def test_malformed_line_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("just some words\n")
    assert exc.value.line == 1


def test_comments_and_blank_lines_ignored():
    config = parse_config_text("# heading\n\nowner_keys = a  # inline\n")
    assert config.owner_keys == ("a",)


def test_only_newline_ends_a_config_line():
    # A form feed or U+2028 does not end a comment; `\r\n` ends one line.
    assert parse_config_text("# owner_keys = x\x0cowner_keys = y\u2028\n") == AnalyzerConfig()
    assert parse_config_text("owner_keys = a\r\nbalance_keys = b\r\n").balance_keys == ("b",)


def test_fail_threshold_validation():
    assert parse_config_text("fail_threshold = none\n").fail_threshold == "none"
    with pytest.raises(ConfigError):
        parse_config_text("fail_threshold = fatal\n")


def test_balance_key_rule():
    config = AnalyzerConfig()
    assert config.is_balance_key("MyBalance")
    assert config.is_balance_key("userBALANCE")  # substring, case-insensitive
    assert not config.is_balance_key("color")
    listed = AnalyzerConfig(balance_keys=("Vault",))
    assert listed.is_balance_key("Vault") and listed.is_balance_key("MyBalance")
    assert not listed.is_balance_key("vault")


def test_owner_key_rule_is_exact():
    config = AnalyzerConfig()
    assert config.is_owner_key("manager")
    assert not config.is_owner_key("Manager")


def test_fingerprint_tracks_effective_config():
    assert AnalyzerConfig().fingerprint() == AnalyzerConfig().fingerprint()
    assert AnalyzerConfig().fingerprint() != \
        AnalyzerConfig(balance_keys=("Vault",)).fingerprint()


def test_fingerprint_is_the_sha256_of_the_documented_text():
    # The fingerprint is taken with CPython's built-in SHA-256 where there is
    # one; hashlib's must agree on every Python the suite runs on.
    changed = AnalyzerConfig(owner_keys=("gov", "council"), balance_keys=("Vault",),
                             fail_threshold="major")
    assert all(a != b for a, b in zip(changed, AnalyzerConfig()))
    escaped = AnalyzerConfig(owner_keys=("a,b", ""), balance_keys=("x\ny",),
                             fail_threshold="warning\nowner_keys=gov")
    for config, text in (
            (AnalyzerConfig(), "balance_keys=MyBalance\nfail_threshold=warning\n"
                               "owner_keys=manager,Creator,creator,owner,admin"),
            (changed, "balance_keys=Vault\nfail_threshold=major\nowner_keys=gov,council"),
            (escaped, 'balance_keys:json=["x\\ny"]\n'
                      'fail_threshold:json="warning\\nowner_keys=gov"\n'
                      'owner_keys:json=["a,b", ""]')):
        assert config.fingerprint() == hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    assert AnalyzerConfig().fingerprint() == "709e9253c7dfbe9c"


def test_fingerprint_falls_back_to_hashlib(monkeypatch):
    # Every supported CPython has one of the two built-in modules; None in
    # sys.modules makes importing it fail, as on an interpreter without it.
    expected = AnalyzerConfig().fingerprint()
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    assert AnalyzerConfig().fingerprint() == expected


def test_fingerprint_tells_apart_configs_that_joining_would_merge():
    for a, b in ((("a,b",), ("a", "b")), (("",), ()), (("a", ""), ("a",)),
                 (("a\nb",), ("a", "b"))):
        assert AnalyzerConfig(owner_keys=a).fingerprint() != \
            AnalyzerConfig(owner_keys=b).fingerprint(), (a, b)
    # What a config file can express keeps the plain form: its list
    # elements are non-empty, stripped and free of commas.
    config = parse_config_text("owner_keys = gov , council\nbalance_keys = \n")
    text = "balance_keys=\nfail_threshold=warning\nowner_keys=gov,council"
    assert config.fingerprint() == hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def test_readme_fingerprint_block_recomputes_the_fingerprint():
    # README "Configuration" defines the fingerprint with code that uses hashlib.
    names = {}
    exec(readme_python_block("hashlib.sha256"), names)
    assert names["fingerprint"] == AnalyzerConfig().fingerprint()


def test_missing_config_file_is_config_error():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/centriscan.conf")


def test_byte_order_mark_is_dropped(tmp_path):
    plain, marked = tmp_path / "plain.conf", tmp_path / "marked.conf"
    plain.write_bytes(b"owner_keys = gov\nfail_threshold = info\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load_config(str(marked)) == load_config(str(plain))
    assert load_config(str(plain)).owner_keys == ("gov",)


def test_config_is_immutable_hashable_and_derived_with_replace():
    config = AnalyzerConfig(fail_threshold="major", owner_keys=("gov",))
    with pytest.raises(AttributeError):
        config.fail_threshold = "info"
    assert hash(config) == hash(AnalyzerConfig(owner_keys=("gov",), fail_threshold="major"))
    derived = config._replace(fail_threshold="warning")
    assert derived == AnalyzerConfig(owner_keys=("gov",)) and config.fail_threshold == "major"
    assert derived.fingerprint() != config.fingerprint()


def test_every_field_reads_its_value_from_config_text():
    # Lists and each threshold: a field whose default's type the parser
    # cannot read fails here instead of being misread.
    for field, default in AnalyzerConfig._field_defaults.items():
        if isinstance(default, tuple):
            cases = [("gov, council , ", ("gov", "council")), ("", ())]
        elif field == "fail_threshold":
            cases = [(choice, choice) for choice in FAIL_THRESHOLDS]
        else:
            pytest.fail(f"no config text for field {field!r}")
        for text, value in cases:
            config = parse_config_text(f"{field} = {text}\n")
            assert config == AnalyzerConfig()._replace(**{field: value}), (field, text)
    assert tuple(AnalyzerConfig._field_defaults) == AnalyzerConfig._fields


def test_config_errors_name_the_line_and_the_value():
    for text, message in (
            ("\nfrobnicate = 1", "line 2: unknown config key 'frobnicate'"),
            ("balance_substring = true", "line 1: unknown config key 'balance_substring'"),
            ("fail_threshold = fatal",
             "line 1: fail_threshold must be one of major, warning, info, none"),
            ("is_owner_key = x", "line 1: unknown config key 'is_owner_key'"),
            ("owner_keys", "line 1: expected 'key = value', got 'owner_keys'")):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(text)
        assert str(exc.value) == message


def test_readme_configuration_block_is_the_defaults():
    # README "Configuration" shows every key with its default value.
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n### Configuration\n", 1)[1]
    block = section.split("```ini\n", 1)[1].split("```", 1)[0]
    keys = {line.split("=", 1)[0].strip() for line in block.splitlines()
            if "=" in line.split("#", 1)[0]}
    assert keys == set(AnalyzerConfig._fields)
    assert parse_config_text(block) == AnalyzerConfig()


def _teal_grades(source: str, config: AnalyzerConfig):
    findings, _ = analyze_teal_source(source, "p.teal", config)
    return [(f.kind, f.severity) for f in findings]


def _guarded_put(key: str) -> str:
    return ('byte "manager"\napp_global_get\ntxn Sender\n==\nassert\n'
            f'byte "{key}"\nint 5\napp_global_put\nint 1\nreturn')


def test_every_field_set_off_its_default_changes_some_output(tmp_path, capsys):
    # A field that nothing reads fails here.
    def exit_code(config: AnalyzerConfig) -> int:
        conf = tmp_path / "threshold.conf"
        conf.write_text(f"fail_threshold = {config.fail_threshold}\n")
        source = tmp_path / "p.teal"
        source.write_text('byte "MyBalance"\nint 5\napp_global_put\nint 1\nreturn\n')
        code = main(["scan", "--config", str(conf), str(source)])
        capsys.readouterr()
        return code

    cases = {  # field: (a value off its default, an output it changes)
        "owner_keys": (("gov",), lambda c: _teal_grades(_guarded_put("MyBalance"), c)),
        "balance_keys": (("Vault",), lambda c: _teal_grades(_guarded_put("Vault"), c)),
        "fail_threshold": ("major", exit_code),
    }
    assert tuple(cases) == AnalyzerConfig._fields
    for field, (value, output) in cases.items():
        assert output(AnalyzerConfig()) != output(AnalyzerConfig(**{field: value})), field
