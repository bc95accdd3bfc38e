"""Analyzer configuration: TEAL state-key vocabulary, failure threshold.

Config files are line-oriented ``key = value`` with ``#`` comments; list
values are comma-separated. Unknown keys are rejected (fail closed).
"""

from __future__ import annotations

import json
from typing import NamedTuple


class UsageError(ValueError):
    """Invalid invocation or report-format request; maps to exit code 2."""


class ConfigError(UsageError):
    """Malformed or unknown configuration input."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


DEFAULT_OWNER_KEYS = ("manager", "Creator", "creator", "owner", "admin")
DEFAULT_BALANCE_KEYS = ("MyBalance",)

FAIL_THRESHOLDS = ("major", "warning", "info", "none")


class AnalyzerConfig(NamedTuple):
    owner_keys: tuple[str, ...] = DEFAULT_OWNER_KEYS
    balance_keys: tuple[str, ...] = DEFAULT_BALANCE_KEYS
    fail_threshold: str = "warning"

    def is_owner_key(self, key: str) -> bool:
        return key in self.owner_keys

    def is_balance_key(self, key: str) -> bool:
        """A listed key, or any key holding "balance" in any letter case."""
        return key in self.balance_keys or "balance" in key.lower()

    def fingerprint(self) -> str:
        """First 16 hex digits of the SHA-256 of the fields in sorted order,
        one `name=value` line each, tuple elements comma-joined, lines
        joined by newlines, UTF-8. A value that joining would make ambiguous
        (an empty tuple element, one holding `,` or a newline, a string
        holding a newline) is written `name:json=` and its JSON instead."""
        # CPython's own SHA-256: hashlib would map OpenSSL's libcrypto,
        # 3.5 MB of memory and several ms of start-up, for one digest.
        try:
            from _sha2 import sha256  # 3.12 and later
        except ImportError:
            try:
                from _sha256 import sha256  # 3.10 and 3.11
            except ImportError:
                from hashlib import sha256
        lines = []
        for name in sorted(self._fields):
            value = getattr(self, name)
            if isinstance(value, tuple):
                plain = all(item and "," not in item and "\n" not in item for item in value)
                value = ",".join(value) if plain else list(value)
            if isinstance(value, list) or (isinstance(value, str) and "\n" in value):
                lines.append(f"{name}:json={json.dumps(value)}")
            else:
                lines.append(f"{name}={value}")
        return sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def _parse_list(value: str) -> tuple[str, ...]:
    return tuple(item.strip() for item in value.split(",") if item.strip())


def parse_config_text(text: str) -> AnalyzerConfig:
    """Parse config-file text, whose lines end at `\\n`; explicit values
    replace defaults entirely."""
    config = AnalyzerConfig()
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        default = AnalyzerConfig._field_defaults.get(key)
        if isinstance(default, tuple):
            config = config._replace(**{key: _parse_list(value)})
        elif key == "fail_threshold":
            choice = value.strip()
            if choice not in FAIL_THRESHOLDS:
                raise ConfigError(
                    f"fail_threshold must be one of {', '.join(FAIL_THRESHOLDS)}",
                    lineno,
                )
            config = config._replace(fail_threshold=choice)
        else:
            raise ConfigError(f"unknown config key {key!r}", lineno)
    return config


def load_config(path: str | None) -> AnalyzerConfig:
    """Load configuration from a file, or defaults when path is None."""
    if path is None:
        return AnalyzerConfig()
    try:
        with open(path, encoding="utf-8-sig", errors="replace") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    return parse_config_text(text)
