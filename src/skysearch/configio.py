"""Tokenizer for scenario files.

Format: one ``key = value ...`` per line, ``#`` comments, blank lines
ignored. Values are whitespace-separated tokens; repeating a key appends
another row (used for victim/obstacle lists). This module only splits the
text into rows of string tokens: ``world.load_scenario`` owns the schema
that checks every key and converts every token.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """Malformed config or scenario file."""


def parse_kv_file(path) -> dict[str, list[list[str]]]:
    out: dict[str, list[list[str]]] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, rest = line.partition("=")
        key = key.strip()
        values = rest.split()
        if not key or not values:
            raise ConfigError(f"{path}:{lineno}: empty key or value in {raw!r}")
        out.setdefault(key, []).append(values)
    return out
