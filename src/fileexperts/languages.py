"""Language configuration: file-extension mapping and conditional keywords.

A static table replaces external language-classification tools. The bundled
``data/languages.json`` covers the six languages the default pipeline
targets; callers may load their own table with :func:`load_language_config`
and pass it anywhere a ``LanguageConfig`` is accepted.

``LanguageConfig.language_of`` maps a path to its ``LanguageSpec`` by
extension. The source filter asks it whether a path has a language at all;
``features`` asks it once per lineage and hands the spec to ``diffs``, which
never sees a table.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import InvalidLanguageConfig

# Paths matching any of these globs are treated as vendored third-party code
# and dropped by the default source filter. '**' matches across separators.
DEFAULT_VENDOR_GLOBS = ("vendor/**", "node_modules/**", "third_party/**")


@dataclass(frozen=True)
class LanguageSpec:
    """Per-language lexical facts used for filtering and keyword counting."""

    name: str
    extensions: tuple[str, ...]
    conditional_keywords: tuple[str, ...]
    count_ternary: bool
    line_comments: tuple[str, ...]
    string_quotes: tuple[str, ...]


@dataclass(frozen=True)
class LanguageConfig:
    """A set of languages plus the derived extension lookup table."""

    languages: dict[str, LanguageSpec]
    by_extension: dict[str, str] = field(init=False, default_factory=dict)

    def __post_init__(self):
        for lang in self.languages.values():
            for ext in lang.extensions:
                owner = self.by_extension.setdefault(ext.lower(), lang.name)
                if owner != lang.name:
                    raise InvalidLanguageConfig(
                        f"language {lang.name!r} lists extension {ext!r}, which language "
                        f"{owner!r} already lists"
                    )

    def language_of(self, path: str) -> LanguageSpec | None:
        """The language of a repository path, by its extension, or None if
        no configured language lists that extension."""
        name = self.by_extension.get(Path(path).suffix.lower())
        return None if name is None else self.languages[name]


def load_language_config(path: str | Path | None = None) -> LanguageConfig:
    """Load a language table from JSON, defaulting to the bundled one.

    The JSON maps language name to an object with keys ``extensions``,
    ``conditional_keywords``, ``count_ternary``, ``line_comments``, and
    ``string_quotes``; the first two are required. Raises InvalidLanguageConfig
    when the file is unreadable or not UTF-8 JSON of that shape: the four
    lists must hold non-empty strings, each extension starting with ".", and
    ``count_ternary`` must be a JSON boolean. No two languages may list the
    same extension, compared case-insensitively.
    """
    if path is None:
        raw = resources.files("fileexperts").joinpath("data/languages.json").read_bytes()
    else:
        try:
            raw = Path(path).read_bytes()
        except OSError as exc:
            message = f"cannot read language table {path}: {exc.strerror}"
            raise InvalidLanguageConfig(message) from None
    try:
        return LanguageConfig(languages={
            name: _language_spec(name, entry)
            for name, entry in json.loads(raw.decode("utf-8")).items()
        })
    except (AttributeError, InvalidLanguageConfig, TypeError, ValueError) as exc:
        raise InvalidLanguageConfig(
            f"language table {path or 'bundled'} is malformed: {exc}"
        ) from exc


def _language_spec(name: str, entry: dict) -> LanguageSpec:
    """One language's entry; a missing required key, or a value of the
    wrong JSON type, is a ValueError naming the language and the key, never
    coerced."""

    def strings(key: str, value: object) -> tuple[str, ...]:
        if not isinstance(value, list) or not all(isinstance(v, str) and v for v in value):
            raise ValueError(f"language {name!r} key {key!r} is not a list of non-empty strings")
        return tuple(value)

    for key in ("extensions", "conditional_keywords"):
        if key not in entry:
            raise ValueError(f"language {name!r} is missing key {key!r}")
    extensions = strings("extensions", entry["extensions"])
    for extension in extensions:
        if not extension.startswith("."):
            raise ValueError(
                f"language {name!r} key 'extensions' holds {extension!r}, which does not "
                "start with '.'"
            )
    count_ternary = entry.get("count_ternary", False)
    if not isinstance(count_ternary, bool):
        raise ValueError(f"language {name!r} key 'count_ternary' is not true or false")
    return LanguageSpec(
        name=name,
        extensions=extensions,
        conditional_keywords=strings("conditional_keywords", entry["conditional_keywords"]),
        count_ternary=count_ternary,
        line_comments=strings("line_comments", entry.get("line_comments", [])),
        string_quotes=strings("string_quotes", entry.get("string_quotes", ['"', "'"])),
    )


@functools.cache
def default_language_config() -> LanguageConfig:
    """The bundled configuration, loaded once per process."""
    return load_language_config()
