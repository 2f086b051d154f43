"""The one ``key=value`` format of every config file: the checkpoint header,
``train --arch-config`` and ``synth --spec``.

Blank and ``#`` lines are skipped and whitespace around key and value is
stripped. A value is typed by its field's default: int, float, or a
comma-separated tuple. ``to_text`` writes ``str`` values, so text round-trips.
"""

from __future__ import annotations

from dataclasses import fields


class TextConfig:
    """Mixin for a dataclass with scalar or tuple defaults and a ``validate()``
    returning the config; ``_label`` starts every parse error message."""

    _label = "config"

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{f.name}={value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str):
        """Parse and validate; a line without '=', an unknown or repeated key
        and an unparsable value each raise ``ValueError`` naming the key."""
        defaults = {f.name: f.default for f in fields(cls)}
        kwargs = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep:
                raise ValueError(f"{cls._label} line '{line}' has no '='")
            if key not in defaults:
                raise ValueError(f"unknown {cls._label} key '{key}'")
            if key in kwargs:
                raise ValueError(f"{cls._label} key '{key}' is repeated")
            default = defaults[key]
            try:
                kwargs[key] = (tuple(type(default[0])(v) for v in value.split(","))
                               if isinstance(default, tuple) else type(default)(value))
            except ValueError:
                raise ValueError(f"{cls._label} key '{key}' has bad value '{value}'") from None
        return cls(**kwargs).validate()
