"""The one reader of the ``REPRO_*`` environment overrides.

Flags and choices each follow one parse rule, given below;
``docs/EVALUATION_API.md`` lists every variable.
"""

from __future__ import annotations

import os
import warnings
from typing import Dict, Mapping, Optional

_TRUE_VALUES = frozenset({"1", "true", "yes", "on"})

#: ``(variable, value)`` pairs already warned about: one warning each per
#: process.
_WARNED: set = set()

_UNKNOWN = object()


def env_flag(name: str, environ: Optional[Mapping[str, str]] = None) -> bool:
    """Whether *name* is ``1``/``true``/``yes``/``on`` (any case) in *environ*.

    *environ* defaults to ``os.environ``.
    """
    environ = os.environ if environ is None else environ
    return str(environ.get(name, "")).strip().lower() in _TRUE_VALUES


def env_choice(name: str, aliases: Dict[str, Optional[str]],
               explicit: Optional[str] = None) -> Optional[str]:
    """The choice for *name*: *explicit* argument > environment > default.

    *aliases* maps every recognized lower-case spelling to its canonical
    choice; its ``""`` entry (the variable unset) is the default.  An
    unrecognized *explicit* value raises ``ValueError``.  An unrecognized
    environment value applies the default after a one-time
    ``RuntimeWarning`` naming the variable, the bad value and the value
    applied: a typo must not silently select, and benchmark, the wrong
    engine.
    """
    if explicit is not None:
        choice = aliases.get(explicit.strip().lower(), _UNKNOWN)
        if choice is _UNKNOWN:
            what = name[len("REPRO_"):].lower().replace("_", " ")
            raise ValueError(f"unknown {what} {explicit!r}; pick one of "
                             f"{_recognized(aliases)}")
        return choice
    raw = os.environ.get(name, "").strip()
    choice = aliases.get(raw.lower(), _UNKNOWN)
    if choice is not _UNKNOWN:
        return choice
    default = aliases[""]
    if (name, raw.lower()) not in _WARNED:
        _WARNED.add((name, raw.lower()))
        warnings.warn(f"unrecognized {name} value {raw!r}; using {default!r} "
                      f"(recognized: {_recognized(aliases)})",
                      RuntimeWarning, stacklevel=3)
    return default


def _recognized(aliases: Mapping[str, Optional[str]]) -> str:
    """The canonical choices, for error and warning text."""
    return ", ".join(sorted({choice for choice in aliases.values() if choice}))
