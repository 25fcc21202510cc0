"""Three-valued answers carrying replayable witnesses.

Bounded procedures in this library are sound but not complete; Unknown is a
first-class outcome and always reports the budget that was exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class TriBool:
    kind: str  # "yes" | "no" | "unknown"
    witness: Any = None
    note: str = ""

    def __post_init__(self):
        if self.kind not in ("yes", "no", "unknown"):
            raise ValueError(f"bad TriBool kind {self.kind!r}")

    @property
    def is_yes(self) -> bool:
        return self.kind == "yes"

    @property
    def is_no(self) -> bool:
        return self.kind == "no"

    @property
    def is_unknown(self) -> bool:
        return self.kind == "unknown"

    @property
    def decided(self) -> bool:
        return self.kind != "unknown"

    def __bool__(self) -> bool:
        # Truthiness means a definite yes; use .decided to test decidedness.
        return self.kind == "yes"

    def __str__(self) -> str:
        s = self.kind.upper()
        if self.note:
            s += f" ({self.note})"
        return s


_YES = TriBool("yes")
_NO = TriBool("no")


def yes(witness: Any = None, note: str = "") -> TriBool:
    if witness is None and not note:
        return _YES
    return TriBool("yes", witness, note)


def no(witness: Any = None, note: str = "") -> TriBool:
    if witness is None and not note:
        return _NO
    return TriBool("no", witness, note)


def unknown(note: str = "", witness: Any = None) -> TriBool:
    return TriBool("unknown", witness, note)


def from_bool(b: bool, witness: Any = None, note: str = "") -> TriBool:
    if witness is None and not note:
        return _YES if b else _NO  # the common bare answer, without a second call
    return yes(witness, note) if b else no(witness, note)
