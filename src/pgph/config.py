"""Resource budgets and their environment overrides.

Budgets cap the total entry count of any dense matrix the package is asked
to materialize: mod-p work and the bar-complex oracle count against the F_p
budget, the mod-p^E resolutions behind integral invariants against the
integer one.  The environment variable ``PGPH_BUDGET`` overrides them:
either a single integer applied to both budgets, or a comma-separated list
of ``fp=N`` / ``int=N`` assignments, each key at most once.  It is the
only source of budgets: each resolution or chain-map extension, and each
bar boundary, reads it through `default_budgets` when it starts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from pgph.errors import BudgetExceededError, DataError

DEFAULT_FP_ENTRIES = 200_000_000
DEFAULT_INT_ENTRIES = 10_000_000
DEFAULT_ORDER_CAP = 512


@dataclass(frozen=True)
class Budgets:
    """Entry-count caps for mod-p and mod-p^E (integral) work."""

    fp_entries: int = DEFAULT_FP_ENTRIES
    int_entries: int = DEFAULT_INT_ENTRIES

    def check_fp(self, stage: str, entries: int) -> None:
        if entries > self.fp_entries:
            raise BudgetExceededError(stage, entries, self.fp_entries)

    def check_int(self, stage: str, entries: int) -> None:
        if entries > self.int_entries:
            raise BudgetExceededError(stage, entries, self.int_entries)


def default_budgets() -> Budgets:
    """Budgets after applying the PGPH_BUDGET override, if any."""
    raw = os.environ.get("PGPH_BUDGET")
    if not raw:
        return Budgets()
    fp, integral = DEFAULT_FP_ENTRIES, DEFAULT_INT_ENTRIES
    seen = set()
    try:
        if "=" in raw:
            for part in raw.split(","):
                key, _, value = part.strip().partition("=")
                if key in seen:
                    # a later assignment must not loosen an earlier cap
                    raise DataError(f"PGPH_BUDGET sets {key!r} twice: {raw!r}")
                seen.add(key)
                if key == "fp":
                    fp = int(value)
                elif key == "int":
                    integral = int(value)
                else:
                    raise ValueError(key)
        else:
            fp = integral = int(raw)
    except ValueError as exc:
        raise DataError(f"unparsable PGPH_BUDGET value: {raw!r}") from exc
    if fp <= 0 or integral <= 0:
        raise DataError(f"PGPH_BUDGET values must be positive: {raw!r}")
    return Budgets(fp_entries=fp, int_entries=integral)
