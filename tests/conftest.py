"""Shared pytest plumbing.

The acceptance tests register one verdict per criterion here; the block
is echoed at the end of the terminal run so the pass/fail state of every
criterion is visible in one place.
"""

import pytest

_ACCEPTANCE: list[tuple[int, str, bool, str]] = []


@pytest.fixture
def cold_caches(monkeypatch):
    """Empty resolution and coclass tower caches, restored afterwards.

    The engine then builds every level the test asks for; tests that
    inject faults into it, or watch it build, rely on this.
    """
    from pgph import coclass, resolution

    monkeypatch.setattr(resolution, "_RESOLUTIONS", {})
    monkeypatch.setattr(resolution, "_CHAIN_MAPS", {})
    monkeypatch.setattr(coclass, "_TOWERS", {})


def record_criterion(number: int, label: str, passed: bool,
                     detail: str = "") -> None:
    _ACCEPTANCE.append((number, label, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria")
    for number, label, passed, detail in sorted(_ACCEPTANCE):
        verdict = "PASS" if passed else "FAIL"
        line = f"criterion {number:2d} {verdict}  {label}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)
