"""sessioncheck's wire gate: figures over a remote /mnt/help match goldens.

The full Figures 5-12 sweep over both transports is sessioncheck's job
(and CI's); these tests pin the machinery on single figures so the
tier-1 suite stays fast while still proving the remote mount is
transparent end to end.
"""

import pytest

from repro.tools import sessioncheck
from repro.tools.sessioncheck import (check_wire, fig05_headers,
                                      fig06_messages, fig08_openline)


class TestCheckFigure:
    @pytest.mark.parametrize("transport", ["tcp", "pipe"],
                             ids=["socket", "pipe"])
    def test_fig05_is_byte_identical_over_the_wire(self, transport):
        assert check_wire("fig05_headers", fig05_headers, True,
                          transport) == []

    def test_wireless_figure_skips_the_traffic_check(self):
        # fig08 never touches /mnt/help; uses_wire=False must exempt it
        assert check_wire("fig08_openline", fig08_openline, False,
                          "pipe") == []

    def test_missing_golden_is_reported(self):
        problems = check_wire("fig99_nonesuch", fig05_headers, True, "pipe")
        assert problems == [
            f"wire/pipe/fig99_nonesuch: no golden at "
            f"{sessioncheck.golden('fig99_nonesuch')}"]

    def test_divergence_points_at_the_first_bad_line(self):
        # replay fig06's scenario against fig05's golden: must differ
        problems = check_wire("fig05_headers", fig06_messages, True, "pipe")
        assert len(problems) == 1
        assert "differs from golden (first at line" in problems[0]

    def test_tools_that_bypass_the_wire_are_red(self, capsys, monkeypatch):
        real = sessioncheck.wire_mount

        def bypass(system, transport):  # served, but mounted locally
            server, client = real(system, transport)
            system.ns.unmount(sessioncheck.MOUNT)
            system.ns.mount(system.helpfs.root, sessioncheck.MOUNT)
            return server, client

        monkeypatch.setattr(sessioncheck, "wire_mount", bypass)
        assert sessioncheck.main(["--figures", "1", "--pipe"]) == 1
        assert ("wire/pipe/fig05_headers: no RPC crossed the wire"
                in capsys.readouterr().err)


class TestFigureTable:
    def test_covers_figures_5_through_12(self):
        names = [name for name, _, _ in sessioncheck.FIGURES]
        assert names == [
            "fig05_headers", "fig06_messages", "fig07_stack",
            "fig08_openline", "fig09_openline2", "fig10_uses",
            "fig11_culprit", "fig12_mk"]

    def test_builtin_open_figures_are_marked_wireless(self):
        wireless = {name for name, _, uses_wire in sessioncheck.FIGURES
                    if not uses_wire}
        assert wireless == {"fig08_openline", "fig09_openline2",
                            "fig11_culprit"}


class TestCli:
    def test_usage_error(self, capsys):
        assert sessioncheck.main(["--pipe", "--tcp"]) == 2
        assert "--pipe and --tcp exclude each other" in \
            capsys.readouterr().err
