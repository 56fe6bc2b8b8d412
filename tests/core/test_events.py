"""Unit tests for the mouse gesture machine."""

import pytest

from repro.core.events import Button, GestureKind, MouseMachine, Point


@pytest.fixture
def machine():
    return MouseMachine()


class TestBasicGestures:
    def test_left_click_selects(self, machine):
        out = machine.click(5, 3, Button.LEFT)
        assert [g.kind for g in out] == [GestureKind.SELECT]
        assert out[0].is_click
        assert out[0].start == Point(5, 3)

    def test_left_sweep_selects_range(self, machine):
        out = machine.sweep(2, 2, 8, 2, Button.LEFT)
        kinds = [g.kind for g in out]
        assert kinds == [GestureKind.SWEEP, GestureKind.SELECT]
        final = out[-1]
        assert final.start == Point(2, 2)
        assert final.end == Point(8, 2)
        assert not final.is_click

    def test_middle_click_executes(self, machine):
        out = machine.click(4, 4, Button.MIDDLE)
        assert [g.kind for g in out] == [GestureKind.EXECUTE]

    def test_middle_sweep_executes_range(self, machine):
        out = machine.sweep(0, 0, 6, 0, Button.MIDDLE)
        assert out[-1].kind == GestureKind.EXECUTE
        assert out[-1].end == Point(6, 0)
        # middle drag produces no live sweep events
        assert all(g.kind != GestureKind.SWEEP for g in out)

    def test_right_drag_moves(self, machine):
        out = machine.sweep(1, 1, 30, 20, Button.RIGHT)
        assert out[-1].kind == GestureKind.MOVE
        assert out[-1].start == Point(1, 1)
        assert out[-1].end == Point(30, 20)


class TestChords:
    def test_left_then_middle_is_cut(self, machine):
        machine.press(2, 2, Button.LEFT)
        machine.drag(6, 2)
        out = machine.press(6, 2, Button.MIDDLE)
        assert [g.kind for g in out] == [GestureKind.CHORD_CUT]
        assert out[0].start == Point(2, 2)
        assert out[0].end == Point(6, 2)

    def test_left_then_right_is_paste(self, machine):
        machine.press(2, 2, Button.LEFT)
        out = machine.press(2, 2, Button.RIGHT)
        assert [g.kind for g in out] == [GestureKind.CHORD_PASTE]

    def test_cut_then_paste_while_left_held(self, machine):
        """The cut-and-paste (snarf) chord from the paper."""
        machine.press(2, 2, Button.LEFT)
        machine.drag(9, 2)
        cut = machine.press(9, 2, Button.MIDDLE)
        machine.release(9, 2, Button.MIDDLE)
        paste = machine.press(9, 2, Button.RIGHT)
        machine.release(9, 2, Button.RIGHT)
        assert cut[0].kind == GestureKind.CHORD_CUT
        assert paste[0].kind == GestureKind.CHORD_PASTE

    def test_chorded_release_is_spent(self, machine):
        machine.press(2, 2, Button.LEFT)
        machine.press(2, 2, Button.MIDDLE)
        machine.release(2, 2, Button.MIDDLE)
        out = machine.release(2, 2, Button.LEFT)
        assert out == []  # no SELECT after a chord

    def test_middle_primary_has_no_chords(self, machine):
        machine.press(2, 2, Button.MIDDLE)
        assert machine.press(2, 2, Button.RIGHT) == []
        out = machine.release(2, 2, Button.MIDDLE)
        assert [g.kind for g in out] == [GestureKind.EXECUTE]


class TestMachineState:
    def test_drag_without_press_is_ignored(self, machine):
        assert machine.drag(5, 5) == []

    def test_release_of_nonprimary_ignored(self, machine):
        machine.press(1, 1, Button.LEFT)
        assert machine.release(1, 1, Button.RIGHT) == []

    def test_machine_resets_after_release(self, machine):
        machine.click(1, 1, Button.LEFT)
        assert machine.primary == Button.NONE
        out = machine.click(2, 2, Button.MIDDLE)
        assert out[0].kind == GestureKind.EXECUTE

    def test_held_tracks_buttons(self, machine):
        machine.press(0, 0, Button.LEFT)
        machine.press(0, 0, Button.MIDDLE)
        assert machine.held == Button.LEFT | Button.MIDDLE
        machine.release(0, 0, Button.MIDDLE)
        assert machine.held == Button.LEFT

    def test_invalid_button_rejected(self, machine):
        with pytest.raises(ValueError):
            machine.press(0, 0, Button.LEFT | Button.MIDDLE)

    def test_sweep_updates_live(self, machine):
        machine.press(0, 0, Button.LEFT)
        out = machine.drag(3, 0)
        assert out[0].kind == GestureKind.SWEEP
        out = machine.drag(5, 0)
        assert out[0].end == Point(5, 0)
