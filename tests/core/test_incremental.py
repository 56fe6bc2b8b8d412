"""The incremental display pipeline must be invisible.

Three layers of caching sit between an edit and the screen — the
maintained newline index, the memoized bounded-slice layout, and the
damage-tracked canvas — and each must produce byte-identical results
to the from-scratch computation it replaces.  These tests drive
arbitrary interleaved edit/undo/redo/scroll sequences and compare the
cached answers against uncached reference computations at every step.
"""

import random

from hypothesis import given, settings, strategies as st

from repro import build_system, render_screen
from repro.core.frame import Frame
from repro.core.text import Text
from repro.metrics.counter import counter


# -- op sequences over a Text document --------------------------------------

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 200),
                  st.text(alphabet="ab c\nd\n", max_size=8)),
        st.tuples(st.just("delete"), st.integers(0, 200), st.integers(0, 200)),
        st.tuples(st.just("undo"), st.just(0), st.just(0)),
        st.tuples(st.just("redo"), st.just(0), st.just(0)),
    ),
    max_size=30,
)


def _apply(doc: Text, op) -> None:
    kind, a, b = op
    if kind == "insert":
        doc.insert(min(a, len(doc)), b)
    elif kind == "delete":
        lo, hi = sorted((min(a, len(doc)), min(b, len(doc))))
        doc.delete(lo, hi)
    elif kind == "undo":
        doc.undo()
    else:
        doc.redo()


class TestNewlineIndex:
    @given(_ops)
    @settings(max_examples=120, deadline=None)
    def test_line_arithmetic_matches_string_scan(self, ops):
        doc = Text("seed\ntext\n")
        for op in ops:
            _apply(doc, op)
            s = doc.string()
            assert doc.nlines() == (
                (s.count("\n") + (0 if s.endswith("\n") else 1)) if s else 0)
            for pos in {0, 1, len(s) // 2, len(s)}:
                assert doc.line_of(pos) == s[:min(pos, len(s))].count("\n") + 1
            for line in (1, 2, s.count("\n") + 1, s.count("\n") + 3):
                start = doc.pos_of_line(line)
                # reference: scan line-1 newlines from the top
                ref, p = 0, 0
                if line > 1:
                    ref = None
                    for _ in range(line - 1):
                        nl = s.find("\n", p)
                        if nl < 0:
                            ref = len(s)
                            break
                        p = nl + 1
                    if ref is None:
                        ref = p
                assert start == ref
                nl = s.find("\n", start)
                assert doc.line_span(line) == (
                    start, len(s) if nl < 0 else nl)

    @given(_ops)
    @settings(max_examples=60, deadline=None)
    def test_version_strictly_increases_on_change(self, ops):
        doc = Text("one\ntwo")
        for op in ops:
            before_text = doc.string()
            before_version = doc.version
            _apply(doc, op)
            if doc.string() != before_text:
                assert doc.version > before_version


class TestLayoutCache:
    @given(_ops, st.integers(1, 9), st.integers(1, 6), st.integers(0, 60))
    @settings(max_examples=120, deadline=None)
    def test_cached_layout_equals_uncached(self, ops, width, height, org):
        doc = Text("hello\nworld wide\n")
        frame = Frame(width, height)
        for op in ops:
            _apply(doc, op)
            s = doc.string()
            o = min(org, len(s))
            cached_twice = (frame.layout(doc, o), frame.layout(doc, o))
            fresh = frame.layout(s, o)
            assert cached_twice[0] == fresh
            assert cached_twice[1] == fresh  # the memoized copy too
            assert frame.visible_span(doc, o) == frame.visible_span(s, o)
            assert frame.rows_used(doc, o) == frame.rows_used(s, o)

    @given(_ops, st.integers(1, 9), st.integers(1, 6), st.integers(0, 60),
           st.integers(-7, 7))
    @settings(max_examples=120, deadline=None)
    def test_scroll_and_origins_match_string_path(self, ops, width, height,
                                                  org, delta):
        doc = Text("alpha\nbeta gamma\ndelta\n")
        frame = Frame(width, height)
        for op in ops:
            _apply(doc, op)
        s = doc.string()
        o = min(org, len(s))
        assert frame.scroll(doc, o, delta) == frame.scroll(s, o, delta)
        assert frame.scroll_origins(doc) == frame.scroll_origins(s)
        for line in (1, 2, 5, 99):
            assert (frame.origin_for_line(doc, line)
                    == frame.origin_for_line(s, line))

    def test_cache_is_actually_hit(self):
        doc = Text("x\n" * 50)
        frame = Frame(8, 5)
        before = counter("layout.cache_hit")
        frame.layout(doc, 0)
        frame.layout(doc, 0)
        assert counter("layout.cache_hit") > before


class TestDamageTrackedRender:
    """Replay realistic sessions; the incremental canvas must equal a
    from-scratch paint after every event."""

    def _random_session(self, seed: int, events: int) -> None:
        rng = random.Random(seed)
        system = build_system(width=120, height=40)
        h = system.help
        for step in range(events):
            windows = [w for w in h.windows.values()
                       if h.screen.column_of(w) is not None]
            window = rng.choice(windows)
            column = h.screen.column_of(window)
            rect = column.win_rect(window)
            if rect is None:
                column.make_visible(window)
                rect = column.win_rect(window)
            x = column.body_x0 + rng.randrange(0, max(1, column.text_width))
            y = rect.y0 + rng.randrange(0, rect.height)
            op = rng.choice(["click", "type", "scroll", "undo", "open",
                             "move", "hide", "resize"])
            if op == "click":
                h.left_click(x, y)
            elif op == "type":
                h.mouse_move(x, y)
                h.type_text(rng.choice(["a", "word\n", "  ", "\n\n"]))
            elif op == "scroll":
                h.scroll(window, rng.choice([-5, -1, 1, 5]))
            elif op == "undo":
                window.body.undo()
            elif op == "open":
                h.open_path("/usr/rob/src/help/help.c")
            elif op == "move":
                h.right_drag(column.body_x0 + 1, rect.y0,
                             rng.randrange(0, h.screen.rect.width),
                             rng.randrange(1, h.screen.rect.height))
            elif op == "hide":
                column.make_visible(rng.choice(column.tab_order()))
            elif op == "resize":
                h.resize(rng.choice([100, 120, 140]), rng.choice([36, 40]))
            incremental = render_screen(h)
            again = render_screen(h)  # the cached grid, footer renewed
            scratch = render_screen(h, full=True)
            assert incremental == scratch, (seed, step, op)
            assert again == scratch, (seed, step, op)

    def test_damage_render_identical_to_full(self):
        for seed in (3, 17, 42):
            self._random_session(seed, events=60)

    def test_repeated_render_repaints_nothing(self):
        system = build_system(width=120, height=40)
        h = system.help
        render_screen(h)
        before = counter("render.cells_repainted")
        assert render_screen(h) == render_screen(h, full=True)
        # full=True paints its own grid but must not disturb the cache;
        # the damage path itself touched zero cells
        damage_painted = counter("render.cells_repainted") - before
        assert damage_painted == h.screen.rect.width * h.screen.rect.height

    def test_unchanged_screen_returns_the_cached_grid(self):
        system = build_system(width=120, height=40)
        h = system.help
        grid = render_screen(h, footer=False)
        assert render_screen(h, footer=False) is grid

    def test_click_keeps_the_grid_and_renews_the_footer(self):
        """A click moves the selection, which only the footer shows:
        the grid is not joined again, the footer is."""
        system = build_system(width=120, height=40)
        h = system.help
        grid = render_screen(h, footer=False)
        footer = render_screen(h).rsplit("\n", 1)[1]
        window = h.window_by_name("/help/edit/stf")
        column = h.screen.column_of(window)
        h.left_click(column.body_x0 + 2, column.win_rect(window).y0 + 1)
        assert render_screen(h, footer=False) is grid
        screen = render_screen(h)
        assert screen == render_screen(h, full=True)
        assert screen.rsplit("\n", 1)[1] != footer
        assert f"window {window.id}" in screen.rsplit("\n", 1)[1]
