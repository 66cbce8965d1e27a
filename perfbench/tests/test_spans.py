import dataclasses
import sys
import textwrap

import pytest

from spans import Tracer, write_csv


@pytest.fixture
def toy_package(tmp_path, monkeypatch):
    """A two-layer package: `outer` in __all__, `inner` imported across modules."""
    root = tmp_path / "toypkg"
    root.mkdir()
    (root / "__init__.py").write_text(textwrap.dedent("""
        from .front import Box, outer
        __all__ = ["Box", "outer"]
    """))
    (root / "front.py").write_text(textwrap.dedent("""
        import dataclasses
        from .back import inner

        @dataclasses.dataclass
        class Box:
            value: int

            @classmethod
            def of(cls, n):
                return cls(inner(n))

            @staticmethod
            def unit():
                return 1

            def doubled(self):
                return self.value * 2

            @property
            def half(self):
                return self.value / 2

        def outer(n, *, twice=False):
            total = inner(n) + inner(n + 1)
            return Box(total * (2 if twice else 1))

        def private_helper():
            return 1
    """))
    (root / "back.py").write_text(textwrap.dedent("""
        def inner(n):
            return sum(range(n))
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    import toypkg
    yield toypkg
    for name in [n for n in sys.modules if n == "toypkg" or n.startswith("toypkg.")]:
        del sys.modules[name]


def test_wraps_public_and_cross_module_functions_only(toy_package):
    front = sys.modules["toypkg.front"]
    original_outer, original_inner = front.outer, front.inner
    tracer = Tracer("toypkg")
    assert tracer.traced_names == ["toypkg.back.inner", "toypkg.front.Box.doubled",
                                   "toypkg.front.Box.of", "toypkg.front.Box.unit",
                                   "toypkg.front.outer"]
    tracer.install()
    try:
        assert toy_package.outer is not original_outer
        assert front.outer is not original_outer and front.inner is not original_inner
        assert toy_package.Box is front.Box          # classes stay untouched
        box = toy_package.outer(50, twice=True)      # keyword arguments pass through
        assert isinstance(box, toy_package.Box)
        assert dataclasses.replace(box, value=1).value == 1
        assert front.private_helper() == 1
    finally:
        tracer.uninstall()
    assert front.outer is original_outer and toy_package.outer is original_outer
    assert front.inner is original_inner
    assert not hasattr(front.Box.doubled, "__wrapped__")    # methods restored too
    assert not hasattr(front.Box.of, "__wrapped__")

    table = tracer.take()
    assert [table.functions[f] for f in table.fid] == ["outer", "inner", "inner"]
    assert list(table.parent) == [-1, 0, 0]
    assert table.layer_entries("front") == 1
    assert table.layer_entries("back") == 2
    self_time = table.self_time()
    assert self_time[0] == pytest.approx(table.duration[0] - table.duration[1:].sum())
    assert table.layer_self_time("front") + table.layer_self_time("back") == \
        pytest.approx(table.duration[0])
    assert table.function_calls(["inner"]) == 2
    assert len(tracer.take().fid) == 0               # take() starts afresh


def test_methods_are_traced_on_the_class(toy_package):
    Box = toy_package.Box
    tracer = Tracer("toypkg")
    tracer.install()
    try:
        box = Box.of(4)                              # classmethod: cls still bound
        assert isinstance(box, Box) and box.value == 6
        assert box.doubled() == 12 and Box.unit() == 1 and box.half == 3.0
        assert dataclasses.replace(box, value=2).doubled() == 4
    finally:
        tracer.uninstall()
    table = tracer.take()
    assert [table.functions[f] for f in table.fid] == [
        "Box.of", "inner", "Box.doubled", "Box.unit", "Box.doubled"]
    assert list(table.parent) == [-1, 0, -1, -1, -1]
    assert table.layer_entries("front") == 4 and table.layer_entries("back") == 1


def test_spans_close_when_the_function_raises(toy_package):
    tracer = Tracer("toypkg")
    tracer.install()
    try:
        with pytest.raises(TypeError):
            toy_package.outer("x")
        toy_package.outer(3)
    finally:
        tracer.uninstall()
    table = tracer.take()
    assert (table.end >= table.start).all()
    assert list(table.parent) == [-1, 0, -1, 2, 2]


def test_extra_functions_are_traced(toy_package):
    helper = sys.modules["toypkg.front"].private_helper
    tracer = Tracer("toypkg", extra=[helper])
    assert "toypkg.front.private_helper" in tracer.traced_names


def test_write_csv_lists_every_span(toy_package, tmp_path):
    tracer = Tracer("toypkg")
    tracer.install()
    try:
        toy_package.outer(4)
    finally:
        tracer.uninstall()
    path = tmp_path / "spans.csv"
    write_csv(path, [tracer.take()])
    lines = path.read_text().splitlines()
    assert lines[0] == "body,span,parent,layer,function,start_s,end_s"
    assert [line.split(",")[:5] for line in lines[1:]] == [
        ["0", "0", "-1", "front", "outer"], ["0", "1", "0", "back", "inner"],
        ["0", "2", "0", "back", "inner"]]
