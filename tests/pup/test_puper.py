"""PUP framework tests: sizing, packing, unpacking, round trips."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.pup.puper import (
    PUPError,
    UnpackingPUPer,
    _dtype_name,
    _dtype_of,
    _ViewPUPer,
    pack,
    sizeof,
    unpack,
)


class Sample:
    """A pupable object covering every field kind."""

    def __init__(self):
        self.count = 17
        self.dt = 0.25
        self.active = True
        self.label = "replica-one"
        self.blob = b"\x00\x01\x02"
        self.grid = np.arange(24.0).reshape(2, 3, 4)
        self.ids = np.arange(5, dtype=np.int32)

    def pup(self, p):
        self.count = p.pup_int("count", self.count)
        self.dt = p.pup_float("dt", self.dt)
        self.active = p.pup_bool("active", self.active)
        self.label = p.pup_str("label", self.label)
        self.blob = p.pup_bytes("blob", self.blob)
        self.grid = p.pup_array("grid", self.grid)
        self.ids = p.pup_array("ids", self.ids)


class Nested:
    def __init__(self):
        self.inner = Sample()
        self.outer_value = 3.5

    def pup(self, p):
        self.outer_value = p.pup_float("outer_value", self.outer_value)
        p.pup_object("inner", self.inner)


class TestSizing:
    def test_sizeof_counts_all_bytes(self):
        s = Sample()
        expected = 8 + 8 + 8 + len("replica-one") + 3 + 24 * 8 + 5 * 4
        assert sizeof(s) == expected

    @pytest.mark.parametrize("make", [
        Nested, lambda: Outer(3),
        lambda: TestFieldDtypes.Fields(TestFieldDtypes.ARRAYS),
        # A strided view: sized by its bytes, not by its base array.
        lambda: TestFieldDtypes.Fields({"view": np.arange(40.0)[::3]}),
    ])
    def test_sizeof_equals_packed_nbytes(self, make):
        obj = make()
        assert sizeof(obj) == pack(obj).nbytes


class TestRoundTrip:
    def test_pack_unpack_restores_everything(self):
        src = Sample()
        src.grid *= 3.0
        src.count = 99
        state = pack(src)
        dst = Sample()
        dst.grid[:] = 0
        dst.count = 0
        dst.label = "x"
        unpack(dst, state)
        assert dst.count == 99
        assert dst.dt == src.dt
        assert dst.active is True
        assert dst.label == "replica-one"
        assert dst.blob == b"\x00\x01\x02"
        assert np.array_equal(dst.grid, src.grid)
        assert np.array_equal(dst.ids, src.ids)

    def test_unpack_is_in_place_for_matching_arrays(self):
        src = Sample()
        state = pack(src)
        dst = Sample()
        original = dst.grid
        dst.grid[:] = -1
        unpack(dst, state)
        assert dst.grid is original  # restored without reallocation

    def test_packed_size_matches_sizeof(self):
        s = Sample()
        assert pack(s).nbytes == sizeof(s)

    def test_nested_objects_round_trip(self):
        src = Nested()
        src.inner.grid += 10
        src.outer_value = -1.0
        state = pack(src)
        dst = Nested()
        unpack(dst, state)
        assert dst.outer_value == -1.0
        assert np.array_equal(dst.inner.grid, src.inner.grid)

    def test_nested_field_names_are_qualified(self):
        state = pack(Nested())
        names = [f.name for f in state.fields]
        assert "outer_value" in names
        assert "inner.grid" in names

    def test_string_length_change_round_trips(self):
        src = Sample()
        src.label = "a-much-longer-label-than-before"
        state = pack(src)
        dst = Sample()
        unpack(dst, state)
        assert dst.label == src.label


class TestFieldDtypes:
    """Directory dtype strings are exactly ``str(arr.dtype)``."""

    STRUCT = [("a", "<i4"), ("b", "<f8")]
    ARRAYS = {
        "f8": np.arange(3.0),
        "be": np.arange(3.0).astype(">f8"),
        "i4": np.arange(3, dtype=np.int32),
        "longlong": np.arange(3, dtype=np.longlong),
        "bool": np.ones(2, dtype=bool),
        "c16": np.ones(2, dtype=np.complex128),
        "str": np.array(["abc"]),
        "dt": np.array(["2020-01-01"], dtype="M8[s]"),
        "meta": np.zeros(2, dtype=np.dtype(float, metadata={"unit": "m"})),
        # Equal dtypes that print differently: neither may borrow the
        # other's string.
        "aligned": np.zeros(2, dtype=np.dtype(STRUCT, align=True)),
        "offsets": np.zeros(2, dtype=np.dtype({
            "names": ["a", "b"], "formats": ["<i4", "<f8"],
            "offsets": [0, 8], "itemsize": 16})),
    }

    class Fields:
        def __init__(self, arrays):
            self.arrays = arrays

        def pup(self, p):
            for name, arr in self.arrays.items():
                p.pup_array(name, arr)

    def test_pack_directories_match_str_dtype(self):
        obj = self.Fields(self.ARRAYS)
        first = pack(obj)
        for _ in range(2):  # the second pass reads the memoised names
            for fields in (pack(obj).fields, pack(obj, like=first).fields):
                assert {f.name: f.dtype for f in fields} == {
                    name: str(arr.dtype) for name, arr in self.ARRAYS.items()}
        # Every field's key matches its own earlier pack, so the directory
        # is shared rather than rebuilt.
        assert pack(obj, like=first).fields is first.fields

    def test_builtin_dtypes_restore_in_place(self):
        builtin = {k: v for k, v in self.ARRAYS.items()
                   if k not in ("aligned", "offsets")}
        state = pack(self.Fields(builtin))
        dst = {k: np.zeros_like(v) for k, v in builtin.items()}
        unpack(self.Fields(dst), state)
        for name, arr in builtin.items():
            assert np.array_equal(dst[name], arr)
            assert dst[name].dtype == arr.dtype

    def test_dtype_names_parse_back_memoised(self):
        nested = np.dtype([("x", [("y", ">i2")]), ("z", "<f4", (3,))])
        dtypes = [arr.dtype for arr in self.ARRAYS.values()] + [
            np.dtype(">i8"), np.dtype("<u2"), np.dtype("S5"), nested,
            np.dtype([("a", ">i4"), ("b", "<f8")])]
        for dtype in dtypes:
            name = _dtype_name(dtype)
            parsed = _dtype_of(name)
            assert parsed == dtype
            assert str(parsed) == name
            assert _dtype_of(name) is parsed  # memoised

    def test_unknown_dtype_name_rejected(self):
        with pytest.raises(PUPError, match="unknown field dtype"):
            _dtype_of("not-a-dtype")

    def test_structured_dtypes_round_trip(self):
        structured = {k: self.ARRAYS[k] for k in ("aligned", "offsets")}
        structured["packed"] = np.array([(1, 2.5), (-3, 0.5)],
                                        dtype=[("a", ">i4"), ("b", "<f8")])
        state = pack(self.Fields(structured))
        dst = {k: np.zeros_like(v) for k, v in structured.items()}
        unpack(self.Fields(dst), state)
        for name, arr in structured.items():
            # Field-wise: padding bytes of aligned dtypes are not state.
            assert (dst[name] == arr).all()
            assert dst[name].dtype == arr.dtype


class TestErrors:
    def test_duplicate_field_names_rejected(self):
        class Dup:
            def pup(self, p):
                p.pup_int("x", 1)
                p.pup_int("x", 2)

        with pytest.raises(PUPError, match="duplicate"):
            pack(Dup())

    def test_object_dtype_rejected(self):
        class Bad:
            def pup(self, p):
                p.pup_array("stuff", np.array([object()]))

        with pytest.raises(PUPError, match="object"):
            pack(Bad())

    def test_field_order_mismatch_detected(self):
        class A:
            def pup(self, p):
                p.pup_int("first", 1)
                p.pup_int("second", 2)

        class B:
            def pup(self, p):
                p.pup_int("second", 2)
                p.pup_int("first", 1)

        state = pack(A())
        with pytest.raises(PUPError, match="order mismatch"):
            unpack(B(), state)

    def test_reading_past_end_detected(self):
        class Short:
            def pup(self, p):
                p.pup_int("only", 1)

        class Long:
            def pup(self, p):
                p.pup_int("only", 1)
                p.pup_int("extra", 2)

        state = pack(Short())
        with pytest.raises(PUPError, match="past checkpoint end"):
            unpack(Long(), state)

    def test_unconsumed_fields_detected(self):
        class Long:
            def pup(self, p):
                p.pup_int("a", 1)
                p.pup_int("b", 2)

        class Short:
            def pup(self, p):
                p.pup_int("a", 1)

        state = pack(Long())
        with pytest.raises(PUPError, match="consumed 1 of 2"):
            unpack(Short(), state)


class Inner:
    def __init__(self, tag):
        self.value = np.full(3, float(tag))

    def pup(self, p):
        self.value = p.pup_array("value", self.value)


class Outer:
    def __init__(self, tag):
        self.tag = tag
        self.inner = Inner(tag)

    def pup(self, p):
        self.tag = p.pup_int("tag", self.tag)
        p.pup_object("inner", self.inner)


class TestScopeConcurrency:
    """The scope stack is per-PUPer instance, so concurrent packs of nested
    objects (parallel campaigns, threads) cannot cross-contaminate names."""

    def test_nested_names_qualified_per_instance(self):
        state = pack(Outer(1))
        assert [f.name for f in state.fields] == ["tag", "inner.value"]

    def test_concurrent_nested_packs_keep_names_straight(self):
        errors = []

        def worker(tag):
            try:
                for _ in range(200):
                    state = pack(Outer(tag))
                    names = [f.name for f in state.fields]
                    if names != ["tag", "inner.value"]:
                        errors.append(names)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_interleaved_pupers_do_not_share_scope(self):
        outer = Outer(2)
        state = pack(outer)
        # Simulate interleaving: enter a scope on one PUPer, then use others.
        viewer = _ViewPUPer()
        viewer._scopes = ["somewhere", "deep"]
        assert [f.name for f in pack(outer).fields] == ["tag", "inner.value"]
        reader = UnpackingPUPer(state.buffer, state.fields)
        outer.pup(reader)
        reader.finish()
        assert viewer._scopes == ["somewhere", "deep"]


class TestListOfArrays:
    def test_round_trip_same_length(self):
        class Holder:
            def __init__(self, items):
                self.items = items

            def pup(self, p):
                self.items = p.pup_list_of_arrays("items", self.items)

        src = Holder([np.arange(3.0), np.arange(5.0) * 2])
        state = pack(src)
        dst = Holder([np.zeros(3), np.zeros(5)])
        unpack(dst, state)
        assert len(dst.items) == 2
        assert np.array_equal(dst.items[1], np.arange(5.0) * 2)


class TestPropertyBased:
    @given(arrays(dtype=np.float64, shape=st.tuples(
        st.integers(1, 8), st.integers(1, 8))))
    @settings(max_examples=50, deadline=None)
    def test_arbitrary_float_arrays_round_trip(self, arr):
        class Holder:
            def __init__(self, a):
                self.a = a

            def pup(self, p):
                self.a = p.pup_array("a", self.a)

        src = Holder(arr.copy())
        state = pack(src)
        dst = Holder(np.zeros_like(arr))
        unpack(dst, state)
        # NaN-safe bitwise equality.
        assert np.array_equal(
            dst.a.view(np.uint64), arr.view(np.uint64)
        )

    @given(st.integers(min_value=-(2**62), max_value=2**62),
           st.floats(allow_nan=False, allow_infinity=True),
           st.text(max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_scalars_round_trip(self, i, f, s):
        class Holder:
            def __init__(self):
                self.i, self.f, self.s = i, f, s

            def pup(self, p):
                self.i = p.pup_int("i", self.i)
                self.f = p.pup_float("f", self.f)
                self.s = p.pup_str("s", self.s)

        src = Holder()
        state = pack(src)
        dst = Holder()
        dst.i, dst.f, dst.s = 0, 0.0, ""
        unpack(dst, state)
        assert dst.i == i
        assert dst.f == f
        assert dst.s == s
