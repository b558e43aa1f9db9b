"""Tests for the cell abstraction."""

import pytest

from repro.runtime.cell import Cell, cell_key, resolve_ref


def double(payload):
    return payload["x"] * 2


class TestResolveRef:
    def test_resolves_module_attr(self):
        fn = resolve_ref("tests.runtime.test_cell:double")
        assert fn({"x": 4}) == 8

    def test_rejects_malformed_refs(self):
        for ref in ("no_colon", ":attr", "module:"):
            with pytest.raises(ValueError):
                resolve_ref(ref)

    def test_rejects_non_callable(self):
        with pytest.raises(TypeError):
            resolve_ref("json:__name__")


class TestCell:
    def test_default_key_is_content_hash(self):
        a = Cell(fn="m:f", payload={"x": 1})
        b = Cell(fn="m:f", payload={"x": 1})
        c = Cell(fn="m:f", payload={"x": 2})
        assert a.key == b.key
        assert a.key != c.key
        assert a.key.startswith("cell-")
        assert a.key == cell_key("m:f", {"x": 1})

    def test_key_ignores_dict_ordering(self):
        a = Cell(fn="m:f", payload={"x": 1, "y": 2})
        b = Cell(fn="m:f", payload={"y": 2, "x": 1})
        assert a.key == b.key

    def test_explicit_key_preserved(self):
        cell = Cell(fn="m:f", payload={}, key="scn-abc123")
        assert cell.key == "scn-abc123"

    def test_non_json_payload_rejected(self):
        with pytest.raises(ValueError):
            Cell(fn="m:f", payload={"x": object()})

    def test_fn_must_be_reference(self):
        with pytest.raises(ValueError):
            Cell(fn="not_a_ref", payload={})

    def test_payload_canonicalized_through_json(self):
        # Tuples become lists eagerly, so the key computed here matches
        # the key a worker recomputes after a manifest round-trip.
        cell = Cell(fn="m:f", payload={"xs": (1, 2)})
        assert cell.payload == {"xs": [1, 2]}

    def test_manifest_roundtrip(self):
        cell = Cell(fn="tests.runtime.test_cell:double", payload={"x": 3})
        clone = Cell.from_entry(cell.to_entry())
        assert clone == cell
        assert clone.run() == 6
