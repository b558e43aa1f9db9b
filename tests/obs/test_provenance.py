"""Tests for per-cell execution provenance records."""

from repro.obs.provenance import PROVENANCE_KEY, cell_provenance


class TestCellProvenance:
    def test_basic_record_shape(self):
        record = cell_provenance(0.1234567)
        assert record["wall_s"] == 0.123457
        assert record["unix_s"] > 1.7e9
        assert isinstance(record.get("maxrss_kb"), int)
        assert "n_steps" not in record

    def test_n_steps_from_mapping_result(self):
        assert cell_provenance(0.1, {"n_steps": 42})["n_steps"] == 42

    def test_n_steps_from_attribute_result(self):
        class Result:
            n_steps = 7

        assert cell_provenance(0.1, Result())["n_steps"] == 7

    def test_uncoercible_n_steps_is_dropped(self):
        assert "n_steps" not in cell_provenance(0.1, {"n_steps": "nope"})

    def test_provenance_key_is_stable(self):
        # The key is part of the on-disk manifest contract the status
        # CLI reads; renaming it orphans every existing store.
        assert PROVENANCE_KEY == "obs"


class TestExecutorIntegration:
    def test_serial_executor_reports_provenance(self):
        from repro.runtime.cell import Cell
        from repro.runtime.executors import BatchExecutor

        cells = [
            Cell(
                fn="tests.runtime.test_cell:double",
                payload={"x": i},
                key=f"c{i}",
            )
            for i in range(2)
        ]
        seen: dict[str, dict] = {}
        emitted: list[str] = []
        BatchExecutor(1).run(
            cells,
            lambda cell, result, stored: emitted.append(cell.key),
            on_provenance=seen.__setitem__,
        )
        assert sorted(seen) == ["c0", "c1"] == sorted(emitted)
        assert all(rec["wall_s"] >= 0 for rec in seen.values())
