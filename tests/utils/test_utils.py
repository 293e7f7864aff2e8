"""Tests for the shared utilities (rng, tables, serialisation, logging)."""

import dataclasses
import json
import logging

import numpy as np
import pytest

from repro.utils.logging import configure_logging, get_logger
from repro.utils.rng import make_rng
from repro.utils.serialization import load_json, save_json, to_json
from repro.utils.tables import format_grid, format_table


class TestRNG:
    def test_make_rng_deterministic_default(self):
        assert make_rng(None).integers(1000) == make_rng(None).integers(1000)

    def test_make_rng_passthrough(self):
        gen = np.random.default_rng(5)
        assert make_rng(gen) is gen


class TestTables:
    def test_format_table_alignment_and_floats(self):
        text = format_table(["name", "value"], [["x", 1.23456], ["longer", 2]], float_fmt=".2f")
        lines = text.splitlines()
        assert "1.23" in text
        assert len(lines) == 4

    def test_format_table_row_length_checked(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_format_grid(self):
        text = format_grid([500, 700], [10, 100], [[1, 2], [3, 4]], corner="dim")
        assert "dim" in text and "700" in text


class TestSerialization:
    def test_numpy_and_dataclass_encoding(self):
        @dataclasses.dataclass
        class Point:
            x: int
            y: float

        payload = {"a": np.int64(3), "b": np.float64(1.5), "c": np.arange(3), "d": Point(1, 2.0), "e": np.bool_(True)}
        text = to_json(payload)
        data = json.loads(text)
        assert data["a"] == 3 and data["c"] == [0, 1, 2] and data["d"] == {"x": 1, "y": 2.0}
        assert data["e"] is True

    def test_save_and_load(self, tmp_path):
        path = save_json({"k": [1, 2, 3]}, tmp_path / "nested" / "f.json")
        assert load_json(path) == {"k": [1, 2, 3]}


class TestLogging:
    def test_configure_idempotent(self):
        configure_logging()
        configure_logging(verbose=True)
        logger = get_logger()
        assert len(logger.handlers) == 1
        assert get_logger("sub").name == "repro.sub"
        assert isinstance(logger, logging.Logger)
