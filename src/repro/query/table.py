"""Columnar tables backed by numpy arrays."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np


class Table:
    """An immutable columnar table: name -> equally sized numpy arrays."""

    def __init__(self, name: str, columns: Dict[str, np.ndarray]) -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        lengths = {len(col) for col in columns.values()}
        if len(lengths) != 1:
            raise ValueError(f"ragged columns in table {name}: {lengths}")
        self.name = name
        self.columns = dict(columns)
        self.num_rows = lengths.pop()

    def __len__(self) -> int:
        return self.num_rows

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            known = ", ".join(sorted(self.columns))
            raise KeyError(f"table {self.name} has no column '{name}' (has: {known})") from None

    def row_bytes(self) -> int:
        """Bytes per row across all columns."""
        return sum(col.dtype.itemsize for col in self.columns.values())

    def total_bytes(self) -> int:
        return self.row_bytes() * self.num_rows

    def take(self, mask_or_index: np.ndarray, name: Optional[str] = None) -> "Table":
        """Row subset by boolean mask or integer index array."""
        return Table(
            name or f"{self.name}_subset",
            {col_name: col[mask_or_index] for col_name, col in self.columns.items()},
        )

    def head(self, n: int) -> "Table":
        return self.take(np.arange(min(n, self.num_rows)), f"{self.name}_head")
