"""Flat parameter storage shared by the tensor and circuit backends."""
from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

from .ansatz import Symbol


class UnboundSymbol(Exception):
    """Evaluation hit a symbol with no stored value."""


class ParameterStore:
    """Symbol name -> real array, with a stable flat-vector layout."""

    def __init__(self, values: Mapping[str, np.ndarray] | None = None):
        self._values: dict[str, np.ndarray] = {}
        if values:
            for name, arr in values.items():
                self._values[name] = np.asarray(arr, dtype=float)

    @classmethod
    def initialize(cls, symbols: Iterable[Symbol], seed: int,
                   tensor_scale: str = "entry_count") -> "ParameterStore":
        """Seeded init: angles uniform on [0, 2pi), tensors N(0, 1/sqrt(d)).

        d is the entry count of the tensor, which keeps the Frobenius norm
        near 1 regardless of shape.
        """
        rng = np.random.default_rng(seed)
        store = cls()
        for sym in symbols:
            if sym.name in store._values:
                continue
            if sym.shape == ():
                store._values[sym.name] = np.asarray(
                    rng.uniform(0.0, 2.0 * np.pi))
            else:
                d = int(np.prod(sym.shape))
                store._values[sym.name] = rng.normal(
                    0.0, 1.0 / np.sqrt(d), size=sym.shape)
        return store

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._values[name]
        except KeyError:
            raise UnboundSymbol(f"no value bound for symbol {name!r}") from None

    def __setitem__(self, name: str, value) -> None:
        arr = np.asarray(value, dtype=float)
        if name in self._values and arr.shape != self._values[name].shape:
            raise ValueError(f"shape change for {name!r}")
        self._values[name] = arr

    def names(self) -> list[str]:
        return list(self._values)

    @property
    def layout(self) -> list[tuple[str, tuple[int, ...], int]]:
        """(name, shape, offset) per symbol, in insertion order."""
        out, offset = [], 0
        for name, arr in self._values.items():
            out.append((name, arr.shape, offset))
            offset += arr.size
        return out

    @property
    def size(self) -> int:
        return sum(arr.size for arr in self._values.values())

    def to_vector(self, names: Iterable[str] | None = None) -> np.ndarray:
        """Values of the named symbols (default: all, in layout order)."""
        names = self._values if names is None else names
        arrays = [self[name].ravel() for name in names]
        return np.concatenate(arrays) if arrays else np.zeros(0)

    def from_vector(self, vec: np.ndarray) -> "ParameterStore":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.size,):
            raise ValueError(f"expected vector of length {self.size}")
        out = ParameterStore()
        for name, shape, offset in self.layout:
            n = math.prod(shape)
            out._values[name] = vec[offset:offset + n].reshape(shape)
        return out

    def copy(self) -> "ParameterStore":
        return ParameterStore({k: v.copy() for k, v in self._values.items()})

    def to_jsonable(self) -> dict:
        return {k: v.tolist() for k, v in self._values.items()}

    @classmethod
    def from_jsonable(cls, obj: Mapping) -> "ParameterStore":
        return cls({k: np.asarray(v, dtype=float) for k, v in obj.items()})
