"""Named sweep presets for the eighteen bundled parameter-study figures.

Figures 1-9 sweep the bond price over the time axis, figures 10-18 repeat the
same sweeps for the credit spread.  Figures 5, 8, 14 and 17 move the two
schedule entries in opposite directions, so their series cross inside the
first interval instead of staying ordered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

__all__ = ["FigurePreset", "FIGURE_PRESETS"]


@dataclass(frozen=True)
class FigurePreset:
    figure: int
    quantity: Literal["price", "spread"]
    parameter: str
    values: tuple
    base_overrides: tuple[tuple[str, float], ...] = ()

    @property
    def name(self) -> str:
        return f"fig{self.figure:02d}-{self.quantity}-{self.parameter}"


def _sweeps(quantity: str, start: int) -> dict[int, FigurePreset]:
    return {
        start + 0: FigurePreset(start + 0, quantity, "R", (0.2, 0.5, 0.95)),
        start + 1: FigurePreset(start + 1, quantity, "s_V", (0.5, 1.0, 1.5)),
        start + 2: FigurePreset(start + 2, quantity, "x", (200.0, 350.0, 500.0)),
        start + 3: FigurePreset(
            start + 3, quantity, "K", ((50.0, 50.0), (100.0, 100.0), (150.0, 150.0))
        ),
        start + 4: FigurePreset(
            start + 4, quantity, "K", ((50.0, 150.0), (100.0, 100.0), (150.0, 50.0))
        ),
        start + 5: FigurePreset(start + 5, quantity, "K2", (50.0, 100.0, 150.0)),
        start + 6: FigurePreset(
            start + 6, quantity, "lambda", ((0.001, 0.002), (0.01, 0.02), (0.1, 0.2))
        ),
        start + 7: FigurePreset(
            start + 7, quantity, "lambda", ((0.001, 0.2), (0.01, 0.02), (0.1, 0.002))
        ),
        start + 8: FigurePreset(
            start + 8,
            quantity,
            "lambda1",
            (0.002, 0.02, 0.2),
            base_overrides=(("lambda0", 0.01),),
        ),
    }


FIGURE_PRESETS: dict[int, FigurePreset] = {**_sweeps("price", 1), **_sweeps("spread", 10)}
