"""Matrix2, the type of companion_power's result, kept apart from core so
that dataclasses is imported only where a matrix is made."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Matrix2:
    """A 2x2 matrix with exact entries (ints or Fractions)."""

    e11: int | Fraction
    e12: int | Fraction
    e21: int | Fraction
    e22: int | Fraction

    @staticmethod
    def identity() -> "Matrix2":
        return Matrix2(1, 0, 0, 1)

    def __matmul__(self, other: "Matrix2") -> "Matrix2":
        return Matrix2(
            self.e11 * other.e11 + self.e12 * other.e21,
            self.e11 * other.e12 + self.e12 * other.e22,
            self.e21 * other.e11 + self.e22 * other.e21,
            self.e21 * other.e12 + self.e22 * other.e22,
        )

    def det(self) -> int | Fraction:
        return self.e11 * self.e22 - self.e12 * self.e21
