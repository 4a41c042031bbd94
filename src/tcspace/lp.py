"""Exact rational linear programming in one form: minimize c.x subject to
Ax = b and x >= 0.

A dense two-phase simplex with Bland's pivoting rule, which guarantees
termination without any tolerance machinery.  Speed is not the point: this
backs the verification oracle only, on small instances, and takes the LP
that oracle poses as it is: equality rows, nonnegative columns, a minimum.

The simplex runs on one integer tableau.  Coefficients and right-hand sides
given as ints stay ints; any other value is read by `to_fraction`.  A
constraint row is negated if its right-hand side is negative, then scaled by
the lcm L_i of its own denominators (1 for an all-int row) and filled in
from its nonzero coefficients; its artificial keeps coefficient 1 and stands
for its value times L_i.  The phase-2 cost row, scaled by the lcm C of its
denominators, is the last row.  Phase 1 appends its row after it, the column
sums of the constraint rows, each weighed by L / L_i (L the lcm of the
rows' scales), so every reduced cost keeps the sign it has over Fractions
and Bland's rule takes the same pivots.  Pivots are fraction-free (Edmonds
1967, Bareiss 1968): every entry is its value times a common divisor d > 0,
which starts at 1.  A pivot on p leaves the pivot row as it is, maps every
other row r, in place, to (p*r - r[j]*prow) // d, an exact division, and
makes p the new d.  When p == d, an entry over a zero of the pivot row maps
to itself, so only the rows with r[j] != 0 are computed, and in them only
the pivot row's nonzero columns: on a totally unimodular LP with int data
every pivot and every d is 1, and a pivot touches only the entries that can
change (the oracle's pivot rows are mostly zeros).  The ratio test compares by
cross-multiplication, so Fractions are built only for the returned point
(b_i / d) and value (-cost[-1] / (d*C)).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .rational import to_fraction


class LPStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: LPStatus
    value: Fraction | None
    x: list[Fraction] | None

    def __getitem__(self, var: int) -> Fraction:
        return self.x[var]


def _exact(value) -> int | Fraction:
    """An int as it is (not a bool), anything else by to_fraction."""
    return value if type(value) is int else to_fraction(value)


class ExactLP:
    """Incrementally built LP over nonnegative variables; solve() runs the
    two-phase simplex."""

    def __init__(self):
        self._nvars = 0
        self._cons: list[tuple[dict[int, int | Fraction], int | Fraction]] = []
        self._obj: dict[int, int | Fraction] = {}

    def add_var(self) -> int:
        self._nvars += 1
        return self._nvars - 1

    def _coeffs(self, coeffs: dict) -> dict[int, int | Fraction]:
        out = {}
        for var, c in coeffs.items():
            if not 0 <= var < self._nvars:
                raise IndexError(f"unknown variable {var}")
            c = _exact(c)
            if c != 0:
                out[var] = c
        return out

    def add_eq(self, coeffs: dict, rhs) -> None:
        self._cons.append((self._coeffs(coeffs), _exact(rhs)))

    def minimize(self, coeffs: dict) -> None:
        self._obj = self._coeffs(coeffs)

    # -- the integer tableau ------------------------------------------------

    def _build(self):
        """The integer tableau of the LP and the scale of each row.

        Constraint row i is [structural, artificial, b] with b >= 0, and
        starts with its artificial, column nvars + i, basic.  The cost row,
        scaled by C, is last.  Returns the tableau, the scale L_i of each
        constraint row, and C.
        """
        width = self._nvars + len(self._cons) + 1

        def scaled(coeffs, rhs, sign):
            """sign * (coeffs, rhs) as an integer row of the tableau, scaled
            by the lcm of its denominators, and that lcm."""
            scale = lcm(rhs.denominator, *(c.denominator for c in coeffs.values()))
            row = [0] * width
            row[-1] = sign * rhs.numerator * (scale // rhs.denominator)
            for var, c in coeffs.items():
                row[var] = sign * c.numerator * (scale // c.denominator)
            return row, scale

        t: list[list[int]] = []
        scales: list[int] = []
        for i, (coeffs, rhs) in enumerate(self._cons):
            row, scale = scaled(coeffs, rhs, -1 if rhs < 0 else 1)
            row[self._nvars + i] = 1
            t.append(row)
            scales.append(scale)
        row, scale = scaled(self._obj, 0, 1)
        return t + [row], scales, scale

    # -- simplex core --------------------------------------------------------

    @staticmethod
    def _pivot(t, basis, d, i, j):
        """Pivot every row of t on t[i][j] > 0, in place; return the new
        divisor.  When p == d, an entry a over a 0 of the pivot row maps to
        (d*a) // d = a: only the rows with r[j] != 0 change, and only in the
        pivot row's nonzero columns."""
        prow = t[i]
        p = prow[j]
        cols = [(k, b) for k, b in enumerate(prow) if b or p != d]
        for r, row in enumerate(t):
            f = row[j]
            if r != i and (f or p != d):
                for k, b in cols:
                    row[k] = (p * row[k] - f * b) // d
        basis[i] = j
        return p

    @staticmethod
    def _iterate(t, basis, d, allowed):
        """Bland's rule on the last row of t, entering columns < allowed.

        Returns the divisor d once that row is optimal, None if unbounded.
        The constraint rows are the first len(basis) rows of t.
        """
        while True:
            cost = t[-1]
            enter = next((j for j in range(allowed) if cost[j] < 0), None)
            if enter is None:
                return d
            leave = None
            for i in range(len(basis)):
                a, b = t[i][enter], t[i][-1]
                if a > 0:
                    # b / a against the best ratio lb / la so far
                    cmp = 0 if leave is None else b * la - lb * a
                    if leave is None or cmp < 0 or (cmp == 0 and basis[i] < basis[leave]):
                        leave, la, lb = i, a, b
            if leave is None:
                return None
            d = ExactLP._pivot(t, basis, d, leave, enter)

    def solve(self) -> LPResult:
        t, scales, scale = self._build()
        n = self._nvars
        basis = list(range(n, n + len(scales)))
        d = 1
        if basis:
            # Phase 1 minimizes weight times the sum of the artificials in
            # their rows' own units: row i's artificial stands for L_i times it.
            weight = lcm(*scales)
            rows = [row if s == weight else [weight // s * a for a in row]
                    for row, s in zip(t, scales)]
            p1 = [-sum(col) for col in zip(*rows)]
            p1[n:-1] = [0] * len(scales)
            t.append(p1)
            d = self._iterate(t, basis, d, n)
            assert d, "phase 1 is always bounded below"
            if t.pop()[-1] != 0:
                return LPResult(LPStatus.INFEASIBLE, None, None)
            # Drive leftover artificials out; drop rows that went redundant.
            drop = []
            for i in range(len(basis)):
                if basis[i] >= n:
                    piv = next((j for j in range(n) if t[i][j] != 0), None)
                    if piv is None:
                        drop.append(i)
                        continue
                    if t[i][piv] < 0:
                        t[i] = [-a for a in t[i]]  # its b is 0
                    d = self._pivot(t, basis, d, i, piv)
            for i in reversed(drop):
                del t[i], basis[i]
        d = self._iterate(t, basis, d, n)
        if d is None:
            return LPResult(LPStatus.UNBOUNDED, None, None)
        x = [Fraction(0)] * n
        for row, col in zip(t, basis):
            x[col] = Fraction(row[-1], d)
        return LPResult(LPStatus.OPTIMAL, Fraction(-t[-1][-1], d * scale), x)
