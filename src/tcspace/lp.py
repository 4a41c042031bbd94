"""Exact rational linear programming.

A dense two-phase simplex with Bland's pivoting rule, which guarantees
termination without any tolerance machinery.  Speed is not the point: this
backs the verification oracle only, on small instances.  Still, slack columns
seed the initial basis, so artificial variables appear only for
equality-like rows.

The simplex runs on one integer tableau.  Coefficients and right-hand sides
given as ints stay ints; any other value is read by `to_fraction`.  A
constraint row is negated if its right-hand side is negative, then scaled by
the lcm L_i of its own denominators (1 for an all-int row) and filled in
from its nonzero coefficients; its slack or artificial keeps coefficient +-1
and stands for its value times L_i.  The phase-2 cost row, scaled by the lcm
C of its denominators, is the last row.  Phase 1 appends its row after it,
the column sums of the artificial rows, each weighed by L / L_i (L the lcm
of the artificial rows' scales), so every reduced cost keeps the sign it has
over Fractions and Bland's rule takes the same pivots.  Pivots are
fraction-free (Edmonds 1967, Bareiss 1968): every entry is its value times a
common divisor d > 0, which starts at 1.  A pivot on p leaves the pivot row
as it is, maps every other row r to (p*r - r[j]*prow) // d, an exact
division, and makes p the new d.  When p == d, a row with r[j] == 0 maps to
itself, so it is skipped: on a totally unimodular LP with int data every
pivot and every d is 1, and a pivot touches only the rows that change.  The
ratio test compares by cross-multiplication, so Fractions are built only for
the returned point (b_i / d) and value (-cost[-1] / (d*C)).

Variables are nonnegative unless declared free (free variables are split
into positive and negative parts internally).  Constraints are <= or ==
with exact rational data.
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
    """Incrementally built LP; solve() runs the two-phase simplex."""

    def __init__(self):
        self._free: list[bool] = []
        self._cons: list[tuple[dict[int, int | Fraction], str, int | Fraction]] = []
        self._obj: dict[int, int | Fraction] = {}
        self._maximize = False

    def add_var(self, free: bool = False) -> int:
        self._free.append(free)
        return len(self._free) - 1

    def _coeffs(self, coeffs: dict) -> dict[int, int | Fraction]:
        out = {}
        for var, c in coeffs.items():
            if not 0 <= var < len(self._free):
                raise IndexError(f"unknown variable {var}")
            c = _exact(c)
            if c != 0:
                out[var] = c
        return out

    def add_le(self, coeffs: dict, rhs) -> None:
        self._cons.append((self._coeffs(coeffs), "<=", _exact(rhs)))

    def add_eq(self, coeffs: dict, rhs) -> None:
        self._cons.append((self._coeffs(coeffs), "==", _exact(rhs)))

    def maximize(self, coeffs: dict) -> None:
        self._obj = self._coeffs(coeffs)
        self._maximize = True

    def minimize(self, coeffs: dict) -> None:
        self._obj = self._coeffs(coeffs)
        self._maximize = False

    # -- the integer tableau ------------------------------------------------

    def _build(self):
        """The integer tableau of min c.x, Ax = b, x >= 0, and its basis.

        Each constraint row is [structural, slack, artificial, b].  A row
        whose slack has coefficient +1 starts with that slack basic, any
        other with an artificial of its own.  The cost row, scaled by C, is
        last.  Returns the tableau, the basis, the scale L_i of each
        artificial row i, C, the number of structural and slack columns,
        and the variable-to-column maps.
        """
        col_pos: list[int] = []
        col_neg: list[int | None] = []
        ncols = 0
        for free in self._free:
            col_pos.append(ncols)
            col_neg.append(ncols + 1 if free else None)
            ncols += 2 if free else 1
        # The slack's coefficient once the row is negated; 0 for none.
        slack = [0 if sense == "==" else 1 if rhs >= 0 else -1
                 for _, sense, rhs in self._cons]
        total = ncols + sum(s != 0 for s in slack)
        width = total + sum(s <= 0 for s in slack) + 1

        def scaled(coeffs, rhs, sign):
            """sign * (coeffs, rhs) as an integer row of the tableau, scaled
            by the lcm of its denominators, and that lcm."""
            scale = lcm(rhs.denominator, *(c.denominator for c in coeffs.values()))
            row = [0] * width
            row[-1] = sign * rhs.numerator * (scale // rhs.denominator)
            for var, c in coeffs.items():
                row[col_pos[var]] = a = sign * c.numerator * (scale // c.denominator)
                if col_neg[var] is not None:
                    row[col_neg[var]] = -a
            return row, scale

        t: list[list[int]] = []
        basis: list[int] = []
        art: dict[int, int] = {}
        slack_at, art_at = ncols, total
        for (coeffs, _, rhs), s in zip(self._cons, slack):
            row, scale = scaled(coeffs, rhs, -1 if rhs < 0 else 1)
            if s:
                row[slack_at] = s
                slack_at += 1
            if s > 0:
                basis.append(slack_at - 1)
            else:
                row[art_at] = 1
                art[len(t)] = scale
                basis.append(art_at)
                art_at += 1
            t.append(row)
        row, scale = scaled(self._obj, 0, -1 if self._maximize else 1)
        return t + [row], basis, art, scale, total, col_pos, col_neg

    # -- simplex core --------------------------------------------------------

    @staticmethod
    def _pivot(t, basis, d, i, j):
        """Pivot every row of t on t[i][j] > 0; return the new divisor.  A
        row with 0 in column j is left as it is when p == d: it maps to
        itself."""
        prow = t[i]
        p = prow[j]
        for r, row in enumerate(t):
            f = row[j]
            if r != i and (f or p != d):
                t[r] = [(p * a - f * b) // d for a, b in zip(row, prow)]
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
        t, basis, art, scale, total, col_pos, col_neg = self._build()
        d = 1
        if art:
            # Phase 1 minimizes weight times the sum of the artificials in
            # their rows' own units: row i's artificial stands for L_i times it.
            weight = lcm(*art.values())
            rows = [t[i] if s == weight else [weight // s * a for a in t[i]]
                    for i, s in art.items()]
            p1 = [-sum(col) for col in zip(*rows)]
            p1[total:-1] = [0] * len(art)
            t.append(p1)
            d = self._iterate(t, basis, d, total)
            assert d, "phase 1 is always bounded below"
            if t.pop()[-1] != 0:
                return LPResult(LPStatus.INFEASIBLE, None, None)
            # Drive leftover artificials out; drop rows that went redundant.
            drop = []
            for i in range(len(basis)):
                if basis[i] >= total:
                    piv = next((j for j in range(total) if t[i][j] != 0), None)
                    if piv is None:
                        drop.append(i)
                        continue
                    if t[i][piv] < 0:
                        t[i] = [-a for a in t[i]]  # its b is 0
                    d = self._pivot(t, basis, d, i, piv)
            for i in reversed(drop):
                del t[i], basis[i]
        d = self._iterate(t, basis, d, total)
        if d is None:
            return LPResult(LPStatus.UNBOUNDED, None, None)
        xcols = [0] * total
        for row, col in zip(t, basis):
            xcols[col] = row[-1]
        x = [Fraction(xcols[pos] - (0 if neg is None else xcols[neg]), d)
             for pos, neg in zip(col_pos, col_neg)]
        value = Fraction(-t[-1][-1], d * scale)
        if self._maximize:
            value = -value
        return LPResult(LPStatus.OPTIMAL, value, x)
