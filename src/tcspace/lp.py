"""Exact rational linear programming.

A dense two-phase simplex over Fractions with Bland's pivoting rule, which
guarantees termination without any tolerance machinery.  Speed is not the
point: this backs the verification oracle only, on small instances.  Still,
pivots skip zero entries and slack columns seed the initial basis, so
artificial variables appear only for equality-like rows.

Variables are nonnegative unless declared free (free variables are split
into positive and negative parts internally).  Constraints are <=, >=, or ==
with exact rational data.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .rational import ONE, ZERO, to_fraction


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


class ExactLP:
    """Incrementally built LP; solve() runs the two-phase simplex."""

    def __init__(self):
        self._free: list[bool] = []
        self._cons: list[tuple[dict[int, Fraction], str, Fraction]] = []
        self._obj: dict[int, Fraction] = {}
        self._maximize = False

    def add_var(self, free: bool = False) -> int:
        self._free.append(free)
        return len(self._free) - 1

    def _coeffs(self, coeffs: dict) -> dict[int, Fraction]:
        out = {}
        for var, c in coeffs.items():
            if not 0 <= var < len(self._free):
                raise IndexError(f"unknown variable {var}")
            c = to_fraction(c)
            if c != 0:
                out[var] = c
        return out

    def add_le(self, coeffs: dict, rhs) -> None:
        self._cons.append((self._coeffs(coeffs), "<=", to_fraction(rhs)))

    def add_ge(self, coeffs: dict, rhs) -> None:
        self._cons.append((self._coeffs(coeffs), ">=", to_fraction(rhs)))

    def add_eq(self, coeffs: dict, rhs) -> None:
        self._cons.append((self._coeffs(coeffs), "==", to_fraction(rhs)))

    def maximize(self, coeffs: dict) -> None:
        self._obj = self._coeffs(coeffs)
        self._maximize = True

    def minimize(self, coeffs: dict) -> None:
        self._obj = self._coeffs(coeffs)
        self._maximize = False

    # -- standard form -----------------------------------------------------

    def _build(self):
        """Expand to min c.x, Ax = b, x >= 0 with slack columns.

        Returns the rows, rhs, cost row, column count, the variable-to-
        column maps, and per-row basis seeds (slack columns usable as an
        identity start, None where an artificial is needed).
        """
        col_pos: list[int] = []
        col_neg: list[int | None] = []
        ncols = 0
        for free in self._free:
            col_pos.append(ncols)
            ncols += 1
            if free:
                col_neg.append(ncols)
                ncols += 1
            else:
                col_neg.append(None)
        nslack = sum(1 for _, sense, _ in self._cons if sense != "==")
        total = ncols + nslack
        rows: list[list[Fraction]] = []
        b: list[Fraction] = []
        seeds: list[int | None] = []
        slack_at = ncols
        for coeffs, sense, rhs in self._cons:
            row = [ZERO] * total
            for var, c in coeffs.items():
                row[col_pos[var]] += c
                if col_neg[var] is not None:
                    row[col_neg[var]] -= c
            flip = rhs < 0
            if flip:
                row = [-x for x in row]
                rhs = -rhs
            seed = None
            if sense != "==":
                sign = ONE if sense == "<=" else -ONE
                if flip:
                    sign = -sign
                row[slack_at] = sign
                if sign > 0:
                    seed = slack_at
                slack_at += 1
            rows.append(row)
            b.append(rhs)
            seeds.append(seed)
        cost = [ZERO] * total
        sign = -ONE if self._maximize else ONE
        for var, c in self._obj.items():
            cost[col_pos[var]] += sign * c
            if col_neg[var] is not None:
                cost[col_neg[var]] -= sign * c
        return rows, b, cost, total, col_pos, col_neg, seeds

    # -- simplex core --------------------------------------------------------

    @staticmethod
    def _pivot(rows, b, cost_rows, basis, i, j):
        prow = rows[i]
        piv = prow[j]
        if piv != 1:
            inv = 1 / piv
            for idx, x in enumerate(prow):
                if x:
                    prow[idx] = x * inv
            b[i] *= inv
        pb = b[i]
        nz = [idx for idx, x in enumerate(prow) if x]
        for r, row in enumerate(rows):
            if r == i:
                continue
            f = row[j]
            if f:
                for idx in nz:
                    row[idx] -= f * prow[idx]
                b[r] -= f * pb
        for cr in cost_rows:
            f = cr[j]
            if f:
                for idx in nz:
                    cr[idx] -= f * prow[idx]
                cr[-1] -= f * pb
        basis[i] = j

    @staticmethod
    def _iterate(rows, b, cost, extra_cost, basis, allowed):
        """Bland's rule until optimal (returns True) or unbounded (False).

        `cost` has one trailing cell holding minus the objective value.
        `extra_cost` rows are kept reduced alongside (phase 1 carries the
        phase-2 costs this way).
        """
        m = len(rows)
        while True:
            enter = None
            for j in range(allowed):
                if cost[j] < 0:
                    enter = j
                    break
            if enter is None:
                return True
            leave = None
            best = None
            for i in range(m):
                a = rows[i][enter]
                if a > 0:
                    ratio = b[i] / a
                    if best is None or ratio < best or (
                            ratio == best and basis[i] < basis[leave]):
                        best = ratio
                        leave = i
            if leave is None:
                return False
            ExactLP._pivot(rows, b, [cost] + extra_cost, basis, leave, enter)

    def solve(self) -> LPResult:
        rows, b, cost, total, col_pos, col_neg, seeds = self._build()
        m = len(rows)
        art_rows = [i for i in range(m) if seeds[i] is None]
        nart = len(art_rows)
        for row in rows:
            row.extend(ZERO for _ in range(nart))
        basis = [0] * m
        for pos, i in enumerate(art_rows):
            rows[i][total + pos] = ONE
            basis[i] = total + pos
        for i in range(m):
            if seeds[i] is not None:
                basis[i] = seeds[i]
        p2 = cost + [ZERO] * nart + [ZERO]
        if art_rows:
            p1 = [ZERO] * (total + nart) + [ZERO]
            for i in art_rows:
                for j in range(total):
                    if rows[i][j]:
                        p1[j] -= rows[i][j]
                p1[-1] -= b[i]
            ok = self._iterate(rows, b, p1, [p2], basis, total)
            assert ok, "phase 1 is always bounded below"
            if p1[-1] != 0:
                return LPResult(LPStatus.INFEASIBLE, None, None)
            # Drive leftover artificials out; drop rows that went redundant.
            drop = []
            for i in range(m):
                if basis[i] >= total:
                    piv = next((j for j in range(total) if rows[i][j] != 0), None)
                    if piv is None:
                        drop.append(i)
                    else:
                        self._pivot(rows, b, [p1, p2], basis, i, piv)
            for i in reversed(drop):
                del rows[i], b[i], basis[i]
        if not self._iterate(rows, b, p2, [], basis, total):
            return LPResult(LPStatus.UNBOUNDED, None, None)
        xcols = [ZERO] * total
        for i, col in enumerate(basis):
            xcols[col] = b[i]
        x = []
        for var in range(len(self._free)):
            val = xcols[col_pos[var]]
            if col_neg[var] is not None:
                val -= xcols[col_neg[var]]
            x.append(val)
        value = -p2[-1]
        if self._maximize:
            value = -value
        return LPResult(LPStatus.OPTIMAL, value, x)
