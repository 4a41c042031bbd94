import random
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from scipy.optimize import linprog

from oracles import add_le, free_var, maximum, on_columns
from tcspace import ExactLP, InvalidInput, LPResult, LPStatus


def test_basic_maximization():
    lp = ExactLP()
    x = lp.add_var()
    y = lp.add_var()
    add_le(lp, {x: 1, y: 2}, 4)
    add_le(lp, {x: 3, y: 1}, 6)
    res = maximum(lp, {x: 1, y: 1})
    assert res.status == LPStatus.OPTIMAL
    assert res.value == Fraction(14, 5)


def test_equality_and_free_variables():
    lp = ExactLP()
    x = free_var(lp)
    y = lp.add_var()
    lp.add_eq(on_columns({x: 1, y: 1}), 1)
    lp.minimize(on_columns({x: 1}))
    res = lp.solve()
    assert res.status == LPStatus.UNBOUNDED

    lp = ExactLP()
    x = free_var(lp)
    y = lp.add_var()
    lp.add_eq(on_columns({x: 1, y: 1}), 1)
    add_le(lp, {x: -1}, 3)
    lp.minimize(on_columns({x: 1}))
    res = lp.solve()
    assert res.value == -3
    assert res[x[0]] - res[x[1]] == -3 and res[y] == 4


def test_infeasible():
    lp = ExactLP()
    x = lp.add_var()
    add_le(lp, {x: 1}, 1)
    add_le(lp, {x: -1}, -2)
    lp.minimize({x: 1})
    assert lp.solve().status == LPStatus.INFEASIBLE


def test_exact_rationals_survive():
    lp = ExactLP()
    x = lp.add_var()
    add_le(lp, {x: Fraction(3, 7)}, Fraction(1, 11))
    assert maximum(lp, {x: 1}).value == Fraction(7, 33)


def test_degenerate_redundant_rows():
    lp = ExactLP()
    x = lp.add_var()
    y = lp.add_var()
    lp.add_eq({x: 1, y: 1}, 2)
    lp.add_eq({x: 2, y: 2}, 4)  # redundant copy
    res = maximum(lp, {x: 1})
    assert res.status == LPStatus.OPTIMAL
    assert res.value == 2


def test_beale_cycling_example_terminates():
    # Classic cycling instance for naive pivoting; Bland's rule must finish.
    lp = ExactLP()
    x1, x2, x3, x4 = (lp.add_var() for _ in range(4))
    add_le(lp, {x1: Fraction(1, 4), x2: -8, x3: -1, x4: 9}, 0)
    add_le(lp, {x1: Fraction(1, 2), x2: -12, x3: Fraction(-1, 2), x4: 3}, 0)
    add_le(lp, {x3: 1}, 1)
    res = maximum(lp, {x1: Fraction(3, 4), x2: -20, x3: Fraction(1, 2), x4: -6})
    assert res.status == LPStatus.OPTIMAL
    assert res.value == Fraction(5, 4)


def test_a_leftover_artificial_leaves_on_a_negative_entry():
    # Phase 1 ends with an artificial basic at 0 in a row whose first
    # nonzero structural entry is negative: the row is negated before the
    # artificial is pivoted out, or the LP comes back unbounded.
    lp = ExactLP()
    x, y, z = (lp.add_var() for _ in range(3))
    lp.add_eq({x: 1, y: 1}, 0)
    lp.add_eq({x: 1, y: -1}, 0)
    add_le(lp, {z: 1}, 3)
    res = maximum(lp, {x: 1, y: 2, z: 1})
    assert res.status == LPStatus.OPTIMAL
    assert res.value == 3
    assert res.x[:3] == [0, 0, 3]


def _assert_exact_optimum(res, obj, rows):
    """res.x satisfies every (coeffs, sense, rhs) row exactly, and the
    objective at res.x is res.value, in Fractions.  The coefficients are on
    the structural part of x: its columns and free pairs."""
    assert all(isinstance(v, Fraction) for v in [res.value, *res.x])

    def at(coeffs):
        return sum(c * res.x[col] for col, c in on_columns(coeffs).items())

    for coeffs, sense, rhs in rows:
        lhs = at(coeffs)
        assert {"<=": lhs <= rhs, ">=": lhs >= rhs, "==": lhs == rhs}[sense]
    assert at(obj) == res.value


def test_the_tableau_holds_only_ints(monkeypatch):
    # No Fraction arithmetic in the pivot loop: every pivot sees ints only.
    seen = []
    pivot = ExactLP._pivot

    def checked(t, basis, d, i, j):
        seen.append(all(type(a) is int for row in t for a in row) and type(d) is int)
        return pivot(t, basis, d, i, j)

    monkeypatch.setattr(ExactLP, "_pivot", staticmethod(checked))
    lp = ExactLP()
    x, y = lp.add_var(), free_var(lp)
    lp.add_eq(on_columns({x: Fraction(1, 3), y: Fraction(-2, 7)}), Fraction(5, 6))
    add_le(lp, {x: Fraction(-3, 4), y: -1}, Fraction(1, 2))
    add_le(lp, {x: 1}, Fraction(9, 2))
    res = maximum(lp, {x: Fraction(2, 5), y: Fraction(1, 9)})
    assert res.status == LPStatus.OPTIMAL
    assert seen and all(seen)
    _assert_exact_optimum(res, {x: Fraction(2, 5), y: Fraction(1, 9)}, [
        ({x: Fraction(1, 3), y: Fraction(-2, 7)}, "==", Fraction(5, 6)),
        ({x: Fraction(3, 4), y: 1}, ">=", Fraction(-1, 2)),
        ({x: 1}, "<=", Fraction(9, 2)), ({x: 1}, ">=", 0)])


def test_small_transportation_instance():
    lp = ExactLP()
    a = [[lp.add_var() for _ in range(2)] for _ in range(2)]
    lp.add_eq({a[0][0]: 1, a[0][1]: 1}, 3)
    lp.add_eq({a[1][0]: 1, a[1][1]: 1}, 2)
    lp.add_eq({a[0][0]: 1, a[1][0]: 1}, 4)
    lp.add_eq({a[0][1]: 1, a[1][1]: 1}, 1)
    lp.minimize({a[0][0]: 2, a[0][1]: 5, a[1][0]: 3, a[1][1]: 1})
    res = lp.solve()
    assert res.value == 2 * 3 + 3 * 1 + 1 * 1


@pytest.mark.parametrize("seed", range(30))
def test_random_instances_match_scipy(seed):
    rng = random.Random(seed)
    nvars = rng.randint(2, 5)
    nrows = rng.randint(1, 5)
    lp = ExactLP()
    cols = [lp.add_var() for _ in range(nvars)]
    A, b, rows = [], [], []
    for _ in range(nrows):
        coeffs = {c: Fraction(rng.randint(-4, 4)) for c in cols}
        rhs = Fraction(rng.randint(0, 8))
        add_le(lp, coeffs, rhs)
        rows.append((coeffs, "<=", rhs))
        A.append([float(coeffs[c]) for c in cols])
        b.append(float(rhs))
    # box bound keeps everything bounded and feasible (x = 0 works)
    for c in cols:
        add_le(lp, {c: 1}, 10)
        rows.append(({c: 1}, "<=", 10))
        row = [0.0] * nvars
        row[c] = 1.0
        A.append(row)
        b.append(10.0)
    obj = {c: Fraction(rng.randint(-5, 5)) for c in cols}
    res = maximum(lp, obj)
    assert res.status == LPStatus.OPTIMAL
    ref = linprog(c=[-float(obj[c]) for c in cols], A_ub=np.array(A),
                  b_ub=np.array(b), bounds=[(0, None)] * nvars,
                  method="highs")
    assert ref.status == 0
    assert abs(float(res.value) - (-ref.fun)) < 1e-7
    # the returned point is feasible and attains the value
    for coeffs, rhs in zip(A, b):
        assert sum(float(coeffs[i]) * float(res.x[i]) for i in range(nvars)) \
            <= rhs + 1e-9
    assert float(sum(obj[c] * res.x[c] for c in cols)) == pytest.approx(
        float(res.value))
    _assert_exact_optimum(res, obj, rows + [({c: 1}, ">=", 0) for c in cols])


@pytest.mark.parametrize("seed", range(20))
def test_random_mixed_instances_match_scipy(seed):
    # equalities + free variables, built around a known feasible point
    rng = random.Random(1000 + seed)
    nvars = rng.randint(2, 4)
    free = [rng.random() < 0.5 for _ in range(nvars)]
    x0 = [Fraction(rng.randint(-3, 3)) if free[i] else Fraction(rng.randint(0, 3))
          for i in range(nvars)]
    lp = ExactLP()
    cols = [free_var(lp) if free[i] else lp.add_var() for i in range(nvars)]
    A_eq, b_eq, A_ub, b_ub, rows = [], [], [], [], []
    for _ in range(rng.randint(1, 2)):
        coeffs = {c: Fraction(rng.randint(-3, 3)) for c in cols}
        rhs = sum(coeffs[c] * x0[i] for i, c in enumerate(cols))
        lp.add_eq(on_columns(coeffs), rhs)
        rows.append((coeffs, "==", rhs))
        A_eq.append([float(coeffs[c]) for c in cols])
        b_eq.append(float(rhs))
    for _ in range(rng.randint(1, 3)):
        coeffs = {c: Fraction(rng.randint(-3, 3)) for c in cols}
        slack = Fraction(rng.randint(0, 4))
        rhs = sum(coeffs[c] * x0[i] for i, c in enumerate(cols)) + slack
        add_le(lp, coeffs, rhs)
        rows.append((coeffs, "<=", rhs))
        A_ub.append([float(coeffs[c]) for c in cols])
        b_ub.append(float(rhs))
    for i, c in enumerate(cols):  # box to keep it bounded
        add_le(lp, {c: 1}, 20)
        add_le(lp, {c: -1}, 20)
        rows += [({c: 1}, "<=", 20), ({c: 1}, ">=", -20)]
        if not free[i]:
            rows.append(({c: 1}, ">=", 0))
        row = [0.0] * nvars
        row[i] = 1.0
        A_ub.append(row[:])
        b_ub.append(20.0)
        A_ub.append([-x for x in row])
        b_ub.append(20.0)
    obj = {c: Fraction(rng.randint(-4, 4)) for c in cols}
    lp.minimize(on_columns(obj))
    res = lp.solve()
    assert res.status == LPStatus.OPTIMAL
    bounds = [(None, None) if free[i] else (0, None) for i in range(nvars)]
    ref = linprog(c=[float(obj[c]) for c in cols],
                  A_ub=np.array(A_ub), b_ub=np.array(b_ub),
                  A_eq=np.array(A_eq), b_eq=np.array(b_eq),
                  bounds=bounds, method="highs")
    assert ref.status == 0
    assert abs(float(res.value) - ref.fun) < 1e-7
    _assert_exact_optimum(res, obj, rows)


def test_boolean_data_is_rejected():
    lp = ExactLP()
    x = lp.add_var()
    with pytest.raises(InvalidInput):
        lp.add_eq({x: True}, 1)
    with pytest.raises(InvalidInput):
        lp.add_eq({x: 1}, False)
    with pytest.raises(InvalidInput):
        lp.minimize({x: True})


def test_unknown_variables_raise_and_an_lp_without_rows_solves_on_its_costs():
    assert ExactLP().solve() == LPResult(LPStatus.OPTIMAL, 0, [])
    lp = ExactLP()
    x, y = lp.add_var(), lp.add_var()
    for unknown in (-1, 2):
        with pytest.raises(IndexError):
            lp.add_eq({x: 1, unknown: 1}, 1)
        with pytest.raises(IndexError):
            lp.minimize({unknown: 1})
    # The calls that raised added nothing: the LP has no rows.
    lp.minimize({x: 2, y: 0})
    assert lp.solve() == LPResult(LPStatus.OPTIMAL, 0, [0, 0])
    lp.minimize({x: 2, y: -1})
    assert lp.solve().status == LPStatus.UNBOUNDED


def _random_lp(seed: int, number):
    """A random LP of <=, >= (as negated <=) and == rows over free and
    nonnegative variables, maximized or minimized, with small integer data,
    each value passed through number (int or Fraction); restated in
    ExactLP's form."""
    rng = random.Random(seed)
    lp = ExactLP()
    cols = [free_var(lp) if rng.random() < 0.3 else lp.add_var()
            for _ in range(rng.randint(2, 5))]

    def add_ge(coeffs, rhs):  # as the negated <= row
        add_le(lp, {c: -a for c, a in coeffs.items()}, -rhs)

    def add_eq(coeffs, rhs):
        lp.add_eq(on_columns(coeffs), rhs)

    add = (partial(add_le, lp), add_ge, add_eq)
    for _ in range(rng.randint(1, 5)):
        coeffs = {c: number(rng.randint(-3, 3)) for c in cols if rng.random() < 0.7}
        rng.choice(add)(coeffs, number(rng.randint(-4, 6)))
    for c in cols:
        if rng.random() < 0.8:
            add_le(lp, {c: number(1)}, number(rng.randint(5, 20)))
            add_le(lp, {c: -number(1)}, -number(-rng.randint(0, 20)))
    sign = -1 if rng.random() < 0.5 else 1  # -1: a maximum, as in maximum()
    lp.minimize(on_columns({c: sign * number(rng.randint(-5, 5)) for c in cols}))
    return lp


def test_int_data_solves_as_its_fractions(monkeypatch):
    """int coefficients and right-hand sides stay ints, and the simplex takes
    the same pivots, with the same divisors, to the same point and value as
    with the equal Fractions."""
    pivots = []
    pivot = ExactLP._pivot

    def recorded(t, basis, d, i, j):
        pivots.append((i, j, t[i][j], d))
        return pivot(t, basis, d, i, j)

    monkeypatch.setattr(ExactLP, "_pivot", staticmethod(recorded))
    statuses = set()
    for seed in range(300):
        runs = []
        for number in (int, Fraction):
            pivots.clear()
            lp = _random_lp(seed, number)
            data = [*lp._obj.values()]
            for coeffs, rhs in lp._cons:
                data += [*coeffs.values(), rhs]
            assert {type(c) for c in data} == {number}
            res = lp.solve()
            runs.append((res.status, res.value, res.x, list(pivots)))
        assert runs[0] == runs[1]
        statuses.add(runs[0][0])
    assert statuses == set(LPStatus)


def _bland_reference(lp):
    """The two-phase simplex with Bland's rule on a Fraction tableau, the
    one the integer tableau stands for: the columns are the structural ones,
    then one artificial per row, in row order; a row is negated if its
    right-hand side is negative; phase 1 minimizes the plain sum of the
    artificials; leftover artificials leave on the first structural column
    with a nonzero entry, and rows without one are dropped.  Returns
    (status, value, x, the (row, column) of every pivot)."""
    n, m = lp._nvars, len(lp._cons)
    width = n + m + 1

    def row_of(coeffs, rhs, sign):
        row = [Fraction(0)] * width
        row[-1] = sign * Fraction(rhs)
        for var, c in coeffs.items():
            row[var] = sign * Fraction(c)
        return row

    t = []
    for i, (coeffs, rhs) in enumerate(lp._cons):
        t.append(row_of(coeffs, rhs, -1 if rhs < 0 else 1))
        t[i][n + i] = Fraction(1)
    t.append(row_of(lp._obj, 0, 1))
    basis = list(range(n, n + m))
    pivots = []

    def pivot(i, j):
        pivots.append((i, j))
        p = t[i][j]
        t[i] = [a / p if a else a for a in t[i]]
        nonzero = [(k, b) for k, b in enumerate(t[i]) if b]
        for r, row in enumerate(t):
            f = row[j]
            if r != i and f:
                for k, b in nonzero:
                    row[k] -= f * b
        basis[i] = j

    def iterate():
        while True:
            enter = next((j for j in range(n) if t[-1][j] < 0), None)
            if enter is None:
                return True
            ratios = [(t[i][-1] / t[i][enter], basis[i], i)
                      for i in range(len(basis)) if t[i][enter] > 0]
            if not ratios:
                return False
            pivot(min(ratios)[2], enter)

    if m:
        phase1 = [-sum(t[i][j] for i in range(m)) for j in range(width)]
        phase1[n:-1] = [Fraction(0)] * m
        t.append(phase1)
        iterate()
        if t.pop()[-1] != 0:
            return LPStatus.INFEASIBLE, None, None, pivots
        drop = []
        for i in range(len(basis)):
            if basis[i] >= n:
                j = next((j for j in range(n) if t[i][j] != 0), None)
                if j is None:
                    drop.append(i)
                else:
                    pivot(i, j)
        for i in reversed(drop):
            del t[i], basis[i]
    if not iterate():
        return LPStatus.UNBOUNDED, None, None, pivots
    x = [Fraction(0)] * n
    for row, col in zip(t, basis):
        x[col] = row[-1]
    return LPStatus.OPTIMAL, -t[-1][-1], x, pivots


def test_phase_one_takes_the_fraction_simplex_pivots(monkeypatch):
    """Weighing each artificial by L / L_i makes Bland's rule on the integer
    tableau take the pivots of the Fraction tableau, whose phase 1 sums the
    artificials unweighted: on random LPs whose rows have their own
    denominators, the (row, column) of every pivot, the status, value and x
    are the reference's.  Several of the LPs have artificial rows of
    different scales, where unit weights would change the phase-1 costs."""
    pivots = []
    pivot = ExactLP._pivot

    def recorded(t, basis, d, i, j):
        pivots.append((i, j))
        return pivot(t, basis, d, i, j)

    monkeypatch.setattr(ExactLP, "_pivot", staticmethod(recorded))
    statuses = set()
    for seed in range(400):
        rng = random.Random(seed)
        lp = _random_lp(seed, lambda v, rng=rng: Fraction(v, rng.choice((1, 2, 3, 4, 6))))
        want = _bland_reference(lp)
        pivots.clear()
        res = lp.solve()
        assert (res.status, res.value, res.x, pivots) == want
        statuses.add(res.status)
    assert statuses == set(LPStatus)


def test_a_pivot_with_p_equal_to_d_skips_the_rows_it_leaves_alone():
    t = [[2, 1, 4], [0, 3, 5], [1, 1, 1]]
    basis = [0, 1]
    rows = list(t)
    assert ExactLP._pivot(t, basis, 2, 0, 0) == 2
    assert t[1] is rows[1] and t[1] == [0, 3, 5]
    assert t[2] == [0, 0, -1]  # (2*r - 1*prow) // 2
    # With p != d the zero row is rescaled: (3*r - 0) // 1.
    t = [[3, 1, 4], [0, 3, 5]]
    ExactLP._pivot(t, [0, 1], 1, 0, 0)
    assert t[1] == [0, 9, 15]


def _dense_pivot(t, d, i, j):
    """The fraction-free pivot on t[i][j] as a new tableau: every row but
    the pivot row rebuilt as (p*r - r[j]*prow) / d, each division exact."""
    prow, p = t[i], t[i][j]
    out = []
    for r, row in enumerate(t):
        if r == i:
            out.append(list(row))
            continue
        new = []
        for a, b in zip(row, prow):
            q, rem = divmod(p * a - row[j] * b, d)
            assert rem == 0
            new.append(q)
        out.append(new)
    return out


def test_a_pivot_equals_the_dense_pivot_on_random_exact_tableaux():
    """Chains of pivots from random integer tableaux, unimodular ones (every
    pivot and divisor 1) and general ones: each pivot gives the dense
    formula's tableau, and keeps the row objects of the pivot row and, when
    p == d, of every row with 0 in the pivot column."""
    rng = random.Random(32)
    seen = {"p == d": 0, "p == d > 1": 0, "p != d": 0}
    for _ in range(400):
        rows, cols = rng.randint(2, 6), rng.randint(2, 9)
        unimodular = rng.random() < 0.5
        t = [[rng.choice((-1, 0, 0, 1)) if unimodular else rng.randint(-3, 3)
              for _ in range(cols)] for _ in range(rows)]
        basis, d = [None] * rows, 1
        for _ in range(rng.randint(1, 5)):
            entries = [(i, j) for i in range(rows) for j in range(cols) if t[i][j] > 0]
            if not entries:
                break
            i, j = rng.choice(entries)
            p = t[i][j]
            want = _dense_pivot(t, d, i, j)
            before = list(t)
            kept = [r for r, row in enumerate(t) if r == i or (p == d and row[j] == 0)]
            assert ExactLP._pivot(t, basis, d, i, j) == p
            assert t == want and basis[i] == j
            assert all(t[r] is before[r] for r in kept)
            seen["p == d" if p == d else "p != d"] += 1
            seen["p == d > 1"] += p == d > 1
            d = p
    assert min(seen.values()) > 0 and seen["p == d"] > 300 and seen["p != d"] > 300, seen
