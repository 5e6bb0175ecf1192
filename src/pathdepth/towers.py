"""Colon/sum towers for the cyclic path ideals of length 3 and n-2.

Starting from L_0 = J the tower repeatedly forms L_j = (L_{j-1} : pivot)
and U_j = (L_{j-1}, pivot) for a fixed schedule of variable pivots, which
fits the short exact sequences 0 -> S/L_j -> S/L_{j-1} -> S/U_j -> 0.
The terminal L ideal and each U ideal are isomorphic to smaller line or
cycle edge/path ideals under explicit relabelings; those identifications
are what the checker verifies.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ideals import MonomialIdeal, minimalize, monomial, monomial_vars
from .graphs import cycle_ideal_order, cycle_window, line_ideal, path_ideal_order
from .oracle import ceil_div, family_module


@dataclass(frozen=True)
class TowerStep:
    index: int
    pivot: int  # variable index of the pivot x_pivot
    lj: MonomialIdeal
    uj: MonomialIdeal
    # True where the alternate recursion (U_{j-1}, pivot) would give a
    # different ideal than the (L_{j-1}, pivot) convention used here
    conventions_diverge: bool = False


@dataclass(frozen=True)
class Tower:
    family: str  # "j3" or "jn2"
    n: int
    l0: MonomialIdeal
    steps: tuple[TowerStep, ...]

    @property
    def terminal(self) -> MonomialIdeal:
        return self.steps[-1].lj


def j3_pivots(n: int) -> list[int]:
    """Pivot variable schedule for the J_{n,3} tower."""
    if n < 4:
        raise ValueError("J3 tower needs n >= 4")
    if n in (4, 5):
        return [n]
    k = ceil_div(n, 4)
    pivots = [n]
    # general steps 2..k-2 use pivot x_{4j} after step j
    for j in range(1, k - 2):
        pivots.append(4 * j)
    r = n % 4
    if r in (0, 3):
        last_two = [4 * (k - 2), 4 * (k - 1)]
    elif r == 2:
        last_two = [4 * (k - 2), 4 * (k - 1) - 1]
    else:  # r == 1
        last_two = [4 * (k - 2) - 1, 4 * (k - 1) - 2]
    if k >= 3:
        pivots.extend(last_two)
    else:
        pivots.append(last_two[1])
    return pivots


def tower_sequence(family: str, n: int) -> Tower:
    """Build the L_j/U_j tower for the J_{n,3} or J_{n,n-2} family."""
    if family == "j3":
        pivots = j3_pivots(n)
    elif family == "jn2":
        if n < 5:
            raise ValueError("Jn-2 tower needs n >= 5")
        pivots = [n - j + 1 for j in range(1, n - 3)]
    else:
        raise ValueError(f"unknown tower family {family!r}")
    _, l0 = family_module(family, n)
    steps = []
    cur = l0
    prev_u = None
    for j, piv in enumerate(pivots, start=1):
        mask = 1 << (piv - 1)
        lj = cur.colon(mask)
        uj = cur.add_generator(mask)
        diverge = prev_u is not None and prev_u.add_generator(mask) != uj
        steps.append(TowerStep(j, piv, lj, uj, diverge))
        cur, prev_u = lj, uj
    return Tower(family, n, l0, tuple(steps))


# -- displayed generator lists -------------------------------------------

def displayed_l0_j3(n: int) -> MonomialIdeal:
    return minimalize([cycle_window(n, i) for i in range(1, n + 1)], n)


def displayed_l1_j3(n: int) -> MonomialIdeal:
    """(u_2, ..., u_{n-4}, u_{n-2}/x_n, u_{n-1}/x_n, u_n/x_n)."""
    gens = [cycle_window(n, i) for i in range(2, n - 3)] + wrap_trio(n)
    return minimalize(gens, n)


def displayed_u1_j3(n: int) -> MonomialIdeal:
    """(u_1, ..., u_{n-3}, x_n)."""
    gens = [cycle_window(n, i) for i in range(1, n - 2)] + [1 << (n - 1)]
    return minimalize(gens, n)


def wrap_trio(n: int) -> list[int]:
    """The three wrap generators with x_n divided out."""
    xn = 1 << (n - 1)
    return [cycle_window(n, i) & ~xn for i in (n - 2, n - 1, n)]


def block(n: int, t: int) -> list[int]:
    """Block t of the proof towers: u_{4t-2}/x_{4t}, u_{4t-1}/x_{4t}, u_{4t}/x_{4t}."""
    x4t = 1 << (4 * t - 1)
    return [cycle_window(n, i) & ~x4t for i in (4 * t - 2, 4 * t - 1, 4 * t)]


def expected_v_w(n: int, step: int):
    """Expected degree-2 part V and degree-3 part W of U_step, step >= 2.

    Returns (v_gens, w_gens, path_order) where path_order is the vertex
    count of the path edge ideal V is claimed isomorphic to.
    """
    k = ceil_div(n, 4)
    r = n % 4
    if not 2 <= step <= k:
        raise ValueError(f"step {step} outside 2..{k}")
    if step < k:  # middle steps, including k-1
        v = wrap_trio(n) + [g for t in range(1, step - 1) for g in block(n, t)]
        if r == 1 and step == k - 1:
            w_lo = 4 * (k - 2)
        else:
            w_lo = 4 * (step - 1) + 1
        w = [cycle_window(n, i) for i in range(w_lo, n - 3)]
        return v, w, 3 * (step - 1) + 1
    # final step
    if r == 1:
        v = wrap_trio(n) + [g for t in range(1, k - 2) for g in block(n, t)]
        x = 1 << (4 * (k - 2) - 2)  # x_{4(k-2)-1}
        v += [cycle_window(n, i) & ~x for i in (4 * (k - 2) - 2, 4 * (k - 2) - 1)]
        order = n - k
    else:
        v = wrap_trio(n) + [g for t in range(1, k - 1) for g in block(n, t)]
        order = {0: n - k - 2, 3: n - k - 1, 2: n - k}[r]
    return v, [], order


@dataclass
class TowerCheckResult:
    ok: bool
    failures: list[str]

    def __bool__(self):
        return self.ok


def check_tower_identifications(tower: Tower) -> TowerCheckResult:
    """Verify the proof-level identifications along a tower."""
    failures: list[str] = []
    if tower.family == "j3":
        _check_j3(tower, failures)
    elif tower.family == "jn2":
        _check_jn2(tower, failures)
    else:
        failures.append(f"unknown family {tower.family}")
    return TowerCheckResult(not failures, failures)


def _check_j3(tower: Tower, failures: list[str]) -> None:
    n = tower.n
    steps = tower.steps
    # U_1 = I_{n-1,3} extended by x_n
    want_u1 = minimalize([*line_ideal(n - 1, 3).gens, 1 << (n - 1)], n)
    if steps[0].uj != want_u1:
        failures.append("U_1 is not I_{n-1,3} + (x_n)")
    # terminal identification
    term = tower.terminal
    if n == 5:
        if path_ideal_order(term) != 4:
            failures.append("terminal L is not a path ideal I_{4,2}")
    else:
        k = 1 if n == 4 else ceil_div(n, 4)
        if cycle_ideal_order(term) != n - k:
            failures.append(f"terminal L_k is not a cycle ideal J_{{{n - k},2}}")
    if n < 6:
        return
    k = ceil_div(n, 4)
    for step in steps[1:]:
        s = step.index
        v, w, order = expected_v_w(n, s)
        pivot_mask = 1 << (step.pivot - 1)
        want = minimalize(v + w + [pivot_mask], n)
        if step.uj != want:
            failures.append(f"U_{s} != (x_{step.pivot}) + V_{s} + W_{s}")
            continue
        v_ideal = minimalize(v, n)
        if path_ideal_order(v_ideal) != order:
            failures.append(f"V_{s} is not a path ideal on {order} vertices")
        if w:
            lo = min(min(monomial_vars(g)) for g in w)
            hi = max(max(monomial_vars(g)) for g in w)
            span = hi - lo + 1
            want_w = {monomial(range(i, i + 3), n) for i in range(lo, hi - 1)}
            if set(w) != want_w:
                failures.append(f"W_{s} is not a shifted line ideal of length 3")
            # claimed W ≅ I_{t,3}: t consecutive vertices
            expect_span = (n - 4 * s + 3) if (n % 4 == 1 and s == k - 1) \
                else (n - 4 * s + 2)
            if span != expect_span:
                failures.append(f"W_{s} spans {span} vertices, expected {expect_span}")


def _check_jn2(tower: Tower, failures: list[str]) -> None:
    n = tower.n
    steps = tower.steps
    # U_1 = I_{n-1,n-2} extended by x_n
    want_u1 = minimalize([*line_ideal(n - 1, n - 2).gens, 1 << (n - 1)], n)
    if steps[0].uj != want_u1:
        failures.append("U_1 is not I_{n-1,n-2} + (x_n)")
    # U_j = (x_1...x_{n-j-1}, x_{n-j+1}) for j >= 2
    for step in steps[1:]:
        j = step.index
        want = minimalize([monomial(range(1, n - j), n),
                           1 << (n - j)], n)
        if step.uj != want:
            failures.append(f"U_{j} is not (x_1..x_{n - j - 1}, x_{n - j + 1})")
    # terminal L_{n-4} = (x_3 x_4, x_4 x_1, x_1 x_2)
    want_term = minimalize([monomial([3, 4], n), monomial([4, 1], n),
                            monomial([1, 2], n)], n)
    if tower.terminal != want_term:
        failures.append("terminal L_{n-4} is not (x3x4, x4x1, x1x2)")


def check_exact_sequence_inequalities(tower: Tower, values_l: list[int],
                                      values_u: list[int],
                                      quantity: str) -> bool:
    """Check the short-exact-sequence inequalities along a tower.

    values_l[j] is the quantity for S/L_j (j = 0..k) and values_u[j-1]
    the one for S/U_j.  Both invariants of the middle module are bounded
    below by the minimum over the ends; for depth the two standard
    companion bounds on the end terms are checked as well.
    """
    k = len(tower.steps)
    if len(values_l) != k + 1 or len(values_u) != k:
        raise ValueError("value lists do not match the tower length")
    for j in range(1, k + 1):
        m, l, u = values_l[j - 1], values_l[j], values_u[j - 1]
        if m < min(l, u):
            return False
        if quantity == "depth":
            if l < min(m, u + 1):
                return False
            if u < min(l - 1, m):
                return False
    return True
