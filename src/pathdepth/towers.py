"""Colon/sum towers for the cyclic path ideals of length 3 and n-2.

Starting from L_0 = J the tower repeatedly forms L_j = (L_{j-1} : pivot)
and U_j = (L_{j-1}, pivot) for a fixed schedule of variable pivots, which
fits the short exact sequences 0 -> S/L_j -> S/L_{j-1} -> S/U_j -> 0.
The terminal L ideal and each U ideal are claimed to be smaller line or
cycle edge/path ideals on listed variables; the checker builds each
claimed ideal and compares it with the tower's by equality.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ideals import MonomialIdeal, monomial
from .graphs import cycle_ideal, cycle_window, line_ideal
from .oracle import FAMILIES, QUANTITIES, ceil_div, family_module


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
    """Pivot variable schedule for the J_{n,3} tower.

    x_n, then x_4, x_8, ..., x_{4(k-1)} with k = ceil(n/4); the last pivot
    moves down by 1 at n = 2 (mod 4), the last two by 1 and 2 at
    n = 1 (mod 4).  n = 5 takes the single pivot x_5.
    """
    if n < 4:
        raise ValueError("J3 tower needs n >= 4")
    if n == 5:
        return [5]
    pivots = [n] + [4 * j for j in range(1, ceil_div(n, 4))]
    if n % 4 == 2:
        pivots[-1] -= 1
    elif n % 4 == 1:
        pivots[-2:] = [pivots[-2] - 1, pivots[-1] - 2]
    return pivots


def _pivots(family: str, n: int) -> list[int]:
    """The pivot schedule of the J_{n,3} or J_{n,n-2} tower."""
    if family == "j3":
        return j3_pivots(n)
    if family == "jn2":
        if n < 5:
            raise ValueError("Jn-2 tower needs n >= 5")
        return [n - j + 1 for j in range(1, n - 3)]
    raise ValueError(f"unknown tower family {family!r}")


def tower_sequence(family: str, n: int) -> Tower:
    """Build the L_j/U_j tower for the J_{n,3} or J_{n,n-2} family."""
    pivots = _pivots(family, n)
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
    return cycle_ideal(n, 3)


def displayed_l1_j3(n: int) -> MonomialIdeal:
    """(u_2, ..., u_{n-4}, u_{n-2}/x_n, u_{n-1}/x_n, u_n/x_n)."""
    xn = 1 << (n - 1)
    gens = [cycle_window(n, i) for i in range(2, n - 3)]
    gens += [cycle_window(n, i) & ~xn for i in (n - 2, n - 1, n)]
    return MonomialIdeal(n, tuple(gens))


def displayed_u1_j3(n: int) -> MonomialIdeal:
    """(u_1, ..., u_{n-3}, x_n)."""
    return _claimed_u1("j3", n)


def _claimed_u1(family: str, n: int) -> MonomialIdeal:
    """U_1 = I_{n-1,m} + (x_n), the first sum of either family's tower."""
    line = line_ideal(n - 1, FAMILIES[family].m(n))
    return MonomialIdeal(n, (*line.gens, 1 << (n - 1)))


def _unpivoted(n: int, pivots) -> list[int]:
    """The variables no pivot takes, read cyclically from x_{n-2}."""
    cyclic = ((n - 3 + i) % n + 1 for i in range(n))
    return [v for v in cyclic if v not in pivots]


def _path(order: list[int]) -> list[int]:
    """Edges x_a x_b of the path through the variables in ``order``."""
    return [(1 << (a - 1)) | (1 << (b - 1)) for a, b in zip(order, order[1:])]


def expected_v_w(n: int, step: int):
    """Expected degree-2 part V and degree-3 part W of U_step, step >= 2.

    V is claimed to be the path I_{3s-2,2} through the first 3s - 2
    variables (all n - s of them at the last step when n = 1 (mod 4)) that
    none of the first s pivots takes, read cyclically from x_{n-2}.  W is
    claimed to be I_{.,3} on x_{p_s+1}, ..., x_{n-2}; it is zero at the
    last step.
    """
    pivots = j3_pivots(n)
    if not 2 <= step <= len(pivots):
        raise ValueError(f"step {step} outside 2..{len(pivots)}")
    v = _path(_unpivoted(n, pivots[:step])[:3 * step - 2])
    w = [cycle_window(n, i) for i in range(pivots[step - 1] + 1, n - 3)]
    return v, w


@dataclass
class TowerCheckResult:
    ok: bool
    failures: list[str]

    def __bool__(self):
        return self.ok


def check_tower_identifications(tower: Tower) -> TowerCheckResult:
    """Verify the proof-level identifications along a tower."""
    check = {"j3": _check_j3, "jn2": _check_jn2}.get(tower.family)
    if check is None:
        return TowerCheckResult(False, [f"unknown family {tower.family}"])
    steps, schedule = len(tower.steps), len(_pivots(tower.family, tower.n))
    if steps != schedule:
        return TowerCheckResult(
            False, [f"tower has {steps} steps, its schedule {schedule}"])
    failures: list[str] = []
    if tower.steps[0].uj != _claimed_u1(tower.family, tower.n):
        line = FAMILIES[tower.family].name.replace("J_{n,", "I_{n-1,")
        failures.append(f"U_1 is not {line} + (x_n)")
    check(tower, failures)
    return TowerCheckResult(not failures, failures)


def _check_j3(tower: Tower, failures: list[str]) -> None:
    n, k = tower.n, len(tower.steps)
    # L_k is the cycle on the variables no pivot of this tower takes; at
    # n = 5, u_1 = x_1x_2x_3 keeps x_2x_3 out, leaving the path 3-4-1-2
    left = _unpivoted(n, [step.pivot for step in tower.steps])
    if n == 5:
        if tower.terminal != MonomialIdeal(n, tuple(_path(left))):
            failures.append("terminal L is not a path ideal I_{4,2}")
    elif tower.terminal != MonomialIdeal(n, tuple(_path(left + left[:1]))):
        failures.append(f"terminal L_k is not a cycle ideal J_{{{n - k},2}}")
    for step in tower.steps[1:]:
        s = step.index
        v, w = expected_v_w(n, s)
        if step.uj != MonomialIdeal(n, (*v, *w, 1 << (step.pivot - 1))):
            failures.append(f"U_{s} != (x_{step.pivot}) + V_{s} + W_{s}")


def _check_jn2(tower: Tower, failures: list[str]) -> None:
    n = tower.n
    # U_j = (x_1...x_{n-j-1}, x_{n-j+1}) for j >= 2
    for step in tower.steps[1:]:
        j = step.index
        if step.uj != MonomialIdeal(n, (monomial(range(1, n - j), n), 1 << (n - j))):
            failures.append(f"U_{j} is not (x_1..x_{n - j - 1}, x_{n - j + 1})")
    if tower.terminal != MonomialIdeal.from_vars(n, [[3, 4], [4, 1], [1, 2]]):
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
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
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
