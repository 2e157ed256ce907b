"""Fixed points, thresholds and the bipartite-distillation comparison.

The searches here wrap the recurrence driver with bisection. Near a
threshold the recurrence suffers critical slowing (the per-round fidelity
change vanishes), so the fixed-point estimator accelerates convergence with
Aitken extrapolation once the period-to-period deltas decay geometrically,
and the purification predicates bail out early on decisively rising or
falling trajectories instead of waiting for full convergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import BadParam, BracketError, EmptyRegion, InvalidParam, NoFixedPoint, TooLarge
from .graphs import Graph, GraphKind, standard_graph
from .protocol import ROUNDS_APPLIED, Protocol, StepFn, a_support_steps, p1_step, standard_steps, trajectory
from .states import (
    GDState,
    apply_pauli_channel,
    global_white,
    prepared_with_channel_noise,
    pure_target,
    rho_a_family,
    rho_a_support,
)

GAIN_MARGIN = 1e-9  # a member must beat its input fidelity by this much
P_MIN_GRID = 64  # family members a p_min probe tries at each p
STALL_EPS = 5e-14  # per-period fidelity change treated as a hard stall
GAIN_EDGE_TOL = 5e-7  # bracket half-width a gain-region edge is returned at
DEJMPS_ROUNDS = 20000  # round budget of the bipartite fixed point
GAIN_RING_MAX = 1022  # largest ring the gain region reads: u0^2 = 2^-n is still a normal double
_PAIR = standard_graph(GraphKind.GHZ, 2)  # the Bell pair as a graph state


class Family(Enum):
    RHO_Q = "rho-q"
    RHO_X = "rho-x"
    RHO_A = "rho-a"
    RESTRICTED_BITFLIP = "restricted-bitflip"


# The families with an input state of their own: restricted-bitflip is the
# rho-a input under B-vertex bit flips, a noise model only p_min reads.
STATE_FAMILIES = (Family.RHO_Q, Family.RHO_X, Family.RHO_A)


@dataclass(frozen=True)
class BellDiag:
    """Bell-basis diagonal coefficients, ordered (Phi+, Psi-, Psi+, Phi-)."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        vec = (self.a, self.b, self.c, self.d)
        if min(vec) < -1e-12:
            raise BadParam(f"negative Bell coefficient in {vec}")
        if abs(sum(vec) - 1.0) > 1e-9:
            raise BadParam(f"Bell coefficients sum to {sum(vec)}, not 1")

    @property
    def vec(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c, self.d])

    @property
    def fidelity(self) -> float:
        return self.a


@dataclass(frozen=True)
class ThresholdReport:
    family: str
    lo: float
    hi: float
    value: float
    tolerance: float
    rounds_used: int


def ra_map_closed_form(f: float, n_a: int) -> float:
    """Fidelity map of one perfect A-information round on the rank-2^n_a
    family: f^2 / (f^2 + (1-f)^2 / (2^n_a - 1))."""
    if not 0.0 <= f <= 1.0:
        raise BadParam(f"f={f} outside [0,1]")
    if n_a < 1:
        raise BadParam(f"n_a={n_a} must be at least 1")
    denom = f * f + (1.0 - f) ** 2 / (2**n_a - 1)
    if denom == 0.0:
        raise BadParam("map undefined: the input family member has zero weight")
    return f * f / denom


# ---------------------------------------------------------------------------
# fixed points


def _fixed_point_full(s0: GDState, steps: list[tuple[str, StepFn]]) -> tuple[float, GDState]:
    """Stationary fidelity of the schedule map from s0, plus a late state.

    Runs whole periods; returns on a hard stall, or extrapolates the limit
    once the deltas decay geometrically with a stable ratio (Aitken), in
    which case iteration continues until the state itself is within 0.02 of
    the limit so the returned state reflects the limit's shape. Raises
    NoFixedPoint if the trajectory falls below the uniform-state fidelity.
    """
    state = s0
    f_prev = state.fidelity
    d_prev = None
    ratio_prev = None
    limit_prev = None
    limit_found = None
    for rnd in trajectory(s0, steps, 40000, STALL_EPS, whole_periods=True):
        state = rnd.state
        f = state.fidelity
        if rnd.below_floor:
            raise NoFixedPoint(f"fidelity {f} fell below the uniform value {1.0 / s0.graph.dim}")
        if limit_found is not None:
            if abs(f - limit_found) <= 0.02:
                return limit_found, state
            continue
        d = f - f_prev
        f_prev = f
        if rnd.stalled:
            return f, state
        if d_prev is not None and d_prev != 0.0:
            ratio = d / d_prev
            if (
                ratio_prev is not None
                and abs(ratio - ratio_prev) < 2e-3
                and abs(ratio) < 0.9995
            ):
                limit = f + d * ratio / (1.0 - ratio)
                if limit_prev is not None and abs(limit - limit_prev) < 1e-11:
                    if abs(f - limit) <= 0.02:
                        return float(limit), state
                    limit_found = float(limit)
                limit_prev = limit
            else:
                limit_prev = None
            ratio_prev = ratio
        d_prev = d
    if limit_found is not None:
        return limit_found, state
    return (float(limit_prev) if limit_prev is not None else f_prev), state


def f_max(g: Graph, p: float, schedule: tuple[Protocol, ...] = (Protocol.P1, Protocol.P2)) -> float:
    """Stationary fidelity of the gate-noisy protocol with perfect
    measurements, reached by iterating from the pure target state. Returns
    1.0 for perfect operations."""
    if not 0.0 < p <= 1.0:
        raise BadParam(f"p={p} outside (0,1]")
    if p == 1.0:
        return 1.0
    return _fixed_point_full(pure_target(g), standard_steps(schedule, p, 0.0))[0]


# ---------------------------------------------------------------------------
# purification predicates


def _climbs_to(
    s0: GDState,
    steps: list[tuple[str, StepFn]],
    target: float,
    reach_tol: float,
    r_max: int = 20000,
) -> bool:
    """True when the trajectory from s0 reaches within reach_tol of target,
    having either started there or strictly gained fidelity on the way."""
    f0 = s0.fidelity
    if f0 >= target - reach_tol:
        return True
    for rnd in trajectory(s0, steps, r_max, STALL_EPS, whole_periods=True):
        f = rnd.state.fidelity
        if f >= target - reach_tol:
            return f >= f0 + GAIN_MARGIN
        if rnd.below_floor or rnd.stalled:
            return False  # diverged, or settled short of the target
    return False


def _gains_and_holds(s0: GDState, steps: list[tuple[str, StepFn]]) -> bool:
    """True when the trajectory from s0 strictly gains fidelity and never
    turns back down before settling or exhausting the budget.

    This is the sharp criterion near the restricted-model threshold, where
    the stationary fidelity approaches the family floor and convergence
    slows without bound: a sustained climb identifies the gain region even
    when the budget ends mid-crawl.
    """
    f0 = s0.fidelity
    prev = f0
    declines = 0
    for rnd in trajectory(s0, steps, 6000, STALL_EPS, whole_periods=True):
        f = rnd.state.fidelity
        if rnd.below_floor or f < f0 - 1e-12:
            return False
        delta = f - prev
        if delta < -1e-13:
            declines += 1
            if declines >= 3:
                return False
        else:
            declines = 0
        if rnd.stalled:
            return f >= f0 + GAIN_MARGIN  # settled; purifying iff above the input
        prev = f
    return prev >= f0 + GAIN_MARGIN and declines == 0


def _target_dominates(state: GDState) -> bool:
    """Whether the target coefficient strictly dominates every other one.

    The recurrence map's failure plateaus are symmetric mixtures in which
    the target syndrome ties with some error syndrome (half-half two-point
    mixtures and the uniform state are stationary at any noise level), so a
    dead trajectory settles with its two largest coefficients nearly equal;
    on the purifying branch the target exceeds the runner-up severalfold.
    Measured settled ratios are <= 0.2 on live branches and 1 on plateaus,
    so the 0.5 cut has wide margins on both sides.
    """
    lam = state.lam
    top = float(lam.max())
    second = float(np.partition(lam, -2)[-2])
    return second <= 0.5 * top and top == float(lam[0])


def _purified_target(g: Graph, p: float, steps: list[tuple[str, StepFn]]) -> float:
    """The fidelity the schedule settles at from the pure target at gate
    quality p, refused with NoFixedPoint when the settled state is a failure
    plateau rather than a purified state."""
    target, settled = _fixed_point_full(pure_target(g), steps)
    if not _target_dominates(settled):
        raise NoFixedPoint(f"at p={p} iteration from the pure target settles on a failure plateau "
                           f"(fidelity {target}), not a purified state")
    return target


def _low_biased_grid(lo: float, hi: float, points: int) -> np.ndarray:
    """Grid over (lo, hi] crowded toward lo, where near-threshold gain
    regions collapse."""
    offsets = np.geomspace(1e-5, 1.0, points)
    return lo + (hi - lo) * offsets


# ---------------------------------------------------------------------------
# threshold searches


def _bisect(lo: float, hi: float, pred, tol: float) -> tuple[float, float, float]:
    """Bisection on a boolean predicate over [lo, hi].

    Requires the predicate to differ at the bracket ends and judges each
    point once. Returns (value, lo, hi) with hi - lo <= 2 tol.
    """
    p_lo = pred(lo)
    p_hi = pred(hi)
    if p_lo == p_hi:
        raise BracketError(f"predicate is {p_lo} at both ends of [{lo}, {hi}]")
    a, b = lo, hi
    for _ in range(60):
        if b - a <= 2.0 * tol:
            break
        mid = 0.5 * (a + b)
        if pred(mid) == p_hi:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b), a, b


def _family_state(g: Graph, family: Family, param: float) -> GDState:
    if family is Family.RHO_Q:
        return prepared_with_channel_noise(g, param)
    if family is Family.RHO_X:
        return global_white(g, param)
    if family is Family.RHO_A:
        return rho_a_family(g, param)
    raise BadParam(f"{family.value} has no input state of its own")


def _climb_bracket(
    g: Graph, family: Family, p: float, tolerance: float, lo: float
) -> tuple[float, float, float]:
    """Bisect the family parameter over [lo, 1] for the least member whose
    trajectory climbs to the p-dependent stationary fidelity, which must be
    a purified state's (`_purified_target`)."""
    if not 0.0 < p <= 1.0:
        raise BadParam(f"p={p} outside (0,1]")
    # Pure-B-support inputs carry information only in their A syndromes, so
    # only the A-information round is applied; the mirror round would spread
    # the A distribution instead of sharpening it.
    schedule = (Protocol.P1,) if family is Family.RHO_A else (Protocol.P1, Protocol.P2)
    steps = standard_steps(schedule, p, 0.0)
    target = _purified_target(g, p, steps) if p < 1.0 else 1.0

    def pred(param: float) -> bool:
        return _climbs_to(_family_state(g, family, param), steps, target, 1e-6)

    return _bisect(lo, 1.0, pred, tolerance)


def _f_min_search(g: Graph, family: Family, p: float, tolerance: float) -> tuple[float, float, float]:
    """The climb bracket over the whole family, mapped to member fidelities."""
    return tuple(_family_state(g, family, x).fidelity for x in _climb_bracket(g, family, p, tolerance, 0.0))


def _p_min_search(g: Graph, family: Family, _p: float, tolerance: float) -> tuple[float, float, float]:
    """Bisect p over [0.4, 1] for the least p at which some family member
    still gains; the search picks its own p values."""
    if family is Family.RESTRICTED_BITFLIP:
        lo_f = 1.0 / (1 << g.n_a)
        grid = _low_biased_grid(lo_f, 1.0, P_MIN_GRID)

        def pred(p: float) -> bool:
            steps = a_support_steps(g, p)  # the state never leaves B-part 0
            return any(_gains_and_holds(rho_a_support(g, f), steps) for f in grid)

    else:  # rho-q
        grid = np.linspace(0.9999, 0.5, P_MIN_GRID)  # descending: fast members first

        def pred(p: float) -> bool:
            steps = standard_steps((Protocol.P1, Protocol.P2), p, 0.0)
            try:
                target = _purified_target(g, p, steps)
            except NoFixedPoint:
                return False  # diverged, or merged into a failure plateau
            for q in grid:
                s0 = prepared_with_channel_noise(g, q)
                if s0.fidelity >= target - 1e-3:
                    continue  # already at the fixed point, not a gain witness
                if _climbs_to(s0, steps, target, 1e-3, r_max=6000):
                    return True
            return False

    return _bisect(0.4, 1.0, pred, tolerance)


def _f_max_search(g: Graph, family: Family, p: float, tolerance: float) -> tuple[float, float, float]:
    value = f_max(g, p)
    return value, value - tolerance, value + tolerance


class Quantity(NamedTuple):
    tolerance: float  # bracket half-width a threshold search stops at
    families: tuple[Family, ...]  # the input families its search reads
    reads_p: bool  # False when the search picks its own p
    # (g, family, p, tolerance) -> (value, lo, hi)
    search: Callable[[Graph, Family, float, float], tuple[float, float, float]]


# The threshold quantities, and the one table threshold_report runs them
# from. f_min is the least input fidelity within the family that still
# purifies to the p-dependent stationary fidelity, q_min the least channel
# quality q in [1/2, 1] whose output state does, p_min the least gate
# quality at which some member still gains, and f_max that stationary
# fidelity itself. f_max iterates from the pure target; it belongs to rho-q
# and rho-x, whose searches climb to that P1P2 fixed point.
QUANTITIES = {
    "fmin": Quantity(1e-6, (Family.RHO_X, Family.RHO_A), True, _f_min_search),
    "qmin": Quantity(1e-6, (Family.RHO_Q,), True, partial(_climb_bracket, lo=0.5)),
    "pmin": Quantity(1e-4, (Family.RHO_Q, Family.RESTRICTED_BITFLIP), False, _p_min_search),
    "fmax": Quantity(1e-9, (Family.RHO_Q, Family.RHO_X), True, _f_max_search),
}


def threshold_report(
    g: Graph, family: Family, quantity: str, p: float = 1.0, tolerance: float | None = None
) -> ThresholdReport:
    """Run the quantity's search from QUANTITIES at its tolerance (or the
    one given), refusing a family the search does not read and a p it does
    not use. rounds_used counts every round a trajectory applied meanwhile."""
    if quantity not in QUANTITIES:
        raise BadParam(f"unknown quantity {quantity!r}")
    entry = QUANTITIES[quantity]
    if family not in entry.families:
        names = ", ".join(f.value for f in entry.families)
        raise BadParam(f"{quantity} is defined for {names}, got {family.value}")
    if p != 1.0 and not entry.reads_p:
        raise BadParam(f"{quantity} picks its own p; got p={p}")
    tol = entry.tolerance if tolerance is None else tolerance
    start = ROUNDS_APPLIED.get()
    value, lo, hi = entry.search(g, family, p, tol)
    return ThresholdReport(family.value, lo, hi, value, tol, ROUNDS_APPLIED.get() - start)


def f_min(g: Graph, family: Family, p: float, tolerance: float | None = None) -> float:
    """Smallest input fidelity within the family that still purifies."""
    return threshold_report(g, family, "fmin", p, tolerance).value


def q_min(g: Graph, p: float, tolerance: float | None = None) -> float:
    """Smallest per-particle channel quality q whose output state purifies."""
    return threshold_report(g, Family.RHO_Q, "qmin", p, tolerance).value


def p_min(g: Graph, family: Family, tolerance: float | None = None) -> float:
    """Smallest local-operation quality p for which some member still purifies."""
    return threshold_report(g, family, "pmin", tolerance=tolerance).value


def _ring_signal_sums(m: int, p: float) -> tuple[float, float]:
    """s0 and the sum of squares of the pure A-support state after a ring's m
    B-vertex flips: each A-pattern comes from two complementary flip patterns,
    and only all-keep and all-flip leave every A-vertex untouched."""
    flip = (1.0 - p) / 2.0
    keep = 1.0 - flip
    cross = 2.0 * keep * flip
    return keep**m + flip**m, (1.0 - cross) ** m + cross**m


def restricted_gain_region(n: int, p: float) -> tuple[float, float]:
    """Mixing-weight range where one restricted-noise round purifies the
    closed cluster of size n through its retained pure component.

    The input member is the pure state mixed with weight 1-x of the
    depolarized A-support state, so its fidelity is x + (1-x)/2^(n/2). One
    round propagates the input through the B-vertex bit-flip noise and the
    perfect A-information update; the region brackets the x where the output
    fidelity contributed by the surviving pure component alone (the cross
    term between that component and the uniform background is excluded)
    still beats the input fidelity. This signal-against-background balance
    is what fixes the threshold scaling: at small system sizes accidental
    background coincidences also feed the raw output fidelity, but that
    pathway dies off with the uniform floor 2^(-n/2) and supports no
    size-independent noise threshold.

    The round reads three sums of the two components, each in closed form
    (`_ring_signal_sums`; the background u0 = 2^(-n/2) sums to 1), so no
    state is built. n above GAIN_RING_MAX raises TooLarge.
    """
    if n % 2 != 0 or n < 4:
        raise InvalidParam(f"closed cluster needs even n >= 4, got {n}")
    if n > GAIN_RING_MAX:
        raise TooLarge(f"ring n={n} exceeds the gain region's limit of {GAIN_RING_MAX}")
    if not 0.0 < p <= 1.0:
        raise BadParam(f"p={p} outside (0,1]")
    u0 = 2.0 ** -(n // 2)
    s0, sum_sq = _ring_signal_sums(n // 2, p)

    def gain(x: float) -> bool:
        # lam @ lam with lam = x signal + (1-x) background: the perfect round's success probability
        accepted = x * x * sum_sq + 2.0 * x * (1.0 - x) * u0 + (1.0 - x) ** 2 * u0
        f_signal = (x * x * s0 * s0 + (1.0 - x) ** 2 * u0 * u0) / accepted
        return f_signal > x + (1.0 - x) * u0

    top = 1.0 - 1e-9
    grid = np.geomspace(2.0 ** (-0.7 * n), top, 200).tolist()
    flags = [gain(x) for x in grid]
    if not any(flags):
        raise EmptyRegion(f"no gain anywhere on the scan grid for n={n}, p={p}")
    first = flags.index(True)
    last = len(flags) - 1 - flags[::-1].index(True)
    x_lo = _bisect(grid[first - 1], grid[first], gain, GAIN_EDGE_TOL)[0] if first > 0 else grid[0]
    x_hi = _bisect(grid[last], grid[last + 1], gain, GAIN_EDGE_TOL)[0] if last < len(grid) - 1 else top
    return x_lo, x_hi


# ---------------------------------------------------------------------------
# bipartite comparison


def dejmps_step(b: BellDiag, p: float = 1.0) -> tuple[BellDiag, float]:
    """One round of the standard bipartite recurrence on two identical pairs.

    A Bell pair is the two-vertex graph state, and the round is that graph's
    P1 round: (Phi+, Psi-, Psi+, Phi-) sit at syndromes 0, 2, 1, 3, and the
    output is read back from syndromes 0, 3, 1, 2, the relabelling that the
    protocol's deterministic pre-rotations compile to. Noise is one
    depolarizing pass per qubit (four in total) before the perfect round.
    """
    if not 0.0 < p <= 1.0:
        raise BadParam(f"p={p} outside (0,1]")
    lam = np.maximum(b.vec, 0.0)[[0, 2, 1, 3]]  # BellDiag admits roundoff below 0; GDState does not
    res = p1_step(GDState(_PAIR, lam), p)
    return BellDiag(*(float(x) for x in res.state.lam[[0, 3, 1, 2]])), res.p_succ


def dejmps_fixed_point(p: float, start: BellDiag | None = None) -> BellDiag:
    """Attracting fixed point of the noisy bipartite recurrence."""
    b = start if start is not None else BellDiag(1.0, 0.0, 0.0, 0.0)
    prev = b.vec
    for _ in range(DEJMPS_ROUNDS):
        b, _ = dejmps_step(b, p)
        if np.abs(b.vec - prev).max() < 1e-15:
            return b
        prev = b.vec
    return b


def bepp_bound(g: Graph, p: float) -> float:
    """Upper bound on the graph-state fidelity reachable by purifying Bell
    pairs bilaterally and assembling them perfectly.

    Each of the n-1 pairs is modeled at the bipartite fixed point, i.e. as a
    perfect pair followed by a one-sided Pauli channel with the fixed-point
    coefficients; perfect teleportation-based assembly moves each pair's
    channel onto one qubit of the perfect graph state.
    """
    if not 0.0 < p <= 1.0:
        raise BadParam(f"p={p} outside (0,1]")
    fp = dejmps_fixed_point(p)
    if fp.fidelity <= 0.5:
        raise NoFixedPoint(f"bipartite recurrence collapsed at p={p}")
    probs = (fp.a, fp.c, fp.b, fp.d)  # Phi+ -> I, Psi+ -> X, Psi- -> Y, Phi- -> Z
    s = pure_target(g)
    for v in range(1, g.n):
        s = apply_pauli_channel(s, v, probs)
    return s.fidelity
