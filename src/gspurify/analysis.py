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

import numpy as np

from .errors import BadParam, BracketError, EmptyRegion, InvalidParam, NoFixedPoint
from .graphs import Graph, GraphKind, standard_graph
from .protocol import Protocol, StepFn, _RoundMeter, a_support_steps, standard_steps, trajectory
from .states import (
    GDState,
    apply_pauli_channel,
    bitflip_b_noise,
    global_white,
    prepared_with_channel_noise,
    pure_target,
    rho_a_family,
    rho_a_support,
)

GAIN_MARGIN = 1e-9  # a member must beat its input fidelity by this much
P_MIN_GRID = 64  # family members a p_min probe tries at each p
STALL_EPS = 5e-14  # per-period fidelity change treated as a hard stall


class Family(Enum):
    RHO_Q = "rho-q"
    RHO_X = "rho-x"
    RHO_A = "rho-a"
    RESTRICTED_BITFLIP = "restricted-bitflip"


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


def _fixed_point_full(
    s0: GDState,
    steps: list[tuple[str, StepFn]],
    meter: _RoundMeter | None = None,
) -> tuple[float, GDState]:
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
    for rnd in trajectory(s0, steps, 40000, STALL_EPS, meter, whole_periods=True):
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


def f_max(
    g: Graph,
    p: float,
    f_m: float = 0.0,
    schedule: tuple[Protocol, ...] = (Protocol.P1, Protocol.P2),
    meter: _RoundMeter | None = None,
) -> float:
    """Stationary fidelity of the noisy alternating protocol, reached by
    iterating from the pure target state. Returns 1.0 for perfect operations."""
    if not 0.0 < p <= 1.0:
        raise BadParam(f"p={p} outside (0,1]")
    if p == 1.0 and f_m == 0.0:
        return 1.0
    steps = standard_steps(schedule, p, f_m)
    return _fixed_point_full(pure_target(g), steps, meter=meter)[0]


# ---------------------------------------------------------------------------
# purification predicates


def _climbs_to(
    s0: GDState,
    steps: list[tuple[str, StepFn]],
    target: float,
    reach_tol: float,
    r_max: int = 20000,
    meter: _RoundMeter | None = None,
) -> bool:
    """True when the trajectory from s0 reaches within reach_tol of target,
    having either started there or strictly gained fidelity on the way."""
    f0 = s0.fidelity
    if f0 >= target - reach_tol:
        return True
    for rnd in trajectory(s0, steps, r_max, STALL_EPS, meter, whole_periods=True):
        f = rnd.state.fidelity
        if f >= target - reach_tol:
            return f >= f0 + GAIN_MARGIN
        if rnd.below_floor or rnd.stalled:
            return False  # diverged, or settled short of the target
    return False


def _gains_and_holds(
    s0: GDState,
    steps: list[tuple[str, StepFn]],
    meter: _RoundMeter | None = None,
) -> bool:
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
    for rnd in trajectory(s0, steps, 6000, STALL_EPS, meter, whole_periods=True):
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


def _low_biased_grid(lo: float, hi: float, points: int) -> np.ndarray:
    """Grid over (lo, hi] crowded toward lo, where near-threshold gain
    regions collapse."""
    offsets = np.geomspace(1e-5, 1.0, points)
    return lo + (hi - lo) * offsets


# ---------------------------------------------------------------------------
# threshold searches


def _bisect(lo: float, hi: float, pred, tol: float) -> tuple[float, float, float]:
    """Bisection on a boolean predicate over [lo, hi].

    Requires the predicate to differ at the bracket ends; re-verifies both
    ends after the search. Returns (value, lo, hi) with hi - lo <= 2 tol.
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
    if pred(a) != p_lo or pred(b) != p_hi:
        raise BracketError(f"bracket ends changed truth value on re-verification at [{a}, {b}]")
    return 0.5 * (a + b), a, b


def _family_state(g: Graph, family: Family, param: float) -> GDState:
    if family is Family.RHO_Q:
        return prepared_with_channel_noise(g, param)
    if family is Family.RHO_X:
        return global_white(g, param)
    if family in (Family.RHO_A, Family.RESTRICTED_BITFLIP):
        return rho_a_family(g, param)
    raise BadParam(f"unknown family {family!r}")


def _schedule_for(family: Family) -> tuple[Protocol, ...]:
    # Pure-B-support inputs carry information only in their A syndromes, so
    # only the A-information round is applied; the mirror round would spread
    # the A distribution instead of sharpening it.
    if family in (Family.RHO_A, Family.RESTRICTED_BITFLIP):
        return (Protocol.P1,)
    return (Protocol.P1, Protocol.P2)


def _f_min_bracket(
    g: Graph,
    family: Family,
    p: float,
    tolerance: float,
    meter: _RoundMeter | None,
) -> tuple[float, float, float]:
    if family not in (Family.RHO_X, Family.RHO_A):
        raise BadParam(f"f_min is defined for RHO_X and RHO_A, got {family}")
    schedule = _schedule_for(family)
    target = f_max(g, p, schedule=schedule, meter=meter)
    steps = standard_steps(schedule, p, 0.0)

    def pred(param: float) -> bool:
        return _climbs_to(_family_state(g, family, param), steps, target, 1e-6, meter=meter)

    value, lo, hi = _bisect(0.0, 1.0, pred, tolerance)
    fid = lambda x: _family_state(g, family, x).fidelity
    return fid(value), fid(lo), fid(hi)


def f_min(
    g: Graph,
    family: Family,
    p: float,
    tolerance: float = 1e-6,
    meter: _RoundMeter | None = None,
) -> float:
    """Smallest input fidelity within the family that still purifies to the
    p-dependent stationary fidelity. Bisects the family parameter and returns
    the fidelity of the critical member."""
    value, _, _ = _f_min_bracket(g, family, p, tolerance, meter)
    return value


def _q_min_bracket(
    g: Graph, p: float, tolerance: float, meter: _RoundMeter | None
) -> tuple[float, float, float]:
    target = f_max(g, p, meter=meter)
    steps = standard_steps((Protocol.P1, Protocol.P2), p, 0.0)

    def pred(q: float) -> bool:
        return _climbs_to(prepared_with_channel_noise(g, q), steps, target, 1e-6, meter=meter)

    return _bisect(0.5, 1.0, pred, tolerance)


def q_min(g: Graph, p: float, tolerance: float = 1e-6, meter: _RoundMeter | None = None) -> float:
    """Smallest per-particle channel quality q whose output state purifies."""
    value, _, _ = _q_min_bracket(g, p, tolerance, meter)
    return value


def _p_min_bracket(
    g: Graph,
    family: Family,
    tolerance: float,
    meter: _RoundMeter | None,
) -> tuple[float, float, float]:
    if family is Family.RESTRICTED_BITFLIP:
        lo_f = 1.0 / (1 << g.n_a)
        grid = _low_biased_grid(lo_f, 1.0, P_MIN_GRID)

        def pred(p: float) -> bool:
            steps = a_support_steps(g, p)  # the state never leaves B-part 0
            return any(
                _gains_and_holds(rho_a_support(g, f), steps, meter=meter)
                for f in grid
            )

    elif family is Family.RHO_Q:
        grid = np.linspace(0.9999, 0.5, P_MIN_GRID)  # descending: fast members first

        def pred(p: float) -> bool:
            steps = standard_steps((Protocol.P1, Protocol.P2), p, 0.0)
            try:
                target, settled = _fixed_point_full(pure_target(g), steps, meter=meter)
            except NoFixedPoint:
                return False
            if not _target_dominates(settled):
                return False  # merged into a failure plateau, not a purified state
            for q in grid:
                s0 = prepared_with_channel_noise(g, q)
                if s0.fidelity >= target - 1e-3:
                    continue  # already at the fixed point, not a gain witness
                if _climbs_to(s0, steps, target, 1e-3, r_max=6000, meter=meter):
                    return True
            return False

    else:
        raise BadParam(f"p_min is defined for RHO_Q and RESTRICTED_BITFLIP, got {family}")

    return _bisect(0.4, 1.0, pred, tolerance)


def p_min(
    g: Graph,
    family: Family,
    tolerance: float = 1e-4,
    meter: _RoundMeter | None = None,
) -> float:
    """Smallest local-operation quality p for which some family member still
    purifies, by bisection over p in [0.4, 1]."""
    value, _, _ = _p_min_bracket(g, family, tolerance, meter)
    return value


def restricted_gain_region(n: int, p: float, tolerance: float = 1e-6) -> tuple[float, float]:
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
    """
    if n % 2 != 0 or n < 4:
        raise InvalidParam(f"closed cluster needs even n >= 4, got {n}")
    if not 0.0 < p <= 1.0:
        raise BadParam(f"p={p} outside (0,1]")
    g = standard_graph(GraphKind.CLOSED_CLUSTER, n)
    u0 = 1.0 / (1 << g.n_a)
    signal = bitflip_b_noise(pure_target(g), p).lam  # noise-propagated pure part
    background = rho_a_family(g, u0).lam  # uniform over the A-support
    s0 = float(signal[0])

    def gain(x: float) -> bool:
        lam = x * signal + (1.0 - x) * background
        accepted = float(lam @ lam)  # success probability of the perfect round
        f_signal = (x * x * s0 * s0 + (1.0 - x) ** 2 * u0 * u0) / accepted
        return f_signal > x + (1.0 - x) * u0

    top = 1.0 - 1e-9
    grid = np.geomspace(2.0 ** (-0.7 * n), top, 200)
    flags = [gain(float(x)) for x in grid]
    if not any(flags):
        raise EmptyRegion(f"no gain anywhere on the scan grid for n={n}, p={p}")
    first = flags.index(True)
    last = len(flags) - 1 - flags[::-1].index(True)

    def edge(x_false: float, x_true: float) -> float:
        while abs(x_true - x_false) > tolerance:
            mid = 0.5 * (x_false + x_true)
            if gain(mid):
                x_true = mid
            else:
                x_false = mid
        return 0.5 * (x_false + x_true)

    x_lo = edge(float(grid[first - 1]), float(grid[first])) if first > 0 else float(grid[0])
    x_hi = edge(float(grid[last + 1]), float(grid[last])) if last < len(grid) - 1 else top
    return x_lo, x_hi


# ---------------------------------------------------------------------------
# bipartite comparison


_BELL_X = [2, 3, 0, 1]  # parity flip: Phi+ <-> Psi+, Psi- <-> Phi-
_BELL_Y = [1, 0, 3, 2]  # both flips: Phi+ <-> Psi-, Psi+ <-> Phi-
_BELL_Z = [3, 2, 1, 0]  # phase flip: Phi+ <-> Phi-, Psi- <-> Psi+


def _bell_depolarize(vec: np.ndarray, p: float) -> np.ndarray:
    """One-sided depolarizing noise on a Bell-diagonal coefficient vector."""
    mix = vec + vec[_BELL_X] + vec[_BELL_Y] + vec[_BELL_Z]
    return p * vec + (1.0 - p) / 4.0 * mix


def dejmps_step(b: BellDiag, p: float = 1.0) -> tuple[BellDiag, float]:
    """One round of the standard bipartite recurrence on two identical pairs.

    The deterministic pre-rotations of the protocol are compiled into the
    coefficient shuffle; noise is one depolarizing pass per qubit (four in
    total) before the perfect round.
    """
    if not 0.0 < p <= 1.0:
        raise BadParam(f"p={p} outside (0,1]")
    vec = b.vec
    if p < 1.0:
        vec = _bell_depolarize(_bell_depolarize(vec, p), p)
    a, bb, c, d = vec
    norm = (a + bb) ** 2 + (c + d) ** 2
    out = np.array([a * a + bb * bb, 2.0 * c * d, c * c + d * d, 2.0 * a * bb]) / norm
    return BellDiag(*(float(x) for x in out)), float(norm)


def dejmps_fixed_point(p: float, start: BellDiag | None = None, r_max: int = 20000) -> BellDiag:
    """Attracting fixed point of the noisy bipartite recurrence."""
    b = start if start is not None else BellDiag(1.0, 0.0, 0.0, 0.0)
    prev = b.vec
    for _ in range(r_max):
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


# ---------------------------------------------------------------------------
# report-producing wrapper used by the command-line front end


def threshold_report(g: Graph, family: Family, quantity: str, p: float = 1.0) -> ThresholdReport:
    meter = _RoundMeter()
    if quantity == "fmin":
        tol = 1e-6
        value, lo, hi = _f_min_bracket(g, family, p, tol, meter)
    elif quantity == "qmin":
        tol = 1e-6
        value, lo, hi = _q_min_bracket(g, p, tol, meter)
    elif quantity == "pmin":
        tol = 1e-4
        value, lo, hi = _p_min_bracket(g, family, tol, meter)
    elif quantity == "fmax":
        tol = 1e-9
        value = f_max(g, p, meter=meter)
        lo, hi = value - tol, value + tol
    else:
        raise BadParam(f"unknown quantity {quantity!r}")
    return ThresholdReport(
        family=family.value,
        lo=lo,
        hi=hi,
        value=value,
        tolerance=tol,
        rounds_used=meter.rounds,
    )
