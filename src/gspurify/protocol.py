"""The two recurrence purification steps and the iteration driver.

Each step consumes two identical copies of the current state. The surviving
copy's coefficient update is an XOR self-convolution over one color class
with coincidence on the other, which the fast path evaluates with
Walsh-Hadamard transforms over the relevant bit subset, as products with
small Sylvester matrices. Gate noise (depolarizing every qubit of both
copies before the perfect gate layer) and classical measurement-outcome
flips both become pointwise multipliers in the transform domain. A round
takes and returns the state as its spectrum (the transform over all n
bits, in the graph's engine order, where its coincidence bits are one run),
so it transforms over those bits alone, O(2^n * |C|), with no gather, and a
trajectory transforms its input once.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import BadParam, ZeroSuccess
from .graphs import Graph
from .states import ASupportState, GDState, PauliAxis, _checked_dim, _depolarizing_pass, _power_table, pauli_flip_mask
from .transforms import _hadamard_products, _run_groups, spread_submasks


class Protocol(Enum):
    P1 = "P1"
    P2 = "P2"


class Verdict(Enum):
    CONVERGED = "converged"
    STALLED = "stalled"
    DIVERGED = "diverged"
    MAX_ROUNDS = "max-rounds"


@dataclass(frozen=True)
class StepResult:
    state: GDState
    p_succ: float


@dataclass(frozen=True)
class TraceRow:
    round: int
    protocol: str
    f_before: float
    f_after: float
    p_succ: float


@dataclass(frozen=True)
class PurificationTrace:
    rows: tuple[TraceRow, ...]
    verdict: Verdict
    expected_cost: float
    final_state: GDState

    @property
    def final_fidelity(self) -> float:
        return self.final_state.fidelity

    def to_csv(self) -> str:
        lines = ["round,protocol,F_before,F_after,p_succ,cumulative_expected_cost"]
        cost = 1.0
        for row in self.rows:
            cost *= 2.0 / row.p_succ
            lines.append(
                f"{row.round},{row.protocol},{row.f_before:.17g},"
                f"{row.f_after:.17g},{row.p_succ:.17g},{cost:.17g}"
            )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class StopRule:
    """Loop termination: converged when F >= 1 - eps, stalled when |dF| < tol
    over one full schedule period, diverged when F drops below 2^-n."""

    eps: float = 1e-6
    tol: float = 1e-12
    r_max: int = 200


# The gate-noise multiplier. A trajectory runs at one p (2^n doubles per entry);
# the channel-noise input builds it uncached, so a member loop never evicts it.
_depolarize_multiplier = lru_cache(maxsize=1)(_depolarizing_pass)


@lru_cache(maxsize=2)  # P1 and P2 alternate within one trajectory
def _measure_flip_multiplier(g: Graph, f_m: float, which: Protocol) -> np.ndarray:
    """Transform-domain multiplier of the recorded-syndrome flip distribution:
    each measured qubit flips its classical outcome independently with
    probability f_m. A flip on a vertex of the coincidence class toggles its
    own syndrome bit, one on the other class its neighbors' bits, so its
    kernel is 1 - 2 f_m on characters of odd parity with that mask."""
    coin_mask = _coincidence_mask(g, which)
    return _power_table(g, coin_mask, coin_mask ^ (g.dim - 1), 1.0 - 2.0 * f_m)


def _coincidence_mask(g: Graph, which: Protocol) -> int:
    """The syndrome bits a round compares between the copies; it convolves
    over the others."""
    return g.a_mask if which is Protocol.P1 else g.b_mask


def _check_noise(p: float, f_m: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise BadParam(f"gate parameter p={p} outside [0,1]")
    if not 0.0 <= f_m <= 0.5:
        raise BadParam(f"measurement flip probability f_m={f_m} outside [0,1/2]")


def _protocol_step(s: GDState, which: Protocol, p: float, f_m: float) -> StepResult:
    """One round on the state's spectrum, where gate noise and outcome flips
    are pointwise multipliers.

    With C the coincidence bits, the copies meet in the domain transformed
    over every other bit: x = iWHT_C(spectrum * M), with M the gate-noise
    multiplier (left out at p = 1), and its partner is x, or
    iWHT_C(spectrum * M * F) with the flip multiplier F. WHT_C of their
    product is the unnormalized output's spectrum, whose entry 0 is the
    acceptance: three transforms over C at most (`_meet_products`). M, F
    and C come from the engine graph, the spectrum's vertex order.
    """
    _check_noise(p, f_m)
    g = s.graph.engine
    # The flip multiplier is fetched before the round allocates anything: a
    # cache miss builds four 2^N-entry temporaries, which then leave no
    # round buffer behind them (a noisy-n20 pass peaks 5 MiB lower).
    flip = _measure_flip_multiplier(g, f_m, which) if f_m > 0.0 else None
    spectrum = s.spectrum if p == 1.0 else s.spectrum * _depolarize_multiplier(g, p)
    out = _meet_products(spectrum, _coincidence_mask(g, which), flip)
    p_succ = _acceptance(out[0])
    out /= p_succ
    return StepResult(GDState.from_spectrum(s.graph, out), p_succ)


def _meet_products(spectrum: np.ndarray, coin_mask: int, flip: np.ndarray | None) -> np.ndarray:
    """WHT_C(x * partner), unnormalized, with x = iWHT_C(spectrum) and
    partner x, or iWHT_C(spectrum * flip), as products over the run of bits
    coin_mask in the spectrum's own layout. spectrum is never written."""
    groups = _run_groups(coin_mask)
    x = _hadamard_products(spectrum, groups, True)
    if flip is not None:
        x *= _hadamard_products(spectrum * flip, groups, True)
    else:
        x *= x
    return _hadamard_products(x, groups)


def _acceptance(total: float) -> float:
    """Success probability of a round: the sum of its unnormalized output,
    refused when it is not finite or vanishes."""
    p_succ = float(total)
    if not math.isfinite(p_succ):
        raise BadParam(f"acceptance probability {p_succ} is not finite")
    if p_succ < 1e-300:
        raise ZeroSuccess(f"acceptance probability {p_succ} vanished")
    return p_succ


def p1_step(s: GDState, p: float = 1.0, f_m: float = 0.0) -> StepResult:
    """One round of the A-information protocol on two identical copies.

    Returns the normalized surviving state and the acceptance probability.
    p < 1 prepends one depolarizing pass per qubit on both copies; f_m > 0
    flips each recorded measurement outcome independently (a depolarizing
    pass of strength p_m right before a measurement acts the same way with
    f_m = (1 - p_m) / 2).
    """
    return _protocol_step(s, Protocol.P1, p, f_m)


def p2_step(s: GDState, p: float = 1.0, f_m: float = 0.0) -> StepResult:
    """The mirror round: information about the B syndromes is extracted, with
    the roles of the two color classes interchanged."""
    return _protocol_step(s, Protocol.P2, p, f_m)


StepFn = Callable[[GDState], StepResult]


def a_support_steps(g: Graph, p: float) -> list[tuple[str, StepFn]]:
    """The restricted bit-flip model as a step on ASupportState: bit-flip
    noise on the B-vertices of both copies, then a perfect A-information round.

    A state on the syndromes with B-part 0 never leaves them: an X on a
    B-vertex toggles only its neighbours, which are A-vertices, and with
    every B-part 0 the perfect round's convolution over the B bits squares
    each coefficient. One round is thus n_b shuffles of a 2^n_a vector and
    a pointwise square, with the same arithmetic as the full-space round.
    """
    if not 0.0 <= p <= 1.0:
        raise BadParam(f"p={p} outside [0,1]")
    flip = (1.0 - p) / 2.0
    keep = 1.0 - flip
    # Per B-vertex, the A-support image of its X as a rank gather: the flip
    # toggles only A-vertex bits, so it moves rank r to r ^ rank(its mask).
    # On 2^n_a entries a gather beats the full space's axis views, and rows
    # of one 2-D array gather slower than separate arrays.
    ranks = np.arange(_checked_dim(g.n_a))
    masks = [pauli_flip_mask(g, v, PauliAxis.X) for v in sorted(g.b_vertices)]
    perms = tuple(ranks ^ int(f) for f in np.searchsorted(spread_submasks(g.a_mask), masks))

    def step(s: ASupportState) -> StepResult:
        lam = s.lam
        if flip != 0.0:
            for perm in perms:
                lam = keep * lam + flip * lam[perm]
        u = lam * lam
        p_succ = _acceptance(u.sum())
        return StepResult(ASupportState(s.graph, u / p_succ), p_succ)

    return [(Protocol.P1.value, step)]


def standard_steps(schedule: Sequence[Protocol], p: float, f_m: float) -> list[tuple[str, StepFn]]:
    step = {Protocol.P1: p1_step, Protocol.P2: p2_step}
    return [(proto.value, lambda s, _fn=step[proto]: _fn(s, p, f_m)) for proto in schedule]


# Every round any trajectory has applied in this thread. A search reports
# the change over its run as its rounds_used.
ROUNDS_APPLIED: ContextVar[int] = ContextVar("rounds_applied", default=0)


class Round(NamedTuple):
    """One applied step of a trajectory, as `trajectory` yields it."""

    index: int  # rounds applied so far, this one included
    label: str
    state: GDState
    p_succ: float
    below_floor: bool  # fidelity under the uniform-state value 1/2^n
    stalled: bool  # period end with |dF| < tol over the whole period


def trajectory(
    s0: GDState,
    steps: Sequence[tuple[str, StepFn]],
    r_max: int,
    tol: float,
    whole_periods: bool = False,
) -> Iterator[Round]:
    """Apply the labeled step functions cyclically from s0, at most r_max
    rounds, yielding after each one.

    Stall is only tested at whole-schedule boundaries because consecutive
    rounds move different coefficient sectors. With whole_periods the budget
    is checked once per period and only period ends are yielded, so whole
    periods run while fewer than r_max rounds have been applied. The caller
    decides which verdict ends the trajectory. s0 may also be an
    ASupportState stepped by a_support_steps; its graph sets the floor.
    Each round applied is added to ROUNDS_APPLIED.
    """
    if not steps:
        raise BadParam("schedule must be nonempty")
    period = len(steps)
    floor = 1.0 / s0.graph.dim
    state = s0
    f_period = state.fidelity
    r = 0
    while r < r_max or (whole_periods and r % period):
        label, fn = steps[r % period]
        result = fn(state)
        state = result.state
        r += 1
        ROUNDS_APPLIED.set(ROUNDS_APPLIED.get() + 1)
        f = state.fidelity
        stalled = False
        if r % period == 0:
            stalled = abs(f - f_period) < tol
            f_period = f
        elif whole_periods:
            continue
        yield Round(r, label, state, result.p_succ, f < floor, stalled)


def run_schedule(s0: GDState, steps: Sequence[tuple[str, StepFn]], stop: StopRule = StopRule()) -> PurificationTrace:
    """Drive labeled step functions until a stop verdict fires: convergence
    and divergence are tested after every round, stall once per period."""
    if not steps:  # also when s0 has converged and the engine never starts
        raise BadParam("schedule must be nonempty")
    state = s0
    rows: list[TraceRow] = []
    verdict = Verdict.MAX_ROUNDS
    if state.fidelity >= 1.0 - stop.eps:
        verdict = Verdict.CONVERGED
    else:
        for rnd in trajectory(s0, steps, stop.r_max, stop.tol):
            rows.append(TraceRow(rnd.index, rnd.label, state.fidelity, rnd.state.fidelity, rnd.p_succ))
            state = rnd.state
            if state.fidelity >= 1.0 - stop.eps:
                verdict = Verdict.CONVERGED
                break
            if rnd.below_floor:
                verdict = Verdict.DIVERGED
                break
            if rnd.stalled:
                verdict = Verdict.STALLED
                break
    cost = 1.0
    for row in rows:
        cost *= 2.0 / row.p_succ
    return PurificationTrace(tuple(rows), verdict, cost, state)


def iterate(
    s0: GDState,
    schedule: Sequence[Protocol] = (Protocol.P1, Protocol.P2),
    p: float = 1.0,
    f_m: float = 0.0,
    stop: StopRule = StopRule(),
) -> PurificationTrace:
    """Iterate sub-protocol rounds on identical copies until convergence,
    stall, divergence or the round budget runs out."""
    return run_schedule(s0, standard_steps(tuple(schedule), p, f_m), stop)
