"""Exceptions raised by the simulator when a model rule is violated.

These are *programming errors in a routing algorithm*, not runtime
conditions: the paper's model obliges the inqueue policy to guarantee its
queue never overflows, and a minimal algorithm to schedule packets only on
profitable outlinks.  The simulator enforces both so that every experiment
provably ran inside the model.
"""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for model violations and simulator failures."""


class QueueOverflowError(SimulationError):
    """An inqueue policy accepted more packets than its queue can hold.

    Section 2: "The inqueue policy must guarantee that the queue does not
    overflow."

    Carries the offending node, queue key, occupancy, and capacity so that
    oracles and tests can distinguish an overflow (and localize it) without
    parsing the message.
    """

    def __init__(
        self,
        algorithm: str,
        node: tuple[int, int],
        queue_key: object,
        occupancy: int,
        capacity: int,
    ) -> None:
        super().__init__(
            f"{algorithm}: queue {queue_key!r} at {node} holds "
            f"{occupancy} > capacity {capacity}"
        )
        self.algorithm = algorithm
        self.node = node
        self.queue_key = queue_key
        self.occupancy = occupancy
        self.capacity = capacity


class InvalidScheduleError(SimulationError):
    """An outqueue policy produced an illegal schedule.

    Examples: scheduling a packet that is not in the node, scheduling two
    packets on one outlink, or scheduling along a nonexistent boundary link.
    """


class NonMinimalMoveError(InvalidScheduleError):
    """A minimal algorithm scheduled a packet on an unprofitable outlink."""


class AdversaryError(SimulationError):
    """The adversary could not find an eligible packet for an exchange.

    Lemmas 3 and 4 prove eligible packets always exist while the
    construction's preconditions hold; hitting this error in a valid
    configuration would falsify the construction (or reveal a bug).
    """
