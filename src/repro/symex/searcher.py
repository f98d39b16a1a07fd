"""Search strategies: which pending state the executor works on next.

KLEE ships DFS, BFS, random-state and coverage-guided searchers; the choice
matters little for the exhaustive, bounded-input experiments in the paper,
but the interface is reproduced so users can plug their own strategies.
Exhaustive exploration visits the same path *set* under any discipline,
so the searcher only shapes order and memory.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, List

from .state import ExecutionState


class Searcher:
    """Interface: a queue of pending execution states."""

    def add(self, state: ExecutionState) -> None:  # pragma: no cover
        raise NotImplementedError

    def pop(self) -> ExecutionState:  # pragma: no cover
        raise NotImplementedError

    def __len__(self) -> int:  # pragma: no cover
        raise NotImplementedError

    def empty(self) -> bool:
        return len(self) == 0


class DFSSearcher(Searcher):
    """Depth-first search: follow one path to completion before backtracking.
    This keeps the number of live states (and memory) small."""

    def __init__(self) -> None:
        self._stack: List[ExecutionState] = []

    def add(self, state: ExecutionState) -> None:
        self._stack.append(state)

    def pop(self) -> ExecutionState:
        return self._stack.pop()

    def __len__(self) -> int:
        return len(self._stack)


class BFSSearcher(Searcher):
    """Breadth-first search: explore all paths in lockstep."""

    def __init__(self) -> None:
        self._queue: Deque[ExecutionState] = deque()

    def add(self, state: ExecutionState) -> None:
        self._queue.append(state)

    def pop(self) -> ExecutionState:
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)


class RandomSearcher(Searcher):
    """Uniformly random state selection (KLEE's ``--search=random-state``)."""

    def __init__(self, seed: int = 0) -> None:
        self._states: List[ExecutionState] = []
        self._rng = random.Random(seed)

    def add(self, state: ExecutionState) -> None:
        self._states.append(state)

    def pop(self) -> ExecutionState:
        index = self._rng.randrange(len(self._states))
        self._states[index], self._states[-1] = \
            self._states[-1], self._states[index]
        return self._states.pop()

    def __len__(self) -> int:
        return len(self._states)


def make_searcher(name: str) -> Searcher:
    """Create a searcher by name ("dfs", "bfs", or "random")."""
    if name == "dfs":
        return DFSSearcher()
    if name == "bfs":
        return BFSSearcher()
    if name == "random":
        return RandomSearcher()
    raise ValueError(f"unknown search strategy '{name}'")

