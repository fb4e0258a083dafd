"""Greedy almost-factors: vertex-disjoint template copies covering most vertices."""

from __future__ import annotations

import math
from typing import Callable, Iterable

from hampow.core import Hypergraph, _bit_vertices, _count, _vertex_bits, _vertex_set
from hampow.matcher import PhaseFailure, SearchBudgetExceeded, _CopySearcher

__all__ = ["almost_factor", "factor_in_window"]


def _greedy(
    host: Hypergraph,
    template: Hypergraph,
    free: int,
    window: int | None,
    done: Callable[[int, int], bool],
    fail: Callable[[int | None, int, int], PhaseFailure],
) -> list[dict[int, int]]:
    """Disjoint copies, each the first one in the lowest ``window`` vertices still unused.

    ``free`` holds the unused vertices as a bitset; ``window`` None views all of them.
    A search comes whenever ``done(copies, unused left)`` is false.  One that
    finds no copy raises ``fail(the view's bitset, copies, unused left)``, and
    one that runs out of budget raises ``fail(None, copies, unused left)``;
    either failure's details say ``budget_exhausted``, True for the latter.
    """
    # a vertex-less copy takes nothing, so the loop would never end;
    # the copy searcher refuses a template whose uniformity is not the host's
    if template.n == 0:
        raise ValueError("template has no vertices")
    searcher = _CopySearcher(host, template, root=())
    copies: list[dict[int, int]] = []
    while not done(len(copies), left := free.bit_count()):
        view = free
        if window is not None and left > window:  # the unused vertices up to the window's last one
            view &= (2 << int(_bit_vertices(free, host.n)[window - 1])) - 1
        try:
            emb = searcher.find((), view)
        except SearchBudgetExceeded:
            raise fail(None, len(copies), left) from None
        if emb is None:
            raise fail(view, len(copies), left)
        copies.append(emb)
        for v in emb.values():
            free ^= 1 << v
    return copies


def almost_factor(host: Hypergraph, template: Hypergraph, epsilon: float) -> list[dict[int, int]]:
    """Disjoint copies of the template covering all but at most eps*n vertices.

    Greedy: while at least eps*n vertices remain uncovered, restrict to the
    lowest-indexed ceil(eps*n) of them and search one copy there; remove its
    vertices.  Raises :class:`PhaseFailure` if some window holds no copy or
    the searcher runs out of budget.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    n = host.n
    window = math.ceil(epsilon * n)
    if template.n > window:
        raise ValueError(
            f"window of {window} vertices cannot host a {template.n}-vertex copy"
        )

    def fail(view: int | None, found: int, left: int) -> PhaseFailure:
        if view is None:
            return PhaseFailure("factor", "search budget exhausted", copies_found=found, uncovered=left,
                                budget_exhausted=True)
        message = f"no template copy inside the current {window}-vertex window"
        return PhaseFailure("factor", message, window=tuple(_bit_vertices(view, n).tolist()),
                            copies_found=found, uncovered=left, budget_exhausted=False)

    return _greedy(host, template, (1 << n) - 1, window, lambda found, left: left < epsilon * n, fail)


def factor_in_window(
    host: Hypergraph,
    template: Hypergraph,
    window: Iterable[int],
    quota: int,
) -> list[dict[int, int]]:
    """``quota`` disjoint copies with all vertices in W.

    Copies are found by repeated empty-root search inside the unused portion
    of the window, read by :func:`core._vertex_set`.  Raises
    :class:`PhaseFailure` when the quota cannot be met or the searcher runs
    out of budget.
    """
    quota = _count(quota, "quota", 1)

    def fail(view: int | None, found: int, left: int) -> PhaseFailure:
        message = "search budget exhausted" if view is None else f"found {found} of {quota} required copies"
        return PhaseFailure("factor", message, copies_found=found, quota=quota, window_left=left,
                            budget_exhausted=view is None)

    free = _vertex_bits(_vertex_set(window, host.n), host.n)
    return _greedy(host, template, free, None, lambda found, left: found >= quota, fail)
