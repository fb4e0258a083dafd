"""Greedy almost-factors: vertex-disjoint template copies covering most vertices."""

from __future__ import annotations

import math
from typing import Iterable

from hampow.core import Hypergraph
from hampow.matcher import PhaseFailure, SearchBudgetExceeded, _CopySearcher

__all__ = ["almost_factor", "factor_in_window"]


def _check_template(template: Hypergraph) -> None:
    # a vertex-less copy takes nothing, so the greedy loops would never end;
    # the copy searcher refuses a template whose uniformity is not the host's
    if template.n == 0:
        raise ValueError("template has no vertices")


def almost_factor(host: Hypergraph, template: Hypergraph, epsilon: float) -> list[dict[int, int]]:
    """Disjoint copies of the template covering all but at most eps*n vertices.

    Greedy: while at least eps*n vertices remain uncovered, restrict to the
    lowest-indexed ceil(eps*n) of them and search one copy there; remove its
    vertices.  Raises :class:`PhaseFailure` if some window holds no copy or
    the searcher runs out of budget.
    """
    _check_template(template)
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    n = host.n
    window = math.ceil(epsilon * n)
    if template.n > window:
        raise ValueError(
            f"window of {window} vertices cannot host a {template.n}-vertex copy"
        )
    searcher = _CopySearcher(host, template, root=())
    unused = sorted(range(n))
    copies: list[dict[int, int]] = []
    while len(unused) >= epsilon * n:
        view = unused[:window]
        try:
            emb = searcher.find((), view)
        except SearchBudgetExceeded:
            raise PhaseFailure(
                "factor", "search budget exhausted",
                copies_found=len(copies), uncovered=len(unused),
            ) from None
        if emb is None:
            raise PhaseFailure(
                "factor",
                f"no template copy inside the current {window}-vertex window",
                window=tuple(view),
                copies_found=len(copies),
                uncovered=len(unused),
            )
        copies.append(emb)
        taken = set(emb.values())
        unused = [v for v in unused if v not in taken]
    return copies


def factor_in_window(
    host: Hypergraph,
    template: Hypergraph,
    window: Iterable[int],
    quota: int,
) -> list[dict[int, int]]:
    """``quota`` disjoint copies with all vertices in W.

    Copies are found by repeated empty-root search inside the unused portion
    of the window.  Raises :class:`PhaseFailure` when the quota cannot be met
    or the searcher runs out of budget.
    """
    _check_template(template)
    if quota < 1:
        raise ValueError(f"quota must be >= 1, got {quota}")
    searcher = _CopySearcher(host, template, root=())
    unused = sorted(set(window))
    copies: list[dict[int, int]] = []
    while len(copies) < quota:
        try:
            emb = searcher.find((), unused)
        except SearchBudgetExceeded:
            raise PhaseFailure(
                "factor", "search budget exhausted",
                copies_found=len(copies), quota=quota, window_left=len(unused),
            ) from None
        if emb is None:
            raise PhaseFailure(
                "factor",
                f"found {len(copies)} of {quota} required copies",
                copies_found=len(copies),
                quota=quota,
                window_left=len(unused),
            )
        copies.append(emb)
        taken = set(emb.values())
        unused = [v for v in unused if v not in taken]
    return copies
