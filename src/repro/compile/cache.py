"""The session-level compiled-plan cache.

Plans are trace-independent, so one compilation serves every trace, every
``check_many`` batch and every monitoring session that asks the same
question.  The cache holds :class:`~repro.compile.specplan.SpecPlan`\\ s —
a single formula is the one-clause plan named
:data:`~repro.compile.specplan.FORMULA_CLAUSE` — in one **bounded LRU**:
entries key on the spec digest plus the names carrying explicit
quantification domains, so a formula and a one-clause specification of
that name and formula share one entry.  Lookups refresh recency, and
inserts beyond ``max_plans`` evict the least recently used plan —
long-lived sessions churning through unbounded formula streams stay
bounded without manual ``clear_caches`` calls.  Digests are
alpha-invariant, so formulas equal up to bound-variable names share one
plan (``alpha_interned`` counts those hits).  Hit/miss/eviction and
compile-time counters are reported by the ``compiled`` engine on every
:class:`~repro.api.result.CheckResult`; :meth:`PlanCache.clear` drops the
plans *and* resets the counters, so cache statistics always describe the
current cache generation.

Plans live in memory only, one cache per session: each process compiles
what it checks, which for the paper's specifications takes a few
milliseconds.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from ..syntax.formulas import Formula
from .specplan import FORMULA_CLAUSE, SpecPlan, spec_digest

__all__ = ["PlanCache", "DEFAULT_MAX_PLANS"]


#: Default LRU capacity: generous for any hand-written campaign, small
#: enough that a fuzzing session streaming random formulas stays bounded.
DEFAULT_MAX_PLANS = 256


class PlanCache:
    """Digest-keyed bounded LRU of compiled plans.

    Parameters
    ----------
    max_plans:
        LRU capacity; inserting beyond it evicts the least recently used
        entry.  ``None`` disables eviction (the pre-LRU behaviour).
    on_evict:
        Called with each evicted digest — the session uses this to drop the
        plan states bound to an evicted plan.
    """

    def __init__(
        self,
        max_plans: Optional[int] = DEFAULT_MAX_PLANS,
        on_evict: Optional[Callable[[str], None]] = None,
    ) -> None:
        if max_plans is not None and max_plans < 1:
            raise ValueError(f"max_plans must be at least 1, got {max_plans}")
        self._plans: "OrderedDict[str, Any]" = OrderedDict()
        self._max_plans = max_plans
        self._on_evict = on_evict
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.compile_time_s = 0.0
        self.alpha_interned = 0

    def __len__(self) -> int:
        return len(self._plans)

    @property
    def max_plans(self) -> Optional[int]:
        return self._max_plans

    # -- the LRU core --------------------------------------------------------

    def _store(self, digest: str, plan: Any) -> None:
        self._plans[digest] = plan
        self._plans.move_to_end(digest)
        if self._max_plans is None:
            return
        while len(self._plans) > self._max_plans:
            evicted, _ = self._plans.popitem(last=False)
            self.evictions += 1
            if self._on_evict is not None:
                self._on_evict(evicted)

    def _lookup(
        self,
        items: Sequence[Tuple[str, Formula]],
        domain: Optional[Mapping[str, Iterable[Any]]],
    ) -> Tuple[SpecPlan, bool]:
        """The plan for ``items`` under ``domain``, compiling and storing
        it on a miss.

        A hit on an alpha-equivalent variant rather than the very sources
        counts in ``alpha_interned``.
        """
        items = tuple((name, formula) for name, formula in items)
        shape = tuple(sorted(domain)) if domain else ()
        digest = spec_digest(items, domain_shape=shape)
        plan = self._plans.get(digest)
        if plan is not None:
            self._plans.move_to_end(digest)
            self.hits += 1
            if plan.sources != items:
                self.alpha_interned += 1
            return plan, True
        self.misses += 1
        started = time.perf_counter()
        plan = SpecPlan(items, digest=digest, domain_shape=shape)
        self.compile_time_s += time.perf_counter() - started
        self._store(digest, plan)
        return plan, False

    # -- plans ---------------------------------------------------------------

    def get(
        self,
        formula: Formula,
        domain: Optional[Mapping[str, Iterable[Any]]] = None,
    ) -> Tuple[SpecPlan, bool]:
        """The cached one-clause plan for ``formula`` (compiling on miss),
        its clause named :data:`~repro.compile.specplan.FORMULA_CLAUSE`.

        Returns ``(plan, from_cache)``.
        """
        return self._lookup(((FORMULA_CLAUSE, formula),), domain)

    def get_spec(
        self,
        items: Sequence[Tuple[str, Formula]],
        domain: Optional[Mapping[str, Iterable[Any]]] = None,
    ) -> Tuple[SpecPlan, bool]:
        """The cached plan for ``(clause name, formula)`` pairs (compiling
        on miss), keyed by the spec digest plus domain shape.

        Returns ``(plan, from_cache)``.
        """
        return self._lookup(items, domain)

    # -- maintenance ---------------------------------------------------------

    def clear(self) -> None:
        """Drop every plan and reset the statistics counters."""
        self._plans.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.compile_time_s = 0.0
        self.alpha_interned = 0

    def statistics(self) -> Dict[str, Any]:
        """Counters reported on compiled-engine results."""
        return {
            "plan_cache_size": len(self._plans),
            "plan_cache_capacity": self._max_plans,
            "plan_cache_hits": self.hits,
            "plan_cache_misses": self.misses,
            "plan_cache_evictions": self.evictions,
            "plan_compile_time_s": self.compile_time_s,
            "plan_alpha_interned": self.alpha_interned,
        }
