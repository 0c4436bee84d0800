"""The session-level compiled-plan cache.

Plans are trace-independent, so one compilation serves every trace, every
``check_many`` batch and every monitoring session that asks the same
question.  The cache holds both single-formula :class:`CompiledPlan`\\ s and
multi-root :class:`~repro.compile.specplan.SpecPlan`\\ s in one **bounded
LRU**: entries key on the content digest (formula or spec digest plus the
names carrying explicit quantification domains), lookups refresh recency,
and inserts beyond ``max_plans`` evict the least recently used plan —
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
from .plan import CompiledPlan, formula_digest
from .specplan import SpecPlan, spec_digest

__all__ = ["PlanCache", "DEFAULT_MAX_PLANS"]


#: Default LRU capacity: generous for any hand-written campaign, small
#: enough that a fuzzing session streaming random formulas stays bounded.
DEFAULT_MAX_PLANS = 256


class PlanCache:
    """Digest-keyed bounded LRU of compiled plans (single- and multi-root).

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

    def _get_or_compile(
        self,
        digest: str,
        is_verbatim: Callable[[Any], bool],
        compile_plan: Callable[[], Any],
    ) -> Tuple[Any, bool]:
        """The plan under ``digest``, compiling and storing it on a miss.

        ``is_verbatim`` tells a hit on the very sources apart from one on
        an alpha-equivalent variant (counted in ``alpha_interned``).
        """
        plan = self._plans.get(digest)
        if plan is not None:
            self._plans.move_to_end(digest)
            self.hits += 1
            if not is_verbatim(plan):
                self.alpha_interned += 1
            return plan, True
        self.misses += 1
        started = time.perf_counter()
        plan = compile_plan()
        self.compile_time_s += time.perf_counter() - started
        self._store(digest, plan)
        return plan, False

    @staticmethod
    def _domain_shape(domain: Optional[Mapping[str, Iterable[Any]]]) -> Tuple[str, ...]:
        return tuple(sorted(domain)) if domain else ()

    # -- plans ---------------------------------------------------------------

    def get(
        self,
        formula: Formula,
        domain: Optional[Mapping[str, Iterable[Any]]] = None,
    ) -> Tuple[CompiledPlan, bool]:
        """The cached plan for ``formula`` (compiling on miss).

        Returns ``(plan, from_cache)``.
        """
        shape = self._domain_shape(domain)
        digest = formula_digest(formula, domain_shape=shape)
        return self._get_or_compile(
            digest,
            lambda plan: plan.source == formula,
            lambda: CompiledPlan(formula, digest=digest, domain_shape=shape),
        )

    def get_spec(
        self,
        items: Sequence[Tuple[str, Formula]],
        domain: Optional[Mapping[str, Iterable[Any]]] = None,
    ) -> Tuple[SpecPlan, bool]:
        """The cached multi-root plan for ``(clause name, formula)`` pairs.

        Returns ``(spec_plan, from_cache)``; keyed by the spec digest plus
        domain shape, in the same LRU as single-formula plans.
        """
        items = [(name, formula) for name, formula in items]
        shape = self._domain_shape(domain)
        digest = spec_digest(items, domain_shape=shape)
        return self._get_or_compile(
            digest,
            lambda plan: plan.sources == tuple(items),
            lambda: SpecPlan(items, digest=digest, domain_shape=shape),
        )

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
