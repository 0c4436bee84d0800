"""Alpha-invariant plan interning, and plan states that streams never share.

Bound-variable names are presentation, not semantics: clauses equal up to
binder renaming must compile to one plan (one digest, one DAG, one cache
entry), and a fleet of monitors over one plan must each bind a plan state
of their own, so no stream observes another stream's history.  This
module pins both halves:

- ``alpha_canonical`` unifies renamed, shadowed and nested binders while
  leaving frozen (domain-shape) names verbatim;
- ``formula_digest`` / ``spec_digest`` are alpha-invariant, stable across
  pretty-print round-trips, and still separate structurally different
  formulas;
- the plan cache interns alpha classes (single- and multi-root plans);
- as a property over generated ``rich``-fragment formulas and traces,
  consistently renaming ``forall`` binders keeps the digest, the interned
  plan and every verdict of the ``trace`` and ``compiled`` engines;
- every ``Session.monitor`` call binds a fresh plan state: concurrent
  monitors of one family never share memo contents, and
  ``release_monitor`` leaves the released monitor intact.
"""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.session import Session
from repro.compile.cache import PlanCache
from repro.compile.normalize import alpha_canonical
from repro.compile.plan import formula_digest, legacy_formula_digest
from repro.compile.specplan import legacy_spec_digest, spec_digest
from repro.gen.generators import ScenarioProfile, gen_formula, gen_trace
from repro.specs import unreliable_queue_spec
from repro.syntax import parse_formula, to_ascii
from repro.syntax.formulas import Forall
from repro.syntax.builder import (
    after_op,
    at_op,
    backward,
    event,
    forall,
    forward,
    iff,
    implies,
    interval,
    land,
    lnot,
    lvar,
    ne,
    occurs,
    prop,
)
from repro.systems import reliable_queue_trace


def fifo_clauses(a, b):
    """The FIFO-ordering clause pair over binder names ``(a, b)``."""
    return {
        "order": forall(
            (a, b),
            interval(
                backward(None, event(after_op("Dq", lvar(b)))),
                iff(
                    occurs(event(after_op("Dq", lvar(a)))),
                    occurs(
                        backward(
                            event(at_op("Enq", lvar(a))),
                            event(at_op("Enq", lvar(b))),
                        )
                    ),
                ),
            ),
        ),
        "exists": forall(
            a,
            interval(
                forward(None, event(after_op("Dq", lvar(a)))),
                occurs(event(at_op("Enq", lvar(a)))),
            ),
        ),
    }


def rename_binders(formula, mapping):
    """A structurally renamed copy via the pretty-printer (word-safe)."""
    text = to_ascii(formula)
    pattern = re.compile(
        r"\b(" + "|".join(re.escape(name) for name in mapping) + r")\b"
    )
    return parse_formula(pattern.sub(lambda m: mapping[m.group(1)], text))


class TestAlphaCanonical:
    def test_renamed_binders_unify(self):
        f1 = fifo_clauses("a", "b")["order"]
        f2 = fifo_clauses("u", "v")["order"]
        assert f1 != f2
        assert alpha_canonical(f1)[0] == alpha_canonical(f2)[0]

    def test_nested_binders_unify(self):
        f1 = forall("a", forall("b", ne(lvar("a"), lvar("b"))))
        f2 = forall("x", forall("y", ne(lvar("x"), lvar("y"))))
        assert alpha_canonical(f1)[0] == alpha_canonical(f2)[0]

    def test_shadowed_binders_unify(self):
        # The inner forall shadows the outer binder; renaming either
        # scope independently lands on the same canonical form.
        f1 = forall(
            "a",
            land(
                occurs(event(at_op("Enq", lvar("a")))),
                forall("a", occurs(event(after_op("Dq", lvar("a"))))),
            ),
        )
        f2 = forall(
            "m",
            land(
                occurs(event(at_op("Enq", lvar("m")))),
                forall("k", occurs(event(after_op("Dq", lvar("k"))))),
            ),
        )
        assert alpha_canonical(f1)[0] == alpha_canonical(f2)[0]

    def test_frozen_names_stay_verbatim(self):
        f = forall(("a", "b"), ne(lvar("a"), lvar("b")))
        canonical, renames = alpha_canonical(f, frozenset({"a"}))
        assert "a" not in renames
        assert renames["b"] == ("$0",)
        assert canonical.variables == ("a", "$0")

    def test_structurally_different_formulas_stay_apart(self):
        f1 = forall("a", occurs(event(at_op("Enq", lvar("a")))))
        f2 = forall("a", occurs(event(after_op("Dq", lvar("a")))))
        assert alpha_canonical(f1)[0] != alpha_canonical(f2)[0]


class TestDigests:
    def test_formula_digest_is_alpha_invariant(self):
        f1 = fifo_clauses("a", "b")["order"]
        f2 = fifo_clauses("u", "v")["order"]
        assert formula_digest(f1) == formula_digest(f2)
        assert legacy_formula_digest(f1) != legacy_formula_digest(f2)

    def test_queue_spec_clauses_survive_renaming(self):
        # I1/I2/I3 of the unreliable queue, each against a binder-renamed
        # copy of itself: digest equality per clause.
        spec = unreliable_queue_spec()
        clauses = {clause.name: clause.formula for clause in spec.clauses}
        for name, mapping in (
            ("I1", {"a": "p", "b": "q"}),
            ("I2", {"a": "w"}),
            ("I3", {"c": "a", "d": "b"}),
        ):
            renamed = rename_binders(clauses[name], mapping)
            assert renamed != clauses[name]
            assert formula_digest(renamed) == formula_digest(clauses[name]), name

    def test_spec_digest_is_alpha_invariant_per_clause(self):
        items1 = sorted(fifo_clauses("a", "b").items())
        items2 = sorted(fifo_clauses("x", "y").items())
        assert spec_digest(items1) == spec_digest(items2)
        assert legacy_spec_digest(items1) != legacy_spec_digest(items2)
        # Clause names address per-clause verdicts: renaming them must
        # change the digest even when the formulas agree.
        renamed_clauses = [("other", items1[0][1])] + items1[1:]
        assert spec_digest(renamed_clauses) != spec_digest(items1)

    def test_digest_stable_across_pretty_print_round_trip(self):
        for clause in unreliable_queue_spec().clauses:
            formula = clause.interpreted_formula()
            round_tripped = parse_formula(to_ascii(formula))
            assert formula_digest(round_tripped) == formula_digest(formula)

    def test_domain_shape_freezes_binders_apart(self):
        # When the binder names select explicit domains, renaming them is
        # *not* sound — the digests must stay distinct.
        f1 = forall("a", occurs(event(at_op("Enq", lvar("a")))))
        f2 = forall("z", occurs(event(at_op("Enq", lvar("z")))))
        assert formula_digest(f1, ("a",)) != formula_digest(f2, ("z",))


class TestCacheInterning:
    def test_alpha_variants_share_one_plan(self):
        cache = PlanCache()
        f1 = fifo_clauses("a", "b")["order"]
        f2 = fifo_clauses("u", "v")["order"]
        plan1, from_cache1 = cache.get(f1)
        plan2, from_cache2 = cache.get(f2)
        assert not from_cache1 and from_cache2
        assert plan1 is plan2
        assert cache.misses == 1
        assert cache.alpha_interned == 1

    def test_spec_plans_intern_alpha_variants(self):
        cache = PlanCache()
        plan1, _ = cache.get_spec(sorted(fifo_clauses("a", "b").items()))
        plan2, from_cache = cache.get_spec(sorted(fifo_clauses("u", "v").items()))
        assert from_cache
        assert plan1 is plan2
        assert cache.alpha_interned == 1


PROFILE = ScenarioProfile()

#: Consistent renamings of the profile's logical variables — fresh names,
#: and a swap.  Generated formulas mention logical variables only under
#: their ``forall`` binders (and never shadow one), so each is an
#: alpha-renaming.
RENAMINGS = ({"a": "m", "b": "n"}, {"a": "b", "b": "a"})


def renamed_case(seed, mapping):
    """A generated formula, its renamed twin and three traces to check."""
    rng = random.Random(seed)
    name = rng.choice(PROFILE.logical_vars)
    # One outer binder at least, so every renaming changes the formula.
    body = gen_formula(
        rng, PROFILE, size=rng.randint(2, 9), fragment="rich", bound_vars=(name,)
    )
    formula = Forall((name,), body)
    traces = [gen_trace(rng, PROFILE) for _ in range(3)]
    return formula, rename_binders(formula, mapping), traces


def outcome(result):
    """Verdict plus captured error class (messages may name the binder)."""
    error = result.error.split(":", 1)[0] if result.error else None
    return result.verdict, error


class TestAlphaRenamingProperty:
    """Renaming ``forall`` binders is invisible: no domain is given, so
    every binder canonicalizes and the renamed formula must share the
    original's digest, plan and verdicts."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(RENAMINGS))
    def test_renaming_keeps_digest_plan_and_verdicts(self, seed, mapping):
        formula, renamed, traces = renamed_case(seed, mapping)
        assert renamed != formula
        assert formula_digest(renamed) == formula_digest(formula)

        cache = PlanCache()
        plan, from_cache = cache.get(formula)
        interned = cache.alpha_interned
        shared, shared_from_cache = cache.get(renamed)
        assert not from_cache and shared_from_cache
        assert shared is plan
        assert cache.alpha_interned == interned + 1

        session = Session()
        for trace in traces:
            for mode in ("trace", "compiled"):
                original = session.check(
                    formula, trace=trace, mode=mode, capture_errors=True
                )
                variant = session.check(
                    renamed, trace=trace, mode=mode, capture_errors=True
                )
                assert outcome(variant) == outcome(original), (
                    mode, to_ascii(formula), to_ascii(renamed)
                )


def queue_states():
    return reliable_queue_trace(num_values=3, seed=7).states()


class TestPlanStatePooling:
    """No plan state is pooled: monitors share a plan, never a state."""

    def test_release_leaves_the_monitor_intact_and_reopen_binds_fresh(self):
        session = Session()
        formulas = fifo_clauses("a", "b")
        states = queue_states()
        first = session.monitor(formulas, capture_errors=True)
        first.observe_batch(states)
        verdicts = {n: v.holds for n, v in first.verdicts.items()}
        first_state = first.plan_state
        assert session.release_monitor(first) is False
        second = session.monitor(formulas, capture_errors=True)
        assert second.plan is first.plan
        assert second.plan_state is not first_state
        assert second.prefix_length == 0
        assert first.plan_state is first_state
        assert first.prefix_length == len(states)
        assert {n: v.holds for n, v in first.verdicts.items()} == verdicts

    def test_a_monitor_lowers_on_its_first_observation(self, monkeypatch):
        from repro.compile import lower

        bind = lower.bind_dispatch
        bound = []

        def counting_bind(state):
            bound.append(state)
            return bind(state)

        monkeypatch.setattr(lower, "bind_dispatch", counting_bind)
        monitor = Session().monitor(fifo_clauses("a", "b"), capture_errors=True)
        assert bound == []
        monitor.observe_batch(queue_states())
        monitor.observe_batch(queue_states())
        assert len(bound) == 1

    def test_sibling_monitors_never_share_memo_contents(self):
        session = Session()
        formulas = fifo_clauses("a", "b")
        left = session.monitor(formulas, capture_errors=True)
        right = session.monitor(formulas, capture_errors=True)
        assert left.plan_state is not right.plan_state
        states = queue_states()
        left.observe_batch(states)
        assert right.prefix_length == 0
        right.observe_batch(states)
        assert {n: v.holds for n, v in left.verdicts.items()} == {
            n: v.holds for n, v in right.verdicts.items()
        }

    def test_alpha_variant_families_pool_together(self):
        # Families differing only in binder names land on one interned
        # plan: one compilation serves both.
        session = Session()
        first = session.monitor(fifo_clauses("a", "b"), capture_errors=True)
        second = session.monitor(fifo_clauses("u", "v"), capture_errors=True)
        assert second.plan is first.plan
        assert session.cache_statistics()["plan_cache_misses"] == 1


class TestServePooling:
    """A stream reopened on a warm registry answers like a cold one."""

    def test_pooled_reopen_answers_like_a_cold_registry(self):
        from repro.serve.protocol import trace_to_rows
        from repro.serve.streams import StreamRegistry

        rows = trace_to_rows(reliable_queue_trace(num_values=3, seed=7))
        warm = StreamRegistry()
        warm.handle({"op": "open", "stream": "w0", "spec": "reliable_queue"})
        warm.handle({"op": "append", "stream": "w0", "states": rows})
        warm.handle({"op": "close", "stream": "w0"})
        # This stream reopens the family on a warm plan cache.
        warm.handle({"op": "open", "stream": "w1", "spec": "reliable_queue"})
        reopened = warm.handle(
            {"op": "append", "stream": "w1", "states": rows}
        )[-1]

        cold = StreamRegistry()
        cold.handle({"op": "open", "stream": "c1", "spec": "reliable_queue"})
        fresh = cold.handle(
            {"op": "append", "stream": "c1", "states": rows}
        )[-1]
        assert reopened["verdicts"] == fresh["verdicts"]
        assert reopened["length"] == fresh["length"]


class TestSessionMetrics:
    def test_interned_and_pool_series_land_in_the_snapshot(self):
        session = Session()
        session.monitor(fifo_clauses("a", "b"), capture_errors=True)
        session.monitor(fifo_clauses("u", "v"), capture_errors=True)
        snapshot = session.metrics_snapshot()
        # The alpha-equivalent hit is counted once, by the plan cache, and
        # reaches the snapshot as its gauge.
        assert "repro_plan_interned_total" not in snapshot
        alpha = snapshot["repro_plan_alpha_interned"]["series"][0]["value"]
        assert alpha == session.cache_statistics()["plan_alpha_interned"] >= 1
