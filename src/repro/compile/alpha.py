"""Alpha-canonical renaming of bound logical variables.

A plan digest (:func:`~repro.compile.specplan.spec_digest`) hashes each
clause's ``repr``, so two clauses that differ only in the *names* of their
bound variables — queue I3's ``forall c, d`` against I1/I2's ``forall a,
b`` — would land on different digests and compile to disjoint plans.
This pass rewrites every bound variable to a canonical positional name
(``$0``, ``$1``, … in pre-order binder occurrence), so alpha-equivalent
formulas share one repr, one digest, one ``SpecPlan``, and — inside a
multi-clause ``SpecPlan`` — one hash-consed DAG subtree.

One soundness carve-out: a binder name that appears in the check
request's **domain shape** is semantically significant (the name selects
its enumeration domain), so those binders are *frozen* — kept verbatim —
and only default-universe binders are renamed.  Renamed binders therefore
always enumerate the value universe, which is name-independent, making
the rewrite verdict-preserving by construction; no domain translation is
ever needed downstream.

The pass is best-effort by design: a formula that already uses
``$``-prefixed variables (no capture risk tolerated) or that contains an
unknown node type standing between a binder and its body is returned
verbatim — callers degrade to today's repr-exact digests, never to a
wrong plan.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from ..syntax.formulas import (
    Always,
    And,
    Atom,
    Eventually,
    FalseFormula,
    Forall,
    Formula,
    Iff,
    Implies,
    IntervalFormula,
    NextBinding,
    Not,
    Occurs,
    Or,
    TrueFormula,
    walk_formula,
)
from ..syntax.intervals import (
    Backward,
    Begin,
    End,
    EventTerm,
    Forward,
    Star,
)
from ..syntax.terms import (
    Apply,
    BinOp,
    Cmp,
    Const,
    FalsePredicate,
    LogicalVar,
    OpAfter,
    OpAt,
    OpIn,
    Prop,
    StartPredicate,
    TruePredicate,
    Var,
)

__all__ = ["CANONICAL_PREFIX", "alpha_canonical"]

CANONICAL_PREFIX = "$"

_ALPHA_CACHE_ATTR = "_alpha_cache"


class _Unrenamable(Exception):
    """An unknown node type stands between a binder and a renamed variable."""


class _Ctx:
    """One canonicalization run: the global fresh counter and rename log."""

    __slots__ = ("counter", "renames", "frozen")

    def __init__(self, frozen: FrozenSet[str]) -> None:
        self.counter = 0
        self.renames: Dict[str, List[str]] = {}
        self.frozen = frozen

    def fresh(self, original: str) -> str:
        name = f"{CANONICAL_PREFIX}{self.counter}"
        self.counter += 1
        self.renames.setdefault(original, []).append(name)
        return name


def _touched(names, env) -> bool:
    """Whether any of ``names`` has a *changed* mapping in ``env``."""
    if not env or not names:
        return False
    for name in names:
        replacement = env.get(name)
        if replacement is not None and replacement != name:
            return True
    return False


def _bind(ctx: _Ctx, env, variables) -> Tuple[Tuple[str, ...], dict]:
    """Allocate canonical names for one binder tuple (pre-order, in tuple
    order); frozen names shadow verbatim so inner occurrences stay put."""
    scoped = dict(env)
    renamed = []
    for var in variables:
        if var in ctx.frozen:
            scoped[var] = var
            renamed.append(var)
        else:
            name = ctx.fresh(var)
            scoped[var] = name
            renamed.append(name)
    return tuple(renamed), scoped


def _expr(expr, env):
    kind = type(expr)
    if kind is LogicalVar:
        name = env.get(expr.name, expr.name)
        return expr if name == expr.name else LogicalVar(name)
    if kind is Const or kind is Var:
        return expr
    if kind is BinOp:
        return BinOp(expr.op, _expr(expr.left, env), _expr(expr.right, env))
    if kind is Apply:
        return Apply(
            expr.function, tuple(_expr(arg, env) for arg in expr.args)
        )
    # Unknown expression type: safe to keep verbatim unless a renamed
    # variable occurs inside it (then we cannot rewrite, so bail out).
    if _touched(expr.free_logical_vars(), env):
        raise _Unrenamable(kind.__name__)
    return expr


def _predicate(predicate, env):
    kind = type(predicate)
    if kind in (TruePredicate, FalsePredicate, Prop, StartPredicate):
        return predicate
    if kind is Cmp:
        return Cmp(_expr(predicate.left, env), predicate.op,
                   _expr(predicate.right, env))
    if kind in (OpAt, OpIn, OpAfter):
        return kind(
            predicate.operation,
            tuple(_expr(arg, env) for arg in predicate.args),
        )
    if _touched(predicate.free_logical_vars(), env):
        raise _Unrenamable(kind.__name__)
    return predicate


def _term(term, env, ctx: _Ctx):
    kind = type(term)
    if kind is EventTerm:
        return EventTerm(_formula(term.formula, env, ctx))
    if kind is Begin:
        return Begin(_term(term.term, env, ctx))
    if kind is End:
        return End(_term(term.term, env, ctx))
    if kind is Star:
        return Star(_term(term.term, env, ctx))
    if kind is Forward or kind is Backward:
        left = None if term.left is None else _term(term.left, env, ctx)
        right = None if term.right is None else _term(term.right, env, ctx)
        return kind(left, right)
    raise _Unrenamable(kind.__name__)


def _formula(node, env, ctx: _Ctx):
    kind = type(node)
    if kind is Atom:
        if not _touched(node.free_variables(), env):
            return node
        return Atom(_predicate(node.predicate, env))
    if kind is TrueFormula or kind is FalseFormula:
        return node
    if kind is Not:
        return Not(_formula(node.operand, env, ctx))
    if kind is And or kind is Or or kind is Implies or kind is Iff:
        return kind(
            _formula(node.left, env, ctx), _formula(node.right, env, ctx)
        )
    if kind is Always or kind is Eventually:
        return kind(_formula(node.operand, env, ctx))
    if kind is IntervalFormula:
        term = _term(node.term, env, ctx)
        return IntervalFormula(term, _formula(node.body, env, ctx))
    if kind is Occurs:
        return Occurs(_term(node.term, env, ctx))
    if kind is Forall:
        variables, scoped = _bind(ctx, env, node.variables)
        return Forall(variables, _formula(node.body, scoped, ctx))
    if kind is NextBinding:
        variables, scoped = _bind(ctx, env, node.variables)
        return NextBinding(
            node.operation, variables, _formula(node.body, scoped, ctx)
        )
    raise _Unrenamable(kind.__name__)


def _scan(formula: Formula) -> Tuple[FrozenSet[str], bool]:
    """Collect binder names; second element False → skip canonicalization
    (a ``$``-prefixed name already occurs, so renaming could capture)."""
    binders = set()
    for node in walk_formula(formula):
        kind = type(node)
        if kind is Forall or kind is NextBinding:
            for var in node.variables:
                if var.startswith(CANONICAL_PREFIX):
                    return frozenset(binders), False
                binders.add(var)
    if binders:
        for name in formula.free_variables():
            if name.startswith(CANONICAL_PREFIX):
                return frozenset(binders), False
    return frozenset(binders), True


def alpha_canonical(
    formula: Formula, frozen: FrozenSet[str] = frozenset()
) -> Tuple[Formula, Dict[str, Tuple[str, ...]]]:
    """Return ``(canonical, renames)`` for ``formula``.

    ``renames`` maps each original binder name to the tuple of canonical
    names it received (one per binding occurrence, pre-order).  Binder
    names in ``frozen`` — the domain-shape names of the enclosing check
    request — are never renamed.  Formulas with no renameable binder (or
    where renaming would be unsafe) come back *identical*: same instance,
    empty rename map.
    """
    try:
        binders, renameable = _scan(formula)
    except Exception:
        return formula, {}
    if not binders or not renameable:
        return formula, {}
    # Only frozen names that actually bind matter for the result, so the
    # memo key collapses every irrelevant shape to one entry.
    key = frozenset(frozen) & binders
    cache = getattr(formula, _ALPHA_CACHE_ATTR, None)
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            return hit
    ctx = _Ctx(key)
    try:
        canonical = _formula(formula, {}, ctx)
    except _Unrenamable:
        result = (formula, {})
    else:
        renames = {
            original: tuple(names) for original, names in ctx.renames.items()
        }
        result = (canonical, renames) if renames else (formula, {})
    if cache is None:
        cache = {}
        try:
            # Nodes are frozen dataclasses; bypass their __setattr__ guard
            # (the same discipline as ``Formula.free_variables``).
            object.__setattr__(formula, _ALPHA_CACHE_ATTR, cache)
        except Exception:
            return result
    cache[key] = result
    return result
