"""The query planner (Sections 7-8).

Per Section 7, after parsing, simplification and DNF transformation, each
AND-term is planned separately and the subaccess plans are combined by
UNION:

1. per range variable, the atomic (immediate) selections decide between
   index probes and a sequential scan (Section 8.1);
2. each variable's path selections are ordered by ``F/(1-s)``
   (Algorithm 8.1) and each path expands into a chain of implicit joins
   ordered greedily (Algorithm 8.2), earlier paths becoming temporaries
   (the paper's T1) that head later chains;
3. explicit join predicates merge variable groups (reference-path joins
   reuse Algorithm 8.2; anything else becomes a nested loop);
4. remaining 'other' selections apply where their variables are bound;
5. projections apply per term (Figure 7.2's SELECT - JOIN - PROJECT -
   UNION order), then UNION, grouping, duplicate elimination and sorting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.core.errors import OptimizerError
from repro.cost.params import DatabaseStats
from repro.cost.selectivity import (
    DEFAULT_OTHER_SELECTIVITY,
    path_selectivity,
)
from repro.optimizer.atomic import plan_atomic_selections
from repro.optimizer.classify import (
    ClassifiedTerm,
    ExplicitJoin,
    classify_term,
    resolve_reference_path,
)
from repro.optimizer.dictionaries import (
    OtherSelEntry,
    SelectionDictionaries,
)
from repro.optimizer.joins import ChainLeaf, MergeStep, order_implicit_joins
from repro.optimizer.paths import order_by_rank, rank_path_predicates
from repro.optimizer.plan import (
    BindNode,
    DupElimNode,
    IndexProbe,
    IndSelNode,
    JoinNode,
    NamedRef,
    PartitionNode,
    PlanNode,
    ProjectNode,
    SelectNode,
    SortNode,
    UnionNode,
)
from repro.sql.ast import Expr, Literal, Param, SelectQuery
from repro.sql.rewrite import referenced_variables, simplify, to_dnf
from repro.storage.disk import DiskParams


def _first_param(node) -> Param | None:
    """The first unbound bind parameter anywhere in an AST, or None."""
    import dataclasses

    if isinstance(node, Param):
        return node
    if isinstance(node, tuple):
        for item in node:
            found = _first_param(item)
            if found is not None:
                return found
    elif dataclasses.is_dataclass(node) and not isinstance(node, type):
        for field_info in dataclasses.fields(node):
            found = _first_param(getattr(node, field_info.name))
            if found is not None:
                return found
    return None


@dataclass
class TermPlanInfo:
    """Planning artifacts of one AND-term (for inspection and benches)."""

    plan: PlanNode
    dictionaries: SelectionDictionaries
    classified: ClassifiedTerm
    join_steps: list[MergeStep] = field(default_factory=list)
    initial_join_estimates: list[MergeStep] = field(default_factory=list)
    cardinality: float = 0.0


@dataclass
class QueryPlan:
    root: PlanNode
    temporaries: list[tuple[str, PlanNode]] = field(default_factory=list)
    terms: list[TermPlanInfo] = field(default_factory=list)
    output_vars: tuple[str, ...] = ()
    #: The query's projections, evaluated over the executed rows.
    projections: tuple[Expr, ...] = ()
    #: Compiled expressions by ``id(expr)`` (``engine.evaluator``),
    #: filled on first execution and reused by every later one.
    compiled: dict = field(default_factory=dict, repr=False, compare=False)

    def render(self) -> str:
        from repro.optimizer.plan import render_plan

        return render_plan(self.root, self.temporaries)


@dataclass
class _VarGroup:
    """A connected set of range variables with one combined plan."""

    vars: set[str]
    plan: PlanNode
    cardinality: float


class Planner:
    """Cost-based MOODSQL planner."""

    def __init__(
        self,
        catalog: Catalog,
        stats: DatabaseStats,
        disk: DiskParams | None = None,
        btree_params_of=None,
        join_indexes=None,
        path_indexes=None,
        cpu_cost: float | None = None,
    ):
        self.catalog = catalog
        self.stats = stats
        self.disk = disk or DiskParams()
        self.btree_params_of = btree_params_of
        self.join_indexes = join_indexes or {}
        #: (head class, path attrs) -> (index name, BTreeParams)
        self.path_indexes = path_indexes or {}
        self.cpu_cost = cpu_cost
        self._temp_counter = 0

    # -- public API ------------------------------------------------------

    def plan_query(self, query: SelectQuery) -> QueryPlan:
        # Selectivity estimation reads predicate constants; parameters
        # must have been replaced with bind-time Literals by now.
        param = _first_param(query)
        if param is not None:
            raise OptimizerError(
                f"unbound parameter {param} reached the optimizer; "
                "bind values via EXECUTE or PreparedStatement.bind first"
            )
        self._temp_counter = 0
        var_classes: dict[str, str] = {}
        var_includes: dict[str, tuple[str, ...]] = {}
        for range_var in query.ranges:
            if range_var.var in var_classes:
                raise OptimizerError(
                    f"duplicate range variable {range_var.var!r}"
                )
            var_classes[range_var.var] = range_var.class_name
            var_includes[range_var.var] = tuple(
                self.catalog.hierarchy.extent_classes(
                    range_var.class_name, list(range_var.minus)
                )
            )
        self._check_projections(query, var_classes)

        where = simplify(query.where) if query.where is not None else None
        if where is None:
            terms = [[]]
        else:
            terms = to_dnf(where)

        plan = QueryPlan(root=BindNode("", ""),
                         output_vars=tuple(var_classes),
                         projections=tuple(query.projections))
        term_plans: list[PlanNode] = []
        for term in terms:
            info = self._plan_term(term, query, var_classes, var_includes,
                                   plan.temporaries)
            plan.terms.append(info)
            term_plans.append(info.plan)
        if not term_plans:   # constant FALSE where-clause
            empty = SelectNode(BindNode(query.ranges[0].class_name,
                                        query.ranges[0].var,
                                        var_includes[query.ranges[0].var]),
                               (Literal(False),))
            term_plans = [empty]
        root = term_plans[0] if len(term_plans) == 1 else UnionNode(
            tuple(term_plans), key_vars=tuple(var_classes)
        )
        if query.group_by:
            root = PartitionNode(root, query.group_by, query.having)
            if query.projections:
                root = ProjectNode(root, query.projections)
        if query.distinct:
            root = DupElimNode(root)
        if query.order_by:
            root = SortNode(root, query.order_by)
        plan.root = root
        return plan

    # -- helpers -----------------------------------------------------------

    def _check_projections(self, query: SelectQuery,
                           var_classes: dict[str, str]) -> None:
        for expr in query.projections:
            unknown = referenced_variables(expr) - set(var_classes)
            if unknown:
                raise OptimizerError(
                    f"projection references unbound variables "
                    f"{sorted(unknown)}"
                )

    def _next_temp(self) -> str:
        self._temp_counter += 1
        return f"T{self._temp_counter}"

    def _synthetic_var(self, seed: str, taken: set[str]) -> str:
        """Fresh range-variable name from a seed (the paper names chain
        variables after the reference attribute: drivetrain -> d)."""
        base = seed[0].lower() if seed else "x"
        candidate = base
        suffix = 1
        while candidate in taken:
            suffix += 1
            candidate = f"{base}{suffix}"
        taken.add(candidate)
        return candidate

    def _class_card(self, class_name: str) -> float:
        if self.stats.has_class(class_name):
            return float(self.stats.card(class_name))
        return 1000.0  # no statistics: a neutral default

    # -- term planning -------------------------------------------------------

    def _plan_term(
        self,
        term: list[Expr],
        query: SelectQuery,
        var_classes: dict[str, str],
        var_includes: dict[str, tuple[str, ...]],
        temporaries: list[tuple[str, PlanNode]],
    ) -> TermPlanInfo:
        classified = classify_term(term, var_classes, self.catalog)
        dictionaries = SelectionDictionaries()
        taken_names = set(var_classes)
        groups: dict[str, _VarGroup] = {}

        # 1. Atomic selections per range variable (Section 8.1).
        for var, class_name in var_classes.items():
            leaf, cardinality = self._plan_var_leaf(
                var, class_name, var_includes[var], classified, dictionaries
            )
            groups[var] = _VarGroup({var}, leaf, cardinality)

        # 2. Path selections per variable (Algorithms 8.1 then 8.2).
        info_steps: list[MergeStep] = []
        initial_estimates: list[MergeStep] = []
        for var in var_classes:
            predicates = classified.path_for(var)
            if not predicates:
                continue
            entries = rank_path_predicates(
                predicates, self.stats, self.disk,
                k0=groups[var].cardinality,
            )
            dictionaries.path.extend(entries)
            ordered = order_by_rank(entries)
            by_expr = {id(e.predicate): p for e, p in zip(entries, predicates)}
            group = groups[var]
            for position, entry in enumerate(ordered):
                predicate = by_expr[id(entry.predicate)]
                # A path index collapses the whole chain into one probe
                # when the range variable is still an unrestricted bind.
                if isinstance(group.plan, BindNode):
                    indexed = self._try_path_index(
                        var, var_classes[var], var_includes[var],
                        predicate, entry,
                    )
                    if indexed is not None:
                        group.plan = indexed
                        group.cardinality = max(
                            1.0, group.cardinality * entry.selectivity
                        )
                        continue
                head_plan = group.plan
                if position > 0:
                    temp_name = self._next_temp()
                    temporaries.append((temp_name, group.plan))
                    head_plan = NamedRef(temp_name, group.plan)
                result = self._expand_path_chain(
                    var, var_classes[var], var_includes[var], predicate,
                    head_plan, group.cardinality, taken_names,
                )
                info_steps.extend(result.steps)
                initial_estimates.extend(result.initial_estimates)
                selectivity = path_selectivity(
                    self.stats, predicate.path, predicate.op,
                    predicate.constant, predicate.constant2,
                )
                group.plan = result.plan
                group.cardinality = max(
                    1.0, group.cardinality * selectivity
                )

        # 3. Explicit joins merge variable groups.
        pending = list(classified.joins)
        leftovers: list[ExplicitJoin] = []
        for join in pending:
            left_group = groups[join.left_var]
            right_group = groups[join.right_var]
            if left_group is right_group:
                leftovers.append(join)  # already connected: plain filter
                continue
            merged = self._plan_explicit_join(
                join, left_group, right_group, var_classes, taken_names,
                info_steps, initial_estimates,
            )
            if merged is None:
                leftovers.append(join)
                continue
            for member in merged.vars:
                groups[member] = merged

        # 4. Remaining joins/cross products and other predicates.
        unique_groups: list[_VarGroup] = []
        for group in groups.values():
            if group not in unique_groups:
                unique_groups.append(group)
        while len(unique_groups) > 1:
            left = unique_groups.pop(0)
            right = unique_groups.pop(0)
            cross = JoinNode(left.plan, right.plan, "NESTED_LOOP", "TRUE",
                             predicate_expr=None)
            cross.estimated_cardinality = left.cardinality * right.cardinality
            merged = _VarGroup(left.vars | right.vars, cross,
                               left.cardinality * right.cardinality)
            unique_groups.insert(0, merged)
        final_group = unique_groups[0]

        residual_filters: list[Expr] = []
        for join in leftovers:
            residual_filters.append(join.expr)
        for other in classified.other:
            if other.var and len(
                    referenced_variables(other.expr)) <= 1:
                continue  # single-var others were applied at the leaf
            residual_filters.append(other.expr)
        plan: PlanNode = final_group.plan
        if residual_filters:
            plan = SelectNode(plan, tuple(residual_filters))
            final_group.cardinality *= (
                DEFAULT_OTHER_SELECTIVITY ** len(residual_filters)
            )

        # 5. Per-term projection (Figure 7.2), unless grouping needs the
        # raw bindings.
        if query.projections and not query.group_by:
            plan = ProjectNode(plan, query.projections)

        return TermPlanInfo(
            plan=plan,
            dictionaries=dictionaries,
            classified=classified,
            join_steps=info_steps,
            initial_join_estimates=initial_estimates,
            cardinality=final_group.cardinality,
        )

    def _plan_var_leaf(
        self,
        var: str,
        class_name: str,
        include_classes: tuple[str, ...],
        classified: ClassifiedTerm,
        dictionaries: SelectionDictionaries,
    ) -> tuple[PlanNode, float]:
        immediate = classified.immediate_for(var)
        atomic = plan_atomic_selections(
            immediate, var, class_name, self.catalog, self.stats, self.disk,
            self.btree_params_of,
        )
        dictionaries.imm.extend(atomic.entries)
        plan: PlanNode
        if atomic.access_type == "indexed":
            probes = tuple(
                IndexProbe(choice.index.name, choice.index.kind,
                           choice.predicate.expr)
                for choice in atomic.chosen_indexes
            )
            plan = IndSelNode(class_name, var, probes, include_classes)
        else:
            plan = BindNode(class_name, var, include_classes)
        plan.estimated_cost = atomic.estimated_cost
        if atomic.residual:
            plan = SelectNode(plan, tuple(p.expr for p in atomic.residual))
        # IS-A semantics: the bind ranges over the resolved class closure,
        # so its cardinality sums the included classes' extents.
        base_card = sum(
            self.stats.card(member)
            for member in include_classes
            if self.stats.has_class(member)
        )
        if base_card == 0:
            base_card = self._class_card(class_name)
        cardinality = base_card * atomic.combined_selectivity
        # Single-variable 'other' selections apply at the leaf too.
        others = [o for o in classified.other_for(var)
                  if len(referenced_variables(o.expr)) == 1]
        if others:
            for other in others:
                dictionaries.other.append(
                    OtherSelEntry(
                        range_var=var,
                        predicate=other.expr,
                        selectivity=DEFAULT_OTHER_SELECTIVITY,
                        sequential_access_cost=plan.estimated_cost,
                    )
                )
            plan = SelectNode(plan, tuple(o.expr for o in others))
            cardinality *= DEFAULT_OTHER_SELECTIVITY ** len(others)
        plan.estimated_cardinality = cardinality
        return plan, max(1.0, cardinality)

    def _try_path_index(self, var, class_name, include_classes,
                        predicate, entry):
        """Plan a path predicate as a single path-index probe when one
        covers the chain and the probe beats the forward traversal."""
        attrs = predicate.path.reference_attrs + (predicate.path.final_attr,)
        found = None
        for (head, path_attrs), (name, params) in self.path_indexes.items():
            if path_attrs != attrs:
                continue
            if self.catalog.hierarchy.is_subclass(class_name, head):
                found = (name, params)
                break
        if found is None:
            return None
        if predicate.op not in ("=", "<", "<=", ">", ">=", "BETWEEN"):
            return None
        name, params = found
        from repro.cost.fileops import indcost, rndcost, rngxcost

        if predicate.op == "=":
            probe_cost = indcost(self.disk, params, 1)
        else:
            probe_cost = rngxcost(self.disk, params, entry.selectivity)
        k0 = self._class_card(class_name)
        fetch_cost = rndcost(self.disk, k0 * entry.selectivity)
        if probe_cost + fetch_cost >= entry.forward_traversal_cost:
            return None
        # The original comparison (path theta literal) doubles as the probe
        # spec and the executor's verification predicate.
        node = IndSelNode(
            class_name, var,
            (IndexProbe(name, "path", predicate.expr),),
            include_classes,
        )
        node.estimated_cost = probe_cost + fetch_cost
        return node

    def _expand_path_chain(
        self,
        var: str,
        class_name: str,
        include_classes: tuple[str, ...],
        predicate,
        head_plan: PlanNode,
        head_cardinality: float,
        taken_names: set[str],
    ):
        """Build the Algorithm 8.2 chain for one path predicate."""
        path = predicate.path
        leaves = [ChainLeaf(class_name, var, max(1.0, head_cardinality),
                            head_plan)]
        # Intermediate classes C_2..C_{m-1} are fresh binds, named after
        # the reference attribute reaching them (drivetrain -> d).
        for index, target in enumerate(path.classes[1:-1]):
            synthetic = self._synthetic_var(path.reference_attrs[index],
                                            taken_names)
            bind = BindNode(target, synthetic,
                            tuple(self.catalog.hierarchy.extent_classes(target)))
            leaves.append(
                ChainLeaf(target, synthetic, self._class_card(target), bind)
            )
        # The final class carries the tail selection A_m theta c.
        final_class = path.classes[-1]
        synthetic = self._synthetic_var(path.reference_attrs[-1], taken_names)
        final_bind = BindNode(
            final_class, synthetic,
            tuple(self.catalog.hierarchy.extent_classes(final_class)),
        )
        from repro.cost.selectivity import atomic_selectivity

        tail_sel = atomic_selectivity(
            self.stats, final_class, path.final_attr, predicate.op,
            predicate.constant, predicate.constant2,
        )
        tail_pred = _retarget_tail_predicate(predicate, synthetic)
        final_plan = SelectNode(final_bind, (tail_pred,))
        leaves.append(
            ChainLeaf(final_class, synthetic,
                      max(1.0, self._class_card(final_class) * tail_sel),
                      final_plan)
        )
        return order_implicit_joins(
            leaves, list(path.reference_attrs), self.stats, self.disk,
            join_indexes=self.join_indexes, cpu_cost=self.cpu_cost,
        )

    def _plan_explicit_join(
        self,
        join: ExplicitJoin,
        left_group: _VarGroup,
        right_group: _VarGroup,
        var_classes: dict[str, str],
        taken_names: set[str],
        info_steps: list[MergeStep],
        initial_estimates: list[MergeStep],
    ) -> _VarGroup | None:
        """Merge two variable groups through an equi-join predicate.

        Reference-path joins (``c.path.ref = v``) become Algorithm 8.2
        chains; anything else falls back to a nested loop."""
        if join.op == "=" and join.left_attrs and not join.right_attrs:
            chain = resolve_reference_path(
                self.catalog, var_classes[join.left_var], join.left_attrs
            )
            target_class = var_classes[join.right_var]
            if chain is not None and (
                self.catalog.hierarchy.is_subclass(chain[-1], target_class)
                or self.catalog.hierarchy.is_subclass(target_class, chain[-1])
            ):
                leaves = [
                    ChainLeaf(var_classes[join.left_var], join.left_var,
                              left_group.cardinality, left_group.plan)
                ]
                for index, middle in enumerate(chain[1:-1]):
                    synthetic = self._synthetic_var(
                        join.left_attrs[index], taken_names
                    )
                    bind = BindNode(
                        middle, synthetic,
                        tuple(self.catalog.hierarchy.extent_classes(middle)),
                    )
                    leaves.append(ChainLeaf(middle, synthetic,
                                            self._class_card(middle), bind))
                leaves.append(
                    ChainLeaf(target_class, join.right_var,
                              right_group.cardinality, right_group.plan)
                )
                result = order_implicit_joins(
                    leaves, list(join.left_attrs), self.stats, self.disk,
                    join_indexes=self.join_indexes, cpu_cost=self.cpu_cost,
                )
                info_steps.extend(result.steps)
                initial_estimates.extend(result.initial_estimates)
                return _VarGroup(
                    left_group.vars | right_group.vars,
                    result.plan,
                    max(1.0, result.cardinality),
                )
        if join.op == "=" and join.right_attrs and not join.left_attrs:
            flipped = ExplicitJoin(
                left_var=join.right_var,
                left_attrs=join.right_attrs,
                right_var=join.left_var,
                right_attrs=(),
                op="=",
                expr=join.expr,
            )
            return self._plan_explicit_join(
                flipped, right_group, left_group, var_classes, taken_names,
                info_steps, initial_estimates,
            )
        # General theta-join: nested loop.
        cross = JoinNode(left_group.plan, right_group.plan, "NESTED_LOOP",
                         str(join.expr), predicate_expr=join.expr)
        cardinality = max(
            1.0,
            left_group.cardinality * right_group.cardinality
            * DEFAULT_OTHER_SELECTIVITY,
        )
        cross.estimated_cardinality = cardinality
        return _VarGroup(left_group.vars | right_group.vars, cross,
                         cardinality)


def _retarget_tail_predicate(predicate, synthetic_var: str) -> Expr:
    """Rewrite ``v.a1...am theta c`` as ``x.am theta c`` for the synthetic
    tail variable x."""
    from repro.sql.ast import Between, BinOp, Path

    tail = Path(synthetic_var, (predicate.path.final_attr,))
    if predicate.op == "BETWEEN":
        return Between(tail, Literal(predicate.constant),
                       Literal(predicate.constant2))
    return BinOp(predicate.op, tail, Literal(predicate.constant))
