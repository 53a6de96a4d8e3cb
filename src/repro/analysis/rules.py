"""The invariant rules the linter enforces, and their registry.

Each rule encodes one of the ROADMAP's durable contracts as an AST check,
the same way the round scheduler's :class:`~repro.rl.scheduler.SchedulePolicy`
and :class:`~repro.rl.scheduler.DeviceAssignmentPolicy` encode scheduling
behavior: a small class, a registry, and a resolve function.  Module rules
(``project_scope = False``) see one parsed :class:`~repro.analysis.engine.
SourceModule` at a time; project rules see the whole parsed set, which is
how the parity rules compare classes that live in different files.

Adding a rule is three steps: subclass :class:`Rule`, set ``rule_id`` /
``severity`` / ``description``, and decorate with :func:`register_rule`.
Every rule must ship a fixture test in ``tests/test_analysis.py`` proving
it both fires on a violation and stays quiet on conforming code.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Type

from .engine import SourceModule
from .findings import Finding

__all__ = [
    "Rule",
    "RULES",
    "register_rule",
    "default_rules",
    "resolve_rules",
    "BatchInvariantKernels",
    "DeterministicOracles",
    "LockDiscipline",
    "SeedingScheme",
    "ConfigCliParity",
    "PrecisionPolicyParity",
    "HotPathDiscipline",
]


class Rule:
    """One checkable invariant.

    ``project_scope`` selects the hook the engine calls: :meth:`check` per
    module, or :meth:`check_project` once with every parsed module.
    """

    rule_id = ""
    severity = "error"
    description = ""
    project_scope = False

    def check(self, module: SourceModule) -> List[Finding]:
        return []

    def check_project(self, modules: Sequence[SourceModule]) -> List[Finding]:
        return []

    def finding(self, file: str, line: int, message: str) -> Finding:
        return Finding(
            file=file,
            line=line,
            rule=self.rule_id,
            severity=self.severity,
            message=message,
        )


#: Registry of shipped rules, keyed by rule id (insertion-ordered).
RULES: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to :data:`RULES` (the extension point)."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} must set a non-empty rule_id")
    if cls.rule_id in RULES:
        raise ValueError(f"duplicate rule id {cls.rule_id!r}")
    RULES[cls.rule_id] = cls
    return cls


def default_rules() -> List[Rule]:
    """One instance of every registered rule, registration order."""
    return [cls() for cls in RULES.values()]


def resolve_rules(names: Optional[Iterable[str]]) -> List[Rule]:
    """Instances for the named rules (``None`` = all), unknown names raise."""
    if names is None:
        return default_rules()
    rules = []
    for name in names:
        if name not in RULES:
            raise ValueError(
                f"unknown rule {name!r}; registered rules are {sorted(RULES)}"
            )
        rules.append(RULES[name]())
    return rules


# --------------------------------------------------------------------- #
# AST helpers shared by the rules
# --------------------------------------------------------------------- #
def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _identifiers(node: ast.AST) -> Set[str]:
    """Every Name id and Attribute attr in a subtree (``args.seed`` → seed)."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


# --------------------------------------------------------------------- #
# Rule 1: env kernels must stay batch-invariant (no BLAS matmuls)
# --------------------------------------------------------------------- #
@register_rule
class BatchInvariantKernels(Rule):
    """``src/repro/envs/`` may not call BLAS matmul entry points.

    The vectorized fast path is bit-exact with scalar stepping only because
    the physics kernels are elementwise ops plus multiply/sum reductions;
    ``np.dot``/``np.matmul``/``np.einsum`` (and the ``@`` operator) route
    through BLAS, whose reduction order — and therefore floating-point
    result — varies with batch shape and thread count.
    """

    rule_id = "batch-invariant-kernels"
    severity = "error"
    description = (
        "env kernels may not call np.dot/np.matmul/np.einsum or use '@' "
        "(BLAS reductions are not batch-invariant)"
    )

    SCOPE = ("repro/envs/",)
    BANNED_CALLS = frozenset(
        f"{module}.{function}"
        for module in ("np", "numpy")
        for function in ("dot", "matmul", "einsum", "tensordot", "inner", "vdot")
    )

    def check(self, module: SourceModule) -> List[Finding]:
        if not module.in_scope(*self.SCOPE):
            return []
        findings = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.MatMult
            ):
                findings.append(
                    self.finding(
                        module.file,
                        node.lineno,
                        "matrix-multiply operator '@' in an env kernel; "
                        "batch-invariant physics use elementwise ops and "
                        "explicit multiply/sum reductions (see "
                        "LocomotionDynamics)",
                    )
                )
            elif isinstance(node, ast.Call):
                name = _dotted_name(node.func)
                if name in self.BANNED_CALLS:
                    findings.append(
                        self.finding(
                            module.file,
                            node.lineno,
                            f"{name}() in an env kernel routes through BLAS "
                            "and is not batch-invariant; use elementwise "
                            "ops with explicit sum reductions",
                        )
                    )
        return findings


# --------------------------------------------------------------------- #
# Rule 2: pricing oracles must stay deterministic
# --------------------------------------------------------------------- #
@register_rule
class DeterministicOracles(Rule):
    """``platform``/``accelerator``/``serving`` modules may not read wall
    clocks or global randomness.

    The platform layer is the pricing *oracle* of the scheduler, the
    weighted policy, and every throughput contract: two calls with the same
    arguments must price identically, forever.  Wall-clock reads and
    module-level random draws (stdlib ``random``, unseeded ``np.random``)
    make the oracle's answers depend on when — not what — it was asked.
    The serving front end is in scope too: its load traces, flush plans,
    and QPS/latency reports are modelled quantities with exact-equality
    determinism pins, so a wall-clock or global-RNG read there breaks the
    same contract.
    """

    rule_id = "deterministic-oracles"
    severity = "error"
    description = (
        "platform/accelerator/serving modules may not call wall-clock or "
        "module-level/unseeded random APIs (pricing must be deterministic)"
    )

    SCOPE = ("repro/platform/", "repro/accelerator/", "repro/serving/")
    WALL_CLOCK = frozenset(
        f"time.{function}"
        for function in (
            "time",
            "time_ns",
            "perf_counter",
            "perf_counter_ns",
            "monotonic",
            "monotonic_ns",
        )
    )
    #: Module-level np.random APIs (all share one hidden global state).
    GLOBAL_NP_RANDOM = frozenset(
        {
            "rand",
            "randn",
            "random",
            "random_sample",
            "ranf",
            "sample",
            "randint",
            "uniform",
            "normal",
            "standard_normal",
            "choice",
            "shuffle",
            "permutation",
            "seed",
            "get_state",
            "set_state",
        }
    )

    def check(self, module: SourceModule) -> List[Finding]:
        if not module.in_scope(*self.SCOPE):
            return []
        findings = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted_name(node.func)
            if name is None:
                continue
            if name in self.WALL_CLOCK:
                findings.append(
                    self.finding(
                        module.file,
                        node.lineno,
                        f"{name}() reads the wall clock inside a pricing "
                        "oracle; model time must be derived from the timing "
                        "models, not measured",
                    )
                )
            elif name.startswith("random."):
                findings.append(
                    self.finding(
                        module.file,
                        node.lineno,
                        f"{name}() draws from the stdlib global RNG; oracles "
                        "must be deterministic — take an explicit seeded "
                        "np.random.Generator if randomness is required",
                    )
                )
            elif name.startswith(("np.random.", "numpy.random.")):
                tail = name.rsplit(".", 1)[1]
                if tail in self.GLOBAL_NP_RANDOM:
                    findings.append(
                        self.finding(
                            module.file,
                            node.lineno,
                            f"{name}() uses numpy's hidden global RNG state; "
                            "use an explicit seeded np.random.Generator",
                        )
                    )
                elif tail == "default_rng" and not (node.args or node.keywords):
                    findings.append(
                        self.finding(
                            module.file,
                            node.lineno,
                            "np.random.default_rng() without a seed is "
                            "entropy-seeded; pricing oracles must pass an "
                            "explicit seed",
                        )
                    )
        return findings


# --------------------------------------------------------------------- #
# Rule 3: ReplayBuffer state mutations must hold the lock
# --------------------------------------------------------------------- #
@register_rule
class LockDiscipline(Rule):
    """Methods of the shared producer/consumer classes may mutate state
    only under ``self._lock``.

    ``ReplayBuffer`` is the single shared sink of the collection subsystem
    — async workers ``add_batch`` while the learner ``sample``s — and the
    serving front end's ``RequestQueue`` has the same shape (producers
    enqueue while the batcher flushes), so any private-attribute write
    outside a ``with self._lock`` block reintroduces the torn-transition
    races PR 2 closed.  ``__init__`` is exempt (no concurrent aliases
    exist before construction returns).
    """

    rule_id = "lock-discipline"
    severity = "error"
    description = (
        "ReplayBuffer/RequestQueue methods must mutate shared state inside "
        "'with self._lock' (producer/consumer classes of the async paths)"
    )

    TARGET_CLASSES = ("ReplayBuffer", "RequestQueue")
    EXEMPT_METHODS = frozenset({"__init__"})

    def check(self, module: SourceModule) -> List[Finding]:
        findings = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and node.name in self.TARGET_CLASSES:
                for item in node.body:
                    if (
                        isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and item.name not in self.EXEMPT_METHODS
                    ):
                        self._check_method(module, node.name, item, findings)
        return findings

    @staticmethod
    def _holds_lock(with_node: ast.With) -> bool:
        for item in with_node.items:
            name = _dotted_name(item.context_expr)
            if name is not None and name.startswith("self.") and "lock" in name:
                return True
        return False

    @staticmethod
    def _mutated_attr(target: ast.AST) -> Optional[str]:
        """The ``self._x`` attribute a store target writes, if any."""
        if isinstance(target, (ast.Subscript, ast.Starred)):
            return LockDiscipline._mutated_attr(target.value)
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                attr = LockDiscipline._mutated_attr(element)
                if attr is not None:
                    return attr
            return None
        if isinstance(target, ast.Attribute):
            if (
                isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr.startswith("_")
            ):
                return target.attr
        return None

    def _check_method(self, module, class_name, method, findings: List[Finding]) -> None:
        def visit(statements, locked: bool) -> None:
            for statement in statements:
                if isinstance(statement, (ast.With, ast.AsyncWith)):
                    visit(
                        statement.body,
                        locked or self._holds_lock(statement),
                    )
                    continue
                targets = []
                if isinstance(statement, ast.Assign):
                    targets = statement.targets
                elif isinstance(statement, (ast.AugAssign, ast.AnnAssign)):
                    targets = [statement.target]
                for target in targets:
                    attr = self._mutated_attr(target)
                    if attr is not None and not locked:
                        findings.append(
                            self.finding(
                                module.file,
                                statement.lineno,
                                f"{class_name}.{method.name} writes "
                                f"self.{attr} outside 'with self._lock'; "
                                "the state is shared across the async "
                                "producer/consumer threads",
                            )
                        )
                # Recurse into compound statements (if/for/while/try),
                # preserving the lock state; nested defs start a new scope
                # whose lock usage the rule does not track.
                for field_name in ("body", "orelse", "finalbody"):
                    body = getattr(statement, field_name, None)
                    if isinstance(body, list) and not isinstance(
                        statement,
                        (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                    ):
                        visit(body, locked)
                for handler in getattr(statement, "handlers", []) or []:
                    visit(handler.body, locked)

        visit(method.body, locked=False)


# --------------------------------------------------------------------- #
# Rule 4: seed arithmetic stays inside the blessed helper
# --------------------------------------------------------------------- #
@register_rule
class SeedingScheme(Rule):
    """Worker/env seed arithmetic belongs in ``worker_env_seed``.

    The fleet's determinism contract is the single scheme
    ``seed + env_offset(w) + i``; re-deriving a worker offset inline
    (``seed + w * num_envs``-style arithmetic) forks the scheme and breaks
    the moment widths stop being uniform — exactly the drift the
    cumulative-offset refactor closed.  Call
    :func:`repro.rl.workers.worker_env_seed` instead.
    """

    rule_id = "seeding-scheme"
    severity = "warning"
    description = (
        "worker/env seed offset arithmetic outside worker_env_seed forks "
        "the seed + env_offset(w) + i scheme"
    )

    #: Functions allowed to do raw seed arithmetic (the scheme's home).
    BLESSED_FUNCTIONS = frozenset({"worker_env_seed"})
    #: Identifiers whose product with anything marks worker-offset math.
    OFFSET_NAMES = frozenset(
        {"num_envs", "num_workers", "width", "worker_id", "env_offset"}
    )

    def check(self, module: SourceModule) -> List[Finding]:
        findings = []

        def is_offset_product(node: ast.AST) -> bool:
            for child in ast.walk(node):
                if isinstance(child, ast.BinOp) and isinstance(child.op, ast.Mult):
                    if _identifiers(child) & self.OFFSET_NAMES:
                        return True
            return False

        def visit(node: ast.AST, blessed: bool) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                blessed = blessed or node.name in self.BLESSED_FUNCTIONS
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                sides = (node.left, node.right)
                seedish = any(
                    any("seed" in name for name in _identifiers(side))
                    for side in sides
                )
                offset = any(is_offset_product(side) for side in sides)
                if seedish and offset and not blessed:
                    findings.append(
                        self.finding(
                            module.file,
                            node.lineno,
                            "inline worker seed arithmetic; derive the seed "
                            "via repro.rl.workers.worker_env_seed so the "
                            "cumulative env_offset scheme stays the single "
                            "source of truth",
                        )
                    )
            for child in ast.iter_child_nodes(node):
                visit(child, blessed)

        visit(module.tree, blessed=False)
        return findings


# --------------------------------------------------------------------- #
# Rule 5: every TrainingConfig field is reachable from the CLI
# --------------------------------------------------------------------- #
@register_rule
class ConfigCliParity(Rule):
    """Every config field has a CLI flag or a documented exclusion.

    For each covered config class (``TrainingConfig`` ↔ the ``train``
    flags, ``ServingConfig`` ↔ the ``serve`` flags), ``cli.py`` declares a
    flag-alias mapping (field → flag, for flags whose spelling is not the
    mechanical ``--field-name``) and an exclusion list (field → one-line
    reason).  A config field covered by neither is a knob users cannot
    reach — the drift this rule pins at diff time instead of issue-report
    time.  Stale alias or exclusion entries (naming no current field) are
    flagged too.
    """

    rule_id = "config-cli-parity"
    severity = "error"
    description = (
        "every TrainingConfig/ServingConfig field needs a CLI flag in "
        "cli.py or an entry in its documented exclusion list"
    )
    project_scope = True

    #: (config class, config scope, aliases constant, exclusions constant).
    SPECS = (
        (
            "TrainingConfig",
            ("repro/rl/",),
            "CONFIG_FLAG_ALIASES",
            "CONFIG_FIELDS_WITHOUT_FLAGS",
        ),
        (
            "ServingConfig",
            ("repro/serving/",),
            "SERVING_FLAG_ALIASES",
            "SERVING_FIELDS_WITHOUT_FLAGS",
        ),
    )
    CLI_SCOPE = ("repro/cli.py",)

    def _config_fields(self, modules, config_class, config_scope):
        for module in modules:
            if not module.in_scope(*config_scope):
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef) and node.name == config_class:
                    fields = {}
                    for item in node.body:
                        if isinstance(item, ast.AnnAssign) and isinstance(
                            item.target, ast.Name
                        ):
                            fields[item.target.id] = item.lineno
                    return module, fields
        return None, {}

    def _cli_module(self, modules):
        for module in modules:
            if module.in_scope(*self.CLI_SCOPE):
                return module
        return None

    @staticmethod
    def _module_constant(module, name: str):
        """(literal value, line) of a module-level constant, if present."""
        for node in module.tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        try:
                            return ast.literal_eval(node.value), node.lineno
                        except ValueError:
                            return None, node.lineno
        return None, None

    @staticmethod
    def _declared_flags(module) -> Set[str]:
        flags = set()
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"
            ):
                for argument in node.args:
                    if isinstance(argument, ast.Constant) and isinstance(
                        argument.value, str
                    ):
                        if argument.value.startswith("--"):
                            flags.add(argument.value)
        return flags

    def check_project(self, modules: Sequence[SourceModule]) -> List[Finding]:
        cli = self._cli_module(modules)
        if cli is None:
            return []
        flags = self._declared_flags(cli)
        findings = []
        for config_class, config_scope, aliases_name, exclusions_name in self.SPECS:
            config_module, fields = self._config_fields(
                modules, config_class, config_scope
            )
            if config_module is None or not fields:
                # A scan without this config class (e.g. the fixture trees
                # in the rule tests) has nothing to check for this spec.
                continue
            aliases, aliases_line = self._module_constant(cli, aliases_name)
            exclusions, exclusions_line = self._module_constant(
                cli, exclusions_name
            )
            aliases = dict(aliases or {})
            exclusions = dict(exclusions or {})

            for field_name, line in fields.items():
                flag = aliases.get(field_name, "--" + field_name.replace("_", "-"))
                if flag in flags or field_name in exclusions:
                    continue
                findings.append(
                    self.finding(
                        config_module.file,
                        line,
                        f"{config_class}.{field_name} has no CLI flag "
                        f"({flag} is not declared in cli.py) and no "
                        f"{exclusions_name} entry; add the flag or document "
                        "the exclusion",
                    )
                )
            for stale in sorted(set(aliases) - set(fields)):
                findings.append(
                    self.finding(
                        cli.file,
                        aliases_line or 1,
                        f"{aliases_name} names {stale!r}, which is not a "
                        f"{config_class} field (stale alias)",
                    )
                )
            for stale in sorted(set(exclusions) - set(fields)):
                findings.append(
                    self.finding(
                        cli.file,
                        exclusions_line or 1,
                        f"{exclusions_name} names {stale!r}, which is not a "
                        f"{config_class} field (stale exclusion)",
                    )
                )
        return findings


# --------------------------------------------------------------------- #
# Rule 6: every PrecisionPolicy subclass is registered
# --------------------------------------------------------------------- #
@register_rule
class PrecisionPolicyParity(Rule):
    """Every concrete ``PrecisionPolicy`` subclass must be registered.

    ``--precision-policy`` and :func:`~repro.rl.precision.resolve_precision`
    look policies up in the ``PRECISION_POLICIES`` registry, which is
    populated only by the :func:`~repro.rl.precision.register_precision_policy`
    decorator.  A subclass someone writes but forgets to decorate is a
    policy users cannot select — exactly the silent drift the schedule and
    assignment registries already guard against by convention.  This rule
    pins the convention statically: every class in ``repro/rl/`` that
    derives (transitively, within the scanned files) from ``PrecisionPolicy``
    must carry the ``@register_precision_policy`` decorator.
    """

    rule_id = "precision-policy-parity"
    severity = "error"
    description = (
        "every PrecisionPolicy subclass in repro/rl/ must be decorated with "
        "@register_precision_policy so --precision-policy can resolve it"
    )
    project_scope = True

    BASE_CLASS = "PrecisionPolicy"
    REGISTRAR = "register_precision_policy"
    SCOPE = ("repro/rl/",)

    def _scoped_classes(self, modules):
        classes = {}
        for module in modules:
            if not module.in_scope(*self.SCOPE):
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    classes[node.name] = (module, node)
        return classes

    def _derives_from_base(self, name, classes, _seen=None) -> bool:
        seen = _seen or set()
        if name in seen:
            return False
        seen.add(name)
        _module, node = classes[name]
        for base in node.bases:
            base_name = _dotted_name(base)
            if base_name is None:
                continue
            base_name = base_name.rsplit(".", 1)[-1]
            if base_name == self.BASE_CLASS:
                return True
            if base_name in classes and self._derives_from_base(
                base_name, classes, seen
            ):
                return True
        return False

    def _is_registered(self, node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = _dotted_name(target)
            if name is not None and name.rsplit(".", 1)[-1] == self.REGISTRAR:
                return True
        return False

    def check_project(self, modules: Sequence[SourceModule]) -> List[Finding]:
        classes = self._scoped_classes(modules)
        if self.BASE_CLASS not in classes:
            # A scan that does not include the precision module (e.g.
            # linting only benchmarks/) has nothing to check.
            return []
        findings = []
        for name in sorted(classes):
            if name == self.BASE_CLASS or name.startswith("_"):
                continue
            module, node = classes[name]
            if not self._derives_from_base(name, classes):
                continue
            if self._is_registered(node):
                continue
            findings.append(
                self.finding(
                    module.file,
                    node.lineno,
                    f"{name} subclasses {self.BASE_CLASS} but is not decorated "
                    f"with @{self.REGISTRAR}; unregistered policies cannot be "
                    "selected via --precision-policy or resolve_precision()",
                )
            )
        return findings


# --------------------------------------------------------------------- #
# Rule 7: hot-annotated functions stay allocation-disciplined
# --------------------------------------------------------------------- #
@register_rule
class HotPathDiscipline(Rule):
    """Functions marked ``# repro-lint: hot`` may not re-allocate per call.

    The rollout hot path earns its measured-throughput contract
    (``bench_hotpath``) by hoisting per-lock-step allocations and lookups:
    index vectors are cached, info dicts are lazy, and ``self.a.b`` chains
    are bound once.  The hot marker — placed on the ``def`` line or the
    line directly above it — declares a function part of that path, and
    this rule keeps the discipline from regressing: inside a hot function
    it flags ``np.arange`` calls (per-call index allocation), dict
    displays/comprehensions (per-call boxing), and loads of ``self.x.y``
    attribute chains (re-resolved every call; bind them in ``__init__`` or
    to a local).  Warnings, like ``seeding-scheme`` — but CI runs
    ``--strict``, so shipped hot functions stay clean.
    """

    rule_id = "hot-path-discipline"
    severity = "warning"
    description = (
        "functions annotated '# repro-lint" ": hot' may not call np.arange, "
        "build dict literals, or load self.x.y attribute chains per call"
    )

    #: The marker, concatenated so this file's own source never matches.
    HOT_MARKER = "# repro-lint" ": hot"
    ARANGE_CALLS = frozenset({"np.arange", "numpy.arange"})

    def _hot_functions(self, module: SourceModule):
        lines = module.source.splitlines()
        marked = {
            lineno
            for lineno, line in enumerate(lines, start=1)
            if self.HOT_MARKER in line
        }
        if not marked:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.lineno in marked or node.lineno - 1 in marked:
                    yield node

    def check(self, module: SourceModule) -> List[Finding]:
        findings = []
        for function in self._hot_functions(module):
            # Only the outermost attribute of a chain is reported (walking
            # self.a.b.c also visits self.a.b, which would double-count).
            inner_attributes = {
                id(node.value)
                for node in ast.walk(function)
                if isinstance(node, ast.Attribute)
            }
            for node in ast.walk(function):
                if isinstance(node, ast.Call):
                    name = _dotted_name(node.func)
                    if name in self.ARANGE_CALLS:
                        findings.append(
                            self.finding(
                                module.file,
                                node.lineno,
                                f"{name}() inside hot {function.name}() "
                                "allocates an index vector every call; cache "
                                "it (e.g. in __init__) or use slice writes",
                            )
                        )
                elif isinstance(node, (ast.Dict, ast.DictComp)):
                    findings.append(
                        self.finding(
                            module.file,
                            node.lineno,
                            f"dict construction inside hot {function.name}() "
                            "boxes values every call; build dicts lazily "
                            "outside the hot path (see LazyInfos)",
                        )
                    )
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and id(node) not in inner_attributes
                ):
                    name = _dotted_name(node)
                    if (
                        name is not None
                        and name.startswith("self.")
                        and name.count(".") >= 2
                    ):
                        findings.append(
                            self.finding(
                                module.file,
                                node.lineno,
                                f"attribute chain {name} inside hot "
                                f"{function.name}() re-resolves every call; "
                                "bind it to a local or cache the bound "
                                "method in __init__",
                            )
                        )
        return findings
