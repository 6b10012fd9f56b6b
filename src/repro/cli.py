"""An interactive shell for the bag algebra: ``python -m repro``.

The REPL reads surface-syntax expressions (see :mod:`repro.surface`),
evaluates them against a session environment, and offers a handful of
commands::

    bag> B = {{['a','b'], ['a','b'], ['b','a']}}
    bag> pi[1](B)
    {{['a']*2, ['b']}}
    bag> :type pi[1](B)
    {{[U]}}
    bag> :fragment eps(B) - B
    BALG^1_0  (result type {{[U, U]}}, ...)
    bag> :encode pi[1](B)
    {(sa),(sa),(sb)}
    bag> :quit

Commands:

``name = expr``       bind the value of ``expr`` to ``name``
``expr``              evaluate and print
``:type expr``        infer the type
``:fragment expr``    fragment report (nesting, power nesting)
``:optimize expr``    show the rewritten expression
``:explain expr``     logical plan (types + estimates), the planner's
                      per-stage report (tree after normalize /
                      rewrite / lower with rule-firing counts), and
                      the physical plan (kernel per node, estimated
                      vs actual cardinalities)
``:encode expr``      print the Section 2 standard encoding
``:engine [name]``    show or set the evaluator
                      (physical | parallel | codegen | tree)
``:semiring [name]``  show or set the multiplicity semiring
                      (nat | bool | tropical | provenance)
``:resilience [on|off]``  show or toggle fault-tolerant parallel
                      execution (morsel retry + degradation ladder)
``:passes``           list the planner's passes and their on/off state
``:passes level N``   set the optimization level (0 | 1 | 2 | 3)
``:passes on NAME``   force one pass on (``off`` to force it off,
                      ``reset`` to clear all toggles)
``:workspace open P`` open a storage workspace: bind its relations
                      and compile against its statistics catalog
                      (``analyze`` refreshes stats, ``close``
                      detaches)
``:feedback on|off``  fold observed cardinalities back into the open
                      workspace's catalog after each run
``:save name path``   write a binding's standard encoding to a file
``:load name path``   read a standard encoding from a file
``:env``              list bindings
``:limits``           show the active resource limits
``:quit`` / EOF       leave

Resource limits (``python -m repro --max-steps 100000 --max-size
1000000 --timeout 5 ...``) apply per evaluated expression: a powerset
blow-up or a diverging fixpoint prints a structured ``error:`` line
and the shell stays alive.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, TextIO, Tuple

from repro.core.bag import Bag
from repro.core.errors import ReproError
from repro.core.fragments import fragment_report
from repro.core.typecheck import TypeChecker
from repro.core.types import type_of
from repro.guard import Limits, ResourceGovernor
from repro.planner.context import OPT_LEVELS, resolve_engine
from repro.surface import parse, to_text

__all__ = ["Session", "main", "parse_limit_flags"]

_PROMPT = "bag> "


def _parse_level(raw: object, flag: str) -> int:
    """``raw`` as an opt level; anything else raises ``ValueError``."""
    levels = [str(level) for level in OPT_LEVELS]
    if str(raw) not in levels:
        raise ValueError(f"{flag} expects one of {', '.join(levels)}, "
                         f"got {raw!r}")
    return int(raw)


#: CLI flag -> (Limits field, converter).
_LIMIT_FLAGS = {
    "--max-steps": ("max_steps", int),
    "--max-size": ("max_size", int),
    "--powerset-budget": ("powerset_budget", int),
    "--timeout": ("timeout", float),
    "--max-depth": ("max_depth", int),
    "--max-iterations": ("max_iterations", int),
}


class Session:
    """One REPL session: named bindings plus the command dispatcher.

    ``limits`` (a :class:`~repro.guard.Limits`) governs every
    evaluation; a fresh governor is armed per expression so deadlines
    are per-query, matching how a query engine would meter requests.
    """

    def __init__(self, out: Optional[TextIO] = None,
                 limits: Optional[Limits] = None,
                 engine: str = "physical",
                 workers: Optional[int] = None,
                 parallel_backend: str = "thread",
                 opt_level: Optional[int] = None,
                 resilience: bool = False,
                 semiring: Optional[str] = None):
        resolve_engine(engine)  # an unknown name raises ValueError
        if opt_level is not None:
            _parse_level(opt_level, "--opt-level")
        from repro.core.semiring import resolve_semiring, semiring_name
        #: The multiplicity semiring's registry name; ``"nat"`` is the
        #: paper's N default (every fast path stays engaged).
        self.semiring = semiring_name(resolve_semiring(semiring))
        self.bindings: Dict[str, object] = {}
        self.out = out if out is not None else sys.stdout
        self.limits = limits
        self.engine = engine
        self.workers = workers
        self.parallel_backend = parallel_backend
        #: Fault-tolerant parallel execution (``--resilience`` /
        #: ``:resilience on``): morsel retry, pool respawn, and the
        #: degradation ladder; only consulted under engine=parallel.
        self.resilience = resilience
        #: ``None`` keeps the engine's default level (from
        #: ``repro.planner.ENGINES``); ``:passes level N`` overrides it.
        self.opt_level = opt_level
        #: Per-pass overrides from ``:passes on/off NAME``.
        self.pass_toggles: Dict[str, bool] = {}
        #: The open :class:`~repro.storage.Workspace` (``:workspace
        #: open PATH``): its relations become session bindings and
        #: its catalog drives compilation.
        self.workspace = None
        #: ``:feedback on`` folds observed cardinalities back into
        #: the open workspace's catalog after each evaluation.
        self.feedback = False

    # -- helpers ----------------------------------------------------------

    def _print(self, *parts: object) -> None:
        print(*parts, file=self.out)

    def _schema(self):
        return {name: type_of(value)
                for name, value in self.bindings.items()}

    def _default_level(self) -> int:
        """The opt level the current engine defaults to."""
        return resolve_engine(self.engine)[1]

    def _pass_config(self):
        """The session's :class:`~repro.planner.PassConfig`, or
        ``None`` when the user has not customised anything (the entry
        points then apply their own defaults)."""
        if (self.opt_level is None and not self.pass_toggles
                and self.semiring == "nat"):
            return None
        from repro.planner import PassConfig
        level = (self.opt_level if self.opt_level is not None
                 else self._default_level())
        return PassConfig.for_level(
            level,
            disabled=tuple(name for name, on in
                           self.pass_toggles.items() if not on),
            enabled=tuple(name for name, on in
                          self.pass_toggles.items() if on),
            semiring=self.semiring)

    def _semiring_arg(self) -> Optional[str]:
        """The semiring argument for the entry points: ``None`` keeps
        the default N fast paths."""
        return None if self.semiring == "nat" else self.semiring

    def evaluate_text(self, text: str):
        from repro.core.eval import evaluate
        expr = parse(text)
        extra = {}
        if self.engine == "parallel":
            extra = {"workers": self.workers,
                     "parallel_backend": self.parallel_backend,
                     "resilience": self.resilience}
        return evaluate(expr, self.bindings,
                        governor=self._governor(),
                        engine=self.engine,
                        config=self._pass_config(),
                        catalog=self.workspace,
                        feedback=self.feedback,
                        semiring=self._semiring_arg(), **extra)

    def _governor(self) -> Optional[ResourceGovernor]:
        if self.limits is None or not self.limits.any_set():
            return None
        return ResourceGovernor(self.limits)

    # -- command handling ---------------------------------------------------

    def handle(self, line: str) -> bool:
        """Process one input line; returns False when the session
        should end."""
        line = line.strip()
        if not line:
            return True
        try:
            return self._dispatch(line)
        except ReproError as error:
            self._print(f"error: {error}")
            return True

    def _dispatch(self, line: str) -> bool:
        if line in (":quit", ":q", ":exit"):
            return False
        if line == ":limits":
            if self.limits is None or not self.limits.any_set():
                self._print("(no limits; pass --max-steps / --max-size"
                            " / --timeout / --max-depth /"
                            " --max-iterations / --powerset-budget)")
            else:
                for name, converter in _LIMIT_FLAGS.values():
                    value = getattr(self.limits, name)
                    if value is not None:
                        self._print(f"{name} = {value}")
            return True
        if line == ":engine" or line.startswith(":engine "):
            choice = line[len(":engine"):].strip()
            if choice:
                try:
                    resolve_engine(choice)
                except ValueError as error:
                    self._print(f"error: {error}")
                    return True
                self.engine = choice
            self._print(f"engine = {self.engine}")
            return True
        if line == ":semiring" or line.startswith(":semiring "):
            from repro.core.semiring import known_semirings
            choice = line[len(":semiring"):].strip()
            if not choice:
                self._print(f"semiring = {self.semiring}")
            elif choice in known_semirings():
                self.semiring = choice
                self._print(f"semiring = {self.semiring}")
            else:
                names = ", ".join(known_semirings())
                self._print(f"error: unknown semiring {choice!r} "
                            f"(choices: {names})")
            return True
        if line == ":resilience" or line.startswith(":resilience "):
            choice = line[len(":resilience"):].strip()
            if not choice:
                self._print("resilience = "
                            + ("on" if self.resilience else "off"))
            elif choice in ("on", "off"):
                self.resilience = choice == "on"
                self._print(f"resilience = {choice}")
                if self.engine != "parallel":
                    self._print("(note: resilience applies under "
                                ":engine parallel)")
            else:
                self._print(f"error: :resilience expects 'on' or "
                            f"'off', got {choice!r}")
            return True
        if line == ":passes" or line.startswith(":passes "):
            return self._handle_passes(line[len(":passes"):].strip())
        if line == ":workspace" or line.startswith(":workspace "):
            return self._handle_workspace(
                line[len(":workspace"):].strip())
        if line == ":feedback" or line.startswith(":feedback "):
            choice = line[len(":feedback"):].strip()
            if not choice:
                self._print("feedback = "
                            + ("on" if self.feedback else "off"))
            elif choice in ("on", "off"):
                self.feedback = choice == "on"
                self._print(f"feedback = {choice}")
                if self.workspace is None:
                    self._print("(note: feedback applies once a "
                                "workspace is open)")
            else:
                self._print(f"error: :feedback expects 'on' or "
                            f"'off', got {choice!r}")
            return True
        if line == ":env":
            if not self.bindings:
                self._print("(no bindings)")
            for name in sorted(self.bindings):
                self._print(f"{name} = {self.bindings[name]!r}")
            return True
        if line.startswith(":type "):
            expr = parse(line[len(":type "):])
            inferred = TypeChecker().check(expr, self._schema())
            self._print(repr(inferred))
            return True
        if line.startswith(":fragment "):
            expr = parse(line[len(":fragment "):])
            report = fragment_report(expr, self._schema())
            self._print(f"{report.fragment_name()}  "
                        f"(result type {report.result_type!r}, "
                        f"operators {sorted(report.operators)})")
            return True
        if line.startswith(":optimize "):
            from repro import planner
            expr = parse(line[len(":optimize "):])
            config = self._pass_config() or planner.PassConfig.for_level(2)
            compiled = planner.compile(
                expr, planner.PlanContext(engine="tree",
                                          schema=self._schema(),
                                          config=config))
            self._print(to_text(compiled.logical))
            return True
        if line.startswith(":explain "):
            from repro.engine import explain_physical
            from repro.planner import explain, stats_of
            expr = parse(line[len(":explain "):])
            statistics = {name: stats_of(value)
                          for name, value in self.bindings.items()
                          if isinstance(value, Bag)}
            self._print("-- logical --")
            self._print(explain(expr, self._schema(), statistics))
            self._print("-- stages --")
            self._print(self._explain_stages(expr))
            self._print("-- physical --")
            # the plan itself: segment report, lowered tree, and the
            # "-- codegen --" fusion counters; a name for the physical
            # engine keeps its default opt level, any other engine
            # shows the serial plan
            serial = (self.engine
                      if resolve_engine(self.engine)[0] == "physical"
                      else "physical")
            self._print(explain_physical(
                expr, self.bindings, governor=self._governor(),
                engine=serial,
                config=self._pass_config(),
                catalog=self.workspace, feedback=self.feedback,
                semiring=self._semiring_arg()))
            if self.engine == "parallel":
                # the dual output: same expression, partitioned plan
                self._print("-- parallel --")
                self._print(explain_physical(
                    expr, self.bindings, governor=self._governor(),
                    engine="parallel", workers=self.workers,
                    parallel_backend=self.parallel_backend,
                    resilience=self.resilience,
                    semiring=self._semiring_arg()))
            return True
        if line.startswith(":encode "):
            from repro.core.encoding import standard_encoding
            value = self.evaluate_text(line[len(":encode "):])
            self._print(standard_encoding(value))
            return True
        if line.startswith(":save "):
            from repro.core.encoding import standard_encoding
            parts = line.split(maxsplit=2)
            if len(parts) != 3:
                self._print("usage: :save name path")
                return True
            _, name, path = parts
            if name not in self.bindings:
                self._print(f"error: no binding named {name!r}")
                return True
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(standard_encoding(self.bindings[name]))
            self._print(f"saved {name} to {path}")
            return True
        if line.startswith(":load "):
            from repro.core.encoding import decode_standard
            parts = line.split(maxsplit=2)
            if len(parts) != 3:
                self._print("usage: :load name path")
                return True
            _, name, path = parts
            with open(path, "r", encoding="utf-8") as handle:
                self.bindings[name] = decode_standard(
                    handle.read().strip())
            self._print(f"{name} = {self.bindings[name]!r}")
            return True
        if line.startswith(":"):
            self._print(f"unknown command {line.split()[0]!r} "
                        "(:type :fragment :optimize :explain :encode "
                        ":engine :semiring :resilience :passes "
                        ":workspace :feedback :save :load :env "
                        ":limits :quit)")
            return True
        if "=" in line and _looks_like_binding(line):
            name, _, body = line.partition("=")
            value = self.evaluate_text(body.strip())
            self.bindings[name.strip()] = value
            self._print(f"{name.strip()} = {value!r}")
            return True
        self._print(repr(self.evaluate_text(line)))
        return True


    # -- workspaces ---------------------------------------------------------

    def _handle_workspace(self, args: str) -> bool:
        """``:workspace`` — open/inspect a storage workspace.

        ``open PATH`` binds every relation into the session and makes
        the workspace's catalog drive compilation (the ``:explain``
        stages view then shows ``stats: R=catalog``); ``analyze``
        refreshes its statistics; ``close`` detaches it (bindings
        stay).
        """
        from repro.storage import Workspace
        if not args:
            if self.workspace is None:
                self._print("(no workspace; :workspace open PATH)")
            else:
                self._print(self.workspace.describe())
            return True
        parts = args.split()
        if parts[0] == "open" and len(parts) == 2:
            workspace = Workspace.open(parts[1])
            self.workspace = workspace
            self.bindings.update(workspace.database())
            names = ", ".join(workspace.relation_names()) or "(none)"
            self._print(f"workspace {workspace.name}: bound {names}")
            if not len(workspace.catalog):
                self._print("(catalog empty; run :workspace analyze)")
            return True
        if parts[0] == "analyze" and len(parts) == 1:
            if self.workspace is None:
                self._print("error: no workspace open")
                return True
            self.workspace.analyze()
            self._print(self.workspace.describe())
            return True
        if parts[0] == "close" and len(parts) == 1:
            self.workspace = None
            self._print("workspace closed (bindings kept)")
            return True
        self._print("usage: :workspace [open PATH | analyze | close]")
        return True

    # -- planner passes -----------------------------------------------------

    def _handle_passes(self, args: str) -> bool:
        """``:passes`` — inspect or toggle the planner's passes."""
        from repro.planner import PassConfig, toggleable_passes
        if not args:
            from repro.planner import rule_named
            from repro.planner.rewrites import product_pushdown_rule
            config = self._pass_config() or PassConfig.for_level(
                self._default_level())
            level = config.opt_level
            self._print(f"opt-level {level}: {OPT_LEVELS[level]}")
            for name in toggleable_passes():
                if name in ("normalize", "rewrite", "cost-lowering"):
                    state = "on" if config.stage_active(name) else "off"
                    self._print(f"  [stage] {name:<22} {state}")
                    continue
                try:
                    rule = rule_named(name)
                except KeyError:
                    rule = product_pushdown_rule(lambda _: None)
                state = "on" if config.rule_active(rule) else "off"
                suffix = " (needs schema)" if rule.requires_schema \
                    else ""
                self._print(f"  [rule]  {name:<22} {state}{suffix}")
            return True
        parts = args.split()
        if parts[0] == "level" and len(parts) == 2:
            try:
                self.opt_level = _parse_level(parts[1], ":passes level")
            except ValueError as error:
                self._print(f"error: {error}")
                return True
            self._print(f"opt-level = {self.opt_level}")
            return True
        if parts[0] == "reset":
            self.pass_toggles.clear()
            self.opt_level = None
            self._print("passes reset to engine defaults")
            return True
        if parts[0] in ("on", "off") and len(parts) == 2:
            name = parts[1]
            if name not in toggleable_passes():
                self._print(f"error: unknown pass {name!r} "
                            "(:passes lists them)")
                return True
            self.pass_toggles[name] = parts[0] == "on"
            self._print(f"{name} = {parts[0]}")
            return True
        self._print("usage: :passes [level N | on NAME | off NAME | "
                    "reset]")
        return True

    def _explain_stages(self, expr) -> str:
        """The planner's per-stage report for one expression."""
        from repro import planner
        config = self._pass_config() or planner.PassConfig.for_level(
            self._default_level())
        context = planner.PlanContext.capture(
            self.bindings, catalog=self.workspace,
            engine=self.engine,
            schema=self._schema(), governor=self._governor(),
            config=config)
        compiled = planner.compile(expr, context, trees=True)
        return compiled.report.render()


def _looks_like_binding(line: str) -> bool:
    """``name = expr`` bindings vs expressions containing '=' inside
    sigma brackets: a binding's head is a bare identifier."""
    head = line.split("=", 1)[0].strip()
    return head.isidentifier()


def parse_limit_flags(argv: List[str]) -> Tuple[Optional[Limits],
                                                List[str]]:
    """Split ``--max-steps N``-style limit flags from file arguments.

    Supports both ``--flag value`` and ``--flag=value``; raises
    :class:`~repro.core.errors.ReproError` (via SystemExit-free
    ``ValueError`` wrapping) on malformed flags so callers can report
    cleanly.
    """
    spec: Dict[str, object] = {}
    paths: List[str] = []
    index = 0
    while index < len(argv):
        argument = argv[index]
        name, equals, inline = argument.partition("=")
        if name in _LIMIT_FLAGS:
            field, converter = _LIMIT_FLAGS[name]
            if equals:
                raw = inline
            else:
                index += 1
                if index >= len(argv):
                    raise ValueError(f"{name} needs a value")
                raw = argv[index]
            try:
                spec[field] = converter(raw)
            except ValueError:
                raise ValueError(
                    f"{name} expects {converter.__name__}, got {raw!r}")
        elif argument.startswith("--"):
            raise ValueError(
                f"unknown option {argument!r} (limit flags: "
                f"{' '.join(sorted(_LIMIT_FLAGS))})")
        else:
            paths.append(argument)
        index += 1
    return (Limits(**spec) if spec else None), paths


def _parse_engine_flag(
        argv: List[str]
) -> Tuple[str, Optional[int], str, Optional[int], bool,
           Optional[str], List[str]]:
    """Strip ``--engine NAME`` / ``--workers N`` /
    ``--parallel-backend NAME`` / ``--opt-level N`` / ``--resilience``
    / ``--semiring NAME`` (and their ``=`` forms) from the argument
    list before the limit flags are parsed (so
    :func:`parse_limit_flags` keeps its strict unknown-flag check)."""
    engine = "physical"
    workers: Optional[int] = None
    backend = "thread"
    opt_level: Optional[int] = None
    resilience = False
    semiring: Optional[str] = None
    rest: List[str] = []
    index = 0

    def value_of(name: str, equals: str, inline: str) -> str:
        nonlocal index
        if equals:
            return inline
        index += 1
        if index >= len(argv):
            raise ValueError(f"{name} needs a value")
        return argv[index]

    while index < len(argv):
        argument = argv[index]
        name, equals, inline = argument.partition("=")
        if name == "--engine":
            engine = value_of(name, equals, inline)
            resolve_engine(engine)  # an unknown name raises ValueError
        elif name == "--workers":
            raw = value_of(name, equals, inline)
            try:
                workers = int(raw)
            except ValueError:
                raise ValueError(f"--workers expects int, got {raw!r}")
            if workers < 1:
                raise ValueError("--workers must be >= 1")
        elif name == "--parallel-backend":
            backend = value_of(name, equals, inline)
            if backend not in ("thread", "process"):
                raise ValueError(
                    f"--parallel-backend expects 'thread' or "
                    f"'process', got {backend!r}")
        elif name == "--opt-level":
            opt_level = _parse_level(value_of(name, equals, inline),
                                     "--opt-level")
        elif name == "--resilience":
            if equals:
                raise ValueError("--resilience takes no value")
            resilience = True
        elif name == "--semiring":
            from repro.core.semiring import known_semirings
            semiring = value_of(name, equals, inline)
            if semiring not in known_semirings():
                names = ", ".join(known_semirings())
                raise ValueError(
                    f"--semiring expects one of {names}, "
                    f"got {semiring!r}")
        else:
            rest.append(argument)
        index += 1
    return (engine, workers, backend, opt_level, resilience, semiring,
            rest)


def main(argv=None) -> int:
    """Entry point: interactive loop, or evaluate files given as
    arguments (one expression per line, '#' comments allowed).

    Limit flags (``--max-steps``, ``--max-size``, ``--timeout``,
    ``--max-depth``, ``--max-iterations``, ``--powerset-budget``)
    govern every evaluation; governed failures print as ``error:``
    lines instead of killing the process.  ``--engine
    physical|parallel|codegen|tree`` picks the evaluator (default:
    the physical engine; ``codegen`` is the same engine defaulting to
    opt level 2); ``--workers N`` and ``--parallel-backend
    thread|process`` configure the parallel engine; ``--opt-level
    0|1|2|3`` picks the planner's pass set (0 disables every rewrite
    and lowers naively; 2 adds the full algebraic fixpoint; 3 is
    another name for 2);
    ``--resilience`` turns on fault-tolerant parallel execution
    (morsel retry, pool respawn, degradation ladder); ``--semiring
    nat|bool|tropical|provenance`` picks the multiplicity semiring
    (``nat`` is the paper's bag default; ``bool`` runs set
    semantics, ``tropical`` min-plus costs, ``provenance``
    why-provenance polynomials — see ``docs/semiring.md``).
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "fuzz":
        # the conformance fuzz loop: ``python -m repro fuzz ...``
        from repro.testkit.cli import main as fuzz_main
        return fuzz_main(argv[1:])
    if argv and argv[0] == "workspace":
        # storage subcommands: ``python -m repro workspace ...``
        from repro.storage.cli import main as workspace_main
        return workspace_main(argv[1:])
    try:
        (engine, workers, backend, opt_level, resilience, semiring,
         argv) = _parse_engine_flag(argv)
        limits, paths = parse_limit_flags(argv)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    session = Session(limits=limits, engine=engine, workers=workers,
                      parallel_backend=backend, opt_level=opt_level,
                      resilience=resilience, semiring=semiring)
    if paths:
        for path in paths:
            with open(path, "r", encoding="utf-8") as handle:
                for raw in handle:
                    stripped = raw.split("#", 1)[0].strip()
                    if stripped and not session.handle(stripped):
                        return 0
        return 0
    print("repro bag-algebra shell — :quit to leave, :env for "
          "bindings")
    while True:
        try:
            line = input(_PROMPT)
        except EOFError:
            print()
            return 0
        except KeyboardInterrupt:
            # ^C cancels the current line, not the session
            print()
            continue
        if not session.handle(line):
            return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
