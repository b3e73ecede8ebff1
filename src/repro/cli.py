"""Command-line interface: declarative runs, sweeps, serving, and tables.

Eight subcommands, all built on the :mod:`repro.api` façade; the four
that run more than one request (``sweep``, ``search``, ``mc`` and
``experiments``) all run them through :func:`repro.api.iter_execute`:

``repro run``
    Execute one agreement instance described by flags (protocol, parameters,
    adversary, faulty set, engine).  ``--json`` emits the structured
    :class:`~repro.api.request.RunReport`; the exit code is 0 only when
    agreement held and validity held where it applied.

``repro sweep``
    Execute a JSON file of serialized :class:`~repro.api.request.RunRequest`
    objects (or a whole :class:`~repro.api.request.SweepSpec`; ``-`` reads
    stdin) on a chosen executor backend — ``--executor
    {serial,pool,supervised}``, the one backend selector (default: the
    sweep file's own choice, else the process pool) — with optional
    durability:
    ``--checkpoint out.jsonl`` appends one JSON line per completed request
    as it finishes (header created atomically; ``--fsync`` adds an fsync
    per line), and ``--resume`` replays the log after a crash,
    skipping what already completed.  The supervised backend
    (``--max-attempts`` / ``--deadline`` imply it) adds worker deadlines,
    seeded retry/backoff, and the batched→pool→serial degradation
    ladder; ``--chaos policy.json`` injects infrastructure faults for
    resilience testing.  Prints a summary table or, with ``--json``, the
    full report list.

``repro validate``
    Dry-run the registry/planner checks for a request file (``-`` for
    stdin): every request is resolved and planned — reporting the engine the
    planner would use and why a batched-ineligible run falls back — without
    executing anything.  ``--all-registered`` validates the full
    protocol × adversary cross-product instead of a file, clamping ``t``
    per protocol to its resilience envelope, so a registry entry that
    stopped resolving fails CI before any experiment does.

``repro lint``
    Statically audit the source tree (:mod:`repro.lint`): an AST rule
    engine enforcing the determinism and contract invariants the stack
    rests on — no ambient RNG or wall clocks in the engine path, sorted
    filesystem scans, no set-iteration order dependence, registry schemas
    in sync with factory constructors, ``to_dict``/``from_dict`` parity,
    and fail-stop error discipline.  Findings are suppressed inline with
    ``# repro-lint: waive[rule-id] -- reason`` (the reason is mandatory)
    or grandfathered via ``--baseline``.  Exit 0 clean, 1 findings, 2
    internal error.

``repro serve``
    Run the crash-safe agreement service (:mod:`repro.serve`): an asyncio
    HTTP/JSON daemon accepting single requests (``POST /run``) and whole
    sweeps (``POST /sweep``, streamed as NDJSON), backed by a
    content-addressed result cache (``--cache-dir``), a write-ahead journal
    (``--journal``) that makes accepted work survive ``kill -9``, a bounded
    work queue (``--max-queue``; overflow answers 429 with Retry-After),
    and ``/healthz`` / ``/readyz`` / ``/metrics`` endpoints.  On restart
    with the same journal the service replays it: completed runs warm the
    cache, interrupted ones re-execute.

``repro search``
    Hunt a protocol/adversary grid for extremal executions
    (:mod:`repro.search`): safety violations (``--objective
    agreement_violation``) or cost extremes (``max_rounds`` /
    ``max_messages`` / ``max_units``), with a seeded random or annealing
    strategy, greedy counterexample minimization, and ``--pin`` to freeze a
    found violation as a regression fixture.  Exits 3 exactly when a
    violation was found, so CI can assert either outcome.

``repro mc``
    Stream a Monte-Carlo verification campaign (:mod:`repro.stats`): a grid
    of (protocol × cell × adversary) points, ``--trials`` seeded executions
    each with randomized fault placement, aggregated in constant space and
    confronted with the paper's theorem bounds — Wilson confidence
    intervals on agreement/validity failure rates plus observed-vs-bound
    rows for rounds, message size, and local computation.  ``--checkpoint``
    makes the campaign crash-durable (one cumulative snapshot per chunk)
    and ``--resume`` continues it bit-identically after a kill.  Exit code
    0 means the campaign completed and every observation stayed within the
    paper's guarantees; 1 means a theorem was contradicted; 2 means the
    campaign is incomplete (``--max-chunks`` slice).

``repro experiments``
    Regenerate the paper's tables/figures (the E1–E9 harness) at a chosen
    scale and print them; optionally restrict to a subset by experiment id.

Examples
--------
::

    python -m repro run --protocol hybrid --n 16 --t 5 --b 3 \\
        --adversary equivocating-source-allies --faults 5 --source-faulty
    python -m repro run --protocol exponential --n 13 --t 4 --json
    python -m repro sweep requests.json --json
    python -m repro sweep requests.json --checkpoint out.jsonl --resume
    repro-requests | python -m repro sweep - --executor serial
    python -m repro sweep requests.json --executor supervised --deadline 30
    python -m repro sweep requests.json --chaos chaos.json --json
    python -m repro sweep requests.json --checkpoint out.jsonl --compact
    python -m repro validate requests.json
    python -m repro validate --all-registered
    python -m repro lint
    python -m repro lint --format json --baseline lint_baseline.json
    python -m repro lint src/repro --rules determinism/set-iteration
    python -m repro serve --port 8484 --cache-dir cache/ \\
        --journal serve.jsonl
    python -m repro search --objective agreement_violation \\
        --cell 3,1 --allow-unsafe --budget 200 --pin
    python -m repro search --objective max_messages --cell 9,2 \\
        --strategy anneal --budget 100
    python -m repro mc --protocol exponential algorithm-a --cell 13,3 \\
        --adversary two-faced consistent-liar --trials 1000
    python -m repro mc --protocol hybrid --cell 16,5 --trials 100000 \\
        --executor pool --checkpoint mc.jsonl --resume --json
    python -m repro experiments --scale small --only E1 E8
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from .analysis import format_table
from .api import (ENGINE_CHOICES, RegistryError, RunReport, RunRequest,
                  SweepSpec, adversary_names, batched_ineligibility,
                  build_executor, execute, executor_names, plan_run,
                  protocol_names, protocol_registry, run_sweep)
from .experiments import run_all_experiments
from .runtime.errors import ConfigurationError
from .runtime.simulation import choose_faulty


def build_request(protocol: str, n: int, t: int, b: int = 3,
                  value: object = 1, faults: Optional[int] = None,
                  source_faulty: bool = False, adversary: str = "benign",
                  seed: int = 0, engine: str = "auto") -> RunRequest:
    """Assemble the :class:`RunRequest` the ``run`` flags describe."""
    entry = protocol_registry().get(protocol)
    if entry is None:
        raise SystemExit(
            f"unknown protocol {protocol!r}; choose from "
            f"{sorted(protocol_names())}")
    params = {"b": b} if "b" in entry.schema else {}
    fault_count = faults if faults is not None else t
    faulty = choose_faulty(n, fault_count, source_faulty=source_faulty)
    return RunRequest(protocol=protocol, protocol_params=params, n=n, t=t,
                      initial_value=value, faulty=tuple(faulty),
                      adversary=adversary, seed=seed, engine=engine)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Shifting Gears (Bar-Noy, Dolev, Dwork, Strong) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one agreement instance")
    run.add_argument("--protocol", default="hybrid",
                     choices=sorted(protocol_names()))
    run.add_argument("--n", type=int, default=16)
    run.add_argument("--t", type=int, default=5)
    run.add_argument("--b", type=int, default=3,
                     help="block parameter for algorithms A, B and the hybrid")
    run.add_argument("--value", type=int, default=1, help="the source's input value")
    run.add_argument("--faults", type=int, default=None,
                     help="number of faulty processors (default: t)")
    run.add_argument("--source-faulty", action="store_true")
    run.add_argument("--adversary", default="equivocating-source-allies",
                     choices=sorted(adversary_names()))
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--engine", choices=ENGINE_CHOICES, default="auto",
                     help="executor: auto (planner picks batched, else fast, "
                          "by eligibility), batched (whole-run 2-D kernels), "
                          "or a per-processor engine (numpy/fast/reference)")
    run.add_argument("--json", action="store_true",
                     help="print the structured RunReport as JSON")

    sweep = sub.add_parser(
        "sweep", help="execute a JSON file of RunRequests on an executor")
    sweep.add_argument("requests",
                       help="path to a JSON list of RunRequest objects, a "
                            "{\"requests\": [...]} object, or a full "
                            "SweepSpec; '-' reads the file from stdin")
    sweep.add_argument("--executor", choices=sorted(executor_names()),
                       default=None,
                       help="execution backend (default: the sweep file's "
                            "choice, else the process pool)")
    sweep.add_argument("--max-workers", type=int, default=None,
                       help="worker processes for the pool executor")
    sweep.add_argument("--max-attempts", type=int, default=None,
                       help="retries per ladder rung for the supervised "
                            "executor (default 3; implies --executor "
                            "supervised)")
    sweep.add_argument("--deadline", type=float, default=None,
                       help="seconds before a silent worker counts as hung, "
                            "for the supervised executor (implies --executor "
                            "supervised)")
    sweep.add_argument("--chaos", metavar="POLICY.json", default=None,
                       help="inject the infrastructure faults of a chaos "
                            "policy file (pool worker kills, checkpoint "
                            "write failures) — resilience testing aid")
    sweep.add_argument("--checkpoint", metavar="PATH", default=None,
                       help="append one JSON line per completed request to "
                            "PATH as it finishes (crash-durable JSONL log; "
                            "the header is created atomically)")
    sweep.add_argument("--resume", action="store_true",
                       help="replay an existing --checkpoint log first and "
                            "skip its completed requests")
    sweep.add_argument("--fsync", action="store_true",
                       help="fsync the checkpoint after every append "
                            "(power-loss durability; a written line "
                            "already survives process death)")
    sweep.add_argument("--compact", action="store_true",
                       help="rewrite the --checkpoint log in place — drop "
                            "superseded duplicate completions, repair a "
                            "torn tail — and exit without running anything")
    sweep.add_argument("--json", action="store_true",
                       help="print the full RunReport list as JSON")

    serve = sub.add_parser(
        "serve", help="run the HTTP agreement service (cache + journal)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8484,
                       help="TCP port (0 picks a free one; default 8484)")
    serve.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="directory for the content-addressed result "
                            "cache (one <sha256>.json per distinct "
                            "request); omitted = in-memory only")
    serve.add_argument("--cache-max-entries", type=int, default=None,
                       metavar="N",
                       help="bound the result cache at N entries with "
                            "least-recently-used eviction (evicted disk "
                            "entries are unlinked); omitted = unbounded")
    serve.add_argument("--journal", metavar="PATH", default=None,
                       help="write-ahead journal: accepted requests are "
                            "logged before execution and replayed on "
                            "restart, so kill -9 never loses accepted work")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="bound on queued jobs; a full queue answers "
                            "429 with Retry-After (default 64)")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent executions (default 2)")
    serve.add_argument("--drain-deadline", type=float, default=10.0,
                       help="seconds a graceful shutdown waits for queued "
                            "work before checkpointing the rest "
                            "(default 10)")
    serve.add_argument("--fsync", action="store_true",
                       help="fsync every journal append (power-loss "
                            "durability; a written line already survives "
                            "process death)")
    serve.add_argument("--chaos", metavar="POLICY.json", default=None,
                       help="inject service-level infrastructure faults "
                            "(cache-write-fail, journal-torn-write, "
                            "serve-worker-death) — resilience testing aid")

    validate = sub.add_parser(
        "validate", help="dry-run registry/planner checks for a request file")
    validate.add_argument("requests", nargs="?", default=None,
                          help="path to a JSON request file ('-' for "
                               "stdin); omit with --all-registered")
    validate.add_argument("--all-registered", action="store_true",
                          help="validate the full protocol x adversary "
                               "cross-product instead of a file, clamping "
                               "t per protocol to its resilience envelope")
    validate.add_argument("--n", type=int, default=16,
                          help="instance size for --all-registered "
                               "(default 16)")
    validate.add_argument("--t", type=int, default=5,
                          help="fault budget ceiling for --all-registered; "
                               "clamped down per protocol (default 5)")
    validate.add_argument("--json", action="store_true",
                          help="print the per-request verdicts as JSON")

    lint = sub.add_parser(
        "lint", help="statically audit determinism/contract invariants")
    lint.add_argument("paths", nargs="*", default=None,
                      help="directories to lint (default: the installed "
                           "repro package source)")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="report format (default text)")
    lint.add_argument("--baseline", metavar="PATH", default=None,
                      help="JSON baseline of grandfathered findings; "
                           "entries match on (rule, path, message)")
    lint.add_argument("--write-baseline", action="store_true",
                      help="write the current unwaived findings to "
                           "--baseline and exit 0")
    lint.add_argument("--rules", nargs="+", default=None, metavar="RULE",
                      help="run only these rule ids (default: all)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print every registered rule id and exit")
    lint.add_argument("--verbose", action="store_true",
                      help="also show waived and baselined findings")

    search = sub.add_parser(
        "search", help="hunt a protocol/adversary grid for extremal runs")
    # Objective names are a closed set; import locally so `repro run` does
    # not pay for the search package at parse time.
    from .search import STRATEGIES, objective_names
    search.add_argument("--objective", choices=objective_names(),
                        default="agreement_violation",
                        help="what to hunt: a safety violation, or the "
                             "costliest run (rounds/messages/units)")
    search.add_argument("--protocol", nargs="+", default=["exponential"],
                        metavar="NAME", help="protocols to draw cells from")
    search.add_argument("--cell", nargs="+", default=["7,2"], metavar="N,T",
                        help="instance sizes, each as n,t (e.g. --cell 7,2 "
                             "9,2); pass an under-resilient cell such as "
                             "3,1 together with --allow-unsafe")
    search.add_argument("--adversary", nargs="*", default=None,
                        metavar="NAME",
                        help="adversaries to draw from (default: every "
                             "registered one)")
    search.add_argument("--exclude", nargs="*", default=None, metavar="NAME",
                        help="adversaries to leave out (e.g. "
                             "transient-corruption, whose state flips on "
                             "correct processors sit outside the Byzantine "
                             "model the n ≥ 3t+1 theorems cover)")
    search.add_argument("--strategy", choices=STRATEGIES, default="random")
    search.add_argument("--budget", type=int, default=200,
                        help="number of executions the search may spend")
    search.add_argument("--sweep-seed", type=int, default=0,
                        help="master seed: candidate sampling and every "
                             "per-candidate seed derive from it")
    search.add_argument("--allow-unsafe", action="store_true",
                        help="permit under-resilient cells (n < 3t + 1)")
    search.add_argument("--exhaustive", action="store_true",
                        help="spend the whole budget even after a violation")
    search.add_argument("--no-minimize", action="store_true",
                        help="report the raw hit without shrinking it")
    search.add_argument("--pin", metavar="DIR", nargs="?", default=None,
                        const=os.path.join("tests", "pinned_scenarios"),
                        help="write the minimized counterexample as a JSON "
                             "regression fixture into DIR (default: "
                             "tests/pinned_scenarios)")
    search.add_argument("--executor", choices=sorted(executor_names()),
                        default="serial",
                        help="backend for candidate evaluation (candidates "
                             "are independent, so 'pool' parallelizes)")
    search.add_argument("--json", action="store_true",
                        help="print the structured search result as JSON")

    mc = sub.add_parser(
        "mc", help="stream a Monte-Carlo verification campaign")
    mc.add_argument("--spec", metavar="SPEC.json", default=None,
                    help="run a serialized McSpec file ('-' reads stdin); "
                         "overrides the grid flags below")
    mc.add_argument("--protocol", nargs="+", default=["exponential"],
                    metavar="NAME", help="protocols to draw cells from")
    mc.add_argument("--cell", nargs="+", default=["7,2"], metavar="N,T",
                    help="instance sizes, each as n,t (e.g. --cell 7,2 "
                         "13,3)")
    mc.add_argument("--adversary", nargs="+", default=["two-faced"],
                    metavar="NAME",
                    help="adversaries to pair with every protocol/cell "
                         "(default: two-faced)")
    mc.add_argument("--trials", type=int, default=1000,
                    help="seeded trials per grid cell (default 1000)")
    mc.add_argument("--b", type=int, default=3,
                    help="block parameter for algorithms A, B and the "
                         "hybrid")
    mc.add_argument("--faults", type=int, default=None,
                    help="faulty processors per trial (default: t)")
    mc.add_argument("--source-faulty", choices=("vary", "always", "never"),
                    default="vary",
                    help="source placement per trial: sampled like any "
                         "processor (vary, default), always faulty, or "
                         "never faulty")
    mc.add_argument("--sweep-seed", type=int, default=0,
                    help="master seed: every trial's run seed and fault "
                         "placement derive from it positionally")
    mc.add_argument("--executor", choices=sorted(executor_names()),
                    default="serial",
                    help="execution backend (trials are independent, so "
                         "'pool' parallelizes)")
    mc.add_argument("--max-workers", type=int, default=None,
                    help="worker processes for the pool executor")
    mc.add_argument("--chunk-size", type=int, default=256,
                    help="trials aggregated (and checkpointed) per chunk — "
                         "the only per-run buffer, so memory stays flat "
                         "(default 256)")
    mc.add_argument("--checkpoint", metavar="PATH", default=None,
                    help="append one cumulative state snapshot per chunk "
                         "to PATH (crash-durable JSONL; header created "
                         "atomically and pinned to this campaign's digest)")
    mc.add_argument("--resume", action="store_true",
                    help="continue an interrupted --checkpoint campaign "
                         "from its last intact snapshot (bit-identical to "
                         "an uninterrupted run)")
    mc.add_argument("--max-chunks", type=int, default=None,
                    help="execute at most this many chunks this invocation "
                         "(slice long campaigns; exit 2 until complete)")
    mc.add_argument("--allow-unsafe", action="store_true",
                    help="permit under-resilient cells (no guarantees "
                         "claimed there, so no hard verdict either)")
    mc.add_argument("--confidence", type=float, default=0.95,
                    choices=(0.90, 0.95, 0.99),
                    help="Wilson interval confidence level (default 0.95)")
    mc.add_argument("--json", action="store_true",
                    help="print the full machine-readable report as JSON")

    experiments = sub.add_parser("experiments",
                                 help="regenerate the paper's tables and figures")
    experiments.add_argument("--scale", choices=("small", "paper"), default="small")
    experiments.add_argument("--only", nargs="*", default=None,
                             help="experiment ids to include (e.g. E1 E8)")
    return parser


def _execute_or_exit(request: RunRequest) -> RunReport:
    try:
        return execute(request)
    except (RegistryError, ConfigurationError, ValueError) as exc:
        raise SystemExit(str(exc)) from None


def _command_run(args: argparse.Namespace) -> int:
    request = build_request(args.protocol, args.n, args.t, b=args.b,
                            value=args.value, faults=args.faults,
                            source_faulty=args.source_faulty,
                            adversary=args.adversary, seed=args.seed,
                            engine=args.engine)
    report = _execute_or_exit(request)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_table([report.summary()],
                           title=f"{report.protocol} on n={args.n}, "
                                 f"t={args.t}, faulty={list(report.faulty)}"))
        print()
        print(f"decisions: {dict(sorted(report.decisions.items()))}")
        print(f"engine: {report.engine_resolved} (requested {report.engine})")
    return 0 if report.succeeded else 1


#: Keys that mark a {"requests": [...]} payload as a full SweepSpec.
_SWEEP_KEYS = ("executor", "executor_params", "seed_policy", "sweep_seed")


def _read_payload(path: str) -> object:
    """The parsed JSON payload of *path*, with ``-`` reading stdin."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        source = "stdin" if path == "-" else path
        raise SystemExit(f"{source} is not valid JSON: {exc}") from None


def _parse_request_items(payload: object, source: str) -> List[object]:
    """The raw request dicts of a payload (list, or dict with a list)."""
    if isinstance(payload, dict):
        payload = payload.get("requests")
    if not isinstance(payload, list):
        raise SystemExit(
            f"{source} must hold a JSON list of RunRequest objects "
            f"(or an object with a \"requests\" list)")
    return payload


def _load_sweep(path: str) -> SweepSpec:
    """A :class:`SweepSpec` from *path*: a request list or a full spec."""
    source = "stdin" if path == "-" else path
    payload = _read_payload(path)
    try:
        if isinstance(payload, dict) and any(key in payload
                                             for key in _SWEEP_KEYS):
            return SweepSpec.from_dict(payload)
        items = _parse_request_items(payload, source)
        return SweepSpec(
            requests=tuple(RunRequest.from_dict(item) for item in items))
    except (RegistryError, ConfigurationError, TypeError, ValueError) as exc:
        raise SystemExit(f"invalid request in {source}: {exc}") from None


def _sweep_executor(args: argparse.Namespace, spec: SweepSpec):
    """The executor the flags select, or ``None`` to use the spec's own.

    A bare parameter flag implies its backend (``--max-workers`` → pool,
    ``--deadline`` → supervised); a parameter flag naming a *different*
    backend is an error rather than a silently dropped option.
    """
    name = args.executor
    if name is None and (args.max_attempts is not None
                         or args.deadline is not None):
        name = "supervised"
    if name is None and args.max_workers is not None:
        name = "pool"
    if args.max_workers is not None and name != "pool":
        raise SystemExit(
            f"--max-workers applies to the pool executor, but the sweep "
            f"runs on {name!r}; drop the flag or pass --executor pool")
    if args.max_attempts is not None and name != "supervised":
        raise SystemExit(
            f"--max-attempts applies to the supervised executor, but the "
            f"sweep runs on {name!r}; drop the flag or pass "
            f"--executor supervised")
    if args.deadline is not None and name != "supervised":
        raise SystemExit(
            f"--deadline applies to the supervised executor, but the sweep "
            f"runs on {name!r}; drop the flag or pass --executor supervised")
    if name is None:
        return None  # defer to the sweep file's executor/executor_params
    params = {}
    if name == "pool" and args.max_workers is not None:
        params["max_workers"] = args.max_workers
    if name == "supervised" and args.deadline is not None:
        params["deadline"] = args.deadline
    if name == "supervised" and args.max_attempts is not None:
        params["max_attempts"] = args.max_attempts
    return build_executor(name, params)


def _command_sweep(args: argparse.Namespace) -> int:
    spec = _load_sweep(args.requests)
    if not spec.requests:
        raise SystemExit(f"{args.requests} contains no requests")
    if args.resume and not args.checkpoint:
        raise SystemExit("--resume needs --checkpoint pointing at the log "
                         "of the interrupted sweep")
    if args.fsync and not args.checkpoint:
        raise SystemExit("--fsync needs --checkpoint (it controls how "
                         "checkpoint appends are made durable)")
    if args.compact:
        if not args.checkpoint:
            raise SystemExit("--compact needs --checkpoint pointing at the "
                             "log to rewrite")
        from .api.sweep import compact_checkpoint
        try:
            summary = compact_checkpoint(args.checkpoint, spec)
        except (RegistryError, ConfigurationError) as exc:
            raise SystemExit(str(exc)) from None
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(f"compacted {args.checkpoint}: "
                  f"{summary['completed']} completion(s) kept, "
                  f"{summary['duplicates_dropped']} duplicate(s) dropped, "
                  f"torn tail "
                  f"{'repaired' if summary['torn_tail_repaired'] else 'absent'}")
        return 0
    chaos = None
    if args.chaos is not None:
        from .runtime.chaos import ChaosPolicy
        try:
            chaos = ChaosPolicy.from_json_file(args.chaos)
        except ConfigurationError as exc:
            raise SystemExit(str(exc)) from None
    try:
        reports = run_sweep(spec, checkpoint=args.checkpoint,
                            resume=args.resume,
                            executor=_sweep_executor(args, spec),
                            fsync=args.fsync, chaos=chaos)
    except (RegistryError, ConfigurationError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    if args.json:
        print(json.dumps([report.to_dict() for report in reports],
                         indent=2, sort_keys=True))
    else:
        rows = [report.summary() for report in reports]
        print(format_table(rows, title=f"sweep of {len(reports)} requests"))
    return 0 if all(report.succeeded for report in reports) else 1


def _command_serve(args: argparse.Namespace) -> int:
    """Run the HTTP agreement service until SIGTERM/SIGINT."""
    from .serve import (AgreementService, HttpFrontend, ResultCache,
                        ServeJournal)
    chaos = None
    if args.chaos is not None:
        from .runtime.chaos import ChaosPolicy
        try:
            chaos = ChaosPolicy.from_json_file(args.chaos)
        except ConfigurationError as exc:
            raise SystemExit(str(exc)) from None
    cache = ResultCache(args.cache_dir, max_entries=args.cache_max_entries)
    journal = (ServeJournal(args.journal, fsync=args.fsync)
               if args.journal else None)
    service = AgreementService(cache=cache, journal=journal)
    try:
        frontend = HttpFrontend(service, host=args.host, port=args.port,
                                max_queue=args.max_queue,
                                workers=args.workers,
                                drain_deadline=args.drain_deadline,
                                chaos=chaos)
    except (RegistryError, ConfigurationError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    print(f"repro serve on http://{args.host}:{args.port} "
          f"(cache: {args.cache_dir or 'memory'}, "
          f"journal: {args.journal or 'none'})", file=sys.stderr)
    try:
        frontend.run()
    except (RegistryError, ConfigurationError, OSError) as exc:
        raise SystemExit(str(exc)) from None
    except KeyboardInterrupt:
        pass  # the signal handler already drained; a second ^C lands here
    if service.last_recovery:
        print(f"recovery: {service.last_recovery}", file=sys.stderr)
    return 0


def _registered_cross_product(n: int, t: int) -> List[dict]:
    """Request dicts covering every protocol × adversary pair at (n, t).

    Each protocol gets the largest ``t' ≤ t`` its resilience predicate
    accepts at this ``n`` (algorithm B needs ``n ≥ 4t+1``, the hybrid
    needs ``t ≥ 3``, algorithm C has its own ceiling), found by probing
    ``validate`` — so one command exercises every registry entry without
    hand-maintaining the envelopes here.
    """
    from .api import adversary_registry
    items: List[dict] = []
    for protocol in sorted(protocol_names()):
        entry = protocol_registry()[protocol]
        params = {"b": 3} if "b" in entry.schema else {}
        effective_t = None
        for candidate in range(t, 0, -1):
            faulty = tuple(choose_faulty(n, candidate, source_faulty=False))
            probe = RunRequest(protocol=protocol, protocol_params=params,
                               n=n, t=candidate, initial_value=1,
                               faulty=faulty, adversary="benign", seed=0)
            try:
                spec, config, _, _ = probe.resolve_parts()
                spec.validate(config)
            except (RegistryError, ConfigurationError, ValueError):
                continue
            effective_t = candidate
            break
        if effective_t is None:
            # Let the row loop report the failure instead of hiding the
            # protocol from the table.
            effective_t = t
        faulty = list(choose_faulty(n, effective_t, source_faulty=False))
        for adversary in sorted(adversary_registry()):
            items.append({
                "protocol": protocol, "protocol_params": dict(params),
                "n": n, "t": effective_t, "initial_value": 1,
                "faulty": faulty, "adversary": adversary, "seed": 0,
            })
    return items


def _command_validate(args: argparse.Namespace) -> int:
    """Resolve and plan every request without executing anything."""
    if args.all_registered:
        if args.requests is not None:
            raise SystemExit("--all-registered generates its own requests; "
                             "drop the request file argument")
        items = _registered_cross_product(args.n, args.t)
    elif args.requests is None:
        raise SystemExit("validate needs a request file ('-' for stdin) "
                         "or --all-registered")
    else:
        items = _parse_request_items(_read_payload(args.requests),
                                     "stdin" if args.requests == "-" else
                                     args.requests)
    if not items:
        raise SystemExit(f"{args.requests} contains no requests")
    rows: List[dict] = []
    failures = 0
    for position, item in enumerate(items):
        row = {"index": position, "protocol": "?", "n": "?", "t": "?",
               "adversary": "?", "engine": "?", "resolved": "?",
               "batched": "?", "status": "ok"}
        try:
            request = RunRequest.from_dict(item)
            row.update({"protocol": request.protocol, "n": request.n,
                        "t": request.t, "engine": request.engine,
                        "adversary": request.scenario or request.adversary})
            spec, config, faulty, adversary = request.resolve_parts()
            plan = plan_run(request, spec, config, faulty, adversary)
            row["resolved"] = plan.engine
            reason = batched_ineligibility(spec, config, faulty, adversary)
            row["batched"] = ("eligible" if reason is None
                              else f"fallback: {reason}")
        except (RegistryError, ConfigurationError, TypeError,
                ValueError) as exc:
            failures += 1
            row["status"] = f"error: {exc}"
        rows.append(row)
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        print(format_table(
            rows, title=f"validated {len(rows)} request(s), "
                        f"{failures} invalid"))
    return 1 if failures else 0


def _command_lint(args: argparse.Namespace) -> int:
    """Audit the source tree; exit 0 clean / 1 findings / 2 internal error."""
    from pathlib import Path

    from .lint import (render_json, render_text, rule_names, run_lint,
                       save_baseline)
    if args.list_rules:
        for name in rule_names():
            print(name)
        return 0
    if args.write_baseline and not args.baseline:
        raise SystemExit("--write-baseline needs --baseline naming the "
                         "file to write")
    if args.paths:
        roots = [Path(path) for path in args.paths]
    else:
        roots = [Path(__file__).resolve().parent]
    try:
        exit_code = 0
        for root in roots:
            package = "repro" if not args.paths else None
            baseline = Path(args.baseline) if args.baseline else None
            result = run_lint(root, package=package, rules=args.rules,
                              baseline_path=None if args.write_baseline
                              else baseline)
            if args.write_baseline:
                written = save_baseline(baseline, result.findings)
                print(f"baseline {baseline}: {written} finding(s) recorded")
                continue
            if args.format == "json":
                print(render_json(result))
            else:
                print(render_text(result, verbose=args.verbose))
            exit_code = max(exit_code, result.exit_code)
        return exit_code
    except ConfigurationError as exc:
        raise SystemExit(str(exc)) from None
    # repro-lint: waive[errors/broad-except] -- the linter must never
    # crash CI opaquely: any internal error becomes the documented
    # exit code 2 with the failure printed
    except Exception as exc:
        print(f"repro lint: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2


def _parse_cells(tokens: Sequence[str]) -> List[tuple]:
    cells = []
    for token in tokens:
        try:
            n_text, t_text = token.split(",")
            cells.append((int(n_text), int(t_text)))
        except ValueError:
            raise SystemExit(
                f"--cell takes n,t pairs (e.g. 7,2); got {token!r}") from None
    return cells


def _command_search(args: argparse.Namespace) -> int:
    """Hunt the declared grid; exit 3 exactly when a violation was found."""
    from .search import (SearchSpec, get_objective, minimize_counterexample,
                         pin_scenario, run_search)
    adversaries = tuple(args.adversary or ())
    if args.exclude:
        pool = adversaries or tuple(sorted(adversary_names()))
        excluded = set(args.exclude)
        unknown = excluded - set(adversary_names())
        if unknown:
            raise SystemExit(f"--exclude names unknown adversar(ies) "
                             f"{sorted(unknown)}")
        adversaries = tuple(name for name in pool if name not in excluded)
        if not adversaries:
            raise SystemExit("--exclude removed every adversary; nothing "
                             "left to search")
    try:
        spec = SearchSpec(
            objective=args.objective, protocols=tuple(args.protocol),
            cells=tuple(_parse_cells(args.cell)), adversaries=adversaries,
            strategy=args.strategy, budget=args.budget,
            sweep_seed=args.sweep_seed, allow_unsafe=args.allow_unsafe)
        result = run_search(spec, executor=args.executor,
                            stop_on_violation=not args.exhaustive)
    except (RegistryError, ConfigurationError, ValueError) as exc:
        raise SystemExit(str(exc)) from None

    minimized = minimized_report = pinned_path = None
    if result.found and not args.no_minimize:
        minimized, minimized_report = minimize_counterexample(
            result.violations[0].request, spec.objective)
        if args.pin:
            pinned_path = pin_scenario(minimized, minimized_report, args.pin,
                                       spec.objective)
    elif result.found and args.pin:
        hit = result.violations[0]
        pinned_path = pin_scenario(hit.request, hit.report, args.pin,
                                   spec.objective)

    if args.json:
        payload = {
            "spec": spec.to_dict(),
            "evaluated": result.evaluated,
            "stopped_early": result.stopped_early,
            "found": result.found,
            "best": None if result.best is None else {
                "score": result.best.score,
                "request": result.best.request.to_dict(),
                "report": result.best.report.to_dict(),
            },
            "violations": [{"score": v.score,
                            "request": v.request.to_dict()}
                           for v in result.violations],
            "minimized": None if minimized is None else minimized.to_dict(),
            "pinned": pinned_path,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        objective = get_objective(spec.objective)
        print(f"searched {result.evaluated} execution(s) of budget "
              f"{spec.budget} for {objective.name}"
              + (" (stopped at first violation)" if result.stopped_early
                 else ""))
        if result.found:
            shown = minimized if minimized is not None \
                else result.violations[0].request
            report = minimized_report if minimized_report is not None \
                else result.violations[0].report
            label = "minimized" if minimized is not None else "raw hit"
            print(f"VIOLATION ({label}): {shown.protocol} n={shown.n} "
                  f"t={shown.t} adversary={shown.adversary} "
                  f"params={dict(shown.adversary_params)} "
                  f"faulty={list(shown.faulty or ())} "
                  f"initial_value={shown.initial_value} seed={shown.seed}")
            print(f"  agreement={report.agreement} "
                  f"validity={report.validity} "
                  f"decisions={dict(sorted(report.decisions.items()))}")
            if pinned_path:
                print(f"  pinned: {pinned_path}")
        elif result.best is not None:
            best = result.best
            print(f"best {objective.name} = {best.score:g}: "
                  f"{best.request.protocol} n={best.request.n} "
                  f"t={best.request.t} adversary={best.request.adversary} "
                  f"faulty={list(best.request.faulty or ())} "
                  f"seed={best.request.seed}")
        else:
            print("no viable candidates in the declared grid")
    return 3 if result.found else 0


def _mc_spec(args: argparse.Namespace):
    """The :class:`~repro.stats.McSpec` the ``mc`` flags (or file) describe."""
    from .stats import McCell, McSpec
    if args.spec is not None:
        payload = _read_payload(args.spec)
        source = "stdin" if args.spec == "-" else args.spec
        if not isinstance(payload, dict):
            raise SystemExit(f"{source} must hold a serialized McSpec "
                             f"object")
        try:
            return McSpec.from_dict(payload)
        except (RegistryError, ConfigurationError, TypeError,
                ValueError) as exc:
            raise SystemExit(f"invalid campaign in {source}: {exc}") from None
    registry = protocol_registry()
    cells = []
    try:
        for protocol in args.protocol:
            entry = registry.get(protocol)
            if entry is None:
                raise SystemExit(
                    f"unknown protocol {protocol!r}; choose from "
                    f"{sorted(protocol_names())}")
            params = {"b": args.b} if "b" in entry.schema else {}
            for n, t in _parse_cells(args.cell):
                for adversary in args.adversary:
                    if adversary not in adversary_names():
                        raise SystemExit(
                            f"unknown adversary {adversary!r}; choose from "
                            f"{sorted(adversary_names())}")
                    cells.append(McCell(
                        protocol=protocol, n=n, t=t, adversary=adversary,
                        protocol_params=params, faults=args.faults,
                        source_placement=args.source_faulty,
                        allow_unsafe=args.allow_unsafe))
        executor_params = {}
        if args.max_workers is not None:
            if args.executor != "pool":
                raise SystemExit(
                    f"--max-workers applies to the pool executor, but the "
                    f"campaign runs on {args.executor!r}; drop the flag or "
                    f"pass --executor pool")
            executor_params["max_workers"] = args.max_workers
        return McSpec(cells=tuple(cells), trials=args.trials,
                      sweep_seed=args.sweep_seed, executor=args.executor,
                      executor_params=executor_params,
                      chunk_size=args.chunk_size)
    except ConfigurationError as exc:
        raise SystemExit(str(exc)) from None


def _command_mc(args: argparse.Namespace) -> int:
    """Stream a verification campaign; exit 0 ok / 1 contradicted / 2 partial."""
    from .stats import render_text, run_mc, to_json, verdict
    spec = _mc_spec(args)

    def progress(chunk: int, done: int, total: int) -> None:
        if not args.json:
            print(f"\rchunk {chunk + 1}/{spec.total_chunks}: "
                  f"{done}/{total} trials", end="", file=sys.stderr,
                  flush=True)

    try:
        result = run_mc(spec, checkpoint=args.checkpoint,
                        resume=args.resume, max_chunks=args.max_chunks,
                        progress=progress)
    except (RegistryError, ConfigurationError, ValueError) as exc:
        print("", file=sys.stderr)
        raise SystemExit(str(exc)) from None
    if not args.json and result.executed:
        print("", file=sys.stderr)
    if args.json:
        print(json.dumps(to_json(result, args.confidence), indent=2,
                         sort_keys=True))
    else:
        print(render_text(result, args.confidence))
    ok, _ = verdict(result)
    if ok:
        return 0
    return 2 if not result.complete else 1


def _command_experiments(args: argparse.Namespace) -> int:
    tables = run_all_experiments(scale=args.scale)
    wanted = None
    if args.only:
        wanted = {token.upper() for token in args.only}
    for name, rows in tables.items():
        experiment_id = name.split("-")[0].upper()
        if wanted is not None and experiment_id not in wanted:
            continue
        print(format_table(rows, title=name))
        print()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(list(argv) if argv is not None else None)
    if args.command == "run":
        return _command_run(args)
    if args.command == "sweep":
        return _command_sweep(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "validate":
        return _command_validate(args)
    if args.command == "lint":
        return _command_lint(args)
    if args.command == "search":
        return _command_search(args)
    if args.command == "mc":
        return _command_mc(args)
    return _command_experiments(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
