"""Command-line interface for working with serialized EVA programs.

Mirrors the workflow split the paper describes (the client owns the keys and
data, the server owns the compiled program): programs written with PyEVA can
be saved to disk (``repro.core.serialization.save``), then inspected, compiled
and executed from the command line::

    python -m repro.cli info program.evaproto
    python -m repro.cli compile program.evaproto -o compiled.json --policy eva
    python -m repro.cli run compiled.json --inputs inputs.json --backend mock

``compile -o`` writes the compiled-program record (graph, parameters, rotation
steps and the options it was compiled with, digest-sealed); ``run`` and
``submit --encrypt --program-file`` take either that record, used as it is, or
a source program, compiled with the flags.  ``inputs.json`` maps input names
to numbers or lists of numbers; the decrypted outputs are printed as JSON.

The serving subsystem is exposed as a command pair: ``serve`` registers one or
more program files with an :class:`~repro.serving.EvaServer` and listens on a
TCP port (newline-delimited JSON requests), and ``submit`` sends a request to
a running server::

    python -m repro.cli serve squares.evaproto --port 8587
    python -m repro.cli submit squares --inputs inputs.json --port 8587

With ``--encrypt``, ``submit`` keeps the keys client-side: it compiles the
program locally (``--program-file`` must name the same file the server
serves, with the same compile options), registers its evaluation keys as a
session, sends *encrypted* inputs, and decrypts the ciphertext reply
locally — the server never sees plaintext or the secret key::

    python -m repro.cli submit squares --inputs inputs.json --port 8587 \\
        --encrypt --program-file squares.evaproto
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import signal
import sys
from pathlib import Path
from typing import Any, Dict

import numpy as np

from .core import CompilerOptions, Executor
from .core.compiler import RECORD_FORMAT, CompilationResult
from .core.serialization import load
from .core.serialization.messages import OPS
from .core.serialization.records import read_record
from .errors import EvaError


def _load_inputs(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _make_backend(name: str, seed: int):
    from .serving import BackendSpec

    return BackendSpec(name=name, seed=seed).build()


#: The compile flags (argparse dest -> ``CompilerOptions`` field and the value
#: an absent flag means).  They parse to ``None`` when absent, so a command
#: handed a compiled-program record can tell that one was given beside it.
_COMPILE_FLAGS = {
    "policy": ("policy", "eva"),
    "max_rescale_bits": ("max_rescale_bits", 60.0),
    "security": ("security_level", 128),
    "lane_width": ("lane_width", None),
}


def _compiler_options(args: argparse.Namespace) -> CompilerOptions:
    return CompilerOptions(
        **{
            field: default if getattr(args, dest) is None else getattr(args, dest)
            for dest, (field, default) in _COMPILE_FLAGS.items()
        }
    )


def _load_program(path: Any):
    """A program file: the compiled-program record ``compile -o`` wrote (a
    :class:`CompilationResult`) or a source program (a core ``Program``)."""
    record = read_record(path)
    if record is not None and record.get("format") == RECORD_FORMAT:
        return CompilationResult.from_record(record)
    return load(path)


def _load_source(path: Any, command: str):
    """The source program at ``path``, for a command that compiles it itself."""
    program = _load_program(path)
    if isinstance(program, CompilationResult):
        raise EvaError(
            f"{path} is a compiled-program record (written by `compile -o`); "
            f"`{command}` takes the source program"
        )
    return program


def _refuse_compiled_graph(program, path: Any) -> None:
    if any(t.is_instruction and t.instruction.emitted_by == "compiler" for t in program.terms()):
        raise EvaError(
            f"{path} is an already-compiled bare graph (contains FHE-specific "
            "instructions) without the parameters it was compiled for; give "
            "the source program, or the record `compile -o` writes"
        )


def _load_compiled(path: Any, args: argparse.Namespace) -> CompilationResult:
    """What ``run`` / ``submit --encrypt`` execute: a record as it is, or a
    source program compiled with the flags."""
    program = _load_program(path)
    if not isinstance(program, CompilationResult):
        _refuse_compiled_graph(program, path)
        return CompilationResult.compile(program, options=_compiler_options(args))
    given = [
        "--" + dest.replace("_", "-") for dest in _COMPILE_FLAGS if getattr(args, dest) is not None
    ]
    if given:
        raise EvaError(
            f"{path} is a compiled-program record and carries the options it was "
            f"compiled with; drop {', '.join(given)} (or give the source program)"
        )
    return program


def cmd_info(args: argparse.Namespace) -> int:
    program = _load_source(args.program, "info")
    counts = {op.name: count for op, count in sorted(program.op_counts().items())}
    info = {
        "name": program.name,
        "vec_size": program.vec_size,
        "terms": len(program),
        "inputs": {name: term.scale for name, term in program.inputs.items()},
        "outputs": list(program.outputs),
        "multiplicative_depth": program.multiplicative_depth(),
        "op_counts": counts,
    }
    print(json.dumps(info, indent=2))
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    program = _load_source(args.program, "compile")
    result = CompilationResult.compile(program, options=_compiler_options(args))
    result.save(args.output)
    summary = dict(result.summary())
    summary["coeff_modulus_bits"] = result.parameters.coeff_modulus_bits
    summary["rotation_steps"] = result.rotation_steps
    summary["output"] = str(args.output)
    print(json.dumps(summary, indent=2))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    compilation = _load_compiled(args.program, args)
    inputs = _load_inputs(args.inputs)
    backend = _make_backend(args.backend, args.seed)
    executor = Executor(compilation, backend=backend, threads=args.threads)
    result = executor.execute(inputs)
    outputs = {
        name: np.asarray(values)[: args.head].tolist()
        for name, values in result.outputs.items()
    }
    print(json.dumps({"outputs": outputs, "wall_seconds": result.stats.wall_seconds}, indent=2))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    options = _compiler_options(args)
    # Load and validate everything before spinning up worker threads or
    # binding the port, so a bad invocation fails fast and clean.
    programs = {}
    for path in args.programs:
        name = Path(path).stem
        if name in programs:
            raise EvaError(
                f"duplicate program name {name!r}: {path} would overwrite an "
                "already-registered file with the same stem"
            )
        # The server compiles on registration (per lane width, per artifact
        # cache), so it takes source programs only.
        programs[name] = _load_source(path, "serve")
        _refuse_compiled_graph(programs[name], path)
    from .serving import ShardConfig, configure_logging, load_cluster_config

    # One recipe for whatever kind of serving process this becomes: a flag named
    # after a recipe field is that field, whether it configures this process
    # or N shards; the three spelled differently follow.
    recipe = {
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(ShardConfig)
        if hasattr(args, field.name)
    }
    recipe.update(
        backend={"name": args.backend, "seed": args.seed},
        executor_threads=args.threads,
        fairness=_fairness_policy(args),
    )
    configure_logging(json_logs=args.log_json, level=args.log_level)
    entries = [(name, program, options) for name, program in programs.items()]
    if args.cluster_config:
        config = load_cluster_config(args.cluster_config)
        return _serve_cluster(args, recipe, entries, config)
    if args.shards > 1:
        return _serve_cluster(args, recipe, entries)
    return _serve_single(args, ShardConfig(**recipe), entries)


def _fairness_policy(args):
    """The quota flags as a ``FairnessPolicy`` table, or None when no quota is set."""
    if args.quota_burst is not None and args.quota_rps is None:
        # Burst is the rate limiter's bucket capacity; without a rate it
        # would be silently ignored — refuse rather than mislead.
        raise EvaError("--quota-burst requires --quota-rps")
    if args.quota_rps is None and args.max_inflight is None:
        return None
    return {
        "quota_rps": args.quota_rps,
        "burst": args.quota_burst,
        "max_inflight": args.max_inflight,
    }


def _serve_until_interrupted(tcp, engine, **banner) -> int:
    """Print the banner, serve until SIGINT or SIGTERM, then stop the listener
    and close ``engine``.

    SIGTERM is what supervisors, ``kill`` and ``Popen.terminate()`` send; it
    takes the Ctrl-C path, because dying on it would skip the shutdown below
    and leave the ``--shards`` child processes running.
    """
    host, port = tcp.address
    print(json.dumps({"serving": f"{host}:{port}", **banner}), flush=True)
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        tcp.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        tcp.shutdown()
        engine.close()
    return 0


def _serve_single(args, recipe, entries) -> int:
    from .serving import EvaTcpServer

    server = recipe.build(entries)
    tcp = EvaTcpServer(server, host=args.host, port=args.port, wire_policy=args.wire)
    return _serve_until_interrupted(
        tcp,
        server,
        programs=server.programs(),
        session_dir=args.session_dir,
        artifact_dir=args.artifact_dir,
    )


def _serve_cluster(args, recipe, entries, config=None) -> int:
    from .serving import ClusterTcpServer, EvaCluster

    kwargs = dict(
        recipe,
        shards=args.shards,
        health_interval=args.health_interval or None,
        wire=args.wire,
    )
    if config is not None:
        # [cluster] table entries override the flag-derived kwargs; [[remote]]
        # endpoints attach at start; a [scale] table enables the autoscaler
        # (ticking every `interval` seconds, default 1).
        kwargs.update(config["cluster"])
        if config["remote"]:
            kwargs["remote_shards"] = config["remote"]
        if config["scale"] is not None:
            kwargs["scale_policy"] = config["scale"]
            kwargs["scale_interval"] = config["scale_interval"] or 1.0
    try:
        cluster = EvaCluster(**kwargs)
    except TypeError as error:
        raise EvaError(f"bad [cluster] config key: {error}") from None
    for name, program, options in entries:
        cluster.register(name, program, options=options)
    cluster.start()
    # `wire` twice, on purpose: what the router speaks upstream (above) and
    # what its listener grants are different settings.
    tcp = ClusterTcpServer(
        cluster, host=args.host, port=args.port, wire_policy=args.wire
    )
    return _serve_until_interrupted(
        tcp,
        cluster,
        programs=sorted(name for name, _program, _options in entries),
        shards=cluster.shard_infos(),
        session_dir=args.session_dir,
        artifact_dir=args.artifact_dir,
    )


def cmd_submit(args: argparse.Namespace) -> int:
    from .serving import ServingClient

    inputs = _load_inputs(args.inputs)
    with ServingClient(
        args.host, args.port, timeout=args.timeout, wire=args.wire
    ) as client:
        if args.encrypt:
            if not args.program_file:
                raise EvaError(
                    "--encrypt needs --program-file (the same program file the "
                    "server serves) to compile locally and derive keys"
                )
            from .api import ClientKit

            kit = ClientKit(
                _load_compiled(args.program_file, args),
                backend=_make_backend(args.backend, args.seed),
                client_id=args.client,
            )
            if not args.resume:
                client.create_session(args.program, kit)
            outputs = client.submit_encrypted(
                args.program,
                kit,
                inputs,
                trace=args.trace,
                deadline_ms=args.deadline_ms,
                slo_class=args.slo_class,
            )
        else:
            outputs = client.submit(
                args.program,
                inputs,
                client_id=args.client,
                trace=args.trace,
                deadline_ms=args.deadline_ms,
                slo_class=args.slo_class,
            )
        payload = {
            "outputs": {
                name: np.asarray(values)[: args.head].tolist()
                for name, values in outputs.items()
            },
            "stats": client.last_stats,
        }
        if args.trace:
            payload["trace"] = client.last_trace
            if client.last_trace:
                # A human-readable per-stage breakdown alongside the raw spans
                # (summed per stage, in case a merged trace repeats one).
                breakdown: Dict[str, float] = {}
                for span in client.last_trace.get("spans", []):
                    stage = str(span.get("stage"))
                    breakdown[stage] = round(
                        breakdown.get(stage, 0.0) + float(span.get("seconds", 0.0)), 6
                    )
                payload["trace_breakdown"] = breakdown
    print(json.dumps(payload, indent=2))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile the real CKKS backend on representative programs."""
    from .profiling import run_profile

    report = run_profile(
        args.programs,
        repeats=args.repeats,
        top=args.top,
        log=lambda line: print(line, file=sys.stderr),
    )
    text = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)
    return 0


#: Where ``cluster <action>`` takes each request field from: the argparse
#: dest, and what a usage error calls it.
_CLUSTER_FIELDS = {
    "client_id": ("client", "--client"),
    "shard": ("shard", "--shard"),
    "host": ("join_host", "--join-host"),
    "port": ("join_port", "--join-port"),
    "trace_id": ("trace_id", "a trace id argument"),
    "limit": ("limit", "--limit"),
}


def cmd_cluster(args: argparse.Namespace) -> int:
    """Send one op of the wire's table to a running server; print its answer."""
    from .serving import ServingClient

    row = OPS[args.action]
    fields = {
        name: getattr(args, _CLUSTER_FIELDS[name][0])
        for name in row.fields
        if name in _CLUSTER_FIELDS
    }
    if any(fields[name] in (None, "") for name in row.required):
        needs = " and ".join(_CLUSTER_FIELDS[name][1] for name in row.required)
        raise EvaError(f"cluster {args.action} needs {needs}")
    with ServingClient(
        args.host, args.port, timeout=args.timeout, wire=args.wire
    ) as client:
        if args.prometheus and "format" in row.fields:
            # Raw text exposition, ready for a scraper — not JSON.
            print(client.metrics(prometheus=True).get("prometheus", ""))
            return 0
        payload = {row.reply: client.call(args.action, **fields)}
    print(json.dumps(payload, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="Inspect, compile, and run serialized EVA programs."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="print a summary of a program file")
    info.add_argument("program", type=Path)
    info.set_defaults(func=cmd_info)

    def add_compile_options(p):
        p.add_argument("--policy", choices=["eva", "chet"], help="default eva")
        p.add_argument("--max-rescale-bits", type=float, help="default 60")
        p.add_argument("--security", type=int, choices=[128, 192, 256], help="default 128")
        p.add_argument(
            "--lane-width",
            type=int,
            help="lane-lower rotations to this power-of-two width (makes "
            "rotation-bearing programs slot-batchable; server and encrypting "
            "clients must agree on it)",
        )

    def add_connection_options(p):
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=8587)
        p.add_argument("--timeout", type=float, default=30.0)
        p.add_argument(
            "--wire",
            choices=["auto", "binary", "json"],
            default="auto",
            help="wire framing: auto negotiates the binary protocol and falls "
            "back to JSON lines; binary demands it; json skips negotiation",
        )

    comp = sub.add_parser("compile", help="compile an input program")
    comp.add_argument("program", type=Path)
    comp.add_argument("-o", "--output", type=Path, required=True)
    add_compile_options(comp)
    comp.set_defaults(func=cmd_compile)

    run = sub.add_parser(
        "run", help="execute a compiled-program record, or compile and execute a source program"
    )
    run.add_argument("program", type=Path)
    run.add_argument("--inputs", required=True, help="JSON file mapping input names to values")
    run.add_argument("--backend", default="mock", choices=["mock", "mock-exact", "ckks"])
    run.add_argument("--threads", type=int, default=1)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--head", type=int, default=8, help="number of output slots to print")
    add_compile_options(run)
    run.set_defaults(func=cmd_run)

    serve = sub.add_parser(
        "serve", help="serve programs over TCP (JSON lines + binary frames)"
    )
    serve.add_argument("programs", type=Path, nargs="+", help="program files; each is registered under its file stem")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8587, help="TCP port (0 picks a free port)")
    serve.add_argument("--backend", default="mock", choices=["mock", "mock-exact", "ckks"])
    serve.add_argument("--workers", type=int, default=2, help="job-engine worker threads")
    serve.add_argument("--max-batch", type=int, default=8, help="max requests packed per execution")
    serve.add_argument("--batch-window", type=float, default=0.005, help="seconds a worker lingers to fill a batch")
    serve.add_argument("--threads", type=int, default=1, help="executor threads per evaluation")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="number of worker shard processes; >1 serves through a "
        "consistent-hash router (each shard is a full server process)",
    )
    serve.add_argument(
        "--session-dir",
        default=None,
        help="directory persisting client evaluation-key blobs, so encrypted "
        "sessions survive restarts and shard failures",
    )
    serve.add_argument(
        "--session-ttl",
        type=float,
        default=None,
        help="seconds a persisted session record stays valid; expired records "
        "are pruned at startup and read as missing, so --session-dir "
        "directories don't grow unboundedly",
    )
    serve.add_argument(
        "--artifact-dir",
        default=None,
        help="shared compiled-artifact cache directory: shards load programs "
        "(and lane variants) their siblings already compiled instead of "
        "recompiling",
    )
    serve.add_argument(
        "--quota-rps",
        type=float,
        default=None,
        help="per-client sustained requests/second (token bucket); violations "
        "get a QuotaExceededError reply with retry_after",
    )
    serve.add_argument(
        "--quota-burst",
        type=float,
        default=None,
        help="per-client burst allowance (bucket capacity; default 2x the rate)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="per-client cap on queued+executing requests",
    )
    serve.add_argument(
        "--health-interval",
        type=float,
        default=2.0,
        help="seconds between the cluster's shard health probes (shards >1; "
        "0 disables)",
    )
    serve.add_argument(
        "--slow-threshold",
        type=float,
        default=1.0,
        help="seconds above which a request is recorded in the slow-request "
        "ring and logged as a structured WARNING",
    )
    serve.add_argument(
        "--log-json",
        action="store_true",
        help="emit one-line JSON log events (trace_id, client, op fields) "
        "instead of plain text",
    )
    serve.add_argument(
        "--log-level",
        default="INFO",
        help="logging level for the serving logger tree (DEBUG, INFO, ...)",
    )
    serve.add_argument(
        "--precompile-widths",
        type=int,
        default=0,
        help="pre-warm this many of the most-requested lane widths per "
        "program in the background (0 disables)",
    )
    serve.add_argument(
        "--wire",
        choices=["auto", "binary", "json"],
        default="auto",
        help="wire policy: auto serves JSON lines and grants binary framing "
        "to clients that negotiate it; json pins the listener to JSON "
        "(legacy clients work unchanged under every policy)",
    )
    serve.add_argument(
        "--cluster-config",
        type=Path,
        default=None,
        help="TOML cluster config: a [cluster] table of cluster and shard "
        "settings (overrides the flags), [[remote]] shard endpoints to attach at "
        "start, and a [scale] table enabling queue-depth autoscaling; "
        "implies cluster mode even with --shards 1",
    )
    add_compile_options(serve)
    serve.set_defaults(func=cmd_serve)

    submit = sub.add_parser("submit", help="submit a request to a running server")
    submit.add_argument("program", help="registered program name")
    submit.add_argument("--inputs", required=True, help="JSON file mapping input names to values")
    add_connection_options(submit)
    submit.add_argument("--client", default="default", help="client id (keys are cached per client)")
    submit.add_argument("--head", type=int, default=8, help="number of output slots to print")
    submit.add_argument(
        "--encrypt",
        action="store_true",
        help="encrypt inputs client-side; the server evaluates ciphertexts only",
    )
    submit.add_argument(
        "--program-file",
        type=Path,
        default=None,
        help="program file for --encrypt: the source program the server serves "
        "(compiled here with the same flags) or its compiled-program record",
    )
    submit.add_argument(
        "--resume",
        action="store_true",
        help="with --encrypt: skip session creation and reuse the session the "
        "server already holds (or can restore from its --session-dir store)",
    )
    submit.add_argument(
        "--backend",
        default="mock",
        choices=["mock", "mock-exact", "ckks"],
        help="client-side backend for --encrypt (must match the server's)",
    )
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument(
        "--trace",
        action="store_true",
        help="mint a trace id, have the server record per-stage spans, and "
        "print the stage breakdown with the outputs",
    )
    submit.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="latency deadline in milliseconds; the server rejects the "
        "request up front (DeadlineInfeasibleError with retry_after) when "
        "its modeled queue wait plus execution cannot meet it",
    )
    submit.add_argument(
        "--slo-class",
        choices=["tight", "standard", "relaxed"],
        default=None,
        help="service class steering batch-vs-solo: tight never lingers for "
        "a batch, relaxed always amortizes the full window, standard "
        "lingers only within its deadline slack",
    )
    add_compile_options(submit)
    submit.set_defaults(func=cmd_submit)

    profile = sub.add_parser(
        "profile",
        help="profile the real CKKS backend's hot paths (cProfile + "
        "tracemalloc) on representative programs and print a per-op cost "
        "breakdown as JSON",
    )
    profile.add_argument(
        "--programs",
        nargs="+",
        default=None,
        help="subset of the profile suite (sobel_lanes, harris_lanes, sum, "
        "poly_relin); default runs all",
    )
    profile.add_argument(
        "--repeats", type=int, default=3, help="evaluations per program"
    )
    profile.add_argument(
        "--top", type=int, default=15, help="top functions to report"
    )
    profile.add_argument(
        "--out", type=Path, default=None, help="write the JSON report here instead of stdout"
    )
    profile.set_defaults(func=cmd_profile)

    cluster = sub.add_parser(
        "cluster", help="send one admin op to a running server or cluster router"
    )
    cluster.add_argument(
        "action",
        choices=[op for op, row in OPS.items() if not row.forwarded],
        help="the op to send (docs/wire-protocol.md lists what each takes and "
        "answers): drain/rejoin take --shard, join takes --join-host/--join-port, "
        "trace takes a trace id, route takes --client, slow takes --limit, "
        "metrics takes --prometheus; route, drain, rejoin and join are answered "
        "by cluster routers only",
    )
    cluster.add_argument(
        "trace_id",
        nargs="?",
        default=None,
        help="trace id for the trace action",
    )
    add_connection_options(cluster)
    cluster.add_argument("--shard", type=int, default=None, help="shard index for drain/rejoin")
    cluster.add_argument(
        "--join-host",
        default=None,
        help="host of a running shard server to attach with the join action",
    )
    cluster.add_argument(
        "--join-port",
        type=int,
        default=None,
        help="port of the shard server to attach with the join action",
    )
    cluster.add_argument("--client", default="default", help="client id for route")
    cluster.add_argument(
        "--prometheus",
        action="store_true",
        help="with metrics: print the Prometheus text exposition",
    )
    cluster.add_argument(
        "--limit",
        type=int,
        default=None,
        help="with slow: cap the number of records returned",
    )
    cluster.set_defaults(func=cmd_cluster)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EvaError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
