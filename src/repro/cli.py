"""Command-line interface.

Thirteen subcommands cover the library's workflows; the common ones::

    python -m repro probe                      # Tables I-II, Fig. 1
    python -m repro analyze                    # Section III log analyses
    python -m repro run --workload wl1 --scheduler fifo --policy et
    python -m repro run --jobs 300 --scheduler fair --profile
    python -m repro synth --workload wl2 --jobs 300 --out wl2.json
    python -m repro figures --jobs 200 --only fig7,fig11
    python -m repro sweep --grid all --jobs 4 --cache-dir .sweep-cache
    python -m repro sweep --grid all --serve :7341 --jobstore jobs.jsonl
    python -m repro sweep --worker HOST:7341
    python -m repro serve --port 8750 --cache-dir .sweep-cache
    python -m repro replay verify trace.jsonl
    python -m repro replay diff lru.jsonl et.jsonl
    python -m repro replay whatif trace.jsonl --at 120 --patch kill:3 --out wf.jsonl
    python -m repro checkpoint save --at 60 --out run.ckpt --trace run.jsonl
    python -m repro checkpoint resume run.ckpt --trace resumed.jsonl
    python -m repro train --traces corpus/ --synthesize --out model.json
    python -m repro run --policy learned --model model.json
    python -m repro run --policy rollout --rollout-epoch 10
    python -m repro policy-bench --json bench.json --svg bench.svg

``run`` and ``checkpoint save`` describe one cell with the same flags
(workload, cluster, scheduler, DARE policy, failures, Scarlett, trace,
invariant checks) and build it through one function.  A workload is a
built-in name (wl1/wl2), a saved workload JSON, or a SWIM-format TSV
trace.  ``run --profile`` samples the run's stacks and reports CPU time
by ``repro`` package.

``sweep`` runs a named grid of experiment cells (figures, sensitivity
sweeps, ablations) across worker processes, reusing previously computed
cells from a content-addressed result cache; ``--shard K/M`` splits a
grid across CI jobs.  ``--serve``/``--worker`` promote the same grid to
a coordinator + remote-worker service with lease-based fault tolerance
(crashed workers lose their leases, failed cells retry with backoff,
stragglers are speculatively re-executed) whose results are
byte-identical to the serial path; the coordinator is a ``serve``
instance holding the grid as one job, and workers lease over HTTP.

``serve`` runs the long-lived HTTP front door (REST + SSE) over the same
sweep machinery: clients POST grids to ``/api/jobs``, stream progress
and trace records from ``/api/jobs/{id}/events``, and fetch result
documents byte-identical to the serial path (see ``docs/SERVER.md``).

``replay`` consumes the JSONL traces ``run --trace`` writes: ``summary``
prints record counts and reconstructed headline stats, ``verify`` rebuilds
the control-plane state from the records and checks it against the
``run.summary`` footer (exit 0 only on an exact match), ``diff`` bisects
two traces to their first divergent record, and ``whatif`` rebuilds the
traced run as a *live* simulation at time T, applies counterfactual
patches (kill a node, flip the policy, pin a replica), and resumes it.

``checkpoint`` pauses a run at a time horizon, freezes its full state to
disk, and later resumes it (optionally patched); a resumed trace is
byte-identical to one from an uninterrupted run.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional, Sequence

import numpy as np

from repro.baselines.scarlett import ScarlettConfig
from repro.cluster.cluster import CCT_SPEC, EC2_SPEC, MAX_SCALE_NODES, MESOSCALE_FLOOR
from repro.core.config import POLICY_NAMES, DareConfig
from repro.experiments.runner import SCHEDULERS, ExperimentConfig, run_experiment
from repro.observability.profiling import SamplerUnavailable, StackSampler
from repro.workloads.swim import Workload

_CLUSTERS = {"cct": CCT_SPEC, "ec2": EC2_SPEC}


def _scale_spec(args: argparse.Namespace):
    """The --nodes scale cluster, or None without --nodes; an infeasible
    --nodes/--mesoscale request exits with advice."""
    from repro.cluster.cluster import scale_spec

    nodes = getattr(args, "nodes", 0)
    mesoscale = getattr(args, "mesoscale", False)
    if not nodes:
        if mesoscale:
            raise SystemExit("--mesoscale requires --nodes (scale clusters only)")
        return None
    if nodes > MAX_SCALE_NODES:
        raise SystemExit(
            f"--nodes {nodes:,} exceeds the supported maximum of "
            f"{MAX_SCALE_NODES:,} (the scaling benches gate up to 100k)"
        )
    if nodes > MESOSCALE_FLOOR and not mesoscale:
        raise SystemExit(
            f"--nodes {nodes:,} without --mesoscale keeps all {nodes:,} nodes "
            f"event-accurate (per-node heartbeats); pass --mesoscale to pool "
            f"idle nodes into rack hubs, or stay at <= {MESOSCALE_FLOOR:,} nodes"
        )
    try:
        return scale_spec(nodes, mesoscale=mesoscale)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _model(path: str):
    """The learned policy's weights: the model file at ``path``, or the
    baked-in weights without one; an unreadable or malformed file exits."""
    from repro.policies.learned import DEFAULT_WEIGHTS, load_model

    if not path:
        return DEFAULT_WEIGHTS
    try:
        return load_model(path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read model {path!r}: {exc}")


def _policy(args: argparse.Namespace) -> DareConfig:
    """The DARE config the policy flags name (``rollout`` runs over a
    greedy-lru host); :func:`_cell` checks it with the rest of the cell."""
    name = "lru" if args.policy == "rollout" else args.policy
    model = _model(args.model) if name == "learned" else ()
    return DareConfig.named(name, args.p, args.threshold, args.budget, model)


def _rollout_config(args: argparse.Namespace):
    """The RolloutConfig for ``--policy rollout`` runs (else None)."""
    if args.policy != "rollout":
        return None
    from repro.policies.rollout import RolloutConfig

    return RolloutConfig(
        epoch_s=args.rollout_epoch,
        branches=args.rollout_branches,
        horizon_s=args.rollout_horizon,
        max_epochs=args.rollout_max_epochs,
        jobs=args.rollout_jobs,
        prune=args.rollout_prune,
    )


def _build_workload(name: str, n_jobs: int, seed: int) -> Workload:
    """The workload a ``--workload`` value names, built by its
    :class:`~repro.experiments.sweep.WorkloadSpec`; an unknown name, a job
    count below one, or an unreadable, malformed or empty file exits with
    the reason."""
    from repro.experiments.sweep import WorkloadSpec

    if name in ("wl1", "wl2"):
        spec = WorkloadSpec(name, n_jobs=n_jobs, seed=seed)
    elif name.endswith((".json", ".tsv", ".txt")):
        spec = WorkloadSpec("file", seed=seed, path=name)
    else:
        raise SystemExit(
            f"unknown workload {name!r} (expected wl1, wl2, *.json, or *.tsv)"
        )
    try:
        return spec.materialize()
    except OSError as exc:
        raise SystemExit(f"cannot read workload {name!r}: {exc}")
    except ValueError as exc:
        raise SystemExit(f"bad workload {name!r}: {exc}")


def _parse_failures(items: List[str]):
    out = []
    for item in items:
        try:
            t, node = item.split(":")
            out.append((float(t), int(node)))
        except ValueError:
            raise SystemExit(f"bad --fail spec {item!r}; expected TIME:NODE")
    return tuple(out)


def _cell(args: argparse.Namespace):
    """The ``(config, workload)`` the cell flags describe.

    ``run`` and ``checkpoint save`` share the cell flags; ``run``'s own
    scale, rollout and firehose flags are read when present, and
    ``checkpoint save`` gets their defaults.  An out-of-range value exits.
    """
    if args.jobs < 1:
        raise SystemExit(f"--jobs must be at least 1 (got {args.jobs})")
    workload = _build_workload(args.workload, args.jobs, args.seed)
    scarlett = (
        ScarlettConfig(epoch_s=args.scarlett_epoch, budget=args.budget)
        if args.scarlett
        else None
    )
    config = ExperimentConfig(
        cluster_spec=_scale_spec(args) or _CLUSTERS[args.cluster],
        scheduler=args.scheduler,
        dare=_policy(args),
        rollout=_rollout_config(args),
        seed=args.seed,
        scarlett=scarlett,
        failures=_parse_failures(args.fail),
        trace_path=args.trace,
        trace_engine_events=getattr(args, "trace_engine_events", False),
        check_invariants=args.check_invariants,
    )
    try:
        config.validate()
    except ValueError as exc:
        raise SystemExit(f"bad cell: {exc}")
    return config, workload


def _pause_time(at: float) -> float:
    """``--at``; a negative or non-finite pause time exits."""
    if not 0 <= at < float("inf"):
        raise SystemExit(f"--at must be a finite time >= 0 (got {at})")
    return at


# -- subcommands -------------------------------------------------------------


def cmd_probe(args: argparse.Namespace) -> int:
    from repro.experiments.tables import (
        bandwidth_ratios,
        fig1_hop_distribution,
        print_table1,
        print_table2,
        table1_rtt,
        table2_bandwidth,
    )

    print_table1(table1_rtt(args.seed))
    print()
    print_table2(table2_bandwidth(args.seed))
    ratios = bandwidth_ratios(args.seed)
    print(f"\nnet/disk ratio: cct={ratios['cct']:.3f} ec2={ratios['ec2']:.3f}")
    print("\nEC2 hop-count distribution:")
    for h, frac in enumerate(fig1_hop_distribution(args.seed)):
        if frac > 0:
            print(f"  {h:>2d} hops: {frac:.3f}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import generate_access_log
    from repro.analysis.patterns import (
        age_at_access_cdf,
        median_age_hours,
        popularity_by_rank,
        window_distribution,
    )

    log = generate_access_log(np.random.default_rng(args.seed))
    print(f"audit log: {log.n_accesses} accesses to {log.n_files} files")
    pop = popularity_by_rank(log)
    print(f"popularity: rank1={pop[0]:.0f} rank100={pop[min(99, len(pop)-1)]:.0f}")
    cdf = age_at_access_cdf(log, np.array([1.0, 24.0, 168.0]))
    print(f"age CDF @1h/1d/1w: {cdf[0]:.2f}/{cdf[1]:.2f}/{cdf[2]:.2f} "
          f"(median {median_age_hours(log):.1f}h)")
    _, frac = window_distribution(log)
    print(f"80% windows: <=2h {frac[:2].sum():.2f}, daily spike {frac[112:130].sum():.2f}")
    from repro.analysis.correlation import analyze_correlation

    summary = analyze_correlation(log)
    sizes = sorted((len(g) for g in summary.groups), reverse=True)
    print(f"co-access groups among hot files: {len(summary.groups)} "
          f"(sizes {sizes[:5]}), background corr {summary.mean_pairwise:+.2f}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config, workload = _cell(args)
    sampler = StackSampler() if args.profile else contextlib.nullcontext()
    try:
        with sampler:
            result = run_experiment(config, workload)
    except SamplerUnavailable as exc:
        raise SystemExit(f"--profile: {exc}")
    print(result.summary_row())
    if args.trace:
        print(f"  trace written:    {args.trace}")
    if args.check_invariants:
        print(f"  invariants:       ok ({result.trace_records_checked} records, "
              f"{result.invariant_sweeps} full sweeps)")
    print(f"  cluster locality: {result.locality.locality:.3f} "
          f"({result.locality.node_local}/{result.locality.total} map tasks)")
    print(f"  mean map time:    {result.mean_map_s:.2f}s")
    print(f"  makespan:         {result.makespan_s:.0f}s")
    print(f"  cv before/after:  {result.cv_before:.3f} / {result.cv_after:.3f}")
    if result.blocks_created:
        print(f"  replicas created: {result.blocks_created} "
              f"(evicted {result.blocks_evicted})")
    if result.scarlett_replicas_created:
        print(f"  scarlett replicas: {result.scarlett_replicas_created}")
    if config.failures:
        print(f"  failures: {len(config.failures)} nodes; "
              f"{result.blocks_lost_replicas} blocks lost replicas, "
              f"{result.repairs_completed} repaired, "
              f"{result.data_loss_blocks} lost forever, "
              f"{result.tasks_requeued} task attempts requeued")
    print("  network traffic (GB): " + ", ".join(
        f"{k}={v / 1e9:.1f}" for k, v in result.traffic_bytes.items() if v
    ))
    if args.profile:
        rate = result.events_processed / result.engine_wall_s if result.engine_wall_s else 0.0
        print(f"  engine: {result.events_processed} events in "
              f"{result.engine_wall_s:.3f}s ({rate:,.0f} events/s)")
        print(sampler.format_report())
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from repro.policies.learned import save_model
    from repro.policies.train import (
        dataset_from_traces,
        fit_logistic,
        synthesize_corpus,
        trace_paths,
    )

    if args.synthesize:
        print(f"synthesizing trace corpus in {args.traces} "
              f"(wl1 x {args.jobs} jobs, seeds {args.seeds}) ...")
        synthesize_corpus(args.traces, n_jobs=args.jobs, seeds=tuple(args.seeds))
    paths = trace_paths(args.traces)
    if not paths:
        raise SystemExit(
            f"no .jsonl traces in {args.traces!r} (pass --synthesize to "
            "generate the smoke corpus there first)"
        )
    examples = dataset_from_traces(paths)
    if not examples:
        raise SystemExit("corpus produced no training examples")
    result = fit_logistic(examples, epochs=args.epochs, lr=args.lr)
    print(f"fit on {result.n_examples} examples from {len(paths)} traces "
          f"({result.n_positive} positive)")
    print(f"loss {result.loss:.4f}  training accuracy {result.accuracy:.3f}")
    print("weights:", " ".join(f"{w:g}" for w in result.weights))
    if args.out:
        save_model(
            result.weights,
            args.out,
            n_examples=result.n_examples,
            accuracy=result.accuracy,
            loss=result.loss,
        )
        print(f"model written: {args.out} "
              f"(use with `repro run --policy learned --model {args.out}`)")
    return 0


def cmd_policy_bench(args: argparse.Namespace) -> int:
    import json as _json

    from repro.policies.bench import (
        BENCH_SEEDS,
        FULL_JOBS,
        format_report,
        render_policy_grid,
        run_policy_bench,
    )

    seeds = tuple(args.seeds) if args.seeds else BENCH_SEEDS
    n_jobs = FULL_JOBS if args.full else args.jobs
    doc = run_policy_bench(
        n_jobs=n_jobs, seeds=seeds, model=_model(args.model),
        progress=print if args.verbose else None,
    )
    print(format_report(doc))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render_policy_grid(doc))
        print(f"wrote {args.svg}")
    gate = doc.get("gate")
    if gate is not None and not gate["ok"] and not args.no_gate:
        print("policy-bench gate FAILED", file=sys.stderr)
        return 1
    return 0


def _load_trace_or_exit(path: str):
    from repro.replay import TraceFormatError, load_trace

    try:
        return load_trace(path)
    except OSError as exc:
        raise SystemExit(f"cannot read trace {path!r}: {exc}")
    except TraceFormatError as exc:
        raise SystemExit(f"malformed trace {path!r}: {exc}")


def cmd_replay_summary(args: argparse.Namespace) -> int:
    from repro.replay import reconstruct

    index = _load_trace_or_exit(args.trace)
    first, last = index.span
    print(f"{args.trace}: {len(index)} records spanning "
          f"t={first:.1f}s..{last:.1f}s")
    config = index.config
    if config is not None:
        fields = ", ".join(f"{k}={config.data[k]}" for k in sorted(config.data))
        print(f"  config:  {fields}")
    print("  footer:  " + ("present (run completed)" if index.summary is not None
                           else "MISSING (run crashed or still in flight)"))
    for rtype in sorted(index.by_type):
        print(f"  {rtype:<24s} {index.count(rtype):>7d}")
    state = reconstruct(index, strict=False)
    loc = state.locality_stats()
    print(f"  reconstructed: {len(state.jobs)} jobs, "
          f"locality {loc.locality:.3f} ({loc.node_local}/{loc.total} maps), "
          f"{state.blocks_created} replicas created, "
          f"{state.blocks_evicted} evicted")
    return 0


def cmd_replay_verify(args: argparse.Namespace) -> int:
    from repro.replay import ReconstructionError, reconstruct

    index = _load_trace_or_exit(args.trace)
    try:
        state = reconstruct(index)
    except ReconstructionError as exc:
        print(f"reconstruction failed: {exc}")
        return 1
    report = state.verify()
    print(report.format())
    if not report.checks:
        return 1  # nothing to verify against: no run.summary footer
    return 0 if report.ok else 1


def cmd_replay_diff(args: argparse.Namespace) -> int:
    from repro.replay import TraceFormatError, diff_traces

    try:
        diff = diff_traces(args.trace_a, args.trace_b, context=args.context)
    except OSError as exc:
        raise SystemExit(f"cannot read trace: {exc}")
    except TraceFormatError as exc:
        raise SystemExit(f"malformed trace: {exc}")
    print(diff.format())
    return 0 if diff.identical else 1


def cmd_replay_whatif(args: argparse.Namespace) -> int:
    """Reconstruct a traced run to time t, apply patches, resume live."""
    import dataclasses

    from repro.checkpoint import parse_patch, snapshot
    from repro.experiments.runner import Simulation, make_tracer
    from repro.experiments.serialize import config_from_dict

    at = _pause_time(args.at)
    index = _load_trace_or_exit(args.trace)
    header = index.config
    if header is None:
        raise SystemExit(f"trace {args.trace!r} has no run.config header")
    payload = header.data.get("config")
    if payload is None:
        raise SystemExit(
            f"trace {args.trace!r} predates embedded configs; re-record it "
            "with `repro run --trace` to use what-if replay"
        )
    try:
        patches = [parse_patch(spec) for spec in args.patch]
    except ValueError as exc:
        raise SystemExit(str(exc))

    config = config_from_dict(payload)
    seed = config.seed if args.seed is None else args.seed
    name, n_jobs = args.workload, args.jobs
    if not name:  # resynthesize the traced run's workload from the header
        name, n_jobs = header.data["workload"], header.data["jobs"]
        if name not in ("wl1", "wl2"):
            raise SystemExit(
                f"trace was recorded against workload {name!r}, which cannot "
                "be resynthesized from the header; pass --workload PATH to "
                "the saved workload file"
            )
    workload = _build_workload(name, n_jobs, seed)
    config = dataclasses.replace(config, trace_path=args.out)

    base = Simulation(config, workload, tracer=make_tracer(config))
    base.run(until=at)
    snap = snapshot(base)
    base.close()
    print(f"reconstructed to t={snap.time:.1f}s "
          f"({snap.events_processed} events replayed)")

    fork = snap.restore(trace_path=args.out)
    for patch in patches:
        patch.apply(fork)
        print(f"  applied: {patch.describe()}")
    fork.run()
    result = fork.finalize()
    fork.close()
    print(result.summary_row())
    if args.out:
        from repro.replay import diff_traces

        print(f"  what-if trace written: {args.out}")
        diff = diff_traces(args.trace, args.out)
        if diff.identical:
            print("  no divergence from the original run")
        else:
            rec = diff.divergence.record_a or diff.divergence.record_b
            print(f"  diverges from the original at event "
                  f"#{diff.divergence.index} (t={rec.time:.1f}s); "
                  f"run `repro replay diff` for the full report")
    return 0


def cmd_checkpoint_save(args: argparse.Namespace) -> int:
    """Run a cell up to a time horizon and save the frozen state."""
    from repro.checkpoint import snapshot
    from repro.experiments.runner import Simulation, make_tracer

    at = _pause_time(args.at)
    config, workload = _cell(args)
    sim = Simulation(config, workload, tracer=make_tracer(config))
    sim.run(until=at)
    snap = snapshot(sim)
    sim.close()
    snap.save(args.out)
    print(f"checkpoint written: {args.out}")
    print(f"  t={snap.time:.1f}s, {snap.events_processed} events, "
          f"{len(snap.payload) + len(snap.static_payload)} state bytes"
          + (f", {len(snap.trace_prefix)} trace-prefix bytes"
             if snap.trace_prefix is not None else ""))
    return 0


def cmd_checkpoint_resume(args: argparse.Namespace) -> int:
    """Restore a saved checkpoint, optionally patch it, and run to the end."""
    from repro.checkpoint import Snapshot, parse_patch

    try:
        snap = Snapshot.load(args.path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot load checkpoint {args.path!r}: {exc}")
    try:
        patches = [parse_patch(spec) for spec in args.patch]
    except ValueError as exc:
        raise SystemExit(str(exc))
    try:
        sim = snap.restore(trace_path=args.trace)
    except ValueError as exc:
        raise SystemExit(str(exc))
    print(f"resumed from t={snap.time:.1f}s "
          f"({snap.events_processed} events already simulated)")
    for patch in patches:
        patch.apply(sim)
        print(f"  applied: {patch.describe()}")
    sim.run()
    result = sim.finalize()
    sim.close()
    print(result.summary_row())
    if args.trace:
        print(f"  trace written: {args.trace} "
              "(byte-identical to an uninterrupted run)")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    from repro.workloads.swim_io import save_workload

    workload = _build_workload(args.workload, args.jobs, args.seed)
    if args.out:
        save_workload(workload, args.out)
        print(f"wrote {workload.n_jobs} jobs / {len(workload.catalog)} files "
              f"to {args.out}")
    if args.stats or not args.out:
        from repro.workloads.stats import compute_stats

        print(compute_stats(workload).report())
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments import figures as F
    from repro.experiments.figures import print_fig7, print_sweep
    from repro.experiments.sweep import ResultCache

    only = set(args.only.split(",")) if args.only else None
    workers = args.workers
    cache = ResultCache(args.cache_dir) if args.cache_dir else None

    def want(tag: str) -> bool:
        return only is None or tag in only

    if want("fig7"):
        print_fig7(F.fig7_cct(n_jobs=args.jobs, jobs=workers, cache=cache))
    if want("fig8"):
        print_sweep(F.fig8a_p_sweep(n_jobs=args.jobs, jobs=workers, cache=cache), "p")
        print_sweep(
            F.fig8b_threshold_sweep(n_jobs=args.jobs, jobs=workers, cache=cache),
            "threshold",
        )
    if want("fig9"):
        print_sweep(
            F.fig9a_budget_sweep_lru(n_jobs=args.jobs, jobs=workers, cache=cache),
            "budget",
        )
    if want("fig10"):
        print_fig7(
            F.fig10_ec2(n_jobs=args.jobs, jobs=workers, cache=cache), "Fig. 10 (EC2)"
        )
    if want("fig11"):
        for pt in F.fig11_uniformity(n_jobs=args.jobs, jobs=workers, cache=cache):
            print(f"p={pt.p:.1f} cv {pt.cv_before:.3f} -> {pt.cv_after:.3f}")
    return 0


def _parse_address_or_exit(spec: str):
    from repro.experiments.service import parse_address

    try:
        return parse_address(spec)
    except ValueError as exc:
        raise SystemExit(str(exc))


def cmd_sweep(args: argparse.Namespace) -> int:
    import dataclasses
    import json
    import os

    from repro.experiments import sweep as S

    if args.worker:
        from repro.experiments import service as svc

        address = _parse_address_or_exit(args.worker)
        cache = None if args.no_cache else S.ResultCache(args.cache_dir)
        try:
            chaos = svc.parse_chaos(args.chaos)
        except ValueError as exc:
            raise SystemExit(str(exc))
        try:
            stats = svc.run_worker(
                address,
                worker_id=args.worker_id or None,
                cache=cache,
                poll_s=args.poll,
                chaos=chaos,
            )
        except svc.ServiceError as exc:
            raise SystemExit(str(exc))
        print(f"worker {stats.worker_id}: {stats.leases} leases, "
              f"{stats.completed} completed ({stats.cached} cached), "
              f"{stats.failed} failed, {stats.rejected} duplicate")
        return 0
    if args.status:
        from repro.experiments import service as svc

        address = _parse_address_or_exit(args.status)
        try:
            code, doc, _ = svc.http_json(address, "GET", "/api/cluster")
        except (OSError, svc.ServiceError) as exc:
            raise SystemExit(
                f"cannot reach coordinator at {address[0]}:{address[1]}: {exc}"
            )
        if code != 200:
            raise SystemExit(f"{address[0]}:{address[1]} answered {code}: "
                             f"{doc.get('error', '')}")
        status = doc["queue"]
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
        else:
            print(svc.format_status_table(status))
        return 0

    if args.serve:
        host, port = _parse_address_or_exit(args.serve)
    try:
        cells = S.build_grid(args.grid, n_jobs=args.n_jobs, seed=args.seed)
    except ValueError as exc:
        raise SystemExit(str(exc))
    spec = _scale_spec(args)
    if spec is not None:
        # re-run the whole grid on a synthetic scale cluster; validated
        # up front so an infeasible combination dies here with advice,
        # not mid-sweep with an OOM
        cells = [
            c._replace(config=dataclasses.replace(c.config, cluster_spec=spec))
            for c in cells
        ]
    if args.shard:
        try:
            cells = S.shard_cells(cells, args.shard)
        except ValueError as exc:
            raise SystemExit(str(exc))
    if args.check_invariants:
        cells = [
            c._replace(config=dataclasses.replace(c.config, check_invariants=True))
            for c in cells
        ]
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
        cells = [
            c._replace(config=dataclasses.replace(c.config, trace_path=os.path.join(
                args.trace_dir, c.label().replace("/", "_") + ".jsonl")))
            for c in cells
        ]
    cache = None if args.no_cache else S.ResultCache(args.cache_dir)
    if args.serve:
        import asyncio

        from repro.experiments.jobs import JobManager, JobRejected
        from repro.experiments.service import WorkQueue, cell_to_doc
        from repro.server.app import Server
        from repro.server.jobstore import restore

        journal = _jobstore_or_exit(args, cache)
        queue = WorkQueue(lease_s=args.lease, max_attempts=args.max_attempts,
                          steal_after_s=args.steal_after or None)
        # the grid is one job; remote workers do all the executing
        manager = JobManager(cache=cache, workers=0, queue=queue,
                             max_cells_per_job=max(1, len(cells)),
                             journal=journal)
        if journal is not None:
            restore(manager, args.jobstore)
            # workers lease whatever the queue holds: another grid's
            # unfinished job would run here too
            keys = {S.cache_key(c.config, c.workload) for c in cells}
            foreign = [j.id for j in manager.jobs.values()
                       if j.active and not j.key_set <= keys]
            if foreign:
                raise SystemExit(
                    f"{args.jobstore} holds unfinished job(s) of another "
                    f"grid: {', '.join(foreign)}; give each grid its own "
                    "--jobstore"
                )
        try:
            job, created = manager.submit(
                {"cells": [cell_to_doc(c) for c in cells]}) if cells else (None, True)
        except JobRejected as exc:  # a cell the queue refuses, e.g. over MAX_JOBS
            raise SystemExit(f"cannot serve the grid: {exc.message}")
        resumed = not created  # the journal already held this grid
        server = Server(manager, host=host, port=port)

        async def serve_grid() -> None:
            await server.start()
            print(f"coordinator listening on {server.host}:{server.port} "
                  f"({'resumed' if resumed else 'serving'} {len(cells)} cells; "
                  f"lease {args.lease:g}s)", flush=True)
            serving = asyncio.ensure_future(server.serve())
            # the reaper: expired leases are reclaimed even when no worker polls
            while job is not None and job.active and not serving.done():
                await asyncio.sleep(0.1)
                manager.expire()
            server.request_stop()
            await serving

        try:
            asyncio.run(serve_grid())
        except KeyboardInterrupt:
            pass
        outcomes = manager.outcomes(job) if job is not None else []
        status = queue.status_doc()
        print(f"service: {status['leases_granted']} leases, "
              f"{status['expirations']} expired, {status['steals']} stolen, "
              f"{status['duplicates']} duplicate completions, "
              f"{status['quarantined']} quarantined")
    else:
        outcomes = S.run_cells(
            cells,
            jobs=args.jobs,
            cache=cache,
            timeout_s=args.timeout or None,
            progress=S.cache_progress(cache),
        )
    n_failed = sum(1 for o in outcomes if not o.ok)
    n_cached = sum(1 for o in outcomes if o.from_cache)
    if cache is not None:
        print(f"sweep: {len(outcomes)} cells, {n_cached} cached, "
              f"{n_failed} failed ({cache.hits} cache hits, "
              f"{cache.misses} misses, {cache.corrupt} corrupt)")
    else:
        print(f"sweep: {len(outcomes)} cells, {n_failed} failed (cache off)")
    if args.out:
        doc = S.outcomes_to_doc(
            outcomes, grid=args.grid, n_jobs=args.n_jobs,
            seed=args.seed, shard=args.shard,
        )
        with open(args.out, "w") as fh:
            fh.write(S.doc_to_text(doc))
        print(f"wrote {args.out}")
    for o in outcomes:
        if not o.ok:
            print(f"FAILED {o.cell.label()}:", file=sys.stderr)
            print("  " + o.error.strip().replace("\n", "\n  "), file=sys.stderr)
    return 1 if n_failed else 0


def _jobstore_or_exit(args: argparse.Namespace, cache):
    """The ``--jobstore`` journal, or None; it needs the result cache,
    which holds the results of the jobs it restores."""
    from repro.server.jobstore import JobJournal

    if not args.jobstore:
        return None
    if cache is None:
        raise SystemExit(
            "--jobstore needs the result cache: a restored job's results "
            "come back from it (drop --no-cache)"
        )
    return JobJournal(args.jobstore)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived HTTP service (REST + SSE) over the sweep executor."""
    import asyncio

    from repro.experiments.jobs import JobManager, server_queue
    from repro.experiments.sweep import ResultCache
    from repro.server.app import Server, run_server
    from repro.server.jobstore import restore

    if not 0 <= args.port <= 65535:
        raise SystemExit(f"--port {args.port} is out of range 0-65535")
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    journal = _jobstore_or_exit(args, cache)
    manager = JobManager(
        cache=cache,
        workers=args.workers,
        isolation=args.isolation,
        max_queued_jobs=args.max_jobs,
        max_cells_per_job=args.max_cells,
        cell_timeout_s=args.timeout or None,
        queue=server_queue(args.lease, args.max_attempts),
        journal=journal,
    )
    if journal is not None:
        adopted = restore(manager, args.jobstore)
        if adopted:
            print(f"restored {adopted} job(s) from {args.jobstore}", flush=True)
    manager.start()
    server = Server(
        manager,
        host=args.host,
        port=args.port,
        rate=args.rate,
        burst=args.burst,
        max_body_bytes=args.max_body_bytes,
        request_timeout_s=args.request_timeout,
        keepalive_s=args.keepalive,
        shutdown_grace_s=args.grace,
    )
    try:
        asyncio.run(run_server(server))
    except KeyboardInterrupt:
        pass
    print("server drained", flush=True)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import write_report
    from repro.experiments.sweep import ResultCache

    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    paths = write_report(
        args.out, n_jobs=args.jobs, seed=args.seed, jobs=args.workers, cache=cache
    )
    for kind, path in paths.items():
        print(f"wrote {kind}: {path}")
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    from repro.viz.paper_figures import render_all

    paths = render_all(args.out, n_jobs=args.jobs, seed=args.seed)
    for path in paths:
        print(f"wrote {path}")
    return 0


# -- entry point ----------------------------------------------------------------


def _add_cell_flags(p: argparse.ArgumentParser, policies: Sequence[str]) -> None:
    """The flags that describe one cell (``run``, ``checkpoint save``)."""
    p.add_argument("--workload", default="wl1",
                   help="wl1, wl2, a saved .json, or a SWIM .tsv")
    p.add_argument("--jobs", type=int, default=200)
    p.add_argument("--seed", type=int, default=20110926)
    p.add_argument("--cluster", choices=sorted(_CLUSTERS), default="cct")
    p.add_argument("--scheduler", choices=tuple(SCHEDULERS), default="fifo")
    p.add_argument("--policy", choices=policies, default="et",
                   help="replica management: the paper baselines (lru/et), "
                        "the lfu ablation, the offline-trained scorer "
                        "(learned), each also by its full name, or the "
                        "checkpoint-fork rollout engine over a greedy host "
                        "(rollout, `run` only)")
    p.add_argument("--p", type=float, default=0.3, help="ElephantTrap probability")
    p.add_argument("--threshold", type=int, default=1)
    p.add_argument("--budget", type=float, default=0.2)
    p.add_argument("--model", default="", metavar="PATH",
                   help="model file for --policy learned (written by "
                        "`repro train`; default: the baked-in weights)")
    p.add_argument("--scarlett", action="store_true",
                   help="enable the epoch-based proactive baseline")
    p.add_argument("--scarlett-epoch", type=float, default=600.0)
    p.add_argument("--fail", action="append", default=[],
                   metavar="TIME:NODE", help="inject a node failure")
    p.add_argument("--trace", default="", metavar="PATH",
                   help="write a JSONL trace of the run to PATH (a "
                        "checkpoint embeds the prefix, so a resumed trace "
                        "is byte-identical to an uninterrupted one)")
    p.add_argument("--check-invariants", action="store_true",
                   help="validate cross-component invariants at every "
                        "traced event (aborts on the first violation)")


def _add_scale_flags(p: argparse.ArgumentParser) -> None:
    """--nodes/--mesoscale (``run``, ``sweep``); checked by :func:`_scale_spec`."""
    p.add_argument("--nodes", type=int, default=0, metavar="N",
                   help="run on a synthetic scale cluster of N nodes "
                        f"(lite network, 40-node racks; max {MAX_SCALE_NODES:,}) "
                        "instead of --cluster or the grid's own clusters")
    p.add_argument("--mesoscale", action="store_true",
                   help="with --nodes: pool idle nodes into per-rack hubs "
                        f"(required above {MESOSCALE_FLOOR:,} nodes)")


def _add_cache_flags(p: argparse.ArgumentParser) -> None:
    """The result cache (``sweep``, ``serve``)."""
    p.add_argument("--cache-dir", default=".sweep-cache", metavar="DIR",
                   help="content-addressed result cache directory")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore and don't write the result cache")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="DARE (CLUSTER 2011) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("probe", help="cluster measurements (Tables I-II, Fig. 1)")
    p.add_argument("--seed", type=int, default=20110926)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("analyze", help="audit-log analyses (Figs. 2-5)")
    p.add_argument("--seed", type=int, default=20110926)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("run", help="run one cluster experiment")
    _add_cell_flags(p, (*POLICY_NAMES, "rollout"))
    _add_scale_flags(p)
    p.add_argument("--rollout-epoch", type=float, default=10.0, metavar="S",
                   help="simulation seconds between rollout decision epochs")
    p.add_argument("--rollout-branches", type=int, default=4, metavar="N",
                   help="candidate actions forked per rollout epoch")
    p.add_argument("--rollout-horizon", type=float, default=0.0, metavar="S",
                   help="fork lookahead; 0 runs forks to completion")
    p.add_argument("--rollout-max-epochs", type=int, default=64, metavar="N")
    p.add_argument("--rollout-jobs", type=int, default=1, metavar="N",
                   help="fork-scoring worker processes (decisions and "
                        "trace are byte-identical at any value)")
    p.add_argument("--rollout-prune", type=int, default=0, metavar="K",
                   help="fork only the top-K candidates by learned "
                        "pre-score; 0 forks every candidate")
    p.add_argument("--trace-engine-events", action="store_true",
                   help="also record the per-callback engine.event firehose "
                        "(huge traces; gives 'replay diff' event-level "
                        "alignment)")
    p.add_argument("--profile", action="store_true",
                   help="sample the run's stacks and print its CPU time "
                        "by repro package after the run")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("train",
                       help="fit the learned policy's logistic scorer on a "
                            "JSONL trace corpus")
    p.add_argument("--traces", required=True, metavar="DIR",
                   help="directory of .jsonl run traces to fit against")
    p.add_argument("--synthesize", action="store_true",
                   help="first populate DIR with the smoke corpus "
                        "(greedy-lru + elephant-trap cells per seed)")
    p.add_argument("--jobs", type=int, default=48,
                   help="jobs per synthesized corpus run")
    p.add_argument("--seeds", type=int, nargs="+",
                   default=[20110926, 7, 11, 23],
                   help="workload seeds for --synthesize")
    p.add_argument("--epochs", type=int, default=400,
                   help="gradient-descent epochs")
    p.add_argument("--lr", type=float, default=0.5, help="learning rate")
    p.add_argument("--out", default="", metavar="PATH",
                   help="write the fitted model JSON here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("policy-bench",
                       help="run the learned-vs-baseline policy grid on "
                            "pinned seeds and check the rollout gate")
    p.add_argument("--jobs", type=int, default=32,
                   help="jobs per run (smoke tier)")
    p.add_argument("--full", action="store_true",
                   help="run the nightly tier's larger workloads instead")
    p.add_argument("--seeds", type=int, nargs="+", default=[],
                   help="override the pinned workload seeds")
    p.add_argument("--model", default="", metavar="PATH",
                   help="model file for the learned column")
    p.add_argument("--json", default="", metavar="PATH",
                   help="write the benchmark document here")
    p.add_argument("--svg", default="", metavar="PATH",
                   help="write the figure-grid SVG here")
    p.add_argument("--no-gate", action="store_true",
                   help="report but do not fail on a gate violation")
    p.add_argument("--verbose", action="store_true",
                   help="print each cell as it runs")
    p.set_defaults(func=cmd_policy_bench)

    p = sub.add_parser("replay", help="inspect, verify, and diff JSONL run traces")
    rsub = p.add_subparsers(dest="mode", required=True)
    r = rsub.add_parser("summary",
                        help="record counts and reconstructed headline stats")
    r.add_argument("trace")
    r.set_defaults(func=cmd_replay_summary)
    r = rsub.add_parser("verify",
                        help="rebuild state from records and check it against "
                             "the run.summary footer (exit 0 = exact match)")
    r.add_argument("trace")
    r.set_defaults(func=cmd_replay_verify)
    r = rsub.add_parser("diff",
                        help="bisect two traces to their first divergent record")
    r.add_argument("trace_a")
    r.add_argument("trace_b")
    r.add_argument("--context", type=int, default=10,
                   help="shared-prefix records to show before the divergence")
    r.set_defaults(func=cmd_replay_diff)
    r = rsub.add_parser("whatif",
                        help="reconstruct a traced run to time T, apply "
                             "patches, and resume it live")
    r.add_argument("trace")
    r.add_argument("--at", type=float, required=True, metavar="T",
                   help="simulation time to fork the run at")
    r.add_argument("--patch", action="append", default=[], metavar="SPEC",
                   help="counterfactual edit: kill:NODE[:DELAY], "
                        "policy:NAME (any --policy name but rollout), or "
                        "pin:BLOCK:NODE (repeatable; none = plain resume)")
    r.add_argument("--out", default="", metavar="PATH",
                   help="write the what-if run's trace to PATH and report "
                        "its first divergence from the original")
    r.add_argument("--workload", default="",
                   help="workload file, when the trace was not recorded "
                        "against synthesized wl1/wl2")
    r.add_argument("--jobs", type=int, default=200,
                   help="workload length (only with --workload)")
    r.add_argument("--seed", type=int, default=None,
                   help="workload synthesis seed (default: the traced "
                        "run's seed)")
    r.set_defaults(func=cmd_replay_whatif)

    p = sub.add_parser("checkpoint",
                       help="freeze a simulation mid-run and resume it later")
    csub = p.add_subparsers(dest="mode", required=True)
    c = csub.add_parser("save", help="run a cell up to --at and save its state")
    c.add_argument("--at", type=float, required=True, metavar="T",
                   help="simulation time to pause and snapshot at")
    c.add_argument("--out", required=True, metavar="PATH",
                   help="checkpoint file to write")
    _add_cell_flags(c, tuple(POLICY_NAMES))
    c.set_defaults(func=cmd_checkpoint_save)
    c = csub.add_parser("resume",
                        help="restore a checkpoint and run it to completion")
    c.add_argument("path", help="checkpoint file written by `checkpoint save`")
    c.add_argument("--trace", default="", metavar="PATH",
                   help="continue the checkpointed trace at PATH (requires "
                        "the source run to have traced)")
    c.add_argument("--patch", action="append", default=[], metavar="SPEC",
                   help="counterfactual edit applied before resuming "
                        "(kill:NODE[:DELAY], policy:NAME with any --policy "
                        "name but rollout, pin:BLOCK:NODE)")
    c.set_defaults(func=cmd_checkpoint_resume)

    p = sub.add_parser("synth", help="synthesize, inspect, and save a workload")
    p.add_argument("--workload", default="wl1")
    p.add_argument("--jobs", type=int, default=500)
    p.add_argument("--seed", type=int, default=20110926)
    p.add_argument("--out", default="", help="save to this JSON path")
    p.add_argument("--stats", action="store_true",
                   help="print descriptive statistics")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("figures", help="regenerate evaluation figures")
    p.add_argument("--jobs", type=int, default=200)
    p.add_argument("--only", default="", help="comma list: fig7,fig8,fig9,fig10,fig11")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="worker processes for the underlying sweep")
    p.add_argument("--cache-dir", default="", metavar="DIR",
                   help="reuse sweep results cached in DIR")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("render", help="render every figure to SVG files")
    p.add_argument("--jobs", type=int, default=200)
    p.add_argument("--seed", type=int, default=20110926)
    p.add_argument("--out", default="figures_svg")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser(
        "sweep",
        help="run an experiment grid across worker processes with a "
             "content-addressed result cache",
    )
    p.add_argument("--grid", default="smoke",
                   help="named grid: smoke, fig7, fig8, fig9, fig10, fig11, "
                        "ablations, or all")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes (1 = run in-process)")
    p.add_argument("--n-jobs", type=int, default=200, metavar="N",
                   help="workload length (jobs per trace) for every cell")
    p.add_argument("--seed", type=int, default=20110926)
    _add_scale_flags(p)
    _add_cache_flags(p)
    p.add_argument("--shard", default="", metavar="K/M",
                   help="run only the Kth of M round-robin shards (1-based); "
                        "the M shards partition the grid exactly")
    p.add_argument("--timeout", type=float, default=0.0, metavar="SECONDS",
                   help="kill any cell exceeding this wall time (workers "
                        "only; 0 = no limit)")
    p.add_argument("--check-invariants", action="store_true",
                   help="run every cell with cross-component invariant "
                        "checks enabled")
    p.add_argument("--trace-dir", default="", metavar="DIR",
                   help="write one JSONL trace per cell into DIR (disables "
                        "cache reads for those cells)")
    p.add_argument("--out", default="", metavar="PATH",
                   help="write all outcomes as a JSON document to PATH")
    service = p.add_argument_group(
        "distributed service",
        "run the grid as a coordinator + remote workers sharing one "
        "result cache (see docs/SWEEP_SERVICE.md)",
    )
    service.add_argument("--serve", default="", metavar="HOST:PORT",
                         help="serve this grid over HTTP as a coordinator "
                              "(port 0 = pick a free port) and exit when it "
                              "is done; SIGTERM drains it")
    service.add_argument("--worker", default="", metavar="HOST:PORT",
                         help="run as a worker pulling cells from a "
                              "coordinator (or a `repro serve`) until its "
                              "grid is done")
    service.add_argument("--status", default="", metavar="HOST:PORT",
                         help="print a coordinator's queue status and exit")
    service.add_argument("--json", action="store_true",
                         help="with --status: print the raw status document "
                              "(the queue block of the server's "
                              "/api/cluster) instead of the table")
    service.add_argument("--jobstore", default="", metavar="PATH",
                         help="journal the coordinator's grid to PATH; a "
                              "restart with the same journal and cache "
                              "re-runs only the unfinished cells")
    service.add_argument("--lease", type=float, default=60.0, metavar="SECONDS",
                         help="lease duration; an unrenewed lease this old "
                              "is reclaimed (default 60)")
    service.add_argument("--max-attempts", type=int, default=3, metavar="N",
                         help="quarantine a cell after N failed attempts "
                              "(default 3)")
    service.add_argument("--steal-after", type=float, default=0.0,
                         metavar="SECONDS",
                         help="idle workers steal a speculative duplicate "
                              "lease on stragglers older than this "
                              "(default: half the lease)")
    service.add_argument("--poll", type=float, default=0.5, metavar="SECONDS",
                         help="worker poll interval while the queue is empty")
    service.add_argument("--worker-id", default="", metavar="ID",
                         help="worker name in leases/status (default: "
                              "hostname-pid)")
    service.add_argument("--chaos", default="", metavar="SPEC",
                         help="worker fault injection for tests: "
                              "kill-after-lease:N, hang-after-lease:N, or "
                              "delay-complete:SECONDS")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "serve",
        help="serve experiment submissions over HTTP: REST API + SSE "
             "trace streaming (see docs/SERVER.md)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8750,
                   help="listen port (0 = pick a free port)")
    p.add_argument("--workers", type=int, default=2, metavar="N",
                   help="executor threads leasing cells from the job queue")
    p.add_argument("--isolation", choices=("process", "thread"),
                   default="process",
                   help="run cells in one reused process per executor "
                        "(crash/timeout isolation) or in-thread")
    _add_cache_flags(p)
    p.add_argument("--jobstore", default="", metavar="PATH",
                   help="journal submissions to PATH; an existing journal "
                        "restores its jobs on startup")
    p.add_argument("--max-jobs", type=int, default=16, metavar="N",
                   help="bound on active jobs; beyond it submissions get 503")
    p.add_argument("--max-cells", type=int, default=512, metavar="N",
                   help="largest grid accepted per job (413 beyond)")
    p.add_argument("--timeout", type=float, default=0.0, metavar="SECONDS",
                   help="kill any cell exceeding this wall time "
                        "(process isolation only; 0 = no limit)")
    p.add_argument("--lease", type=float, default=3600.0, metavar="SECONDS")
    p.add_argument("--max-attempts", type=int, default=2, metavar="N",
                   help="quarantine a cell after N failed attempts")
    p.add_argument("--rate", type=float, default=20.0, metavar="R",
                   help="per-client request rate (tokens/second)")
    p.add_argument("--burst", type=float, default=40.0, metavar="B",
                   help="per-client burst allowance (bucket size)")
    p.add_argument("--max-body-bytes", type=int, default=1_048_576)
    p.add_argument("--request-timeout", type=float, default=10.0,
                   metavar="SECONDS",
                   help="per-read timeout; stalled clients are disconnected")
    p.add_argument("--keepalive", type=float, default=15.0, metavar="SECONDS",
                   help="SSE keepalive comment interval")
    p.add_argument("--grace", type=float, default=30.0, metavar="SECONDS",
                   help="shutdown grace for in-flight cells on SIGTERM")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("report", help="run everything; write results.json + REPORT.md")
    p.add_argument("--jobs", type=int, default=200)
    p.add_argument("--seed", type=int, default=20110926)
    p.add_argument("--out", default="results")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="worker processes for the underlying sweep")
    p.add_argument("--cache-dir", default="", metavar="DIR",
                   help="reuse sweep results cached in DIR")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
