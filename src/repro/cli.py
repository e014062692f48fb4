"""Command-line interface: ``python -m repro.cli graph.txt -p 16``.

Reads a graph (edge-list, METIS, or ``.npz``), partitions it with
XtraPuLP, prints the quality report, and optionally writes the part
assignment (one part id per line, vertex order).

Fault tolerance: ``--checkpoint-dir`` snapshots the run at phase
boundaries (``--checkpoint-every`` picks the granularity) and ``--resume``
restarts a killed run from its last committed epoch, bit-identically.
``--watchdog-timeout`` bounds how long any rank may stall before it is
declared hung and killed; ``--integrity crc`` verifies a crc32 of every
collective payload at receive.  Exit codes distinguish the outcomes (see
``--help`` epilog): 0 success, 1 run failed, 2 usage/input error, 3 run
failed but a committed checkpoint is available for ``--resume``, 4 success
after resuming, 5 a rank hung and was killed by the watchdog with a
committed checkpoint available for ``--resume``.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

import numpy as np

from repro.core import PulpParams, xtrapulp
from repro.graph import io
from repro.simmpi import available_backends

#: Exit codes (documented in ``--help``): distinct values let wrapper
#: scripts drive the retry loop (re-exec with ``--resume`` on 3 or 5;
#: 5 additionally tells the wrapper the failure was a detected hang, so
#: it can e.g. quarantine the node before relaunching).
EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_FAILED_CKPT = 3
EXIT_RESUMED = 4
EXIT_HUNG = 5


def _load_graph(path: str):
    if path.endswith(".npz"):
        return io.load_npz(path)
    if path.endswith((".metis", ".graph", ".chaco")):
        return io.read_metis(path)
    return io.read_edge_list(path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="XtraPuLP graph partitioner (paper reproduction)",
        epilog=(
            "exit codes: 0 partitioned successfully; 1 run failed; "
            "2 usage or input error; 3 run failed but a committed "
            "checkpoint epoch is available (re-run with --resume); "
            "4 partitioned successfully after resuming from a checkpoint; "
            "5 a rank hung, was killed by the watchdog, and a committed "
            "checkpoint epoch is available (re-run with --resume)"
        ),
    )
    parser.add_argument("graph", help="edge list (.txt), METIS (.metis/.graph), or .npz")
    parser.add_argument("-p", "--parts", type=int, default=16,
                        help="number of parts (default 16)")
    parser.add_argument("-r", "--ranks", type=int, default=4,
                        help="simulated MPI ranks (default 4)")
    parser.add_argument("-o", "--output",
                        help="write part ids here (one per line)")
    parser.add_argument("--init", choices=["hybrid", "random", "block"],
                        default="hybrid", help="initialization strategy")
    parser.add_argument("--vert-imbalance", type=float, default=0.10)
    parser.add_argument("--edge-imbalance", type=float, default=0.10)
    parser.add_argument("--single-objective", action="store_true",
                        help="skip the edge balance/refinement stage")
    parser.add_argument("--seed", type=int, default=42)
    ml = parser.add_argument_group("multilevel")
    ml.add_argument("--multilevel", action="store_true",
                    help="run the multilevel V-cycle: coarsen the graph, "
                         "partition the coarsest level with the flat "
                         "machinery, then uncoarsen with weighted refine "
                         "sweeps per level (lower cut, ~2x modeled time)")
    ml.add_argument("--ml-levels", type=int, default=8, metavar="N",
                    help="maximum hierarchy depth including the input "
                         "graph (default 8; coarsening also stops at the "
                         "size target or on stagnation)")
    ml.add_argument("--ml-coarsen", choices=["lp", "hem"], default="lp",
                    help="coarsening clustering: 'lp' distributed "
                         "size-constrained label propagation (default) or "
                         "'hem' per-rank heavy-edge matching")
    parser.add_argument("--distribution", choices=["random", "block"],
                        default="random")
    parser.add_argument("--backend", choices=available_backends(),
                        default=None,
                        help="execution backend for the simulated ranks "
                             "(default: $REPRO_BACKEND or 'threads'); all "
                             "backends produce identical partitions")
    parser.add_argument("--comm", metavar="STRATEGY[:R]",
                        default=None,
                        help="communicator strategy for topology-aware "
                             "metering: 'flat' (one rank = one node) or "
                             "'hierarchical[:R]' "
                             "(hierarchical exchange, R ranks/node, default "
                             "8, e.g. hierarchical:16). Default: 'flat'. "
                             "Strategy "
                             "choice never changes the partition, only the "
                             "modeled tier traffic")
    ft = parser.add_argument_group("fault tolerance")
    ft.add_argument("--checkpoint-dir", metavar="DIR",
                    help="checkpoint the run into DIR at phase boundaries; "
                         "each epoch is committed atomically and a crashed "
                         "run exits 3 when one is available to --resume")
    ft.add_argument("--checkpoint-every", choices=["outer", "phase"],
                    default="outer",
                    help="checkpoint granularity: after each outer "
                         "iteration (default) or after every phase")
    ft.add_argument("--resume", metavar="PATH",
                    help="resume from a run directory (latest committed "
                         "epoch) or a specific epoch_NNNN directory; the "
                         "resumed run is bit-identical to an uninterrupted "
                         "one and exits 4 on success")
    ft.add_argument("--inject-fault",
                    metavar="RANK:PHASE:STEP[:ACTION[:SECONDS]]",
                    help="plant a deterministic fault (testing): the given "
                         "rank fails at the given collective index of the "
                         "given phase; ACTION is raise (default), die "
                         "(hard process kill, procs backend), delay "
                         "(sleep SECONDS; past --watchdog-timeout this "
                         "models an indefinite hang), or corrupt (flip "
                         "one payload byte in flight)")
    ft.add_argument("--watchdog-timeout", type=float, default=None,
                    metavar="SECONDS",
                    help="declare a rank hung after SECONDS without "
                         "progress and kill it (procs backend) or fail it "
                         "in place (in-process backends); 0 or unset "
                         "disables the watchdog; "
                         "with --checkpoint-dir a detected hang exits 5 "
                         "and is resumable like a crash")
    ft.add_argument("--integrity", choices=["crc", "off"], default=None,
                    help="payload integrity: 'crc' checksums every "
                         "collective payload at send and verifies at "
                         "receive (detected corruption fails the run "
                         "typed, resumable from checkpoint); default "
                         "$REPRO_INTEGRITY or 'off'; identical partitions "
                         "either way")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        graph = _load_graph(args.graph)
    except Exception as exc:
        print(f"error reading {args.graph}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"loaded {graph}")
    if args.parts < 1 or args.parts > graph.n:
        print(f"error: cannot cut {graph.n} vertices into {args.parts} parts",
              file=sys.stderr)
        return EXIT_USAGE
    if args.ranks < 1:
        print(f"error: --ranks must be >= 1, got {args.ranks}",
              file=sys.stderr)
        return EXIT_USAGE
    if args.watchdog_timeout is not None and not (
            0 <= args.watchdog_timeout < math.inf):
        print("error: --watchdog-timeout must be finite and >= 0, got "
              f"{args.watchdog_timeout}", file=sys.stderr)
        return EXIT_USAGE
    try:
        params = PulpParams(
            init_strategy=args.init,
            vert_imbalance=args.vert_imbalance,
            edge_imbalance=args.edge_imbalance,
            single_objective=args.single_objective,
            seed=args.seed,
            comm=args.comm,
            multilevel=args.multilevel,
            ml_levels=args.ml_levels,
            ml_coarsen=args.ml_coarsen,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    checkpoint = None
    if args.checkpoint_dir:
        from repro.ft import CkptPolicy

        checkpoint = CkptPolicy(
            dir=args.checkpoint_dir, every=args.checkpoint_every
        )
    fault_plan = None
    if args.inject_fault:
        from repro.ft import FaultPlan, parse_fault_spec

        try:
            fault_plan = FaultPlan([parse_fault_spec(args.inject_fault)])
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        result = xtrapulp(
            graph, args.parts, nprocs=args.ranks, params=params,
            distribution=args.distribution, backend=args.backend,
            checkpoint=checkpoint, resume=args.resume,
            fault_plan=fault_plan, watchdog=args.watchdog_timeout,
            integrity=args.integrity,
        )
    except Exception as exc:
        from repro.ft import CheckpointError, classify_failure
        from repro.simmpi.errors import RankFailure

        if isinstance(exc, CheckpointError):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if isinstance(exc, RankFailure):
            print(f"error: {exc}", file=sys.stderr)
            if exc.run_dir is not None and exc.epoch is not None:
                print(f"resume with: --resume {exc.run_dir}", file=sys.stderr)
                if classify_failure(exc) == "hang":
                    return EXIT_HUNG
                return EXIT_FAILED_CKPT
            return EXIT_FAILED
        print(f"error: partitioning failed: {exc}", file=sys.stderr)
        return EXIT_FAILED
    q = result.quality()
    print(q.formatted())
    if result.multilevel is not None:
        info = result.multilevel
        sizes = " > ".join(str(n) for n, _ in info.level_sizes)
        print(f"multilevel: {info.levels} levels ({info.coarsen_mode} "
              f"coarsening), vertices {sizes}")
    print(f"modeled parallel time: {result.modeled_seconds * 1e3:.1f} ms on "
          f"{args.ranks} ranks ({result.backend} backend, "
          f"{result.comm} comm); "
          f"wall {result.wall_seconds:.2f} s; "
          f"{result.stats.total_bytes / 2**20:.2f} MiB communicated")
    if result.stats.tiered:
        intra = result.stats.modeled_intra_bytes()
        inter = result.stats.modeled_inter_bytes()
        print(f"two-level wire model: {intra / 2**20:.2f} MiB "
              f"intra-node, {inter / 2**20:.2f} MiB inter-node")
    if args.output:
        np.savetxt(args.output, result.parts, fmt="%d")
        print(f"wrote {args.output}")
    if args.resume:
        print(f"resumed from checkpoint: {args.resume}")
        return EXIT_RESUMED
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
