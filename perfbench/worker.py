"""One benchmark process: run passes of a workload and print them as JSON.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``::

    python3 perfbench/worker.py --workload ssd-chaos --seed 7 --budget 5 \\
        [--max-passes N] [--spans-out PATH]

It builds the inputs from the seed, then runs passes until ``--budget``
seconds have gone (at least one pass). With ``--spans-out`` it is a traced
process: it wraps the layer boundaries first and writes its spans there at
the end. Without it, the tracing module is never imported. The last line of
standard output is one JSON object with every pass and the peak RSS.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import time

from cases import CASES


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--max-passes", type=int, default=0, help="0 = no limit")
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    case = CASES[args.workload]
    inputs = case.make_inputs(args.seed)
    tracer = None
    unavailable = []
    if args.spans_out:
        import spans

        tracer = spans.Tracer()
        unavailable = tracer.install()

    passes = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.begin_pass()
        result = dataclasses.asdict(case.run_pass(inputs))
        if tracer is not None:
            result["layers"] = spans.layer_metrics(args.workload, tracer.end_pass())
        passes.append(result)
        if args.max_passes and len(passes) >= args.max_passes:
            break
        if time.perf_counter() - start >= args.budget:
            break

    if tracer is not None:
        tracer.dump(args.spans_out)
    print(json.dumps({
        "traced": tracer is not None,
        "unavailable": unavailable,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "passes": passes,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
