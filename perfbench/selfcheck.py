"""Show that the benchmark's checks reject wrong outputs and a broken trace.

    python3 perfbench/selfcheck.py

Runs a handful of operations, some deliberately wrong, and exits 0 only if
every wrong one is rejected and the right ones pass:

- the perturbed checkpoint's output passes against its golden;
- the identity checkpoint's output (what the model computes at init) fails;
- a checkpoint one gain-head bias off by 0.01 fails the golden only;
- a training run with another learning rate fails the loss golden;
- a traced function that is missing, or never called, stops the run.
"""

import contextlib
import os
import shutil
import sys

from run import PINNED, ROOT


def main() -> int:
    for var in PINNED:  # before numpy is imported
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import tracing
    import workloads as W

    work = ROOT / ".perfbench_work" / "selfcheck"
    work.mkdir(parents=True, exist_ok=True)
    outcomes = []

    def expect(label, problems, should_fail):
        ok = bool(problems) == should_fail
        outcomes.append(ok)
        verdict = "rejected" if problems else "accepted"
        print(f"{'ok ' if ok else 'BAD'} {label}: {verdict} {problems[:2]}")

    try:
        bench = W.make_bench("enhance_png_paeth_600x400", [0], work)
        golden = W.load_golden(bench)
        bench.setup_once()
        perturbed = bench.params

        def enhance_problems(params):
            bench.params = params
            op = bench.run_op(0, 0, contextlib.nullcontext)
            bench.check(op, golden)
            return op.problems

        expect("perturbed checkpoint", enhance_problems(perturbed), should_fail=False)
        expect("identity checkpoint", enhance_problems(W.model.iat_init()), should_fail=True)
        bench.setup_once()
        bias = dict(W.model.named_parameters(bench.params))["local.gain_head.bias"]
        bias.data = bias.data + np.float32(0.01)
        expect("gain bias off by 0.01", enhance_problems(bench.params), should_fail=True)

        train = W.make_bench("train_64_b8", [0], work)
        train_golden = W.load_golden(train)
        op = train.run_op(0, 0, contextlib.nullcontext)
        train.check(op, train_golden)
        expect("training run", op.problems, should_fail=False)
        config = W.training.TrainConfig
        W.training.TrainConfig = lambda **kw: config(**{**kw, "lr0": 1.1e-3})
        try:
            op = train.run_op(1, 0, contextlib.nullcontext)
        finally:
            W.training.TrainConfig = config
        train.check(op, train_golden)
        expect("training run at another learning rate", op.problems, should_fail=True)

        def trace_problems(action):
            try:
                action()
            except tracing.TraceError as e:
                return [str(e)]
            return []

        tracing.TARGETS["model_local.forward"].append("iat.model:renamed_local_branch")
        try:
            expect("missing traced function", trace_problems(lambda: tracing.Tracer().installed()), should_fail=True)
        finally:
            tracing.TARGETS["model_local.forward"].pop()

        def bypassed_layer():
            tracer = tracing.Tracer()
            bench.params = perturbed
            with tracer.installed(), tracing.patched([(W.model, "local_branch_forward", W.model.local_branch_forward.__wrapped__)]):
                traced = [bench.run_op(1, 0, lambda: tracer.span("op"))]
            W.per_layer_metrics(bench, traced, traced, tracer.spans, [["model.load_checkpoint", 0.0, 0.0, -1, None]])

        expect("layer never called", trace_problems(bypassed_layer), should_fail=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{sum(outcomes)}/{len(outcomes)} as expected")
    return 0 if all(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
