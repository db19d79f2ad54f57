"""Run one ``dualmargin`` command in this process and report its timings.

Launched by ``run.py`` once per command, from the root of a checkout:

    python3 benchmark/child.py --t0-ns N --report R.json --trace 0|1 \
        --run-id ID -- train --config C.ini --out DIR

The package is imported from the checkout's ``src/`` and nowhere else.
Public functions are wrapped at the module attribute each caller looks up,
so the program itself is not modified. Untraced, only the two phase
boundaries are wrapped (``trainer.train`` as run by the experiment, and the
verification loop); traced, every site in ``TRACE_SITES`` is.

A site that no longer exists raises ``MissingSite`` and the command fails:
a renamed or moved function breaks the benchmark instead of reading zero.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import resource
import sys
import time

# (span name, module the caller resolves the name in, attribute path)
PHASE_SITES = (
    ("trainer.train", "dualmargin.experiment", "train"),
    ("cli.verification_rows", "dualmargin.cli", "verification_rows"),
)
TRACE_SITES = PHASE_SITES + (
    ("experiment.build_dataset", "dualmargin.experiment", "build_dataset"),
    ("synthdata.generate", "dualmargin.experiment", "generate"),
    ("synthdata.split", "dualmargin.experiment", "split"),
    ("synthdata.open_set_partition", "dualmargin.experiment", "open_set_partition"),
    ("experiment.evaluate_state", "dualmargin.experiment", "evaluate_state"),
    ("trainer.save_checkpoint", "dualmargin.cli", "save_checkpoint"),
    ("trainer._validate", "dualmargin.trainer", "_validate"),
    ("trainer.AdamW.step", "dualmargin.trainer", "AdamW.step"),
    ("sampler.plan_batch", "dualmargin.trainer", "plan_batch"),
    ("sampler.perturb", "dualmargin.trainer", "perturb"),
    ("sampler.lowest_norm_indices", "dualmargin.trainer", "lowest_norm_indices"),
    ("encoder.forward", "dualmargin.encoder", "forward"),
    ("encoder.backward", "dualmargin.encoder", "backward"),
    ("loss.margin_loss", "dualmargin.trainer", "margin_loss"),
    ("loss.margin_loss", "dualmargin.cli", "margin_loss"),
    ("loss.margin_loss_forward", "dualmargin.loss", "margin_loss_forward"),
    ("loss.margin_loss_forward", "dualmargin.cli", "margin_loss_forward"),
    ("verify.central_difference", "dualmargin.cli", "central_difference"),
    ("verify.alignment_probe", "dualmargin.cli", "alignment_probe"),
    ("verify.bound_probe", "dualmargin.cli", "bound_probe"),
)


class MissingSite(RuntimeError):
    """A wrapped public name no longer exists where its caller looks it up."""


def _info_train(args, result):
    return {"steps": result[0].step}


def _info_plan(args, result):
    return {"fired": int(result.oversample_fired)}


def _info_forward(args, result):
    params = args[0]
    return {"rows": int(result[0].shape[0]), "dims": params.dims}


def _info_backward(args, result):
    params = args[0]
    return {"rows": int(args[2].shape[0]), "dims": params.dims}


def _info_loss(args, result):
    emb, protos = args[0], args[2]
    return {"rows": int(emb.shape[0]), "classes": int(protos.shape[0]),
            "dim": int(emb.shape[1])}


def _info_adamw(args, result):
    return {"params": int(sum(p.size for p in args[1].values()))}


# What each span records besides its times: the counts that FLOPs, bytes
# and retention are computed from. Taken after the call returns, outside
# the span's own interval.
INFO = {
    "trainer.train": _info_train,
    "sampler.plan_batch": _info_plan,
    "encoder.forward": _info_forward,
    "encoder.backward": _info_backward,
    "loss.margin_loss": _info_loss,
    "loss.margin_loss_forward": _info_loss,
    "trainer.AdamW.step": _info_adamw,
}


class Tracer:
    """Spans kept in memory as [name, start_ns, end_ns, parent, run_id, info]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        info = INFO.get(name)
        spans, stack, run_id = self.spans, self._stack, self.run_id
        clock = time.monotonic_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, run_id, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[5] = info(args, result)
            return result

        return wrapper

    def install(self, sites) -> None:
        """Replace every site with a wrapper; all names are checked first."""
        resolved = []
        for name, module_name, attr_path in sites:
            owner = importlib.import_module(module_name)
            *parents, attr = attr_path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
                if owner is None:
                    break
            if owner is None or not callable(getattr(owner, attr, None)):
                raise MissingSite(f"{module_name}.{attr_path} no longer exists; "
                                  f"span {name!r} cannot be recorded")
            resolved.append((name, owner, attr))
        for name, owner, attr in resolved:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run_id, info in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "run_id": run_id,
                                     "info": info}) + "\n")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--t0-ns", type=int, required=True,
                        help="CLOCK_MONOTONIC reading taken just before spawn")
    parser.add_argument("--report", required=True)
    parser.add_argument("--spans", default=None, help="write spans here (JSONL)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import dualmargin.cli

    if not os.path.abspath(dualmargin.cli.__file__).startswith(src + os.sep):
        raise MissingSite(f"dualmargin imported from {dualmargin.cli.__file__}, not {src}")

    tracer = Tracer(args.run_id)
    tracer.install(TRACE_SITES if args.trace else PHASE_SITES)
    code = dualmargin.cli.main(command)
    end_ns = time.monotonic_ns()

    phase_names = {name for name, _, _ in PHASE_SITES}
    phase = next((s for s in tracer.spans if s[0] in phase_names), None)
    report = {
        "exit_code": code,
        "t0_ns": args.t0_ns,
        "end_ns": end_ns,
        "phase": None if phase is None else
        {"name": phase[0], "start_ns": phase[1], "end_ns": phase[2], "info": phase[5]},
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if args.spans:
        tracer.write(args.spans)
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
