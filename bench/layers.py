"""Per-layer metrics of a traced run, derived from its spans.

Calls, self time and counts come from the spans the tracer recorded over
set-up and one pass of work.  ``ARROWS`` records, for each layer, which
end-to-end metric on which workload its numbers should move; a change that
claims a layer gain is expected to show it there.
"""

from __future__ import annotations

import numpy as np

from .probe import KINDS
from .tracer import Spans

ARROWS = {
    "kernels": "wall_s and kind_s.network on ol-stream (n = 1) and pbl-refit (n = 64), "
               "and on study-cli (mtl, lr, mm at batch sizes up to the merged set)",
    "models": "dispatch overhead: wall_s on ol-stream (11 dispatches per observation); "
              "nearly nothing on pbl-refit",
    "optim": "fit_map: wall_s and kind_s.network on pbl-refit and study-cli; "
             "optimizer_step and prior_loss_and_grad: kind_s.network on ol-stream",
    "learning": "run_ol: wall_s on ol-stream; run_pbl: wall_s on pbl-refit; "
                "log I/O: wall_s on study-cli",
    "drift": "wall_s on study-cli; a drift-only speed-up should move no "
             "end-to-end metric",
    "core": "wall_s on study-cli",
    "synth": "setup_s on ol-stream and pbl-refit; wall_s on study-cli",
    "metrics": "wall_s and kind_s.network on study-cli",
    "cli": "wall_s on study-cli",
    "probe": "the per-call kernel cost behind wall_s; the n = 1 against n = 64/1024 "
             "crossover for a batch rewrite",
    "trace": "none: the cost and coverage of tracing itself",
}

KERNEL_FNS = tuple(f"{k}_{op}" for k in KINDS for op in ("predict", "loss_grad"))

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Spans, passes: list[tuple[float, float]], clamps: int,
                  span_cost: float) -> dict[str, float]:
    """Every non-probe per-layer metric from the spans of one traced run.

    ``passes`` holds the (start, end) clock readings of each timed pass,
    ``clamps`` the change in ``mm_clamp_count()`` and ``span_cost`` the
    seconds one traced call adds.
    """
    self_t = spans.self_time()
    dur = spans.duration

    def sel(name: str) -> np.ndarray:
        return spans.name == spans.ix(name)

    def calls(name: str) -> float:
        return float(np.sum(sel(name)))

    def self_s(name: str) -> float:
        return float(np.sum(self_t[sel(name)]))

    def incl_s(name: str) -> float:
        return float(np.sum(dur[sel(name)]))

    def size(name: str) -> float:
        return float(np.sum(spans.size[sel(name)]))

    def extra(name: str, i: int) -> float:
        ix = spans.ix(name)
        return float(sum(v[i] for k, v in spans.extra.items() if spans.name[k] == ix))

    out: dict[str, float] = {}
    for fn in KERNEL_FNS:
        name = f"kernels.{fn}"
        out.update({f"{name}.calls": calls(name), f"{name}.self_s": self_s(name),
                    f"{name}.rows": size(name)})
    out.update({"kernels.adam_step.calls": calls("kernels.adam_step"),
                "kernels.adam_step.self_s": self_s("kernels.adam_step"),
                "kernels.adam_step.params": size("kernels.adam_step")})
    for fn in ("plan_predict", "plan_loss_grad"):
        out[f"models.{fn}.calls"] = calls(f"models.{fn}")
        out[f"models.{fn}.self_s"] = self_s(f"models.{fn}")
    out["models.build_plan.calls"] = calls("models.build_plan")
    out["models.scale_inputs.self_s"] = self_s("models.scale_inputs")
    out["models.mm_clamps"] = float(clamps)

    owner = spans.owner(("optim.fit_map", "learning.run_ol", "learning.run_pbl"))
    owner_name = np.where(owner >= 0, spans.name[np.maximum(owner, 0)], -1)
    steps_in_fit = sel("optim.optimizer_step") & (owner_name == spans.ix("optim.fit_map"))
    out.update({"optim.fit_map.calls": calls("optim.fit_map"),
                "optim.fit_map.self_s": self_s("optim.fit_map"),
                "optim.fit_map.steps": float(np.sum(steps_in_fit))})
    for fn in ("optimizer_step", "prior_loss_and_grad", "grid_search"):
        out[f"optim.{fn}.calls"] = calls(f"optim.{fn}")
        out[f"optim.{fn}.self_s"] = self_s(f"optim.{fn}")

    obs = size("learning.run_ol")
    out.update({"learning.run_ol.calls": calls("learning.run_ol"),
                "learning.run_ol.self_s": self_s("learning.run_ol"),
                "learning.run_ol.obs": obs,
                "learning.run_ol.updates": extra("learning.run_ol", 0),
                "learning.run_ol.skipped": extra("learning.run_ol", 1),
                "learning.run_ol.us_per_obs": _ratio(incl_s("learning.run_ol") * 1e6, obs)})
    pbl = spans.ix("learning.run_pbl")
    refits = extra("learning.run_pbl", 0)
    refit_s = float(np.sum(dur[sel("optim.fit_map") & (owner_name == pbl)]))
    out.update({"learning.run_pbl.calls": calls("learning.run_pbl"),
                "learning.run_pbl.self_s": self_s("learning.run_pbl"),
                "learning.run_pbl.refits": refits,
                "learning.run_pbl.failed": extra("learning.run_pbl", 1),
                "learning.run_pbl.predict_calls":
                    float(np.sum(sel("models.plan_predict") & (owner_name == pbl))),
                "learning.run_pbl.s_per_refit": _ratio(refit_s, refits),
                "learning.write_log.self_s": self_s("learning.write_log"),
                "learning.write_log.rows": size("learning.write_log"),
                "learning.read_log.self_s": self_s("learning.read_log")})

    scan = "drift.estimate_update_frequency"
    points = size(scan)
    out.update({f"{scan}.calls": calls(scan), f"{scan}.self_s": self_s(scan),
                "drift.points": points,
                "drift.us_per_point": _ratio(incl_s(scan) * 1e6, points),
                "drift.f_quantile.calls": calls("drift.f_quantile")})

    out.update({"core.ingest_csv.calls": calls("core.ingest_csv"),
                "core.ingest_csv.self_s": self_s("core.ingest_csv"),
                "core.ingest_csv.rows": size("core.ingest_csv"),
                "core.write_csv.self_s": self_s("core.write_csv"),
                "core.fit_scaler.calls": calls("core.fit_scaler"),
                "core.fit_scaler.self_s": self_s("core.fit_scaler"),
                "core.chronological_split.self_s": self_s("core.chronological_split"),
                "synth.generate_stream.calls": calls("synth.generate_stream"),
                "synth.generate_stream.self_s": self_s("synth.generate_stream"),
                "metrics.summarize.self_s": self_s("metrics.summarize"),
                "metrics.metric_report.calls": calls("metrics.metric_report"),
                "metrics.metric_report.self_s": self_s("metrics.metric_report"),
                "metrics.write_summary_csv.self_s": self_s("metrics.write_summary_csv"),
                "metrics.write_rolling_csv.self_s": self_s("metrics.write_rolling_csv")})

    cli_names = ["cli.main"]
    for cmd in ("simulate", "tune", "run", "detect", "report"):
        out[f"cli.{cmd}.s"] = incl_s(f"cli.cmd_{cmd}")
        cli_names.append(f"cli.cmd_{cmd}")
    out["cli.self_s"] = sum(self_s(n) for n in cli_names)

    in_pass = np.zeros(len(spans), dtype=bool)
    for t0, t1 in passes:
        in_pass |= (spans.start >= t0) & (spans.end <= t1)
    wall = sum(t1 - t0 for t0, t1 in passes)
    roots = in_pass & (spans.parent < 0)
    out["trace.overhead_s"] = float(np.sum(in_pass)) * span_cost
    out["trace.top_level_share"] = _ratio(float(np.sum(dur[roots])), wall)
    out["trace.wall_s"] = wall
    return out
