"""High-level experiment helpers wrapping the full DES framework.

These are the entry points examples and integration benchmarks use: run an
application under ACR with Poisson faults, or measure forward-path overhead
in a failure-free run, without hand-assembling the machinery.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

from repro.core.config import ACRConfig
from repro.core.framework import ACR, RunReport
from repro.faults.injector import InjectionPlan, poisson_plan
from repro.model.schemes import ResilienceScheme
from repro.network.mapping import MappingScheme
from repro.util.rng import RngStream


@dataclass
class ExperimentResult:
    report: RunReport
    acr: ACR

    @property
    def ok(self) -> bool:
        return self.report.completed and self.report.aborted_reason is None


def run_acr_experiment(
    app: str = "jacobi3d-charm",
    *,
    nodes_per_replica: int = 4,
    scheme: ResilienceScheme | str = ResilienceScheme.STRONG,
    mapping: MappingScheme | str = MappingScheme.DEFAULT,
    use_checksum: bool = False,
    total_iterations: int = 200,
    checkpoint_interval: float = 5.0,
    hard_mtbf: float | None = None,
    sdc_mtbf: float | None = None,
    horizon: float = 10_000.0,
    seed: int = 0,
    tasks_per_node: int = 1,
    app_scale: float = 1e-4,
    spare_nodes: int = 64,
    injection_plan: InjectionPlan | None = None,
    storage_tiers: tuple = (),
    tracer=None,
    metrics=None,
    series=None,
    app_kwargs: dict | None = None,
) -> ExperimentResult:
    """Run one application to ``total_iterations`` under injected faults.

    ``hard_mtbf`` / ``sdc_mtbf`` draw Poisson fault schedules over the whole
    horizon; pass an explicit ``injection_plan`` for deterministic scenarios.
    ``tracer`` / ``metrics`` / ``series`` opt the run into telemetry (a
    :class:`~repro.obs.tracer.SpanTracer` /
    :class:`~repro.obs.metrics.MetricsRegistry` /
    :class:`~repro.obs.series.TimeSeriesRecorder`); by default all are
    no-ops.  Note ``series`` arms a periodic sampling timer, so a sampled
    run is not bit-identical to an un-sampled one (the other two are).
    """
    if injection_plan is None:
        injection_plan = poisson_plan(
            hard_mtbf=hard_mtbf,
            sdc_mtbf=sdc_mtbf,
            horizon=horizon,
            nodes_per_replica=nodes_per_replica,
            rng=RngStream(seed, "experiment/faults"),
        )
    config = ACRConfig(
        scheme=ResilienceScheme(scheme),
        mapping=MappingScheme(mapping),
        use_checksum=use_checksum,
        checkpoint_interval=checkpoint_interval,
        total_iterations=total_iterations,
        tasks_per_node=tasks_per_node,
        app_scale=app_scale,
        seed=seed,
        spare_nodes=spare_nodes,
        storage_tiers=storage_tiers,
    )
    acr = ACR(app, nodes_per_replica=nodes_per_replica, config=config,
              injection_plan=injection_plan, tracer=tracer, metrics=metrics,
              series=series, app_kwargs=app_kwargs)
    report = acr.run(until=horizon, max_events=100_000_000)
    return ExperimentResult(report=report, acr=acr)


def run_experiment_report(app: str, seed: int,
                          experiment_kwargs: dict) -> RunReport:
    """One campaign seed → its :class:`RunReport`.

    Module-level (hence picklable) worker for the parallel campaign runner in
    :mod:`repro.harness.campaign`; drops the ``ACR`` object so only the
    report crosses the process boundary.  Results are deterministic per seed
    regardless of which process runs them: every random draw flows from
    SHA-256-derived :class:`~repro.util.rng.RngStream` seeds.

    ``collect_metrics=True`` in ``experiment_kwargs`` gives the run its own
    :class:`~repro.obs.metrics.MetricsRegistry`; its snapshot travels back on
    ``report.metrics_snapshot`` (a plain dict) and the campaign merges the
    per-worker snapshots.  ``collect_series=<interval>`` (simulated seconds)
    additionally arms streaming time-series sampling; the series travels back
    on ``report.series`` and campaigns merge the per-cell series with
    :func:`~repro.obs.series.merge_series`.
    """
    kwargs = dict(experiment_kwargs)
    if kwargs.pop("collect_metrics", False):
        from repro.obs.metrics import MetricsRegistry

        kwargs["metrics"] = MetricsRegistry()
    series_interval = kwargs.pop("collect_series", None)
    if series_interval:
        from repro.obs.series import TimeSeriesRecorder

        kwargs["series"] = TimeSeriesRecorder(interval=float(series_interval))
    return run_acr_experiment(app, seed=seed, **kwargs).report


def _config_keys() -> frozenset[str]:
    """``run_acr_experiment``'s keyword parameters a JSON value can set (not
    object-valued ones such as ``tracer``, nor ``seed``, which each cell
    supplies), plus the two switches :func:`run_experiment_report` takes."""
    keys = {"collect_metrics", "collect_series"}
    for name, param in inspect.signature(run_acr_experiment).parameters.items():
        types = {t.strip() for t in str(param.annotation).split("|")}
        if (param.kind is param.KEYWORD_ONLY and name != "seed"
                and types & {"int", "float", "str", "bool", "dict"}):
            keys.add(name)
    return frozenset(keys)


#: What a submitted cell ``config`` may carry (the campaign server checks).
EXPERIMENT_CONFIG_KEYS = _config_keys()


def forward_path_overhead(
    app: str = "jacobi3d-charm",
    *,
    nodes_per_replica: int = 4,
    checkpoints: int = 5,
    checkpoint_interval: float = 4.0,
    mapping: MappingScheme | str = MappingScheme.DEFAULT,
    use_checksum: bool = False,
    seed: int = 0,
) -> tuple[float, RunReport]:
    """Measured failure-free overhead fraction over ~``checkpoints`` periods."""
    horizon = checkpoint_interval * (checkpoints + 0.5)
    config = ACRConfig(
        checkpoint_interval=checkpoint_interval,
        mapping=MappingScheme(mapping),
        use_checksum=use_checksum,
        tasks_per_node=1,
        app_scale=1e-4,
        seed=seed,
    )
    acr = ACR(app, nodes_per_replica=nodes_per_replica, config=config)
    report = acr.run(until=horizon, max_events=100_000_000)
    return report.overhead_fraction, report
