"""Parameters of the Section-5 performance/reliability model (Table 1).

The model describes a replicated machine: ``S`` sockets per replica, per-socket
hard-error MTBF ``M_H`` (the paper uses 50 years, the Jaguar-equivalent), and a
per-socket SDC rate in FIT.  System-level rates scale linearly with the number
of sockets exposed to each failure type:

* hard errors can strike any socket in the job (both replicas), so the system
  hard-error MTBF divides by ``2 S``;
* a *detected* SDC anywhere in either replica rolls both back, so the detected
  SDC MTBF also divides by ``2 S``;
* an *undetected* SDC only matters in the healthy replica (the crashed
  replica's state is discarded on recovery), dividing by ``S``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.util.errors import ConfigurationError
from repro.util.units import HOURS, YEARS, fit_to_mtbf_seconds


@dataclass(frozen=True)
class ModelParams:
    """Inputs of the analytical model (paper Table 1), in seconds."""

    #: W — total useful computation time of the job.
    work: float
    #: δ — time of one checkpoint (both replicas checkpoint simultaneously).
    delta: float
    #: S — number of sockets per replica.
    sockets_per_replica: int
    #: Per-socket hard-error MTBF (paper: 50 years).
    hard_mtbf_socket: float = 50 * YEARS
    #: Per-socket SDC rate in FIT (paper: 100 or 10,000).
    sdc_fit_socket: float = 100.0
    #: R_H — hard-error restart time.
    restart_hard: float = 30.0
    #: R_S — SDC restart time (local rollback, no transfer: cheaper).
    restart_sdc: float = 10.0
    #: Whether the job runs replicated (ACR) or plain (Fig. 1a/1b baselines).
    replicated: bool = True

    def __post_init__(self) -> None:
        if self.work <= 0:
            raise ConfigurationError(f"work must be positive, got {self.work}")
        if self.delta < 0:
            raise ConfigurationError(f"delta must be non-negative, got {self.delta}")
        if self.sockets_per_replica < 1:
            raise ConfigurationError("sockets_per_replica must be >= 1")
        if self.hard_mtbf_socket <= 0:
            raise ConfigurationError("hard_mtbf_socket must be positive")
        if self.sdc_fit_socket < 0:
            raise ConfigurationError("sdc_fit_socket must be non-negative")

    # -- derived system-level rates ---------------------------------------------
    @property
    def total_sockets(self) -> int:
        return (2 if self.replicated else 1) * self.sockets_per_replica

    @property
    def hard_mtbf_system(self) -> float:
        """M_H at system level: any socket of the job can fail-stop."""
        return self.hard_mtbf_socket / self.total_sockets

    @property
    def sdc_mtbf_socket(self) -> float:
        return fit_to_mtbf_seconds(self.sdc_fit_socket)

    @property
    def sdc_mtbf_system(self) -> float:
        """M_S for *detected* SDCs: corruption in either replica triggers a
        rollback of both once the checkpoints are compared."""
        return self.sdc_mtbf_socket / self.total_sockets

    @property
    def sdc_mtbf_replica(self) -> float:
        """SDC MTBF of one replica — the exposure of *undetected* corruption
        during unprotected windows (only the surviving replica's state lives on).
        """
        return self.sdc_mtbf_socket / self.sockets_per_replica

    def with_overrides(self, **kwargs) -> "ModelParams":
        return replace(self, **kwargs)


def paper_fig7_params(
    sockets_per_replica: int,
    delta: float,
    *,
    job_hours: float = 24.0,
    sdc_fit_socket: float = 100.0,
) -> ModelParams:
    """The configuration of Figure 7: M_H = 50 years/socket, 100 FIT/socket."""
    return ModelParams(
        work=job_hours * HOURS,
        delta=delta,
        sockets_per_replica=int(sockets_per_replica),
        hard_mtbf_socket=50 * YEARS,
        sdc_fit_socket=sdc_fit_socket,
    )
