(** Live-SLO bench driver: multi-tenant request load with a seeded mid-run
    degradation, asserting that burn-rate alerts and health demotions fire
    for the degraded tenant and {e only} for it.

    One Erebor_full machine hosts N sealed tenants served round-robin
    through the real monitored request paths. Each tenant gets its own
    {!Obs.Window} and a latency SLO over it; a shared {!Obs.Health}
    watchdog tracks every tenant, and all transitions land on a dedicated
    telemetry emitter with a tamper-evident audit chain. Mid-run, one
    tenant's requests go silent for millions of virtual cycles (EMC stall +
    deadline overrun) and then complete with a latency far past the
    objective threshold. *)

type tenant_outcome = {
  tname : string;
  stalled : bool;  (** Whether this was the seeded-degradation target. *)
  served : int;
  alert_fired : bool;  (** The tenant's latency SLO fired at some point. *)
  final_state : Obs.Health.state;
  worst_state : Obs.Health.state;  (** Deepest demotion over the run. *)
  health_transitions : (int * Obs.Health.state) list;
}

type report = {
  outcomes : tenant_outcome list;
  evals : int;  (** SLO/watchdog evaluation ticks over the run. *)
  alert_events : int;  (** [Slo_alert] events on the telemetry bus. *)
  health_events : int;  (** [Health_transition] events on the bus. *)
  audit_records : int;
  audit_intact : bool;  (** The telemetry audit chain verified offline. *)
  failures : string list;  (** Empty iff the attribution verdict holds. *)
}

val run :
  ?backend:Erebor.Isolation.kind ->
  ?tenants:int ->
  ?rounds:int ->
  ?stall_tenant:int ->
  ?stall_rounds:int ->
  unit ->
  report
(** Defaults: 4 tenants, 40 rounds, tenant index 1 stalled for 4 rounds
    starting at the halfway point. Raises [Invalid_argument] when
    [stall_tenant] is out of range. *)

val clean_objectives : Obs.Slo.objective list
(** The machine-level objectives [erebor-sim run --dash] attaches, with
    generous ceilings: EMC latency, EMC rate and the MMU-denial ratio. A
    healthy calibrated run never gets near them. *)

val clean_fig9 :
  ?jobs:int -> ?smoke:bool -> unit -> (string * string list) list
(** Run Fig. 9 programs under full Erebor with the machine-level SLO set
    attached (the [run --dash] objectives) and return each program's fired
    objective names — which must all be empty: a healthy calibrated run
    never alarms. [smoke] cuts to the drugbank program. *)
