(** Multi-tenant sandbox density: per-backend overhead on the Fig. 9
    workloads plus the 1→256 sandboxes-per-CVM scaling curve.

    The paper runs one sandbox per CVM; with pluggable {!Erebor.Isolation}
    backends the same monitor hosts N mutually-distrusting tenants, so two
    new questions appear: what does each backend cost on the calibrated
    workloads, and how does density scale — memory overhead (confined +
    page-table frames), EMC-rate interference between tenants, and
    per-tenant tail latency from {!Obs.Request} root windows. Every scaling
    machine also runs an adversarial probe (cross-tenant confined mapping,
    key-id forgery under TME-MK, sealed-common writable mapping); any
    attempt that is {e not} denied counts as an isolation violation. *)

(** {2 Per-backend Fig. 9 overhead} *)

type backend_row = {
  bprogram : string;
  bbackend : Erebor.Isolation.kind;
  native_cycles : int;
  backend_cycles : int;
  boverhead_pct : float;   (** Run-phase overhead vs the same program native. *)
}

val backend_overhead :
  ?jobs:int -> ?backends:Erebor.Isolation.kind list ->
  unit -> backend_row list
(** Each Fig. 9 program under full Erebor with each backend, against one
    native baseline per program. Backends default to [[Pks; Tme_mk]].
    Fanned over [jobs] domains; rows independent of [jobs]. *)

(** {2 1→256 tenants-per-CVM scaling} *)

type tenant_latency = {
  tenant_id : int;
  tenant_name : string;
  treqs : int;       (** Requests completed by this tenant. *)
  t_p50 : int;       (** Median root-window cycles. *)
  t_p99 : int;       (** Tail root-window cycles. *)
}

type scale_row = {
  sbackend : Erebor.Isolation.kind;
  tenants : int;
  confined_frames : int;    (** Pinned confined frames across all tenants. *)
  ptp_frames : int;         (** Guard-registered page-table pages. *)
  common_frames : int;      (** Frames backing the shared common instance. *)
  frames_per_tenant : float;
      (** (confined + ptp + common) / tenants — the CVM memory overhead
          of packing one more sandbox in. *)
  emc_per_request : float;  (** EMCs per completed request at this density. *)
  emc_interference_pct : float;
      (** Per-request EMC cost vs the same backend's 1-tenant row — the
          interference neighbours add. *)
  worst_p99 : int;          (** Max per-tenant p99 (cycles). *)
  tenant_rows : tenant_latency list;
  violations : int;         (** Adversarial attempts NOT denied; must be 0. *)
}

val scaling :
  ?jobs:int -> ?smoke:bool -> ?backends:Erebor.Isolation.kind list ->
  ?tenant_counts:int list -> ?requests_per_tenant:int ->
  unit -> scale_row list
(** One fresh machine per (backend, tenant-count): N sandboxes share one
    common instance, each is sealed with its own client data, then
    round-robin request traffic is driven through the monitored paths
    (CR3 switch, confined/common touches, channel ioctls, timer ticks)
    with one {!Obs.Request} root window per request. [tenant_counts]
    defaults to powers of two 1→256 (smoke: [[1; 2; 4]], the cut
    [bench check] runs). *)
