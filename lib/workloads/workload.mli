(** Workload construction: a per-program event profile (Table 5/6) plus a
    genuine compute kernel. The profile drives the machine's event stream —
    page faults, host I/O, MMU churn, synchronization — while the kernel
    produces the actual request/response bytes.

    Scaling (documented in DESIGN.md): memory regions are simulated at
    1/[mem_scale] of the paper's sizes and runs last 1/[time_scale] of the
    paper's wall-clock; all reported *rates* are per-second and the
    overhead percentages are scale-free. *)

val mem_scale : int   (** 16. *)
val time_scale : int  (** 8. *)

val set_scale : float -> unit
(** Multiply every profile's simulated duration by this factor (default 1.0;
    the bench harness's [--scale]). Overheads are scale-free; this only
    trades fidelity of the rate estimates against wall-clock. Set it before
    running machines — in particular before spawning worker domains. *)

type profile = {
  name : string;
  nominal_seconds : float;      (** Table 6 "Time". *)
  nominal_confined_mb : int;    (** Table 6 "Conf.". *)
  common : (string * int) option;  (** Instance name, Table 6 "Com." MB. *)
  threads : int;
  timer_hz : int;               (** Table 6 #Timer target. *)
  pf_per_sec : float;           (** Table 6 #PF target. *)
  hostio_per_sec : float;       (** Table 6 #VE target (proxy networking). *)
  hostio_bytes : int;
  pte_churn_per_sec : float;    (** Background kernel MMU work (EMC rate knob). *)
  sync_per_sec : float;         (** Thread synchronization rate. *)
  contention : float;
  service_per_sec : float;      (** Runtime services (heap/fs). *)
  init_cycles_per_page : int;   (** Content-loading work per confined page. *)
  output_bucket : int;
}

val to_spec :
  profile -> input:bytes -> real_work:(Sim.Machine.ops -> unit) -> Sim.Machine.spec
(** Build a machine spec: [real_work] runs first (producing genuine output
    through the ops channel); then the event loop replays the profile for
    the scaled duration. *)
