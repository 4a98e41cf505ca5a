(** The paper's evaluation, experiment by experiment (§9). Each function
    regenerates one table or figure as structured rows; the bench harness
    formats them. Paper reference values are included so the output can show
    reproduction fidelity side by side. *)

(** {2 Table 3 — privilege-transition round trips} *)

type transition_row = {
  transition : string;
  cycles : int;
  ratio_vs_emc : float;
  paper_cycles : int;
}

val table3 :
  ?backend:Erebor.Isolation.kind ->
  ?instrument:(Obs.Emitter.t -> unit) ->
  unit ->
  transition_row list
(** [?backend] overrides the Erebor machine's isolation backend; the
    committed anchors are the default (PKS) values, and the bench gate
    pins that equivalence. [?instrument] is called on each bench machine's
    emitter before it boots, to attach passive sinks; since observability
    never advances the virtual clock, the measured rows must be identical
    with or without it (pinned by a test). *)

(** {2 Table 4 — privileged-operation costs} *)

type privop_row = {
  op : string;
  native_cycles : int;
  erebor_cycles : int;
  slowdown : float;
  paper_native : int;
  paper_erebor : int;
}

val table4 :
  ?backend:Erebor.Isolation.kind ->
  ?instrument:(Obs.Emitter.t -> unit) ->
  unit ->
  privop_row list

(** {2 Fig. 8 — LMBench} *)

type lmbench_row = {
  bench : string;
  native_avg : float;
  erebor_avg : float;
  ratio : float;
  emc_per_sec : float;
}

val fig8 : ?jobs:int -> unit -> lmbench_row list

(** {2 Fig. 9 + Table 6 — real-world programs} *)

type program_row = {
  program : string;
  setting : Sim.Config.setting;
  overhead_pct : float;         (** Run-phase overhead vs native. *)
  init_overhead_pct : float;
  time_seconds : float;         (** Descaled virtual execution time. *)
  pf_rate : float;
  timer_rate : float;
  ve_rate : float;
  emc_rate : float;
  confined_mb : int;
  common_mb : int;              (** 0 when absent. *)
  output_bytes : int;
}

val all_programs : (string * (unit -> Sim.Machine.spec)) list

val fig9 : ?jobs:int -> unit -> program_row list
(** Every program under every setting (25 fresh machines), fanned across
    [jobs] domains (default {!Sim.Runner.default_jobs}). Row values and
    order are independent of [jobs]. *)

(** {2 Cycle attribution — §9's overhead decomposition from mechanics} *)

type attrib_row = {
  aprogram : string;
  asetting : Sim.Config.setting;
  total_cycles : int;          (** Total virtual cycles of the whole run. *)
  unattributed_cycles : int;   (** Cycles outside any span (init glue). *)
  contexts : (string * string * int) list;
      (** [(domain, phase, cycles)] in stable phase order; together with
          [unattributed_cycles] these sum to [total_cycles] exactly. *)
}

val attrib : ?jobs:int -> ?smoke:bool -> unit -> attrib_row list
(** [smoke] (default false) restricts the sweep to the first program
    across every setting — the @ci conservation gate.
    Every Fig. 9 program x setting, each on a fresh machine with an
    {!Obs.Attrib} sink attached. Deterministic and independent of [jobs]. *)

val table6 : program_row list -> program_row list
(** Filter a fig9 result down to the full-Erebor rows (Table 6's view). *)

val geomean_overhead : program_row list -> Sim.Config.setting -> float

(** {2 Fig. 10 — background servers} *)

type netserve_row = {
  server : string;
  file_kb : int;
  native_mbps : float;
  erebor_mbps : float;
  relative : float;
}

val fig10 : ?jobs:int -> unit -> netserve_row list

(** {2 §9.2 memory saving — common-memory sharing} *)

type memshare_row = {
  sandboxes : int;
  shared_frames : int;      (** Frames with Erebor common sharing. *)
  replicated_frames : int;  (** Frames if each sandbox had a private copy. *)
  saving_pct : float;
}

val memshare : ?jobs:int -> ?max_sandboxes:int -> unit -> memshare_row list
(** Grow a fleet of sandboxes over one shared model instance and account
    real backing frames against the no-sharing replica count, one row per
    fleet size from a single cumulative run. [jobs] is ignored; it stays
    in the signature because the host-cost benchmark passes it. *)
