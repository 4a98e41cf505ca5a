(** Digital side/covert-channel mitigations (§11 of the paper — discussed as
    adoptable software heuristics, implemented here as a monitor extension):

    - {b exit rate limiting}: a sandbox exceeding its exit budget is stalled
      before resuming, collapsing exit-frequency covert channels;
    - {b quantized output intervals}: results are released only on fixed
      time boundaries, hiding processing-time variation;
    - {b flush on exit}: cache/TLB eviction at every sandbox exit, blunting
      Prime+Probe-style residue channels at a per-exit cost. *)

type policy = {
  exit_rate_limit : int option;
      (** Maximum sandbox exits per second; beyond it the monitor stalls. *)
  output_quantum : int option;
      (** Cycle grid on which output release is permitted. *)
  flush_on_exit : bool;
}

val none : policy
val paranoid : policy
(** 2000 exits/s cap, 10 ms output quantum, flush every exit. *)

type t

val create : clock:Hw.Cycles.clock -> cpu:Hw.Cpu.t -> policy -> t
val policy : t -> policy

val on_sandbox_exit : t -> unit
(** Apply per-exit mitigations: flush cost and, when the rate budget for
    the current one-second window is exhausted, a stall to the next
    window. *)

val release_output : t -> unit
(** Block (advance the clock) until the next output quantum boundary. *)

(** {2 Observability} *)

val stalls : t -> int
val stall_cycles : t -> int
val flushes : t -> int
