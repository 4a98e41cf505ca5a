(** Cycle-attribution sink: attributes every advance of the virtual clock to
    the innermost open (domain x phase) span context, building a
    calling-context tree over {!Trace.phase}s.

    Conservation invariant: after {!close}[ t ~now] with [now] the final
    clock value, [total t = now - t0] exactly (with [t0] the clock value at
    attach time, normally 0) — every cycle is attributed to exactly one
    context, with cycles outside any span accruing to the root and reported
    by {!unattributed}.

    Only span-boundary events are consulted; they are emitted at the
    current clock and arrive in stream order, unlike e.g. EMC completion
    events which carry past timestamps. A begin for the phase already
    innermost re-enters that node instead of nesting, so layered
    instrumentation of one logical handler collapses to one context. *)

type t

val create : unit -> t
val attach : Emitter.t -> t -> t

val close : t -> now:int -> unit
(** Charge the cycles between the last span boundary and [now] to the
    current innermost context. Call once, when the clock stops moving. *)

val open_depth : t -> int
(** Number of spans currently open (0 after a balanced run). *)

val total : t -> int
(** Sum of all attributed cycles, root included. *)

val unattributed : t -> int
(** Cycles observed while no span was open. *)

val phase_cycles : t -> Trace.phase -> int
(** Total self-cycles of every context with this phase, across the tree. *)

val domain_cycles : t -> Trace.domain -> int

val breakdown : t -> (Trace.domain * Trace.phase * int) list
(** Per-(domain x phase) self-cycles, nonzero entries only, in
    {!Trace.phase_index} order. [unattributed] is not included:
    [unattributed t + sum breakdown = total t]. *)

type view = {
  vphase : Trace.phase option;  (** [None] only at the root. *)
  vself : int;                  (** Cycles charged directly here. *)
  vtotal : int;                 (** [vself] + all descendants. *)
  vkids : view list;            (** Children in {!Trace.phase_index} order. *)
}

val view : t -> view
(** Immutable snapshot of the context tree (for flamegraph export etc.);
    deterministic for a deterministic event stream. *)
